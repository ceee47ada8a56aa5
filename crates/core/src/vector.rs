//! The abstract vector data type (paper, Section II-B).
//!
//! A [`Vector`] is "a contiguous memory range where data is accessible by
//! both CPU and GPU". It is a thin 1-D view over the shared
//! `container::Storage` core, which holds the host copy and the
//! per-device buffers and keeps them consistent automatically and *lazily*:
//! CPU access triggers a download only if the device copies are newer;
//! skeleton execution triggers an upload only if the host copy is newer.
//! Consecutive skeleton calls therefore chain on the devices without any
//! host transfers, exactly as described in the paper. All transfer and
//! validity logic lives in `Storage` — the vector contributes only its
//! length (it is stored as a `len × 1` layout) and the fluent pipeline API.

use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;

use oclsim::{Buffer, Pod};

pub use crate::container::Residence;
use crate::container::{Container, DynContainer, EdgePolicy, Storage};
use crate::distribution::{Combine, Distribution, Partition, RowPartition};
use crate::error::Result;
use crate::runtime::{DeviceSelection, SkelCl};

/// The SkelCL vector: host + multi-device storage with lazy coherence.
///
/// Cloning a `Vector` is cheap and yields a handle to the *same* underlying
/// data (like the C++ SkelCL vector, which is passed by reference to
/// skeletons).
pub struct Vector<T: Pod> {
    id: u64,
    inner: Arc<Mutex<Storage<T>>>,
}

impl<T: Pod> Clone for Vector<T> {
    fn clone(&self) -> Self {
        Vector {
            id: self.id,
            inner: self.inner.clone(),
        }
    }
}

impl<T: Pod> std::fmt::Debug for Vector<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Vector")
            .field("id", &self.id)
            .field("len", &inner.layout.len())
            .field("distribution", &inner.distribution)
            .field("residence", &inner.residence())
            .finish()
    }
}

impl<T: Pod> Vector<T> {
    /// Create a vector from host data. The initial distribution is block
    /// (the paper's default for skeleton inputs); no device transfer happens
    /// until the vector is first used on the devices.
    pub fn from_vec(runtime: &Arc<SkelCl>, data: Vec<T>) -> Vector<T> {
        let shape = (data.len(), 1);
        Vector {
            id: runtime.next_vector_id(),
            inner: Arc::new(Mutex::new(Storage::new_host(
                runtime.clone(),
                data,
                shape,
                Distribution::default_for_inputs(),
            ))),
        }
    }

    /// Create a vector of `len` copies of `value`.
    pub fn filled(runtime: &Arc<SkelCl>, len: usize, value: T) -> Vector<T> {
        Vector::from_vec(runtime, vec![value; len])
    }

    /// Internal constructor for skeleton outputs: the data already lives in
    /// per-device buffers; the host copy is stale until first CPU access.
    pub(crate) fn device_resident(
        runtime: &Arc<SkelCl>,
        len: usize,
        distribution: Distribution,
        buffers: Vec<Option<Buffer>>,
    ) -> Vector<T> {
        let layout = RowPartition::compute(len, 1, runtime.device_count(), &distribution, 0);
        Vector {
            id: runtime.next_vector_id(),
            inner: Arc::new(Mutex::new(Storage::new_device_resident(
                runtime.clone(),
                distribution,
                layout,
                buffers,
                EdgePolicy::Clamp,
                None,
            ))),
        }
    }

    /// Stable identity of the vector (used to detect aliasing).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The runtime this vector belongs to.
    pub fn runtime(&self) -> Arc<SkelCl> {
        self.inner.lock().runtime.clone()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inner.lock().layout.len()
    }

    /// Whether the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current distribution.
    pub fn distribution(&self) -> Distribution {
        self.inner.lock().distribution.clone()
    }

    /// Where the authoritative data currently lives.
    pub fn residence(&self) -> Residence {
        self.inner.lock().residence()
    }

    /// Per-device part sizes under the current distribution (the paper's
    /// `events.sizes()` in Listing 3).
    pub fn sizes(&self) -> Vec<usize> {
        self.inner.lock().layout.core_row_counts()
    }

    /// The element range device `d` holds under the current distribution.
    pub fn range_of(&self, device: usize) -> Range<usize> {
        self.inner.lock().layout.core_rows(device)
    }

    /// Set the combine function used when the distribution changes away from
    /// [`Distribution::Copy`] (`Distribution::copy(add)` in the paper).
    pub fn set_combine(&self, combine: Combine<T>) {
        self.inner.lock().combine = combine;
    }

    /// Change the distribution. Data exchanges implied by the change are
    /// performed implicitly; like every SkelCL transfer they are lazy — the
    /// actual upload to the devices happens on next device use.
    pub fn set_distribution(&self, distribution: Distribution) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.distribution == distribution {
            return Ok(());
        }
        inner.redistribute(distribution, 0, EdgePolicy::Clamp, None)
    }

    /// Shorthand for `set_distribution(Distribution::Copy)` followed by
    /// [`Vector::set_combine`] — mirrors `Distribution::copy(add)`.
    pub fn set_copy_distribution_with(&self, combine: Combine<T>) -> Result<()> {
        self.set_combine(combine);
        self.set_distribution(Distribution::Copy)
    }

    /// Declare that a skeleton has modified this vector's data on the devices
    /// through an additional argument (the runtime cannot detect this), so
    /// the host copy is stale. Mirrors `dataOnDevicesModified()` from
    /// Listing 3 of the paper.
    pub fn mark_device_modified(&self) {
        self.inner.lock().mark_device_modified();
    }

    /// Copy the vector's contents to a host `Vec`, downloading from the
    /// devices if they hold the newer copy.
    pub fn to_vec(&self) -> Result<Vec<T>> {
        let mut inner = self.inner.lock();
        inner.download_to_host()?;
        Ok(inner.host.clone())
    }

    /// Run `f` over the host copy (downloading first if necessary).
    pub fn with_host<R>(&self, f: impl FnOnce(&[T]) -> R) -> Result<R> {
        let mut inner = self.inner.lock();
        inner.download_to_host()?;
        Ok(f(&inner.host))
    }

    /// Mutate the host copy (downloading first if necessary); the device
    /// copies become stale and will be re-uploaded lazily.
    pub fn update_host(&self, f: impl FnOnce(&mut Vec<T>)) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.download_to_host()?;
        f(&mut inner.host);
        let len = inner.host.len();
        if len != inner.layout.len() {
            inner.reshape(len, 1);
        }
        inner.invalidate_devices();
        Ok(())
    }

    /// Force the lazy upload now: make the vector's data present on the
    /// devices according to its distribution. Mirrors
    /// `copyDataToDevices()` of the C++ library; normally not needed because
    /// skeletons trigger the upload implicitly.
    pub fn copy_data_to_devices(&self) -> Result<()> {
        self.inner.lock().ensure_on_devices()
    }

    /// Ensure the vector's data is present on the devices according to its
    /// distribution (lazy upload). Returns the per-device buffers (`None` for
    /// devices that hold no part) and the partition.
    pub(crate) fn prepare_on_devices(&self) -> Result<(Partition, Vec<Option<Buffer>>)> {
        let mut inner = self.inner.lock();
        inner.ensure_on_devices()?;
        Ok((inner.layout.flat_partition(), inner.buffers.clone()))
    }

    /// Check that this vector belongs to `runtime`.
    pub(crate) fn check_runtime(&self, runtime: &Arc<SkelCl>) -> Result<()> {
        if Arc::ptr_eq(&self.inner.lock().runtime, runtime) {
            Ok(())
        } else {
            Err(crate::error::SkelError::RuntimeMismatch)
        }
    }

    /// The buffer of device `d`, if the vector currently has one there.
    pub fn buffer_of(&self, device: usize) -> Option<Buffer> {
        self.inner.lock().buffers.get(device).cloned().flatten()
    }

    /// Commit this vector as the output of a skeleton launch that wrote the
    /// given buffers: adopt length, distribution and buffers; the devices now
    /// hold the authoritative copy and the host copy is stale.
    pub(crate) fn commit_as_output(
        &self,
        len: usize,
        distribution: Distribution,
        buffers: Vec<Option<Buffer>>,
    ) -> Result<()> {
        let mut inner = self.inner.lock();
        let layout = RowPartition::compute(len, 1, inner.runtime.device_count(), &distribution, 0);
        inner.commit_as_output(distribution, layout, buffers)
    }
}

impl<T: Pod> DynContainer for Vector<T> {
    fn id(&self) -> u64 {
        Vector::id(self)
    }

    fn elem_count(&self) -> usize {
        self.len()
    }

    fn check_runtime(&self, runtime: &Arc<SkelCl>) -> Result<()> {
        Vector::check_runtime(self, runtime)
    }

    fn apply_selection(&self, selection: &DeviceSelection) -> Result<()> {
        match crate::skeletons::exec::selection_distribution(
            selection,
            self.runtime().device_count(),
        )? {
            Some(distribution) => self.set_distribution(distribution),
            None => Ok(()),
        }
    }

    fn apply_scheduler(&self, weighted: Distribution) -> Result<()> {
        self.set_distribution(weighted)
    }

    fn coerce_to_block(&self) -> Result<()> {
        self.set_distribution(Distribution::Block)
    }

    fn ensure_disjoint(&self) -> Result<()> {
        if self.distribution() == Distribution::Copy {
            self.coerce_to_block()?;
        }
        Ok(())
    }

    fn repartition_for_recovery(&self, weights: &[f64]) -> Result<()> {
        self.set_distribution(Distribution::block_weighted(weights))
    }

    fn refresh_for_replay(&self) -> Result<()> {
        self.inner.lock().refresh_for_replay()
    }

    fn distrust_devices(&self) {
        self.inner.lock().distrust_devices();
    }

    fn prepare_parts(&self, _halo_sweeps: usize) -> Result<(Partition, Vec<Option<Buffer>>)> {
        self.prepare_on_devices()
    }

    fn flat_distribution(&self) -> Option<Distribution> {
        Some(self.distribution())
    }

    fn append_host_bytes(&self, out: &mut Vec<u8>) -> Result<()> {
        self.with_host(|host| out.extend_from_slice(oclsim::pod::as_bytes(host)))
    }
}

impl<T: Pod> Container<T> for Vector<T> {
    type Rebound<O: Pod> = Vector<O>;

    fn runtime(&self) -> Arc<SkelCl> {
        Vector::runtime(self)
    }

    fn part_sizes(&self) -> Vec<usize> {
        self.sizes()
    }

    fn ensure_on_devices(&self) -> Result<()> {
        self.copy_data_to_devices()
    }

    fn unify_with<B: Pod>(&self, other: &Vector<B>) -> Result<()> {
        if self.len() != other.len() {
            return Err(crate::error::SkelError::LengthMismatch {
                left: self.len(),
                right: other.len(),
            });
        }
        // Unify: if the distributions differ (or both are single but on
        // different devices, which compares unequal), coerce both to block
        // (paper, Section III-C).
        if self.distribution() != other.distribution() {
            self.coerce_to_block()?;
            other.coerce_to_block()?;
        }
        Ok(())
    }

    fn obtain_output_buffers(&self, lens: &[usize]) -> Vec<Option<Buffer>> {
        self.inner.lock().obtain_output_buffers(lens)
    }

    fn wrap_output<O: Pod>(&self, buffers: Vec<Option<Buffer>>) -> Vector<O> {
        Vector::device_resident(&self.runtime(), self.len(), self.distribution(), buffers)
    }

    fn commit_output<O: Pod>(&self, out: &Vector<O>, buffers: Vec<Option<Buffer>>) -> Result<()> {
        out.commit_as_output(self.len(), self.distribution(), buffers)
    }
}

// ---------------------------------------------------------------------------
// Fluent pipeline API
// ---------------------------------------------------------------------------

use crate::args::Args;
use crate::skeletons::{DeviceScalar, Map, Reduce, Scan, Skeleton, Zip};

impl<T: Pod> Vector<T> {
    /// Apply a [`Map`] skeleton to this vector:
    /// `v.map(&square)?` is shorthand for `square.run(&v).exec()?`.
    ///
    /// ```
    /// use skelcl::prelude::*;
    ///
    /// let rt = skelcl::init_gpus(2);
    /// let square = Map::<f32, f32>::from_source("float func(float x) { return x * x; }");
    /// let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
    /// let v = Vector::from_vec(&rt, (1..=4).map(|i| i as f32).collect());
    /// let total = v.map(&square)?.reduce(&sum)?;
    /// assert_eq!(total, 30.0);
    /// # skelcl::Result::Ok(())
    /// ```
    pub fn map<O: Pod>(&self, skeleton: &Map<T, O>) -> Result<Vector<O>> {
        skeleton.run(self).exec()
    }

    /// Apply a [`Map`] skeleton with additional arguments.
    pub fn map_with<O: Pod>(&self, skeleton: &Map<T, O>, args: Args) -> Result<Vector<O>> {
        skeleton.run(self).args(args).exec()
    }

    /// Apply a [`Map`] skeleton writing into `out`, reusing `out`'s device
    /// buffers instead of allocating fresh ones (see `Launch::run_into`).
    pub fn map_into<O: Pod>(&self, skeleton: &Map<T, O>, out: &Vector<O>) -> Result<()> {
        skeleton.run(self).run_into(out)
    }

    /// Pair this vector with `other` under a [`Zip`] skeleton:
    /// `x.zip(&y, &saxpy)?`.
    pub fn zip<B: Pod, O: Pod>(
        &self,
        other: &Vector<B>,
        skeleton: &Zip<T, B, O>,
    ) -> Result<Vector<O>> {
        skeleton.run(self, other).exec()
    }

    /// Apply a [`Zip`] skeleton with additional arguments.
    pub fn zip_with<B: Pod, O: Pod>(
        &self,
        other: &Vector<B>,
        skeleton: &Zip<T, B, O>,
        args: Args,
    ) -> Result<Vector<O>> {
        skeleton.run(self, other).args(args).exec()
    }

    /// Apply a [`Zip`] skeleton writing into `out` (buffer reuse).
    pub fn zip_into<B: Pod, O: Pod>(
        &self,
        other: &Vector<B>,
        skeleton: &Zip<T, B, O>,
        out: &Vector<O>,
    ) -> Result<()> {
        skeleton.run(self, other).run_into(out)
    }
}

impl<T: Pod> Vector<T> {
    /// Open a lazy pipeline plan over this vector: fluent stage calls build
    /// an expression DAG, a fusion pass merges adjacent stages into single
    /// kernels, and nothing executes until a terminal form runs —
    /// see [`crate::plan::PlanVec`].
    pub fn lazy(&self) -> crate::plan::PlanVec<T> {
        crate::plan::PlanVec::from_vector(self)
    }
}

impl<T: DeviceScalar> Vector<T> {
    /// Reduce this vector to a single value: `v.reduce(&sum)?`.
    pub fn reduce(&self, skeleton: &Reduce<T>) -> Result<T> {
        Skeleton::execute(skeleton, self, &crate::skeletons::LaunchConfig::default())
    }

    /// Inclusive prefix combination of this vector: `v.scan(&prefix_sum)?`.
    pub fn scan(&self, skeleton: &Scan<T>) -> Result<Vector<T>> {
        Skeleton::execute(skeleton, self, &crate::skeletons::LaunchConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SkelError;
    use crate::runtime::init_gpus;

    #[test]
    fn from_vec_round_trip_without_devices() {
        let rt = init_gpus(2);
        let v = Vector::from_vec(&rt, vec![1.0f32, 2.0, 3.0]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert_eq!(v.residence(), Residence::HostOnly);
        assert_eq!(v.to_vec().unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(v.distribution(), Distribution::Block);
    }

    #[test]
    fn upload_and_download_block_distribution() {
        let rt = init_gpus(3);
        let data: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let v = Vector::from_vec(&rt, data.clone());
        let (partition, buffers) = v.prepare_on_devices().unwrap();
        assert_eq!(partition.sizes().iter().sum::<usize>(), 10);
        assert_eq!(buffers.iter().filter(|b| b.is_some()).count(), 3);
        assert_eq!(v.residence(), Residence::Shared);
        // Invalidate the host copy and force a download.
        v.mark_device_modified();
        assert_eq!(v.residence(), Residence::DevicesOnly);
        assert_eq!(v.to_vec().unwrap(), data);
    }

    #[test]
    fn single_distribution_uses_one_device() {
        let rt = init_gpus(4);
        let v = Vector::from_vec(&rt, vec![5.0f32; 8]);
        v.set_distribution(Distribution::Single(2)).unwrap();
        let (partition, buffers) = v.prepare_on_devices().unwrap();
        assert_eq!(partition.sizes(), vec![0, 0, 8, 0]);
        assert!(buffers[2].is_some());
        assert!(buffers[0].is_none());
        assert_eq!(v.to_vec().unwrap(), vec![5.0f32; 8]);
    }

    #[test]
    fn invalid_single_device_is_rejected() {
        let rt = init_gpus(2);
        let v = Vector::from_vec(&rt, vec![1i32; 4]);
        assert!(v.set_distribution(Distribution::Single(5)).is_err());
    }

    #[test]
    fn copy_distribution_replicates_and_keep_first_on_change() {
        let rt = init_gpus(2);
        let v = Vector::from_vec(&rt, vec![1.0f32, 2.0]);
        v.set_distribution(Distribution::Copy).unwrap();
        let (partition, buffers) = v.prepare_on_devices().unwrap();
        assert_eq!(partition.sizes(), vec![2, 2]);
        assert!(buffers[0].is_some() && buffers[1].is_some());
        // Change back to block: device 0's copy wins (no combine function).
        v.set_distribution(Distribution::Block).unwrap();
        assert_eq!(v.to_vec().unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn copy_distribution_combines_with_add_on_change() {
        let rt = init_gpus(2);
        let v = Vector::from_vec(&rt, vec![1.0f32, 10.0]);
        v.set_copy_distribution_with(Combine::add()).unwrap();
        let (_, buffers) = v.prepare_on_devices().unwrap();
        // Simulate each device modifying its own copy (as the OSEM step 1
        // kernel does through an additional argument).
        for d in 0..2 {
            let buf = buffers[d].as_ref().unwrap();
            rt.queue(d)
                .enqueue_write_buffer(buf, &[(d + 1) as f32, (d + 1) as f32 * 10.0])
                .unwrap();
        }
        v.mark_device_modified();
        // Switching to block must element-wise add the two device copies.
        v.set_distribution(Distribution::Block).unwrap();
        assert_eq!(v.to_vec().unwrap(), vec![3.0, 30.0]);
    }

    #[test]
    fn update_host_invalidates_devices_and_supports_resize() {
        let rt = init_gpus(2);
        let v = Vector::from_vec(&rt, vec![1.0f32, 2.0, 3.0, 4.0]);
        v.prepare_on_devices().unwrap();
        v.update_host(|h| {
            h.push(5.0);
            h[0] = 10.0;
        })
        .unwrap();
        assert_eq!(v.len(), 5);
        assert_eq!(v.residence(), Residence::HostOnly);
        assert_eq!(v.to_vec().unwrap(), vec![10.0, 2.0, 3.0, 4.0, 5.0]);
        let (partition, _) = v.prepare_on_devices().unwrap();
        assert_eq!(partition.sizes().iter().sum::<usize>(), 5);
    }

    #[test]
    fn setting_same_distribution_is_a_noop() {
        let rt = init_gpus(2);
        let v = Vector::from_vec(&rt, vec![0u32; 6]);
        v.prepare_on_devices().unwrap();
        let before = rt.now();
        v.set_distribution(Distribution::Block).unwrap();
        assert_eq!(
            rt.now(),
            before,
            "no data movement for an unchanged distribution"
        );
        assert_eq!(v.residence(), Residence::Shared);
    }

    #[test]
    fn redistribution_releases_old_buffers() {
        let rt = init_gpus(2);
        let v = Vector::from_vec(&rt, vec![1.0f32; 100]);
        v.prepare_on_devices().unwrap();
        let live_before: usize = (0..2)
            .map(|d| rt.context().device(d).unwrap().live_buffers())
            .sum();
        v.set_distribution(Distribution::Single(0)).unwrap();
        v.prepare_on_devices().unwrap();
        let live_after: usize = (0..2)
            .map(|d| rt.context().device(d).unwrap().live_buffers())
            .sum();
        assert_eq!(live_before, 2);
        assert_eq!(live_after, 1);
    }

    #[test]
    fn drop_releases_device_memory() {
        let rt = init_gpus(1);
        {
            let v = Vector::from_vec(&rt, vec![0.0f32; 1000]);
            v.prepare_on_devices().unwrap();
            assert!(rt.context().device(0).unwrap().allocated_bytes() > 0);
        }
        assert_eq!(rt.context().device(0).unwrap().allocated_bytes(), 0);
    }

    #[test]
    fn weighted_block_distribution_partitions_proportionally() {
        let rt = init_gpus(2);
        let v = Vector::from_vec(&rt, vec![1u32; 100]);
        v.set_distribution(Distribution::block_weighted(&[3.0, 1.0]))
            .unwrap();
        assert_eq!(v.sizes(), vec![75, 25]);
        assert_eq!(v.to_vec().unwrap(), vec![1u32; 100]);
    }

    #[test]
    fn runtime_mismatch_is_detected() {
        let rt1 = init_gpus(1);
        let rt2 = init_gpus(1);
        let v = Vector::from_vec(&rt1, vec![1.0f32]);
        assert!(v.check_runtime(&rt1).is_ok());
        assert!(matches!(
            v.check_runtime(&rt2),
            Err(SkelError::RuntimeMismatch)
        ));
    }

    #[test]
    fn clone_shares_data() {
        let rt = init_gpus(1);
        let v = Vector::from_vec(&rt, vec![1.0f32, 2.0]);
        let w = v.clone();
        v.update_host(|h| h[0] = 9.0).unwrap();
        assert_eq!(w.to_vec().unwrap(), vec![9.0, 2.0]);
        assert_eq!(v.id(), w.id());
    }

    #[test]
    fn empty_vector_round_trips_through_every_distribution() {
        let rt = init_gpus(3);
        let v = Vector::from_vec(&rt, Vec::<f32>::new());
        for dist in [
            Distribution::Block,
            Distribution::Copy,
            Distribution::Single(1),
            Distribution::block_weighted(&[1.0, 2.0, 3.0]),
            Distribution::Block,
        ] {
            v.set_distribution(dist).unwrap();
            v.prepare_on_devices().unwrap();
            v.mark_device_modified();
            assert_eq!(v.to_vec().unwrap(), Vec::<f32>::new());
        }
    }
}
