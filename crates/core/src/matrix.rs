//! The abstract 2-D matrix data type.
//!
//! A [`Matrix`] is the two-dimensional sibling of [`crate::vector::Vector`]:
//! a row-major `rows × cols` view over the same shared
//! `container::Storage` coherence core, kept consistent
//! automatically and *lazily*. A matrix is distributed by the vector's
//! [`Distribution`] applied to whole rows. A stencil input
//! ([`Matrix::set_overlap`]) is block-distributed with each device part
//! padded by `halo_rows` read-only rows from its neighbours (filled by a
//! [`Boundary`] policy at the matrix edges), which is the layout stencil
//! skeletons ([`crate::skeletons::MapOverlap`]) execute on.
//! Re-establishing coherence between stencil sweeps exchanges **only the
//! halo rows** — never whole parts — and every exchange is visible in the
//! oclsim transfer stats and in the runtime's
//! [`crate::runtime::ExecTrace`] halo counters.
//!
//! The matrix contributes only the 2-D bookkeeping (rows × columns, boundary
//! policies, halo widths); every transfer and validity decision is made by
//! the shared `Storage`, driven by the segment geometry of [`RowPartition`].

use std::sync::Arc;

use parking_lot::Mutex;

use oclsim::{pod, Buffer, Pod};

use crate::container::{Container, DynContainer, EdgePolicy, Storage};
use crate::distribution::{Boundary, Distribution, Partition, RowPartition};
use crate::error::{Result, SkelError};
use crate::runtime::{DeviceSelection, SkelCl};
use crate::vector::Residence;

/// Compare two boundaries by value; the constant compares by its `Pod` byte
/// representation, so no `PartialEq` bound on `T` is needed.
pub(crate) fn boundary_eq<T: Pod>(a: &Boundary<T>, b: &Boundary<T>) -> bool {
    match (a, b) {
        (Boundary::Clamp, Boundary::Clamp) | (Boundary::Wrap, Boundary::Wrap) => true,
        (Boundary::Constant(x), Boundary::Constant(y)) => {
            pod::as_bytes(std::slice::from_ref(x)) == pod::as_bytes(std::slice::from_ref(y))
        }
        _ => false,
    }
}

/// Split a [`Boundary`] into the shape-agnostic edge policy and the fill
/// constant the storage keeps.
pub(crate) fn boundary_parts<T: Pod>(boundary: &Boundary<T>) -> (EdgePolicy, Option<T>) {
    match boundary {
        Boundary::Clamp => (EdgePolicy::Clamp, None),
        Boundary::Wrap => (EdgePolicy::Wrap, None),
        Boundary::Constant(c) => (EdgePolicy::Fill, Some(*c)),
    }
}

/// The SkelCL matrix: a row-major 2-D container with host + multi-device
/// storage and lazy coherence. Cloning is cheap and yields a handle to the
/// *same* underlying data, like [`crate::vector::Vector`].
///
/// ```
/// use skelcl::prelude::*;
///
/// let rt = skelcl::init_gpus(2);
/// let m = Matrix::from_fn(&rt, 4, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m.rows(), 4);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m.to_vec().unwrap()[5], 5.0);
/// ```
pub struct Matrix<T: Pod> {
    id: u64,
    inner: Arc<Mutex<Storage<T>>>,
}

impl<T: Pod> Clone for Matrix<T> {
    fn clone(&self) -> Self {
        Matrix {
            id: self.id,
            inner: self.inner.clone(),
        }
    }
}

impl<T: Pod> std::fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Matrix")
            .field("id", &self.id)
            .field("rows", &inner.layout.rows())
            .field("cols", &inner.layout.cols())
            .field("distribution", &inner.distribution)
            .field("halo_rows", &inner.layout.halo())
            .finish()
    }
}

impl<T: Pod> Matrix<T> {
    /// Create a matrix from row-major host data. The initial distribution is
    /// [`Distribution::Block`] over the rows; no device transfer happens until
    /// the matrix is first used on the devices.
    pub fn from_vec(
        runtime: &Arc<SkelCl>,
        rows: usize,
        cols: usize,
        data: Vec<T>,
    ) -> Result<Matrix<T>> {
        if data.len() != rows * cols {
            return Err(SkelError::Distribution(format!(
                "matrix shape {rows}×{cols} needs {} elements, got {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(Matrix {
            id: runtime.next_vector_id(),
            inner: Arc::new(Mutex::new(Storage::new_host(
                runtime.clone(),
                data,
                (rows, cols),
                Distribution::default_for_inputs(),
            ))),
        })
    }

    /// Create a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(
        runtime: &Arc<SkelCl>,
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> T,
    ) -> Matrix<T> {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix::from_vec(runtime, rows, cols, data).expect("shape matches by construction")
    }

    /// Create a `rows × cols` matrix of copies of `value`.
    pub fn filled(runtime: &Arc<SkelCl>, rows: usize, cols: usize, value: T) -> Matrix<T> {
        Matrix::from_vec(runtime, rows, cols, vec![value; rows * cols])
            .expect("shape matches by construction")
    }

    /// Internal constructor for device-resident outputs: the data already
    /// lives in per-device buffers, stored as `layout` says; the host copy is
    /// stale, and any halo rows are stale too (stencil kernels write core
    /// rows only), so the next device use triggers a halo exchange rather
    /// than a full upload.
    pub(crate) fn device_resident(
        runtime: &Arc<SkelCl>,
        distribution: Distribution,
        layout: RowPartition,
        boundary: Boundary<T>,
        buffers: Vec<Option<Buffer>>,
    ) -> Matrix<T> {
        let (edge, fill) = boundary_parts(&boundary);
        Matrix {
            id: runtime.next_vector_id(),
            inner: Arc::new(Mutex::new(Storage::new_device_resident(
                runtime.clone(),
                distribution,
                layout,
                buffers,
                edge,
                fill,
            ))),
        }
    }

    /// Stable identity of the matrix (used to detect aliasing).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The runtime this matrix belongs to.
    pub fn runtime(&self) -> Arc<SkelCl> {
        self.inner.lock().runtime.clone()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.inner.lock().layout.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.inner.lock().layout.cols()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.inner.lock().layout.len()
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current distribution of the rows.
    pub fn distribution(&self) -> Distribution {
        self.inner.lock().distribution.clone()
    }

    /// The halo width of the device parts: the rows each part stores from
    /// its neighbours above and below for a stencil (0 unless the matrix was
    /// prepared with [`Matrix::set_overlap`]).
    pub fn halo_rows(&self) -> usize {
        self.inner.lock().layout.halo()
    }

    /// Where the authoritative data currently lives.
    pub fn residence(&self) -> Residence {
        self.inner.lock().residence()
    }

    /// Per-device core row counts under the current distribution.
    pub fn row_counts(&self) -> Vec<usize> {
        self.inner.lock().layout.core_row_counts()
    }

    /// Change the distribution of the rows, dropping any halo. Like the
    /// vector, the implied data exchange goes through the host and the
    /// re-upload happens lazily on next device use. For halo-only refreshes
    /// between stencil sweeps the runtime uses [`Matrix::set_overlap`] + halo
    /// exchanges instead — never this path. The boundary policy is kept
    /// across redistributions.
    pub fn set_distribution(&self, distribution: Distribution) -> Result<()> {
        self.redistribute(distribution, 0)
    }

    /// Store the rows under `distribution` with `halo_rows` of padding,
    /// through the host unless the matrix is stored that way already.
    fn redistribute(&self, distribution: Distribution, halo_rows: usize) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.distribution == distribution && inner.layout.halo() == halo_rows {
            return Ok(());
        }
        let (edge, fill) = (inner.edge, inner.fill);
        inner.redistribute(distribution, halo_rows, edge, fill)
    }

    /// Whether the parts are row blocks padded by `halo_rows`: what a
    /// stencil of that halo runs on. (At halo 0 a single or copy matrix has
    /// the halo but not the row blocks.)
    fn is_overlapped(inner: &Storage<T>, halo_rows: usize) -> bool {
        let blocks = matches!(
            inner.distribution,
            Distribution::Block | Distribution::BlockWeighted(_)
        );
        blocks && inner.layout.halo() == halo_rows
    }

    /// Coerce the matrix to row blocks padded by `halo_rows` with the given
    /// boundary policy (the stencil-launch preparation step). Row blocks
    /// that already have that halo keep their device parts untouched — their
    /// weights and whatever ghost depth they are stored with — and a
    /// boundary-only change then invalidates just the halo rows. Anything
    /// else is redistributed through the host to an even
    /// [`Distribution::Block`].
    pub fn set_overlap(&self, halo_rows: usize, boundary: Boundary<T>) -> Result<()> {
        self.set_overlap_for(halo_rows, boundary, 1)
    }

    /// [`Matrix::set_overlap`] for parts that are to run `sweeps` sweeps per
    /// halo exchange: parts stored with a shallower ghost zone are re-padded
    /// on their devices (one copy each, no host transfer), deeper ones are
    /// used as they are.
    pub(crate) fn set_overlap_for(
        &self,
        halo_rows: usize,
        boundary: Boundary<T>,
        sweeps: usize,
    ) -> Result<()> {
        let mut inner = self.inner.lock();
        let (edge, fill) = boundary_parts(&boundary);
        // A weighted overlap left behind by fault recovery must keep its
        // survivor weights rather than being clobbered back to an even split.
        if !Self::is_overlapped(&inner, halo_rows) {
            inner.redistribute(Distribution::Block, halo_rows, edge, fill)?;
        } else if !boundary_eq(&self.boundary_of(&inner), &boundary) {
            // Same layout, different boundary: only the policy-filled edge
            // halos change; a halo refresh re-fills them. What neighbouring
            // devices filled stays good unless the new policy changes who
            // the neighbours are (wrapping joins the first and last part).
            let (layout, old) = (&inner.layout, inner.edge);
            let regrouped = (0..layout.device_count())
                .any(|d| layout.faces_neighbour(d, old) != layout.faces_neighbour(d, edge));
            if regrouped {
                inner.ghost_sweeps = 0;
            }
            inner.edge = edge;
            inner.fill = fill;
            inner.halos_valid = false;
        }
        let stored = inner.layout.ghost_depth(edge);
        if stored < sweeps {
            let deeper = inner.layout.with_ghost_depth(sweeps, edge);
            if deeper.ghost_depth(edge) > stored {
                inner.repad(deeper)?;
            }
        }
        Ok(())
    }

    /// The ghost depth of the device parts: how many halo widths of rows a
    /// part stores towards a neighbouring device's part, i.e. how many
    /// stencil sweeps one halo exchange can pay for. 1 unless the iterative
    /// stencil driver ([`crate::skeletons::Launch::run_iter`]) stored the
    /// parts deeper; [`Matrix::halo_rows`] reports the halo width either way.
    /// A property of the stored layout, read by the benches and tests only.
    #[doc(hidden)]
    pub fn ghost_depth(&self) -> usize {
        let inner = self.inner.lock();
        inner.layout.ghost_depth(inner.edge)
    }

    /// The row partition a stencil of halo `halo_rows` runs this matrix on —
    /// its own if it is stored as row blocks with that halo (recovery
    /// weights and ghost depth included), the even split otherwise — and
    /// whether parts stored that way are resident on the devices.
    pub(crate) fn overlap_layout(&self, halo_rows: usize) -> (RowPartition, bool) {
        let inner = self.inner.lock();
        if Self::is_overlapped(&inner, halo_rows) {
            return (inner.layout.clone(), inner.devices_valid);
        }
        let (rows, cols) = (inner.layout.rows(), inner.layout.cols());
        let devices = inner.runtime.device_count();
        let even = RowPartition::compute(rows, cols, devices, &Distribution::Block, halo_rows);
        (even, false)
    }

    /// How many more sweeps this matrix's device parts support before their
    /// ghost rows must be exchanged again (0: not resident, or stale).
    pub(crate) fn ghost_sweeps(&self) -> usize {
        let inner = self.inner.lock();
        if inner.devices_valid {
            inner.ghost_sweeps
        } else {
            0
        }
    }

    /// The launch windows of a sweep over the prepared parts that wants to
    /// leave `sweeps − 1` sweeps' worth of ghost rows valid behind it: the
    /// depth `m <= sweeps` the fresh ghost rows allow, and per device the
    /// first element the kernel binds of the input and output parts and the
    /// number of elements it computes — the core rows plus `(m − 1) · halo`
    /// ghost rows towards each neighbouring device.
    pub(crate) fn sweep_windows(&self, sweeps: usize) -> (usize, Vec<(usize, usize)>) {
        let inner = self.inner.lock();
        let layout = &inner.layout;
        let depth = sweeps.min(inner.ghost_sweeps).max(1);
        let windows = (0..layout.device_count())
            .map(|device| {
                let (first, rows) = layout.sweep_rows(device, inner.edge, depth);
                (
                    (first - layout.halo()) * layout.cols(),
                    rows * layout.cols(),
                )
            })
            .collect();
        (depth, windows)
    }

    /// Record what a stencil sweep left in this (output) matrix's parts:
    /// ghost rows good for `sweeps` more sweeps; the rows a device fills by
    /// itself at the container edges are stale as after any sweep.
    pub(crate) fn set_ghost_sweeps(&self, sweeps: usize) {
        self.inner.lock().ghost_sweeps = sweeps;
    }

    /// Reconstruct the boundary policy from the storage's edge + fill state.
    fn boundary_of(&self, inner: &Storage<T>) -> Boundary<T> {
        match inner.edge {
            EdgePolicy::Clamp => Boundary::Clamp,
            EdgePolicy::Wrap => Boundary::Wrap,
            EdgePolicy::Fill => Boundary::Constant(
                inner
                    .fill
                    .expect("fill-edged matrices carry their constant"),
            ),
        }
    }

    /// The boundary policy used to fill edge halos.
    pub fn boundary(&self) -> Boundary<T> {
        let inner = self.inner.lock();
        self.boundary_of(&inner)
    }

    /// Declare that a kernel has modified the matrix's device data through a
    /// channel the runtime cannot see: the host copy and the halo rows
    /// become stale.
    pub fn mark_device_modified(&self) {
        self.inner.lock().mark_device_modified();
    }

    /// Copy the matrix's contents to a row-major host `Vec`, downloading
    /// (core rows only) from the devices if they hold the newer copy.
    pub fn to_vec(&self) -> Result<Vec<T>> {
        let mut inner = self.inner.lock();
        inner.download_to_host()?;
        Ok(inner.host.clone())
    }

    /// Run `f` over the row-major host copy (downloading first if needed).
    pub fn with_host<R>(&self, f: impl FnOnce(&[T]) -> R) -> Result<R> {
        let mut inner = self.inner.lock();
        inner.download_to_host()?;
        Ok(f(&inner.host))
    }

    /// Mutate the host copy in place (shape is fixed); the device copies
    /// become stale and are re-uploaded lazily.
    pub fn update_host(&self, f: impl FnOnce(&mut [T])) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.download_to_host()?;
        f(&mut inner.host);
        inner.invalidate_devices();
        Ok(())
    }

    /// Element at `(row, col)` (downloads if the devices hold the newer
    /// copy).
    pub fn get(&self, row: usize, col: usize) -> Result<T> {
        let mut inner = self.inner.lock();
        let (rows, cols) = (inner.layout.rows(), inner.layout.cols());
        if row >= rows || col >= cols {
            return Err(SkelError::Distribution(format!(
                "element ({row}, {col}) out of bounds for a {rows}×{cols} matrix"
            )));
        }
        inner.download_to_host()?;
        Ok(inner.host[row * cols + col])
    }

    /// Ensure the matrix data is present on the devices under its current
    /// distribution; with a halo this also guarantees **fresh halo rows**,
    /// refreshed by a halo-only exchange when the core data is already
    /// device-resident (the between-sweeps path of iterative stencils) and
    /// made to last `sweeps` sweeps where the parts store that many halo
    /// widths of ghost rows. Returns the partition and per-device
    /// buffers.
    pub(crate) fn prepare_on_devices(
        &self,
        sweeps: usize,
    ) -> Result<(RowPartition, Vec<Option<Buffer>>)> {
        let mut inner = self.inner.lock();
        inner.prepare_on_devices(sweeps)?;
        Ok((inner.layout.clone(), inner.buffers.clone()))
    }

    /// Force the halo rows fresh now (no-op without a halo or when they are
    /// already valid). Exposed for tests and diagnostics.
    pub fn refresh_halos(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.devices_valid {
            inner.refresh_halos(1)?;
        }
        Ok(())
    }

    /// Commit this matrix as the output of an element-wise launch that wrote
    /// the given buffers: adopt shape, distribution, stored layout, boundary
    /// and buffers.
    pub(crate) fn commit_as_output(
        &self,
        distribution: Distribution,
        layout: RowPartition,
        boundary: Boundary<T>,
        buffers: Vec<Option<Buffer>>,
    ) -> Result<()> {
        let mut inner = self.inner.lock();
        (inner.edge, inner.fill) = boundary_parts(&boundary);
        inner.commit_as_output(distribution, layout, buffers)
    }

    /// Check that this matrix belongs to `runtime`.
    pub(crate) fn check_runtime(&self, runtime: &Arc<SkelCl>) -> Result<()> {
        if Arc::ptr_eq(&self.inner.lock().runtime, runtime) {
            Ok(())
        } else {
            Err(SkelError::RuntimeMismatch)
        }
    }

    /// The buffer of device `d`, if the matrix currently has one there.
    pub fn buffer_of(&self, device: usize) -> Option<Buffer> {
        self.inner.lock().buffers.get(device).cloned().flatten()
    }

    /// The boundary carried onto element-wise outputs: `Clamp`/`Wrap` are
    /// element-type-independent and transfer as-is; a `Constant` (an
    /// input-element value) does not transfer to the output element type and
    /// falls back to clamp — consistent with the stencil skeleton's output
    /// policy.
    fn output_boundary<O: Pod>(&self) -> Boundary<O> {
        match self.boundary() {
            Boundary::Wrap => Boundary::Wrap,
            _ => Boundary::Clamp,
        }
    }

    /// The distribution and the stored layout (its padding included) of the
    /// parts — what an output written over them is stored as.
    fn stored_as(&self) -> (Distribution, RowPartition) {
        let inner = self.inner.lock();
        (inner.distribution.clone(), inner.layout.clone())
    }
}

impl<T: Pod> DynContainer for Matrix<T> {
    fn id(&self) -> u64 {
        Matrix::id(self)
    }

    fn elem_count(&self) -> usize {
        self.len()
    }

    fn check_runtime(&self, runtime: &Arc<SkelCl>) -> Result<()> {
        Matrix::check_runtime(self, runtime)
    }

    fn apply_selection(&self, selection: &DeviceSelection) -> Result<()> {
        match selection {
            DeviceSelection::All | DeviceSelection::AllGpus => Ok(()),
            _ => Err(SkelError::Distribution(
                "matrix launches run on all devices of the runtime; \
                 initialise the runtime with the devices you want"
                    .into(),
            )),
        }
    }

    fn apply_scheduler(&self, _weighted: Distribution) -> Result<()> {
        Err(SkelError::Distribution(
            "schedulers are not supported on matrix launches yet; \
             matrices always split at row granularity"
                .into(),
        ))
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
        self.redistribute(Distribution::block_weighted(weights), self.halo_rows())
    }

    fn refresh_for_replay(&self) -> Result<()> {
        self.inner.lock().refresh_for_replay()
    }

    fn distrust_devices(&self) {
        self.inner.lock().distrust_devices();
    }

    fn prepare_parts(&self, halo_sweeps: usize) -> Result<(Partition, Vec<Option<Buffer>>)> {
        // Halo-padded parts interleave padding with core data; element-wise
        // kernels iterate owned elements only, so drop the halo (keeping any
        // recovery weights).
        if halo_sweeps == 0 {
            self.set_distribution(self.distribution())?;
        }
        let (rows, buffers) = self.prepare_on_devices(halo_sweeps.max(1))?;
        Ok((rows.flat_partition(), buffers))
    }

    fn append_host_bytes(&self, out: &mut Vec<u8>) -> Result<()> {
        self.with_host(|host| out.extend_from_slice(pod::as_bytes(host)))
    }
}

impl<T: Pod> Container<T> for Matrix<T> {
    type Rebound<O: Pod> = Matrix<O>;

    fn runtime(&self) -> Arc<SkelCl> {
        Matrix::runtime(self)
    }

    fn part_sizes(&self) -> Vec<usize> {
        self.inner.lock().layout.flat_partition().sizes()
    }

    fn ensure_on_devices(&self) -> Result<()> {
        self.inner.lock().prepare_on_devices(1)
    }

    fn unify_with<B: Pod>(&self, other: &Matrix<B>) -> Result<()> {
        let (lr, lc) = (self.rows(), self.cols());
        let (rr, rc) = (other.rows(), other.cols());
        if (lr, lc) != (rr, rc) {
            return Err(SkelError::Distribution(format!(
                "zip requires equal matrix shapes, got {lr}×{lc} and {rr}×{rc}"
            )));
        }
        if (self.distribution(), self.halo_rows()) != (other.distribution(), other.halo_rows()) {
            self.coerce_to_block()?;
            other.coerce_to_block()?;
        }
        Ok(())
    }

    fn obtain_output_buffers(&self, lens: &[usize]) -> Vec<Option<Buffer>> {
        self.inner.lock().obtain_output_buffers(lens)
    }

    // Both output paths (fresh wrap and run_into commit) store the written
    // parts as this matrix's are — padding included — under its boundary.
    fn wrap_output<O: Pod>(&self, buffers: Vec<Option<Buffer>>) -> Matrix<O> {
        let (distribution, layout) = self.stored_as();
        let boundary = self.output_boundary::<O>();
        Matrix::device_resident(&self.runtime(), distribution, layout, boundary, buffers)
    }

    fn commit_output<O: Pod>(&self, out: &Matrix<O>, buffers: Vec<Option<Buffer>>) -> Result<()> {
        let (distribution, layout) = self.stored_as();
        out.commit_as_output(distribution, layout, self.output_boundary::<O>(), buffers)
    }
}

// ---------------------------------------------------------------------------
// Fluent pipeline API (element-wise skeletons over matrices)
// ---------------------------------------------------------------------------

use crate::args::Args;
use crate::skeletons::{DeviceScalar, Map, Reduce, Skeleton, Zip};

impl<T: Pod> Matrix<T> {
    /// Apply a [`Map`] skeleton element-wise to this matrix:
    /// `m.map(&square)?` is shorthand for `square.run(&m).exec()?`. The
    /// output matrix has the same shape and distribution.
    pub fn map<O: Pod>(&self, skeleton: &Map<T, O>) -> Result<Matrix<O>> {
        skeleton.run(self).exec()
    }

    /// Apply a [`Map`] skeleton with additional arguments.
    pub fn map_with<O: Pod>(&self, skeleton: &Map<T, O>, args: Args) -> Result<Matrix<O>> {
        skeleton.run(self).args(args).exec()
    }

    /// Apply a [`Map`] skeleton writing into `out` (buffer reuse).
    pub fn map_into<O: Pod>(&self, skeleton: &Map<T, O>, out: &Matrix<O>) -> Result<()> {
        skeleton.run(self).run_into(out)
    }

    /// Pair this matrix element-wise with `other` (same shape) under a
    /// [`Zip`] skeleton: `a.zip(&b, &add)?`.
    pub fn zip<B: Pod, O: Pod>(
        &self,
        other: &Matrix<B>,
        skeleton: &Zip<T, B, O>,
    ) -> Result<Matrix<O>> {
        skeleton.run(self, other).exec()
    }

    /// Apply a [`Zip`] skeleton with additional arguments.
    pub fn zip_with<B: Pod, O: Pod>(
        &self,
        other: &Matrix<B>,
        skeleton: &Zip<T, B, O>,
        args: Args,
    ) -> Result<Matrix<O>> {
        skeleton.run(self, other).args(args).exec()
    }

    /// Apply a [`Zip`] skeleton writing into `out` (buffer reuse).
    pub fn zip_into<B: Pod, O: Pod>(
        &self,
        other: &Matrix<B>,
        skeleton: &Zip<T, B, O>,
        out: &Matrix<O>,
    ) -> Result<()> {
        skeleton.run(self, other).run_into(out)
    }
}

impl Matrix<f32> {
    /// Open a lazy pipeline plan over this matrix: adjacent map stages fuse
    /// into one kernel, stencil stages stay barriers — see
    /// [`crate::plan::MatPlan`].
    pub fn lazy(&self) -> crate::plan::MatPlan {
        crate::plan::MatPlan::from_matrix(self)
    }
}

impl<T: DeviceScalar> Matrix<T> {
    /// Reduce every element of this matrix to a single value:
    /// `m.reduce(&sum)?`.
    pub fn reduce(&self, skeleton: &Reduce<T>) -> Result<T> {
        Skeleton::execute(skeleton, self, &crate::skeletons::LaunchConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::init_gpus;

    #[test]
    fn from_vec_round_trip_and_shape_checks() {
        let rt = init_gpus(2);
        let m = Matrix::from_vec(&rt, 2, 3, vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.len(), 6);
        assert_eq!(m.get(1, 2).unwrap(), 6.0);
        assert!(m.get(2, 0).is_err());
        assert!(Matrix::from_vec(&rt, 2, 3, vec![0.0f32; 5]).is_err());
        assert_eq!(m.distribution(), Distribution::Block);
        assert_eq!(m.residence(), Residence::HostOnly);
    }

    #[test]
    fn row_block_upload_and_download() {
        let rt = init_gpus(3);
        let m = Matrix::from_fn(&rt, 7, 4, |r, c| (r * 10 + c) as f32);
        let expected = m.to_vec().unwrap();
        let (partition, buffers) = m.prepare_on_devices(1).unwrap();
        assert_eq!(partition.core_row_counts().iter().sum::<usize>(), 7);
        assert_eq!(buffers.iter().filter(|b| b.is_some()).count(), 3);
        m.mark_device_modified();
        assert_eq!(m.residence(), Residence::DevicesOnly);
        assert_eq!(m.to_vec().unwrap(), expected);
    }

    #[test]
    fn overlap_upload_pads_parts_with_halo_rows() {
        let rt = init_gpus(2);
        let m = Matrix::from_fn(&rt, 6, 2, |r, _| r as f32);
        m.set_overlap(1, Boundary::Clamp).unwrap();
        let (partition, buffers) = m.prepare_on_devices(1).unwrap();
        assert_eq!(partition.halo(), 1);
        // Device 0 owns rows 0..3, stores rows -1..4 (clamped): 5 rows.
        assert_eq!(buffers[0].as_ref().unwrap().len(), 5 * 2);
        // Read the raw part back: clamp duplicates row 0 at the top, and the
        // bottom halo row is the neighbour's row 3.
        let mut part = vec![0.0f32; 10];
        rt.queue(0)
            .enqueue_read_buffer(buffers[0].as_ref().unwrap(), &mut part)
            .unwrap();
        assert_eq!(part, vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        // Downloads gather core rows only.
        m.mark_device_modified();
        assert_eq!(
            m.to_vec().unwrap(),
            Matrix::from_fn(&rt, 6, 2, |r, _| r as f32)
                .to_vec()
                .unwrap()
        );
    }

    #[test]
    fn wrap_boundary_fills_halos_cyclically() {
        let rt = init_gpus(1);
        let m = Matrix::from_fn(&rt, 3, 1, |r, _| r as f32);
        m.set_overlap(2, Boundary::Wrap).unwrap();
        let (_, buffers) = m.prepare_on_devices(1).unwrap();
        let mut part = vec![0.0f32; 7];
        rt.queue(0)
            .enqueue_read_buffer(buffers[0].as_ref().unwrap(), &mut part)
            .unwrap();
        // rows -2..5 wrapped over 3 rows: 1 2 | 0 1 2 | 0 1
        assert_eq!(part, vec![1.0, 2.0, 0.0, 1.0, 2.0, 0.0, 1.0]);
    }

    #[test]
    fn constant_boundary_fills_halos_with_the_constant() {
        let rt = init_gpus(1);
        let m = Matrix::from_fn(&rt, 2, 2, |r, c| (r * 2 + c) as f32);
        m.set_overlap(1, Boundary::Constant(-7.0)).unwrap();
        let (_, buffers) = m.prepare_on_devices(1).unwrap();
        let mut part = vec![0.0f32; 8];
        rt.queue(0)
            .enqueue_read_buffer(buffers[0].as_ref().unwrap(), &mut part)
            .unwrap();
        assert_eq!(part, vec![-7.0, -7.0, 0.0, 1.0, 2.0, 3.0, -7.0, -7.0]);
    }

    #[test]
    fn halo_refresh_moves_only_halo_rows() {
        let rt = init_gpus(2);
        let m = Matrix::from_fn(&rt, 8, 16, |r, c| (r * 16 + c) as f32);
        m.set_overlap(2, Boundary::Clamp).unwrap();
        m.prepare_on_devices(1).unwrap();
        rt.drain_events();
        // Simulate a sweep having modified the cores: halos stale.
        m.mark_device_modified();
        m.refresh_halos().unwrap();
        let events = rt.drain_events();
        let transfers: Vec<&oclsim::Event> = events
            .iter()
            .flatten()
            .filter(|e| e.is_transfer())
            .collect();
        // Interior boundary + clamped edges, grouped into runs: each halo
        // region is one read + one write of halo*cols elements.
        assert!(!transfers.is_empty());
        let max_bytes = transfers.iter().map(|e| e.bytes).max().unwrap();
        assert!(
            max_bytes <= 2 * 16 * 4,
            "halo refresh must move at most halo*cols elements per transfer, got {max_bytes}"
        );
        let trace = rt.exec_trace();
        assert!(trace.devices.iter().any(|d| d.halo_bytes > 0));
    }

    #[test]
    fn same_overlap_is_a_noop_and_boundary_change_only_invalidates_halos() {
        let rt = init_gpus(2);
        let m = Matrix::from_fn(&rt, 16, 16, |r, c| (r + c) as f32);
        m.set_overlap(1, Boundary::Clamp).unwrap();
        m.prepare_on_devices(1).unwrap();
        let before = rt.now();
        m.set_overlap(1, Boundary::Clamp).unwrap();
        assert_eq!(rt.now(), before, "identical overlap must not move data");
        // Changing only the boundary refreshes halos, not whole parts: the
        // traffic is a few single rows (64 B each), far below the padded
        // part re-upload of (8 + 2) * 16 * 4 = 640 B per device.
        m.set_overlap(1, Boundary::Constant(0.0)).unwrap();
        rt.drain_events();
        m.prepare_on_devices(1).unwrap();
        let events = rt.drain_events();
        let uploads: usize = events
            .iter()
            .flatten()
            .filter(|e| e.is_transfer())
            .map(|e| e.bytes)
            .sum();
        assert!(
            uploads < 10 * 16 * 4,
            "boundary change must exchange halos only, moved {uploads} bytes"
        );
    }

    #[test]
    fn clone_shares_data_and_single_distribution_works() {
        let rt = init_gpus(3);
        let m = Matrix::filled(&rt, 3, 3, 2.5f32);
        let n = m.clone();
        assert_eq!(m.id(), n.id());
        m.set_distribution(Distribution::Single(1)).unwrap();
        let (partition, buffers) = n.prepare_on_devices(1).unwrap();
        assert_eq!(partition.core_row_counts(), vec![0, 3, 0]);
        assert!(buffers[1].is_some() && buffers[0].is_none());
        assert!(m.set_distribution(Distribution::Single(9)).is_err());
        assert_eq!(n.to_vec().unwrap(), vec![2.5f32; 9]);
    }

    #[test]
    fn update_host_invalidates_devices() {
        let rt = init_gpus(2);
        let m = Matrix::filled(&rt, 2, 2, 0.0f32);
        m.prepare_on_devices(1).unwrap();
        m.update_host(|h| h[3] = 9.0).unwrap();
        assert_eq!(m.residence(), Residence::HostOnly);
        assert_eq!(m.to_vec().unwrap(), vec![0.0, 0.0, 0.0, 9.0]);
    }

    #[test]
    fn runtime_mismatch_is_detected() {
        let rt1 = init_gpus(1);
        let rt2 = init_gpus(1);
        let m = Matrix::filled(&rt1, 1, 1, 0i32);
        assert!(m.check_runtime(&rt1).is_ok());
        assert!(m.check_runtime(&rt2).is_err());
    }

    #[test]
    fn boundary_comparison_by_bytes() {
        assert!(boundary_eq::<f32>(&Boundary::Clamp, &Boundary::Clamp));
        assert!(!boundary_eq::<f32>(&Boundary::Clamp, &Boundary::Wrap));
        assert!(boundary_eq(
            &Boundary::Constant(1.5f32),
            &Boundary::Constant(1.5f32)
        ));
        assert!(!boundary_eq(
            &Boundary::Constant(1.5f32),
            &Boundary::Constant(2.5f32)
        ));
    }

    #[test]
    fn elementwise_outputs_adopt_the_input_boundary_metadata() {
        let rt = init_gpus(2);
        let inc = Map::<f32, f32>::from_source("float func(float x) { return x + 1.0f; }");

        // Wrap is element-type-independent and transfers to the output on
        // both output paths (fresh exec and run_into commit).
        let m = Matrix::filled(&rt, 4, 2, 1.0f32);
        m.set_overlap(1, Boundary::Wrap).unwrap();
        let out = m.map(&inc).unwrap();
        assert!(matches!(out.boundary(), Boundary::Wrap));
        let target = Matrix::filled(&rt, 4, 2, 0.0f32);
        target.set_overlap(1, Boundary::Constant(3.0)).unwrap();
        m.map_into(&inc, &target).unwrap();
        assert!(matches!(target.boundary(), Boundary::Wrap));
        assert_eq!(target.to_vec().unwrap(), vec![2.0f32; 8]);

        // A constant boundary is an input-element value and cannot transfer
        // to the output element type: both paths fall back to clamp.
        let c = Matrix::filled(&rt, 4, 2, 1.0f32);
        c.set_overlap(1, Boundary::Constant(7.0)).unwrap();
        let out = c.map(&inc).unwrap();
        assert!(matches!(out.boundary(), Boundary::Clamp));
    }

    #[test]
    fn empty_matrices_round_trip_through_every_distribution() {
        let rt = init_gpus(3);
        for (rows, cols) in [(0usize, 5usize), (4, 0), (0, 0)] {
            let m = Matrix::from_vec(&rt, rows, cols, Vec::<f32>::new()).unwrap();
            for (dist, halo) in [
                (Distribution::Block, 0),
                (Distribution::Copy, 0),
                (Distribution::Single(1), 0),
                (Distribution::Block, 2),
                (Distribution::Block, 0),
            ] {
                m.redistribute(dist.clone(), halo).unwrap();
                let (_, buffers) = m.prepare_on_devices(1).unwrap();
                assert!(
                    buffers.iter().all(Option::is_none),
                    "empty {rows}×{cols} matrix must allocate nothing under {dist:?}, halo {halo}"
                );
                m.mark_device_modified();
                assert_eq!(m.to_vec().unwrap(), Vec::<f32>::new());
                assert_eq!(m.rows(), rows);
                assert_eq!(m.cols(), cols);
            }
        }
    }
}
