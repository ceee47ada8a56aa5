//! The map skeleton: `map(f)([x1..xn]) = [f(x1)..f(xn)]`.
//!
//! Multi-GPU execution (paper, Section III-C): "each GPU executes the map's
//! unary function on its part of the input vector"; the output container
//! adopts the shape and distribution of the input.
//!
//! The skeleton is **container-generic**: one `Map<I, O>` instance launches
//! over a [`Vector<I>`] (yielding a `Vector<O>`) or element-wise over a
//! row-block [`crate::matrix::Matrix<I>`] (yielding a same-shaped
//! `Matrix<O>`) through the same [`Container`] code path and the same
//! generated kernel — no matrix-specific kernel or launch code exists.
//!
//! The user function is one `Udf`: a source UDF's kernel — `SKELCL_MAP`, or
//! `SKELCL_MAP_INDEX` for [`Map::run_index`] — comes from the runtime's
//! lowering memo, the skeleton instance caching only the analysis of its
//! source, never a built kernel, so one instance serves any number of
//! runtimes; a closure is wrapped in its `NativeKernelDef` once per instance
//! (and once more for its index-map form). A call is a one-stage plan group
//! through the one call path (`exec::run_call`), launched by the plan's
//! group runner.

use std::sync::Arc;

use oclsim::{Buffer, CostHint, Pod};
use parking_lot::Mutex;

use crate::args::ArgAccess;
use crate::container::{Container, DynContainer};
use crate::distribution::{Distribution, Partition};
use crate::error::{Result, SkelError};
use crate::kernelgen::{self, StageKind};
use crate::matrix::Matrix;
use crate::plan::{run_elementwise, Target};
use crate::runtime::{DeviceSelection, SkelCl};
use crate::skeletons::exec::selection_distribution;
use crate::skeletons::udf::closure_kernel;
use crate::skeletons::{run_call, Launch, LaunchConfig, Skeleton, Udf};
use crate::vector::Vector;

/// The closure form of a map's user function.
type MapFn<I, O> = dyn Fn(&I, &mut ArgAccess<'_, '_>) -> O + Send + Sync;

/// The map skeleton.
///
/// ```
/// use skelcl::prelude::*;
///
/// let rt = skelcl::init_gpus(2);
/// let negate = Map::<f32, f32>::from_source("float func(float x) { return -x; }");
/// let v = Vector::from_vec(&rt, vec![1.0f32, -2.0, 3.0]);
/// let out = negate.run(&v).exec().unwrap();
/// assert_eq!(out.to_vec().unwrap(), vec![-1.0, 2.0, -3.0]);
///
/// // The same skeleton instance maps element-wise over a matrix:
/// let m = Matrix::from_fn(&rt, 2, 2, |r, c| (r * 2 + c) as f32);
/// assert_eq!(m.map(&negate).unwrap().to_vec().unwrap(), vec![0.0, -1.0, -2.0, -3.0]);
/// ```
pub struct Map<I: Pod, O: Pod> {
    pub(super) udf: Udf<MapFn<I, O>>,
}

impl<I: Pod, O: Pod> Map<I, O> {
    /// Customise the skeleton with a user-defined function given as source
    /// code in the kernel language. The UDF is the function named `func` (or
    /// the only function); its first parameter receives the input element,
    /// any further (scalar) parameters receive the additional arguments of
    /// the call.
    pub fn from_source(source: &str) -> Map<I, O> {
        Map {
            udf: Udf::source(source, 1),
        }
    }

    /// Customise the skeleton with a native Rust closure. Use this for user
    /// functions that are too complex for the kernel-language subset or that
    /// need vector additional arguments (e.g. the OSEM path tracer).
    pub fn new<F>(f: F) -> Map<I, O>
    where
        F: Fn(&I, &mut ArgAccess<'_, '_>) -> O + Send + Sync + 'static,
    {
        Map::with_cost(f, CostHint::DEFAULT)
    }

    /// [`Map::new`] with the closure's per-element cost hint, which the
    /// virtual-time model charges and the scheduler weighs. Only a closure
    /// takes a hint: source text is estimated statically.
    pub fn with_cost<F>(f: F, cost: CostHint) -> Map<I, O>
    where
        F: Fn(&I, &mut ArgAccess<'_, '_>) -> O + Send + Sync + 'static,
    {
        Map {
            udf: Udf::closure(Arc::new(f), cost),
        }
    }

    /// Begin a launch of this skeleton over `input` — a [`Vector`] or a
    /// [`Matrix`]: `map.run(&v).arg(2.5f32).exec()?`.
    pub fn run<'a, C: Container<I>>(&'a self, input: &C) -> Launch<'a, Self, C> {
        Launch::new(self, input.clone())
    }

    /// This skeleton's user function as a lazy plan stage (source UDFs only).
    pub(crate) fn plan_udf(&self) -> Result<Arc<kernelgen::UdfInfo>> {
        self.udf.plan_stage("map")
    }

    /// The map kernel of a Rust closure: arguments `[in, out, n, extra…]`.
    fn closure_kernel(
        f: Arc<MapFn<I, O>>,
        cost: CostHint,
    ) -> (oclsim::Kernel, Option<oclsim::Kernel>) {
        let kernel = closure_kernel::<O>("skelcl_map_native", "map", 1, cost, move |args| {
            let input = args.input::<I>(0)?;
            let mut access = ArgAccess::new(args.extras);
            for i in 0..args.global_size {
                args.output[i] = f(&input[i], &mut access);
            }
            Ok(())
        });
        (kernel, None)
    }

    /// The shared execution path behind [`Skeleton::execute`] and the
    /// `run_into` terminal form, generic over the input container.
    fn execute_map<C: Container<I>>(
        &self,
        input: &C,
        cfg: &LaunchConfig<'_>,
        reuse: Option<&C::Rebound<O>>,
    ) -> Result<C::Rebound<O>> {
        let stage = self.udf.stage::<O>(StageKind::Map, Self::closure_kernel)?;
        run_elementwise(&stage, &[input], input, cfg, &|| Ok(()), reuse)
    }
}

impl<I: Pod, O: Pod, C: Container<I>> Skeleton<C> for Map<I, O> {
    type Output = C::Rebound<O>;

    fn name(&self) -> &'static str {
        "map"
    }

    fn execute(&self, input: &C, cfg: &LaunchConfig<'_>) -> Result<C::Rebound<O>> {
        self.execute_map(input, cfg, None)
    }
}

impl<I: Pod, O: Pod, C: Container<I>> Launch<'_, Map<I, O>, C> {
    /// Execute, writing the result into `out` and reusing `out`'s device
    /// buffers instead of allocating fresh ones. `out` adopts the launch's
    /// shape and distribution; its previous contents are overwritten.
    pub fn run_into(self, out: &C::Rebound<O>) -> Result<()> {
        self.skeleton
            .execute_map(&self.input, &self.cfg, Some(out))?;
        Ok(())
    }
}

impl<I: Pod, O: Pod> Launch<'_, Map<I, O>, Vector<I>> {
    /// Execute and return the output vector (identity terminal form,
    /// symmetric with reduce's `into_vector`).
    pub fn into_vector(self) -> Result<Vector<O>> {
        self.exec()
    }
}

impl<I: Pod, O: Pod> Launch<'_, Map<I, O>, Matrix<I>> {
    /// Execute and return the output matrix (identity terminal form).
    pub fn into_matrix(self) -> Result<Matrix<O>> {
        self.exec()
    }
}

/// The *implicit index range* `[0, len)` an index map runs over — the input
/// of [`Map::run_index`]. To the call path it is an input like any other,
/// one that owns an iteration space and no buffer: block-distributed unless
/// the launch's device selection or scheduler says otherwise, and
/// re-partitioned onto the survivors when fault recovery loses a device.
#[derive(Clone)]
pub struct IndexRange {
    runtime: Arc<SkelCl>,
    len: usize,
    distribution: Arc<Mutex<Distribution>>,
}

impl DynContainer for IndexRange {
    fn id(&self) -> u64 {
        0
    }

    fn elem_count(&self) -> usize {
        self.len
    }

    fn check_runtime(&self, runtime: &Arc<SkelCl>) -> Result<()> {
        if Arc::ptr_eq(&self.runtime, runtime) {
            Ok(())
        } else {
            Err(SkelError::RuntimeMismatch)
        }
    }

    fn apply_selection(&self, selection: &DeviceSelection) -> Result<()> {
        if let Some(chosen) = selection_distribution(selection, self.runtime.device_count())? {
            *self.distribution.lock() = chosen;
        }
        Ok(())
    }

    fn apply_scheduler(&self, weighted: Distribution) -> Result<()> {
        *self.distribution.lock() = weighted;
        Ok(())
    }

    fn coerce_to_block(&self) -> Result<()> {
        *self.distribution.lock() = Distribution::Block;
        Ok(())
    }

    fn ensure_disjoint(&self) -> Result<()> {
        Ok(())
    }

    fn repartition_for_recovery(&self, weights: &[f64]) -> Result<()> {
        *self.distribution.lock() = Distribution::block_weighted(weights);
        Ok(())
    }

    fn refresh_for_replay(&self) -> Result<()> {
        Ok(())
    }

    fn distrust_devices(&self) {}

    fn prepare_parts(&self, _halo_sweeps: usize) -> Result<(Partition, Vec<Option<Buffer>>)> {
        let devices = self.runtime.device_count();
        let partition = Partition::compute(self.len, devices, &self.distribution.lock());
        Ok((partition, Vec::new()))
    }

    fn flat_distribution(&self) -> Option<Distribution> {
        Some(self.distribution.lock().clone())
    }

    fn append_host_bytes(&self, _out: &mut Vec<u8>) -> Result<()> {
        Err(SkelError::Internal(
            "an index range has no host data".into(),
        ))
    }
}

/// A launch of a map skeleton over an [`IndexRange`]; created by
/// [`Map::run_index`]. Configured and executed like every other [`Launch`].
pub type IndexLaunch<'a, O> = Launch<'a, Map<i32, O>, IndexRange>;

impl<O: Pod> Map<i32, O> {
    /// Begin an index-map launch over the implicit range `[0, len)`:
    /// `map.run_index(&rt, n).arg(scale).exec()?`.
    pub fn run_index<'a>(&'a self, runtime: &Arc<SkelCl>, len: usize) -> IndexLaunch<'a, O> {
        let range = IndexRange {
            runtime: runtime.clone(),
            len,
            distribution: Arc::new(Mutex::new(Distribution::Block)),
        };
        Launch::new(self, range)
    }

    /// The index-map kernel of a Rust closure: arguments
    /// `[out, n, offset, extra…]`.
    fn index_closure_kernel(
        f: Arc<MapFn<i32, O>>,
        cost: CostHint,
    ) -> (oclsim::Kernel, Option<oclsim::Kernel>) {
        let name = "skelcl_map_index_native";
        let kernel = closure_kernel::<O>(name, "index map", 0, cost, move |args| {
            let offset = args.trailing_scalar()?.as_i64();
            let mut access = ArgAccess::new(&mut args.extras[1..]);
            for i in 0..args.global_size {
                args.output[i] = f(&((offset + i as i64) as i32), &mut access);
            }
            Ok(())
        });
        (kernel, None)
    }
}

impl<O: Pod> Skeleton<IndexRange> for Map<i32, O> {
    type Output = Vector<O>;

    fn name(&self) -> &'static str {
        "map"
    }

    /// Execute the index map: `out[i] = f(i, extra...)` for `i` in
    /// `[0, len)`. No input buffer exists, so nothing is uploaded — each
    /// device computes its block of indices from its global ids plus a
    /// per-device offset. This mirrors SkelCL's index-vector facility and is
    /// the natural way to express generator-style workloads such as the
    /// Mandelbrot benchmark.
    fn execute(&self, range: &IndexRange, cfg: &LaunchConfig<'_>) -> Result<Vector<O>> {
        let kind = StageKind::IndexMap;
        let stage = &self.udf.stage::<O>(kind, Self::index_closure_kernel)?;
        let (runtime, coerce) = (&range.runtime, || Ok(()));
        run_call(runtime, &[range], cfg, Some(stage), &coerce, &mut |call| {
            let out = stage.run(call, cfg, Target::default())?.buffers()?;
            let distribution = range.distribution.lock().clone();
            Ok(Vector::device_resident(
                runtime,
                range.len,
                distribution,
                out,
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;
    use crate::runtime::init_gpus;

    #[test]
    fn source_map_on_multiple_devices() {
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let square = Map::<f32, f32>::from_source("float func(float x) { return x * x; }");
            let data: Vec<f32> = (1..=10).map(|i| i as f32).collect();
            let v = Vector::from_vec(&rt, data.clone());
            let out = square.run(&v).exec().unwrap();
            let expected: Vec<f32> = data.iter().map(|x| x * x).collect();
            assert_eq!(out.to_vec().unwrap(), expected, "devices = {devices}");
            assert_eq!(out.distribution(), Distribution::Block);
        }
    }

    #[test]
    fn source_map_with_scalar_additional_argument() {
        let rt = init_gpus(2);
        let scale = Map::<f32, f32>::from_source("float func(float x, float s) { return x * s; }");
        let v = Vector::from_vec(&rt, vec![1.0f32, 2.0, 3.0, 4.0]);
        let out = scale.run(&v).arg(2.5f32).exec().unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![2.5, 5.0, 7.5, 10.0]);
    }

    #[test]
    fn source_map_checks_additional_argument_count() {
        let rt = init_gpus(1);
        let scale = Map::<f32, f32>::from_source("float func(float x, float s) { return x * s; }");
        let v = Vector::from_vec(&rt, vec![1.0f32]);
        assert!(matches!(
            scale.run(&v).exec(),
            Err(SkelError::UdfSignature(_))
        ));
    }

    #[test]
    fn native_map_with_vector_additional_argument() {
        let rt = init_gpus(2);
        // out[i] = x[i] * table[i % table.len()] — the table is a
        // copy-distributed additional vector argument.
        let table = Vector::from_vec(&rt, vec![10.0f32, 100.0]);
        table.set_distribution(Distribution::Copy).unwrap();
        let map = Map::<f32, f32>::new(|x, args| {
            let t = args.slice_f32(0);
            x * t[(*x as usize) % t.len()]
        });
        let v = Vector::from_vec(&rt, vec![1.0f32, 2.0, 3.0, 4.0]);
        let out = map.run(&v).arg(&table).exec().unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![100.0, 20.0, 300.0, 40.0]);
    }

    #[test]
    fn map_output_type_can_differ_from_input() {
        let rt = init_gpus(2);
        let round = Map::<f32, i32>::from_source("int func(float x) { return (int) (x + 0.5f); }");
        let v = Vector::from_vec(&rt, vec![0.2f32, 1.7, 2.4]);
        let out = v.map(&round).unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![0, 2, 2]);
    }

    #[test]
    fn map_on_single_distribution_runs_on_one_device_only() {
        let rt = init_gpus(3);
        let inc = Map::<f32, f32>::from_source("float func(float x) { return x + 1.0f; }");
        let v = Vector::from_vec(&rt, vec![1.0f32; 6]);
        v.set_distribution(Distribution::Single(1)).unwrap();
        let out = v.map(&inc).unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![2.0f32; 6]);
        assert_eq!(out.distribution(), Distribution::Single(1));
        // Only device 1 must have executed a kernel.
        let events = rt.drain_events();
        assert_eq!(events[0].iter().filter(|e| e.is_kernel()).count(), 0);
        assert_eq!(events[1].iter().filter(|e| e.is_kernel()).count(), 1);
        assert_eq!(events[2].iter().filter(|e| e.is_kernel()).count(), 0);
    }

    #[test]
    fn map_on_copy_distribution_executes_on_every_device() {
        let rt = init_gpus(2);
        let inc = Map::<f32, f32>::from_source("float func(float x) { return x + 1.0f; }");
        let v = Vector::from_vec(&rt, vec![1.0f32; 4]);
        v.set_distribution(Distribution::Copy).unwrap();
        let out = v.map(&inc).unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![2.0f32; 4]);
        assert_eq!(out.distribution(), Distribution::Copy);
        let events = rt.drain_events();
        assert_eq!(events[0].iter().filter(|e| e.is_kernel()).count(), 1);
        assert_eq!(events[1].iter().filter(|e| e.is_kernel()).count(), 1);
    }

    #[test]
    fn index_map_from_source_needs_no_input_vector_or_transfer() {
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let square = Map::<i32, i32>::from_source("int func(int i) { return i * i; }");
            let out = square.run_index(&rt, 10).exec().unwrap();
            let expected: Vec<i32> = (0..10).map(|i| i * i).collect();
            // No host→device transfer may have happened: the indices are
            // generated on the devices.
            let uploads: usize = rt
                .drain_events()
                .iter()
                .flatten()
                .filter(|e| e.is_transfer() && !e.is_read())
                .count();
            assert_eq!(uploads, 0, "devices = {devices}");
            assert_eq!(out.to_vec().unwrap(), expected, "devices = {devices}");
            assert_eq!(out.distribution(), Distribution::Block);
        }
    }

    #[test]
    fn index_map_with_additional_arguments_and_native_udf() {
        let rt = init_gpus(3);
        // Source UDF with an extra scalar: out[i] = i * scale.
        let scaled =
            Map::<i32, f32>::from_source("float func(int i, float scale) { return i * scale; }");
        let out = scaled.run_index(&rt, 7).arg(0.5f32).exec().unwrap();
        assert_eq!(
            out.to_vec().unwrap(),
            (0..7).map(|i| i as f32 * 0.5).collect::<Vec<_>>()
        );
        // Native UDF over the same range.
        let native = Map::<i32, i32>::new(|i, _| i + 100);
        let out = native.run_index(&rt, 5).exec().unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![100, 101, 102, 103, 104]);
    }

    #[test]
    fn index_map_honours_device_selection() {
        let rt = init_gpus(4);
        let m = Map::<i32, i32>::from_source("int func(int i) { return i; }");
        rt.drain_events();
        let out = m
            .run_index(&rt, 12)
            .devices(DeviceSelection::Gpus(2))
            .exec()
            .unwrap();
        assert_eq!(out.to_vec().unwrap(), (0..12).collect::<Vec<_>>());
        let events = rt.drain_events();
        assert_eq!(events[2].iter().filter(|e| e.is_kernel()).count(), 0);
        assert_eq!(events[3].iter().filter(|e| e.is_kernel()).count(), 0);
    }

    #[test]
    fn index_map_rejects_empty_ranges_and_float_indices() {
        let rt = init_gpus(1);
        let m = Map::<i32, i32>::from_source("int func(int i) { return i; }");
        assert!(matches!(
            m.run_index(&rt, 0).exec(),
            Err(SkelError::EmptyInput)
        ));
        let bad = Map::<i32, f32>::from_source("float func(float x) { return x; }");
        assert!(matches!(
            bad.run_index(&rt, 4).exec(),
            Err(SkelError::UdfSignature(_))
        ));
    }

    /// A part longer than the kernels' `int` fails before anything is
    /// allocated or enqueued: the 2 GiB output is never created.
    #[test]
    fn index_map_beyond_the_int_range_fails_before_allocating() {
        let rt = init_gpus(1);
        let low_byte = Map::<i32, u8>::new(|i, _| *i as u8);
        let len = i32::MAX as usize + 1;
        match low_byte.run_index(&rt, len).exec() {
            Err(SkelError::Plan(msg)) => assert_eq!(
                msg,
                format!("a launch of {len} elements exceeds the kernels' int range")
            ),
            other => panic!("expected the int-range error, got {:?}", other.map(|_| ())),
        }
        assert_eq!(rt.context().device(0).unwrap().live_buffers(), 0);
        assert!(
            rt.drain_events().iter().all(Vec::is_empty),
            "nothing enqueued"
        );
    }

    #[test]
    fn empty_input_is_rejected() {
        let rt = init_gpus(1);
        let inc = Map::<f32, f32>::from_source("float func(float x) { return x + 1.0f; }");
        let v = Vector::from_vec(&rt, Vec::<f32>::new());
        assert!(matches!(v.map(&inc), Err(SkelError::EmptyInput)));
    }

    #[test]
    fn consecutive_maps_chain_on_devices_without_host_transfers() {
        let rt = init_gpus(2);
        let inc = Map::<f32, f32>::from_source("float func(float x) { return x + 1.0f; }");
        let v = Vector::from_vec(&rt, vec![0.0f32; 8]);
        let a = v.map(&inc).unwrap();
        rt.drain_events();
        let b = a.map(&inc).unwrap();
        // The second call must not transfer anything: its input already
        // resides on the devices (lazy transfers, paper Section II-B).
        let events = rt.drain_events();
        let transfers: usize = events.iter().flatten().filter(|e| e.is_transfer()).count();
        assert_eq!(transfers, 0, "chained skeletons must not move data");
        assert_eq!(b.to_vec().unwrap(), vec![2.0f32; 8]);
    }

    #[test]
    fn run_into_reuses_the_output_vector() {
        let rt = init_gpus(2);
        let inc = Map::<f32, f32>::from_source("float func(float x) { return x + 1.0f; }");
        let v = Vector::from_vec(&rt, vec![1.0f32; 8]);
        let out = Vector::from_vec(&rt, vec![0.0f32; 8]);
        out.copy_data_to_devices().unwrap();
        inc.run(&v).run_into(&out).unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![2.0f32; 8]);
        // Repeat into the same target: steady state, buffers reused.
        inc.run(&v).run_into(&out).unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![2.0f32; 8]);
    }

    #[test]
    fn map_over_matrix_matches_vector_map_and_keeps_shape() {
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let square = Map::<f32, f32>::from_source("float func(float x) { return x * x; }");
            let data: Vec<f32> = (0..12).map(|i| i as f32 - 5.5).collect();
            let m = Matrix::from_vec(&rt, 4, 3, data.clone()).unwrap();
            let v = Vector::from_vec(&rt, data.clone());
            let mo = m.map(&square).unwrap();
            let vo = v.map(&square).unwrap();
            assert_eq!(
                mo.to_vec().unwrap(),
                vo.to_vec().unwrap(),
                "devices = {devices}"
            );
            assert_eq!(mo.rows(), 4);
            assert_eq!(mo.cols(), 3);
            assert_eq!(mo.distribution(), Distribution::Block);
        }
    }

    #[test]
    fn map_into_reuses_a_matrix_target() {
        let rt = init_gpus(2);
        let inc = Map::<f32, f32>::from_source("float func(float x) { return x + 1.0f; }");
        let m = Matrix::filled(&rt, 4, 4, 1.0f32);
        let out = Matrix::filled(&rt, 4, 4, 0.0f32);
        out.map(&inc).unwrap(); // warm the target's buffers
        m.map_into(&inc, &out).unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![2.0f32; 16]);
    }
}
