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
//! A source UDF's kernel — `SKELCL_MAP`, or `SKELCL_MAP_INDEX` for
//! [`Map::run_index`] — comes from the runtime's lowering memo
//! (`exec::source_kernel`): the skeleton instance caches only the analysis of
//! its source, never a built kernel, so one instance serves any number of
//! runtimes. A closure builds its `NativeKernelDef` per call. Both launch
//! through `exec::launch_elementwise`.

use std::sync::Arc;

use oclsim::{CostHint, KernelArg, NativeKernelDef, Pod, Program, Value};

use crate::args::{ArgAccess, Args};
use crate::container::Container;
use crate::distribution::Distribution;
use crate::error::{Result, SkelError};
use crate::kernelgen::{self, StageKind};
use crate::matrix::Matrix;
use crate::runtime::{DeviceSelection, SkelCl};
use crate::skeletons::exec::{create_buffer, execute_single, launch_elementwise, source_kernel};
use crate::skeletons::{Launch, LaunchConfig, PreparedArgs, Skeleton, UdfCache};
use crate::vector::Vector;

enum MapUdf<I, O> {
    Source(String),
    Native(Arc<dyn Fn(&I, &mut ArgAccess<'_, '_>) -> O + Send + Sync>),
}

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
    udf: MapUdf<I, O>,
    cost: CostHint,
    cache: UdfCache,
}

impl<I: Pod, O: Pod> Map<I, O> {
    /// Customise the skeleton with a user-defined function given as source
    /// code in the kernel language. The UDF is the function named `func` (or
    /// the only function); its first parameter receives the input element,
    /// any further (scalar) parameters receive the additional arguments of
    /// the call.
    pub fn from_source(source: &str) -> Map<I, O> {
        Map {
            udf: MapUdf::Source(source.to_string()),
            cost: CostHint::DEFAULT,
            cache: UdfCache::new(),
        }
    }

    /// Customise the skeleton with a native Rust closure. Use this for user
    /// functions that are too complex for the kernel-language subset or that
    /// need vector additional arguments (e.g. the OSEM path tracer).
    pub fn new<F>(f: F) -> Map<I, O>
    where
        F: Fn(&I, &mut ArgAccess<'_, '_>) -> O + Send + Sync + 'static,
    {
        Map {
            udf: MapUdf::Native(Arc::new(f)),
            cost: CostHint::DEFAULT,
            cache: UdfCache::new(),
        }
    }

    /// Override the per-element cost hint used by the virtual-time model
    /// (native UDFs only; source UDFs are estimated statically).
    pub fn with_cost(mut self, cost: CostHint) -> Self {
        self.cost = cost;
        self
    }

    /// Begin a launch of this skeleton over `input` — a [`Vector`] or a
    /// [`Matrix`]: `map.run(&v).arg(2.5f32).exec()?`.
    pub fn run<'a, C: Container<I>>(&'a self, input: &C) -> Launch<'a, Self, C> {
        Launch::new(self, input.clone())
    }

    /// The per-element cost used for scheduler-weighted partitioning.
    fn scheduler_cost(&self) -> CostHint {
        match &self.udf {
            MapUdf::Source(src) => self
                .cache
                .info(src, 1)
                .map_or(self.cost, |info| info.cost_hint()),
            MapUdf::Native(_) => self.cost,
        }
    }

    /// The analysed source UDF for use in a lazy plan. Native closures have
    /// no source to fuse, so they cannot participate in plans.
    pub(crate) fn plan_udf(&self) -> Result<Arc<kernelgen::UdfInfo>> {
        match &self.udf {
            MapUdf::Source(src) => self.cache.info(src, 1),
            MapUdf::Native(_) => Err(SkelError::Plan(
                "map stage uses a native Rust closure; lazy plans require source UDFs".into(),
            )),
        }
    }

    fn native_kernel(&self) -> Option<oclsim::Kernel> {
        let MapUdf::Native(f) = &self.udf else {
            return None;
        };
        let f = f.clone();
        let def = NativeKernelDef::new("skelcl_map_native", self.cost, move |ctx| {
            let n = ctx.global_size();
            let mut views = ctx.arg_views();
            let (in_view, rest) = views
                .split_first_mut()
                .ok_or_else(|| "map kernel is missing its input argument".to_string())?;
            let (out_view, rest) = rest
                .split_first_mut()
                .ok_or_else(|| "map kernel is missing its output argument".to_string())?;
            let (_n_view, extra) = rest
                .split_first_mut()
                .ok_or_else(|| "map kernel is missing its length argument".to_string())?;
            let input = in_view
                .as_slice::<I>()
                .ok_or_else(|| "map input must be a buffer".to_string())?;
            let output = out_view
                .as_slice_mut::<O>()
                .ok_or_else(|| "map output must be a buffer".to_string())?;
            let mut access = ArgAccess::new(extra);
            for i in 0..n {
                output[i] = f(&input[i], &mut access);
            }
            Ok(())
        });
        let program = Program::from_native([def]);
        program.kernel("skelcl_map_native").ok()
    }

    /// Resolve the kernel to launch and validate the additional arguments
    /// against the UDF kind.
    fn resolve_kernel(&self, runtime: &SkelCl, prepared: &PreparedArgs) -> Result<oclsim::Kernel> {
        match &self.udf {
            MapUdf::Source(src) => {
                source_kernel(runtime, StageKind::Map, &self.cache.info(src, 1)?, prepared)
            }
            MapUdf::Native(_) => Ok(self
                .native_kernel()
                .expect("native kernel construction cannot fail")),
        }
    }

    /// The shared execution path behind [`Skeleton::execute`] and the
    /// `run_into` terminal form, generic over the input container.
    fn execute_map<C: Container<I>>(
        &self,
        input: &C,
        cfg: &LaunchConfig<'_>,
        reuse: Option<&C::Rebound<O>>,
    ) -> Result<C::Rebound<O>> {
        let scheduler_cost = cfg.scheduler.map(|_| self.scheduler_cost());
        execute_single(input, cfg, scheduler_cost, reuse, &|call| {
            self.resolve_kernel(&call.runtime, &call.prepared_args)
        })
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

/// A launch of a map skeleton over the *implicit index range* `[0, len)`;
/// created by [`Map::run_index`]. Supports the same configuration methods as
/// [`Launch`].
#[must_use = "an IndexLaunch does nothing until `exec()` is called"]
pub struct IndexLaunch<'a, O: Pod> {
    map: &'a Map<i32, O>,
    runtime: Arc<SkelCl>,
    len: usize,
    cfg: LaunchConfig<'a>,
}

impl<'a, O: Pod> IndexLaunch<'a, O> {
    /// Replace the additional arguments of the call.
    pub fn args(mut self, args: Args) -> Self {
        self.cfg.args = args;
        self
    }

    /// Append one additional argument.
    pub fn arg(mut self, value: impl crate::args::IntoArg) -> Self {
        self.cfg.args = self.cfg.args.arg(value);
        self
    }

    /// Restrict the launch to a subset of the runtime's devices.
    pub fn devices(mut self, selection: DeviceSelection) -> Self {
        self.cfg.devices = Some(selection);
        self
    }

    /// Partition the index range by a static scheduler's predictions.
    pub fn scheduler(mut self, scheduler: &'a crate::scheduler::StaticScheduler) -> Self {
        self.cfg.scheduler = Some(scheduler);
        self
    }

    /// The distribution of the generated output under the configured device
    /// selection / scheduler.
    fn output_distribution(&self) -> Result<Distribution> {
        if let Some(scheduler) = self.cfg.scheduler {
            return Ok(scheduler.weighted_block(self.map.scheduler_cost()));
        }
        let override_dist = match &self.cfg.devices {
            Some(selection) => crate::skeletons::exec::selection_distribution(
                selection,
                self.runtime.device_count(),
            )?,
            None => None,
        };
        Ok(override_dist.unwrap_or(Distribution::Block))
    }

    /// Execute the index map: `out[i] = f(i, extra...)` for `i` in
    /// `[0, len)`. No input buffer exists, so nothing is uploaded — each
    /// device computes its block of indices from its global ids plus a
    /// per-device offset. This mirrors SkelCL's index-vector facility and is
    /// the natural way to express generator-style workloads such as the
    /// Mandelbrot benchmark.
    pub fn exec(self) -> Result<Vector<O>> {
        let runtime = &self.runtime;
        runtime.charge_skeleton_call();
        if self.len == 0 {
            return Err(SkelError::EmptyInput);
        }
        let distribution = self.output_distribution()?;
        let partition = crate::distribution::Partition::compute(
            self.len,
            runtime.device_count(),
            &distribution,
        );
        let prepared = PreparedArgs::prepare(runtime, &self.cfg.args)?;

        let kernel = match &self.map.udf {
            MapUdf::Source(src) => source_kernel(
                runtime,
                StageKind::IndexMap,
                &self.map.cache.info(src, 1)?,
                &prepared,
            )?,
            MapUdf::Native(f) => {
                let f = f.clone();
                let def =
                    NativeKernelDef::new("skelcl_map_index_native", self.map.cost, move |ctx| {
                        let n = ctx.global_size();
                        // Arguments: [out, n, offset, extra...] — the
                        // per-device offset is the third argument.
                        let offset = ctx.scalar_usize(2)?;
                        let mut views = ctx.arg_views();
                        let (out_view, rest) = views
                            .split_first_mut()
                            .ok_or_else(|| "index map kernel is missing its output".to_string())?;
                        let (_n_view, rest) = rest
                            .split_first_mut()
                            .ok_or_else(|| "index map kernel is missing its length".to_string())?;
                        let (_offset_view, extra) = rest
                            .split_first_mut()
                            .ok_or_else(|| "index map kernel is missing its offset".to_string())?;
                        let output = out_view
                            .as_slice_mut::<O>()
                            .ok_or_else(|| "index map output must be a buffer".to_string())?;
                        let mut access = ArgAccess::new(extra);
                        for i in 0..n {
                            output[i] = f(&((offset + i) as i32), &mut access);
                        }
                        Ok(())
                    });
                let program = Program::from_native([def]);
                program
                    .kernel("skelcl_map_index_native")
                    .expect("native kernel construction cannot fail")
            }
        };

        // The element-wise launch with no input buffer: the per-device
        // offset follows `n`, ahead of the additional arguments.
        let out_buffers = launch_elementwise(
            runtime,
            &kernel,
            &partition,
            &|device| {
                let offset = partition.range(device).start;
                let mut trailing = vec![KernelArg::Scalar(Value::Int(offset as i32))];
                trailing.extend(prepared.kernel_args_for(device)?);
                Ok((Vec::new(), trailing))
            },
            create_buffer::<O>,
            None,
        )?;

        Ok(Vector::device_resident(
            runtime,
            self.len,
            distribution,
            out_buffers,
        ))
    }
}

impl<O: Pod> Map<i32, O> {
    /// Begin an index-map launch over the implicit range `[0, len)`:
    /// `map.run_index(&rt, n).arg(scale).exec()?`.
    pub fn run_index<'a>(&'a self, runtime: &Arc<SkelCl>, len: usize) -> IndexLaunch<'a, O> {
        IndexLaunch {
            map: self,
            runtime: runtime.clone(),
            len,
            cfg: LaunchConfig::default(),
        }
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
            assert_eq!(mo.distribution(), crate::MatrixDistribution::RowBlock);
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
