//! The reduce skeleton: `reduce(⊕)([x1..xn]) = x1 ⊕ x2 ⊕ ... ⊕ xn`.
//!
//! The operator must be associative but may be non-commutative.
//!
//! There is one lowering. Multi-GPU execution (paper, Sections III-C and V)
//! proceeds in three steps:
//! 1. every GPU holding a part runs the reduce kernel
//!    ([`crate::kernelgen::reduce_kernel`]) over it and leaves "an
//!    intermediate, small result vector": work-item `g` left-folds chunk `g`
//!    of the part into partial `g`,
//! 2. the partial vectors are gathered by the CPU — non-blocking reads on
//!    every device, claimed in device order,
//! 3. the CPU left-folds all partials, in device-then-chunk order, into the
//!    final value.
//!
//! **Canonical association order.** Per device a left fold inside each chunk,
//! then one left fold over every partial, device by device and chunk by
//! chunk. Chunks are contiguous and in order, so associative
//! non-commutative operators stay exact; floating-point results differ from
//! the strictly sequential fold only by this re-association, identically on
//! every execution engine.
//!
//! **Geometry.** A device's part of `n` elements is cut into
//! [`reduce_partials`]`(n)` chunks — one per 256 elements, at most 64, at
//! least one — of `ceil(n / partials)` elements each. At most 64 partials
//! keeps a launch to one 64-lane batch of the kernel engines and the gather
//! to a few hundred bytes; at least 256 elements per partial keeps small
//! inputs from paying for partials they do not need. `.chunks(k)` on the
//! launch overrides the partial count per device and nothing else.
//!
//! The same kernel serves the two places a *single* fold is needed — one
//! work-item is one chunk: step 3 runs it through the host-side kernel
//! engine for source operators ([`HostOperator`]), and with a scheduler
//! attached (`sum.run(&v).scheduler(&s).scalar_with_plan()`) the scheduler
//! may place the final fold on the fastest device instead of the CPU. An
//! eager reduce is a one-stage plan group: the plan's group runner
//! (`plan::run_group`) runs it, as it runs the lazy plans' fused reduce,
//! through [`launch_and_gather`] and the final fold. A Rust closure operator
//! is wrapped in a kernel of the generated kernel's shape, once per skeleton
//! instance, and folds the partials itself.

use std::sync::Arc;

use oclsim::{CostHint, KernelArg, Value};
use skelcl_kernel::interp::ArgBinding;
use skelcl_kernel::types::ScalarType;

use crate::container::Container;
use crate::distribution::{Distribution, Partition};
use crate::error::Result;
use crate::kernelgen::{self, StageKind, UdfInfo};
use crate::plan::{Stage, Target};
use crate::runtime::SkelCl;
use crate::skeletons::exec::Bound;
use crate::skeletons::udf::closure_kernel;
use crate::skeletons::{
    claim_reads, run_call, sequential_cost, BinaryOp, DeviceScalar, Launch, LaunchConfig, Skeleton,
    StageKernels, Udf,
};
use crate::vector::Vector;

/// Elements per partial below which a device's part is not cut further.
const MIN_CHUNK: usize = 256;
/// Most partials a device leaves by default: one lane batch of the kernel
/// engines.
const MAX_PARTIALS: usize = 64;

/// The number of partial results a device leaves for the host when it
/// reduces a part of `n` elements under the default geometry: one per 256
/// elements, at most 64, at least one. The part is cut into that many chunks
/// of `ceil(n / partials)` elements (the last may be shorter).
///
/// ```
/// assert_eq!(skelcl::reduce_partials(1), 1);
/// assert_eq!(skelcl::reduce_partials(511), 1);
/// assert_eq!(skelcl::reduce_partials(4096), 16);
/// assert_eq!(skelcl::reduce_partials(1 << 18), 64);
/// assert_eq!(skelcl::reduce_partials(usize::MAX), 64);
/// ```
pub fn reduce_partials(n: usize) -> usize {
    (n / MIN_CHUNK).clamp(1, MAX_PARTIALS)
}

/// Chunk length and work-item count of one device's launch over `n ≥ 1`
/// elements. The work-item count is exactly the number of non-empty chunks,
/// so the kernel — which derives the chunk length from the launch size —
/// arrives at the same chunk length and no work-item idles.
pub(crate) fn launch_geometry(n: usize, chunks_per_device: Option<usize>) -> (usize, usize) {
    let requested = chunks_per_device.map_or_else(|| reduce_partials(n), |k| k.clamp(1, n));
    let chunk = n.div_ceil(requested);
    (chunk, n.div_ceil(chunk))
}

/// A binary operator over `ty` elements evaluated on the host: the final
/// fold of a reduction's partials, the combination of a scan's totals.
/// Source text runs as the generated reduce kernel with one work-item — one
/// chunk, a plain left fold — on the host-side kernel engine (no runtime is
/// involved), built once per skeleton instance; a closure is called.
pub(crate) struct HostOperator {
    pub(crate) ty: ScalarType,
    eval: HostEval,
}

enum HostEval {
    Kernel {
        program: skelcl_kernel::Program,
        kernel: skelcl_kernel::KernelHandle,
    },
    Closure(Box<dyn Fn(Value, Value) -> Value + Send + Sync>),
}

impl HostOperator {
    pub(crate) fn build(info: &UdfInfo) -> Result<HostOperator> {
        let program = skelcl_kernel::Program::build(&kernelgen::reduce_kernel(info)?)?;
        let kernel = program.kernel(kernelgen::REDUCE_KERNEL)?;
        Ok(HostOperator {
            ty: info.return_type,
            eval: HostEval::Kernel { program, kernel },
        })
    }

    /// The host evaluator of a closure operator over `T` elements.
    pub(crate) fn closure<T: DeviceScalar>(f: Arc<BinaryOp<T>>) -> Result<HostOperator> {
        Ok(HostOperator {
            ty: crate::plan::check_elem_ty::<T>()?,
            eval: HostEval::Closure(Box::new(move |a, b| {
                f(T::from_value(a), T::from_value(b)).to_value()
            })),
        })
    }

    /// Left fold of `values` (not empty) under the operator.
    pub(crate) fn fold<T: DeviceScalar>(&self, values: &mut [T]) -> Result<T> {
        let (program, kernel) = match &self.eval {
            HostEval::Kernel { program, kernel } => (program, kernel),
            HostEval::Closure(f) => {
                let fold = |acc: T, x: &T| T::from_value(f(acc.to_value(), x.to_value()));
                return Ok(values[1..].iter().fold(values[0], fold));
            }
        };
        let mut out = [values[0]];
        let n = values.len() as i32;
        let mut args = [
            ArgBinding::Buffer(T::buffer_view(values)),
            ArgBinding::Buffer(T::buffer_view(&mut out)),
            ArgBinding::Scalar(Value::Int(n)),
        ];
        program.run_ndrange(kernel, 1, &mut args)?;
        Ok(out[0])
    }
}

/// Steps 1 and 2 of every reduction: launch the kernel on each active
/// device of `partition` with the argument layout `[leading…, partials, n,
/// trailing…]` that `bind(device)` supplies, as for the other launchers —
/// then gather the partial vectors — reads enqueued on every device before
/// any is claimed — and return all partials in device-then-chunk order. A
/// Rust closure operator is charged its per-element cost over a chunk
/// (kernel-language kernels are charged what they measure).
pub(crate) fn launch_and_gather<T: DeviceScalar>(
    runtime: &SkelCl,
    kernels: &StageKernels,
    partition: &Partition,
    bind: &dyn Fn(usize) -> Result<Bound>,
    chunks_per_device: Option<usize>,
) -> Result<Vec<T>> {
    let kernel = &kernels.kernel;
    let active = partition.active_devices();
    let bound = active
        .iter()
        .map(|&device| bind(device))
        .collect::<Result<Vec<_>>>()?;
    let mut launched = Vec::with_capacity(active.len());
    let gathered = (|| -> Result<Vec<T>> {
        for (&device, (mut args, _, n_arg, trailing)) in active.iter().zip(bound) {
            let (chunk, work_items) = launch_geometry(partition.size(device), chunks_per_device);
            let out = runtime.context().create_buffer::<T>(device, work_items)?;
            launched.push((device, out.clone(), work_items));
            args.push(KernelArg::Buffer(out));
            args.push(KernelArg::Scalar(n_arg));
            args.extend(trailing);
            let queue = runtime.queue(device);
            match kernels.per_element_cost {
                Some(cost) => queue.enqueue_kernel_with_cost(
                    kernel,
                    work_items,
                    &args,
                    sequential_cost(cost, chunk, 4.0),
                )?,
                None => queue.enqueue_kernel(kernel, work_items, &args)?,
            };
        }
        let mut reads = Vec::with_capacity(launched.len());
        for (device, out, work_items) in &launched {
            let read =
                runtime
                    .queue(*device)
                    .enqueue_read_buffer_region_nb::<T>(out, 0, *work_items)?;
            reads.push((*device, read, *work_items));
        }
        Ok(claim_reads::<T>(runtime, reads)?.concat())
    })();
    for (device, out, _) in &launched {
        if gathered.is_err() {
            // Drop what a failed launch latched before its partials buffer
            // goes back to the pool.
            let _ = runtime.queue(*device).take_deferred_error();
            let _ = runtime.context().release_buffer(out);
        } else {
            runtime.context().release_buffer(out)?;
        }
    }
    gathered
}

/// How a reduction was executed: how many partial results the devices left
/// and where the final fold ran. Returned by the `scalar_with_plan` terminal
/// form so applications and tests can inspect the decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReducePlan {
    /// Number of partial results gathered from the devices: per device
    /// [`reduce_partials`] of its part's length, or what
    /// [`Launch::chunks`] asked for.
    pub intermediate_results: usize,
    /// Device index chosen for the final reduction (meaningful only when
    /// `final_on_cpu` is false).
    pub final_device: usize,
    /// Whether the final reduction ran on the host CPU rather than a
    /// device — always, unless an attached scheduler placed it on a device.
    pub final_on_cpu: bool,
}

/// The reduce skeleton.
///
/// ```
/// use skelcl::prelude::*;
///
/// let rt = skelcl::init_gpus(4);
/// let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
/// let v = Vector::from_vec(&rt, (1..=16).map(|i| i as f32).collect());
/// assert_eq!(sum.run(&v).scalar().unwrap(), 136.0);
/// // Or through the fluent vector pipeline:
/// assert_eq!(v.reduce(&sum).unwrap(), 136.0);
/// ```
pub struct Reduce<T: DeviceScalar> {
    pub(super) udf: Udf<BinaryOp<T>>,
}

impl<T: DeviceScalar> Reduce<T> {
    /// Customise the skeleton with a binary operator given as source code.
    pub fn from_source(source: &str) -> Reduce<T> {
        Reduce {
            udf: Udf::source(source, 2),
        }
    }

    /// Customise the skeleton with a native binary operator.
    pub fn new<F>(f: F) -> Reduce<T>
    where
        F: Fn(T, T) -> T + Send + Sync + 'static,
    {
        Reduce {
            udf: Udf::closure(Arc::new(f), CostHint::DEFAULT),
        }
    }

    /// Begin a launch of this skeleton over `input` — a [`Vector`] or a
    /// [`crate::matrix::Matrix`] (reduced over all its elements):
    /// `sum.run(&v).scalar()?`, `sum.run(&v).into_vector()?`, or the
    /// scheduler-aware `sum.run(&v).scheduler(&s).chunks(8).scalar_with_plan()?`.
    pub fn run<'a, C: Container<T>>(&'a self, input: &C) -> Launch<'a, Self, C> {
        Launch::new(self, input.clone())
    }

    /// This skeleton's operator as a lazy plan stage (source UDFs only), with
    /// its host evaluator.
    pub(crate) fn plan_op(&self) -> Result<(Arc<UdfInfo>, Arc<HostOperator>)> {
        self.udf.plan_operator("reduce")
    }

    /// The reduce kernel for a Rust closure operator: the generated
    /// kernel's shape, work-item `g` folding chunk `g` of
    /// `ceil(n / global size)` elements into `out[g]`.
    fn closure_kernel(
        f: Arc<BinaryOp<T>>,
        cost: CostHint,
    ) -> (oclsim::Kernel, Option<oclsim::Kernel>) {
        let kernel = closure_kernel::<T>("skelcl_reduce_native", "reduce", 1, cost, move |args| {
            let n = args.n;
            let chunk = n.div_ceil(args.global_size.max(1)).max(1);
            let input = (args.input::<T>(0)?.get(..n))
                .ok_or_else(|| format!("reduce input must be a buffer of {n} elements"))?;
            for (part, out) in input.chunks(chunk).zip(args.output) {
                *out = part[1..].iter().fold(part[0], |acc, x| f(acc, *x));
            }
            Ok(())
        });
        (kernel, None)
    }

    /// One reduction through the one call path, as a one-stage group. A
    /// replicated input would be folded once per device; reduce visits every
    /// element exactly once, so it is coerced to a disjoint layout first
    /// (merging replicas through the container's combine function). The
    /// scheduler places the final fold; it does not weight the partition.
    fn execute_with_plan<C: Container<T>>(
        &self,
        input: &C,
        cfg: &LaunchConfig<'_>,
    ) -> Result<(T, ReducePlan)> {
        let kind = StageKind::Reduce;
        let stage = self.udf.stage::<T>(kind, Self::closure_kernel)?;
        let host = Some(self.udf.host_operator(kind.name())?);
        let stage = &Stage { host, ..stage };
        let (runtime, coerce) = (input.runtime(), || input.ensure_disjoint());
        run_call(&runtime, &[input], cfg, Some(stage), &coerce, &mut |call| {
            let (value, plan) = stage.run(call, cfg, Target::default())?.scalar()?;
            Ok((T::from_value(value), plan))
        })
    }
}

impl<T: DeviceScalar, C: Container<T>> Skeleton<C> for Reduce<T> {
    type Output = T;

    fn name(&self) -> &'static str {
        "reduce"
    }

    fn execute(&self, input: &C, cfg: &LaunchConfig<'_>) -> Result<T> {
        Ok(self.execute_with_plan(input, cfg)?.0)
    }
}

impl<T: DeviceScalar, C: Container<T>> Launch<'_, Reduce<T>, C> {
    /// Execute and return the reduced value (alias of [`Launch::exec`]).
    pub fn scalar(self) -> Result<T> {
        self.exec()
    }

    /// Execute and return the reduced value together with the
    /// [`ReducePlan`] describing how the reduction ran: how many partial
    /// results the devices left and where the final fold was placed (the
    /// CPU, unless an attached scheduler chose a device).
    pub fn scalar_with_plan(self) -> Result<(T, ReducePlan)> {
        self.skeleton.execute_with_plan(&self.input, &self.cfg)
    }

    /// Execute and wrap the reduced value in a single-element,
    /// single-distributed vector (the paper's output shape).
    pub fn into_vector(self) -> Result<Vector<T>> {
        let input = self.input.clone();
        let value = self.exec()?;
        let runtime = input.runtime();
        let out = Vector::from_vec(&runtime, vec![value]);
        out.set_distribution(Distribution::Single(0))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SkelError;
    use crate::runtime::init_gpus;
    use crate::skeletons::Map;

    const ADD: &str = "float func(float a, float b) { return a + b; }";

    #[test]
    fn sum_reduction_matches_sequential_for_any_device_count() {
        let data: Vec<f32> = (1..=1000).map(|i| i as f32).collect();
        let expected: f32 = data.iter().sum();
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let sum = Reduce::<f32>::from_source(ADD);
            let v = Vector::from_vec(&rt, data.clone());
            assert_eq!(v.reduce(&sum).unwrap(), expected, "devices = {devices}");
        }
    }

    #[test]
    fn scheduler_aware_reduce_matches_the_plain_result() {
        use crate::scheduler::StaticScheduler;
        let data: Vec<f32> = (1..=4096).map(|i| (i % 31) as f32).collect();
        let expected: f32 = data.iter().sum();
        for devices in [1usize, 3] {
            let rt = init_gpus(devices);
            let scheduler = StaticScheduler::analytical(&rt);
            let sum = Reduce::<f32>::from_source(ADD);
            let v = Vector::from_vec(&rt, data.clone());
            let (value, plan) = sum
                .run(&v)
                .scheduler(&scheduler)
                .chunks(8)
                .scalar_with_plan()
                .unwrap();
            assert_eq!(value, expected, "devices = {devices}");
            assert!(plan.intermediate_results >= devices);
            assert!(plan.intermediate_results <= 8 * devices);
        }
    }

    #[test]
    fn scheduler_aware_reduce_places_small_finals_on_the_cpu_device_when_present() {
        use crate::scheduler::StaticScheduler;
        use oclsim::DeviceProfile;
        let rt = crate::runtime::init_profiles(vec![
            DeviceProfile::tesla_c1060(),
            DeviceProfile::tesla_c1060(),
            DeviceProfile::xeon_e5520(),
        ]);
        let scheduler = StaticScheduler::analytical(&rt);
        let max = Reduce::<i32>::new(|a, b| a.max(b));
        let v = Vector::from_vec(&rt, (0..3000).map(|i| (i * 37) % 1009).collect());
        let (value, plan) = max
            .run(&v)
            .scheduler(&scheduler)
            .chunks(4)
            .scalar_with_plan()
            .unwrap();
        assert_eq!(value, (0..3000).map(|i| (i * 37) % 1009).max().unwrap());
        assert!(
            plan.final_on_cpu,
            "a handful of intermediate results should be finished on the CPU: {plan:?}"
        );
    }

    #[test]
    fn a_scheduler_places_the_final_fold_on_a_selected_device() {
        use crate::runtime::DeviceSelection;
        use crate::scheduler::StaticScheduler;
        use oclsim::DeviceProfile;
        let rt = crate::runtime::init_profiles(vec![
            DeviceProfile::generic_small_gpu(),
            DeviceProfile::tesla_c1060(),
        ]);
        let scheduler = StaticScheduler::analytical(&rt);
        let sum = Reduce::<i32>::new(|a, b| a + b);
        let v = Vector::from_vec(&rt, (1..=4096).collect());
        let (value, plan) = sum
            .run(&v)
            .devices(DeviceSelection::Gpus(1))
            .scheduler(&scheduler)
            .chunks(8)
            .scalar_with_plan()
            .unwrap();
        assert_eq!(value, 4096 * 4097 / 2);
        assert_eq!(plan.final_device, 0, "device 1 was not selected: {plan:?}");
        let events = rt.drain_events();
        assert!(events[1].is_empty(), "device 1 ran {:?}", events[1]);
    }

    #[test]
    fn scheduler_aware_reduce_with_native_operator_and_single_chunk() {
        use crate::scheduler::StaticScheduler;
        let rt = init_gpus(2);
        let scheduler = StaticScheduler::analytical(&rt);
        let sum = Reduce::<i32>::new(|a, b| a + b);
        let v = Vector::from_vec(&rt, (1..=100).collect());
        // chunks_per_device = 1 degenerates to the plain three-step strategy.
        let (value, plan) = sum
            .run(&v)
            .scheduler(&scheduler)
            .chunks(1)
            .scalar_with_plan()
            .unwrap();
        assert_eq!(value, 5050);
        assert_eq!(plan.intermediate_results, 2);
    }

    #[test]
    fn plan_without_scheduler_reports_the_plain_strategy() {
        let rt = init_gpus(3);
        let sum = Reduce::<i32>::new(|a, b| a + b);
        let v = Vector::from_vec(&rt, (1..=30).collect());
        let (value, plan) = sum.run(&v).scalar_with_plan().unwrap();
        assert_eq!(value, 465);
        assert!(plan.final_on_cpu);
        assert_eq!(plan.intermediate_results, 3);
        // Larger parts leave several partials each, and the plan says so.
        let v = Vector::from_vec(&rt, (1..=3000).collect());
        let (value, plan) = sum.run(&v).scalar_with_plan().unwrap();
        assert_eq!(value, 3000 * 3001 / 2);
        assert_eq!(plan.intermediate_results, 3 * reduce_partials(1000));
    }

    #[test]
    fn native_reduce_max() {
        let rt = init_gpus(3);
        let max = Reduce::<i32>::new(|a, b| a.max(b));
        let v = Vector::from_vec(&rt, vec![3, -1, 42, 17, 0, 41]);
        assert_eq!(v.reduce(&max).unwrap(), 42);
    }

    #[test]
    fn non_commutative_operator_preserves_order() {
        // f(a, b) = a * 2 + b is associativity-breaking in general, but the
        // point here is ordering: left-to-right folding over device
        // boundaries must equal the sequential left-to-right fold.
        let data: Vec<f32> = (1..=64).map(|i| (i % 7) as f32).collect();
        let sequential = data[1..].iter().fold(data[0], |acc, x| acc - x);
        for devices in 1..=1 {
            // Subtraction is non-associative, so only the single-device case
            // must match the sequential fold exactly.
            let rt = init_gpus(devices);
            let sub = Reduce::<f32>::new(|a, b| a - b);
            let v = Vector::from_vec(&rt, data.clone());
            assert_eq!(v.reduce(&sub).unwrap(), sequential);
        }
        // Right projection f(a, b) = b is associative and non-commutative:
        // under the required left-to-right combination order the result is
        // always the last element, independent of the device count.
        let values: Vec<f32> = (1..=23).map(|i| i as f32).collect();
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let last = Reduce::<f32>::from_source("float func(float a, float b) { return b; }");
            let v = Vector::from_vec(&rt, values.clone());
            assert_eq!(v.reduce(&last).unwrap(), 23.0, "devices = {devices}");
        }
        // First projection must symmetrically give the first element.
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let first = Reduce::<f32>::new(|a, _b| a);
            let v = Vector::from_vec(&rt, values.clone());
            assert_eq!(v.reduce(&first).unwrap(), 1.0, "devices = {devices}");
        }
    }

    #[test]
    fn reduce_output_vector_is_single_distributed() {
        let rt = init_gpus(2);
        let sum = Reduce::<f32>::from_source(ADD);
        let v = Vector::from_vec(&rt, vec![1.0f32; 10]);
        let out = sum.run(&v).into_vector().unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.distribution(), Distribution::Single(0));
        assert_eq!(out.to_vec().unwrap(), vec![10.0]);
    }

    #[test]
    fn reduce_of_single_element_vector() {
        let rt = init_gpus(4);
        let sum = Reduce::<f32>::from_source(ADD);
        let v = Vector::from_vec(&rt, vec![7.0f32]);
        assert_eq!(v.reduce(&sum).unwrap(), 7.0);
    }

    #[test]
    fn reduce_rejects_empty_input_bad_udf_and_extra_args() {
        let rt = init_gpus(1);
        let sum = Reduce::<f32>::from_source(ADD);
        let empty = Vector::from_vec(&rt, Vec::<f32>::new());
        assert!(matches!(empty.reduce(&sum), Err(SkelError::EmptyInput)));

        let bad = Reduce::<f32>::from_source("float func(float a) { return a; }");
        let v = Vector::from_vec(&rt, vec![1.0f32, 2.0]);
        assert!(matches!(v.reduce(&bad), Err(SkelError::UdfSignature(_))));

        // The binary operator takes no additional arguments.
        assert!(matches!(
            sum.run(&v).arg(1.0f32).scalar(),
            Err(SkelError::UnsupportedArg(_))
        ));
    }

    #[test]
    fn copy_distributed_inputs_reduce_each_element_exactly_once() {
        // A replica per device must not be folded per device: the reduce
        // coerces replicated layouts to disjoint blocks first.
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let sum = Reduce::<f32>::from_source(ADD);

            let v = Vector::from_vec(&rt, vec![1.0f32; 4]);
            v.set_distribution(Distribution::Copy).unwrap();
            v.copy_data_to_devices().unwrap();
            assert_eq!(v.reduce(&sum).unwrap(), 4.0, "devices = {devices}");
            assert_eq!(v.distribution(), Distribution::Block);

            let m = crate::matrix::Matrix::filled(&rt, 2, 2, 1.0f32);
            m.set_distribution(crate::Distribution::Copy).unwrap();
            assert_eq!(m.reduce(&sum).unwrap(), 4.0, "devices = {devices}");
            assert_eq!(m.distribution(), crate::Distribution::Block);

            // The scheduler-aware path applies the same coercion.
            let scheduler = crate::scheduler::StaticScheduler::analytical(&rt);
            let w = Vector::from_vec(&rt, (1..=8).map(|i| i as f32).collect());
            w.set_distribution(Distribution::Copy).unwrap();
            let (value, _) = sum
                .run(&w)
                .scheduler(&scheduler)
                .chunks(2)
                .scalar_with_plan()
                .unwrap();
            assert_eq!(value, 36.0, "devices = {devices}");
        }
    }

    #[test]
    fn reduce_over_a_matrix_folds_every_element() {
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let sum = Reduce::<f32>::from_source(ADD);
            let m = crate::matrix::Matrix::from_fn(&rt, 6, 5, |r, c| (r * 5 + c) as f32);
            assert_eq!(m.reduce(&sum).unwrap(), (0..30).sum::<i32>() as f32);
            let (value, plan) = sum.run(&m).scalar_with_plan().unwrap();
            assert_eq!(value, 435.0);
            assert!(plan.final_on_cpu);
        }
    }

    #[test]
    fn map_output_feeds_reduce_without_host_transfers() {
        // "when a map skeleton's output vector is passed as an input vector
        // to a reduce skeleton, the vector's data resides on the GPU and no
        // data transfer is performed" (paper, Section II-B).
        let rt = init_gpus(2);
        let square = Map::<f32, f32>::from_source("float func(float x) { return x * x; }");
        let sum = Reduce::<f32>::from_source(ADD);
        let v = Vector::from_vec(&rt, (1..=8).map(|i| i as f32).collect());
        let squared = v.map(&square).unwrap();
        rt.drain_events();
        let result = squared.reduce(&sum).unwrap();
        assert_eq!(result, 204.0);
        let events = rt.drain_events();
        let uploads: usize = events
            .iter()
            .flatten()
            .filter(|e| matches!(e.kind, oclsim::CommandKind::WriteBuffer))
            .count();
        assert_eq!(
            uploads, 0,
            "reduce must reuse the map's device-resident output"
        );
    }
}
