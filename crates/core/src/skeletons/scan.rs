//! The scan skeleton: inclusive prefix combination,
//! `scan(⊕)([x1..xn]) = [x1, x1⊕x2, ..., x1⊕...⊕xn]`.
//!
//! Multi-GPU execution (paper, Section III-C and Figure 2):
//! 1. every GPU runs a local scan of its part,
//! 2. the per-part totals are downloaded to the host (non-blocking reads on
//!    every device, claimed in device order),
//! 3. for every GPU except the first, a map skeleton is created implicitly
//!    that combines the totals of its predecessors — folded on the host
//!    through the operator's cached [`HostOperator`] — with every element of
//!    its part,
//! 4. these map kernels compute the final result on the devices.
//!
//! The output vector is block-distributed.
//!
//! [`launch_scan`] is that flow, written once, and the plan's group runner
//! (`plan::run_group`) its only caller: an eager scan is a one-stage group —
//! source (kernels from the runtime's lowering memo) or closure (a
//! `NativeKernelDef` pair built once per skeleton instance) — and the lazy
//! plans' scan groups read an inlined elementwise chain. Every terminal form
//! of an eager scan — `exec`, `run_into`, `trace` — runs through the one
//! call path and so under its fault recovery.

use std::sync::Arc;

use oclsim::{Buffer, CostHint, KernelArg, Value};

use crate::container::DynContainer;
use crate::distribution::Partition;
use crate::error::{Result, SkelError};
use crate::kernelgen::{StageKind, UdfInfo};
use crate::plan::{GroupOutput, Stage, Target};
use crate::runtime::SkelCl;
use crate::skeletons::exec::{create_buffer, Bound, OutputBuffers};
use crate::skeletons::udf::closure_kernel;
use crate::skeletons::{
    claim_reads, run_call, sequential_cost, wait_events, BinaryOp, DeviceScalar, HostOperator,
    Launch, LaunchConfig, PreparedCall, Skeleton, StageKernels, Udf,
};
use crate::vector::Vector;

/// Intermediate state of one multi-device scan: exposed so that tests and the
/// Figure 2 example can show the per-stage values exactly as the paper does.
/// Produced by the `trace` terminal form:
/// `scan.run(&v).trace()?`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanTrace<T> {
    /// The local (per-device) scan results before offsets are applied —
    /// the second row of Figure 2.
    pub local_scans: Vec<Vec<T>>,
    /// The offset combined into each device's part (`None` for the first
    /// device) — the values marked in Figure 2.
    pub offsets: Vec<Option<T>>,
}

/// The scan (prefix) skeleton.
///
/// ```
/// use skelcl::prelude::*;
///
/// let rt = skelcl::init_gpus(4);
/// let prefix_sum = Scan::<f32>::from_source("float func(float a, float b) { return a + b; }");
/// let v = Vector::from_vec(&rt, (1..=16).map(|i| i as f32).collect());
/// let out = v.scan(&prefix_sum).unwrap();
/// assert_eq!(out.to_vec().unwrap().last().copied(), Some(136.0));
/// ```
pub struct Scan<T: DeviceScalar> {
    pub(super) udf: Udf<BinaryOp<T>>,
}

impl<T: DeviceScalar> Scan<T> {
    /// Customise the skeleton with a binary operator given as source code.
    pub fn from_source(source: &str) -> Scan<T> {
        Scan {
            udf: Udf::source(source, 2),
        }
    }

    /// Customise the skeleton with a native binary operator.
    pub fn new<F>(f: F) -> Scan<T>
    where
        F: Fn(T, T) -> T + Send + Sync + 'static,
    {
        Scan {
            udf: Udf::closure(Arc::new(f), CostHint::DEFAULT),
        }
    }

    /// Begin a launch of this skeleton over `input`:
    /// `scan.run(&v).exec()?` or `scan.run(&v).trace()?`.
    pub fn run<'a>(&'a self, input: &Vector<T>) -> Launch<'a, Self, Vector<T>> {
        Launch::new(self, input.clone())
    }

    /// This skeleton's operator as a lazy plan stage (source UDFs only), with
    /// its host evaluator.
    pub(crate) fn plan_op(&self) -> Result<(Arc<UdfInfo>, Arc<HostOperator>)> {
        self.udf.plan_operator("scan")
    }

    /// The scan and offset kernels of a Rust closure operator, with the
    /// generated kernels' argument layouts: `[in, out, n]` (one work-item
    /// scanning the whole part) and `[data, n, offset]`.
    fn closure_kernels(
        f: Arc<BinaryOp<T>>,
        cost: CostHint,
    ) -> (oclsim::Kernel, Option<oclsim::Kernel>) {
        let op = f.clone();
        let scan = closure_kernel::<T>("skelcl_scan_native", "scan", 1, cost, move |args| {
            let input = args.input::<T>(0)?;
            let mut acc = input[0];
            args.output[0] = acc;
            for i in 1..input.len() {
                acc = op(acc, input[i]);
                args.output[i] = acc;
            }
            Ok(())
        });
        let name = "skelcl_scan_offset_native";
        let offset = closure_kernel::<T>(name, "scan offset", 0, cost, move |args| {
            let offset = T::from_value(args.trailing_scalar()?);
            for x in args.output.iter_mut() {
                *x = f(offset, *x);
            }
            Ok(())
        });
        (scan, Some(offset))
    }

    /// The shared implementation behind every terminal form: the scan as a
    /// one-stage group through the one call path. The returned trace holds
    /// whole local scans only when `trace` asked for them.
    fn execute_scan(
        &self,
        input: &Vector<T>,
        cfg: &LaunchConfig<'_>,
        trace: bool,
        reuse: Option<&Vector<T>>,
    ) -> Result<(Vector<T>, ScanTrace<T>)> {
        let kind = StageKind::Scan;
        let stage = self.udf.stage::<T>(kind, Self::closure_kernels)?;
        let host = Some(self.udf.host_operator(kind.name())?);
        let stage = &Stage { host, ..stage };
        // Copy distribution makes no sense for a prefix computation; the
        // paper's scan assumes block distribution by default.
        let (runtime, coerce) = (input.runtime(), || input.ensure_disjoint());
        run_call(&runtime, &[input], cfg, Some(stage), &coerce, &mut |call| {
            let target = Target {
                reuse: call.reusable_buffers(reuse)?,
                trace,
                windows: None,
            };
            let GroupOutput::Scanned(out, trace) = stage.run(call, cfg, target)? else {
                return Err(SkelError::Internal("a scan produced no trace".into()));
            };
            let values = |part: Vec<Value>| part.into_iter().map(T::from_value).collect();
            let offsets = trace.offsets.into_iter().map(|o| o.map(T::from_value));
            let trace = ScanTrace {
                local_scans: trace.local_scans.into_iter().map(values).collect(),
                offsets: offsets.collect(),
            };
            // The output adopts the input's (non-copy) distribution: the
            // buffers were allocated for exactly that partition, so block,
            // weighted block and single inputs all stay consistent (Section
            // III-C's "block-distributed output" is the default-input case).
            Ok((PreparedCall::wrap_output(input, out, reuse)?, trace))
        })
    }
}

/// The one scan launch — Figure 2's flow — of every scan group, eager or
/// fused, source or closure.
///
/// `kernels` holds the local-scan kernel (one work-item per part, arguments
/// `[leading…, out, n, trailing…]` as `bind(device)` supplies them), the
/// offset kernel (`[data, n, offset]`) and — for a Rust closure operator —
/// its per-element cost (kernel-language kernels are charged what they
/// measure); `combine` is the operator on the host. The trace comes back as
/// kernel values. With `want_trace` it holds the whole local scans,
/// downloaded between the two steps instead of only their last elements —
/// the totals, the marked values of Figure 2, which are all the algorithm
/// needs; the full parts otherwise stay on their devices.
///
/// Owns the output buffers like `launch_elementwise`: `reuse`'s where it
/// offers one, fresh ones elsewhere, and what it allocated is released again
/// if any step fails.
pub(crate) fn launch_scan<T: DeviceScalar>(
    runtime: &SkelCl,
    kernels: &StageKernels,
    partition: &Partition,
    bind: &dyn Fn(usize) -> Result<Bound>,
    combine: &dyn Fn(T, T) -> Result<T>,
    reuse: Option<Vec<Option<Buffer>>>,
    want_trace: bool,
) -> Result<(Vec<Option<Buffer>>, ScanTrace<Value>)> {
    let (scan_kernel, Some(offset_kernel)) = (&kernels.kernel, &kernels.offset) else {
        return Err(SkelError::Internal(
            "a scan launch needs the scan program's offset kernel".into(),
        ));
    };
    let per_element_cost = kernels.per_element_cost;
    let active = partition.active_devices();
    let bound = active
        .iter()
        .map(|&device| bind(device))
        .collect::<Result<Vec<_>>>()?;
    let out = OutputBuffers::obtain(runtime, &partition.sizes(), create_buffer::<T>, reuse)?;
    let enqueue = |device: usize, kernel: &oclsim::Kernel, items, args: &[KernelArg], cost| {
        let queue = runtime.queue(device);
        match cost {
            Some(cost) => queue.enqueue_kernel_with_cost(kernel, items, args, cost),
            None => queue.enqueue_kernel(kernel, items, args),
        }
    };
    let flow = (|| -> Result<ScanTrace<Value>> {
        // Step 1: local scans.
        let mut lengths = Vec::with_capacity(active.len());
        for (&device, (mut kargs, _, n_arg, trailing)) in active.iter().zip(bound) {
            let n = partition.size(device);
            kargs.push(KernelArg::Buffer(out.on(device)));
            kargs.push(KernelArg::Scalar(n_arg));
            lengths.push(n_arg);
            kargs.extend(trailing);
            let cost = per_element_cost.map(|cost| sequential_cost(cost, n, 8.0));
            enqueue(device, scan_kernel, 1, &kargs, cost)?;
        }

        // Step 2: download the per-part totals (last element of each local
        // scan), every device's read enqueued before the first is claimed.
        let mut reads = Vec::with_capacity(active.len());
        for &device in &active {
            let n = partition.size(device);
            let (offset, len) = if want_trace { (0, n) } else { (n - 1, 1) };
            let read = runtime.queue(device).enqueue_read_buffer_region_nb::<T>(
                &out.on(device),
                offset,
                len,
            )?;
            reads.push((device, read, len));
        }
        let local_scans = claim_reads::<T>(runtime, reads)?;

        // Steps 3 + 4: combine predecessor totals on the host and apply them
        // to each later part via the implicitly created map (offset)
        // kernels. All offset kernels are enqueued before any event is
        // read.
        let offset_cost = per_element_cost.map(|cost| CostHint::new(cost.flops_per_item, 8.0));
        let mut offset_events = Vec::new();
        let mut offsets = Vec::with_capacity(active.len());
        let mut running: Option<T> = None;
        for ((&device, part), &n_arg) in active.iter().zip(&local_scans).zip(&lengths) {
            let total = *part.last().expect("parts of active devices are not empty");
            let offset = running;
            running = Some(match running {
                None => total,
                Some(acc) => combine(acc, total)?,
            });
            offsets.push(offset.map(T::to_value));
            if let Some(offset) = offset {
                let args = [
                    KernelArg::Buffer(out.on(device)),
                    KernelArg::Scalar(n_arg),
                    KernelArg::Scalar(offset.to_value()),
                ];
                let n = partition.size(device);
                let event = enqueue(device, offset_kernel, n, &args, offset_cost)?;
                offset_events.push((device, event));
            }
        }
        wait_events(runtime, offset_events)?;
        let values = |part: Vec<T>| part.into_iter().map(T::to_value).collect();
        Ok(ScanTrace {
            local_scans: local_scans.into_iter().map(values).collect(),
            offsets,
        })
    })();
    out.settle(runtime, flow)
}

impl<T: DeviceScalar> Skeleton<Vector<T>> for Scan<T> {
    type Output = Vector<T>;

    fn name(&self) -> &'static str {
        "scan"
    }

    fn execute(&self, input: &Vector<T>, cfg: &LaunchConfig<'_>) -> Result<Vector<T>> {
        self.execute_scan(input, cfg, false, None).map(|(v, _)| v)
    }
}

impl<T: DeviceScalar> Launch<'_, Scan<T>, Vector<T>> {
    /// Execute and return the output vector (identity terminal form).
    pub fn into_vector(self) -> Result<Vector<T>> {
        self.exec()
    }

    /// Execute and additionally return the [`ScanTrace`] of Figure 2 (the
    /// per-device local scans and the offsets combined by the implicit map
    /// skeletons).
    pub fn trace(self) -> Result<(Vector<T>, ScanTrace<T>)> {
        self.skeleton
            .execute_scan(&self.input, &self.cfg, true, None)
    }

    /// Execute, writing the result into `out` and reusing `out`'s device
    /// buffers instead of allocating fresh ones.
    pub fn run_into(self, out: &Vector<T>) -> Result<()> {
        self.skeleton
            .execute_scan(&self.input, &self.cfg, false, Some(out))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;
    use crate::runtime::init_gpus;

    const ADD: &str = "float func(float a, float b) { return a + b; }";

    fn sequential_prefix_sums(data: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(data.len());
        let mut acc = 0.0;
        for x in data {
            acc += x;
            out.push(acc);
        }
        out
    }

    #[test]
    fn prefix_sums_match_sequential_for_any_device_count() {
        let data: Vec<f32> = (1..=100).map(|i| (i % 13) as f32).collect();
        let expected = sequential_prefix_sums(&data);
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let scan = Scan::<f32>::from_source(ADD);
            let v = Vector::from_vec(&rt, data.clone());
            let out = v.scan(&scan).unwrap();
            assert_eq!(out.to_vec().unwrap(), expected, "devices = {devices}");
        }
    }

    #[test]
    fn figure_2_example_on_four_gpus() {
        // The exact example of Figure 2: scanning [1..16] with + on 4 GPUs.
        let rt = init_gpus(4);
        let scan = Scan::<f32>::from_source(ADD);
        let v = Vector::from_vec(&rt, (1..=16).map(|i| i as f32).collect());
        let (out, trace) = scan.run(&v).trace().unwrap();

        // Middle row of Figure 2: the local scans per device.
        assert_eq!(trace.local_scans[0], vec![1.0, 3.0, 6.0, 10.0]);
        assert_eq!(trace.local_scans[1], vec![5.0, 11.0, 18.0, 26.0]);
        assert_eq!(trace.local_scans[2], vec![9.0, 19.0, 30.0, 42.0]);
        assert_eq!(trace.local_scans[3], vec![13.0, 27.0, 42.0, 58.0]);

        // The offsets marked in Figure 2: 10, 36 (= 10 ⊕ 26), 78 (= 36 ⊕ 42).
        assert_eq!(trace.offsets[0], None);
        assert_eq!(trace.offsets[1], Some(10.0));
        assert_eq!(trace.offsets[2], Some(36.0));
        assert_eq!(trace.offsets[3], Some(78.0));

        // Bottom row: the complete prefix sums.
        let expected: Vec<f32> = (1..=16)
            .scan(0.0f32, |acc, i| {
                *acc += i as f32;
                Some(*acc)
            })
            .collect();
        assert_eq!(out.to_vec().unwrap(), expected);
        assert_eq!(out.distribution(), Distribution::Block);
    }

    #[test]
    fn native_scan_matches_source_scan() {
        let data: Vec<f32> = (1..=37).map(|i| i as f32).collect();
        let rt = init_gpus(3);
        let source = Scan::<f32>::from_source(ADD);
        let native = Scan::<f32>::new(|a, b| a + b);
        let v1 = Vector::from_vec(&rt, data.clone());
        let v2 = Vector::from_vec(&rt, data);
        assert_eq!(
            v1.scan(&source).unwrap().to_vec().unwrap(),
            v2.scan(&native).unwrap().to_vec().unwrap()
        );
    }

    #[test]
    fn scan_with_non_commutative_operator() {
        // Matrix-like composition encoded as digits: f(a, b) = a * 10 + b.
        let rt = init_gpus(4);
        let scan =
            Scan::<f32>::from_source("float func(float a, float b) { return a * 10.0f + b; }");
        let v = Vector::from_vec(&rt, vec![1.0f32, 2.0, 3.0, 4.0]);
        let out = v.scan(&scan).unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![1.0, 12.0, 123.0, 1234.0]);
    }

    #[test]
    fn scan_of_int_vector() {
        let rt = init_gpus(2);
        let scan = Scan::<i32>::from_source("int func(int a, int b) { return a + b; }");
        let v = Vector::from_vec(&rt, vec![1i32, 2, 3, 4, 5]);
        assert_eq!(
            v.scan(&scan).unwrap().to_vec().unwrap(),
            vec![1, 3, 6, 10, 15]
        );
    }

    #[test]
    fn scan_on_single_distribution_keeps_it() {
        let rt = init_gpus(3);
        let scan = Scan::<f32>::from_source(ADD);
        let v = Vector::from_vec(&rt, vec![1.0f32; 6]);
        v.set_distribution(Distribution::Single(2)).unwrap();
        let out = v.scan(&scan).unwrap();
        assert_eq!(out.distribution(), Distribution::Single(2));
        assert_eq!(out.to_vec().unwrap(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn scan_rejects_empty_input_and_extra_args() {
        let rt = init_gpus(1);
        let scan = Scan::<f32>::from_source(ADD);
        let v = Vector::from_vec(&rt, Vec::<f32>::new());
        assert!(matches!(v.scan(&scan), Err(SkelError::EmptyInput)));

        let v = Vector::from_vec(&rt, vec![1.0f32; 4]);
        assert!(matches!(
            scan.run(&v).arg(1.0f32).exec(),
            Err(SkelError::UnsupportedArg(_))
        ));
    }

    #[test]
    fn scan_run_into_reuses_buffers() {
        let rt = init_gpus(2);
        let scan = Scan::<i32>::new(|a, b| a + b);
        let v = Vector::from_vec(&rt, vec![1i32; 6]);
        let out = Vector::from_vec(&rt, vec![0i32; 6]);
        out.copy_data_to_devices().unwrap();
        scan.run(&v).run_into(&out).unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![1, 2, 3, 4, 5, 6]);
    }
}
