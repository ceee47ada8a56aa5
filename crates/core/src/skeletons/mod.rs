//! The algorithmic skeletons of SkelCL: [`Map`], [`Zip`], [`Reduce`] and
//! [`Scan`] (paper, Section II-A), including their multi-GPU execution
//! strategies (Section III-C).
//!
//! Each skeleton is customised with a user-defined function, given either as
//! a source string in the kernel language (merged into a generated kernel and
//! compiled at runtime, exactly as in the paper) or as a native Rust closure
//! (used for application kernels too large for the kernel-language subset,
//! such as the OSEM path tracer).
//!
//! Execution is uniform across every skeleton: each implements the
//! input-generic [`Skeleton`] trait and is invoked through the fluent
//! [`Launch`] builder returned by its `run` method, and every call — whatever
//! the skeleton, the form of its user function or the terminal form — is a
//! one-stage plan group (`crate::plan::Stage`) run through the one call path
//! of the `exec` module: prepare → lower and launch → wrap, as one attempt
//! under the one fault-recovery wrapper. A skeleton holds its user function
//! as one `udf::Udf` value, which is where source text and closures are told
//! apart: a source stage gets its kernels from the runtime's lowering memo
//! (the one kernel cache, shared with the lazy plans), a closure's kernels
//! are built once per skeleton instance. The plan's group runner
//! (`plan::run_group`) is the one place a stage kind meets its launcher —
//! `launch_elementwise` (map, zip, index map, stencil sweep),
//! `launch_and_gather` (reduce), `launch_scan` (scan). The data-parallel
//! skeletons ([`Map`], [`Zip`], [`Reduce`]) are additionally generic over
//! the [`crate::container::Container`] trait, so one skeleton instance
//! launches over a [`crate::vector::Vector`] or element-wise over a
//! [`crate::matrix::Matrix`] with no container-specific code.

pub(crate) mod exec;
mod map;
mod map_overlap;
mod reduce;
mod scan;
pub(crate) mod udf;
mod zip;

pub use exec::{Launch, LaunchConfig, Skeleton};
pub use map::{IndexLaunch, IndexRange, Map};
pub use map_overlap::MapOverlap;
pub use reduce::{reduce_partials, Reduce, ReducePlan};
pub use scan::{Scan, ScanTrace};
pub use zip::Zip;

pub(crate) use exec::{
    claim_read, claim_reads, create_buffer, launch_elementwise, run_call, sequential_cost,
    wait_events, PreparedCall,
};
pub(crate) use reduce::{launch_and_gather, launch_geometry, HostOperator};
pub(crate) use scan::launch_scan;
pub(crate) use udf::{BinaryOp, StageKernels, Udf};

use std::sync::Arc;

use oclsim::{Buffer, KernelArg, Pod, Value};
use skelcl_kernel::interp::BufferView;

use crate::args::{ArgItem, Args};
use crate::error::{Result, SkelError};
use crate::runtime::SkelCl;

/// Scalar element types that can cross the host/device boundary as kernel
/// scalar arguments (needed by the reduce and scan skeletons, which move
/// per-device partial results through the host).
pub trait DeviceScalar: Pod {
    /// Convert to a kernel scalar value.
    fn to_value(self) -> Value;
    /// Convert from a kernel scalar value.
    fn from_value(v: Value) -> Self;
    /// Bind host data of this type as a kernel buffer argument (for running
    /// generated kernels on the host-side engine).
    fn buffer_view(data: &mut [Self]) -> BufferView<'_>;
}

impl DeviceScalar for f32 {
    fn to_value(self) -> Value {
        Value::Float(self)
    }
    fn from_value(v: Value) -> Self {
        v.as_f64() as f32
    }
    fn buffer_view(data: &mut [Self]) -> BufferView<'_> {
        BufferView::F32(data)
    }
}

impl DeviceScalar for f64 {
    fn to_value(self) -> Value {
        Value::Double(self)
    }
    fn from_value(v: Value) -> Self {
        v.as_f64()
    }
    fn buffer_view(data: &mut [Self]) -> BufferView<'_> {
        BufferView::F64(data)
    }
}

impl DeviceScalar for i32 {
    fn to_value(self) -> Value {
        Value::Int(self)
    }
    fn from_value(v: Value) -> Self {
        v.as_i64() as i32
    }
    fn buffer_view(data: &mut [Self]) -> BufferView<'_> {
        BufferView::I32(data)
    }
}

impl DeviceScalar for u32 {
    fn to_value(self) -> Value {
        Value::Uint(self)
    }
    fn from_value(v: Value) -> Self {
        v.as_i64() as u32
    }
    fn buffer_view(data: &mut [Self]) -> BufferView<'_> {
        BufferView::U32(data)
    }
}

/// Additional arguments resolved for one skeleton call: scalars converted to
/// kernel values, vector arguments uploaded (lazily) according to their own
/// distributions with their per-device buffers captured. The element types of
/// vector arguments are already erased by [`crate::args::VectorArg`], so one
/// code path covers every `Pod` element type, `f64` included.
pub(crate) struct PreparedArgs {
    items: Vec<PreparedItem>,
}

enum PreparedItem {
    Scalar(Value),
    Vector { buffers: Vec<Option<Buffer>> },
}

impl PreparedArgs {
    /// Prepare the additional arguments of a call.
    pub(crate) fn prepare(runtime: &Arc<SkelCl>, args: &Args) -> Result<PreparedArgs> {
        let mut items = Vec::with_capacity(args.len());
        for item in args.items() {
            match item {
                ArgItem::Scalar(v) => items.push(PreparedItem::Scalar(*v)),
                ArgItem::Vector(v) => {
                    let vector = v.container();
                    vector.check_runtime(runtime)?;
                    items.push(PreparedItem::Vector {
                        buffers: vector.prepare_parts(0)?.1,
                    });
                }
            }
        }
        Ok(PreparedArgs { items })
    }

    /// Number of additional arguments.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether any additional argument is a vector.
    pub(crate) fn has_vectors(&self) -> bool {
        self.items
            .iter()
            .any(|i| matches!(i, PreparedItem::Vector { .. }))
    }

    /// The kernel arguments contributed by the additional arguments for a
    /// launch on `device`.
    pub(crate) fn kernel_args_for(&self, device: usize) -> Result<Vec<KernelArg>> {
        let mut out = Vec::with_capacity(self.items.len());
        for (i, item) in self.items.iter().enumerate() {
            match item {
                PreparedItem::Scalar(v) => out.push(KernelArg::Scalar(*v)),
                PreparedItem::Vector { buffers } => {
                    let buffer = buffers.get(device).cloned().flatten().ok_or_else(|| {
                        SkelError::UnsupportedArg(format!(
                            "additional vector argument {i} has no data on device {device}; \
                             set its distribution to copy (or block) before the skeleton call"
                        ))
                    })?;
                    out.push(KernelArg::Buffer(buffer));
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::init_gpus;
    use crate::vector::Vector;

    #[test]
    fn device_scalar_round_trips() {
        assert_eq!(f32::from_value(2.5f32.to_value()), 2.5);
        assert_eq!(i32::from_value((-7i32).to_value()), -7);
        assert_eq!(u32::from_value(9u32.to_value()), 9);
        assert_eq!(f64::from_value(1.25f64.to_value()), 1.25);
        assert!(matches!(f32::buffer_view(&mut [0.0]), BufferView::F32(_)));
        assert!(matches!(u32::buffer_view(&mut [0]), BufferView::U32(_)));
    }

    #[test]
    fn prepared_args_scalars_and_vectors() {
        let rt = init_gpus(2);
        let img = Vector::from_vec(&rt, vec![1.0f32; 8]);
        img.set_distribution(crate::distribution::Distribution::Copy)
            .unwrap();
        let args = Args::new().arg(3.0f32).arg(&img).arg(5i32);
        let prepared = PreparedArgs::prepare(&rt, &args).unwrap();
        assert_eq!(prepared.len(), 3);
        assert!(prepared.has_vectors());
        let kargs = prepared.kernel_args_for(1).unwrap();
        assert_eq!(kargs.len(), 3);
        assert!(matches!(kargs[0], KernelArg::Scalar(Value::Float(v)) if v == 3.0));
        assert!(matches!(kargs[1], KernelArg::Buffer(_)));
        assert!(matches!(kargs[2], KernelArg::Scalar(Value::Int(5))));
    }

    #[test]
    fn prepared_args_accept_f64_vectors() {
        let rt = init_gpus(2);
        let table = Vector::from_vec(&rt, vec![1.0f64; 4]);
        table
            .set_distribution(crate::distribution::Distribution::Copy)
            .unwrap();
        let prepared = PreparedArgs::prepare(&rt, &crate::args![&table]).unwrap();
        assert!(prepared.has_vectors());
        assert!(matches!(
            prepared.kernel_args_for(0).unwrap()[0],
            KernelArg::Buffer(_)
        ));
    }

    #[test]
    fn prepared_args_reject_missing_device_copy() {
        let rt = init_gpus(2);
        let img = Vector::from_vec(&rt, vec![1.0f32; 8]);
        img.set_distribution(crate::distribution::Distribution::Single(0))
            .unwrap();
        let args = Args::new().arg(&img);
        let prepared = PreparedArgs::prepare(&rt, &args).unwrap();
        assert!(prepared.kernel_args_for(0).is_ok());
        assert!(prepared.kernel_args_for(1).is_err());
    }

    #[test]
    fn udf_cache_computes_each_artefact_once() {
        let udf = Udf::<BinaryOp<f32>>::source("float func(float a, float b) { return a + b; }", 2);
        let first = udf.plan_stage("scan").unwrap();
        let second = udf.plan_stage("scan").unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "repeated analysis must return the cached Arc"
        );
        assert!(first.cost_hint().flops_per_item >= 1.0);
        // The host evaluator of a reduce/scan operator: one program build
        // serves every fold of partials and every pair of scan totals.
        let (info, host) = udf.plan_operator("scan").unwrap();
        assert!(Arc::ptr_eq(&info, &first));
        assert!(Arc::ptr_eq(&host, &udf.plan_operator("scan").unwrap().1));
        let fold = |udf: &Udf<BinaryOp<f32>>, values: &mut [f32]| {
            udf.host_operator("scan").unwrap().fold(values).unwrap()
        };
        assert!(Arc::ptr_eq(&host, &udf.host_operator("scan").unwrap()));
        assert_eq!(fold(&udf, &mut [1.5f32, 2.0, 4.0]), 7.5);
        assert_eq!(fold(&udf, &mut [3.0f32]), 3.0);
        // A closure has no source to fuse; the one error names the stage.
        let closure =
            Udf::<BinaryOp<f32>>::closure(Arc::new(|a, b| a + b), oclsim::CostHint::DEFAULT);
        assert_eq!(fold(&closure, &mut [1.5f32, 2.0, 4.0]), 7.5);
        match closure.plan_operator("scan") {
            Err(SkelError::Plan(msg)) => assert!(msg.starts_with("scan stage uses"), "{msg}"),
            other => panic!("expected a Plan error, got {:?}", other.map(|_| ())),
        }
    }

    /// The cost hint of a binary source UDF, as every skeleton obtains it:
    /// from the stage of its call.
    fn udf_cost(source: &str) -> Result<oclsim::CostHint> {
        let udf = Udf::<BinaryOp<f32>>::source(source, 2);
        let kind = crate::kernelgen::StageKind::Reduce;
        let stage = udf.stage::<f32>(kind, |_, _| unreachable!("source text"))?;
        Ok(stage.cost())
    }

    #[test]
    fn udf_cost_estimation() {
        let c = udf_cost("float f(float a, float b) { return a + b; }").unwrap();
        assert!(c.flops_per_item >= 1.0);
        assert!(udf_cost("").is_err());
    }

    #[test]
    fn udf_cost_resolves_the_function_named_func_among_helpers() {
        // The helper is heavy, the UDF trivial: the estimate must cost the
        // function named `func`, not whichever happens to come last.
        let helper_last = r#"
            float func(float a, float b) { return a + b; }
            float heavy_helper(float x) {
                float acc = x;
                for (int i = 0; i < 100; i++) { acc = acc * 1.5f + 2.0f; }
                return acc;
            }
        "#;
        let c = udf_cost(helper_last).unwrap();
        assert!(
            c.flops_per_item < 50.0,
            "cost {0} must reflect `func`, not the trailing helper",
            c.flops_per_item
        );
    }

    #[test]
    fn udf_cost_rejects_ambiguous_sources_with_a_clear_error() {
        let no_func_name = r#"
            float alpha(float a, float b) { return a + b; }
            float beta(float a, float b) { return a * b; }
        "#;
        match udf_cost(no_func_name) {
            Err(SkelError::UdfSignature(msg)) => {
                assert!(msg.contains("alpha") && msg.contains("beta"), "{msg}");
                assert!(msg.contains("func"), "{msg}");
            }
            other => panic!("expected a UdfSignature error, got {other:?}"),
        }
    }

    #[test]
    fn alloc_output_allocates_only_active_devices() {
        use crate::distribution::{Distribution, Partition};
        let rt = init_gpus(3);
        let p = Partition::compute(9, 3, &Distribution::Single(1));
        let buffers = exec::OutputBuffers::obtain(&rt, &p.sizes(), create_buffer::<f32>, None)
            .unwrap()
            .buffers;
        assert!(buffers[0].is_none());
        assert!(buffers[1].is_some());
        assert!(buffers[2].is_none());
        assert_eq!(buffers[1].as_ref().unwrap().len(), 9);
    }
}
