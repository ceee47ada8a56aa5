//! Programs and kernels: runtime-compiled DSL kernels and native Rust
//! kernels, plus the argument model shared by both.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use skelcl_kernel::interp::{ArgBinding, BufferView};
use skelcl_kernel::KernelHandle;

use crate::buffer::{Buffer, DataKind};
use crate::device::BufferData;
use crate::error::{OclError, Result};
use crate::pod::Pod;
use crate::Value;

/// Per-work-item cost hint used by the virtual-time model for kernels whose
/// cost cannot be derived statically (native Rust kernels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostHint {
    /// Floating-point operations per work-item.
    pub flops_per_item: f64,
    /// Bytes of global memory traffic per work-item.
    pub bytes_per_item: f64,
}

impl CostHint {
    /// A neutral hint: one flop and eight bytes per item.
    pub const DEFAULT: CostHint = CostHint {
        flops_per_item: 1.0,
        bytes_per_item: 8.0,
    };

    /// Construct a hint.
    pub fn new(flops_per_item: f64, bytes_per_item: f64) -> Self {
        CostHint {
            flops_per_item,
            bytes_per_item,
        }
    }
}

/// One kernel argument as passed at enqueue time.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelArg {
    /// A device buffer.
    Buffer(Buffer),
    /// A scalar value.
    Scalar(Value),
}

impl KernelArg {
    /// Convenience constructor for a float scalar.
    pub fn f32(v: f32) -> Self {
        KernelArg::Scalar(Value::Float(v))
    }

    /// Convenience constructor for an int scalar.
    pub fn i32(v: i32) -> Self {
        KernelArg::Scalar(Value::Int(v))
    }

    /// Convenience constructor for a uint scalar.
    pub fn u32(v: u32) -> Self {
        KernelArg::Scalar(Value::Uint(v))
    }
}

/// Execution context handed to a native Rust kernel. The kernel is invoked
/// once per launch and is expected to loop over `0..global_size()` itself.
pub struct NativeCtx<'a> {
    global_size: usize,
    slots: Vec<NativeSlot<'a>>,
}

enum NativeSlot<'a> {
    Buffer(&'a mut BufferData),
    Scalar(Value),
}

impl<'a> NativeCtx<'a> {
    /// Number of work-items of this launch.
    pub fn global_size(&self) -> usize {
        self.global_size
    }

    /// Number of bound arguments.
    pub fn arg_count(&self) -> usize {
        self.slots.len()
    }

    fn slot(&self, index: usize) -> std::result::Result<&NativeSlot<'a>, String> {
        self.slots
            .get(index)
            .ok_or_else(|| format!("kernel argument index {index} out of range"))
    }

    /// The scalar bound at `index`.
    pub fn scalar(&self, index: usize) -> std::result::Result<Value, String> {
        match self.slot(index)? {
            NativeSlot::Scalar(v) => Ok(*v),
            NativeSlot::Buffer(_) => Err(format!("argument {index} is a buffer, not a scalar")),
        }
    }

    /// The scalar bound at `index`, as `f32`.
    pub fn scalar_f32(&self, index: usize) -> std::result::Result<f32, String> {
        Ok(self.scalar(index)?.as_f64() as f32)
    }

    /// The scalar bound at `index`, as `usize` (negative values are an error).
    pub fn scalar_usize(&self, index: usize) -> std::result::Result<usize, String> {
        let v = self.scalar(index)?.as_i64();
        usize::try_from(v).map_err(|_| format!("argument {index} is negative ({v})"))
    }

    /// Immutable typed view of the buffer bound at `index`.
    pub fn slice<T: Pod>(&self, index: usize) -> std::result::Result<&[T], String> {
        match self.slot(index)? {
            NativeSlot::Buffer(data) => Ok(data.as_slice::<T>()),
            NativeSlot::Scalar(_) => Err(format!("argument {index} is a scalar, not a buffer")),
        }
    }

    /// Mutable typed view of the buffer bound at `index`.
    pub fn slice_mut<T: Pod>(&mut self, index: usize) -> std::result::Result<&mut [T], String> {
        match self
            .slots
            .get_mut(index)
            .ok_or_else(|| format!("kernel argument index {index} out of range"))?
        {
            NativeSlot::Buffer(data) => Ok(data.as_slice_mut::<T>()),
            NativeSlot::Scalar(_) => Err(format!("argument {index} is a scalar, not a buffer")),
        }
    }

    /// Decompose the context into one [`ArgView`] per argument, giving
    /// simultaneous (disjoint) mutable access to every buffer argument. This
    /// is how generic skeleton kernels built on top of the simulator split
    /// their input, output and additional-argument buffers.
    pub fn arg_views(&mut self) -> Vec<ArgView<'_>> {
        self.slots
            .iter_mut()
            .map(|slot| match slot {
                NativeSlot::Buffer(data) => ArgView::Buffer(data),
                NativeSlot::Scalar(v) => ArgView::Scalar(*v),
            })
            .collect()
    }

    /// Mutable typed views of two distinct buffer arguments at once (needed
    /// by kernels that read one buffer while writing another).
    pub fn two_slices_mut<A: Pod, B: Pod>(
        &mut self,
        a: usize,
        b: usize,
    ) -> std::result::Result<(&mut [A], &mut [B]), String> {
        if a == b {
            return Err("two_slices_mut requires distinct argument indices".to_string());
        }
        let (lo, hi, swapped) = if a < b { (a, b, false) } else { (b, a, true) };
        if hi >= self.slots.len() {
            return Err(format!("kernel argument index {hi} out of range"));
        }
        let (head, tail) = self.slots.split_at_mut(hi);
        let lo_slot = &mut head[lo];
        let hi_slot = &mut tail[0];
        match (lo_slot, hi_slot) {
            (NativeSlot::Buffer(x), NativeSlot::Buffer(y)) => {
                if swapped {
                    Ok((y.as_slice_mut::<A>(), x.as_slice_mut::<B>()))
                } else {
                    Ok((x.as_slice_mut::<A>(), y.as_slice_mut::<B>()))
                }
            }
            _ => Err("both arguments must be buffers".to_string()),
        }
    }
}

/// A view of one kernel argument, produced by [`NativeCtx::arg_views`].
pub enum ArgView<'a> {
    /// A scalar argument value.
    Scalar(Value),
    /// Mutable access to a buffer argument's storage.
    Buffer(&'a mut BufferData),
}

impl<'a> ArgView<'a> {
    /// The scalar value, if this argument is a scalar.
    pub fn scalar(&self) -> Option<Value> {
        match self {
            ArgView::Scalar(v) => Some(*v),
            ArgView::Buffer(_) => None,
        }
    }

    /// Immutable typed view, if this argument is a buffer.
    pub fn as_slice<T: Pod>(&self) -> Option<&[T]> {
        match self {
            ArgView::Buffer(data) => Some(data.as_slice::<T>()),
            ArgView::Scalar(_) => None,
        }
    }

    /// Mutable typed view, if this argument is a buffer.
    pub fn as_slice_mut<T: Pod>(&mut self) -> Option<&mut [T]> {
        match self {
            ArgView::Buffer(data) => Some(data.as_slice_mut::<T>()),
            ArgView::Scalar(_) => None,
        }
    }
}

/// Signature of a native Rust kernel body.
pub type NativeKernelFn =
    dyn Fn(&mut NativeCtx<'_>) -> std::result::Result<(), String> + Send + Sync;

/// A named native kernel with its cost hint.
#[derive(Clone)]
pub struct NativeKernelDef {
    /// Kernel name (used for lookup and in event logs).
    pub name: String,
    /// Per-work-item cost used by the virtual-time model.
    pub cost: CostHint,
    func: Arc<NativeKernelFn>,
}

impl NativeKernelDef {
    /// Define a native kernel.
    pub fn new<F>(name: &str, cost: CostHint, func: F) -> Self
    where
        F: Fn(&mut NativeCtx<'_>) -> std::result::Result<(), String> + Send + Sync + 'static,
    {
        NativeKernelDef {
            name: name.to_string(),
            cost,
            func: Arc::new(func),
        }
    }
}

impl fmt::Debug for NativeKernelDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeKernelDef")
            .field("name", &self.name)
            .field("cost", &self.cost)
            .finish()
    }
}

#[derive(Debug, Clone)]
enum ProgramInner {
    Dsl(skelcl_kernel::Program),
    Native(HashMap<String, NativeKernelDef>),
}

/// A program: either a runtime-compiled kernel-language translation unit
/// (the SkelCL path — user-defined functions merged into skeleton source) or
/// a collection of native Rust kernels (used for large application kernels
/// such as the OSEM path tracer).
#[derive(Debug, Clone)]
pub struct Program {
    inner: ProgramInner,
}

impl Program {
    /// Build a program from kernel-language source.
    pub fn from_source(source: &str) -> Result<Program> {
        let p = skelcl_kernel::Program::build(source)?;
        Ok(Program {
            inner: ProgramInner::Dsl(p),
        })
    }

    /// Build a program from native kernel definitions.
    pub fn from_native(defs: impl IntoIterator<Item = NativeKernelDef>) -> Program {
        Program {
            inner: ProgramInner::Native(defs.into_iter().map(|d| (d.name.clone(), d)).collect()),
        }
    }

    /// Whether this program was compiled from kernel-language source at
    /// runtime (true) or registered as native code (false). Runtime-compiled
    /// programs pay the build-time cost, like OpenCL and unlike CUDA.
    pub fn is_runtime_compiled(&self) -> bool {
        matches!(self.inner, ProgramInner::Dsl(_))
    }

    /// Names of the kernels in the program.
    pub fn kernel_names(&self) -> Vec<String> {
        match &self.inner {
            ProgramInner::Dsl(p) => p.kernel_names(),
            ProgramInner::Native(map) => map.keys().cloned().collect(),
        }
    }

    /// Pin the kernel-language execution tier for every kernel in this
    /// program (see [`skelcl_kernel::Tier`]). A no-op for native-Rust
    /// programs, which never go through the kernel-language engines. Clones
    /// of a DSL program share tier state, so setting the tier on a cached
    /// program also affects kernels already handed out from it.
    pub fn set_kernel_tier(&self, tier: skelcl_kernel::Tier) {
        if let ProgramInner::Dsl(p) = &self.inner {
            p.set_tier(tier);
        }
    }

    /// Look up a kernel by name.
    pub fn kernel(&self, name: &str) -> Result<Kernel> {
        match &self.inner {
            ProgramInner::Dsl(p) => {
                let handle = p.kernel(name)?;
                let est = p.cost_estimate(&handle);
                Ok(Kernel {
                    name: name.to_string(),
                    cost: CostHint::new(est.flops + est.ops * 0.25, est.global_bytes),
                    inner: KernelInner::Dsl {
                        program: p.clone(),
                        handle,
                    },
                })
            }
            ProgramInner::Native(map) => map
                .get(name)
                .map(|def| Kernel {
                    name: name.to_string(),
                    cost: def.cost,
                    inner: KernelInner::Native(def.clone()),
                })
                .ok_or_else(|| OclError::NoSuchKernel(name.to_string())),
        }
    }
}

#[derive(Debug, Clone)]
enum KernelInner {
    Dsl {
        program: skelcl_kernel::Program,
        handle: KernelHandle,
    },
    Native(NativeKernelDef),
}

/// An executable kernel handle.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Kernel name.
    pub name: String,
    cost: CostHint,
    inner: KernelInner,
}

impl Kernel {
    /// Per-work-item cost (estimated statically for DSL kernels, provided by
    /// the author for native kernels).
    pub fn cost(&self) -> CostHint {
        self.cost
    }

    /// Override the cost hint (useful when the static estimate is known to be
    /// off, e.g. data-dependent loop bounds).
    pub fn with_cost(mut self, cost: CostHint) -> Self {
        self.cost = cost;
        self
    }

    /// Validate an argument list against the kernel's signature without
    /// executing anything — the synchronous half of an asynchronous enqueue.
    /// Replicates the bytecode VM's binding checks (same errors), so an
    /// ill-typed launch still fails at `enqueue_kernel` even though the
    /// launch itself now runs on the device's worker thread. Native kernels
    /// carry no signature and validate nothing here (their closure reports
    /// argument problems at execution).
    pub fn validate_args(&self, args: &[KernelArg]) -> Result<()> {
        use skelcl_kernel::diag::KernelError;
        let KernelInner::Dsl { handle, .. } = &self.inner else {
            return Ok(());
        };
        if args.len() != handle.params.len() {
            return Err(KernelError::run(format!(
                "kernel `{}` expects {} arguments, {} bound",
                self.name,
                handle.params.len(),
                args.len()
            ))
            .into());
        }
        for (i, (param, arg)) in handle.params.iter().zip(args.iter()).enumerate() {
            match (param.is_buffer, arg) {
                (true, KernelArg::Buffer(buf)) => {
                    let got = match buf.kind() {
                        DataKind::F32 => skelcl_kernel::types::ScalarType::Float,
                        DataKind::F64 => skelcl_kernel::types::ScalarType::Double,
                        DataKind::I32 => skelcl_kernel::types::ScalarType::Int,
                        DataKind::U32 => skelcl_kernel::types::ScalarType::Uint,
                        DataKind::Opaque { .. } => {
                            return Err(OclError::InvalidKernelArg(format!(
                                "buffer argument {i} has an opaque element type; \
                                 kernel-language kernels only accept float/double/int/uint buffers"
                            )))
                        }
                    };
                    if param.ty != got {
                        return Err(KernelError::run(format!(
                            "argument `{}` of kernel `{}`: expected __global {}*, bound {got} buffer",
                            param.name, self.name, param.ty
                        ))
                        .into());
                    }
                }
                (true, KernelArg::Scalar(_)) => {
                    return Err(KernelError::run(format!(
                        "argument `{}` of kernel `{}` is a buffer but a scalar was bound",
                        param.name, self.name
                    ))
                    .into());
                }
                (false, KernelArg::Buffer(_)) => {
                    return Err(KernelError::run(format!(
                        "argument `{}` of kernel `{}` is a scalar but a buffer was bound",
                        param.name, self.name
                    ))
                    .into());
                }
                (false, KernelArg::Scalar(_)) => {}
            }
        }
        Ok(())
    }

    /// Execute the kernel against the taken buffer storage. `taken` must
    /// contain exactly the buffers referenced by `args` (enforced by the
    /// queue, which took them from the device).
    ///
    /// Returns the *measured* per-work-item cost for runtime-compiled (DSL)
    /// kernels — the interpreter counts the floating-point operations and
    /// global-memory bytes it actually executed — plus the launch's
    /// execution-tier trace, or `(None, None)` for native kernels, whose
    /// author-provided [`CostHint`] is used instead.
    pub(crate) fn execute(
        &self,
        global_size: usize,
        args: &[KernelArg],
        taken: &mut [(u64, BufferData)],
    ) -> Result<(Option<CostHint>, Option<skelcl_kernel::LaunchTrace>)> {
        // Map buffer id -> &mut BufferData, consumed as bindings are built so
        // each buffer is borrowed exactly once.
        let mut by_id: HashMap<u64, &mut BufferData> =
            taken.iter_mut().map(|(id, data)| (*id, data)).collect();

        match &self.inner {
            KernelInner::Dsl { program, handle } => {
                let mut bindings: Vec<ArgBinding<'_>> = Vec::with_capacity(args.len());
                for (i, arg) in args.iter().enumerate() {
                    match arg {
                        KernelArg::Scalar(v) => bindings.push(ArgBinding::Scalar(*v)),
                        KernelArg::Buffer(buf) => {
                            let data = by_id.remove(&buf.id()).ok_or_else(|| {
                                OclError::InvalidKernelArg(format!(
                                    "buffer argument {i} was not taken from the device"
                                ))
                            })?;
                            let view = match buf.kind() {
                                DataKind::F32 => BufferView::F32(data.as_slice_mut::<f32>()),
                                DataKind::F64 => BufferView::F64(data.as_slice_mut::<f64>()),
                                DataKind::I32 => BufferView::I32(data.as_slice_mut::<i32>()),
                                DataKind::U32 => BufferView::U32(data.as_slice_mut::<u32>()),
                                DataKind::Opaque { .. } => {
                                    return Err(OclError::InvalidKernelArg(format!(
                                        "buffer argument {i} has an opaque element type; \
                                         kernel-language kernels only accept float/double/int/uint buffers"
                                    )))
                                }
                            };
                            bindings.push(ArgBinding::Buffer(view));
                        }
                    }
                }
                let (stats, trace) =
                    program.run_ndrange_traced(handle, global_size, &mut bindings)?;
                let per_item = stats.per_item(global_size);
                Ok((
                    Some(CostHint::new(
                        per_item.flops + per_item.ops * 0.25,
                        per_item.global_bytes,
                    )),
                    Some(trace),
                ))
            }
            KernelInner::Native(def) => {
                let mut slots: Vec<NativeSlot<'_>> = Vec::with_capacity(args.len());
                for (i, arg) in args.iter().enumerate() {
                    match arg {
                        KernelArg::Scalar(v) => slots.push(NativeSlot::Scalar(*v)),
                        KernelArg::Buffer(buf) => {
                            let data = by_id.remove(&buf.id()).ok_or_else(|| {
                                OclError::InvalidKernelArg(format!(
                                    "buffer argument {i} was not taken from the device"
                                ))
                            })?;
                            slots.push(NativeSlot::Buffer(data));
                        }
                    }
                }
                let mut ctx = NativeCtx { global_size, slots };
                (def.func)(&mut ctx).map_err(OclError::InvalidKernelArg)?;
                Ok((None, None))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsl_program_kernel_lookup_and_cost() {
        let p = Program::from_source(
            r#"
            __kernel void scale(__global float* v, int n, float a) {
                int i = get_global_id(0);
                if (i < n) { v[i] = v[i] * a; }
            }
        "#,
        )
        .unwrap();
        assert!(p.is_runtime_compiled());
        assert_eq!(p.kernel_names(), vec!["scale".to_string()]);
        let k = p.kernel("scale").unwrap();
        assert!(k.cost().flops_per_item > 0.0);
        assert!(p.kernel("missing").is_err());
    }

    #[test]
    fn native_program_kernel_lookup() {
        let def = NativeKernelDef::new("noop", CostHint::DEFAULT, |_ctx| Ok(()));
        let p = Program::from_native([def]);
        assert!(!p.is_runtime_compiled());
        let k = p.kernel("noop").unwrap();
        assert_eq!(k.cost(), CostHint::DEFAULT);
        assert!(p.kernel("other").is_err());
    }

    #[test]
    fn dsl_execution_against_taken_storage() {
        let p = Program::from_source(
            r#"
            __kernel void fill(__global float* v, int n) {
                int i = get_global_id(0);
                if (i < n) { v[i] = i * 2.0f; }
            }
        "#,
        )
        .unwrap();
        let k = p.kernel("fill").unwrap();
        let buf = Buffer::new(1, 0, 4, crate::buffer::DataKind::F32);
        let mut taken = vec![(1u64, BufferData::new(16))];
        k.execute(4, &[KernelArg::Buffer(buf), KernelArg::i32(4)], &mut taken)
            .unwrap();
        assert_eq!(taken[0].1.as_slice::<f32>(), &[0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn native_execution_with_two_buffers() {
        let def = NativeKernelDef::new("axpy", CostHint::new(2.0, 12.0), |ctx| {
            let n = ctx.global_size();
            let a = ctx.scalar_f32(2)?;
            let (xs, ys) = ctx.two_slices_mut::<f32, f32>(0, 1)?;
            for i in 0..n {
                ys[i] += a * xs[i];
            }
            Ok(())
        });
        let p = Program::from_native([def]);
        let k = p.kernel("axpy").unwrap();
        let x = Buffer::new(1, 0, 3, crate::buffer::DataKind::F32);
        let y = Buffer::new(2, 0, 3, crate::buffer::DataKind::F32);
        let mut taken = vec![(1u64, BufferData::new(12)), (2u64, BufferData::new(12))];
        taken[0]
            .1
            .as_slice_mut::<f32>()
            .copy_from_slice(&[1.0, 2.0, 3.0]);
        taken[1]
            .1
            .as_slice_mut::<f32>()
            .copy_from_slice(&[10.0, 20.0, 30.0]);
        k.execute(
            3,
            &[
                KernelArg::Buffer(x),
                KernelArg::Buffer(y),
                KernelArg::f32(2.0),
            ],
            &mut taken,
        )
        .unwrap();
        assert_eq!(taken[1].1.as_slice::<f32>(), &[12.0, 24.0, 36.0]);
    }

    #[test]
    fn native_ctx_accessors_report_errors() {
        let def = NativeKernelDef::new("bad", CostHint::DEFAULT, |ctx| {
            ctx.scalar(5).map(|_| ())?;
            Ok(())
        });
        let p = Program::from_native([def]);
        let k = p.kernel("bad").unwrap();
        let err = k.execute(1, &[], &mut []).unwrap_err();
        assert!(matches!(err, OclError::InvalidKernelArg(_)));
    }

    #[test]
    fn dsl_rejects_opaque_buffers() {
        let p = Program::from_source("__kernel void k(__global float* v, int n) { v[0] = n; }")
            .unwrap();
        let k = p.kernel("k").unwrap();
        let buf = Buffer::new(1, 0, 2, crate::device::data_kind_of::<[f32; 4]>());
        let mut taken = vec![(1u64, BufferData::new(32))];
        let err = k
            .execute(1, &[KernelArg::Buffer(buf), KernelArg::i32(1)], &mut taken)
            .unwrap_err();
        assert!(matches!(err, OclError::InvalidKernelArg(_)));
    }
}
