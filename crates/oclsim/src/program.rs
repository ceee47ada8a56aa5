//! Programs and kernels: runtime-compiled DSL kernels and native Rust
//! kernels, plus the argument model shared by both.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use skelcl_kernel::interp::ArgBinding;
use skelcl_kernel::types::ArgKind;
use skelcl_kernel::KernelHandle;

use crate::buffer::{Buffer, DataKind};
use crate::device::BufferData;
use crate::error::{OclError, Result};
use crate::pod::Pod;
use crate::Value;

/// Per-work-item cost in the virtual-time model's two axes. A native Rust
/// kernel is charged the hint its author provides; a kernel-language launch
/// is charged what it measured, in this form.
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
    /// A device buffer from element `.1` on — the region an OpenCL
    /// sub-buffer (`clCreateSubBuffer`) names: the kernel's index 0 is that
    /// element, and nothing before it is reachable. Runtime-compiled kernels
    /// only; a native kernel takes whole buffers.
    BufferFrom(Buffer, usize),
    /// A scalar value.
    Scalar(Value),
}

impl KernelArg {
    /// This buffer argument from element `first` of what it binds on (a
    /// scalar is unchanged).
    pub fn from_element(self, first: usize) -> Self {
        match self {
            KernelArg::Buffer(buffer) if first > 0 => KernelArg::BufferFrom(buffer, first),
            KernelArg::BufferFrom(buffer, base) => KernelArg::BufferFrom(buffer, base + first),
            other => other,
        }
    }

    /// The buffer this argument binds and the first element the kernel sees
    /// of it; `None` for a scalar.
    pub fn buffer(&self) -> Option<(&Buffer, usize)> {
        match self {
            KernelArg::Buffer(buffer) => Some((buffer, 0)),
            KernelArg::BufferFrom(buffer, first) => Some((buffer, *first)),
            KernelArg::Scalar(_) => None,
        }
    }

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
    args: Vec<ArgView<'a>>,
}

impl<'a> NativeCtx<'a> {
    /// Number of work-items of this launch.
    pub fn global_size(&self) -> usize {
        self.global_size
    }

    /// The scalar bound at `index`.
    pub fn scalar(&self, index: usize) -> std::result::Result<Value, String> {
        self.args
            .get(index)
            .ok_or_else(|| format!("kernel argument index {index} out of range"))?
            .scalar()
            .ok_or_else(|| format!("argument {index} is a buffer, not a scalar"))
    }

    /// The scalar bound at `index`, as `usize` (negative values are an error).
    pub fn scalar_usize(&self, index: usize) -> std::result::Result<usize, String> {
        let v = self.scalar(index)?.as_i64();
        usize::try_from(v).map_err(|_| format!("argument {index} is negative ({v})"))
    }

    /// Decompose the context into one [`ArgView`] per argument, giving
    /// simultaneous (disjoint) mutable access to every buffer argument. This
    /// is how a kernel splits its input, output and additional-argument
    /// buffers.
    pub fn arg_views(&mut self) -> Vec<ArgView<'_>> {
        self.args
            .iter_mut()
            .map(|arg| match arg {
                ArgView::Buffer(data) => ArgView::Buffer(data),
                ArgView::Scalar(v) => ArgView::Scalar(*v),
            })
            .collect()
    }
}

/// One kernel argument as a native kernel sees it (see
/// [`NativeCtx::arg_views`]).
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
            ProgramInner::Dsl(p) => Ok(Kernel {
                name: name.to_string(),
                inner: KernelInner::Dsl {
                    program: p.clone(),
                    handle: p.kernel(name)?,
                },
            }),
            ProgramInner::Native(map) => map
                .get(name)
                .map(|def| Kernel {
                    name: name.to_string(),
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
    inner: KernelInner,
}

impl Kernel {
    /// The per-work-item cost hint a native kernel is charged by, as its
    /// author provided it. A kernel-language kernel has none: it is charged
    /// what it measures.
    pub fn cost(&self) -> Option<CostHint> {
        match &self.inner {
            KernelInner::Native(def) => Some(def.cost),
            KernelInner::Dsl { .. } => None,
        }
    }

    /// Replace a native kernel's cost hint (e.g. when its per-item cost
    /// depends on runtime data). A kernel-language kernel is charged what it
    /// measures, so it has no hint to replace and is returned unchanged.
    pub fn with_cost(mut self, cost: CostHint) -> Self {
        if let KernelInner::Native(def) = &mut self.inner {
            def.cost = cost;
        }
        self
    }

    /// Validate an argument list against the kernel's signature without
    /// executing anything — the enqueue's check before anything is charged.
    /// The rule (and so every error text) is the kernel language's own
    /// [`skelcl_kernel::types::check_signature`], which the engines apply
    /// again when the launch runs. Native kernels carry no signature and
    /// validate nothing here (their closure reports argument problems at
    /// execution).
    pub fn validate_args(&self, args: &[KernelArg]) -> Result<()> {
        self.check_kinds(
            args.iter()
                .map(|arg| arg.buffer().map(|(buf, _)| buf.kind())),
        )
    }

    /// [`Kernel::validate_args`] over argument *kinds* only — `None` for a
    /// scalar, the element kind for a buffer — as a command buffer knows
    /// them when it records a launch (see [`crate::CommandBuffer::kernel`]).
    pub(crate) fn check_kinds(
        &self,
        kinds: impl ExactSizeIterator<Item = Option<DataKind>>,
    ) -> Result<()> {
        let KernelInner::Dsl { handle, .. } = &self.inner else {
            return Ok(());
        };
        handle.check_args(kinds.enumerate().map(|(i, kind)| match kind {
            None => ArgKind::Scalar,
            Some(kind) => ArgKind::Buffer(kind.scalar_type().ok_or_else(|| opaque_buffer(i))),
        }))
    }

    /// Execute the kernel against the taken buffer storage. `taken` must
    /// contain exactly the buffers referenced by `args` (enforced by the
    /// queue, which took them from the device).
    ///
    /// Returns the per-work-item cost the launch is charged: what a
    /// runtime-compiled (DSL) kernel *measured* — the floating-point
    /// operations and global-memory bytes it actually executed — with the
    /// launch's execution-tier trace, or a native kernel's author-provided
    /// [`CostHint`] with no trace.
    pub(crate) fn execute(
        &self,
        global_size: usize,
        args: &[KernelArg],
        taken: &mut [(u64, BufferData)],
    ) -> Result<(CostHint, Option<skelcl_kernel::LaunchTrace>)> {
        // Map buffer id -> &mut BufferData, consumed as the arguments are
        // resolved so each buffer is borrowed exactly once.
        let mut by_id: HashMap<u64, &mut BufferData> =
            taken.iter_mut().map(|(id, data)| (*id, data)).collect();
        let mut storage = |i: usize, buf: &Buffer| {
            by_id.remove(&buf.id()).ok_or_else(|| {
                OclError::InvalidKernelArg(format!(
                    "buffer argument {i} was not taken from the device"
                ))
            })
        };

        match &self.inner {
            KernelInner::Dsl { program, handle } => {
                let mut bindings: Vec<ArgBinding<'_>> = Vec::with_capacity(args.len());
                let mut view_of = |i: usize, buf: &Buffer, first: usize| {
                    let view = buf.kind().view(storage(i, buf)?, first);
                    view.ok_or_else(|| opaque_buffer(i))
                };
                for (i, arg) in args.iter().enumerate() {
                    bindings.push(match arg {
                        KernelArg::Scalar(v) => ArgBinding::Scalar(*v),
                        KernelArg::Buffer(buf) => ArgBinding::Buffer(view_of(i, buf, 0)?),
                        KernelArg::BufferFrom(buf, first) => {
                            ArgBinding::Buffer(view_of(i, buf, *first)?)
                        }
                    });
                }
                let (stats, trace) =
                    program.run_ndrange_traced(handle, global_size, &mut bindings)?;
                let per_item = stats.per_item(global_size);
                Ok((
                    CostHint::new(per_item.flops_equivalent(), per_item.global_bytes),
                    Some(trace),
                ))
            }
            KernelInner::Native(def) => {
                let mut views: Vec<ArgView<'_>> = Vec::with_capacity(args.len());
                for (i, arg) in args.iter().enumerate() {
                    views.push(match arg {
                        KernelArg::Scalar(v) => ArgView::Scalar(*v),
                        KernelArg::Buffer(buf) => ArgView::Buffer(storage(i, buf)?),
                        KernelArg::BufferFrom(..) => {
                            return Err(OclError::InvalidKernelArg(format!(
                                "argument {i} binds a buffer region; native kernels take whole buffers"
                            )))
                        }
                    });
                }
                let mut ctx = NativeCtx {
                    global_size,
                    args: views,
                };
                (def.func)(&mut ctx).map_err(OclError::InvalidKernelArg)?;
                Ok((def.cost, None))
            }
        }
    }
}

/// A kernel-language kernel was handed a buffer of opaque elements.
fn opaque_buffer(index: usize) -> OclError {
    OclError::InvalidKernelArg(format!(
        "buffer argument {index} has an opaque element type; \
         kernel-language kernels only accept float/double/int/uint buffers"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A buffer region binds like an OpenCL sub-buffer: the kernel's index 0
    /// is the region's first element, on every argument it is used for.
    #[test]
    fn buffer_regions_bind_from_their_first_element() {
        let p = Program::from_source(
            "__kernel void shift(__global float* src, __global float* dst, int n) {
                int i = get_global_id(0);
                if (i < n) { dst[i] = src[i] + 0.5f; }
            }",
        )
        .unwrap();
        let k = p.kernel("shift").unwrap();
        let src = Buffer::new(1, 0, 6, crate::DataKind::F32);
        let dst = Buffer::new(2, 0, 6, crate::DataKind::F32);
        let mut taken = vec![(1, BufferData::new(24)), (2, BufferData::new(24))];
        taken[0]
            .1
            .as_slice_mut::<f32>()
            .copy_from_slice(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let args = [
            KernelArg::BufferFrom(src, 3),
            KernelArg::BufferFrom(dst.clone(), 1),
            KernelArg::i32(2),
        ];
        k.validate_args(&args).unwrap();
        k.execute(2, &args, &mut taken).unwrap();
        assert_eq!(
            taken[1].1.as_slice::<f32>(),
            [0.0, 3.5, 4.5, 0.0, 0.0, 0.0],
            "elements before the region's first are out of reach"
        );
        // A native kernel sees whole buffers only.
        let native =
            Program::from_native([NativeKernelDef::new("n", CostHint::DEFAULT, |_| Ok(()))]);
        let err = native
            .kernel("n")
            .unwrap()
            .execute(1, &[KernelArg::BufferFrom(dst, 1)], &mut taken[1..])
            .unwrap_err();
        assert!(matches!(err, OclError::InvalidKernelArg(_)), "{err:?}");
    }

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
        assert_eq!(p.kernel_names(), vec!["scale".to_string()]);
        let k = p.kernel("scale").unwrap();
        assert_eq!(k.cost(), None, "a DSL kernel is charged what it measures");
        assert_eq!(k.with_cost(CostHint::DEFAULT).cost(), None);
        assert!(p.kernel("missing").is_err());
    }

    #[test]
    fn native_program_kernel_lookup() {
        let def = NativeKernelDef::new("noop", CostHint::DEFAULT, |_ctx| Ok(()));
        let p = Program::from_native([def]);
        let k = p.kernel("noop").unwrap();
        assert_eq!(k.cost(), Some(CostHint::DEFAULT));
        let hint = CostHint::new(9.0, 9.0);
        assert_eq!(k.with_cost(hint).cost(), Some(hint));
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
            let a = ctx.scalar(2)?.as_f64() as f32;
            let mut views = ctx.arg_views();
            let [xs, ys, ..] = views.as_mut_slice() else {
                return Err("axpy takes two buffers".to_string());
            };
            let xs = xs.as_slice::<f32>().ok_or("x must be a buffer")?;
            let ys = ys.as_slice_mut::<f32>().ok_or("y must be a buffer")?;
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
        let buf = Buffer::new(1, 0, 2, crate::buffer::DataKind::of::<[f32; 4]>());
        let mut taken = vec![(1u64, BufferData::new(32))];
        let args = [KernelArg::Buffer(buf.clone()), KernelArg::i32(1)];
        let err = k.execute(1, &args, &mut taken).unwrap_err();
        assert!(matches!(err, OclError::InvalidKernelArg(_)));
        // Enqueue-time validation says the same — where the signature rule
        // asks for the element type, and not before: under the scalar
        // parameter the buffer is simply a buffer.
        let err = k.validate_args(&args).unwrap_err();
        assert!(matches!(err, OclError::InvalidKernelArg(_)));
        let fbuf = Buffer::new(2, 0, 2, crate::buffer::DataKind::F32);
        let err = k
            .validate_args(&[KernelArg::Buffer(fbuf), KernelArg::Buffer(buf)])
            .unwrap_err();
        assert!(err
            .to_string()
            .ends_with("is a scalar but a buffer was bound"));
    }
}
