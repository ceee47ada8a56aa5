//! Tree-walking interpreter that executes one work-item of a kernel.
//!
//! The interpreter binds kernel parameters to [`ArgBinding`]s: scalars bind to
//! a [`Value`], buffers bind to a mutable typed slice view. The `oclsim`
//! device simulator owns the buffer storage and constructs the bindings for
//! every launch.

use std::collections::HashMap;

use crate::ast::*;
use crate::builtins::{stencil, Builtin};
use crate::cost::CostEstimate;
use crate::diag::KernelError;
use crate::types::{ArgKind, ScalarType, Type};
use crate::value::Value;

/// The work-item context: the values returned by `get_global_id` and friends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Global work-item index (dimension 0).
    pub global_id: usize,
    /// Total number of work-items (dimension 0).
    pub global_size: usize,
    /// Index within the work-group.
    pub local_id: usize,
    /// Work-group size.
    pub local_size: usize,
    /// Work-group index.
    pub group_id: usize,
}

impl WorkItem {
    /// A 1-D work item with trivial (single) work-group structure.
    pub fn linear(global_id: usize, global_size: usize) -> Self {
        WorkItem {
            global_id,
            global_size,
            local_id: global_id,
            local_size: global_size.max(1),
            group_id: 0,
        }
    }
}

/// A mutable view over a typed global-memory buffer.
#[derive(Debug)]
pub enum BufferView<'a> {
    /// `__global float*`
    F32(&'a mut [f32]),
    /// `__global double*`
    F64(&'a mut [f64]),
    /// `__global int*`
    I32(&'a mut [i32]),
    /// `__global uint*`
    U32(&'a mut [u32]),
}

impl<'a> BufferView<'a> {
    /// Element type of the view.
    pub fn scalar_type(&self) -> ScalarType {
        match self {
            BufferView::F32(_) => ScalarType::Float,
            BufferView::F64(_) => ScalarType::Double,
            BufferView::I32(_) => ScalarType::Int,
            BufferView::U32(_) => ScalarType::Uint,
        }
    }

    /// Number of elements in the view.
    pub fn len(&self) -> usize {
        match self {
            BufferView::F32(s) => s.len(),
            BufferView::F64(s) => s.len(),
            BufferView::I32(s) => s.len(),
            BufferView::U32(s) => s.len(),
        }
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn load(&self, idx: usize) -> Option<Value> {
        match self {
            BufferView::F32(s) => s.get(idx).map(|v| Value::Float(*v)),
            BufferView::F64(s) => s.get(idx).map(|v| Value::Double(*v)),
            BufferView::I32(s) => s.get(idx).map(|v| Value::Int(*v)),
            BufferView::U32(s) => s.get(idx).map(|v| Value::Uint(*v)),
        }
    }

    /// Write back a value previously read with [`BufferView::load`] without
    /// any conversion, bit-exactly — the undo path of the native tier's
    /// rollback. A variant mismatch or out-of-range index is a logic error
    /// (the undo log only ever holds values loaded from this view).
    pub(crate) fn restore(&mut self, idx: usize, value: Value) {
        match (self, value) {
            (BufferView::F32(s), Value::Float(v)) => s[idx] = v,
            (BufferView::F64(s), Value::Double(v)) => s[idx] = v,
            (BufferView::I32(s), Value::Int(v)) => s[idx] = v,
            (BufferView::U32(s), Value::Uint(v)) => s[idx] = v,
            _ => unreachable!("undo log holds values loaded from the same view"),
        }
    }

    pub(crate) fn store(&mut self, idx: usize, value: Value) -> bool {
        match self {
            BufferView::F32(s) => {
                if let Some(slot) = s.get_mut(idx) {
                    *slot = value.as_f64() as f32;
                    return true;
                }
            }
            BufferView::F64(s) => {
                if let Some(slot) = s.get_mut(idx) {
                    *slot = value.as_f64();
                    return true;
                }
            }
            BufferView::I32(s) => {
                if let Some(slot) = s.get_mut(idx) {
                    *slot = value.as_i64() as i32;
                    return true;
                }
            }
            BufferView::U32(s) => {
                if let Some(slot) = s.get_mut(idx) {
                    *slot = value.as_i64() as u32;
                    return true;
                }
            }
        }
        false
    }
}

/// A binding of one kernel argument.
#[derive(Debug)]
pub enum ArgBinding<'a> {
    /// A scalar argument.
    Scalar(Value),
    /// A global buffer argument.
    Buffer(BufferView<'a>),
}

impl<'a> ArgBinding<'a> {
    /// Convenience constructor for an `f32` buffer binding.
    pub fn buffer_f32(data: &'a mut [f32]) -> Self {
        ArgBinding::Buffer(BufferView::F32(data))
    }

    /// Convenience constructor for an `i32` buffer binding.
    pub fn buffer_i32(data: &'a mut [i32]) -> Self {
        ArgBinding::Buffer(BufferView::I32(data))
    }

    /// Convenience constructor for a `u32` buffer binding.
    pub fn buffer_u32(data: &'a mut [u32]) -> Self {
        ArgBinding::Buffer(BufferView::U32(data))
    }

    /// Convenience constructor for an `f64` buffer binding.
    pub fn buffer_f64(data: &'a mut [f64]) -> Self {
        ArgBinding::Buffer(BufferView::F64(data))
    }

    /// What the shared signature rule ([`crate::types::check_signature`])
    /// needs to know of this binding.
    pub fn kind<E>(&self) -> ArgKind<E> {
        match self {
            ArgBinding::Scalar(_) => ArgKind::Scalar,
            ArgBinding::Buffer(view) => ArgKind::Buffer(Ok(view.scalar_type())),
        }
    }
}

/// Per-launch context of the stencil neighbour-access builtin
/// `get(dx, dy)`, detected from the reserved parameter names of the kernel
/// signature (see [`crate::builtins::stencil`]). Shared by the interpreter
/// and the bytecode VM so both engines resolve `get` identically.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StencilCtx {
    /// Kernel argument slot of the stencil input buffer.
    pub in_slot: usize,
    /// Row width (columns) of the matrix part.
    pub width: i64,
    /// Halo rows padded above and below the part's core rows.
    pub halo: i64,
    /// Column out-of-bound policy (clamp / wrap / constant).
    pub policy: i32,
    /// Value returned for out-of-range columns under the constant policy.
    pub oob: f32,
}

impl StencilCtx {
    /// Detect the stencil context of a launch: `Ok(None)` when the kernel
    /// declares no stencil parameters, `Ok(Some(..))` when all of them are
    /// present and valid, an error for a partial or ill-typed set.
    pub(crate) fn detect<'n>(
        params: impl Iterator<Item = &'n str>,
        args: &[ArgBinding<'_>],
    ) -> Result<Option<StencilCtx>, KernelError> {
        let mut slots: [Option<usize>; 5] = [None; 5];
        const NAMES: [&str; 5] = [
            stencil::IN_PARAM,
            stencil::WIDTH_PARAM,
            stencil::HALO_PARAM,
            stencil::POLICY_PARAM,
            stencil::OOB_PARAM,
        ];
        for (i, name) in params.enumerate() {
            if let Some(k) = NAMES.iter().position(|n| *n == name) {
                slots[k] = Some(i);
            }
        }
        if slots.iter().all(Option::is_none) {
            return Ok(None);
        }
        if slots.iter().any(Option::is_none) {
            return Err(KernelError::run(
                "incomplete stencil context: a stencil kernel must declare all \
                 skelcl_stencil_* parameters",
            ));
        }
        let scalar = |slot: usize, name: &str| -> Result<Value, KernelError> {
            match &args[slot] {
                ArgBinding::Scalar(v) => Ok(*v),
                ArgBinding::Buffer(_) => Err(KernelError::run(format!(
                    "stencil parameter `{name}` must be bound to a scalar"
                ))),
            }
        };
        let in_slot = slots[0].expect("checked above");
        match &args[in_slot] {
            ArgBinding::Buffer(view) if view.scalar_type() == ScalarType::Float => {}
            _ => {
                return Err(KernelError::run(format!(
                    "stencil input `{}` must be bound to a float buffer",
                    stencil::IN_PARAM
                )))
            }
        }
        let width = scalar(slots[1].expect("checked above"), stencil::WIDTH_PARAM)?.as_i64();
        let halo = scalar(slots[2].expect("checked above"), stencil::HALO_PARAM)?.as_i64();
        let policy = scalar(slots[3].expect("checked above"), stencil::POLICY_PARAM)?.as_i64();
        let oob = scalar(slots[4].expect("checked above"), stencil::OOB_PARAM)?.as_f64() as f32;
        if width <= 0 {
            return Err(KernelError::run(format!(
                "stencil width must be positive, got {width}"
            )));
        }
        if halo < 0 {
            return Err(KernelError::run(format!(
                "stencil halo must be non-negative, got {halo}"
            )));
        }
        if !(stencil::POLICY_CLAMP as i64..=stencil::POLICY_CONSTANT as i64).contains(&policy) {
            return Err(KernelError::run(format!(
                "unknown stencil boundary policy {policy}"
            )));
        }
        Ok(Some(StencilCtx {
            in_slot,
            width,
            halo,
            policy: policy as i32,
            oob,
        }))
    }
}

/// Evaluate `get(dx, dy)` for the work-item `gid` under a stencil context:
/// rows resolve directly into the halo-padded input part (row out-of-bound
/// handling happened when the halo was filled), columns apply the configured
/// policy. Shared verbatim by both execution engines; the cost accounting
/// (one global load plus address arithmetic) is done by each engine's own
/// counting mechanism *before* this call, so error paths charge identically.
pub(crate) fn stencil_get(
    ctx: StencilCtx,
    args: &[ArgBinding<'_>],
    gid: usize,
    dx: i64,
    dy: i64,
) -> Result<Value, KernelError> {
    if dy < -ctx.halo || dy > ctx.halo {
        return Err(KernelError::run(format!(
            "stencil access dy={dy} exceeds the declared halo of {} row(s)",
            ctx.halo
        )));
    }
    let w = ctx.width;
    let row = gid as i64 / w;
    let col = gid as i64 % w;
    let mut c = col + dx;
    if c < 0 || c >= w {
        c = match ctx.policy {
            stencil::POLICY_CLAMP => c.clamp(0, w - 1),
            stencil::POLICY_WRAP => c.rem_euclid(w),
            stencil::POLICY_CONSTANT => return Ok(Value::Float(ctx.oob)),
            other => unreachable!("policy {other} rejected at context detection"),
        };
    }
    let idx = ((row + ctx.halo + dy) * w + c) as usize;
    match &args[ctx.in_slot] {
        ArgBinding::Buffer(view) => view.load(idx).ok_or_else(|| {
            KernelError::run(format!(
                "stencil access ({dx}, {dy}) at index {idx} is out of bounds for the \
                 stencil input (len {})",
                view.len()
            ))
        }),
        ArgBinding::Scalar(_) => unreachable!("buffer binding validated at context detection"),
    }
}

/// The error reported when `get` is called outside a stencil kernel; one
/// string so both engines agree verbatim.
pub(crate) const NO_STENCIL_CONTEXT: &str =
    "`get` requires a stencil (MapOverlap) kernel: no stencil context parameters are bound";

/// Control-flow signal produced by statement execution.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Option<Value>),
}

/// Variable environment: a stack of scopes.
#[derive(Default)]
struct Env {
    scopes: Vec<HashMap<String, Value>>,
}

impl Env {
    fn push(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.scopes.pop();
    }

    fn declare(&mut self, name: &str, value: Value) {
        self.scopes
            .last_mut()
            .expect("environment always has a scope")
            .insert(name.to_string(), value);
    }

    fn get(&self, name: &str) -> Option<Value> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn set(&mut self, name: &str, value: Value) -> bool {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                // Keep the declared type of the variable.
                *slot = value.convert_to(slot.scalar_type());
                return true;
            }
        }
        false
    }
}

/// Dynamic execution statistics accumulated while running kernel code: the
/// record of the static estimator ([`crate::cost`], which the paper's static
/// scheduler uses as a prediction), filled with the operations the kernel
/// actually executed — so data-dependent loops (e.g. the Mandelbrot escape
/// loop) are accounted for exactly. The device simulator charges virtual
/// time from these measured counts.
pub type ExecStats = CostEstimate;

/// How many helper calls may be active at once in one work-item, on every
/// engine; the next call fails with `call depth limit (N) exceeded`. OpenCL C
/// forbids recursion, so real kernels stay far below it. The limit is sized
/// for this interpreter, which recurses on the host stack: in a debug build
/// one kernel-language call takes 20–45 KiB of it, more the deeper the call
/// sits in its function's statements, so at this depth a 2 MiB thread still
/// has more than half of its stack left.
pub(crate) const MAX_CALL_DEPTH: usize = 16;

/// The kernel interpreter. One instance may be reused across work-items of
/// the same launch.
pub struct Interpreter<'u> {
    unit: &'u TranslationUnit,
    /// Hard cap on loop iterations per work-item, to turn accidental infinite
    /// loops in user code into errors instead of hangs.
    pub max_loop_iterations: u64,
    stats: std::cell::Cell<ExecStats>,
}

/// Buffer bindings are identified by the parameter index of the *kernel*
/// entry point; helper functions only receive scalar values (enforced by the
/// checker), so the buffers stay attached to their kernel parameter names.
struct KernelFrame<'a, 'b> {
    /// Maps a kernel parameter name to an index into `args`.
    buffer_params: HashMap<String, usize>,
    args: &'a mut [ArgBinding<'b>],
    item: WorkItem,
    /// Stencil context of the launch, when the kernel declares the reserved
    /// `skelcl_stencil_*` parameters (enables the `get(dx, dy)` builtin).
    stencil: Option<StencilCtx>,
    /// Helper calls active right now (bounded by [`MAX_CALL_DEPTH`]).
    depth: usize,
}

impl<'u> Interpreter<'u> {
    /// Create an interpreter for a checked translation unit.
    pub fn new(unit: &'u TranslationUnit) -> Self {
        Interpreter {
            unit,
            max_loop_iterations: 100_000_000,
            stats: std::cell::Cell::new(ExecStats::default()),
        }
    }

    /// The execution statistics accumulated since construction.
    pub fn stats(&self) -> ExecStats {
        self.stats.get()
    }

    #[inline]
    fn count_flops(&self, flops: f64) {
        let mut s = self.stats.get();
        s.flops += flops;
        s.ops += 1.0;
        self.stats.set(s);
    }

    #[inline]
    fn count_op(&self) {
        let mut s = self.stats.get();
        s.ops += 1.0;
        self.stats.set(s);
    }

    #[inline]
    fn count_bytes(&self, bytes: f64) {
        let mut s = self.stats.get();
        s.global_bytes += bytes;
        s.ops += 1.0;
        self.stats.set(s);
    }

    /// Run the kernel with function index `kernel_index` for one work-item.
    pub fn run_kernel(
        &mut self,
        kernel_index: usize,
        item: WorkItem,
        args: &mut [ArgBinding<'_>],
    ) -> Result<(), KernelError> {
        let func = &self.unit.functions[kernel_index];
        if args.len() != func.params.len() {
            return Err(KernelError::run(format!(
                "kernel `{}` expects {} arguments, {} bound",
                func.name,
                func.params.len(),
                args.len()
            )));
        }

        let mut env = Env::default();
        env.push();
        let mut buffer_params = HashMap::new();
        for (i, (param, arg)) in func.params.iter().zip(args.iter()).enumerate() {
            match (&param.ty, arg) {
                (Type::GlobalPtr(want), ArgBinding::Buffer(view)) => {
                    let got = view.scalar_type();
                    if *want != got {
                        return Err(KernelError::run(format!(
                            "argument `{}` of kernel `{}`: expected __global {want}*, bound {got} buffer",
                            param.name, func.name
                        )));
                    }
                    buffer_params.insert(param.name.clone(), i);
                }
                (Type::Scalar(want), ArgBinding::Scalar(v)) => {
                    env.declare(&param.name, v.convert_to(*want));
                }
                (Type::GlobalPtr(_), ArgBinding::Scalar(_)) => {
                    return Err(KernelError::run(format!(
                        "argument `{}` of kernel `{}` is a buffer but a scalar was bound",
                        param.name, func.name
                    )));
                }
                (Type::Scalar(_), ArgBinding::Buffer(_)) => {
                    return Err(KernelError::run(format!(
                        "argument `{}` of kernel `{}` is a scalar but a buffer was bound",
                        param.name, func.name
                    )));
                }
                (Type::Void, _) => unreachable!("void parameters rejected by the parser"),
            }
        }

        let stencil = StencilCtx::detect(func.params.iter().map(|p| p.name.as_str()), args)?;
        let mut frame = KernelFrame {
            buffer_params,
            args,
            item,
            stencil,
            depth: 0,
        };
        self.exec_block(&func.body, &mut env, &mut frame)?;
        Ok(())
    }

    fn call_function(
        &self,
        func: &Function,
        arg_values: Vec<Value>,
        frame: &mut KernelFrame<'_, '_>,
    ) -> Result<Value, KernelError> {
        if frame.depth >= MAX_CALL_DEPTH {
            return Err(KernelError::run(format!(
                "call depth limit ({MAX_CALL_DEPTH}) exceeded"
            )));
        }
        let mut env = Env::default();
        env.push();
        for (param, value) in func.params.iter().zip(arg_values) {
            env.declare(&param.name, value.convert_to(param.ty.scalar()));
        }
        frame.depth += 1;
        let flow = self.exec_block(&func.body, &mut env, frame);
        frame.depth -= 1;
        match flow? {
            Flow::Return(Some(v)) => Ok(v.convert_to(func.return_type.scalar())),
            Flow::Return(None) | Flow::Normal => {
                if func.return_type.is_void() {
                    Ok(Value::Int(0))
                } else {
                    Err(KernelError::run(format!(
                        "non-void function `{}` finished without returning a value",
                        func.name
                    )))
                }
            }
            Flow::Break | Flow::Continue => Err(KernelError::run(
                "break/continue outside of a loop".to_string(),
            )),
        }
    }

    fn exec_block(
        &self,
        block: &Block,
        env: &mut Env,
        frame: &mut KernelFrame<'_, '_>,
    ) -> Result<Flow, KernelError> {
        env.push();
        for stmt in &block.stmts {
            match self.exec_stmt(stmt, env, frame)? {
                Flow::Normal => {}
                other => {
                    env.pop();
                    return Ok(other);
                }
            }
        }
        env.pop();
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &self,
        stmt: &Stmt,
        env: &mut Env,
        frame: &mut KernelFrame<'_, '_>,
    ) -> Result<Flow, KernelError> {
        self.count_op();
        match stmt {
            Stmt::Decl { ty, name, init, .. } => {
                let value = match init {
                    Some(e) => self.eval(e, env, frame)?.convert_to(*ty),
                    None => Value::zero(*ty),
                };
                env.declare(name, value);
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e, env, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                if self.eval(cond, env, frame)?.as_bool() {
                    self.exec_block(then_block, env, frame)
                } else {
                    self.exec_block(else_block, env, frame)
                }
            }
            Stmt::While { cond, body } => {
                let mut iterations = 0u64;
                loop {
                    if !self.eval(cond, env, frame)?.as_bool() {
                        break;
                    }
                    match self.exec_block(body, env, frame)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    iterations += 1;
                    if iterations > self.max_loop_iterations {
                        return Err(KernelError::run("loop iteration limit exceeded"));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                env.push();
                if let Some(init) = init {
                    self.exec_stmt(init, env, frame)?;
                }
                let mut iterations = 0u64;
                loop {
                    let keep_going = match cond {
                        Some(c) => self.eval(c, env, frame)?.as_bool(),
                        None => true,
                    };
                    if !keep_going {
                        break;
                    }
                    match self.exec_block(body, env, frame)? {
                        Flow::Break => break,
                        Flow::Return(v) => {
                            env.pop();
                            return Ok(Flow::Return(v));
                        }
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(step) = step {
                        self.eval(step, env, frame)?;
                    }
                    iterations += 1;
                    if iterations > self.max_loop_iterations {
                        env.pop();
                        return Err(KernelError::run("loop iteration limit exceeded"));
                    }
                }
                env.pop();
                Ok(Flow::Normal)
            }
            Stmt::Return(expr, _) => {
                let v = match expr {
                    Some(e) => Some(self.eval(e, env, frame)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break(_) => Ok(Flow::Break),
            Stmt::Continue(_) => Ok(Flow::Continue),
            Stmt::Block(b) => self.exec_block(b, env, frame),
        }
    }

    fn read_lvalue(
        &self,
        lv: &LValue,
        env: &mut Env,
        frame: &mut KernelFrame<'_, '_>,
    ) -> Result<Value, KernelError> {
        match lv {
            LValue::Var(name, _) => env
                .get(name)
                .ok_or_else(|| KernelError::run(format!("variable `{name}` is not bound"))),
            LValue::Index { base, index, .. } => {
                let idx = self.eval(index, env, frame)?.as_i64();
                self.buffer_load(base, idx, frame)
            }
        }
    }

    fn write_lvalue(
        &self,
        lv: &LValue,
        value: Value,
        env: &mut Env,
        frame: &mut KernelFrame<'_, '_>,
    ) -> Result<(), KernelError> {
        match lv {
            LValue::Var(name, _) => {
                if env.set(name, value) {
                    Ok(())
                } else {
                    Err(KernelError::run(format!("variable `{name}` is not bound")))
                }
            }
            LValue::Index { base, index, .. } => {
                let idx = self.eval(index, env, frame)?.as_i64();
                self.buffer_store(base, idx, value, frame)
            }
        }
    }

    fn buffer_arg_index(
        &self,
        name: &str,
        frame: &KernelFrame<'_, '_>,
    ) -> Result<usize, KernelError> {
        frame
            .buffer_params
            .get(name)
            .copied()
            .ok_or_else(|| KernelError::run(format!("`{name}` is not a buffer parameter")))
    }

    fn buffer_load(
        &self,
        name: &str,
        idx: i64,
        frame: &mut KernelFrame<'_, '_>,
    ) -> Result<Value, KernelError> {
        if idx < 0 {
            return Err(KernelError::run(format!(
                "negative index {idx} into buffer `{name}`"
            )));
        }
        let arg = self.buffer_arg_index(name, frame)?;
        match &frame.args[arg] {
            ArgBinding::Buffer(view) => {
                self.count_bytes(view.scalar_type().size_bytes() as f64);
                view.load(idx as usize).ok_or_else(|| {
                    KernelError::run(format!(
                        "index {idx} out of bounds for buffer `{name}` (len {})",
                        view.len()
                    ))
                })
            }
            ArgBinding::Scalar(_) => Err(KernelError::run(format!(
                "`{name}` is bound to a scalar but used as a buffer"
            ))),
        }
    }

    fn buffer_store(
        &self,
        name: &str,
        idx: i64,
        value: Value,
        frame: &mut KernelFrame<'_, '_>,
    ) -> Result<(), KernelError> {
        if idx < 0 {
            return Err(KernelError::run(format!(
                "negative index {idx} into buffer `{name}`"
            )));
        }
        let arg = self.buffer_arg_index(name, frame)?;
        match &mut frame.args[arg] {
            ArgBinding::Buffer(view) => {
                self.count_bytes(view.scalar_type().size_bytes() as f64);
                let len = view.len();
                if view.store(idx as usize, value) {
                    Ok(())
                } else {
                    Err(KernelError::run(format!(
                        "index {idx} out of bounds for buffer `{name}` (len {len})"
                    )))
                }
            }
            ArgBinding::Scalar(_) => Err(KernelError::run(format!(
                "`{name}` is bound to a scalar but used as a buffer"
            ))),
        }
    }

    fn eval(
        &self,
        expr: &Expr,
        env: &mut Env,
        frame: &mut KernelFrame<'_, '_>,
    ) -> Result<Value, KernelError> {
        match expr {
            Expr::IntLit(v, _) => Ok(Value::Int(*v as i32)),
            Expr::FloatLit(v, _) => Ok(Value::Float(*v as f32)),
            Expr::BoolLit(v, _) => Ok(Value::Bool(*v)),
            Expr::Var(name, _) => env
                .get(name)
                .ok_or_else(|| KernelError::run(format!("variable `{name}` is not bound"))),
            Expr::Index { base, index, .. } => {
                let idx = self.eval(index, env, frame)?.as_i64();
                self.buffer_load(base, idx, frame)
            }
            Expr::Unary { op, operand, .. } => {
                let v = self.eval(operand, env, frame)?;
                self.count_flops(1.0);
                Ok(match op {
                    UnOp::Neg => match v {
                        Value::Float(x) => Value::Float(-x),
                        Value::Double(x) => Value::Double(-x),
                        // Wrapping, like every other integer op of the
                        // language (and the VM): -INT_MIN is INT_MIN.
                        Value::Int(x) => Value::Int(x.wrapping_neg()),
                        Value::Uint(x) => Value::Int(-(x as i64) as i32),
                        Value::Bool(_) => unreachable!("checker rejects bool negation"),
                    },
                    UnOp::Not => Value::Bool(!v.as_bool()),
                })
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                // Short-circuit logical operators.
                if *op == BinOp::And {
                    let l = self.eval(lhs, env, frame)?;
                    self.count_op();
                    if !l.as_bool() {
                        return Ok(Value::Bool(false));
                    }
                    return Ok(Value::Bool(self.eval(rhs, env, frame)?.as_bool()));
                }
                if *op == BinOp::Or {
                    let l = self.eval(lhs, env, frame)?;
                    self.count_op();
                    if l.as_bool() {
                        return Ok(Value::Bool(true));
                    }
                    return Ok(Value::Bool(self.eval(rhs, env, frame)?.as_bool()));
                }
                let l = self.eval(lhs, env, frame)?;
                let r = self.eval(rhs, env, frame)?;
                self.count_flops(if op.is_comparison() { 0.5 } else { 1.0 });
                eval_binary(*op, l, r)
            }
            Expr::Call { callee, args, .. } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a, env, frame)?);
                }
                if let Some(b) = Builtin::from_name(callee) {
                    if b.is_work_item_fn() {
                        let item = frame.item;
                        let v = match b {
                            Builtin::GetGlobalId => item.global_id,
                            Builtin::GetLocalId => item.local_id,
                            Builtin::GetGroupId => item.group_id,
                            Builtin::GetGlobalSize => item.global_size,
                            Builtin::GetLocalSize => item.local_size,
                            Builtin::GetNumGroups => {
                                item.global_size.div_ceil(item.local_size.max(1))
                            }
                            _ => unreachable!(),
                        };
                        self.count_op();
                        return Ok(Value::Int(v as i32));
                    }
                    if b.is_stencil_fn() {
                        // Costed like any other load: the address arithmetic
                        // as flops, the element read as global bytes —
                        // charged before evaluation so error paths count the
                        // same work in both engines.
                        self.count_flops(b.flop_cost());
                        self.count_bytes(ScalarType::Float.size_bytes() as f64);
                        let ctx = frame
                            .stencil
                            .ok_or_else(|| KernelError::run(NO_STENCIL_CONTEXT))?;
                        let (dx, dy) = (values[0].as_i64(), values[1].as_i64());
                        return stencil_get(ctx, frame.args, frame.item.global_id, dx, dy);
                    }
                    self.count_flops(b.flop_cost());
                    return Ok(b.eval_math(&values));
                }
                let func = self
                    .unit
                    .function(callee)
                    .ok_or_else(|| KernelError::run(format!("unknown function `{callee}`")))?;
                self.call_function(func, values, frame)
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                if self.eval(cond, env, frame)?.as_bool() {
                    self.eval(then_expr, env, frame)
                } else {
                    self.eval(else_expr, env, frame)
                }
            }
            Expr::Assign {
                op, target, value, ..
            } => {
                let rhs = self.eval(value, env, frame)?;
                let new = match op {
                    AssignOp::Assign => rhs,
                    _ => {
                        let old = self.read_lvalue(target, env, frame)?;
                        let bin = match op {
                            AssignOp::AddAssign => BinOp::Add,
                            AssignOp::SubAssign => BinOp::Sub,
                            AssignOp::MulAssign => BinOp::Mul,
                            AssignOp::DivAssign => BinOp::Div,
                            AssignOp::Assign => unreachable!(),
                        };
                        eval_binary(bin, old, rhs)?
                    }
                };
                self.write_lvalue(target, new, env, frame)?;
                Ok(new)
            }
            Expr::IncDec {
                target,
                delta,
                prefix,
                ..
            } => {
                let old = self.read_lvalue(target, env, frame)?;
                self.count_flops(1.0);
                let new = eval_binary(BinOp::Add, old, Value::Int(*delta))?;
                self.write_lvalue(target, new, env, frame)?;
                Ok(if *prefix { new } else { old })
            }
            Expr::Cast { ty, operand, .. } => Ok(self.eval(operand, env, frame)?.convert_to(*ty)),
        }
    }
}

/// Evaluate a (non-short-circuit) binary operator with C-style usual
/// arithmetic conversions. Shared with the bytecode VM ([`crate::vm`]) so
/// both engines have identical arithmetic semantics by construction.
pub(crate) fn eval_binary(op: BinOp, l: Value, r: Value) -> Result<Value, KernelError> {
    use BinOp::*;
    let unified = l.scalar_type().unify(r.scalar_type());
    if unified.is_float() {
        let (a, b) = (l.as_f64(), r.as_f64());
        let result = match op {
            Add => a + b,
            Sub => a - b,
            Mul => a * b,
            Div => a / b,
            Rem => return Err(KernelError::run("`%` on float operands")),
            Eq => return Ok(Value::Bool(a == b)),
            Ne => return Ok(Value::Bool(a != b)),
            Lt => return Ok(Value::Bool(a < b)),
            Le => return Ok(Value::Bool(a <= b)),
            Gt => return Ok(Value::Bool(a > b)),
            Ge => return Ok(Value::Bool(a >= b)),
            And => return Ok(Value::Bool(l.as_bool() && r.as_bool())),
            Or => return Ok(Value::Bool(l.as_bool() || r.as_bool())),
        };
        Ok(match unified {
            ScalarType::Double => Value::Double(result),
            _ => Value::Float(result as f32),
        })
    } else {
        let (a, b) = (l.as_i64(), r.as_i64());
        let result = match op {
            Add => a.wrapping_add(b),
            Sub => a.wrapping_sub(b),
            Mul => a.wrapping_mul(b),
            Div => {
                if b == 0 {
                    return Err(KernelError::run("integer division by zero"));
                }
                a / b
            }
            Rem => {
                if b == 0 {
                    return Err(KernelError::run("integer remainder by zero"));
                }
                a % b
            }
            Eq => return Ok(Value::Bool(a == b)),
            Ne => return Ok(Value::Bool(a != b)),
            Lt => return Ok(Value::Bool(a < b)),
            Le => return Ok(Value::Bool(a <= b)),
            Gt => return Ok(Value::Bool(a > b)),
            Ge => return Ok(Value::Bool(a >= b)),
            And => return Ok(Value::Bool(l.as_bool() && r.as_bool())),
            Or => return Ok(Value::Bool(l.as_bool() || r.as_bool())),
        };
        Ok(match unified {
            ScalarType::Uint => Value::Uint(result as u32),
            ScalarType::Bool => Value::Bool(result != 0),
            _ => Value::Int(result as i32),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;

    fn run_map_kernel(src: &str, kernel: &str, data: &mut [f32]) {
        let p = Program::build(src).unwrap();
        let k = p.kernel(kernel).unwrap();
        let n = data.len();
        let mut args = vec![
            ArgBinding::buffer_f32(data),
            ArgBinding::Scalar(Value::Int(n as i32)),
        ];
        p.run_ndrange(&k, n, &mut args).unwrap();
    }

    #[test]
    fn loops_and_accumulation() {
        let src = r#"
            __kernel void sums(__global float* v, int n) {
                int gid = get_global_id(0);
                float acc = 0.0f;
                for (int i = 0; i <= gid; i++) { acc += 1.0f; }
                v[gid] = acc;
            }
        "#;
        let mut data = vec![0.0f32; 5];
        run_map_kernel(src, "sums", &mut data);
        assert_eq!(data, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn while_break_continue() {
        let src = r#"
            __kernel void evens(__global float* v, int n) {
                int gid = get_global_id(0);
                int i = 0;
                float acc = 0.0f;
                while (true) {
                    i = i + 1;
                    if (i > n) { break; }
                    if (i % 2 == 1) { continue; }
                    acc += i;
                }
                v[gid] = acc;
            }
        "#;
        let mut data = vec![0.0f32; 1];
        run_map_kernel(src, "evens", &mut data);
        // 2 + 4 ... but n == 1, so no even numbers <= 1 -> 0
        assert_eq!(data[0], 0.0);
        let mut data = vec![0.0f32; 6];
        run_map_kernel(src, "evens", &mut data);
        // n == 6: 2 + 4 + 6 = 12
        assert_eq!(data[0], 12.0);
    }

    #[test]
    fn measured_stats_count_executed_work() {
        // Each work-item gid runs gid+1 loop iterations, so the measured
        // flops must be data-dependent (triangular), unlike the static
        // estimate which assumes a fixed trip count.
        let src = r#"
            __kernel void sums(__global float* v, int n) {
                int gid = get_global_id(0);
                float acc = 0.0f;
                for (int i = 0; i <= gid; i++) { acc += 1.0f; }
                v[gid] = acc;
            }
        "#;
        let p = Program::build(src).unwrap();
        let k = p.kernel("sums").unwrap();
        let mut small = vec![0.0f32; 2];
        let mut args = vec![
            ArgBinding::buffer_f32(&mut small),
            ArgBinding::Scalar(Value::Int(2)),
        ];
        let stats_small = p.run_ndrange_measured(&k, 2, &mut args).unwrap();
        let mut big = vec![0.0f32; 8];
        let mut args = vec![
            ArgBinding::buffer_f32(&mut big),
            ArgBinding::Scalar(Value::Int(8)),
        ];
        let stats_big = p.run_ndrange_measured(&k, 8, &mut args).unwrap();
        assert!(stats_small.flops > 0.0);
        assert!(stats_big.flops > stats_small.flops);
        // Per-item cost grows with gid, so it is larger for the bigger range.
        assert!(stats_big.per_item(8).flops > stats_small.per_item(2).flops);
        // One 4-byte store per work-item at least.
        assert!(stats_big.global_bytes >= 8.0 * 4.0);
        assert!(stats_big.ops > 0.0);
    }

    #[test]
    fn measured_stats_include_builtin_flop_costs() {
        let cheap = r#"
            __kernel void k(__global float* v, int n) {
                int gid = get_global_id(0);
                v[gid] = v[gid] + 1.0f;
            }
        "#;
        let pricey = r#"
            __kernel void k(__global float* v, int n) {
                int gid = get_global_id(0);
                v[gid] = exp(v[gid]) + sqrt(v[gid]);
            }
        "#;
        let run = |src: &str| {
            let p = Program::build(src).unwrap();
            let k = p.kernel("k").unwrap();
            let mut data = vec![1.0f32; 4];
            let mut args = vec![
                ArgBinding::buffer_f32(&mut data),
                ArgBinding::Scalar(Value::Int(4)),
            ];
            p.run_ndrange_measured(&k, 4, &mut args).unwrap()
        };
        assert!(run(pricey).flops > run(cheap).flops);
    }

    #[test]
    fn helper_function_calls_and_recursion_free_math() {
        let src = r#"
            float square(float x) { return x * x; }
            float hypot2(float a, float b) { return square(a) + square(b); }
            __kernel void k(__global float* v, int n) {
                int gid = get_global_id(0);
                v[gid] = sqrt(hypot2(v[gid], 3.0f));
            }
        "#;
        let mut data = vec![4.0f32];
        run_map_kernel(src, "k", &mut data);
        assert_eq!(data[0], 5.0);
    }

    #[test]
    fn out_of_bounds_is_an_error_not_ub() {
        let src = r#"
            __kernel void k(__global float* v, int n) {
                v[n + 10] = 1.0f;
            }
        "#;
        let p = Program::build(src).unwrap();
        let k = p.kernel("k").unwrap();
        let mut data = vec![0.0f32; 4];
        let mut args = vec![
            ArgBinding::buffer_f32(&mut data),
            ArgBinding::Scalar(Value::Int(4)),
        ];
        let err = p.run_ndrange(&k, 1, &mut args).unwrap_err();
        assert!(err.message.contains("out of bounds"));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let src = r#"
            __kernel void k(__global int* v, int n) {
                v[0] = 1 / n;
            }
        "#;
        let p = Program::build(src).unwrap();
        let k = p.kernel("k").unwrap();
        let mut data = vec![0i32; 1];
        let mut args = vec![
            ArgBinding::buffer_i32(&mut data),
            ArgBinding::Scalar(Value::Int(0)),
        ];
        assert!(p.run_ndrange(&k, 1, &mut args).is_err());
    }

    #[test]
    fn argument_binding_type_mismatch_is_reported() {
        let src = "__kernel void k(__global float* v, int n) { v[0] = n; }";
        let p = Program::build(src).unwrap();
        let k = p.kernel("k").unwrap();
        let mut wrong = vec![0i32; 1];
        let mut args = vec![
            ArgBinding::buffer_i32(&mut wrong),
            ArgBinding::Scalar(Value::Int(1)),
        ];
        let err = p.run_ndrange(&k, 1, &mut args).unwrap_err();
        assert!(err.message.contains("expected __global float*"));
    }

    #[test]
    fn work_item_functions_report_ids() {
        let src = r#"
            __kernel void ids(__global int* gid, __global int* size, int n) {
                int i = get_global_id(0);
                gid[i] = i;
                size[i] = get_global_size(0);
            }
        "#;
        let p = Program::build(src).unwrap();
        let k = p.kernel("ids").unwrap();
        let mut gids = vec![0i32; 4];
        let mut sizes = vec![0i32; 4];
        let mut args = vec![
            ArgBinding::buffer_i32(&mut gids),
            ArgBinding::buffer_i32(&mut sizes),
            ArgBinding::Scalar(Value::Int(4)),
        ];
        p.run_ndrange(&k, 4, &mut args).unwrap();
        assert_eq!(gids, vec![0, 1, 2, 3]);
        assert_eq!(sizes, vec![4, 4, 4, 4]);
    }

    #[test]
    fn ternary_and_compound_assignment() {
        let src = r#"
            __kernel void k(__global float* v, int n) {
                int i = get_global_id(0);
                v[i] *= 2.0f;
                v[i] = v[i] > 4.0f ? 4.0f : v[i];
            }
        "#;
        let mut data = vec![1.0f32, 2.0, 3.0];
        run_map_kernel(src, "k", &mut data);
        assert_eq!(data, vec![2.0, 4.0, 4.0]);
    }

    #[test]
    fn prefix_and_postfix_increment_values() {
        let src = r#"
            __kernel void k(__global float* v, int n) {
                int i = 0;
                v[0] = i++;
                v[1] = i;
                v[2] = ++i;
            }
        "#;
        let mut data = vec![0.0f32; 3];
        run_map_kernel(src, "k", &mut data);
        assert_eq!(data, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn loop_iteration_limit_guards_against_hangs() {
        let src = "__kernel void k(__global float* v, int n) { while (true) { v[0] = 1.0f; } }";
        let p = Program::build(src).unwrap();
        let mut data = vec![0.0f32; 1];
        let mut args = vec![
            ArgBinding::buffer_f32(&mut data),
            ArgBinding::Scalar(Value::Int(1)),
        ];
        let mut interp = Interpreter::new(p.unit());
        interp.max_loop_iterations = 100;
        let err = interp
            .run_kernel(0, WorkItem::linear(0, 1), &mut args)
            .unwrap_err();
        assert!(err.message.contains("iteration limit"));
    }
}
