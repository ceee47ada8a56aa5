//! Register-based bytecode VM executing the work-items of a compiled kernel
//! one at a time: the **scalar** engine (see the crate docs for all three).
//!
//! The native tier replays every batch it aborts here, and runs here the
//! kernels it cannot take (`uint` arithmetic, recursion) and the rest of a
//! launch that bailed. Where the tree-walking interpreter pays a
//! string-keyed hash lookup for every variable access and a shared-cell
//! update for every counted operation, the VM indexes a flat register file
//! and accumulates the compile-time-attributed
//! [`crate::compile::InstrCost`]s into plain per-work-item counters. Its
//! call frames live on the heap; runaway recursion ends at the same call
//! depth (16), with the same error text, as in the interpreter. The
//! interpreter ([`crate::interp`]) is the differential-testing oracle:
//! results, [`ExecStats`] and errors here must equal its own for the same
//! launch.

use crate::ast::BinOp;
use crate::builtins::Builtin;
use crate::compile::{CompiledUnit, Op};
use crate::diag::KernelError;
use crate::interp::{
    eval_binary, stencil_get, ArgBinding, ExecStats, StencilCtx, WorkItem, MAX_CALL_DEPTH,
    NO_STENCIL_CONTEXT,
};
use crate::types::{check_signature, Type};
use crate::value::Value;

/// Fast path for the overwhelmingly common operand pairs (used by this VM and
/// by the native tier's dynamically-typed fallback), bit-identical to
/// [`eval_binary`] (which it falls back to): float arithmetic is computed in
/// `f64` and rounded back exactly like the interpreter, integers fold
/// through `i64` with the same wrapping and zero-division behaviour.
#[inline(always)]
pub(crate) fn vm_eval_binary(op: BinOp, l: Value, r: Value) -> Result<Value, KernelError> {
    use crate::ast::BinOp::*;
    match (l, r) {
        (Value::Float(a), Value::Float(b)) => {
            let (x, y) = (a as f64, b as f64);
            Ok(match op {
                Add => Value::Float((x + y) as f32),
                Sub => Value::Float((x - y) as f32),
                Mul => Value::Float((x * y) as f32),
                Div => Value::Float((x / y) as f32),
                Eq => Value::Bool(x == y),
                Ne => Value::Bool(x != y),
                Lt => Value::Bool(x < y),
                Le => Value::Bool(x <= y),
                Gt => Value::Bool(x > y),
                Ge => Value::Bool(x >= y),
                _ => return eval_binary(op, l, r),
            })
        }
        (Value::Int(a), Value::Int(b)) => {
            let (x, y) = (a as i64, b as i64);
            Ok(match op {
                Add => Value::Int(x.wrapping_add(y) as i32),
                Sub => Value::Int(x.wrapping_sub(y) as i32),
                Mul => Value::Int(x.wrapping_mul(y) as i32),
                Eq => Value::Bool(x == y),
                Ne => Value::Bool(x != y),
                Lt => Value::Bool(x < y),
                Le => Value::Bool(x <= y),
                Gt => Value::Bool(x > y),
                Ge => Value::Bool(x >= y),
                _ => return eval_binary(op, l, r),
            })
        }
        _ => eval_binary(op, l, r),
    }
}

/// Per-work-item plain counters, flushed into [`ExecStats`] after each item.
#[derive(Default)]
struct StatAcc {
    flops: f64,
    bytes: f64,
    ops: f64,
}

/// One saved call frame.
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: usize,
    return_pc: usize,
    base: usize,
    /// Absolute register index receiving the callee's return value.
    dst: usize,
    /// The caller's call depth (0 in the kernel).
    depth: usize,
}

/// The bytecode VM. One instance is reused across all work-items of a
/// launch; [`Vm::bind_kernel`] validates the argument bindings once, then
/// [`Vm::run_item`] executes individual work-items.
pub struct Vm<'u> {
    unit: &'u CompiledUnit,
    regs: Vec<Value>,
    frames: Vec<Frame>,
    /// Per-launch map from interned buffer name to kernel argument slot.
    buffer_slots: Vec<Option<u16>>,
    /// Per-launch stencil context (present when the bound kernel declares
    /// the reserved `skelcl_stencil_*` parameters).
    stencil: Option<StencilCtx>,
    bound_kernel: Option<usize>,
    /// Whether the bound kernel's constant pool has been written into the
    /// register file (done lazily on the first work-item of a launch).
    pool_ready: bool,
    /// Hard cap on loop back-edges per work-item, to turn accidental
    /// infinite loops into errors instead of hangs. Deliberately stricter
    /// than the interpreter's guard, which counts iterations *per loop
    /// statement*: the VM budget is shared by every loop of the work-item,
    /// so a kernel whose loops total more than this many iterations errors
    /// here while the (hours-slower) oracle would keep running.
    pub max_loop_iterations: u64,
    stats: ExecStats,
}

impl<'u> Vm<'u> {
    /// Create a VM for a compiled unit.
    pub fn new(unit: &'u CompiledUnit) -> Self {
        Vm {
            unit,
            regs: Vec::new(),
            frames: Vec::new(),
            buffer_slots: Vec::new(),
            stencil: None,
            bound_kernel: None,
            pool_ready: false,
            max_loop_iterations: 100_000_000,
            stats: ExecStats::default(),
        }
    }

    /// The execution statistics accumulated since construction.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// The stencil context detected by the last [`Vm::bind_kernel`], if any.
    pub(crate) fn stencil(&self) -> Option<StencilCtx> {
        self.stencil
    }

    /// Validate the argument bindings against the kernel signature (the
    /// shared [`check_signature`] rule, hoisted out of the per-work-item
    /// path) and build the buffer-slot table.
    pub fn bind_kernel(
        &mut self,
        kernel_index: usize,
        args: &[ArgBinding<'_>],
    ) -> Result<(), KernelError> {
        let func = &self.unit.functions[kernel_index];
        check_signature::<KernelError>(
            &func.name,
            func.params.iter().map(|p| (p.name.as_str(), p.ty)),
            args.iter().map(ArgBinding::kind),
        )?;
        self.buffer_slots.clear();
        self.buffer_slots.resize(self.unit.buffer_names.len(), None);
        for (i, param) in func.params.iter().enumerate() {
            if param.ty.is_pointer() {
                self.buffer_slots[param.name_id as usize] = Some(i as u16);
            }
        }
        self.stencil = StencilCtx::detect(func.params.iter().map(|p| p.name.as_str()), args)?;
        self.bound_kernel = Some(kernel_index);
        self.pool_ready = false;
        Ok(())
    }

    /// Execute one work-item of the kernel bound with [`Vm::bind_kernel`].
    pub fn run_item(
        &mut self,
        item: WorkItem,
        args: &mut [ArgBinding<'_>],
    ) -> Result<(), KernelError> {
        let kernel_index = self
            .bound_kernel
            .ok_or_else(|| KernelError::run("no kernel bound to the VM"))?;
        let mut acc = StatAcc::default();
        let result = self.exec(kernel_index, item, args, &mut acc);
        // Flush the per-item counters into the launch totals (errors keep
        // the partial work counted, like the interpreter's shared cells).
        self.stats.flops += acc.flops;
        self.stats.global_bytes += acc.bytes;
        self.stats.ops += acc.ops;
        result
    }

    fn exec(
        &mut self,
        kernel_index: usize,
        item: WorkItem,
        args: &mut [ArgBinding<'_>],
        acc: &mut StatAcc,
    ) -> Result<(), KernelError> {
        let unit = self.unit;
        let mut func_idx = kernel_index;
        let mut pc: usize = 0;
        let mut base: usize = 0;
        // Calls active in the interpreter's terms, inlined ones included.
        let mut depth: usize = 0;
        self.frames.clear();
        {
            let func = &unit.functions[func_idx];
            // Registers are not zeroed between work-items: the compiler
            // guarantees every read is dominated by a write (declarations
            // without initialisers emit an explicit zero store).
            if self.regs.len() < func.num_regs as usize {
                self.regs.resize(func.num_regs as usize, Value::Int(0));
            }
            if !self.pool_ready {
                for (reg, value) in &func.const_pool {
                    self.regs[*reg as usize] = *value;
                }
                self.pool_ready = true;
            }
            // Scalar parameters land in registers 0..n, converted to their
            // declared types (buffer parameters go through the slot table).
            for (i, param) in func.params.iter().enumerate() {
                if let (Type::Scalar(want), ArgBinding::Scalar(v)) = (&param.ty, &args[i]) {
                    self.regs[i] = v.convert_to(*want);
                }
            }
        }
        let mut budget = self.max_loop_iterations;

        'frame: loop {
            let func = &unit.functions[func_idx];
            let code = func.code.as_slice();
            let costs = func.costs.as_slice();
            loop {
                let c = costs[pc];
                acc.flops += c.flops as f64;
                acc.bytes += c.bytes as f64;
                acc.ops += c.ops as f64;
                match &code[pc] {
                    Op::Const { dst, value } => self.regs[base + *dst as usize] = *value,
                    Op::Mov { dst, src } => {
                        self.regs[base + *dst as usize] = self.regs[base + *src as usize]
                    }
                    Op::Cast { dst, src, ty } => {
                        self.regs[base + *dst as usize] =
                            self.regs[base + *src as usize].convert_to(*ty)
                    }
                    Op::Bin { op, dst, lhs, rhs } => {
                        let l = self.regs[base + *lhs as usize];
                        let r = self.regs[base + *rhs as usize];
                        self.regs[base + *dst as usize] = vm_eval_binary(*op, l, r)?;
                    }
                    Op::Neg { dst, src } => {
                        let v = self.regs[base + *src as usize];
                        self.regs[base + *dst as usize] = match v {
                            Value::Float(x) => Value::Float(-x),
                            Value::Double(x) => Value::Double(-x),
                            Value::Int(x) => Value::Int(x.wrapping_neg()),
                            Value::Uint(x) => Value::Int(-(x as i64) as i32),
                            Value::Bool(_) => unreachable!("checker rejects bool negation"),
                        };
                    }
                    Op::Not { dst, src } => {
                        let v = self.regs[base + *src as usize];
                        self.regs[base + *dst as usize] = Value::Bool(!v.as_bool());
                    }
                    Op::BufLoad { dst, name, idx } => {
                        let idx = self.regs[base + *idx as usize].as_i64();
                        let v = buffer_access(unit, &self.buffer_slots, args, *name, idx, None)?;
                        self.regs[base + *dst as usize] = v.expect("load returns a value");
                    }
                    Op::BufStore { name, idx, src } => {
                        let idx = self.regs[base + *idx as usize].as_i64();
                        let v = self.regs[base + *src as usize];
                        buffer_access(unit, &self.buffer_slots, args, *name, idx, Some(v))?;
                    }
                    Op::Jump { target } => {
                        let t = *target as usize;
                        if t <= pc {
                            budget = budget
                                .checked_sub(1)
                                .ok_or_else(|| KernelError::run("loop iteration limit exceeded"))?;
                        }
                        pc = t;
                        continue;
                    }
                    Op::JumpIfFalse { cond, target } => {
                        if !self.regs[base + *cond as usize].as_bool() {
                            let t = *target as usize;
                            if t <= pc {
                                budget = budget.checked_sub(1).ok_or_else(|| {
                                    KernelError::run("loop iteration limit exceeded")
                                })?;
                            }
                            pc = t;
                            continue;
                        }
                    }
                    Op::BinJumpIfFalse {
                        op,
                        lhs,
                        rhs,
                        target,
                    } => {
                        let l = self.regs[base + *lhs as usize];
                        let r = self.regs[base + *rhs as usize];
                        if !vm_eval_binary(*op, l, r)?.as_bool() {
                            let t = *target as usize;
                            if t <= pc {
                                budget = budget.checked_sub(1).ok_or_else(|| {
                                    KernelError::run("loop iteration limit exceeded")
                                })?;
                            }
                            pc = t;
                            continue;
                        }
                    }
                    Op::JumpIfTrue { cond, target } => {
                        if self.regs[base + *cond as usize].as_bool() {
                            let t = *target as usize;
                            if t <= pc {
                                budget = budget.checked_sub(1).ok_or_else(|| {
                                    KernelError::run("loop iteration limit exceeded")
                                })?;
                            }
                            pc = t;
                            continue;
                        }
                    }
                    Op::Call {
                        func: callee,
                        dst,
                        args: args_base,
                        nargs,
                        depth: deeper,
                    } => {
                        if depth + *deeper as usize > MAX_CALL_DEPTH {
                            return Err(KernelError::run(format!(
                                "call depth limit ({MAX_CALL_DEPTH}) exceeded"
                            )));
                        }
                        let callee_idx = *callee as usize;
                        let callee_fn = &unit.functions[callee_idx];
                        let new_base = base + func.num_regs as usize;
                        let need = new_base + callee_fn.num_regs as usize;
                        if self.regs.len() < need {
                            self.regs.resize(need, Value::Int(0));
                        }
                        for k in 0..*nargs as usize {
                            let v = self.regs[base + *args_base as usize + k];
                            self.regs[new_base + k] = v.convert_to(callee_fn.params[k].ty.scalar());
                        }
                        for (reg, value) in &callee_fn.const_pool {
                            self.regs[new_base + *reg as usize] = *value;
                        }
                        self.frames.push(Frame {
                            func: func_idx,
                            return_pc: pc + 1,
                            base,
                            dst: base + *dst as usize,
                            depth,
                        });
                        depth += *deeper as usize;
                        func_idx = callee_idx;
                        base = new_base;
                        pc = 0;
                        continue 'frame;
                    }
                    Op::CallBuiltin {
                        builtin,
                        dst,
                        args: args_base,
                        nargs,
                    } => {
                        let lo = base + *args_base as usize;
                        let vals = &self.regs[lo..lo + *nargs as usize];
                        let v = builtin.eval_math(vals);
                        self.regs[base + *dst as usize] = v;
                    }
                    Op::StencilGet {
                        dst,
                        args: args_base,
                    } => {
                        let dx = self.regs[base + *args_base as usize].as_i64();
                        let dy = self.regs[base + *args_base as usize + 1].as_i64();
                        let ctx = self
                            .stencil
                            .ok_or_else(|| KernelError::run(NO_STENCIL_CONTEXT))?;
                        let v = stencil_get(ctx, args, item.global_id, dx, dy)?;
                        self.regs[base + *dst as usize] = v;
                    }
                    Op::WorkItem { dst, builtin } => {
                        let v = match builtin {
                            Builtin::GetGlobalId => item.global_id,
                            Builtin::GetLocalId => item.local_id,
                            Builtin::GetGroupId => item.group_id,
                            Builtin::GetGlobalSize => item.global_size,
                            Builtin::GetLocalSize => item.local_size,
                            Builtin::GetNumGroups => {
                                item.global_size.div_ceil(item.local_size.max(1))
                            }
                            other => unreachable!("{other:?} is not a work-item function"),
                        };
                        self.regs[base + *dst as usize] = Value::Int(v as i32);
                    }
                    Op::Return { src } => {
                        let v =
                            self.regs[base + *src as usize].convert_to(func.return_type.scalar());
                        match self.frames.pop() {
                            None => return Ok(()),
                            Some(frame) => {
                                self.regs[frame.dst] = v;
                                func_idx = frame.func;
                                pc = frame.return_pc;
                                base = frame.base;
                                depth = frame.depth;
                                continue 'frame;
                            }
                        }
                    }
                    Op::ReturnVoid => match self.frames.pop() {
                        None => return Ok(()),
                        Some(frame) => {
                            // A void function call evaluates to int 0, like
                            // the interpreter.
                            self.regs[frame.dst] = Value::Int(0);
                            func_idx = frame.func;
                            pc = frame.return_pc;
                            base = frame.base;
                            depth = frame.depth;
                            continue 'frame;
                        }
                    },
                    Op::MissingReturn { name } => {
                        return Err(KernelError::run(format!(
                            "non-void function `{}` finished without returning a value",
                            unit.buffer_names[*name as usize]
                        )));
                    }
                    Op::OrphanFlow => {
                        return Err(KernelError::run(
                            "break/continue outside of a loop".to_string(),
                        ));
                    }
                    Op::FailUnbound { name } => {
                        return Err(KernelError::run(format!(
                            "variable `{}` is not bound",
                            unit.buffer_names[*name as usize]
                        )));
                    }
                    Op::Nop => {}
                }
                pc += 1;
            }
        }
    }
}

/// Shared buffer load/store path: resolves the interned name against the
/// launch's slot table and performs the access with the interpreter's exact
/// bounds-checking error messages. `store` of `None` loads, `Some(v)` stores.
fn buffer_access(
    unit: &CompiledUnit,
    slots: &[Option<u16>],
    args: &mut [ArgBinding<'_>],
    name: u16,
    idx: i64,
    store: Option<Value>,
) -> Result<Option<Value>, KernelError> {
    let name_str = || unit.buffer_names[name as usize].clone();
    if idx < 0 {
        return Err(KernelError::run(format!(
            "negative index {idx} into buffer `{}`",
            name_str()
        )));
    }
    let slot =
        slots.get(name as usize).copied().flatten().ok_or_else(|| {
            KernelError::run(format!("`{}` is not a buffer parameter", name_str()))
        })?;
    match &mut args[slot as usize] {
        ArgBinding::Buffer(view) => match store {
            None => view.load(idx as usize).map(Some).ok_or_else(|| {
                KernelError::run(format!(
                    "index {idx} out of bounds for buffer `{}` (len {})",
                    name_str(),
                    view.len()
                ))
            }),
            Some(v) => {
                let len = view.len();
                if view.store(idx as usize, v) {
                    Ok(None)
                } else {
                    Err(KernelError::run(format!(
                        "index {idx} out of bounds for buffer `{}` (len {len})",
                        name_str()
                    )))
                }
            }
        },
        ArgBinding::Scalar(_) => Err(KernelError::run(format!(
            "`{}` is bound to a scalar but used as a buffer",
            name_str()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;

    fn run_vm(src: &str, kernel: &str, data: &mut [f32], n: usize) -> ExecStats {
        let p = Program::build(src).unwrap();
        let k = p.kernel(kernel).unwrap();
        let mut args = vec![
            ArgBinding::buffer_f32(data),
            ArgBinding::Scalar(Value::Int(n as i32)),
        ];
        let mut vm = Vm::new(p.compiled());
        vm.bind_kernel(k.index(), &args).unwrap();
        for gid in 0..n {
            vm.run_item(WorkItem::linear(gid, n), &mut args).unwrap();
        }
        vm.stats()
    }

    #[test]
    fn vm_runs_a_simple_map_kernel() {
        let src = r#"
            __kernel void dbl(__global float* v, int n) {
                int i = get_global_id(0);
                if (i < n) { v[i] = v[i] * 2.0f; }
            }
        "#;
        let mut data = vec![1.0f32, 2.0, 3.0, 4.0];
        let stats = run_vm(src, "dbl", &mut data, 4);
        assert_eq!(data, vec![2.0, 4.0, 6.0, 8.0]);
        assert!(stats.flops > 0.0 && stats.global_bytes >= 32.0 && stats.ops > 0.0);
    }

    #[test]
    fn vm_loop_guard_trips_on_infinite_loops() {
        let src = "__kernel void k(__global float* v, int n) { while (true) { v[0] = 1.0f; } }";
        let p = Program::build(src).unwrap();
        let k = p.kernel("k").unwrap();
        let mut data = vec![0.0f32; 1];
        let mut args = vec![
            ArgBinding::buffer_f32(&mut data),
            ArgBinding::Scalar(Value::Int(1)),
        ];
        let mut vm = Vm::new(p.compiled());
        vm.max_loop_iterations = 100;
        vm.bind_kernel(k.index(), &args).unwrap();
        let err = vm.run_item(WorkItem::linear(0, 1), &mut args).unwrap_err();
        assert!(err.message.contains("iteration limit"));
    }

    #[test]
    fn vm_reports_out_of_bounds_like_the_interpreter() {
        let src = "__kernel void k(__global float* v, int n) { v[n + 10] = 1.0f; }";
        let p = Program::build(src).unwrap();
        let k = p.kernel("k").unwrap();
        let mut data = vec![0.0f32; 4];
        let mut args = vec![
            ArgBinding::buffer_f32(&mut data),
            ArgBinding::Scalar(Value::Int(4)),
        ];
        let err = p.run_ndrange_measured_scalar(&k, 1, &mut args).unwrap_err();
        assert!(err.message.contains("out of bounds"));
    }

    #[test]
    fn vm_recursion_guard_reports_depth() {
        // Unbounded recursion must be an error, not a native stack overflow.
        let src = r#"
            float f(float x) { return f(x + 1.0f); }
            __kernel void k(__global float* v, int n) { v[0] = f(0.0f); }
        "#;
        let p = Program::build(src).unwrap();
        let k = p.kernel("k").unwrap();
        let mut data = vec![0.0f32; 1];
        let mut args = vec![
            ArgBinding::buffer_f32(&mut data),
            ArgBinding::Scalar(Value::Int(1)),
        ];
        let err = p.run_ndrange_measured_scalar(&k, 1, &mut args).unwrap_err();
        assert!(err.message.contains("call depth"));
    }
}
