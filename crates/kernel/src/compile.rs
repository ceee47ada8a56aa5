//! Bytecode compiler: lowers a checked [`TranslationUnit`] into flat,
//! register-based bytecode executed by [`crate::vm::Vm`].
//!
//! The tree-walking interpreter ([`crate::interp`]) resolves every variable
//! through string-keyed hash maps and re-walks the AST for every work-item,
//! which makes the kernel language itself the bottleneck of large launches.
//! This module performs all name resolution **once per program build**:
//!
//! * scalar variables and parameters become numbered register slots,
//! * structured control flow (`if`/`for`/`while`/`break`/`continue`) is
//!   lowered to conditional and unconditional jumps,
//! * buffer accesses resolve their parameter at compile time (an interned
//!   buffer-name id looked up in a per-launch slot table, so even the
//!   interpreter's dynamic by-name buffer binding is preserved),
//! * the FLOP / global-memory-byte / statement costs that the interpreter
//!   counts through shared `Cell` counters are attributed to individual
//!   instructions at compile time ([`InstrCost`]); the VM accumulates them
//!   as plain per-work-item counters.
//!
//! The attribution mirrors the interpreter's dynamic counting exactly — the
//! differential property suite asserts that VM and interpreter report
//! identical [`crate::interp::ExecStats`] for the same launch.

use std::collections::HashMap;

use crate::ast::*;
use crate::builtins::Builtin;
use crate::diag::KernelError;
use crate::types::{ScalarType, Type};
use crate::value::Value;

/// A register index within one function's frame.
pub type Reg = u16;

/// Execution cost charged when an instruction executes, attributed at
/// compile time. The unit of account is identical to the interpreter's
/// [`crate::interp::ExecStats`]: `flops` are floating-point operations
/// (builtin calls use [`Builtin::flop_cost`]), `bytes` are global-memory
/// traffic, `ops` are evaluated statements/expressions.
/// All cost constants (builtin flop costs, element sizes, op counts) are
/// small integers or halves, exact in `f32`; the VM widens to `f64` when
/// accumulating, so totals are bit-identical to the interpreter's.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InstrCost {
    /// Floating-point operations.
    pub flops: f32,
    /// Bytes of global-memory traffic.
    pub bytes: f32,
    /// Statement/expression evaluations (integer and control-flow work).
    pub ops: f32,
}

impl InstrCost {
    /// The zero cost.
    pub const ZERO: InstrCost = InstrCost {
        flops: 0.0,
        bytes: 0.0,
        ops: 0.0,
    };

    fn op() -> InstrCost {
        InstrCost {
            ops: 1.0,
            ..InstrCost::ZERO
        }
    }

    fn flop(flops: f64) -> InstrCost {
        let flops = flops as f32;
        InstrCost {
            flops,
            ops: 1.0,
            ..InstrCost::ZERO
        }
    }

    fn mem(bytes: f64) -> InstrCost {
        let bytes = bytes as f32;
        InstrCost {
            bytes,
            ops: 1.0,
            ..InstrCost::ZERO
        }
    }

    fn is_zero(&self) -> bool {
        self.flops == 0.0 && self.bytes == 0.0 && self.ops == 0.0
    }

    fn add(self, other: InstrCost) -> InstrCost {
        InstrCost {
            flops: self.flops + other.flops,
            bytes: self.bytes + other.bytes,
            ops: self.ops + other.ops,
        }
    }
}

/// One bytecode instruction. Register operands are frame-relative.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `dst = value`
    Const { dst: Reg, value: Value },
    /// `dst = src` (verbatim copy, no conversion)
    Mov { dst: Reg, src: Reg },
    /// `dst = convert(src, ty)` (C-style conversion, like the interpreter's
    /// typed variable stores)
    Cast { dst: Reg, src: Reg, ty: ScalarType },
    /// `dst = lhs <op> rhs` with the usual arithmetic conversions
    Bin {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    },
    /// `dst = -src`
    Neg { dst: Reg, src: Reg },
    /// `dst = !src`
    Not { dst: Reg, src: Reg },
    /// `dst = buffer[idx]`; `name` indexes [`CompiledUnit::buffer_names`]
    BufLoad { dst: Reg, name: u16, idx: Reg },
    /// `buffer[idx] = src`
    BufStore { name: u16, idx: Reg, src: Reg },
    /// Unconditional jump (backward jumps count against the loop budget)
    Jump { target: u32 },
    /// Jump when `cond` is false (C truthiness)
    JumpIfFalse { cond: Reg, target: u32 },
    /// Fused binary-compare-and-branch: evaluate `lhs <op> rhs`, jump when
    /// the result is falsy. Carries the binary operation's cost.
    BinJumpIfFalse {
        op: BinOp,
        lhs: Reg,
        rhs: Reg,
        target: u32,
    },
    /// Jump when `cond` is true
    JumpIfTrue { cond: Reg, target: u32 },
    /// Call a user function; `nargs` argument values start at register
    /// `args`; the result lands in `dst`. `depth` is how many calls deeper
    /// than the current frame the callee runs: one, plus the calls inlined
    /// around the call site (the interpreter counts those too).
    Call {
        func: u16,
        dst: Reg,
        args: Reg,
        nargs: u16,
        depth: u16,
    },
    /// Call a math builtin over registers `args .. args+nargs`
    CallBuiltin {
        builtin: Builtin,
        dst: Reg,
        args: Reg,
        nargs: u16,
    },
    /// Query a work-item function (`get_global_id` and friends)
    WorkItem { dst: Reg, builtin: Builtin },
    /// Stencil neighbour access `get(dx, dy)`: `dx` and `dy` live in
    /// registers `args` and `args + 1`; resolved against the launch's
    /// stencil context (see [`crate::builtins::stencil`]). Carries the cost
    /// of one global load plus the address arithmetic.
    StencilGet { dst: Reg, args: Reg },
    /// Return `src` (converted to the function's return type)
    Return { src: Reg },
    /// Return from a `void` function (or finish the kernel)
    ReturnVoid,
    /// Fell off the end of a non-void function body; `name` indexes
    /// [`CompiledUnit::buffer_names`] (the unit-wide name table)
    MissingReturn { name: u16 },
    /// `break`/`continue` outside a loop in a called (non-kernel) function
    OrphanFlow,
    /// Reading a name the interpreter has no binding for (a buffer parameter
    /// used as a bare value)
    FailUnbound { name: u16 },
    /// No operation; exists only to carry an [`InstrCost`]
    Nop,
}

/// Parameter metadata of a compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledParam {
    /// Parameter name (used in launch-time validation errors).
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Index into [`CompiledUnit::buffer_names`] for pointer parameters.
    pub name_id: u16,
}

/// One function lowered to bytecode.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFunction {
    /// Function name.
    pub name: String,
    /// Whether the function is a `__kernel` entry point.
    pub is_kernel: bool,
    /// Declared return type.
    pub return_type: Type,
    /// Parameters in declaration order (parameter `k` occupies register `k`).
    pub params: Vec<CompiledParam>,
    /// Size of the register frame.
    pub num_regs: u16,
    /// Literal values preloaded into fixed registers once per launch (for
    /// kernels) or at call entry (for kernels invoked as functions), so
    /// literals inside loops cost no per-item instruction.
    pub const_pool: Vec<(Reg, Value)>,
    /// The instruction stream.
    pub code: Vec<Op>,
    /// Per-instruction cost, parallel to `code`.
    pub costs: Vec<InstrCost>,
}

impl CompiledFunction {
    /// Basic-block leader pcs in ascending order: instruction 0, every jump
    /// target, and every instruction following a jump or block-ending
    /// terminator. `FailUnbound` aborts unconditionally at runtime and is
    /// not treated as a block ender.
    pub fn block_leaders(&self) -> Vec<usize> {
        let mut leaders = std::collections::BTreeSet::new();
        leaders.insert(0usize);
        for (pc, op) in self.code.iter().enumerate() {
            match op {
                Op::Jump { target }
                | Op::JumpIfFalse { target, .. }
                | Op::JumpIfTrue { target, .. }
                | Op::BinJumpIfFalse { target, .. } => {
                    leaders.insert(*target as usize);
                    if pc + 1 < self.code.len() {
                        leaders.insert(pc + 1);
                    }
                }
                Op::Return { .. } | Op::ReturnVoid | Op::MissingReturn { .. } | Op::OrphanFlow
                    if pc + 1 < self.code.len() =>
                {
                    leaders.insert(pc + 1);
                }
                _ => {}
            }
        }
        leaders.into_iter().collect()
    }
}

/// A whole translation unit lowered to bytecode. Function indices match
/// [`TranslationUnit::functions`], so [`crate::KernelHandle`] indices work
/// unchanged.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledUnit {
    /// Compiled functions in declaration order.
    pub functions: Vec<CompiledFunction>,
    /// Interned buffer (pointer-parameter) names referenced by
    /// [`Op::BufLoad`]/[`Op::BufStore`].
    pub buffer_names: Vec<String>,
}

/// Compile a checked translation unit. The unit must have passed
/// [`crate::sema::check`]; structural errors that sema rejects are reported
/// here as internal errors rather than silently miscompiled.
pub fn compile(unit: &TranslationUnit) -> Result<CompiledUnit, KernelError> {
    // Function and name ids are u16; reject units that would overflow them
    // (ids are handed out sequentially, so a final count within range
    // guarantees no id wrapped during lowering).
    if unit.functions.len() > u16::MAX as usize {
        return Err(KernelError::run(format!(
            "translation unit defines {} functions; at most {} are supported",
            unit.functions.len(),
            u16::MAX
        )));
    }
    let mut names = Interner::default();
    let mut functions = Vec::with_capacity(unit.functions.len());
    let called = called_functions(unit);
    for func in &unit.functions {
        let inlines = func.is_kernel && !called.contains(func.name.as_str());
        functions.push(FnCompiler::lower(unit, func, inlines, &mut names)?);
    }
    if names.names.len() > u16::MAX as usize + 1 {
        return Err(KernelError::run(format!(
            "translation unit uses {} distinct parameter/function names; at most {} are supported",
            names.names.len(),
            u16::MAX as usize + 1
        )));
    }
    Ok(CompiledUnit {
        functions,
        buffer_names: names.names,
    })
}

#[derive(Default)]
struct Interner {
    names: Vec<String>,
    index: HashMap<String, u16>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u16 {
        if let Some(id) = self.index.get(name) {
            return *id;
        }
        let id = self.names.len() as u16;
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }
}

/// A forward-patchable jump label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Label(usize);

struct LoopCtx {
    continue_target: Label,
    break_target: Label,
}

/// An expression result: the register holding the value, and whether that
/// register is a throw-away temporary (`stable`) or may alias a named
/// variable that a later side effect could overwrite.
#[derive(Debug, Clone, Copy)]
struct ExprVal {
    reg: Reg,
    stable: bool,
}

impl ExprVal {
    fn temp(reg: Reg) -> ExprVal {
        ExprVal { reg, stable: true }
    }
}

struct FnCompiler<'u> {
    unit: &'u TranslationUnit,
    func: &'u Function,
    code: Vec<Op>,
    costs: Vec<InstrCost>,
    /// Cost waiting to be attached to the next emitted instruction.
    pending: InstrCost,
    /// Compile-time scope stack: name → (register, declared scalar type).
    scopes: Vec<Vec<(String, Reg, ScalarType)>>,
    /// Pointer parameters of this function: name → interned name id and
    /// pointee type (for static byte-cost attribution).
    buffer_params: HashMap<String, (u16, ScalarType)>,
    next_reg: u32,
    max_reg: u32,
    labels: Vec<Option<u32>>,
    patches: Vec<(usize, Label)>,
    loops: Vec<LoopCtx>,
    func_end: Label,
    /// Bit-exact literal value -> preloaded pool register (kernels only).
    consts: HashMap<(u8, u64), Reg>,
    const_pool: Vec<(Reg, Value)>,
    /// Active function inlining contexts (innermost last).
    inline_ctxs: Vec<InlineCtx>,
    /// Names of functions currently being inlined (recursion guard).
    inline_stack: Vec<String>,
    /// Whether calls may be inlined at all: only into a kernel no call
    /// names, which always runs at call depth 0. Every other function is
    /// entered through [`Op::Call`], so the VM's frames count its calls
    /// exactly as the interpreter does.
    inlines: bool,
}

/// State of one function body being inlined at a call site.
struct InlineCtx {
    /// Register receiving the callee's (converted) return value.
    result: Reg,
    /// Label just past the inlined body (`return` jumps here).
    end: Label,
    /// The callee's declared return type.
    return_type: Type,
    /// `self.loops` height at inline entry: `break`/`continue` may only
    /// target loops opened inside the inlined body (the interpreter treats a
    /// loop-less break in a called function as a runtime error).
    loops_floor: usize,
}

/// Code-size ceiling past which calls are no longer inlined.
const INLINE_CODE_LIMIT: usize = 8192;
/// Maximum inline nesting (mirrors the cost estimator's recursion cutoff).
/// An inlined call can never hit the call-depth limit, which is checked at
/// [`Op::Call`] only.
const INLINE_DEPTH_LIMIT: usize = 8;
const _: () = assert!(INLINE_DEPTH_LIMIT < crate::interp::MAX_CALL_DEPTH);

impl<'u> FnCompiler<'u> {
    fn lower(
        unit: &'u TranslationUnit,
        func: &'u Function,
        inlines: bool,
        names: &mut Interner,
    ) -> Result<CompiledFunction, KernelError> {
        let mut params = Vec::with_capacity(func.params.len());
        let mut buffer_params = HashMap::new();
        for p in &func.params {
            let name_id = names.intern(&p.name);
            if let Type::GlobalPtr(s) = p.ty {
                buffer_params.insert(p.name.clone(), (name_id, s));
            }
            params.push(CompiledParam {
                name: p.name.clone(),
                ty: p.ty,
                name_id,
            });
        }

        let mut c = FnCompiler {
            unit,
            func,
            code: Vec::new(),
            costs: Vec::new(),
            pending: InstrCost::ZERO,
            scopes: vec![Vec::new()],
            buffer_params,
            next_reg: 0,
            max_reg: 0,
            labels: Vec::new(),
            patches: Vec::new(),
            loops: Vec::new(),
            func_end: Label(0),
            consts: HashMap::new(),
            const_pool: Vec::new(),
            inline_ctxs: Vec::new(),
            inline_stack: Vec::new(),
            inlines,
        };
        c.func_end = c.new_label();

        // Parameters occupy registers 0..n; scalar parameters are named
        // variables of their declared scalar type (assignments to them
        // convert, exactly like the interpreter's environment).
        for p in &func.params {
            let reg = c.alloc_reg()?;
            if let Type::Scalar(s) = p.ty {
                c.declare(&p.name, reg, s);
            }
        }

        // Kernels preload every literal of the unit into a read-only
        // register pool, written once per launch instead of once per use per
        // work-item. (The whole unit is scanned because function inlining
        // splices helper bodies -- and their literals -- into the kernel.)
        if func.is_kernel {
            for value in collect_literals(unit) {
                let reg = c.alloc_reg()?;
                c.consts.insert(value_key(value), reg);
                c.const_pool.push((reg, value));
            }
        }

        c.block_stmts(&func.body, names)?;
        c.bind_label(c.func_end);
        if func.return_type.is_void() {
            c.emit(Op::ReturnVoid, InstrCost::ZERO);
        } else {
            let name = names.intern(&func.name);
            c.emit(Op::MissingReturn { name }, InstrCost::ZERO);
        }

        // Patch forward jumps.
        let mut code = c.code;
        for (at, label) in c.patches {
            let target = c.labels[label.0].expect("label bound before patching");
            match &mut code[at] {
                Op::Jump { target: t }
                | Op::JumpIfFalse { target: t, .. }
                | Op::JumpIfTrue { target: t, .. }
                | Op::BinJumpIfFalse { target: t, .. } => *t = target,
                other => unreachable!("patching non-jump instruction {other:?}"),
            }
        }

        Ok(CompiledFunction {
            name: func.name.clone(),
            is_kernel: func.is_kernel,
            return_type: func.return_type,
            params,
            num_regs: c.max_reg as u16,
            const_pool: c.const_pool,
            code,
            costs: c.costs,
        })
    }

    // ---- emission helpers -------------------------------------------------

    fn emit(&mut self, op: Op, cost: InstrCost) {
        let cost = std::mem::take(&mut self.pending).add(cost);
        self.code.push(op);
        self.costs.push(cost);
    }

    /// Emit a `Nop` if cost is still waiting for a carrier instruction.
    fn flush_pending(&mut self) {
        if !self.pending.is_zero() {
            self.emit(Op::Nop, InstrCost::ZERO);
        }
    }

    fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    fn bind_label(&mut self, label: Label) {
        self.flush_pending();
        self.labels[label.0] = Some(self.code.len() as u32);
    }

    fn emit_jump(&mut self, op: Op, label: Label, cost: InstrCost) {
        let at = self.code.len();
        self.emit(op, cost);
        self.patches.push((at, label));
    }

    // ---- registers and scopes --------------------------------------------

    fn alloc_reg(&mut self) -> Result<Reg, KernelError> {
        let reg = self.next_reg;
        self.next_reg += 1;
        self.max_reg = self.max_reg.max(self.next_reg);
        // The frame size (`max_reg`, i.e. highest index + 1) must itself fit
        // in a u16, so the last usable register index is u16::MAX - 1.
        if reg >= u16::MAX as u32 {
            return Err(KernelError::run(format!(
                "function `{}` needs more than {} registers",
                self.func.name,
                u16::MAX as u32 - 1
            )));
        }
        Ok(reg as Reg)
    }

    fn temp(&mut self) -> Result<Reg, KernelError> {
        self.alloc_reg()
    }

    fn declare(&mut self, name: &str, reg: Reg, ty: ScalarType) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .push((name.to_string(), reg, ty));
    }

    fn lookup(&self, name: &str) -> Option<(Reg, ScalarType)> {
        for scope in self.scopes.iter().rev() {
            for (n, reg, ty) in scope.iter().rev() {
                if n == name {
                    return Some((*reg, *ty));
                }
            }
        }
        None
    }

    // ---- statements -------------------------------------------------------

    fn block_stmts(&mut self, block: &Block, names: &mut Interner) -> Result<(), KernelError> {
        self.scopes.push(Vec::new());
        for stmt in &block.stmts {
            self.stmt(stmt, names)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt, names: &mut Interner) -> Result<(), KernelError> {
        // The interpreter counts one op when it begins executing any
        // statement; attach it to the statement's first emitted instruction.
        self.pending.ops += 1.0;
        let mark = self.next_reg;
        match stmt {
            Stmt::Decl { ty, name, init, .. } => {
                let var = self.alloc_reg()?;
                let inner_mark = self.next_reg;
                match init {
                    // When the initialiser's runtime type provably equals
                    // the declared type, the conversion is an identity and
                    // the value can land in the variable directly.
                    Some(e) if self.static_type(e) == Some(*ty) => {
                        self.expr_into(e, var, names)?;
                    }
                    Some(e) => {
                        let v = self.expr(e, names)?;
                        self.emit(
                            Op::Cast {
                                dst: var,
                                src: v.reg,
                                ty: *ty,
                            },
                            InstrCost::ZERO,
                        );
                    }
                    None => self.emit(
                        Op::Const {
                            dst: var,
                            value: Value::zero(*ty),
                        },
                        InstrCost::ZERO,
                    ),
                }
                self.next_reg = inner_mark;
                self.declare(name, var, *ty);
                self.flush_pending();
                return Ok(());
            }
            Stmt::Expr(e) => self.expr_stmt(e, names)?,
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                let end = self.new_label();
                if else_block.stmts.is_empty() {
                    self.branch_if_false(cond, end, names)?;
                    self.block_stmts(then_block, names)?;
                } else {
                    let els = self.new_label();
                    self.branch_if_false(cond, els, names)?;
                    self.block_stmts(then_block, names)?;
                    self.emit_jump(Op::Jump { target: 0 }, end, InstrCost::ZERO);
                    self.bind_label(els);
                    self.block_stmts(else_block, names)?;
                }
                self.bind_label(end);
            }
            Stmt::While { cond, body } => {
                let head = self.new_label();
                let end = self.new_label();
                self.bind_label(head);
                self.branch_if_false(cond, end, names)?;
                self.loops.push(LoopCtx {
                    continue_target: head,
                    break_target: end,
                });
                self.block_stmts(body, names)?;
                self.loops.pop();
                self.emit_jump(Op::Jump { target: 0 }, head, InstrCost::ZERO);
                self.bind_label(end);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                // The for-scope holds the induction variable across
                // iterations (the interpreter pushes one env scope here).
                self.scopes.push(Vec::new());
                if let Some(init) = init {
                    self.stmt(init, names)?;
                }
                let head = self.new_label();
                let step_label = self.new_label();
                let end = self.new_label();
                self.bind_label(head);
                if let Some(c) = cond {
                    self.branch_if_false(c, end, names)?;
                }
                self.loops.push(LoopCtx {
                    continue_target: step_label,
                    break_target: end,
                });
                self.block_stmts(body, names)?;
                self.loops.pop();
                self.bind_label(step_label);
                if let Some(s) = step {
                    // Step expressions are statement-position: their value
                    // is discarded.
                    self.expr_stmt(s, names)?;
                }
                self.emit_jump(Op::Jump { target: 0 }, head, InstrCost::ZERO);
                self.bind_label(end);
                self.scopes.pop();
            }
            Stmt::Return(expr, _) => match self.inline_ctxs.last() {
                Some(ctx) => {
                    // Inlined: convert into the call site's result register
                    // (the interpreter converts on function return) and jump
                    // past the inlined body.
                    let result = ctx.result;
                    let ret_ty = ctx.return_type.scalar();
                    let end = ctx.end;
                    match expr {
                        Some(e) if self.static_type(e) == Some(ret_ty) => {
                            // Identity conversion: land directly in the call
                            // site's result register.
                            self.expr_into(e, result, names)?;
                        }
                        Some(e) => {
                            let v = self.expr(e, names)?;
                            self.emit(
                                Op::Cast {
                                    dst: result,
                                    src: v.reg,
                                    ty: ret_ty,
                                },
                                InstrCost::ZERO,
                            );
                        }
                        // A bare `return` in a void function: the call
                        // expression evaluates to int 0.
                        None => self.emit(
                            Op::Const {
                                dst: result,
                                value: Value::Int(0),
                            },
                            InstrCost::ZERO,
                        ),
                    }
                    self.emit_jump(Op::Jump { target: 0 }, end, InstrCost::ZERO);
                }
                None => match expr {
                    Some(e) => {
                        let v = self.expr(e, names)?;
                        self.emit(Op::Return { src: v.reg }, InstrCost::ZERO);
                    }
                    None => self.emit(Op::ReturnVoid, InstrCost::ZERO),
                },
            },
            Stmt::Break(_) | Stmt::Continue(_) => {
                let is_break = matches!(stmt, Stmt::Break(_));
                let floor = self.inline_ctxs.last().map(|c| c.loops_floor).unwrap_or(0);
                if self.loops.len() > floor {
                    let l = self.loops.last().expect("checked above");
                    let target = if is_break {
                        l.break_target
                    } else {
                        l.continue_target
                    };
                    self.emit_jump(Op::Jump { target: 0 }, target, InstrCost::ZERO);
                } else if self.inline_ctxs.is_empty() && self.func.is_kernel {
                    // Outside any loop: in a kernel body the interpreter's
                    // block unwinding simply stops execution.
                    let end = self.func_end;
                    self.emit_jump(Op::Jump { target: 0 }, end, InstrCost::ZERO);
                } else {
                    // In a called (or inlined) function it is a runtime
                    // error.
                    self.emit(Op::OrphanFlow, InstrCost::ZERO);
                }
            }
            Stmt::Block(b) => self.block_stmts(b, names)?,
        }
        self.flush_pending();
        self.next_reg = mark;
        Ok(())
    }

    // ---- expressions ------------------------------------------------------

    /// Lower an expression; the result register may alias a named variable
    /// (see [`ExprVal::stable`]).
    fn expr(&mut self, expr: &Expr, names: &mut Interner) -> Result<ExprVal, KernelError> {
        self.expr_hint(expr, names, None)
    }

    /// Allocate the result register, honouring a destination hint (used to
    /// lower call arguments and ternary arms directly into their slots
    /// without an extra `Mov`).
    fn result_reg(&mut self, hint: Option<Reg>) -> Result<Reg, KernelError> {
        match hint {
            Some(r) => Ok(r),
            None => self.temp(),
        }
    }

    /// Lower an expression, preferring to place the result in `hint`.
    fn expr_hint(
        &mut self,
        expr: &Expr,
        names: &mut Interner,
        hint: Option<Reg>,
    ) -> Result<ExprVal, KernelError> {
        match expr {
            Expr::IntLit(v, _) => self.literal(Value::Int(*v as i32), hint),
            Expr::FloatLit(v, _) => self.literal(Value::Float(*v as f32), hint),
            Expr::BoolLit(v, _) => self.literal(Value::Bool(*v), hint),
            Expr::Var(name, _) => match self.lookup(name) {
                Some((reg, _)) => Ok(ExprVal { reg, stable: false }),
                None => {
                    // A buffer parameter read as a bare value: the
                    // interpreter reports it unbound at runtime.
                    let id = names.intern(name);
                    self.emit(Op::FailUnbound { name: id }, InstrCost::ZERO);
                    let t = self.temp()?;
                    Ok(ExprVal::temp(t))
                }
            },
            Expr::Index { base, index, .. } => {
                let idx = self.expr(index, names)?;
                let t = self.result_reg(hint)?;
                let (name_id, cost) = self.buffer_ref(base, names);
                self.emit(
                    Op::BufLoad {
                        dst: t,
                        name: name_id,
                        idx: idx.reg,
                    },
                    cost,
                );
                Ok(ExprVal::temp(t))
            }
            Expr::Unary { op, operand, .. } => {
                let v = self.expr(operand, names)?;
                let t = self.result_reg(hint)?;
                let op = match op {
                    UnOp::Neg => Op::Neg { dst: t, src: v.reg },
                    UnOp::Not => Op::Not { dst: t, src: v.reg },
                };
                self.emit(op, InstrCost::flop(1.0));
                Ok(ExprVal::temp(t))
            }
            Expr::Binary { op, lhs, rhs, .. } => self.binary(*op, lhs, rhs, names, hint),
            Expr::Call { callee, args, .. } => self.call(callee, args, names, hint),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                let t = self.result_reg(hint)?;
                let els = self.new_label();
                let end = self.new_label();
                self.branch_if_false(cond, els, names)?;
                self.expr_into(then_expr, t, names)?;
                self.emit_jump(Op::Jump { target: 0 }, end, InstrCost::ZERO);
                self.bind_label(els);
                self.expr_into(else_expr, t, names)?;
                self.bind_label(end);
                Ok(ExprVal::temp(t))
            }
            Expr::Assign {
                op, target, value, ..
            } => self.assign(*op, target, value, names),
            Expr::IncDec {
                target,
                delta,
                prefix,
                ..
            } => self.inc_dec(target, *delta, *prefix, names),
            Expr::Cast { ty, operand, .. } => {
                let v = self.expr(operand, names)?;
                let t = self.result_reg(hint)?;
                self.emit(
                    Op::Cast {
                        dst: t,
                        src: v.reg,
                        ty: *ty,
                    },
                    InstrCost::ZERO,
                );
                Ok(ExprVal::temp(t))
            }
        }
    }

    /// Emit "jump to `label` when `cond` is false", fusing a top-level
    /// binary comparison into a single compare-and-branch instruction.
    fn branch_if_false(
        &mut self,
        cond: &Expr,
        label: Label,
        names: &mut Interner,
    ) -> Result<(), KernelError> {
        if let Expr::Binary { op, lhs, rhs, .. } = cond {
            if *op != BinOp::And && *op != BinOp::Or {
                let l = self.expr(lhs, names)?;
                let l = self.stabilize(l, rhs)?;
                let r = self.expr(rhs, names)?;
                let flops = if op.is_comparison() { 0.5 } else { 1.0 };
                self.emit_jump(
                    Op::BinJumpIfFalse {
                        op: *op,
                        lhs: l.reg,
                        rhs: r.reg,
                        target: 0,
                    },
                    label,
                    InstrCost::flop(flops),
                );
                return Ok(());
            }
        }
        let c = self.expr(cond, names)?;
        self.emit_jump(
            Op::JumpIfFalse {
                cond: c.reg,
                target: 0,
            },
            label,
            InstrCost::ZERO,
        );
        Ok(())
    }

    /// The exact runtime scalar type of an expression, when statically
    /// derivable. `Some(t)` is a guarantee (variable registers always hold
    /// their declared type, buffer loads their validated element type, and
    /// so on), used to elide identity conversions; `None` means unknown.
    fn static_type(&self, e: &Expr) -> Option<ScalarType> {
        match e {
            Expr::IntLit(..) => Some(ScalarType::Int),
            Expr::FloatLit(..) => Some(ScalarType::Float),
            Expr::BoolLit(..) => Some(ScalarType::Bool),
            Expr::Var(name, _) => self.lookup(name).map(|(_, t)| t),
            Expr::Index { base, .. } => self.buffer_params.get(base).map(|(_, t)| *t),
            Expr::Unary { op, operand, .. } => match op {
                UnOp::Not => Some(ScalarType::Bool),
                UnOp::Neg => match self.static_type(operand)? {
                    ScalarType::Float => Some(ScalarType::Float),
                    ScalarType::Double => Some(ScalarType::Double),
                    ScalarType::Int | ScalarType::Uint => Some(ScalarType::Int),
                    ScalarType::Bool => None,
                },
            },
            Expr::Binary { op, lhs, rhs, .. } => {
                if op.is_comparison() {
                    Some(ScalarType::Bool)
                } else {
                    Some(self.static_type(lhs)?.unify(self.static_type(rhs)?))
                }
            }
            Expr::Call { callee, args, .. } => {
                if let Some(b) = Builtin::from_name(callee) {
                    if b.is_work_item_fn() {
                        return Some(ScalarType::Int);
                    }
                    let mut tys = Vec::with_capacity(args.len());
                    for a in args {
                        tys.push(self.static_type(a)?);
                    }
                    return Some(b.result_type(&tys));
                }
                // User calls convert their result to the declared return
                // type; void calls evaluate to int 0.
                let f = self.unit.function(callee)?;
                Some(f.return_type.scalar())
            }
            Expr::Ternary {
                then_expr,
                else_expr,
                ..
            } => {
                let a = self.static_type(then_expr)?;
                let b = self.static_type(else_expr)?;
                if a == b {
                    Some(a)
                } else {
                    None
                }
            }
            Expr::Cast { ty, .. } => Some(*ty),
            Expr::Assign { .. } | Expr::IncDec { .. } => None,
        }
    }

    /// Whether the top-level form of `e` performs exactly one write to its
    /// destination register, as its final action. Such expressions may be
    /// lowered directly into a live variable's register (And/Or and ternary
    /// write their destination early and are excluded).
    fn single_final_write(e: &Expr) -> bool {
        match e {
            Expr::IntLit(..)
            | Expr::FloatLit(..)
            | Expr::BoolLit(..)
            | Expr::Var(..)
            | Expr::Index { .. }
            | Expr::Unary { .. }
            | Expr::Cast { .. }
            | Expr::Call { .. } => true,
            Expr::Binary { op, .. } => *op != BinOp::And && *op != BinOp::Or,
            Expr::Ternary { .. } | Expr::Assign { .. } | Expr::IncDec { .. } => false,
        }
    }

    /// Materialise a literal: from the constant pool when available (free),
    /// otherwise as an explicit `Const` store.
    fn literal(&mut self, value: Value, hint: Option<Reg>) -> Result<ExprVal, KernelError> {
        if hint.is_none() {
            if let Some(reg) = self.consts.get(&value_key(value)) {
                return Ok(ExprVal::temp(*reg));
            }
        }
        let t = self.result_reg(hint)?;
        self.emit(Op::Const { dst: t, value }, InstrCost::ZERO);
        Ok(ExprVal::temp(t))
    }

    /// Lower an expression and make sure the value ends up in `dst`.
    fn expr_into(
        &mut self,
        expr: &Expr,
        dst: Reg,
        names: &mut Interner,
    ) -> Result<(), KernelError> {
        let v = self.expr_hint(expr, names, Some(dst))?;
        if v.reg != dst {
            self.emit(Op::Mov { dst, src: v.reg }, InstrCost::ZERO);
        }
        Ok(())
    }

    /// Copy `v` to a temporary if a later-evaluated expression could change
    /// the register it aliases (interpreter semantics snapshot operand
    /// values at evaluation time).
    fn stabilize(&mut self, v: ExprVal, later: &Expr) -> Result<ExprVal, KernelError> {
        if v.stable || !has_side_effects(later) {
            return Ok(v);
        }
        let t = self.temp()?;
        self.emit(Op::Mov { dst: t, src: v.reg }, InstrCost::ZERO);
        Ok(ExprVal::temp(t))
    }

    fn binary(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        names: &mut Interner,
        hint: Option<Reg>,
    ) -> Result<ExprVal, KernelError> {
        if op == BinOp::And || op == BinOp::Or {
            // Short-circuit lowering. The interpreter counts one op after
            // evaluating the left-hand side, whether or not it short
            // circuits; the bool cast of the lhs carries it.
            let l = self.expr(lhs, names)?;
            let t = self.result_reg(hint)?;
            self.emit(
                Op::Cast {
                    dst: t,
                    src: l.reg,
                    ty: ScalarType::Bool,
                },
                InstrCost::op(),
            );
            let end = self.new_label();
            let jump = if op == BinOp::And {
                Op::JumpIfFalse { cond: t, target: 0 }
            } else {
                Op::JumpIfTrue { cond: t, target: 0 }
            };
            self.emit_jump(jump, end, InstrCost::ZERO);
            let r = self.expr(rhs, names)?;
            self.emit(
                Op::Cast {
                    dst: t,
                    src: r.reg,
                    ty: ScalarType::Bool,
                },
                InstrCost::ZERO,
            );
            self.bind_label(end);
            return Ok(ExprVal::temp(t));
        }
        let l = self.expr(lhs, names)?;
        let l = self.stabilize(l, rhs)?;
        let r = self.expr(rhs, names)?;
        let t = self.result_reg(hint)?;
        let flops = if op.is_comparison() { 0.5 } else { 1.0 };
        self.emit(
            Op::Bin {
                op,
                dst: t,
                lhs: l.reg,
                rhs: r.reg,
            },
            InstrCost::flop(flops),
        );
        Ok(ExprVal::temp(t))
    }

    fn call(
        &mut self,
        callee: &str,
        args: &[Expr],
        names: &mut Interner,
        hint: Option<Reg>,
    ) -> Result<ExprVal, KernelError> {
        // Work-item queries whose arguments are plain literals (the
        // universal `get_global_id(0)` pattern) need no argument lowering at
        // all: the values are unused and literals are cost free.
        if let Some(b) = Builtin::from_name(callee) {
            let all_literal = args
                .iter()
                .all(|a| matches!(a, Expr::IntLit(..) | Expr::FloatLit(..) | Expr::BoolLit(..)));
            if b.is_work_item_fn() && all_literal {
                let t = self.result_reg(hint)?;
                self.emit(Op::WorkItem { dst: t, builtin: b }, InstrCost::op());
                return Ok(ExprVal::temp(t));
            }
        }
        // Inlined user calls skip the argument block entirely: arguments are
        // evaluated (left to right) straight into the parameter registers.
        if Builtin::from_name(callee).is_none() {
            if let Some(func) = self.unit.function_index(callee) {
                let callee_fn = &self.unit.functions[func];
                if self.should_inline(callee_fn) && callee_fn.params.len() == args.len() {
                    let t = self.result_reg(hint)?;
                    self.inline_call(callee_fn, args, t, names)?;
                    return Ok(ExprVal::temp(t));
                }
            }
        }
        // Arguments are evaluated left to right into a contiguous block.
        let base = self.next_reg as Reg;
        for _ in 0..args.len() {
            self.alloc_reg()?;
        }
        for (k, a) in args.iter().enumerate() {
            self.expr_into(a, base + k as Reg, names)?;
        }
        let t = self.result_reg(hint)?;
        if let Some(b) = Builtin::from_name(callee) {
            if b.is_work_item_fn() {
                self.emit(Op::WorkItem { dst: t, builtin: b }, InstrCost::op());
            } else if b.is_stencil_fn() {
                // Mirrors the interpreter's dynamic charge exactly: one flop
                // count for the address arithmetic, one byte count for the
                // element load — two counted operations.
                self.emit(
                    Op::StencilGet { dst: t, args: base },
                    InstrCost {
                        flops: b.flop_cost() as f32,
                        bytes: ScalarType::Float.size_bytes() as f32,
                        ops: 2.0,
                    },
                );
            } else {
                self.emit(
                    Op::CallBuiltin {
                        builtin: b,
                        dst: t,
                        args: base,
                        nargs: args.len() as u16,
                    },
                    InstrCost::flop(b.flop_cost()),
                );
            }
            return Ok(ExprVal::temp(t));
        }
        let func = self
            .unit
            .function_index(callee)
            .ok_or_else(|| KernelError::run(format!("unknown function `{callee}`")))?;
        self.emit(
            Op::Call {
                func: func as u16,
                dst: t,
                args: base,
                nargs: args.len() as u16,
                depth: self.inline_stack.len() as u16 + 1,
            },
            InstrCost::ZERO,
        );
        Ok(ExprVal::temp(t))
    }

    /// Inline non-recursive calls while the emitted code stays small; deep
    /// or recursive call chains fall back to real VM frames.
    fn should_inline(&self, callee: &Function) -> bool {
        self.inlines
            && self.inline_stack.len() < INLINE_DEPTH_LIMIT
            && self.code.len() < INLINE_CODE_LIMIT
            && !self.inline_stack.iter().any(|n| n == &callee.name)
            && self.func.name != callee.name
    }

    /// Splice the callee's body into the current instruction stream.
    /// Arguments are evaluated left to right directly into fresh parameter
    /// registers (converted exactly like the interpreter's call binding,
    /// with identity conversions elided), and `return` becomes a converted
    /// store plus a jump past the body.
    fn inline_call(
        &mut self,
        callee: &'u Function,
        args: &[Expr],
        result: Reg,
        names: &mut Interner,
    ) -> Result<(), KernelError> {
        let end = self.new_label();
        let mut param_regs = Vec::with_capacity(callee.params.len());
        for _ in &callee.params {
            param_regs.push(self.alloc_reg()?);
        }
        for (k, (a, p)) in args.iter().zip(&callee.params).enumerate() {
            let want = p.ty.scalar();
            if self.static_type(a) == Some(want) {
                self.expr_into(a, param_regs[k], names)?;
            } else {
                let v = self.expr(a, names)?;
                self.emit(
                    Op::Cast {
                        dst: param_regs[k],
                        src: v.reg,
                        ty: want,
                    },
                    InstrCost::ZERO,
                );
            }
        }
        // Parameters become named registers in a fresh scope; the callee's
        // body was checked in isolation, so it can only reference them (the
        // scope is pushed after argument evaluation: arguments resolve names
        // in the caller's scope).
        self.scopes.push(Vec::new());
        for (p, reg) in callee.params.iter().zip(&param_regs) {
            if !p.ty.is_pointer() {
                self.declare(&p.name, *reg, p.ty.scalar());
            }
        }
        self.inline_ctxs.push(InlineCtx {
            result,
            end,
            return_type: callee.return_type,
            loops_floor: self.loops.len(),
        });
        self.inline_stack.push(callee.name.clone());
        let outer_fn = std::mem::replace(&mut self.func, callee);
        let body_result = self.block_stmts(&callee.body, names);
        self.func = outer_fn;
        self.inline_stack.pop();
        self.inline_ctxs.pop();
        self.scopes.pop();
        body_result?;
        // Fell off the end of the body: void functions evaluate to int 0,
        // non-void ones are a runtime error (same as the interpreter).
        if callee.return_type.is_void() {
            self.emit(
                Op::Const {
                    dst: result,
                    value: Value::Int(0),
                },
                InstrCost::ZERO,
            );
        } else {
            let name = names.intern(&callee.name);
            self.emit(Op::MissingReturn { name }, InstrCost::ZERO);
        }
        self.bind_label(end);
        Ok(())
    }

    fn assign(
        &mut self,
        op: AssignOp,
        target: &LValue,
        value: &Expr,
        names: &mut Interner,
    ) -> Result<ExprVal, KernelError> {
        let bin = match op {
            AssignOp::Assign => None,
            AssignOp::AddAssign => Some(BinOp::Add),
            AssignOp::SubAssign => Some(BinOp::Sub),
            AssignOp::MulAssign => Some(BinOp::Mul),
            AssignOp::DivAssign => Some(BinOp::Div),
        };
        let v = self.expr(value, names)?;
        match target {
            LValue::Var(name, _) => {
                let (var, ty) = self
                    .lookup(name)
                    .ok_or_else(|| KernelError::run(format!("variable `{name}` is not bound")))?;
                match bin {
                    None => {
                        self.emit(
                            Op::Cast {
                                dst: var,
                                src: v.reg,
                                ty,
                            },
                            InstrCost::ZERO,
                        );
                        // The expression's value is the *unconverted*
                        // right-hand side, exactly like the interpreter.
                        Ok(v)
                    }
                    Some(bop) => {
                        // Compound assignment: the interpreter folds via
                        // eval_binary without charging a flop.
                        let t = self.temp()?;
                        self.emit(
                            Op::Bin {
                                op: bop,
                                dst: t,
                                lhs: var,
                                rhs: v.reg,
                            },
                            InstrCost::ZERO,
                        );
                        self.emit(
                            Op::Cast {
                                dst: var,
                                src: t,
                                ty,
                            },
                            InstrCost::ZERO,
                        );
                        Ok(ExprVal::temp(t))
                    }
                }
            }
            LValue::Index { base, index, .. } => {
                let v = self.stabilize(v, index)?;
                let (name_id, cost) = self.buffer_ref(base, names);
                match bin {
                    None => {
                        let idx = self.expr(index, names)?;
                        self.emit(
                            Op::BufStore {
                                name: name_id,
                                idx: idx.reg,
                                src: v.reg,
                            },
                            cost,
                        );
                        Ok(v)
                    }
                    Some(bop) => {
                        // The interpreter evaluates the index twice for a
                        // compound buffer assignment (read, then write);
                        // mirror that, side effects included.
                        let i1 = self.expr(index, names)?;
                        let old = self.temp()?;
                        self.emit(
                            Op::BufLoad {
                                dst: old,
                                name: name_id,
                                idx: i1.reg,
                            },
                            cost,
                        );
                        let t = self.temp()?;
                        self.emit(
                            Op::Bin {
                                op: bop,
                                dst: t,
                                lhs: old,
                                rhs: v.reg,
                            },
                            InstrCost::ZERO,
                        );
                        let i2 = self.expr(index, names)?;
                        self.emit(
                            Op::BufStore {
                                name: name_id,
                                idx: i2.reg,
                                src: t,
                            },
                            cost,
                        );
                        Ok(ExprVal::temp(t))
                    }
                }
            }
        }
    }

    fn inc_dec(
        &mut self,
        target: &LValue,
        delta: i32,
        prefix: bool,
        names: &mut Interner,
    ) -> Result<ExprVal, KernelError> {
        match target {
            LValue::Var(name, _) => {
                let (var, ty) = self
                    .lookup(name)
                    .ok_or_else(|| KernelError::run(format!("variable `{name}` is not bound")))?;
                let old = self.temp()?;
                self.emit(Op::Mov { dst: old, src: var }, InstrCost::ZERO);
                let one = self.literal(Value::Int(delta), None)?.reg;
                let new = self.temp()?;
                self.emit(
                    Op::Bin {
                        op: BinOp::Add,
                        dst: new,
                        lhs: old,
                        rhs: one,
                    },
                    InstrCost::flop(1.0),
                );
                self.emit(
                    Op::Cast {
                        dst: var,
                        src: new,
                        ty,
                    },
                    InstrCost::ZERO,
                );
                Ok(ExprVal::temp(if prefix { new } else { old }))
            }
            LValue::Index { base, index, .. } => {
                let (name_id, cost) = self.buffer_ref(base, names);
                let i1 = self.expr(index, names)?;
                let old = self.temp()?;
                self.emit(
                    Op::BufLoad {
                        dst: old,
                        name: name_id,
                        idx: i1.reg,
                    },
                    cost,
                );
                let one = self.literal(Value::Int(delta), None)?.reg;
                let new = self.temp()?;
                self.emit(
                    Op::Bin {
                        op: BinOp::Add,
                        dst: new,
                        lhs: old,
                        rhs: one,
                    },
                    InstrCost::flop(1.0),
                );
                let i2 = self.expr(index, names)?;
                self.emit(
                    Op::BufStore {
                        name: name_id,
                        idx: i2.reg,
                        src: new,
                    },
                    cost,
                );
                Ok(ExprVal::temp(if prefix { new } else { old }))
            }
        }
    }

    /// An expression in statement position: its value is discarded, which
    /// unlocks in-place forms for assignments and increments.
    fn expr_stmt(&mut self, e: &Expr, names: &mut Interner) -> Result<(), KernelError> {
        match e {
            // `i++;`: the pre/post value is unused, so skip the old-value
            // snapshot the expression form needs.
            Expr::IncDec { target, delta, .. } => {
                self.inc_dec_stmt(target, *delta, names)?;
            }
            Expr::Assign {
                op,
                target: LValue::Var(name, _),
                value,
                ..
            } if self.lookup(name).is_some() => {
                let (var, ty) = self.lookup(name).expect("checked above");
                match op {
                    // `x = e;` with a provably identity conversion: lower
                    // straight into the variable's register.
                    AssignOp::Assign
                        if self.static_type(value) == Some(ty)
                            && Self::single_final_write(value) =>
                    {
                        self.expr_into(value, var, names)?;
                    }
                    // `x op= e;` whose fold result already has x's type:
                    // one in-place binary instruction.
                    AssignOp::AddAssign
                    | AssignOp::SubAssign
                    | AssignOp::MulAssign
                    | AssignOp::DivAssign
                        if self
                            .static_type(value)
                            .map(|t| ty.unify(t) == ty)
                            .unwrap_or(false) =>
                    {
                        let bop = match op {
                            AssignOp::AddAssign => BinOp::Add,
                            AssignOp::SubAssign => BinOp::Sub,
                            AssignOp::MulAssign => BinOp::Mul,
                            AssignOp::DivAssign => BinOp::Div,
                            AssignOp::Assign => unreachable!(),
                        };
                        let v = self.expr(value, names)?;
                        // The interpreter charges no flop for the compound
                        // fold, only the statement op (already pending).
                        self.emit(
                            Op::Bin {
                                op: bop,
                                dst: var,
                                lhs: var,
                                rhs: v.reg,
                            },
                            InstrCost::ZERO,
                        );
                    }
                    _ => {
                        self.expr(e, names)?;
                    }
                }
            }
            _ => {
                self.expr(e, names)?;
            }
        }
        Ok(())
    }

    /// Statement-position increment/decrement: no result value is needed.
    fn inc_dec_stmt(
        &mut self,
        target: &LValue,
        delta: i32,
        names: &mut Interner,
    ) -> Result<(), KernelError> {
        if let LValue::Var(name, _) = target {
            if let Some((var, ty)) = self.lookup(name) {
                let one = self.literal(Value::Int(delta), None)?.reg;
                if ty.unify(ScalarType::Int) == ty {
                    // The folded value already has the variable's type:
                    // increment in place.
                    self.emit(
                        Op::Bin {
                            op: BinOp::Add,
                            dst: var,
                            lhs: var,
                            rhs: one,
                        },
                        InstrCost::flop(1.0),
                    );
                    return Ok(());
                }
                let new = self.temp()?;
                self.emit(
                    Op::Bin {
                        op: BinOp::Add,
                        dst: new,
                        lhs: var,
                        rhs: one,
                    },
                    InstrCost::flop(1.0),
                );
                self.emit(
                    Op::Cast {
                        dst: var,
                        src: new,
                        ty,
                    },
                    InstrCost::ZERO,
                );
                return Ok(());
            }
        }
        // Buffer targets (or unbound names) keep the full expression form.
        self.inc_dec(target, delta, true, names)?;
        Ok(())
    }

    /// Interned name id and per-access cost of a buffer reference. The byte
    /// cost uses the pointee type declared on this function's parameter; the
    /// launch validates that the bound buffer matches it.
    fn buffer_ref(&mut self, base: &str, names: &mut Interner) -> (u16, InstrCost) {
        match self.buffer_params.get(base) {
            Some((id, s)) => (*id, InstrCost::mem(s.size_bytes() as f64)),
            // Not a pointer parameter of this function: resolved dynamically
            // at runtime against the launched kernel's slot table (matching
            // the interpreter's by-name buffer binding); charge the model's
            // 4-byte default.
            None => (names.intern(base), InstrCost::mem(4.0)),
        }
    }
}

/// Bit-exact hash key for pooling literal values.
fn value_key(v: Value) -> (u8, u64) {
    match v {
        Value::Float(x) => (0, x.to_bits() as u64),
        Value::Double(x) => (1, x.to_bits()),
        Value::Int(x) => (2, x as u32 as u64),
        Value::Uint(x) => (3, x as u64),
        Value::Bool(x) => (4, x as u64),
    }
}

/// Every literal value appearing in the unit (in discovery order): literal
/// expressions plus the implicit `+-1` of increment/decrement operators.
fn collect_literals(unit: &TranslationUnit) -> Vec<Value> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    visit_exprs(unit, &mut |e| {
        let v = match e {
            Expr::IntLit(v, _) => Value::Int(*v as i32),
            Expr::FloatLit(v, _) => Value::Float(*v as f32),
            Expr::BoolLit(v, _) => Value::Bool(*v),
            Expr::IncDec { delta, .. } => Value::Int(*delta),
            _ => return,
        };
        if seen.insert(value_key(v)) {
            out.push(v);
        }
    });
    out
}

/// Names of the functions some call in the unit names.
fn called_functions(unit: &TranslationUnit) -> std::collections::HashSet<&str> {
    let mut called = std::collections::HashSet::new();
    visit_exprs(unit, &mut |e| {
        if let Expr::Call { callee, .. } = e {
            called.insert(callee.as_str());
        }
    });
    called
}

/// Call `f` on every expression of the unit, in source order, each after
/// its operands.
fn visit_exprs<'a>(unit: &'a TranslationUnit, f: &mut dyn FnMut(&'a Expr)) {
    fn walk_expr<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
        match e {
            Expr::IntLit(..) | Expr::FloatLit(..) | Expr::BoolLit(..) | Expr::Var(..) => {}
            Expr::Index { index, .. } => walk_expr(index, f),
            Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => walk_expr(operand, f),
            Expr::Binary { lhs, rhs, .. } => {
                walk_expr(lhs, f);
                walk_expr(rhs, f);
            }
            Expr::Call { args, .. } => args.iter().for_each(|a| walk_expr(a, f)),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                walk_expr(cond, f);
                walk_expr(then_expr, f);
                walk_expr(else_expr, f);
            }
            Expr::Assign { target, value, .. } => {
                if let LValue::Index { index, .. } = target {
                    walk_expr(index, f);
                }
                walk_expr(value, f);
            }
            Expr::IncDec { target, .. } => {
                if let LValue::Index { index, .. } = target {
                    walk_expr(index, f);
                }
            }
        }
        f(e);
    }
    fn walk_block<'a>(b: &'a Block, f: &mut dyn FnMut(&'a Expr)) {
        b.stmts.iter().for_each(|s| walk_stmt(s, f));
    }
    fn walk_stmt<'a>(s: &'a Stmt, f: &mut dyn FnMut(&'a Expr)) {
        match s {
            Stmt::Decl { init, .. } => {
                if let Some(e) = init {
                    walk_expr(e, f)
                }
            }
            Stmt::Expr(e) => walk_expr(e, f),
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                walk_expr(cond, f);
                walk_block(then_block, f);
                walk_block(else_block, f);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    walk_stmt(i, f)
                }
                if let Some(c) = cond {
                    walk_expr(c, f)
                }
                if let Some(st) = step {
                    walk_expr(st, f)
                }
                walk_block(body, f);
            }
            Stmt::While { cond, body } => {
                walk_expr(cond, f);
                walk_block(body, f);
            }
            Stmt::Return(Some(e), _) => walk_expr(e, f),
            Stmt::Return(None, _) | Stmt::Break(_) | Stmt::Continue(_) => {}
            Stmt::Block(b) => walk_block(b, f),
        }
    }
    for func in &unit.functions {
        walk_block(&func.body, f);
    }
}

/// Whether evaluating `e` can write to a named variable or a buffer (used to
/// decide when operand snapshots are needed). Calls are treated as impure to
/// stay conservative.
fn has_side_effects(e: &Expr) -> bool {
    match e {
        Expr::IntLit(..) | Expr::FloatLit(..) | Expr::BoolLit(..) | Expr::Var(..) => false,
        Expr::Assign { .. } | Expr::IncDec { .. } | Expr::Call { .. } => true,
        Expr::Index { index, .. } => has_side_effects(index),
        Expr::Unary { operand, .. } => has_side_effects(operand),
        Expr::Binary { lhs, rhs, .. } => has_side_effects(lhs) || has_side_effects(rhs),
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => has_side_effects(cond) || has_side_effects(then_expr) || has_side_effects(else_expr),
        Expr::Cast { operand, .. } => has_side_effects(operand),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::sema::check;

    fn compile_src(src: &str) -> CompiledUnit {
        let unit = check(parse(&lex(src).unwrap(), src).unwrap()).unwrap();
        compile(&unit).unwrap()
    }

    #[test]
    fn simple_kernel_compiles_to_flat_code() {
        let cu = compile_src(
            r#"
            __kernel void k(__global float* v, int n) {
                int i = get_global_id(0);
                if (i < n) { v[i] = v[i] * 2.0f; }
            }
        "#,
        );
        assert_eq!(cu.functions.len(), 1);
        let f = &cu.functions[0];
        assert!(f.is_kernel);
        assert_eq!(f.code.len(), f.costs.len());
        assert!(f.code.iter().any(|op| matches!(op, Op::BufLoad { .. })));
        assert!(f.code.iter().any(|op| matches!(op, Op::BufStore { .. })));
        assert!(f
            .code
            .iter()
            .any(|op| matches!(op, Op::BinJumpIfFalse { .. })));
        assert!(matches!(f.code.last(), Some(Op::ReturnVoid)));
        assert_eq!(cu.buffer_names, vec!["v".to_string(), "n".to_string()]);
    }

    #[test]
    fn loops_lower_to_backward_jumps() {
        let cu = compile_src(
            r#"
            __kernel void k(__global float* v, int n) {
                for (int i = 0; i < n; i++) { v[i] = 0.0f; }
            }
        "#,
        );
        let f = &cu.functions[0];
        let backward = f.code.iter().enumerate().any(|(pc, op)| match op {
            Op::Jump { target } => (*target as usize) <= pc,
            _ => false,
        });
        assert!(backward, "for loop must produce a backward jump");
    }

    #[test]
    fn buffer_access_costs_use_the_declared_element_size() {
        let cu = compile_src("__kernel void k(__global double* v, int n) { v[0] = v[1]; }");
        let f = &cu.functions[0];
        let mem_costs: Vec<f64> = f
            .code
            .iter()
            .zip(&f.costs)
            .filter(|(op, _)| matches!(op, Op::BufLoad { .. } | Op::BufStore { .. }))
            .map(|(_, c)| c.bytes as f64)
            .collect();
        assert_eq!(mem_costs, vec![8.0, 8.0]);
    }

    #[test]
    fn small_helper_calls_are_inlined() {
        let cu = compile_src(
            r#"
            float square(float x) { return x * x; }
            __kernel void k(__global float* v, int n) { v[0] = square(v[0]); }
        "#,
        );
        let k = &cu.functions[1];
        // The helper body is spliced into the kernel: no call instruction,
        // but the helper's multiply shows up in the kernel's stream.
        assert!(!k.code.iter().any(|op| matches!(op, Op::Call { .. })));
        assert!(k
            .code
            .iter()
            .any(|op| matches!(op, Op::Bin { op: BinOp::Mul, .. })));
        // The non-void helper still ends in a missing-return guard (it is
        // compiled standalone too).
        assert!(matches!(
            cu.functions[0].code.last(),
            Some(Op::MissingReturn { .. })
        ));
    }

    #[test]
    fn recursive_calls_keep_real_frames() {
        let cu = compile_src(
            r#"
            float f(float x) { return x < 1.0f ? x : f(x - 1.0f); }
            __kernel void k(__global float* v, int n) { v[0] = f(v[0]); }
        "#,
        );
        // The recursive self-call inside `f` must stay a VM call.
        assert!(cu.functions[0]
            .code
            .iter()
            .any(|op| matches!(op, Op::Call { func: 0, .. })));
    }

    #[test]
    fn statement_ops_are_attributed_to_instructions() {
        let cu = compile_src("__kernel void k(__global float* v, int n) { v[0] = 1.0f; }");
        let f = &cu.functions[0];
        let total_ops: f64 = f.costs.iter().map(|c| c.ops as f64).sum();
        // One statement + one buffer store at minimum.
        assert!(total_ops >= 2.0, "ops = {total_ops}");
    }
}
