//! Register-based bytecode VM executing work-items of a compiled kernel.
//!
//! Two of the four engines live here (see the crate docs for all of them).
//! The **scalar** VM ([`Vm::run_item`]) is what the native tier replays an
//! aborted batch on: where the tree-walking interpreter pays a string-keyed
//! hash lookup for every variable access and a shared-cell update for every
//! counted operation, it indexes a flat register file and accumulates the
//! compile-time-attributed [`crate::compile::InstrCost`]s into plain
//! per-work-item counters. The **lane-batched** VM ([`Vm::run_batch`], below)
//! is the fallback for kernels the native tier cannot take. The interpreter
//! ([`crate::interp`]) is the differential-testing oracle; every engine must
//! produce identical results *and* identical [`ExecStats`] for the same
//! launch.
//!
//! # Lane-batched execution
//!
//! [`Vm::run_batch`] executes a *batch* of work-items through the bytecode at
//! once: the register file becomes structure-of-arrays (`lanes` values per
//! register slot), each instruction is decoded once and applied in a tight
//! loop over the active lanes, and the per-instruction cost is accumulated as
//! `cost × active_lanes` per batch instead of three additions per lane. This
//! removes the dominant per-work-item dispatch overhead of the scalar loop.
//!
//! Batched execution is *semantically invisible*: results, [`ExecStats`] and
//! errors are bit-identical to running the items one at a time (which is what
//! the interpreter oracle does). Three mechanisms guarantee that:
//!
//! * **Uniform control flow.** Lanes execute in lockstep while every active
//!   lane agrees on each branch (the overwhelmingly common case — skeleton
//!   kernels diverge only at the `if (gid < n)` tail guard).
//! * **Lane mask for early exits.** A divergent branch whose taken side is a
//!   trivial jump-chain to a return retires the exiting lanes: they are
//!   charged the chain's instruction costs exactly as the scalar engine
//!   would, then masked out; the remaining lanes continue batched.
//! * **Rollback + scalar replay.** Anything else — genuinely divergent
//!   control flow, a runtime error in any lane, or a cross-lane buffer
//!   hazard (detected with an own-address discipline and an undo log of
//!   stores) — aborts the batch, restores every buffer store, and re-runs
//!   the whole batch through the sequential scalar path, which is the
//!   authoritative semantics. After a non-error abort the VM stops batching
//!   for the rest of the launch, so pathological kernels pay the wasted work
//!   at most once.
//!
//! All per-instruction cost constants are dyadic rationals far below 2⁵³, so
//! the per-batch `cost × lanes` accumulation is exactly equal to the
//! per-item, per-instruction summation of the oracle — no floating-point
//! reordering error. `vm_differential.rs` asserts this equivalence, and debug
//! builds additionally cross-check each batch against the scalar engine's
//! accumulation identity (see [`Vm::run_batch`]).

use crate::ast::BinOp;
use crate::builtins::Builtin;
use crate::compile::{CompiledUnit, Op};
use crate::diag::KernelError;
use crate::interp::{
    eval_binary, stencil_get, ArgBinding, ExecStats, StencilCtx, WorkItem, NO_STENCIL_CONTEXT,
};
use crate::types::{check_signature, Type};
use crate::value::Value;

/// Number of work-items executed per lockstep batch by
/// [`crate::Program::run_ndrange_measured`]. Sized so a typical kernel's SoA
/// register file stays within L1 (regs × lanes × 16 B).
pub const BATCH_LANES: usize = 64;

/// Fast path for the overwhelmingly common operand pairs, bit-identical to
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
    /// Hard cap on call depth, turning runaway recursion into an error
    /// instead of memory exhaustion.
    pub max_call_depth: usize,
    stats: ExecStats,
    // --- lane-batched execution state (see the module docs) ---
    /// SoA register file of the batched path: `lanes` values per register
    /// slot, laid out `(base + reg) * lanes + lane`.
    bregs: Vec<Value>,
    /// Lanes still executing (indices into the batch's work-item slice).
    active: Vec<u32>,
    /// Scratch per-active-lane branch outcomes.
    lane_bools: Vec<bool>,
    /// Undo log of buffer stores `(arg slot, index, previous value)` so an
    /// aborted batch can restore every mutation before the scalar replay.
    undo: Vec<(u16, usize, Value)>,
    /// Per-argument-slot hazard flags: whether the batch stored to the slot.
    slot_stored: Vec<bool>,
    /// Per-argument-slot hazard flags: whether any lane loaded an address it
    /// does not own (address ≠ its global id).
    slot_foreign_load: Vec<bool>,
    /// Set after a batch aborted for a non-error reason (divergence or a
    /// cross-lane hazard): the rest of the launch runs scalar.
    batch_disabled: bool,
    /// Lane count the kernel frame's constant pool was last broadcast for
    /// (0 = never). Constant-pool registers are never written by compiled
    /// code (the scalar engine's once-per-launch `pool_ready` relies on the
    /// same invariant), so the broadcast survives across the equally-sized
    /// batches of a launch.
    bcast_lanes: usize,
}

/// Why a batch could not complete in lockstep. Every variant rolls the batch
/// back and replays it through the scalar engine, which produces the
/// authoritative results, stats and error messages.
enum BatchAbort {
    /// A lane hit a runtime error (the replay will reproduce it verbatim).
    Error,
    /// Divergent control flow beyond the early-exit mask, a cross-lane
    /// buffer hazard, or any other shape the lockstep path does not model.
    Bail,
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
            max_call_depth: 4096,
            stats: ExecStats::default(),
            bregs: Vec::new(),
            active: Vec::new(),
            lane_bools: Vec::new(),
            undo: Vec::new(),
            slot_stored: Vec::new(),
            slot_foreign_load: Vec::new(),
            batch_disabled: false,
            bcast_lanes: 0,
        }
    }

    /// The execution statistics accumulated since construction (or the last
    /// [`Vm::reset_stats`]).
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Reset the accumulated execution statistics to zero.
    pub fn reset_stats(&mut self) {
        self.stats = ExecStats::default();
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
        self.batch_disabled = false;
        self.bcast_lanes = 0;
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

    /// Execute a batch of work-items of the kernel bound with
    /// [`Vm::bind_kernel`] in lockstep (see the module docs). Equivalent to
    /// calling [`Vm::run_item`] for each item in order: results, accumulated
    /// [`ExecStats`] and errors are bit-identical; the lockstep path merely
    /// amortises instruction dispatch over the lanes.
    pub fn run_batch(
        &mut self,
        items: &[WorkItem],
        args: &mut [ArgBinding<'_>],
    ) -> Result<(), KernelError> {
        let kernel_index = self
            .bound_kernel
            .ok_or_else(|| KernelError::run("no kernel bound to the VM"))?;
        // Lockstep needs ≥ 2 lanes with pairwise-distinct global ids (the
        // hazard discipline uses the global id as the disjointness witness).
        let batchable = items.len() >= 2
            && !self.batch_disabled
            && items.windows(2).all(|w| w[0].global_id < w[1].global_id);
        if !batchable {
            for item in items {
                self.run_item(*item, args)?;
            }
            return Ok(());
        }
        let mut acc = StatAcc::default();
        match self.exec_batch(kernel_index, items, args, &mut acc) {
            Ok(()) => {
                // The per-batch accumulation must be *exactly* the sum the
                // scalar engine (and therefore the interpreter oracle)
                // produces item by item: the cost constants are dyadic
                // rationals, so no summation order can legitimately differ.
                // `vm_differential.rs` asserts that equality against the
                // oracle; here debug builds guard the counter invariants the
                // lockstep path relies on (no negative or non-finite drift,
                // and a fully-retired batch left no lane mid-flight).
                debug_assert!(
                    acc.flops.is_finite()
                        && acc.bytes.is_finite()
                        && acc.ops.is_finite()
                        && acc.flops >= 0.0
                        && acc.bytes >= 0.0
                        && acc.ops >= 0.0,
                    "per-batch counters must stay finite and non-negative"
                );
                self.stats.flops += acc.flops;
                self.stats.global_bytes += acc.bytes;
                self.stats.ops += acc.ops;
                Ok(())
            }
            Err(abort) => {
                // Restore every buffer store of the aborted batch (newest
                // first), then replay sequentially: the scalar engine is the
                // authoritative semantics, including error messages and the
                // stats of partially-executed erroring items. The batch's
                // `acc` is simply dropped.
                while let Some((slot, idx, old)) = self.undo.pop() {
                    if let ArgBinding::Buffer(view) = &mut args[slot as usize] {
                        view.restore(idx, old);
                    }
                }
                if matches!(abort, BatchAbort::Bail) {
                    self.batch_disabled = true;
                }
                for item in items {
                    self.run_item(*item, args)?;
                }
                Ok(())
            }
        }
    }

    /// The lockstep interpreter loop of one batch. Any condition the batched
    /// model cannot reproduce bit-identically returns a [`BatchAbort`]; the
    /// caller rolls back and replays through the scalar path.
    #[allow(clippy::too_many_lines)]
    fn exec_batch(
        &mut self,
        kernel_index: usize,
        items: &[WorkItem],
        args: &mut [ArgBinding<'_>],
        acc: &mut StatAcc,
    ) -> Result<(), BatchAbort> {
        let unit = self.unit;
        let lanes = items.len();
        let mut func_idx = kernel_index;
        let mut pc: usize = 0;
        let mut base: usize = 0;
        self.frames.clear();
        self.undo.clear();
        self.active.clear();
        self.active.extend(0..lanes as u32);
        self.slot_stored.clear();
        self.slot_stored.resize(args.len(), false);
        self.slot_foreign_load.clear();
        self.slot_foreign_load.resize(args.len(), false);
        {
            let func = &unit.functions[func_idx];
            let need = func.num_regs as usize * lanes;
            if self.bregs.len() < need {
                self.bregs.resize(need, Value::Int(0));
            }
            // Broadcast the constant pool once per lane width — compiled
            // code never writes pool registers (the scalar engine's
            // once-per-launch `pool_ready` relies on the same invariant) —
            // and the scalar parameters every batch: parameters are mutable
            // locals, so each batch starts from the bound values exactly
            // like each scalar item does.
            if self.bcast_lanes != lanes {
                for (reg, value) in &func.const_pool {
                    let row = *reg as usize * lanes;
                    self.bregs[row..row + lanes].fill(*value);
                }
                self.bcast_lanes = lanes;
            }
            for (i, param) in func.params.iter().enumerate() {
                if let (Type::Scalar(want), ArgBinding::Scalar(v)) = (&param.ty, &args[i]) {
                    let row = i * lanes;
                    self.bregs[row..row + lanes].fill(v.convert_to(*want));
                }
            }
        }
        // All active lanes share one loop budget: their control flow is
        // uniform, so each lane has consumed exactly this many back-edges.
        let mut budget = self.max_loop_iterations;

        macro_rules! take_branch {
            ($target:expr) => {{
                let t = $target as usize;
                if t <= pc {
                    match budget.checked_sub(1) {
                        Some(b) => budget = b,
                        None => return Err(BatchAbort::Error),
                    }
                }
                pc = t;
            }};
        }

        'frame: loop {
            let func = &unit.functions[func_idx];
            let code = func.code.as_slice();
            let costs = func.costs.as_slice();
            loop {
                let c = costs[pc];
                let n_active = self.active.len() as f64;
                acc.flops += c.flops as f64 * n_active;
                acc.bytes += c.bytes as f64 * n_active;
                acc.ops += c.ops as f64 * n_active;
                match &code[pc] {
                    Op::Const { dst, value } => {
                        let d = (base + *dst as usize) * lanes;
                        for &lane in &self.active {
                            self.bregs[d + lane as usize] = *value;
                        }
                    }
                    Op::Mov { dst, src } => {
                        let d = (base + *dst as usize) * lanes;
                        let s = (base + *src as usize) * lanes;
                        for &lane in &self.active {
                            self.bregs[d + lane as usize] = self.bregs[s + lane as usize];
                        }
                    }
                    Op::Cast { dst, src, ty } => {
                        let d = (base + *dst as usize) * lanes;
                        let s = (base + *src as usize) * lanes;
                        for &lane in &self.active {
                            self.bregs[d + lane as usize] =
                                self.bregs[s + lane as usize].convert_to(*ty);
                        }
                    }
                    Op::Bin { op, dst, lhs, rhs } => {
                        let d = (base + *dst as usize) * lanes;
                        let l = (base + *lhs as usize) * lanes;
                        let r = (base + *rhs as usize) * lanes;
                        // The binary-op dispatch is hoisted out of the lane
                        // loop, with a float fast path per arithmetic op
                        // (bit-identical to `vm_eval_binary`: f64 compute,
                        // exact round back). Anything else falls back to the
                        // shared evaluator per lane.
                        macro_rules! float_bin {
                            ($op:tt) => {
                                for &lane in &self.active {
                                    let lane = lane as usize;
                                    match (self.bregs[l + lane], self.bregs[r + lane]) {
                                        (Value::Float(a), Value::Float(b)) => {
                                            self.bregs[d + lane] =
                                                Value::Float((a as f64 $op b as f64) as f32);
                                        }
                                        (a, b) => match vm_eval_binary(*op, a, b) {
                                            Ok(v) => self.bregs[d + lane] = v,
                                            Err(_) => return Err(BatchAbort::Error),
                                        },
                                    }
                                }
                            };
                        }
                        match op {
                            BinOp::Add => float_bin!(+),
                            BinOp::Sub => float_bin!(-),
                            BinOp::Mul => float_bin!(*),
                            BinOp::Div => float_bin!(/),
                            _ => {
                                for &lane in &self.active {
                                    let lane = lane as usize;
                                    match vm_eval_binary(
                                        *op,
                                        self.bregs[l + lane],
                                        self.bregs[r + lane],
                                    ) {
                                        Ok(v) => self.bregs[d + lane] = v,
                                        Err(_) => return Err(BatchAbort::Error),
                                    }
                                }
                            }
                        }
                    }
                    Op::Neg { dst, src } => {
                        let d = (base + *dst as usize) * lanes;
                        let s = (base + *src as usize) * lanes;
                        for &lane in &self.active {
                            let lane = lane as usize;
                            self.bregs[d + lane] = match self.bregs[s + lane] {
                                Value::Float(x) => Value::Float(-x),
                                Value::Double(x) => Value::Double(-x),
                                Value::Int(x) => Value::Int(x.wrapping_neg()),
                                Value::Uint(x) => Value::Int(-(x as i64) as i32),
                                Value::Bool(_) => unreachable!("checker rejects bool negation"),
                            };
                        }
                    }
                    Op::Not { dst, src } => {
                        let d = (base + *dst as usize) * lanes;
                        let s = (base + *src as usize) * lanes;
                        for &lane in &self.active {
                            let lane = lane as usize;
                            self.bregs[d + lane] = Value::Bool(!self.bregs[s + lane].as_bool());
                        }
                    }
                    Op::BufLoad { dst, name, idx } => {
                        let Some(slot) = self.buffer_slots.get(*name as usize).copied().flatten()
                        else {
                            return Err(BatchAbort::Error);
                        };
                        let d = (base + *dst as usize) * lanes;
                        let i = (base + *idx as usize) * lanes;
                        let ArgBinding::Buffer(view) = &args[slot as usize] else {
                            return Err(BatchAbort::Error);
                        };
                        // The view's element type is resolved once per
                        // instruction; the f32 fast path skips the per-lane
                        // view dispatch of the generic loop.
                        macro_rules! load_lanes {
                            ($load:expr) => {
                                for &lane in &self.active {
                                    let lane = lane as usize;
                                    let addr = self.bregs[i + lane].as_i64();
                                    if addr < 0 {
                                        return Err(BatchAbort::Error);
                                    }
                                    let addr = addr as usize;
                                    if addr != items[lane].global_id {
                                        self.slot_foreign_load[slot as usize] = true;
                                        if self.slot_stored[slot as usize] {
                                            return Err(BatchAbort::Bail);
                                        }
                                    }
                                    match $load(addr) {
                                        Some(v) => self.bregs[d + lane] = v,
                                        None => return Err(BatchAbort::Error),
                                    }
                                }
                            };
                        }
                        match view {
                            crate::interp::BufferView::F32(s) => {
                                load_lanes!(|addr: usize| s.get(addr).map(|v| Value::Float(*v)))
                            }
                            _ => load_lanes!(|addr: usize| view.load(addr)),
                        }
                    }
                    Op::BufStore { name, idx, src } => {
                        let Some(slot) = self.buffer_slots.get(*name as usize).copied().flatten()
                        else {
                            return Err(BatchAbort::Error);
                        };
                        let i = (base + *idx as usize) * lanes;
                        let s = (base + *src as usize) * lanes;
                        let slot_us = slot as usize;
                        let ArgBinding::Buffer(view) = &mut args[slot_us] else {
                            return Err(BatchAbort::Error);
                        };
                        // Foreign stores and store/foreign-load mixes on one
                        // buffer cannot be ordered like the sequential
                        // engine — those bail to the replay path. The f32
                        // fast path resolves the view once per instruction;
                        // the stored value converts exactly like
                        // `BufferView::store` (`as_f64() as f32`).
                        macro_rules! store_lanes {
                            (|$addr:ident, $lane:ident| $do_store:block) => {
                                for &lane in &self.active {
                                    let $lane = lane as usize;
                                    let addr = self.bregs[i + $lane].as_i64();
                                    if addr < 0 {
                                        return Err(BatchAbort::Error);
                                    }
                                    let $addr = addr as usize;
                                    if $addr != items[$lane].global_id
                                        || self.slot_foreign_load[slot_us]
                                    {
                                        return Err(BatchAbort::Bail);
                                    }
                                    $do_store
                                }
                                self.slot_stored[slot_us] = true;
                            };
                        }
                        match view {
                            crate::interp::BufferView::F32(buf) => {
                                store_lanes!(|addr, lane| {
                                    let Some(slot_ref) = buf.get_mut(addr) else {
                                        return Err(BatchAbort::Error);
                                    };
                                    self.undo.push((slot, addr, Value::Float(*slot_ref)));
                                    *slot_ref = self.bregs[s + lane].as_f64() as f32;
                                });
                            }
                            _ => {
                                store_lanes!(|addr, lane| {
                                    let Some(old) = view.load(addr) else {
                                        return Err(BatchAbort::Error);
                                    };
                                    self.undo.push((slot, addr, old));
                                    if !view.store(addr, self.bregs[s + lane]) {
                                        return Err(BatchAbort::Error);
                                    }
                                });
                            }
                        }
                    }
                    Op::Jump { target } => {
                        take_branch!(*target);
                        continue;
                    }
                    Op::JumpIfFalse { cond, target } => {
                        let cr = (base + *cond as usize) * lanes;
                        self.lane_bools.clear();
                        for &lane in &self.active {
                            self.lane_bools
                                .push(self.bregs[cr + lane as usize].as_bool());
                        }
                        match self
                            .resolve_branch(func, pc, *target, /* jump_when = */ false, acc)?
                        {
                            BranchOutcome::Taken => {
                                take_branch!(*target);
                                continue;
                            }
                            BranchOutcome::FallThrough => {}
                            BranchOutcome::Retired => {
                                // A divergent branch always leaves both
                                // sides non-empty, so lanes remain.
                                debug_assert!(!self.active.is_empty());
                            }
                        }
                    }
                    Op::BinJumpIfFalse {
                        op,
                        lhs,
                        rhs,
                        target,
                    } => {
                        let l = (base + *lhs as usize) * lanes;
                        let r = (base + *rhs as usize) * lanes;
                        self.lane_bools.clear();
                        for &lane in &self.active {
                            let lane = lane as usize;
                            match vm_eval_binary(*op, self.bregs[l + lane], self.bregs[r + lane]) {
                                Ok(v) => self.lane_bools.push(v.as_bool()),
                                Err(_) => return Err(BatchAbort::Error),
                            }
                        }
                        match self.resolve_branch(func, pc, *target, false, acc)? {
                            BranchOutcome::Taken => {
                                take_branch!(*target);
                                continue;
                            }
                            BranchOutcome::FallThrough => {}
                            BranchOutcome::Retired => {
                                // A divergent branch always leaves both
                                // sides non-empty, so lanes remain.
                                debug_assert!(!self.active.is_empty());
                            }
                        }
                    }
                    Op::JumpIfTrue { cond, target } => {
                        let cr = (base + *cond as usize) * lanes;
                        self.lane_bools.clear();
                        for &lane in &self.active {
                            self.lane_bools
                                .push(self.bregs[cr + lane as usize].as_bool());
                        }
                        match self
                            .resolve_branch(func, pc, *target, /* jump_when = */ true, acc)?
                        {
                            BranchOutcome::Taken => {
                                take_branch!(*target);
                                continue;
                            }
                            BranchOutcome::FallThrough => {}
                            BranchOutcome::Retired => {
                                // A divergent branch always leaves both
                                // sides non-empty, so lanes remain.
                                debug_assert!(!self.active.is_empty());
                            }
                        }
                    }
                    Op::Call {
                        func: callee,
                        dst,
                        args: args_base,
                        nargs,
                    } => {
                        if self.frames.len() >= self.max_call_depth {
                            return Err(BatchAbort::Error);
                        }
                        let callee_idx = *callee as usize;
                        let callee_fn = &unit.functions[callee_idx];
                        let new_base = base + func.num_regs as usize;
                        let need = (new_base + callee_fn.num_regs as usize) * lanes;
                        if self.bregs.len() < need {
                            self.bregs.resize(need, Value::Int(0));
                        }
                        for k in 0..*nargs as usize {
                            let src = (base + *args_base as usize + k) * lanes;
                            let dst_row = (new_base + k) * lanes;
                            let want = callee_fn.params[k].ty.scalar();
                            for &lane in &self.active {
                                let lane = lane as usize;
                                self.bregs[dst_row + lane] =
                                    self.bregs[src + lane].convert_to(want);
                            }
                        }
                        for (reg, value) in &callee_fn.const_pool {
                            let row = (new_base + *reg as usize) * lanes;
                            for &lane in &self.active {
                                self.bregs[row + lane as usize] = *value;
                            }
                        }
                        self.frames.push(Frame {
                            func: func_idx,
                            return_pc: pc + 1,
                            base,
                            dst: base + *dst as usize,
                        });
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
                        let d = (base + *dst as usize) * lanes;
                        let a0 = base + *args_base as usize;
                        let n = *nargs as usize;
                        let mut vals = [Value::Int(0); 4];
                        debug_assert!(n <= 4, "builtins take at most four arguments");
                        for &lane in &self.active {
                            let lane = lane as usize;
                            for (k, v) in vals.iter_mut().enumerate().take(n) {
                                *v = self.bregs[(a0 + k) * lanes + lane];
                            }
                            self.bregs[d + lane] = builtin.eval_math(&vals[..n]);
                        }
                    }
                    Op::StencilGet {
                        dst,
                        args: args_base,
                    } => {
                        let Some(ctx) = self.stencil else {
                            return Err(BatchAbort::Error);
                        };
                        if self.slot_stored[ctx.in_slot] {
                            return Err(BatchAbort::Bail);
                        }
                        self.slot_foreign_load[ctx.in_slot] = true;
                        let d = (base + *dst as usize) * lanes;
                        let dx_row = (base + *args_base as usize) * lanes;
                        let dy_row = (base + *args_base as usize + 1) * lanes;
                        for &lane in &self.active {
                            let lane = lane as usize;
                            let dx = self.bregs[dx_row + lane].as_i64();
                            let dy = self.bregs[dy_row + lane].as_i64();
                            match stencil_get(ctx, args, items[lane].global_id, dx, dy) {
                                Ok(v) => self.bregs[d + lane] = v,
                                Err(_) => return Err(BatchAbort::Error),
                            }
                        }
                    }
                    Op::WorkItem { dst, builtin } => {
                        let d = (base + *dst as usize) * lanes;
                        for &lane in &self.active {
                            let item = &items[lane as usize];
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
                            self.bregs[d + lane as usize] = Value::Int(v as i32);
                        }
                    }
                    Op::Return { src } => {
                        let s = (base + *src as usize) * lanes;
                        match self.frames.pop() {
                            None => return Ok(()),
                            Some(frame) => {
                                let d = frame.dst * lanes;
                                let want = func.return_type.scalar();
                                for &lane in &self.active {
                                    let lane = lane as usize;
                                    self.bregs[d + lane] = self.bregs[s + lane].convert_to(want);
                                }
                                func_idx = frame.func;
                                pc = frame.return_pc;
                                base = frame.base;
                                continue 'frame;
                            }
                        }
                    }
                    Op::ReturnVoid => match self.frames.pop() {
                        None => return Ok(()),
                        Some(frame) => {
                            let d = frame.dst * lanes;
                            for &lane in &self.active {
                                self.bregs[d + lane as usize] = Value::Int(0);
                            }
                            func_idx = frame.func;
                            pc = frame.return_pc;
                            base = frame.base;
                            continue 'frame;
                        }
                    },
                    Op::MissingReturn { .. } | Op::OrphanFlow | Op::FailUnbound { .. } => {
                        return Err(BatchAbort::Error);
                    }
                    Op::Nop => {}
                }
                pc += 1;
            }
        }
    }

    /// Resolve a conditional branch over the outcomes in `self.lane_bools`
    /// (parallel to `self.active`). `jump_when` is the truth value that takes
    /// the jump. Uniform outcomes are the fast path; a divergent branch is
    /// only representable when the lanes that *leave* the straight-line path
    /// do so through a trivial exit chain (forward jumps ending in a return)
    /// in the top frame — those lanes are charged the chain's costs and
    /// retired. Everything else aborts the batch.
    fn resolve_branch(
        &mut self,
        func: &crate::compile::CompiledFunction,
        pc: usize,
        target: u32,
        jump_when: bool,
        acc: &mut StatAcc,
    ) -> Result<BranchOutcome, BatchAbort> {
        let taken = self.lane_bools.iter().filter(|b| **b == jump_when).count();
        if taken == self.lane_bools.len() {
            return Ok(BranchOutcome::Taken);
        }
        if taken == 0 {
            return Ok(BranchOutcome::FallThrough);
        }
        // Divergent. Only the "jump side exits via a trivial chain, in the
        // top frame" shape keeps lockstep semantics exact.
        if !self.frames.is_empty() || (target as usize) <= pc {
            return Err(BatchAbort::Bail);
        }
        let Some(chain) = exit_chain_cost(func, target as usize) else {
            return Err(BatchAbort::Bail);
        };
        // Charge each exiting lane the instructions it would still execute
        // (the jump chain and the final return), then retire it.
        acc.flops += chain.0 * taken as f64;
        acc.bytes += chain.1 * taken as f64;
        acc.ops += chain.2 * taken as f64;
        let bools = std::mem::take(&mut self.lane_bools);
        let mut keep = 0usize;
        for (i, jumped) in bools.iter().enumerate() {
            if *jumped != jump_when {
                self.active[keep] = self.active[i];
                keep += 1;
            }
        }
        self.active.truncate(keep);
        self.lane_bools = bools;
        Ok(BranchOutcome::Retired)
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
                    } => {
                        if self.frames.len() >= self.max_call_depth {
                            return Err(KernelError::run(format!(
                                "call depth limit ({}) exceeded",
                                self.max_call_depth
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
                        });
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

/// How a batched conditional branch resolved (see [`Vm::resolve_branch`]).
enum BranchOutcome {
    /// Every active lane takes the jump.
    Taken,
    /// No active lane takes the jump.
    FallThrough,
    /// The jumping lanes exited through a trivial chain and were retired;
    /// the remaining lanes fall through.
    Retired,
}

/// If `pc` starts a trivial exit chain — forward `Jump`s and `Nop`s ending in
/// a `Return`/`ReturnVoid` — return the summed `(flops, bytes, ops)` cost of
/// executing it, which is what the scalar engine charges a lane that takes
/// this path. `None` for anything with side effects or backward edges.
pub(crate) fn exit_chain_cost(
    func: &crate::compile::CompiledFunction,
    mut pc: usize,
) -> Option<(f64, f64, f64)> {
    let mut cost = (0.0f64, 0.0f64, 0.0f64);
    for _ in 0..64 {
        let c = func.costs[pc];
        cost.0 += c.flops as f64;
        cost.1 += c.bytes as f64;
        cost.2 += c.ops as f64;
        match func.code[pc] {
            Op::Nop => pc += 1,
            Op::Jump { target } if target as usize > pc => pc = target as usize,
            // Top-frame returns have no observable effect beyond their cost
            // (the kernel's return value is discarded).
            Op::Return { .. } | Op::ReturnVoid => return Some(cost),
            _ => return None,
        }
    }
    None
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
