//! Native execution tier: bytecode closure-compiled into pre-linked basic
//! blocks over a typed, struct-of-arrays register file.
//!
//! The scalar VM ([`crate::vm::Vm::run_item`]) runs one work-item at a time,
//! and every operation goes through the dynamically-typed [`Value`] enum: an
//! instruction dispatch per item and a discriminant match per operand, with
//! results that cannot be auto-vectorised. This module runs
//! [`BATCH_LANES`] work-items at once without either layer:
//!
//! * a **dataflow typing pass** runs over the basic blocks of the flat
//!   bytecode and assigns every register *at every program point* one of
//!   four concrete kinds (`f32`, `f64`, `i32`, `bool`) — flow-sensitively,
//!   because the compiler freely reuses temporary registers across types;
//! * each instruction is then compiled to a **monomorphized closure** over a
//!   plain struct-of-arrays register file (`Vec<f32>` / `Vec<f64>` /
//!   `Vec<i32>` / `Vec<bool>`, 64 lanes per register row). Straight-line
//!   f32/i32 arithmetic becomes tight chunked loops over local fixed-size
//!   arrays that LLVM auto-vectorises; buffer accesses whose index is the
//!   work-item's global id (tracked as an *iota* kind) become bounds-checked
//!   block copies;
//! * basic blocks are **pre-linked**: jump targets are resolved to block
//!   indices at compile time and each block's instruction costs are
//!   pre-summed, charged `cost × active_lanes` once per block entry.
//!
//! Execution stays bit-identical to the interpreter oracle. Any shape the
//! native model cannot reproduce exactly is either rejected at native
//! compile time (the kernel permanently falls back to the scalar VM, with
//! a human-readable reason) or aborts the batch at runtime: every buffer
//! store is rolled back through an undo log and the batch is replayed
//! through the scalar VM, which is the authoritative semantics — results,
//! [`crate::interp::ExecStats`] and error messages included. What aborts a batch: a runtime error in an active
//! lane, an exhausted loop budget, and a cross-lane hazard (below).
//! Divergent control flow does not.
//!
//! # When it runs
//!
//! [`Tier::Native`], the default, means *native when eligible, compiled at
//! the kernel's first launch*; an ineligible kernel runs on the scalar VM
//! (the reason lands in [`crate::LaunchTrace::fallback`]). There is no size or launch-count gate: compiling
//! a skeleton kernel takes 10–40 µs, less than the `Program::build` that
//! preceded it, and work-item count stops being a proxy for work the moment
//! a kernel has a back edge — the chunked reduce launches at most 64
//! work-items (one batch) that each fold thousands of elements, and the scan
//! is a single lane looping over its whole part. Both run here from launch
//! one. The reduce's 64 lanes load `in[start + k]` at a stride of one chunk,
//! so its loads take the per-lane path (foreign loads of a read-only slot);
//! a ragged last chunk leaves its loop early and waits at the loop's
//! reconvergence block while the other lanes — still a dense prefix —
//! iterate on.
//!
//! # Divergence: masks and reconvergence
//!
//! Lanes that disagree at a branch keep running natively, SIMT style.
//!
//! * **Compile time.** Every conditional branch gets a *reconvergence
//!   block*: the immediate post-dominator of its block in the block graph,
//!   with a virtual exit that every `return` leads to (so an early return
//!   on one side makes the exit the join). The listing prints it as
//!   `reconverge -> bN`.
//! * **Run time.** The executor runs one set of lanes — a `u64` mask — from
//!   a block up to a stop block. When the active lanes disagree at a
//!   branch, it parks the union at the reconvergence block and the fall
//!   side at its target on a small stack, runs the taken side until *it*
//!   reaches the reconvergence block, then pops the fall side, then the
//!   union. Back edges need nothing extra: lanes leaving a loop wait at the
//!   loop's reconvergence block while the rest iterate (the parked union is
//!   reused, so the stack does not grow per iteration). A block's
//!   pre-summed cost is charged `× popcount(mask)`, which keeps
//!   [`ExecStats`] identical to the per-item sum.
//! * **What runs blended.** Pure register steps — arithmetic, comparisons,
//!   casts, moves, negation, constants, work-item ids, one- and
//!   two-argument `float` math — can neither fault nor touch memory. Under
//!   a partial mask they still run their fixed-width vectorized loop over
//!   all 64 lanes; the executor saves the destination row first and puts
//!   the idle lanes' values back afterwards (they may be waiting at a
//!   reconvergence block with live registers).
//! * **What runs per active lane.** Everything with a failure path or a
//!   memory effect: `BufLoad`/`BufStore`, `StencilGet`, integer `/` and
//!   `%`, `clamp` (panics on inverted bounds), the dynamically-typed
//!   binary-op and builtin fallbacks. When the active lanes form one
//!   contiguous run the buffer steps still take the span copies (offset by
//!   the run's first lane); otherwise they go lane by lane over the mask's
//!   set bits. So `if (x != 0) a / x` or `if (i < n) v[i]` never faults in
//!   a lane the oracle would not have executed, and a fault in an *active*
//!   lane aborts the batch like any other.
//! * **Why the dense path is kept separate.** The mask is "dense" when it
//!   is a lane prefix — every uniform batch, and what the `if (gid < n)`
//!   tail guard leaves after retiring a suffix through its exit chain.
//!   Dense blocks run the step closures directly: no blending, no mask
//!   test inside any vectorized loop, the same code as before divergence
//!   support existed. Straight-line kernels therefore pay one integer
//!   compare per block for it.
//! * **The loop budget** stays one counter per batch. It counts every back
//!   edge any lane takes, so it never under-counts a work-item; once lanes
//!   sit in different loops it can over-count, which is why exhausting it
//!   is an ordinary abort: the scalar replay decides, per work-item,
//!   whether there is an error to report.
//!
//! # Cross-lane hazards: the lane-private-base rule
//!
//! A batch runs its lanes in lockstep, instruction by instruction; the
//! oracle runs the work-items one after another. The two orders agree as
//! long as no lane observes another lane's store, which the executor
//! enforces per buffer slot and per batch:
//!
//! * an access is *private at base `b`* when lane ℓ touches exactly element
//!   `b + ℓ`. The slot's first private access fixes its base; own-index
//!   accesses (`v[gid]`) are the case `b = gid₀`, and the MapOverlap
//!   template's `out[gid + halo·w]` is the case `b = gid₀ + halo·w`;
//! * any other access — a private pattern at a second base, a gather, a
//!   stencil neighbour read — is *foreign*. Foreign loads are fine while the
//!   slot has no store in the batch; a foreign store bails;
//! * a slot with any store must have only private accesses: a store after a
//!   foreign load, or a foreign load after a store, bails.
//!
//! So a slot is either read-only within the batch or lane-private, and
//! `v[i + 1] = v[i]`, two stores at different bases, or an in-place stencil
//! all bail, roll back and replay. The rule is per slot and per batch, not
//! per mask: stores in both arms of a branch share one base, and lanes
//! running the two arms at different times still touch only their own
//! elements, so any interleaving equals the sequential order. Single-lane
//! batches skip the discipline entirely (sequential order is trivially
//! preserved), which makes single-work-item reduce/scan loops
//! native-eligible with arbitrary addresses.
//!
//! Iota-typed addresses are private by construction. Every other `i32`
//! address row into a `float` buffer is tested at runtime
//! (`addr[ℓ] = addr[lo] + ℓ - lo` over the active run, one vectorisable
//! compare): when it holds, the access takes the same bounds-checked span
//! copy (+ undo-log span) as the iota path; when it does not — or the row
//! starts negative — it goes lane by lane through the dynamically-typed
//! path.
//!
//! # `get(dx, dy)`: row slices
//!
//! `Op::StencilGet` is a foreign load of the stencil input. When `dx` and
//! `dy` are the same in every lane and the batch's global ids are linear,
//! the batch is split into matrix-row segments; `dy` is checked against the
//! halo once, and within a segment the lanes whose column `col + dx` stays
//! inside the row are one bounds-checked slice copy from input row
//! `row + halo + dy`. The ≤ |dx| lanes per segment that leave the row, and
//! every non-uniform or non-linear batch, go through the engines' shared
//! `interp::stencil_get`, so the clamp / wrap / constant policies
//! and every error message live in one place. Any failed check aborts the
//! batch and the scalar replay reports the exact error.
//!
//! The kernelgen template was deliberately left alone: virtual time is
//! charged from `ExecStats`, so "simplifying" its index expression would
//! change every stencil's simulated cost. The native tier adapts to the
//! bytecode, not the other way round.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use crate::ast::BinOp;
use crate::builtins::Builtin;
use crate::compile::{CompiledUnit, Op};
use crate::interp::{stencil_get, ArgBinding, BufferView, ExecStats, StencilCtx, WorkItem};
use crate::types::{ScalarType, Type};
use crate::value::Value;
use crate::vm::vm_eval_binary;

/// Number of work-items a native batch runs at once (one `u64` lane mask);
/// [`crate::Program::run_ndrange_measured`] hands launches out in batches of
/// this size. Sized so a typical kernel's register file stays within L1.
pub const BATCH_LANES: usize = 64;

/// Which execution engine runs kernel launches. Settable per program via
/// [`crate::Program::set_tier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// The tree-walking interpreter (the bit-exact oracle; slowest).
    Interp,
    /// The scalar register VM, one work-item at a time.
    Scalar,
    /// The closure-compiled native tier (this module), compiled at a
    /// kernel's first launch; the scalar VM for ineligible bytecode (the
    /// reason lands in [`crate::LaunchTrace::fallback`]). Launch size and
    /// launch count play no part: native compilation costs less than the
    /// `Program::build` every program already paid.
    #[default]
    Native,
}

/// Every tier with its name, in declaration order: what `Display` spells and
/// what a program's stored selection indexes — the one list (besides the
/// enum) a tier is added to or removed from.
const TIERS: [(Tier, &str); 3] = [
    (Tier::Interp, "interp"),
    (Tier::Scalar, "scalar"),
    (Tier::Native, "native"),
];

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(TIERS[*self as usize].1)
    }
}

/// Per-[`crate::Program`] native-tier state, shared across clones of the
/// program (and across the simulator's per-device worker threads).
pub(crate) struct NativeState {
    /// The selected [`Tier`], as its index in [`TIERS`].
    tier: AtomicU8,
    kernels: Vec<KernelNativeState>,
}

impl std::fmt::Debug for NativeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeState")
            .field("tier", &self.tier())
            .field("kernels", &self.kernels.len())
            .finish()
    }
}

impl NativeState {
    pub(crate) fn new(num_functions: usize) -> NativeState {
        NativeState {
            tier: AtomicU8::new(Tier::default() as u8),
            kernels: (0..num_functions)
                .map(|_| KernelNativeState::default())
                .collect(),
        }
    }

    pub(crate) fn tier(&self) -> Tier {
        TIERS[self.tier.load(Ordering::Relaxed) as usize].0
    }

    pub(crate) fn set_tier(&self, tier: Tier) {
        self.tier.store(tier as u8, Ordering::Relaxed);
    }

    pub(crate) fn kernel(&self, index: usize) -> &KernelNativeState {
        &self.kernels[index]
    }
}

/// Per-kernel cached native compilation result.
#[derive(Default)]
pub(crate) struct KernelNativeState {
    compiled: OnceLock<CompileOutcome>,
}

/// The cached outcome of one native compilation attempt.
pub struct CompileOutcome {
    /// The compiled kernel, or the human-readable ineligibility reason.
    pub result: Result<Arc<NativeKernel>, String>,
    /// Wall-clock nanoseconds the compilation took.
    pub compile_ns: u64,
}

impl KernelNativeState {
    /// The compiled artifact (compiling on first use), plus whether this
    /// call performed the compilation.
    pub(crate) fn get_or_compile(
        &self,
        unit: &CompiledUnit,
        index: usize,
    ) -> (&CompileOutcome, bool) {
        let mut first = false;
        let out = self.compiled.get_or_init(|| {
            first = true;
            let t0 = std::time::Instant::now();
            let result = compile_kernel(unit, index).map(Arc::new);
            CompileOutcome {
                result,
                compile_ns: t0.elapsed().as_nanos() as u64,
            }
        });
        (out, first)
    }
}

// ---------------------------------------------------------------------------
// Typed register kinds and the dataflow lattice
// ---------------------------------------------------------------------------

/// The concrete storage kind of a register at a program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NKind {
    F32,
    F64,
    I32,
    Bool,
}

impl NKind {
    fn of(s: ScalarType) -> Option<NKind> {
        match s {
            ScalarType::Float => Some(NKind::F32),
            ScalarType::Double => Some(NKind::F64),
            ScalarType::Int => Some(NKind::I32),
            ScalarType::Bool => Some(NKind::Bool),
            ScalarType::Uint => None,
        }
    }

    fn scalar(self) -> ScalarType {
        match self {
            NKind::F32 => ScalarType::Float,
            NKind::F64 => ScalarType::Double,
            NKind::I32 => ScalarType::Int,
            NKind::Bool => ScalarType::Bool,
        }
    }
}

/// One lattice cell of the flow-sensitive typing pass. `iota` marks an `i32`
/// register known to hold `first_global_id + lane` in every lane (the value
/// of `get_global_id(0)` under linear launches), which unlocks contiguous
/// buffer fast paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    /// Not written on any path seen so far (the lattice bottom; the compiler
    /// guarantees every *executed* read is dominated by a write).
    Unset,
    /// Holds this kind on every path.
    Known { kind: NKind, iota: bool },
    /// Holds differently-typed values on merging paths (the lattice top).
    Conflict,
}

impl Cell {
    fn known(kind: NKind) -> Cell {
        Cell::Known { kind, iota: false }
    }

    fn merge(a: Cell, b: Cell) -> Cell {
        match (a, b) {
            (Cell::Unset, x) | (x, Cell::Unset) => x,
            (Cell::Known { kind: k1, iota: i1 }, Cell::Known { kind: k2, iota: i2 })
                if k1 == k2 =>
            {
                Cell::Known {
                    kind: k1,
                    iota: i1 && i2,
                }
            }
            _ => Cell::Conflict,
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime state: register file, undo log, execution context
// ---------------------------------------------------------------------------

/// Struct-of-arrays register file: four parallel arrays, each holding
/// `BATCH_LANES` values per register row. A register's value lives in the
/// array of its current kind (the dataflow pass guarantees reader and writer
/// agree at every program point).
pub(crate) struct RegFile {
    f32s: Vec<f32>,
    f64s: Vec<f64>,
    i32s: Vec<i32>,
    bools: Vec<bool>,
}

impl RegFile {
    fn new(rows: usize) -> RegFile {
        let n = rows * BATCH_LANES;
        RegFile {
            f32s: vec![0.0; n],
            f64s: vec![0.0; n],
            i32s: vec![0; n],
            bools: vec![false; n],
        }
    }
}

/// Ordered log of buffer mutations, for exact rollback on batch abort.
/// `f32` stores log spans backed by a flat arena — a whole batch row at once,
/// or element by element, where a store to the element right after the
/// newest span extends it (a single-lane scan logs 4 bytes per element, not
/// one entry). Everything else logs per-element [`Value`]s restored
/// bit-exactly via [`BufferView::restore`]. Entries are undone strictly
/// newest-first.
#[derive(Default)]
pub(crate) struct UndoLog {
    entries: Vec<UndoEntry>,
    arena: Vec<f32>,
}

enum UndoEntry {
    Span {
        slot: u16,
        start: usize,
        arena_off: usize,
        len: usize,
    },
    Elem {
        slot: u16,
        idx: usize,
        old: Value,
    },
}

impl UndoLog {
    fn clear(&mut self) {
        self.entries.clear();
        self.arena.clear();
    }

    fn push_span(&mut self, slot: u16, start: usize, old: &[f32]) {
        let arena_off = self.arena.len();
        self.arena.extend_from_slice(old);
        self.entries.push(UndoEntry::Span {
            slot,
            start,
            arena_off,
            len: old.len(),
        });
    }

    /// Log one overwritten `f32` element, extending the newest span when
    /// `idx` is the element right after it.
    fn push_f32(&mut self, slot: u16, idx: usize, old: f32) {
        if let Some(UndoEntry::Span {
            slot: s,
            start,
            len,
            ..
        }) = self.entries.last_mut()
        {
            if *s == slot && *start + *len == idx {
                self.arena.push(old);
                *len += 1;
                return;
            }
        }
        self.push_span(slot, idx, &[old]);
    }

    fn push_elem(&mut self, slot: u16, idx: usize, old: Value) {
        self.entries.push(UndoEntry::Elem { slot, idx, old });
    }

    /// Restore every logged mutation, newest first.
    fn rollback(&mut self, args: &mut [ArgBinding<'_>]) {
        while let Some(entry) = self.entries.pop() {
            match entry {
                UndoEntry::Span {
                    slot,
                    start,
                    arena_off,
                    len,
                } => {
                    if let ArgBinding::Buffer(BufferView::F32(buf)) = &mut args[slot as usize] {
                        buf[start..start + len]
                            .copy_from_slice(&self.arena[arena_off..arena_off + len]);
                    }
                    self.arena.truncate(arena_off);
                }
                UndoEntry::Elem { slot, idx, old } => {
                    if let ArgBinding::Buffer(view) = &mut args[slot as usize] {
                        view.restore(idx, old);
                    }
                }
            }
        }
        self.arena.clear();
    }
}

/// Why a native batch could not complete. The caller rolls back the undo log
/// and replays the batch through the scalar VM (authoritative for results,
/// stats and errors); `Bail` additionally retires the native tier for the
/// launch remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NativeAbort {
    /// An active lane hit a runtime error, or the batch-level loop budget
    /// ran out; the replay reproduces the error verbatim (or, for the
    /// budget, decides per work-item whether there is one).
    Error,
    /// A cross-lane hazard lockstep execution does not order, or a batch
    /// whose global ids are not linear under a kernel that uses the iota
    /// fast paths. Divergent control flow never bails.
    Bail,
}

/// Mutable execution state threaded through every step closure.
pub(crate) struct ExecCtx<'a, 'b> {
    regs: &'a mut RegFile,
    items: &'a [WorkItem],
    /// Bit ℓ is set when lane ℓ executes the current block.
    mask: u64,
    /// `lo..n_active` is the smallest lane range covering `mask`.
    lo: usize,
    n_active: usize,
    /// Number of active lanes (`mask.count_ones()`).
    count: usize,
    /// Whether the active lanes are the one contiguous run `lo..n_active`,
    /// so buffer accesses may take the span copies.
    run: bool,
    /// Whether the active lanes are exactly the prefix `0..n_active` — what
    /// uniform batches and suffix retirement produce. Dense blocks run the
    /// step closures' vectorized loops as they are.
    dense: bool,
    /// Per-lane expansion of `!mask`, for blending pure register steps;
    /// maintained only outside the dense mode.
    inactive: [bool; BATCH_LANES],
    args: &'a mut [ArgBinding<'b>],
    stencil: Option<StencilCtx>,
    undo: &'a mut UndoLog,
    slots: &'a mut [SlotHazard],
    /// Cross-lane hazard checks; off for single-lane batches, whose
    /// sequential order is trivially preserved.
    hazards: bool,
    /// Whether lane ℓ's global id is `items[0].global_id + ℓ` (what the
    /// launch loops always produce; verified per batch).
    linear: bool,
}

/// The mask of the lanes `0..n`.
#[inline]
fn low_bits(n: usize) -> u64 {
    if n >= BATCH_LANES {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Bit ℓ of the result is set when `row[ℓ] == when`.
#[inline]
fn lane_bits(row: &[bool], when: bool) -> u64 {
    let mut bits = 0u64;
    for (l, b) in row.iter().enumerate() {
        bits |= u64::from(*b == when) << l;
    }
    bits
}

/// Iterator over the set bits of a lane mask, lowest lane first.
struct Lanes(u64);

impl Iterator for Lanes {
    type Item = usize;
    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let lane = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(lane)
    }
}

impl ExecCtx<'_, '_> {
    /// Make `mask` (non-empty) the set of executing lanes.
    fn set_mask(&mut self, mask: u64) {
        debug_assert!(mask != 0);
        self.mask = mask;
        self.lo = mask.trailing_zeros() as usize;
        self.n_active = BATCH_LANES - mask.leading_zeros() as usize;
        self.count = mask.count_ones() as usize;
        self.run = self.count == self.n_active - self.lo;
        self.dense = self.run && self.lo == 0;
        if !self.dense {
            for (l, off) in self.inactive.iter_mut().enumerate() {
                *off = mask >> l & 1 == 0;
            }
        }
    }

    /// The active lanes, lowest first. Every step that can fault or touch
    /// memory lane by lane iterates these, never the covering range.
    #[inline(always)]
    fn lanes(&self) -> Lanes {
        Lanes(self.mask)
    }
}

/// Per-batch cross-lane hazard state of one buffer slot. Lockstep execution
/// equals the sequential item order as long as no lane observes another
/// lane's store, which holds when every slot is either read-only within the
/// batch or *lane-private*: lane ℓ touches only element `base + ℓ`.
#[derive(Debug, Clone, Copy, Default)]
struct SlotHazard {
    /// Lane 0's address of the slot's first private access (negative when
    /// only higher lanes were active and lane 0's element would lie before
    /// the buffer).
    base: Option<i64>,
    stored: bool,
    foreign_load: bool,
}

impl SlotHazard {
    /// Whether an access whose lane-0 address is `base` is lane-private
    /// (`None`: the access has no such base, e.g. a stencil neighbour read).
    /// The slot's first private access fixes its base.
    fn is_private(&mut self, base: Option<i64>) -> bool {
        match (self.base, base) {
            (_, None) => false,
            (None, Some(_)) => {
                self.base = base;
                true
            }
            (Some(a), Some(b)) => a == b,
        }
    }

    /// Admit a load: foreign loads are fine until the slot is stored to.
    fn load(&mut self, base: Option<i64>) -> Result<(), NativeAbort> {
        if !self.is_private(base) {
            if self.stored {
                return Err(NativeAbort::Bail);
            }
            self.foreign_load = true;
        }
        Ok(())
    }

    /// Admit a store: a stored slot must have only private accesses.
    fn store(&mut self, base: Option<i64>) -> Result<(), NativeAbort> {
        if !self.is_private(base) || self.foreign_load {
            return Err(NativeAbort::Bail);
        }
        self.stored = true;
        Ok(())
    }
}

type StepFn =
    Box<dyn for<'a, 'b> Fn(&mut ExecCtx<'a, 'b>) -> Result<(), NativeAbort> + Send + Sync>;

/// Identity helper that pins the closure to the higher-ranked `Fn` bound.
fn step<F>(f: F) -> StepFn
where
    F: for<'a, 'b> Fn(&mut ExecCtx<'a, 'b>) -> Result<(), NativeAbort> + Send + Sync + 'static,
{
    Box::new(f)
}

/// One compiled instruction of a block.
struct Step {
    run: StepFn,
    /// `Some((kind, row))` marks a *pure register step*: it writes lanes
    /// `0..n_active` of that one destination row and can neither fault nor
    /// touch memory, so under a partial mask the executor lets it compute
    /// every lane and puts the inactive lanes' old values back
    /// ([`run_blended`]). `None` steps restrict themselves to
    /// [`ExecCtx::lanes`] (or write only the scratch condition row, whose
    /// inactive lanes nobody reads).
    blend: Option<(NKind, usize)>,
}

impl Step {
    fn pure(kind: NKind, row: usize, run: StepFn) -> Step {
        Step {
            run,
            blend: Some((kind, row)),
        }
    }

    fn masked(run: StepFn) -> Step {
        Step { run, blend: None }
    }
}

/// Run a pure register step under a partial mask: the closure computes all
/// `BATCH_LANES` lanes with its fixed-width vectorized loop (idle lanes hold
/// stale but initialised values, and nothing pure can fault on them), then
/// the lanes that are not executing get their previous destination values
/// back.
fn run_blended(cx: &mut ExecCtx<'_, '_>, s: &Step) -> Result<(), NativeAbort> {
    let Some((kind, d)) = s.blend else {
        return (s.run)(cx);
    };
    macro_rules! blend {
        ($field:ident, $zero:expr) => {{
            let mut old = [$zero; BATCH_LANES];
            old.copy_from_slice(&cx.regs.$field[d..d + BATCH_LANES]);
            let n_active = std::mem::replace(&mut cx.n_active, BATCH_LANES);
            let done = (s.run)(cx);
            cx.n_active = n_active;
            done?;
            for ((v, o), off) in cx.regs.$field[d..d + BATCH_LANES]
                .iter_mut()
                .zip(&old)
                .zip(&cx.inactive)
            {
                // A select, not a branch: the mask is data.
                *v = if *off { *o } else { *v };
            }
        }};
    }
    match kind {
        NKind::F32 => blend!(f32s, 0.0f32),
        NKind::F64 => blend!(f64s, 0.0f64),
        NKind::I32 => blend!(i32s, 0i32),
        NKind::Bool => blend!(bools, false),
    }
    Ok(())
}

#[inline(always)]
fn read_value(regs: &RegFile, kind: NKind, row: usize, lane: usize) -> Value {
    match kind {
        NKind::F32 => Value::Float(regs.f32s[row + lane]),
        NKind::F64 => Value::Double(regs.f64s[row + lane]),
        NKind::I32 => Value::Int(regs.i32s[row + lane]),
        NKind::Bool => Value::Bool(regs.bools[row + lane]),
    }
}

#[inline(always)]
fn write_value(regs: &mut RegFile, kind: NKind, row: usize, lane: usize, v: Value) {
    match kind {
        NKind::F32 => {
            regs.f32s[row + lane] = match v {
                Value::Float(x) => x,
                other => other.as_f64() as f32,
            }
        }
        NKind::F64 => regs.f64s[row + lane] = v.as_f64(),
        NKind::I32 => {
            regs.i32s[row + lane] = match v {
                Value::Int(x) => x,
                other => other.as_i64() as i32,
            }
        }
        NKind::Bool => regs.bools[row + lane] = v.as_bool(),
    }
}

/// The buffer address held in `row` at `lane` (exactly `Value::as_i64` of
/// the register's typed value).
#[inline(always)]
fn addr_of(regs: &RegFile, kind: NKind, row: usize, lane: usize) -> i64 {
    match kind {
        NKind::F32 => regs.f32s[row + lane] as i64,
        NKind::F64 => regs.f64s[row + lane] as i64,
        NKind::I32 => regs.i32s[row + lane] as i64,
        NKind::Bool => i64::from(regs.bools[row + lane]),
    }
}

fn broadcast(regs: &mut RegFile, row: usize, v: Value) {
    match v {
        Value::Float(x) => regs.f32s[row..row + BATCH_LANES].fill(x),
        Value::Double(x) => regs.f64s[row..row + BATCH_LANES].fill(x),
        Value::Int(x) => regs.i32s[row..row + BATCH_LANES].fill(x),
        Value::Bool(x) => regs.bools[row..row + BATCH_LANES].fill(x),
        Value::Uint(_) => unreachable!("uint values are native-ineligible"),
    }
}

// ---------------------------------------------------------------------------
// Compiled artifact
// ---------------------------------------------------------------------------

/// How a basic block transfers control. Targets are pre-resolved block
/// indices, so runtime dispatch is a direct index.
enum Term {
    /// Unconditional transfer; back edges count against the loop budget.
    Jump { target: usize, back_edge: bool },
    /// Conditional transfer on the scratch bool row written by the block's
    /// final condition step. When the active lanes disagree, the taken side
    /// runs under its lane mask, then the fall side under the complement,
    /// and both wait at `reconv` — the branch block's immediate
    /// post-dominator ([`EXIT`] when a side returns first) — where the union
    /// resumes. One shape skips the mask stack: outside any divergent region
    /// a suffix of the dense prefix leaving through a trivial exit chain
    /// (the `if (gid < n)` tail guard) just retires, charged the chain's
    /// pre-summed cost.
    Branch {
        jump_when: bool,
        taken: usize,
        taken_back_edge: bool,
        exit_chain: Option<(f64, f64, f64)>,
        fall: usize,
        reconv: usize,
    },
    /// All active lanes return from the kernel.
    Ret,
    /// An unconditional runtime error (missing return, orphan break, …); the
    /// scalar replay reproduces the exact message.
    Abort,
}

/// The virtual exit block: where returning lanes go, and the reconvergence
/// point of every branch with a side that returns before the sides meet.
const EXIT: usize = usize::MAX;

/// Lanes parked on the mask stack until the running lanes reach `reconv`.
struct Pending {
    block: usize,
    mask: u64,
    reconv: usize,
}

struct Block {
    steps: Vec<Step>,
    /// Pre-summed `(flops, bytes, ops)` of every instruction in the block,
    /// terminator included; charged `× popcount(mask)` at block entry. Exact
    /// because the mask only changes at terminators and any mid-block abort
    /// discards the whole batch accumulator.
    cost: (f64, f64, f64),
    term: Term,
}

/// A kernel compiled to closure-threaded native blocks. Immutable and
/// shared; per-launch mutable state lives in the (private) executor.
pub struct NativeKernel {
    blocks: Vec<Block>,
    num_regs: usize,
    /// Whether any step uses the iota fast paths, which require contiguous
    /// global ids with `local_id == global_id` and ids within `i32` range
    /// (verified per batch; violations bail to the VM).
    uses_iota: bool,
    /// Constant pool broadcast once per launch (pool rows are never written
    /// by compiled code).
    pool: Vec<(u16, Value)>,
    /// Scalar parameters `(arg slot == register row, declared type)`,
    /// re-broadcast every batch (parameters are mutable locals).
    scalar_params: Vec<(usize, ScalarType)>,
    listing: String,
}

impl std::fmt::Debug for NativeKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeKernel")
            .field("blocks", &self.blocks.len())
            .field("num_regs", &self.num_regs)
            .field("uses_iota", &self.uses_iota)
            .finish()
    }
}

impl NativeKernel {
    /// Human-readable block/closure listing (for `dump_bytecode`).
    pub fn listing(&self) -> &str {
        &self.listing
    }

    /// Number of native basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

// ---------------------------------------------------------------------------
// Per-launch executor
// ---------------------------------------------------------------------------

/// Mutable per-launch state for one [`NativeKernel`]: the register file, the
/// undo log and the hazard flags. Created once per launch so the constant
/// pool broadcast is paid once.
pub(crate) struct NativeExec {
    kernel: Arc<NativeKernel>,
    regs: RegFile,
    undo: UndoLog,
    slots: Vec<SlotHazard>,
    /// The mask stack; empty between batches and throughout uniform ones.
    stack: Vec<Pending>,
}

impl NativeExec {
    pub(crate) fn new(kernel: Arc<NativeKernel>) -> NativeExec {
        let mut regs = RegFile::new(kernel.num_regs + 1);
        for &(reg, v) in &kernel.pool {
            broadcast(&mut regs, reg as usize * BATCH_LANES, v);
        }
        NativeExec {
            kernel,
            regs,
            undo: UndoLog::default(),
            slots: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Execute one batch of work-items. On `Ok`, results are committed, the
    /// batch's exact cost has been added to `stats`, and the value says
    /// whether the lanes diverged (some block ran under a partial mask). On
    /// `Err`, the caller must call [`NativeExec::rollback`] and replay the
    /// batch through the scalar engine.
    ///
    /// `budget_limit` is the per-work-item back-edge budget. The batch keeps
    /// one counter for all lanes: it counts every back edge *any* lane
    /// takes, so it never undercounts a lane, and once lanes sit in
    /// different loops it may overcount — which is why running out is
    /// [`NativeAbort::Error`], not an error of its own: the scalar replay
    /// decides per work-item.
    pub(crate) fn execute_batch(
        &mut self,
        items: &[WorkItem],
        args: &mut [ArgBinding<'_>],
        stencil: Option<StencilCtx>,
        budget_limit: u64,
        stats: &mut ExecStats,
    ) -> Result<bool, NativeAbort> {
        let lanes = items.len();
        debug_assert!((1..=BATCH_LANES).contains(&lanes));
        let kernel = Arc::clone(&self.kernel);
        let gid0 = items[0].global_id;
        let linear = items
            .iter()
            .enumerate()
            .all(|(l, it)| it.global_id == gid0 + l);
        if kernel.uses_iota {
            let ok = linear
                && items.iter().all(|it| it.local_id == it.global_id)
                && items[lanes - 1].global_id <= i32::MAX as usize;
            if !ok {
                return Err(NativeAbort::Bail);
            }
        }
        self.undo.clear();
        self.slots.clear();
        self.slots.resize(args.len(), SlotHazard::default());
        self.stack.clear();
        for &(slot, declared) in &kernel.scalar_params {
            if let ArgBinding::Scalar(v) = &args[slot] {
                broadcast(&mut self.regs, slot * BATCH_LANES, v.convert_to(declared));
            }
        }

        let scratch = kernel.num_regs * BATCH_LANES;
        let mut acc = (0.0f64, 0.0f64, 0.0f64);
        let mut budget = budget_limit;
        let mut diverged = false;
        // The running lanes are at `block` and stop at `reconv`.
        let mut block = 0usize;
        let mut reconv = EXIT;
        let stack = &mut self.stack;
        // One context for the whole batch (rebuilding it per block costs real
        // time on single-lane sequential kernels); the mask changes in place.
        let mut cx = ExecCtx {
            regs: &mut self.regs,
            items,
            mask: low_bits(lanes),
            lo: 0,
            n_active: lanes,
            count: lanes,
            run: true,
            dense: true,
            inactive: [false; BATCH_LANES],
            args,
            stencil,
            undo: &mut self.undo,
            slots: &mut self.slots,
            hazards: lanes >= 2,
            linear,
        };
        loop {
            if block == reconv {
                // The running lanes returned or reached their reconvergence
                // block: resume whoever was parked last.
                let Some(p) = stack.pop() else { break };
                block = p.block;
                reconv = p.reconv;
                cx.set_mask(p.mask);
                continue;
            }
            let b = &kernel.blocks[block];
            let na = cx.count as f64;
            acc.0 += b.cost.0 * na;
            acc.1 += b.cost.1 * na;
            acc.2 += b.cost.2 * na;
            if cx.dense {
                for s in &b.steps {
                    (s.run)(&mut cx)?;
                }
            } else {
                for s in &b.steps {
                    run_blended(&mut cx, s)?;
                }
            }
            match &b.term {
                Term::Jump { target, back_edge } => {
                    if *back_edge {
                        budget = budget.checked_sub(1).ok_or(NativeAbort::Error)?;
                    }
                    block = *target;
                }
                Term::Ret => {
                    // A return inside a divergent region makes the exit the
                    // region's reconvergence block, so these lanes are done.
                    debug_assert_eq!(reconv, EXIT);
                    block = reconv;
                }
                Term::Abort => return Err(NativeAbort::Error),
                Term::Branch {
                    jump_when,
                    taken,
                    taken_back_edge,
                    exit_chain,
                    fall,
                    reconv: join,
                } => {
                    let n_active = cx.n_active;
                    let sb = &cx.regs.bools[scratch..scratch + n_active];
                    // Lanes that jump. The dense count is the uniform fast
                    // path; the bit row is only built on disagreement.
                    let jumping = if cx.dense {
                        let jumpers = sb.iter().filter(|b| **b == *jump_when).count();
                        if jumpers == n_active {
                            cx.mask
                        } else if jumpers == 0 {
                            0
                        } else {
                            lane_bits(sb, *jump_when)
                        }
                    } else {
                        lane_bits(sb, *jump_when) & cx.mask
                    };
                    if jumping != 0 && *taken_back_edge {
                        budget = budget.checked_sub(1).ok_or(NativeAbort::Error)?;
                    }
                    let staying = cx.mask & !jumping;
                    if staying == 0 {
                        block = *taken;
                    } else if jumping == 0 {
                        block = *fall;
                    } else if let Some(chain) = exit_chain.filter(|_| {
                        // Outside any divergent region, a lane prefix left.
                        reconv == EXIT && staying & staying.wrapping_add(1) == 0
                    }) {
                        // Tail guard: the leaving suffix only pays the exit
                        // chain; the prefix stays dense.
                        let jumpers = jumping.count_ones() as f64;
                        acc.0 += chain.0 * jumpers;
                        acc.1 += chain.1 * jumpers;
                        acc.2 += chain.2 * jumpers;
                        cx.set_mask(staying);
                        block = *fall;
                    } else {
                        diverged = true;
                        if *join != reconv {
                            stack.push(Pending {
                                block: *join,
                                mask: cx.mask,
                                reconv,
                            });
                        }
                        if *fall != *join {
                            stack.push(Pending {
                                block: *fall,
                                mask: staying,
                                reconv: *join,
                            });
                        }
                        // When `taken` is the join block its lanes simply
                        // wait there: the loop head resumes the fall side.
                        block = *taken;
                        reconv = *join;
                        cx.set_mask(jumping);
                    }
                }
            }
        }
        stats.flops += acc.0;
        stats.global_bytes += acc.1;
        stats.ops += acc.2;
        Ok(diverged)
    }

    /// Undo every buffer store of an aborted batch (newest first).
    pub(crate) fn rollback(&mut self, args: &mut [ArgBinding<'_>]) {
        self.undo.rollback(args);
    }
}

// ---------------------------------------------------------------------------
// Native compilation: eligibility, dataflow typing, block assembly
// ---------------------------------------------------------------------------

use crate::compile::Reg;

/// The storage kind of a literal value (`None` for `uint`, which the native
/// tier does not model).
fn kind_of_value(v: Value) -> Option<NKind> {
    match v {
        Value::Float(_) => Some(NKind::F32),
        Value::Double(_) => Some(NKind::F64),
        Value::Int(_) => Some(NKind::I32),
        Value::Bool(_) => Some(NKind::Bool),
        Value::Uint(_) => None,
    }
}

/// Buffer parameters of the kernel: interned name id → (argument slot,
/// pointee type).
type BufferMap = HashMap<u16, (u16, ScalarType)>;

/// Resolve a register read at a program point: its concrete kind, or the
/// human-readable reason the kernel is native-ineligible.
fn read_kind(st: &[Cell], reg: Reg) -> Result<(NKind, bool), String> {
    match st[reg as usize] {
        Cell::Known { kind, iota } => Ok((kind, iota)),
        Cell::Unset => Err(format!(
            "register r{reg} is read before any write on some path"
        )),
        Cell::Conflict => Err(format!(
            "register r{reg} holds differently-typed values on merging paths"
        )),
    }
}

/// The abstract write effect of one instruction on the typing state. Reads
/// are not validated here (the fixpoint visits blocks whose inputs are still
/// improving); the build pass validates them against the fixed entry states.
fn transfer(st: &mut [Cell], op: &Op, buffers: &BufferMap) {
    match op {
        Op::Const { dst, value } => {
            st[*dst as usize] =
                Cell::known(kind_of_value(*value).expect("uint constants are pre-rejected"));
        }
        Op::Mov { dst, src } => st[*dst as usize] = st[*src as usize],
        Op::Cast { dst, src, ty } => {
            let kind = NKind::of(*ty).expect("uint casts are pre-rejected");
            let iota = *ty == ScalarType::Int
                && matches!(
                    st[*src as usize],
                    Cell::Known {
                        kind: NKind::I32,
                        iota: true
                    }
                );
            st[*dst as usize] = Cell::Known { kind, iota };
        }
        Op::Bin { op, dst, lhs, rhs } => {
            st[*dst as usize] = if op.is_comparison() {
                Cell::known(NKind::Bool)
            } else {
                match (st[*lhs as usize], st[*rhs as usize]) {
                    (Cell::Conflict, _) | (_, Cell::Conflict) => Cell::Conflict,
                    (Cell::Unset, _) | (_, Cell::Unset) => Cell::Unset,
                    (Cell::Known { kind: a, .. }, Cell::Known { kind: b, .. }) => Cell::known(
                        NKind::of(a.scalar().unify(b.scalar()))
                            .expect("unifying non-uint kinds never yields uint"),
                    ),
                }
            };
        }
        Op::Neg { dst, src } => {
            st[*dst as usize] = match st[*src as usize] {
                Cell::Known { kind, .. } => Cell::known(kind),
                other => other,
            };
        }
        Op::Not { dst, .. } => st[*dst as usize] = Cell::known(NKind::Bool),
        Op::BufLoad { dst, name, .. } => {
            let (_, pointee) = buffers[name];
            st[*dst as usize] =
                Cell::known(NKind::of(pointee).expect("uint buffers are pre-rejected"));
        }
        Op::StencilGet { dst, .. } => st[*dst as usize] = Cell::known(NKind::F32),
        Op::CallBuiltin {
            builtin,
            dst,
            args,
            nargs,
        } => {
            let mut tys = Vec::with_capacity(*nargs as usize);
            let mut poison = None;
            for k in 0..*nargs as usize {
                match st[*args as usize + k] {
                    Cell::Known { kind, .. } => tys.push(kind.scalar()),
                    other => {
                        poison = Some(other);
                        break;
                    }
                }
            }
            st[*dst as usize] = poison.unwrap_or_else(|| {
                Cell::known(
                    NKind::of(builtin.result_type(&tys))
                        .expect("math builtins never return uint without uint arguments"),
                )
            });
        }
        Op::WorkItem { dst, builtin } => {
            // `get_global_id`/`get_local_id` hold `first_gid + lane` in every
            // lane of an iota-verified batch (the per-batch check asserts
            // `local_id == global_id`).
            st[*dst as usize] = Cell::Known {
                kind: NKind::I32,
                iota: matches!(builtin, Builtin::GetGlobalId | Builtin::GetLocalId),
            };
        }
        Op::BufStore { .. }
        | Op::Jump { .. }
        | Op::JumpIfFalse { .. }
        | Op::BinJumpIfFalse { .. }
        | Op::JumpIfTrue { .. }
        | Op::Call { .. }
        | Op::Return { .. }
        | Op::ReturnVoid
        | Op::MissingReturn { .. }
        | Op::OrphanFlow
        | Op::FailUnbound { .. }
        | Op::Nop => {}
    }
}

/// Reject shapes the native model cannot reproduce bit-exactly, before any
/// per-block work. The returned string is the (cached) ineligibility reason;
/// the kernel permanently falls back to the scalar VM.
fn check_eligible(
    unit: &CompiledUnit,
    func: &crate::compile::CompiledFunction,
    buffers: &BufferMap,
) -> Result<(), String> {
    for op in &func.code {
        match op {
            Op::Const {
                value: Value::Uint(_),
                ..
            } => return Err("uses a uint literal".to_string()),
            Op::Cast {
                ty: ScalarType::Uint,
                ..
            } => return Err("casts to uint".to_string()),
            Op::Bin {
                op: BinOp::And | BinOp::Or,
                ..
            } => return Err("carries a non-lowered logical operator".to_string()),
            Op::BufLoad { name, .. } | Op::BufStore { name, .. } if !buffers.contains_key(name) => {
                return Err(format!(
                    "buffer `{}` is resolved dynamically at runtime",
                    unit.buffer_names[*name as usize]
                ));
            }
            Op::Call { func: callee, .. } => {
                return Err(format!(
                    "calls function `{}` through a VM frame",
                    unit.functions[*callee as usize].name
                ));
            }
            Op::CallBuiltin { builtin, .. }
                if builtin.is_work_item_fn() || builtin.is_stencil_fn() =>
            {
                return Err("carries a non-math builtin call".to_string())
            }
            Op::FailUnbound { name } => {
                return Err(format!(
                    "reads unbound name `{}`",
                    unit.buffer_names[*name as usize]
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Successor blocks of the span `code[start..end]`, resolved through the
/// leader → block map.
fn successors(code: &[Op], end: usize, block_at: &HashMap<usize, usize>) -> Vec<usize> {
    match &code[end - 1] {
        Op::Jump { target } => vec![block_at[&(*target as usize)]],
        Op::JumpIfFalse { target, .. }
        | Op::JumpIfTrue { target, .. }
        | Op::BinJumpIfFalse { target, .. } => {
            vec![block_at[&(*target as usize)], block_at[&end]]
        }
        Op::Return { .. } | Op::ReturnVoid | Op::MissingReturn { .. } | Op::OrphanFlow => vec![],
        _ => vec![block_at[&end]],
    }
}

/// The reconvergence block of every block: its immediate post-dominator in
/// the block graph `succs`, with [`EXIT`] as the virtual exit every
/// successor-less block (return, abort) leads to. Also `EXIT` for blocks
/// that cannot reach the exit at all (a loop with no way out), which is
/// always a safe answer: the sides of a branch then never rejoin.
fn reconvergence(succs: &[Vec<usize>]) -> Vec<usize> {
    let exit = succs.len();
    let words = exit / 64 + 1;
    let bit = |set: &[u64], b: usize| set[b / 64] >> (b % 64) & 1 != 0;
    // Post-dominator sets as bit rows over `0..=exit`, greatest fixpoint of
    // `pdom(b) = {b} ∪ ⋂ pdom(succ)`.
    let mut full = vec![0u64; words];
    for b in 0..=exit {
        full[b / 64] |= 1 << (b % 64);
    }
    let mut pdom = vec![full; exit + 1];
    pdom[exit] = vec![0u64; words];
    pdom[exit][exit / 64] |= 1 << (exit % 64);
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..exit).rev() {
            let mut set = if succs[b].is_empty() {
                pdom[exit].clone()
            } else {
                let mut set = pdom[succs[b][0]].clone();
                for &s in &succs[b][1..] {
                    for (w, o) in set.iter_mut().zip(&pdom[s]) {
                        *w &= *o;
                    }
                }
                set
            };
            set[b / 64] |= 1 << (b % 64);
            if set != pdom[b] {
                pdom[b] = set;
                changed = true;
            }
        }
    }
    // The immediate post-dominator is the strict post-dominator whose own
    // set is exactly the strict set.
    (0..exit)
        .map(|b| {
            let mut strict = pdom[b].clone();
            strict[b / 64] &= !(1 << (b % 64));
            match (0..=exit).find(|&c| bit(&strict, c) && pdom[c] == strict) {
                Some(c) if c < exit => c,
                _ => EXIT,
            }
        })
        .collect()
}

/// Compile one kernel of the unit into closure-threaded native blocks, or
/// explain why it is ineligible. Deterministic and side-effect free; the
/// result is cached per [`crate::Program`] in [`KernelNativeState`].
pub(crate) fn compile_kernel(
    unit: &CompiledUnit,
    kernel_index: usize,
) -> Result<NativeKernel, String> {
    use std::fmt::Write as _;
    let func = &unit.functions[kernel_index];

    let mut buffers: BufferMap = HashMap::new();
    let mut scalar_params = Vec::new();
    for (slot, p) in func.params.iter().enumerate() {
        match p.ty {
            Type::GlobalPtr(s) => {
                if NKind::of(s).is_none() {
                    return Err(format!("buffer `{}` has uint elements", p.name));
                }
                buffers.insert(p.name_id, (slot as u16, s));
            }
            Type::Scalar(s) => {
                if NKind::of(s).is_none() {
                    return Err(format!("scalar parameter `{}` is uint", p.name));
                }
                scalar_params.push((slot, s));
            }
            Type::Void => unreachable!("void parameters rejected by the parser"),
        }
    }
    check_eligible(unit, func, &buffers)?;

    let leaders = func.block_leaders();
    let block_at: HashMap<usize, usize> =
        leaders.iter().enumerate().map(|(b, &pc)| (pc, b)).collect();
    let spans: Vec<(usize, usize)> = leaders
        .iter()
        .enumerate()
        .map(|(b, &s)| (s, leaders.get(b + 1).copied().unwrap_or(func.code.len())))
        .collect();

    let succs: Vec<Vec<usize>> = spans
        .iter()
        .map(|&(_, e)| successors(&func.code, e, &block_at))
        .collect();
    let reconv = reconvergence(&succs);

    // Entry typing state of block 0: scalar parameters and the preloaded
    // constant pool are Known, everything else Unset (every read the VM can
    // execute is dominated by a write; anything the merge cannot prove falls
    // back with a reason).
    let mut init = vec![Cell::Unset; func.num_regs as usize];
    for &(slot, s) in &scalar_params {
        init[slot] = Cell::known(NKind::of(s).expect("checked above"));
    }
    for &(reg, value) in &func.const_pool {
        init[reg as usize] =
            Cell::known(kind_of_value(value).ok_or_else(|| "uses a uint literal".to_string())?);
    }

    // Monotone fixpoint over the block graph (Unset → Known → Conflict, iota
    // only decays), so the worklist terminates.
    let mut entry: Vec<Option<Vec<Cell>>> = vec![None; spans.len()];
    entry[0] = Some(init);
    let mut work = vec![0usize];
    while let Some(b) = work.pop() {
        let mut st = entry[b].clone().expect("worklist blocks have entry states");
        let (s, e) = spans[b];
        for op in &func.code[s..e] {
            transfer(&mut st, op, &buffers);
        }
        for &succ in &succs[b] {
            let merged: Vec<Cell> = match &entry[succ] {
                None => st.clone(),
                Some(old) => old
                    .iter()
                    .zip(&st)
                    .map(|(a, b)| Cell::merge(*a, *b))
                    .collect(),
            };
            if entry[succ].as_ref() != Some(&merged) {
                entry[succ] = Some(merged);
                work.push(succ);
            }
        }
    }

    // Build pass: validate every read against the fixed entry states and
    // emit one monomorphized closure per instruction.
    let scratch = func.num_regs as usize * BATCH_LANES;
    let mut blocks = Vec::with_capacity(spans.len());
    let mut uses_iota = false;
    let mut listing = String::new();
    for (b, &(s, e)) in spans.iter().enumerate() {
        let Some(state0) = &entry[b] else {
            // Unreachable at runtime (e.g. code after an unconditional
            // return); keep the block index dense.
            let _ = writeln!(listing, "b{b} @ pc {s}..{}: (unreachable)", e - 1);
            blocks.push(Block {
                steps: Vec::new(),
                cost: (0.0, 0.0, 0.0),
                term: Term::Abort,
            });
            continue;
        };
        let mut st = state0.clone();
        let mut cost = (0.0f64, 0.0f64, 0.0f64);
        for c in &func.costs[s..e] {
            cost.0 += c.flops as f64;
            cost.1 += c.bytes as f64;
            cost.2 += c.ops as f64;
        }
        let _ = writeln!(
            listing,
            "b{b} @ pc {s}..{} cost(flops={}, bytes={}, ops={}):",
            e - 1,
            cost.0,
            cost.1,
            cost.2
        );
        let mut steps = Vec::new();
        let mut term = None;
        for (pc, op) in func.code[s..e]
            .iter()
            .enumerate()
            .map(|(k, op)| (s + k, op))
        {
            match op {
                Op::Jump { target } => {
                    let t = *target as usize;
                    let back = t <= pc;
                    let _ = writeln!(
                        listing,
                        "  {pc:>4}  jump -> b{}{}",
                        block_at[&t],
                        if back { " (back edge)" } else { "" }
                    );
                    term = Some(Term::Jump {
                        target: block_at[&t],
                        back_edge: back,
                    });
                }
                Op::JumpIfFalse { cond, target } => {
                    steps.push(Step::masked(build_truthy_step(&st, *cond, scratch)?));
                    term = Some(branch_term(
                        func,
                        pc,
                        *target,
                        &succs[b],
                        false,
                        reconv[b],
                        &mut listing,
                    ));
                }
                Op::JumpIfTrue { cond, target } => {
                    steps.push(Step::masked(build_truthy_step(&st, *cond, scratch)?));
                    term = Some(branch_term(
                        func,
                        pc,
                        *target,
                        &succs[b],
                        true,
                        reconv[b],
                        &mut listing,
                    ));
                }
                Op::BinJumpIfFalse {
                    op: bop,
                    lhs,
                    rhs,
                    target,
                } => {
                    steps.push(Step::masked(build_cmp_step(
                        &st, *bop, *lhs, *rhs, scratch,
                    )?));
                    term = Some(branch_term(
                        func,
                        pc,
                        *target,
                        &succs[b],
                        false,
                        reconv[b],
                        &mut listing,
                    ));
                }
                Op::Return { .. } | Op::ReturnVoid => {
                    let _ = writeln!(listing, "  {pc:>4}  return");
                    term = Some(Term::Ret);
                }
                Op::MissingReturn { .. } | Op::OrphanFlow => {
                    let _ = writeln!(listing, "  {pc:>4}  abort ({op:?})");
                    term = Some(Term::Abort);
                }
                Op::Nop => {
                    let _ = writeln!(listing, "  {pc:>4}  nop");
                }
                other => {
                    let (f, note) = build_step(other, &st, &buffers, &mut uses_iota)?;
                    let _ = writeln!(listing, "  {pc:>4}  {other:?}{note}");
                    steps.push(f);
                    transfer(&mut st, other, &buffers);
                }
            }
        }
        let term = term.unwrap_or_else(|| {
            let _ = writeln!(listing, "        fall -> b{}", block_at[&e]);
            Term::Jump {
                target: block_at[&e],
                back_edge: false,
            }
        });
        blocks.push(Block { steps, cost, term });
    }

    Ok(NativeKernel {
        blocks,
        num_regs: func.num_regs as usize,
        uses_iota,
        pool: func.const_pool.clone(),
        scalar_params,
        listing,
    })
}

/// Build a [`Term::Branch`] for a conditional at `pc` jumping to `target`
/// when the scratch condition equals `jump_when`; `succ` holds the branch
/// block's `[taken, fall]` successors and `reconv` its reconvergence block.
fn branch_term(
    func: &crate::compile::CompiledFunction,
    pc: usize,
    target: u32,
    succ: &[usize],
    jump_when: bool,
    reconv: usize,
    listing: &mut String,
) -> Term {
    use std::fmt::Write as _;
    let t = target as usize;
    let back = t <= pc;
    let chain = if back { None } else { exit_chain_cost(func, t) };
    let join = if reconv == EXIT {
        "exit".to_string()
    } else {
        format!("b{reconv}")
    };
    let _ = writeln!(
        listing,
        "  {pc:>4}  branch(when {jump_when}) -> b{} else b{}{}{}, reconverge -> {join}",
        succ[0],
        succ[1],
        if back { " (back edge)" } else { "" },
        if chain.is_some() { " (exit chain)" } else { "" }
    );
    Term::Branch {
        jump_when,
        taken: succ[0],
        taken_back_edge: back,
        exit_chain: chain,
        fall: succ[1],
        reconv,
    }
}

/// If `pc` starts a trivial exit chain — forward `Jump`s and `Nop`s ending in
/// a `Return`/`ReturnVoid` — return the summed `(flops, bytes, ops)` cost of
/// executing it, which is what the scalar VM charges a lane that takes this
/// path. `None` for anything with side effects or backward edges.
fn exit_chain_cost(
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

// ---------------------------------------------------------------------------
// Step construction
// ---------------------------------------------------------------------------

/// First lane index of a register's row in the SoA register file.
#[inline(always)]
fn row(reg: Reg) -> usize {
    reg as usize * BATCH_LANES
}

/// Active-prefix row copy within one kind's array (a pure register step of
/// kind `k` into row `d`).
fn copy_row(k: NKind, s: usize, d: usize) -> StepFn {
    match k {
        NKind::F32 => step(move |cx| {
            cx.regs.f32s.copy_within(s..s + cx.n_active, d);
            Ok(())
        }),
        NKind::F64 => step(move |cx| {
            cx.regs.f64s.copy_within(s..s + cx.n_active, d);
            Ok(())
        }),
        NKind::I32 => step(move |cx| {
            cx.regs.i32s.copy_within(s..s + cx.n_active, d);
            Ok(())
        }),
        NKind::Bool => step(move |cx| {
            cx.regs.bools.copy_within(s..s + cx.n_active, d);
            Ok(())
        }),
    }
}

/// Per-lane fallback binary op through the VM's exact evaluator (used for
/// mixed-kind operands and fallible shapes like float `%`); active lanes
/// only, aborting the batch on the first error.
fn generic_bin(bop: BinOp, lk: NKind, rk: NKind, d: usize, l: usize, r: usize) -> StepFn {
    let dk = if bop.is_comparison() {
        NKind::Bool
    } else {
        NKind::of(lk.scalar().unify(rk.scalar()))
            .expect("unifying non-uint kinds never yields uint")
    };
    step(move |cx| {
        for li in cx.lanes() {
            let a = read_value(cx.regs, lk, l, li);
            let b = read_value(cx.regs, rk, r, li);
            match vm_eval_binary(bop, a, b) {
                Ok(v) => write_value(cx.regs, dk, d, li, v),
                Err(_) => return Err(NativeAbort::Error),
            }
        }
        Ok(())
    })
}

/// `f64`-domain evaluation of an all-`f32` unary math builtin (exactly
/// [`Builtin::eval_math`]'s computation).
fn unary_math(b: Builtin) -> Option<fn(f64) -> f64> {
    Some(match b {
        Builtin::Sqrt => f64::sqrt,
        Builtin::Fabs => f64::abs,
        Builtin::Exp => f64::exp,
        Builtin::Log => f64::ln,
        Builtin::Sin => f64::sin,
        Builtin::Cos => f64::cos,
        Builtin::Floor => f64::floor,
        Builtin::Ceil => f64::ceil,
        _ => None?,
    })
}

/// `f64`-domain evaluation of an all-`f32` binary math builtin.
fn binary_math(b: Builtin) -> Option<fn(f64, f64) -> f64> {
    Some(match b {
        Builtin::Pow => f64::powf,
        Builtin::Fmin | Builtin::Min => f64::min,
        Builtin::Fmax | Builtin::Max => f64::max,
        Builtin::Atan2 => f64::atan2,
        _ => None?,
    })
}

/// `f64`-domain evaluation of an all-`f32` ternary math builtin.
fn ternary_math(b: Builtin) -> Option<fn(f64, f64, f64) -> f64> {
    Some(match b {
        Builtin::Fma => f64::mul_add,
        Builtin::Clamp => f64::clamp,
        _ => None?,
    })
}

/// Condition step of `JumpIfFalse`/`JumpIfTrue`: C truthiness of the
/// condition register into the scratch bool row (the dense prefix: the
/// terminator reads only the active lanes' outcomes).
fn build_truthy_step(st: &[Cell], cond: Reg, scratch: usize) -> Result<StepFn, String> {
    let (k, _) = read_kind(st, cond)?;
    let c = row(cond);
    Ok(match k {
        NKind::F32 => step(move |cx| {
            let n = cx.n_active;
            let regs = &mut *cx.regs;
            for (dv, sv) in regs.bools[scratch..scratch + n]
                .iter_mut()
                .zip(&regs.f32s[c..c + n])
            {
                *dv = *sv != 0.0;
            }
            Ok(())
        }),
        NKind::F64 => step(move |cx| {
            let n = cx.n_active;
            let regs = &mut *cx.regs;
            for (dv, sv) in regs.bools[scratch..scratch + n]
                .iter_mut()
                .zip(&regs.f64s[c..c + n])
            {
                *dv = *sv != 0.0;
            }
            Ok(())
        }),
        NKind::I32 => step(move |cx| {
            let n = cx.n_active;
            let regs = &mut *cx.regs;
            for (dv, sv) in regs.bools[scratch..scratch + n]
                .iter_mut()
                .zip(&regs.i32s[c..c + n])
            {
                *dv = *sv != 0;
            }
            Ok(())
        }),
        NKind::Bool => step(move |cx| {
            cx.regs.bools.copy_within(c..c + cx.n_active, scratch);
            Ok(())
        }),
    })
}

/// Condition step of `BinJumpIfFalse`: evaluate `lhs <op> rhs` and write the
/// result's truthiness into the scratch bool row. Same-kind comparisons are
/// monomorphized tight loops; anything else goes through the VM evaluator.
fn build_cmp_step(
    st: &[Cell],
    bop: BinOp,
    lhs: Reg,
    rhs: Reg,
    scratch: usize,
) -> Result<StepFn, String> {
    let (lk, _) = read_kind(st, lhs)?;
    let (rk, _) = read_kind(st, rhs)?;
    let l = row(lhs);
    let r = row(rhs);
    macro_rules! cmp_loop {
        ($field:ident, $op:tt) => {
            step(move |cx| {
                let n = cx.n_active;
                let regs = &mut *cx.regs;
                if n == BATCH_LANES {
                    for (dv, (av, bv)) in regs.bools[scratch..scratch + BATCH_LANES]
                        .iter_mut()
                        .zip(
                            regs.$field[l..l + BATCH_LANES]
                                .iter()
                                .zip(&regs.$field[r..r + BATCH_LANES]),
                        )
                    {
                        *dv = *av $op *bv;
                    }
                } else {
                    for li in 0..n {
                        regs.bools[scratch + li] = regs.$field[l + li] $op regs.$field[r + li];
                    }
                }
                Ok(())
            })
        };
    }
    macro_rules! cmp_kind {
        ($field:ident) => {
            match bop {
                BinOp::Eq => cmp_loop!($field, ==),
                BinOp::Ne => cmp_loop!($field, !=),
                BinOp::Lt => cmp_loop!($field, <),
                BinOp::Le => cmp_loop!($field, <=),
                BinOp::Gt => cmp_loop!($field, >),
                BinOp::Ge => cmp_loop!($field, >=),
                _ => unreachable!("guarded by is_comparison"),
            }
        };
    }
    if bop.is_comparison() {
        // Widening f32 → f64 is exact, so comparing the raw f32s (or i32s)
        // equals the VM's widened comparisons.
        match (lk, rk) {
            (NKind::F32, NKind::F32) => return Ok(cmp_kind!(f32s)),
            (NKind::F64, NKind::F64) => return Ok(cmp_kind!(f64s)),
            (NKind::I32, NKind::I32) => return Ok(cmp_kind!(i32s)),
            _ => {}
        }
    }
    Ok(step(move |cx| {
        for li in cx.lanes() {
            let a = read_value(cx.regs, lk, l, li);
            let b = read_value(cx.regs, rk, r, li);
            match vm_eval_binary(bop, a, b) {
                Ok(v) => cx.regs.bools[scratch + li] = v.as_bool(),
                Err(_) => return Err(NativeAbort::Error),
            }
        }
        Ok(())
    }))
}

/// The first active lane's address of an `i32` address row whose active
/// lanes are one run holding consecutive addresses (checked at runtime, one
/// vectorisable compare), or `None` when they are not — or the address is
/// negative, so the per-lane path reports the error. Single-lane batches
/// stay on the per-lane path too: a one-element span is no faster.
#[inline]
fn contiguous_base(cx: &ExecCtx<'_, '_>, idx_row: usize) -> Option<usize> {
    if !cx.hazards || !cx.run {
        return None;
    }
    let addrs = &cx.regs.i32s[idx_row + cx.lo..idx_row + cx.n_active];
    let a0 = addrs[0];
    // The range bound keeps `a0 + ℓ` from wrapping.
    if !(0..=i32::MAX - BATCH_LANES as i32).contains(&a0) {
        return None;
    }
    let mut ok = true;
    for (l, a) in addrs.iter().enumerate() {
        ok &= *a == a0 + l as i32;
    }
    ok.then_some(a0 as usize)
}

/// Load consecutive elements into the active run `lo..n_active` of row `d`,
/// `start` being lane `lo`'s address: one hazard admission and one bounds
/// check cover the batch.
fn load_f32_span(
    cx: &mut ExecCtx<'_, '_>,
    slot: usize,
    d: usize,
    start: usize,
) -> Result<(), NativeAbort> {
    let (lo, hi) = (cx.lo, cx.n_active);
    if cx.hazards {
        cx.slots[slot].load(Some(start as i64 - lo as i64))?;
    }
    let ArgBinding::Buffer(BufferView::F32(buf)) = &cx.args[slot] else {
        return Err(NativeAbort::Error);
    };
    let Some(src) = buf.get(start..start + (hi - lo)) else {
        return Err(NativeAbort::Error);
    };
    cx.regs.f32s[d + lo..d + hi].copy_from_slice(src);
    Ok(())
}

/// Store the active run `lo..n_active` of row `s` to consecutive elements,
/// `start` being lane `lo`'s address, logging the overwritten span for
/// rollback.
fn store_f32_span(
    cx: &mut ExecCtx<'_, '_>,
    slot: u16,
    sk: NKind,
    s: usize,
    start: usize,
) -> Result<(), NativeAbort> {
    let n = cx.n_active - cx.lo;
    let s = s + cx.lo;
    if cx.hazards {
        cx.slots[slot as usize].store(Some(start as i64 - cx.lo as i64))?;
    }
    // Convert the source row exactly like `BufferView::store`
    // (`as_f64() as f32`).
    let mut vals = [0.0f32; BATCH_LANES];
    match sk {
        NKind::F32 => vals[..n].copy_from_slice(&cx.regs.f32s[s..s + n]),
        NKind::F64 => {
            for (v, x) in vals[..n].iter_mut().zip(&cx.regs.f64s[s..s + n]) {
                *v = *x as f32;
            }
        }
        NKind::I32 => {
            for (v, x) in vals[..n].iter_mut().zip(&cx.regs.i32s[s..s + n]) {
                *v = (*x as f64) as f32;
            }
        }
        NKind::Bool => {
            for (v, x) in vals[..n].iter_mut().zip(&cx.regs.bools[s..s + n]) {
                *v = if *x { 1.0 } else { 0.0 };
            }
        }
    }
    let ArgBinding::Buffer(BufferView::F32(buf)) = &mut cx.args[slot as usize] else {
        return Err(NativeAbort::Error);
    };
    let Some(dst) = buf.get_mut(start..start + n) else {
        return Err(NativeAbort::Error);
    };
    cx.undo.push_span(slot, start, dst);
    dst.copy_from_slice(&vals[..n]);
    Ok(())
}

/// Per-lane buffer load through the dynamically-typed path: any address
/// kind, any pointee, any address pattern, any lane mask.
fn load_lanes(
    cx: &mut ExecCtx<'_, '_>,
    slot: usize,
    pk: NKind,
    ik: NKind,
    i: usize,
    d: usize,
) -> Result<(), NativeAbort> {
    for li in cx.lanes() {
        let addr = addr_of(cx.regs, ik, i, li);
        if addr < 0 {
            return Err(NativeAbort::Error);
        }
        if cx.hazards {
            cx.slots[slot].load(Some(addr - li as i64))?;
        }
        let addr = addr as usize;
        let ArgBinding::Buffer(view) = &cx.args[slot] else {
            return Err(NativeAbort::Error);
        };
        match view {
            BufferView::F32(buf) => match buf.get(addr) {
                Some(v) => cx.regs.f32s[d + li] = *v,
                None => return Err(NativeAbort::Error),
            },
            other => match other.load(addr) {
                Some(v) => write_value(cx.regs, pk, d, li, v),
                None => return Err(NativeAbort::Error),
            },
        }
    }
    Ok(())
}

/// Per-lane buffer store, the twin of [`load_lanes`].
fn store_lanes(
    cx: &mut ExecCtx<'_, '_>,
    slot: u16,
    ik: NKind,
    i: usize,
    sk: NKind,
    s: usize,
) -> Result<(), NativeAbort> {
    let slot_us = slot as usize;
    for li in cx.lanes() {
        let addr = addr_of(cx.regs, ik, i, li);
        if addr < 0 {
            return Err(NativeAbort::Error);
        }
        if cx.hazards {
            cx.slots[slot_us].store(Some(addr - li as i64))?;
        }
        let addr = addr as usize;
        let v = read_value(cx.regs, sk, s, li);
        let ArgBinding::Buffer(view) = &mut cx.args[slot_us] else {
            return Err(NativeAbort::Error);
        };
        match view {
            BufferView::F32(buf) => {
                let Some(p) = buf.get_mut(addr) else {
                    return Err(NativeAbort::Error);
                };
                cx.undo.push_f32(slot, addr, *p);
                *p = v.as_f64() as f32;
            }
            other => {
                let Some(old) = other.load(addr) else {
                    return Err(NativeAbort::Error);
                };
                cx.undo.push_elem(slot, addr, old);
                if !other.store(addr, v) {
                    return Err(NativeAbort::Error);
                }
            }
        }
    }
    Ok(())
}

/// `get(dx, dy)` for one lane through the engines' shared [`stencil_get`]
/// (column policies and every error live there).
#[inline]
fn stencil_get_lane(
    cx: &mut ExecCtx<'_, '_>,
    ctx: StencilCtx,
    d: usize,
    li: usize,
    dx: i64,
    dy: i64,
) -> Result<(), NativeAbort> {
    match stencil_get(ctx, cx.args, cx.items[li].global_id, dx, dy) {
        Ok(v) => {
            write_value(cx.regs, NKind::F32, d, li, v);
            Ok(())
        }
        Err(_) => Err(NativeAbort::Error),
    }
}

/// `get(dx, dy)` with lane-uniform offsets over linear global ids: the active
/// run splits into matrix-row segments, and within a segment the lanes whose
/// column `col + dx` stays inside the row read one contiguous slice of the
/// input row `row + halo + dy`. Only the ≤ |dx| lanes per segment that leave
/// the row go through [`stencil_get`], which owns the boundary policies.
fn stencil_get_rows(
    cx: &mut ExecCtx<'_, '_>,
    ctx: StencilCtx,
    d: usize,
    dx: i64,
    dy: i64,
) -> Result<(), NativeAbort> {
    if dy < -ctx.halo || dy > ctx.halo {
        // "exceeds the declared halo" at replay
        return Err(NativeAbort::Error);
    }
    let n = cx.n_active;
    let gid0 = cx.items[0].global_id;
    let w = ctx.width as usize;
    let mut lane = cx.lo;
    while lane < n {
        let row = (gid0 + lane) / w;
        let col = (gid0 + lane) % w;
        let seg = (w - col).min(n - lane);
        // Segment lanes `lo..hi` (relative to `lane`) stay inside the row.
        let lo = (-dx - col as i64).clamp(0, seg as i64) as usize;
        let hi = (ctx.width - dx - col as i64).clamp(lo as i64, seg as i64) as usize;
        if lo < hi {
            // Non-negative: `dy >= -halo` and `col + lo + dx >= 0`.
            let start =
                ((row as i64 + ctx.halo + dy) * ctx.width + (col + lo) as i64 + dx) as usize;
            let ArgBinding::Buffer(BufferView::F32(buf)) = &cx.args[ctx.in_slot] else {
                return Err(NativeAbort::Error);
            };
            let Some(src) = buf.get(start..start + (hi - lo)) else {
                return Err(NativeAbort::Error);
            };
            cx.regs.f32s[d + lane + lo..d + lane + hi].copy_from_slice(src);
        }
        for li in (lane..lane + lo).chain(lane + hi..lane + seg) {
            stencil_get_lane(cx, ctx, d, li, dx, dy)?;
        }
        lane += seg;
    }
    Ok(())
}

/// Compile one non-control instruction into a step closure, using the typing
/// state `st` at its program point. Returns the step plus a listing
/// annotation for the fast-path shapes.
#[allow(clippy::too_many_lines)]
fn build_step(
    op: &Op,
    st: &[Cell],
    buffers: &BufferMap,
    uses_iota: &mut bool,
) -> Result<(Step, &'static str), String> {
    Ok(match op {
        Op::Const { dst, value } => {
            let d = row(*dst);
            let (k, f) = match *value {
                Value::Float(x) => (
                    NKind::F32,
                    step(move |cx| {
                        cx.regs.f32s[d..d + cx.n_active].fill(x);
                        Ok(())
                    }),
                ),
                Value::Double(x) => (
                    NKind::F64,
                    step(move |cx| {
                        cx.regs.f64s[d..d + cx.n_active].fill(x);
                        Ok(())
                    }),
                ),
                Value::Int(x) => (
                    NKind::I32,
                    step(move |cx| {
                        cx.regs.i32s[d..d + cx.n_active].fill(x);
                        Ok(())
                    }),
                ),
                Value::Bool(x) => (
                    NKind::Bool,
                    step(move |cx| {
                        cx.regs.bools[d..d + cx.n_active].fill(x);
                        Ok(())
                    }),
                ),
                Value::Uint(_) => return Err("uses a uint literal".to_string()),
            };
            (Step::pure(k, d, f), "")
        }
        Op::Mov { dst, src } => {
            let (k, _) = read_kind(st, *src)?;
            (
                Step::pure(k, row(*dst), copy_row(k, row(*src), row(*dst))),
                "",
            )
        }
        Op::Cast { dst, src, ty } => {
            let tk = NKind::of(*ty).expect("uint casts pre-rejected");
            let (sk, _) = read_kind(st, *src)?;
            let d = row(*dst);
            let s = row(*src);
            if sk == tk {
                return Ok((Step::pure(sk, d, copy_row(sk, s, d)), " ; identity"));
            }
            macro_rules! conv {
                ($srcf:ident, $dstf:ident, |$x:ident| $e:expr) => {
                    step(move |cx| {
                        let n = cx.n_active;
                        let regs = &mut *cx.regs;
                        for (dv, sv) in regs.$dstf[d..d + n].iter_mut().zip(&regs.$srcf[s..s + n]) {
                            let $x = *sv;
                            *dv = $e;
                        }
                        Ok(())
                    })
                };
            }
            // Each arm mirrors `Value::convert_to` exactly (`as_f64 as f32`,
            // saturating `as_i64 as i32`, C truthiness).
            let f = match (sk, tk) {
                (NKind::I32, NKind::F32) => conv!(i32s, f32s, |x| (x as f64) as f32),
                (NKind::I32, NKind::F64) => conv!(i32s, f64s, |x| x as f64),
                (NKind::I32, NKind::Bool) => conv!(i32s, bools, |x| x != 0),
                (NKind::F32, NKind::I32) => conv!(f32s, i32s, |x| x as i64 as i32),
                (NKind::F32, NKind::F64) => conv!(f32s, f64s, |x| x as f64),
                (NKind::F32, NKind::Bool) => conv!(f32s, bools, |x| x != 0.0),
                (NKind::F64, NKind::I32) => conv!(f64s, i32s, |x| x as i64 as i32),
                (NKind::F64, NKind::F32) => conv!(f64s, f32s, |x| x as f32),
                (NKind::F64, NKind::Bool) => conv!(f64s, bools, |x| x != 0.0),
                (NKind::Bool, NKind::I32) => conv!(bools, i32s, |x| i32::from(x)),
                (NKind::Bool, NKind::F32) => conv!(bools, f32s, |x| if x { 1.0 } else { 0.0 }),
                (NKind::Bool, NKind::F64) => conv!(bools, f64s, |x| if x { 1.0 } else { 0.0 }),
                _ => unreachable!("identity casts handled above"),
            };
            (Step::pure(tk, d, f), "")
        }
        Op::Bin {
            op: bop,
            dst,
            lhs,
            rhs,
        } => {
            let bop = *bop;
            let (lk, _) = read_kind(st, *lhs)?;
            let (rk, _) = read_kind(st, *rhs)?;
            let d = row(*dst);
            let l = row(*lhs);
            let r = row(*rhs);
            // Vectorizable same-kind loops; operands are snapshotted into
            // fixed-size locals so in-place forms (`x = x + y`) borrow-check
            // and keep exact per-lane semantics.
            macro_rules! f32_arith {
                ($op:tt) => {{
                    step(move |cx| {
                        let n = cx.n_active;
                        let regs = &mut *cx.regs;
                        if n == BATCH_LANES {
                            let mut a = [0.0f32; BATCH_LANES];
                            let mut b = [0.0f32; BATCH_LANES];
                            a.copy_from_slice(&regs.f32s[l..l + BATCH_LANES]);
                            b.copy_from_slice(&regs.f32s[r..r + BATCH_LANES]);
                            for (dv, (av, bv)) in regs.f32s[d..d + BATCH_LANES]
                                .iter_mut()
                                .zip(a.iter().zip(b.iter()))
                            {
                                *dv = ((*av as f64) $op (*bv as f64)) as f32;
                            }
                        } else {
                            // Per-lane read-then-write is alias-safe: lane
                            // `li` only ever writes its own element.
                            for li in 0..n {
                                let av = regs.f32s[l + li];
                                let bv = regs.f32s[r + li];
                                regs.f32s[d + li] = ((av as f64) $op (bv as f64)) as f32;
                            }
                        }
                        Ok(())
                    })
                }};
            }
            macro_rules! f64_arith {
                ($op:tt) => {{
                    step(move |cx| {
                        let n = cx.n_active;
                        let regs = &mut *cx.regs;
                        if n == BATCH_LANES {
                            let mut a = [0.0f64; BATCH_LANES];
                            let mut b = [0.0f64; BATCH_LANES];
                            a.copy_from_slice(&regs.f64s[l..l + BATCH_LANES]);
                            b.copy_from_slice(&regs.f64s[r..r + BATCH_LANES]);
                            for (dv, (av, bv)) in regs.f64s[d..d + BATCH_LANES]
                                .iter_mut()
                                .zip(a.iter().zip(b.iter()))
                            {
                                *dv = *av $op *bv;
                            }
                        } else {
                            for li in 0..n {
                                let av = regs.f64s[l + li];
                                let bv = regs.f64s[r + li];
                                regs.f64s[d + li] = av $op bv;
                            }
                        }
                        Ok(())
                    })
                }};
            }
            macro_rules! i32_arith {
                ($op:tt) => {{
                    step(move |cx| {
                        let n = cx.n_active;
                        let regs = &mut *cx.regs;
                        if n == BATCH_LANES {
                            let mut a = [0i32; BATCH_LANES];
                            let mut b = [0i32; BATCH_LANES];
                            a.copy_from_slice(&regs.i32s[l..l + BATCH_LANES]);
                            b.copy_from_slice(&regs.i32s[r..r + BATCH_LANES]);
                            for (dv, (av, bv)) in regs.i32s[d..d + BATCH_LANES]
                                .iter_mut()
                                .zip(a.iter().zip(b.iter()))
                            {
                                *dv = ((*av as i64) $op (*bv as i64)) as i32;
                            }
                        } else {
                            for li in 0..n {
                                let av = regs.i32s[l + li];
                                let bv = regs.i32s[r + li];
                                regs.i32s[d + li] = ((av as i64) $op (bv as i64)) as i32;
                            }
                        }
                        Ok(())
                    })
                }};
            }
            macro_rules! cmp_bin {
                ($field:ident, $op:tt) => {
                    step(move |cx| {
                        let n = cx.n_active;
                        let regs = &mut *cx.regs;
                        if n == BATCH_LANES {
                            for (dv, (av, bv)) in regs.bools[d..d + BATCH_LANES].iter_mut().zip(
                                regs.$field[l..l + BATCH_LANES]
                                    .iter()
                                    .zip(&regs.$field[r..r + BATCH_LANES]),
                            ) {
                                *dv = *av $op *bv;
                            }
                        } else {
                            for li in 0..n {
                                regs.bools[d + li] = regs.$field[l + li] $op regs.$field[r + li];
                            }
                        }
                        Ok(())
                    })
                };
            }
            macro_rules! cmp_kind {
                ($field:ident) => {
                    match bop {
                        BinOp::Eq => cmp_bin!($field, ==),
                        BinOp::Ne => cmp_bin!($field, !=),
                        BinOp::Lt => cmp_bin!($field, <),
                        BinOp::Le => cmp_bin!($field, <=),
                        BinOp::Gt => cmp_bin!($field, >),
                        BinOp::Ge => cmp_bin!($field, >=),
                        _ => unreachable!("guarded by is_comparison"),
                    }
                };
            }
            let pure = |k: NKind, f: StepFn| Step::pure(k, d, f);
            let generic = || Step::masked(generic_bin(bop, lk, rk, d, l, r));
            let f = match (lk, rk) {
                (NKind::F32, NKind::F32) => match bop {
                    BinOp::Add => pure(NKind::F32, f32_arith!(+)),
                    BinOp::Sub => pure(NKind::F32, f32_arith!(-)),
                    BinOp::Mul => pure(NKind::F32, f32_arith!(*)),
                    BinOp::Div => pure(NKind::F32, f32_arith!(/)),
                    b if b.is_comparison() => pure(NKind::Bool, cmp_kind!(f32s)),
                    _ => generic(),
                },
                (NKind::F64, NKind::F64) => match bop {
                    BinOp::Add => pure(NKind::F64, f64_arith!(+)),
                    BinOp::Sub => pure(NKind::F64, f64_arith!(-)),
                    BinOp::Mul => pure(NKind::F64, f64_arith!(*)),
                    BinOp::Div => pure(NKind::F64, f64_arith!(/)),
                    b if b.is_comparison() => pure(NKind::Bool, cmp_kind!(f64s)),
                    _ => generic(),
                },
                (NKind::I32, NKind::I32) => match bop {
                    BinOp::Add => pure(NKind::I32, i32_arith!(+)),
                    BinOp::Sub => pure(NKind::I32, i32_arith!(-)),
                    BinOp::Mul => pure(NKind::I32, i32_arith!(*)),
                    BinOp::Div | BinOp::Rem => {
                        let is_div = bop == BinOp::Div;
                        // Can fault, so only the active lanes divide.
                        Step::masked(step(move |cx| {
                            let n = cx.n_active;
                            let mut a = [0i32; BATCH_LANES];
                            let mut b = [0i32; BATCH_LANES];
                            a[..n].copy_from_slice(&cx.regs.i32s[l..l + n]);
                            b[..n].copy_from_slice(&cx.regs.i32s[r..r + n]);
                            for li in cx.lanes() {
                                let (av, bv) = (a[li], b[li]);
                                if bv == 0 {
                                    // "integer division by zero" at replay
                                    return Err(NativeAbort::Error);
                                }
                                let v = if is_div {
                                    (av as i64) / (bv as i64)
                                } else {
                                    (av as i64) % (bv as i64)
                                };
                                cx.regs.i32s[d + li] = v as i32;
                            }
                            Ok(())
                        }))
                    }
                    b if b.is_comparison() => pure(NKind::Bool, cmp_kind!(i32s)),
                    _ => generic(),
                },
                _ => generic(),
            };
            (f, "")
        }
        Op::Neg { dst, src } => {
            let (k, _) = read_kind(st, *src)?;
            let d = row(*dst);
            let s = row(*src);
            let f = match k {
                NKind::F32 => step(move |cx| {
                    let n = cx.n_active;
                    let regs = &mut *cx.regs;
                    regs.f32s.copy_within(s..s + n, d);
                    for v in &mut regs.f32s[d..d + n] {
                        *v = -*v;
                    }
                    Ok(())
                }),
                NKind::F64 => step(move |cx| {
                    let n = cx.n_active;
                    let regs = &mut *cx.regs;
                    regs.f64s.copy_within(s..s + n, d);
                    for v in &mut regs.f64s[d..d + n] {
                        *v = -*v;
                    }
                    Ok(())
                }),
                NKind::I32 => step(move |cx| {
                    let n = cx.n_active;
                    let regs = &mut *cx.regs;
                    regs.i32s.copy_within(s..s + n, d);
                    for v in &mut regs.i32s[d..d + n] {
                        *v = v.wrapping_neg();
                    }
                    Ok(())
                }),
                NKind::Bool => return Err("negates a bool value".to_string()),
            };
            (Step::pure(k, d, f), "")
        }
        Op::Not { dst, src } => {
            let (k, _) = read_kind(st, *src)?;
            let d = row(*dst);
            let s = row(*src);
            macro_rules! not_loop {
                ($field:ident, |$x:ident| $e:expr) => {
                    step(move |cx| {
                        let n = cx.n_active;
                        let regs = &mut *cx.regs;
                        for (dv, sv) in regs.bools[d..d + n].iter_mut().zip(&regs.$field[s..s + n])
                        {
                            let $x = *sv;
                            *dv = $e;
                        }
                        Ok(())
                    })
                };
            }
            // `!as_bool(x)` ≡ `x == 0` for every kind, NaN included (NaN is
            // truthy, so its negation is false — and `NaN == 0.0` is false).
            let f = match k {
                NKind::F32 => not_loop!(f32s, |x| x == 0.0),
                NKind::F64 => not_loop!(f64s, |x| x == 0.0),
                NKind::I32 => not_loop!(i32s, |x| x == 0),
                NKind::Bool => step(move |cx| {
                    let n = cx.n_active;
                    let regs = &mut *cx.regs;
                    regs.bools.copy_within(s..s + n, d);
                    for v in &mut regs.bools[d..d + n] {
                        *v = !*v;
                    }
                    Ok(())
                }),
            };
            (Step::pure(NKind::Bool, d, f), "")
        }
        Op::BufLoad { dst, name, idx } => {
            let (slot, pointee) = buffers[name];
            let pk = NKind::of(pointee).expect("uint buffers pre-rejected");
            let (ik, iota) = read_kind(st, *idx)?;
            let d = row(*dst);
            let i = row(*idx);
            let slot = slot as usize;
            if iota && pointee == ScalarType::Float {
                *uses_iota = true;
                (
                    // Iota ⇒ the active lanes hold consecutive addresses.
                    Step::masked(step(move |cx| {
                        if cx.run {
                            load_f32_span(cx, slot, d, cx.regs.i32s[i + cx.lo] as usize)
                        } else {
                            load_lanes(cx, slot, pk, ik, i, d)
                        }
                    })),
                    " ; iota f32 span",
                )
            } else if ik == NKind::I32 && pointee == ScalarType::Float {
                (
                    Step::masked(step(move |cx| match contiguous_base(cx, i) {
                        Some(start) => load_f32_span(cx, slot, d, start),
                        None => load_lanes(cx, slot, pk, ik, i, d),
                    })),
                    " ; f32 span when contiguous",
                )
            } else {
                (
                    Step::masked(step(move |cx| load_lanes(cx, slot, pk, ik, i, d))),
                    "",
                )
            }
        }
        Op::BufStore { name, idx, src } => {
            let (slot, pointee) = buffers[name];
            let (ik, iota) = read_kind(st, *idx)?;
            let (sk, _) = read_kind(st, *src)?;
            let i = row(*idx);
            let s = row(*src);
            if iota && pointee == ScalarType::Float {
                *uses_iota = true;
                (
                    Step::masked(step(move |cx| {
                        if cx.run {
                            store_f32_span(cx, slot, sk, s, cx.regs.i32s[i + cx.lo] as usize)
                        } else {
                            store_lanes(cx, slot, ik, i, sk, s)
                        }
                    })),
                    " ; iota f32 span",
                )
            } else if ik == NKind::I32 && pointee == ScalarType::Float {
                (
                    Step::masked(step(move |cx| match contiguous_base(cx, i) {
                        Some(start) => store_f32_span(cx, slot, sk, s, start),
                        None => store_lanes(cx, slot, ik, i, sk, s),
                    })),
                    " ; f32 span when contiguous",
                )
            } else {
                (
                    Step::masked(step(move |cx| store_lanes(cx, slot, ik, i, sk, s))),
                    "",
                )
            }
        }
        Op::CallBuiltin {
            builtin,
            dst,
            args,
            nargs,
        } => {
            let builtin = *builtin;
            let n = *nargs as usize;
            if n > 4 {
                return Err("builtin call with more than four arguments".to_string());
            }
            let mut akinds = [NKind::I32; 4];
            let mut all_f32 = true;
            for (k, ak) in akinds.iter_mut().enumerate().take(n) {
                let (kk, _) = read_kind(st, *args + k as Reg)?;
                *ak = kk;
                all_f32 &= kk == NKind::F32;
            }
            let d = row(*dst);
            let a0 = row(*args);
            // All-f32 argument lists always produce f32 results, computed in
            // the f64 domain exactly like `eval_math`.
            if all_f32 && n == 1 {
                if let Some(g) = unary_math(builtin) {
                    return Ok((
                        Step::pure(
                            NKind::F32,
                            d,
                            step(move |cx| {
                                let na = cx.n_active;
                                let mut a = [0.0f32; BATCH_LANES];
                                a[..na].copy_from_slice(&cx.regs.f32s[a0..a0 + na]);
                                for (dv, av) in cx.regs.f32s[d..d + na].iter_mut().zip(a.iter()) {
                                    *dv = g(*av as f64) as f32;
                                }
                                Ok(())
                            }),
                        ),
                        " ; f32 math",
                    ));
                }
            }
            if all_f32 && n == 2 {
                if let Some(g) = binary_math(builtin) {
                    let a1 = a0 + BATCH_LANES;
                    return Ok((
                        Step::pure(
                            NKind::F32,
                            d,
                            step(move |cx| {
                                let na = cx.n_active;
                                let mut a = [0.0f32; BATCH_LANES];
                                let mut b = [0.0f32; BATCH_LANES];
                                a[..na].copy_from_slice(&cx.regs.f32s[a0..a0 + na]);
                                b[..na].copy_from_slice(&cx.regs.f32s[a1..a1 + na]);
                                for (dv, (av, bv)) in cx.regs.f32s[d..d + na]
                                    .iter_mut()
                                    .zip(a.iter().zip(b.iter()))
                                {
                                    *dv = g(*av as f64, *bv as f64) as f32;
                                }
                                Ok(())
                            }),
                        ),
                        " ; f32 math",
                    ));
                }
            }
            if all_f32 && n == 3 {
                if let Some(g) = ternary_math(builtin) {
                    let a1 = a0 + BATCH_LANES;
                    let a2 = a0 + 2 * BATCH_LANES;
                    return Ok((
                        // Active lanes only: `clamp` panics on inverted
                        // bounds, which a guard may keep out of these lanes
                        // but not out of an idle lane's stale registers.
                        Step::masked(step(move |cx| {
                            let na = cx.n_active;
                            let mut a = [0.0f32; BATCH_LANES];
                            let mut b = [0.0f32; BATCH_LANES];
                            let mut c = [0.0f32; BATCH_LANES];
                            a[..na].copy_from_slice(&cx.regs.f32s[a0..a0 + na]);
                            b[..na].copy_from_slice(&cx.regs.f32s[a1..a1 + na]);
                            c[..na].copy_from_slice(&cx.regs.f32s[a2..a2 + na]);
                            for li in cx.lanes() {
                                cx.regs.f32s[d + li] =
                                    g(a[li] as f64, b[li] as f64, c[li] as f64) as f32;
                            }
                            Ok(())
                        })),
                        " ; f32 math",
                    ));
                }
            }
            let dk = {
                let tys: Vec<ScalarType> = akinds[..n].iter().map(|k| k.scalar()).collect();
                NKind::of(builtin.result_type(&tys))
                    .ok_or_else(|| "builtin returns uint".to_string())?
            };
            (
                Step::masked(step(move |cx| {
                    for li in cx.lanes() {
                        let mut vals = [Value::Int(0); 4];
                        for (k, v) in vals.iter_mut().enumerate().take(n) {
                            *v = read_value(cx.regs, akinds[k], a0 + k * BATCH_LANES, li);
                        }
                        let res = builtin.eval_math(&vals[..n]);
                        write_value(cx.regs, dk, d, li, res);
                    }
                    Ok(())
                })),
                "",
            )
        }
        Op::WorkItem { dst, builtin } => {
            let d = row(*dst);
            macro_rules! wi {
                (|$it:ident| $e:expr) => {
                    step(move |cx| {
                        let n = cx.n_active;
                        for (dv, $it) in cx.regs.i32s[d..d + n].iter_mut().zip(cx.items) {
                            *dv = ($e) as i32;
                        }
                        Ok(())
                    })
                };
            }
            let f = match builtin {
                Builtin::GetGlobalId => wi!(|it| it.global_id),
                Builtin::GetLocalId => wi!(|it| it.local_id),
                Builtin::GetGroupId => wi!(|it| it.group_id),
                Builtin::GetGlobalSize => wi!(|it| it.global_size),
                Builtin::GetLocalSize => wi!(|it| it.local_size),
                Builtin::GetNumGroups => wi!(|it| it.global_size.div_ceil(it.local_size.max(1))),
                other => return Err(format!("work-item op carries {other:?}")),
            };
            (Step::pure(NKind::I32, d, f), "")
        }
        Op::StencilGet { dst, args } => {
            let (dxk, _) = read_kind(st, *args)?;
            let (dyk, _) = read_kind(st, *args + 1)?;
            let d = row(*dst);
            let dx_row = row(*args);
            let dy_row = row(*args + 1);
            let int_offsets = dxk == NKind::I32 && dyk == NKind::I32;
            (
                Step::masked(step(move |cx| {
                    let Some(ctx) = cx.stencil else {
                        return Err(NativeAbort::Error);
                    };
                    if cx.hazards {
                        // Neighbour reads cross lanes by design.
                        cx.slots[ctx.in_slot].load(None)?;
                    }
                    let (lo, n) = (cx.lo, cx.n_active);
                    if int_offsets && cx.linear && cx.run {
                        let dx = cx.regs.i32s[dx_row + lo];
                        let dy = cx.regs.i32s[dy_row + lo];
                        let uniform = cx.regs.i32s[dx_row + lo..dx_row + n]
                            .iter()
                            .all(|v| *v == dx)
                            & cx.regs.i32s[dy_row + lo..dy_row + n]
                                .iter()
                                .all(|v| *v == dy);
                        if uniform {
                            return stencil_get_rows(cx, ctx, d, i64::from(dx), i64::from(dy));
                        }
                    }
                    for li in cx.lanes() {
                        let dx = addr_of(cx.regs, dxk, dx_row, li);
                        let dy = addr_of(cx.regs, dyk, dy_row, li);
                        stencil_get_lane(cx, ctx, d, li, dx, dy)?;
                    }
                    Ok(())
                })),
                if int_offsets {
                    " ; row slices when uniform"
                } else {
                    ""
                },
            )
        }
        other => return Err(format!("unsupported instruction {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;

    #[test]
    fn tier_names_follow_declaration_order() {
        for (i, (t, name)) in TIERS.into_iter().enumerate() {
            assert_eq!(t as usize, i, "TIERS is in declaration order");
            assert_eq!(t.to_string(), name);
        }
        let native = NativeState::new(0);
        assert_eq!(
            native.tier(),
            Tier::Native,
            "a program starts on the default tier"
        );
        native.set_tier(Tier::Scalar);
        assert_eq!(native.tier(), Tier::Scalar);
    }

    #[test]
    fn map_kernel_compiles_with_iota_fast_paths() {
        let p = Program::build(
            r#"
            __kernel void k(__global float* v, int n) {
                int i = get_global_id(0);
                if (i < n) { v[i] = v[i] * 2.0f; }
            }
        "#,
        )
        .unwrap();
        let idx = p.kernel("k").unwrap().index();
        let nk = compile_kernel(p.compiled(), idx).unwrap();
        assert!(nk.block_count() >= 2);
        assert!(nk.uses_iota);
        assert!(nk.listing().contains("iota f32 span"));
        assert!(nk.listing().contains("exit chain") || nk.listing().contains("branch"));
    }

    #[test]
    fn vm_frame_calls_are_ineligible() {
        // Recursion defeats the compiler's inliner, leaving a real
        // `Op::Call` that only the VM's frame machinery can execute.
        let p = Program::build(
            r#"
            float fib(float n) {
                if (n < 2.0f) { return n; }
                return fib(n - 1.0f) + fib(n - 2.0f);
            }
            __kernel void k(__global float* v, int n) {
                int i = get_global_id(0);
                if (i < n) { v[i] = fib(v[i]); }
            }
        "#,
        )
        .unwrap();
        let idx = p.kernel("k").unwrap().index();
        let err = compile_kernel(p.compiled(), idx).unwrap_err();
        assert!(err.contains("through a VM frame"), "reason: {err}");
    }

    #[test]
    fn loop_kernel_compiles_with_back_edges() {
        let p = Program::build(
            r#"
            __kernel void k(__global float* v, int n) {
                float acc = 0.0f;
                for (int j = 0; j < n; j++) { acc = acc + v[j]; }
                v[0] = acc;
            }
        "#,
        )
        .unwrap();
        let idx = p.kernel("k").unwrap().index();
        let nk = compile_kernel(p.compiled(), idx).unwrap();
        assert!(nk.listing().contains("back edge"));
    }

    /// A single-lane scan that faults in iteration `k`: the `k` element
    /// stores before the fault are one undo span (not `k` entries), rollback
    /// restores the output bit for bit, and the launch then reports the
    /// scalar VM's error over the scalar VM's buffers.
    #[test]
    fn scan_fault_rolls_every_store_back_before_the_scalar_replay() {
        let p = Program::build(
            r#"
            __kernel void scan(__global float* in, __global float* out, int n) {
                float acc = in[0];
                out[0] = acc;
                for (int i = 1; i < n; i++) {
                    acc = acc + in[i];
                    out[i] = acc;
                }
            }
        "#,
        )
        .unwrap();
        let handle = p.kernel("scan").unwrap();
        let nk = Arc::new(compile_kernel(p.compiled(), handle.index()).unwrap());
        let k = 1000;
        let input: Vec<f32> = (0..k).map(|i| (i % 11) as f32 * 0.25).collect();
        // NaN payloads: only an exact restore brings these bits back.
        let original: Vec<u32> = (0..k as u32 + 8).map(|i| 0x7fc0_0000 | i).collect();
        let fresh = || -> Vec<f32> { original.iter().map(|b| f32::from_bits(*b)).collect() };
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        // `n` runs five elements past the input: iteration `k` faults.
        let n = Value::Int(k as i32 + 5);

        let (mut src, mut out) = (input.clone(), fresh());
        let mut args = vec![
            ArgBinding::buffer_f32(&mut src),
            ArgBinding::buffer_f32(&mut out),
            ArgBinding::Scalar(n),
        ];
        let mut exec = NativeExec::new(nk);
        let mut stats = ExecStats::default();
        let aborted = exec.execute_batch(
            &[WorkItem::linear(0, 1)],
            &mut args,
            None,
            u64::MAX,
            &mut stats,
        );
        assert_eq!(aborted, Err(NativeAbort::Error));
        assert_eq!(
            exec.undo.entries.len(),
            1,
            "consecutive stores extend one span"
        );
        assert_eq!(exec.undo.arena.len(), k);
        exec.rollback(&mut args);
        drop(args);
        assert_eq!(bits(&out), original, "rollback restores every element");
        assert_eq!(src, input);

        let launch = |tier: Tier| {
            p.set_tier(tier);
            let (mut src, mut out) = (input.clone(), fresh());
            let mut args = vec![
                ArgBinding::buffer_f32(&mut src),
                ArgBinding::buffer_f32(&mut out),
                ArgBinding::Scalar(n),
            ];
            let err = p.run_ndrange_traced(&handle, 1, &mut args).unwrap_err();
            drop(args);
            (err.message, bits(&out))
        };
        let scalar = launch(Tier::Scalar);
        assert!(scalar.0.contains("out of bounds"), "{}", scalar.0);
        assert_ne!(scalar.1, original, "the replay redoes the stores");
        assert_eq!(launch(Tier::Native), scalar);
    }

    #[test]
    fn slot_hazards_admit_read_only_and_lane_private_slots() {
        use NativeAbort::Bail;
        // Read-only: any mix of bases, gathers and neighbour reads.
        let mut s = SlotHazard::default();
        assert_eq!(s.load(Some(64)), Ok(()));
        assert_eq!(s.load(Some(65)), Ok(()));
        assert_eq!(s.load(None), Ok(()));
        // ... but never a store afterwards, not even at the slot's base.
        assert_eq!(s.store(Some(64)), Err(Bail));

        // Lane-private: loads and stores at the one base the first access
        // fixed, own-index or shifted alike.
        let mut s = SlotHazard::default();
        assert_eq!(s.load(Some(256)), Ok(()));
        assert_eq!(s.store(Some(256)), Ok(()));
        assert_eq!(s.load(Some(256)), Ok(()));
        assert_eq!(s.store(Some(256)), Ok(()));
        // A second base or a neighbour read now crosses lanes.
        assert_eq!(s.store(Some(257)), Err(Bail));
        assert_eq!(s.load(Some(255)), Err(Bail));
        assert_eq!(s.load(None), Err(Bail));

        // A store as the first access fixes the base too; a store with no
        // lane-private shape always bails.
        let mut s = SlotHazard::default();
        assert_eq!(s.store(Some(7)), Ok(()));
        assert_eq!(s.store(Some(8)), Err(Bail));
        assert_eq!(SlotHazard::default().store(None), Err(Bail));
    }

    /// `reconvergence` over hand-built block graphs, one per control-flow
    /// shape the compiler emits (`succs[b]` empty = the block returns).
    #[test]
    fn reconvergence_table_per_shape() {
        // Diamond: 0 ? 1 : 2, both to 3.
        let r = reconvergence(&[vec![2, 1], vec![3], vec![3], vec![]]);
        assert_eq!(r, [3, 3, 3, EXIT]);
        // If without else: the taken side *is* the join block.
        let r = reconvergence(&[vec![2, 1], vec![2], vec![]]);
        assert_eq!(r, [2, 2, EXIT]);
        // Early return: one side returns before the sides meet.
        let r = reconvergence(&[vec![2, 1], vec![], vec![3], vec![]]);
        assert_eq!(r[0], EXIT);
        assert_eq!(r[2], 3);
        // Loop with break: header 1, body 2 breaks to 4 or goes on to the
        // latch 3; everything rejoins at the loop exit 4.
        let r = reconvergence(&[vec![1], vec![4, 2], vec![4, 3], vec![1], vec![]]);
        assert_eq!(r, [1, 4, 4, 1, EXIT]);
        // Nested loops: outer header 1 / exit 6, inner header 3 / exit 5.
        let r = reconvergence(&[
            vec![1],
            vec![6, 2],
            vec![3],
            vec![5, 4],
            vec![3],
            vec![1],
            vec![],
        ]);
        assert_eq!(r, [1, 6, 3, 5, 3, 1, EXIT]);
        // A return inside the loop body moves the loop's join to the exit.
        let r = reconvergence(&[vec![1], vec![4, 2], vec![3, 5], vec![1], vec![], vec![]]);
        assert_eq!(r[1], EXIT);
        assert_eq!(r[2], EXIT);
        // A loop with no way out never rejoins.
        let r = reconvergence(&[vec![1], vec![1, 2], vec![1]]);
        assert_eq!(r, [EXIT, EXIT, EXIT]);
    }

    #[test]
    fn listing_names_every_branch_reconvergence_block() {
        // The OSEM update: the tail guard rejoins at the return block, the
        // UDF's early return at the store.
        let p = Program::build(
            r#"
            float func(float f, float c) { if (c > 0.0f) { return f * c; } return f; }
            __kernel void k(__global float* l, __global float* r, __global float* out, int n) {
                int gid = get_global_id(0);
                if (gid < n) { out[gid] = func(l[gid], r[gid]); }
            }
        "#,
        )
        .unwrap();
        let nk = compile_kernel(p.compiled(), p.kernel("k").unwrap().index()).unwrap();
        let branches: Vec<&str> = nk
            .listing()
            .lines()
            .filter(|l| l.contains("branch("))
            .collect();
        assert_eq!(branches.len(), 2, "{}", nk.listing());
        assert!(branches[0].ends_with("(exit chain), reconverge -> b6"));
        assert!(branches[1].ends_with("-> b3 else b2, reconverge -> b5"));

        // A kernel-level early return: nothing rejoins before the exit.
        let p = Program::build(
            r#"
            __kernel void k(__global float* v, int n) {
                int i = get_global_id(0);
                if (v[i] < 0.0f) { return; }
                v[i] = sqrt(v[i]);
            }
        "#,
        )
        .unwrap();
        let nk = compile_kernel(p.compiled(), p.kernel("k").unwrap().index()).unwrap();
        assert!(
            nk.listing().contains("reconverge -> exit"),
            "{}",
            nk.listing()
        );
    }

    #[test]
    fn shifted_index_stencil_kernel_compiles_with_span_and_row_paths() {
        let p = Program::build(
            r#"
            float func(float u) { return u + get(-1, 0) + get(0, 1); }
            __kernel void SKELCL_MAP_OVERLAP(__global float* skelcl_stencil_in,
                __global float* skelcl_out, int skelcl_n, int skelcl_stencil_w,
                int skelcl_stencil_halo, int skelcl_stencil_policy, float skelcl_stencil_oob) {
                int gid = get_global_id(0);
                if (gid < skelcl_n) {
                    int idx = (gid / skelcl_stencil_w + skelcl_stencil_halo) * skelcl_stencil_w
                        + gid % skelcl_stencil_w;
                    skelcl_out[idx] = func(skelcl_stencil_in[idx]);
                }
            }
        "#,
        )
        .unwrap();
        let idx = p.kernel("SKELCL_MAP_OVERLAP").unwrap().index();
        let nk = compile_kernel(p.compiled(), idx).unwrap();
        let listing = nk.listing();
        assert_eq!(listing.matches("f32 span when contiguous").count(), 2);
        assert_eq!(listing.matches("row slices when uniform").count(), 2);
        assert!(!listing.contains("iota f32 span"));
    }
}
