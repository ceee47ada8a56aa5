//! Native execution tier: the checked AST closure-compiled into steps over a
//! typed, struct-of-arrays register file, [`BATCH_LANES`] work-items at once.
//!
//! Interpreting a kernel one work-item at a time puts every operation
//! through the dynamically-typed [`Value`] enum and re-walks the tree per
//! item. This module walks the tree once per kernel instead ("closure
//! generation"; Feeley & Lapalme, *Computer Languages* 1987):
//!
//! * every expression node becomes a **monomorphized closure** over plain
//!   register rows (`Vec<f32>` / `Vec<f64>` / `Vec<i32>` / `Vec<bool>`, 64
//!   lanes per row). A row's kind is the type [`crate::sema::check`]
//!   recorded for the node or the variable: this tier infers no types of its
//!   own. Straight-line `f32`/`i32` arithmetic becomes tight chunked loops
//!   over fixed-size arrays that LLVM auto-vectorises; buffer accesses whose
//!   index is the work-item's global id (tracked as *iota*) become
//!   bounds-checked block copies;
//! * helper calls are inlined at compile time (less deep than the
//!   interpreter's call-depth limit); a recursive call makes the kernel
//!   ineligible;
//! * each node's `(flops, bytes, ops)` charge comes from the one table in
//!   [`crate::cost`], the interpreter's, and is charged `× active lanes`.
//!   Charges of straight-line code are summed at compile time and charged
//!   once, so [`ExecStats`] equal the per-item sum.
//!
//! Execution stays bit-identical to the interpreter oracle. Any shape the
//! native model cannot reproduce exactly is either rejected at native
//! compile time (the kernel permanently falls back to the interpreter, with
//! a human-readable reason: `uint` values, recursion) or aborts the batch at
//! runtime: every buffer store is rolled back through an undo log and the
//! batch is replayed through the interpreter, which is the authoritative
//! semantics — results, [`crate::interp::ExecStats`] and error messages
//! included. What aborts a batch: a runtime error in an active lane, an
//! exhausted loop budget, and a cross-lane hazard (below). Divergent control
//! flow does not.
//!
//! # When it runs
//!
//! [`Tier::Native`], the default, means *native when eligible, compiled at
//! the kernel's first launch*; an ineligible kernel runs on the interpreter
//! (the reason lands in [`crate::LaunchTrace::fallback`]). There is no size
//! or launch-count gate: compiling a skeleton kernel takes microseconds,
//! less than the `Program::build` that preceded it, and work-item count
//! stops being a proxy for work the moment a kernel has a loop — the chunked
//! reduce launches at most 64 work-items (one batch) that each fold
//! thousands of elements, and the scan is a single lane looping over its
//! whole part. Both run here from launch one.
//!
//! # Divergence: lane masks
//!
//! Lanes that disagree at a branch keep running natively, as in ISPC (Pharr
//! & Mark, InPar 2012). The executor runs every step under a `u64` lane
//! mask; structured control flow gives reconvergence for free:
//!
//! * `if`, `?:`, `&&` and `||` run each arm (or right-hand side) under the
//!   lanes that take it, then restore the lanes that are still running;
//! * a loop runs each iteration under the lanes whose condition holds;
//!   lanes that leave wait at the loop's exit;
//! * `return`, `break` and `continue` take the running lanes out of the
//!   mask: until the end of the inlined call, the loop, or the iteration.
//!
//! An `if (gid < n)` tail guard is just a prefix mask. A batch counts as
//! masked ([`crate::LaunchTrace::masked_batches`]) when some code ran under
//! a mask that is not a prefix of its lanes.
//!
//! * **What runs blended.** Pure register steps — arithmetic, comparisons,
//!   casts, moves, negation, work-item ids, `float` math, `as_int` and
//!   `as_float` — can neither fault nor touch memory. Under a mask that is
//!   not a prefix they compute all 64 lanes with their fixed-width loop; a step
//!   that writes a variable (or a value several arms write) saves the row
//!   first and puts the idle lanes' values back afterwards.
//! * **What runs per active lane.** Everything with a failure path or a
//!   memory effect: buffer loads and stores, `get`, integer `/` and `%`,
//!   the mixed-type binary-op and
//!   builtin fallbacks. When the active lanes form one contiguous run the
//!   buffer steps still take the span copies (offset by the run's first
//!   lane); otherwise they go lane by lane over the mask's set bits. So
//!   `if (x != 0) a / x` or `if (i < n) v[i]` never faults in a lane the
//!   oracle would not have executed, and a fault in an *active* lane aborts
//!   the batch like any other.
//! * **The loop budget** stays one counter per batch. It counts every
//!   iteration any lane goes around, so it never under-counts a loop of a
//!   work-item. The interpreter's budget is per execution of a loop
//!   statement, so the counter over-counts once lanes sit in different loops
//!   or a work-item runs several loops; that is why exhausting it is an
//!   ordinary abort: the oracle's replay decides whether there is an error
//!   to report.
//!
//! # Cross-lane hazards: the lane-private-base rule
//!
//! A batch runs its lanes in lockstep, step by step; the oracle runs the
//! work-items one after another. The two orders agree as long as no lane
//! observes another lane's store, which the executor enforces per buffer
//! slot and per batch:
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
//! starts negative — it goes lane by lane.
//!
//! # `get(dx, dy)`: row slices
//!
//! `get` is a foreign load of the stencil input. When `dx` and `dy` are the
//! same in every lane and the batch's global ids are linear, the batch is
//! split into matrix-row segments; `dy` is checked against the halo once,
//! and within a segment the lanes whose column `col + dx` stays inside the
//! row are one bounds-checked slice copy from input row `row + halo + dy`.
//! The ≤ |dx| lanes per segment that leave the row, and every non-uniform or
//! non-linear batch, go through the engines' shared `interp::stencil_get`,
//! so the clamp / wrap / constant policies and every error message live in
//! one place. Any failed check aborts the batch and the oracle's replay
//! reports the exact error.
//!
//! The kernelgen template was deliberately left alone: virtual time is
//! charged from `ExecStats`, so "simplifying" its index expression would
//! change every stencil's simulated cost. The native tier adapts to the
//! kernel, not the other way round.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use crate::ast::*;
use crate::builtins::Builtin;
use crate::cost::{self, CostEstimate};
use crate::diag::KernelError;
use crate::interp::{
    eval_binary, stencil_get, ArgBinding, BufferView, ExecStats, StencilCtx, WorkItem,
    MAX_CALL_DEPTH,
};
use crate::types::{ScalarType, Type};
use crate::value::Value;

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
    /// The closure-compiled native tier (this module), compiled at a
    /// kernel's first launch; the interpreter for ineligible kernels (the
    /// reason lands in [`crate::LaunchTrace::fallback`]). Launch size and
    /// launch count play no part: native compilation costs less than the
    /// `Program::build` every program already paid.
    #[default]
    Native,
}

/// Every tier with its name, in declaration order: what `Display` spells and
/// what a program's stored selection indexes — the one list (besides the
/// enum) a tier is added to or removed from.
const TIERS: [(Tier, &str); 2] = [(Tier::Interp, "interp"), (Tier::Native, "native")];

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(TIERS[*self as usize].1)
    }
}

/// Per-[`crate::Program`] native-tier state, shared across clones of the
/// program.
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
        unit: &TranslationUnit,
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
// Register rows
// ---------------------------------------------------------------------------

/// The storage kind of a register row: the scalar types the tier models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NKind {
    F32,
    F64,
    I32,
    Bool,
}

impl NKind {
    /// The row kind of a checked type; `uint` is not modelled.
    fn of(s: ScalarType) -> Result<NKind, String> {
        match s {
            ScalarType::Float => Ok(NKind::F32),
            ScalarType::Double => Ok(NKind::F64),
            ScalarType::Int => Ok(NKind::I32),
            ScalarType::Bool => Ok(NKind::Bool),
            ScalarType::Uint => Err("computes with uint values".to_string()),
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

/// One register row: `BATCH_LANES` values of one kind, starting at `at` in
/// that kind's array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    kind: NKind,
    at: usize,
}

/// Struct-of-arrays register file: one array per kind, `BATCH_LANES` values
/// per row.
pub(crate) struct RegFile {
    f32s: Vec<f32>,
    f64s: Vec<f64>,
    i32s: Vec<i32>,
    bools: Vec<bool>,
}

impl RegFile {
    fn new(rows: [usize; 4]) -> RegFile {
        RegFile {
            f32s: vec![0.0; rows[0] * BATCH_LANES],
            f64s: vec![0.0; rows[1] * BATCH_LANES],
            i32s: vec![0; rows[2] * BATCH_LANES],
            bools: vec![false; rows[3] * BATCH_LANES],
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime state: undo log, hazards, execution context
// ---------------------------------------------------------------------------

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
/// and replays the batch through the interpreter (authoritative for results,
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

/// Mutable execution state threaded through every step closure.
pub(crate) struct ExecCtx<'a, 'b> {
    regs: &'a mut RegFile,
    items: &'a [WorkItem],
    /// Bit ℓ is set when lane ℓ executes the current step.
    mask: u64,
    /// `lo..n_active` is the smallest lane range covering `mask`.
    lo: usize,
    n_active: usize,
    /// Number of active lanes (`mask.count_ones()`).
    count: usize,
    /// Whether the active lanes are the one contiguous run `lo..n_active`,
    /// so buffer accesses may take the span copies.
    run: bool,
    /// Whether the active lanes are exactly the prefix `0..n_active`: pure
    /// steps then compute those lanes and write their rows as they are.
    dense: bool,
    /// Lanes a pure step computes: `n_active` when dense, all otherwise.
    width: usize,
    /// Per-lane expansion of `!mask`, for blending pure steps into rows
    /// with live idle lanes; maintained only outside the dense mode.
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
    /// `(flops, bytes, ops)` charged so far.
    acc: [f64; 3],
    /// Loop iterations the batch may still start.
    budget: u64,
    /// Whether some code ran under a mask that is not a lane prefix.
    diverged: bool,
    /// Lanes that left the innermost loop through `break`.
    brk: u64,
    /// Lanes that left the current iteration through `continue`.
    cont: u64,
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
    /// Make `mask` the set of executing lanes (none: the running code is
    /// skipped until a construct restores its lanes).
    fn set_mask(&mut self, mask: u64) {
        self.mask = mask;
        self.count = mask.count_ones() as usize;
        if mask == 0 {
            return;
        }
        self.lo = mask.trailing_zeros() as usize;
        self.n_active = BATCH_LANES - mask.leading_zeros() as usize;
        self.run = self.count == self.n_active - self.lo;
        self.dense = self.run && self.lo == 0;
        self.diverged |= !self.dense;
        if self.dense {
            self.width = self.n_active;
        } else {
            self.width = BATCH_LANES;
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

    /// The active lanes whose value in bool row `c` is true.
    #[inline]
    fn true_lanes(&self, c: usize) -> u64 {
        let row = &self.regs.bools[c..c + self.n_active];
        if self.dense {
            let t = row.iter().filter(|b| **b).count();
            if t == self.n_active {
                return self.mask;
            }
            if t == 0 {
                return 0;
            }
        }
        let mut bits = 0u64;
        for (l, b) in row.iter().enumerate() {
            bits |= u64::from(*b) << l;
        }
        bits & self.mask
    }

    /// Charge one pre-summed cost for every active lane.
    #[inline]
    fn charge(&mut self, c: [f64; 3]) {
        let n = self.count as f64;
        for (a, c) in self.acc.iter_mut().zip(c) {
            *a += c * n;
        }
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

/// One compiled step. `blend` marks a *pure* step writing a row with live
/// idle lanes (a variable, or a value several arms write): under a mask
/// that is not a prefix it runs through [`run_blended`].
struct Step {
    run: StepFn,
    blend: Option<Row>,
}

/// Straight-line steps, charged once for the lanes that start them: only
/// the last step may change the mask.
struct Segment {
    charge: [f64; 3],
    steps: Vec<Step>,
}

/// Run `seq` in order while any lane is active.
#[inline]
fn run(seq: &[Segment], cx: &mut ExecCtx<'_, '_>) -> Result<(), NativeAbort> {
    for seg in seq {
        if cx.mask == 0 {
            break;
        }
        cx.charge(seg.charge);
        if cx.dense {
            for s in &seg.steps {
                (s.run)(cx)?;
            }
        } else {
            for s in &seg.steps {
                match s.blend {
                    Some(d) => run_blended(cx, d, &s.run)?,
                    None => (s.run)(cx)?,
                }
            }
        }
    }
    Ok(())
}

/// Run a pure step writing row `d` under a mask that is not a prefix: it
/// computes all `BATCH_LANES` lanes with its fixed-width loop (idle lanes
/// hold stale but initialised values, and nothing pure can fault on them),
/// then the idle lanes get their previous values back.
fn run_blended(cx: &mut ExecCtx<'_, '_>, d: Row, f: &StepFn) -> Result<(), NativeAbort> {
    macro_rules! blend {
        ($field:ident, $zero:expr) => {{
            let at = d.at;
            let mut old = [$zero; BATCH_LANES];
            old.copy_from_slice(&cx.regs.$field[at..at + BATCH_LANES]);
            f(cx)?;
            for ((v, o), off) in cx.regs.$field[at..at + BATCH_LANES]
                .iter_mut()
                .zip(&old)
                .zip(&cx.inactive)
            {
                // A select, not a branch: the mask is data.
                *v = if *off { *o } else { *v };
            }
        }};
    }
    match d.kind {
        NKind::F32 => blend!(f32s, 0.0f32),
        NKind::F64 => blend!(f64s, 0.0f64),
        NKind::I32 => blend!(i32s, 0i32),
        NKind::Bool => blend!(bools, false),
    }
    Ok(())
}

/// Run `seq` under `sub`, a subset of the running lanes, and return the
/// lanes still running afterwards; the caller restores the mask.
#[inline]
fn run_under(seq: &[Segment], sub: u64, cx: &mut ExecCtx<'_, '_>) -> Result<u64, NativeAbort> {
    if seq.is_empty() {
        return Ok(sub);
    }
    if sub != cx.mask {
        cx.set_mask(sub);
    }
    run(seq, cx)?;
    Ok(cx.mask)
}

/// The running lanes leave: they are done with the function.
fn end_lanes() -> StepFn {
    step(|cx| {
        cx.set_mask(0);
        Ok(())
    })
}

/// An `if`, `?:`, `&&` or `||` on the bool row `c`: each arm runs under
/// the lanes that take it, then the lanes still running (arms of an `if`
/// may return or break) run on together.
fn branch(c: usize, then: Vec<Segment>, els: Vec<Segment>) -> StepFn {
    step(move |cx| {
        let m = cx.mask;
        let t = cx.true_lanes(c);
        let mut out = 0;
        if t != 0 {
            out |= run_under(&then, t, cx)?;
        }
        if t != m {
            out |= run_under(&els, m & !t, cx)?;
        }
        if out != cx.mask {
            cx.set_mask(out);
        }
        Ok(())
    })
}

#[inline(always)]
fn read_value(regs: &RegFile, r: Row, lane: usize) -> Value {
    match r.kind {
        NKind::F32 => Value::Float(regs.f32s[r.at + lane]),
        NKind::F64 => Value::Double(regs.f64s[r.at + lane]),
        NKind::I32 => Value::Int(regs.i32s[r.at + lane]),
        NKind::Bool => Value::Bool(regs.bools[r.at + lane]),
    }
}

/// Write `v` (already of the row's type) into lane `lane` of `r`.
#[inline(always)]
fn write_value(regs: &mut RegFile, r: Row, lane: usize, v: Value) {
    match v {
        Value::Float(x) => regs.f32s[r.at + lane] = x,
        Value::Double(x) => regs.f64s[r.at + lane] = x,
        Value::Int(x) => regs.i32s[r.at + lane] = x,
        Value::Bool(x) => regs.bools[r.at + lane] = x,
        Value::Uint(_) => unreachable!("uint values are native-ineligible"),
    }
}

/// The buffer address held in `r` at `lane` (exactly `Value::as_i64` of the
/// register's typed value).
#[inline(always)]
fn addr_of(regs: &RegFile, r: Row, lane: usize) -> i64 {
    match r.kind {
        NKind::F32 => regs.f32s[r.at + lane] as i64,
        NKind::F64 => regs.f64s[r.at + lane] as i64,
        NKind::I32 => regs.i32s[r.at + lane] as i64,
        NKind::Bool => i64::from(regs.bools[r.at + lane]),
    }
}

fn broadcast(regs: &mut RegFile, r: Row, v: Value) {
    let at = r.at;
    match v {
        Value::Float(x) => regs.f32s[at..at + BATCH_LANES].fill(x),
        Value::Double(x) => regs.f64s[at..at + BATCH_LANES].fill(x),
        Value::Int(x) => regs.i32s[at..at + BATCH_LANES].fill(x),
        Value::Bool(x) => regs.bools[at..at + BATCH_LANES].fill(x),
        Value::Uint(_) => unreachable!("uint values are native-ineligible"),
    }
}

// ---------------------------------------------------------------------------
// Compiled artifact and per-launch executor
// ---------------------------------------------------------------------------

/// A kernel closure-compiled from its checked AST. Immutable and shared;
/// per-launch mutable state lives in the (private) executor.
pub struct NativeKernel {
    body: Vec<Segment>,
    /// Rows per kind (`f32`, `f64`, `i32`, `bool`).
    rows: [usize; 4],
    /// Whether any step uses the iota fast paths, which require contiguous
    /// global ids with `local_id == global_id` and ids within `i32` range
    /// (verified per batch; violations bail to the interpreter).
    uses_iota: bool,
    /// Literal rows, broadcast once per launch and never written.
    pool: Vec<(Row, Value)>,
    /// Scalar parameters `(arg slot, row, declared type)`, re-broadcast
    /// every batch (parameters are mutable locals).
    scalar_params: Vec<(usize, Row, ScalarType)>,
    /// The path each buffer access and `get` took, in compile order.
    #[cfg(test)]
    paths: Vec<&'static str>,
}

impl std::fmt::Debug for NativeKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeKernel")
            .field("rows", &self.rows)
            .field("uses_iota", &self.uses_iota)
            .finish()
    }
}

/// Mutable per-launch state for one [`NativeKernel`]: the register file, the
/// undo log and the hazard flags. Created once per launch so the literal
/// broadcast is paid once.
pub(crate) struct NativeExec {
    kernel: Arc<NativeKernel>,
    regs: RegFile,
    undo: UndoLog,
    slots: Vec<SlotHazard>,
}

impl NativeExec {
    pub(crate) fn new(kernel: Arc<NativeKernel>) -> NativeExec {
        let mut regs = RegFile::new(kernel.rows);
        for &(r, v) in &kernel.pool {
            broadcast(&mut regs, r, v);
        }
        NativeExec {
            kernel,
            regs,
            undo: UndoLog::default(),
            slots: Vec::new(),
        }
    }

    /// Execute one batch of work-items. On `Ok`, results are committed, the
    /// batch's exact cost has been added to `stats`, and the value says
    /// whether the lanes diverged (some code ran under a mask that is not a
    /// lane prefix). On `Err`, the caller must call [`NativeExec::rollback`]
    /// and replay the batch through the interpreter.
    ///
    /// `budget_limit` is the interpreter's per-loop iteration budget. The
    /// batch keeps one counter for all lanes and loops: it counts every
    /// iteration *any* lane goes around, so it never undercounts a loop of a
    /// lane, and it overcounts once lanes sit in different loops or a lane
    /// runs several — which is why running out is [`NativeAbort::Error`],
    /// not an error of its own: the oracle's replay decides per work-item.
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
        for &(slot, r, declared) in &kernel.scalar_params {
            if let ArgBinding::Scalar(v) = &args[slot] {
                broadcast(&mut self.regs, r, v.convert_to(declared));
            }
        }
        let mut cx = ExecCtx {
            regs: &mut self.regs,
            items,
            mask: 0,
            lo: 0,
            n_active: 0,
            count: 0,
            run: true,
            dense: true,
            width: 0,
            inactive: [false; BATCH_LANES],
            args,
            stencil,
            undo: &mut self.undo,
            slots: &mut self.slots,
            hazards: lanes >= 2,
            linear,
            acc: [0.0; 3],
            budget: budget_limit,
            diverged: false,
            brk: 0,
            cont: 0,
        };
        cx.set_mask(low_bits(lanes));
        run(&kernel.body, &mut cx)?;
        stats.flops += cx.acc[0];
        stats.global_bytes += cx.acc[1];
        stats.ops += cx.acc[2];
        Ok(cx.diverged)
    }

    /// Undo every buffer store of an aborted batch (newest first).
    pub(crate) fn rollback(&mut self, args: &mut [ArgBinding<'_>]) {
        self.undo.rollback(args);
    }
}

// ---------------------------------------------------------------------------
// Compilation: the checked tree to steps
// ---------------------------------------------------------------------------

/// Maximum inline nesting. A launched kernel runs at call depth 0, so an
/// inlined call can never hit the interpreter's call-depth limit: the native
/// tier, which runs only inlined calls, needs no depth check.
const INLINE_DEPTH_LIMIT: usize = 8;
const _: () = assert!(INLINE_DEPTH_LIMIT < MAX_CALL_DEPTH);
/// Compiled expression nodes past which calls are no longer inlined.
const INLINE_NODE_LIMIT: usize = 8192;

/// A value's place in the register file.
#[derive(Debug, Clone, Copy)]
struct Val {
    row: Row,
    /// Holds `first_global_id + lane` in every lane (the value of
    /// `get_global_id(0)` in a batch the iota check admits).
    iota: bool,
    /// The row is a variable's, so a later write can change it.
    var: bool,
}

/// Where an expression should leave its value: `masked` rows have live idle
/// lanes (variables, and values several arms write), so writes under a
/// partial mask must keep them.
#[derive(Debug, Clone, Copy)]
struct Dst {
    row: Row,
    masked: bool,
}

/// A step sequence being built: closed segments, the open one, and the
/// charge of the code compiled into the open one. Straight-line steps never
/// change the mask, so a segment's charge is paid once, for the lanes that
/// start it.
#[derive(Default)]
struct Code {
    segs: Vec<Segment>,
    steps: Vec<Step>,
    pending: CostEstimate,
}

impl Code {
    /// Push a step that writes only the active lanes, or a temporary.
    fn push(&mut self, run: StepFn) {
        self.steps.push(Step { run, blend: None });
    }

    /// Push a pure step writing `d`.
    fn pure(&mut self, d: Dst, run: StepFn) {
        let blend = d.masked.then_some(d.row);
        self.steps.push(Step { run, blend });
    }

    /// Leave `s`, converted, in `d`.
    fn store_row(&mut self, s: Row, d: Dst) {
        self.pure(d, conv(s, d.row));
    }

    fn charge(&mut self, c: CostEstimate) {
        self.pending = self.pending.add(c);
    }

    /// Push a step that runs code under other masks or changes the mask; it
    /// ends the segment.
    fn control(&mut self, run: StepFn) {
        self.push(run);
        self.close();
    }

    fn close(&mut self) {
        let c = std::mem::take(&mut self.pending);
        self.segs.push(Segment {
            charge: [c.flops, c.global_bytes, c.ops],
            steps: std::mem::take(&mut self.steps),
        });
    }

    fn finish(mut self) -> Vec<Segment> {
        if !self.steps.is_empty() || self.pending != CostEstimate::default() {
            self.close();
        }
        self.segs
    }
}

/// A variable's row.
#[derive(Debug, Clone, Copy)]
struct Var {
    row: Row,
    iota: bool,
}

/// One function being compiled: the kernel, or a call being inlined.
struct Frame {
    func: usize,
    /// Per frame slot: the variable's row (`None` for buffers).
    vars: Vec<Option<Var>>,
    /// Slots some assignment or increment writes.
    written: Vec<bool>,
    /// An inlined call's result row (`None` for the kernel and `void`).
    result: Option<Row>,
    /// Loops open in this function.
    loops: usize,
}

struct Compiler<'u> {
    unit: &'u TranslationUnit,
    /// Next free row of each kind: rows below belong to live values.
    next: [usize; 4],
    /// Rows of each kind the kernel needs.
    rows: [usize; 4],
    pool: HashMap<(u8, u64), Row>,
    frames: Vec<Frame>,
    uses_iota: bool,
    #[cfg(test)]
    paths: Vec<&'static str>,
    nodes: usize,
}

/// Bit-exact hash key of a literal value.
fn value_key(v: Value) -> (u8, u64) {
    match v {
        Value::Float(x) => (0, x.to_bits() as u64),
        Value::Double(x) => (1, x.to_bits()),
        Value::Int(x) => (2, x as u32 as u64),
        Value::Uint(x) => (3, x as u64),
        Value::Bool(x) => (4, x as u64),
    }
}

/// The value of a literal expression.
fn literal(e: &Expr) -> Option<Value> {
    match e.kind {
        ExprKind::IntLit(v) => Some(Value::Int(v as i32)),
        ExprKind::FloatLit(v) => Some(Value::Float(v as f32)),
        ExprKind::BoolLit(v) => Some(Value::Bool(v)),
        _ => None,
    }
}

/// Whether evaluating `e` can write a variable, so an operand evaluated
/// before it must be snapshotted (calls write only their own frames).
fn writes_var(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |e| {
        found |= matches!(
            &e.kind,
            ExprKind::Assign {
                target: LValue::Var(..),
                ..
            } | ExprKind::IncDec {
                target: LValue::Var(..),
                ..
            }
        );
    });
    found
}

/// Whether `block` has a `continue` of the loop it is the body of.
fn continues(block: &Block) -> bool {
    block.stmts.iter().any(|s| match s {
        Stmt::Continue(_) => true,
        Stmt::If {
            then_block,
            else_block,
            ..
        } => continues(then_block) || continues(else_block),
        Stmt::Block(b) => continues(b),
        _ => false,
    })
}

/// Which of `f`'s frame slots some assignment or increment writes.
fn written_slots(f: &Function) -> Vec<bool> {
    let mut written = vec![false; f.locals.len()];
    f.body.walk_exprs(&mut |e| {
        if let ExprKind::Assign { target, .. } | ExprKind::IncDec { target, .. } = &e.kind {
            if let LValue::Var(name, _) = target {
                written[name.slot] = true;
            }
        }
    });
    written
}

/// Compile one kernel of the checked unit into native steps, or explain why
/// it is ineligible. Deterministic and side-effect free; the result is
/// cached per [`crate::Program`] in [`KernelNativeState`].
pub(crate) fn compile_kernel(
    unit: &TranslationUnit,
    kernel_index: usize,
) -> Result<NativeKernel, String> {
    let func = &unit.functions[kernel_index];
    for p in &func.params {
        match p.ty {
            Type::GlobalPtr(ScalarType::Uint) => {
                return Err(format!("buffer `{}` has uint elements", p.name))
            }
            Type::Scalar(ScalarType::Uint) => {
                return Err(format!("scalar parameter `{}` is uint", p.name))
            }
            _ => {}
        }
    }
    let mut c = Compiler {
        unit,
        next: [0; 4],
        rows: [0; 4],
        pool: HashMap::new(),
        frames: Vec::new(),
        uses_iota: false,
        #[cfg(test)]
        paths: Vec::new(),
        nodes: 0,
    };
    // Literals first: their rows sit below every frame and temporary.
    let mut pool = Vec::new();
    for f in &unit.functions {
        f.body.walk_exprs(&mut |e| {
            if let Some(v) = literal(e) {
                pool.push(v);
            }
        });
    }
    let mut pool_rows = Vec::new();
    for v in pool {
        if !c.pool.contains_key(&value_key(v)) {
            let r = c.temp(NKind::of(v.scalar_type())?);
            c.pool.insert(value_key(v), r);
            pool_rows.push((r, v));
        }
    }
    let params = vec![None; func.params.len()];
    c.open_frame(kernel_index, params, None)?;
    let scalar_params = func
        .params
        .iter()
        .enumerate()
        .filter_map(|(slot, p)| {
            let var = c.frames[0].vars[slot]?;
            Some((slot, var.row, p.ty.scalar()))
        })
        .collect();
    let mut code = Code::default();
    c.block(&func.body, &mut code)?;
    Ok(NativeKernel {
        body: code.finish(),
        rows: c.rows,
        uses_iota: c.uses_iota,
        pool: pool_rows,
        scalar_params,
        #[cfg(test)]
        paths: c.paths,
    })
}

impl<'u> Compiler<'u> {
    /// A fresh row of `kind` above every live one.
    fn temp(&mut self, kind: NKind) -> Row {
        let k = kind as usize;
        let at = self.next[k] * BATCH_LANES;
        self.next[k] += 1;
        self.rows[k] = self.rows[k].max(self.next[k]);
        Row { kind, at }
    }

    /// Where a value of `kind` goes: `dst` when it has that kind, else a
    /// fresh temporary.
    fn out(&mut self, kind: NKind, dst: Option<Dst>) -> Dst {
        match dst {
            Some(d) if d.row.kind == kind => d,
            _ => Dst {
                row: self.temp(kind),
                masked: false,
            },
        }
    }

    fn frame(&self) -> &Frame {
        self.frames.last().expect("a frame is open while compiling")
    }

    /// Open the frame of function `func`: parameters take `params` (rows
    /// already holding the arguments; `None` for a fresh row), every other
    /// scalar local a fresh row.
    fn open_frame(
        &mut self,
        func: usize,
        params: Vec<Option<Var>>,
        result: Option<Row>,
    ) -> Result<(), String> {
        let f = &self.unit.functions[func];
        let written = written_slots(f);
        let mut vars = Vec::with_capacity(f.locals.len());
        for (slot, ty) in f.locals.iter().enumerate() {
            vars.push(match (params.get(slot).copied().flatten(), ty) {
                (Some(var), _) => Some(var),
                (None, Type::Scalar(s)) => Some(Var {
                    row: self.temp(NKind::of(*s)?),
                    iota: false,
                }),
                (None, _) => None,
            });
        }
        self.frames.push(Frame {
            func,
            vars,
            written,
            result,
            loops: 0,
        });
        Ok(())
    }

    // ---- statements -------------------------------------------------------

    fn block(&mut self, block: &Block, code: &mut Code) -> Result<(), String> {
        for stmt in &block.stmts {
            self.stmt(stmt, code)?;
        }
        Ok(())
    }

    /// Compile `block` into a step list of its own (an arm or a loop body).
    fn sub_block(&mut self, block: &Block) -> Result<Vec<Segment>, String> {
        let mut code = Code::default();
        self.block(block, &mut code)?;
        Ok(code.finish())
    }

    fn stmt(&mut self, stmt: &Stmt, code: &mut Code) -> Result<(), String> {
        code.charge(cost::STMT_CHARGE);
        let mark = self.next;
        match stmt {
            Stmt::Decl { ty, name, init, .. } => {
                let var = self.frame().vars[name.slot].expect("scalar locals have rows");
                let dst = Dst {
                    row: var.row,
                    masked: true,
                };
                let iota = match init {
                    Some(e) => self.value_to(e, code, dst)?.iota,
                    None => {
                        code.pure(dst, fill(var.row, Value::zero(*ty)));
                        false
                    }
                };
                let frame = self.frames.last_mut().expect("a frame is open");
                if let Some(v) = &mut frame.vars[name.slot] {
                    v.iota = iota && !frame.written[name.slot];
                }
            }
            Stmt::Expr(e) => self.discard(e, code)?,
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                let c = self.cond(cond, code)?;
                let then = self.sub_block(then_block)?;
                let els = self.sub_block(else_block)?;
                code.control(branch(c, then, els));
            }
            Stmt::While { cond, body } => self.for_loop(None, Some(cond), None, body, code)?,
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => self.for_loop(init.as_deref(), cond.as_ref(), step.as_ref(), body, code)?,
            Stmt::Return(e, _) => {
                let frame = self.frame();
                if let (Some(e), Some(result)) = (e, frame.result) {
                    let dst = Dst {
                        row: result,
                        masked: true,
                    };
                    self.value_to(e, code, dst)?;
                }
                code.control(end_lanes());
            }
            Stmt::Break(_) | Stmt::Continue(_) => {
                let is_break = matches!(stmt, Stmt::Break(_));
                if self.frame().loops > 0 {
                    code.control(step(move |cx| {
                        if is_break {
                            cx.brk |= cx.mask;
                        } else {
                            cx.cont |= cx.mask;
                        }
                        cx.set_mask(0);
                        Ok(())
                    }));
                } else if self.frames.len() == 1 {
                    // Outside any loop of the kernel body the work-item
                    // simply ends, as in the interpreter.
                    code.control(end_lanes());
                } else {
                    // In a called function it is a runtime error.
                    code.control(step(|_| Err(NativeAbort::Error)));
                }
            }
            Stmt::Block(b) => self.block(b, code)?,
        }
        self.next = mark;
        Ok(())
    }

    /// A `while` loop (no `init`, no `step`) or a `for` loop.
    fn for_loop(
        &mut self,
        init: Option<&Stmt>,
        cond: Option<&Expr>,
        step_expr: Option<&Expr>,
        body: &Block,
        code: &mut Code,
    ) -> Result<(), String> {
        if let Some(init) = init {
            self.stmt(init, code)?;
        }
        let cond = match cond {
            Some(e) => {
                let mut cc = Code::default();
                let c = self.cond(e, &mut cc)?;
                Some((cc.finish(), c))
            }
            None => None,
        };
        self.frames.last_mut().expect("a frame is open").loops += 1;
        let mut bc = Code::default();
        self.block(body, &mut bc)?;
        self.frames.last_mut().expect("a frame is open").loops -= 1;
        // Without a `continue`, the lanes that reach the step are the ones
        // that finish the body: the step joins the body's steps.
        let mut sc = Code::default();
        if let Some(e) = step_expr {
            self.discard(e, if continues(body) { &mut sc } else { &mut bc })?;
        }
        let (body, step_code) = (bc.finish(), sc.finish());
        code.control(step(move |cx| {
            let (brk, cont) = (cx.brk, cx.cont);
            cx.brk = 0;
            let mut out = 0u64;
            loop {
                if let Some((cond_code, c)) = &cond {
                    run(cond_code, cx)?;
                    let stay = cx.true_lanes(*c);
                    out |= cx.mask & !stay;
                    if stay == 0 {
                        break;
                    }
                    if stay != cx.mask {
                        cx.set_mask(stay);
                    }
                }
                cx.cont = 0;
                run(&body, cx)?;
                let next = cx.mask | cx.cont;
                if next == 0 {
                    break;
                }
                cx.budget = cx.budget.checked_sub(1).ok_or(NativeAbort::Error)?;
                if next != cx.mask {
                    cx.set_mask(next);
                }
                run(&step_code, cx)?;
            }
            out |= cx.brk;
            (cx.brk, cx.cont) = (brk, cont);
            if out != cx.mask {
                cx.set_mask(out);
            }
            Ok(())
        }));
        Ok(())
    }

    /// Compile a condition: the offset of a bool row holding its truth.
    fn cond(&mut self, e: &Expr, code: &mut Code) -> Result<usize, String> {
        let b = self.temp(NKind::Bool);
        let dst = Dst {
            row: b,
            masked: false,
        };
        let v = self.expr(e, code, Some(dst))?;
        if v.row.kind == NKind::Bool {
            return Ok(v.row.at);
        }
        code.push(conv(v.row, b));
        Ok(b.at)
    }

    /// An expression statement (or a `for` step): the value is unused.
    fn discard(&mut self, e: &Expr, code: &mut Code) -> Result<(), String> {
        let mark = self.next;
        match &e.kind {
            ExprKind::IncDec { target, delta, .. } => {
                code.charge(cost::charge(e));
                self.nodes += 1;
                self.inc_dec(target, *delta, true, code)?;
            }
            _ => {
                self.expr(e, code, None)?;
            }
        }
        self.next = mark;
        Ok(())
    }

    /// Compile `e` and leave its value, converted to `dst`'s kind, in `dst`.
    fn value_to(&mut self, e: &Expr, code: &mut Code, dst: Dst) -> Result<Val, String> {
        let v = self.expr(e, code, Some(dst))?;
        if v.row == dst.row {
            return Ok(v);
        }
        code.store_row(v.row, dst);
        Ok(Val {
            row: dst.row,
            iota: v.iota && v.row.kind == dst.row.kind,
            var: dst.masked,
        })
    }

    /// Snapshot `v` if it is a variable that code evaluated after it may
    /// change (`later_writes`).
    fn stable(&mut self, v: Val, later_writes: bool, code: &mut Code) -> Val {
        if !v.var || !later_writes {
            return v;
        }
        let t = self.temp(v.row.kind);
        code.push(copy_row(v.row, t));
        Val { row: t, ..v }
    }

    // ---- expressions ------------------------------------------------------

    /// Compile `e`, preferring to leave its value in `dst`. The result row
    /// is `dst`, a variable's or literal's row, or a temporary that stays
    /// live until the caller releases it.
    fn expr(&mut self, e: &Expr, code: &mut Code, dst: Option<Dst>) -> Result<Val, String> {
        let kind = NKind::of(e.ty)?;
        code.charge(cost::charge(e));
        self.nodes += 1;
        let plain = |row| Val {
            row,
            iota: false,
            var: false,
        };
        Ok(match &e.kind {
            ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::BoolLit(_) => {
                let v = literal(e).expect("a literal");
                plain(self.pool[&value_key(v)])
            }
            ExprKind::Var(name) => {
                let var = self.frame().vars[name.slot].expect("sema rejects buffers as values");
                Val {
                    row: var.row,
                    iota: var.iota,
                    var: true,
                }
            }
            ExprKind::Index { base, index } => {
                let d = self.out(kind, dst);
                let mark = self.next;
                let i = self.expr(index, code, None)?;
                let s = self.buffer(base)?;
                let load = self.load(s, i, d.row);
                code.push(load);
                self.next = mark;
                plain(d.row)
            }
            ExprKind::Unary { op, operand } => {
                let d = self.out(kind, dst);
                let mark = self.next;
                let v = self.expr(operand, code, None)?;
                let f = match op {
                    UnOp::Neg => neg(v.row, d.row)?,
                    UnOp::Not => not(v.row, d.row),
                };
                code.pure(d, f);
                self.next = mark;
                plain(d.row)
            }
            ExprKind::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                lhs,
                rhs,
            } => {
                // A fresh row, never `dst`: the right-hand side may read the
                // variable `dst` is (`b = x && b`), and must see its old value.
                let d = Dst {
                    row: self.temp(NKind::Bool),
                    masked: true,
                };
                let mark = self.next;
                let l = self.expr(lhs, code, None)?;
                code.push(conv(l.row, d.row));
                let mut rc = Code::default();
                let r = self.expr(rhs, &mut rc, None)?;
                rc.store_row(r.row, d);
                // The right-hand side runs in the lanes it decides.
                let (rhs_code, none) = (rc.finish(), Vec::new());
                code.control(match op {
                    BinOp::And => branch(d.row.at, rhs_code, none),
                    _ => branch(d.row.at, none, rhs_code),
                });
                self.next = mark;
                plain(d.row)
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let d = self.out(kind, dst);
                let mark = self.next;
                let l = self.expr(lhs, code, None)?;
                let l = self.stable(l, writes_var(rhs), code);
                let r = self.expr(rhs, code, None)?;
                push_binary(code, *op, l.row, r.row, d);
                self.next = mark;
                plain(d.row)
            }
            ExprKind::Call { target, args, .. } => match *target {
                Callee::Builtin(b) => {
                    let d = self.out(kind, dst);
                    let mark = self.next;
                    let iota = self.builtin(b, args, code, d)?;
                    self.next = mark;
                    Val {
                        row: d.row,
                        iota,
                        var: false,
                    }
                }
                Callee::Function(index) => self.call(index, args, code, kind, dst)?,
                Callee::Unresolved => unreachable!("sema resolves every call"),
            },
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let d = Dst {
                    masked: true,
                    ..self.out(kind, dst)
                };
                let mark = self.next;
                let c = self.cond(cond, code)?;
                let (mut then, mut els) = (Code::default(), Code::default());
                self.value_to(then_expr, &mut then, d)?;
                self.value_to(else_expr, &mut els, d)?;
                code.control(branch(c, then.finish(), els.finish()));
                self.next = mark;
                plain(d.row)
            }
            ExprKind::Assign { op, target, value } => self.assign(*op, target, value, code)?,
            ExprKind::IncDec {
                target,
                delta,
                prefix,
            } => self.inc_dec(target, *delta, *prefix, code)?,
            ExprKind::Cast { operand, .. } => {
                let v = self.expr(operand, code, dst.filter(|d| d.row.kind == kind))?;
                if v.row.kind == kind {
                    return Ok(v);
                }
                let d = self.out(kind, dst);
                code.pure(d, conv(v.row, d.row));
                plain(d.row)
            }
        })
    }

    /// The argument slot and element kind of buffer `base`. Only kernels
    /// take buffers, and sema lets no call reach a function that does, so
    /// buffers are the kernel frame's.
    fn buffer(&self, base: &Name) -> Result<(usize, NKind), String> {
        let kernel = &self.unit.functions[self.frames[0].func];
        match (self.frames.len(), kernel.locals.get(base.slot)) {
            (1, Some(Type::GlobalPtr(s))) => Ok((base.slot, NKind::of(*s)?)),
            _ => Err(format!("buffer `{}` is not the kernel's", base.name)),
        }
    }

    /// Compile a builtin call into `d`; returns whether the value is iota.
    fn builtin(
        &mut self,
        b: Builtin,
        args: &[Expr],
        code: &mut Code,
        d: Dst,
    ) -> Result<bool, String> {
        if b.is_work_item_fn() {
            // The dimension argument is evaluated for its effects only.
            for a in args.iter().filter(|a| literal(a).is_none()) {
                self.expr(a, code, None)?;
            }
            code.pure(d, work_item(b, d.row));
            return Ok(matches!(b, Builtin::GetGlobalId | Builtin::GetLocalId));
        }
        let mut rows = Vec::with_capacity(args.len());
        for (k, a) in args.iter().enumerate() {
            let v = self.expr(a, code, None)?;
            let later_writes = args[k + 1..].iter().any(writes_var);
            rows.push(self.stable(v, later_writes, code).row);
        }
        if b.is_stencil_fn() {
            let ints = rows.iter().all(|r| r.kind == NKind::I32);
            self.path(if ints {
                "row slices when uniform"
            } else {
                "per lane"
            });
            code.push(stencil_step(rows[0], rows[1], d.row, ints));
        } else {
            let (f, pure) = math(b, &rows, d.row);
            if pure {
                code.pure(d, f);
            } else {
                code.push(f);
            }
        }
        Ok(false)
    }

    /// Inline a call to the user function `index`.
    fn call(
        &mut self,
        index: usize,
        args: &[Expr],
        code: &mut Code,
        kind: NKind,
        dst: Option<Dst>,
    ) -> Result<Val, String> {
        let f = &self.unit.functions[index];
        if self.frames.iter().any(|frame| frame.func == index)
            || self.frames.len() > INLINE_DEPTH_LIMIT
            || self.nodes >= INLINE_NODE_LIMIT
        {
            return Err(format!("calls function `{}` without inlining it", f.name));
        }
        let result = Dst {
            masked: true,
            ..self.out(kind, dst)
        };
        let mark = self.next;
        // Arguments, left to right, in the caller's frame. A parameter the
        // callee never writes reads its argument's row directly; any other
        // gets a row of its own.
        let written = written_slots(f);
        let mut params = Vec::with_capacity(args.len());
        for (k, a) in args.iter().enumerate() {
            let v = self.expr(a, code, None)?;
            let later_writes = args[k + 1..].iter().any(writes_var);
            let pk = NKind::of(f.params[k].ty.scalar())?;
            let alias = v.row.kind == pk && !written[k] && !(v.var && later_writes);
            params.push(Some(if alias {
                Var {
                    row: v.row,
                    iota: v.iota,
                }
            } else {
                let r = self.temp(pk);
                code.push(conv(v.row, r));
                Var {
                    row: r,
                    iota: v.iota && v.row.kind == pk && !written[k],
                }
            }));
        }
        self.open_frame(
            index,
            params,
            (!f.return_type.is_void()).then_some(result.row),
        )?;
        if let [Stmt::Return(Some(e), _)] = f.body.stmts.as_slice() {
            // The common `{ return e; }` body runs straight in the caller's
            // steps: no lane leaves, so no mask changes.
            code.charge(cost::STMT_CHARGE);
            self.value_to(e, code, result)?;
        } else {
            let body = self.sub_block(&f.body)?;
            let must_return = !f.return_type.is_void();
            code.control(step(move |cx| {
                let m = cx.mask;
                run(&body, cx)?;
                if must_return && cx.mask != 0 {
                    // Fell off the end of a non-void function.
                    return Err(NativeAbort::Error);
                }
                if cx.mask != m {
                    cx.set_mask(m);
                }
                Ok(())
            }));
        }
        self.frames.pop();
        self.next = mark;
        Ok(Val {
            row: result.row,
            iota: false,
            var: false,
        })
    }

    fn assign(
        &mut self,
        op: AssignOp,
        target: &LValue,
        value: &Expr,
        code: &mut Code,
    ) -> Result<Val, String> {
        let bin = match op {
            AssignOp::Assign => None,
            AssignOp::AddAssign => Some(BinOp::Add),
            AssignOp::SubAssign => Some(BinOp::Sub),
            AssignOp::MulAssign => Some(BinOp::Mul),
            AssignOp::DivAssign => Some(BinOp::Div),
        };
        match target {
            LValue::Var(name, _) => {
                let var = self.frame().vars[name.slot].expect("sema rejects buffer targets");
                let dst = Dst {
                    row: var.row,
                    masked: true,
                };
                match bin {
                    None => {
                        self.value_to(value, code, dst)?;
                    }
                    Some(bop) => {
                        // The right-hand side first, then the variable.
                        let mark = self.next;
                        let v = self.expr(value, code, None)?;
                        let k = NKind::of(var.row.kind.scalar().unify(v.row.kind.scalar()))?;
                        let d = self.out(k, Some(dst));
                        push_binary(code, bop, var.row, v.row, d);
                        if d.row != var.row {
                            code.store_row(d.row, dst);
                        }
                        self.next = mark;
                    }
                }
                Ok(Val {
                    row: var.row,
                    iota: false,
                    var: true,
                })
            }
            LValue::Index { base, index, .. } => {
                let (slot, pk) = self.buffer(base)?;
                // The value: the right-hand side, or its fold with the old
                // element, converted to the element type.
                let stored = (bin.is_some() || NKind::of(value.ty)? != pk).then(|| self.temp(pk));
                let v = self.expr(value, code, None)?;
                let v = self.stable(v, writes_var(index), code);
                let mark = self.next;
                if let Some(bop) = bin {
                    // Load (the index's first evaluation), fold.
                    let i = self.expr(index, code, None)?;
                    let old = self.temp(pk);
                    let load = self.load((slot, pk), i, old);
                    code.push(load);
                    let k = NKind::of(pk.scalar().unify(v.row.kind.scalar()))?;
                    let d = self.out(k, None);
                    push_binary(code, bop, old, v.row, d);
                    code.push(conv(d.row, stored.expect("allocated for a fold")));
                } else if let Some(stored) = stored {
                    code.push(conv(v.row, stored));
                }
                let value = stored.map_or(v, |row| Val {
                    row,
                    iota: false,
                    var: false,
                });
                // Store (the index's last evaluation).
                let i = self.expr(index, code, None)?;
                let store = self.store(slot, i, value.row);
                code.push(store);
                self.next = mark;
                Ok(value)
            }
        }
    }

    /// `++`/`--`: the value is the stored one (prefix) or the old one.
    fn inc_dec(
        &mut self,
        target: &LValue,
        delta: i32,
        prefix: bool,
        code: &mut Code,
    ) -> Result<Val, String> {
        match target {
            LValue::Var(name, _) => {
                let var = self.frame().vars[name.slot].expect("sema rejects buffer targets");
                let old = if prefix {
                    var.row
                } else {
                    let t = self.temp(var.row.kind);
                    code.push(copy_row(var.row, t));
                    t
                };
                let dst = Dst {
                    row: var.row,
                    masked: true,
                };
                code.pure(dst, add_const(var.row, var.row, delta)?);
                Ok(Val {
                    row: old,
                    iota: false,
                    var: prefix,
                })
            }
            LValue::Index { base, index, .. } => {
                let (slot, pk) = self.buffer(base)?;
                let (old, new) = (self.temp(pk), self.temp(pk));
                let mark = self.next;
                let i = self.expr(index, code, None)?;
                let load = self.load((slot, pk), i, old);
                code.push(load);
                code.push(add_const(old, new, delta)?);
                let i = self.expr(index, code, None)?;
                let store = self.store(slot, i, new);
                code.push(store);
                self.next = mark;
                Ok(Val {
                    row: if prefix { new } else { old },
                    iota: false,
                    var: false,
                })
            }
        }
    }

    // ---- buffer access paths ----------------------------------------------

    /// Record the path a buffer access or `get` takes, for the unit tests.
    fn path(&mut self, _path: &'static str) {
        #[cfg(test)]
        self.paths.push(_path);
    }

    /// `d = buffer[i]`.
    fn load(&mut self, (slot, pk): (usize, NKind), i: Val, d: Row) -> StepFn {
        let (ir, dr) = (i.row, d.at);
        if pk == NKind::F32 && i.iota {
            self.uses_iota = true;
            self.path("iota f32 span");
            // Iota ⇒ the active lanes hold consecutive addresses.
            step(move |cx| {
                if cx.run {
                    load_f32_span(cx, slot, dr, cx.regs.i32s[ir.at + cx.lo] as usize)
                } else {
                    load_lanes(cx, slot, ir, d)
                }
            })
        } else if pk == NKind::F32 && ir.kind == NKind::I32 {
            self.path("f32 span when contiguous");
            step(move |cx| match contiguous_base(cx, ir.at) {
                Some(start) => load_f32_span(cx, slot, dr, start),
                None => load_lanes(cx, slot, ir, d),
            })
        } else {
            self.path("per lane");
            step(move |cx| load_lanes(cx, slot, ir, d))
        }
    }

    /// `buffer[i] = s`, `s` of the element kind.
    fn store(&mut self, slot: usize, i: Val, s: Row) -> StepFn {
        let (ir, slot) = (i.row, slot as u16);
        if s.kind == NKind::F32 && i.iota {
            self.uses_iota = true;
            self.path("iota f32 span");
            step(move |cx| {
                if cx.run {
                    store_f32_span(cx, slot, s.at, cx.regs.i32s[ir.at + cx.lo] as usize)
                } else {
                    store_lanes(cx, slot, ir, s)
                }
            })
        } else if s.kind == NKind::F32 && ir.kind == NKind::I32 {
            self.path("f32 span when contiguous");
            step(move |cx| match contiguous_base(cx, ir.at) {
                Some(start) => store_f32_span(cx, slot, s.at, start),
                None => store_lanes(cx, slot, ir, s),
            })
        } else {
            self.path("per lane");
            step(move |cx| store_lanes(cx, slot, ir, s))
        }
    }
}

// ---------------------------------------------------------------------------
// Step construction
// ---------------------------------------------------------------------------

/// Pure row copy within one kind.
fn copy_row(s: Row, d: Row) -> StepFn {
    debug_assert_eq!(s.kind, d.kind);
    conv(s, d)
}

/// Pure conversion of row `s` into row `d` (a copy when the kinds agree).
/// Each arm mirrors `Value::convert_to` exactly (`as_f64 as f32`,
/// saturating `as_i64 as i32`, C truthiness).
fn conv(s: Row, d: Row) -> StepFn {
    let (sa, da) = (s.at, d.at);
    macro_rules! copy {
        ($field:ident) => {
            step(move |cx| {
                cx.regs.$field.copy_within(sa..sa + cx.width, da);
                Ok(())
            })
        };
    }
    macro_rules! conv {
        ($srcf:ident, $dstf:ident, |$x:ident| $e:expr) => {
            step(move |cx| {
                let n = cx.width;
                let regs = &mut *cx.regs;
                for (dv, sv) in regs.$dstf[da..da + n]
                    .iter_mut()
                    .zip(&regs.$srcf[sa..sa + n])
                {
                    let $x = *sv;
                    *dv = $e;
                }
                Ok(())
            })
        };
    }
    match (s.kind, d.kind) {
        (NKind::F32, NKind::F32) => copy!(f32s),
        (NKind::F64, NKind::F64) => copy!(f64s),
        (NKind::I32, NKind::I32) => copy!(i32s),
        (NKind::Bool, NKind::Bool) => copy!(bools),
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
    }
}

/// Pure fill of row `d` with `v` (of the row's type).
fn fill(d: Row, v: Value) -> StepFn {
    let at = d.at;
    match v {
        Value::Float(x) => step(move |cx| {
            cx.regs.f32s[at..at + cx.width].fill(x);
            Ok(())
        }),
        Value::Double(x) => step(move |cx| {
            cx.regs.f64s[at..at + cx.width].fill(x);
            Ok(())
        }),
        Value::Int(x) => step(move |cx| {
            cx.regs.i32s[at..at + cx.width].fill(x);
            Ok(())
        }),
        Value::Bool(x) => step(move |cx| {
            cx.regs.bools[at..at + cx.width].fill(x);
            Ok(())
        }),
        Value::Uint(_) => unreachable!("uint values are native-ineligible"),
    }
}

/// Pure elementwise `d = f(s)` over one kind's rows; operands are
/// snapshotted first, so `s` may be `d`.
/// A pure step from row `$s` of one register file to row `$d` of another.
macro_rules! conv_row {
    ($srcf:ident, $dstf:ident, $s:expr, $d:expr, |$x:ident| $e:expr) => {{
        let (sa, da) = ($s, $d);
        step(move |cx| {
            let n = cx.width;
            let regs = &mut *cx.regs;
            for (dv, sv) in regs.$dstf[da..da + n]
                .iter_mut()
                .zip(&regs.$srcf[sa..sa + n])
            {
                let $x = *sv;
                *dv = $e;
            }
            Ok(())
        })
    }};
}

macro_rules! map_row {
    ($field:ident, $zero:expr, $s:expr, $d:expr, |$x:ident| $e:expr) => {{
        let (sa, da) = ($s, $d);
        step(move |cx| {
            let n = cx.width;
            let regs = &mut *cx.regs;
            if n == BATCH_LANES {
                let mut a = [$zero; BATCH_LANES];
                a.copy_from_slice(&regs.$field[sa..sa + BATCH_LANES]);
                for (dv, $x) in regs.$field[da..da + BATCH_LANES]
                    .iter_mut()
                    .zip(a.iter().copied())
                {
                    *dv = $e;
                }
            } else {
                // Per-lane read-then-write is alias-safe: lane `li` only
                // ever writes its own element.
                for li in 0..n {
                    let $x = regs.$field[sa + li];
                    regs.$field[da + li] = $e;
                }
            }
            Ok(())
        })
    }};
}

/// Pure negation (`-x` keeps the kind; sema rejects `bool`).
fn neg(s: Row, d: Row) -> Result<StepFn, String> {
    Ok(match s.kind {
        NKind::F32 => map_row!(f32s, 0.0f32, s.at, d.at, |x| -x),
        NKind::F64 => map_row!(f64s, 0.0f64, s.at, d.at, |x| -x),
        NKind::I32 => map_row!(i32s, 0i32, s.at, d.at, |x| x.wrapping_neg()),
        NKind::Bool => return Err("negates a bool value".to_string()),
    })
}

/// Pure logical not into a bool row: `!as_bool(x)` ≡ `x == 0` for every
/// kind, NaN included (NaN is truthy, and `NaN == 0.0` is false).
fn not(s: Row, d: Row) -> StepFn {
    let (sa, da) = (s.at, d.at);
    macro_rules! not_loop {
        ($field:ident, $zero:expr, |$x:ident| $e:expr) => {
            step(move |cx| {
                let n = cx.width;
                let mut a = [$zero; BATCH_LANES];
                a[..n].copy_from_slice(&cx.regs.$field[sa..sa + n]);
                for (dv, $x) in cx.regs.bools[da..da + n].iter_mut().zip(a.iter().copied()) {
                    *dv = $e;
                }
                Ok(())
            })
        };
    }
    match s.kind {
        NKind::F32 => not_loop!(f32s, 0.0f32, |x| x == 0.0),
        NKind::F64 => not_loop!(f64s, 0.0f64, |x| x == 0.0),
        NKind::I32 => not_loop!(i32s, 0i32, |x| x == 0),
        NKind::Bool => not_loop!(bools, false, |x| !x),
    }
}

/// Pure `d = s + delta` of `++`/`--`, as `eval_binary(Add, s, delta)`
/// computes it (`unify(kind, int)` is the kind itself).
fn add_const(s: Row, d: Row, delta: i32) -> Result<StepFn, String> {
    let k = f64::from(delta);
    Ok(match s.kind {
        NKind::F32 => map_row!(f32s, 0.0f32, s.at, d.at, |x| (x as f64 + k) as f32),
        NKind::F64 => map_row!(f64s, 0.0f64, s.at, d.at, |x| x + k),
        NKind::I32 => map_row!(i32s, 0i32, s.at, d.at, |x| x.wrapping_add(delta)),
        NKind::Bool => return Err("increments a bool value".to_string()),
    })
}

/// Push `d = l <op> r` (not `&&`/`||`): same-kind arithmetic and
/// comparisons are pure vectorizable loops, integer `/` and `%` run per
/// active lane (they can fault), and mixed kinds go through
/// [`fast_eval_binary`] per active lane.
fn push_binary(code: &mut Code, op: BinOp, l: Row, r: Row, d: Dst) {
    let (la, ra, da) = (l.at, r.at, d.row.at);
    // Operands are snapshotted into fixed-size locals so in-place forms
    // (`x = x + y`) keep exact per-lane semantics.
    macro_rules! arith {
        ($field:ident, $zero:expr, |$a:ident, $b:ident| $e:expr) => {
            step(move |cx| {
                let n = cx.width;
                let regs = &mut *cx.regs;
                if n == BATCH_LANES {
                    let mut a = [$zero; BATCH_LANES];
                    let mut b = [$zero; BATCH_LANES];
                    a.copy_from_slice(&regs.$field[la..la + BATCH_LANES]);
                    b.copy_from_slice(&regs.$field[ra..ra + BATCH_LANES]);
                    for (dv, ($a, $b)) in regs.$field[da..da + BATCH_LANES]
                        .iter_mut()
                        .zip(a.iter().copied().zip(b.iter().copied()))
                    {
                        *dv = $e;
                    }
                } else {
                    for li in 0..n {
                        let ($a, $b) = (regs.$field[la + li], regs.$field[ra + li]);
                        regs.$field[da + li] = $e;
                    }
                }
                Ok(())
            })
        };
    }
    macro_rules! cmp {
        ($field:ident, $op:tt) => {
            step(move |cx| {
                let n = cx.width;
                let regs = &mut *cx.regs;
                if n == BATCH_LANES {
                    for (dv, (av, bv)) in regs.bools[da..da + BATCH_LANES].iter_mut().zip(
                        regs.$field[la..la + BATCH_LANES]
                            .iter()
                            .zip(&regs.$field[ra..ra + BATCH_LANES]),
                    ) {
                        *dv = *av $op *bv;
                    }
                } else {
                    for li in 0..n {
                        regs.bools[da + li] = regs.$field[la + li] $op regs.$field[ra + li];
                    }
                }
                Ok(())
            })
        };
    }
    // Widening f32 → f64 is exact, so comparing the raw f32s (or i32s)
    // equals the oracle's widened comparisons, and f32 arithmetic rounded
    // from f64 equals the oracle's.
    macro_rules! cmp_kind {
        ($field:ident) => {
            match op {
                BinOp::Eq => Some(cmp!($field, ==)),
                BinOp::Ne => Some(cmp!($field, !=)),
                BinOp::Lt => Some(cmp!($field, <)),
                BinOp::Le => Some(cmp!($field, <=)),
                BinOp::Gt => Some(cmp!($field, >)),
                BinOp::Ge => Some(cmp!($field, >=)),
                _ => None,
            }
        };
    }
    let pure = match (l.kind, r.kind, op) {
        (NKind::F32, NKind::F32, BinOp::Add) => {
            Some(arith!(f32s, 0.0f32, |a, b| (a as f64 + b as f64) as f32))
        }
        (NKind::F32, NKind::F32, BinOp::Sub) => {
            Some(arith!(f32s, 0.0f32, |a, b| (a as f64 - b as f64) as f32))
        }
        (NKind::F32, NKind::F32, BinOp::Mul) => {
            Some(arith!(f32s, 0.0f32, |a, b| (a as f64 * b as f64) as f32))
        }
        (NKind::F32, NKind::F32, BinOp::Div) => {
            Some(arith!(f32s, 0.0f32, |a, b| (a as f64 / b as f64) as f32))
        }
        (NKind::F64, NKind::F64, BinOp::Add) => Some(arith!(f64s, 0.0f64, |a, b| a + b)),
        (NKind::F64, NKind::F64, BinOp::Sub) => Some(arith!(f64s, 0.0f64, |a, b| a - b)),
        (NKind::F64, NKind::F64, BinOp::Mul) => Some(arith!(f64s, 0.0f64, |a, b| a * b)),
        (NKind::F64, NKind::F64, BinOp::Div) => Some(arith!(f64s, 0.0f64, |a, b| a / b)),
        (NKind::I32, NKind::I32, BinOp::Add) => Some(arith!(i32s, 0i32, |a, b| a.wrapping_add(b))),
        (NKind::I32, NKind::I32, BinOp::Sub) => Some(arith!(i32s, 0i32, |a, b| a.wrapping_sub(b))),
        (NKind::I32, NKind::I32, BinOp::Mul) => Some(arith!(i32s, 0i32, |a, b| a.wrapping_mul(b))),
        (NKind::F32, NKind::F32, _) => cmp_kind!(f32s),
        (NKind::F64, NKind::F64, _) => cmp_kind!(f64s),
        (NKind::I32, NKind::I32, BinOp::Div | BinOp::Rem) => {
            let is_div = op == BinOp::Div;
            // Can fault, so only the active lanes divide.
            code.push(step(move |cx| {
                for li in cx.lanes() {
                    let (a, b) = (cx.regs.i32s[la + li], cx.regs.i32s[ra + li]);
                    if b == 0 {
                        // "integer division by zero" at replay
                        return Err(NativeAbort::Error);
                    }
                    let (a, b) = (a as i64, b as i64);
                    cx.regs.i32s[da + li] = if is_div { a / b } else { a % b } as i32;
                }
                Ok(())
            }));
            return;
        }
        (NKind::I32, NKind::I32, _) => cmp_kind!(i32s),
        _ => None,
    };
    match pure {
        Some(f) => code.pure(d, f),
        None => code.push(generic_bin(op, l, r, d.row)),
    }
}

/// Fast path for the overwhelmingly common operand pairs of the per-lane
/// binary steps, bit-identical to [`eval_binary`] (which it falls back to):
/// float arithmetic is computed in `f64` and rounded back exactly like the
/// interpreter, integers fold through `i64` with the same wrapping and
/// zero-division behaviour.
#[inline(always)]
fn fast_eval_binary(op: BinOp, l: Value, r: Value) -> Result<Value, KernelError> {
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

/// Per-lane binary op through [`fast_eval_binary`] (mixed-kind operands,
/// `bool` arithmetic); active lanes only, aborting the batch on the first
/// error.
fn generic_bin(op: BinOp, l: Row, r: Row, d: Row) -> StepFn {
    step(move |cx| {
        for li in cx.lanes() {
            let a = read_value(cx.regs, l, li);
            let b = read_value(cx.regs, r, li);
            match fast_eval_binary(op, a, b) {
                Ok(v) => write_value(cx.regs, d, li, v),
                Err(_) => return Err(NativeAbort::Error),
            }
        }
        Ok(())
    })
}

/// Pure work-item query into an `i32` row.
fn work_item(b: Builtin, d: Row) -> StepFn {
    let da = d.at;
    macro_rules! wi {
        (|$it:ident| $e:expr) => {
            step(move |cx| {
                let n = cx.width;
                for (dv, $it) in cx.regs.i32s[da..da + n].iter_mut().zip(cx.items) {
                    *dv = ($e) as i32;
                }
                Ok(())
            })
        };
    }
    match b {
        Builtin::GetGlobalId => wi!(|it| it.global_id),
        Builtin::GetLocalId => wi!(|it| it.local_id),
        Builtin::GetGroupId => wi!(|it| it.group_id),
        Builtin::GetGlobalSize => wi!(|it| it.global_size),
        Builtin::GetLocalSize => wi!(|it| it.local_size),
        _ => wi!(|it| it.global_size.div_ceil(it.local_size.max(1))),
    }
}

/// A math builtin over `args` into `d`, and whether the step is pure.
/// All-`f32` argument lists produce `f32` results, computed in the `f64`
/// domain exactly like [`Builtin::eval_math`]; everything else calls it per
/// active lane.
fn math(b: Builtin, args: &[Row], d: Row) -> (StepFn, bool) {
    let all_f32 = args.iter().all(|r| r.kind == NKind::F32);
    let da = d.at;
    let a0 = args[0].at;
    let unary: Option<fn(f64) -> f64> = match b {
        Builtin::Sqrt => Some(f64::sqrt),
        Builtin::Fabs => Some(f64::abs),
        Builtin::Exp => Some(f64::exp),
        Builtin::Log => Some(f64::ln),
        Builtin::Sin => Some(f64::sin),
        Builtin::Cos => Some(f64::cos),
        Builtin::Floor => Some(f64::floor),
        Builtin::Ceil => Some(f64::ceil),
        _ => None,
    };
    let binary: Option<fn(f64, f64) -> f64> = match b {
        Builtin::Pow => Some(f64::powf),
        Builtin::Fmin | Builtin::Min => Some(f64::min),
        Builtin::Fmax | Builtin::Max => Some(f64::max),
        Builtin::Atan2 => Some(f64::atan2),
        _ => None,
    };
    let ternary: Option<fn(f64, f64, f64) -> f64> = match b {
        Builtin::Fma => Some(f64::mul_add),
        Builtin::Clamp => Some(|x, lo, hi| x.max(lo).min(hi)),
        _ => None,
    };
    match (b.reinterprets_as(), args[0].kind) {
        (Some(ScalarType::Float), NKind::I32) => {
            return (
                conv_row!(i32s, f32s, a0, da, |x| f32::from_bits(x as u32)),
                true,
            )
        }
        (Some(ScalarType::Int), NKind::F32) => {
            return (conv_row!(f32s, i32s, a0, da, |x| x.to_bits() as i32), true)
        }
        (Some(_), kind) if kind == d.kind => return (conv(args[0], d), true),
        _ => {}
    }
    if all_f32 {
        if let (Some(g), 1) = (unary, args.len()) {
            return (map_row!(f32s, 0.0f32, a0, da, |x| g(x as f64) as f32), true);
        }
        if let (Some(g), 2) = (binary, args.len()) {
            let a1 = args[1].at;
            return (
                step(move |cx| {
                    let n = cx.width;
                    let mut a = [0.0f32; BATCH_LANES];
                    let mut c = [0.0f32; BATCH_LANES];
                    a[..n].copy_from_slice(&cx.regs.f32s[a0..a0 + n]);
                    c[..n].copy_from_slice(&cx.regs.f32s[a1..a1 + n]);
                    for (dv, (x, y)) in cx.regs.f32s[da..da + n]
                        .iter_mut()
                        .zip(a.iter().copied().zip(c.iter().copied()))
                    {
                        *dv = g(x as f64, y as f64) as f32;
                    }
                    Ok(())
                }),
                true,
            );
        }
        if let (Some(g), 3) = (ternary, args.len()) {
            let (a1, a2) = (args[1].at, args[2].at);
            return (
                step(move |cx| {
                    let r = &mut cx.regs.f32s;
                    for li in 0..cx.width {
                        r[da + li] =
                            g(r[a0 + li] as f64, r[a1 + li] as f64, r[a2 + li] as f64) as f32;
                    }
                    Ok(())
                }),
                true,
            );
        }
    }
    let args: Vec<Row> = args.to_vec();
    (
        step(move |cx| {
            for li in cx.lanes() {
                let mut vals = [Value::Int(0); 3];
                for (v, r) in vals.iter_mut().zip(&args) {
                    *v = read_value(cx.regs, *r, li);
                }
                let res = b.eval_math(&vals[..args.len()]);
                write_value(cx.regs, d, li, res);
            }
            Ok(())
        }),
        false,
    )
}

/// `get(dx, dy)` into the `f32` row `d`: row slices when `dx` and `dy` are
/// `int`s, the same in every active lane, over linear global ids; per lane
/// otherwise.
fn stencil_step(dx: Row, dy: Row, d: Row, ints: bool) -> StepFn {
    step(move |cx| {
        let Some(ctx) = cx.stencil else {
            return Err(NativeAbort::Error);
        };
        if cx.hazards {
            // Neighbour reads cross lanes by design.
            cx.slots[ctx.in_slot].load(None)?;
        }
        let (lo, n) = (cx.lo, cx.n_active);
        if ints && cx.linear && cx.run {
            let x = cx.regs.i32s[dx.at + lo];
            let y = cx.regs.i32s[dy.at + lo];
            let uniform = cx.regs.i32s[dx.at + lo..dx.at + n].iter().all(|v| *v == x)
                & cx.regs.i32s[dy.at + lo..dy.at + n].iter().all(|v| *v == y);
            if uniform {
                return stencil_get_rows(cx, ctx, d.at, i64::from(x), i64::from(y));
            }
        }
        for li in cx.lanes() {
            let (x, y) = (addr_of(cx.regs, dx, li), addr_of(cx.regs, dy, li));
            stencil_get_lane(cx, ctx, d.at, li, x, y)?;
        }
        Ok(())
    })
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

/// Store the active run `lo..n_active` of the `f32` row `s` to consecutive
/// elements, `start` being lane `lo`'s address, logging the overwritten span
/// for rollback.
fn store_f32_span(
    cx: &mut ExecCtx<'_, '_>,
    slot: u16,
    s: usize,
    start: usize,
) -> Result<(), NativeAbort> {
    let n = cx.n_active - cx.lo;
    let s = s + cx.lo;
    if cx.hazards {
        cx.slots[slot as usize].store(Some(start as i64 - cx.lo as i64))?;
    }
    let ArgBinding::Buffer(BufferView::F32(buf)) = &mut cx.args[slot as usize] else {
        return Err(NativeAbort::Error);
    };
    let Some(dst) = buf.get_mut(start..start + n) else {
        return Err(NativeAbort::Error);
    };
    cx.undo.push_span(slot, start, dst);
    dst.copy_from_slice(&cx.regs.f32s[s..s + n]);
    Ok(())
}

/// Per-lane buffer load: any address kind, any element type, any address
/// pattern, any lane mask.
fn load_lanes(cx: &mut ExecCtx<'_, '_>, slot: usize, i: Row, d: Row) -> Result<(), NativeAbort> {
    for li in cx.lanes() {
        let addr = addr_of(cx.regs, i, li);
        if addr < 0 {
            return Err(NativeAbort::Error);
        }
        if cx.hazards {
            cx.slots[slot].load(Some(addr - li as i64))?;
        }
        let ArgBinding::Buffer(view) = &cx.args[slot] else {
            return Err(NativeAbort::Error);
        };
        match view {
            BufferView::F32(buf) => match buf.get(addr as usize) {
                Some(v) => cx.regs.f32s[d.at + li] = *v,
                None => return Err(NativeAbort::Error),
            },
            other => match other.load(addr as usize) {
                Some(v) => write_value(cx.regs, d, li, v),
                None => return Err(NativeAbort::Error),
            },
        }
    }
    Ok(())
}

/// Per-lane buffer store of `s` (of the element type), the twin of
/// [`load_lanes`].
fn store_lanes(cx: &mut ExecCtx<'_, '_>, slot: u16, i: Row, s: Row) -> Result<(), NativeAbort> {
    let slot_us = slot as usize;
    for li in cx.lanes() {
        let addr = addr_of(cx.regs, i, li);
        if addr < 0 {
            return Err(NativeAbort::Error);
        }
        if cx.hazards {
            cx.slots[slot_us].store(Some(addr - li as i64))?;
        }
        let addr = addr as usize;
        let v = read_value(cx.regs, s, li);
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
            cx.regs.f32s[d + li] = v.as_f64() as f32;
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
        native.set_tier(Tier::Interp);
        assert_eq!(native.tier(), Tier::Interp);
    }

    /// Compile `kernel` of `src` natively.
    fn native(src: &str, kernel: &str) -> Result<NativeKernel, String> {
        let p = Program::build(src).unwrap();
        compile_kernel(p.unit(), p.kernel(kernel).unwrap().index())
    }

    /// Run one batch of `lanes` linear work-items natively over a copy of
    /// `data`, next to the oracle: returns the native buffer bits and
    /// whether the batch diverged, after asserting bits and stats equal the
    /// oracle's.
    fn batch(src: &str, data: &[f32], scalars: &[Value], lanes: usize) -> (Vec<u32>, bool) {
        let p = Program::build(src).unwrap();
        let k = p.kernel("k").unwrap();
        let nk = Arc::new(compile_kernel(p.unit(), k.index()).unwrap());
        fn bind<'a>(v: &'a mut [f32], scalars: &[Value]) -> Vec<ArgBinding<'a>> {
            let mut args = vec![ArgBinding::buffer_f32(v)];
            args.extend(scalars.iter().map(|s| ArgBinding::Scalar(*s)));
            args
        }
        let items: Vec<WorkItem> = (0..lanes).map(|g| WorkItem::linear(g, lanes)).collect();
        let mut native_data = data.to_vec();
        let mut stats = ExecStats::default();
        let diverged = NativeExec::new(nk)
            .execute_batch(
                &items,
                &mut bind(&mut native_data, scalars),
                None,
                u64::MAX,
                &mut stats,
            )
            .expect("the batch completes natively");
        let mut oracle_data = data.to_vec();
        let oracle = p
            .run_ndrange_measured_interp(&k, lanes, &mut bind(&mut oracle_data, scalars))
            .unwrap();
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&native_data), bits(&oracle_data), "{src}");
        assert_eq!(stats, oracle, "{src}");
        (bits(&native_data), diverged)
    }

    #[test]
    fn map_kernel_compiles_with_iota_fast_paths() {
        let nk = native(
            r#"
            __kernel void k(__global float* v, int n) {
                int i = get_global_id(0);
                if (i < n) { v[i] = v[i] * 2.0f; }
            }
        "#,
            "k",
        )
        .unwrap();
        assert!(nk.uses_iota);
        assert_eq!(nk.paths, ["iota f32 span", "iota f32 span"]);
    }

    #[test]
    fn vm_frame_calls_are_ineligible() {
        // Recursion cannot be inlined, and only the interpreter runs calls.
        let err = native(
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
            "k",
        )
        .unwrap_err();
        assert!(err.contains("without inlining it"), "reason: {err}");
    }

    /// Helper calls are inlined at compile time, a helper inside a helper
    /// included, and compute what the oracle computes.
    #[test]
    fn small_helper_calls_are_inlined() {
        let src = r#"
            float square(float x) { return x * x; }
            float norm2(float a, float b) { float s = square(a); s += square(b); return s; }
            __kernel void k(__global float* v, int n) {
                int i = get_global_id(0);
                v[i] = norm2(v[i], 3.0f) + square(1.5f);
            }
        "#;
        assert!(native(src, "k").is_ok());
        let data: Vec<f32> = (0..40).map(|i| i as f32 * 0.25 - 3.0).collect();
        let (bits, diverged) = batch(src, &data, &[Value::Int(40)], 40);
        assert_eq!(f32::from_bits(bits[12]), 9.0 + 2.25);
        assert!(!diverged);
    }

    /// A loop's iterations count against the batch budget: one per
    /// iteration any lane goes around.
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
        let nk = Arc::new(compile_kernel(p.unit(), 0).unwrap());
        let run = |budget: u64| {
            let mut data = vec![1.0f32; 8];
            let mut args = vec![
                ArgBinding::buffer_f32(&mut data),
                ArgBinding::Scalar(Value::Int(8)),
            ];
            let mut stats = ExecStats::default();
            NativeExec::new(Arc::clone(&nk)).execute_batch(
                &[WorkItem::linear(0, 1)],
                &mut args,
                None,
                budget,
                &mut stats,
            )
        };
        assert_eq!(run(7), Err(NativeAbort::Error), "8 iterations, 7 allowed");
        assert_eq!(run(8), Ok(false));
    }

    /// A single-lane scan that faults in iteration `k`: the `k` element
    /// stores before the fault are one undo span (not `k` entries), rollback
    /// restores the output bit for bit, and the launch then reports the
    /// oracle's error over the oracle's buffers.
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
        let nk = Arc::new(compile_kernel(p.unit(), handle.index()).unwrap());
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
        let oracle = launch(Tier::Interp);
        assert!(oracle.0.contains("out of bounds"), "{}", oracle.0);
        assert_ne!(oracle.1, original, "the replay redoes the stores");
        assert_eq!(launch(Tier::Native), oracle);
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

    /// Every structured control-flow shape reconverges where it ends: the
    /// lanes that took either side run the code after it together (the
    /// final store happens in every lane that did not return), with the
    /// oracle's bits and stats.
    #[test]
    fn reconvergence_table_per_shape() {
        let shapes = [
            // Diamond.
            ("if (g % 3 == 0) { x = 1.0f; } else { x = 2.0f; }", true),
            // If without else, taken by a prefix: no divergence.
            ("if (g < 40) { x = 3.0f; }", false),
            // If without else, taken by scattered lanes.
            ("if (g % 2 == 1) { x = 3.0f; }", true),
            // Early return: only the lanes that stay store.
            ("if (g % 5 == 0) { return; }", true),
            // Loop with break and continue.
            ("for (int i = 0; i < 9; i++) { if (i == g % 4) { continue; } if (i > g % 7) { break; } x += 1.0f; }", true),
            // Nested loops.
            ("for (int i = 0; i < g % 3; i++) { for (int j = 0; j <= i; j++) { x += 0.5f; } }", true),
            // A return inside a loop.
            ("while (x < 100.0f) { x = x * 2.0f + 1.0f; if (x > 40.0f + (float) g) { return; } }", true),
            // Short circuits and a ternary.
            ("x = (g > 3 && g % 2 == 0) || g == 1 ? x + 1.0f : x - 1.0f;", true),
        ];
        for (shape, diverges) in shapes {
            let src = format!(
                "__kernel void k(__global float* v, int n) {{\n\
                 int g = get_global_id(0); float x = v[g];\n\
                 {shape}\n\
                 v[g] = x + 1000.0f;\n\
                 }}"
            );
            let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
            let (bits, diverged) = batch(&src, &data, &[Value::Int(64)], 64);
            assert_eq!(diverged, diverges, "{shape}");
            let stored = bits.iter().filter(|b| f32::from_bits(**b) >= 900.0).count();
            let returned = if shape.contains("return") {
                bits.iter()
                    .enumerate()
                    .filter(|(g, b)| f32::from_bits(**b) == *g as f32)
                    .count()
            } else {
                0
            };
            assert_eq!(stored + returned, 64, "{shape}");
        }
    }

    /// The OSEM update: the tail guard is a prefix mask, so a batch whose
    /// guarded lanes all take the UDF's early return does not diverge, and
    /// one whose lanes disagree does and rejoins at the store.
    #[test]
    fn listing_names_every_branch_reconvergence_block() {
        let src = r#"
            float func(float f) { if (f > 10.0f) { return f * 0.5f; } return f; }
            __kernel void k(__global float* v, int n) {
                int gid = get_global_id(0);
                if (gid < n) { v[gid] = func(v[gid]) + 1.0f; }
            }
        "#;
        let uniform: Vec<f32> = (0..64).map(|i| 20.0 + i as f32).collect();
        let (bits, diverged) = batch(src, &uniform, &[Value::Int(50)], 64);
        assert!(!diverged);
        assert_eq!(f32::from_bits(bits[49]), 35.5);
        assert_eq!(f32::from_bits(bits[50]), 70.0, "the guard left lane 50 out");
        let mixed: Vec<f32> = (0..64).map(|i| i as f32 * 0.5).collect();
        let (bits, diverged) = batch(src, &mixed, &[Value::Int(50)], 64);
        assert!(diverged);
        assert_eq!(f32::from_bits(bits[10]), 6.0);
        assert_eq!(f32::from_bits(bits[30]), 8.5);
    }

    #[test]
    fn shifted_index_stencil_kernel_compiles_with_span_and_row_paths() {
        let nk = native(
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
            "SKELCL_MAP_OVERLAP",
        )
        .unwrap();
        let count = |p: &str| nk.paths.iter().filter(|x| **x == p).count();
        assert_eq!(count("f32 span when contiguous"), 2);
        assert_eq!(count("row slices when uniform"), 2);
        assert_eq!(count("iota f32 span"), 0);
    }
}
