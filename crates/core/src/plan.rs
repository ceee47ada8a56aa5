//! Lazy pipeline graphs with cross-stage kernel fusion.
//!
//! [`Vector::lazy`] (and [`Matrix::lazy`](crate::matrix::Matrix::lazy))
//! opens a *plan*: fluent skeleton calls append nodes to an expression DAG
//! instead of enqueueing kernels, and nothing executes until a terminal form
//! ([`Plan::exec`] / [`PlanVec::into_vector`] / [`Plan::collect`] /
//! [`PlanScalar::scalar`]). Before lowering, a fusion pass rewrites the DAG:
//! adjacent elementwise stages (map∘map, zip∘map) compose their user
//! functions into **one** generated kernel — with hygienic renaming when UDFs
//! collide — and a trailing elementwise chain is inlined into the first phase
//! of a reduce or scan. A fused chain runs as a single kernel launch per
//! device with zero intermediate containers; every fusable boundary fuses
//! unless the plan's [`FusionPolicy`] is `Never`.
//!
//! **One plan.** A pipeline stage — map, zip, index map, reduce, scan,
//! stencil — is one record (`Stage`: its kind, chain input, user function,
//! argument values and what only some kinds carry), so what a consumer needs
//! of a stage is a method on it: output type, cost, memo key, `explain`
//! line. The handle is one struct, [`Plan`], over one graph; [`PlanVec`],
//! [`PlanScalar`] and [`MatPlan`] are its three output kinds ([`PlanKind`]),
//! which differ in what the terminal returns and nothing else.
//!
//! Fused and unfused plans are **bit-identical**: the fused kernels inline
//! the exact per-element expression the staged pipeline would compute, in
//! the same evaluation order. And a plan *is* the eager skeletons' launch
//! path, not a mirror of it: an eager call is a group of one stage (a
//! closure's included), and every launch group — one stage or many — is
//! rendered by [`crate::kernelgen`]'s one renderer, cached in the runtime's
//! `LoweringMemo` (built program included) and launched by `run_group`, the
//! one place a stage kind meets its launcher — `launch_elementwise`,
//! `launch_and_gather` and the final fold, `launch_scan`. This module
//! contains no kernel text; the launchers live next to their skeletons.
//!
//! ```
//! use skelcl::prelude::*;
//!
//! let rt = skelcl::init_gpus(2);
//! let xs = Vector::from_vec(&rt, vec![1.0f32, 2.0, 3.0, 4.0]);
//! let ys = Vector::from_vec(&rt, vec![10.0f32; 4]);
//! let mul = Zip::<f32, f32, f32>::from_source(
//!     "float func(float x, float y) { return x * y; }",
//! );
//! let add = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
//! // Dot product as one fused zip∘reduce launch per device.
//! let dot = xs.lazy().zip(&ys, &mul).reduce(&add).scalar().unwrap();
//! assert_eq!(dot, 100.0);
//! // A container may be zipped with itself: ‖x‖² in one launch per device.
//! assert_eq!(xs.lazy().zip(&xs, &mul).reduce(&add).scalar().unwrap(), 30.0);
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use oclsim::{Buffer, CostHint, KernelArg, Pod, Value};
use skelcl_kernel::pack::JobSpans;
use skelcl_kernel::types::ScalarType;

use crate::args::Args;
use crate::container::{Container, DynContainer};
use crate::distribution::{Boundary, Distribution};
use crate::error::{Result, SkelError};
use crate::fusion::FusionPolicy;
use crate::kernelgen::{self, render_group, RenderedGroup, StageKind, UdfInfo};
use crate::matrix::Matrix;
use crate::runtime::SkelCl;
use crate::skeletons::exec::{buffer_arg, Bound, CreateBuffer};
use crate::skeletons::udf::check_arg_count;
use crate::skeletons::{
    create_buffer, launch_and_gather, launch_elementwise, launch_geometry, launch_scan, run_call,
    DeviceScalar, HostOperator, LaunchConfig, Map, MapOverlap, PreparedArgs, PreparedCall, Reduce,
    ReducePlan, Scan, ScanTrace, StageKernels, Zip,
};
use crate::vector::Vector;

/// Dispatch a dynamically-typed pipeline element type to monomorphic code.
/// `Bool` never appears as a pipeline element type (builders reject it), but
/// the arm keeps the match exhaustive.
macro_rules! with_scalar {
    ($ty:expr, $T:ident, $body:block) => {
        match $ty {
            ScalarType::Float => {
                type $T = f32;
                $body
            }
            ScalarType::Double => {
                type $T = f64;
                $body
            }
            ScalarType::Int => {
                type $T = i32;
                $body
            }
            ScalarType::Uint => {
                type $T = u32;
                $body
            }
            ScalarType::Bool => {
                return Err(SkelError::Plan(
                    "bool is not a supported pipeline element type".into(),
                ))
            }
        }
    };
}

/// One pipeline stage — of a plan, or an eager call's only one. Every kind
/// is this one record, and what the fusion pass, the lowering memo, the
/// group runner and `explain` need of a stage is a method on it.
#[derive(Clone)]
pub(crate) struct Stage {
    pub(crate) kind: StageKind,
    /// Node index of the chain input.
    pub(crate) input: usize,
    /// A zip's second input: its source node, and that node's slot in the
    /// graph's source table (slot 1 of an eager zip).
    pub(crate) side: Option<(usize, usize)>,
    pub(crate) udf: StageFn,
    /// A plan stage's scalar additional arguments (an eager call's come
    /// prepared with its inputs).
    pub(crate) args: Args,
    /// A reduce or scan operator evaluated on the host.
    pub(crate) host: Option<Arc<HostOperator>>,
    /// A stencil's halo width, boundary policy and the sweeps its ghost rows
    /// serve (one in a plan).
    pub(crate) stencil: Option<(usize, Boundary<f32>, usize)>,
    /// Allocates `len` of the stage's output elements on a device.
    pub(crate) create: CreateBuffer,
}

/// A stage's user function: analysed source text, lowered through the
/// runtime's memo — or a closure's kernels, built once per skeleton
/// instance, which only ever run as an eager call's lone stage.
#[derive(Clone)]
pub(crate) enum StageFn {
    Source(Arc<UdfInfo>),
    Closure(Arc<StageKernels>),
}

impl Stage {
    /// A `kind` stage after node `input` with nothing kind-specific set.
    pub(crate) fn new(
        kind: StageKind,
        input: usize,
        udf: StageFn,
        args: Args,
        create: CreateBuffer,
    ) -> Stage {
        Stage {
            kind,
            input,
            side: None,
            udf,
            args,
            host: None,
            stencil: None,
            create,
        }
    }

    /// The analysed source text (every stage a plan admits has one).
    fn info(&self) -> Option<&Arc<UdfInfo>> {
        match &self.udf {
            StageFn::Source(info) => Some(info),
            StageFn::Closure(_) => None,
        }
    }

    /// Element type the stage produces, when it is a device scalar type.
    fn out_ty(&self) -> Option<ScalarType> {
        self.info().map(|info| info.return_type)
    }

    /// Whether further stages may fuse behind this one (a fold closes its
    /// group).
    fn elementwise(&self) -> bool {
        matches!(self.kind, StageKind::Map | StageKind::Zip)
    }

    /// What the stage contributes to its group's shape — the lowering
    /// memo's key: its kind and its analysed user function.
    fn memo_key(&self) -> Option<(StageKind, &Arc<UdfInfo>)> {
        self.info().map(|info| (self.kind, info))
    }

    /// The user function's per-element cost, which a scheduler weights the
    /// partition by or places a reduction's final fold with.
    pub(crate) fn cost(&self) -> CostHint {
        match &self.udf {
            StageFn::Source(info) => info.cost_hint(),
            StageFn::Closure(kernels) => kernels.per_element_cost.unwrap_or(CostHint::DEFAULT),
        }
    }

    /// The additional arguments a call prepared fit this stage after its
    /// own: a reduce or scan operator takes none, source text as many
    /// scalars as it declares; a closure reads what it is given.
    fn check_args(&self, args: &PreparedArgs) -> Result<()> {
        let unsupported = |why: String| Err(SkelError::UnsupportedArg(why));
        if self.host.is_some() && args.len() != 0 {
            let name = self.kind.name();
            return unsupported(format!(
                "the {name} skeleton's binary operator takes no additional arguments"
            ));
        }
        match self.info() {
            Some(_) if args.has_vectors() => unsupported(
                "vector additional arguments require a native (closure) user function".into(),
            ),
            Some(info) => check_arg_count(info, self.args.len() + args.len()),
            None => Ok(()),
        }
    }

    /// Run the stage as the one-stage group of an eager call over `call`.
    pub(crate) fn run(
        &self,
        call: &PreparedCall,
        cfg: &LaunchConfig<'_>,
        target: Target,
    ) -> Result<GroupOutput> {
        let group = Group::of(vec![(0, self)]);
        let lowered = group.lower(&call.runtime)?;
        run_group(&group, &lowered, call, cfg, None, target)
    }

    /// The scalar additional arguments, in declaration order.
    fn arg_values(&self) -> impl Iterator<Item = Value> + '_ {
        self.args
            .items()
            .iter()
            .filter_map(|item| item.scalar_value())
    }

    /// The stage as `explain()` lists it.
    fn line(&self) -> String {
        let mut line = format!("{}(%{}", self.kind.name(), self.input);
        if let Some((node, _)) = self.side {
            let _ = write!(line, ", %{node}");
        }
        if let Some((halo, ..)) = self.stencil {
            let _ = write!(line, ", halo {halo}");
        }
        let _ = write!(line, ")");
        if let Some(ty) = self.out_ty() {
            let _ = write!(line, " -> {ty}");
        }
        line
    }
}

/// One node of the lazy expression DAG.
#[derive(Clone)]
pub(crate) enum PlanNode {
    /// An input container (`source` indexes the graph's source table).
    Source { source: usize, ty: ScalarType },
    /// A pipeline stage.
    Stage(Stage),
}

impl PlanNode {
    fn stage(&self) -> Option<&Stage> {
        match self {
            PlanNode::Source { .. } => None,
            PlanNode::Stage(stage) => Some(stage),
        }
    }

    /// Element type the node produces.
    fn out_ty(&self) -> Option<ScalarType> {
        match self {
            PlanNode::Source { ty, .. } => Some(*ty),
            PlanNode::Stage(stage) => stage.out_ty(),
        }
    }

    /// The node as `explain()` lists it; `describe` renders an input source.
    fn line(&self, describe: &dyn Fn(usize) -> String) -> String {
        match self {
            PlanNode::Source { source, ty } => {
                format!("source[{source}] : {ty} ({})", describe(*source))
            }
            PlanNode::Stage(stage) => stage.line(),
        }
    }
}

/// A run of stages lowered to one launch — never empty; its last stage says
/// which launcher runs it — plus the stage boundaries the fusion pass
/// decided while forming it. An eager call is a group of one stage.
pub(crate) struct Group<'a> {
    /// Node index and record of every stage, in chain order.
    stages: Vec<(usize, &'a Stage)>,
    /// The node after each boundary the fusion pass decided for this group:
    /// fused under [`FusionPolicy::Auto`], split under `Never`.
    boundaries: Vec<usize>,
}

impl<'a> Group<'a> {
    pub(crate) fn of(stages: Vec<(usize, &'a Stage)>) -> Group<'a> {
        Group {
            stages,
            boundaries: Vec::new(),
        }
    }

    fn last(&self) -> &'a Stage {
        self.stages[self.stages.len() - 1].1
    }

    /// The group's shape, in stage order: what the lowering memo is keyed by.
    fn shapes(&self) -> Result<Vec<(StageKind, &'a Arc<UdfInfo>)>> {
        let keys = self.stages.iter().map(|(_, s)| s.memo_key());
        keys.collect::<Option<_>>()
            .ok_or_else(|| SkelError::Internal("a closure stage has no shape to lower".into()))
    }

    /// The scalar additional arguments of the stages, in stage order
    /// (matching the generated kernel's extra-parameter declarations).
    fn arg_values(&self) -> impl Iterator<Item = Value> + '_ {
        self.stages.iter().flat_map(|(_, s)| s.arg_values())
    }

    /// The group's kernels — from the runtime's memo, the only place a group
    /// of source stages is ever lowered, or a lone closure stage's own —
    /// bound to this group's arguments and inputs.
    pub(crate) fn lower(&self, runtime: &SkelCl) -> Result<LoweredGroup> {
        let kernels = match &self.last().udf {
            StageFn::Closure(kernels) if self.stages.len() == 1 => {
                GroupKernels::Closure(kernels.clone())
            }
            _ => GroupKernels::Memo(runtime.lowerings().lowered(&self.shapes()?, false)?),
        };
        Ok(self.bind(kernels))
    }

    /// Bind `kernels`, the group's lowering, to this group's instance.
    fn bind(&self, kernels: GroupKernels) -> LoweredGroup {
        LoweredGroup {
            kernels,
            host_op: self.last().host.clone(),
            side_sources: self
                .stages
                .iter()
                .filter_map(|(_, s)| s.side)
                .map(|(_, slot)| slot)
                .collect(),
            extra_args: self.arg_values().collect(),
        }
    }

    /// The fusion accounting — of a vector plan's group, a matrix plan's and
    /// a packed batch's alike: every stage but the last disappeared into the
    /// group's kernel, where it would have cost one more launch per active
    /// device and materialised an intermediate container — one buffer per
    /// active device, `stored_elems` elements over all of them.
    fn account_fusion(&self, runtime: &SkelCl, active_devices: usize, stored_elems: usize) {
        let interior = &self.stages[..self.stages.len() - 1];
        let merged = interior.len();
        let bytes = interior
            .iter()
            .map(|(_, s)| stored_elems * s.out_ty().map_or(0, ScalarType::size_bytes))
            .sum();
        runtime.charge_fusion(
            merged,
            merged * active_devices,
            merged * active_devices,
            bytes,
        );
    }
}

/// The fusion pass: walk the stages (chain order) and, unless `policy` is
/// `Never`, merge every stage into the open elementwise group. Reduce and
/// scan stages may join (and close) an open elementwise group — their first
/// phase absorbs the chain — while stencil stages, which read a halo rather
/// than one element, are barriers that always stand alone.
fn plan_groups<'a>(stages: &[(usize, &'a Stage)], policy: FusionPolicy) -> Vec<Group<'a>> {
    let mut groups: Vec<Group> = Vec::new();
    let mut open: Option<Group> = None;
    for &(idx, stage) in stages {
        if stage.stencil.is_some() {
            // Stencil barrier: close the open group, emit a lone group.
            groups.extend(open.take());
            groups.push(Group::of(vec![(idx, stage)]));
            continue;
        }
        let group = match open.take() {
            None => Group::of(vec![(idx, stage)]),
            Some(mut group) => {
                group.boundaries.push(idx);
                if policy == FusionPolicy::Never {
                    groups.push(group);
                    Group::of(vec![(idx, stage)])
                } else {
                    group.stages.push((idx, stage));
                    group
                }
            }
        };
        if stage.elementwise() {
            open = Some(group);
        } else {
            groups.push(group);
        }
    }
    groups.extend(open);
    groups
}

/// A group of stages lowered to its kernel: everything kernel generation
/// derives from the group's *shape* — the stages' kinds and UDF texts — and
/// nothing from a call or plan instance (argument values, input
/// containers). Computed once per shape per runtime by the [`LoweringMemo`]
/// and shared by every eager call and every plan of that shape.
pub(crate) struct LoweredShape {
    /// Insertion number in the runtime's memo.
    id: usize,
    /// The shape this lowering was computed from, kept to verify a memo hit
    /// by content.
    stages: Vec<(StageKind, Arc<UdfInfo>)>,
    /// Whether the shape is a packed launch's (see `render_group`).
    packed: bool,
    /// The rendered program, its kernel names and element types.
    pub(crate) rendered: RenderedGroup,
    /// The group's kernel and, for a scan, its offset kernel: built on the
    /// runtime's context at first use.
    kernels: OnceLock<Arc<StageKernels>>,
    /// The group's packed launch as one command buffer, recorded on the
    /// runtime's context at the first packed launch of the shape.
    recorded: parking_lot::Mutex<Option<Arc<PackedCommands>>>,
}

/// A shape's packed launch, recorded once and submitted per batch with the
/// batch's buffers, payloads (its job table among them) and scalars.
struct PackedCommands {
    buffer: oclsim::CommandBuffer,
    read: oclsim::ReadId,
}

impl LoweredShape {
    fn matches(&self, stages: &[(StageKind, &Arc<UdfInfo>)], packed: bool) -> bool {
        self.packed == packed
            && self.stages.len() == stages.len()
            && self
                .stages
                .iter()
                .zip(stages)
                .all(|((kind, udf), (other_kind, other))| {
                    kind == other_kind
                        && (Arc::ptr_eq(udf, other)
                            || (udf.source_hash == other.source_hash && udf.source == other.source))
                })
    }

    /// The built kernel(s) of the shape. `runtime` is the runtime whose memo
    /// holds the shape: the first call builds the program on its context
    /// (charging the build to its host clock — once, the context caches
    /// programs by source), and `set_kernel_tier` on it reaches the program.
    pub(crate) fn kernels(&self, runtime: &SkelCl) -> Result<&Arc<StageKernels>> {
        if let Some(kernels) = self.kernels.get() {
            return Ok(kernels);
        }
        let program = runtime.context().build_program(&self.rendered.source)?;
        let kernel = program.kernel(self.rendered.kernel)?;
        let offset = match self.rendered.offset_kernel {
            Some(name) => Some(program.kernel(name)?),
            None => None,
        };
        let kernels = StageKernels {
            kernel,
            offset,
            per_element_cost: None,
        };
        Ok(self.kernels.get_or_init(|| Arc::new(kernels)))
    }

    /// The shape's recorded packed launch, shaped like `bindings` — the
    /// input slots' buffers, the output's, the job table's own (if any),
    /// then the scalars: a write per buffer but the output, the kernel over
    /// every buffer and scalar, the read of the output. Recorded (and its
    /// commands charged to the host) on `runtime`'s context at the shape's
    /// first packed launch; every queue of that context runs it.
    fn packed_commands(
        &self,
        runtime: &SkelCl,
        bindings: &oclsim::Bindings,
    ) -> Result<Arc<PackedCommands>> {
        let mut packed = self.recorded.lock();
        if let Some(commands) = &*packed {
            return Ok(commands.clone());
        }
        let kernel = &self.kernels(runtime)?.kernel;
        let kinds: Vec<_> = bindings.buffers.iter().map(Buffer::kind).collect();
        let scalars = bindings.scalars.len();
        let out = self.rendered.inputs.len();
        let mut buffer = runtime.context().command_buffer(&kinds, scalars);
        for slot in (0..kinds.len()).filter(|&slot| slot != out) {
            buffer.write(slot)?;
        }
        let args: Vec<_> = (0..kinds.len())
            .map(oclsim::Slot::Buffer)
            .chain((0..scalars).map(oclsim::Slot::Scalar))
            .collect();
        buffer.kernel(kernel, &args)?;
        let read = buffer.read(out)?;
        let commands = Arc::new(PackedCommands { buffer, read });
        *packed = Some(commands.clone());
        Ok(commands)
    }
}

/// Lower one group of stages through the one renderer
/// ([`crate::kernelgen::render_group`]); `id` numbers the result. The miss
/// path of the [`LoweringMemo`], its only caller.
fn lower_group(
    stages: &[(StageKind, &Arc<UdfInfo>)],
    packed: bool,
    id: usize,
) -> Result<LoweredShape> {
    let borrowed: Vec<(StageKind, &UdfInfo)> =
        stages.iter().map(|&(kind, udf)| (kind, &**udf)).collect();
    Ok(LoweredShape {
        id,
        stages: stages
            .iter()
            .map(|&(kind, udf)| (kind, udf.clone()))
            .collect(),
        packed,
        rendered: render_group(&borrowed, packed)?,
        kernels: OnceLock::new(),
        recorded: parking_lot::Mutex::default(),
    })
}

/// The runtime's lowering memo — the only kernel cache: one [`LoweredShape`]
/// per distinct group shape, keyed by content — whether it is packed and,
/// per stage, the kind and the UDF source text — never by pointer, so two skeletons built from the same
/// source share an entry, and an eager call shares its entry with the
/// one-stage plan group of the same skeleton. It lives and grows exactly
/// like the program cache (one entry per distinct kernel, for the life of
/// the runtime).
pub(crate) struct LoweringMemo {
    /// Process-wide number of this memo: with an entry's `id` it names the
    /// entry without holding it (see [`CoalesceSignature`]).
    id: usize,
    /// Buckets by shape hash; a hit is confirmed by comparing content.
    entries: parking_lot::Mutex<HashMap<u64, Vec<Arc<LoweredShape>>>>,
    lowerings: AtomicUsize,
    hits: AtomicUsize,
}

impl Default for LoweringMemo {
    fn default() -> LoweringMemo {
        static MEMOS: AtomicUsize = AtomicUsize::new(0);
        LoweringMemo {
            id: MEMOS.fetch_add(1, Ordering::Relaxed),
            entries: parking_lot::Mutex::default(),
            lowerings: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
        }
    }
}

impl LoweringMemo {
    /// Lowerings performed (memo misses).
    pub(crate) fn lowerings(&self) -> usize {
        self.lowerings.load(Ordering::Relaxed)
    }

    /// Lookups answered from the memo.
    pub(crate) fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// The lowering of the group `stages`, packed or not, computed on first
    /// sight of its shape.
    pub(crate) fn lowered(
        &self,
        stages: &[(StageKind, &Arc<UdfInfo>)],
        packed: bool,
    ) -> Result<Arc<LoweredShape>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        packed.hash(&mut hasher);
        for (kind, udf) in stages {
            (kind, udf.source_hash).hash(&mut hasher);
        }
        let mut entries = self.entries.lock();
        let bucket = entries.entry(hasher.finish()).or_default();
        if let Some(shape) = bucket.iter().find(|s| s.matches(stages, packed)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(shape.clone());
        }
        // Lowered under the lock, so racing callers of one shape lower once.
        let id = self.lowerings.load(Ordering::Relaxed);
        let shape = Arc::new(lower_group(stages, packed, id)?);
        self.lowerings.store(id + 1, Ordering::Relaxed);
        bucket.push(shape.clone());
        Ok(shape)
    }
}

/// A lowered group bound to one plan instance or eager call: its kernels
/// plus the instance's buffer provenance, argument values and host operator.
pub(crate) struct LoweredGroup {
    kernels: GroupKernels,
    host_op: Option<Arc<HostOperator>>,
    /// Source-table slot of every kernel input after the chain (slot 0):
    /// the zips' second vectors, in stage order.
    side_sources: Vec<usize>,
    /// Additional scalar arguments, in stage order (matching the generated
    /// kernel's extra-parameter declarations).
    extra_args: Vec<Value>,
}

/// A lowered group's kernels: its shape's memo entry, built on the runtime
/// at first use, or a lone closure stage's own.
enum GroupKernels {
    Memo(Arc<LoweredShape>),
    Closure(Arc<StageKernels>),
}

/// What an eager call asks of its group's launch beyond the stage (a vector
/// plan's groups ask nothing): the buffers of a `run_into` target or
/// ping-pong spare to write in place where they fit; over a matrix, its
/// width and per device the first element the launch binds of its parts and
/// the elements it computes; a scan's whole local scans for its trace.
#[derive(Default)]
pub(crate) struct Target {
    pub(crate) reuse: Option<Vec<Option<Buffer>>>,
    pub(crate) windows: Option<(usize, Vec<(usize, usize)>)>,
    pub(crate) trace: bool,
}

/// What one launch group — and, from the last one, the plan or eager call —
/// produced: per-device buffers (the next intermediate, or the result
/// container's), a reduction's scalar and how it ran, or a scan's buffers
/// and its Figure 2 trace (whole local scans only when asked for).
pub(crate) enum GroupOutput {
    Buffers(Vec<Option<Buffer>>),
    Scalar(Value, ReducePlan),
    Scanned(Vec<Option<Buffer>>, ScanTrace<Value>),
}

impl GroupOutput {
    pub(crate) fn buffers(self) -> Result<Vec<Option<Buffer>>> {
        match self {
            GroupOutput::Buffers(buffers) | GroupOutput::Scanned(buffers, _) => Ok(buffers),
            GroupOutput::Scalar(..) => Err(SkelError::Internal(
                "a launch closed by a reduction produced no container".into(),
            )),
        }
    }

    pub(crate) fn scalar(self) -> Result<(Value, ReducePlan)> {
        match self {
            GroupOutput::Scalar(value, plan) => Ok((value, plan)),
            _ => Err(SkelError::Internal(
                "a launch not closed by a reduction produced no scalar".into(),
            )),
        }
    }
}

/// `count` as a kernel's `int` argument: the one checked conversion of the
/// counts a launch hands its kernels (lengths, offsets, stencil geometry).
pub(crate) fn kernel_int(count: usize) -> Result<Value> {
    let int = i32::try_from(count).map_err(|_| {
        SkelError::Plan(format!(
            "a launch of {count} elements exceeds the kernels' int range"
        ))
    })?;
    Ok(Value::Int(int))
}

/// The group runner — the one place a stage kind meets its launcher. It
/// checks the call's additional arguments, builds the group's kernels at
/// first use and binds `[inputs…, out, n, trailing…]`: the running `chain`
/// (the previous group's output; `None`: the call's first input, none for an
/// index map) and the zips' second inputs; a stencil's geometry or an index
/// map's first index, the group's argument values and the call's. Every
/// count passes [`kernel_int`] before anything is allocated or enqueued. The
/// last stage's kind picks the launcher: [`launch_elementwise`],
/// [`launch_and_gather`] and the final fold (on the host, or where `cfg`'s
/// scheduler places it) or [`launch_scan`].
pub(crate) fn run_group(
    group: &Group<'_>,
    lowered: &LoweredGroup,
    call: &PreparedCall,
    cfg: &LaunchConfig<'_>,
    chain: Option<&[Option<Buffer>]>,
    target: Target,
) -> Result<GroupOutput> {
    let (runtime, partition) = (&call.runtime, &call.partition);
    for (_, stage) in &group.stages {
        stage.check_args(&call.prepared_args)?;
    }
    if group.stages.len() > 1 {
        // A lone stage fuses nothing.
        let stored = partition.sizes().iter().sum();
        group.account_fusion(runtime, partition.active_devices().len(), stored);
    }
    let kernels = match &lowered.kernels {
        GroupKernels::Memo(shape) => shape.kernels(runtime)?.clone(),
        GroupKernels::Closure(kernels) => kernels.clone(),
    };
    let stage = group.last();
    let mut geometry = Vec::new();
    if let (Some((halo, boundary, _)), Some((cols, _))) = (stage.stencil, &target.windows) {
        let oob = Value::Float(crate::matrix::boundary_parts(&boundary).1.unwrap_or(0.0));
        let policy = Value::Int(boundary.policy_code());
        geometry = vec![kernel_int(*cols)?, kernel_int(halo)?, policy, oob];
    }
    let windows = target.windows.as_ref().map(|(_, windows)| &windows[..]);
    let index_map = group.stages[0].1.kind == StageKind::IndexMap;
    let intermediate = chain.is_some();
    let chain = chain.or(call.input_buffers.first().map(Vec::as_slice));
    let bind = |device| -> Result<Bound> {
        let first_index = index_map.then(|| kernel_int(partition.range(device).start));
        let scalars = geometry.iter().copied().chain(first_index.transpose()?);
        let scalars = scalars.chain(lowered.extra_args.iter().copied());
        let mut trailing: Vec<_> = scalars.map(KernelArg::Scalar).collect();
        trailing.extend(call.prepared_args.kernel_args_for(device)?);
        let (first, n) = windows.map_or((0, partition.size(device)), |w| w[device]);
        let sides = lowered.side_sources.iter().map(|&s| &call.input_buffers[s]);
        let inputs = chain
            .into_iter()
            .chain(sides.map(Vec::as_slice))
            .enumerate();
        let inputs = inputs.map(|(i, buffers)| {
            Ok(buffer_arg(buffers, device, format_args!("input {i}"))?.from_element(first))
        });
        let leading = inputs.collect::<Result<_>>()?;
        Ok((leading, (first, n), kernel_int(n)?, trailing))
    };
    let (kernel, reuse) = (&kernels.kernel, target.reuse);
    match (stage.kind, &lowered.host_op) {
        (StageKind::Map | StageKind::Zip | StageKind::IndexMap | StageKind::MapOverlap, _) => {
            let out_lens = if intermediate {
                partition.sizes()
            } else {
                call.out_lens()
            };
            let create = stage.create;
            let out =
                launch_elementwise(runtime, kernel, partition, &out_lens, &bind, create, reuse);
            out.map(GroupOutput::Buffers)
        }
        (StageKind::Reduce, Some(op)) => with_scalar!(op.ty, T, {
            let chunks = cfg.chunks_per_device;
            let mut partials = launch_and_gather::<T>(runtime, &kernels, partition, &bind, chunks)?;
            let mut plan = ReducePlan {
                intermediate_results: partials.len(),
                final_device: 0,
                final_on_cpu: true,
            };
            if let Some(scheduler) = cfg.scheduler {
                let elem = std::mem::size_of::<T>();
                (plan.final_device, plan.final_on_cpu) =
                    scheduler.placement_among(partials.len(), elem, stage.cost(), call.selected)?;
            }
            let value = if plan.final_on_cpu || partials.len() == 1 {
                op.fold(&mut partials)?
            } else {
                // Stage the gathered partials on the chosen device — as a
                // single-distributed vector, which gives its buffer back when
                // dropped — and fold them with the same kernel, as one chunk.
                let staged = Vector::from_vec(runtime, partials);
                staged.set_distribution(Distribution::Single(plan.final_device))?;
                let (part, buffers) = staged.prepare_parts(0)?;
                let bind = |device| -> Result<Bound> {
                    let staged = buffer_arg(&buffers, device, format_args!("the staged partials"))?;
                    let n = part.size(device);
                    Ok((vec![staged], (0, n), kernel_int(n)?, Vec::new()))
                };
                launch_and_gather::<T>(runtime, &kernels, &part, &bind, Some(1))?[0]
            };
            Ok(GroupOutput::Scalar(value.to_value(), plan))
        }),
        (StageKind::Scan, Some(op)) => with_scalar!(op.ty, T, {
            let combine = |a: T, b: T| op.fold(&mut [a, b]);
            let (kernels, trace) = (&kernels, target.trace);
            let (out, trace) =
                launch_scan(runtime, kernels, partition, &bind, &combine, reuse, trace)?;
            Ok(GroupOutput::Scanned(out, trace))
        }),
        (kind, _) => Err(SkelError::Internal(format!(
            "a {} group has no launcher",
            kind.name()
        ))),
    }
}

/// An element-wise eager call — a map's or a zip's one stage — over
/// `inputs`, whose `first` shapes the output unless `reuse` receives it.
pub(crate) fn run_elementwise<T: Pod, O: Pod, C: Container<T>>(
    stage: &Stage,
    inputs: &[&dyn DynContainer],
    first: &C,
    cfg: &LaunchConfig<'_>,
    coerce: &dyn Fn() -> Result<()>,
    reuse: Option<&C::Rebound<O>>,
) -> Result<C::Rebound<O>> {
    let runtime = first.runtime();
    run_call(&runtime, inputs, cfg, Some(stage), coerce, &mut |call| {
        let target = Target {
            reuse: call.reusable_buffers(reuse)?,
            ..Target::default()
        };
        let out = stage.run(call, cfg, target)?.buffers()?;
        PreparedCall::wrap_output(first, out, reuse)
    })
}

/// One group over a matrix as one call, charged, prepared and recovered as
/// an eager call is: a matrix plan's element-wise group, or a stencil sweep
/// over the input's halo-padded parts — coerced to the overlap layout,
/// exchanged for the sweeps the stage serves when their ghost rows are
/// stale, the output recording how many sweeps its own are still good for.
/// `reuse` is the iterative driver's ping-pong target.
pub(crate) fn run_on_matrix<O: Pod>(
    group: &Group<'_>,
    input: &Matrix<f32>,
    cfg: &LaunchConfig<'_>,
    reuse: Option<&Matrix<O>>,
) -> Result<Matrix<O>> {
    let (stage, runtime) = (group.last(), input.runtime());
    let coerce = || match stage.stencil {
        Some((halo, boundary, sweeps)) => input.set_overlap_for(halo, boundary, sweeps),
        None => Ok(()),
    };
    run_call(&runtime, &[input], cfg, Some(stage), &coerce, &mut |call| {
        // A stencil sweeps windows of its padded parts; an element-wise
        // group's windows are its whole parts.
        let (depth, windows) = input.sweep_windows(stage.stencil.map_or(1, |(.., n)| n));
        let target = Target {
            reuse: call.reusable_buffers(reuse)?,
            windows: Some((input.cols(), windows)),
            trace: false,
        };
        let out = run_group(group, &group.lower(&runtime)?, call, cfg, None, target)?;
        let out = PreparedCall::wrap_output(input, out.buffers()?, reuse)?;
        out.set_ghost_sweeps(depth - 1);
        Ok(out)
    })
}

/// The lazy DAG behind every [`Plan`]. Build errors poison the graph (first
/// error wins); terminals surface it.
#[derive(Clone)]
pub(crate) struct PlanGraph {
    runtime: Arc<SkelCl>,
    nodes: Vec<PlanNode>,
    /// The input containers; source nodes are admitted in slot order.
    sources: Vec<Arc<dyn DynContainer>>,
    policy: FusionPolicy,
    err: Option<SkelError>,
}

impl PlanGraph {
    /// A graph over `source` (slot and node 0), poisoned from the start when
    /// its element type `T` is not a device scalar type.
    fn over<T: Pod>(runtime: Arc<SkelCl>, source: Arc<dyn DynContainer>) -> PlanGraph {
        let ty = check_elem_ty::<T>();
        PlanGraph {
            runtime,
            nodes: vec![PlanNode::Source {
                source: 0,
                ty: *ty.as_ref().unwrap_or(&ScalarType::Float),
            }],
            sources: vec![source],
            policy: FusionPolicy::default(),
            err: ty.err(),
        }
    }

    /// Append the stage built by `build`, or poison the graph on its error.
    /// The returned index is `fallback` when the graph is (or becomes)
    /// poisoned.
    fn admit(
        &mut self,
        fallback: usize,
        build: impl FnOnce(&mut PlanGraph) -> Result<Stage>,
    ) -> usize {
        if self.err.is_some() {
            return fallback;
        }
        match build(self) {
            Ok(stage) => {
                self.nodes.push(PlanNode::Stage(stage));
                self.nodes.len() - 1
            }
            Err(e) => {
                self.err = Some(e);
                fallback
            }
        }
    }

    /// Append a map stage producing `O` elements after `tip`.
    fn admit_map<O: Pod>(&mut self, tip: usize, udf: Result<Arc<UdfInfo>>, args: Args) -> usize {
        self.admit(tip, |g| {
            let udf = udf?;
            g.check_chain(tip, &udf, StageKind::Map)?;
            check_stage_args(&udf, &args)?;
            check_out_ty::<O>(&udf)?;
            let udf = StageFn::Source(udf);
            Ok(Stage::new(
                StageKind::Map,
                tip,
                udf,
                args,
                create_buffer::<O>,
            ))
        })
    }

    /// Append a reduce or scan stage (`kind`) over `T` elements after `tip`.
    fn admit_fold<T: Pod>(
        &mut self,
        tip: usize,
        kind: StageKind,
        op: Result<(Arc<UdfInfo>, Arc<HostOperator>)>,
    ) -> usize {
        self.admit(tip, |g| {
            let (udf, host) = op?;
            g.check_chain(tip, &udf, kind)?;
            let udf = StageFn::Source(udf);
            Ok(Stage {
                host: Some(host),
                ..Stage::new(kind, tip, udf, Args::none(), create_buffer::<T>)
            })
        })
    }

    /// The error that poisoned the graph while it was built, if one did.
    fn built(&self) -> Result<()> {
        self.err.clone().map_or(Ok(()), Err)
    }

    /// Refresh every input source for a fault replay (see
    /// [`DynContainer::refresh_for_replay`]): gather each source's
    /// authoritative copy to the host and invalidate its device copies so
    /// the replay re-uploads instead of trusting a buffer a transiently
    /// failed transfer never reached.
    fn refresh_sources(&self) -> Result<()> {
        for source in &self.sources {
            source.refresh_for_replay()?;
        }
        Ok(())
    }

    /// The stages on the path from the source to `tip`, in chain order. Zip
    /// side sources hang off that path and are resolved during binding.
    fn stages(&self, tip: usize) -> Vec<(usize, &Stage)> {
        let mut chain = Vec::new();
        let mut cur = tip;
        while let Some(stage) = self.nodes[cur].stage() {
            chain.push((cur, stage));
            cur = stage.input;
        }
        chain.reverse();
        chain
    }

    /// [`PlanGraph::stages`] of a plan a terminal may run: built without
    /// error, with a stage to run.
    fn runnable(&self, tip: usize) -> Result<Vec<(usize, &Stage)>> {
        self.built()?;
        let stages = self.stages(tip);
        if stages.is_empty() {
            return Err(SkelError::Plan(
                "a lazy plan needs at least one stage before a terminal; \
                 call a stage builder such as map first"
                    .into(),
            ));
        }
        Ok(stages)
    }

    fn check_chain(&self, tip: usize, udf: &UdfInfo, kind: StageKind) -> Result<()> {
        let chain_ty = self.nodes[tip].out_ty();
        if udf.main_params.first() != chain_ty.as_ref() {
            let name =
                |ty: Option<&ScalarType>| ty.map_or_else(|| "?".to_string(), |t| t.to_string());
            return Err(SkelError::Plan(format!(
                "{} stage expects `{}` input but the pipeline produces `{}`",
                kind.name(),
                name(udf.main_params.first()),
                name(chain_ty.as_ref()),
            )));
        }
        Ok(())
    }

    /// The sources were checked against each other when their stages were
    /// appended, but they are live containers and the plan may run much
    /// later: check again that every one still has source 0's length, before
    /// a run charges or enqueues anything.
    fn check_source_lens(&self) -> Result<()> {
        let left = self.sources[0].elem_count();
        match self.sources.iter().find(|s| s.elem_count() != left) {
            Some(other) => Err(SkelError::LengthMismatch {
                left,
                right: other.elem_count(),
            }),
            None => Ok(()),
        }
    }

    /// Release the buffers of a consumed intermediate (fused pipelines own
    /// their intermediates; sources keep theirs).
    fn release(&self, intermediate: Option<Vec<Option<Buffer>>>) -> Result<()> {
        for buffer in intermediate.iter().flatten().flatten() {
            self.runtime.context().release_buffer(buffer)?;
        }
        Ok(())
    }

    /// Execute the vector plan at `tip` through the one call path: its
    /// sources are the call's inputs — unified to one distribution, uploaded,
    /// and after a fault refreshed and re-partitioned together — and one
    /// attempt runs every launch group and wraps the result (`wrap`, so a
    /// discarded attempt's output releases its buffers). Its groups charge
    /// their dispatch one by one, once lowered, not the call.
    fn execute<R>(&self, tip: usize, wrap: &dyn Fn(GroupOutput) -> Result<R>) -> Result<R> {
        let stages = self.runnable(tip)?;
        let coerce = || {
            self.check_source_lens()?;
            let unified = self.unified_distribution(&stages);
            for source in &self.sources {
                // Block whenever a source has to move.
                if distribution_of(&**source) != unified {
                    source.coerce_to_block()?;
                }
            }
            Ok(())
        };
        let sources: Vec<&dyn DynContainer> = self.sources.iter().map(|s| &**s).collect();
        let cfg = LaunchConfig::default();
        run_call(&self.runtime, &sources, &cfg, None, &coerce, &mut |call| {
            self.run_groups(call, &cfg, &stages).and_then(wrap)
        })
    }

    /// The one distribution [`PlanGraph::execute`] brings every source to:
    /// their common one — block if any disagrees (the eager zip's
    /// unification, generalised) — and never copy under a prefix or fold,
    /// which would double-count (the eager reduce and scan coerce to block,
    /// so the plan does too).
    fn unified_distribution(&self, stages: &[(usize, &Stage)]) -> Distribution {
        let first = distribution_of(&*self.sources[0]);
        let has_fold = stages.iter().any(|(_, s)| s.host.is_some());
        let agree = self.sources.iter().all(|s| distribution_of(&**s) == first);
        if agree && !(has_fold && first == Distribution::Copy) {
            first
        } else {
            Distribution::Block
        }
    }

    /// Device bytes of every input source.
    fn source_bytes(&self) -> usize {
        let tys = self.nodes.iter().filter(|node| node.stage().is_none());
        let sized = self.sources.iter().zip(tys);
        sized
            .map(|(s, node)| s.elem_count() * node.out_ty().map_or(0, ScalarType::size_bytes))
            .sum()
    }

    /// One attempt at the plan's launches over the prepared sources: run the
    /// fusion pass and lower each group to launches on the existing
    /// queue/event machinery, one dispatch charge per group.
    fn run_groups(
        &self,
        call: &PreparedCall,
        cfg: &LaunchConfig<'_>,
        stages: &[(usize, &Stage)],
    ) -> Result<GroupOutput> {
        let groups = plan_groups(stages, self.policy);
        // The running intermediate; `None` while the chain is still source 0.
        let mut chain: Option<Vec<Option<Buffer>>> = None;
        for group in &groups {
            let ran = group.lower(&self.runtime).and_then(|lowered| {
                self.runtime.charge_skeleton_call();
                run_group(
                    group,
                    &lowered,
                    call,
                    cfg,
                    chain.as_deref(),
                    Target::default(),
                )
            });
            // The group consumed the running intermediate — or failed (its
            // launcher joined what it enqueued), and nothing else will.
            let released = self.release(chain.take());
            match ran? {
                // A reduction closes the plan.
                scalar @ GroupOutput::Scalar(..) => return released.map(|()| scalar),
                out => chain = Some(out.buffers()?),
            }
            released?;
        }
        chain
            .map(GroupOutput::Buffers)
            .ok_or_else(|| SkelError::Internal("a plan ran no launch group".into()))
    }

    /// The one `explain` behind every plan kind, rendered without executing
    /// (and without touching the sources' distributions): the header and the
    /// runtime's tier / lowering telemetry, the node table, and — unless
    /// nothing would run — the launch groups the fusion pass forms, each with
    /// its kernel, its boundary verdicts and the renames its lowering had to
    /// make. `matrix` is the input of a matrix plan.
    fn explain(&self, tip: usize, matrix: Option<&Matrix<f32>>) -> Result<String> {
        self.built()?;
        let (runtime, stages) = (&self.runtime, self.stages(tip));
        let matrix = matrix.map(|m| (format!("{}x{}", m.rows(), m.cols()), m));
        let over = match &matrix {
            Some((shape, _)) => format!("1 matrix ({shape})"),
            None => format!("{} source(s)", self.sources.len()),
        };
        let describe = |slot: usize| match &matrix {
            Some((shape, m)) => format!("{shape}, {:?}", m.distribution()),
            None => {
                let source = &*self.sources[slot];
                format!("len {}, {:?}", source.elem_count(), distribution_of(source))
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Plan: {} node(s) over {over}, {} device(s), policy {:?}",
            self.nodes.len(),
            runtime.device_count(),
            self.policy,
        );
        let _ = writeln!(out, "Kernel tier: {}", runtime.kernel_tier_summary());
        let trace = runtime.exec_trace();
        let _ = writeln!(out, "{}", trace.tier_line());
        let _ = writeln!(out, "{}", trace.lowering_line());
        for (i, node) in self.nodes.iter().enumerate() {
            let _ = writeln!(out, "  %{i} = {}", node.line(&describe));
        }
        let len = self.sources[0].elem_count();
        if stages.is_empty() || len == 0 {
            let why = if stages.is_empty() {
                "the plan has no stage"
            } else {
                "empty input"
            };
            let _ = writeln!(out, "After fusion: nothing to run ({why})");
            return Ok(out);
        }
        let groups = plan_groups(&stages, self.policy);
        let _ = writeln!(out, "After fusion: {} launch group(s)", groups.len());
        for (gi, group) in groups.iter().enumerate() {
            let members: Vec<String> = group.stages.iter().map(|(i, _)| format!("%{i}")).collect();
            let shape = runtime.lowerings().lowered(&group.shapes()?, false)?;
            let _ = writeln!(
                out,
                "  group {gi}: {} over {} ({} stage(s) fused)",
                shape.rendered.kernel,
                members.join(", "),
                members.len()
            );
            let verdict = match self.policy {
                FusionPolicy::Auto => "fuse",
                FusionPolicy::Never => "split (policy Never)",
            };
            for idx in &group.boundaries {
                let _ = writeln!(out, "    boundary before %{idx}: {verdict}");
            }
            for collision in &shape.rendered.collisions {
                let _ = writeln!(out, "    rename: {collision}");
            }
        }
        Ok(out)
    }

    /// The plan at `tip` as one packed launch over many jobs: its stages,
    /// when they are an elementwise chain optionally closed by a reduce, and
    /// their packed memo entry — keyed by the chain's *lifted* UDFs
    /// ([`UdfInfo::lifted`]), so chains that differ only in their `float`
    /// literals share it. `None` for a plan without stages, with a scan or
    /// with a stencil.
    fn packed_group(&self, tip: usize) -> Result<Option<(Group<'_>, Arc<LoweredShape>)>> {
        self.built()?;
        let group = Group::of(self.stages(tip));
        let packs = match group.stages.split_last() {
            Some(((_, last), chain)) => {
                (last.kind == StageKind::Reduce || last.elementwise())
                    && chain.iter().all(|(_, s)| s.elementwise())
            }
            None => false,
        };
        if !packs {
            return Ok(None);
        }
        let mut lifted = Vec::with_capacity(group.stages.len());
        for (kind, udf) in group.shapes()? {
            let packed = match kind {
                StageKind::Reduce => None,
                _ => udf.lifted()?.info.clone(),
            };
            lifted.push((kind, packed.unwrap_or_else(|| udf.clone())));
        }
        let shapes: Vec<_> = lifted.iter().map(|(kind, udf)| (*kind, udf)).collect();
        let shape = self.runtime.lowerings().lowered(&shapes, true)?;
        Ok(Some((group, shape)))
    }

    /// The signature of this plan's packed `group`, lowered to `shape`.
    fn signature_of(&self, group: &Group, shape: &LoweredShape) -> CoalesceSignature {
        CoalesceSignature {
            memo: self.runtime.lowerings().id,
            shape: shape.id,
            reduce_len: (group.last().kind == StageKind::Reduce)
                .then(|| self.sources[0].elem_count()),
        }
    }

    /// What a packed launch binds for the plan at `tip` as one job: per
    /// chain stage its scalar arguments, then its lifted literals — the
    /// packed shape's extra parameters, in order.
    fn job_values(&self, tip: usize) -> Result<Vec<Value>> {
        let mut values = Vec::new();
        for (_, stage) in self.stages(tip) {
            values.extend(stage.arg_values());
            if let (true, Some(info)) = (stage.elementwise(), stage.info()) {
                values.extend_from_slice(&info.lifted()?.values);
            }
        }
        Ok(values)
    }

    /// See [`Plan::coalesce_signature`].
    fn coalesce_signature(&self, tip: usize) -> Result<Option<CoalesceSignature>> {
        let packed = self.packed_group(tip)?;
        Ok(packed.map(|(group, shape)| self.signature_of(&group, &shape)))
    }
}

/// The distribution of a plan source: a vector's, or — for a container
/// without a flat one, a matrix — its default disjoint layout, block.
fn distribution_of(source: &dyn DynContainer) -> Distribution {
    source.flat_distribution().unwrap_or(Distribution::Block)
}

fn check_stage_args(udf: &UdfInfo, args: &Args) -> Result<()> {
    if args.vector_count() != 0 {
        return Err(SkelError::UnsupportedArg(
            "lazy pipeline stages accept only scalar additional arguments".into(),
        ));
    }
    crate::skeletons::udf::check_arg_count(udf, args.len())
}

/// The device scalar type of the element type `E`, which a plan needs of
/// every container it reads or produces.
pub(crate) fn check_elem_ty<E: Pod>() -> Result<ScalarType> {
    oclsim::DataKind::of::<E>().scalar_type().ok_or_else(|| {
        SkelError::Plan(format!(
            "element type {} is not a device scalar type (use f32, f64, i32 or u32)",
            std::any::type_name::<E>()
        ))
    })
}

/// A stage producing `O` elements needs a user function returning them.
fn check_out_ty<O: Pod>(udf: &UdfInfo) -> Result<()> {
    let ty = check_elem_ty::<O>()?;
    if udf.return_type != ty {
        return Err(SkelError::Plan(format!(
            "the stage's user function returns `{}` but the output element type is `{ty}`",
            udf.return_type
        )));
    }
    Ok(())
}

mod sealed {
    pub trait Sealed {}
}

/// What a [`Plan`] produces — its *output kind*: [`VectorOut`] (the
/// [`PlanVec`] alias), [`ScalarOut`] ([`PlanScalar`]) or [`MatrixOut`]
/// ([`MatPlan`]). A kind supplies what differs between the three and nothing
/// else: what the terminal returns and how it runs, what one job of a
/// [packed launch](Plan::pack_jobs) delivers, and the output term of
/// [`Plan::footprint_bytes`]. Sealed: these three are all there are, and
/// code that handles plans of any kind (a server's admission path) is
/// generic over `K: PlanKind<T>`.
pub trait PlanKind<T: Pod>: sealed::Sealed + Clone + Send + 'static {
    /// What [`Plan::exec`] returns.
    type Output;
    /// The plan's result on the host — what [`Plan::collect`] returns and
    /// what one job of a packed launch delivers.
    type Job: Send + 'static;

    /// Run `plan` and wrap what it produced.
    #[doc(hidden)]
    fn run(plan: &Plan<T, Self>) -> Result<Self::Output>;

    /// Bring a result to the host.
    #[doc(hidden)]
    fn to_host(out: Self::Output) -> Result<Self::Job>;

    /// One job's result from its span of a packed launch's output; `fold`
    /// finishes the partials of a reduction.
    #[doc(hidden)]
    fn finish(span: Vec<T>, fold: &dyn Fn(&mut [T]) -> Result<T>) -> Result<Self::Job>;

    /// Elements of device memory the output of a plan over `input_len`
    /// elements takes.
    #[doc(hidden)]
    fn output_elems(input_len: usize) -> usize {
        input_len
    }

    /// The input of a matrix plan.
    #[doc(hidden)]
    fn matrix(&self) -> Option<&Matrix<f32>> {
        None
    }
}

/// The output kind of a plan that produces a [`Vector`] (see [`PlanVec`]).
#[derive(Clone, Copy, Debug)]
pub struct VectorOut;

/// The output kind of a plan closed by a reduction (see [`PlanScalar`]).
#[derive(Clone, Copy, Debug)]
pub struct ScalarOut;

/// The output kind of a plan over a [`Matrix`] (see [`MatPlan`]); holds the
/// matrix, which the barrier loop materialises group by group.
#[derive(Clone)]
pub struct MatrixOut(Matrix<f32>);

impl sealed::Sealed for VectorOut {}
impl sealed::Sealed for ScalarOut {}
impl sealed::Sealed for MatrixOut {}

impl<T: Pod> PlanKind<T> for VectorOut {
    type Output = Vector<T>;
    type Job = Vec<T>;

    fn run(plan: &PlanVec<T>) -> Result<Vector<T>> {
        let graph = &plan.graph;
        graph.execute(plan.tip, &|out| {
            // Read after the run: executing may have coerced the sources
            // to a common distribution, which the output adopts.
            let source = &*graph.sources[0];
            Ok(Vector::device_resident(
                &graph.runtime,
                source.elem_count(),
                distribution_of(source),
                out.buffers()?,
            ))
        })
    }

    fn to_host(out: Vector<T>) -> Result<Vec<T>> {
        out.to_vec()
    }

    fn finish(span: Vec<T>, _: &dyn Fn(&mut [T]) -> Result<T>) -> Result<Vec<T>> {
        Ok(span)
    }
}

impl<T: DeviceScalar> PlanKind<T> for ScalarOut {
    type Output = T;
    type Job = T;

    fn run(plan: &PlanScalar<T>) -> Result<T> {
        let wrap = |out: GroupOutput| out.scalar().map(|(value, _)| T::from_value(value));
        plan.graph.execute(plan.tip, &wrap)
    }

    fn to_host(out: T) -> Result<T> {
        Ok(out)
    }

    fn finish(mut partials: Vec<T>, fold: &dyn Fn(&mut [T]) -> Result<T>) -> Result<T> {
        fold(&mut partials)
    }

    /// A partial vector.
    fn output_elems(input_len: usize) -> usize {
        crate::reduce_partials(input_len)
    }
}

impl PlanKind<f32> for MatrixOut {
    type Output = Matrix<f32>;
    type Job = Vec<f32>;

    /// The barrier loop. A stencil changes the distribution of what it
    /// reads, so a matrix plan cannot run as one call over uploaded sources:
    /// every barrier-delimited group — element-wise or a stencil sweep — is
    /// one call over the matrix materialised so far, charged, prepared and
    /// recovered as an eager call is ([`run_on_matrix`]).
    fn run(plan: &MatPlan) -> Result<Matrix<f32>> {
        let (graph, matrix) = (&plan.graph, &plan.kind.0);
        let stages = graph.runnable(plan.tip)?;
        if matrix.is_empty() {
            return Err(SkelError::EmptyInput);
        }
        let mut current = matrix.clone();
        for group in &plan_groups(&stages, graph.policy) {
            current = run_on_matrix(group, &current, &LaunchConfig::default(), None)?;
        }
        Ok(current)
    }

    fn to_host(out: Matrix<f32>) -> Result<Vec<f32>> {
        out.to_vec()
    }

    fn finish(span: Vec<f32>, _: &dyn Fn(&mut [f32]) -> Result<f32>) -> Result<Vec<f32>> {
        Ok(span)
    }

    fn matrix(&self) -> Option<&Matrix<f32>> {
        Some(&self.0)
    }
}

/// A lazily built skeleton pipeline: the one plan handle, a view — the node
/// `tip`, producing `T` elements — of a shared expression graph. Created by
/// [`Vector::lazy`] or [`Matrix::lazy`](crate::matrix::Matrix::lazy); stage
/// builders consume and return the plan, terminals ([`exec`](Plan::exec),
/// [`collect`](Plan::collect), …) execute it. Terminals take `&self`, so one
/// plan can run several times.
///
/// What the plan produces is its *kind* `K` ([`PlanKind`]); the kinds go by
/// the aliases [`PlanVec`], [`PlanScalar`] and [`MatPlan`]. Everything but
/// the stage builders and the kind-named terminal aliases is written once,
/// here, for every kind.
#[must_use = "a lazy plan does nothing until a terminal such as `exec()` runs it"]
pub struct Plan<T: Pod, K: PlanKind<T>> {
    graph: PlanGraph,
    tip: usize,
    kind: K,
    _elem: PhantomData<fn() -> T>,
}

/// A lazily built vector pipeline, created by [`Vector::lazy`]: map, zip and
/// scan stages keep it a vector plan, [`reduce`](Plan::reduce) closes it
/// into a [`PlanScalar`]; [`into_vector`](Plan::into_vector) (or `exec`)
/// runs it.
pub type PlanVec<T> = Plan<T, VectorOut>;

/// A lazily built pipeline terminated by a reduction;
/// [`scalar`](Plan::scalar) (or `exec`) runs it.
pub type PlanScalar<T> = Plan<T, ScalarOut>;

/// A lazily built matrix pipeline over `f32` elements, created by
/// [`Matrix::lazy`](crate::matrix::Matrix::lazy). Adjacent map stages fuse
/// into one kernel — the memo entry a vector plan of the same stages uses,
/// launched element-wise over the matrix's row blocks; stencil stages are
/// barriers, each swept as an eager [`MapOverlap`] call is, with its
/// halo-exchange distribution.
pub type MatPlan = Plan<f32, MatrixOut>;

impl<T: Pod, K: PlanKind<T>> Clone for Plan<T, K> {
    fn clone(&self) -> Self {
        Plan {
            graph: self.graph.clone(),
            tip: self.tip,
            kind: self.kind.clone(),
            _elem: PhantomData,
        }
    }
}

impl<T: Pod, K: PlanKind<T>> Plan<T, K> {
    /// The plan after a stage was admitted as node `tip`, producing `U`
    /// elements for a plan of kind `kind`.
    fn then<U: Pod, K2: PlanKind<U>>(self, tip: usize, kind: K2) -> Plan<U, K2> {
        Plan {
            graph: self.graph,
            tip,
            kind,
            _elem: PhantomData,
        }
    }

    /// Override the fusion policy (default: [`FusionPolicy::Auto`]).
    pub fn policy(mut self, policy: FusionPolicy) -> Self {
        self.graph.policy = policy;
        self
    }

    /// Execute the plan and return its result: the [`Vector`] of a
    /// [`PlanVec`], the reduced value of a [`PlanScalar`], the [`Matrix`] of
    /// a [`MatPlan`].
    pub fn exec(&self) -> Result<K::Output> {
        K::run(self)
    }

    /// Execute the plan and download the result to the host: the elements of
    /// a vector (or, row-major, matrix) plan, the value of a reduction.
    pub fn collect(&self) -> Result<K::Job> {
        K::to_host(self.exec()?)
    }

    /// Render the DAG and the fusion pass's per-boundary verdicts without
    /// executing anything.
    pub fn explain(&self) -> Result<String> {
        self.graph.explain(self.tip, self.kind.matrix())
    }

    /// The runtime the plan executes against.
    pub fn runtime(&self) -> Arc<SkelCl> {
        self.graph.runtime.clone()
    }

    /// Element count of the plan's primary input (and therefore of a vector
    /// or matrix plan's output).
    pub fn input_len(&self) -> usize {
        self.graph.sources[0].elem_count()
    }

    /// Estimated device bytes the plan needs at once: every input source
    /// plus the output (under a reduction, a partial vector). Used by
    /// admission control to charge tenant quotas before execution.
    pub fn footprint_bytes(&self) -> usize {
        K::output_elems(self.input_len()) * std::mem::size_of::<T>() + self.graph.source_bytes()
    }

    /// Re-establish a trustworthy device image of every input source before
    /// replaying the plan after an injected fault. A transiently failed
    /// upload is recorded by the coherence flags when *enqueued* but never
    /// executes, so a replay that skipped this step could compute on a
    /// buffer the data never reached. Serving-layer retries call this
    /// before re-queueing a job.
    pub fn refresh_for_replay(&self) -> Result<()> {
        self.graph.refresh_sources()
    }

    /// The plan's *coalescing signature*, if it has one: `Ok(Some(_))` when
    /// the pipeline is an elementwise (map/zip) chain, optionally closed by
    /// a reduce, and therefore packable into one launch with other plans of
    /// the same signature via [`Plan::pack_jobs`]. `Ok(None)` means the plan
    /// contains a scan (or a stencil) and must run on its own. Beyond the
    /// packed shape — chain *and* reduce, one memo entry, keyed by the
    /// chain's UDFs with their `float` literals lifted — the signature of a
    /// reduction includes the input length: reductions of different lengths
    /// never share a launch. Scalar arguments and literal values are not
    /// part of it: they are per-job data. See [`CoalesceSignature`] for
    /// what equal signatures promise.
    pub fn coalesce_signature(&self) -> Result<Option<CoalesceSignature>> {
        self.graph.coalesce_signature(self.tip)
    }

    /// Pack many same-signature jobs into **one** kernel launch on `device`:
    /// each job's input elements are laid back to back in one buffer per
    /// kernel argument (one write each), the fused kernel runs once over all
    /// of them, and the returned [`PackedLaunch`] slices each job's result
    /// back out of the packed output (one non-blocking read). Each job's
    /// scalar arguments and `float` literals travel as bits in a per-job
    /// table appended to an input the launch writes anyway (a kind of value
    /// no input can carry gets a buffer and a write of its own), so the
    /// jobs may differ in them. The writes,
    /// the launch and the read are one non-blocking submission of a command
    /// buffer recorded once per lowered shape (`oclsim::CommandBuffer`), so
    /// the host pays one enqueue per batch and many packed launches can be
    /// outstanding at once.
    ///
    /// Every job must share this plan's runtime and
    /// [`coalesce_signature`](Self::coalesce_signature); a single-job pack
    /// is valid (that is exactly how the serving layer runs uncoalesced
    /// jobs, which makes coalesced and uncoalesced results bit-identical by
    /// construction).
    ///
    /// Reductions run through the packed reduce kernel
    /// ([`crate::kernelgen::packed_reduce_kernel`]): a job of `L` elements is
    /// cut into the `P =` [`reduce_partials`](crate::reduce_partials)`(L)`-way
    /// chunks a one-device [`scalar`](Plan::scalar) of it would fold,
    /// work-item `g` folding chunk `g % P` of job `g / P`, and
    /// [`PackedLaunch::wait`] finishes each job's `P` partials on the host
    /// with the operator's evaluator. So every job's result is, bit for bit,
    /// what `scalar()` returns on a one-device runtime — whatever the batch
    /// size, and whichever device of however many the launch runs on.
    pub fn pack_jobs(jobs: &[&Plan<T, K>], device: usize) -> Result<PackedLaunch<T, K::Job>>
    where
        T: DeviceScalar,
    {
        let jobs: Vec<_> = jobs.iter().map(|job| (&job.graph, job.tip)).collect();
        pack_graphs(&jobs, device, K::finish)
    }
}

impl<T: Pod> Plan<T, VectorOut> {
    pub(crate) fn from_vector(vector: &Vector<T>) -> PlanVec<T> {
        Plan {
            graph: PlanGraph::over::<T>(vector.runtime(), Arc::new(vector.clone())),
            tip: 0,
            kind: VectorOut,
            _elem: PhantomData,
        }
    }

    /// Append an elementwise map stage.
    pub fn map<O: Pod>(self, skeleton: &Map<T, O>) -> PlanVec<O> {
        self.map_with(skeleton, Args::none())
    }

    /// Append an elementwise map stage with additional scalar arguments.
    pub fn map_with<O: Pod>(mut self, skeleton: &Map<T, O>, args: Args) -> PlanVec<O> {
        let tip = self
            .graph
            .admit_map::<O>(self.tip, skeleton.plan_udf(), args);
        self.then(tip, VectorOut)
    }

    /// Append an elementwise zip stage with a second input vector — which
    /// may be the plan's own input (`v.lazy().zip(&v, &mul)`).
    pub fn zip<B: Pod, O: Pod>(self, other: &Vector<B>, skeleton: &Zip<T, B, O>) -> PlanVec<O> {
        self.zip_with(other, skeleton, Args::none())
    }

    /// Append an elementwise zip stage with additional scalar arguments.
    pub fn zip_with<B: Pod, O: Pod>(
        mut self,
        other: &Vector<B>,
        skeleton: &Zip<T, B, O>,
        args: Args,
    ) -> PlanVec<O> {
        let tip = self.tip;
        let tip = self.graph.admit(tip, |g| {
            let udf = skeleton.plan_udf()?;
            other.check_runtime(&g.runtime)?;
            let len = g.sources[0].elem_count();
            if other.len() != len {
                return Err(SkelError::LengthMismatch {
                    left: len,
                    right: other.len(),
                });
            }
            g.check_chain(tip, &udf, StageKind::Zip)?;
            let other_ty = check_elem_ty::<B>()?;
            if udf.main_params.get(1) != Some(&other_ty) {
                return Err(SkelError::Plan(format!(
                    "zip stage expects `{}` as its second input but the vector holds `{other_ty}`",
                    udf.main_params
                        .get(1)
                        .map_or_else(|| "?".to_string(), std::string::ToString::to_string),
                )));
            }
            check_stage_args(&udf, &args)?;
            check_out_ty::<O>(&udf)?;
            let source = g.sources.len();
            g.sources.push(Arc::new(other.clone()));
            g.nodes.push(PlanNode::Source {
                source,
                ty: other_ty,
            });
            let udf = StageFn::Source(udf);
            Ok(Stage {
                side: Some((g.nodes.len() - 1, source)),
                ..Stage::new(StageKind::Zip, tip, udf, args, create_buffer::<O>)
            })
        });
        self.then(tip, VectorOut)
    }

    /// Terminate the chain with a full reduction.
    pub fn reduce(mut self, skeleton: &Reduce<T>) -> PlanScalar<T>
    where
        T: DeviceScalar,
    {
        let tip = self
            .graph
            .admit_fold::<T>(self.tip, StageKind::Reduce, skeleton.plan_op());
        self.then(tip, ScalarOut)
    }

    /// Append an inclusive prefix scan (further stages may follow it).
    pub fn scan(mut self, skeleton: &Scan<T>) -> PlanVec<T>
    where
        T: DeviceScalar,
    {
        let tip = self
            .graph
            .admit_fold::<T>(self.tip, StageKind::Scan, skeleton.plan_op());
        self.then(tip, VectorOut)
    }

    /// Execute the plan and return the result vector ([`exec`](Plan::exec)
    /// by its vector name).
    pub fn into_vector(&self) -> Result<Vector<T>> {
        self.exec()
    }
}

impl<T: DeviceScalar> Plan<T, ScalarOut> {
    /// Execute the plan and return the reduced scalar ([`exec`](Plan::exec)
    /// by its scalar name).
    pub fn scalar(&self) -> Result<T> {
        self.exec()
    }
}

impl Plan<f32, MatrixOut> {
    pub(crate) fn from_matrix(matrix: &Matrix<f32>) -> MatPlan {
        Plan {
            graph: PlanGraph::over::<f32>(matrix.runtime(), Arc::new(matrix.clone())),
            tip: 0,
            kind: MatrixOut(matrix.clone()),
            _elem: PhantomData,
        }
    }

    /// Append an elementwise map stage.
    pub fn map(self, skeleton: &Map<f32, f32>) -> Self {
        self.map_with(skeleton, Args::none())
    }

    /// Append an elementwise map stage with additional scalar arguments.
    pub fn map_with(mut self, skeleton: &Map<f32, f32>, args: Args) -> Self {
        self.tip = self
            .graph
            .admit_map::<f32>(self.tip, skeleton.plan_udf(), args);
        self
    }

    /// Append a stencil stage. Stencils never fuse with their neighbours
    /// (they read a halo, not one element), so this is a pipeline barrier.
    pub fn map_overlap(self, skeleton: &MapOverlap<f32, f32>) -> Self {
        self.map_overlap_with(skeleton, Args::none())
    }

    /// Append a stencil stage with additional scalar arguments.
    pub fn map_overlap_with(mut self, skeleton: &MapOverlap<f32, f32>, args: Args) -> Self {
        let tip = self.tip;
        self.tip = self.graph.admit(tip, |_| {
            let udf = skeleton.plan_udf()?;
            check_stage_args(&udf, &args)?;
            check_out_ty::<f32>(&udf)?;
            let udf = StageFn::Source(udf);
            Ok(Stage {
                stencil: Some((skeleton.halo(), skeleton.boundary(), 1)),
                ..Stage::new(StageKind::MapOverlap, tip, udf, args, create_buffer::<f32>)
            })
        });
        self
    }
}

/// Turns one job's span of a packed launch's output into the job's result;
/// it is handed the fold that finishes the partials of a reduction
/// ([`PlanKind::finish`]).
type Finish<T, O> = fn(Vec<T>, &dyn Fn(&mut [T]) -> Result<T>) -> Result<O>;

/// [`Plan::pack_jobs`] over the jobs' graphs and tips: check that the jobs
/// may share a launch, bind the batch to the leader's memo entry, lay the
/// jobs out and enqueue the launch.
fn pack_graphs<T: DeviceScalar, O>(
    jobs: &[(&PlanGraph, usize)],
    device: usize,
    finish: Finish<T, O>,
) -> Result<PackedLaunch<T, O>> {
    let &(first, tip) = jobs
        .first()
        .ok_or_else(|| SkelError::Plan("pack_jobs needs at least one job".into()))?;
    let runtime = first.runtime.clone();
    let (group, shape) = first.packed_group(tip)?.ok_or_else(|| {
        SkelError::Plan(
            "job is not coalescible (only elementwise chains, optionally closed by a reduce, pack)"
                .into(),
        )
    })?;
    let signature = first.signature_of(&group, &shape);
    for &(job, tip) in &jobs[1..] {
        if !Arc::ptr_eq(&job.runtime, &runtime) {
            return Err(SkelError::RuntimeMismatch);
        }
        if job.coalesce_signature(tip)?.as_ref() != Some(&signature) {
            return Err(SkelError::Plan(
                "jobs with different kernels or reduction lengths cannot pack into one launch"
                    .into(),
            ));
        }
    }
    // The batch's one binding: every member runs the leader's memo entry.
    let lowered = group.bind(GroupKernels::Memo(shape));
    let mut lens = Vec::with_capacity(jobs.len());
    for (job, _) in jobs {
        job.check_source_lens()?;
        lens.push(job.sources[0].elem_count());
    }
    if lens.contains(&0) {
        return Err(SkelError::EmptyInput);
    }
    let total: usize = lens.iter().sum();
    // What the launch leaves per job: its elements, or — under a reduce —
    // the partials a one-device `scalar()` of the job would gather.
    let spans = JobSpans::from_lens(match signature.reduce_len {
        Some(len) => vec![launch_geometry(len, None).1; jobs.len()],
        None => lens,
    });
    // Same telemetry as `execute()` would account per job: the packed
    // launch fuses the chain's interior stages away on one device.
    group.account_fusion(&runtime, 1, total);
    let mut buffers: Vec<Buffer> = Vec::new();
    match pack_launch::<T>(
        &runtime,
        device,
        &lowered,
        jobs,
        total,
        spans.total(),
        &mut buffers,
    ) {
        Ok((submission, read)) => Ok(PackedLaunch {
            host_op: lowered.host_op,
            finish,
            runtime,
            device,
            spans,
            buffers,
            submission,
            read,
        }),
        Err(e) => {
            // Nothing was submitted, so no command used the buffers.
            for buffer in &buffers {
                let _ = runtime.context().release_buffer(buffer);
            }
            Err(e)
        }
    }
}

/// Allocate the packed input buffers — `total` elements per slot, plus the
/// job table where a slot carries it — the output of `work_items` elements,
/// one per work-item, and the table's own buffers, and submit the shape's
/// recorded packed launch over them: a write per buffer but the output, the
/// kernel, the non-blocking read of the output. Every fallible step comes
/// before the one submission, so a batch that cannot launch enqueues
/// nothing; the dispatch is charged after it. Buffers are recorded in
/// `buffers` as they are created so the caller can release them on any
/// error.
fn pack_launch<T: DeviceScalar>(
    runtime: &Arc<SkelCl>,
    device: usize,
    lowered: &LoweredGroup,
    jobs: &[(&PlanGraph, usize)],
    total: usize,
    work_items: usize,
    buffers: &mut Vec<Buffer>,
) -> Result<(oclsim::Submission, oclsim::ReadId)> {
    let context = runtime.context();
    let GroupKernels::Memo(shape) = &lowered.kernels else {
        return Err(SkelError::Internal(
            "a packed launch lowers through the memo".into(),
        ));
    };
    let table = shape.rendered.table.as_ref();
    // Per job, its first element and its values.
    let mut rows = Vec::with_capacity(jobs.len());
    if table.is_some() {
        let mut start = 0;
        for &(job, tip) in jobs {
            rows.push((start, job.job_values(tip)?));
            start += job.sources[0].elem_count();
        }
    }
    let (words, doubles) = table.map(|t| t.encode(&rows)).unwrap_or_default();
    let mut payloads = Vec::new();
    // Slot 0 is the chain (source 0 of every job), then the side inputs.
    let sources = std::iter::once(0).chain(lowered.side_sources.iter().copied());
    for (slot, source_index) in sources.enumerate() {
        let ty = shape.rendered.inputs[slot];
        let mut bytes: Vec<u8> = Vec::with_capacity(total * ty.size_bytes());
        for (job, _) in jobs {
            job.sources[source_index].append_host_bytes(&mut bytes)?;
        }
        if bytes.len() != total * ty.size_bytes() {
            return Err(SkelError::Plan(format!(
                "packed input slot {slot} holds {} bytes, expected {total} `{ty}` elements",
                bytes.len()
            )));
        }
        if let Some(table) = table {
            for (carried, part) in [(table.words_in, &words), (table.doubles_in, &doubles)] {
                if carried == Some(slot) {
                    bytes.extend_from_slice(part);
                }
            }
        }
        let len = bytes.len() / ty.size_bytes();
        buffers.push(with_scalar!(ty, S, {
            context.create_buffer::<S>(device, len)?
        }));
        payloads.push(bytes);
    }
    buffers.push(context.create_buffer::<T>(device, work_items)?);
    for ty in table
        .map(kernelgen::JobTable::own_buffers)
        .unwrap_or_default()
    {
        let part = if ty == ScalarType::Double {
            &doubles
        } else {
            &words
        };
        let len = part.len() / ty.size_bytes();
        buffers.push(with_scalar!(ty, S, {
            context.create_buffer::<S>(device, len)?
        }));
        payloads.push(part.clone());
    }
    let mut scalars = vec![kernel_int(total)?];
    if lowered.host_op.is_some() {
        // The packed reduce frame's job length, equal across the batch.
        scalars.push(kernel_int(total / jobs.len())?);
    } else if table.is_some() {
        // The elementwise frame finds a work-item's job among this many,
        // by a division when they share one length (else 0: a search).
        let len = total / jobs.len();
        let shared = len * jobs.len() == total
            && rows
                .iter()
                .enumerate()
                .all(|(j, &(start, _))| start == j * len);
        scalars.push(kernel_int(jobs.len())?);
        scalars.push(kernel_int(if shared { len } else { 0 })?);
    }
    let bindings = oclsim::Bindings {
        buffers: buffers.clone(),
        payloads,
        scalars,
        global_size: work_items,
    };
    let packed = shape.packed_commands(runtime, &bindings)?;
    let submission = runtime
        .queue(device)
        .enqueue_command_buffer(&packed.buffer, bindings)?;
    runtime.charge_skeleton_call();
    Ok((submission, packed.read))
}

/// The identity of what a packable plan computes per job: the plan's packed
/// *shape* — an entry of its runtime's lowering memo, named by the memo's
/// and the entry's numbers, keyed by the UDF text with its `float` literals
/// lifted into parameters, so plans whose UDFs differ only in those
/// literals, over equal element types, share it however many skeleton
/// instances were involved — plus, for a plan closed by a reduce, its input
/// length (the packed reduce cuts every job of a launch into the same
/// chunks). The types of the scalar arguments are part of the shape; their
/// values, like the literals', are each job's own and travel as bits in
/// the launch's job table, so `-0.0` stays `-0.0`. Two plans with equal
/// signatures belong to one runtime and run the same kernel, so
/// [`Plan::pack_jobs`] may run them as one launch. Cheap to clone, compare
/// and hash.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CoalesceSignature {
    memo: usize,
    shape: usize,
    /// Input length of a plan closed by a reduce (`None`: all-elementwise).
    reduce_len: Option<usize>,
}

impl std::fmt::Debug for CoalesceSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shape#{}", self.shape)?;
        match self.reduce_len {
            Some(len) => write!(f, "/{len}"),
            None => Ok(()),
        }
    }
}

/// An in-flight packed launch produced by [`Plan::pack_jobs`] — of vector
/// plans (per-job result `O = Vec<T>`, the job's output elements) or of
/// reductions (`O = T`, the job's reduced value; `O` is the plan kind's
/// [`PlanKind::Job`]): one submission of the shape's recorded command
/// buffer — the slot writes, one fused kernel running every packed job, the
/// non-blocking read of the packed output. [`PackedLaunch::wait`] joins it,
/// advances the host's virtual clock to the read's completion, releases the
/// packed buffers back to the device pool and splits the output into one
/// result per job.
#[must_use = "a packed launch delivers results only through `wait()`"]
pub struct PackedLaunch<T: Pod, O = Vec<T>> {
    runtime: Arc<SkelCl>,
    device: usize,
    /// Per job, its span of the packed output.
    spans: JobSpans,
    buffers: Vec<Buffer>,
    /// The launch's commands: slot writes, kernel, read.
    submission: oclsim::Submission,
    /// The read of the packed output, the submission's last command.
    read: oclsim::ReadId,
    /// The host evaluator of the reduce that closes the jobs, if one does.
    host_op: Option<Arc<HostOperator>>,
    finish: Finish<T, O>,
}

impl<T: Pod, O> PackedLaunch<T, O> {
    /// The device the packed launch runs on.
    pub fn device(&self) -> usize {
        self.device
    }

    /// Number of jobs packed into the launch.
    pub fn jobs(&self) -> usize {
        self.spans.jobs()
    }

    /// Layout of the packed output: per job, the span holding its elements
    /// (or, under a reduce, its partial results).
    pub fn spans(&self) -> &JobSpans {
        &self.spans
    }

    /// Join the launch: advance the host's virtual clock to the read's
    /// completion time, release the packed buffers and return each job's
    /// result plus the read's profiling event (whose `end` is the virtual
    /// completion time of every packed job). A reduction's partials are finished here, on the host, with the
    /// operator's evaluator — the fold a one-device `scalar()` ends with.
    ///
    /// The launch answers for its own commands: it fails if any of *them*
    /// failed — a failed slot write fails the kernel and the read unexecuted
    /// — and never for a neighbour's, so launches outstanding on one queue
    /// cannot take each other's errors. The read answers for them all: it
    /// is the last command, settled after every other one and failed with
    /// the first failure. On failure what this launch latched on the queue
    /// is drained (the same discipline as the internal kernel-event join)
    /// before the buffers are released.
    pub fn wait(self) -> Result<(Vec<O>, oclsim::Event)>
    where
        T: DeviceScalar,
    {
        let mut data = vec![T::from_value(Value::Int(0)); self.spans.total()];
        let joined = self
            .submission
            .read(self.read)
            .and_then(|read| read.wait_into(&mut data));
        if joined.is_err() {
            let _ = self.runtime.queue(self.device).take_deferred_error();
        }
        for buffer in &self.buffers {
            let _ = self.runtime.context().release_buffer(buffer);
        }
        let record = joined?;
        self.runtime.context().sync_host_to(record.end);
        let fold = |partials: &mut [T]| match (&self.host_op, partials.len()) {
            (_, 1) => Ok(partials[0]),
            (Some(op), _) => op.fold(partials),
            (None, _) => Err(SkelError::Internal(
                "a packed launch without a reduce has no partials to fold".into(),
            )),
        };
        let spans = self.spans.unpack(data).into_iter();
        let results = spans.map(|span| (self.finish)(span, &fold));
        Ok((results.collect::<Result<_>>()?, record))
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    const MAPS: [&str; 4] = [
        "float func(float x) { return x * x; }",
        "float offset(float x) { return x + 1.0f; }\nfloat func(float x) { return offset(x); }",
        "float offset(float x) { return x - 2.0f; }\nfloat func(float x) { return offset(x) * 0.5f; }",
        "float func(float x, float a, float b) { return a * x + b; }",
    ];
    const ZIPS: [&str; 2] = [
        "float func(float x, float y) { return x * y; }",
        "float offset(float x) { return x + 3.0f; }\nfloat func(float x, float y, float s) { return (offset(x) + y) * s; }",
    ];
    const ADD: &str = "float func(float a, float b) { return a + b; }";

    /// Build `stages` (indices into MAPS then ZIPS, with argument values)
    /// plus a terminal (0 none, 1 reduce, 2 scan) from fresh skeleton
    /// instances; returns the graph and its tip.
    fn build(
        rt: &Arc<SkelCl>,
        stages: &[(usize, f32, f32)],
        terminal: usize,
    ) -> (PlanGraph, usize) {
        let v = Vector::from_vec(rt, vec![1.0f32, 2.0, 3.0]);
        let mut plan = v.lazy();
        for &(which, a, b) in stages {
            plan = match which {
                3 => plan.map_with(&Map::from_source(MAPS[3]), crate::args![a, b]),
                4 => plan.zip(&v, &Zip::from_source(ZIPS[0])),
                5 => plan.zip_with(&v, &Zip::from_source(ZIPS[1]), crate::args![a]),
                m => plan.map(&Map::from_source(MAPS[m])),
            };
        }
        let (graph, tip) = match terminal {
            1 => {
                let p = plan.reduce(&Reduce::from_source(ADD));
                (p.graph, p.tip)
            }
            2 => {
                let p = plan.scan(&Scan::from_source(ADD));
                (p.graph, p.tip)
            }
            _ => (plan.graph, plan.tip),
        };
        assert!(graph.err.is_none(), "{:?}", graph.err);
        (graph, tip)
    }

    /// The plan's stages as one forced group.
    fn forced(graph: &PlanGraph, tip: usize) -> Group<'_> {
        Group::of(graph.stages(tip))
    }

    /// `group` lowered on `graph`'s runtime.
    fn lowered(graph: &PlanGraph, group: &Group) -> LoweredGroup {
        group.lower(&graph.runtime).unwrap()
    }

    /// The memo entry a group of source stages lowered to.
    fn shape(lowered: &LoweredGroup) -> &Arc<LoweredShape> {
        match &lowered.kernels {
            GroupKernels::Memo(shape) => shape,
            GroupKernels::Closure(_) => panic!("source stages lower through the memo"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The memoised lowering is byte-identical — rendered source and
        /// bound extra arguments — to a fresh `lower_group` of the same
        /// nodes, across stage orders, colliding helper names and extra
        /// arguments; a second plan of the same shape, built from new
        /// skeleton instances with other argument values, hits the entry.
        #[test]
        fn memoised_lowering_equals_a_fresh_lower_group(
            stages in prop::collection::vec((0usize..6, -4.0f32..4.0, -4.0f32..4.0), 1..5),
            terminal in 0usize..3,
        ) {
            let rt = crate::runtime::init_gpus(1);
            let (graph, tip) = build(&rt, &stages, terminal);
            let group = forced(&graph, tip);
            let fresh = lower_group(&group.shapes().unwrap(), false, 0).unwrap();
            let fresh = group.bind(GroupKernels::Memo(Arc::new(fresh)));
            let memoised = lowered(&graph, &group);
            prop_assert_eq!(&shape(&memoised).rendered.source, &shape(&fresh).rendered.source);
            prop_assert_eq!(
                &shape(&memoised).rendered.collisions,
                &shape(&fresh).rendered.collisions
            );
            prop_assert_eq!(&memoised.extra_args, &fresh.extra_args);
            prop_assert_eq!(&memoised.side_sources, &fresh.side_sources);
            prop_assert_eq!(rt.exec_trace().plan_lowerings, 1);

            let shifted: Vec<_> = stages.iter().map(|&(w, a, b)| (w, a + 1.0, b - 1.0)).collect();
            let (graph2, tip2) = build(&rt, &shifted, terminal);
            let group2 = forced(&graph2, tip2);
            let again = lowered(&graph2, &group2);
            prop_assert!(Arc::ptr_eq(shape(&again), shape(&memoised)));
            let fresh2 = group2.bind(GroupKernels::Memo(shape(&again).clone()));
            prop_assert_eq!(&again.extra_args, &fresh2.extra_args);
            let trace = rt.exec_trace();
            prop_assert_eq!((trace.plan_lowerings, trace.plan_lowering_hits), (1, 1));
        }
    }

    /// A stage of every kind answers for itself what the per-consumer
    /// matches it replaced answered (`node_out_ty`, `stage_info`,
    /// `stage_shapes`, `scalar_args`, the `explain` table): the lines are
    /// the parent commit's `explain()` output for this plan.
    #[test]
    fn a_stage_of_every_kind_answers_for_itself() {
        let rt = crate::runtime::init_gpus(2);
        let scale = Map::<f32, f64>::from_source("double func(float x, float a) { return x * a; }");
        let mul =
            Zip::<f64, i32, f32>::from_source("float func(double x, int y) { return x * y; }");
        let v = Vector::from_vec(&rt, vec![1.0f32; 8]);
        let w = Vector::from_vec(&rt, vec![2i32; 8]);
        let plan = v
            .lazy()
            .map_with(&scale, crate::args![1.5f32])
            .zip(&w, &mul)
            .scan(&Scan::from_source(ADD))
            .reduce(&Reduce::from_source(ADD));
        assert!(plan.graph.err.is_none(), "{:?}", plan.graph.err);
        let stages = plan.graph.stages(plan.tip);
        // (node, kind, explain line)
        let want = [
            (1, StageKind::Map, "map(%0) -> double"),
            (3, StageKind::Zip, "zip(%1, %2) -> float"),
            (4, StageKind::Scan, "scan(%3) -> float"),
            (5, StageKind::Reduce, "reduce(%4) -> float"),
        ];
        assert_eq!(stages.len(), want.len());
        for (&(node, stage), (want_node, kind, line)) in stages.iter().zip(want) {
            assert_eq!((node, stage.line().as_str()), (want_node, line));
            let (key_kind, key_udf) = stage.memo_key().unwrap();
            let info = stage.info().unwrap();
            assert!(key_kind == kind && Arc::ptr_eq(key_udf, info), "{line}");
            assert_eq!(
                plan.graph.nodes[node].out_ty(),
                Some(info.return_type),
                "{line}"
            );
            assert!(stage.stencil.is_none(), "only a stencil is a barrier");
            assert_eq!(stage.elementwise(), node < 4, "{line}");
        }
        assert_eq!(
            stages[0].1.arg_values().collect::<Vec<_>>(),
            [Value::Float(1.5)]
        );
        assert_eq!(stages[1].1.side, Some((2, 1)));
        let source = plan.graph.nodes[2].line(&|slot| format!("slot {slot}"));
        assert_eq!(source, "source[1] : int (slot 1)");

        let blur =
            MapOverlap::<f32, f32>::from_source("float func(float c) { return get(0, -1) + c; }")
                .with_halo(2)
                .with_boundary(Boundary::Wrap);
        let m = Matrix::from_fn(&rt, 4, 4, |r, c| (r + c) as f32);
        let plan = m.lazy().map_overlap(&blur);
        let (node, stencil) = plan.graph.stages(plan.tip)[0];
        assert_eq!(
            (node, stencil.line().as_str()),
            (1, "map_overlap(%0, halo 2) -> float")
        );
        assert_eq!(stencil.memo_key().unwrap().0, StageKind::MapOverlap);
        assert_eq!(stencil.stencil, Some((2, Boundary::Wrap, 1)));
    }

    /// The one fusion accounting gives a vector plan's group, a matrix
    /// plan's and a packed batch the numbers their three copies gave: the
    /// merged stages, one launch and one buffer per merged stage and active
    /// device, and the stored bytes of the interior stages' outputs.
    #[test]
    fn one_fusion_accounting_serves_vector_matrix_and_packed_runs() {
        let widen = Map::<f32, f64>::from_source("double func(float x) { return x; }");
        let narrow = Map::<f64, f32>::from_source("float func(double x) { return x; }");
        let sq = Map::<f32, f32>::from_source(MAPS[0]);
        let chain = |v: &Vector<f32>| {
            let plan = v.lazy().policy(FusionPolicy::Auto);
            plan.map(&widen).map(&narrow).map(&sq)
        };
        for devices in [1usize, 2, 4] {
            let rt = crate::runtime::init_gpus(devices);
            let charged = |run: &dyn Fn()| {
                let before = rt.exec_trace();
                run();
                let after = rt.exec_trace();
                (
                    after.kernels_fused - before.kernels_fused,
                    after.launches_elided - before.launches_elided,
                    after.intermediate_buffers_elided - before.intermediate_buffers_elided,
                    after.intermediate_bytes_elided - before.intermediate_bytes_elided,
                )
            };
            let v = Vector::from_vec(&rt, vec![2.0f32; 1000]);
            let vector = charged(&|| drop(chain(&v).collect().unwrap()));
            assert_eq!(vector, (2, 2 * devices, 2 * devices, 1000 * (8 + 4)));
            let m = Matrix::from_fn(&rt, 16, 10, |r, c| (r * c) as f32);
            let plan = m.lazy().policy(FusionPolicy::Auto);
            let plan = plan.map(&sq).map(&sq).map(&sq);
            let matrix = charged(&|| drop(plan.exec().unwrap()));
            assert_eq!(matrix, (2, 2 * devices, 2 * devices, 2 * 160 * 4));
            let jobs: Vec<_> = [5, 7, 9]
                .iter()
                .map(|&n| chain(&Vector::from_vec(&rt, vec![1.0f32; n])))
                .collect();
            let packed = charged(&|| {
                let launch = Plan::pack_jobs(&jobs.iter().collect::<Vec<_>>(), devices - 1);
                launch.unwrap().wait().unwrap();
            });
            assert_eq!(packed, (2, 2, 2, 21 * (8 + 4)));
        }
    }

    /// The memo keys on content, not on which hash bucket a shape lands in:
    /// a chain and its prefix, or the same stages under another group kind
    /// or chain input type, are different entries.
    #[test]
    fn memo_distinguishes_kind_length_and_element_type() {
        let rt = crate::runtime::init_gpus(1);
        let lower = |stages: &[(usize, f32, f32)], terminal| {
            let (graph, tip) = build(&rt, stages, terminal);
            lowered(&graph, &forced(&graph, tip))
        };
        let a = lower(&[(0, 0.0, 0.0)], 0);
        let b = lower(&[(0, 0.0, 0.0), (0, 0.0, 0.0)], 0);
        let c = lower(&[(0, 0.0, 0.0)], 1);
        assert!(!Arc::ptr_eq(shape(&a), shape(&b)));
        assert!(!Arc::ptr_eq(shape(&a), shape(&c)));
        assert_eq!(
            [shape(&a).id, shape(&b).id, shape(&c).id],
            [0, 1, 2],
            "ids number the lowerings in order"
        );
        let ints = Vector::from_vec(&rt, vec![1i32, 2]);
        let twice = Map::<i32, i32>::from_source("int func(int x) { return x * 2; }");
        let p = ints.lazy().map(&twice);
        let d = lowered(&p.graph, &forced(&p.graph, p.tip));
        assert_eq!(shape(&d).rendered.inputs, [ScalarType::Int]);
        assert_eq!(rt.exec_trace().plan_lowerings, 4);
    }
}
