//! Lazy pipeline graphs with cross-stage kernel fusion.
//!
//! [`Vector::lazy`] (and [`Matrix::lazy`](crate::matrix::Matrix::lazy))
//! opens a *plan*: fluent skeleton calls append nodes to an expression DAG
//! instead of enqueueing kernels, and nothing executes until a terminal form
//! ([`PlanVec::into_vector`] / [`PlanVec::collect`] / [`PlanScalar::scalar`]
//! / `exec`). Before lowering, a fusion pass rewrites the DAG: adjacent
//! elementwise stages (map∘map, zip∘map) compose their user functions into
//! **one** generated kernel — with hygienic renaming when UDFs collide — and
//! a trailing elementwise chain is inlined into the first phase of a reduce
//! or scan. A fused chain runs as a single kernel launch per device with
//! zero intermediate containers; the per-boundary fuse-vs-split choice is
//! made by the per-device cost model in [`crate::fusion`] (overridable via
//! [`FusionPolicy`]).
//!
//! Fused and unfused plans are **bit-identical**: the fused kernels inline
//! the exact per-element expression the staged pipeline would compute, in
//! the same evaluation order. And a plan *is* the eager skeletons' lowering,
//! not a mirror of it: every launch group — one stage or many — is rendered
//! by [`crate::kernelgen`]'s one renderer, cached in the runtime's
//! `LoweringMemo` (the entry an eager call of the same shape uses, built
//! program included) and launched by the launcher the eager skeleton of its
//! kind uses — `launch_elementwise`, `launch_and_gather` + host fold
//! ([`crate::skeletons::Reduce`]), `launch_scan`. This module binds
//! arguments; it contains no kernel text and no launch flow of its own.
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
//! ```

use std::any::TypeId;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use oclsim::{Buffer, KernelArg, Pod, Value};
use skelcl_kernel::pack::JobSpans;
use skelcl_kernel::types::ScalarType;

use crate::args::Args;
use crate::container::{Container, DynContainer};
use crate::distribution::{Distribution, Partition};
use crate::error::{Result, SkelError};
use crate::fusion::{boundary_decision, BoundaryDecision, FusionPolicy, GroupCost, StageCost};
use crate::kernelgen::{render_group, RenderedGroup, StageKind, UdfInfo, MAP_OVERLAP_KERNEL};
use crate::matrix::Matrix;
use crate::runtime::SkelCl;
use crate::scheduler::PerfModel;
use crate::skeletons::exec::{buffer_arg, CreateBuffer};
use crate::skeletons::{
    create_buffer, launch_and_gather, launch_elementwise, launch_geometry, launch_scan, run_call,
    CallSpec, DeviceScalar, HostOperator, LaunchConfig, Map, MapOverlap, PreparedCall, Reduce,
    Scan, Skeleton, StageKernels, Zip,
};
use crate::vector::Vector;

/// The device scalar type of a Rust element type, if it has one.
pub(crate) fn scalar_type_of<T: 'static>() -> Option<ScalarType> {
    let id = TypeId::of::<T>();
    if id == TypeId::of::<f32>() {
        Some(ScalarType::Float)
    } else if id == TypeId::of::<f64>() {
        Some(ScalarType::Double)
    } else if id == TypeId::of::<i32>() {
        Some(ScalarType::Int)
    } else if id == TypeId::of::<u32>() {
        Some(ScalarType::Uint)
    } else {
        None
    }
}

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

/// One node of the lazy expression DAG.
#[derive(Clone)]
pub(crate) enum PlanNode {
    /// An input container (`source` indexes the graph's source table).
    Source { source: usize, ty: ScalarType },
    /// An elementwise map stage.
    Map {
        input: usize,
        udf: Arc<UdfInfo>,
        args: Args,
    },
    /// An elementwise zip stage; `other` is always a `Source` node.
    Zip {
        input: usize,
        other: usize,
        udf: Arc<UdfInfo>,
        args: Args,
    },
    /// A stencil stage (matrix plans only); never fused across.
    MapOverlap { input: usize, halo: usize },
    /// A full reduction to one scalar; `host` evaluates the operator on the
    /// host (the final fold of the gathered partials).
    Reduce {
        input: usize,
        udf: Arc<UdfInfo>,
        host: Arc<HostOperator>,
    },
    /// An inclusive prefix scan; `host` combines the per-device totals.
    Scan {
        input: usize,
        udf: Arc<UdfInfo>,
        host: Arc<HostOperator>,
    },
}

/// The chain-input link of a node (`None` for sources).
fn node_input(node: &PlanNode) -> Option<usize> {
    match node {
        PlanNode::Source { .. } => None,
        PlanNode::Map { input, .. }
        | PlanNode::Zip { input, .. }
        | PlanNode::MapOverlap { input, .. }
        | PlanNode::Reduce { input, .. }
        | PlanNode::Scan { input, .. } => Some(*input),
    }
}

/// Element type a node produces.
fn node_out_ty(nodes: &[PlanNode], idx: usize) -> ScalarType {
    match &nodes[idx] {
        PlanNode::Source { ty, .. } => *ty,
        PlanNode::Map { udf, .. }
        | PlanNode::Zip { udf, .. }
        | PlanNode::Reduce { udf, .. }
        | PlanNode::Scan { udf, .. } => udf.return_type,
        PlanNode::MapOverlap { .. } => ScalarType::Float,
    }
}

/// What kind of lowering a fusion group needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum GroupKind {
    /// One fused data-parallel kernel (`out[i] = expr(i)`).
    Elementwise,
    /// Fused per-device chunked folds + gather + host fold.
    Reduce,
    /// Fused per-device local scans + totals download + offset kernels.
    Scan,
    /// An unfusable stencil stage, lowered through the eager skeleton.
    Overlap,
}

/// A run of pipeline nodes lowered to one launch, plus the boundary
/// decisions the fusion pass took while forming it.
struct Group {
    nodes: Vec<usize>,
    kind: GroupKind,
    decisions: Vec<(usize, BoundaryDecision)>,
}

/// Per-stage cost figures and group kind for the fusion pass.
fn stage_info(nodes: &[PlanNode], idx: usize) -> Option<(StageCost, GroupKind)> {
    match &nodes[idx] {
        PlanNode::Source { .. } => unreachable!("sources are not stages"),
        PlanNode::MapOverlap { .. } => None,
        PlanNode::Map { udf, .. } => Some((
            StageCost::of(udf, 0.0, udf.return_type.size_bytes() as f64),
            GroupKind::Elementwise,
        )),
        PlanNode::Zip { udf, .. } => Some((
            StageCost::of(
                udf,
                udf.main_params[1].size_bytes() as f64,
                udf.return_type.size_bytes() as f64,
            ),
            GroupKind::Elementwise,
        )),
        PlanNode::Reduce { udf, .. } => Some((StageCost::of(udf, 0.0, 0.0), GroupKind::Reduce)),
        PlanNode::Scan { udf, .. } => Some((
            StageCost::of(udf, 0.0, udf.return_type.size_bytes() as f64),
            GroupKind::Scan,
        )),
    }
}

/// The fusion pass: walk the spine (source first), open an elementwise group
/// and consult the cost model at every boundary. Reduce and scan stages may
/// join (and close) an open elementwise group — their first phase absorbs
/// the chain — while stencil stages are barriers that always stand alone.
fn plan_groups(
    nodes: &[PlanNode],
    spine: &[usize],
    policy: FusionPolicy,
    model: &PerfModel,
    device_items: &[(usize, usize)],
) -> Result<Vec<Group>> {
    let mut groups: Vec<Group> = Vec::new();
    let mut open: Option<(GroupCost, Group)> = None;
    let chain_in_bytes = |idx: usize| {
        let input = node_input(&nodes[idx]).expect("stages have an input");
        node_out_ty(nodes, input).size_bytes() as f64
    };
    for &idx in &spine[1..] {
        let Some((cost, kind)) = stage_info(nodes, idx) else {
            // Stencil barrier: close the open group, emit a lone group.
            if let Some((_, group)) = open.take() {
                groups.push(group);
            }
            groups.push(Group {
                nodes: vec![idx],
                kind: GroupKind::Overlap,
                decisions: Vec::new(),
            });
            continue;
        };
        let fresh = |decisions: Vec<(usize, BoundaryDecision)>| {
            (
                GroupCost::start(chain_in_bytes(idx), cost),
                Group {
                    nodes: vec![idx],
                    kind,
                    decisions,
                },
            )
        };
        match open.take() {
            None => {
                let (acc, group) = fresh(Vec::new());
                if kind == GroupKind::Elementwise {
                    open = Some((acc, group));
                } else {
                    groups.push(group);
                }
            }
            Some((mut acc, mut group)) => {
                let decision = boundary_decision(policy, model, device_items, acc, cost)?;
                group.decisions.push((idx, decision));
                if decision.fused {
                    group.nodes.push(idx);
                    acc.fuse(cost);
                    group.kind = kind;
                    if kind == GroupKind::Elementwise {
                        open = Some((acc, group));
                    } else {
                        groups.push(group);
                    }
                } else {
                    groups.push(group);
                    let (acc, group) = fresh(Vec::new());
                    if kind == GroupKind::Elementwise {
                        open = Some((acc, group));
                    } else {
                        groups.push(group);
                    }
                }
            }
        }
    }
    if let Some((_, group)) = open {
        groups.push(group);
    }
    Ok(groups)
}

/// The shape contribution of every stage of a group, in stage order: the
/// stage kind and its analysed UDF — what the lowering memo is keyed by.
fn stage_shapes<'a>(nodes: &'a [PlanNode], group: &[usize]) -> Vec<(StageKind, &'a Arc<UdfInfo>)> {
    group
        .iter()
        .map(|&idx| match &nodes[idx] {
            PlanNode::Map { udf, .. } => (StageKind::Map, udf),
            PlanNode::Zip { udf, .. } => (StageKind::Zip, udf),
            PlanNode::Reduce { udf, .. } => (StageKind::Reduce, udf),
            PlanNode::Scan { udf, .. } => (StageKind::Scan, udf),
            PlanNode::Source { .. } | PlanNode::MapOverlap { .. } => {
                unreachable!("sources and stencils never join a fused group")
            }
        })
        .collect()
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
    /// The rendered program, its kernel names and element types.
    pub(crate) rendered: RenderedGroup,
    /// The group's kernel and, for a scan, its offset kernel: built on the
    /// runtime's context at first use.
    kernels: OnceLock<Arc<StageKernels>>,
}

impl LoweredShape {
    fn matches(&self, stages: &[(StageKind, &Arc<UdfInfo>)]) -> bool {
        self.stages.len() == stages.len()
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
}

/// Lower one group of stages through the one renderer
/// ([`crate::kernelgen::render_group`]); `id` numbers the result. The miss
/// path of the [`LoweringMemo`], its only caller.
fn lower_group(stages: &[(StageKind, &Arc<UdfInfo>)], id: usize) -> Result<LoweredShape> {
    let borrowed: Vec<(StageKind, &UdfInfo)> =
        stages.iter().map(|&(kind, udf)| (kind, &**udf)).collect();
    Ok(LoweredShape {
        id,
        stages: stages
            .iter()
            .map(|&(kind, udf)| (kind, udf.clone()))
            .collect(),
        rendered: render_group(&borrowed)?,
        kernels: OnceLock::new(),
    })
}

/// The runtime's lowering memo — the only kernel cache: one [`LoweredShape`]
/// per distinct group shape, keyed by content — per stage the kind and the
/// UDF source text — never by pointer, so two skeletons built from the same
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

    /// The lowering of the group `stages`, computed on first sight of its
    /// shape.
    pub(crate) fn lowered(
        &self,
        stages: &[(StageKind, &Arc<UdfInfo>)],
    ) -> Result<Arc<LoweredShape>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for (kind, udf) in stages {
            (kind, udf.source_hash).hash(&mut hasher);
        }
        let mut entries = self.entries.lock();
        let bucket = entries.entry(hasher.finish()).or_default();
        if let Some(shape) = bucket.iter().find(|s| s.matches(stages)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(shape.clone());
        }
        // Lowered under the lock, so racing callers of one shape lower once.
        let id = self.lowerings.load(Ordering::Relaxed);
        let shape = Arc::new(lower_group(stages, id)?);
        self.lowerings.store(id + 1, Ordering::Relaxed);
        bucket.push(shape.clone());
        Ok(shape)
    }
}

/// A lowered group bound to one plan instance: the shared shape plus the
/// instance's buffer provenance, argument values and host operator.
struct LoweredGroup {
    shape: Arc<LoweredShape>,
    /// The operator's host evaluator, for the host-side combine (the one the
    /// eager skeleton uses).
    host_op: Option<Arc<HostOperator>>,
    /// Source-table slot of every kernel input after the chain (slot 0):
    /// the zips' second vectors, in stage order.
    side_sources: Vec<usize>,
    /// Additional scalar arguments, in stage order (matching the generated
    /// kernel's extra-parameter declarations).
    extra_args: Vec<KernelArg>,
}

/// The scalar additional arguments of `group`'s stages, in stage order.
fn scalar_args<'a>(nodes: &'a [PlanNode], group: &'a [usize]) -> impl Iterator<Item = Value> + 'a {
    group
        .iter()
        .filter_map(|&idx| match &nodes[idx] {
            PlanNode::Map { args, .. } | PlanNode::Zip { args, .. } => Some(args),
            _ => None,
        })
        .flat_map(|args| args.items())
        .map(|item| {
            item.scalar_value()
                .expect("plan builders only admit scalar additional arguments")
        })
}

/// Bind `shape` to the plan instance whose `group` it was looked up for.
fn bind_group(nodes: &[PlanNode], group: &[usize], shape: Arc<LoweredShape>) -> LoweredGroup {
    let mut side_sources = Vec::new();
    let mut host_op = None;
    for &idx in group {
        match &nodes[idx] {
            PlanNode::Zip { other, .. } => {
                let PlanNode::Source { source, .. } = &nodes[*other] else {
                    unreachable!("a zip's second input is always a source node")
                };
                side_sources.push(*source);
            }
            PlanNode::Reduce { host, .. } | PlanNode::Scan { host, .. } => {
                host_op = Some(host.clone());
            }
            _ => {}
        }
    }
    LoweredGroup {
        shape,
        host_op,
        side_sources,
        extra_args: scalar_args(nodes, group).map(KernelArg::Scalar).collect(),
    }
}

/// The running intermediate of plan execution: either still an input source
/// or freshly produced device buffers.
enum ExecChain {
    Source(usize),
    Interm(Vec<Option<Buffer>>),
}

/// What one launch group — and, from the last one, the plan — produced:
/// per-device buffers (the next intermediate, or the result vector's), or
/// the scalar of a reduction.
enum GroupOutput {
    Buffers(Vec<Option<Buffer>>),
    Scalar(Value),
}

/// The shared lazy DAG behind [`PlanVec`] and [`PlanScalar`]. Build errors
/// poison the graph (first error wins); terminals surface it.
#[derive(Clone)]
pub(crate) struct PlanGraph {
    runtime: Arc<SkelCl>,
    nodes: Vec<PlanNode>,
    sources: Vec<Arc<dyn DynContainer>>,
    policy: FusionPolicy,
    err: Option<SkelError>,
}

impl PlanGraph {
    /// Append a node built by `build`, or poison the graph on its error. The
    /// returned index is `fallback` when the graph is (or becomes) poisoned.
    fn admit(
        &mut self,
        fallback: usize,
        build: impl FnOnce(&mut PlanGraph) -> Result<PlanNode>,
    ) -> usize {
        if self.err.is_some() {
            return fallback;
        }
        match build(self) {
            Ok(node) => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
            Err(e) => {
                self.err = Some(e);
                fallback
            }
        }
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

    /// The source-to-tip path of stage nodes (source first). Zip side
    /// sources hang off the spine and are resolved during lowering.
    fn spine(&self, tip: usize) -> Vec<usize> {
        let mut chain = vec![tip];
        let mut cur = tip;
        while let Some(prev) = node_input(&self.nodes[cur]) {
            chain.push(prev);
            cur = prev;
        }
        chain.reverse();
        chain
    }

    fn check_chain(&self, tip: usize, udf: &UdfInfo, skeleton: &str) -> Result<()> {
        let chain_ty = node_out_ty(&self.nodes, tip);
        if udf.main_params.is_empty() || udf.main_params[0] != chain_ty {
            return Err(SkelError::Plan(format!(
                "{skeleton} stage expects `{}` input but the pipeline produces `{chain_ty}`",
                udf.main_params
                    .first()
                    .map_or_else(|| "?".to_string(), std::string::ToString::to_string),
            )));
        }
        Ok(())
    }

    /// Release the buffers of a consumed intermediate (fused pipelines own
    /// their intermediates; sources keep theirs).
    fn release_chain(&self, chain: &ExecChain) -> Result<()> {
        if let ExecChain::Interm(buffers) = chain {
            for buffer in buffers.iter().flatten() {
                self.runtime.context().release_buffer(buffer)?;
            }
        }
        Ok(())
    }

    /// The group kernel's leading input-buffer arguments on `device`: the
    /// running chain (the previous group's output, or source 0), then the
    /// zips' second vectors.
    fn input_args(
        &self,
        lowered: &LoweredGroup,
        chain: &ExecChain,
        sources: &[Vec<Option<Buffer>>],
        device: usize,
    ) -> Result<Vec<KernelArg>> {
        let chain = match chain {
            ExecChain::Source(source) => &sources[*source],
            ExecChain::Interm(buffers) => buffers,
        };
        let sides = lowered.side_sources.iter().map(|&s| &sources[s]);
        std::iter::once(chain)
            .chain(sides)
            .map(|buffers| buffer_arg(buffers, device, format_args!("a pipeline input")))
            .collect()
    }

    /// Run one launch group: look its lowering up in the runtime's memo,
    /// bind this plan's buffers and argument values — `[inputs…, out, n,
    /// extras…]`, the eager kernels' layout — and hand them to the launcher
    /// of the group's kind, the one the eager skeleton of that kind uses.
    fn run_group(
        &self,
        group: &Group,
        call: &PreparedCall,
        chain: &ExecChain,
    ) -> Result<GroupOutput> {
        let runtime = &self.runtime;
        let (partition, sources) = (&call.partition, &call.input_buffers);
        let lowered = self.lowered(&group.nodes)?;
        runtime.charge_skeleton_call();
        let active = partition.active_devices();
        let merged = group.nodes.len() - 1;
        if merged > 0 {
            // Every interior node of the group would have materialised an
            // intermediate container (one buffer per active device) and
            // cost one more launch per device.
            let stored_elems: usize = partition.sizes().iter().sum();
            let bytes: usize = group.nodes[..merged]
                .iter()
                .map(|&idx| stored_elems * node_out_ty(&self.nodes, idx).size_bytes())
                .sum();
            runtime.charge_fusion(merged, merged * active.len(), merged * active.len(), bytes);
        }
        let kernels = lowered.shape.kernels(runtime)?;
        let bind = |device| {
            let inputs = self.input_args(&lowered, chain, sources, device)?;
            Ok((inputs, lowered.extra_args.clone()))
        };
        let host_op = || {
            lowered
                .host_op
                .as_ref()
                .expect("a fold group carries its operator's host evaluator")
        };
        let out_ty = lowered.shape.rendered.out_ty;
        match group.kind {
            GroupKind::Elementwise => {
                let create = with_scalar!(out_ty, T, { create_buffer::<T> as CreateBuffer });
                let lens = partition.sizes();
                launch_elementwise(
                    runtime,
                    &kernels.kernel,
                    partition,
                    &lens,
                    &bind,
                    create,
                    None,
                )
                .map(GroupOutput::Buffers)
            }
            GroupKind::Reduce => with_scalar!(out_ty, T, {
                let mut partials =
                    launch_and_gather::<T>(runtime, kernels, partition, &bind, None)?;
                Ok(GroupOutput::Scalar(
                    host_op().fold(&mut partials)?.to_value(),
                ))
            }),
            GroupKind::Scan => with_scalar!(out_ty, T, {
                let combine = |a: T, b: T| host_op().fold(&mut [a, b]);
                launch_scan(runtime, kernels, partition, &bind, &combine, None, false)
                    .map(|(out, _)| GroupOutput::Buffers(out))
            }),
            GroupKind::Overlap => unreachable!("vector plans have no stencil stage"),
        }
    }

    /// Execute the plan at `tip` through the one call path: its sources are
    /// the call's inputs — unified to one distribution, uploaded, and after a
    /// fault refreshed and re-partitioned together — and one attempt runs
    /// every launch group and wraps the result (`wrap`, so a discarded
    /// attempt's output releases its buffers).
    fn execute<R>(&self, tip: usize, wrap: &dyn Fn(GroupOutput) -> R) -> Result<R> {
        if let Some(err) = &self.err {
            return Err(err.clone());
        }
        let spine = self.spine(tip);
        if spine.len() < 2 {
            return Err(SkelError::Plan(
                "a lazy plan needs at least one stage before a terminal; \
                 call map, zip, reduce or scan first"
                    .into(),
            ));
        }
        let coerce = || {
            let unified = self.unified_distribution(&spine);
            for source in &self.sources {
                // Block whenever a source has to move.
                if distribution_of(&**source) != unified {
                    source.coerce_to_block()?;
                }
            }
            Ok(())
        };
        let spec = CallSpec {
            charge: false,
            coerce: &coerce,
            ..CallSpec::eager(None)
        };
        let sources: Vec<&dyn DynContainer> = self.sources.iter().map(|s| &**s).collect();
        let cfg = LaunchConfig::default();
        run_call(&self.runtime, &sources, &cfg, &spec, &mut |call| {
            self.run_groups(call, &spine).map(wrap)
        })
    }

    /// The one distribution [`PlanGraph::execute`] brings every source to:
    /// their common one — block if any disagrees (the eager zip's
    /// unification, generalised) — and never copy under a prefix or fold,
    /// which would double-count (the eager reduce and scan coerce to block,
    /// so the plan does too).
    fn unified_distribution(&self, spine: &[usize]) -> Distribution {
        let first = distribution_of(&*self.sources[0]);
        let has_fold = spine.iter().any(|&i| {
            matches!(
                self.nodes[i],
                PlanNode::Reduce { .. } | PlanNode::Scan { .. }
            )
        });
        let agree = self.sources.iter().all(|s| distribution_of(&**s) == first);
        if agree && !(has_fold && first == Distribution::Copy) {
            first
        } else {
            Distribution::Block
        }
    }

    /// Device bytes of every input source.
    fn source_bytes(&self) -> usize {
        let sized = |node: &PlanNode| match node {
            PlanNode::Source { source, ty } => self.sources[*source].elem_count() * ty.size_bytes(),
            _ => 0,
        };
        self.nodes.iter().map(sized).sum()
    }

    /// One attempt at the plan's launches over the prepared sources: run the
    /// fusion pass, lower each group to launches on the existing queue/event
    /// machinery, and account the fusion telemetry.
    fn run_groups(&self, call: &PreparedCall, spine: &[usize]) -> Result<GroupOutput> {
        let partition = &call.partition;
        let device_items: Vec<(usize, usize)> = partition
            .active_devices()
            .iter()
            .map(|&d| (d, partition.size(d)))
            .collect();
        let model = PerfModel::analytical(&self.runtime);
        let groups = plan_groups(&self.nodes, spine, self.policy, &model, &device_items)?;
        let mut chain = ExecChain::Source(0);
        for group in &groups {
            let ran = self.run_group(group, call, &chain);
            // The group consumed the running intermediate — or failed (its
            // launcher joined what it enqueued), and nothing else will.
            let released = self.release_chain(&chain);
            match ran? {
                GroupOutput::Buffers(out) => chain = ExecChain::Interm(out),
                // A reduction closes the plan.
                scalar => return released.map(|()| scalar),
            }
            released?;
        }
        match chain {
            ExecChain::Interm(buffers) => Ok(GroupOutput::Buffers(buffers)),
            ExecChain::Source(_) => unreachable!("the spine has at least one stage"),
        }
    }

    /// The lowering of `group` — from the runtime's memo, the only place a
    /// group is ever lowered — bound to this plan's arguments and sources.
    fn lowered(&self, group: &[usize]) -> Result<LoweredGroup> {
        let shape = lower_nodes(&self.runtime, &self.nodes, group)?;
        Ok(bind_group(&self.nodes, group, shape))
    }

    /// Render the DAG and the fusion pass's verdicts without executing (and
    /// without touching the sources' distributions).
    fn explain(&self, tip: usize) -> Result<String> {
        if let Some(err) = &self.err {
            return Err(err.clone());
        }
        let spine = self.spine(tip);
        let devices = self.runtime.device_count();
        let len = self.sources[0].elem_count();
        let groups = if spine.len() < 2 {
            Err("the plan has no stage")
        } else if len == 0 {
            Err("empty input")
        } else {
            // Predict what execute() would do, without mutating the sources.
            let dist = self.unified_distribution(&spine);
            let partition = Partition::compute(len, devices, &dist);
            let device_items: Vec<(usize, usize)> = partition
                .active_devices()
                .iter()
                .map(|&d| (d, partition.size(d)))
                .collect();
            let model = PerfModel::analytical(&self.runtime);
            Ok(plan_groups(
                &self.nodes,
                &spine,
                self.policy,
                &model,
                &device_items,
            )?)
        };
        explain_plan(
            &self.runtime,
            &self.nodes,
            self.policy,
            &format!("{} source(s)", self.sources.len()),
            &|source| {
                format!(
                    "len {}, {:?}",
                    self.sources[source].elem_count(),
                    distribution_of(&*self.sources[source])
                )
            },
            groups,
        )
    }
}

/// The distribution of a plan source — a vector, so it has one.
fn distribution_of(source: &dyn DynContainer) -> Distribution {
    source
        .flat_distribution()
        .expect("the sources of a vector plan are vectors")
}

/// The memo entry of the fusion group `group` of `nodes`.
fn lower_nodes(runtime: &SkelCl, nodes: &[PlanNode], group: &[usize]) -> Result<Arc<LoweredShape>> {
    runtime.lowerings().lowered(&stage_shapes(nodes, group))
}

/// The one `explain` behind vector and matrix plans: the header and the
/// runtime's tier / lowering telemetry, the node table, and — unless
/// `groups` says why nothing would run — the launch groups the fusion pass
/// forms, each with its kernel, its boundary verdicts and the renames its
/// lowering had to make. `over` and `source` describe the plan's input(s).
fn explain_plan(
    runtime: &SkelCl,
    nodes: &[PlanNode],
    policy: FusionPolicy,
    over: &str,
    source: &dyn Fn(usize) -> String,
    groups: std::result::Result<Vec<Group>, &str>,
) -> Result<String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Plan: {} node(s) over {over}, {} device(s), policy {policy:?}",
        nodes.len(),
        runtime.device_count(),
    );
    let _ = writeln!(out, "Kernel tier: {}", runtime.kernel_tier_summary());
    let trace = runtime.exec_trace();
    let _ = writeln!(out, "{}", trace.tier_line());
    let _ = writeln!(out, "{}", trace.lowering_line());
    for (i, node) in nodes.iter().enumerate() {
        let out_ty = node_out_ty(nodes, i);
        let line = match node {
            PlanNode::Source { source: slot, ty } => {
                format!("source[{slot}] : {ty} ({})", source(*slot))
            }
            PlanNode::Map { input, .. } => format!("map(%{input}) -> {out_ty}"),
            PlanNode::Zip { input, other, .. } => format!("zip(%{input}, %{other}) -> {out_ty}"),
            PlanNode::MapOverlap { input, halo } => {
                format!("map_overlap(%{input}, halo {halo}) -> {out_ty}")
            }
            PlanNode::Reduce { input, .. } => format!("reduce(%{input}) -> {out_ty}"),
            PlanNode::Scan { input, .. } => format!("scan(%{input}) -> {out_ty}"),
        };
        let _ = writeln!(out, "  %{i} = {line}");
    }
    let groups = match groups {
        Ok(groups) => groups,
        Err(why) => {
            let _ = writeln!(out, "After fusion: nothing to run ({why})");
            return Ok(out);
        }
    };
    let _ = writeln!(out, "After fusion: {} launch group(s)", groups.len());
    for (gi, group) in groups.iter().enumerate() {
        let members: Vec<String> = group.nodes.iter().map(|i| format!("%{i}")).collect();
        // Stencil stages run through the eager skeleton, which looks its
        // kernel up itself; every other group is lowered here.
        let shape = match group.kind {
            GroupKind::Overlap => None,
            _ => Some(lower_nodes(runtime, nodes, &group.nodes)?),
        };
        let _ = writeln!(
            out,
            "  group {gi}: {} over {} ({} stage(s) fused)",
            shape
                .as_ref()
                .map_or(MAP_OVERLAP_KERNEL, |shape| shape.rendered.kernel),
            members.join(", "),
            group.nodes.len()
        );
        for (idx, decision) in &group.decisions {
            let verdict = if decision.fused { "fuse" } else { "split" };
            let why = if decision.forced {
                "policy"
            } else {
                "cost model"
            };
            let _ = writeln!(
                out,
                "    boundary before %{idx}: {verdict} ({why}; predicted fused {:.3} ms vs split {:.3} ms)",
                decision.fused_time * 1e3,
                decision.split_time * 1e3
            );
        }
        for collision in shape.iter().flat_map(|shape| &shape.rendered.collisions) {
            let _ = writeln!(out, "    rename: {collision}");
        }
    }
    Ok(out)
}

fn check_stage_args(udf: &UdfInfo, args: &Args) -> Result<()> {
    if args.vector_count() != 0 {
        return Err(SkelError::UnsupportedArg(
            "lazy pipeline stages accept only scalar additional arguments".into(),
        ));
    }
    crate::skeletons::udf::check_arg_count(udf, args.len())
}

fn check_elem_ty<O: 'static>(udf: &UdfInfo, role: &str) -> Result<ScalarType> {
    let Some(ty) = scalar_type_of::<O>() else {
        return Err(SkelError::Plan(format!(
            "element type {} is not a device scalar type (use f32, f64, i32 or u32)",
            std::any::type_name::<O>()
        )));
    };
    if udf.return_type != ty && role == "output" {
        return Err(SkelError::Plan(format!(
            "the stage's user function returns `{}` but the {role} element type is `{ty}`",
            udf.return_type
        )));
    }
    Ok(ty)
}

/// A lazily built vector pipeline. Created by [`Vector::lazy`]; stage
/// builders consume and return the plan, terminals (`into_vector`,
/// `collect`, `exec`) execute it. Terminals take `&self`, so one plan can
/// run several times.
#[must_use = "a lazy plan does nothing until a terminal such as `into_vector()` runs it"]
pub struct PlanVec<T: Pod> {
    graph: PlanGraph,
    tip: usize,
    _elem: PhantomData<fn() -> T>,
}

impl<T: Pod> Clone for PlanVec<T> {
    fn clone(&self) -> Self {
        PlanVec {
            graph: self.graph.clone(),
            tip: self.tip,
            _elem: PhantomData,
        }
    }
}

impl<T: Pod> PlanVec<T> {
    pub(crate) fn from_vector(vector: &Vector<T>) -> PlanVec<T> {
        let ty = scalar_type_of::<T>();
        let mut graph = PlanGraph {
            runtime: vector.runtime(),
            nodes: vec![PlanNode::Source {
                source: 0,
                ty: ty.unwrap_or(ScalarType::Float),
            }],
            sources: vec![Arc::new(vector.clone())],
            policy: FusionPolicy::default(),
            err: None,
        };
        if ty.is_none() {
            graph.err = Some(SkelError::Plan(format!(
                "element type {} is not a device scalar type (use f32, f64, i32 or u32)",
                std::any::type_name::<T>()
            )));
        }
        PlanVec {
            graph,
            tip: 0,
            _elem: PhantomData,
        }
    }

    /// Override the fusion policy (default: [`FusionPolicy::Auto`]).
    pub fn policy(mut self, policy: FusionPolicy) -> Self {
        self.graph.policy = policy;
        self
    }

    /// Append an elementwise map stage.
    pub fn map<O: Pod>(self, skeleton: &Map<T, O>) -> PlanVec<O> {
        self.map_with(skeleton, Args::none())
    }

    /// Append an elementwise map stage with additional scalar arguments.
    pub fn map_with<O: Pod>(mut self, skeleton: &Map<T, O>, args: Args) -> PlanVec<O> {
        let tip = self.tip;
        let tip = self.graph.admit(tip, |g| {
            let udf = skeleton.plan_udf()?;
            g.check_chain(tip, &udf, "map")?;
            check_stage_args(&udf, &args)?;
            check_elem_ty::<O>(&udf, "output")?;
            Ok(PlanNode::Map {
                input: tip,
                udf,
                args,
            })
        });
        PlanVec {
            graph: self.graph,
            tip,
            _elem: PhantomData,
        }
    }

    /// Append an elementwise zip stage with a second input vector.
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
            g.check_chain(tip, &udf, "zip")?;
            let other_ty = check_elem_ty::<B>(&udf, "second input")?;
            if udf.main_params.len() < 2 || udf.main_params[1] != other_ty {
                return Err(SkelError::Plan(format!(
                    "zip stage expects `{}` as its second input but the vector holds `{other_ty}`",
                    udf.main_params
                        .get(1)
                        .map_or_else(|| "?".to_string(), std::string::ToString::to_string),
                )));
            }
            check_stage_args(&udf, &args)?;
            check_elem_ty::<O>(&udf, "output")?;
            let source = g.sources.len();
            g.sources.push(Arc::new(other.clone()));
            g.nodes.push(PlanNode::Source {
                source,
                ty: other_ty,
            });
            let other_node = g.nodes.len() - 1;
            Ok(PlanNode::Zip {
                input: tip,
                other: other_node,
                udf,
                args,
            })
        });
        PlanVec {
            graph: self.graph,
            tip,
            _elem: PhantomData,
        }
    }

    /// Terminate the chain with a full reduction.
    pub fn reduce(mut self, skeleton: &Reduce<T>) -> PlanScalar<T>
    where
        T: DeviceScalar,
    {
        let tip = self.tip;
        let tip = self.graph.admit(tip, |g| {
            let (udf, host) = skeleton.plan_op()?;
            g.check_chain(tip, &udf, "reduce")?;
            Ok(PlanNode::Reduce {
                input: tip,
                udf,
                host,
            })
        });
        PlanScalar {
            graph: self.graph,
            tip,
            _elem: PhantomData,
        }
    }

    /// Append an inclusive prefix scan (further stages may follow it).
    pub fn scan(mut self, skeleton: &Scan<T>) -> PlanVec<T>
    where
        T: DeviceScalar,
    {
        let tip = self.tip;
        let tip = self.graph.admit(tip, |g| {
            let (udf, host) = skeleton.plan_op()?;
            g.check_chain(tip, &udf, "scan")?;
            Ok(PlanNode::Scan {
                input: tip,
                udf,
                host,
            })
        });
        PlanVec {
            graph: self.graph,
            tip,
            _elem: PhantomData,
        }
    }

    /// Execute the plan and return the result vector.
    pub fn into_vector(&self) -> Result<Vector<T>> {
        self.graph.execute(self.tip, &|out| match out {
            GroupOutput::Buffers(buffers) => {
                // Read after the run: executing may have coerced the sources
                // to a common distribution, which the output adopts.
                let source = &*self.graph.sources[0];
                Vector::device_resident(
                    &self.graph.runtime,
                    source.elem_count(),
                    distribution_of(source),
                    buffers,
                )
            }
            GroupOutput::Scalar(_) => unreachable!("a PlanVec tip lowers to a vector"),
        })
    }

    /// Execute the plan ([`into_vector`](Self::into_vector) alias).
    pub fn exec(&self) -> Result<Vector<T>> {
        self.into_vector()
    }

    /// Execute the plan and download the result to the host.
    pub fn collect(&self) -> Result<Vec<T>> {
        self.into_vector()?.to_vec()
    }

    /// Render the DAG and the fusion pass's per-boundary verdicts without
    /// executing anything.
    pub fn explain(&self) -> Result<String> {
        self.graph.explain(self.tip)
    }

    /// The runtime the plan executes against.
    pub fn runtime(&self) -> Arc<SkelCl> {
        self.graph.runtime.clone()
    }

    /// Element count of the plan's primary input (and therefore its output).
    pub fn input_len(&self) -> usize {
        self.graph.sources[0].elem_count()
    }

    /// Estimated device bytes the plan needs at once: every input source
    /// plus the output. Used by admission control to charge tenant quotas
    /// before execution.
    pub fn footprint_bytes(&self) -> usize {
        self.input_len() * std::mem::size_of::<T>() + self.graph.source_bytes()
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
    /// the whole pipeline is elementwise (a map/zip chain) and therefore
    /// packable into one launch with other plans of the same signature via
    /// [`PlanVec::pack_jobs`]. `Ok(None)` means the plan contains a scan
    /// and must run on its own. See [`CoalesceSignature`] for what equal
    /// signatures promise.
    pub fn coalesce_signature(&self) -> Result<Option<CoalesceSignature>> {
        self.graph.coalesce_signature(self.tip)
    }

    /// Pack many same-signature jobs into **one** kernel launch on `device`:
    /// each job's input elements are laid back to back in one buffer per
    /// kernel argument, the fused kernel runs once over the combined element
    /// count, and the returned [`PackedLaunch`] slices each job's span back
    /// out of the packed output. Every enqueue is non-blocking, so many
    /// packed launches can be in flight at once.
    ///
    /// Every job must share this plan's runtime and
    /// [`coalesce_signature`](Self::coalesce_signature); a single-job pack
    /// is valid (that is exactly how the serving layer runs uncoalesced
    /// jobs, which makes coalesced and uncoalesced results bit-identical by
    /// construction).
    pub fn pack_jobs(jobs: &[&PlanVec<T>], device: usize) -> Result<PackedLaunch<T>>
    where
        T: DeviceScalar,
    {
        let jobs: Vec<_> = jobs.iter().map(|job| (&job.graph, job.tip)).collect();
        pack_graphs(&jobs, device, |elements, _| Ok(elements))
    }
}

impl PlanGraph {
    /// The plan at `tip` as one packed launch over many jobs: its stages,
    /// when they are an elementwise chain optionally closed by a reduce, and
    /// their memo entry — the entry every plan of these stages uses, except
    /// that a closing reduce is lowered through its packed frame. `None` for
    /// a plan without stages or with a scan.
    fn packed_group(&self, tip: usize) -> Result<Option<(Vec<usize>, Arc<LoweredShape>)>> {
        if let Some(err) = &self.err {
            return Err(err.clone());
        }
        let group = self.spine(tip).split_off(1);
        let Some((&last, chain)) = group.split_last() else {
            return Ok(None);
        };
        let elementwise =
            |&i: &usize| matches!(self.nodes[i], PlanNode::Map { .. } | PlanNode::Zip { .. });
        if !(self.reduces(last) || elementwise(&last)) || !chain.iter().all(elementwise) {
            return Ok(None);
        }
        let mut stages = stage_shapes(&self.nodes, &group);
        if let Some((kind @ StageKind::Reduce, _)) = stages.last_mut() {
            *kind = StageKind::PackedReduce;
        }
        let shape = self.runtime.lowerings().lowered(&stages)?;
        Ok(Some((group, shape)))
    }

    fn reduces(&self, node: usize) -> bool {
        matches!(self.nodes[node], PlanNode::Reduce { .. })
    }

    /// The signature of this plan's packed `group` (not empty), lowered to
    /// `shape`.
    fn signature_of(&self, group: &[usize], shape: &LoweredShape) -> CoalesceSignature {
        CoalesceSignature {
            memo: self.runtime.lowerings().id,
            shape: shape.id,
            args: scalar_args(&self.nodes, group).map(arg_bits).collect(),
            reduce_len: self
                .reduces(group[group.len() - 1])
                .then(|| self.sources[0].elem_count()),
        }
    }

    /// See [`PlanVec::coalesce_signature`] and
    /// [`PlanScalar::coalesce_signature`].
    fn coalesce_signature(&self, tip: usize) -> Result<Option<CoalesceSignature>> {
        let packed = self.packed_group(tip)?;
        Ok(packed.map(|(group, shape)| self.signature_of(&group, &shape)))
    }
}

/// Turns one job's span of a packed launch's output into the job's result;
/// a reduction's launch hands it the operator's host evaluator.
type Finish<T, O> = fn(Vec<T>, Option<&HostOperator>) -> Result<O>;

/// What [`PlanVec::pack_jobs`] and [`PlanScalar::pack_jobs`] share: check
/// that the jobs (graph and tip each) may share a launch, bind the batch to
/// the leader's memo entry, lay the jobs out and enqueue the launch.
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
                "jobs with different kernels, arguments or reduction lengths cannot pack into one launch"
                    .into(),
            ));
        }
    }
    // The batch's one binding: every member runs the leader's memo entry.
    let lowered = bind_group(&first.nodes, &group, shape);
    let lens: Vec<usize> = jobs
        .iter()
        .map(|(job, _)| job.sources[0].elem_count())
        .collect();
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
    let stages = &lowered.shape.stages;
    let merged = stages.len() - 1;
    if merged > 0 {
        let bytes: usize = stages[..merged]
            .iter()
            .map(|(_, udf)| total * udf.return_type.size_bytes())
            .sum();
        runtime.charge_fusion(merged, merged, merged, bytes);
    }
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
        Ok(events) => Ok(PackedLaunch {
            host_op: lowered.host_op,
            finish,
            runtime,
            device,
            spans,
            buffers,
            events,
        }),
        Err(e) => {
            // Slot writes may still be on the worker: join them, and drop
            // what they latched, before their buffers go back to the pool.
            let _ = runtime.queue(device).take_deferred_error();
            for buffer in &buffers {
                let _ = runtime.context().release_buffer(buffer);
            }
            Err(e)
        }
    }
}

/// Allocate + fill the packed input buffers — `total` elements per slot —
/// and enqueue the batch's kernel over `work_items` work-items, each leaving
/// one output element, and the non-blocking read of that output; returns the
/// event of every command, in queue order (the read last). Buffers are
/// recorded in `buffers` as they are created so the caller can release them
/// on any error.
fn pack_launch<T: DeviceScalar>(
    runtime: &Arc<SkelCl>,
    device: usize,
    lowered: &LoweredGroup,
    jobs: &[(&PlanGraph, usize)],
    total: usize,
    work_items: usize,
    buffers: &mut Vec<Buffer>,
) -> Result<Vec<oclsim::EventHandle>> {
    // Resolved before the first enqueue: a program that fails to build
    // leaves nothing in flight.
    let kernel = &lowered.shape.kernels(runtime)?.kernel;
    let context = runtime.context();
    let queue = runtime.queue(device);
    let as_int = |count: usize| {
        i32::try_from(count).map(Value::Int).map_err(|_| {
            SkelError::Plan(format!(
                "a packed launch of {count} elements exceeds the kernels' int range"
            ))
        })
    };
    let mut events = Vec::new();
    let mut kargs = Vec::new();
    // Slot 0 is the chain (source 0 of every job), then the side inputs.
    let sources = std::iter::once(0).chain(lowered.side_sources.iter().copied());
    for (slot, source_index) in sources.enumerate() {
        let ty = lowered.shape.rendered.inputs[slot];
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
        let buffer = with_scalar!(ty, S, { context.create_buffer::<S>(device, total)? });
        buffers.push(buffer.clone());
        events.push(queue.enqueue_write_bytes(&buffer, 0, bytes)?);
        kargs.push(KernelArg::Buffer(buffer));
    }
    let out = context.create_buffer::<T>(device, work_items)?;
    buffers.push(out.clone());
    kargs.push(KernelArg::Buffer(out.clone()));
    kargs.push(KernelArg::Scalar(as_int(total)?));
    if lowered.host_op.is_some() {
        // The packed reduce frame's job length, equal across the batch.
        kargs.push(KernelArg::Scalar(as_int(total / jobs.len())?));
    }
    kargs.extend(lowered.extra_args.iter().cloned());
    runtime.charge_skeleton_call();
    events.push(queue.enqueue_kernel(kernel, work_items, &kargs)?);
    events.push(queue.enqueue_read_buffer_region_nb::<T>(&out, 0, work_items)?);
    Ok(events)
}

/// The identity of what a packable plan computes per job: the plan's lowered
/// *shape* — an entry of its runtime's lowering memo, named by the memo's
/// and the entry's numbers, so plans built from equal UDF text over equal
/// element types share it however many skeleton instances were involved —
/// plus the bit patterns of its scalar additional arguments and, for a plan
/// closed by a reduce, its input length (the packed reduce cuts every job of
/// a launch into the same chunks). Two plans with equal signatures belong to
/// one runtime and run the exact same kernel with the exact same arguments,
/// so [`PlanVec::pack_jobs`] / [`PlanScalar::pack_jobs`] may run them as one
/// launch. Cheap to clone, compare and hash.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CoalesceSignature {
    memo: usize,
    shape: usize,
    /// The scalar additional arguments as `(type, bits)`, so that `-0.0`
    /// and `0.0`, or two NaN payloads, never coalesce.
    args: Vec<(ScalarType, u64)>,
    /// Input length of a plan closed by a reduce (`None`: all-elementwise).
    reduce_len: Option<usize>,
}

fn arg_bits(value: Value) -> (ScalarType, u64) {
    let bits = match value {
        Value::Float(v) => u64::from(v.to_bits()),
        Value::Double(v) => v.to_bits(),
        Value::Int(v) => u64::from(v as u32),
        Value::Uint(v) => u64::from(v),
        Value::Bool(v) => u64::from(v),
    };
    (value.scalar_type(), bits)
}

impl std::fmt::Debug for CoalesceSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shape#{}{:?}", self.shape, self.args)?;
        match self.reduce_len {
            Some(len) => write!(f, "/{len}"),
            None => Ok(()),
        }
    }
}

/// An in-flight packed launch produced by [`PlanVec::pack_jobs`] (per-job
/// result `O = Vec<T>`, the job's output elements) or
/// [`PlanScalar::pack_jobs`] (`O = T`, the job's reduced value): one fused
/// kernel running every packed job plus the non-blocking read of the packed
/// output. [`PackedLaunch::wait`] joins the launch's commands, advances the
/// host's virtual clock to the read's completion, releases the packed
/// buffers back to the device pool and splits the output into one result
/// per job.
#[must_use = "a packed launch delivers results only through `wait()`"]
pub struct PackedLaunch<T: Pod, O = Vec<T>> {
    runtime: Arc<SkelCl>,
    device: usize,
    /// Per job, its span of the packed output.
    spans: JobSpans,
    buffers: Vec<Buffer>,
    /// The launch's commands in queue order: slot writes, kernel, read.
    events: Vec<oclsim::EventHandle>,
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

    /// Join the launch: wait (real time) for its commands to settle, advance
    /// the host's virtual clock to the read's completion time, release the
    /// packed buffers and return each job's result plus the read's profiling
    /// event (whose `end` is the virtual completion time of every packed
    /// job). A reduction's partials are finished here, on the host, with the
    /// operator's evaluator — the fold a one-device `scalar()` ends with.
    ///
    /// The launch answers for its own commands: it fails if any of *them*
    /// failed — a transiently failed packed-input write never reaches the
    /// kernel as an error, only as a zero-filled buffer — and never for a
    /// neighbour's, so launches in flight on one queue cannot take each
    /// other's errors. On failure the queue is joined and what this launch
    /// latched on it drained (the same discipline as the internal
    /// kernel-event join) before the buffers are released.
    pub fn wait(self) -> Result<(Vec<O>, oclsim::Event)>
    where
        T: DeviceScalar,
    {
        let (read, commands) = self
            .events
            .split_last()
            .expect("a packed launch holds at least its kernel and read");
        let mut data = vec![T::from_value(Value::Int(0)); self.spans.total()];
        let joined = commands
            .iter()
            .try_for_each(|command| command.wait().map(drop))
            .and_then(|()| read.wait_into(&mut data));
        if joined.is_err() {
            let _ = self.runtime.queue(self.device).take_deferred_error();
        }
        for buffer in &self.buffers {
            let _ = self.runtime.context().release_buffer(buffer);
        }
        let record = joined?;
        self.runtime.context().sync_host_to(record.end);
        let spans = self.spans.unpack(data).into_iter();
        let results = spans.map(|span| (self.finish)(span, self.host_op.as_deref()));
        Ok((results.collect::<Result<_>>()?, record))
    }
}

/// A lazily built pipeline terminated by a reduction; [`scalar`](Self::scalar)
/// executes it.
#[must_use = "a lazy plan does nothing until a terminal such as `scalar()` runs it"]
pub struct PlanScalar<T: DeviceScalar> {
    graph: PlanGraph,
    tip: usize,
    _elem: PhantomData<fn() -> T>,
}

impl<T: DeviceScalar> Clone for PlanScalar<T> {
    fn clone(&self) -> Self {
        PlanScalar {
            graph: self.graph.clone(),
            tip: self.tip,
            _elem: PhantomData,
        }
    }
}

impl<T: DeviceScalar> PlanScalar<T> {
    /// Override the fusion policy (default: [`FusionPolicy::Auto`]).
    pub fn policy(mut self, policy: FusionPolicy) -> Self {
        self.graph.policy = policy;
        self
    }

    /// Execute the plan and return the reduced scalar.
    pub fn scalar(&self) -> Result<T> {
        self.graph.execute(self.tip, &|out| match out {
            GroupOutput::Scalar(value) => T::from_value(value),
            GroupOutput::Buffers(_) => unreachable!("a PlanScalar tip lowers to a scalar"),
        })
    }

    /// Execute the plan ([`scalar`](Self::scalar) alias).
    pub fn exec(&self) -> Result<T> {
        self.scalar()
    }

    /// Render the DAG and the fusion pass's per-boundary verdicts without
    /// executing anything.
    pub fn explain(&self) -> Result<String> {
        self.graph.explain(self.tip)
    }

    /// The runtime the plan executes against.
    pub fn runtime(&self) -> Arc<SkelCl> {
        self.graph.runtime.clone()
    }

    /// Element count of the plan's primary input.
    pub fn input_len(&self) -> usize {
        self.graph.sources[0].elem_count()
    }

    /// Estimated device bytes the plan needs at once (every input source
    /// plus a partial vector). Used by admission control to charge tenant
    /// quotas before execution.
    pub fn footprint_bytes(&self) -> usize {
        crate::reduce_partials(self.input_len()) * std::mem::size_of::<T>()
            + self.graph.source_bytes()
    }

    /// Re-establish a trustworthy device image of every input source before
    /// replaying the plan after an injected fault (see
    /// [`PlanVec::refresh_for_replay`]).
    pub fn refresh_for_replay(&self) -> Result<()> {
        self.graph.refresh_sources()
    }

    /// The plan's *coalescing signature*, if it has one: `Ok(Some(_))` when
    /// the reduce closes an elementwise (map/zip) chain — or the bare source
    /// — so that the plan can share a launch with plans of the same
    /// signature via [`PlanScalar::pack_jobs`]; `Ok(None)` when a scan
    /// precedes the reduce. Beyond what a vector plan's signature covers —
    /// the lowered shape (chain *and* reduce, one memo entry) and the scalar
    /// argument bits — it includes the input length: jobs of different
    /// lengths never share a launch. See [`CoalesceSignature`].
    pub fn coalesce_signature(&self) -> Result<Option<CoalesceSignature>> {
        self.graph.coalesce_signature(self.tip)
    }

    /// Pack many same-signature reductions into **one** kernel launch on
    /// `device`, as [`PlanVec::pack_jobs`] does for elementwise jobs: inputs
    /// laid back to back in one buffer per kernel argument, one non-blocking
    /// write per buffer, one launch of the packed reduce kernel
    /// ([`crate::kernelgen::packed_reduce_kernel`]), one non-blocking read.
    ///
    /// A job of `L` elements is cut into the `P =`
    /// [`reduce_partials`](crate::reduce_partials)`(L)`-way chunks a
    /// one-device [`scalar`](Self::scalar) of it would fold, work-item `g`
    /// folding chunk `g % P` of job `g / P`; [`PackedLaunch::wait`] finishes
    /// each job's `P` partials on the host with the operator's evaluator.
    /// So every job's result is, bit for bit, what `scalar()` returns on a
    /// one-device runtime — whatever the batch size, and whichever device of
    /// however many the launch runs on.
    pub fn pack_jobs(jobs: &[&PlanScalar<T>], device: usize) -> Result<PackedLaunch<T, T>> {
        let jobs: Vec<_> = jobs.iter().map(|job| (&job.graph, job.tip)).collect();
        pack_graphs(&jobs, device, |mut partials, host_op| match partials[..] {
            [only] => Ok(only),
            _ => host_op
                .expect("a packed reduce carries its operator's host evaluator")
                .fold(&mut partials),
        })
    }
}

/// One stage of a matrix plan. Map stages carry their data in the node
/// table; stencil stages keep a borrow of the eager skeleton they lower to.
enum MatStage<'a> {
    Map,
    Overlap(&'a MapOverlap<f32, f32>, Args),
}

/// A lazily built matrix pipeline over `f32` elements, created by
/// [`Matrix::lazy`]. Adjacent map stages fuse into one kernel — the memo
/// entry a vector plan of the same stages uses, launched element-wise over
/// the matrix's row blocks; stencil stages are barriers lowered through the
/// eager [`MapOverlap`] with its halo-exchange distribution.
#[must_use = "a lazy plan does nothing until a terminal such as `exec()` runs it"]
pub struct MatPlan<'a> {
    runtime: Arc<SkelCl>,
    matrix: Matrix<f32>,
    nodes: Vec<PlanNode>,
    stages: Vec<MatStage<'a>>,
    policy: FusionPolicy,
    err: Option<SkelError>,
}

impl<'a> MatPlan<'a> {
    pub(crate) fn new(matrix: &Matrix<f32>) -> MatPlan<'a> {
        MatPlan {
            runtime: matrix.runtime(),
            matrix: matrix.clone(),
            nodes: vec![PlanNode::Source {
                source: 0,
                ty: ScalarType::Float,
            }],
            stages: Vec::new(),
            policy: FusionPolicy::default(),
            err: None,
        }
    }

    fn admit(&mut self, build: impl FnOnce(&MatPlan<'a>) -> Result<(PlanNode, MatStage<'a>)>) {
        if self.err.is_some() {
            return;
        }
        match build(self) {
            Ok((node, stage)) => {
                self.nodes.push(node);
                self.stages.push(stage);
            }
            Err(e) => self.err = Some(e),
        }
    }

    /// Override the fusion policy (default: [`FusionPolicy::Auto`]).
    pub fn policy(mut self, policy: FusionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Append an elementwise map stage.
    pub fn map(self, skeleton: &Map<f32, f32>) -> Self {
        self.map_with(skeleton, Args::none())
    }

    /// Append an elementwise map stage with additional scalar arguments.
    pub fn map_with(mut self, skeleton: &Map<f32, f32>, args: Args) -> Self {
        let input = self.nodes.len() - 1;
        self.admit(|_| {
            let udf = skeleton.plan_udf()?;
            if udf.main_params[0] != ScalarType::Float || udf.return_type != ScalarType::Float {
                return Err(SkelError::Plan(
                    "matrix pipeline stages must map float to float".into(),
                ));
            }
            check_stage_args(&udf, &args)?;
            Ok((
                PlanNode::Map {
                    input,
                    udf,
                    args: args.clone(),
                },
                MatStage::Map,
            ))
        });
        self
    }

    /// Append a stencil stage. Stencils never fuse with their neighbours
    /// (they read a halo, not one element), so this is a pipeline barrier.
    pub fn map_overlap(self, skeleton: &'a MapOverlap<f32, f32>) -> Self {
        self.map_overlap_with(skeleton, Args::none())
    }

    /// Append a stencil stage with additional arguments.
    pub fn map_overlap_with(mut self, skeleton: &'a MapOverlap<f32, f32>, args: Args) -> Self {
        let input = self.nodes.len() - 1;
        self.admit(|_| {
            Ok((
                PlanNode::MapOverlap {
                    input,
                    halo: skeleton.halo(),
                },
                MatStage::Overlap(skeleton, args.clone()),
            ))
        });
        self
    }

    fn device_items(&self) -> Vec<(usize, usize)> {
        Container::part_sizes(&self.matrix)
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(d, &n)| (d, n))
            .collect()
    }

    fn groups(&self) -> Result<Vec<Group>> {
        let spine: Vec<usize> = (0..self.nodes.len()).collect();
        let model = PerfModel::analytical(&self.runtime);
        plan_groups(
            &self.nodes,
            &spine,
            self.policy,
            &model,
            &self.device_items(),
        )
    }

    /// Execute the plan and return the result matrix.
    pub fn exec(&self) -> Result<Matrix<f32>> {
        if let Some(err) = &self.err {
            return Err(err.clone());
        }
        if self.nodes.len() < 2 {
            return Err(SkelError::Plan(
                "a lazy plan needs at least one stage before a terminal; \
                 call map or map_overlap first"
                    .into(),
            ));
        }
        if self.matrix.is_empty() {
            return Err(SkelError::EmptyInput);
        }
        let groups = self.groups()?;
        let mut current = self.matrix.clone();
        for group in &groups {
            match group.kind {
                GroupKind::Elementwise => {
                    let shape = lower_nodes(&self.runtime, &self.nodes, &group.nodes)?;
                    let mut cfg = LaunchConfig::default();
                    for &i in &group.nodes {
                        if let PlanNode::Map { args, .. } = &self.nodes[i] {
                            for item in args.items() {
                                cfg.args.push_item(item.clone());
                            }
                        }
                    }
                    let spec = CallSpec::eager(None);
                    let next: Matrix<f32> =
                        run_call(&self.runtime, &[&current], &cfg, &spec, &mut |call| {
                            let kernel = &shape.kernels(&call.runtime)?.kernel;
                            let out_buffers =
                                call.launch_elementwise::<f32, Matrix<f32>>(kernel, &[], None)?;
                            PreparedCall::wrap_output(&current, out_buffers, None)
                        })?;
                    let merged = group.nodes.len() - 1;
                    if merged > 0 {
                        let items = self.device_items();
                        let active = items.len();
                        let stored: usize = items.iter().map(|&(_, n)| n).sum();
                        self.runtime.charge_fusion(
                            merged,
                            merged * active,
                            merged * active,
                            merged * stored * ScalarType::Float.size_bytes(),
                        );
                    }
                    current = next;
                }
                GroupKind::Overlap => {
                    let MatStage::Overlap(skeleton, args) = &self.stages[group.nodes[0] - 1] else {
                        unreachable!("overlap groups hold stencil stages")
                    };
                    let cfg = LaunchConfig {
                        args: args.clone(),
                        ..Default::default()
                    };
                    current = Skeleton::execute(*skeleton, &current, &cfg)?;
                }
                GroupKind::Reduce | GroupKind::Scan => {
                    unreachable!("matrix plans have no reduce/scan stage")
                }
            }
        }
        Ok(current)
    }

    /// Render the DAG and the fusion pass's per-boundary verdicts without
    /// executing anything.
    pub fn explain(&self) -> Result<String> {
        if let Some(err) = &self.err {
            return Err(err.clone());
        }
        let shape = format!("{}x{}", self.matrix.rows(), self.matrix.cols());
        let groups = if self.nodes.len() < 2 {
            Err("the plan has no stage")
        } else if self.matrix.is_empty() {
            Err("empty input")
        } else {
            Ok(self.groups()?)
        };
        explain_plan(
            &self.runtime,
            &self.nodes,
            self.policy,
            &format!("1 matrix ({shape})"),
            &|_| format!("{shape}, {:?}", self.matrix.distribution()),
            groups,
        )
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
    /// instances; returns the graph and its one forced group.
    fn build(
        rt: &Arc<SkelCl>,
        stages: &[(usize, f32, f32)],
        terminal: usize,
    ) -> (PlanGraph, Vec<usize>) {
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
        let group = graph.spine(tip)[1..].to_vec();
        (graph, group)
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
            let (graph, group) = build(&rt, &stages, terminal);
            let fresh = lower_group(&stage_shapes(&graph.nodes, &group), 0).unwrap();
            let fresh = bind_group(&graph.nodes, &group, Arc::new(fresh));
            let memoised = graph.lowered(&group).unwrap();
            prop_assert_eq!(&memoised.shape.rendered.source, &fresh.shape.rendered.source);
            prop_assert_eq!(
                &memoised.shape.rendered.collisions,
                &fresh.shape.rendered.collisions
            );
            prop_assert_eq!(&memoised.extra_args, &fresh.extra_args);
            prop_assert_eq!(&memoised.side_sources, &fresh.side_sources);
            prop_assert_eq!(rt.exec_trace().plan_lowerings, 1);

            let shifted: Vec<_> = stages.iter().map(|&(w, a, b)| (w, a + 1.0, b - 1.0)).collect();
            let (graph2, group2) = build(&rt, &shifted, terminal);
            let again = graph2.lowered(&group2).unwrap();
            prop_assert!(Arc::ptr_eq(&again.shape, &memoised.shape));
            let fresh2 = bind_group(&graph2.nodes, &group2, again.shape.clone());
            prop_assert_eq!(&again.extra_args, &fresh2.extra_args);
            let trace = rt.exec_trace();
            prop_assert_eq!((trace.plan_lowerings, trace.plan_lowering_hits), (1, 1));
        }
    }

    /// The memo keys on content, not on which hash bucket a shape lands in:
    /// a chain and its prefix, or the same stages under another group kind
    /// or chain input type, are different entries.
    #[test]
    fn memo_distinguishes_kind_length_and_element_type() {
        let rt = crate::runtime::init_gpus(1);
        let (g1, grp1) = build(&rt, &[(0, 0.0, 0.0)], 0);
        let (g2, grp2) = build(&rt, &[(0, 0.0, 0.0), (0, 0.0, 0.0)], 0);
        let (g3, grp3) = build(&rt, &[(0, 0.0, 0.0)], 1);
        let a = g1.lowered(&grp1).unwrap();
        let b = g2.lowered(&grp2).unwrap();
        let c = g3.lowered(&grp3).unwrap();
        assert!(!Arc::ptr_eq(&a.shape, &b.shape));
        assert!(!Arc::ptr_eq(&a.shape, &c.shape));
        assert_eq!(
            [a.shape.id, b.shape.id, c.shape.id],
            [0, 1, 2],
            "ids number the lowerings in order"
        );
        let ints = Vector::from_vec(&rt, vec![1i32, 2]);
        let twice = Map::<i32, i32>::from_source("int func(int x) { return x * 2; }");
        let p = ints.lazy().map(&twice);
        let d = p.graph.lowered(&[p.tip]).unwrap();
        assert_eq!(d.shape.rendered.inputs, [ScalarType::Int]);
        assert_eq!(rt.exec_trace().plan_lowerings, 4);
    }
}
