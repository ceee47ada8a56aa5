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
//! the same evaluation order. The reduce lowering *is* the eager skeleton's
//! — one kernel template, one launch → gather → host-fold path
//! ([`crate::skeletons::Reduce`]) — and the scan lowering mirrors the eager
//! scan's device/host split operation for operation.
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
use std::sync::Arc;

use oclsim::{Buffer, KernelArg, Pod, Value};
use skelcl_kernel::pack::JobSpans;
use skelcl_kernel::types::ScalarType;

use crate::args::Args;
use crate::container::Container;
use crate::distribution::{Distribution, Partition};
use crate::error::{Result, SkelError};
use crate::fusion::{
    boundary_decision, compose_unary_source, BoundaryDecision, FExpr, FusedSpec, FusionPolicy,
    GroupCost, Hygiene, StageCost, FUSED_MAP_KERNEL, FUSED_REDUCE_KERNEL, FUSED_SCAN_KERNEL,
    FUSED_SCAN_OFFSET_KERNEL,
};
use crate::kernelgen::UdfInfo;
use crate::matrix::Matrix;
use crate::runtime::SkelCl;
use crate::scheduler::PerfModel;
use crate::skeletons::{
    claim_reads, launch_and_gather, wait_events, DeviceScalar, HostOperator, LaunchConfig, Map,
    MapOverlap, Reduce, ReducePart, Scan, Skeleton, Zip,
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

/// A type-erased view of an input container: everything the execution engine
/// needs from a [`Vector<T>`] without knowing `T`.
trait ErasedSource: Send + Sync {
    fn src_len(&self) -> usize;
    fn src_distribution(&self) -> Distribution;
    fn src_set_distribution(&self, distribution: Distribution) -> Result<()>;
    fn src_ensure_disjoint(&self) -> Result<()>;
    fn src_prepare(&self) -> Result<(Partition, Vec<Option<Buffer>>)>;
    /// Append the source's elements to `out` as raw host bytes (used by job
    /// packing, which lays many jobs' inputs back to back in one device
    /// buffer), reading the host copy in place.
    fn src_append_host_bytes(&self, out: &mut Vec<u8>) -> Result<()>;
    /// Re-establish a trustworthy device image before a fault replay (see
    /// [`crate::Container::refresh_for_replay`]).
    fn src_refresh_for_replay(&self) -> Result<()>;
}

impl<T: Pod> ErasedSource for Vector<T> {
    fn src_len(&self) -> usize {
        self.len()
    }

    fn src_distribution(&self) -> Distribution {
        self.distribution()
    }

    fn src_set_distribution(&self, distribution: Distribution) -> Result<()> {
        self.set_distribution(distribution)
    }

    fn src_ensure_disjoint(&self) -> Result<()> {
        Container::ensure_disjoint(self)
    }

    fn src_prepare(&self) -> Result<(Partition, Vec<Option<Buffer>>)> {
        self.prepare_on_devices()
    }

    fn src_append_host_bytes(&self, out: &mut Vec<u8>) -> Result<()> {
        self.with_host(|host| out.extend_from_slice(oclsim::pod::as_bytes(host)))
    }

    fn src_refresh_for_replay(&self) -> Result<()> {
        Container::refresh_for_replay(self)
    }
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

/// Where a fused kernel's input buffer slot comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainInput {
    /// The running chain (the previous group's output, or source 0).
    Chain,
    /// Source table slot `usize` (a zip's second vector).
    Source(usize),
}

/// What a stage contributes to a group's *shape*, next to its UDF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StageKind {
    Map,
    /// A zip with the element type of its second input.
    Zip(ScalarType),
    Reduce,
    Scan,
}

/// The shape contribution of every stage of a group, in stage order: the
/// stage kind and its analysed UDF. This is all `lower_group` reads — the
/// lowering memo hashes and compares exactly this.
fn stage_shapes<'a>(
    nodes: &'a [PlanNode],
    group: &'a [usize],
) -> impl Iterator<Item = (StageKind, &'a Arc<UdfInfo>)> + 'a {
    group.iter().map(move |&idx| match &nodes[idx] {
        PlanNode::Map { udf, .. } => (StageKind::Map, udf),
        PlanNode::Zip { other, udf, .. } => (StageKind::Zip(node_out_ty(nodes, *other)), udf),
        PlanNode::Reduce { udf, .. } => (StageKind::Reduce, udf),
        PlanNode::Scan { udf, .. } => (StageKind::Scan, udf),
        PlanNode::Source { .. } | PlanNode::MapOverlap { .. } => {
            unreachable!("sources and stencils never join a fused group")
        }
    })
}

/// Element type of the chain a group reads (its first stage's input).
fn chain_in_ty(nodes: &[PlanNode], group: &[usize]) -> ScalarType {
    node_out_ty(
        nodes,
        node_input(&nodes[group[0]]).expect("stages have an input"),
    )
}

/// A fusion group lowered to its generated kernel: everything kernel
/// generation derives from the group's *shape* — the stages' kinds, UDF
/// texts and element types — and nothing from a plan instance (argument
/// values, input containers). Computed once per shape per runtime by the
/// [`LoweringMemo`] and shared by every plan of that shape.
pub(crate) struct LoweredShape {
    /// Insertion number in the runtime's memo.
    id: usize,
    kind: GroupKind,
    /// The shape this lowering was computed from (`inputs[0]` is the chain
    /// input type), kept to verify a memo hit by content.
    stages: Vec<(StageKind, Arc<UdfInfo>)>,
    /// The rendered program: the fused map kernel, the fused reduce kernel,
    /// or the fused scan + offset kernel pair.
    source: String,
    /// Element type per fused-kernel input slot (slot 0 is the chain).
    inputs: Vec<ScalarType>,
    out_ty: ScalarType,
    collisions: Vec<String>,
}

impl LoweredShape {
    fn matches(&self, nodes: &[PlanNode], group: &[usize], kind: GroupKind) -> bool {
        self.kind == kind
            && self.inputs[0] == chain_in_ty(nodes, group)
            && self.stages.len() == group.len()
            && self.stages.iter().zip(stage_shapes(nodes, group)).all(
                |((kind, udf), (other_kind, other))| {
                    *kind == other_kind
                        && (Arc::ptr_eq(udf, other)
                            || (udf.source_hash == other.source_hash && udf.source == other.source))
                },
            )
    }
}

/// Lower one fusion group: hygienic renaming of every stage's UDF, the
/// inlined elementwise expression, and the rendered kernel source. A pure
/// function of the group's shape (`id` numbers the result); the
/// [`LoweringMemo`] is its only caller.
fn lower_group(
    nodes: &[PlanNode],
    group: &[usize],
    kind: GroupKind,
    id: usize,
) -> Result<LoweredShape> {
    let chain_in = chain_in_ty(nodes, group);
    let mut hygiene = Hygiene::new();
    let mut fused_stages = Vec::new();
    let mut inputs = vec![chain_in];
    let mut expr = FExpr::In(0);
    let mut out_ty = chain_in;
    let mut collisions: Vec<String> = Vec::new();
    let mut op = None;
    let mut stages = Vec::with_capacity(group.len());
    for (k, (stage_kind, udf)) in stage_shapes(nodes, group).enumerate() {
        let stage = hygiene.admit(k, udf)?;
        collisions.extend(stage.collisions.iter().cloned());
        match stage_kind {
            StageKind::Map => {
                expr = FExpr::Call(fused_stages.len(), vec![expr]);
                fused_stages.push(stage);
            }
            StageKind::Zip(side_ty) => {
                let slot = inputs.len();
                inputs.push(side_ty);
                expr = FExpr::Call(fused_stages.len(), vec![expr, FExpr::In(slot)]);
                fused_stages.push(stage);
            }
            StageKind::Reduce | StageKind::Scan => op = Some(stage),
        }
        out_ty = udf.return_type;
        stages.push((stage_kind, udf.clone()));
    }
    let spec = FusedSpec {
        stages: fused_stages,
        inputs,
        out_ty,
        expr,
    };
    let source = match (kind, &op) {
        (GroupKind::Elementwise, _) => spec.map_kernel(),
        (GroupKind::Reduce, Some(op)) => spec.reduce_kernel(op),
        (GroupKind::Scan, Some(op)) => spec.scan_kernels(op),
        _ => unreachable!("fold groups end in their operator; stencils are never lowered here"),
    };
    Ok(LoweredShape {
        id,
        kind,
        stages,
        source,
        inputs: spec.inputs,
        out_ty,
        collisions,
    })
}

/// The runtime's lowering memo: one [`LoweredShape`] per distinct group
/// shape, keyed by content — per stage the kind, the UDF source text and the
/// side-input type, plus the chain input type and the group kind — never by
/// pointer, so two skeletons built from the same source share an entry. It
/// lives and grows exactly like the program cache (one entry per distinct
/// fused kernel, for the life of the runtime).
#[derive(Default)]
pub(crate) struct LoweringMemo {
    /// Buckets by shape hash; a hit is confirmed by comparing content.
    entries: parking_lot::Mutex<HashMap<u64, Vec<Arc<LoweredShape>>>>,
    lowerings: AtomicUsize,
    hits: AtomicUsize,
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

    /// The lowering of `group`, computed on first sight of its shape.
    fn lowered(
        &self,
        nodes: &[PlanNode],
        group: &[usize],
        kind: GroupKind,
    ) -> Result<Arc<LoweredShape>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        (kind, chain_in_ty(nodes, group)).hash(&mut hasher);
        for (stage_kind, udf) in stage_shapes(nodes, group) {
            (stage_kind, udf.source_hash).hash(&mut hasher);
        }
        let mut entries = self.entries.lock();
        let bucket = entries.entry(hasher.finish()).or_default();
        if let Some(shape) = bucket.iter().find(|s| s.matches(nodes, group, kind)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(shape.clone());
        }
        // Lowered under the lock, so racing plans of one shape lower once.
        let id = self.lowerings.load(Ordering::Relaxed);
        let shape = Arc::new(lower_group(nodes, group, kind, id)?);
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
    /// Buffer provenance per fused-kernel input slot (slot 0 is the chain).
    inputs: Vec<ChainInput>,
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
    let mut inputs = vec![ChainInput::Chain];
    let mut host_op = None;
    for &idx in group {
        match &nodes[idx] {
            PlanNode::Zip { other, .. } => {
                let PlanNode::Source { source, .. } = &nodes[*other] else {
                    unreachable!("a zip's second input is always a source node")
                };
                inputs.push(ChainInput::Source(*source));
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
        inputs,
        extra_args: scalar_args(nodes, group).map(KernelArg::Scalar).collect(),
    }
}

/// Allocate per-device output buffers for a dynamically-typed element.
fn alloc_erased(
    runtime: &Arc<SkelCl>,
    partition: &Partition,
    ty: ScalarType,
) -> Result<Vec<Option<Buffer>>> {
    with_scalar!(ty, T, {
        crate::skeletons::alloc_output::<T>(runtime, partition)
    })
}

/// The running intermediate of plan execution: either still an input source
/// or freshly produced device buffers.
enum ExecChain {
    Source(usize),
    Interm(Vec<Option<Buffer>>),
}

/// What a plan execution produced.
enum ExecOutcome {
    Vector {
        len: usize,
        distribution: Distribution,
        buffers: Vec<Option<Buffer>>,
    },
    Scalar(Value),
}

/// The shared lazy DAG behind [`PlanVec`] and [`PlanScalar`]. Build errors
/// poison the graph (first error wins); terminals surface it.
#[derive(Clone)]
pub(crate) struct PlanGraph {
    runtime: Arc<SkelCl>,
    nodes: Vec<PlanNode>,
    sources: Vec<Arc<dyn ErasedSource>>,
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
    /// [`crate::Container::refresh_for_replay`]): gather each source's
    /// authoritative copy to the host and invalidate its device copies so
    /// the replay re-uploads instead of trusting a buffer a transiently
    /// failed transfer never reached.
    fn refresh_sources(&self) -> Result<()> {
        for source in &self.sources {
            source.src_refresh_for_replay()?;
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

    fn buffer_of(buffers: &[Option<Buffer>], device: usize, what: &str) -> Result<Buffer> {
        buffers[device].clone().ok_or_else(|| {
            SkelError::Distribution(format!("{what} has no buffer on device {device}"))
        })
    }

    fn slot_buffer(
        &self,
        input: &ChainInput,
        chain: &ExecChain,
        prepared: &[(Partition, Vec<Option<Buffer>>)],
        device: usize,
    ) -> Result<Buffer> {
        match input {
            ChainInput::Chain => match chain {
                ExecChain::Source(s) => Self::buffer_of(&prepared[*s].1, device, "pipeline input"),
                ExecChain::Interm(buffers) => {
                    Self::buffer_of(buffers, device, "pipeline intermediate")
                }
            },
            ChainInput::Source(s) => Self::buffer_of(&prepared[*s].1, device, "pipeline input"),
        }
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

    /// Run one fused elementwise group: a single `out[i] = expr(i)` kernel
    /// launch per active device, mirroring the eager map/zip launch layout
    /// `[inputs..., out, n, extras...]`.
    fn run_elementwise(
        &self,
        lowered: &LoweredGroup,
        partition: &Partition,
        active: &[usize],
        prepared: &[(Partition, Vec<Option<Buffer>>)],
        chain: &ExecChain,
    ) -> Result<Vec<Option<Buffer>>> {
        let program = self
            .runtime
            .context()
            .build_program(&lowered.shape.source)?;
        let kernel = program.kernel(FUSED_MAP_KERNEL)?;
        let out = alloc_erased(&self.runtime, partition, lowered.shape.out_ty)?;
        let mut events = Vec::with_capacity(active.len());
        for &device in active {
            let n = partition.size(device);
            let mut kargs = self.input_args(lowered, chain, prepared, device)?;
            kargs.push(KernelArg::Buffer(
                out[device].clone().expect("output allocated above"),
            ));
            kargs.push(KernelArg::Scalar(Value::Int(n as i32)));
            kargs.extend(lowered.extra_args.iter().cloned());
            events.push((
                device,
                self.runtime
                    .queue(device)
                    .enqueue_kernel(&kernel, n, &kargs)?,
            ));
        }
        wait_events(&self.runtime, events)?;
        Ok(out)
    }

    /// The fused kernel's leading input-buffer arguments on `device`.
    fn input_args(
        &self,
        lowered: &LoweredGroup,
        chain: &ExecChain,
        prepared: &[(Partition, Vec<Option<Buffer>>)],
        device: usize,
    ) -> Result<Vec<KernelArg>> {
        lowered
            .inputs
            .iter()
            .map(|input| {
                self.slot_buffer(input, chain, prepared, device)
                    .map(KernelArg::Buffer)
            })
            .collect()
    }

    /// Run a fused reduce group through the eager reduce's own path: the
    /// shared template with the chain inlined, one launch per device leaving
    /// a partial vector, partials gathered in device order, host fold.
    fn run_reduce(
        &self,
        lowered: &LoweredGroup,
        partition: &Partition,
        active: &[usize],
        prepared: &[(Partition, Vec<Option<Buffer>>)],
        chain: &ExecChain,
    ) -> Result<Value> {
        let host_op = lowered
            .host_op
            .as_ref()
            .expect("reduce group has a host operator");
        let program = self
            .runtime
            .context()
            .build_program(&lowered.shape.source)?;
        let kernel = program.kernel(FUSED_REDUCE_KERNEL)?;
        let mut parts = Vec::with_capacity(active.len());
        for &device in active {
            parts.push(ReducePart {
                device,
                n: partition.size(device),
                inputs: self.input_args(lowered, chain, prepared, device)?,
            });
        }
        with_scalar!(lowered.shape.out_ty, T, {
            let mut partials = launch_and_gather::<T>(
                &self.runtime,
                &kernel,
                parts,
                &lowered.extra_args,
                None,
                None,
            )?;
            Ok(host_op.fold(&mut partials)?.to_value())
        })
    }

    /// Run a fused scan group: per-device local scans over the inlined
    /// chain, totals download, host-combined offsets, offset kernels —
    /// step for step the eager scan's Figure 2 flow.
    fn run_scan(
        &self,
        lowered: &LoweredGroup,
        partition: &Partition,
        active: &[usize],
        prepared: &[(Partition, Vec<Option<Buffer>>)],
        chain: &ExecChain,
    ) -> Result<Vec<Option<Buffer>>> {
        let host_op = lowered
            .host_op
            .as_ref()
            .expect("scan group has a host operator");
        let program = self
            .runtime
            .context()
            .build_program(&lowered.shape.source)?;
        let scan_kernel = program.kernel(FUSED_SCAN_KERNEL)?;
        let offset_kernel = program.kernel(FUSED_SCAN_OFFSET_KERNEL)?;
        with_scalar!(lowered.shape.out_ty, T, {
            let out = crate::skeletons::alloc_output::<T>(&self.runtime, partition)?;
            // Step 1: local scans.
            for &device in active {
                let n = partition.size(device);
                let mut kargs = self.input_args(lowered, chain, prepared, device)?;
                kargs.push(KernelArg::Buffer(
                    out[device].clone().expect("output allocated above"),
                ));
                kargs.push(KernelArg::Scalar(Value::Int(n as i32)));
                kargs.extend(lowered.extra_args.iter().cloned());
                self.runtime
                    .queue(device)
                    .enqueue_kernel(&scan_kernel, 1, &kargs)?;
            }
            // Step 2: download only the per-part totals, every device's read
            // in flight before the first is claimed.
            let mut reads = Vec::with_capacity(active.len());
            for &device in active {
                let out_buffer = out[device].as_ref().expect("output allocated above");
                let read = self
                    .runtime
                    .queue(device)
                    .enqueue_read_buffer_region_nb::<T>(
                        out_buffer,
                        partition.size(device) - 1,
                        1,
                    )?;
                reads.push((device, read, 1));
            }
            let totals: Vec<T> = claim_reads::<T>(&self.runtime, reads)?.concat();
            // Steps 3 + 4: combine predecessor totals on the host, apply
            // them to later parts via the offset kernels.
            let mut offset_events = Vec::new();
            let mut running: Option<T> = None;
            for (i, &device) in active.iter().enumerate() {
                let offset = running;
                running = Some(match running {
                    None => totals[i],
                    Some(acc) => host_op.fold(&mut [acc, totals[i]])?,
                });
                if i == 0 {
                    continue;
                }
                let offset = offset.expect("set above for i > 0");
                let n = partition.size(device);
                let out_buffer = out[device].clone().expect("output allocated above");
                offset_events.push((
                    device,
                    self.runtime.queue(device).enqueue_kernel(
                        &offset_kernel,
                        n,
                        &[
                            KernelArg::Buffer(out_buffer),
                            KernelArg::Scalar(Value::Int(n as i32)),
                            KernelArg::Scalar(offset.to_value()),
                        ],
                    )?,
                ));
            }
            wait_events(&self.runtime, offset_events)?;
            Ok(out)
        })
    }

    /// Execute the plan at `tip`: unify source distributions, run the fusion
    /// pass, lower each group to launches on the existing queue/event
    /// machinery, and account the fusion telemetry.
    fn execute(&self, tip: usize) -> Result<ExecOutcome> {
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
        let len = self.sources[0].src_len();
        if len == 0 {
            return Err(SkelError::EmptyInput);
        }
        // Distribution unification, generalised from the eager zip: if any
        // source disagrees, everything is coerced to block.
        let first_dist = self.sources[0].src_distribution();
        if self
            .sources
            .iter()
            .any(|s| s.src_distribution() != first_dist)
        {
            for source in &self.sources {
                source.src_set_distribution(Distribution::Block)?;
            }
        }
        // A prefix/fold over a copy-distributed input would double-count;
        // the eager reduce/scan coerce to block, so the plan does too.
        let has_fold = spine.iter().any(|&i| {
            matches!(
                self.nodes[i],
                PlanNode::Reduce { .. } | PlanNode::Scan { .. }
            )
        });
        if has_fold {
            for source in &self.sources {
                source.src_ensure_disjoint()?;
            }
        }
        let mut prepared = Vec::with_capacity(self.sources.len());
        for source in &self.sources {
            prepared.push(source.src_prepare()?);
        }
        let partition = prepared[0].0.clone();
        let active = partition.active_devices();
        let device_items: Vec<(usize, usize)> =
            active.iter().map(|&d| (d, partition.size(d))).collect();
        let model = PerfModel::analytical(&self.runtime);
        let groups = plan_groups(&self.nodes, &spine, self.policy, &model, &device_items)?;
        let stored_elems: usize = partition.sizes().iter().sum();

        let mut chain = ExecChain::Source(0);
        let mut scalar = None;
        for group in &groups {
            let lowered = self.lowered(&group.nodes, group.kind)?;
            self.runtime.charge_skeleton_call();
            let merged = group.nodes.len() - 1;
            if merged > 0 {
                // Every interior node of the group would have materialised
                // an intermediate container (one buffer per active device)
                // and cost one more launch per device.
                let bytes: usize = group.nodes[..group.nodes.len() - 1]
                    .iter()
                    .map(|&idx| stored_elems * node_out_ty(&self.nodes, idx).size_bytes())
                    .sum();
                self.runtime.charge_fusion(
                    merged,
                    merged * active.len(),
                    merged * active.len(),
                    bytes,
                );
            }
            match group.kind {
                GroupKind::Elementwise => {
                    let out =
                        self.run_elementwise(&lowered, &partition, &active, &prepared, &chain)?;
                    self.release_chain(&chain)?;
                    chain = ExecChain::Interm(out);
                }
                GroupKind::Reduce => {
                    let value =
                        self.run_reduce(&lowered, &partition, &active, &prepared, &chain)?;
                    self.release_chain(&chain)?;
                    scalar = Some(value);
                }
                GroupKind::Scan => {
                    let out = self.run_scan(&lowered, &partition, &active, &prepared, &chain)?;
                    self.release_chain(&chain)?;
                    chain = ExecChain::Interm(out);
                }
                GroupKind::Overlap => {
                    unreachable!("vector plans have no stencil stage")
                }
            }
        }
        match scalar {
            Some(value) => Ok(ExecOutcome::Scalar(value)),
            None => {
                let ExecChain::Interm(buffers) = chain else {
                    unreachable!("the spine has at least one stage")
                };
                Ok(ExecOutcome::Vector {
                    len,
                    distribution: self.sources[0].src_distribution(),
                    buffers,
                })
            }
        }
    }

    /// The lowering of `group` — from the runtime's memo, the only place a
    /// group is ever lowered — bound to this plan's arguments and sources.
    fn lowered(&self, group: &[usize], kind: GroupKind) -> Result<LoweredGroup> {
        let shape = self.runtime.lowerings().lowered(&self.nodes, group, kind)?;
        Ok(bind_group(&self.nodes, group, shape))
    }

    /// Render the DAG and the fusion pass's verdicts without executing (and
    /// without touching the sources' distributions).
    fn explain(&self, tip: usize) -> Result<String> {
        if let Some(err) = &self.err {
            return Err(err.clone());
        }
        let spine = self.spine(tip);
        let mut out = String::new();
        let devices = self.runtime.device_count();
        let _ = writeln!(
            out,
            "Plan: {} node(s) over {} source(s), {} device(s), policy {:?}",
            self.nodes.len(),
            self.sources.len(),
            devices,
            self.policy
        );
        let _ = writeln!(out, "Kernel tier: {}", self.runtime.kernel_tier_summary());
        let trace = self.runtime.exec_trace();
        let _ = writeln!(out, "{}", trace.tier_line());
        let _ = writeln!(out, "{}", trace.lowering_line());
        for (i, node) in self.nodes.iter().enumerate() {
            let line = match node {
                PlanNode::Source { source, ty } => format!(
                    "source[{source}] : {ty} (len {}, {:?})",
                    self.sources[*source].src_len(),
                    self.sources[*source].src_distribution()
                ),
                PlanNode::Map { input, udf, .. } => {
                    format!("map(%{input}) -> {}", udf.return_type)
                }
                PlanNode::Zip {
                    input, other, udf, ..
                } => format!("zip(%{input}, %{other}) -> {}", udf.return_type),
                PlanNode::MapOverlap { input, halo } => {
                    format!("map_overlap(%{input}, halo {halo}) -> float")
                }
                PlanNode::Reduce { input, udf, .. } => {
                    format!("reduce(%{input}) -> {}", udf.return_type)
                }
                PlanNode::Scan { input, udf, .. } => {
                    format!("scan(%{input}) -> {}", udf.return_type)
                }
            };
            let _ = writeln!(out, "  %{i} = {line}");
        }
        if spine.len() < 2 {
            let _ = writeln!(out, "After fusion: nothing to run (the plan has no stage)");
            return Ok(out);
        }
        let len = self.sources[0].src_len();
        if len == 0 {
            let _ = writeln!(out, "After fusion: nothing to run (empty input)");
            return Ok(out);
        }
        // Predict what execute() would do, without mutating the sources.
        let first_dist = self.sources[0].src_distribution();
        let mut dist = if self
            .sources
            .iter()
            .any(|s| s.src_distribution() != first_dist)
        {
            Distribution::Block
        } else {
            first_dist
        };
        let has_fold = spine.iter().any(|&i| {
            matches!(
                self.nodes[i],
                PlanNode::Reduce { .. } | PlanNode::Scan { .. }
            )
        });
        if has_fold && dist == Distribution::Copy {
            dist = Distribution::Block;
        }
        let partition = Partition::compute(len, devices, &dist);
        let device_items: Vec<(usize, usize)> = partition
            .active_devices()
            .iter()
            .map(|&d| (d, partition.size(d)))
            .collect();
        let model = PerfModel::analytical(&self.runtime);
        let groups = plan_groups(&self.nodes, &spine, self.policy, &model, &device_items)?;
        render_groups(&mut out, self, &groups)?;
        Ok(out)
    }
}

/// The after-fusion half of [`PlanGraph::explain`].
fn render_groups(out: &mut String, graph: &PlanGraph, groups: &[Group]) -> Result<()> {
    let _ = writeln!(out, "After fusion: {} launch group(s)", groups.len());
    for (gi, group) in groups.iter().enumerate() {
        let members: Vec<String> = group.nodes.iter().map(|i| format!("%{i}")).collect();
        let kernel = match group.kind {
            GroupKind::Elementwise => FUSED_MAP_KERNEL,
            GroupKind::Reduce => FUSED_REDUCE_KERNEL,
            GroupKind::Scan => FUSED_SCAN_KERNEL,
            GroupKind::Overlap => "SKELCL_MAP_OVERLAP",
        };
        let _ = writeln!(
            out,
            "  group {gi}: {kernel} over {} ({} stage(s) fused)",
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
        if group.kind != GroupKind::Overlap {
            let lowered = graph.lowered(&group.nodes, group.kind)?;
            for collision in &lowered.shape.collisions {
                let _ = writeln!(out, "    rename: {collision}");
            }
        }
    }
    Ok(())
}

fn check_stage_args(udf: &UdfInfo, args: &Args) -> Result<()> {
    if args.vector_count() != 0 {
        return Err(SkelError::UnsupportedArg(
            "lazy pipeline stages accept only scalar additional arguments".into(),
        ));
    }
    if args.len() != udf.extra_params.len() {
        return Err(SkelError::UdfSignature(format!(
            "the user function expects {} additional argument(s), the call provides {}",
            udf.extra_params.len(),
            args.len()
        )));
    }
    Ok(())
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
            let len = g.sources[0].src_len();
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
        match self.graph.execute(self.tip)? {
            ExecOutcome::Vector {
                len,
                distribution,
                buffers,
            } => Ok(Vector::device_resident(
                &self.graph.runtime,
                len,
                distribution,
                buffers,
            )),
            ExecOutcome::Scalar(_) => unreachable!("a PlanVec tip lowers to a vector"),
        }
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
        self.graph.sources[0].src_len()
    }

    /// Estimated device bytes the plan needs at once: every input source
    /// plus the output. Used by admission control to charge tenant quotas
    /// before execution.
    pub fn footprint_bytes(&self) -> usize {
        let mut bytes = self.input_len() * std::mem::size_of::<T>();
        for node in &self.graph.nodes {
            if let PlanNode::Source { source, ty } = node {
                bytes += self.graph.sources[*source].src_len() * ty.size_bytes();
            }
        }
        bytes
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
    /// [`PlanVec::pack_jobs`]. `Ok(None)` means the plan contains a fold or
    /// stencil stage and must run on its own. See [`CoalesceSignature`] for
    /// what equal signatures promise.
    pub fn coalesce_signature(&self) -> Result<Option<CoalesceSignature>> {
        if let Some(err) = &self.graph.err {
            return Err(err.clone());
        }
        let spine = self.graph.spine(self.tip);
        if spine.len() < 2 {
            return Ok(None);
        }
        if !spine[1..].iter().all(|&i| {
            matches!(
                self.graph.nodes[i],
                PlanNode::Map { .. } | PlanNode::Zip { .. }
            )
        }) {
            return Ok(None);
        }
        // The full spine as one forced elementwise group.
        let group = &spine[1..];
        let nodes = &self.graph.nodes;
        let memo = self.graph.runtime.lowerings();
        Ok(Some(CoalesceSignature {
            shape: memo.lowered(nodes, group, GroupKind::Elementwise)?,
            args: scalar_args(nodes, group).map(arg_bits).collect(),
        }))
    }

    /// Pack many same-signature jobs into **one** kernel launch on `device`:
    /// each job's input elements are laid back to back in one buffer per
    /// kernel argument, the fused kernel runs once over the combined element
    /// count, and the returned [`PackedLaunch`] slices each job's span back
    /// out of the packed output. Both enqueues are non-blocking, so many
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
        let first = jobs
            .first()
            .ok_or_else(|| SkelError::Plan("pack_jobs needs at least one job".into()))?;
        let runtime = first.graph.runtime.clone();
        let signature = first.coalesce_signature()?.ok_or_else(|| {
            SkelError::Plan("job is not coalescible (only all-elementwise plans pack)".into())
        })?;
        for job in &jobs[1..] {
            if !Arc::ptr_eq(&job.graph.runtime, &runtime) {
                return Err(SkelError::RuntimeMismatch);
            }
            if job.coalesce_signature()?.as_ref() != Some(&signature) {
                return Err(SkelError::Plan(
                    "jobs with different kernels cannot pack into one launch".into(),
                ));
            }
        }
        // The batch's one lowering: the leader's signature carries it.
        let spine = first.graph.spine(first.tip);
        let lowered = bind_group(&first.graph.nodes, &spine[1..], signature.shape);
        let mut spans = JobSpans::new();
        for job in jobs {
            let len = job.input_len();
            if len == 0 {
                return Err(SkelError::EmptyInput);
            }
            spans.push(len);
        }
        // Same telemetry as `execute()` would account per job: the packed
        // launch fuses the chain's interior stages away on one device.
        let stages = &lowered.shape.stages;
        let merged = stages.len() - 1;
        if merged > 0 {
            let bytes: usize = stages[..merged]
                .iter()
                .map(|(_, udf)| spans.total() * udf.return_type.size_bytes())
                .sum();
            runtime.charge_fusion(merged, merged, merged, bytes);
        }
        let mut buffers: Vec<Buffer> = Vec::new();
        match Self::pack_launch(&runtime, device, &lowered, jobs, &spans, &mut buffers) {
            Ok((kernel_event, read_event)) => Ok(PackedLaunch {
                runtime,
                device,
                spans,
                buffers,
                kernel_event,
                read_event,
                _elem: PhantomData,
            }),
            Err(e) => {
                for buffer in &buffers {
                    let _ = runtime.context().release_buffer(buffer);
                }
                Err(e)
            }
        }
    }

    /// Allocate + fill the packed input buffers and enqueue the fused
    /// kernel and the non-blocking packed-output read. Buffers are recorded
    /// in `buffers` as they are created so the caller can release them on
    /// any error.
    fn pack_launch(
        runtime: &Arc<SkelCl>,
        device: usize,
        lowered: &LoweredGroup,
        jobs: &[&PlanVec<T>],
        spans: &JobSpans,
        buffers: &mut Vec<Buffer>,
    ) -> Result<(oclsim::EventHandle, oclsim::EventHandle)>
    where
        T: DeviceScalar,
    {
        let context = runtime.context();
        let queue = runtime.queue(device);
        let total = spans.total();
        let mut kargs = Vec::with_capacity(lowered.inputs.len() + 2 + lowered.extra_args.len());
        for (slot, input) in lowered.inputs.iter().enumerate() {
            let source_index = match input {
                ChainInput::Chain => 0,
                ChainInput::Source(s) => *s,
            };
            let ty = lowered.shape.inputs[slot];
            let mut bytes: Vec<u8> = Vec::with_capacity(total * ty.size_bytes());
            for job in jobs {
                job.graph.sources[source_index].src_append_host_bytes(&mut bytes)?;
            }
            if bytes.len() != total * ty.size_bytes() {
                return Err(SkelError::Plan(format!(
                    "packed input slot {slot} holds {} bytes, expected {total} `{ty}` elements",
                    bytes.len()
                )));
            }
            let buffer = with_scalar!(ty, S, { context.create_buffer::<S>(device, total)? });
            buffers.push(buffer.clone());
            queue.enqueue_write_bytes(&buffer, 0, bytes)?;
            kargs.push(KernelArg::Buffer(buffer));
        }
        let out = context.create_buffer::<T>(device, total)?;
        buffers.push(out.clone());
        let program = context.build_program(&lowered.shape.source)?;
        let kernel = program.kernel(FUSED_MAP_KERNEL)?;
        kargs.push(KernelArg::Buffer(out.clone()));
        kargs.push(KernelArg::Scalar(Value::Int(total as i32)));
        kargs.extend(lowered.extra_args.iter().cloned());
        runtime.charge_skeleton_call();
        let kernel_event = queue.enqueue_kernel(&kernel, total, &kargs)?;
        let read_event = queue.enqueue_read_buffer_region_nb::<T>(&out, 0, total)?;
        Ok((kernel_event, read_event))
    }
}

/// The identity of the per-element function an all-elementwise plan
/// computes: the plan's lowered *shape* — an entry of the runtime's lowering
/// memo, so plans built from equal UDF text over equal element types share
/// it however many skeleton instances were involved — plus the bit patterns
/// of its scalar additional arguments. Two plans with equal signatures
/// belong to one runtime and run the exact same kernel with the exact same
/// arguments, so [`PlanVec::pack_jobs`] may run them as one launch. Cheap to
/// clone, compare and hash.
#[derive(Clone)]
pub struct CoalesceSignature {
    shape: Arc<LoweredShape>,
    /// The scalar additional arguments as `(type, bits)`, so that `-0.0`
    /// and `0.0`, or two NaN payloads, never coalesce.
    args: Vec<(ScalarType, u64)>,
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

impl PartialEq for CoalesceSignature {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.shape, &other.shape) && self.args == other.args
    }
}

impl Eq for CoalesceSignature {}

impl Hash for CoalesceSignature {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.shape.id.hash(state);
        self.args.hash(state);
    }
}

impl std::fmt::Debug for CoalesceSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shape#{}{:?}", self.shape.id, self.args)
    }
}

/// An in-flight packed launch produced by [`PlanVec::pack_jobs`]: one fused
/// kernel running every packed job plus the non-blocking read of the packed
/// output. [`PackedLaunch::wait`] joins both events, advances the host's
/// virtual clock to the read's completion, releases the packed buffers back
/// to the device pool and splits the output into one `Vec` per job.
#[must_use = "a packed launch delivers results only through `wait()`"]
pub struct PackedLaunch<T: Pod> {
    runtime: Arc<SkelCl>,
    device: usize,
    spans: JobSpans,
    buffers: Vec<Buffer>,
    kernel_event: oclsim::EventHandle,
    read_event: oclsim::EventHandle,
    _elem: PhantomData<fn() -> T>,
}

impl<T: Pod> PackedLaunch<T> {
    /// The device the packed launch runs on.
    pub fn device(&self) -> usize {
        self.device
    }

    /// Number of jobs packed into the launch.
    pub fn jobs(&self) -> usize {
        self.spans.jobs()
    }

    /// Element layout of the packed jobs.
    pub fn spans(&self) -> &JobSpans {
        &self.spans
    }

    /// Join the launch: wait (real time) for the kernel and the packed read
    /// to settle, advance the host's virtual clock to the read's completion
    /// time, release the packed buffers and return each job's output slice
    /// plus the read's profiling event (whose `end` is the virtual
    /// completion time of every packed job).
    ///
    /// On failure the duplicate error latched on the queue is drained (the
    /// same discipline as the internal kernel-event join) so later packed
    /// launches on the queue start clean, and the buffers are still
    /// released.
    pub fn wait(self) -> Result<(Vec<Vec<T>>, oclsim::Event)>
    where
        T: DeviceScalar,
    {
        let queue = self.runtime.queue(self.device);
        let release = |buffers: &[Buffer]| {
            for buffer in buffers {
                let _ = self.runtime.context().release_buffer(buffer);
            }
        };
        if let Err(e) = self.kernel_event.wait() {
            let _ = queue.take_deferred_error();
            release(&self.buffers);
            return Err(e.into());
        }
        let mut data = vec![T::from_value(Value::Int(0)); self.spans.total()];
        let record = match self.read_event.wait_into(&mut data) {
            Ok(record) => record,
            Err(e) => {
                let _ = queue.take_deferred_error();
                release(&self.buffers);
                return Err(e.into());
            }
        };
        // The packed-output read is non-blocking (`wait_into` joins the
        // event directly), so it bypasses the blocking-read discipline that
        // surfaces the queue's deferred error. Inspect the latch explicitly:
        // a transiently failed packed-input *write* completes its own
        // (unwaited) handle with the error and latches it here — returning
        // the data without this check would hand back the zero-filled
        // buffer the upload never reached.
        if let Some(e) = queue.take_deferred_error() {
            release(&self.buffers);
            return Err(e.into());
        }
        self.runtime.context().sync_host_to(record.end);
        release(&self.buffers);
        Ok((self.spans.unpack(data), record))
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
        match self.graph.execute(self.tip)? {
            ExecOutcome::Scalar(value) => Ok(T::from_value(value)),
            ExecOutcome::Vector { .. } => unreachable!("a PlanScalar tip lowers to a scalar"),
        }
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
        self.graph.sources[0].src_len()
    }

    /// Estimated device bytes the plan needs at once (every input source
    /// plus a partial vector). Used by admission control to charge tenant
    /// quotas before execution.
    pub fn footprint_bytes(&self) -> usize {
        let mut bytes = crate::reduce_partials(self.input_len()) * std::mem::size_of::<T>();
        for node in &self.graph.nodes {
            if let PlanNode::Source { source, ty } = node {
                bytes += self.graph.sources[*source].src_len() * ty.size_bytes();
            }
        }
        bytes
    }

    /// Re-establish a trustworthy device image of every input source before
    /// replaying the plan after an injected fault (see
    /// [`PlanVec::refresh_for_replay`]).
    pub fn refresh_for_replay(&self) -> Result<()> {
        self.graph.refresh_sources()
    }
}

/// One stage of a matrix plan. Map stages carry their data in the node
/// table; stencil stages keep a borrow of the eager skeleton they lower to.
enum MatStage<'a> {
    Map,
    Overlap(&'a MapOverlap<f32, f32>, Args),
}

/// A lazily built matrix pipeline over `f32` elements, created by
/// [`Matrix::lazy`]. Adjacent map stages fuse into one composed kernel
/// (through `compose_unary_source`); stencil stages are barriers lowered
/// through the eager [`MapOverlap`] with its halo-exchange distribution.
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
                    let udfs: Vec<Arc<UdfInfo>> = group
                        .nodes
                        .iter()
                        .map(|&i| match &self.nodes[i] {
                            PlanNode::Map { udf, .. } => udf.clone(),
                            _ => unreachable!("matrix elementwise groups hold map stages"),
                        })
                        .collect();
                    let mut merged_args = Args::new();
                    for &i in &group.nodes {
                        if let PlanNode::Map { args, .. } = &self.nodes[i] {
                            for item in args.items() {
                                merged_args.push_item(item.clone());
                            }
                        }
                    }
                    let map = if udfs.len() == 1 {
                        Map::<f32, f32>::from_source(&udfs[0].source)
                    } else {
                        let (src, _) = compose_unary_source(&udfs)?;
                        Map::<f32, f32>::from_source(&src)
                    };
                    let cfg = LaunchConfig {
                        args: merged_args,
                        ..Default::default()
                    };
                    let next = Skeleton::execute(&map, &current, &cfg)?;
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
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Plan: {} node(s) over 1 matrix ({}x{}), {} device(s), policy {:?}",
            self.nodes.len(),
            self.matrix.rows(),
            self.matrix.cols(),
            self.runtime.device_count(),
            self.policy
        );
        let _ = writeln!(out, "Kernel tier: {}", self.runtime.kernel_tier_summary());
        let trace = self.runtime.exec_trace();
        let _ = writeln!(out, "{}", trace.tier_line());
        let _ = writeln!(out, "{}", trace.lowering_line());
        for (i, node) in self.nodes.iter().enumerate() {
            let line = match node {
                PlanNode::Source { .. } => format!(
                    "source[0] : float ({}x{}, {:?})",
                    self.matrix.rows(),
                    self.matrix.cols(),
                    self.matrix.distribution()
                ),
                PlanNode::Map { input, .. } => format!("map(%{input}) -> float"),
                PlanNode::MapOverlap { input, halo } => {
                    format!("map_overlap(%{input}, halo {halo}) -> float")
                }
                _ => unreachable!("matrix plans hold only map and map_overlap stages"),
            };
            let _ = writeln!(out, "  %{i} = {line}");
        }
        if self.nodes.len() < 2 {
            let _ = writeln!(out, "After fusion: nothing to run (the plan has no stage)");
            return Ok(out);
        }
        if self.matrix.is_empty() {
            let _ = writeln!(out, "After fusion: nothing to run (empty input)");
            return Ok(out);
        }
        let groups = self.groups()?;
        let _ = writeln!(out, "After fusion: {} launch group(s)", groups.len());
        for (gi, group) in groups.iter().enumerate() {
            let members: Vec<String> = group.nodes.iter().map(|i| format!("%{i}")).collect();
            let kernel = match group.kind {
                GroupKind::Elementwise => "SKELCL_MAP (composed)",
                GroupKind::Overlap => "SKELCL_MAP_OVERLAP",
                _ => unreachable!(),
            };
            let _ = writeln!(
                out,
                "  group {gi}: {kernel} over {} ({} stage(s) fused)",
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
        }
        Ok(out)
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
    /// instances; returns the graph, its one forced group and the kind.
    fn build(
        rt: &Arc<SkelCl>,
        stages: &[(usize, f32, f32)],
        terminal: usize,
    ) -> (PlanGraph, Vec<usize>, GroupKind) {
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
        let (graph, tip, kind) = match terminal {
            1 => {
                let p = plan.reduce(&Reduce::from_source(ADD));
                (p.graph, p.tip, GroupKind::Reduce)
            }
            2 => {
                let p = plan.scan(&Scan::from_source(ADD));
                (p.graph, p.tip, GroupKind::Scan)
            }
            _ => (plan.graph, plan.tip, GroupKind::Elementwise),
        };
        assert!(graph.err.is_none(), "{:?}", graph.err);
        let group = graph.spine(tip)[1..].to_vec();
        (graph, group, kind)
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
            let (graph, group, kind) = build(&rt, &stages, terminal);
            let fresh = lower_group(&graph.nodes, &group, kind, 0).unwrap();
            let fresh = bind_group(&graph.nodes, &group, Arc::new(fresh));
            let memoised = graph.lowered(&group, kind).unwrap();
            prop_assert_eq!(&memoised.shape.source, &fresh.shape.source);
            prop_assert_eq!(&memoised.shape.collisions, &fresh.shape.collisions);
            prop_assert_eq!(&memoised.extra_args, &fresh.extra_args);
            prop_assert_eq!(&memoised.inputs, &fresh.inputs);
            prop_assert_eq!(rt.exec_trace().plan_lowerings, 1);

            let shifted: Vec<_> = stages.iter().map(|&(w, a, b)| (w, a + 1.0, b - 1.0)).collect();
            let (graph2, group2, _) = build(&rt, &shifted, terminal);
            let again = graph2.lowered(&group2, kind).unwrap();
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
        let (g1, grp1, _) = build(&rt, &[(0, 0.0, 0.0)], 0);
        let (g2, grp2, _) = build(&rt, &[(0, 0.0, 0.0), (0, 0.0, 0.0)], 0);
        let (g3, grp3, k3) = build(&rt, &[(0, 0.0, 0.0)], 1);
        let a = g1.lowered(&grp1, GroupKind::Elementwise).unwrap();
        let b = g2.lowered(&grp2, GroupKind::Elementwise).unwrap();
        let c = g3.lowered(&grp3, k3).unwrap();
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
        let d = p.graph.lowered(&[p.tip], GroupKind::Elementwise).unwrap();
        assert_eq!(d.shape.inputs, [ScalarType::Int]);
        assert_eq!(rt.exec_trace().plan_lowerings, 4);
    }
}
