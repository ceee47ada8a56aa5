//! Cross-stage kernel fusion for lazy pipeline plans.
//!
//! A [`crate::plan`] DAG describes a chain of elementwise stages (map, zip)
//! optionally terminated by a reduction or scan. This module turns a run of
//! adjacent stages into **one** generated kernel:
//!
//! * `Hygiene` concatenates the stages' UDF sources safely — every defined
//!   function is renamed to a per-stage `skelcl_s{k}_…` name so independent
//!   UDFs can never collide (or capture each other's helpers), and actual
//!   collisions are recorded as diagnostics for [`crate::plan`]'s `explain`,
//! * `FusedSpec` generates the fused kernels — the elementwise expression
//!   is inlined into the map body and the reduce/scan first phase. The
//!   reduce instantiates the eager skeleton's own template; map and scan
//!   mirror the eager templates in [`crate::kernelgen`]
//!   operation-for-operation, so fused results stay bit-identical to the
//!   unfused path,
//! * `boundary_decision` is the per-device cost model: using the static
//!   per-instruction FLOP/byte estimates and the scheduler's analytical
//!   [`PerfModel`], it predicts fused vs split time for each stage boundary
//!   and lets [`FusionPolicy::Auto`] choose.
//!
//! On the simulated devices the decision is heavily tilted towards fusion —
//! a fused kernel saves a launch overhead *and* one intermediate store+load
//! per element, while the roofline model charges the same FLOPs either way.
//! That is the honest prediction for memory-bound elementwise pipelines on
//! real GPUs too, which is why the paper's successors (SkelCL's `stencil`
//! sequences, Lift, SYCL fusion runtimes) fuse by default.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use oclsim::CostHint;
use skelcl_kernel::compose;
use skelcl_kernel::types::ScalarType;

use crate::error::{Result, SkelError};
use crate::kernelgen::UdfInfo;
use crate::scheduler::PerfModel;

/// When the fusion pass may merge adjacent pipeline stages into one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusionPolicy {
    /// Fuse when the per-device cost model predicts the fused kernel is no
    /// slower than the split pair (the default; on the simulated devices
    /// this fuses essentially always).
    #[default]
    Auto,
    /// Fuse every fusable boundary regardless of predicted cost.
    Always,
    /// Never fuse: lower every stage to its own kernel. This is the
    /// reference path the differential tests compare against.
    Never,
}

/// Name of the generated fused elementwise kernel.
pub(crate) const FUSED_MAP_KERNEL: &str = "SKELCL_FUSED_MAP";
/// Name of the generated fused reduce kernel (one partial per work-item).
pub(crate) const FUSED_REDUCE_KERNEL: &str = "SKELCL_FUSED_REDUCE";
/// Name of the generated fused (per-device, sequential) scan kernel.
pub(crate) const FUSED_SCAN_KERNEL: &str = "SKELCL_FUSED_SCAN";
/// Name of the offset kernel paired with [`FUSED_SCAN_KERNEL`].
pub(crate) const FUSED_SCAN_OFFSET_KERNEL: &str = "SKELCL_FUSED_SCAN_OFFSET";

/// One pipeline stage after hygienic renaming: its rewritten source, the
/// name its entry function ended up with, and the fused-kernel parameter
/// names of its additional scalar arguments.
#[derive(Debug, Clone)]
pub(crate) struct HygienicStage {
    /// The stage's UDF source with every defined function renamed.
    pub source: String,
    /// Post-rename name of the stage's entry function.
    pub fn_name: String,
    /// `(kernel_param_name, type)` for each additional scalar argument, in
    /// declaration order.
    pub extras: Vec<(String, ScalarType)>,
    /// Human-readable rename diagnostics for names that actually collided
    /// with an earlier stage's definitions.
    pub collisions: Vec<String>,
}

/// Renaming context for one fused kernel: tracks every function name the
/// concatenated source defines so far.
///
/// Every stage's defined functions are renamed to `skelcl_s{k}_{name}`
/// unconditionally. Uniform prefixing (rather than renaming only on
/// collision) also prevents *capture*: stage A defining `clamp` must not
/// hijack stage B's call to the `clamp` builtin merely by being concatenated
/// first.
#[derive(Debug, Default)]
pub(crate) struct Hygiene {
    /// Post-rename names in use (guards against generated-name clashes).
    taken: HashSet<String>,
    /// Original (pre-rename) names defined by earlier stages — a later stage
    /// defining one of these *collided* and gets a diagnostic.
    seen: HashSet<String>,
}

impl Hygiene {
    pub(crate) fn new() -> Hygiene {
        Hygiene::default()
    }

    /// Rename stage `stage_index`'s UDF for inclusion in the fused source.
    pub(crate) fn admit(&mut self, stage_index: usize, info: &UdfInfo) -> Result<HygienicStage> {
        let mut renames = BTreeMap::new();
        let mut collisions = Vec::new();
        for name in &info.defined_functions {
            let mut new_name = format!("skelcl_s{stage_index}_{name}");
            // A user function literally named like a generated name cannot
            // collide silently either; push a deterministic suffix until the
            // name is free.
            while self.taken.contains(&new_name) {
                new_name.push('x');
            }
            if self.seen.contains(name) {
                collisions.push(format!(
                    "stage {stage_index}: `{name}` collides with an earlier stage; renamed to `{new_name}`"
                ));
            }
            self.taken.insert(new_name.clone());
            self.seen.insert(name.clone());
            renames.insert(name.clone(), new_name);
        }
        let source = compose::rename_identifiers(&info.source, &renames).map_err(SkelError::Udf)?;
        let fn_name = renames
            .get(&info.name)
            .cloned()
            .unwrap_or_else(|| info.name.clone());
        let extras = info
            .extra_params
            .iter()
            .map(|(name, ty)| (format!("skelcl_s{stage_index}_arg_{name}"), *ty))
            .collect();
        Ok(HygienicStage {
            source,
            fn_name,
            extras,
            collisions,
        })
    }
}

/// The inlined elementwise expression of a fused kernel, built over input
/// buffer loads and stage-UDF calls.
#[derive(Debug, Clone)]
pub(crate) enum FExpr {
    /// Load of fused-kernel input buffer `index` at the iteration index.
    In(usize),
    /// Call of stage `index`'s entry function over the argument expressions
    /// (the stage's additional arguments are appended automatically).
    Call(usize, Vec<FExpr>),
}

/// Everything needed to generate one fused kernel: the hygienically renamed
/// stages, the input buffer types, the output element type and the inlined
/// expression tree.
#[derive(Debug, Clone)]
pub(crate) struct FusedSpec {
    pub stages: Vec<HygienicStage>,
    pub inputs: Vec<ScalarType>,
    pub out_ty: ScalarType,
    pub expr: FExpr,
}

impl FusedSpec {
    fn preamble(&self) -> String {
        let mut out = String::new();
        for stage in &self.stages {
            out.push_str(&stage.source);
            out.push('\n');
        }
        out
    }

    fn input_decls(&self) -> String {
        self.inputs
            .iter()
            .enumerate()
            .map(|(i, ty)| format!("__global {ty}* skelcl_in{i}, "))
            .collect()
    }

    fn extra_decls(&self) -> String {
        self.stages
            .iter()
            .flat_map(|s| &s.extras)
            .map(|(name, ty)| format!(", {ty} {name}"))
            .collect()
    }

    /// Render the expression with `idx` as the iteration index.
    fn expr_code(&self, expr: &FExpr, idx: &str) -> String {
        match expr {
            FExpr::In(i) => format!("skelcl_in{i}[{idx}]"),
            FExpr::Call(stage, args) => {
                let s = &self.stages[*stage];
                let mut rendered: Vec<String> =
                    args.iter().map(|a| self.expr_code(a, idx)).collect();
                rendered.extend(s.extras.iter().map(|(name, _)| name.clone()));
                format!("{}({})", s.fn_name, rendered.join(", "))
            }
        }
    }

    /// The fused elementwise kernel: `out[i] = expr(i)` — the shape of the
    /// eager map/zip kernels with the whole stage chain inlined.
    pub(crate) fn map_kernel(&self) -> String {
        format!(
            "{preamble}\
             __kernel void {kernel}({ins}__global {out_ty}* skelcl_out, int skelcl_n{extras}) {{\n\
             \x20   int skelcl_gid = get_global_id(0);\n\
             \x20   if (skelcl_gid < skelcl_n) {{\n\
             \x20       skelcl_out[skelcl_gid] = {expr};\n\
             \x20   }}\n\
             }}\n",
            preamble = self.preamble(),
            kernel = FUSED_MAP_KERNEL,
            ins = self.input_decls(),
            out_ty = self.out_ty,
            extras = self.extra_decls(),
            expr = self.expr_code(&self.expr, "skelcl_gid"),
        )
    }

    /// The fused reduce kernel: [`crate::kernelgen::reduce_template`] — the
    /// eager reduce's own template — with the elementwise chain inlined in
    /// place of the input load. `op` must have been admitted through the
    /// same [`Hygiene`] as the stages.
    pub(crate) fn reduce_kernel(&self, op: &HygienicStage) -> String {
        crate::kernelgen::reduce_template(
            &format!("{}{}\n", self.preamble(), op.source),
            FUSED_REDUCE_KERNEL,
            &self.input_decls(),
            self.out_ty,
            &self.extra_decls(),
            &op.fn_name,
            |idx| self.expr_code(&self.expr, idx),
        )
    }

    /// The fused scan kernel pair: the eager sequential inclusive scan with
    /// the elementwise chain inlined, plus the (unfused) offset kernel that
    /// combines predecessor totals into a device's part.
    pub(crate) fn scan_kernels(&self, op: &HygienicStage) -> String {
        format!(
            "{preamble}{op_src}\n\
             __kernel void {scan}({ins}__global {ty}* skelcl_out, int skelcl_n{extras}) {{\n\
             \x20   {ty} skelcl_acc = {first};\n\
             \x20   skelcl_out[0] = skelcl_acc;\n\
             \x20   for (int skelcl_i = 1; skelcl_i < skelcl_n; skelcl_i++) {{\n\
             \x20       skelcl_acc = {f}(skelcl_acc, {step});\n\
             \x20       skelcl_out[skelcl_i] = skelcl_acc;\n\
             \x20   }}\n\
             }}\n\
             __kernel void {offset}(__global {ty}* skelcl_data, int skelcl_n, {ty} skelcl_offset) {{\n\
             \x20   int skelcl_gid = get_global_id(0);\n\
             \x20   if (skelcl_gid < skelcl_n) {{\n\
             \x20       skelcl_data[skelcl_gid] = {f}(skelcl_offset, skelcl_data[skelcl_gid]);\n\
             \x20   }}\n\
             }}\n",
            preamble = self.preamble(),
            op_src = op.source,
            scan = FUSED_SCAN_KERNEL,
            offset = FUSED_SCAN_OFFSET_KERNEL,
            ins = self.input_decls(),
            ty = self.out_ty,
            extras = self.extra_decls(),
            first = self.expr_code(&self.expr, "0"),
            step = self.expr_code(&self.expr, "skelcl_i"),
            f = op.fn_name,
        )
    }
}

/// Compose a chain of unary stages into a single, self-contained UDF source
/// whose entry function is named `func` — the shape every eager skeleton
/// accepts. Used by the matrix plan, which lowers fused map groups through
/// the container-generic eager `Map`.
///
/// All stages must chain type-correctly (caller-validated). Returns the
/// composed source and the collision diagnostics.
pub(crate) fn compose_unary_source(stages: &[Arc<UdfInfo>]) -> Result<(String, Vec<String>)> {
    let mut hygiene = Hygiene::new();
    // The wrapper itself owns the name `func`.
    hygiene.taken.insert("func".to_string());
    let mut renamed = Vec::with_capacity(stages.len());
    for (k, info) in stages.iter().enumerate() {
        renamed.push(hygiene.admit(k, info)?);
    }
    let in_ty = stages[0].main_params[0];
    let out_ty = stages[stages.len() - 1].return_type;
    let mut body = "skelcl_x".to_string();
    for stage in &renamed {
        let mut call_args = vec![body];
        call_args.extend(stage.extras.iter().map(|(name, _)| name.clone()));
        body = format!("{}({})", stage.fn_name, call_args.join(", "));
    }
    let extra_decls: String = renamed
        .iter()
        .flat_map(|s| &s.extras)
        .map(|(name, ty)| format!(", {ty} {name}"))
        .collect();
    let mut source = String::new();
    for stage in &renamed {
        source.push_str(&stage.source);
        source.push('\n');
    }
    source.push_str(&format!(
        "{out_ty} func({in_ty} skelcl_x{extra_decls}) {{ return {body}; }}\n"
    ));
    let collisions = renamed.into_iter().flat_map(|s| s.collisions).collect();
    Ok((source, collisions))
}

/// Per-element cost figures of one pipeline stage, used by the boundary
/// decision model.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageCost {
    /// FLOP-equivalent work of one UDF invocation (static estimate).
    pub flops: f64,
    /// Bytes read per element from inputs *other than* the chain input
    /// (e.g. a zip's second vector).
    pub side_bytes: f64,
    /// Bytes written per produced element (0 for a reduction's single
    /// result).
    pub out_bytes: f64,
}

impl StageCost {
    /// The UDF's static estimate (taken when it was analysed), with
    /// structural read/write byte figures supplied by the caller.
    pub(crate) fn of(info: &UdfInfo, side_bytes: f64, out_bytes: f64) -> StageCost {
        StageCost {
            flops: info.cost.flops_equivalent(),
            side_bytes,
            out_bytes,
        }
    }
}

/// Accumulated cost of the group of stages fused so far.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupCost {
    /// Summed FLOP-equivalents of all stages in the group.
    pub flops: f64,
    /// Bytes read per element from the group's source inputs.
    pub read_bytes: f64,
    /// Element size of the group's output, i.e. the bytes one intermediate
    /// element would occupy if the group were materialised here.
    pub chain_bytes: f64,
}

impl GroupCost {
    /// A group containing one stage that reads `in_bytes` per element.
    pub(crate) fn start(in_bytes: f64, stage: StageCost) -> GroupCost {
        GroupCost {
            flops: stage.flops,
            read_bytes: in_bytes + stage.side_bytes,
            chain_bytes: stage.out_bytes,
        }
    }

    /// Absorb `stage` into the group (after a fuse decision).
    pub(crate) fn fuse(&mut self, stage: StageCost) {
        self.flops += stage.flops;
        self.read_bytes += stage.side_bytes;
        self.chain_bytes = stage.out_bytes;
    }
}

/// The cost model's verdict for one stage boundary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoundaryDecision {
    /// Whether the downstream stage joins the group.
    pub fused: bool,
    /// Whether the policy forced the outcome (Always/Never) rather than the
    /// cost model choosing it.
    pub forced: bool,
    /// Predicted time of the fused alternative, seconds (slowest device).
    pub fused_time: f64,
    /// Predicted time of the split alternative, seconds.
    pub split_time: f64,
}

/// Decide fuse-vs-split for the boundary between `group` (the stages fused
/// so far) and `next`. `device_items` holds `(device, items)` for every
/// active device; devices execute in parallel, so each alternative is scored
/// by its slowest device, and the split alternative pays two launches.
pub(crate) fn boundary_decision(
    policy: FusionPolicy,
    model: &PerfModel,
    device_items: &[(usize, usize)],
    group: GroupCost,
    next: StageCost,
) -> Result<BoundaryDecision> {
    let split_a = CostHint::new(group.flops, group.read_bytes + group.chain_bytes);
    let split_b = CostHint::new(
        next.flops,
        group.chain_bytes + next.side_bytes + next.out_bytes,
    );
    let fused_hint = CostHint::new(
        group.flops + next.flops,
        group.read_bytes + next.side_bytes + next.out_bytes,
    );
    let mut split_time = 0.0f64;
    let mut fused_time = 0.0f64;
    for &(device, items) in device_items {
        let a = model.predict(device, items, split_a)?.as_secs_f64();
        let b = model.predict(device, items, split_b)?.as_secs_f64();
        let f = model.predict(device, items, fused_hint)?.as_secs_f64();
        split_time = split_time.max(a + b);
        fused_time = fused_time.max(f);
    }
    let (fused, forced) = match policy {
        FusionPolicy::Always => (true, true),
        FusionPolicy::Never => (false, true),
        FusionPolicy::Auto => (fused_time <= split_time, false),
    };
    Ok(BoundaryDecision {
        fused,
        forced,
        fused_time,
        split_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(src: &str, main: usize) -> UdfInfo {
        UdfInfo::analyze(src, main).unwrap()
    }

    #[test]
    fn hygiene_renames_colliding_helpers_with_diagnostic() {
        let a = info(
            "float offset(float x) { return x + 1.0f; }\n\
             float func(float x) { return offset(x); }",
            1,
        );
        let b = info(
            "float offset(float x) { return x + 2.0f; }\n\
             float func(float x) { return offset(x); }",
            1,
        );
        let mut hygiene = Hygiene::new();
        let sa = hygiene.admit(0, &a).unwrap();
        let sb = hygiene.admit(1, &b).unwrap();
        assert_eq!(sa.fn_name, "skelcl_s0_func");
        assert_eq!(sb.fn_name, "skelcl_s1_func");
        assert!(sa.collisions.is_empty());
        // Stage 1 collides on BOTH `offset` and `func`.
        assert_eq!(sb.collisions.len(), 2, "{:?}", sb.collisions);
        // Diagnostics follow source order: `offset` is defined before `func`.
        assert!(sb.collisions[0].contains("`offset`"), "{:?}", sb.collisions);
        assert!(sb.collisions[1].contains("`func`"), "{:?}", sb.collisions);
        assert!(sb.source.contains("skelcl_s1_offset"));
        // The concatenation is a valid translation unit with distinct names.
        let spec = FusedSpec {
            stages: vec![sa, sb],
            inputs: vec![ScalarType::Float],
            out_ty: ScalarType::Float,
            expr: FExpr::Call(1, vec![FExpr::Call(0, vec![FExpr::In(0)])]),
        };
        let program = skelcl_kernel::Program::build(&spec.map_kernel()).unwrap();
        assert!(program.kernel(FUSED_MAP_KERNEL).is_ok());
    }

    #[test]
    fn fused_map_kernel_inlines_the_chain_and_extras() {
        let scale = info("float func(float x, float a) { return x * a; }", 1);
        let add = info("float func(float l, float r) { return l + r; }", 2);
        let mut hygiene = Hygiene::new();
        let s0 = hygiene.admit(0, &scale).unwrap();
        let s1 = hygiene.admit(1, &add).unwrap();
        let spec = FusedSpec {
            stages: vec![s0, s1],
            inputs: vec![ScalarType::Float, ScalarType::Float],
            out_ty: ScalarType::Float,
            expr: FExpr::Call(1, vec![FExpr::Call(0, vec![FExpr::In(0)]), FExpr::In(1)]),
        };
        let src = spec.map_kernel();
        assert!(
            src.contains(
                "skelcl_s1_func(skelcl_s0_func(skelcl_in0[skelcl_gid], skelcl_s0_arg_a), \
                 skelcl_in1[skelcl_gid])"
            ),
            "{src}"
        );
        assert!(src.contains(", float skelcl_s0_arg_a"), "{src}");
        assert!(skelcl_kernel::Program::build(&src).is_ok(), "{src}");
    }

    #[test]
    fn compose_unary_source_produces_a_valid_udf() {
        let stages = vec![
            Arc::new(info("float func(float x) { return x + 1.0f; }", 1)),
            Arc::new(info("float func(float x, float a) { return x * a; }", 1)),
        ];
        let (src, collisions) = compose_unary_source(&stages).unwrap();
        // Both stages named `func`: the second collides with the first.
        assert_eq!(collisions.len(), 1, "{collisions:?}");
        let composed = UdfInfo::analyze(&src, 1).unwrap();
        assert_eq!(composed.name, "func");
        assert_eq!(composed.extra_params.len(), 1);
        assert_eq!(composed.return_type, ScalarType::Float);
    }

    #[test]
    fn auto_policy_fuses_elementwise_chains_on_the_analytical_model() {
        let rt = crate::runtime::init_gpus(2);
        let model = PerfModel::analytical(&rt);
        let group = GroupCost::start(
            4.0,
            StageCost {
                flops: 2.0,
                side_bytes: 0.0,
                out_bytes: 4.0,
            },
        );
        let next = StageCost {
            flops: 1.0,
            side_bytes: 0.0,
            out_bytes: 4.0,
        };
        let d = boundary_decision(
            FusionPolicy::Auto,
            &model,
            &[(0, 1 << 19), (1, 1 << 19)],
            group,
            next,
        )
        .unwrap();
        assert!(d.fused && !d.forced);
        assert!(d.fused_time < d.split_time);
        let never =
            boundary_decision(FusionPolicy::Never, &model, &[(0, 1 << 19)], group, next).unwrap();
        assert!(!never.fused && never.forced);
    }
}
