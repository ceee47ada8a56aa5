//! Cross-stage kernel fusion for lazy pipeline plans.
//!
//! A [`crate::plan`] DAG describes a chain of elementwise stages (map, zip)
//! optionally terminated by a reduction or scan. This module holds what
//! turning a run of adjacent stages into **one** kernel needs besides the
//! kernel text itself — there are no templates here; the one renderer is
//! [`crate::kernelgen`]'s:
//!
//! * `Hygiene` concatenates the stages' UDF sources safely — every defined
//!   function is renamed to a per-stage `skelcl_s{k}_…` name so independent
//!   UDFs can never collide (or capture each other's helpers), and actual
//!   collisions are recorded as diagnostics for [`crate::plan`]'s `explain`,
//! * `FExpr` is the inlined elementwise expression of a group — nested
//!   stage-UDF calls over element loads — which the renderer places where a
//!   single-stage kernel loads its input element.
//!
//! Every fusable boundary fuses under the default policy: a fused kernel
//! does the split pair's FLOPs, moves its bytes minus one intermediate
//! store+load per element and saves a launch, so a roofline model never
//! prices it above the pair. That holds for memory-bound elementwise
//! pipelines on real GPUs too, which is why the paper's successors
//! (SkelCL's `stencil` sequences, Lift, SYCL fusion runtimes) fuse by
//! default.

use std::collections::{BTreeMap, HashSet};

use skelcl_kernel::compose;
use skelcl_kernel::types::ScalarType;

use crate::error::{Result, SkelError};
use crate::kernelgen::UdfInfo;

/// When the fusion pass may merge adjacent pipeline stages into one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusionPolicy {
    /// Fuse every fusable boundary (the default).
    #[default]
    Auto,
    /// Never fuse: lower every stage to its own kernel. This is the
    /// reference path the differential tests compare against.
    Never,
}

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

impl HygienicStage {
    /// A stage that is alone in its kernel: nothing to collide with, so the
    /// UDF text is merged as the user wrote it (the paper's Section II-A) and
    /// its additional arguments are `skelcl_arg_{name}`.
    pub(crate) fn verbatim(info: &UdfInfo) -> HygienicStage {
        HygienicStage {
            source: info.source.clone(),
            fn_name: info.name.clone(),
            extras: info
                .extra_params
                .iter()
                .map(|(name, ty)| (format!("skelcl_arg_{name}"), *ty))
                .collect(),
            collisions: Vec::new(),
        }
    }
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

/// The inlined elementwise expression of a group, built over element loads
/// and stage-UDF calls.
#[derive(Debug, Clone)]
pub(crate) enum FExpr {
    /// The element of kernel input slot `index` at the iteration index.
    In(usize),
    /// Call of stage `index`'s entry function over the argument expressions
    /// (the stage's additional arguments are appended automatically).
    Call(usize, Vec<FExpr>),
}

impl FExpr {
    /// Render the expression over `stages`; `load(slot)` renders the element
    /// of input slot `slot` (the frame decides where that element comes
    /// from and at which index).
    pub(crate) fn code(&self, stages: &[HygienicStage], load: &dyn Fn(usize) -> String) -> String {
        match self {
            FExpr::In(slot) => load(*slot),
            FExpr::Call(stage, args) => {
                let s = &stages[*stage];
                let mut rendered: Vec<String> = args.iter().map(|a| a.code(stages, load)).collect();
                rendered.extend(s.extras.iter().map(|(name, _)| name.clone()));
                format!("{}({})", s.fn_name, rendered.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernelgen::{render_group, StageKind, FUSED_MAP_KERNEL};

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
        // The concatenation is a valid translation unit with distinct names,
        // and the renderer reports the same diagnostics.
        let group = render_group(&[(StageKind::Map, &a), (StageKind::Map, &b)], false).unwrap();
        assert_eq!(group.collisions, sb.collisions);
        let program = skelcl_kernel::Program::build(&group.source).unwrap();
        assert!(program.kernel(FUSED_MAP_KERNEL).is_ok());
    }

    #[test]
    fn fused_map_kernel_inlines_the_chain_and_extras() {
        let scale = info("float func(float x, float a) { return x * a; }", 1);
        let add = info("float func(float l, float r) { return l + r; }", 2);
        let group =
            render_group(&[(StageKind::Map, &scale), (StageKind::Zip, &add)], false).unwrap();
        let src = &group.source;
        assert!(
            src.contains(
                "skelcl_s1_func(skelcl_s0_func(skelcl_in0[skelcl_gid], skelcl_s0_arg_a), \
                 skelcl_in1[skelcl_gid])"
            ),
            "{src}"
        );
        assert!(src.contains(", float skelcl_s0_arg_a"), "{src}");
        assert_eq!(group.inputs, [ScalarType::Float, ScalarType::Float]);
        assert!(skelcl_kernel::Program::build(src).is_ok(), "{src}");
    }
}
