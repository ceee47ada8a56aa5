//! The one user-function type. In the paper a skeleton is *customised by one
//! user function* (Section II-A); [`Udf`] is that function as every skeleton
//! holds it — source text in the kernel language, or a Rust closure of the
//! skeleton's signature `F` — and the one place the two forms are told
//! apart. It answers what the call path asks of a user function: its
//! analysed signature as a lazy plan stage, or one clear error for a closure
//! ([`Udf::plan_stage`], [`Udf::plan_operator`]); a reduce / scan operator's
//! evaluation on the host ([`Udf::host_operator`]); and the one stage of an
//! eager call of a stage kind ([`Udf::stage`]) — analysed source text, whose
//! kernels the plan's group runner takes from the runtime's lowering memo,
//! or a closure's kernels with the per-element cost they are launched and
//! scheduled by.
//!
//! Everything derived is computed once per skeleton instance: the analysis
//! and the host evaluator of source text and — per stage kind — a closure's
//! kernels, which belong to no runtime. The *built* kernels of source text
//! belong to a runtime and live in its lowering memo, so one skeleton
//! instance serves any number of runtimes.

use std::sync::{Arc, OnceLock};

use oclsim::{ArgView, CostHint, NativeKernelDef, Pod, Program, Value};

use crate::args::Args;
use crate::error::{Result, SkelError};
use crate::kernelgen::{check_binary_op, StageKind, UdfInfo};
use crate::plan::{Stage, StageFn};
use crate::skeletons::exec::create_buffer;
use crate::skeletons::{DeviceScalar, HostOperator};

/// The closure form of a reduce or scan operator.
pub(crate) type BinaryOp<T> = dyn Fn(T, T) -> T + Send + Sync;

/// The kernels of one stage — or one fused group of stages — as the
/// launchers take them.
pub(crate) struct StageKernels {
    pub kernel: oclsim::Kernel,
    /// The offset kernel a scan's program also holds.
    pub offset: Option<oclsim::Kernel>,
    /// The per-element cost of a Rust closure, which the fold launchers scale
    /// to the elements one work-item covers; `None` for kernel-language
    /// kernels, which are charged what they measure.
    pub per_element_cost: Option<CostHint>,
}

/// A skeleton's user function; `F` is the skeleton's closure signature.
pub(crate) enum Udf<F: ?Sized> {
    /// Source text: its analysis — or why it has none, reported by the first
    /// call — and a reduce / scan operator's host evaluator.
    Source {
        info: Result<Arc<UdfInfo>>,
        host: OnceLock<Arc<HostOperator>>,
    },
    /// A Rust closure with its per-element cost hint and the kernels built
    /// around it: slot 1 for a map's index-map form, slot 0 otherwise.
    Closure {
        f: Arc<F>,
        cost: CostHint,
        kernels: [OnceLock<Arc<StageKernels>>; 2],
    },
}

impl<F: ?Sized> Udf<F> {
    /// Source `text` whose first `main_inputs` parameters receive elements.
    pub(crate) fn source(text: &str, main_inputs: usize) -> Udf<F> {
        Udf::Source {
            info: UdfInfo::analyze(text, main_inputs).map(Arc::new),
            host: OnceLock::new(),
        }
    }

    /// A closure with its per-element cost hint (source text is estimated
    /// statically, so only a closure takes one).
    pub(crate) fn closure(f: Arc<F>, cost: CostHint) -> Udf<F> {
        Udf::Closure {
            f,
            cost,
            kernels: Default::default(),
        }
    }

    /// The analysed source text — what a lazy plan stage and the lowering
    /// memo are keyed by. A closure has no source to fuse: one error, naming
    /// the `stage`.
    pub(crate) fn plan_stage(&self, stage: &str) -> Result<Arc<UdfInfo>> {
        match self {
            Udf::Source { info, .. } => info.clone(),
            Udf::Closure { .. } => Err(SkelError::Plan(format!(
                "{stage} stage uses a native Rust closure; lazy plans require source UDFs"
            ))),
        }
    }

    /// [`Udf::plan_stage`] of a reduce or scan operator, with its host
    /// evaluator.
    pub(crate) fn plan_operator(&self, stage: &str) -> Result<(Arc<UdfInfo>, Arc<HostOperator>)> {
        let info = self.plan_stage(stage)?;
        check_binary_op(&info, stage)?;
        let Udf::Source { host, .. } = self else {
            unreachable!("a closure has no plan stage")
        };
        if let Some(host) = host.get() {
            return Ok((info, host.clone()));
        }
        let built = Arc::new(HostOperator::build(&info)?);
        Ok((info, host.get_or_init(|| built).clone()))
    }

    /// This user function as the one stage of an eager `kind` call producing
    /// `O` elements. Source text is its analysis (the group runner finds its
    /// kernels in the lowering memo); a closure is wrapped by `build` in its
    /// kernel and (for a scan) offset kernel once per skeleton instance and
    /// kind, on no runtime.
    pub(crate) fn stage<O: Pod>(
        &self,
        kind: StageKind,
        build: impl FnOnce(Arc<F>, CostHint) -> (oclsim::Kernel, Option<oclsim::Kernel>),
    ) -> Result<Stage> {
        let udf = match self {
            Udf::Source { info, .. } => StageFn::Source(info.clone()?),
            Udf::Closure { f, cost, kernels } => {
                let slot = &kernels[usize::from(kind == StageKind::IndexMap)];
                let built = slot.get_or_init(|| {
                    let (kernel, offset) = build(f.clone(), *cost);
                    Arc::new(StageKernels {
                        kernel,
                        offset,
                        per_element_cost: Some(*cost),
                    })
                });
                StageFn::Closure(built.clone())
            }
        };
        Ok(Stage::new(kind, 0, udf, Args::none(), create_buffer::<O>))
    }
}

/// A call or plan stage must provide one additional argument per extra
/// parameter of its user function.
pub(crate) fn check_arg_count(udf: &UdfInfo, provided: usize) -> Result<()> {
    if provided != udf.extra_params.len() {
        return Err(SkelError::UdfSignature(format!(
            "the user function expects {} additional argument(s), the call provides {provided}",
            udf.extra_params.len()
        )));
    }
    Ok(())
}

/// The one kernel of a program made of one native kernel definition.
pub(crate) fn native_kernel(def: NativeKernelDef) -> oclsim::Kernel {
    let name = def.name.clone();
    Program::from_native([def])
        .kernel(&name)
        .expect("the program holds the kernel it was built from")
}

/// The arguments of a closure kernel's launch, taken apart once. Every
/// closure kernel has its generated twin's layout
/// `[inputs…, out, n, extras…]`.
pub(crate) struct ClosureArgs<'v, 'a, O> {
    stage: &'static str,
    inputs: &'v [ArgView<'a>],
    /// The output buffer.
    pub output: &'v mut [O],
    /// Work-items of the launch.
    pub global_size: usize,
    /// The length argument `n`.
    pub n: usize,
    /// What follows `n`: the call's additional arguments, after a frame's
    /// own trailing scalar if it has one (an index map's or scan's offset).
    pub extras: &'v mut [ArgView<'a>],
}

impl<'v, 'a, O> ClosureArgs<'v, 'a, O> {
    /// Input buffer `index`, as `T` elements.
    pub(crate) fn input<T: Pod>(&self, index: usize) -> std::result::Result<&'v [T], String> {
        self.inputs[index]
            .as_slice()
            .ok_or_else(|| format!("{} input {index} must be a buffer", self.stage))
    }

    /// The scalar that follows `n`.
    pub(crate) fn trailing_scalar(&self) -> std::result::Result<Value, String> {
        self.extras
            .first()
            .and_then(ArgView::scalar)
            .ok_or_else(|| format!("{} kernel needs a scalar after its length", self.stage))
    }
}

/// The kernel `name` of a `stage` skeleton's Rust closure: `body` with the
/// launch's arguments as [`ClosureArgs`] over `inputs` input buffers.
pub(crate) fn closure_kernel<O: Pod>(
    name: &str,
    stage: &'static str,
    inputs: usize,
    cost: CostHint,
    body: impl Fn(ClosureArgs<'_, '_, O>) -> std::result::Result<(), String> + Send + Sync + 'static,
) -> oclsim::Kernel {
    native_kernel(NativeKernelDef::new(name, cost, move |ctx| {
        let global_size = ctx.global_size();
        let mut views = ctx.arg_views();
        let split = inputs.min(views.len());
        let (input_views, rest) = views.split_at_mut(split);
        let [out, n, extras @ ..] = rest else {
            return Err(format!(
                "{stage} kernel needs {inputs} input(s), an output and a length"
            ));
        };
        let output = out
            .as_slice_mut()
            .ok_or_else(|| format!("{stage} output must be a buffer"))?;
        let n = n
            .scalar()
            .and_then(|n| usize::try_from(n.as_i64()).ok())
            .ok_or_else(|| format!("{stage} length must be a non-negative scalar"))?;
        body(ClosureArgs {
            stage,
            inputs: input_views,
            output,
            global_size,
            n,
            extras,
        })
    }))
}

impl<T: DeviceScalar> Udf<BinaryOp<T>> {
    /// The operator evaluated on the host: the final combination of a
    /// reduction's partials and — two values at a time — of a scan's
    /// per-device totals. `stage` names the skeleton in signature errors.
    pub(crate) fn host_operator(&self, stage: &str) -> Result<Arc<HostOperator>> {
        match self {
            Udf::Closure { f, .. } => Ok(Arc::new(HostOperator::closure(f.clone())?)),
            Udf::Source { .. } => Ok(self.plan_operator(stage)?.1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::init_gpus;
    use crate::skeletons::{Map, Reduce, Scan, Zip};
    use crate::vector::Vector;

    /// A closure's kernels are built once per skeleton instance and stage
    /// kind, however often its stage is asked for — on no runtime, so every
    /// runtime a call runs on gets the same kernels.
    #[test]
    fn closure_kernels_are_built_once_per_instance_and_kind() {
        let f: Arc<BinaryOp<i32>> = Arc::new(|a, b| a + b);
        let udf = Udf::closure(f.clone(), CostHint::DEFAULT);
        let builds = std::cell::Cell::new(0);
        let stage = |udf: &Udf<BinaryOp<i32>>, kind| {
            let stage = udf.stage::<i32>(kind, |_, cost| {
                builds.set(builds.get() + 1);
                let name = format!("probe_{}", builds.get());
                (
                    native_kernel(NativeKernelDef::new(&name, cost, |_| Ok(()))),
                    None,
                )
            });
            stage.unwrap()
        };
        for _call in 0..2 {
            for kind in [StageKind::Map, StageKind::IndexMap, StageKind::Map] {
                let StageFn::Closure(kernels) = stage(&udf, kind).udf else {
                    unreachable!("a closure's stage carries its kernels")
                };
                let want = if kind == StageKind::IndexMap {
                    "probe_2"
                } else {
                    "probe_1"
                };
                assert_eq!(kernels.kernel.name, want);
            }
        }
        assert_eq!(
            builds.get(),
            2,
            "one build per kind, none per call or runtime"
        );
        // Another instance of the closure with another cost builds its own
        // kernels, launched at that cost.
        let udf = Udf::closure(f, CostHint::new(9.0, 9.0));
        assert_eq!(stage(&udf, StageKind::Map).cost().flops_per_item, 9.0);
        assert_eq!(builds.get(), 3);
    }

    /// N calls of one closure skeleton instance launch the kernel(s) it built
    /// at the first: the instance holds exactly one kernel per stage kind
    /// (each capturing the closure once), and they are not bound to a
    /// runtime. The source-UDF twin is `tier_telemetry::
    /// one_skeleton_instance_builds_and_tiers_on_every_runtime_it_runs_on`.
    #[test]
    fn one_closure_skeleton_instance_runs_repeatedly_and_on_two_runtimes() {
        fn captures<F: ?Sized>(udf: &Udf<F>) -> usize {
            let Udf::Closure { f, kernels, .. } = udf else {
                unreachable!()
            };
            assert!(kernels[0].get().is_some(), "the kernel is kept");
            Arc::strong_count(f) - 1
        }
        let inc = Map::<i32, i32>::new(|x, _| x + 1);
        let add = Zip::<i32, i32, i32>::new(|a, b, _| a + b);
        let sum = Reduce::<i32>::new(|a, b| a + b);
        let prefix = Scan::<i32>::new(|a, b| a + b);
        for rt in [init_gpus(2), init_gpus(3)] {
            for _ in 0..3 {
                let v = Vector::from_vec(&rt, (1..=6).collect());
                let w = Vector::from_vec(&rt, vec![10; 6]);
                assert_eq!(v.map(&inc).unwrap().to_vec().unwrap(), [2, 3, 4, 5, 6, 7]);
                let added = v.zip(&w, &add).unwrap();
                assert_eq!(added.to_vec().unwrap(), [11, 12, 13, 14, 15, 16]);
                assert_eq!(v.reduce(&sum).unwrap(), 21);
                let scanned = v.scan(&prefix).unwrap();
                assert_eq!(scanned.to_vec().unwrap(), [1, 3, 6, 10, 15, 21]);
                let indices = inc.run_index(&rt, 4).exec().unwrap();
                assert_eq!(indices.to_vec().unwrap(), [1, 2, 3, 4]);
                // Map + index map, zip, reduce, scan + offset.
                let kernels = [
                    captures(&inc.udf),
                    captures(&add.udf),
                    captures(&sum.udf),
                    captures(&prefix.udf),
                ];
                assert_eq!(kernels, [2, 1, 1, 2]);
            }
            // Closure kernels are native Rust: no program is ever built.
            assert_eq!(rt.exec_trace().programs_built, 0);
        }
    }
}
