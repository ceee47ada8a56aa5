//! Differential and property tests of the lazy plan subsystem: every fused
//! pipeline must be **bit-identical** to the unfused (`FusionPolicy::Never`)
//! lowering, to the eager skeleton sequence, and to a host interpreter
//! oracle — over 1–4 devices and every vector distribution — and the fusion
//! telemetry (`ExecTrace`) must account exactly for what fusion elided.

use proptest::prelude::*;

use skelcl::prelude::*;
use skelcl::{args, FusionPolicy, SkelError};

fn square() -> Map<f32, f32> {
    Map::from_source("float func(float x) { return x * x; }")
}

fn affine() -> Map<f32, f32> {
    Map::from_source("float func(float x, float a, float b) { return a * x + b; }")
}

fn mul() -> Zip<f32, f32, f32> {
    Zip::from_source("float func(float x, float y) { return x * y; }")
}

fn sum() -> Reduce<f32> {
    Reduce::from_source("float func(float a, float b) { return a + b; }")
}

fn psum() -> Scan<f32> {
    Scan::from_source("float func(float a, float b) { return a + b; }")
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn apply_distribution(v: &Vector<f32>, which: usize, devices: usize) {
    let dist = match which % 4 {
        0 => Distribution::Block,
        1 => Distribution::Copy,
        2 => Distribution::Single(which % devices),
        _ => {
            Distribution::block_weighted(&(0..devices).map(|d| 1.0 + d as f64).collect::<Vec<_>>())
        }
    };
    v.set_distribution(dist).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// map∘map∘map fused is bit-identical to the unfused lowering, the eager
    /// chain and the host oracle, on 1–4 devices and every distribution.
    #[test]
    fn fused_map_chain_matches_unfused_eager_and_oracle(
        devices in 1usize..=4,
        dist in 0usize..4,
        data in prop::collection::vec(-1.0e2f32..1.0e2, 1..96),
    ) {
        let rt = skelcl::init_gpus(devices);
        let v = Vector::from_vec(&rt, data.clone());
        apply_distribution(&v, dist, devices);
        let sq = square();
        let af = affine();
        let plan = v.lazy()
            .map(&sq)
            .map_with(&af, args![0.5f32, 1.0f32])
            .map(&sq);
        let fused = plan.collect().unwrap();
        let unfused = plan.clone().policy(FusionPolicy::Never).collect().unwrap();
        let eager = v
            .map(&sq).unwrap()
            .map_with(&af, args![0.5f32, 1.0f32]).unwrap()
            .map(&sq).unwrap()
            .to_vec().unwrap();
        let oracle: Vec<f32> = data
            .iter()
            .map(|&x| { let a = x * x; let b = 0.5f32 * a + 1.0f32; b * b })
            .collect();
        prop_assert_eq!(bits(&fused), bits(&oracle), "fused vs oracle, devices={}", devices);
        prop_assert_eq!(bits(&unfused), bits(&oracle), "unfused vs oracle");
        prop_assert_eq!(bits(&eager), bits(&oracle), "eager vs oracle");
    }

    /// zip∘map fused is bit-identical to unfused, eager and oracle, with the
    /// second input under an independent distribution (forces unification).
    #[test]
    fn fused_zip_map_matches_unfused_eager_and_oracle(
        devices in 1usize..=4,
        dist_a in 0usize..4,
        dist_b in 0usize..4,
        data in prop::collection::vec(-50.0f32..50.0, 1..96),
    ) {
        let rt = skelcl::init_gpus(devices);
        let ys: Vec<f32> = data.iter().map(|x| x + 3.0).collect();
        let v = Vector::from_vec(&rt, data.clone());
        let w = Vector::from_vec(&rt, ys.clone());
        apply_distribution(&v, dist_a, devices);
        apply_distribution(&w, dist_b, devices);
        let sq = square();
        let m = mul();
        let plan = v.lazy().zip(&w, &m).map(&sq);
        let fused = plan.collect().unwrap();
        let unfused = plan.clone().policy(FusionPolicy::Never).collect().unwrap();
        let eager = v.zip(&w, &m).unwrap().map(&sq).unwrap().to_vec().unwrap();
        let oracle: Vec<f32> = data.iter().zip(&ys)
            .map(|(&x, &y)| { let p = x * y; p * p })
            .collect();
        prop_assert_eq!(bits(&fused), bits(&oracle));
        prop_assert_eq!(bits(&unfused), bits(&oracle));
        prop_assert_eq!(bits(&eager), bits(&oracle));
    }

    /// Generated map/zip chains with an optional reduce or scan terminal —
    /// any stage order, colliding helper names, extra arguments — compute
    /// the same bits whether their lowering is fresh (first plan on a
    /// runtime), a memo hit (same shape rebuilt from new skeleton instances)
    /// or never fused at all; the rebuilt plan lowers nothing.
    #[test]
    fn memoised_lowerings_run_bit_identical_to_fresh_ones(
        stages in prop::collection::vec((0usize..5, -2.0f32..2.0), 1..5),
        terminal in 0usize..3,
        data in prop::collection::vec(-4.0f32..4.0, 1..48),
    ) {
        const MAPS: [&str; 3] = [
            "float offset(float x) { return x + 1.0f; }\nfloat func(float x) { return offset(x); }",
            "float offset(float x) { return x * 0.5f; }\nfloat func(float x) { return offset(x); }",
            "float func(float x, float a) { return a * x - 1.0f; }",
        ];
        const ZIPS: [&str; 2] = [
            "float func(float x, float y) { return x * y; }",
            "float offset(float x) { return x - 3.0f; }\nfloat func(float x, float y, float s) { return offset(x) + y * s; }",
        ];
        let rt = skelcl::init_gpus(2);
        let v = Vector::from_vec(&rt, data.clone());
        // One second input per stage: a kernel may not bind a buffer twice.
        let sides: Vec<Vector<f32>> = (0..stages.len())
            .map(|k| Vector::from_vec(&rt, data.iter().map(|x| k as f32 - x).collect()))
            .collect();
        let run = |policy: FusionPolicy| -> Vec<f32> {
            let mut plan = v.lazy().policy(policy);
            for (&(which, a), w) in stages.iter().zip(&sides) {
                plan = match which {
                    2 => plan.map_with(&Map::from_source(MAPS[2]), args![a]),
                    3 => plan.zip(w, &Zip::from_source(ZIPS[0])),
                    4 => plan.zip_with(w, &Zip::from_source(ZIPS[1]), args![a]),
                    m => plan.map(&Map::from_source(MAPS[m])),
                };
            }
            match terminal {
                1 => vec![plan.reduce(&sum()).scalar().unwrap()],
                2 => plan.scan(&psum()).collect().unwrap(),
                _ => plan.collect().unwrap(),
            }
        };
        let fresh = run(FusionPolicy::Auto);
        let lowered = rt.exec_trace().plan_lowerings;
        let hit = run(FusionPolicy::Auto);
        prop_assert_eq!(rt.exec_trace().plan_lowerings, lowered, "the rebuilt plan lowered again");
        let unfused = run(FusionPolicy::Never);
        prop_assert_eq!(bits(&hit), bits(&fresh));
        prop_assert_eq!(bits(&unfused), bits(&fresh));
    }

    /// map∘reduce fused (the chain inlined into the fold's first phase) is
    /// bit-identical to unfused and eager; on one device the sequential host
    /// left fold is the oracle.
    #[test]
    fn fused_map_reduce_matches_unfused_eager_and_oracle(
        devices in 1usize..=4,
        dist in 0usize..4,
        data in prop::collection::vec(-10.0f32..10.0, 1..96),
    ) {
        let rt = skelcl::init_gpus(devices);
        let v = Vector::from_vec(&rt, data.clone());
        apply_distribution(&v, dist, devices);
        let sq = square();
        let s = sum();
        let plan = v.lazy().map(&sq).reduce(&s);
        let fused = plan.scalar().unwrap();
        let unfused = plan.clone().policy(FusionPolicy::Never).scalar().unwrap();
        let eager = v.map(&sq).unwrap().reduce(&s).unwrap();
        prop_assert_eq!(fused.to_bits(), eager.to_bits(), "fused vs eager, devices={}", devices);
        prop_assert_eq!(unfused.to_bits(), eager.to_bits(), "unfused vs eager");
        if devices == 1 {
            let mut acc: Option<f32> = None;
            for &x in &data {
                let y = x * x;
                acc = Some(match acc { None => y, Some(a) => a + y });
            }
            prop_assert_eq!(fused.to_bits(), acc.unwrap().to_bits(), "fused vs oracle");
        }
    }

    /// map∘scan fused is bit-identical to unfused and eager; on one device
    /// the sequential inclusive scan is the oracle.
    #[test]
    fn fused_map_scan_matches_unfused_eager_and_oracle(
        devices in 1usize..=4,
        dist in 0usize..4,
        data in prop::collection::vec(-10.0f32..10.0, 1..96),
    ) {
        let rt = skelcl::init_gpus(devices);
        let v = Vector::from_vec(&rt, data.clone());
        apply_distribution(&v, dist, devices);
        let sq = square();
        let p = psum();
        let plan = v.lazy().map(&sq).scan(&p);
        let fused = plan.collect().unwrap();
        let unfused = plan.clone().policy(FusionPolicy::Never).collect().unwrap();
        let eager = v.map(&sq).unwrap().scan(&p).unwrap().to_vec().unwrap();
        prop_assert_eq!(bits(&fused), bits(&eager), "fused vs eager, devices={}", devices);
        prop_assert_eq!(bits(&unfused), bits(&eager), "unfused vs eager");
        if devices == 1 {
            let mut acc: Option<f32> = None;
            let oracle: Vec<f32> = data.iter().map(|&x| {
                let y = x * x;
                let s = match acc { None => y, Some(a) => a + y };
                acc = Some(s);
                s
            }).collect();
            prop_assert_eq!(bits(&fused), bits(&oracle), "fused vs oracle");
        }
    }
}

/// The headline acceptance criterion: a 3-stage map∘map∘map pipeline at 1M
/// elements lowers to **exactly one kernel launch per device** with zero
/// intermediate containers, and the telemetry accounts for both.
#[test]
fn million_element_map_chain_is_one_launch_per_device() {
    for devices in [1usize, 2, 4] {
        let rt = skelcl::init_gpus(devices);
        let n = 1_000_000usize;
        let v = Vector::from_vec(&rt, (0..n).map(|i| (i % 97) as f32).collect());
        let sq = square();
        v.copy_data_to_devices().unwrap();
        rt.drain_events();
        let before = rt.exec_trace();
        let out = v.lazy().map(&sq).map(&sq).map(&sq).into_vector().unwrap();
        let events = rt.drain_events();
        let kernel_launches: Vec<usize> = events
            .iter()
            .map(|evs| evs.iter().filter(|e| e.is_kernel()).count())
            .collect();
        let active = v.sizes().iter().filter(|&&s| s > 0).count();
        assert_eq!(
            kernel_launches.iter().sum::<usize>(),
            active,
            "one fused launch per active device on {devices} device(s): {kernel_launches:?}"
        );
        let after = rt.exec_trace();
        assert_eq!(after.kernels_fused - before.kernels_fused, 2);
        assert_eq!(after.launches_elided - before.launches_elided, 2 * active);
        assert_eq!(
            after.intermediate_buffers_elided - before.intermediate_buffers_elided,
            2 * active
        );
        assert_eq!(
            after.intermediate_bytes_elided - before.intermediate_bytes_elided,
            2 * n * 4,
            "two elided f32 intermediates of {n} elements"
        );
        assert_eq!(out.len(), n);
    }
}

/// With `FusionPolicy::Never` the plan's accounting matches the eager path:
/// same skeleton-call count, one launch per stage per device, and no fusion
/// counters move.
#[test]
fn unfused_plan_accounting_matches_the_eager_path() {
    let rt = skelcl::init_gpus(2);
    let v = Vector::from_vec(&rt, (0..64).map(|i| i as f32).collect());
    let sq = square();
    v.copy_data_to_devices().unwrap();
    rt.drain_events();
    let before = rt.exec_trace();
    let plan = v.lazy().policy(FusionPolicy::Never).map(&sq).map(&sq);
    let out = plan.collect().unwrap();
    let after = rt.exec_trace();
    assert_eq!(after.skeleton_calls - before.skeleton_calls, 2);
    assert_eq!(after.kernels_fused, before.kernels_fused);
    assert_eq!(after.launches_elided, before.launches_elided);
    let events = rt.drain_events();
    let launches: usize = events
        .iter()
        .map(|evs| evs.iter().filter(|e| e.is_kernel()).count())
        .sum();
    assert_eq!(launches, 4, "two stages x two devices");
    assert_eq!(out.len(), 64);
}

/// Fused pipelines report one skeleton call per launch group.
#[test]
fn fused_plan_counts_one_skeleton_call_per_group() {
    let rt = skelcl::init_gpus(2);
    let v = Vector::from_vec(&rt, (0..64).map(|i| i as f32).collect());
    let sq = square();
    let s = sum();
    let before = rt.exec_trace();
    let _ = v
        .lazy()
        .policy(FusionPolicy::Auto)
        .map(&sq)
        .map(&sq)
        .reduce(&s)
        .scalar()
        .unwrap();
    let after = rt.exec_trace();
    assert_eq!(
        after.skeleton_calls - before.skeleton_calls,
        1,
        "map, map and reduce fused into one group"
    );
    assert_eq!(after.kernels_fused - before.kernels_fused, 2);
}

/// The simulator's check of the fusion pass's one rule, that every fusable
/// boundary fuses: on 1–4 devices each chain's fused plan takes no more
/// virtual time from upload to result than its `FusionPolicy::Never` twin,
/// and computes the same bits.
#[test]
fn a_fused_plan_is_never_slower_than_its_never_twin() {
    type Run = std::sync::Arc<SkelCl>;
    let n = 1 << 16;
    let data = |seed: usize| -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 37 + seed) % 251) as f32 * 0.125)
            .collect()
    };
    let (sq, af, m, s, p) = (square(), affine(), mul(), sum(), psum());
    let affine_args = || args![0.5f32, 1.0f32];
    let chains: [(&str, &dyn Fn(&Run, FusionPolicy) -> Vec<f32>); 5] = [
        ("map∘map", &|rt, policy| {
            let v = Vector::from_vec(rt, data(11)).lazy().policy(policy);
            v.map(&sq).map_with(&af, affine_args()).collect().unwrap()
        }),
        ("map∘map∘map", &|rt, policy| {
            let v = Vector::from_vec(rt, data(13)).lazy().policy(policy);
            let plan = v.map(&sq).map_with(&af, affine_args()).map(&sq);
            plan.collect().unwrap()
        }),
        ("zip∘map", &|rt, policy| {
            let w = Vector::from_vec(rt, data(17));
            let v = Vector::from_vec(rt, data(19)).lazy().policy(policy);
            v.zip(&w, &m).map(&sq).collect().unwrap()
        }),
        ("map∘reduce", &|rt, policy| {
            let v = Vector::from_vec(rt, data(23)).lazy().policy(policy);
            vec![v.map(&sq).reduce(&s).scalar().unwrap()]
        }),
        ("map∘scan", &|rt, policy| {
            let v = Vector::from_vec(rt, data(29)).lazy().policy(policy);
            v.map(&sq).scan(&p).collect().unwrap()
        }),
    ];
    for (name, chain) in chains {
        for devices in 1..=4 {
            let rt = skelcl::init_gpus(devices);
            // Build both lowerings' programs outside the timed runs.
            chain(&rt, FusionPolicy::Auto);
            chain(&rt, FusionPolicy::Never);
            let timed = |policy| {
                let t0 = rt.finish_all();
                let out = chain(&rt, policy);
                (rt.finish_all() - t0, bits(&out))
            };
            let (fused, fused_bits) = timed(FusionPolicy::Auto);
            let (split, split_bits) = timed(FusionPolicy::Never);
            assert_eq!(fused_bits, split_bits, "{name} on {devices} device(s)");
            assert!(
                fused <= split,
                "{name} on {devices} device(s): fused {fused:?} > unfused {split:?}"
            );
        }
    }
}

/// Empty containers fail with `EmptyInput` from every terminal, exactly like
/// the eager skeletons.
#[test]
fn empty_containers_error_on_every_terminal() {
    for devices in 1usize..=4 {
        let rt = skelcl::init_gpus(devices);
        let v: Vector<f32> = Vector::from_vec(&rt, vec![]);
        let sq = square();
        let s = sum();
        let p = psum();
        assert!(matches!(
            v.lazy().map(&sq).into_vector(),
            Err(SkelError::EmptyInput)
        ));
        assert!(matches!(
            v.lazy().map(&sq).collect(),
            Err(SkelError::EmptyInput)
        ));
        assert!(matches!(
            v.lazy().map(&sq).reduce(&s).scalar(),
            Err(SkelError::EmptyInput)
        ));
        assert!(matches!(
            v.lazy().scan(&p).exec(),
            Err(SkelError::EmptyInput)
        ));
    }
}

/// Build-time validation: length mismatches, native closures, argument
/// arity and a terminal on a stage-less plan all surface clear errors.
#[test]
fn plan_builders_validate_stages() {
    let rt = skelcl::init_gpus(2);
    let v = Vector::from_vec(&rt, vec![1.0f32; 8]);
    let w = Vector::from_vec(&rt, vec![1.0f32; 7]);
    let m = mul();
    assert!(matches!(
        v.lazy().zip(&w, &m).into_vector(),
        Err(SkelError::LengthMismatch { left: 8, right: 7 })
    ));
    let native = Map::<f32, f32>::new(|x, _| *x + 1.0);
    assert!(matches!(
        v.lazy().map(&native).into_vector(),
        Err(SkelError::Plan(_))
    ));
    let af = affine();
    assert!(matches!(
        v.lazy().map(&af).into_vector(),
        Err(SkelError::UdfSignature(_))
    ));
    assert!(matches!(v.lazy().into_vector(), Err(SkelError::Plan(_))));
    // The first error poisons the plan: later stages do not mask it.
    let sq = square();
    assert!(matches!(
        v.lazy().map(&native).map(&sq).into_vector(),
        Err(SkelError::Plan(_))
    ));
}

/// Regression test for hygienic renaming: two stages defining the same
/// helper (with different bodies) fuse correctly, the results match the
/// unfused path bit-for-bit, and `explain` reports the renames.
#[test]
fn colliding_helper_names_are_hygienically_renamed() {
    let rt = skelcl::init_gpus(2);
    let v = Vector::from_vec(&rt, (0..32).map(|i| i as f32).collect());
    let a = Map::<f32, f32>::from_source(
        "float offset(float x) { return x + 1.0f; }\n\
         float func(float x) { return offset(x) * 2.0f; }",
    );
    let b = Map::<f32, f32>::from_source(
        "float offset(float x) { return x + 10.0f; }\n\
         float func(float x) { return offset(x) * 3.0f; }",
    );
    let plan = v.lazy().map(&a).map(&b);
    let fused = plan.collect().unwrap();
    let unfused = plan.clone().policy(FusionPolicy::Never).collect().unwrap();
    let oracle: Vec<f32> = (0..32)
        .map(|i| {
            let x = i as f32;
            let s0 = (x + 1.0) * 2.0;
            (s0 + 10.0) * 3.0
        })
        .collect();
    assert_eq!(
        bits(&fused),
        bits(&oracle),
        "each stage must use its own helper"
    );
    assert_eq!(bits(&unfused), bits(&oracle));
    let explain = plan.explain().unwrap();
    assert!(
        explain.contains("rename:") && explain.contains("`offset`"),
        "explain must surface the collision diagnostic:\n{explain}"
    );
    assert!(
        explain.contains("`func`"),
        "both colliding names get diagnostics:\n{explain}"
    );
}

/// `explain` renders the DAG and the per-boundary fusion verdicts without
/// executing anything.
#[test]
fn explain_renders_dag_and_fusion_decisions() {
    let rt = skelcl::init_gpus(2);
    let v = Vector::from_vec(&rt, vec![1.0f32; 1024]);
    let w = Vector::from_vec(&rt, vec![2.0f32; 1024]);
    let m = mul();
    let s = sum();
    let before = rt.exec_trace();
    let plan = v.lazy().zip(&w, &m).reduce(&s);
    let text = plan.explain().unwrap();
    assert!(text.contains("Plan:"), "{text}");
    assert!(text.contains("zip("), "{text}");
    assert!(text.contains("reduce("), "{text}");
    assert!(text.contains("After fusion: 1 launch group(s)"), "{text}");
    assert!(text.contains("SKELCL_FUSED_REDUCE"), "{text}");
    assert!(text.contains("boundary before %3: fuse\n"), "{text}");
    let after = rt.exec_trace();
    assert_eq!(
        before.skeleton_calls, after.skeleton_calls,
        "explain must not execute"
    );
    // Never-policy rendering shows forced splits.
    let split = plan.clone().policy(FusionPolicy::Never).explain().unwrap();
    assert!(
        split.contains("boundary before %3: split (policy Never)"),
        "{split}"
    );
    assert!(split.contains("After fusion: 2 launch group(s)"), "{split}");
}

/// A plan is re-executable: running the same terminal twice gives the same
/// result.
#[test]
fn plans_are_re_executable() {
    let rt = skelcl::init_gpus(2);
    let v = Vector::from_vec(&rt, (0..64).map(|i| i as f32).collect());
    let sq = square();
    let plan = v.lazy().map(&sq).map(&sq);
    let first = plan.collect().unwrap();
    let second = plan.collect().unwrap();
    assert_eq!(bits(&first), bits(&second));
}

/// Fused pipelines work for f64 and i32 element types too.
#[test]
fn fused_pipelines_support_other_scalar_types() {
    let rt = skelcl::init_gpus(2);
    let v = Vector::from_vec(&rt, (1..=32).map(f64::from).collect::<Vec<f64>>());
    let half = Map::<f64, f64>::from_source("double func(double x) { return x * 0.5; }");
    let sumd = Reduce::<f64>::from_source("double func(double a, double b) { return a + b; }");
    let total = v.lazy().map(&half).reduce(&sumd).scalar().unwrap();
    let eager = v.map(&half).unwrap().reduce(&sumd).unwrap();
    assert_eq!(total.to_bits(), eager.to_bits());

    let w = Vector::from_vec(&rt, (0..32).collect::<Vec<i32>>());
    let twice = Map::<i32, i32>::from_source("int func(int x) { return x * 2; }");
    let inc = Map::<i32, i32>::from_source("int func(int x) { return x + 1; }");
    let got = w.lazy().map(&twice).map(&inc).collect().unwrap();
    let oracle: Vec<i32> = (0..32).map(|x| x * 2 + 1).collect();
    assert_eq!(got, oracle);
}

/// A map stage may change the element type mid-pipeline; the fused kernel
/// carries the intermediate type through the chain.
#[test]
fn fused_chains_may_change_element_type() {
    let rt = skelcl::init_gpus(2);
    let v = Vector::from_vec(&rt, (0..16).map(|i| i as f32 + 0.75).collect::<Vec<f32>>());
    let floor = Map::<f32, i32>::from_source("int func(float x) { return (int)x; }");
    let twice = Map::<i32, i32>::from_source("int func(int x) { return x * 2; }");
    let plan = v.lazy().map(&floor).map(&twice);
    let fused = plan.collect().unwrap();
    let unfused = plan.clone().policy(FusionPolicy::Never).collect().unwrap();
    let oracle: Vec<i32> = (0..16).map(|i| (i as f32 + 0.75) as i32 * 2).collect();
    assert_eq!(fused, oracle);
    assert_eq!(unfused, oracle);
}

/// Scan works mid-pipeline: stages before it fuse into its first phase,
/// stages after it form a new group.
#[test]
fn scan_in_the_middle_of_a_pipeline() {
    let rt = skelcl::init_gpus(3);
    let v = Vector::from_vec(&rt, (1..=48).map(|i| i as f32).collect::<Vec<f32>>());
    let sq = square();
    let p = psum();
    let plan = v.lazy().map(&sq).scan(&p).map(&sq);
    let fused = plan.collect().unwrap();
    let unfused = plan.clone().policy(FusionPolicy::Never).collect().unwrap();
    let eager = v
        .map(&sq)
        .unwrap()
        .scan(&p)
        .unwrap()
        .map(&sq)
        .unwrap()
        .to_vec()
        .unwrap();
    assert_eq!(bits(&fused), bits(&eager));
    assert_eq!(bits(&unfused), bits(&eager));
}

/// Additional scalar arguments flow into the fused kernel, one extras block
/// per stage, in stage order.
#[test]
fn additional_arguments_reach_their_stages_after_fusion() {
    let rt = skelcl::init_gpus(2);
    let v = Vector::from_vec(&rt, (0..32).map(|i| i as f32).collect::<Vec<f32>>());
    let af = affine();
    let plan = v
        .lazy()
        .map_with(&af, args![2.0f32, 1.0f32])
        .map_with(&af, args![0.5f32, -3.0f32]);
    let fused = plan.collect().unwrap();
    let unfused = plan.clone().policy(FusionPolicy::Never).collect().unwrap();
    let oracle: Vec<f32> = (0..32)
        .map(|i| {
            let x = i as f32;
            let a = 2.0f32 * x + 1.0f32;
            0.5f32 * a + -3.0f32
        })
        .collect();
    assert_eq!(bits(&fused), bits(&oracle));
    assert_eq!(bits(&unfused), bits(&oracle));
}

/// The matrix plan fuses adjacent map stages into one composed kernel and
/// treats stencil stages as barriers; results are bit-identical to the
/// eager sequence.
#[test]
fn matrix_plan_fuses_maps_and_respects_stencil_barriers() {
    let rt = skelcl::init_gpus(2);
    let m = Matrix::from_fn(&rt, 8, 6, |r, c| (r * 6 + c) as f32);
    let sq = square();
    let inc = Map::<f32, f32>::from_source("float func(float x) { return x + 1.0f; }");
    let blur = MapOverlap::<f32, f32>::from_source(
        "float func(float c) { return (get(0, -1) + c + get(0, 1)) / 3.0f; }",
    )
    .with_halo(1);
    let plan = m.lazy().map(&sq).map(&inc).map_overlap(&blur).map(&inc);
    let fused = plan.exec().unwrap().to_vec().unwrap();
    let eager = {
        let a = m.map(&sq).unwrap();
        let b = a.map(&inc).unwrap();
        let c = blur.run(&b).exec().unwrap();
        c.map(&inc).unwrap().to_vec().unwrap()
    };
    assert_eq!(bits(&fused), bits(&eager));
    let text = plan.explain().unwrap();
    assert!(text.contains("map_overlap"), "{text}");
    assert!(text.contains("After fusion: 3 launch group(s)"), "{text}");
}

/// The matrix plan's fusion telemetry moves only when stages actually fuse.
#[test]
fn matrix_plan_accounts_fusion_telemetry() {
    let rt = skelcl::init_gpus(2);
    let m = Matrix::from_fn(&rt, 8, 8, |r, c| (r + c) as f32);
    let sq = square();
    let before = rt.exec_trace();
    let _ = m.lazy().map(&sq).map(&sq).exec().unwrap();
    let after = rt.exec_trace();
    assert_eq!(after.kernels_fused - before.kernels_fused, 1);
    assert!(after.intermediate_bytes_elided > before.intermediate_bytes_elided);
}

/// Non-commutative operators stay correct across device counts: the fused
/// reduce gathers partials in device order like the eager path.
#[test]
fn non_commutative_reduce_matches_eager_on_all_device_counts() {
    let weighted =
        Reduce::<f32>::from_source("float func(float a, float b) { return a * 0.5f + b; }");
    let sq = square();
    for devices in 1usize..=4 {
        let rt = skelcl::init_gpus(devices);
        let v = Vector::from_vec(&rt, (1..=37).map(|i| i as f32).collect::<Vec<f32>>());
        let plan = v.lazy().map(&sq).reduce(&weighted);
        let fused = plan.scalar().unwrap();
        let unfused = plan.clone().policy(FusionPolicy::Never).scalar().unwrap();
        let eager = v.map(&sq).unwrap().reduce(&weighted).unwrap();
        assert_eq!(fused.to_bits(), eager.to_bits(), "devices={devices}");
        assert_eq!(unfused.to_bits(), eager.to_bits(), "devices={devices}");
    }
}

/// Many partials per device, on random non-dyadic floats (every
/// re-association would show): map∘reduce and zip∘reduce are bit-identical
/// fused, unfused and eager — all three run the one reduce template through
/// the one launch → gather → host-fold path.
#[test]
fn fused_reductions_with_many_partials_match_unfused_and_eager_bitwise() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut random = |len: usize| -> Vec<f32> {
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as f32) / 1.3e6 - 6.1
            })
            .collect()
    };
    let (sq, m, s) = (square(), mul(), sum());
    for devices in 1usize..=4 {
        for len in [257usize, 1000, 16_385, 70_001] {
            for dist in 0..4 {
                let rt = skelcl::init_gpus(devices);
                let v = Vector::from_vec(&rt, random(len));
                let w = Vector::from_vec(&rt, random(len));
                apply_distribution(&v, dist, devices);
                let what = format!("devices={devices}, n={len}, dist={dist}");

                let plan = v.lazy().map(&sq).reduce(&s);
                let fused = plan.scalar().unwrap();
                let unfused = plan.clone().policy(FusionPolicy::Never).scalar().unwrap();
                let eager = v.map(&sq).unwrap().reduce(&s).unwrap();
                assert_eq!(fused.to_bits(), eager.to_bits(), "map∘reduce fused: {what}");
                assert_eq!(
                    unfused.to_bits(),
                    eager.to_bits(),
                    "map∘reduce unfused: {what}"
                );

                let plan = v.lazy().zip(&w, &m).reduce(&s);
                let fused = plan.scalar().unwrap();
                let unfused = plan.clone().policy(FusionPolicy::Never).scalar().unwrap();
                let eager = v.zip(&w, &m).unwrap().reduce(&s).unwrap();
                assert_eq!(fused.to_bits(), eager.to_bits(), "zip∘reduce fused: {what}");
                assert_eq!(
                    unfused.to_bits(),
                    eager.to_bits(),
                    "zip∘reduce unfused: {what}"
                );
            }
        }
    }
}

/// An eager call and the one-stage plan group of the same skeleton are one
/// lowering: the eager call's memo entry — and its built program — serve the
/// plan, for every skeleton kind, and the results are bit-identical.
#[test]
fn eager_calls_and_one_stage_plans_share_one_lowering_and_one_program() {
    type Pair = fn(&Vector<f32>, &Vector<f32>) -> (Vec<f32>, Vec<f32>);
    let cases: [(&str, Pair); 4] = [
        ("map", |v, _| {
            let f = square();
            let eager = f.run(v).exec().unwrap().to_vec().unwrap();
            (eager, v.lazy().map(&f).collect().unwrap())
        }),
        ("zip", |v, w| {
            let f = mul();
            let eager = f.run(v, w).exec().unwrap().to_vec().unwrap();
            (eager, v.lazy().zip(w, &f).collect().unwrap())
        }),
        ("reduce", |v, _| {
            let f = sum();
            let eager = f.run(v).exec().unwrap();
            (vec![eager], vec![v.lazy().reduce(&f).scalar().unwrap()])
        }),
        ("scan", |v, _| {
            let f = psum();
            let eager = f.run(v).exec().unwrap().to_vec().unwrap();
            (eager, v.lazy().scan(&f).collect().unwrap())
        }),
    ];
    for (name, run) in cases {
        let rt = skelcl::init_gpus(2);
        let v = Vector::from_vec(&rt, (0..300).map(|i| i as f32 * 0.37 - 40.0).collect());
        let w = Vector::from_vec(&rt, vec![1.5f32; 300]);
        let (eager, lazy) = run(&v, &w);
        assert_eq!(bits(&eager), bits(&lazy), "{name}");
        let trace = rt.exec_trace();
        assert_eq!(trace.programs_built, 1, "{name}: one program");
        assert_eq!(trace.plan_lowerings, 1, "{name}: lowered by the eager call");
        assert!(
            trace.plan_lowering_hits >= 1,
            "{name}: the plan hit the memo"
        );
    }
}

/// A matrix plan lowers like a vector plan — through the runtime's memo —
/// so running it a hundred times lowers its group once and builds one
/// program, and its `explain()` reports the helper names that collided.
#[test]
fn matrix_plans_lower_once_and_report_renames() {
    let rt = skelcl::init_gpus(2);
    let m = Matrix::from_fn(&rt, 8, 8, |r, c| (r * 8 + c) as f32);
    let inc = Map::<f32, f32>::from_source(
        "float offset(float x) { return x + 1.0f; }\nfloat func(float x) { return offset(x); }",
    );
    let dec = Map::<f32, f32>::from_source(
        "float offset(float x) { return x - 2.0f; }\nfloat func(float x) { return offset(x); }",
    );
    let plan = m.lazy().map(&inc).map(&dec);
    let expected: Vec<f32> = (0..64).map(|i| i as f32 + 1.0 - 2.0).collect();
    for _ in 0..100 {
        assert_eq!(plan.exec().unwrap().to_vec().unwrap(), expected);
    }
    let trace = rt.exec_trace();
    assert_eq!((trace.plan_lowerings, trace.plan_lowering_hits), (1, 99));
    assert_eq!(trace.programs_built, 1);
    let text = plan.explain().unwrap();
    assert!(text.contains("SKELCL_FUSED_MAP over %1, %2"), "{text}");
    assert!(
        text.contains("rename:") && text.contains("`offset`") && text.contains("`func`"),
        "matrix explain must surface the collision diagnostics:\n{text}"
    );
    // The same stages over a vector are the same memo entry.
    let v = Vector::from_vec(&rt, vec![1.0f32; 16]);
    v.lazy().map(&inc).map(&dec).collect().unwrap();
    let after = rt.exec_trace();
    assert_eq!((after.plan_lowerings, after.programs_built), (1, 1));
}

/// Coalescing signatures are the plan's shape identity plus its scalar
/// argument values: equal UDF text shares a signature whichever skeleton
/// instance carried it; another UDF, argument value, element type or runtime
/// does not; folds have none.
#[test]
fn coalesce_signatures_identify_packable_plans() {
    let rt = skelcl::init_gpus(1);
    let af = affine();
    let v = Vector::from_vec(&rt, vec![1.0f32, 2.0]);
    let w = Vector::from_vec(&rt, vec![3.0f32, 4.0, 5.0]);
    let sig = |plan: &PlanVec<f32>| plan.coalesce_signature().unwrap().unwrap();

    let plan = v.lazy().map(&square());
    let a = sig(&plan);
    let b = sig(&w.lazy().map(&square()));
    assert_eq!(a, b, "same source, two skeleton instances, other lengths");
    assert_eq!(a, sig(&plan.clone()), "clones share the signature");

    let c = sig(&v.lazy().map_with(&af, args![2.0f32, 1.0f32]));
    let d = sig(&v.lazy().map_with(&af, args![3.0f32, 1.0f32]));
    assert_ne!(a, c, "different kernels differ");
    assert_eq!(c, d, "scalar arguments are per-job data");
    assert_eq!(c, sig(&w.lazy().map_with(&af, args![2.0f32, 1.0f32])));
    let zero = sig(&v.lazy().map_with(&af, args![0.0f32, 1.0f32]));
    let neg_zero = sig(&v.lazy().map_with(&af, args![-0.0f32, 1.0f32]));
    assert_eq!(zero, neg_zero, "-0.0 is a value of the job's, not a kernel");

    // Float literals are lifted: UDFs that differ only in them share.
    let scaled = |k: f32| {
        Map::<f32, f32>::from_source(&format!("float func(float x) {{ return x * {k:?}f; }}"))
    };
    let f = sig(&v.lazy().map(&scaled(2.5)));
    assert_eq!(
        f,
        sig(&w.lazy().map(&scaled(0.0))),
        "literal values are per-job data"
    );
    assert_ne!(a, f, "another lifted text");

    let ints = Vector::from_vec(&rt, vec![1i32, 2]);
    let isq = Map::<i32, i32>::from_source("int func(int x) { return x * x; }");
    let e = ints.lazy().map(&isq).coalesce_signature().unwrap().unwrap();
    assert_ne!(a, e, "different element types differ");

    let other = skelcl::init_gpus(1);
    let foreign = Vector::from_vec(&other, vec![1.0f32, 2.0]);
    assert_ne!(a, sig(&foreign.lazy().map(&square())), "other runtime");

    // Equal signatures hash alike: they key the serving layer's tallies.
    let set: std::collections::HashSet<_> =
        [a, b, c, d, zero, neg_zero, e, f].into_iter().collect();
    assert_eq!(set.len(), 4);

    assert!(
        v.lazy().map(&square()).reduce(&sum()).scalar().is_ok(),
        "folds still run"
    );
    assert_eq!(
        v.lazy().scan(&psum()).coalesce_signature().unwrap(),
        None,
        "folds never coalesce"
    );
    // Four packed elementwise shapes (square, affine, int square, the
    // lifted scale) and the fused map∘reduce were lowered on `rt`; every
    // other request hit the memo. (No eager call above: those would count
    // too, as one-stage shapes.)
    let trace = rt.exec_trace();
    assert_eq!(trace.plan_lowerings, 5);
    assert_eq!(trace.plan_lowering_hits, 7);
}

/// A reduction's signature is a vector plan's — shape and argument bits —
/// plus the input length; the chain and its reduce are one memo entry, and
/// a scan ahead of the reduce leaves the plan without a signature.
#[test]
fn reduction_signatures_add_the_length() {
    let rt = skelcl::init_gpus(1);
    let af = affine();
    let v = Vector::from_vec(&rt, vec![1.0f32; 64]);
    let w = Vector::from_vec(&rt, vec![2.0f32; 64]);
    let longer = Vector::from_vec(&rt, vec![1.0f32; 65]);
    let sig = |plan: &PlanScalar<f32>| plan.coalesce_signature().unwrap().unwrap();

    let a = sig(&v.lazy().map(&square()).reduce(&sum()));
    assert_eq!(a, sig(&w.lazy().map(&square()).reduce(&sum())));
    assert_ne!(
        a,
        sig(&longer.lazy().map(&square()).reduce(&sum())),
        "length"
    );
    assert_ne!(a, sig(&v.lazy().reduce(&sum())), "another chain");
    let last = Reduce::<f32>::from_source("float func(float a, float b) { return b; }");
    assert_ne!(a, sig(&v.lazy().map(&square()).reduce(&last)), "operator");
    let chain = v
        .lazy()
        .map(&square())
        .coalesce_signature()
        .unwrap()
        .unwrap();
    assert_ne!(a, chain, "a reduction never equals its elementwise chain");
    let c = sig(&v.lazy().map_with(&af, args![0.0f32, 1.0f32]).reduce(&sum()));
    let d = sig(&v
        .lazy()
        .map_with(&af, args![-0.0f32, 1.0f32])
        .reduce(&sum()));
    assert_eq!(c, d, "argument values are per-job data");
    let scanned = v.lazy().scan(&psum()).map(&square()).reduce(&sum());
    assert_eq!(scanned.coalesce_signature().unwrap(), None);

    // square→sum, the bare sum, square→last, square alone, affine→sum: the
    // packed reduce is the only reduce lowering a signature asks for.
    assert_eq!(rt.exec_trace().plan_lowerings, 5);
    assert_eq!(
        rt.exec_trace().programs_built,
        0,
        "signatures build nothing"
    );
}

/// Every job of `plans` packed into one launch gives the bits its plan
/// collects alone.
fn packs_like_collect<T: skelcl::DeviceScalar>(plans: &[PlanVec<T>], bits: fn(&T) -> u64) {
    let expected: Vec<Vec<u64>> = plans
        .iter()
        .map(|p| p.collect().unwrap().iter().map(bits).collect())
        .collect();
    let refs: Vec<_> = plans.iter().collect();
    let (got, _) = PlanVec::pack_jobs(&refs, 1).unwrap().wait().unwrap();
    let got: Vec<Vec<u64>> = got.iter().map(|j| j.iter().map(bits).collect()).collect();
    assert_eq!(got, expected);
}

/// A packed launch binds each job's scalar arguments and lifted literals
/// from its job table, whatever their types and wherever the table rides:
/// `int` and `float` values in the `float` input, a `float` literal in the
/// `int` input, `double` arguments in the `double` input and that input's
/// `float` literal in a table buffer of its own — over jobs of unequal
/// lengths (the job search) and of one length (the division).
#[test]
fn packed_jobs_bind_each_jobs_values_whatever_their_types() {
    let rt = skelcl::init_gpus(2);
    let f32_bits = |x: &f32| u64::from(x.to_bits());
    let scaled = Map::<f32, f32>::from_source(
        "float func(float x, int k, float s) { return x * (float) k + s * 0.25f; }",
    );
    for lens in [[3usize, 5, 1, 4], [4, 4, 4, 4]] {
        let plans: Vec<_> = lens
            .iter()
            .zip([(2, -0.0f32), (-7, 1.5), (0, f32::MAX), (3, -2.0)])
            .map(|(&len, (k, s))| {
                let v = Vector::from_vec(&rt, (0..len).map(|i| i as f32 - 1.5).collect());
                v.lazy().map_with(&scaled, args![k, s])
            })
            .collect();
        packs_like_collect(&plans, f32_bits);
    }
    let ints: Vec<_> = (0..3)
        .map(|k| {
            Map::<i32, i32>::from_source(&format!(
                "int func(int x) {{ return (int) (x * {k}.5f) + 1; }}"
            ))
        })
        .collect();
    let plans: Vec<_> = (0..3)
        .map(|j| {
            Vector::from_vec(&rt, vec![j - 3, 7, j])
                .lazy()
                .map(&ints[j as usize])
        })
        .collect();
    packs_like_collect(&plans, |x: &i32| u64::from(*x as u32));
    let doubles =
        Map::<f64, f64>::from_source("double func(double x, double s) { return x * s + 0.1; }");
    let plans: Vec<_> = [0.1f64, -0.0, 1e300]
        .into_iter()
        .enumerate()
        .map(|(j, s)| {
            let v = Vector::from_vec(&rt, vec![1.0 / 3.0, j as f64, -2.5][..j + 1].to_vec());
            v.lazy().map_with(&doubles, args![s])
        })
        .collect();
    packs_like_collect(&plans, |x: &f64| x.to_bits());
}

/// A packed launch of reductions gives every job the bits `scalar()` gives
/// it on a one-device runtime — below and above the one-partial geometry, on
/// whichever device of a larger runtime, in whatever batch.
#[test]
fn packed_reductions_match_a_one_device_scalar_bitwise() {
    let rt = skelcl::init_gpus(3);
    let one = skelcl::init_gpus(1);
    let (af, add) = (affine(), sum());
    for len in [1usize, 64, 511, 512, 1000, 4096] {
        let data = |job: usize| -> Vec<f32> {
            (0..len)
                .map(|i| ((i * 37 + job * 11) % 101) as f32 * 1.0e-3 + (i % 3) as f32 * 1.0e4)
                .collect()
        };
        let plan_on = |rt: &std::sync::Arc<skelcl::SkelCl>, job: usize| {
            Vector::from_vec(rt, data(job))
                .lazy()
                .map_with(&af, args![0.75f32, -3.0f32])
                .reduce(&add)
        };
        let plans: Vec<_> = (0..5).map(|job| plan_on(&rt, job)).collect();
        let expected: Vec<u32> = (0..5)
            .map(|job| plan_on(&one, job).scalar().unwrap().to_bits())
            .collect();
        let refs: Vec<&_> = plans.iter().collect();
        for (device, batch) in [(0, 0..5), (2, 0..1), (1, 3..5)] {
            let packed = PlanScalar::pack_jobs(&refs[batch.clone()], device).unwrap();
            assert_eq!((packed.jobs(), packed.device()), (batch.len(), device));
            assert_eq!(
                packed.spans().total(),
                batch.len() * skelcl::reduce_partials(len),
                "one partial per chunk a lone reduction of the job folds"
            );
            let (got, _) = packed.wait().unwrap();
            let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, expected[batch], "len {len}, device {device}");
        }
    }
    // One write, one launch, one read per batch — nothing per job.
    rt.drain_events();
    let plans: Vec<_> = (0..4)
        .map(|_| Vector::from_vec(&rt, vec![1.5f32; 700]).lazy().reduce(&add))
        .collect();
    let packed = PlanScalar::pack_jobs(&plans.iter().collect::<Vec<_>>(), 1).unwrap();
    assert_eq!(packed.wait().unwrap().0, vec![1050.0f32; 4]);
    let events = rt.drain_events();
    assert_eq!(events[1].len(), 3, "{:?}", events[1]);
    assert!(events[0].is_empty() && events[2].is_empty());
}

/// A packed launch of N jobs is bit-identical, job by job, to running each
/// plan on its own — and a single-job pack equals `collect()` exactly.
#[test]
fn packed_jobs_match_individual_execution_bitwise() {
    let rt = skelcl::init_gpus(2);
    let sq = square();
    let m = mul();
    let plans: Vec<_> = (1..=5u32)
        .map(|k| {
            let n = 3 * k as usize + 1;
            let v = Vector::from_vec(&rt, (0..n).map(|i| (i as f32) + k as f32 * 0.5).collect());
            let w = Vector::from_vec(&rt, vec![1.5f32; n]);
            v.lazy().map(&sq).zip(&w, &m)
        })
        .collect();

    let expected: Vec<Vec<f32>> = plans.iter().map(|p| p.collect().unwrap()).collect();

    let refs: Vec<&_> = plans.iter().collect();
    let packed = PlanVec::pack_jobs(&refs, 0).unwrap();
    assert_eq!(packed.jobs(), 5);
    let (outputs, event) = packed.wait().unwrap();
    assert!(event.end >= event.start);
    for (out, exp) in outputs.iter().zip(&expected) {
        assert_eq!(bits(out), bits(exp));
    }

    let single = PlanVec::pack_jobs(&refs[..1], 1).unwrap();
    let (one, _) = single.wait().unwrap();
    assert_eq!(bits(&one[0]), bits(&expected[0]));
}

/// Packing rejects mixed signatures and mixed runtimes.
#[test]
fn pack_jobs_rejects_incompatible_jobs() {
    let rt = skelcl::init_gpus(1);
    let v = Vector::from_vec(&rt, vec![1.0f32, 2.0]);
    let a = v.lazy().map(&square());
    let cube = Map::<f32, f32>::from_source("float func(float x) { return x * x * x; }");
    let b = v.lazy().map(&cube);
    assert!(matches!(
        PlanVec::pack_jobs(&[&a, &b], 0),
        Err(SkelError::Plan(_))
    ));

    let other = skelcl::init_gpus(1);
    let w = Vector::from_vec(&other, vec![1.0f32, 2.0]);
    let c = w.lazy().map(&square());
    assert!(matches!(
        PlanVec::pack_jobs(&[&a, &c], 0),
        Err(SkelError::RuntimeMismatch)
    ));

    assert!(PlanVec::<f32>::pack_jobs(&[], 0).is_err());

    // Reductions pack per length, and not at all behind a scan or empty.
    let longer = Vector::from_vec(&rt, vec![1.0f32, 2.0, 3.0]);
    let (short, long) = (v.lazy().reduce(&sum()), longer.lazy().reduce(&sum()));
    assert!(matches!(
        PlanScalar::pack_jobs(&[&short, &long], 0),
        Err(SkelError::Plan(_))
    ));
    let scanned = v.lazy().scan(&psum()).reduce(&sum());
    assert!(matches!(
        PlanScalar::pack_jobs(&[&scanned], 0),
        Err(SkelError::Plan(_))
    ));
    let empty = Vector::from_vec(&rt, Vec::<f32>::new());
    assert!(matches!(
        PlanScalar::pack_jobs(&[&empty.lazy().reduce(&sum())], 0),
        Err(SkelError::EmptyInput)
    ));
    assert_eq!(rt.context().device(0).unwrap().live_buffers(), 0);
}

/// A container may be bound twice in one call — `zip(&v, &v)`, or `‖v‖²` as
/// `zip(&v, &v) → reduce`: eager (vector and matrix), as an unfused and as a
/// fused plan, and as a packed batch of one, all return `x ∘ x` bit for bit.
/// The device model refuses one buffer on two kernel arguments, so the
/// prepare stage binds the repeated input through a per-device scratch copy
/// that its attempt releases again.
#[test]
fn a_container_zipped_with_itself_is_x_times_x_on_every_path() {
    let (m, s) = (mul(), sum());
    for devices in [1usize, 2, 4] {
        let rt = skelcl::init_gpus(devices);
        let x: Vec<f32> = (0..96).map(|i| i as f32 * 0.37 - 11.0).collect();
        let squares = bits(&x.iter().map(|x| x * x).collect::<Vec<_>>());
        let v = Vector::from_vec(&rt, x.clone());
        let mat = Matrix::from_vec(&rt, 12, 8, x).unwrap();
        let what = format!("{devices} device(s)");

        let eager = m.run(&v, &v).exec().unwrap();
        assert_eq!(bits(&eager.to_vec().unwrap()), squares, "{what}");
        let handle = m.run(&v, &v.clone()).exec().unwrap();
        assert_eq!(bits(&handle.to_vec().unwrap()), squares, "{what}");
        let matrix = m.run(&mat, &mat).exec().unwrap();
        assert_eq!(bits(&matrix.to_vec().unwrap()), squares, "{what}");
        drop((eager, handle, matrix));

        let norm = v.zip(&v, &m).unwrap().reduce(&s).unwrap();
        for policy in [FusionPolicy::Never, FusionPolicy::Auto] {
            let plan = v.lazy().policy(policy).zip(&v, &m);
            assert_eq!(bits(&plan.collect().unwrap()), squares, "{what}");
            let fused = plan.reduce(&s).scalar().unwrap();
            assert_eq!(fused.to_bits(), norm.to_bits(), "{what}, {policy:?}");
        }
        let packed = PlanVec::pack_jobs(&[&v.lazy().zip(&v, &m)], devices - 1).unwrap();
        assert_eq!(bits(&packed.wait().unwrap().0[0]), squares, "{what}");

        assert!(rt.take_deferred_errors().is_empty(), "{what}");
        drop((v, mat));
        for d in 0..devices {
            let live = rt.context().device(d).unwrap().live_buffers();
            assert_eq!(live, 0, "{what}: device {d} keeps {live} buffer(s)");
        }
    }
}

/// The sources of a plan are live containers: lengths that agreed when `zip`
/// was appended may not when the plan runs. Both run paths check again and
/// fail like the eager zip — before anything is charged or enqueued — and
/// the plan runs once the lengths agree again.
#[test]
fn plan_sources_are_revalidated_when_the_plan_runs() {
    let rt = skelcl::init_gpus(2);
    let v = Vector::from_vec(&rt, vec![1.0f32, 2.0, 3.0, 4.0]);
    let w = Vector::from_vec(&rt, vec![10.0f32; 4]);
    let m = mul();
    let plan = v.lazy().zip(&w, &m);
    w.update_host(|h| h.truncate(2)).unwrap();
    rt.finish_all();
    rt.drain_events();
    let before = (rt.now(), rt.exec_trace());
    let mismatch = SkelError::LengthMismatch { left: 4, right: 2 };
    assert_eq!(m.run(&v, &w).exec().err(), Some(mismatch.clone()));
    let before_plan = (rt.now(), rt.exec_trace().skeleton_calls);
    assert_eq!(plan.collect().err(), Some(mismatch.clone()));
    assert_eq!(
        plan.clone().reduce(&sum()).scalar().err(),
        Some(mismatch.clone())
    );
    assert_eq!(PlanVec::pack_jobs(&[&plan], 0).err(), Some(mismatch));
    assert_eq!((rt.now(), rt.exec_trace().skeleton_calls), before_plan);
    assert_eq!(rt.exec_trace().kernels_fused, before.1.kernels_fused);
    assert!(rt.drain_events().iter().all(Vec::is_empty));
    assert!(rt.take_deferred_errors().is_empty());

    w.update_host(|h| h.resize(4, 10.0)).unwrap();
    assert_eq!(plan.collect().unwrap(), [10.0, 20.0, 30.0, 40.0]);
    let packed = PlanVec::pack_jobs(&[&plan], 1).unwrap();
    assert_eq!(packed.wait().unwrap().0[0], [10.0, 20.0, 30.0, 40.0]);
}

/// The plan handles are one struct, `Plan<T, K>`; the names code was written
/// against — `PlanVec`, `PlanScalar`, `MatPlan`, `PackedLaunch` — stay, from
/// the crate root and from the prelude, as does `pack_jobs` by path.
#[test]
fn plan_handles_keep_their_public_names() {
    fn vec_len(plan: &skelcl::PlanVec<f32>) -> usize {
        plan.input_len()
    }
    fn scalar_len(plan: &skelcl::PlanScalar<f32>) -> usize {
        plan.input_len()
    }
    fn mat_text(plan: &skelcl::MatPlan) -> String {
        plan.explain().unwrap()
    }
    fn value(launch: skelcl::PackedLaunch<f32, f32>) -> f32 {
        launch.wait().unwrap().0[0]
    }
    fn prelude_names(
        a: &skelcl::prelude::PlanVec<f32>,
        b: &skelcl::prelude::PlanScalar<f32>,
        c: &skelcl::prelude::MatPlan,
    ) -> (usize, usize, usize) {
        (a.input_len(), b.input_len(), c.input_len())
    }
    fn elements(launch: skelcl::prelude::PackedLaunch<f32>) -> Vec<Vec<f32>> {
        launch.wait().unwrap().0
    }
    let rt = skelcl::init_gpus(1);
    let v = Vector::from_vec(&rt, vec![1.0f32, 2.0, 3.0]);
    let m = Matrix::from_fn(&rt, 2, 2, |r, c| (r + c) as f32);
    let (vec_plan, scalar_plan) = (v.lazy().map(&square()), v.lazy().reduce(&sum()));
    let mat_plan = m.lazy().map(&square());
    assert_eq!((vec_len(&vec_plan), scalar_len(&scalar_plan)), (3, 3));
    assert!(mat_text(&mat_plan).contains("1 matrix (2x2)"));
    assert_eq!(prelude_names(&vec_plan, &scalar_plan, &mat_plan), (3, 3, 4));
    assert_eq!(
        value(skelcl::PlanScalar::pack_jobs(&[&scalar_plan], 0).unwrap()),
        6.0
    );
    let packed = skelcl::PlanVec::pack_jobs(&[&vec_plan], 0).unwrap();
    assert_eq!(elements(packed), [[1.0, 4.0, 9.0]]);
}
