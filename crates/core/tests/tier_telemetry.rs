//! End-to-end checks of the kernel-tier plumbing: `SkelCl::set_kernel_tier`
//! reaches already-cached programs, per-device tier counters surface in
//! `ExecTrace` (launches per tier, replayed, bailed and masked batches),
//! results are identical across tiers, and `Plan::explain` renders the tier
//! decision and the counters.

use skelcl::oclsim::{KernelArg, LaunchTrace, TierSnapshot};
use skelcl::skeletons::{Map, MapOverlap};
use skelcl::vector::Vector;
use skelcl::Tier;
use skelcl::{Boundary, DeviceTrace, ExecTrace, Matrix};

const SQUARE: &str = "float func(float x) { return x * x; }";

fn run_map(rt: &std::sync::Arc<skelcl::SkelCl>, n: usize) -> Vec<f32> {
    let square = Map::<f32, f32>::from_source(SQUARE);
    let data: Vec<f32> = (0..n).map(|i| (i % 31) as f32 * 0.5).collect();
    let v = Vector::from_vec(rt, data);
    v.map(&square).unwrap().to_vec().unwrap()
}

#[test]
fn forced_native_tier_is_counted_and_bit_identical() {
    let rt = skelcl::init_gpus(1);

    // The interpreter oracle, pinned, is the baseline.
    rt.set_kernel_tier(Tier::Interp);
    let baseline = run_map(&rt, 100);
    let t = rt.exec_trace();
    assert_eq!(t.interp_launches(), 1, "pinned launch uses the oracle");
    assert_eq!(t.native_launches(), 0);
    assert_eq!(t.native_compiles(), 0);

    // Pin the native tier. The program is already cached in the context, so
    // this must reach it through the shared tier state.
    rt.set_kernel_tier(Tier::Native);
    let native = run_map(&rt, 100);
    assert_eq!(
        baseline.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        native.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "native tier must be bit-identical to the oracle"
    );
    let t = rt.exec_trace();
    assert_eq!(t.native_launches(), 1, "pinned launch runs natively");
    assert_eq!(t.native_compiles(), 1, "first native launch compiles");
    assert!(t.native_compile_ns() > 0);

    // A second native launch reuses the compiled artifact.
    run_map(&rt, 100);
    let t = rt.exec_trace();
    assert_eq!(t.native_launches(), 2);
    assert_eq!(
        t.native_compiles(),
        1,
        "compilation happens once per kernel"
    );
}

#[test]
fn auto_tier_graduates_large_launches() {
    let rt = skelcl::init_gpus(1);
    // The default tier runs a kernel natively from its first launch,
    // whatever the launch size.
    run_map(&rt, 10_000);
    let t = rt.exec_trace();
    assert_eq!(t.native_launches(), 1, "first launch is native");
    assert_eq!(t.interp_launches(), 0);
    assert_eq!(t.native_compiles(), 1);
}

/// The default tier keeps a zip → reduce → scan pipeline on the native tier
/// from the first launch on: the element-wise zip, the reduce's 64
/// work-items of 4096 elements each, the host fold's and the scan's single
/// work-item.
#[test]
fn default_tier_runs_zip_reduce_scan_natively_from_the_first_launch() {
    use skelcl::skeletons::{Reduce, Scan, Zip};
    const ADD: &str = "float func(float a, float b) { return a + b; }";

    // A one-element vector first: every launch of the pipeline has exactly
    // one work-item, and all of them are already native.
    let rt = skelcl::init_gpus(1);
    let mul = Zip::<f32, f32, f32>::from_source("float func(float x, float y) { return x * y; }");
    let sum = Reduce::<f32>::from_source(ADD);
    let scan = Scan::<f32>::from_source(ADD);
    let one = Vector::from_vec(&rt, vec![3.0f32]);
    let other = Vector::from_vec(&rt, vec![3.0f32]);
    let p = mul.run(&one, &other).exec().unwrap();
    assert_eq!(sum.run(&p).scalar().unwrap(), 9.0);
    assert_eq!(scan.run(&p).exec().unwrap().to_vec().unwrap(), vec![9.0]);
    let t = rt.exec_trace();
    assert_eq!(t.native_launches(), 3, "{}", t.tier_line());
    assert_eq!(t.native_compiles(), 3, "{}", t.tier_line());

    let n = 1usize << 18;
    let x = Vector::from_vec(&rt, (0..n).map(|i| (i % 8) as f32 * 0.125).collect());
    let y = Vector::from_vec(&rt, (0..n).map(|i| (i % 5) as f32 * 0.25).collect());
    let p = mul.run(&x, &y).exec().unwrap();
    let (total, plan) = sum.run(&p).scalar_with_plan().unwrap();
    let prefix = scan.run(&p).exec().unwrap().to_vec().unwrap();
    assert_eq!(plan.intermediate_results, 64);
    assert_eq!(total, prefix[n - 1], "dyadic inputs: every order is exact");
    let t = rt.exec_trace();
    assert_eq!(t.native_launches(), 6, "{}", t.tier_line());
    assert_eq!(
        t.native_compiles(),
        3,
        "same three kernels: {}",
        t.tier_line()
    );
    assert_eq!(t.interp_launches(), 0, "{}", t.tier_line());
    assert_eq!(t.replayed_batches(), 0, "{}", t.tier_line());
    assert_eq!(t.bailed_launches(), 0, "{}", t.tier_line());
}

#[test]
fn interp_tier_pin_and_per_device_counters() {
    let rt = skelcl::init_gpus(2);
    rt.set_kernel_tier(Tier::Interp);
    run_map(&rt, 64);
    let t = rt.exec_trace();
    assert_eq!(t.interp_launches(), 2, "one launch per device");
    assert_eq!(t.native_launches(), 0);
    assert_eq!(t.devices.len(), 2);
    for d in &t.devices {
        assert_eq!(d.tiers.interp_launches, 1);
        assert_eq!(d.tiers.native_compiles, 0);
    }
}

/// The generated MapOverlap kernel stays on the native tier: its shifted
/// load/store are lane-private spans and its `get`s are row slices.
#[test]
fn heat_stencil_sweeps_run_natively_without_replays() {
    let rt = skelcl::init_gpus(1);
    let heat = MapOverlap::<f32, f32>::from_source(
        "float func(float u) { return u + 0.2f * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u); }",
    )
    .with_halo(1)
    .with_boundary(Boundary::Clamp);
    let plate = Matrix::from_fn(&rt, 192, 192, |r, c| ((r * 31 + c * 7) % 64) as f32);
    heat.run(&plate).run_iter(4).unwrap().to_vec().unwrap();
    let t = rt.exec_trace();
    assert_eq!(t.native_launches(), 4, "{}", t.tier_line());
    assert_eq!(t.interp_launches(), 0, "{}", t.tier_line());
    assert_eq!(t.replayed_batches(), 0, "{}", t.tier_line());
    assert_eq!(t.bailed_launches(), 0, "{}", t.tier_line());
    assert_eq!(t.masked_batches(), 0, "straight-line: {}", t.tier_line());
}

/// Launch `src`'s kernel `k(v, n)` over 10 000 work-items on device 0.
fn launch_raw(rt: &skelcl::SkelCl, src: &str) {
    let n = 10_000;
    let program = rt.context().build_program(src).unwrap();
    let kernel = program.kernel("k").unwrap();
    let buf = rt.context().create_buffer::<f32>(0, n + 1).unwrap();
    rt.queue(0)
        .enqueue_kernel(
            &kernel,
            n,
            &[KernelArg::Buffer(buf), KernelArg::i32(n as i32)],
        )
        .unwrap()
        .wait()
        .unwrap();
}

#[test]
fn hazardous_launches_are_counted_as_bailed_not_native() {
    // An in-place shift crosses lanes in the very first batch: nothing ran
    // natively, so the launch counts as an interpreter one.
    let rt = skelcl::init_gpus(1);
    launch_raw(
        &rt,
        "__kernel void k(__global float* v, int n) { int i = get_global_id(0); v[i + 1] = v[i]; }",
    );
    let t = rt.exec_trace();
    assert_eq!(t.native_launches(), 0, "{}", t.tier_line());
    assert_eq!(t.interp_launches(), 1, "{}", t.tier_line());
    assert_eq!(t.replayed_batches(), 1, "{}", t.tier_line());
    assert_eq!(t.bailed_launches(), 1, "{}", t.tier_line());
    assert_eq!(t.devices[0].tiers.bailed_launches, 1);

    // Lanes diverge into two stores in the second batch: divergence is not
    // a hazard, so the launch stays native and only that batch runs masked.
    launch_raw(
        &rt,
        "__kernel void k(__global float* v, int n) {
            int i = get_global_id(0);
            if (i < 100) { v[i] = 1.0f; } else { v[i] = 2.0f; }
        }",
    );
    let t = rt.exec_trace();
    assert_eq!(t.native_launches(), 1, "{}", t.tier_line());
    assert_eq!(t.replayed_batches(), 1, "{}", t.tier_line());
    assert_eq!(t.bailed_launches(), 1, "{}", t.tier_line());
    assert_eq!(t.masked_batches(), 1, "{}", t.tier_line());
    assert_eq!(t.devices[0].tiers.masked_batches, 1);
}

/// The paper's two applications end to end: the OSEM subset's branchy
/// update `Zip` and the Mandelbrot escape loop diverge in (nearly) every
/// batch and still never leave the native tier.
#[test]
fn osem_subset_and_mandelbrot_render_run_masked_without_replays() {
    use osem::{sequential, ReconstructionConfig, SkelclOsem};

    let rt = skelcl::init_gpus(2);
    rt.set_kernel_tier(Tier::Native);
    let config = ReconstructionConfig::test_scale();
    let subsets = sequential::generate_subsets(&config);
    let osem = SkelclOsem::new(rt.clone(), config.clone());
    let mut f = Vector::filled(&rt, config.volume.voxel_count(), 1.0f32);
    osem.process_subset(&subsets[0], &mut f).unwrap();
    let t = rt.exec_trace();
    assert_eq!(t.native_launches(), 2, "update Zip: {}", t.tier_line());
    assert_eq!(t.replayed_batches(), 0, "{}", t.tier_line());
    assert_eq!(t.bailed_launches(), 0, "{}", t.tier_line());
    assert!(t.masked_batches() > 0, "{}", t.tier_line());

    let rt = skelcl::init_gpus(1);
    rt.set_kernel_tier(Tier::Native);
    let view = mandelbrot::MandelbrotConfig::test_scale();
    let image = mandelbrot::render_skelcl(&rt, &view).unwrap();
    assert_eq!(image, mandelbrot::render_sequential(&view));
    let t = rt.exec_trace();
    assert_eq!(t.native_launches(), 1, "{}", t.tier_line());
    assert_eq!(t.replayed_batches(), 0, "{}", t.tier_line());
    assert_eq!(t.bailed_launches(), 0, "{}", t.tier_line());
    assert!(t.masked_batches() > 0, "{}", t.tier_line());
}

#[test]
fn explain_renders_tier_decision() {
    let rt = skelcl::init_gpus(1);
    let square = Map::<f32, f32>::from_source(SQUARE);
    let v = Vector::from_vec(&rt, vec![1.0f32; 32]);
    let plan = v.lazy().map(&square);
    let text = plan.explain().unwrap();
    assert!(
        text.contains("Kernel tier: native by default (from a kernel's first launch"),
        "default explain says what the default means:\n{text}"
    );
    assert!(
        text.contains("Kernel launches: 0 native, 0 interp")
            && text.contains("0 replayed batch(es), 0 bailed launch(es), 0 masked batch(es)"),
        "the tier counters are rendered:\n{text}"
    );
    assert!(
        text.contains("Plan lowerings: 0 lowered, 0 memo hit(s)"),
        "the lowering counters sit next to them:\n{text}"
    );

    rt.set_kernel_tier(Tier::Native);
    let text = plan.explain().unwrap();
    assert!(
        text.contains("Plan lowerings: 1 lowered, 0 memo hit(s)"),
        "the first explain lowered the plan's one group (`map` itself was never called):\n{text}"
    );
    assert!(
        text.contains("Kernel tier: native (pinned via set_kernel_tier)"),
        "pinned explain names the tier and its origin:\n{text}"
    );
}

/// A skeleton instance keeps no kernel: each runtime it runs on looks the
/// kernel up in its own lowering memo, so each builds — and pays the build
/// time of — its own program, and a tier pinned on one runtime reaches that
/// runtime's kernel and no other. (With a kernel cached in the instance, the
/// second runtime launched the first one's program: no build, no charge, and
/// out of `set_kernel_tier`'s reach.)
#[test]
fn one_skeleton_instance_builds_and_tiers_on_every_runtime_it_runs_on() {
    use skelcl::skeletons::{Reduce, Scan, Zip};
    type Call = Box<dyn Fn(&std::sync::Arc<skelcl::SkelCl>)>;
    const ADD: &str = "float func(float a, float b) { return a + b; }";
    let data = || (0..64).map(|i| i as f32 * 0.25).collect::<Vec<f32>>();

    let map = Map::<f32, f32>::from_source(SQUARE);
    let zip = Zip::<f32, f32, f32>::from_source(ADD);
    let reduce = Reduce::<f32>::from_source(ADD);
    let scan = Scan::<f32>::from_source(ADD);
    let stencil =
        MapOverlap::<f32, f32>::from_source("float func(float x) { return x + get(0, 1); }");
    let calls: Vec<(&str, Call)> = vec![
        (
            "map",
            Box::new(move |rt| {
                map.run(&Vector::from_vec(rt, data())).exec().unwrap();
            }),
        ),
        (
            "zip",
            Box::new(move |rt| {
                let (a, b) = (Vector::from_vec(rt, data()), Vector::from_vec(rt, data()));
                zip.run(&a, &b).exec().unwrap();
            }),
        ),
        (
            "reduce",
            Box::new(move |rt| {
                reduce.run(&Vector::from_vec(rt, data())).exec().unwrap();
            }),
        ),
        (
            "scan",
            Box::new(move |rt| {
                scan.run(&Vector::from_vec(rt, data())).exec().unwrap();
            }),
        ),
        (
            "map_overlap",
            Box::new(move |rt| {
                let m = Matrix::from_vec(rt, 8, 8, data()).unwrap();
                stencil.run(&m).exec().unwrap();
            }),
        ),
    ];
    for (name, call) in &calls {
        let rt1 = skelcl::init_gpus(1);
        let rt2 = skelcl::init_gpus(1);
        rt2.set_kernel_tier(Tier::Interp);
        let build = rt1.context().device(0).unwrap().profile.program_build_time;
        for rt in [&rt1, &rt2] {
            let before = rt.now();
            call(rt);
            assert_eq!(rt.context().built_program_count(), 1, "{name}");
            assert!(
                rt.elapsed_since(before) >= build,
                "{name}: the first call on each runtime pays the program build"
            );
        }
        let (t1, t2) = (rt1.exec_trace(), rt2.exec_trace());
        assert!(
            t1.native_launches() > 0 && t1.interp_launches() == 0,
            "{name} on rt1: {}",
            t1.tier_line()
        );
        assert!(
            t2.interp_launches() > 0 && t2.native_launches() == 0,
            "{name} on rt2: {}",
            t2.tier_line()
        );
    }
}

/// Every counting field of a `LaunchTrace` reaches `ExecTrace::tiers()`:
/// synthetic traces folded on two devices, the sums compared field by field.
/// Both records are taken apart exhaustively, so a field added to either
/// does not compile here until it is counted — the hop a new counter would
/// otherwise be forgotten on.
#[test]
fn every_counting_field_of_a_launch_trace_reaches_the_exec_trace() {
    let trace = |tier, seed: u64, compiled, bailed| LaunchTrace {
        tier,
        native_compiled: compiled,
        native_compile_ns: 1000 + seed,
        native_batches: 10 + seed,
        masked_batches: 3 + seed,
        replayed_batches: 1 + seed,
        bailed,
        fallback: None,
    };
    let per_device = [
        vec![
            trace(Tier::Native, 1, true, false),
            trace(Tier::Native, 2, false, true),
            trace(Tier::Interp, 3, false, false),
        ],
        vec![
            trace(Tier::Interp, 4, true, true),
            trace(Tier::Interp, 5, false, false),
            trace(Tier::Native, 6, true, false),
            trace(Tier::Interp, 7, false, false),
        ],
    ];

    let mut devices = Vec::new();
    let mut want = TierSnapshot::default();
    for (device, traces) in per_device.iter().enumerate() {
        let mut tiers = TierSnapshot::default();
        for t in traces {
            tiers.record(t);
            let LaunchTrace {
                tier,
                native_compiled,
                native_compile_ns,
                native_batches,
                masked_batches,
                replayed_batches,
                bailed,
                fallback: _,
            } = t.clone();
            match tier {
                Tier::Interp => want.interp_launches += 1,
                Tier::Native => want.native_launches += 1,
            }
            // The compile time is repeated on every launch of a compiled
            // kernel; it counts on the launch that compiled.
            want.native_compiles += usize::from(native_compiled);
            want.native_compile_ns += if native_compiled {
                native_compile_ns
            } else {
                0
            };
            want.native_batches += native_batches;
            want.masked_batches += masked_batches;
            want.replayed_batches += replayed_batches;
            want.bailed_launches += usize::from(bailed);
        }
        devices.push(DeviceTrace {
            device,
            tiers,
            ..DeviceTrace::default()
        });
    }
    let exec = ExecTrace {
        devices,
        ..ExecTrace::default()
    };

    let TierSnapshot {
        interp_launches,
        native_launches,
        native_compiles,
        native_compile_ns,
        native_batches,
        masked_batches,
        replayed_batches,
        bailed_launches,
    } = exec.tiers();
    assert_eq!(exec.tiers(), want);
    assert_eq!((interp_launches, native_launches), (4, 3));
    assert_eq!((native_compiles, native_compile_ns), (3, 3011));
    assert_eq!(
        (native_batches, masked_batches, replayed_batches),
        (98, 49, 35)
    );
    assert_eq!(bailed_launches, 2);
    // The named accessors and the tier line read the same record.
    assert_eq!(exec.interp_launches(), interp_launches);
    assert_eq!(exec.native_launches(), native_launches);
    assert_eq!(exec.native_compiles(), native_compiles);
    assert_eq!(exec.native_compile_ns(), native_compile_ns);
    assert_eq!(exec.masked_batches(), masked_batches);
    assert_eq!(exec.replayed_batches(), replayed_batches);
    assert_eq!(exec.bailed_launches(), bailed_launches);
    assert_eq!(
        exec.tier_line(),
        "Kernel launches: 3 native, 4 interp; \
         35 replayed batch(es), 2 bailed launch(es), 49 masked batch(es)"
    );
}
