//! Property and integration tests of the serving layer: coalesced execution
//! must be bit-identical to sequential execution per job, dispatch order
//! must follow priority bands and fair-share weights, quota/backpressure
//! error paths must reject-then-recover, shutdown must drain every admitted
//! handle, and a fixed submission order must be deterministic across
//! repetitions and 1–4 devices. Every served job is an asynchronous packed
//! launch, many unresolved per device queue, so CI runs the package's suites
//! under `--test-threads=1` and the default parallelism: results,
//! `JobReport`s and the virtual clock must not depend on how the harness
//! schedules tests.

use proptest::prelude::*;

use skelcl::prelude::*;
use skelcl_serving::{
    JobOptions, JobReport, Priority, ServeError, Server, ServerConfig, TenantConfig,
};

fn double() -> Map<f32, f32> {
    Map::from_source("float func(float x) { return 2.0f * x; }")
}

fn square() -> Map<f32, f32> {
    Map::from_source("float func(float x) { return x * x; }")
}

fn mul() -> Zip<f32, f32, f32> {
    Zip::from_source("float func(float x, float y) { return x * y; }")
}

fn fsum() -> Reduce<f32> {
    Reduce::from_source("float func(float a, float b) { return a + b; }")
}

fn isum() -> Reduce<i32> {
    Reduce::from_source("int func(int a, int b) { return a + b; }")
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Deterministic pseudo-random input.
fn input(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 8.0 - 4.0
        })
        .collect()
}

fn total_launches(trace: &skelcl::ExecTrace) -> usize {
    trace.interp_launches() + trace.native_launches()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every coalesced job's result is bit-identical to running the same
    /// plan sequentially through the ordinary executor. Lengths are ragged
    /// and none is a multiple of 64, so no job but the first starts on a
    /// 64-lane boundary of the packed launch; past the cap (64), the first
    /// 64 jobs dispatch full and the rest at the flush.
    #[test]
    fn coalesced_jobs_match_sequential_bitwise(
        devices in 1usize..=3,
        lens in prop::collection::vec(
            (1usize..200).prop_map(|len| if len % 64 == 0 { len + 1 } else { len }),
            2..96,
        ),
        seed in 0u64..1_000,
    ) {
        let rt = skelcl::init_gpus(devices);
        let ref_rt = skelcl::init_gpus(devices);
        let server = Server::new(rt.clone());
        server.add_tenant("t", TenantConfig::default()).unwrap();
        let session = server.session("t").unwrap();

        let d = double();
        let m = mul();
        let mut handles = Vec::new();
        let mut expected = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let xs = input(seed.wrapping_add(i as u64), len);
            let ys = input(seed.wrapping_add(1000 + i as u64), len);
            let v = Vector::from_vec(&rt, xs.clone());
            let w = Vector::from_vec(&rt, ys.clone());
            let plan = v.lazy().zip(&w, &m).map(&d);
            handles.push(session.submit_vec(&plan).unwrap());

            let rv = Vector::from_vec(&ref_rt, xs);
            let rw = Vector::from_vec(&ref_rt, ys);
            expected.push(rv.lazy().zip(&rw, &m).map(&d).collect().unwrap());
        }
        server.flush();
        let sizes: Vec<usize> = lens.chunks(64).map(<[usize]>::len).collect();
        for (i, (handle, expect)) in handles.into_iter().zip(expected).enumerate() {
            let (got, report) = handle.wait().unwrap();
            prop_assert_eq!(bits(&got), bits(&expect), "job {} (len {})", i, lens[i]);
            prop_assert_eq!(report.batch_jobs, sizes[i / 64]);
        }
        let trace = server.trace();
        prop_assert_eq!(trace.packed_batches, sizes.len());
        prop_assert_eq!(
            trace.coalesced_jobs,
            sizes.iter().filter(|&&n| n > 1).sum::<usize>()
        );
    }
}

#[test]
fn mixed_signature_jobs_batch_separately() {
    let rt = skelcl::init_gpus(2);
    let server = Server::new(rt.clone());
    server.add_tenant("t", TenantConfig::default()).unwrap();
    let session = server.session("t").unwrap();

    let d = double();
    let q = square();
    let mut doubles = Vec::new();
    let mut squares = Vec::new();
    for i in 0..3 {
        let v = Vector::from_vec(&rt, input(i, 20 + i as usize));
        doubles.push((
            input(i, 20 + i as usize),
            session.submit_vec(&v.lazy().map(&d)).unwrap(),
        ));
    }
    for i in 0..2 {
        let v = Vector::from_vec(&rt, input(100 + i, 15));
        squares.push((
            input(100 + i, 15),
            session.submit_vec(&v.lazy().map(&q)).unwrap(),
        ));
    }
    let data = input(7, 33);
    let v = Vector::from_vec(&rt, data.clone());
    let reduce_handle = session.submit_scalar(&v.lazy().reduce(&fsum())).unwrap();

    server.flush();
    for (xs, handle) in doubles {
        let (got, report) = handle.wait().unwrap();
        assert_eq!(
            bits(&got),
            bits(&xs.iter().map(|x| 2.0 * x).collect::<Vec<_>>())
        );
        assert_eq!(report.batch_jobs, 3);
    }
    for (xs, handle) in squares {
        let (got, report) = handle.wait().unwrap();
        assert_eq!(
            bits(&got),
            bits(&xs.iter().map(|x| x * x).collect::<Vec<_>>())
        );
        assert_eq!(report.batch_jobs, 2);
    }
    // The reduction is a packed batch of its own: whole on one device, so
    // its bits are a one-device `scalar()`'s, not this 2-device runtime's.
    let (total, report) = reduce_handle.wait().unwrap();
    let ref_rt = skelcl::init_gpus(1);
    let rv = Vector::from_vec(&ref_rt, data);
    let expect = rv.lazy().reduce(&fsum()).scalar().unwrap();
    assert_eq!(total.to_bits(), expect.to_bits());
    assert!(report.device.is_some());
    assert_eq!(report.batch_jobs, 1);

    let trace = server.trace();
    assert_eq!(trace.jobs_submitted, 6);
    assert_eq!(trace.jobs_completed, 6);
    assert_eq!(trace.batches, 3);
    assert_eq!(trace.packed_batches, 3);
    assert_eq!(trace.coalesced_jobs, 5);
    assert_eq!(trace.opaque_jobs, 0);
}

#[test]
fn fair_share_follows_weights_within_a_band() {
    let rt = skelcl::init_gpus(1);
    let server = Server::with_config(
        rt.clone(),
        ServerConfig {
            coalescing: false,
            ..ServerConfig::default()
        },
    );
    server
        .add_tenant("heavy", TenantConfig::weighted(3))
        .unwrap();
    server
        .add_tenant("light", TenantConfig::weighted(1))
        .unwrap();

    let d = double();
    let mut handles = Vec::new();
    for tenant in ["heavy", "light"] {
        let session = server.session(tenant).unwrap();
        for i in 0..12 {
            let v = Vector::from_vec(&rt, input(i, 16));
            handles.push(session.submit_vec(&v.lazy().map(&d)).unwrap());
        }
    }
    server.flush();
    for handle in handles {
        handle.wait().unwrap();
    }

    let trace = server.trace();
    // Equal job footprints at weights 3:1: every 4 consecutive dispatch
    // slots go 3 to `heavy`, 1 to `light` while both are backlogged.
    let first8 = &trace.dispatch_tenants[..8];
    assert_eq!(first8.iter().filter(|t| t.as_str() == "heavy").count(), 6);
    assert_eq!(first8.iter().filter(|t| t.as_str() == "light").count(), 2);
    assert!(trace.batch_sizes.iter().all(|&s| s == 1));
}

#[test]
fn priority_bands_are_strict() {
    let rt = skelcl::init_gpus(1);
    let server = Server::with_config(
        rt.clone(),
        ServerConfig {
            coalescing: false,
            ..ServerConfig::default()
        },
    );
    server
        .add_tenant(
            "bg",
            TenantConfig {
                priority: Priority::Low,
                ..TenantConfig::default()
            },
        )
        .unwrap();
    server
        .add_tenant(
            "fg",
            TenantConfig {
                priority: Priority::High,
                ..TenantConfig::default()
            },
        )
        .unwrap();

    let d = double();
    let mut handles = Vec::new();
    // Background jobs are admitted FIRST, yet every foreground job must
    // dispatch before any of them.
    for tenant in ["bg", "fg"] {
        let session = server.session(tenant).unwrap();
        for i in 0..4 {
            let v = Vector::from_vec(&rt, input(i, 8));
            handles.push(session.submit_vec(&v.lazy().map(&d)).unwrap());
        }
    }
    server.flush();
    for handle in handles {
        handle.wait().unwrap();
    }
    let trace = server.trace();
    assert_eq!(&trace.dispatch_tenants[..4], ["fg", "fg", "fg", "fg"]);
    assert_eq!(&trace.dispatch_tenants[4..], ["bg", "bg", "bg", "bg"]);
}

#[test]
fn quota_rejects_then_recovers_after_completion() {
    let rt = skelcl::init_gpus(1);
    let server = Server::new(rt.clone());
    // A length-16 f32 map job's footprint: 64 output + 64 source bytes.
    server
        .add_tenant(
            "q",
            TenantConfig {
                quota_bytes: Some(200),
                ..TenantConfig::default()
            },
        )
        .unwrap();
    let session = server.session("q").unwrap();

    let d = double();
    let v = Vector::from_vec(&rt, input(1, 16));
    let first = session.submit_vec(&v.lazy().map(&d)).unwrap();
    let w = Vector::from_vec(&rt, input(2, 16));
    let err = match session.try_submit_vec(&w.lazy().map(&d)) {
        Err(e) => e,
        Ok(_) => panic!("submission past the quota must be rejected"),
    };
    match err {
        ServeError::QuotaExceeded {
            tenant,
            requested,
            used,
            cap,
        } => {
            assert_eq!(tenant, "q");
            assert_eq!(requested, 128);
            assert_eq!(used, 128);
            assert_eq!(cap, 200);
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }

    // Completion credits the ledger; the same submission now fits.
    first.wait().unwrap();
    let usage = rt.context().ledger().usage("q");
    assert_eq!(usage.used_bytes, 0);
    assert_eq!(usage.peak_bytes, 128);
    session
        .try_submit_vec(&w.lazy().map(&d))
        .unwrap()
        .wait()
        .unwrap();
}

#[test]
fn backpressure_would_block_then_blocking_submit_makes_room() {
    let rt = skelcl::init_gpus(1);
    let server = Server::new(rt.clone());
    server
        .add_tenant(
            "t",
            TenantConfig {
                max_pending: 2,
                ..TenantConfig::default()
            },
        )
        .unwrap();
    let session = server.session("t").unwrap();

    let d = double();
    let plan_of = |seed: u64| {
        let v = Vector::from_vec(&rt, input(seed, 12));
        v.lazy().map(&d)
    };
    let a = session.try_submit_vec(&plan_of(1)).unwrap();
    let b = session.try_submit_vec(&plan_of(2)).unwrap();
    assert!(matches!(
        session.try_submit_vec(&plan_of(3)),
        Err(ServeError::WouldBlock)
    ));
    assert_eq!(server.trace().would_blocks, 1);

    // The blocking submit drives the scheduler until admission succeeds.
    let c = session.submit_vec(&plan_of(3)).unwrap();
    for handle in [a, b, c] {
        handle.wait().unwrap();
    }
    assert_eq!(server.trace().jobs_completed, 3);
}

#[test]
fn queue_depth_watermark_applies_across_tenants() {
    let rt = skelcl::init_gpus(1);
    let server = Server::with_config(
        rt.clone(),
        ServerConfig {
            max_queue_depth: 2,
            ..ServerConfig::default()
        },
    );
    server.add_tenant("a", TenantConfig::default()).unwrap();
    server.add_tenant("b", TenantConfig::default()).unwrap();

    let d = double();
    let submit = |tenant: &str, seed: u64| {
        let v = Vector::from_vec(&rt, input(seed, 8));
        server
            .session(tenant)
            .unwrap()
            .try_submit_vec(&v.lazy().map(&d))
    };
    let a = submit("a", 1).unwrap();
    let b = submit("b", 2).unwrap();
    assert!(matches!(submit("a", 3), Err(ServeError::WouldBlock)));
    server.flush();
    a.wait().unwrap();
    b.wait().unwrap();
}

#[test]
fn shutdown_drains_admitted_jobs_and_refuses_new_ones() {
    let rt = skelcl::init_gpus(2);
    let server = Server::new(rt.clone());
    server.add_tenant("t", TenantConfig::default()).unwrap();
    let session = server.session("t").unwrap();

    let d = double();
    let mut handles = Vec::new();
    for i in 0..5 {
        let v = Vector::from_vec(&rt, input(i, 10 + i as usize));
        handles.push(session.submit_vec(&v.lazy().map(&d)).unwrap());
    }
    server.shutdown();
    for handle in &handles {
        assert!(handle.is_done());
    }
    for handle in handles {
        handle.wait().unwrap();
    }
    let v = Vector::from_vec(&rt, input(9, 4));
    assert!(matches!(
        session.try_submit_vec(&v.lazy().map(&d)),
        Err(ServeError::ShuttingDown)
    ));
    assert_eq!(server.trace().jobs_completed, 5);
}

#[test]
fn failed_jobs_surface_errors_and_release_quota() {
    let rt = skelcl::init_gpus(1);
    let server = Server::new(rt.clone());
    server
        .add_tenant(
            "t",
            TenantConfig {
                quota_bytes: Some(1 << 20),
                ..TenantConfig::default()
            },
        )
        .unwrap();
    let session = server.session("t").unwrap();

    // Reducing an empty vector fails when its packed batch is dispatched.
    let v = Vector::from_vec(&rt, Vec::<f32>::new());
    let handle = session.submit_scalar(&v.lazy().reduce(&fsum())).unwrap();
    server.flush();
    assert!(matches!(handle.wait(), Err(ServeError::Skel(_))));
    let trace = server.trace();
    assert_eq!(trace.jobs_failed, 1);
    assert_eq!(trace.jobs_completed, 0);
    assert_eq!(rt.context().ledger().usage("t").used_bytes, 0);
}

#[test]
fn results_are_taken_exactly_once() {
    let rt = skelcl::init_gpus(1);
    let server = Server::new(rt.clone());
    server.add_tenant("t", TenantConfig::default()).unwrap();
    assert!(matches!(
        server.session("ghost"),
        Err(ServeError::UnknownTenant(_))
    ));
    assert!(matches!(
        server.add_tenant("t", TenantConfig::default()),
        Err(ServeError::DuplicateTenant(_))
    ));
    let session = server.session("t").unwrap();
    let v = Vector::from_vec(&rt, input(1, 6));
    let handle = session.submit_vec(&v.lazy().map(&double())).unwrap();
    let (out, _) = handle.wait().unwrap();
    assert_eq!(out.len(), 6);
}

/// Everything observable about one run of the fixed schedule.
#[derive(Debug, PartialEq)]
struct ScheduleRun {
    results: Vec<Vec<u32>>,
    scalars: Vec<u32>,
    /// Per job, in submission order (vector jobs, then scalar jobs).
    reports: Vec<JobReport>,
    dispatch_tenants: Vec<String>,
    batch_sizes: Vec<usize>,
    end: oclsim::SimTime,
}

/// One fixed submission schedule, parameterized only by the runtime.
fn run_schedule(devices: usize) -> ScheduleRun {
    let rt = skelcl::init_gpus(devices);
    let server = Server::new(rt.clone());
    server.add_tenant("a", TenantConfig::weighted(2)).unwrap();
    server.add_tenant("b", TenantConfig::weighted(1)).unwrap();
    let sa = server.session("a").unwrap();
    let sb = server.session("b").unwrap();

    let d = double();
    let q = square();
    let s = isum();
    let mut vec_handles = Vec::new();
    let mut scalar_handles = Vec::new();
    for i in 0..10u64 {
        let v = Vector::from_vec(&rt, input(i, 8 + (i as usize % 5) * 7));
        let session = if i % 2 == 0 { &sa } else { &sb };
        let skeleton = if i % 3 == 0 { &d } else { &q };
        vec_handles.push(session.submit_vec(&v.lazy().map(skeleton)).unwrap());
        if i % 4 == 0 {
            let ints: Vec<i32> = (0..12).map(|k| k - (i as i32)).collect();
            let iv = Vector::from_vec(&rt, ints);
            scalar_handles.push(session.submit_scalar(&iv.lazy().reduce(&s)).unwrap());
        }
    }
    server.flush();
    let mut reports = Vec::new();
    let mut results = Vec::new();
    for handle in vec_handles {
        let (out, report) = handle.wait().unwrap();
        results.push(bits(&out));
        reports.push(report);
    }
    let mut scalars = Vec::new();
    for handle in scalar_handles {
        let (out, report) = handle.wait().unwrap();
        scalars.push(out as u32);
        reports.push(report);
    }
    let trace = server.trace();
    ScheduleRun {
        results,
        scalars,
        reports,
        dispatch_tenants: trace.dispatch_tenants,
        batch_sizes: trace.batch_sizes,
        end: rt.now(),
    }
}

#[test]
fn fixed_schedule_is_deterministic_across_reps_and_devices() {
    let mut per_devices = Vec::new();
    for devices in [1usize, 2, 4] {
        let first = run_schedule(devices);
        for _ in 0..2 {
            let rep = run_schedule(devices);
            // Same device count: results, reports, dispatch order AND
            // virtual time bit-identical.
            assert_eq!(rep, first, "rep diverged at {devices} device(s)");
        }
        per_devices.push(first);
    }
    // Across device counts: result bits identical (jobs pin to one device).
    for other in &per_devices[1..] {
        assert_eq!(other.results, per_devices[0].results);
        assert_eq!(other.scalars, per_devices[0].scalars);
    }
    // The schedule's decisions, pinned: which batches formed, in which
    // order, led by whom, and where each job ran with how many others.
    let two = &per_devices[1];
    assert_eq!(two.dispatch_tenants, ["a", "a", "b"]);
    assert_eq!(two.batch_sizes, [4, 3, 6]);
    let placed: Vec<(u64, Option<usize>, usize)> = two
        .reports
        .iter()
        .map(|r| (r.job_id, r.device, r.batch_jobs))
        .collect();
    let packed = |id, batch| (id, Some(0), batch);
    // The three equal-length reductions share the second batch, which finds
    // device 0 busy with the first.
    let reduced = |id| (id, Some(1), 3);
    assert_eq!(
        placed,
        [
            packed(0, 4),
            packed(2, 6),
            packed(3, 6),
            packed(4, 4),
            packed(5, 6),
            packed(7, 6),
            packed(8, 4),
            packed(9, 6),
            packed(10, 6),
            packed(12, 4),
            reduced(1),
            reduced(6),
            reduced(11),
        ]
    );
}

/// A wave of 2 048 jobs drawn from three plan shapes lowers each shape
/// once: admission, the coalesce-cap trigger and every packed dispatch read
/// the runtime's memo. A second wave lowers nothing at all. (The memo also
/// serves eager source calls, which would add their one-stage shapes to the
/// count; a served job is always a plan, so three it stays.)
#[test]
fn a_wave_of_three_shapes_lowers_three_times() {
    let rt = skelcl::init_gpus(2);
    let server = Server::new(rt.clone());
    server.add_tenant("t", TenantConfig::default()).unwrap();
    let session = server.session("t").unwrap();
    let wave = || {
        // Fresh skeleton instances per wave: the memo keys on content.
        let (d, q, s) = (double(), square(), fsum());
        let mut vecs = Vec::new();
        let mut scalars = Vec::new();
        for i in 0..2048u64 {
            let v = Vector::from_vec(&rt, input(i, 16));
            match i % 16 {
                15 => scalars.push(session.submit_scalar(&v.lazy().map(&q).reduce(&s)).unwrap()),
                3 | 7 | 11 => vecs.push(session.submit_vec(&v.lazy().map(&q)).unwrap()),
                _ => vecs.push(session.submit_vec(&v.lazy().map(&d)).unwrap()),
            }
        }
        server.flush();
        for handle in vecs {
            handle.wait().unwrap();
        }
        for handle in scalars {
            handle.wait().unwrap();
        }
    };
    wave();
    let first = rt.exec_trace();
    assert_eq!(first.plan_lowerings, 3);
    wave();
    let second = rt.exec_trace();
    assert_eq!(second.plan_lowerings, 3, "a warm wave lowers nothing");
    assert!(second.plan_lowering_hits > first.plan_lowering_hits);
    assert_eq!(server.trace().jobs_completed, 4096);
}

/// Packed batches in one literal-variant wave: 1 536 / 64 + 384 / 64 +
/// 128 / 64, every batch full.
const WAVE_BATCHES: usize = 32;

/// Virtual nanoseconds of a warm four-tenant literal-variant wave on 2
/// devices, from its first submit until its last result is claimed. A
/// batch that dispatches part-full, or a launch that costs one command
/// more, moves it.
const WAVE_VIRT_NS: u64 = 737_228;

/// A `serving_mix`-shaped wave: 2 048 jobs on 2 devices — 1 536 of one
/// map, 384 maps and 128 map → reduce jobs over 64 variants of a second map
/// that differ only in a `float` literal. The literals are per-job data, so
/// the wave lowers and builds three packed shapes.
struct LiteralWave {
    rt: std::sync::Arc<skelcl::SkelCl>,
    one: std::sync::Arc<skelcl::SkelCl>,
    server: Server,
    sessions: Vec<skelcl_serving::Session>,
    shared: Map<f32, f32>,
    variants: Vec<Map<f32, f32>>,
    sum: Reduce<f32>,
}

impl LiteralWave {
    /// `tenants` tenants of weights 1, 2, …, at the default `max_pending`
    /// (1 024): one tenant reaches it halfway through a wave.
    fn new(tenants: u32) -> LiteralWave {
        let rt = skelcl::init_gpus(2);
        let server = Server::new(rt.clone());
        let sessions = (0..tenants)
            .map(|t| {
                let name = format!("t{t}");
                server
                    .add_tenant(&name, TenantConfig::weighted(t + 1))
                    .unwrap();
                server.session(&name).unwrap()
            })
            .collect();
        LiteralWave {
            rt,
            one: skelcl::init_gpus(1),
            server,
            sessions,
            shared: Map::from_source("float func(float x) { return 2.0f * x + 0.5f; }"),
            variants: (0..64)
                .map(|k| {
                    Map::from_source(&format!(
                        "float func(float x) {{ return x * {k}.5f + 1.0f; }}"
                    ))
                })
                .collect(),
            sum: fsum(),
        }
    }

    /// Run one wave, checking every job's bits; returns its packed batches
    /// and its virtual nanoseconds.
    fn run(&self) -> (usize, u64) {
        let (rt, server) = (&self.rt, &self.server);
        let before = (server.trace().packed_batches, rt.now());
        let (mut vecs, mut scalars) = (Vec::new(), Vec::new());
        for i in 0..2048usize {
            let data = input(i as u64, 64);
            let v = Vector::from_vec(rt, data.clone());
            let k = i * 37 % 64;
            let session = &self.sessions[i * 5 / 3 % self.sessions.len()];
            match i % 16 {
                15 => {
                    let plan = v.lazy().map(&self.variants[k]).reduce(&self.sum);
                    scalars.push((k, data, session.submit_scalar(&plan).unwrap()));
                }
                3 | 7 | 11 => {
                    let want = data.iter().map(|x| x * (k as f32 + 0.5) + 1.0).collect();
                    let plan = v.lazy().map(&self.variants[k]);
                    vecs.push((want, session.submit_vec(&plan).unwrap()));
                }
                _ => {
                    let want = data.iter().map(|x| 2.0 * x + 0.5).collect();
                    let plan = v.lazy().map(&self.shared);
                    vecs.push((want, session.submit_vec(&plan).unwrap()));
                }
            }
        }
        server.flush();
        for (want, handle) in vecs {
            let want: Vec<f32> = want;
            assert_eq!(bits(&handle.wait().unwrap().0), bits(&want));
        }
        for (k, data, handle) in scalars {
            let alone = Vector::from_vec(&self.one, data)
                .lazy()
                .map(&self.variants[k])
                .reduce(&self.sum);
            let got = handle.wait().unwrap().0;
            assert_eq!(got.to_bits(), alone.scalar().unwrap().to_bits());
        }
        (
            server.trace().packed_batches - before.0,
            (rt.now() - before.1).as_nanos(),
        )
    }
}

/// Four weighted tenants, as in `serving_mix`: every batch dispatches full,
/// the wave's virtual time is pinned, and a second wave lowers nothing.
#[test]
fn a_wave_of_literal_variants_builds_three_programs() {
    let wave = LiteralWave::new(4);
    assert_eq!(wave.run().0, WAVE_BATCHES);
    let first = wave.rt.exec_trace();
    assert_eq!((first.plan_lowerings, first.programs_built), (3, 3));
    assert_eq!(wave.run(), (WAVE_BATCHES, WAVE_VIRT_NS));
    let second = wave.rt.exec_trace();
    assert_eq!(
        (second.plan_lowerings, second.programs_built),
        (3, 3),
        "a warm wave lowers nothing"
    );
    assert_eq!(wave.server.trace().would_blocks, 0);
}

/// One tenant submits the whole wave and reaches its `max_pending` halfway:
/// the blocking submit settles in-flight batches to make room instead of
/// dispatching part-full ones, so the wave takes as many batches as four
/// tenants' does.
#[test]
fn a_single_tenant_wave_takes_as_many_batches() {
    let wave = LiteralWave::new(1);
    for _ in 0..2 {
        assert_eq!(wave.run().0, WAVE_BATCHES);
    }
    assert!(wave.server.trace().would_blocks > 0);
}

/// The coalesce-cap trigger dispatches the batch that filled, not the WFQ
/// leader's: one queued job of signature B leads the queue, then four jobs
/// of signature A fill a batch of four. The four A jobs go out at once, led
/// by the smallest WFQ key among them — `heavy`'s second job, not `light`'s
/// first admitted — and B waits for the drain.
#[test]
fn the_cap_trigger_dispatches_the_batch_that_filled() {
    let rt = skelcl::init_gpus(2);
    let server = Server::with_config(
        rt.clone(),
        ServerConfig {
            coalesce_cap: 4,
            ..ServerConfig::default()
        },
    );
    server
        .add_tenant("heavy", TenantConfig::weighted(2))
        .unwrap();
    server
        .add_tenant("light", TenantConfig::weighted(1))
        .unwrap();
    let heavy = server.session("heavy").unwrap();
    let light = server.session("light").unwrap();
    let (a, b) = (double(), square());

    // B first, from `heavy`: the smallest key of all.
    let data_b = input(0, 4);
    let job_b = heavy
        .submit_vec(&Vector::from_vec(&rt, data_b.clone()).lazy().map(&b))
        .unwrap();
    // `light`'s first A job is long, so its key sorts after `heavy`'s.
    let a_jobs: Vec<_> = [(&light, 64), (&heavy, 4), (&light, 4), (&heavy, 4)]
        .into_iter()
        .enumerate()
        .map(|(i, (session, len))| {
            let data = input(1 + i as u64, len);
            let plan = Vector::from_vec(&rt, data.clone()).lazy().map(&a);
            (data, session.submit_vec(&plan).unwrap())
        })
        .collect();
    let trace = server.trace();
    assert_eq!(trace.batch_sizes, [4]);
    assert_eq!(trace.dispatch_tenants, ["heavy"]);
    assert_eq!((trace.jobs_queued, trace.batches_inflight), (1, 1));

    server.flush();
    let trace = server.trace();
    assert_eq!(trace.batch_sizes, [4, 1]);
    assert_eq!(trace.dispatch_tenants, ["heavy", "heavy"]);
    for (data, handle) in a_jobs {
        let (got, report) = handle.wait().unwrap();
        let want: Vec<f32> = data.iter().map(|x| 2.0 * x).collect();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(report.batch_jobs, 4);
    }
    let (got, report) = job_b.wait().unwrap();
    let want: Vec<f32> = data_b.iter().map(|x| x * x).collect();
    assert_eq!(bits(&got), bits(&want));
    assert_eq!(report.batch_jobs, 1);
}

/// Bands stay strict when a batch fills: a high-priority job of signature
/// B is queued, then a low-priority tenant fills a batch of signature A.
/// The admission that fills it sends B first, then the full A batch.
#[test]
fn a_filled_batch_waits_for_a_higher_band() {
    let rt = skelcl::init_gpus(2);
    let server = Server::with_config(
        rt.clone(),
        ServerConfig {
            coalesce_cap: 4,
            ..ServerConfig::default()
        },
    );
    for (name, priority) in [("high", Priority::High), ("low", Priority::Low)] {
        let config = TenantConfig {
            priority,
            ..TenantConfig::default()
        };
        server.add_tenant(name, config).unwrap();
    }
    let (a, b) = (double(), square());
    let plan = |seed: u64, f: &Map<f32, f32>| Vector::from_vec(&rt, input(seed, 8)).lazy().map(f);
    let high = server.session("high").unwrap();
    let low = server.session("low").unwrap();
    let mut handles = vec![high.submit_vec(&plan(0, &b)).unwrap()];
    for seed in 1..4 {
        handles.push(low.submit_vec(&plan(seed, &a)).unwrap());
        assert_eq!(server.trace().batches, 0);
    }
    handles.push(low.submit_vec(&plan(4, &a)).unwrap());
    let trace = server.trace();
    assert_eq!(trace.dispatch_tenants, ["high", "low"]);
    assert_eq!(trace.batch_sizes, [1, 4]);
    assert_eq!(trace.jobs_queued, 0);
    for handle in handles {
        handle.wait().unwrap();
    }
}

/// While a job with a deadline is queued, partial batches do not wait to
/// fill: the admission that fills another signature's batch also sends the
/// leader's partial batch — here the deadline job's own.
#[test]
fn a_deadline_job_leaves_beside_the_batch_that_fills() {
    let rt = skelcl::init_gpus(2);
    let server = Server::with_config(
        rt.clone(),
        ServerConfig {
            coalesce_cap: 4,
            ..ServerConfig::default()
        },
    );
    server.add_tenant("t", TenantConfig::default()).unwrap();
    let session = server.session("t").unwrap();
    let (a, b) = (double(), square());
    let plan = |seed: u64, f: &Map<f32, f32>| Vector::from_vec(&rt, input(seed, 8)).lazy().map(f);
    let deadline = JobOptions::with_deadline(rt.now() + oclsim::SimDuration::from_secs_f64(1.0));
    let job_b = session.submit_vec_with(&plan(0, &b), deadline).unwrap();
    let a_jobs: Vec<_> = (1..5)
        .map(|seed| session.submit_vec(&plan(seed, &a)).unwrap())
        .collect();
    let trace = server.trace();
    assert_eq!(trace.batch_sizes, [4, 1]);
    assert_eq!(trace.jobs_queued, 0);
    assert_eq!(job_b.wait().unwrap().1.batch_jobs, 1);
    for handle in a_jobs {
        handle.wait().unwrap();
    }
    assert_eq!(server.trace().jobs_deadline_failed, 0);
}

/// A client that only calls `try_submit_*` and never waits: partial batches
/// of four slow signatures fill the queue between the fast signature's full
/// batches. A refusal at the full queue sends the leader's batch, so every
/// refused job is admitted when it retries, and every job gets its bits.
#[test]
fn a_try_submit_stream_over_several_signatures_keeps_moving() {
    let rt = skelcl::init_gpus(2);
    let one = skelcl::init_gpus(1);
    let server = Server::with_config(
        rt.clone(),
        ServerConfig {
            coalesce_cap: 4,
            max_queue_depth: 8,
            ..ServerConfig::default()
        },
    );
    server.add_tenant("t", TenantConfig::default()).unwrap();
    let session = server.session("t").unwrap();
    let fast = double();
    let slow: Vec<Map<f32, f32>> = ["x * x", "x + x * x", "-x", "x * x * x"]
        .iter()
        .map(|body| Map::from_source(&format!("float func(float x) {{ return {body}; }}")))
        .collect();
    let mut jobs = Vec::new();
    for i in 0..96u64 {
        let map = if i % 2 == 0 {
            &fast
        } else {
            &slow[(i / 2 % 4) as usize]
        };
        let data = input(i, 8 + i as usize % 5);
        let plan = Vector::from_vec(&rt, data.clone()).lazy().map(map);
        let handle = match session.try_submit_vec(&plan) {
            Err(ServeError::WouldBlock) => session.try_submit_vec(&plan).unwrap(),
            admitted => admitted.unwrap(),
        };
        jobs.push((map, data, handle));
    }
    let trace = server.trace();
    assert!(trace.would_blocks > 0, "the queue never filled");
    assert!(trace.max_queue_depth_seen <= 8);
    for (map, data, handle) in jobs {
        let want = Vector::from_vec(&one, data)
            .lazy()
            .map(map)
            .collect()
            .unwrap();
        assert_eq!(bits(&handle.wait().unwrap().0), bits(&want));
    }
}

/// The dispatch history is a window, not a log: 10 000 batches leave the
/// most recent 1 024 in the trace while the counters keep the full tally.
#[test]
fn dispatch_history_is_bounded() {
    let rt = skelcl::init_gpus(1);
    let server = Server::with_config(
        rt.clone(),
        ServerConfig {
            coalescing: false,
            ..ServerConfig::default()
        },
    );
    server.add_tenant("old", TenantConfig::default()).unwrap();
    server.add_tenant("new", TenantConfig::default()).unwrap();
    let d = double();
    let v = Vector::from_vec(&rt, vec![1.0f32, 2.0]);
    let plan = v.lazy().map(&d);
    for (tenant, jobs) in [("old", 9_000), ("new", 1_000)] {
        let session = server.session(tenant).unwrap();
        let handles: Vec<_> = (0..jobs)
            .map(|_| session.submit_vec(&plan).unwrap())
            .collect();
        server.flush();
        for handle in handles {
            handle.wait().unwrap();
        }
    }
    let trace = server.trace();
    assert_eq!(trace.batches, 10_000);
    assert_eq!(trace.batch_sizes.len(), 1024);
    assert_eq!(trace.dispatch_tenants.len(), 1024);
    assert_eq!(trace.dispatch_tenants[0], "old");
    assert!(trace.dispatch_tenants[24..].iter().all(|t| t == "new"));
    assert!(trace.batch_sizes.iter().all(|&size| size == 1));
}

#[test]
fn coalescing_reduces_kernel_launches() {
    let jobs = 32usize;
    let run = |coalescing: bool| {
        let rt = skelcl::init_gpus(2);
        let server = Server::with_config(
            rt.clone(),
            ServerConfig {
                coalescing,
                ..ServerConfig::default()
            },
        );
        server.add_tenant("t", TenantConfig::default()).unwrap();
        let session = server.session("t").unwrap();
        let d = double();
        let handles: Vec<_> = (0..jobs)
            .map(|i| {
                let v = Vector::from_vec(&rt, input(i as u64, 100));
                session.submit_vec(&v.lazy().map(&d)).unwrap()
            })
            .collect();
        server.flush();
        let outs: Vec<Vec<u32>> = handles
            .into_iter()
            .map(|h| bits(&h.wait().unwrap().0))
            .collect();
        (outs, total_launches(&rt.exec_trace()), server.trace())
    };

    let (on_outs, on_launches, on_trace) = run(true);
    let (off_outs, off_launches, off_trace) = run(false);
    assert_eq!(on_outs, off_outs);
    assert_eq!(on_trace.packed_batches, 1);
    assert_eq!(on_trace.coalesced_jobs, jobs);
    assert_eq!(off_trace.packed_batches, jobs);
    assert_eq!(off_trace.coalesced_jobs, 0);
    assert!(
        on_launches < off_launches,
        "coalescing must reduce launches: {on_launches} vs {off_launches}"
    );
}
