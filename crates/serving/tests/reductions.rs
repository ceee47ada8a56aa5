//! The contract of served reductions: a `submit_scalar` job whose reduce
//! closes an elementwise chain runs packed — whole on one device, coalesced
//! with queued reductions of the same kernel, arguments and length,
//! asynchronously — and returns, bit for bit, what `plan.scalar()` returns on
//! a one-device runtime: for every operator, length, batch size and server
//! device count, coalesced or not.

use std::collections::HashMap;
use std::sync::Arc;

use skelcl::prelude::*;
use skelcl::{args, DeviceScalar, SkelCl, SkelError};
use skelcl_serving::{JobReport, ServeError, Server, ServerConfig, TenantConfig};

/// Below, at and above the one-partial geometry (`P > 1` from 512 on), with
/// lengths the chunk length does not divide (1000 / 3, 20000 / 64).
const LENS: [usize; 10] = [1, 63, 64, 255, 256, 511, 512, 1000, 4096, 20000];
const CAP: usize = 3;
/// Alone, a pair, and one job more than a launch holds.
const BATCHES: [usize; 3] = [1, 2, CAP + 1];

/// Deterministic values whose f32 sum cancels: large alternating terms over
/// small ones, so the association order shows in the low bits.
fn cancelling(seed: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let small = ((i * 37 + seed * 11) % 101) as f32 * 1.0e-3;
            let large = ((i + seed) % 7) as f32 * 3.0e5;
            if i % 2 == 0 {
                large + small
            } else {
                small - large
            }
        })
        .collect()
}

/// One operator of the grid: builds the job's plan over `(seed, len)` on any
/// runtime, type-erased to the bits of its result.
struct Case {
    name: &'static str,
    /// Submit the job; the returned closure waits for its bits and report.
    submit: Box<dyn Fn(&Arc<SkelCl>, &skelcl_serving::Session, usize, usize) -> Waiter>,
    /// The job's bits from `scalar()` on `rt`.
    direct: Box<dyn Fn(&Arc<SkelCl>, usize, usize) -> u64>,
}

type Waiter = Box<dyn FnOnce() -> (u64, JobReport)>;

/// A case from a plan builder and a bit view of its scalar type.
fn case<T: DeviceScalar>(
    name: &'static str,
    plan: impl Fn(&Arc<SkelCl>, usize, usize) -> PlanScalar<T> + Clone + 'static,
    to_bits: fn(T) -> u64,
) -> Case {
    let served = plan.clone();
    Case {
        name,
        submit: Box::new(move |rt, session, seed, len| {
            let handle = session.submit_scalar(&served(rt, seed, len)).unwrap();
            Box::new(move || {
                let (value, report) = handle.wait().unwrap();
                (to_bits(value), report)
            })
        }),
        direct: Box::new(move |rt, seed, len| to_bits(plan(rt, seed, len).scalar().unwrap())),
    }
}

fn cases() -> Vec<Case> {
    let fsum = || Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
    vec![
        case(
            "f32 sum with cancellation",
            move |rt, seed, len| {
                Vector::from_vec(rt, cancelling(seed, len))
                    .lazy()
                    .reduce(&fsum())
            },
            |x: f32| u64::from(x.to_bits()),
        ),
        // Associative, not commutative: the first and the last element.
        case(
            "left projection",
            |rt, seed, len| {
                let first =
                    Reduce::<f32>::from_source("float func(float a, float b) { return a; }");
                Vector::from_vec(rt, cancelling(seed, len))
                    .lazy()
                    .reduce(&first)
            },
            |x: f32| u64::from(x.to_bits()),
        ),
        case(
            "right projection",
            |rt, seed, len| {
                let last = Reduce::<f32>::from_source("float func(float a, float b) { return b; }");
                Vector::from_vec(rt, cancelling(seed, len))
                    .lazy()
                    .reduce(&last)
            },
            |x: f32| u64::from(x.to_bits()),
        ),
        case(
            "i32 sum",
            |rt, seed, len| {
                let isum = Reduce::<i32>::from_source("int func(int a, int b) { return a + b; }");
                let data = (0..len).map(|i| ((i * 31 + seed * 7) % 2001) as i32 - 1000);
                Vector::from_vec(rt, data.collect()).lazy().reduce(&isum)
            },
            |x: i32| u64::from(x as u32),
        ),
        case(
            "f64 sum",
            |rt, seed, len| {
                let dsum =
                    Reduce::<f64>::from_source("double func(double a, double b) { return a + b; }");
                let data = cancelling(seed, len)
                    .into_iter()
                    .map(|x| f64::from(x) * 1.0e-7 + 0.1);
                Vector::from_vec(rt, data.collect()).lazy().reduce(&dsum)
            },
            f64::to_bits,
        ),
        case(
            "fused map → reduce with a scalar argument",
            move |rt, seed, len| {
                let scale = Map::<f32, f32>::from_source(
                    "float func(float x, float s) { return x * s + 0.125f; }",
                );
                Vector::from_vec(rt, cancelling(seed, len))
                    .lazy()
                    .map_with(&scale, args![0.3f32])
                    .reduce(&fsum())
            },
            |x: f32| u64::from(x.to_bits()),
        ),
    ]
}

fn server_on(devices: usize, coalescing: bool) -> (Arc<SkelCl>, Server) {
    let rt = skelcl::init_gpus(devices);
    let server = Server::with_config(
        rt.clone(),
        ServerConfig {
            coalescing,
            coalesce_cap: CAP,
            ..ServerConfig::default()
        },
    );
    server.add_tenant("t", TenantConfig::default()).unwrap();
    (rt, server)
}

/// Served ≡ one-device `scalar()`, bit for bit, over the whole grid; the
/// reports say every job ran on one device, in a batch of the expected size.
#[test]
fn served_reductions_match_a_one_device_scalar_bitwise() {
    let cases = cases();
    let one = skelcl::init_gpus(1);
    let mut expected: HashMap<(usize, usize, usize), u64> = HashMap::new();
    for (devices, coalescing) in [(1, true), (2, true), (4, true), (2, false)] {
        let (rt, server) = server_on(devices, coalescing);
        let session = server.session("t").unwrap();
        for (c, case) in cases.iter().enumerate() {
            for len in LENS {
                for jobs in BATCHES {
                    let waiters: Vec<Waiter> = (0..jobs)
                        .map(|seed| (case.submit)(&rt, &session, seed, len))
                        .collect();
                    server.flush();
                    for (seed, wait) in waiters.into_iter().enumerate() {
                        let what = format!(
                            "{}, len {len}, job {seed} of {jobs}, {devices} device(s), coalescing {coalescing}",
                            case.name
                        );
                        let (got, report) = wait();
                        let want = *expected
                            .entry((c, len, seed))
                            .or_insert_with(|| (case.direct)(&one, seed, len));
                        assert_eq!(got, want, "{what}");
                        assert!(report.device.is_some_and(|d| d < devices), "{what}");
                        // The admission that fills a launch dispatches it;
                        // the job past the cap runs in the next one.
                        let batch = match (coalescing, jobs, seed) {
                            (false, _, _) => 1,
                            (true, jobs, seed) if jobs > CAP && seed >= CAP => jobs - CAP,
                            (true, jobs, _) => jobs.min(CAP),
                        };
                        assert_eq!(report.batch_jobs, batch, "{what}");
                    }
                }
            }
        }
        let trace = server.trace();
        assert_eq!(trace.opaque_jobs, 0, "reductions never run at dispatch");
        assert_eq!(trace.jobs_failed, 0);
        assert_eq!(rt.exec_trace().replayed_batches(), 0);
        assert_eq!(rt.exec_trace().bailed_launches(), 0);
        for d in 0..devices {
            assert_eq!(rt.queue(d).deferred_error_count(), 0);
            assert_eq!(rt.context().device(d).unwrap().live_buffers(), 0);
        }
    }
    // A multi-device `scalar()` associates differently (four chunks of 250
    // for three of 334) — the contract names the one-device result on
    // purpose, and the grid's data can tell the two apart.
    let four = skelcl::init_gpus(4);
    let differs = (0..BATCHES[2])
        .any(|seed| (cases[0].direct)(&four, seed, 1000) != expected[&(0, 1000, seed)]);
    assert!(differs, "the data must show the association order");
}

/// Reductions of different length never share a launch. Equal-length ones
/// do, whatever their scalar arguments: those are per-job data, so each job
/// keeps its own bits (`-0.0` stays `-0.0`) and one shape is lowered and
/// built.
#[test]
fn different_lengths_never_share_a_batch_but_argument_bits_do() {
    let rt = skelcl::init_gpus(2);
    let config = ServerConfig {
        coalesce_cap: 4,
        ..ServerConfig::default()
    };
    let server = Server::with_config(rt.clone(), config);
    server.add_tenant("t", TenantConfig::default()).unwrap();
    let session = server.session("t").unwrap();
    let scale = Map::<f32, f32>::from_source("float func(float x, float s) { return x * s; }");
    let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
    let submit = |len: usize, s: f32| {
        let plan = Vector::from_vec(&rt, vec![1.0f32; len])
            .lazy()
            .map_with(&scale, args![s])
            .reduce(&sum);
        session.submit_scalar(&plan).unwrap()
    };
    let jobs = [
        (submit(64, 2.0), 128.0f32, 4),
        (submit(65, 2.0), 130.0, 1),
        (submit(64, 0.0), 0.0, 4),
        (submit(64, -0.0), -0.0, 4),
        (submit(64, 2.0), 128.0, 4),
    ];
    server.flush();
    for (handle, value, batch) in jobs {
        let (got, report) = handle.wait().unwrap();
        assert_eq!(got.to_bits(), value.to_bits());
        assert_eq!(report.batch_jobs, batch);
    }
    let trace = server.trace();
    assert_eq!((trace.batches, trace.packed_batches), (2, 2));
    assert_eq!(trace.coalesced_jobs, 4);
    // One shape, whatever the lengths and arguments.
    assert_eq!(rt.exec_trace().plan_lowerings, 1);
    assert_eq!(rt.exec_trace().programs_built, 1);
}

/// An empty reduction is admitted (the length is part of its signature, not
/// a reason to refuse it) and fails typed when its batch is dispatched; its
/// quota is credited once and its pending slot released.
#[test]
fn an_empty_input_fails_typed_at_dispatch() {
    let rt = skelcl::init_gpus(2);
    let server = Server::new(rt.clone());
    let quota = TenantConfig {
        quota_bytes: Some(1 << 10),
        max_pending: 1,
        ..TenantConfig::default()
    };
    server.add_tenant("t", quota).unwrap();
    let session = server.session("t").unwrap();
    let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");

    let empty = Vector::from_vec(&rt, Vec::<f32>::new());
    let handle = session
        .try_submit_scalar(&empty.lazy().reduce(&sum))
        .unwrap();
    assert_eq!(server.trace().jobs_failed, 0, "not before dispatch");
    server.flush();
    match handle.wait() {
        Err(ServeError::Skel(SkelError::EmptyInput)) => {}
        other => panic!("expected EmptyInput, got {:?}", other.map(|r| r.0)),
    }
    let trace = server.trace();
    assert_eq!((trace.jobs_failed, trace.jobs_retried), (1, 0));
    assert_eq!(rt.context().ledger().usage("t").used_bytes, 0);

    // Quota and the tenant's one pending slot are free again.
    let v = Vector::from_vec(&rt, vec![1.0f32; 100]);
    let handle = session.try_submit_scalar(&v.lazy().reduce(&sum)).unwrap();
    assert_eq!(handle.wait().unwrap().0, 100.0);
    assert_eq!(rt.context().ledger().usage("t").used_bytes, 0);
}

/// Everything observable about one wave of reductions.
#[derive(Debug, PartialEq)]
struct Wave {
    bits: Vec<u64>,
    reports: Vec<JobReport>,
    batch_sizes: Vec<usize>,
    end: skelcl::oclsim::SimTime,
}

fn wave(devices: usize) -> Wave {
    let (rt, server) = server_on(devices, true);
    let session = server.session("t").unwrap();
    let cases = cases();
    let waiters: Vec<Waiter> = (0..24)
        .map(|i| (cases[i % cases.len()].submit)(&rt, &session, i, [64, 700][i % 2]))
        .collect();
    server.flush();
    let (bits, reports) = waiters.into_iter().map(|wait| wait()).unzip();
    Wave {
        bits,
        reports,
        batch_sizes: server.trace().batch_sizes,
        end: rt.now(),
    }
}

/// Three repetitions of a wave give identical results, `JobReport`s —
/// device, batch, virtual submit and completion times — and virtual clock;
/// the results do not depend on the device count either.
#[test]
fn three_reps_give_identical_reports() {
    let mut per_devices = Vec::new();
    for devices in [1usize, 2, 4] {
        let first = wave(devices);
        for _ in 0..2 {
            assert_eq!(wave(devices), first, "rep diverged at {devices} device(s)");
        }
        per_devices.push(first);
    }
    for other in &per_devices[1..] {
        assert_eq!(other.bits, per_devices[0].bits);
        assert_eq!(other.batch_sizes, per_devices[0].batch_sizes);
    }
    let used: std::collections::BTreeSet<_> =
        per_devices[2].reports.iter().map(|r| r.device).collect();
    assert!(used.len() > 1, "4 devices share the wave: {used:?}");
}
