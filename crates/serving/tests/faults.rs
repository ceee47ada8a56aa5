//! Fault-path tests of the serving layer: transient faults are retried
//! with backoff and succeed bit-identically — for reductions as for vector
//! jobs — replays refresh their inputs (no silent zeros from a failed
//! upload, whichever in-flight batch it hit), device-loss replays land on
//! surviving devices, an exhausted retry budget fails typed with the full
//! fault chain, quota is credited exactly once on every failure path,
//! `cancel` releases admission state, and queued jobs past their
//! virtual-time deadline fail typed.
//!
//! Core-level recovery is disabled (`set_recovery_enabled(false)`)
//! throughout so injected faults propagate up to the serving retry layer
//! instead of being replayed inside the skeleton launch.

use skelcl::oclsim::{FaultPlan, SimTime};
use skelcl::prelude::*;
use skelcl_serving::{JobOptions, ServeError, Server, ServerConfig, TenantConfig};

fn double() -> Map<f32, f32> {
    Map::from_source("float func(float x) { return 2.0f * x; }")
}

fn fsum() -> Reduce<f32> {
    Reduce::from_source("float func(float a, float b) { return a + b; }")
}

fn prefix_sum() -> Scan<f32> {
    Scan::from_source("float func(float a, float b) { return a + b; }")
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

#[test]
fn transient_launch_fault_is_retried_and_succeeds_bit_identically() {
    let rt = skelcl::init_gpus(1);
    rt.set_recovery_enabled(false);
    rt.inject_faults(&FaultPlan::new().transient_launch_at_op(0, 1));
    let server = Server::new(rt.clone());
    server.add_tenant("t", TenantConfig::default()).unwrap();
    let session = server.session("t").unwrap();

    let xs = input(1, 64);
    let v = Vector::from_vec(&rt, xs.clone());
    let handle = session.submit_vec(&v.lazy().map(&double())).unwrap();
    server.flush();
    let (got, _) = handle.wait().unwrap();
    assert_eq!(
        bits(&got),
        bits(&xs.iter().map(|x| 2.0 * x).collect::<Vec<_>>())
    );

    let trace = server.trace();
    assert!(trace.jobs_retried >= 1, "the fault must force a retry");
    assert_eq!(trace.jobs_failed, 0);
    assert_eq!(trace.jobs_completed, 1);
    // Quota held across the retry, credited exactly once on completion.
    assert_eq!(rt.context().ledger().usage("t").used_bytes, 0);
}

#[test]
fn replays_refresh_inputs_after_a_failed_upload() {
    // The transient fault kills the *input upload*: the coherence flags
    // recorded the transfer when it was enqueued, so a replay that skipped
    // the refresh would trust a device buffer the data never reached and
    // silently return zeros.
    let rt = skelcl::init_gpus(1);
    rt.set_recovery_enabled(false);
    rt.inject_faults(&FaultPlan::new().transient_transfer_at_op(0, 1));
    let server = Server::new(rt.clone());
    server.add_tenant("t", TenantConfig::default()).unwrap();
    let session = server.session("t").unwrap();

    let xs = input(2, 48);
    let v = Vector::from_vec(&rt, xs.clone());
    let handle = session.submit_vec(&v.lazy().map(&double())).unwrap();
    server.flush();
    let (got, _) = handle.wait().unwrap();
    assert_eq!(
        bits(&got),
        bits(&xs.iter().map(|x| 2.0 * x).collect::<Vec<_>>())
    );
    assert!(server.trace().jobs_retried >= 1);
}

#[test]
fn a_failed_packed_write_of_a_reduction_is_retried_and_succeeds() {
    // Reductions take the packed path, so they get its retries: the fault
    // kills the one input write of the packed reduce launch.
    let rt = skelcl::init_gpus(1);
    rt.set_recovery_enabled(false);
    rt.inject_faults(&FaultPlan::new().transient_transfer_at_op(0, 1));
    let server = Server::new(rt.clone());
    server.add_tenant("t", TenantConfig::default()).unwrap();
    let session = server.session("t").unwrap();

    let jobs: Vec<_> = (0..3)
        .map(|i| {
            let xs = input(20 + i, 700);
            let v = Vector::from_vec(&rt, xs.clone());
            let plan = v.lazy().map(&double()).reduce(&fsum());
            (xs, session.submit_scalar(&plan).unwrap())
        })
        .collect();
    server.flush();
    let ref_rt = skelcl::init_gpus(1);
    for (xs, handle) in jobs {
        let (got, report) = handle.wait().unwrap();
        let v = Vector::from_vec(&ref_rt, xs);
        let expect = v.lazy().map(&double()).reduce(&fsum()).scalar().unwrap();
        assert_eq!(got.to_bits(), expect.to_bits());
        assert_eq!((report.device, report.batch_jobs), (Some(0), 3));
    }
    let trace = server.trace();
    assert_eq!(trace.jobs_retried, 3, "the whole batch replays");
    assert_eq!((trace.jobs_failed, trace.jobs_completed), (0, 3));
    assert_eq!(rt.context().ledger().usage("t").used_bytes, 0);
}

/// A packed batch is one command-buffer submission: when its slot write
/// fails, the kernel and the read fail unexecuted — the device counts one
/// fault-op, its queue no time. (They used to run on the zero-filled buffer,
/// counted and charged, before `wait` threw the result away.)
#[test]
fn a_failed_slot_write_runs_nothing_after_it() {
    for scalar in [false, true] {
        let rt = skelcl::init_gpus(1);
        rt.set_recovery_enabled(false);
        let server = Server::new(rt.clone());
        server.add_tenant("t", TenantConfig::default()).unwrap();
        let session = server.session("t").unwrap();
        let device = rt.context().device(0).unwrap().clone();
        let (ops, available) = (device.fault_op_count(), rt.queue(0).available_at());
        rt.inject_faults(&FaultPlan::new().transient_transfer_at_op(0, ops + 1));
        let v = Vector::from_vec(&rt, input(40, 64));
        let once = JobOptions::with_max_retries(0);
        let outcome = if scalar {
            let plan = v.lazy().map(&double()).reduce(&fsum());
            let handle = session.submit_scalar_with(&plan, once).unwrap();
            server.flush();
            handle.wait().map(drop)
        } else {
            let handle = session
                .submit_vec_with(&v.lazy().map(&double()), once)
                .unwrap();
            server.flush();
            handle.wait().map(drop)
        };
        assert!(
            matches!(outcome, Err(ServeError::JobFailed { attempts: 1, .. })),
            "{outcome:?}"
        );
        assert_eq!(device.fault_op_count(), ops + 1, "reduce: {scalar}");
        assert_eq!(rt.queue(0).available_at(), available, "reduce: {scalar}");
        assert_eq!(rt.context().ledger().usage("t").used_bytes, 0);
    }
}

#[test]
fn a_fault_in_one_inflight_batch_spares_its_neighbours() {
    // Two batches in flight on one device; the fault kills the input write
    // of the second. Only the second replays — the first used to take the
    // error off the queue, and the second to return the zeros it computed on.
    let rt = skelcl::init_gpus(1);
    rt.set_recovery_enabled(false);
    rt.inject_faults(&FaultPlan::new().transient_transfer_at_op(0, 4));
    let server = Server::new(rt.clone());
    server.add_tenant("t", TenantConfig::default()).unwrap();
    let session = server.session("t").unwrap();

    let xs = input(30, 64);
    let v = Vector::from_vec(&rt, xs.clone());
    let first = session.submit_vec(&v.lazy().map(&double())).unwrap();
    let ys = input(31, 64);
    let w = Vector::from_vec(&rt, ys.clone());
    let second = session
        .submit_scalar(&w.lazy().map(&double()).reduce(&fsum()))
        .unwrap();
    server.flush();

    let (got, _) = first.wait().unwrap();
    assert_eq!(
        bits(&got),
        bits(&xs.iter().map(|x| 2.0 * x).collect::<Vec<_>>())
    );
    let (got, _) = second.wait().unwrap();
    let ref_rt = skelcl::init_gpus(1);
    let rw = Vector::from_vec(&ref_rt, ys);
    let expect = rw.lazy().map(&double()).reduce(&fsum()).scalar().unwrap();
    assert_eq!(got.to_bits(), expect.to_bits());
    assert_eq!(server.trace().jobs_retried, 1);
}

#[test]
fn device_loss_replays_land_on_a_survivor() {
    let rt = skelcl::init_gpus(2);
    rt.set_recovery_enabled(false);
    rt.inject_faults(&FaultPlan::new().device_lost_at_op(0, 1));
    let server = Server::new(rt.clone());
    server.add_tenant("t", TenantConfig::default()).unwrap();
    let session = server.session("t").unwrap();

    let xs = input(3, 80);
    let v = Vector::from_vec(&rt, xs.clone());
    let handle = session.submit_vec(&v.lazy().map(&double())).unwrap();
    server.flush();
    let (got, _) = handle.wait().unwrap();
    assert_eq!(
        bits(&got),
        bits(&xs.iter().map(|x| 2.0 * x).collect::<Vec<_>>())
    );
    assert_eq!(rt.lost_devices(), vec![0]);
    assert!(server.trace().jobs_retried >= 1);

    // Later jobs dispatch straight onto the survivor: no further retries.
    let retried_before = server.trace().jobs_retried;
    let ys = input(4, 32);
    let w = Vector::from_vec(&rt, ys.clone());
    let handle = session.submit_vec(&w.lazy().map(&double())).unwrap();
    server.flush();
    let (got, _) = handle.wait().unwrap();
    assert_eq!(
        bits(&got),
        bits(&ys.iter().map(|y| 2.0 * y).collect::<Vec<_>>())
    );
    assert_eq!(server.trace().jobs_retried, retried_before);
}

#[test]
fn exhausted_retries_fail_typed_with_the_full_fault_chain() {
    let rt = skelcl::init_gpus(1);
    rt.set_recovery_enabled(false);
    rt.inject_faults(&FaultPlan::new().device_lost_at_op(0, 1));
    let server = Server::with_config(
        rt.clone(),
        ServerConfig {
            max_retries: 2,
            ..ServerConfig::default()
        },
    );
    server.add_tenant("t", TenantConfig::default()).unwrap();
    let session = server.session("t").unwrap();

    let v = Vector::from_vec(&rt, input(5, 24));
    let handle = session.submit_vec(&v.lazy().map(&double())).unwrap();
    server.flush();
    match handle.wait() {
        Err(ServeError::JobFailed {
            tenant,
            attempts,
            fault_chain,
        }) => {
            assert_eq!(tenant, "t");
            assert_eq!(attempts, 3, "initial attempt plus max_retries replays");
            assert_eq!(fault_chain.len(), 3);
            for entry in &fault_chain {
                assert!(
                    entry.contains("lost"),
                    "each chain entry records the device loss: {entry}"
                );
            }
        }
        other => panic!("expected JobFailed, got {other:?}"),
    }
    let trace = server.trace();
    assert_eq!(trace.jobs_failed, 1);
    assert_eq!(trace.jobs_retried, 2);
    // Terminal failure credits the quota exactly once.
    assert_eq!(rt.context().ledger().usage("t").used_bytes, 0);
}

#[test]
fn per_job_retry_override_caps_the_attempts() {
    let rt = skelcl::init_gpus(1);
    rt.set_recovery_enabled(false);
    rt.inject_faults(&FaultPlan::new().device_lost_at_op(0, 1));
    let server = Server::new(rt.clone());
    server.add_tenant("t", TenantConfig::default()).unwrap();
    let session = server.session("t").unwrap();

    let v = Vector::from_vec(&rt, input(6, 24));
    let handle = session
        .submit_vec_with(&v.lazy().map(&double()), JobOptions::with_max_retries(0))
        .unwrap();
    server.flush();
    match handle.wait() {
        Err(ServeError::JobFailed { attempts, .. }) => assert_eq!(attempts, 1),
        other => panic!("expected JobFailed, got {other:?}"),
    }
    assert_eq!(server.trace().jobs_retried, 0);
}

#[test]
fn cancel_releases_quota_and_pending_before_dispatch() {
    let rt = skelcl::init_gpus(1);
    let server = Server::new(rt.clone());
    // Quota and backpressure sized for exactly one queued job, so the
    // follow-up submission only succeeds if cancel released both.
    server
        .add_tenant(
            "t",
            TenantConfig {
                quota_bytes: Some(200),
                max_pending: 1,
                ..TenantConfig::default()
            },
        )
        .unwrap();
    let session = server.session("t").unwrap();

    let xs = input(7, 16);
    let v = Vector::from_vec(&rt, xs.clone());
    let first = session.try_submit_vec(&v.lazy().map(&double())).unwrap();
    assert!(first.cancel(), "a queued job is cancellable");
    match first.wait() {
        Err(ServeError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert_eq!(rt.context().ledger().usage("t").used_bytes, 0);

    let second = session.try_submit_vec(&v.lazy().map(&double())).unwrap();
    server.flush();
    let (got, _) = second.wait().unwrap();
    assert_eq!(
        bits(&got),
        bits(&xs.iter().map(|x| 2.0 * x).collect::<Vec<_>>())
    );

    let trace = server.trace();
    assert_eq!(trace.jobs_cancelled, 1);
    assert_eq!(trace.jobs_completed, 1);
    assert_eq!(trace.jobs_failed, 1, "a cancellation counts as a failure");
}

#[test]
fn cancel_after_dispatch_returns_false() {
    let rt = skelcl::init_gpus(1);
    let server = Server::new(rt.clone());
    server.add_tenant("t", TenantConfig::default()).unwrap();
    let session = server.session("t").unwrap();

    let v = Vector::from_vec(&rt, input(8, 16));
    let handle = session.submit_vec(&v.lazy().map(&double())).unwrap();
    server.flush();
    assert!(!handle.cancel(), "a dispatched job runs to completion");
    handle.wait().unwrap();
    assert_eq!(server.trace().jobs_cancelled, 0);
}

#[test]
fn queued_jobs_past_their_deadline_fail_typed() {
    let rt = skelcl::init_gpus(1);
    let server = Server::with_config(
        rt.clone(),
        ServerConfig {
            coalescing: false,
            ..ServerConfig::default()
        },
    );
    server.add_tenant("t", TenantConfig::default()).unwrap();
    let session = server.session("t").unwrap();

    // Job A (a scan: opaque, so it runs synchronously at dispatch)
    // dispatches first — same tenant, lower sequence number — and advances
    // the virtual clock past job B's deadline while B is still queued.
    let xs = input(9, 64);
    let v = Vector::from_vec(&rt, xs.clone());
    let a = session.submit_vec(&v.lazy().scan(&prefix_sum())).unwrap();
    let w = Vector::from_vec(&rt, input(10, 16));
    let b = session
        .submit_vec_with(
            &w.lazy().map(&double()),
            JobOptions::with_deadline(SimTime::ZERO),
        )
        .unwrap();

    server.flush();
    a.wait().unwrap();
    match b.wait() {
        Err(ServeError::DeadlineExceeded { tenant, deadline }) => {
            assert_eq!(tenant, "t");
            assert_eq!(deadline, SimTime::ZERO);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    let trace = server.trace();
    assert_eq!(trace.opaque_jobs, 1, "a scan still runs at dispatch");
    assert_eq!(trace.jobs_deadline_failed, 1);
    assert_eq!(rt.context().ledger().usage("t").used_bytes, 0);
}

#[test]
fn fault_free_serving_is_unchanged_by_the_retry_machinery() {
    // A dormant fault plan and a generous retry budget must not perturb
    // results or the virtual clock: the retry layer only acts after a
    // failure.
    let run = |max_retries: usize, armed: bool| {
        let rt = skelcl::init_gpus(2);
        if armed {
            // A plan whose triggers never become due charges zero time.
            rt.inject_faults(&FaultPlan::new().device_lost_at_op(0, 1_000_000));
        }
        let server = Server::with_config(
            rt.clone(),
            ServerConfig {
                max_retries,
                ..ServerConfig::default()
            },
        );
        server.add_tenant("t", TenantConfig::default()).unwrap();
        let session = server.session("t").unwrap();
        let xs = input(11, 96);
        let v = Vector::from_vec(&rt, xs);
        let handle = session.submit_vec(&v.lazy().map(&double())).unwrap();
        server.flush();
        let (got, _) = handle.wait().unwrap();
        (bits(&got), rt.now())
    };
    let baseline = run(0, false);
    assert_eq!(run(5, false), baseline);
    assert_eq!(run(5, true), baseline);
}
