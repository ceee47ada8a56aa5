//! Multi-tenant serving benchmark: throughput and latency of the admission
//! scheduler at 1/100/1k/10k concurrent sessions, coalesced vs uncoalesced.
//!
//! Each session is one client submitting a small pipeline job to a shared
//! server (4 tenants, weights 1–4, 2 simulated devices): an elementwise map
//! (`submit_vec`), or — the `reduce` rows, 1/100/1k sessions — the same map
//! closed by a sum (`submit_scalar`), all of one length so that they
//! coalesce. The harness reports jobs/sec in wall-clock AND virtual time,
//! p50/p99 virtual job latency (admission → completion) and the host's
//! virtual time per packed batch (what dispatch and enqueues cost the host
//! between one batch's submission and the next), asserts that
//! coalescing reduces the simulator's kernel-launch count whenever more
//! than one job is in play and leaves every result bit unchanged, checks
//! that a fixed submission order is bit-identical (results and virtual
//! clock) across repetitions, and emits `BENCH_serving.json`.
//!
//! Usage:
//!   cargo run --release -p skelcl_bench --bin serving_bench
//!   cargo run --release -p skelcl_bench --bin serving_bench -- --smoke
//!   cargo run --release -p skelcl_bench --bin serving_bench -- --out path.json

use std::time::Instant;

use skelcl::prelude::*;
use skelcl_serving::{JobHandle, JobReport, Server, ServerConfig, Session, TenantConfig};

const TENANTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// What every session submits.
#[derive(Clone, Copy, PartialEq)]
enum Job {
    /// `map`, through `submit_vec`.
    Map,
    /// `map → reduce`, through `submit_scalar`.
    Reduce,
}

impl Job {
    fn name(self) -> &'static str {
        match self {
            Job::Map => "map",
            Job::Reduce => "reduce",
        }
    }
}

/// A submitted job of either kind.
enum Handle {
    Vec(JobHandle<Vec<f32>>),
    Scalar(JobHandle<f32>),
}

impl Handle {
    /// The job's result elements (one for a reduction) and its report.
    fn wait(self) -> (Vec<f32>, JobReport) {
        match self {
            Handle::Vec(handle) => handle.wait().expect("job result"),
            Handle::Scalar(handle) => {
                let (out, report) = handle.wait().expect("job result");
                (vec![out], report)
            }
        }
    }
}

struct ScaleResult {
    job: Job,
    sessions: usize,
    coalesced: bool,
    wall_jps: f64,
    virt_jps: f64,
    p50_virt_us: f64,
    p99_virt_us: f64,
    launches: usize,
    packed_batches: usize,
    host_us_per_batch: Option<f64>,
    checksum: u64,
    virt_secs: f64,
}

fn seeded(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32) / 1e6
        })
        .collect()
}

fn total_launches(trace: &skelcl::ExecTrace) -> usize {
    trace.interp_launches()
        + trace.scalar_launches()
        + trace.batched_launches()
        + trace.native_launches()
}

/// The host's virtual time per packed batch: the mean period between the
/// enqueue times of consecutive batches' slot writes (one per batch here),
/// which the scheduler submits back to back without waiting on a device;
/// `None` below two batches.
fn host_us_per_batch(events: &[Vec<skelcl::oclsim::Event>]) -> Option<f64> {
    let writes = events.iter().flatten().filter(|e| e.is_write());
    let (first, last, n) = writes.fold((u64::MAX, 0, 0u64), |(lo, hi, n), e| {
        let t = e.queued.as_nanos();
        (lo.min(t), hi.max(t), n + 1)
    });
    (n > 1).then(|| (last - first) as f64 / (n - 1) as f64 / 1e3)
}

fn percentile(sorted: &[f64], pct: usize) -> f64 {
    let idx = (sorted.len() * pct / 100).min(sorted.len().saturating_sub(1));
    sorted[idx]
}

/// One serving scenario: `sessions` clients, one job each, round-robin
/// across the four tenants, submitted in a fixed order.
fn run_scale(job: Job, sessions: usize, coalescing: bool, len: usize) -> ScaleResult {
    let rt = skelcl::init_gpus(2);
    let server = Server::with_config(
        rt.clone(),
        ServerConfig {
            coalescing,
            coalesce_cap: 64,
            max_queue_depth: 1024,
            ..ServerConfig::default()
        },
    );
    for (i, tenant) in TENANTS.iter().enumerate() {
        server
            .add_tenant(tenant, TenantConfig::weighted(i as u32 + 1))
            .expect("register tenant");
    }
    let saxpyish = Map::<f32, f32>::from_source("float func(float x) { return 2.0f * x + 0.5f; }");
    let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
    let submit = |session: &Session, seed: u64| {
        let plan = Vector::from_vec(&rt, seeded(len, seed))
            .lazy()
            .map(&saxpyish);
        match job {
            Job::Map => Handle::Vec(session.submit_vec(&plan).expect("submit")),
            Job::Reduce => {
                Handle::Scalar(session.submit_scalar(&plan.reduce(&sum)).expect("submit"))
            }
        }
    };

    // Warm-up: compiles the (length-independent) packed kernel source.
    submit(&server.session("alpha").expect("session"), 999_999).wait();

    let launches_before = total_launches(&rt.exec_trace());
    rt.drain_events();
    let virt_start = rt.now();
    let wall_start = Instant::now();
    let mut handles = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let session = server.session(TENANTS[i % TENANTS.len()]).expect("session");
        handles.push(submit(&session, i as u64));
    }
    server.flush();
    let mut checksum = 0u64;
    let mut latencies = Vec::with_capacity(sessions);
    for handle in handles {
        let (out, report) = handle.wait();
        for x in &out {
            checksum = checksum.rotate_left(7).wrapping_add(u64::from(x.to_bits()));
        }
        latencies.push(report.latency().as_secs_f64());
    }
    let wall_secs = wall_start.elapsed().as_secs_f64();
    let virt_secs = (rt.now() - virt_start).as_secs_f64();
    latencies.sort_by(f64::total_cmp);

    let trace = server.trace();
    assert_eq!(trace.jobs_completed, sessions + 1, "all jobs must complete");
    assert_eq!(trace.opaque_jobs, 0, "maps and reductions run packed");
    ScaleResult {
        job,
        sessions,
        coalesced: coalescing,
        wall_jps: sessions as f64 / wall_secs,
        virt_jps: sessions as f64 / virt_secs,
        p50_virt_us: percentile(&latencies, 50) * 1e6,
        p99_virt_us: percentile(&latencies, 99) * 1e6,
        launches: total_launches(&rt.exec_trace()) - launches_before,
        packed_batches: trace.packed_batches,
        host_us_per_batch: host_us_per_batch(&rt.drain_events()),
        checksum,
        virt_secs,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_serving.json".to_string());

    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let len = if smoke { 16 } else { 64 };
    let scales: [(Job, &[usize]); 2] = [
        (Job::Map, &[1, 100, 1_000, 10_000]),
        (Job::Reduce, &[1, 100, 1_000]),
    ];

    let mut rows: Vec<ScaleResult> = Vec::new();
    for (job, sessions) in scales {
        for &sessions in sessions {
            let on = run_scale(job, sessions, true, len);
            let off = run_scale(job, sessions, false, len);
            assert_eq!(
                on.checksum,
                off.checksum,
                "coalesced and uncoalesced {} results must be bit-identical",
                job.name()
            );
            if sessions > 1 {
                assert!(
                    on.launches < off.launches,
                    "coalescing must reduce {} launches at {sessions} sessions: {} vs {}",
                    job.name(),
                    on.launches,
                    off.launches
                );
            }
            rows.push(on);
            rows.push(off);
        }

        // Determinism: a fixed submission order is bit-identical — results
        // and the virtual clock — across repetitions.
        let rep_a = run_scale(job, 100, true, len);
        let rep_b = run_scale(job, 100, true, len);
        assert_eq!(rep_a.checksum, rep_b.checksum, "result determinism");
        assert_eq!(
            rep_a.virt_secs.to_bits(),
            rep_b.virt_secs.to_bits(),
            "virtual-time determinism"
        );
    }

    println!("host_cpus = {host_cpus}");
    for r in &rows {
        println!(
            "{:>6} {:<6} sessions  {}  {:>10.0} jobs/s wall  {:>12.0} jobs/s virtual  p50 {:>8.2} us  p99 {:>8.2} us  {:>6} launches ({} packed batches, host {} us each)",
            r.sessions,
            r.job.name(),
            if r.coalesced { "coalesced  " } else { "uncoalesced" },
            r.wall_jps,
            r.virt_jps,
            r.p50_virt_us,
            r.p99_virt_us,
            r.launches,
            r.packed_batches,
            r.host_us_per_batch.map_or("-".to_string(), |us| format!("{us:.2}")),
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"serving\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p skelcl_bench --bin serving_bench\",\n",
    );
    json.push_str(&format!("  \"elements_per_job\": {len},\n"));
    json.push_str(
        "  \"note\": \"4 tenants (weights 1-4) on 2 simulated devices, one job per session: a map (submit_vec) or the same map closed by a sum (submit_scalar, job = reduce), all of one length; latencies are virtual (admission to completion); host_us_per_batch is the host's virtual time between consecutive packed batches' submissions (dispatch + enqueues, null below two batches); coalesced and uncoalesced results are bit-identical, coalescing cuts launches, no job runs opaque and a fixed submission order is deterministic across reps (asserted)\",\n",
    );
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{ \"job\": \"{}\", \"sessions\": {}, \"coalesced\": {}, \"wall_jobs_per_sec\": {:.0}, \"virtual_jobs_per_sec\": {:.0}, \"p50_virtual_us\": {:.2}, \"p99_virtual_us\": {:.2}, \"launches\": {}, \"packed_batches\": {}, \"host_us_per_batch\": {} }}{comma}\n",
            r.job.name(),
            r.sessions,
            r.coalesced,
            r.wall_jps,
            r.virt_jps,
            r.p50_virt_us,
            r.p99_virt_us,
            r.launches,
            r.packed_batches,
            r.host_us_per_batch.map_or("null".to_string(), |us| format!("{us:.2}")),
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");
}
