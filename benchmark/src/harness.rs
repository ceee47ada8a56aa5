//! The run shape shared by all workloads: closed loop, one client thread,
//! one process per workload.
//!
//! An end-to-end run (`--trace 0`) does a phase of cold starts, 10 warm-up
//! iterations, times iterations for `--seconds`, then does a second phase of
//! cold starts; 3 more iterations on a 4-device runtime (and on a 1-device one where the wall configuration is
//! not 1 device) give the deterministic `_d4` columns without a timed run.
//! A traced run (`--trace 1`) alternates blocks of untraced and traced
//! iterations in one process, so the tracing overhead is a paired
//! difference, then runs the layer probes.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::metrics;
use crate::probes;
use crate::stats::{fastest, median, percentile, samples_beyond};
use crate::trace::{device_time, DeviceTime, Tracer};
use crate::workloads::{put, Check, IterReport, Metrics, Session, Workload};

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `--smoke`: 5 timed iterations, one cold start, minimal probes.
    pub smoke: bool,
    pub out_dir: PathBuf,
}

#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Checksum of the wall configuration's iterations (all identical, or
    /// that is a failure).
    pub checksum: u64,
    /// Timed iterations behind the wall metrics.
    pub samples: usize,
    pub metrics: Metrics,
    /// Failures, drifts and probe errors, for the human reader.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn absorb(&mut self, check: Check, context: &str) {
        self.attempted += check.attempted;
        self.failed += check.failed;
        for e in check.errors {
            if self.notes.len() < 32 {
                self.notes.push(format!("FAILED [{context}] {e}"));
            }
        }
    }

    /// Record a failure that is not an output mismatch (an `Err`, a drifting
    /// exact number, a checksum change).
    fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 32 {
            self.notes.push(format!("FAILED {why}"));
        }
    }
}

/// Cold starts per phase: at least this many, and up to [`MAX_COLD_STARTS`]
/// while the phase is younger than [`COLD_PHASE_SECONDS`]. There is one phase
/// before the timed iterations and one after, so that a burst of host
/// interference covering one of them leaves the other's samples clean.
const COLD_STARTS: usize = 5;
const MAX_COLD_STARTS: usize = 25;
const COLD_PHASE_SECONDS: f64 = 0.5;
const WARMUP: usize = 10;
/// Timed iteration after which peak RSS is sampled: a fixed point in the
/// work sequence, so a faster commit that fits more iterations into
/// `--seconds` is not charged for the program's per-iteration growth.
const RSS_SAMPLE_AT: usize = 110;
/// The percentile of the iteration walls `wall_rate` is taken at. The build
/// host is a shared VM whose speed flips between two regimes 1.3–1.7x apart
/// for seconds at a time; interference only ever slows an iteration down, so
/// the fast decile repeats across runs where the median flips with the
/// regime (README, "Steadiness").
const FAST: f64 = 10.0;
const TRACED_ITERS: usize = 30;
const BLOCK: usize = 5;

/// One iteration: untimed prepare, timed run, untimed check + event drain.
/// Returns the wall seconds and the report, or `None` after recording the
/// failure.
fn iterate(
    sess: &mut dyn Session,
    t: &mut Tracer,
    result: &mut RunResult,
    context: &str,
) -> Option<(f64, IterReport, u64)> {
    if let Err(e) = sess.prepare() {
        result.fail(format!("[{context}] prepare: {e}"));
        return None;
    }
    let rt = sess.runtime();
    let root = t.begin("harness", "iteration");
    let start = Instant::now();
    let outcome = sess.run(t);
    let wall = start.elapsed().as_secs_f64();
    t.end(root, Some(&rt));
    if !t.enabled() {
        // The simulator logs every command; keep the log from growing.
        rt.drain_events();
    }
    match outcome {
        Ok(report) => {
            let check = sess.check();
            let checksum = check.checksum;
            result.absorb(check, context);
            Some((wall, report, checksum))
        }
        Err(e) => {
            result.fail(format!("[{context}] {e}"));
            None
        }
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A fresh `devices`-device session run for one cold iteration (discarded)
/// and `iters` steady ones: `(wall ms, virtual ns, checksum)` of each, or
/// `None` after recording the failure.
fn steady_iterations(
    workload: &dyn Workload,
    devices: usize,
    iters: usize,
    result: &mut RunResult,
) -> Option<Vec<(f64, u64, u64)>> {
    let context = format!("{devices} devices");
    let mut sess = workload
        .start(devices)
        .map_err(|e| result.fail(format!("[{context}] start: {e}")))
        .ok()?;
    let mut off = Tracer::off();
    let mut steady = Vec::with_capacity(iters);
    for i in 0..=iters {
        let (wall, report, checksum) = iterate(sess.as_mut(), &mut off, result, &context)?;
        if i > 0 {
            steady.push((wall * 1e3, report.virt_ns, checksum));
        }
    }
    Some(steady)
}

/// Steady virtual seconds per iteration on a `devices`-device runtime; the
/// iterations must all agree, and match `expect_checksum` where given.
fn virt_at(
    workload: &dyn Workload,
    devices: usize,
    iters: usize,
    expect_checksum: Option<u64>,
    result: &mut RunResult,
) -> f64 {
    let Some(steady) = steady_iterations(workload, devices, iters, result) else {
        return f64::NAN;
    };
    let virt: Vec<u64> = steady.iter().map(|&(_, ns, _)| ns).collect();
    if virt.iter().any(|&v| v != virt[0]) {
        result.fail(format!(
            "[{devices} devices] virtual time drifts across iterations: {virt:?} ns"
        ));
    }
    if let Some(expected) = expect_checksum {
        if let Some(&(_, _, got)) = steady.iter().find(|&&(_, _, sum)| sum != expected) {
            result.fail(format!(
                "[{devices} devices] checksum {got:016x} differs from the wall configuration's {expected:016x}"
            ));
        }
    }
    virt.last().map_or(f64::NAN, |&ns| ns as f64 / 1e9)
}

pub fn run(workload: &dyn Workload, cfg: &RunConfig) -> RunResult {
    let mut result = RunResult::default();
    if cfg.trace {
        traced_run(workload, cfg, &mut result);
        // Every per-layer metric is printed by every workload; the ones a
        // workload has no such layer for read 0.
        let measured = std::mem::take(&mut result.metrics);
        for metric in metrics::traced() {
            let value = measured
                .iter()
                .find(|(n, _)| n == metric.name)
                .map_or(0.0, |(_, v)| *v);
            put(&mut result.metrics, metric.name, value);
        }
    } else {
        end_to_end_run(workload, cfg, &mut result);
    }
    result
}

/// One phase of cold starts — fresh runtime + fresh skeleton objects + first
/// full iteration — appending each start's wall seconds to `setup` and its
/// virtual nanoseconds to `virt_cold`. At least [`COLD_STARTS`], more while
/// they are cheap, so that a 20 ms set-up is not the noisiest number of the
/// run. Returns the last session, warm, or `None` after recording a failure.
fn cold_starts<'w>(
    workload: &'w dyn Workload,
    smoke: bool,
    setup: &mut Vec<f64>,
    virt_cold: &mut Vec<u64>,
    result: &mut RunResult,
) -> Option<Box<dyn Session + 'w>> {
    let mut off = Tracer::off();
    let mut warm: Option<Box<dyn Session + 'w>> = None;
    let phase = Instant::now();
    for i in 0..MAX_COLD_STARTS {
        let enough = i >= COLD_STARTS && phase.elapsed().as_secs_f64() >= COLD_PHASE_SECONDS;
        if enough || (smoke && i > 0) {
            break;
        }
        drop(warm.take());
        let start = Instant::now();
        let mut sess = workload
            .start(workload.wall_devices())
            .map_err(|e| result.fail(format!("[cold start {i}] start: {e}")))
            .ok()?;
        let ran = sess.prepare().and_then(|()| sess.run(&mut off));
        setup.push(start.elapsed().as_secs_f64());
        ran.map_err(|e| result.fail(format!("[cold start {i}] {e}")))
            .ok()?;
        let rt = sess.runtime();
        virt_cold.push(rt.finish_all().as_nanos());
        rt.drain_events();
        result.absorb(sess.check(), "cold start");
        warm = Some(sess);
    }
    warm
}

fn end_to_end_run(workload: &dyn Workload, cfg: &RunConfig, result: &mut RunResult) {
    let wall_devices = workload.wall_devices();
    let mut off = Tracer::off();

    let mut setup = Vec::new();
    let mut virt_cold = Vec::new();
    let Some(mut sess) = cold_starts(workload, cfg.smoke, &mut setup, &mut virt_cold, result)
    else {
        return;
    };

    for _ in 0..if cfg.smoke { 2 } else { WARMUP } {
        if iterate(sess.as_mut(), &mut off, result, "warm-up").is_none() {
            return;
        }
    }

    // Timed iterations.
    let mut wall_ms = Vec::new();
    let mut virt_ns = Vec::new();
    let mut checksum = None;
    let mut rss = f64::NAN;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    loop {
        let Some((wall, report, sum)) = iterate(sess.as_mut(), &mut off, result, "timed") else {
            return;
        };
        wall_ms.push(wall * 1e3);
        virt_ns.push(report.virt_ns);
        if *checksum.get_or_insert(sum) != sum {
            result.fail(format!(
                "checksum changed at timed iteration {}",
                wall_ms.len()
            ));
        }
        if wall_ms.len() == RSS_SAMPLE_AT {
            rss = peak_rss_mib();
        }
        let done = if cfg.smoke {
            wall_ms.len() >= 5
        } else {
            Instant::now() >= deadline && wall_ms.len() >= 5
        };
        if done {
            break;
        }
    }
    if rss.is_nan() {
        rss = peak_rss_mib();
    }
    drop(sess);
    if !cfg.smoke && cold_starts(workload, false, &mut setup, &mut virt_cold, result).is_none() {
        return;
    }
    if virt_cold.iter().any(|&v| v != virt_cold[0]) {
        result.fail(format!(
            "virt_cold_s differs between cold starts: {virt_cold:?} ns"
        ));
    }
    result.samples = wall_ms.len();
    result.checksum = checksum.unwrap_or(0);
    if virt_ns.iter().any(|&v| v != virt_ns[0]) {
        let (lo, hi) = (virt_ns.iter().min(), virt_ns.iter().max());
        result.fail(format!(
            "virt_iter_s drifts across iterations: {lo:?}..{hi:?} ns"
        ));
    }
    result.notes.push(format!(
        "note: iter_ms p10 / p50 / p90 = {:.3} / {:.3} / {:.3} over {} timed iterations{}",
        percentile(&wall_ms, FAST),
        median(&wall_ms),
        percentile(&wall_ms, 90.0),
        wall_ms.len(),
        if samples_beyond(wall_ms.len(), 90.0) < 10 {
            " (fewer than 10 samples beyond the deciles)"
        } else {
            ""
        }
    ));
    let setup_ms: Vec<f64> = setup.iter().map(|s| s * 1e3).collect();
    result.notes.push(format!(
        "note: setup_ms p10 / p50 / p90 = {:.3} / {:.3} / {:.3} over {} cold starts",
        percentile(&setup_ms, FAST),
        median(&setup_ms),
        percentile(&setup_ms, 90.0),
        setup_ms.len(),
    ));

    // Deterministic scaling columns: no timed run needed.
    let extra = if cfg.smoke { 1 } else { 3 };
    let stable = workload
        .bits_stable_across_devices()
        .then_some(result.checksum);
    let virt_iter = virt_ns[0] as f64 / 1e9;
    let virt_d4 = virt_at(workload, 4, extra, stable, result);
    let virt_d1 = if wall_devices == 1 {
        virt_iter
    } else {
        virt_at(workload, 1, extra, stable, result)
    };

    let m = &mut result.metrics;
    put(m, "setup_s", median(&setup));
    put(
        m,
        "wall_rate",
        workload.work_units() / (percentile(&wall_ms, FAST) / 1e3),
    );
    put(m, "peak_rss_mb", rss);
    put(m, "virt_cold_s", virt_cold[0] as f64 / 1e9);
    put(m, "virt_iter_s", virt_iter);
    put(m, "virt_iter_s_d4", virt_d4);
    put(m, "virt_eff_d4", virt_d1 / (4.0 * virt_d4));
}

/// How a span's self time becomes a metric.
enum Scale {
    /// Milliseconds per iteration.
    PerIterMs,
    /// Microseconds per work unit (request, job).
    PerUnitUs,
}

const SPAN_METRICS: &[(&str, &str, &str, Scale)] = &[
    ("core", "upload", "core.upload_ms", Scale::PerIterMs),
    ("core", "gather", "core.gather_ms", Scale::PerIterMs),
    ("core", "exec.map", "core.exec_ms.map", Scale::PerIterMs),
    ("core", "exec.zip", "core.exec_ms.zip", Scale::PerIterMs),
    (
        "core",
        "exec.reduce",
        "core.exec_ms.reduce",
        Scale::PerIterMs,
    ),
    ("core", "exec.scan", "core.exec_ms.scan", Scale::PerIterMs),
    (
        "core",
        "exec.map_overlap",
        "core.exec_ms.map_overlap",
        Scale::PerIterMs,
    ),
    ("core", "plan_build", "core.plan_build_us", Scale::PerUnitUs),
    ("serving", "submit", "serving.submit_us", Scale::PerUnitUs),
    ("serving", "flush", "serving.flush_ms", Scale::PerIterMs),
    ("serving", "wait", "serving.wait_us", Scale::PerUnitUs),
    ("dopencl", "run_iter", "dopencl.wall_ms", Scale::PerIterMs),
];

fn traced_run(workload: &dyn Workload, cfg: &RunConfig, result: &mut RunResult) {
    let wall_devices = workload.wall_devices();
    let mut off = Tracer::off();
    let mut on = Tracer::on();

    let mut sess = match workload.start(wall_devices) {
        Ok(s) => s,
        Err(e) => return result.fail(format!("[cold start] start: {e}")),
    };
    if iterate(sess.as_mut(), &mut off, result, "cold start").is_none() {
        return;
    }
    let after_cold = sess.counters();
    let (api, build_time) = {
        let rt = sess.runtime();
        let ctx = rt.context();
        let build = ctx
            .devices()
            .iter()
            .map(|d| d.profile.program_build_time)
            .max();
        (ctx.api().clone(), build.unwrap_or_default())
    };
    for _ in 0..if cfg.smoke { 2 } else { WARMUP } {
        if iterate(sess.as_mut(), &mut off, result, "warm-up").is_none() {
            return;
        }
    }

    // Paired blocks: BLOCK untraced iterations, BLOCK traced ones, then one
    // run of the plain-Rust reference.
    let target = if cfg.smoke { 3 } else { TRACED_ITERS };
    let block = if cfg.smoke { 3 } else { BLOCK };
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let (mut plain_ms, mut traced_ms, mut ref_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut reports: Vec<IterReport> = Vec::new();
    let before = sess.counters();
    while reports.len() < target && (reports.len() < block || Instant::now() < deadline) {
        for _ in 0..block {
            let Some((wall, _, sum)) = iterate(sess.as_mut(), &mut off, result, "untraced") else {
                return;
            };
            plain_ms.push(wall * 1e3);
            result.checksum = sum;
        }
        for _ in 0..block {
            on.set_iteration(reports.len() as u32);
            let Some((wall, report, _)) = iterate(sess.as_mut(), &mut on, result, "traced") else {
                return;
            };
            traced_ms.push(wall * 1e3);
            reports.push(report);
        }
        let start = Instant::now();
        workload.run_reference();
        ref_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let traced_iters = reports.len() as u32;
    let all_iters = traced_iters * 2;
    let counters = sess.counters();
    let m = &mut result.metrics;
    sess.layer_metrics(m);
    drop(sess);

    // Wall: self time of the spans around each layer's public calls.
    let units = workload.work_units();
    for ((layer, name), ms) in on.self_ms_per_iteration(traced_iters) {
        if let Some((_, _, metric, scale)) = SPAN_METRICS
            .iter()
            .find(|(l, n, _, _)| *l == layer && *n == name)
        {
            put(
                m,
                metric,
                match scale {
                    Scale::PerIterMs => ms,
                    Scale::PerUnitUs => ms * 1e3 / units,
                },
            );
        }
    }
    let total_ns = |name: &str| -> u64 {
        on.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.wall_ns())
            .sum()
    };
    if total_ns("eager_chain") > 0 {
        put(
            m,
            "core.fused_vs_eager_wall",
            total_ns("lazy_chain") as f64 / total_ns("eager_chain") as f64,
        );
    }

    // Virtual: per device, kernel + transfer + idle must tile the window.
    let mut notes = Vec::new();
    let mut critical = DeviceTime::default();
    let (mut cmds, mut launches, mut transfers, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    for (i, report) in reports.iter().enumerate() {
        for window in &report.windows {
            let mut worst = DeviceTime::default();
            for device in 0..window.devices {
                let on_device = on
                    .cmds_of(i as u32, window.domain)
                    .filter(|c| c.device == device);
                match device_time(on_device, window.t0_ns, window.t1_ns) {
                    Ok(time) if time.busy_ns() >= worst.busy_ns() => worst = time,
                    Ok(_) => {}
                    Err(e) => notes.push(format!("iteration {i}, device {device}: {e}")),
                }
            }
            if window.domain == 0 && i + 1 == reports.len() {
                critical = worst;
            }
        }
        for c in reports[i]
            .windows
            .iter()
            .flat_map(|w| on.cmds_of(i as u32, w.domain))
        {
            cmds += 1;
            bytes += c.bytes as u64;
            if c.is_kernel {
                launches += 1;
            } else {
                transfers += 1;
            }
        }
    }
    let per_iter = |x: u64| x as f64 / f64::from(traced_iters.max(1));
    put(m, "oclsim.cmds", per_iter(cmds));
    put(m, "oclsim.kernel_launches", per_iter(launches));
    put(m, "oclsim.transfers", per_iter(transfers));
    put(m, "oclsim.bytes", per_iter(bytes));
    put(m, "oclsim.virt_kernel_s", critical.kernel_ns as f64 / 1e9);
    put(
        m,
        "oclsim.virt_transfer_s",
        critical.transfer_ns as f64 / 1e9,
    );
    put(m, "oclsim.virt_idle_s", critical.idle_ns as f64 / 1e9);
    put(
        m,
        "oclsim.virt_build_s",
        after_cold.get("core.programs_built") as f64 * build_time.as_secs_f64(),
    );

    // Counts: ExecTrace deltas over the untraced + traced blocks.
    let counts = counters.since(&before);
    let per_any_iter = |x: u64| x as f64 / f64::from(all_iters.max(1));
    for (name, count) in counts
        .iter()
        .filter(|(name, _)| metrics::find(name).is_some())
    {
        put(m, name, per_any_iter(count));
    }
    let native = counts.get("native_launches");
    put(
        m,
        "kernel.native_launch_frac",
        native as f64 / (native + counts.get("other_launches")).max(1) as f64,
    );
    let calls = per_any_iter(counts.get("core.skeleton_calls"));
    put(
        m,
        "core.virt_dispatch_s",
        calls * api.dispatch_overhead.as_secs_f64(),
    );

    // Probes. Their times and the iteration time they are subtracted from
    // are both taken at the fast end (host interference only adds time).
    let iter_ms = percentile(&plain_ms, FAST);
    if let Err(e) = probes::kernel_probes(&workload.kernels(), cfg.smoke, m)
        .and_then(|()| probes::oclsim_probes(workload.upload_bytes(), cfg.smoke, m))
        .and_then(|()| workload.extra_probes(cfg.smoke, m))
    {
        notes.push(format!("probe: {e}"));
    }
    if wall_devices == 1 {
        let ms = wall_at(workload, 2, if cfg.smoke { 2 } else { 7 }, result);
        put(&mut result.metrics, "core.wall_ratio_d2", ms / iter_ms);
    }
    let m = &mut result.metrics;
    let get = |m: &Metrics, name: &str| m.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
    // The simulator's host-side share: per-command overhead plus moving the
    // iteration's bytes, both at the rates the direct queue probes measured.
    let oclsim_ms = per_iter(cmds) * get(m, "oclsim.host_ns_per_cmd") / 1e6
        + per_iter(bytes) / (get(m, "oclsim.copy_gbps") * 1e9).max(1.0) * 1e3;
    put(m, "oclsim.wall_ms", oclsim_ms);
    // What is left of the iteration once the kernel engines' and the
    // simulator's probe times are taken out: an outside *estimate* of core
    // (+ serving/osem glue). Negative means the probes overcount.
    let residual = iter_ms - get(m, "kernel.wall_ms") - oclsim_ms;
    put(m, "core.wall_ms", residual);
    if residual < 0.0 {
        notes.push(format!(
            "core.wall_ms residual is negative ({residual:.3} ms): the layer probes overcount this iteration"
        ));
    }
    put(m, "harness.iter_ms_p50", median(&plain_ms));
    put(m, "harness.iter_ms_p90", percentile(&plain_ms, 90.0));
    put(m, "harness.ref_ms", fastest(&ref_ms));
    put(m, "harness.ref_ratio", iter_ms / fastest(&ref_ms));
    put(
        m,
        "harness.trace_overhead_frac",
        (median(&traced_ms) - median(&plain_ms)) / median(&plain_ms),
    );
    result.samples = traced_ms.len();
    for note in notes {
        result.notes.push(format!("PROBE ERROR {note}"));
    }

    let path = cfg.out_dir.join(format!("trace-{}.json", workload.name()));
    let written = std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(&path, on.to_json(workload.name(), cfg.seed).render()));
    if let Err(e) = written {
        result.fail(format!("writing {}: {e}", path.display()));
    }
}

/// Median iteration wall milliseconds on a `devices`-device runtime.
fn wall_at(workload: &dyn Workload, devices: usize, iters: usize, result: &mut RunResult) -> f64 {
    steady_iterations(workload, devices, iters, result).map_or(f64::NAN, |steady| {
        median(&steady.iter().map(|&(ms, _, _)| ms).collect::<Vec<_>>())
    })
}
