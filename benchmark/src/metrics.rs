//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and regression rule. `BENCHMARK.json` is rendered from it
//! (`manifest` subcommand) and `compare` gates with it.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How `compare` treats a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Wall-clock end-to-end number: a regression once the median is worse
    /// than the base's by more than this share.
    Bound(f64),
    /// Deterministic end-to-end number (virtual time or a ratio of virtual
    /// times): any drift is printed, more than [`EXACT_SLACK`] worse is a
    /// regression.
    Exact,
    /// Deterministic per-layer number: drift is printed, never gated.
    Count,
    /// Wall-clock per-layer probe: informational.
    Probe,
}

/// Slack of the exact gate: virtual seconds are integer nanoseconds divided
/// out, so nothing legitimate moves them by less than this.
pub const EXACT_SLACK: f64 = 0.001;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub rule: Rule,
}

const fn m(name: &'static str, unit: &'static str, better: Better, rule: Rule) -> Metric {
    Metric {
        name,
        unit,
        better,
        rule,
    }
}

use Better::{Higher, Lower};
use Rule::{Bound, Count, Exact, Probe};

/// End-to-end metrics every workload reports (the `end_to_end` list of
/// `BENCHMARK.json`). Virtual time carries its own units (`virt_sec`): it is
/// the simulator's deterministic model output, not a wall-clock reading.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower, Bound(0.25)),
    m("wall_rate", "1/s", Higher, Bound(0.25)),
    m("peak_rss_mb", "MiB", Lower, Bound(0.20)),
    m("virt_cold_s", "virt_sec", Lower, Exact),
    m("virt_iter_s", "virt_sec", Lower, Exact),
    m("virt_iter_s_d4", "virt_sec", Lower, Exact),
    m("virt_eff_d4", "ratio", Higher, Exact),
];

/// End-to-end metrics only one workload has. The benchmark contract makes
/// every workload print every `end_to_end` entry and forbids zeros there, so
/// `BENCHMARK.json` carries these in `per_layer` (0 where they do not
/// apply); `compare` still gates them exactly.
pub const WORKLOAD_END_TO_END: &[Metric] = &[
    m("osem_overhead_pct", "%", Lower, Exact),
    m("virt_p50_us", "virt_usec", Lower, Exact),
    m("virt_p99_us", "virt_usec", Lower, Exact),
    m("virt_recover_s", "virt_sec", Lower, Exact),
];

pub const PER_LAYER: &[Metric] = &[
    // kernel — skelcl_kernel, probed directly on the workload's kernels.
    m("kernel.build_ms", "ms", Lower, Probe),
    m("kernel.native_compile_ms", "ms", Lower, Probe),
    m("kernel.native_eps", "1/s", Higher, Probe),
    m("kernel.batched_eps", "1/s", Higher, Probe),
    m("kernel.scalar_eps", "1/s", Higher, Probe),
    m("kernel.interp_eps", "1/s", Higher, Probe),
    m("kernel.native_launch_frac", "ratio", Higher, Count),
    m("kernel.replay_frac", "ratio", Lower, Count),
    m("kernel.wall_ms", "ms", Lower, Probe),
    m("kernel.ops_per_elem", "count", Lower, Count),
    m("kernel.bytes_per_elem", "B", Lower, Count),
    // oclsim — drained events (exact) and direct queue probes (wall).
    m("oclsim.cmds", "count", Lower, Count),
    m("oclsim.kernel_launches", "count", Lower, Count),
    m("oclsim.transfers", "count", Lower, Count),
    m("oclsim.bytes", "B", Lower, Count),
    m("oclsim.virt_kernel_s", "virt_sec", Lower, Count),
    m("oclsim.virt_transfer_s", "virt_sec", Lower, Count),
    m("oclsim.virt_idle_s", "virt_sec", Lower, Count),
    m("oclsim.virt_build_s", "virt_sec", Lower, Count),
    m("oclsim.host_ns_per_cmd", "ns", Lower, Probe),
    m("oclsim.copy_gbps", "GB/s", Higher, Probe),
    m("oclsim.pool_hits", "count", Higher, Count),
    m("oclsim.wall_ms", "ms", Lower, Probe),
    m("oclsim.deferred_errors", "count", Lower, Count),
    // core — spans around skelcl's public calls, and ExecTrace deltas.
    m("core.upload_ms", "ms", Lower, Probe),
    m("core.gather_ms", "ms", Lower, Probe),
    m("core.exec_ms.map", "ms", Lower, Probe),
    m("core.exec_ms.zip", "ms", Lower, Probe),
    m("core.exec_ms.reduce", "ms", Lower, Probe),
    m("core.exec_ms.scan", "ms", Lower, Probe),
    m("core.exec_ms.map_overlap", "ms", Lower, Probe),
    m("core.redistribute_ms", "ms", Lower, Probe),
    m("core.plan_build_us", "us", Lower, Probe),
    m("core.wall_ms", "ms", Lower, Probe),
    m("core.wall_ratio_d2", "ratio", Lower, Probe),
    m("core.skeleton_calls", "count", Lower, Count),
    m("core.programs_built", "count", Lower, Count),
    m("core.halo_transfers", "count", Lower, Count),
    m("core.halo_bytes", "B", Lower, Count),
    m("core.kernels_fused", "count", Higher, Count),
    m("core.launches_elided", "count", Higher, Count),
    m("core.bytes_elided", "B", Higher, Count),
    m("core.virt_dispatch_s", "virt_sec", Lower, Count),
    m("core.fused_vs_eager_wall", "ratio", Lower, Probe),
    m("core.fused_vs_eager_virt", "ratio", Lower, Count),
    m("core.recoveries", "count", Lower, Count),
    m("core.replayed_launches", "count", Lower, Count),
    m("core.repartitions", "count", Lower, Count),
    m("core.checkpoint_bytes", "B", Lower, Count),
    // serving — spans around Session/Server calls, JobReports, ServingTrace.
    m("serving.submit_us", "us", Lower, Probe),
    m("serving.flush_ms", "ms", Lower, Probe),
    m("serving.wait_us", "us", Lower, Probe),
    m("serving.jobs_per_launch.shared", "count", Higher, Count),
    m("serving.jobs_per_launch.distinct", "count", Higher, Count),
    m("serving.packed_batches", "count", Lower, Count),
    m("serving.opaque_jobs", "count", Lower, Count),
    m("serving.would_blocks", "count", Lower, Count),
    m("serving.jobs_retried", "count", Lower, Count),
    m("serving.max_queue_depth_seen", "count", Lower, Count),
    m("serving.virt_p99_us.shared", "virt_usec", Lower, Count),
    m("serving.virt_p99_us.distinct", "virt_usec", Lower, Count),
    // dopencl
    m("dopencl.launch_ms", "ms", Lower, Probe),
    m("dopencl.virt_offload_s", "virt_sec", Lower, Count),
    m("dopencl.devices_lost", "count", Lower, Count),
    m("dopencl.wall_ms", "ms", Lower, Probe),
    // osem — PhaseTiming of the traced iteration.
    m("osem.virt_upload_s", "virt_sec", Lower, Count),
    m("osem.virt_step1_s", "virt_sec", Lower, Count),
    m("osem.virt_redistribution_s", "virt_sec", Lower, Count),
    m("osem.virt_step2_s", "virt_sec", Lower, Count),
    m("osem.virt_download_s", "virt_sec", Lower, Count),
    m("osem.max_rel_diff_vs_seq", "ratio", Lower, Count),
    // harness
    m("harness.iter_ms_p50", "ms", Lower, Probe),
    m("harness.iter_ms_p90", "ms", Lower, Probe),
    m("harness.ref_ms", "ms", Lower, Probe),
    m("harness.ref_ratio", "ratio", Lower, Probe),
    m("harness.trace_overhead_frac", "ratio", Lower, Probe),
];

/// Every metric a `--trace 1` run prints, in order.
pub fn traced() -> impl Iterator<Item = &'static Metric> {
    WORKLOAD_END_TO_END.iter().chain(PER_LAYER)
}

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(traced()).find(|m| m.name == name)
}

/// Whether `new` is worse than `base` by more than `share` of `|base|`.
pub fn worse_by_more_than(metric: &Metric, base: f64, new: f64, share: f64) -> bool {
    let worse = match metric.better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    worse > share * base.abs()
}

pub const WORKLOAD_WHY: [(&str, &str); 7] = [
    ("map_stream", "straight-line element-wise kernels on 2x2^19 floats: native-tier throughput and container upload/gather; bypasses divergence handling"),
    ("reduce_scan", "one-work-item fold and scan kernels on 2^18 floats (ROADMAP item 3); map-side optimisations should not move it"),
    ("stencil_iter", "192x192 heat diffusion, 4 MapOverlap sweeps: StencilGet and halo refresh, the kernel layer through a different access path than map_stream"),
    ("plan_small", "32 requests of 4096 floats through the eager and the lazy-plan lowering: per-call overhead is everything, kernels nothing"),
    ("osem_subset", "the paper's list-mode OSEM subset: closure Map with vector args, Copy-to-Block redistribution, branchy Zip (the divergence path)"),
    ("serving_mix", "2048-job waves from 4 tenants on 2 devices: coalescable, non-coalescable and opaque jobs through the serving scheduler"),
    ("cluster_recover", "heat diffusion on the 8-GPU lab cluster, fault-free and with a node lost mid-run: recovery cost, recovered result bit-equal"),
];

/// `BENCHMARK.json`, rendered from the catalogue.
pub fn manifest(run_seconds: u32) -> Json {
    let entry = |m: &Metric, bounded: bool| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            (
                "better",
                Json::str(match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                }),
            ),
        ];
        if bounded {
            let bound = match m.rule {
                Rule::Bound(b) => b,
                _ => EXACT_SLACK,
            };
            fields.push(("bound", Json::Num(bound)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(run_seconds))),
        (
            "workloads",
            Json::Arr(
                WORKLOAD_WHY
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(name)), ("why", Json::str(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| entry(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(traced().map(|m| entry(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(traced()) {
            assert!(seen.insert(metric.name), "duplicate metric {}", metric.name);
            assert!(metric.name.len() <= 64 && metric.unit.len() <= 16);
            let ok = |c: char, extra: &str| c.is_ascii_alphanumeric() || extra.contains(c);
            assert!(metric.name.chars().all(|c| ok(c, "_.-")), "{}", metric.name);
            assert!(
                metric.unit.chars().all(|c| ok(c, "_/%.-")),
                "{}",
                metric.unit
            );
        }
        assert!(END_TO_END.len() <= 16 && traced().count() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        for (name, why) in WORKLOAD_WHY {
            assert!(crate::workloads::NAMES.contains(&name));
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
    }

    #[test]
    fn bound_logic_respects_direction() {
        let lower = find("setup_s").unwrap();
        assert!(worse_by_more_than(lower, 100.0, 126.0, 0.25));
        assert!(!worse_by_more_than(lower, 100.0, 125.0, 0.25));
        assert!(!worse_by_more_than(lower, 100.0, 50.0, 0.25));
        let higher = find("wall_rate").unwrap();
        assert!(worse_by_more_than(higher, 100.0, 74.0, 0.25));
        assert!(!worse_by_more_than(higher, 100.0, 76.0, 0.25));
        assert!(!worse_by_more_than(higher, 100.0, 200.0, 0.25));
        // A bound of zero: any worsening at all.
        assert!(worse_by_more_than(lower, 0.0, 1e-12, 0.0));
        assert!(!worse_by_more_than(lower, 0.0, 0.0, 0.0));
        // Negative bases (an overhead below zero) gate on magnitude.
        let pct = find("osem_overhead_pct").unwrap();
        assert!(worse_by_more_than(pct, -2.0, -1.9, EXACT_SLACK));
        assert!(!worse_by_more_than(pct, -2.0, -2.001, EXACT_SLACK));
    }

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        // Absent when the package is built outside the repo checkout.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let committed = Json::parse(&text).expect("BENCHMARK.json parses");
        let run_seconds = committed
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds") as u32;
        assert_eq!(committed, manifest(run_seconds), "re-run `run.sh manifest`");
    }
}
