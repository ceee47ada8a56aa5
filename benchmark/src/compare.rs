//! `compare A B`: two result sets (JSON-lines files written with `--out`)
//! side by side, one row per workload × metric, gated by the catalogue's
//! rules. `A` is the base. Exits non-zero on a regression — run on two sets
//! from the same commit it is the benchmark's A/A self-check.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{self, Better, Metric, Rule, EXACT_SLACK};
use crate::stats::{quartiles, spread};
use crate::workloads::NAMES;

/// All runs of one workload in one result set.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorkloadRuns {
    pub values: BTreeMap<String, Vec<f64>>,
    pub attempted: f64,
    pub failed: f64,
    /// `(seed, checksum)` of every end-to-end record.
    pub checksums: Vec<(u64, String)>,
}

pub type ResultSet = BTreeMap<String, WorkloadRuns>;

pub fn parse_set(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |k: &str| record.get(k).ok_or(format!("line {}: no `{k}`", i + 1));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let runs = set.entry(workload).or_default();
        runs.attempted += field("attempted")?.as_f64().unwrap_or(0.0);
        runs.failed += field("failed")?.as_f64().unwrap_or(0.0);
        if field("trace")?.as_f64() == Some(0.0) {
            runs.checksums.push((
                field("seed")?.as_f64().unwrap_or(0.0) as u64,
                field("checksum")?.as_str().unwrap_or_default().to_string(),
            ));
        }
        for (name, entry) in field("metrics")?.as_obj().unwrap_or_default() {
            if let Some(value) = entry.get("value").and_then(Json::as_f64) {
                runs.values.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// A deterministic number moved (printed; within the exact slack).
    Drift,
    /// Run-to-run spread exceeds the bound (and B is not better on every
    /// run): neither "unchanged" nor a regression can be claimed.
    Unresolved,
    Regression,
    /// Ungated per-layer number.
    Info,
}

pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let (_, base, _) = quartiles(a);
    let (_, new, _) = quartiles(b);
    let drifted = a.iter().chain(b).any(|v| v.to_bits() != a[0].to_bits());
    match metric.rule {
        Rule::Bound(bound) => {
            // Every run of B better than every run of A settles it even
            // through noise.
            let all_better = b.iter().all(|x| {
                a.iter().all(|y| match metric.better {
                    Better::Lower => x <= y,
                    Better::Higher => x >= y,
                })
            });
            if (spread(a) > bound || spread(b) > bound) && !all_better {
                Verdict::Unresolved
            } else if metrics::worse_by_more_than(metric, base, new, bound) {
                Verdict::Regression
            } else {
                Verdict::Ok
            }
        }
        Rule::Exact if metrics::worse_by_more_than(metric, base, new, EXACT_SLACK) => {
            Verdict::Regression
        }
        Rule::Exact | Rule::Count if drifted => Verdict::Drift,
        Rule::Exact => Verdict::Ok,
        Rule::Count | Rule::Probe => Verdict::Info,
    }
}

/// Print the comparison; returns the number of regressions.
pub fn compare(a: &ResultSet, b: &ResultSet) -> usize {
    let mut regressions = 0;
    println!(
        "{:<16} {:<32} {:<8} {:>38} {:>38} {:>9}  verdict",
        "workload", "metric", "unit", "A: q1 / median / q3", "B: q1 / median / q3", "B/A"
    );
    let catalogue = || metrics::END_TO_END.iter().chain(metrics::traced());
    for workload in NAMES {
        let (Some(ra), Some(rb)) = (a.get(workload), b.get(workload)) else {
            if a.contains_key(workload) != b.contains_key(workload) {
                println!("{workload:<16} present in only one set");
                regressions += 1;
            }
            continue;
        };
        for metric in catalogue() {
            let (Some(va), Some(vb)) = (ra.values.get(metric.name), rb.values.get(metric.name))
            else {
                continue;
            };
            let verdict = judge(metric, va, vb);
            let universal = metrics::END_TO_END.iter().any(|m| m.name == metric.name);
            if !universal && va.iter().chain(vb).all(|v| *v == 0.0) {
                continue; // a layer (or metric) this workload does not have
            }
            let (a1, a2, a3) = quartiles(va);
            let (b1, b2, b3) = quartiles(vb);
            println!(
                "{:<16} {:<32} {:<8} {:>38} {:>38} {:>9.4}  {}",
                workload,
                metric.name,
                metric.unit,
                format!("{a1:.6} / {a2:.6} / {a3:.6}"),
                format!("{b1:.6} / {b2:.6} / {b3:.6}"),
                b2 / a2,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Drift => "DRIFT (exact metric moved)",
                    Verdict::Unresolved => "unresolved (spread > bound)",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Info => "",
                }
            );
            regressions += usize::from(verdict == Verdict::Regression);
        }
        // fail_frac: bound 0 — any failed operation at all.
        let frac = |r: &WorkloadRuns| r.failed / r.attempted.max(1.0);
        let bad = frac(rb) > 0.0;
        println!(
            "{:<16} {:<32} {:<8} {:>38} {:>38} {:>9}  {}",
            workload,
            "fail_frac",
            "ratio",
            format!("{} / {}", ra.failed, ra.attempted),
            format!("{} / {}", rb.failed, rb.attempted),
            "",
            if bad { "REGRESSION (bound 0)" } else { "ok" }
        );
        regressions += usize::from(bad);
        // Same seed, same bits — across runs and across the two sets.
        let mut by_seed: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
        for (seed, sum) in ra.checksums.iter().chain(&rb.checksums) {
            by_seed.entry(*seed).or_default().push(sum);
        }
        for (seed, sums) in by_seed {
            if sums.iter().any(|s| *s != sums[0]) {
                println!(
                    "{workload:<16} checksum differs between runs with seed {seed}: REGRESSION"
                );
                regressions += 1;
            }
        }
    }
    println!(
        "{regressions} regression(s); bounds: wall metrics as in BENCHMARK.json, exact metrics > {}% worse",
        EXACT_SLACK * 100.0
    );
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        metrics::find(name).unwrap()
    }

    #[test]
    fn wall_metrics_gate_on_the_median_and_the_bound() {
        let rate = metric("wall_rate"); // higher is better, 25 %
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(rate, &base, &[85.0, 86.0, 84.0, 85.5, 84.5]),
            Verdict::Ok
        );
        assert_eq!(
            judge(rate, &base, &[70.0, 71.0, 69.0, 70.5, 69.5]),
            Verdict::Regression
        );
        assert_eq!(
            judge(rate, &base, &[150.0, 151.0, 149.0, 150.0, 150.0]),
            Verdict::Ok
        );
        // A noisy set is unresolved, not a pass and not a regression.
        assert_eq!(
            judge(rate, &base, &[40.0, 160.0, 100.0, 50.0, 150.0]),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_print_drift_and_gate_at_the_slack() {
        let virt = metric("virt_iter_s"); // lower is better
        assert_eq!(judge(virt, &[0.5, 0.5], &[0.5, 0.5]), Verdict::Ok);
        assert_eq!(judge(virt, &[0.5, 0.5], &[0.5002, 0.5002]), Verdict::Drift);
        assert_eq!(judge(virt, &[0.5, 0.5], &[0.49, 0.49]), Verdict::Drift);
        assert_eq!(judge(virt, &[0.5, 0.5], &[0.51, 0.51]), Verdict::Regression);
        let eff = metric("virt_eff_d4"); // higher is better
        assert_eq!(judge(eff, &[0.8], &[0.7]), Verdict::Regression);
        assert_eq!(
            judge(metric("oclsim.cmds"), &[10.0], &[12.0]),
            Verdict::Drift
        );
        assert_eq!(
            judge(metric("kernel.native_eps"), &[1e8], &[1e7]),
            Verdict::Info
        );
    }

    #[test]
    fn result_sets_parse_and_group() {
        let line = |seed: u64, rate: f64, failed: u64| {
            format!(
                r#"{{"workload": "map_stream", "seed": {seed}, "trace": 0, "checksum": "ab", "attempted": 10, "failed": {failed}, "metrics": {{"wall_rate": {{"value": {rate}, "unit": "1/s"}}}}}}"#
            )
        };
        let a = parse_set(&format!("{}\n{}\n\n", line(1, 100.0, 0), line(1, 102.0, 0))).unwrap();
        let runs = &a["map_stream"];
        assert_eq!(runs.values["wall_rate"], vec![100.0, 102.0]);
        assert_eq!((runs.attempted, runs.failed), (20.0, 0.0));
        assert_eq!(runs.checksums.len(), 2);
        assert_eq!(compare(&a, &a), 0);
        let b = parse_set(&line(1, 101.0, 1)).unwrap();
        assert_eq!(compare(&a, &b), 1, "one failed operation is a regression");
        assert!(parse_set("{not json").is_err());
    }
}
