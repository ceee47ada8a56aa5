//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! skelcl_benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! skelcl_benchmark [all] [--seed N] [--seconds S] [--smoke] [--out FILE]
//! skelcl_benchmark compare A.jsonl B.jsonl
//! skelcl_benchmark manifest
//! ```
//!
//! One process runs one workload (so `peak_rss_mb` is per workload); `all`
//! spawns itself once per workload and pass. The last stdout line of a
//! single-workload run is the result object the benchmark contract defines.

mod compare;
mod gen;
mod harness;
mod json;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use harness::{RunConfig, RunResult};
use json::Json;

/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
const RUN_SECONDS: u32 = 10;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    positional: Vec<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: gen::DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            "--out-dir" => cli.out_dir = PathBuf::from(value("--out-dir")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            word => cli.positional.push(word.to_string()),
        }
    }
    Ok(cli)
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_line(result: &RunResult) -> Json {
    Json::obj([
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted.max(1) as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", metrics_json(result)),
    ])
}

fn metrics_json(result: &RunResult) -> Json {
    Json::Obj(
        result
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = metrics::find(name).map_or("", |m| m.unit);
                (
                    name.clone(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    )
}

/// Pin this process — and every thread it spawns from here on — to one CPU,
/// the highest-numbered one it is allowed on.
///
/// Wall numbers are single-CPU numbers. The build host has two vCPUs and a
/// simulated device is a worker thread, so an unpinned 8-device run is nine
/// threads migrating between two cores: measured A/A spreads of `wall_rate`
/// went from 10–60 % unpinned to 2–10 % pinned, with no loss of speed (the
/// host thread blocks while a worker runs). Multi-device *wall* scaling is a
/// documented blind spot either way.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `bytes` bytes,
    // which is what the call is told; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..allowed.len() * 64)
        .rev()
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes that the call
    // only reads; pid 0 names the calling thread, the only one so far.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

fn run_one(name: &str, cli: &Cli) -> Result<bool, String> {
    let pinned = pin_to_one_cpu();
    let workload = workloads::build(name, cli.seed).ok_or(format!(
        "unknown workload `{name}`; one of {}",
        workloads::NAMES.join(", ")
    ))?;
    let cfg = RunConfig {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
        out_dir: cli.out_dir.clone(),
    };
    let result = harness::run(workload.as_ref(), &cfg);

    println!(
        "# {name}  seed {}  {}  {} timed iterations  checksum {:016x}  {}",
        cli.seed,
        if cli.trace {
            "traced pass"
        } else {
            "end-to-end pass"
        },
        result.samples,
        result.checksum,
        pinned.map_or("not pinned".to_string(), |cpu| format!(
            "pinned to cpu {cpu}"
        )),
    );
    for (metric, value) in &result.metrics {
        let unit = metrics::find(metric).map_or("", |m| m.unit);
        println!("{name:<16} {metric:<34} {value:>20.9} {unit}");
    }
    println!(
        "{name:<16} {:<34} {:>20.9} ratio   ({} failed of {} operations)",
        "fail_frac",
        result.failed as f64 / result.attempted.max(1) as f64,
        result.failed,
        result.attempted
    );
    for note in &result.notes {
        println!("{name:<16} {note}");
    }

    if let Some(path) = &cli.out {
        let record = Json::obj([
            ("workload", Json::str(name)),
            ("seed", Json::Num(cli.seed as f64)),
            ("trace", Json::Num(f64::from(u8::from(cli.trace)))),
            ("smoke", Json::Bool(cli.smoke)),
            ("samples", Json::Num(result.samples as f64)),
            ("checksum", Json::Str(format!("{:016x}", result.checksum))),
            ("correct", Json::Bool(result.correct())),
            ("attempted", Json::Num(result.attempted as f64)),
            ("failed", Json::Num(result.failed as f64)),
            ("metrics", metrics_json(&result)),
        ]);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", record.render()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result_line(&result).render());
    Ok(result.correct())
}

/// Every workload, end-to-end pass then traced pass, one child process each.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    for name in workloads::NAMES {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--trace", trace])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .arg("--out-dir")
                .arg(&cli.out_dir);
            if cli.smoke {
                cmd.arg("--smoke");
            }
            if let Some(out) = &cli.out {
                cmd.arg("--out").arg(out);
            }
            let status = cmd.status().map_err(|e| format!("spawning {name}: {e}"))?;
            if !status.success() {
                eprintln!("{name} (--trace {trace}) failed: {status}");
                all_correct = false;
            }
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| {
        match (
            cli.workload.as_deref(),
            cli.positional.first().map(String::as_str),
        ) {
            (Some(name), None) => run_one(name, &cli),
            (None, None | Some("all")) => run_all(&cli),
            (None, Some("manifest")) => {
                println!("{}", manifest_text());
                Ok(true)
            }
            (None, Some("compare")) => {
                let [_, a, b] = cli.positional.as_slice() else {
                    return Err("compare takes two result-set files".into());
                };
                let load = |p: &String| {
                    std::fs::read_to_string(p)
                        .map_err(|e| format!("{p}: {e}"))
                        .and_then(|t| compare::parse_set(&t).map_err(|e| format!("{p}: {e}")))
                };
                Ok(compare::compare(&load(a)?, &load(b)?) == 0)
            }
            (_, Some(other)) => Err(format!("unknown command `{other}`")),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("skelcl_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `BENCHMARK.json`, one entry per line so it diffs.
fn manifest_text() -> String {
    let manifest = metrics::manifest(RUN_SECONDS);
    let mut out = String::from("{\n");
    let fields = manifest.as_obj().unwrap_or_default();
    for (i, (key, value)) in fields.iter().enumerate() {
        let comma = if i + 1 < fields.len() { "," } else { "" };
        match value {
            Json::Arr(items) if items.iter().all(|v| matches!(v, Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{comma}\n", item.render()));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            other => out.push_str(&format!("  \"{key}\": {}{comma}\n", other.render())),
        }
    }
    out.push('}');
    out
}
