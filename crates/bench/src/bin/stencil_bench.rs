//! Stencil (MapOverlap) benchmark: device-count × halo-width sweep.
//!
//! Runs iterative stencils over a square image on 1–4 simulated devices with
//! halo widths 1, 2 and 4, plus the two shipped example workloads (3×3
//! Gaussian blur, 5-point heat diffusion), a 40-sweep run of the widest
//! stencil (long enough for the best ghost depth to lie below the cap) and
//! the repo benchmark's `stencil_iter` shape (192², 4 sweeps, upload and
//! gather inside the timed region), and emits `BENCH_stencil.json` with
//! virtual runtime (the simulator's cost model), the ghost depth the driver
//! chose, halo-exchange traffic and host wall time, so future PRs have a
//! trajectory to compare against.
//!
//! Usage:
//!   cargo run --release -p skelcl_bench --bin stencil_bench
//!   cargo run --release -p skelcl_bench --bin stencil_bench -- --smoke
//!   cargo run --release -p skelcl_bench --bin stencil_bench -- --out path.json
//!
//! `--smoke` shrinks the images and sweep counts so CI can use the binary as
//! a compile-and-run check (no thresholds). At full size the binary exits 1
//! if any row takes longer (virtual time) on `d` devices than on `d − 1` —
//! the paper's Figure 4b shape. The steps in [`KNOWN_SLOWER_STEPS`] are the
//! exceptions: runs bound by the host's per-command overheads, which one
//! more device's commands lengthen whatever the exchange cadence (ROADMAP
//! item 2). They are listed with their times and fail if they get worse.

use std::time::Instant;

use skelcl::{Boundary, MapOverlap, Matrix};

const GAUSSIAN_BLUR: &str = r#"
    float func(float x) {
        float acc = 4.0f * x;
        acc += 2.0f * (get(-1, 0) + get(1, 0) + get(0, -1) + get(0, 1));
        acc += get(-1, -1) + get(1, -1) + get(-1, 1) + get(1, 1);
        return acc / 16.0f;
    }
"#;

const HEAT_STEP: &str = r#"
    float func(float u, float alpha) {
        return u + alpha * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u);
    }
"#;

/// A vertical box average over `2 * halo + 1` rows — the workload of the
/// halo-width sweep (wider halos read further, replicate more rows per part
/// and move more bytes per exchange).
fn vertical_box_src(halo: usize) -> String {
    let mut taps = String::from("x");
    for dy in 1..=halo {
        taps.push_str(&format!(" + get(0, -{dy}) + get(0, {dy})"));
    }
    let norm = (2 * halo + 1) as f32;
    format!("float func(float x) {{ return ({taps}) / {norm:.1}f; }}")
}

struct Row {
    workload: String,
    size: usize,
    sweeps: usize,
    devices: usize,
    halo: usize,
    /// Sweeps per halo exchange: the ghost depth the driver stored the parts
    /// with, in halo widths.
    depth: usize,
    virtual_ms: f64,
    wall_s: f64,
    halo_transfers: usize,
    halo_kib: f64,
}

/// The steps `d − 1 → d` devices known to run slower at full size, as
/// `(workload, halo, d, virtual ms on d)`: all three are host-bound (the
/// host's enqueues outlast the busiest device), so only cheaper commands
/// (ROADMAP item 2) remove them. Any other slower step, or one of these
/// above its listed time, fails the run.
const KNOWN_SLOWER_STEPS: [(&str, usize, usize, f64); 3] = [
    ("stencil_iter", 1, 3, 0.177),
    ("stencil_iter", 1, 4, 0.198),
    ("vertical_box", 1, 4, 0.465),
];

fn image(rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| ((i * 37 + 11) % 251) as f32 * 0.25)
        .collect()
}

/// What one row runs: a stencil, and what its timed region covers.
struct Spec<'a> {
    workload: &'a str,
    src: &'a str,
    halo: usize,
    alpha: Option<f32>,
    size: usize,
    sweeps: usize,
    /// Time the upload of a host-resident image and the gather of the result
    /// too (the repo benchmark's `stencil_iter` window) instead of the
    /// sweeps over a device-resident one alone.
    end_to_end: bool,
}

/// Run the iterative sweeps of `spec` on `devices` devices and report the
/// virtual time, wall time, ghost depth and halo traffic of the timed region.
fn run_stencil(spec: &Spec<'_>, devices: usize) -> Row {
    let rt = skelcl::init_gpus(devices);
    let stencil = MapOverlap::<f32, f32>::from_source(spec.src)
        .with_halo(spec.halo)
        .with_boundary(Boundary::Clamp);
    let launch = |m: &Matrix<f32>| match spec.alpha {
        Some(a) => stencil.run(m).arg(a),
        None => stencil.run(m),
    };
    let size = spec.size;
    let m = Matrix::from_vec(&rt, size, size, image(size, size)).expect("square image");
    // Warm up outside the timed run: build the program and — unless the
    // upload is part of what is timed — upload the parts.
    let warm = if spec.end_to_end {
        Matrix::from_vec(&rt, 8, 8, image(8, 8)).expect("square image")
    } else {
        m.clone()
    };
    drop(launch(&warm).exec().expect("stencil runs"));
    if spec.end_to_end {
        rt.finish_all();
    }

    let trace_before = rt.exec_trace();
    let t0 = rt.now();
    let wall = Instant::now();
    let out = launch(&m).run_iter(spec.sweeps).expect("stencil runs");
    if spec.end_to_end {
        std::hint::black_box(out.to_vec().expect("download"));
    }
    let virtual_ms = (rt.finish_all() - t0).as_nanos() as f64 / 1.0e6;
    let wall_s = wall.elapsed().as_secs_f64();
    let trace = rt.exec_trace();
    std::hint::black_box(out.to_vec().expect("download"));
    Row {
        workload: spec.workload.to_string(),
        size,
        sweeps: spec.sweeps,
        devices,
        halo: spec.halo,
        depth: out.ghost_depth(),
        virtual_ms,
        wall_s,
        halo_transfers: trace.halo_transfers() - trace_before.halo_transfers(),
        halo_kib: (trace.halo_bytes() - trace_before.halo_bytes()) as f64 / 1024.0,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_stencil.json".to_string());

    let size = if smoke { 64 } else { 512 };
    let sweeps = if smoke { 2 } else { 10 };
    let boxes: Vec<(usize, String)> = [1usize, 2, 4]
        .into_iter()
        .map(|halo| (halo, vertical_box_src(halo)))
        .collect();
    let mut specs: Vec<Spec<'_>> = boxes
        .iter()
        .map(|(halo, src)| Spec {
            workload: "vertical_box",
            src,
            halo: *halo,
            alpha: None,
            size,
            sweeps,
            end_to_end: false,
        })
        .collect();
    // Many sweeps of the widest stencil: a block as deep as the run would
    // recompute more rows than its exchanges cost.
    if let Some((halo, src)) = boxes.last() {
        specs.push(Spec {
            workload: "vertical_box_long",
            src,
            halo: *halo,
            alpha: None,
            size,
            sweeps: 4 * sweeps,
            end_to_end: false,
        });
    }
    specs.push(Spec {
        workload: "gaussian_blur",
        src: GAUSSIAN_BLUR,
        halo: 1,
        alpha: None,
        size,
        sweeps,
        end_to_end: false,
    });
    let heat = Spec {
        workload: "heat_diffusion",
        src: HEAT_STEP,
        halo: 1,
        alpha: Some(0.2),
        size,
        sweeps,
        end_to_end: false,
    };
    // The repo benchmark's `stencil_iter`: 192², 4 sweeps, upload to gather.
    specs.push(Spec {
        workload: "stencil_iter",
        size: if smoke { 48 } else { 192 },
        sweeps: if smoke { 2 } else { 4 },
        end_to_end: true,
        ..heat
    });
    specs.push(heat);

    let mut rows = Vec::new();
    for devices in 1..=4 {
        rows.extend(specs.iter().map(|spec| run_stencil(spec, devices)));
    }

    for r in &rows {
        println!(
            "{:<17} {:>3}² x{:<2} devices={} halo={} depth={:<2} virtual {:>6.3} ms  wall {:>6.3} s  halo {:>4} xfers / {:>7.1} KiB",
            r.workload, r.size, r.sweeps, r.devices, r.halo, r.depth, r.virtual_ms, r.wall_s,
            r.halo_transfers, r.halo_kib
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"stencil\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p skelcl_bench --bin stencil_bench\",\n",
    );
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{ \"workload\": \"{}\", \"image\": \"{}x{}\", \"sweeps\": {}, \"devices\": {}, \"halo\": {}, \"depth\": {}, \"virtual_ms\": {:.3}, \"wall_s\": {:.4}, \"halo_transfers\": {}, \"halo_kib\": {:.1} }}{comma}\n",
            r.workload, r.size, r.size, r.sweeps, r.devices, r.halo, r.depth, r.virtual_ms,
            r.wall_s, r.halo_transfers, r.halo_kib
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");

    // Smoke images are too small for more devices to pay off; at full size
    // adding a device must not slow any stencil down.
    if !smoke {
        let mut slower = 0;
        for more in rows.iter().filter(|r| r.devices > 1) {
            let same = |r: &&Row| r.workload == more.workload && r.halo == more.halo;
            let fewer = rows
                .iter()
                .filter(same)
                .find(|r| r.devices + 1 == more.devices);
            let fewer = fewer.expect("every row runs on 1 to 4 devices");
            if more.virtual_ms <= fewer.virtual_ms {
                continue;
            }
            let step = format!(
                "{} {}² halo {} takes {:.3} ms on {} devices, {:.3} ms on {}",
                more.workload,
                more.size,
                more.halo,
                more.virtual_ms,
                more.devices,
                fewer.virtual_ms,
                fewer.devices
            );
            let known = KNOWN_SLOWER_STEPS
                .iter()
                .find(|&&(workload, halo, devices, _)| {
                    (workload, halo, devices) == (more.workload.as_str(), more.halo, more.devices)
                });
            match known {
                // Listed to the printed precision.
                Some(&(.., ms)) if more.virtual_ms < ms + 0.0005 => {
                    println!("known: {step} (listed at {ms:.3} ms)")
                }
                _ => {
                    eprintln!("FAIL: {step}");
                    slower += 1;
                }
            }
        }
        if slower > 0 {
            std::process::exit(1);
        }
    }
}
