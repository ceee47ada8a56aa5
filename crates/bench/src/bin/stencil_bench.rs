//! Stencil (MapOverlap) benchmark: device-count × halo-width sweep.
//!
//! Runs iterative stencils over a square image on 1–4 simulated devices with
//! halo widths 1, 2 and 4, plus the two shipped example workloads (3×3
//! Gaussian blur, 5-point heat diffusion), and emits `BENCH_stencil.json`
//! with virtual runtime (the simulator's cost model), halo-exchange traffic
//! and host wall time, so future PRs have a trajectory to compare against.
//!
//! Usage:
//!   cargo run --release -p skelcl_bench --bin stencil_bench
//!   cargo run --release -p skelcl_bench --bin stencil_bench -- --smoke
//!   cargo run --release -p skelcl_bench --bin stencil_bench -- --out path.json
//!
//! `--smoke` shrinks the image and sweep count so CI can use the binary as a
//! compile-and-run check (no thresholds). At full size the binary exits 1
//! if any workload × halo row takes longer (virtual time) on 4 devices than
//! on 1 — the paper's Figure 4b shape, and what the device-side halo
//! exchange bought.

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
    devices: usize,
    halo: usize,
    virtual_ms: f64,
    wall_s: f64,
    halo_transfers: usize,
    halo_kib: f64,
}

fn image(rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| ((i * 37 + 11) % 251) as f32 * 0.25)
        .collect()
}

/// Run `sweeps` iterative sweeps of `stencil` on `devices` devices and
/// report the virtual time, wall time and halo traffic of the launch phase
/// (setup and result download excluded from the timed region).
fn run_stencil(
    workload: &str,
    src: &str,
    halo: usize,
    alpha: Option<f32>,
    devices: usize,
    size: usize,
    sweeps: usize,
) -> Row {
    let rt = skelcl::init_gpus(devices);
    let stencil = MapOverlap::<f32, f32>::from_source(src)
        .with_halo(halo)
        .with_boundary(Boundary::Clamp);
    let m = Matrix::from_vec(&rt, size, size, image(size, size)).expect("square image");
    // Warm up: build the program and upload the parts outside the timed run.
    let warm = match alpha {
        Some(a) => stencil.run(&m).arg(a).exec(),
        None => stencil.run(&m).exec(),
    }
    .expect("stencil runs");
    drop(warm);

    let trace_before = rt.exec_trace();
    let t0 = rt.now();
    let wall = Instant::now();
    let out = match alpha {
        Some(a) => stencil.run(&m).arg(a).run_iter(sweeps),
        None => stencil.run(&m).run_iter(sweeps),
    }
    .expect("stencil runs");
    let virtual_ms = (rt.finish_all() - t0).as_nanos() as f64 / 1.0e6;
    let wall_s = wall.elapsed().as_secs_f64();
    let trace = rt.exec_trace();
    std::hint::black_box(out.to_vec().expect("download"));
    Row {
        workload: workload.to_string(),
        devices,
        halo,
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

    let mut rows = Vec::new();
    for devices in 1..=4 {
        for halo in [1usize, 2, 4] {
            let src = vertical_box_src(halo);
            rows.push(run_stencil(
                "vertical_box",
                &src,
                halo,
                None,
                devices,
                size,
                sweeps,
            ));
        }
        rows.push(run_stencil(
            "gaussian_blur",
            GAUSSIAN_BLUR,
            1,
            None,
            devices,
            size,
            sweeps,
        ));
        rows.push(run_stencil(
            "heat_diffusion",
            HEAT_STEP,
            1,
            Some(0.2),
            devices,
            size,
            sweeps,
        ));
    }

    for r in &rows {
        println!(
            "{:<14} devices={} halo={}  virtual {:>9.3} ms  wall {:>7.3} s  halo {:>6} xfers / {:>9.1} KiB",
            r.workload, r.devices, r.halo, r.virtual_ms, r.wall_s, r.halo_transfers, r.halo_kib
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"stencil\",\n");
    json.push_str(&format!("  \"image\": \"{size}x{size}\",\n"));
    json.push_str(&format!("  \"sweeps\": {sweeps},\n"));
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p skelcl_bench --bin stencil_bench\",\n",
    );
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{ \"workload\": \"{}\", \"devices\": {}, \"halo\": {}, \"virtual_ms\": {:.3}, \"wall_s\": {:.4}, \"halo_transfers\": {}, \"halo_kib\": {:.1} }}{comma}\n",
            r.workload, r.devices, r.halo, r.virtual_ms, r.wall_s, r.halo_transfers, r.halo_kib
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");

    // Smoke images are too small for four devices to pay off; at full size
    // adding devices must not slow any stencil down.
    if !smoke {
        let mut slower = 0;
        for one in rows.iter().filter(|r| r.devices == 1) {
            let four = rows
                .iter()
                .find(|r| r.devices == 4 && r.workload == one.workload && r.halo == one.halo)
                .expect("every workload runs on 1 and 4 devices");
            if four.virtual_ms > one.virtual_ms {
                eprintln!(
                    "FAIL: {} halo {} is slower on 4 devices ({:.3} ms) than on 1 ({:.3} ms)",
                    one.workload, one.halo, four.virtual_ms, one.virtual_ms
                );
                slower += 1;
            }
        }
        if slower > 0 {
            std::process::exit(1);
        }
    }
}
