//! Kernel-engine throughput benchmark: AST interpreter vs batched bytecode
//! VM vs the closure-compiled native tier.
//!
//! Runs the generated skeleton kernel shapes (map, zip, the reduce at its
//! 64-work-item launch shape, scan, the
//! MapOverlap heat stencil on 1000-wide rows, and the two divergent
//! application kernels: the OSEM update `Zip` with `c <= 0` in a random half
//! of the lanes, and the Mandelbrot index map over the default view) over
//! 1M elements through all three engines and emits
//! `BENCH_kernel_vm.json` with elements/sec per engine and the speedups, so
//! future PRs have a perf trajectory to compare against.
//!
//! Usage:
//!   cargo run --release -p skelcl_bench --bin kernel_vm_bench
//!   cargo run --release -p skelcl_bench --bin kernel_vm_bench -- --quick
//!   cargo run --release -p skelcl_bench --bin kernel_vm_bench -- --out path.json
//!
//! `--quick` shrinks the element count so CI can use the binary as a smoke
//! check (compile + run both engines, no thresholds).

use std::time::Instant;

use skelcl::kernelgen::{self, UdfInfo};
use skelcl_kernel::interp::ArgBinding;
use skelcl_kernel::value::Value;
use skelcl_kernel::{Program, Tier};

/// Which engine a timing run drives.
#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Interp,
    Batched,
    Native,
}

/// The user functions of the straight-line workloads; the kernel around
/// each is `kernelgen`'s own template — what the skeleton launches.
const MAP_UDF: &str = "float func(float x) { return x * x * x - 2.0f * x + 1.0f; }";
const ZIP_UDF: &str = "float func(float x, float y, float a) { return a * x + y; }";
const ADD_UDF: &str = "float func(float a, float b) { return a + b; }";
/// The 5-point heat step: four `get(dx, dy)` neighbour reads.
const HEAT_STENCIL_UDF: &str = "float func(float u) { return u + 0.2f * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u); }";

/// `template` over `udf`, whose first `main_inputs` parameters are elements.
fn generated(
    udf: &str,
    main_inputs: usize,
    template: fn(&UdfInfo) -> skelcl::Result<String>,
) -> String {
    let udf = UdfInfo::analyze(udf, main_inputs).expect("benchmark UDFs analyze");
    template(&udf).expect("benchmark UDFs fit their template")
}

/// Row width of the heat-stencil workload (divides both element counts).
const STENCIL_WIDTH: usize = 1000;

/// List-mode OSEM's `zipUpdate`.
const OSEM_UPDATE_UDF: &str =
    "float func(float f, float c) { if (c > 0.0f) { return f * c; } return f; }";

/// Image width of the Mandelbrot workload (divides both element counts).
const MANDELBROT_WIDTH: usize = 1000;

/// The positive ramp every straight-line workload reads.
fn ramp(buffer: usize, i: usize) -> f32 {
    ((i + buffer) % 97) as f32 * 0.25 + 0.5
}

/// The ramp, with the correction image (buffer 1) non-positive at a
/// pseudo-random half of the positions.
fn half_non_positive(buffer: usize, i: usize) -> f32 {
    let v = ramp(buffer, i);
    if buffer == 1 && (i.wrapping_mul(2_654_435_761) >> 7).is_multiple_of(2) {
        0.5 - v
    } else {
        v
    }
}

struct Workload {
    name: &'static str,
    src: fn() -> String,
    kernel: &'static str,
    /// Number of input buffers before the single output buffer.
    inputs: usize,
    /// Element `i` of input buffer `b`.
    input: fn(usize, usize) -> f32,
    /// Whether the output buffer holds `int`s.
    int_out: bool,
    /// Extra scalar args appended after `n`, given `n`.
    extra: fn(usize) -> Vec<Value>,
    /// Elements every buffer holds beyond `n` (the stencil's halo rows).
    pad: usize,
    /// Work-items per launch given `n` elements (64 chunk-folding ones for
    /// the reduce, 1 for the sequential scan).
    items: fn(usize) -> usize,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "map",
        src: || generated(MAP_UDF, 1, kernelgen::map_kernel),
        kernel: kernelgen::MAP_KERNEL,
        inputs: 1,
        input: ramp,
        int_out: false,
        extra: |_| vec![],
        pad: 0,
        items: |n| n,
    },
    Workload {
        name: "zip",
        src: || generated(ZIP_UDF, 2, kernelgen::zip_kernel),
        kernel: kernelgen::ZIP_KERNEL,
        inputs: 2,
        input: ramp,
        int_out: false,
        extra: |_| vec![Value::Float(2.5)],
        pad: 0,
        items: |n| n,
    },
    Workload {
        name: "reduce",
        src: || generated(ADD_UDF, 2, kernelgen::reduce_kernel),
        kernel: kernelgen::REDUCE_KERNEL,
        inputs: 1,
        input: ramp,
        int_out: false,
        extra: |_| vec![],
        pad: 0,
        // The skeleton's launch shape: 64 work-items, one chunk each.
        items: skelcl::reduce_partials,
    },
    Workload {
        name: "scan",
        src: || generated(ADD_UDF, 2, kernelgen::scan_kernels),
        kernel: kernelgen::SCAN_KERNEL,
        inputs: 1,
        input: ramp,
        int_out: false,
        extra: |_| vec![],
        pad: 0,
        items: |_| 1,
    },
    Workload {
        name: "heat_stencil",
        src: || generated(HEAT_STENCIL_UDF, 1, kernelgen::map_overlap_kernel),
        kernel: kernelgen::MAP_OVERLAP_KERNEL,
        inputs: 1,
        input: ramp,
        int_out: false,
        // width, halo 1, clamp policy, out-of-bound value
        extra: |_| {
            vec![
                Value::Int(STENCIL_WIDTH as i32),
                Value::Int(1),
                Value::Int(0),
                Value::Float(0.0),
            ]
        },
        pad: 2 * STENCIL_WIDTH,
        items: |n| n,
    },
    Workload {
        name: "branchy_zip",
        src: || generated(OSEM_UPDATE_UDF, 2, kernelgen::zip_kernel),
        kernel: kernelgen::ZIP_KERNEL,
        inputs: 2,
        input: half_non_positive,
        int_out: false,
        extra: |_| vec![],
        pad: 0,
        items: |n| n,
    },
    Workload {
        name: "mandelbrot",
        src: || generated(mandelbrot::MANDELBROT_UDF, 1, kernelgen::map_index_kernel),
        kernel: kernelgen::MAP_INDEX_KERNEL,
        inputs: 0,
        input: ramp,
        int_out: true,
        // offset, then the default view over a MANDELBROT_WIDTH-wide image
        extra: |n| {
            let view = mandelbrot::MandelbrotConfig::test_scale();
            vec![
                Value::Int(0),
                Value::Int(MANDELBROT_WIDTH as i32),
                Value::Int((n / MANDELBROT_WIDTH) as i32),
                Value::Float(view.center_re),
                Value::Float(view.center_im),
                Value::Float(view.view_width),
                Value::Int(view.max_iterations as i32),
            ]
        },
        pad: 0,
        items: |n| n,
    },
];

/// Best-of-`reps` wall-clock seconds for one engine over one workload.
fn time_engine(w: &Workload, n: usize, reps: usize, engine: Engine) -> f64 {
    let program = Program::build(&(w.src)()).expect("benchmark kernels build");
    if engine == Engine::Native {
        program.set_tier(Tier::Native);
        // Compile outside the timed region: launches amortize it in
        // production, and the JSON reports steady-state throughput.
        let k = program.kernel(w.kernel).expect("kernel exists");
        program
            .native_outcome(&k)
            .result
            .as_ref()
            .expect("benchmark kernels are native-eligible");
    }
    let kernel = program.kernel(w.kernel).expect("kernel exists");
    let items = (w.items)(n);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut bufs: Vec<Vec<f32>> = (0..w.inputs)
            .map(|b| (0..n + w.pad).map(|i| (w.input)(b, i)).collect())
            .collect();
        let mut out_f32 = vec![0.0f32; if w.int_out { 0 } else { n + w.pad }];
        let mut out_i32 = vec![0i32; if w.int_out { n + w.pad } else { 0 }];
        let mut args: Vec<ArgBinding<'_>> =
            bufs.iter_mut().map(|b| ArgBinding::buffer_f32(b)).collect();
        args.push(if w.int_out {
            ArgBinding::buffer_i32(&mut out_i32)
        } else {
            ArgBinding::buffer_f32(&mut out_f32)
        });
        args.push(ArgBinding::Scalar(Value::Int(n as i32)));
        args.extend((w.extra)(n).into_iter().map(ArgBinding::Scalar));

        let start = Instant::now();
        let stats = match engine {
            Engine::Interp => program.run_ndrange_measured_interp(&kernel, items, &mut args),
            Engine::Batched => program.run_ndrange_measured_batched(&kernel, items, &mut args),
            Engine::Native => program.run_ndrange_measured(&kernel, items, &mut args),
        }
        .expect("benchmark kernels run");
        let elapsed = start.elapsed().as_secs_f64();
        std::hint::black_box(stats);
        best = best.min(elapsed);
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernel_vm.json".to_string());

    let n: usize = if quick { 20_000 } else { 1_000_000 };
    let reps = if quick { 1 } else { 3 };

    let mut rows = Vec::new();
    for w in WORKLOADS {
        let t_interp = time_engine(w, n, reps.min(2), Engine::Interp);
        let t_vm = time_engine(w, n, reps, Engine::Batched);
        let t_native = time_engine(w, n, reps, Engine::Native);
        let interp_eps = n as f64 / t_interp;
        let vm_eps = n as f64 / t_vm;
        let native_eps = n as f64 / t_native;
        let speedup = vm_eps / interp_eps;
        let native_vs_vm = native_eps / vm_eps;
        println!(
            "{:<12} n={n:>8}  interp {:>11.0} elem/s  vm {:>11.0} elem/s  native {:>11.0} elem/s  native/vm {:>5.1}x",
            w.name, interp_eps, vm_eps, native_eps, native_vs_vm
        );
        rows.push((
            w.name,
            interp_eps,
            vm_eps,
            native_eps,
            speedup,
            native_vs_vm,
        ));
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"kernel_vm\",\n");
    json.push_str(&format!("  \"elements\": {n},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p skelcl_bench --bin kernel_vm_bench\",\n",
    );
    json.push_str("  \"units\": \"elements_per_second\",\n");
    json.push_str("  \"workloads\": {\n");
    for (i, (name, interp_eps, vm_eps, native_eps, speedup, native_vs_vm)) in
        rows.iter().enumerate()
    {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{name}\": {{ \"interp_eps\": {interp_eps:.0}, \"vm_eps\": {vm_eps:.0}, \"native_eps\": {native_eps:.0}, \"speedup\": {speedup:.2}, \"native_vs_vm\": {native_vs_vm:.2} }}{comma}\n",
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");
}
