//! Outside-in layer probes: direct calls into `skelcl_kernel` and `oclsim`
//! public functions at the workload's own kernels and sizes, so the
//! iteration's wall time can be apportioned without instrumenting the
//! program.

use std::time::Instant;

use oclsim::{Context, CostHint, NativeKernelDef};
use skelcl::kernelgen::{self, UdfInfo};
use skelcl_kernel::builtins::stencil::POLICY_CLAMP;
use skelcl_kernel::interp::{ArgBinding, ExecStats};
use skelcl_kernel::value::Value;
use skelcl_kernel::{KernelHandle, LaunchTrace, Program, Tier};

use crate::stats::fastest;
use crate::workloads::{put, KernelShape, KernelSpec, Metrics};

/// Generate the kernel source for `spec` exactly as its skeleton would.
fn generate(spec: &KernelSpec) -> Result<(String, &'static str), String> {
    let inputs = match spec.shape {
        KernelShape::Map | KernelShape::MapOverlap { .. } => 1,
        KernelShape::Zip | KernelShape::Reduce | KernelShape::Scan => 2,
    };
    let udf = UdfInfo::analyze(spec.udf, inputs).map_err(|e| format!("udf: {e}"))?;
    let (source, kernel) = match spec.shape {
        KernelShape::Map => (kernelgen::map_kernel(&udf), kernelgen::MAP_KERNEL),
        KernelShape::Zip => (kernelgen::zip_kernel(&udf), kernelgen::ZIP_KERNEL),
        KernelShape::Reduce => (kernelgen::reduce_kernel(&udf), kernelgen::REDUCE_KERNEL),
        KernelShape::Scan => (kernelgen::scan_kernels(&udf), kernelgen::SCAN_KERNEL),
        KernelShape::MapOverlap { .. } => (
            kernelgen::map_overlap_kernel(&udf),
            kernelgen::MAP_OVERLAP_KERNEL,
        ),
    };
    Ok((source.map_err(|e| format!("kernelgen: {e}"))?, kernel))
}

/// Host buffers for one launch of `spec` over `elems` elements.
struct LaunchData {
    buffers: Vec<Vec<f32>>,
    scalars: Vec<Value>,
    global_size: usize,
}

impl LaunchData {
    fn new(spec: &KernelSpec, elems: usize) -> LaunchData {
        let fill = |n: usize| -> Vec<f32> { (0..n).map(|i| (i % 97) as f32 * 0.125).collect() };
        let mut scalars = vec![Value::Int(elems as i32)];
        let (buffers, global_size) = match spec.shape {
            KernelShape::Map => (vec![fill(elems), vec![0.0; elems]], elems),
            KernelShape::Zip => (vec![fill(elems), fill(elems), vec![0.0; elems]], elems),
            KernelShape::Reduce => (vec![fill(elems), vec![0.0; 1]], 1),
            KernelShape::Scan => (vec![fill(elems), vec![0.0; elems]], 1),
            KernelShape::MapOverlap { cols, halo } => {
                let stored = elems + 2 * halo * cols;
                scalars.extend([
                    Value::Int(cols as i32),
                    Value::Int(halo as i32),
                    Value::Int(POLICY_CLAMP),
                    Value::Float(0.0),
                ]);
                (vec![fill(stored), vec![0.0; stored]], elems)
            }
        };
        scalars.extend(spec.extra.iter().map(|&x| Value::Float(x)));
        LaunchData {
            buffers,
            scalars,
            global_size,
        }
    }

    fn args(&mut self) -> Vec<ArgBinding<'_>> {
        self.buffers
            .iter_mut()
            .map(|b| ArgBinding::buffer_f32(b))
            .chain(self.scalars.iter().map(|v| ArgBinding::Scalar(*v)))
            .collect()
    }
}

#[derive(Clone, Copy)]
enum Engine {
    /// Whatever `Tier::Auto` picks — what the runtime does.
    Auto,
    Native,
    Batched,
    Scalar,
    Interp,
}

/// Fastest of `reps` timed launches in seconds (after `warm` untimed ones),
/// plus the last launch's stats and trace. The fastest, not the middle one:
/// host interference only ever adds time (README, "Steadiness").
fn time_launches(
    program: &Program,
    kernel: &KernelHandle,
    data: &mut LaunchData,
    engine: Engine,
    warm: usize,
    reps: usize,
) -> Result<(f64, ExecStats, LaunchTrace), String> {
    let global = data.global_size;
    let mut samples = Vec::with_capacity(reps);
    let mut last = (ExecStats::default(), LaunchTrace::default());
    for i in 0..warm + reps {
        let mut args = data.args();
        let t = Instant::now();
        let out = match engine {
            Engine::Auto | Engine::Native => program.run_ndrange_traced(kernel, global, &mut args),
            Engine::Batched => program
                .run_ndrange_measured_batched(kernel, global, &mut args)
                .map(|s| (s, LaunchTrace::default())),
            Engine::Scalar => program
                .run_ndrange_measured_scalar(kernel, global, &mut args)
                .map(|s| (s, LaunchTrace::default())),
            Engine::Interp => program
                .run_ndrange_measured_interp(kernel, global, &mut args)
                .map(|s| (s, LaunchTrace::default())),
        };
        let secs = t.elapsed().as_secs_f64();
        last = std::hint::black_box(out.map_err(|e| format!("kernel probe: {e}"))?);
        if i >= warm {
            samples.push(secs);
        }
    }
    Ok((fastest(&samples), last.0, last.1))
}

/// `kernel.*` probes over the workload's kernel list (dominant first).
pub fn kernel_probes(specs: &[KernelSpec], smoke: bool, out: &mut Metrics) -> Result<(), String> {
    let reps = if smoke { 1 } else { 5 };
    let mut build_ms = Vec::new();
    let mut compile_ms = 0.0;
    let mut wall_ms = 0.0;
    for (i, spec) in specs.iter().enumerate() {
        let (source, kernel_name) = generate(spec)?;
        let build = |src: &str| Program::build(src).map_err(|e| format!("Program::build: {e}"));
        for rep in 0..reps {
            let t = Instant::now();
            std::hint::black_box(build(&source)?);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match build_ms.get_mut(rep) {
                Some(total) => *total += ms,
                None => build_ms.push(ms),
            }
        }

        // What an iteration pays for this kernel: the tier the runtime's
        // `Auto` heuristic settles on, past its 16-launch graduation.
        let program = build(&source)?;
        let kernel = program.kernel(kernel_name).map_err(|e| e.to_string())?;
        let mut data = LaunchData::new(spec, spec.elems);
        let (secs, _, _) = time_launches(&program, &kernel, &mut data, Engine::Auto, 20, reps)?;
        wall_ms += spec.launches * secs * 1e3;

        let native = build(&source)?;
        native.set_tier(Tier::Native);
        compile_ms += native.native_outcome(&kernel).compile_ns as f64 / 1e6;

        if i > 0 {
            continue;
        }
        // Per-engine throughput of the dominant kernel at the workload's size.
        let elems = spec.elems as f64;
        let (secs, stats, trace) =
            time_launches(&native, &kernel, &mut data, Engine::Native, 1, reps)?;
        put(out, "kernel.native_eps", elems / secs);
        let batches = trace.native_batches + trace.replayed_batches;
        put(
            out,
            "kernel.replay_frac",
            trace.replayed_batches as f64 / batches.max(1) as f64,
        );
        // From the engine's own counters — computed, not measured traffic.
        put(out, "kernel.ops_per_elem", stats.ops / elems);
        put(out, "kernel.bytes_per_elem", stats.global_bytes / elems);
        let (secs, _, _) = time_launches(&program, &kernel, &mut data, Engine::Batched, 1, reps)?;
        put(out, "kernel.batched_eps", elems / secs);
        let (secs, _, _) =
            time_launches(&program, &kernel, &mut data, Engine::Scalar, 0, reps.min(3))?;
        put(out, "kernel.scalar_eps", elems / secs);
        // The interpreter is two orders slower: a 1/64 prefix is plenty.
        let prefix = (spec.elems / 64).max(1);
        let prefix = match spec.shape {
            // Whole rows only.
            KernelShape::MapOverlap { cols, .. } => (prefix / cols).max(1) * cols,
            _ => prefix,
        };
        let mut small = LaunchData::new(spec, prefix);
        let (secs, _, _) = time_launches(&program, &kernel, &mut small, Engine::Interp, 0, 1)?;
        put(out, "kernel.interp_eps", prefix as f64 / secs);
    }
    put(out, "kernel.build_ms", fastest(&build_ms));
    put(out, "kernel.native_compile_ms", compile_ms);
    put(out, "kernel.wall_ms", wall_ms);
    Ok(())
}

/// `oclsim.host_ns_per_cmd` and `oclsim.copy_gbps`: the simulator's own
/// host-side cost per command and per byte, on a private one-device context.
pub fn oclsim_probes(bytes: usize, smoke: bool, out: &mut Metrics) -> Result<(), String> {
    let e = |e: oclsim::OclError| format!("oclsim probe: {e}");
    let ctx = Context::with_gpus(1);
    let queue = ctx.queue(0).map_err(e)?;
    let noop = ctx
        .native_program([NativeKernelDef::new("noop", CostHint::DEFAULT, |_| Ok(()))])
        .kernel("noop")
        .map_err(e)?;
    let cmds = if smoke { 1_000 } else { 10_000 };
    let reps = if smoke { 1 } else { 5 };
    let mut per_cmd = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..cmds {
            queue.enqueue_kernel(&noop, 1, &[]).map_err(e)?;
        }
        queue.finish_checked().map_err(e)?;
        per_cmd.push(t.elapsed().as_nanos() as f64 / cmds as f64);
        queue.clear_events();
    }
    put(out, "oclsim.host_ns_per_cmd", fastest(&per_cmd));

    let len = (bytes / 4).max(1);
    let buffer = ctx.create_buffer::<f32>(0, len).map_err(e)?;
    let data = vec![1.0f32; len];
    let mut back = vec![0.0f32; len];
    let mut secs = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        queue.enqueue_write_buffer(&buffer, &data).map_err(e)?;
        queue.enqueue_read_buffer(&buffer, &mut back).map_err(e)?;
        secs.push(t.elapsed().as_secs_f64());
        queue.clear_events();
    }
    std::hint::black_box(&back);
    put(
        out,
        "oclsim.copy_gbps",
        2.0 * (len * 4) as f64 / fastest(&secs) / 1e9,
    );
    Ok(())
}
