//! Dot product on multiple GPUs as a **lazy fused pipeline**: a zip stage
//! (element-wise multiply) chained into a reduce stage (summation), the
//! classic composition the paper's Section II-B uses to motivate lazy data
//! transfers. The lazy plan goes one step further than keeping the zip's
//! output on the devices — fusion composes the multiply into the reduction's
//! first phase, so the product vector is **never materialised at all** and
//! each device runs a single kernel: 64 work-items that each fold a chunk of
//! the products into one partial result, which the host finishes.
//!
//! Run with `cargo run --example dot_product`.

use skelcl::prelude::*;

fn main() -> Result<()> {
    let rt = skelcl::init_gpus(4);
    println!("dot product on {} simulated GPUs", rt.device_count());

    let n = 1 << 20;
    let xs: Vec<f32> = (0..n).map(|i| ((i % 7) as f32) * 0.5).collect();
    let ys: Vec<f32> = (0..n).map(|i| ((i % 5) as f32) - 2.0).collect();
    let reference: f64 = xs.iter().zip(&ys).map(|(x, y)| (x * y) as f64).sum();

    let multiply =
        Zip::<f32, f32, f32>::from_source("float func(float x, float y) { return x * y; }");
    let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");

    let x = Vector::from_vec(&rt, xs);
    let y = Vector::from_vec(&rt, ys);

    // Nothing runs yet: `lazy()` starts an expression DAG and each stage
    // only appends a node. The plan can be inspected and re-executed.
    let dot_plan = x.lazy().zip(&y, &multiply).reduce(&sum);
    println!("\n{}", dot_plan.explain()?);

    // Warm-up pass: compiles the fused kernel (runtime compilation is a
    // one-time cost the paper excludes from its measurements) and uploads
    // the two input vectors.
    let _ = dot_plan.scalar()?;
    rt.finish_all();
    rt.drain_events();
    let warm = rt.exec_trace();

    let t0 = rt.now();
    let dot = dot_plan.scalar()?;
    rt.finish_all();
    let elapsed = (rt.now() - t0).as_secs_f64();

    println!("dot(x, y)        = {dot:.1}");
    println!("reference        = {reference:.1}");
    println!("simulated time   = {:.3} ms", elapsed * 1e3);

    // Fusion telemetry: the zip never ran as its own kernel, so one launch
    // per device was elided and the 4 MiB product vector never existed.
    let trace = rt.exec_trace();
    let events = rt.drain_events();
    let uploads = events.iter().flatten().filter(|e| e.is_write()).count();
    let kernels = events.iter().flatten().filter(|e| e.is_kernel()).count();
    println!("uploads after warm-up:  {uploads} (inputs were already resident)");
    println!("kernel launches:        {kernels} (one fused zip+reduce per device)");
    println!(
        "launches elided:        {}",
        trace.launches_elided - warm.launches_elided
    );
    println!(
        "intermediate bytes elided: {} ({} MiB product vector never allocated)",
        trace.intermediate_bytes_elided - warm.intermediate_bytes_elided,
        (trace.intermediate_bytes_elided - warm.intermediate_bytes_elided) >> 20
    );

    // The fused reduce must stay on the native tier from its first launch: a
    // replayed batch means it fell back to interpreter speed (CI runs this
    // example).
    println!("{}", trace.tier_line());
    if trace.replayed_batches() > 0 || trace.bailed_launches() > 0 {
        eprintln!("error: a fused reduce launch replayed or bailed off the native tier");
        std::process::exit(1);
    }
    Ok(())
}
