//! Inspecting lazy pipelines before running them: `explain()` renders the
//! expression DAG, the distribution the runtime will unify the sources to,
//! the launch groups and — per stage boundary — the fuse-or-split verdict.
//! Nothing is enqueued.
//!
//! Run with `cargo run --example plan_explain`.

use skelcl::prelude::*;
use skelcl::FusionPolicy;

fn main() -> Result<()> {
    let rt = skelcl::init_gpus(2);

    let n = 1 << 18;
    let v = Vector::from_vec(&rt, (0..n).map(|i| (i % 13) as f32).collect::<Vec<f32>>());
    let w = Vector::from_vec(&rt, vec![0.25f32; n]);

    let square = Map::<f32, f32>::from_source("float func(float x) { return x * x; }");
    let scale = Map::<f32, f32>::from_source("float func(float x, float a) { return a * x; }");
    let add = Zip::<f32, f32, f32>::from_source("float func(float x, float y) { return x + y; }");
    let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");

    // A 4-stage pipeline: map -> map -> zip -> reduce. Under the default
    // Auto policy every boundary fuses: one kernel per device instead of
    // four, and no intermediate vectors.
    let plan = v
        .lazy()
        .map(&square)
        .map_with(&scale, args![0.5f32])
        .zip(&w, &add)
        .reduce(&sum);

    println!("=== FusionPolicy::Auto (default) ===");
    println!("{}", plan.explain()?);

    // `Never` lowers one launch group per stage — the differential baseline
    // the test suite compares fused results against, bit for bit.
    println!("=== FusionPolicy::Never ===");
    println!("{}", plan.clone().policy(FusionPolicy::Never).explain()?);

    // explain() did not execute anything; the terminal does.
    let total = plan.scalar()?;
    println!("result: {total:.1}");

    let trace = rt.exec_trace();
    println!(
        "telemetry: {} kernel(s) fused, {} launch(es) elided, {} intermediate byte(s) elided",
        trace.kernels_fused, trace.launches_elided, trace.intermediate_bytes_elided
    );
    // Five distinct group shapes appeared above — the fully fused chain,
    // and under `Never` each of its four stages alone — and running the
    // plan after explaining it lowered nothing new. (The counter covers
    // eager source calls too — their kernels come from the same memo —
    // but this example makes none, so five it stays.)
    println!("{}", trace.lowering_line());
    if trace.plan_lowerings > 5 {
        eprintln!("error: 5 distinct group shapes were planned, but more were lowered");
        std::process::exit(1);
    }
    Ok(())
}
