//! Section V of the paper: scheduling skeletons on *heterogeneous* devices.
//!
//! "To use the heterogeneous devices efficiently ... SkelCL should not assign
//! evenly-sized workload to the devices." This example shows the static
//! scheduler's performance prediction in action: the per-device weights it
//! derives for differently expensive user functions, the resulting block
//! partition, the speed-up over an even split, and the CPU-vs-GPU decision
//! for the final step of a reduction.
//!
//! Run with `cargo run --release --example heterogeneous_scheduling`.

use skelcl::prelude::*;
use skelcl::StaticScheduler;

use oclsim::DeviceProfile;

fn main() -> Result<()> {
    // One Tesla-class GPU, one small GPU and one CPU device — the kind of
    // mixed system the paper's laboratory cluster exposes through dOpenCL.
    let rt = skelcl::init_profiles(vec![
        DeviceProfile::tesla_c1060(),
        DeviceProfile::generic_small_gpu(),
        DeviceProfile::xeon_e5520(),
    ]);
    println!("heterogeneous runtime with {} devices:", rt.device_count());
    for (i, d) in rt.context().devices().iter().enumerate() {
        println!("  device {i}: {}", d.name());
    }

    // --- 1. Performance prediction -------------------------------------
    let scheduler = StaticScheduler::analytical(&rt);
    println!("\npredicted relative throughput (weights) per user-function cost:");
    for (label, cost) in [
        ("memory-bound (1 flop, 16 B)", CostHint::new(1.0, 16.0)),
        ("balanced (50 flops, 8 B)", CostHint::new(50.0, 8.0)),
        ("compute-bound (500 flops, 4 B)", CostHint::new(500.0, 4.0)),
    ] {
        let weights = scheduler.weights(cost);
        println!(
            "  {label:32} -> {:?}",
            weights
                .iter()
                .map(|w| (w * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
    }

    // --- 2. Even vs weighted block distribution -------------------------
    let n = 400_000;
    let heavy = "float func(float x) {\n  float acc = x;\n  for (int i = 0; i < 64; i++) { acc = acc * 1.0001f + 0.5f; }\n  return acc;\n}";
    let cost = CostHint::new(130.0, 8.0);

    let time_with = |dist: Distribution| -> Result<f64> {
        let rt = skelcl::init_profiles(vec![
            DeviceProfile::tesla_c1060(),
            DeviceProfile::generic_small_gpu(),
            DeviceProfile::xeon_e5520(),
        ]);
        let map = Map::<f32, f32>::from_source(heavy);
        let v = Vector::from_vec(&rt, vec![1.0f32; n]);
        v.set_distribution(dist)?;
        v.map(&map)?; // warm-up: compile + upload
        rt.finish_all();
        let t0 = rt.now();
        let out = v.map(&map)?;
        out.with_host(|_| ())?;
        rt.finish_all();
        Ok((rt.now() - t0).as_secs_f64())
    };

    let even = time_with(Distribution::Block)?;
    let weighted = time_with(scheduler.weighted_block(cost))?;
    println!("\nmap over {n} elements (heavy user function):");
    println!("  even block distribution     : {:.3} ms", even * 1e3);
    println!("  scheduler-weighted blocks   : {:.3} ms", weighted * 1e3);
    println!("  speed-up                    : {:.2}x", even / weighted);

    // --- 3. Where should the final reduction run? -----------------------
    // Few partial results: the CPU wins because a GPU pays launch overhead
    // and a PCIe round trip for almost no work. Large compute-heavy
    // reductions go back to a GPU.
    println!("\nfinal-reduction placement (intermediate results -> chosen device):");
    for intermediate in [4usize, 64, 4_096, 1_000_000, 50_000_000] {
        let (device, is_cpu) = scheduler.final_reduce_placement(
            intermediate,
            std::mem::size_of::<f32>(),
            CostHint::new(400.0, 8.0),
        )?;
        println!(
            "  {intermediate:>10} partial results -> device {device} ({})",
            if is_cpu { "CPU" } else { "GPU" }
        );
    }
    Ok(())
}
