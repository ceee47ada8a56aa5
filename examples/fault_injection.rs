//! Deterministic fault injection and replay-based recovery.
//!
//! Arms a reproducible [`FaultPlan`] — a transient kernel failure and a
//! permanent device loss — against a 4-device runtime, runs ordinary
//! skeleton code, and shows that the recovery layer replays the launches
//! bit-identically while the `ExecTrace` counters record what happened.
//! Then escalates to the cluster level: a whole dual-GPU server of the
//! paper's lab cluster dies mid-way through an iterative heat stencil, and
//! the checkpointed `run_iter` driver rolls back and finishes on the
//! survivors. A checkpoint leaves the host copy valid, so the halo exchange
//! that opens the next block writes every ghost row from the host: the
//! program exits 1 if such an exchange read a row back from a device.
//!
//! Run with `cargo run --release --example fault_injection`.

use dopencl::{Cluster, ClusterTier};
use skelcl::oclsim::{Event, FaultPlan, FaultTrigger};
use skelcl::prelude::*;

const HEAT_STEP: &str = r#"
    float func(float u) {
        return u + 0.2f * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u);
    }
"#;

fn main() -> Result<()> {
    // --- Single-runtime faults: a transient and a permanent one. ---------
    let rt = skelcl::init_gpus(4);
    // Device 0's second op (the map kernel) fails once; device 2 dies for
    // good on its third op. Both triggers are virtual-schedule-deterministic:
    // re-running this program replays the exact same faults.
    rt.inject_faults(
        &FaultPlan::new()
            .transient_launch_at_op(0, 2)
            .device_lost_at_op(2, 3),
    );

    let xs: Vec<f32> = (0..1 << 14).map(|i| (i % 17) as f32).collect();
    let v = Vector::from_vec(&rt, xs.clone());
    let dbl = Map::<f32, f32>::from_source("float func(float x) { return 2.0f * x; }");
    let out = v.map(&dbl)?.to_vec()?;
    assert!(out.iter().zip(&xs).all(|(o, x)| *o == 2.0 * x));

    let trace = rt.exec_trace();
    println!("map over 4 devices with 2 armed faults:");
    println!("  faults injected:   {}", trace.faults_injected);
    println!("  recovered launches: {}", trace.recoveries);
    println!("  replayed launches:  {}", trace.replayed_launches);
    println!("  re-partitions:      {}", trace.repartitions);
    println!("  lost devices:       {:?}", rt.lost_devices());
    println!("  result: bit-identical to the fault-free run\n");

    // --- Cluster-level fault: a node drops off the network mid-run. ------
    // Op 16 of each of its GPUs is the second ghost write of the exchange
    // that follows the third checkpoint.
    let tier = ClusterTier::launch_gpus(&Cluster::lab_cluster());
    let armed = tier.fail_node("small-server-1", FaultTrigger::AtOpCount(16));
    println!("lab cluster: armed a node failure ({armed} GPUs die at op 16)");

    let rt = tier.runtime();
    let heat = MapOverlap::<f32, f32>::from_source(HEAT_STEP)
        .with_halo(1)
        .with_boundary(Boundary::Constant(0.0));
    let m = Matrix::from_vec(rt, 64, 64, (0..64 * 64).map(|i| (i % 13) as f32).collect())?;
    let start = rt.now();
    let out = heat
        .run(&m)
        .checkpoint_every(CHECKPOINT_EVERY)
        .run_iter(12)?;
    let sample = out.to_vec()?[64 * 32 + 32];
    let elapsed = rt.elapsed_since(start);
    let halo_reads = reads_after_checkpoints(&rt.drain_events(), CHECKPOINT_EVERY * 64 * 4);

    let trace = rt.exec_trace();
    println!("12 heat sweeps survived the node loss:");
    println!("  lost devices:       {:?}", rt.lost_devices());
    println!("  recoveries:         {}", trace.recoveries);
    println!("  replayed sweeps:    {}", trace.replayed_launches);
    println!(
        "  checkpoint traffic: {:.1} KiB",
        trace.checkpoint_bytes as f64 / 1024.0
    );
    println!("  centre sample:      {sample}");
    println!(
        "  virtual time:       {:.3} ms",
        elapsed.as_secs_f64() * 1e3
    );
    println!(
        "  ghost writes:       {} from the host, {} forwarded",
        trace.halo_host_writes(),
        trace.halo_forwards()
    );
    println!("  halo reads after a checkpoint: {halo_reads}");
    if halo_reads > 0 {
        eprintln!("an exchange after a checkpoint read its rows back from a device");
        std::process::exit(1);
    }
    Ok(())
}

/// Sweeps per checkpoint of the cluster run; a block of sweeps between two
/// exchanges never straddles a checkpoint, so no exchange moves more rows.
const CHECKPOINT_EVERY: usize = 2;

/// The halo reads issued by blocks that follow a checkpoint: per device, a
/// read of at most `ghost_bytes` between a checkpoint's gather (a read of a
/// whole part, larger than any exchange's) and the next kernel.
fn reads_after_checkpoints(logs: &[Vec<Event>], ghost_bytes: usize) -> usize {
    let mut reads = 0;
    for log in logs {
        let mut after_gather = false;
        for event in log {
            if event.is_kernel() {
                after_gather = false;
            } else if event.is_read() && event.bytes > ghost_bytes {
                after_gather = true;
            } else if event.is_read() {
                reads += usize::from(after_gather);
            }
        }
    }
    reads
}
