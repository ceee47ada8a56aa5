//! Figure 3 of the paper: the five phases of one list-mode OSEM subset
//! iteration on two GPUs (upload, step 1, redistribution, step 2, download),
//! expressed purely through SkelCL distributions.
//!
//! Run with `cargo run --release --example osem_phases`.

use osem::{sequential, ReconstructionConfig, SkelclOsem};
use skelcl::prelude::*;
use skelcl::DeviceSelection;

fn main() {
    let config = ReconstructionConfig::test_scale().with_events_per_subset(5_000);
    let subsets = sequential::generate_subsets(&config);

    let rt = skelcl::SkelCl::init(DeviceSelection::Gpus(2));
    let osem = SkelclOsem::new(rt.clone(), config.clone());
    // Build the kernels first so the phase timing reflects steady state.
    osem.warmup(&subsets[0]).expect("warm-up");

    let mut f = Vector::filled(&rt, config.volume.voxel_count(), 1.0f32);
    let timing = osem.process_subset(&subsets[0], &mut f).expect("subset");

    println!("one list-mode OSEM subset iteration on 2 simulated GPUs");
    println!(
        "volume {}x{}x{}, {} events",
        config.volume.nx, config.volume.ny, config.volume.nz, config.events_per_subset
    );
    println!("phase breakdown (simulated milliseconds), cf. Figure 3 of the paper:");
    println!("  1. upload          {:>10.3} ms", timing.upload_s * 1e3);
    println!("  2. step 1 (map)    {:>10.3} ms", timing.step1_s * 1e3);
    println!(
        "  3. redistribution  {:>10.3} ms",
        timing.redistribution_s * 1e3
    );
    println!("  4. step 2 (zip)    {:>10.3} ms", timing.step2_s * 1e3);
    println!("  5. download        {:>10.3} ms", timing.download_s * 1e3);
    println!("  total              {:>10.3} ms", timing.total_s() * 1e3);

    let image = f.to_vec().expect("download");
    let max = image.iter().cloned().fold(0.0f32, f32::max);
    println!(
        "reconstructed image: {} voxels, max value {max:.3}",
        image.len()
    );

    // The branchy update `Zip` must stay on the native tier under lane
    // masks: a replayed batch means it fell back to interpreter speed (CI
    // runs this example).
    let trace = rt.exec_trace();
    println!("{}", trace.tier_line());
    if trace.replayed_batches() > 0 || trace.bailed_launches() > 0 {
        eprintln!("error: an update launch replayed or bailed off the native tier");
        std::process::exit(1);
    }
}
