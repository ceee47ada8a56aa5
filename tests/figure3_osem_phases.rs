//! Figure 3 and Listing 3 of the paper: the five phases of one list-mode
//! OSEM subset iteration (upload, step 1, redistribution, step 2, download)
//! expressed through SkelCL distribution changes, and the correctness of the
//! resulting reconstruction against the sequential reference of Listing 2.

use skelcl::prelude::*;
use skelcl::DeviceSelection;

use osem::{sequential, ReconstructionConfig, SkelclOsem};

fn small_config() -> ReconstructionConfig {
    ReconstructionConfig::test_scale()
}

#[test]
fn one_subset_iteration_produces_the_five_phases_of_figure_3() {
    let config = small_config();
    let subsets = sequential::generate_subsets(&config);

    let rt = SkelCl::init(DeviceSelection::Gpus(2));
    let osem = SkelclOsem::new(rt.clone(), config.clone());
    osem.warmup(&subsets[0]).unwrap();

    let mut f = Vector::filled(&rt, config.volume.voxel_count(), 1.0f32);
    let timing = osem.process_subset(&subsets[0], &mut f).unwrap();

    // Every phase exists and the total is the sum of the parts.
    assert!(timing.step1_s > 0.0, "step 1 computes the error image");
    assert!(
        timing.step2_s > 0.0,
        "step 2 updates the reconstruction image"
    );
    assert!(
        timing.redistribution_s > 0.0,
        "switching PSD → ISD moves the error and reconstruction images"
    );
    let total = timing.total_s();
    let sum = timing.upload_s
        + timing.step1_s
        + timing.redistribution_s
        + timing.step2_s
        + timing.download_s;
    assert!((total - sum).abs() < 1e-12);

    // Step 1 (the per-event path tracing) dominates the iteration, as in the
    // paper's workload.
    assert!(
        timing.step1_s > timing.step2_s,
        "step 1 ({}) should dominate step 2 ({})",
        timing.step1_s,
        timing.step2_s
    );
}

#[test]
fn skelcl_reconstruction_matches_the_sequential_listing_2_reference() {
    let config = small_config();
    let subsets = sequential::generate_subsets(&config);

    // Sequential reference: Listing 2.
    let mut reference = vec![1.0f32; config.volume.voxel_count()];
    for s in &subsets {
        sequential::process_subset(&config, s, &mut reference);
    }

    for gpus in [1usize, 2, 4] {
        let rt = SkelCl::init(DeviceSelection::Gpus(gpus));
        let osem = SkelclOsem::new(rt, config.clone());
        let image = osem.reconstruct_subsets(&subsets).unwrap();
        let diff = osem::max_relative_difference(&image, &reference);
        assert!(
            diff < 1e-3,
            "parallel reconstruction deviates by {diff} on {gpus} GPUs"
        );
    }
}

#[test]
fn all_three_implementations_compute_the_same_image() {
    let config = small_config();
    let subsets = sequential::generate_subsets(&config);

    let rt = SkelCl::init(DeviceSelection::Gpus(2));
    let img_skel = SkelclOsem::new(rt, config.clone())
        .reconstruct_subsets(&subsets)
        .unwrap();
    let img_ocl = osem::OpenClOsem::new(2, config.clone())
        .unwrap()
        .reconstruct_subsets(&subsets)
        .unwrap();
    let img_cuda = osem::CudaOsem::new(2, config)
        .unwrap()
        .reconstruct_subsets(&subsets)
        .unwrap();

    assert!(osem::max_relative_difference(&img_skel, &img_ocl) < 1e-3);
    assert!(osem::max_relative_difference(&img_skel, &img_cuda) < 1e-3);
    assert!(osem::max_relative_difference(&img_ocl, &img_cuda) < 1e-3);
}

#[test]
fn reconstruction_is_deterministic_for_a_fixed_seed() {
    let config = small_config();
    let subsets_a = sequential::generate_subsets(&config);
    let subsets_b = sequential::generate_subsets(&config);
    assert_eq!(subsets_a.len(), subsets_b.len());
    for (a, b) in subsets_a.iter().zip(&subsets_b) {
        assert_eq!(a, b, "event generation must be reproducible");
    }
}

#[test]
fn more_events_increase_step_1_time_but_not_step_2() {
    // Step 1 is event-bound (PSD), step 2 is voxel-bound (ISD): ten times the
    // events must clearly grow step 1 while leaving step 2 unchanged. (At
    // very small event counts step 1 is dominated by the fixed image uploads,
    // so the comparison uses a 10× spread.)
    let base = small_config().with_events_per_subset(2_000);
    let heavy = small_config().with_events_per_subset(20_000);

    let time_phases = |config: &ReconstructionConfig| {
        let subsets = sequential::generate_subsets(config);
        let rt = SkelCl::init(DeviceSelection::Gpus(2));
        let osem = SkelclOsem::new(rt.clone(), config.clone());
        osem.warmup(&subsets[0]).unwrap();
        let mut f = Vector::filled(&rt, config.volume.voxel_count(), 1.0f32);
        osem.process_subset(&subsets[0], &mut f).unwrap()
    };

    let t_base = time_phases(&base);
    let t_heavy = time_phases(&heavy);
    assert!(
        t_heavy.step1_s > t_base.step1_s * 2.0,
        "step 1 must scale with the event count ({} vs {})",
        t_heavy.step1_s,
        t_base.step1_s
    );
    let step2_ratio = t_heavy.step2_s / t_base.step2_s;
    assert!(
        step2_ratio < 1.5,
        "step 2 depends on the volume, not the events (ratio {step2_ratio})"
    );
}

#[test]
fn subset_iterations_refine_the_image_towards_the_phantom() {
    // After a few subset iterations the reconstruction must correlate better
    // with the phantom's reference image than the flat initial image does.
    let config = small_config().with_events_per_subset(2_000).with_subsets(4);
    let reference = config.phantom.reference_image(&config.volume);

    let rt = SkelCl::init(DeviceSelection::Gpus(2));
    let osem = SkelclOsem::new(rt, config.clone());
    let image = osem.reconstruct().unwrap();

    let correlation = |a: &[f32], b: &[f32]| {
        let ma = a.iter().sum::<f32>() / a.len() as f32;
        let mb = b.iter().sum::<f32>() / b.len() as f32;
        let mut num = 0.0f64;
        let mut da = 0.0f64;
        let mut db = 0.0f64;
        for (x, y) in a.iter().zip(b) {
            num += ((x - ma) * (y - mb)) as f64;
            da += ((x - ma) * (x - ma)) as f64;
            db += ((y - mb) * (y - mb)) as f64;
        }
        num / (da.sqrt() * db.sqrt() + 1e-12)
    };

    let flat = vec![1.0f32; reference.len()];
    let corr_reconstructed = correlation(&image, &reference);
    let corr_flat = correlation(&flat, &reference);
    assert!(
        corr_reconstructed > corr_flat + 0.1,
        "reconstruction ({corr_reconstructed:.3}) must beat the flat image ({corr_flat:.3})"
    );
}
