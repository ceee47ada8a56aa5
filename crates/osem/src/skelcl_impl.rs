//! The SkelCL host program for list-mode OSEM — the Rust analogue of
//! Listing 3 of the paper.
//!
//! The hybrid parallelisation strategy of Section IV-A is expressed purely
//! through distributions: step 1 uses PSD (events block-distributed,
//! reconstruction image and error image copy-distributed), step 2 uses ISD
//! (both images block-distributed). All data movement between the phases is
//! implied by the `set_distribution` calls and performed implicitly by
//! SkelCL.
//!
//! The `// LOC:` markers delimit the regions counted for the Figure 4a
//! programming-effort comparison; the multi-GPU region contains exactly the
//! distribution changes that the paper counts as the 8 additional lines.

use std::sync::Arc;

use skelcl::prelude::*;
use skelcl::SkelCl;

use crate::config::ReconstructionConfig;
use crate::events::Event;
use crate::kernels::step1_cost;
use crate::siddon::compute_path_into;

/// Virtual-time breakdown of one subset iteration, mirroring the five phases
/// of Figure 3 in the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTiming {
    /// Phase 1: upload (distribute events, images to the devices).
    pub upload_s: f64,
    /// Phase 2: step 1 — compute the error image.
    pub step1_s: f64,
    /// Phase 3: redistribution (combine error images, switch PSD → ISD).
    pub redistribution_s: f64,
    /// Phase 4: step 2 — update the reconstruction image.
    pub step2_s: f64,
    /// Phase 5: download (merge the reconstruction image on the host).
    pub download_s: f64,
}

impl PhaseTiming {
    /// Total time of the subset iteration.
    pub fn total_s(&self) -> f64 {
        self.upload_s + self.step1_s + self.redistribution_s + self.step2_s + self.download_s
    }
}

/// The SkelCL implementation of list-mode OSEM.
pub struct SkelclOsem {
    runtime: Arc<SkelCl>,
    config: ReconstructionConfig,
    map_compute_c: Map<Event, f32>,
    zip_update: Zip<f32, f32, f32>,
}

impl SkelclOsem {
    /// Set up the skeletons for a reconstruction on the given runtime.
    pub fn new(runtime: Arc<SkelCl>, config: ReconstructionConfig) -> SkelclOsem {
        let volume = config.volume;
        // Step 1 as a map skeleton with additional arguments: the
        // reconstruction image (read) and the error image (written) are
        // passed as additional vector arguments, like `mapComputeC` in
        // Listing 3 of the paper.
        let map_compute_c = Map::<Event, f32>::with_cost(
            move |event, args| {
                let mut path = Vec::new();
                compute_path_into(&volume, event, &mut path);
                if path.is_empty() {
                    return 0.0;
                }
                let fp: f32 = {
                    let f = args.slice_f32(0);
                    path.iter().map(|el| f[el.coord] * el.len).sum()
                };
                if fp <= 0.0 {
                    return 0.0;
                }
                let c = args.slice_mut_f32(1);
                for el in &path {
                    c[el.coord] += el.len / fp;
                }
                0.0
            },
            step1_cost(&volume),
        );

        // Step 2 as a zip skeleton with a source-string user function —
        // `zipUpdate` in Listing 3.
        let zip_update = Zip::<f32, f32, f32>::from_source(
            "float func(float f, float c) { if (c > 0.0f) { return f * c; } return f; }",
        );

        SkelclOsem {
            runtime,
            config,
            map_compute_c,
            zip_update,
        }
    }

    /// The runtime the reconstruction executes on.
    pub fn runtime(&self) -> &Arc<SkelCl> {
        &self.runtime
    }

    /// Process one subset, updating the reconstruction image vector in place
    /// (the vector handle is replaced because the zip skeleton produces a new
    /// output vector). Returns the per-phase timing of Figure 3.
    pub fn process_subset(&self, events: &[Event], f: &mut Vector<f32>) -> Result<PhaseTiming> {
        let rt = &self.runtime;
        let mut timing = PhaseTiming::default();
        let t0 = rt.now();

        // LOC: host-single begin
        /* 1. Upload: distribute events to devices */
        let events = Vector::from_vec(rt, events.to_vec());
        let c = Vector::filled(rt, self.config.volume.voxel_count(), 0.0f32);
        // LOC: multi-gpu begin
        events.set_distribution(Distribution::Block)?;
        f.set_distribution(Distribution::Copy)?;
        c.set_copy_distribution_with(Combine::add())?;
        // LOC: multi-gpu end
        let t1 = rt.finish_all();
        timing.upload_s = (t1 - t0).as_secs_f64();

        /* 2. Step 1: compute error image (map skeleton) */
        self.map_compute_c.run(&events).arg(&*f).arg(&c).exec()?;
        c.mark_device_modified();
        let t2 = rt.finish_all();
        timing.step1_s = (t2 - t1).as_secs_f64();

        /* 3. Redistribution: combine error images (element-wise add) and
        switch from PSD to ISD by re-partitioning both images */
        // LOC: multi-gpu begin
        f.set_distribution(Distribution::Block)?;
        c.set_distribution(Distribution::Block)?;
        // LOC: multi-gpu end
        let t3 = rt.finish_all();
        timing.redistribution_s = (t3 - t2).as_secs_f64();

        /* 4. Step 2: update reconstruction image (zip skeleton) */
        *f = self.zip_update.run(f, &c).exec()?;
        let t4 = rt.finish_all();
        timing.step2_s = (t4 - t3).as_secs_f64();

        /* 5. Download: merging the reconstruction image happens implicitly
        on the next host access of `f` */
        let t5 = rt.finish_all();
        timing.download_s = (t5 - t4).as_secs_f64();
        // LOC: host-single end
        Ok(timing)
    }

    /// Run a full reconstruction over pre-generated subsets and return the
    /// final image.
    pub fn reconstruct_subsets(&self, subsets: &[Vec<Event>]) -> Result<Vec<f32>> {
        let mut f = Vector::filled(&self.runtime, self.config.volume.voxel_count(), 1.0f32);
        for subset in subsets {
            self.process_subset(subset, &mut f)?;
        }
        f.to_vec()
    }

    /// Run a full reconstruction, generating events from the configuration.
    pub fn reconstruct(&self) -> Result<Vec<f32>> {
        let subsets = crate::sequential::generate_subsets(&self.config);
        self.reconstruct_subsets(&subsets)
    }

    /// Build the skeleton kernels up front by processing a tiny throw-away
    /// subset. The paper excludes runtime kernel compilation from its
    /// measurements ("compilation is only required once, when launching the
    /// implementation"), so the timing helpers call this first.
    pub fn warmup(&self, events: &[Event]) -> Result<()> {
        let sample = &events[..events.len().min(4)];
        if sample.is_empty() {
            return Ok(());
        }
        let mut f = Vector::filled(&self.runtime, self.config.volume.voxel_count(), 1.0f32);
        self.process_subset(sample, &mut f)?;
        Ok(())
    }

    /// Process one subset and report its total virtual runtime in seconds —
    /// the quantity plotted in Figure 4b. Kernel compilation is excluded by
    /// warming the skeletons up first, as in the paper. The clock runs until
    /// the image is on the host, as it does for the low-level baselines,
    /// whose programs end with the image downloaded.
    pub fn time_one_subset(&self, events: &[Event]) -> Result<(f64, Vec<f32>)> {
        self.warmup(events)?;
        let mut f = Vector::filled(&self.runtime, self.config.volume.voxel_count(), 1.0f32);
        let t0 = self.runtime.now();
        self.process_subset(events, &mut f)?;
        let image = f.to_vec()?;
        let t1 = self.runtime.finish_all();
        Ok(((t1 - t0).as_secs_f64(), image))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;

    fn assert_images_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let denom = x.abs().max(y.abs()).max(1e-3);
            assert!(
                (x - y).abs() / denom < tol,
                "voxel {i}: {x} vs {y} differ by more than {tol}"
            );
        }
    }

    #[test]
    fn skelcl_reconstruction_matches_sequential_on_1_2_4_gpus() {
        let config = ReconstructionConfig::test_scale();
        let subsets = sequential::generate_subsets(&config);
        let mut reference = vec![1.0f32; config.volume.voxel_count()];
        for s in &subsets {
            sequential::process_subset(&config, s, &mut reference);
        }
        for devices in [1usize, 2, 4] {
            let rt = skelcl::init_gpus(devices);
            let osem = SkelclOsem::new(rt, config.clone());
            let image = osem.reconstruct_subsets(&subsets).unwrap();
            assert_images_close(&image, &reference, 1e-3);
        }
    }

    #[test]
    fn phase_timing_is_populated_and_positive() {
        let config = ReconstructionConfig::test_scale();
        let subsets = sequential::generate_subsets(&config);
        let rt = skelcl::init_gpus(2);
        let osem = SkelclOsem::new(rt, config.clone());
        let mut f = Vector::filled(osem.runtime(), config.volume.voxel_count(), 1.0f32);
        let timing = osem.process_subset(&subsets[0], &mut f).unwrap();
        // Uploads are lazy, so the upload phase itself may be free; the two
        // compute steps must always take time.
        assert!(timing.upload_s >= 0.0);
        assert!(timing.step1_s > 0.0);
        assert!(timing.step2_s > 0.0);
        assert!(timing.total_s() >= timing.step1_s + timing.step2_s);
    }

    #[test]
    fn more_gpus_do_not_increase_subset_runtime() {
        let config = ReconstructionConfig::test_scale().with_events_per_subset(50_000);
        let subsets = sequential::generate_subsets(&config);
        let time_for = |devices: usize| {
            let rt = skelcl::init_gpus(devices);
            let osem = SkelclOsem::new(rt, config.clone());
            osem.time_one_subset(&subsets[0]).unwrap().0
        };
        let t1 = time_for(1);
        let t4 = time_for(4);
        assert!(
            t4 < t1,
            "4 GPUs ({t4:.6} s) should be faster than 1 GPU ({t1:.6} s)"
        );
    }
}
