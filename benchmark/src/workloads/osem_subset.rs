//! `osem_subset` — the paper's application: one list-mode OSEM subset on
//! the `benchmark_scale` volume (64×64×96) with 10 000 events.
//!
//! A closure `Map` with additional vector arguments, `Copy` → `Block`
//! redistribution with `Combine::add`, and a branchy source-string `Zip`
//! over 393k voxels — the divergence path `map_stream` bypasses.

use std::sync::Arc;
use std::time::Instant;

use osem::{sequential, OpenClOsem, PhaseTiming, ReconstructionConfig, SkelclOsem};
use skelcl::{Combine, Distribution, SkelCl, Vector};

use super::{
    close_window, err, fnv_f32, put, Check, IterReport, KernelShape, KernelSpec, Metrics, Session,
    Workload, FNV_OFFSET,
};
use crate::gen::Gen;
use crate::trace::Tracer;

const EVENTS: usize = 10_000;
/// `osem::max_relative_difference` bound against the sequential program.
const TOL: f32 = 1e-3;
const UPDATE: &str = "float func(float f, float c) { if (c > 0.0f) { return f * c; } return f; }";

pub struct OsemSubset {
    config: ReconstructionConfig,
    events: Vec<osem::Event>,
    reference: Vec<f32>,
}

impl OsemSubset {
    pub fn new(seed: u64) -> OsemSubset {
        let mut config = ReconstructionConfig::benchmark_scale().with_events_per_subset(EVENTS);
        config.seed = Gen::new(seed, 51).next_u64();
        let events = sequential::generate_subsets(&config).swap_remove(0);
        let mut reference = vec![1.0f32; config.volume.voxel_count()];
        sequential::process_subset(&config, &events, &mut reference);
        OsemSubset {
            config,
            events,
            reference,
        }
    }

    fn voxels(&self) -> usize {
        self.config.volume.voxel_count()
    }
}

impl Workload for OsemSubset {
    fn name(&self) -> &'static str {
        "osem_subset"
    }
    fn wall_devices(&self) -> usize {
        1
    }
    fn work_units(&self) -> f64 {
        EVENTS as f64
    }
    fn bits_stable_across_devices(&self) -> bool {
        // The error image is combined across devices by float addition.
        false
    }
    fn start(&self, devices: usize) -> Result<Box<dyn Session + '_>, String> {
        let rt = skelcl::init_gpus(devices);
        Ok(Box::new(Run {
            w: self,
            osem: SkelclOsem::new(rt.clone(), self.config.clone()),
            rt,
            image: None,
            output: Vec::new(),
            timing: PhaseTiming::default(),
        }))
    }
    fn run_reference(&self) {
        let mut f = vec![1.0f32; self.voxels()];
        sequential::process_subset(&self.config, std::hint::black_box(&self.events), &mut f);
        std::hint::black_box(f);
    }
    fn kernels(&self) -> Vec<KernelSpec> {
        // Step 1 is a closure kernel (no kernel-language source); the
        // kernel-language share of the iteration is the step-2 update.
        vec![KernelSpec {
            udf: UPDATE,
            shape: KernelShape::Zip,
            elems: self.voxels(),
            launches: 1.0,
            extra: &[],
        }]
    }
    fn upload_bytes(&self) -> usize {
        EVENTS * std::mem::size_of::<osem::Event>() + 2 * self.voxels() * 4
    }

    fn extra_probes(&self, _smoke: bool, out: &mut Metrics) -> Result<(), String> {
        // The paper's < 5 % claim: SkelCL vs hand-written OpenCL, one subset
        // on 4 GPUs, kernel compilation excluded on both sides as in the
        // paper. The OpenCL program ends with the image merged on the host,
        // so the SkelCL side is timed through its (lazy) download too.
        let rt = skelcl::init_gpus(4);
        let skel = SkelclOsem::new(rt.clone(), self.config.clone());
        skel.warmup(&self.events)
            .map_err(err("SkelCL OSEM warm-up"))?;
        let mut f = Vector::filled(&rt, self.voxels(), 1.0f32);
        let t0 = rt.now();
        skel.process_subset(&self.events, &mut f)
            .map_err(err("SkelCL OSEM at 4 GPUs"))?;
        let skel_img = f.to_vec().map_err(err("SkelCL OSEM download"))?;
        let skelcl_s = (rt.finish_all() - t0).as_secs_f64();
        let ocl = OpenClOsem::new(4, self.config.clone()).map_err(err("OpenCL OSEM setup"))?;
        let (opencl_s, ocl_img) = ocl
            .time_one_subset(&self.events)
            .map_err(err("OpenCL OSEM at 4 GPUs"))?;
        if osem::max_relative_difference(&skel_img, &ocl_img) >= TOL {
            return Err("SkelCL and OpenCL OSEM images differ at 4 GPUs".into());
        }
        put(
            out,
            "osem_overhead_pct",
            (skelcl_s / opencl_s - 1.0) * 100.0,
        );

        // `Copy` + `Combine::add` → `Block` on an error-image-sized vector:
        // the redistribution `process_subset` performs between its steps,
        // timed from outside on a 2-device runtime (on one device it is a
        // no-op).
        let rt = skelcl::init_gpus(2);
        let mut samples = Vec::new();
        for _ in 0..5 {
            let c = Vector::filled(&rt, self.voxels(), 0.5f32);
            c.set_copy_distribution_with(Combine::add())
                .and_then(|()| c.copy_data_to_devices())
                .map_err(err("redistribute probe setup"))?;
            c.mark_device_modified();
            let t = Instant::now();
            c.set_distribution(Distribution::Block)
                .map_err(err("redistribute probe"))?;
            rt.finish_all();
            samples.push(t.elapsed().as_secs_f64() * 1e3);
        }
        put(out, "core.redistribute_ms", crate::stats::median(&samples));
        Ok(())
    }
}

struct Run<'w> {
    w: &'w OsemSubset,
    rt: Arc<SkelCl>,
    osem: SkelclOsem,
    image: Option<Vector<f32>>,
    output: Vec<f32>,
    timing: PhaseTiming,
}

impl Session for Run<'_> {
    fn runtime(&self) -> Arc<SkelCl> {
        self.rt.clone()
    }

    fn prepare(&mut self) -> Result<(), String> {
        self.image = Some(Vector::filled(&self.rt, self.w.voxels(), 1.0f32));
        Ok(())
    }

    fn run(&mut self, t: &mut Tracer) -> Result<IterReport, String> {
        let rt = &self.rt;
        let mut f = self.image.take().ok_or("prepare() not called")?;
        let t0 = rt.now();
        self.timing = t
            .call("osem", "process_subset", rt, || {
                self.osem.process_subset(&self.w.events, &mut f)
            })
            .map_err(err("process_subset"))?;
        self.output = t
            .call("core", "gather", rt, || f.to_vec())
            .map_err(err("gather"))?;
        Ok(close_window(rt, t0))
    }

    fn check(&mut self) -> Check {
        let mut check = Check {
            attempted: 1,
            checksum: fnv_f32(FNV_OFFSET, &self.output),
            ..Check::default()
        };
        if self.output.len() != self.w.reference.len() {
            check.fail(format!("image has {} voxels", self.output.len()));
        } else {
            let diff = osem::max_relative_difference(&self.output, &self.w.reference);
            if diff.is_nan() || diff >= TOL {
                check.fail(format!(
                    "max relative difference vs sequential {diff} >= {TOL}"
                ));
            }
        }
        check
    }

    fn layer_metrics(&self, out: &mut Metrics) {
        put(out, "osem.virt_upload_s", self.timing.upload_s);
        put(out, "osem.virt_step1_s", self.timing.step1_s);
        put(
            out,
            "osem.virt_redistribution_s",
            self.timing.redistribution_s,
        );
        put(out, "osem.virt_step2_s", self.timing.step2_s);
        put(out, "osem.virt_download_s", self.timing.download_s);
        if self.output.len() == self.w.reference.len() {
            put(
                out,
                "osem.max_rel_diff_vs_seq",
                f64::from(osem::max_relative_difference(
                    &self.output,
                    &self.w.reference,
                )),
            );
        }
    }
}
