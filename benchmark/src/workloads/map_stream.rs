//! `map_stream` — straight-line element-wise kernels over 2 × 2^19 floats.
//!
//! Native-tier skeleton calls and container upload/gather carry the
//! iteration; no UDF branches, so divergence handling is bypassed. The
//! workload where a kernel-throughput or a zero-copy container change shows.

use std::sync::Arc;

use skelcl::{Map, SkelCl, SkelError, Vector, Zip};

use super::{
    check_bits, close_window, err, fnv_f32, Check, IterReport, KernelShape, KernelSpec, Session,
    Workload, FNV_OFFSET,
};
use crate::gen::Gen;
use crate::trace::Tracer;

const N: usize = 1 << 19;
const A: f32 = 2.5;
const SAXPY: &str = "float func(float x, float y, float a) { return a * x + y; }";
const CUBE: &str = "float func(float x) { return x * x * x - 2.0f * x + 1.0f; }";
const SQUASH: &str = "float func(float x) { return fmin(sqrt(fabs(x)), 4.0f); }";

pub struct MapStream {
    x: Vec<f32>,
    y: Vec<f32>,
    reference: Vec<f32>,
}

fn cube(x: f32) -> f32 {
    x * x * x - 2.0 * x + 1.0
}

fn reference(x: &[f32], y: &[f32]) -> Vec<f32> {
    x.iter()
        .zip(y)
        .map(|(&x, &y)| {
            let s = cube(A * x + y);
            // The kernel language evaluates `sqrt` in double and rounds once.
            let q = (f64::from(s.abs()).sqrt() as f32).min(4.0);
            cube(q)
        })
        .collect()
}

impl MapStream {
    pub fn new(seed: u64) -> MapStream {
        let x = Gen::new(seed, 11).f32_vec(N, -2.0, 2.0);
        let y = Gen::new(seed, 12).f32_vec(N, -2.0, 2.0);
        let reference = reference(&x, &y);
        MapStream { x, y, reference }
    }
}

impl Workload for MapStream {
    fn name(&self) -> &'static str {
        "map_stream"
    }
    fn wall_devices(&self) -> usize {
        1
    }
    fn work_units(&self) -> f64 {
        (N * 4) as f64
    }
    fn bits_stable_across_devices(&self) -> bool {
        true
    }
    fn start(&self, devices: usize) -> Result<Box<dyn Session + '_>, String> {
        Ok(Box::new(Run {
            w: self,
            rt: skelcl::init_gpus(devices),
            saxpy: Zip::from_source(SAXPY),
            cube: Map::from_source(CUBE),
            squash: Map::from_source(SQUASH),
            inputs: None,
            output: Vec::new(),
        }))
    }
    fn run_reference(&self) {
        std::hint::black_box(reference(
            std::hint::black_box(&self.x),
            std::hint::black_box(&self.y),
        ));
    }
    fn kernels(&self) -> Vec<KernelSpec> {
        vec![
            KernelSpec {
                udf: CUBE,
                shape: KernelShape::Map,
                elems: N,
                launches: 2.0,
                extra: &[],
            },
            KernelSpec {
                udf: SAXPY,
                shape: KernelShape::Zip,
                elems: N,
                launches: 1.0,
                extra: &[A],
            },
            KernelSpec {
                udf: SQUASH,
                shape: KernelShape::Map,
                elems: N,
                launches: 1.0,
                extra: &[],
            },
        ]
    }
    fn upload_bytes(&self) -> usize {
        2 * N * 4
    }
}

struct Run<'w> {
    w: &'w MapStream,
    rt: Arc<SkelCl>,
    saxpy: Zip<f32, f32, f32>,
    cube: Map<f32, f32>,
    squash: Map<f32, f32>,
    inputs: Option<(Vec<f32>, Vec<f32>)>,
    output: Vec<f32>,
}

impl Session for Run<'_> {
    fn runtime(&self) -> Arc<SkelCl> {
        self.rt.clone()
    }

    fn prepare(&mut self) -> Result<(), String> {
        self.inputs = Some((self.w.x.clone(), self.w.y.clone()));
        Ok(())
    }

    fn run(&mut self, t: &mut Tracer) -> Result<IterReport, String> {
        let rt = &self.rt;
        let (x, y) = self.inputs.take().ok_or("prepare() not called")?;
        let t0 = rt.now();
        let (xv, yv) = t
            .call("core", "upload", rt, || {
                let xv = Vector::from_vec(rt, x);
                let yv = Vector::from_vec(rt, y);
                xv.copy_data_to_devices()?;
                yv.copy_data_to_devices()?;
                Ok::<_, SkelError>((xv, yv))
            })
            .map_err(err("upload"))?;
        let s = t
            .call("core", "exec.zip", rt, || {
                self.saxpy.run(&xv, &yv).arg(A).exec()
            })
            .map_err(err("zip saxpy"))?;
        let c = t
            .call("core", "exec.map", rt, || self.cube.run(&s).exec())
            .map_err(err("map cube"))?;
        let q = t
            .call("core", "exec.map", rt, || self.squash.run(&c).exec())
            .map_err(err("map squash"))?;
        let c = t
            .call("core", "exec.map", rt, || self.cube.run(&q).exec())
            .map_err(err("map cube"))?;
        self.output = t
            .call("core", "gather", rt, || c.to_vec())
            .map_err(err("gather"))?;
        Ok(close_window(rt, t0))
    }

    fn check(&mut self) -> Check {
        let mut check = Check {
            checksum: fnv_f32(FNV_OFFSET, &self.output),
            ..Check::default()
        };
        check_bits(
            &mut check,
            "map_stream output",
            &self.output,
            &self.w.reference,
        );
        check
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run, RunConfig};

    /// The acceptance check behind "a deliberately corrupted reference makes
    /// the run exit non-zero": `main` exits with `!correct()`.
    #[test]
    fn a_corrupted_reference_fails_the_run() {
        let cfg = RunConfig {
            seed: 1,
            seconds: 0.1,
            trace: false,
            smoke: true,
            out_dir: std::env::temp_dir(),
        };
        let mut workload = MapStream::new(cfg.seed);
        let good = run(&workload, &cfg);
        assert!(good.correct() && good.attempted > 0, "{:?}", good.notes);

        let flipped = workload.reference[12_345].to_bits() ^ 1;
        workload.reference[12_345] = f32::from_bits(flipped);
        let bad = run(&workload, &cfg);
        assert!(!bad.correct());
        assert!(
            bad.failed >= 5,
            "every iteration mismatches: {:?}",
            bad.notes
        );
    }
}
