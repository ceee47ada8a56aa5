//! `reduce_scan` — zip → reduce → scan over 2^18 floats.
//!
//! Almost all of the iteration sits inside the one-work-item fold and scan
//! kernels (ROADMAP item 3); map-side optimisations should not move it.

use std::sync::Arc;

use skelcl::{Reduce, Scan, SkelCl, SkelError, Vector, Zip};

use super::{
    check_close, close_window, err, fnv_f32, Check, IterReport, KernelShape, KernelSpec, Session,
    Workload, FNV_OFFSET,
};
use crate::gen::Gen;
use crate::trace::Tracer;

const N: usize = 1 << 18;
/// Relative tolerance against the `f64` fold.
const TOL: f64 = 1e-5;
const MUL: &str = "float func(float x, float y) { return x * y; }";
const ADD: &str = "float func(float a, float b) { return a + b; }";

pub struct ReduceScan {
    x: Vec<f32>,
    y: Vec<f32>,
    /// `f64` inclusive prefix sums of the `f32` products.
    prefix: Vec<f64>,
}

fn reference(x: &[f32], y: &[f32]) -> Vec<f64> {
    let mut acc = 0.0f64;
    x.iter()
        .zip(y)
        .map(|(&x, &y)| {
            acc += f64::from(x * y);
            acc
        })
        .collect()
}

impl ReduceScan {
    pub fn new(seed: u64) -> ReduceScan {
        // Dyadic inputs: products are multiples of 1/64 below 1, so every
        // partial sum of 2^18 of them is exact in f32 (see `Gen::dyadic_vec`).
        let x = Gen::new(seed, 21).dyadic_vec(N, 8);
        let y = Gen::new(seed, 22).dyadic_vec(N, 8);
        let prefix = reference(&x, &y);
        ReduceScan { x, y, prefix }
    }
}

impl Workload for ReduceScan {
    fn name(&self) -> &'static str {
        "reduce_scan"
    }
    fn wall_devices(&self) -> usize {
        1
    }
    fn work_units(&self) -> f64 {
        (N * 3) as f64
    }
    fn bits_stable_across_devices(&self) -> bool {
        // Not promised in general (the fold re-associates across devices),
        // even though dyadic inputs happen to make it so.
        false
    }
    fn start(&self, devices: usize) -> Result<Box<dyn Session + '_>, String> {
        Ok(Box::new(Run {
            w: self,
            rt: skelcl::init_gpus(devices),
            mul: Zip::from_source(MUL),
            sum: Reduce::from_source(ADD),
            scan: Scan::from_source(ADD),
            inputs: None,
            total: 0.0,
            prefix: Vec::new(),
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
                udf: ADD,
                shape: KernelShape::Scan,
                elems: N,
                launches: 1.0,
                extra: &[],
            },
            KernelSpec {
                udf: ADD,
                shape: KernelShape::Reduce,
                elems: N,
                launches: 1.0,
                extra: &[],
            },
            KernelSpec {
                udf: MUL,
                shape: KernelShape::Zip,
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
    w: &'w ReduceScan,
    rt: Arc<SkelCl>,
    mul: Zip<f32, f32, f32>,
    sum: Reduce<f32>,
    scan: Scan<f32>,
    inputs: Option<(Vec<f32>, Vec<f32>)>,
    total: f32,
    prefix: Vec<f32>,
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
        let p = t
            .call("core", "exec.zip", rt, || self.mul.run(&xv, &yv).exec())
            .map_err(err("zip mul"))?;
        self.total = t
            .call("core", "exec.reduce", rt, || self.sum.run(&p).scalar())
            .map_err(err("reduce"))?;
        let s = t
            .call("core", "exec.scan", rt, || self.scan.run(&p).exec())
            .map_err(err("scan"))?;
        self.prefix = t
            .call("core", "gather", rt, || s.to_vec())
            .map_err(err("gather"))?;
        Ok(close_window(rt, t0))
    }

    fn check(&mut self) -> Check {
        let mut check = Check {
            checksum: fnv_f32(fnv_f32(FNV_OFFSET, &[self.total]), &self.prefix),
            ..Check::default()
        };
        let want = &self.w.prefix;
        check_close(&mut check, "reduce total", self.total, want[N - 1], TOL);
        check.attempted += 1;
        if self.prefix.len() != N {
            check.fail(format!("scan length {} != {N}", self.prefix.len()));
        } else if let Some(i) = (0..N).find(|&i| {
            let err = super::rel_err(f64::from(self.prefix[i]), want[i]);
            // Leading zeros of the product stream have a zero reference.
            !(err <= TOL || (want[i] == 0.0 && self.prefix[i] == 0.0))
        }) {
            check.fail(format!(
                "scan element {i}: {} vs reference {}",
                self.prefix[i], want[i]
            ));
        }
        check
    }
}
