//! `stencil_iter` — 192×192 heat diffusion, four `MapOverlap` sweeps.
//!
//! `Op::StencilGet` and the halo refresh: the same kernel layer as
//! `map_stream` reached through a different access path, so a stencil fast
//! path that taxes plain maps (or the reverse) shows on one of the two.

use std::sync::Arc;

use skelcl::{Boundary, MapOverlap, Matrix, SkelCl};

use super::{
    check_bits, close_window, err, fnv_f32, heat_reference, Check, Edge, IterReport, KernelShape,
    KernelSpec, Session, Workload, FNV_OFFSET, HEAT_UDF,
};
use crate::gen::Gen;
use crate::trace::Tracer;

const SIDE: usize = 192;
const SWEEPS: usize = 4;

pub struct StencilIter {
    image: Vec<f32>,
    reference: Vec<f32>,
}

impl StencilIter {
    pub fn new(seed: u64) -> StencilIter {
        let image = Gen::new(seed, 31).f32_vec(SIDE * SIDE, 0.0, 100.0);
        let reference = heat_reference(SIDE, SIDE, &image, SWEEPS, Edge::Clamp);
        StencilIter { image, reference }
    }
}

impl Workload for StencilIter {
    fn name(&self) -> &'static str {
        "stencil_iter"
    }
    fn wall_devices(&self) -> usize {
        1
    }
    fn work_units(&self) -> f64 {
        (SIDE * SIDE * SWEEPS) as f64
    }
    fn bits_stable_across_devices(&self) -> bool {
        true
    }
    fn start(&self, devices: usize) -> Result<Box<dyn Session + '_>, String> {
        Ok(Box::new(Run {
            w: self,
            rt: skelcl::init_gpus(devices),
            heat: MapOverlap::from_source(HEAT_UDF)
                .with_halo(1)
                .with_boundary(Boundary::Clamp),
            input: None,
            output: Vec::new(),
        }))
    }
    fn run_reference(&self) {
        std::hint::black_box(heat_reference(
            SIDE,
            SIDE,
            std::hint::black_box(&self.image),
            SWEEPS,
            Edge::Clamp,
        ));
    }
    fn kernels(&self) -> Vec<KernelSpec> {
        vec![KernelSpec {
            udf: HEAT_UDF,
            shape: KernelShape::MapOverlap {
                cols: SIDE,
                halo: 1,
            },
            elems: SIDE * SIDE,
            launches: SWEEPS as f64,
            extra: &[],
        }]
    }
    fn upload_bytes(&self) -> usize {
        SIDE * SIDE * 4
    }
}

struct Run<'w> {
    w: &'w StencilIter,
    rt: Arc<SkelCl>,
    heat: MapOverlap<f32, f32>,
    input: Option<Vec<f32>>,
    output: Vec<f32>,
}

impl Session for Run<'_> {
    fn runtime(&self) -> Arc<SkelCl> {
        self.rt.clone()
    }

    fn prepare(&mut self) -> Result<(), String> {
        self.input = Some(self.w.image.clone());
        Ok(())
    }

    fn run(&mut self, t: &mut Tracer) -> Result<IterReport, String> {
        let rt = &self.rt;
        let image = self.input.take().ok_or("prepare() not called")?;
        let t0 = rt.now();
        // Matrix uploads are lazy and have no public forcing call: the
        // upload is part of the first sweep's span.
        let m = Matrix::from_vec(rt, SIDE, SIDE, image).map_err(err("matrix"))?;
        let out = t
            .call("core", "exec.map_overlap", rt, || {
                self.heat.run(&m).run_iter(SWEEPS)
            })
            .map_err(err("run_iter"))?;
        self.output = t
            .call("core", "gather", rt, || out.to_vec())
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
            "stencil_iter output",
            &self.output,
            &self.w.reference,
        );
        check
    }
}
