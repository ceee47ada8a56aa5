//! `plan_small` — 32 tiny requests per iteration, each through *both*
//! lowering paths: eager `map → map → reduce` (three launches) and the same
//! chain as a lazy plan under `FusionPolicy::Auto`.
//!
//! The kernels do almost nothing on 4096 floats; per-call cost (kernelgen,
//! program-cache lookup, argument binding, enqueue + worker hand-off, the
//! plan/fusion pass) is the whole iteration. The guard for ROADMAP items 2
//! and 4.

use std::sync::Arc;

use skelcl::{FusionPolicy, Map, Reduce, SkelCl, Vector};

use super::{
    check_close, close_window, err, fnv_f32, put, Check, IterReport, KernelShape, KernelSpec,
    Metrics, Session, Workload, FNV_OFFSET,
};
use crate::gen::Gen;
use crate::trace::Tracer;

const REQUESTS: usize = 32;
const N: usize = 4096;
const TOL: f64 = 1e-5;
// Exact on dyadic inputs: the sums below have one right answer under any
// association order (see `Gen::dyadic_vec`).
const SCALE: &str = "float func(float x) { return x * 0.5f; }";
const SHIFT: &str = "float func(float x) { return x + 0.25f; }";
const ADD: &str = "float func(float a, float b) { return a + b; }";

pub struct PlanSmall {
    requests: Vec<Vec<f32>>,
    /// `f64` fold per request.
    sums: Vec<f64>,
}

fn reference(requests: &[Vec<f32>]) -> Vec<f64> {
    requests
        .iter()
        .map(|r| r.iter().map(|&x| f64::from(x * 0.5 + 0.25)).sum())
        .collect()
}

impl PlanSmall {
    pub fn new(seed: u64) -> PlanSmall {
        let requests: Vec<Vec<f32>> = (0..REQUESTS)
            .map(|r| Gen::new(seed, 400 + r as u64).dyadic_vec(N, 8))
            .collect();
        let sums = reference(&requests);
        PlanSmall { requests, sums }
    }
}

impl Workload for PlanSmall {
    fn name(&self) -> &'static str {
        "plan_small"
    }
    fn wall_devices(&self) -> usize {
        1
    }
    fn work_units(&self) -> f64 {
        REQUESTS as f64
    }
    fn bits_stable_across_devices(&self) -> bool {
        false
    }
    fn start(&self, devices: usize) -> Result<Box<dyn Session + '_>, String> {
        Ok(Box::new(Run {
            w: self,
            rt: skelcl::init_gpus(devices),
            scale: Map::from_source(SCALE),
            shift: Map::from_source(SHIFT),
            sum: Reduce::from_source(ADD),
            inputs: Vec::new(),
            eager: Vec::new(),
            lazy: Vec::new(),
            chain_virt_ns: [0; 2],
        }))
    }
    fn run_reference(&self) {
        std::hint::black_box(reference(std::hint::black_box(&self.requests)));
    }
    fn kernels(&self) -> Vec<KernelSpec> {
        let r = REQUESTS as f64;
        vec![
            KernelSpec {
                udf: SCALE,
                shape: KernelShape::Map,
                elems: N,
                launches: r,
                extra: &[],
            },
            KernelSpec {
                udf: SHIFT,
                shape: KernelShape::Map,
                elems: N,
                launches: r,
                extra: &[],
            },
            // Once eager, once with the maps fused into its first phase.
            KernelSpec {
                udf: ADD,
                shape: KernelShape::Reduce,
                elems: N,
                launches: 2.0 * r,
                extra: &[],
            },
        ]
    }
    fn upload_bytes(&self) -> usize {
        REQUESTS * N * 4
    }
}

struct Run<'w> {
    w: &'w PlanSmall,
    rt: Arc<SkelCl>,
    scale: Map<f32, f32>,
    shift: Map<f32, f32>,
    sum: Reduce<f32>,
    inputs: Vec<Vec<f32>>,
    eager: Vec<f32>,
    lazy: Vec<f32>,
    /// Virtual nanoseconds the eager and the lazy chains took in the last
    /// iteration (both end in a blocking scalar read, so the host clock
    /// brackets them).
    chain_virt_ns: [u64; 2],
}

impl Session for Run<'_> {
    fn runtime(&self) -> Arc<SkelCl> {
        self.rt.clone()
    }

    fn prepare(&mut self) -> Result<(), String> {
        self.inputs = self.w.requests.clone();
        Ok(())
    }

    fn run(&mut self, t: &mut Tracer) -> Result<IterReport, String> {
        let rt = &self.rt;
        if self.inputs.len() != REQUESTS {
            return Err("prepare() not called".into());
        }
        self.eager.clear();
        self.lazy.clear();
        self.chain_virt_ns = [0; 2];
        let t0 = rt.now();
        for data in self.inputs.drain(..) {
            let v = t
                .call("core", "upload", rt, || {
                    let v = Vector::from_vec(rt, data);
                    v.copy_data_to_devices().map(|()| v)
                })
                .map_err(err("upload"))?;

            let v0 = rt.now();
            let eager = t.begin("core", "eager_chain");
            let a = t
                .call("core", "exec.map", rt, || self.scale.run(&v).exec())
                .map_err(err("eager map"))?;
            let b = t
                .call("core", "exec.map", rt, || self.shift.run(&a).exec())
                .map_err(err("eager map"))?;
            let s = t
                .call("core", "exec.reduce", rt, || self.sum.run(&b).scalar())
                .map_err(err("eager reduce"))?;
            t.end(eager, None);
            self.eager.push(s);
            let v1 = rt.now();

            let lazy = t.begin("core", "lazy_chain");
            let plan = t.call("core", "plan_build", rt, || {
                v.lazy()
                    .policy(FusionPolicy::Auto)
                    .map(&self.scale)
                    .map(&self.shift)
                    .reduce(&self.sum)
            });
            let s = t
                .call("core", "plan_exec", rt, || plan.scalar())
                .map_err(err("lazy chain"))?;
            t.end(lazy, None);
            self.lazy.push(s);
            self.chain_virt_ns[0] += (v1 - v0).as_nanos();
            self.chain_virt_ns[1] += (rt.now() - v1).as_nanos();
        }
        Ok(close_window(rt, t0))
    }

    fn check(&mut self) -> Check {
        let mut check = Check {
            checksum: fnv_f32(fnv_f32(FNV_OFFSET, &self.eager), &self.lazy),
            ..Check::default()
        };
        if self.eager.len() != REQUESTS || self.lazy.len() != REQUESTS {
            check.attempted += 1;
            check.fail(format!(
                "{} eager / {} lazy results for {REQUESTS} requests",
                self.eager.len(),
                self.lazy.len()
            ));
            return check;
        }
        for r in 0..REQUESTS {
            check_close(
                &mut check,
                "eager chain",
                self.eager[r],
                self.w.sums[r],
                TOL,
            );
            check_close(&mut check, "lazy chain", self.lazy[r], self.w.sums[r], TOL);
            // fused ≡ eager, bit for bit — the plan subsystem's contract.
            check.attempted += 1;
            if self.eager[r].to_bits() != self.lazy[r].to_bits() {
                check.fail(format!(
                    "request {r}: lazy {} differs from eager {}",
                    self.lazy[r], self.eager[r]
                ));
            }
        }
        check
    }

    fn layer_metrics(&self, out: &mut Metrics) {
        let [eager, lazy] = self.chain_virt_ns;
        if eager > 0 {
            put(out, "core.fused_vs_eager_virt", lazy as f64 / eager as f64);
        }
    }
}
