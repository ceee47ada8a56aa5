//! `serving_mix` — waves of 2048 tiny jobs from 4 weighted tenants through
//! the multi-tenant server on 2 devices, in a fixed submission order.
//!
//! Three job classes side by side: ¾ share one map signature (coalescable
//! into packed launches), the rest draw from 64 distinct signatures (not
//! coalescable with each other), and every 16th job is a `submit_scalar`
//! map → reduce (the opaque, never-packed path). Scheduler and `pack_jobs`
//! dominate; the shared and distinct classes show a coalescing gain and its
//! cost in one run.

use std::sync::Arc;

use skelcl::{Map, Reduce, SkelCl, Vector};
use skelcl_serving::{JobHandle, JobReport, Server, ServerConfig, Session as Tenant, TenantConfig};

use super::{
    check_bits, check_close, close_window, err, fnv_f32, put, Check, IterReport, KernelShape,
    KernelSpec, Metrics, Session, Workload, FNV_OFFSET,
};
use crate::gen::Gen;
use crate::stats::percentile;
use crate::trace::Tracer;

const JOBS: usize = 2048;
const LEN: usize = 64;
const SIGNATURES: usize = 64;
const TENANTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
const TOL: f64 = 1e-5;
const SHARED: &str = "float func(float x) { return 2.0f * x + 0.5f; }";
const ADD: &str = "float func(float a, float b) { return a + b; }";

fn distinct_udf(k: usize) -> String {
    format!("float func(float x) {{ return x * {k}.5f + 1.0f; }}")
}

fn distinct(k: usize, x: f32) -> f32 {
    x * (k as f32 + 0.5) + 1.0
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Shared,
    Distinct(usize),
    /// map (signature `k`) → reduce, through `submit_scalar`.
    Scalar(usize),
}

struct Job {
    tenant: usize,
    class: Class,
    data: Vec<f32>,
}

enum Expected {
    Vec(Vec<f32>),
    Scalar(f64),
}

pub struct ServingMix {
    jobs: Vec<Job>,
    expected: Vec<Expected>,
}

fn expect(job: &Job) -> Expected {
    match job.class {
        Class::Shared => Expected::Vec(job.data.iter().map(|&x| 2.0 * x + 0.5).collect()),
        Class::Distinct(k) => Expected::Vec(job.data.iter().map(|&x| distinct(k, x)).collect()),
        Class::Scalar(k) => {
            Expected::Scalar(job.data.iter().map(|&x| f64::from(distinct(k, x))).sum())
        }
    }
}

impl ServingMix {
    pub fn new(seed: u64) -> ServingMix {
        // The submission order (tenant, class, signature of each job) is
        // drawn once and for all: which jobs coalesce decides the virtual
        // times, and those are gated exactly, so they must not move with the
        // seed. The seed varies the data.
        let mut order = Gen::new(crate::gen::DEFAULT_SEED, 61);
        let mut data = Gen::new(seed, 62);
        let jobs: Vec<Job> = (0..JOBS)
            .map(|i| {
                let signature = order.below(SIGNATURES as u64) as usize;
                Job {
                    tenant: order.below(TENANTS.len() as u64) as usize,
                    // Every 4th job leaves the shared signature; every 4th
                    // of those takes the scalar path: 1536 / 384 / 128.
                    class: match i % 16 {
                        15 => Class::Scalar(signature),
                        3 | 7 | 11 => Class::Distinct(signature),
                        _ => Class::Shared,
                    },
                    // Dyadic, so the scalar jobs' sums are exact.
                    data: data.dyadic_vec(LEN, 8),
                }
            })
            .collect();
        let expected = jobs.iter().map(expect).collect();
        ServingMix { jobs, expected }
    }
}

impl Workload for ServingMix {
    fn name(&self) -> &'static str {
        "serving_mix"
    }
    fn wall_devices(&self) -> usize {
        2
    }
    fn work_units(&self) -> f64 {
        JOBS as f64
    }
    fn bits_stable_across_devices(&self) -> bool {
        // Every job runs whole on one device, whichever it is.
        true
    }
    fn start(&self, devices: usize) -> Result<Box<dyn Session + '_>, String> {
        let rt = skelcl::init_gpus(devices);
        let server = Server::with_config(rt.clone(), ServerConfig::default());
        let mut tenants = Vec::new();
        for (i, name) in TENANTS.iter().enumerate() {
            server
                .add_tenant(name, TenantConfig::weighted(i as u32 + 1))
                .map_err(err("add_tenant"))?;
            tenants.push(server.session(name).map_err(err("session"))?);
        }
        Ok(Box::new(Run {
            w: self,
            rt,
            server,
            tenants,
            shared: Map::from_source(SHARED),
            distinct: (0..SIGNATURES)
                .map(|k| Map::from_source(&distinct_udf(k)))
                .collect(),
            sum: Reduce::from_source(ADD),
            inputs: Vec::new(),
            results: Vec::new(),
            iterations: 0,
        }))
    }
    fn run_reference(&self) {
        for job in std::hint::black_box(&self.jobs) {
            match expect(job) {
                Expected::Vec(v) => drop(std::hint::black_box(v)),
                Expected::Scalar(s) => drop(std::hint::black_box(s)),
            }
        }
    }
    fn kernels(&self) -> Vec<KernelSpec> {
        // The packed launch is generated inside `PlanVec::pack_jobs`, not by
        // a public kernelgen function; the plain map over one full batch
        // (64 jobs × 64 elements) is the closest outside stand-in.
        vec![KernelSpec {
            udf: SHARED,
            shape: KernelShape::Map,
            elems: LEN * ServerConfig::default().coalesce_cap,
            launches: (JOBS * 3 / 4) as f64 / ServerConfig::default().coalesce_cap as f64,
            extra: &[],
        }]
    }
    fn upload_bytes(&self) -> usize {
        JOBS * LEN * 4
    }
}

enum Handle {
    Vec(JobHandle<Vec<f32>>),
    Scalar(JobHandle<f32>),
}

enum Outcome {
    Vec(Vec<f32>),
    Scalar(f32),
    Failed(String),
}

struct Run<'w> {
    w: &'w ServingMix,
    rt: Arc<SkelCl>,
    server: Server,
    tenants: Vec<Tenant>,
    shared: Map<f32, f32>,
    distinct: Vec<Map<f32, f32>>,
    sum: Reduce<f32>,
    inputs: Vec<Vec<f32>>,
    results: Vec<(Outcome, Option<JobReport>)>,
    iterations: u32,
}

impl Session for Run<'_> {
    fn runtime(&self) -> Arc<SkelCl> {
        self.rt.clone()
    }

    fn prepare(&mut self) -> Result<(), String> {
        self.inputs = self.w.jobs.iter().map(|j| j.data.clone()).collect();
        Ok(())
    }

    fn run(&mut self, t: &mut Tracer) -> Result<IterReport, String> {
        let rt = &self.rt;
        if self.inputs.len() != JOBS {
            return Err("prepare() not called".into());
        }
        let t0 = rt.now();
        let submit = t.begin("serving", "submit");
        let mut handles = Vec::with_capacity(JOBS);
        for (job, data) in self.w.jobs.iter().zip(self.inputs.drain(..)) {
            let tenant = &self.tenants[job.tenant];
            let v = Vector::from_vec(rt, data);
            handles.push(match job.class {
                Class::Shared => tenant
                    .submit_vec(&v.lazy().map(&self.shared))
                    .map(Handle::Vec),
                Class::Distinct(k) => tenant
                    .submit_vec(&v.lazy().map(&self.distinct[k]))
                    .map(Handle::Vec),
                Class::Scalar(k) => tenant
                    .submit_scalar(&v.lazy().map(&self.distinct[k]).reduce(&self.sum))
                    .map(Handle::Scalar),
            });
        }
        t.end(submit, Some(rt));
        t.call("serving", "flush", rt, || self.server.flush());
        let wait = t.begin("serving", "wait");
        self.results = handles
            .into_iter()
            .map(|h| match h {
                Ok(Handle::Vec(h)) => match h.wait() {
                    Ok((out, report)) => (Outcome::Vec(out), Some(report)),
                    Err(e) => (Outcome::Failed(e.to_string()), None),
                },
                Ok(Handle::Scalar(h)) => match h.wait() {
                    Ok((out, report)) => (Outcome::Scalar(out), Some(report)),
                    Err(e) => (Outcome::Failed(e.to_string()), None),
                },
                Err(e) => (Outcome::Failed(format!("submit: {e}")), None),
            })
            .collect();
        t.end(wait, Some(rt));
        self.iterations += 1;
        Ok(close_window(rt, t0))
    }

    fn check(&mut self) -> Check {
        let mut check = Check {
            checksum: FNV_OFFSET,
            ..Check::default()
        };
        if self.results.len() != JOBS {
            check.attempted += JOBS as u64;
            check.failed += JOBS as u64;
            check
                .errors
                .push(format!("{} results for {JOBS} jobs", self.results.len()));
            return check;
        }
        for (i, ((outcome, _), expected)) in self.results.iter().zip(&self.w.expected).enumerate() {
            match (outcome, expected) {
                (Outcome::Vec(got), Expected::Vec(want)) => {
                    check.checksum = fnv_f32(check.checksum, got);
                    check_bits(&mut check, "job output", got, want);
                }
                (Outcome::Scalar(got), Expected::Scalar(want)) => {
                    check.checksum = fnv_f32(check.checksum, &[*got]);
                    check_close(&mut check, "scalar job", *got, *want, TOL);
                }
                (Outcome::Failed(why), _) => {
                    check.attempted += 1;
                    check.fail(format!("job {i}: {why}"));
                }
                _ => {
                    check.attempted += 1;
                    check.fail(format!("job {i}: payload kind does not match its class"));
                }
            }
        }
        check
    }

    fn layer_metrics(&self, out: &mut Metrics) {
        let mut all = Vec::new();
        let mut per_class: [(Vec<f64>, f64); 2] = Default::default();
        for ((_, report), job) in self.results.iter().zip(&self.w.jobs) {
            let Some(report) = report else { continue };
            let us = report.latency().as_nanos() as f64 / 1e3;
            all.push(us);
            let class = match job.class {
                Class::Shared => 0,
                Class::Distinct(_) => 1,
                Class::Scalar(_) => continue,
            };
            per_class[class].0.push(us);
            // Each of a launch's `batch_jobs` jobs owns 1/batch_jobs of it.
            per_class[class].1 += 1.0 / report.batch_jobs.max(1) as f64;
        }
        put(out, "virt_p50_us", percentile(&all, 50.0));
        put(out, "virt_p99_us", percentile(&all, 99.0));
        for (class, (latencies, launches)) in ["shared", "distinct"].iter().zip(&per_class) {
            put(
                out,
                &format!("serving.virt_p99_us.{class}"),
                percentile(latencies, 99.0),
            );
            put(
                out,
                &format!("serving.jobs_per_launch.{class}"),
                latencies.len() as f64 / launches.max(f64::MIN_POSITIVE),
            );
        }
        let trace = self.server.trace();
        let n = f64::from(self.iterations.max(1));
        put(
            out,
            "serving.packed_batches",
            trace.packed_batches as f64 / n,
        );
        put(out, "serving.opaque_jobs", trace.opaque_jobs as f64 / n);
        put(out, "serving.would_blocks", trace.would_blocks as f64 / n);
        put(out, "serving.jobs_retried", trace.jobs_retried as f64 / n);
        put(
            out,
            "serving.max_queue_depth_seen",
            trace.max_queue_depth_seen as f64,
        );
    }
}
