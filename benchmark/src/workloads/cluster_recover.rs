//! `cluster_recover` — heat diffusion on the paper's 8-GPU lab cluster,
//! once fault-free and once losing a dual-GPU node mid-run, results compared
//! bit for bit.
//!
//! Every run needs a fresh `ClusterTier` (dead devices stay dead), so each
//! run first launches the tier and executes one warm sweep — program build,
//! upload — *outside* the timed span and before the virtual window opens;
//! the fault is armed after it. No build constant sits inside `virt_iter_s`.

use std::sync::Arc;
use std::time::Instant;

use dopencl::{Cluster, ClusterTier, NetworkModel, Node};
use oclsim::{DeviceProfile, FaultTrigger};
use skelcl::{Boundary, MapOverlap, Matrix, SkelCl};

use super::{
    check_bits, err, fnv_f32, heat_reference, put, Check, Counters, Edge, IterReport, KernelShape,
    KernelSpec, Metrics, Session, Window, Workload, FNV_OFFSET, HEAT_UDF,
};
use crate::gen::Gen;
use crate::trace::Tracer;

const SIDE: usize = 128;
const SWEEPS: usize = 16;
const CHECKPOINT_EVERY: usize = 2;
const FAILED_NODE: &str = "small-server-1";
/// Per-device op count at which the node dies — counted from device
/// creation, so the warm sweep's handful of ops are included.
const FAIL_AT_OP: usize = 40;

pub struct ClusterRecover {
    image: Vec<f32>,
    reference: Vec<f32>,
}

impl ClusterRecover {
    pub fn new(seed: u64) -> ClusterRecover {
        let image = Gen::new(seed, 71).f32_vec(SIDE * SIDE, 0.0, 100.0);
        let reference = heat_reference(SIDE, SIDE, &image, SWEEPS, Edge::Constant(0.0));
        ClusterRecover { image, reference }
    }
}

/// The cluster a device count stands for: 8 is the lab cluster, 4 its Tesla
/// server alone, anything else that many GPUs on one remote node.
fn cluster_of(devices: usize) -> Cluster {
    match devices {
        8 => Cluster::lab_cluster(),
        4 => Cluster::new(NetworkModel::gigabit_ethernet())
            .with_node(Node::tesla_s1070_server("gpu-server")),
        n => Cluster::new(NetworkModel::gigabit_ethernet())
            .with_node(Node::new("gpu-node").with_devices(vec![DeviceProfile::tesla_c1060(); n])),
    }
}

impl Workload for ClusterRecover {
    fn name(&self) -> &'static str {
        "cluster_recover"
    }
    fn wall_devices(&self) -> usize {
        8
    }
    fn work_units(&self) -> f64 {
        // Both runs of an iteration.
        (2 * SIDE * SIDE * SWEEPS) as f64
    }
    fn bits_stable_across_devices(&self) -> bool {
        true
    }
    fn start(&self, devices: usize) -> Result<Box<dyn Session + '_>, String> {
        Ok(Box::new(Run {
            w: self,
            cluster: cluster_of(devices),
            inject: devices == 8,
            heat: MapOverlap::from_source(HEAT_UDF)
                .with_halo(1)
                .with_boundary(Boundary::Constant(0.0)),
            clean: None,
            faulted: None,
            outputs: Vec::new(),
            virt: [0; 2],
            spent: Counters::default(),
        }))
    }
    fn run_reference(&self) {
        std::hint::black_box(heat_reference(
            SIDE,
            SIDE,
            std::hint::black_box(&self.image),
            SWEEPS,
            Edge::Constant(0.0),
        ));
    }
    fn kernels(&self) -> Vec<KernelSpec> {
        vec![KernelSpec {
            udf: HEAT_UDF,
            shape: KernelShape::MapOverlap {
                cols: SIDE,
                halo: 1,
            },
            elems: SIDE * SIDE / 8,
            launches: (2 * SWEEPS * 8) as f64,
            extra: &[],
        }]
    }
    fn upload_bytes(&self) -> usize {
        SIDE * SIDE * 4
    }

    fn extra_probes(&self, smoke: bool, out: &mut Metrics) -> Result<(), String> {
        let cluster = Cluster::lab_cluster();
        let mut launch_ms = Vec::new();
        for _ in 0..if smoke { 1 } else { 5 } {
            let t = Instant::now();
            let tier = ClusterTier::launch_gpus(&cluster);
            launch_ms.push(t.elapsed().as_secs_f64() * 1e3);
            drop(tier);
        }
        put(out, "dopencl.launch_ms", crate::stats::median(&launch_ms));
        put(
            out,
            "dopencl.virt_offload_s",
            cluster.offload_overhead(self.upload_bytes()).as_secs_f64(),
        );
        Ok(())
    }
}

/// One launched tier with the image uploaded and the program built.
struct Armed {
    tier: ClusterTier,
    matrix: Matrix<f32>,
}

struct Run<'w> {
    w: &'w ClusterRecover,
    cluster: Cluster,
    /// Whether the second run of an iteration loses [`FAILED_NODE`] (only
    /// the full lab cluster has it).
    inject: bool,
    heat: MapOverlap<f32, f32>,
    clean: Option<Armed>,
    faulted: Option<Armed>,
    outputs: Vec<Vec<f32>>,
    virt: [u64; 2],
    /// Counters of the tiers already torn down.
    spent: Counters,
}

impl Run<'_> {
    fn arm(&self, fault: bool) -> Result<Armed, String> {
        let tier = ClusterTier::launch_gpus(&self.cluster);
        let rt = tier.runtime();
        let matrix =
            Matrix::from_vec(rt, SIDE, SIDE, self.w.image.clone()).map_err(err("matrix"))?;
        self.heat.run(&matrix).exec().map_err(err("warm sweep"))?;
        rt.finish_all();
        rt.drain_events();
        if fault && tier.fail_node(FAILED_NODE, FaultTrigger::AtOpCount(FAIL_AT_OP)) != 2 {
            return Err(format!("{FAILED_NODE} should hold two GPUs"));
        }
        Ok(Armed { tier, matrix })
    }

    fn sweep(
        &self,
        armed: &Armed,
        t: &mut Tracer,
        domain: u8,
    ) -> Result<(Vec<f32>, Window), String> {
        let rt = armed.tier.runtime();
        t.set_domain(domain);
        let t0 = rt.now();
        let out = t
            .call("dopencl", "run_iter", rt, || {
                self.heat
                    .run(&armed.matrix)
                    .checkpoint_every(CHECKPOINT_EVERY)
                    .run_iter(SWEEPS)
            })
            .map_err(err("run_iter"))?;
        let result = t
            .call("core", "gather", rt, || out.to_vec())
            .map_err(err("gather"))?;
        let t1 = rt.finish_all();
        Ok((
            result,
            Window {
                domain,
                t0_ns: t0.as_nanos(),
                t1_ns: t1.as_nanos(),
                devices: rt.device_count(),
            },
        ))
    }
}

impl Session for Run<'_> {
    fn runtime(&self) -> Arc<SkelCl> {
        let armed = self.clean.as_ref().expect("prepare() launches the tiers");
        armed.tier.runtime().clone()
    }

    fn prepare(&mut self) -> Result<(), String> {
        // Tear the previous iteration's tiers down (joins their worker
        // threads), keeping their counts.
        self.spent = self.counters();
        self.clean = None;
        self.faulted = None;
        self.clean = Some(self.arm(false)?);
        self.faulted = if self.inject {
            Some(self.arm(true)?)
        } else {
            None
        };
        Ok(())
    }

    fn run(&mut self, t: &mut Tracer) -> Result<IterReport, String> {
        let clean = self.clean.as_ref().ok_or("prepare() not called")?;
        let mut windows = Vec::new();
        let mut outputs = Vec::new();
        let (out, window) = self.sweep(clean, t, 0)?;
        self.virt[0] = window.t1_ns - window.t0_ns;
        outputs.push(out);
        windows.push(window);
        if let Some(faulted) = &self.faulted {
            let (out, window) = self.sweep(faulted, t, 1)?;
            self.virt[1] = window.t1_ns - window.t0_ns;
            outputs.push(out);
            windows.push(window);
        }
        t.set_domain(0);
        self.outputs = outputs;
        Ok(IterReport {
            virt_ns: self.virt[0],
            windows,
        })
    }

    fn check(&mut self) -> Check {
        let mut check = Check {
            checksum: FNV_OFFSET,
            ..Check::default()
        };
        for (i, out) in self.outputs.iter().enumerate() {
            if i == 0 {
                // The fault-free image alone: the same on every cluster size.
                check.checksum = fnv_f32(check.checksum, out);
            }
            let what = if i == 0 {
                "fault-free run"
            } else {
                "node-loss run"
            };
            check_bits(&mut check, what, out, &self.w.reference);
        }
        if let Some(faulted) = &self.faulted {
            // The recovery contract: exactly the failed node's devices died,
            // and the run noticed.
            check.attempted += 1;
            let rt = faulted.tier.runtime();
            let mut lost = rt.lost_devices();
            lost.sort_unstable();
            if lost != faulted.tier.devices_of(FAILED_NODE) {
                check.fail(format!("lost devices {lost:?} are not {FAILED_NODE}'s"));
            } else if rt.exec_trace().recoveries == 0 {
                check.fail("the node loss forced no recovery".into());
            }
        }
        if let Some(clean) = &self.clean {
            check.attempted += 1;
            if !clean.tier.runtime().lost_devices().is_empty() {
                check.fail("the fault-free run lost a device".into());
            }
        }
        check
    }

    fn counters(&self) -> Counters {
        [&self.clean, &self.faulted]
            .into_iter()
            .flatten()
            .fold(self.spent.clone(), |acc, armed| {
                acc.plus(&Counters::of(armed.tier.runtime()))
            })
    }

    fn layer_metrics(&self, out: &mut Metrics) {
        if self.inject {
            put(
                out,
                "virt_recover_s",
                (self.virt[1] as f64 - self.virt[0] as f64) / 1e9,
            );
        }
    }
}
