//! The seven workloads. Names are fixed: later issues cite them.
//!
//! A [`Workload`] owns its generated inputs and its reference results (plain
//! single-threaded Rust, computed once, outside every timed span). A
//! [`Session`] is one *warm* instance of the program under test: a fresh
//! runtime plus fresh skeleton objects, created by a cold start and then
//! iterated.

use std::sync::Arc;

use skelcl::SkelCl;

use crate::trace::Tracer;

mod cluster_recover;
mod map_stream;
mod osem_subset;
mod plan_small;
mod reduce_scan;
mod serving_mix;
mod stencil_iter;

pub const NAMES: [&str; 7] = [
    "map_stream",
    "reduce_scan",
    "stencil_iter",
    "plan_small",
    "osem_subset",
    "serving_mix",
    "cluster_recover",
];

pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "map_stream" => Box::new(map_stream::MapStream::new(seed)),
        "reduce_scan" => Box::new(reduce_scan::ReduceScan::new(seed)),
        "stencil_iter" => Box::new(stencil_iter::StencilIter::new(seed)),
        "plan_small" => Box::new(plan_small::PlanSmall::new(seed)),
        "osem_subset" => Box::new(osem_subset::OsemSubset::new(seed)),
        "serving_mix" => Box::new(serving_mix::ServingMix::new(seed)),
        "cluster_recover" => Box::new(cluster_recover::ClusterRecover::new(seed)),
        _ => return None,
    })
}

/// A named number with its unit, as printed and as written to result files.
pub type Metrics = Vec<(String, f64)>;

pub fn put(metrics: &mut Metrics, name: &str, value: f64) {
    match metrics.iter_mut().find(|(n, _)| n == name) {
        Some(slot) => slot.1 = value,
        None => metrics.push((name.to_string(), value)),
    }
}

/// The shape of a generated skeleton kernel, for the outside-in kernel
/// probes (`skelcl::kernelgen` turns `udf` into the kernel source exactly as
/// the skeleton would).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelShape {
    Map,
    Zip,
    Reduce,
    Scan,
    /// A stencil over a `rows × cols` part with the given halo.
    MapOverlap {
        cols: usize,
        halo: usize,
    },
}

/// One kernel an iteration launches. The first spec a workload lists is its
/// *dominant* kernel — the one the per-engine throughput probes run.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    pub udf: &'static str,
    pub shape: KernelShape,
    /// Elements per launch at the wall configuration.
    pub elems: usize,
    /// Launches of this kernel per iteration.
    pub launches: f64,
    /// Extra `float` scalar arguments the UDF takes.
    pub extra: &'static [f32],
}

pub trait Workload {
    fn name(&self) -> &'static str;
    /// Devices (= worker threads) of the configuration wall numbers are
    /// taken at.
    fn wall_devices(&self) -> usize;
    /// Work units one iteration completes (`wall_rate` = this / median
    /// iteration wall). The README names the unit per workload.
    fn work_units(&self) -> f64;
    /// Whether outputs are promised bit-identical across device counts
    /// (element-wise skeletons: yes; anything that folds: no).
    fn bits_stable_across_devices(&self) -> bool;
    /// Cold start: fresh runtime on `devices` devices + fresh skeleton
    /// objects. The first `run` on the returned session completes it.
    fn start(&self, devices: usize) -> Result<Box<dyn Session + '_>, String>;
    /// Run the plain single-threaded Rust reference of one iteration once
    /// (results discarded through `black_box`) — `harness.ref_ms` times it.
    fn run_reference(&self);
    /// The kernels one iteration launches, dominant first.
    fn kernels(&self) -> Vec<KernelSpec>;
    /// Bytes an iteration moves host→device at the wall configuration
    /// (sizes the `oclsim.copy_gbps` and `dopencl.virt_offload_s` probes).
    fn upload_bytes(&self) -> usize;
    /// Workload-specific probes that need their own runtimes (run once per
    /// traced run, after the traced pass).
    fn extra_probes(&self, _smoke: bool, _out: &mut Metrics) -> Result<(), String> {
        Ok(())
    }
}

/// One device-clock domain's virtual window within an iteration. Ordinary
/// sessions have one; `cluster_recover` runs two runtimes per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    pub domain: u8,
    pub t0_ns: u64,
    pub t1_ns: u64,
    pub devices: usize,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IterReport {
    /// Virtual nanoseconds of the iteration (for `cluster_recover`: of the
    /// fault-free run).
    pub virt_ns: u64,
    pub windows: Vec<Window>,
}

/// Verification outcome of one iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the output bits; identical across iterations and runs.
    pub checksum: u64,
    /// Human-readable reasons for `failed > 0`.
    pub errors: Vec<String>,
}

impl Check {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

pub trait Session {
    /// The runtime the next/last iteration runs on.
    fn runtime(&self) -> Arc<SkelCl>;
    /// Untimed: input clones and per-iteration fixtures.
    fn prepare(&mut self) -> Result<(), String>;
    /// Timed: one iteration through the layers' public functions.
    fn run(&mut self, t: &mut Tracer) -> Result<IterReport, String>;
    /// Untimed: verify the iteration just run against the reference.
    fn check(&mut self) -> Check;
    /// Cumulative execution counters since the session started.
    fn counters(&self) -> Counters {
        Counters::of(&self.runtime())
    }
    /// Workload-specific per-layer metrics of the iteration just run.
    fn layer_metrics(&self, _out: &mut Metrics) {}
}

/// Cumulative execution counts of a session's runtimes, from `ExecTrace`.
/// An entry named like a per-layer metric becomes that metric (per
/// iteration); `native_launches` and `other_launches` only feed
/// `kernel.native_launch_frac`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(Vec<(&'static str, u64)>);

impl Counters {
    pub fn of(rt: &Arc<SkelCl>) -> Counters {
        let t = rt.exec_trace();
        let other = t.interp_launches() + t.scalar_launches() + t.batched_launches();
        Counters(
            [
                ("core.skeleton_calls", t.skeleton_calls),
                ("core.programs_built", t.programs_built),
                ("oclsim.pool_hits", t.buffer_pool_hits),
                ("core.halo_transfers", t.halo_transfers()),
                ("core.halo_bytes", t.halo_bytes()),
                ("core.kernels_fused", t.kernels_fused),
                ("core.launches_elided", t.launches_elided),
                ("core.bytes_elided", t.intermediate_bytes_elided),
                ("oclsim.deferred_errors", t.deferred_errors()),
                ("core.recoveries", t.recoveries),
                ("core.replayed_launches", t.replayed_launches),
                ("core.repartitions", t.repartitions),
                ("core.checkpoint_bytes", t.checkpoint_bytes),
                ("dopencl.devices_lost", rt.lost_devices().len()),
                ("native_launches", t.native_launches()),
                ("other_launches", other),
            ]
            .map(|(name, count)| (name, count as u64))
            .to_vec(),
        )
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.0.iter().copied()
    }

    /// Entry-wise sum (sessions that burn through several runtimes).
    pub fn plus(&self, other: &Counters) -> Counters {
        let mut sum = self.clone();
        for (name, count) in other.iter() {
            match sum.0.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 += count,
                None => sum.0.push((name, count)),
            }
        }
        sum
    }

    /// Entry-wise `self - earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.iter()
                .map(|(name, count)| (name, count.saturating_sub(earlier.get(name))))
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// FNV-1a over the bit patterns of a float slice.
pub fn fnv_f32(seed: u64, data: &[f32]) -> u64 {
    let mut h = seed;
    for x in data {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Index of the first bit-level mismatch, if any.
pub fn first_bit_mismatch(got: &[f32], want: &[f32]) -> Option<usize> {
    if got.len() != want.len() {
        return Some(got.len().min(want.len()));
    }
    got.iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
}

/// `|got - want| / max(|want|, tiny)`.
pub fn rel_err(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs().max(1e-30)
}

/// Bit-equality check of one output against its reference, recorded as one
/// attempted operation.
pub fn check_bits(check: &mut Check, what: &str, got: &[f32], want: &[f32]) {
    check.attempted += 1;
    if let Some(i) = first_bit_mismatch(got, want) {
        check.fail(format!(
            "{what}: element {i} is {:?}, reference {:?}",
            got.get(i),
            want.get(i)
        ));
    }
}

/// Tolerance check of one scalar against an `f64` reference.
pub fn check_close(check: &mut Check, what: &str, got: f32, want: f64, tol: f64) {
    check.attempted += 1;
    let err = rel_err(f64::from(got), want);
    if err.is_nan() || err > tol {
        check.fail(format!(
            "{what}: {got} vs reference {want} (rel err {err:.3e} > {tol:.0e})"
        ));
    }
}

/// Virtual window of a single-runtime iteration that began at `t0`:
/// synchronises every queue so the window closes after the last command.
pub fn close_window(rt: &Arc<SkelCl>, t0: oclsim::SimTime) -> IterReport {
    let t1 = rt.finish_all();
    IterReport {
        virt_ns: (t1 - t0).as_nanos(),
        windows: vec![Window {
            domain: 0,
            t0_ns: t0.as_nanos(),
            t1_ns: t1.as_nanos(),
            devices: rt.device_count(),
        }],
    }
}

pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

pub const HEAT_UDF: &str = "float func(float u) { return u + 0.2f * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u); }";

/// Out-of-range policy of the plain-Rust heat reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Edge {
    Clamp,
    Constant(f32),
}

/// Plain single-threaded heat diffusion: `sweeps` applications of
/// [`HEAT_UDF`], with the additions in the UDF's source order so the result
/// is bit-equal to every kernel engine.
pub fn heat_reference(
    rows: usize,
    cols: usize,
    input: &[f32],
    sweeps: usize,
    edge: Edge,
) -> Vec<f32> {
    let mut cur = input.to_vec();
    let mut next = vec![0.0f32; input.len()];
    for _ in 0..sweeps {
        let at = |r: isize, c: isize| -> f32 {
            let inside = r >= 0 && c >= 0 && (r as usize) < rows && (c as usize) < cols;
            match edge {
                _ if inside => cur[r as usize * cols + c as usize],
                Edge::Constant(v) => v,
                Edge::Clamp => {
                    let r = r.clamp(0, rows as isize - 1) as usize;
                    let c = c.clamp(0, cols as isize - 1) as usize;
                    cur[r * cols + c]
                }
            }
        };
        for r in 0..rows as isize {
            for c in 0..cols as isize {
                let u = at(r, c);
                // get(dx, dy): dx is the column offset, dy the row offset.
                let sum = at(r - 1, c) + at(r + 1, c) + at(r, c - 1) + at(r, c + 1) - 4.0 * u;
                next[r as usize * cols + c as usize] = u + 0.2 * sum;
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_order_and_bit_sensitive() {
        let a = fnv_f32(FNV_OFFSET, &[1.0, 2.0]);
        assert_ne!(a, fnv_f32(FNV_OFFSET, &[2.0, 1.0]));
        assert_ne!(fnv_f32(FNV_OFFSET, &[0.0]), fnv_f32(FNV_OFFSET, &[-0.0]));
        assert_eq!(a, fnv_f32(FNV_OFFSET, &[1.0, 2.0]));
    }

    #[test]
    fn check_helpers_count_attempts_and_failures() {
        let mut c = Check::default();
        check_bits(&mut c, "same", &[1.0, 2.0], &[1.0, 2.0]);
        check_bits(&mut c, "diff", &[1.0, 2.0], &[1.0, 2.5]);
        check_bits(&mut c, "short", &[1.0], &[1.0, 2.0]);
        check_close(&mut c, "close", 1.000_001, 1.0, 1e-5);
        check_close(&mut c, "far", 1.1, 1.0, 1e-5);
        check_close(&mut c, "nan", f32::NAN, 1.0, 1e-5);
        assert_eq!((c.attempted, c.failed), (6, 4));
    }

    #[test]
    fn heat_reference_conserves_a_constant_field_under_clamp() {
        let field = vec![3.5f32; 6 * 5];
        assert_eq!(heat_reference(6, 5, &field, 3, Edge::Clamp), field);
        // With a zero boundary the edges leak.
        let leaked = heat_reference(6, 5, &field, 1, Edge::Constant(0.0));
        assert!(leaked[0] < 3.5 && leaked[2 * 5 + 2] == 3.5);
    }
}
