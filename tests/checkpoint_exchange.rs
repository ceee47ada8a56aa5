//! Checkpoints feed the halo exchange. A `run_iter` checkpoint gathers the
//! state to the host, which leaves the host copy valid next to the device
//! parts; the exchange that opens the next block then writes every ghost
//! segment straight from the host copy instead of reading it back from the
//! device that owns it and forwarding it. Device-only data — every exchange
//! inside a run of blocks between checkpoints — keeps the forwarded path.
//!
//! This suite pins the virtual time of the `cluster_recover` benchmark shape,
//! checks that no block after a checkpoint reads a row back, holds both
//! exchange paths to the same bits over random shapes, and strikes the first
//! host-written ghost write with a transient fault and with a device loss.

use std::sync::Arc;

use dopencl::{Cluster, ClusterTier};
use proptest::prelude::*;
use skelcl::oclsim::{Event, FaultKind, FaultPlan, FaultSpec, FaultTrigger};
use skelcl::prelude::*;
use skelcl::SkelCl;

/// The benchmark's heat step (halo 1).
const HEAT: &str = "float func(float u) { return u + 0.2f * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u); }";

fn image(rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| ((i * 37 + 11) % 251) as f32 * 0.25)
        .collect()
}

fn bits(out: &Matrix<f32>) -> Vec<u32> {
    out.to_vec().unwrap().iter().map(|x| x.to_bits()).collect()
}

/// The halo reads issued by blocks that follow a checkpoint: per device, a
/// read between a checkpoint's gather — a read of a whole part, more than
/// the `ghost_bytes` any exchange moves — and the next kernel.
fn reads_after_checkpoints(logs: &[Vec<Event>], ghost_bytes: usize) -> usize {
    let mut reads = 0;
    for log in logs {
        let mut after_gather = false;
        for event in log {
            if event.is_kernel() {
                after_gather = false;
            } else if event.is_read() && event.bytes > ghost_bytes {
                after_gather = true;
            } else if event.is_read() {
                reads += usize::from(after_gather);
            }
        }
    }
    reads
}

// ---------------------------------------------------------------------------
// The benchmark shape, pinned
// ---------------------------------------------------------------------------

const SIDE: usize = 128;
const SWEEPS: usize = 16;

/// `cluster_recover`'s clean run: a warm sweep uploads the image and builds
/// the program, the queues drain, then `run_iter` and the gather are timed.
/// The virtual ns, the result bits and every device's event log of the timed
/// part.
fn timed_run(rt: &Arc<SkelCl>, checkpoint_every: usize) -> (u64, Vec<u32>, Vec<Vec<Event>>) {
    let heat = MapOverlap::<f32, f32>::from_source(HEAT)
        .with_halo(1)
        .with_boundary(Boundary::Constant(0.0));
    let m = Matrix::from_vec(rt, SIDE, SIDE, image(SIDE, SIDE)).unwrap();
    heat.run(&m).exec().unwrap();
    rt.finish_all();
    rt.drain_events();
    let t0 = rt.now();
    let out = heat
        .run(&m)
        .checkpoint_every(checkpoint_every)
        .run_iter(SWEEPS)
        .unwrap();
    let bits = bits(&out);
    let ns = (rt.finish_all() - t0).as_nanos();
    (ns, bits, rt.drain_events())
}

/// On the 8-GPU lab cluster (the benchmark's `cluster_recover`) and on 4
/// local GPUs, a checkpointed run sends every exchange that follows a
/// checkpoint from the host: no device reads a row back between its
/// checkpoint gather and its next kernel, the virtual time is pinned, and
/// the bits are those of the run without checkpoints and of one device.
#[test]
fn checkpoints_feed_the_next_exchange_from_the_host() {
    let lab = || {
        let tier = ClusterTier::launch_gpus(&Cluster::lab_cluster());
        (tier.runtime().clone(), Some(tier))
    };
    let local = || (skelcl::init_gpus(4), None);
    let one_device = timed_run(&skelcl::init_gpus(1), 2).1;
    let runtimes: [(&str, &dyn Fn() -> (Arc<SkelCl>, Option<ClusterTier>), u64); 2] = [
        ("lab cluster", &lab, 7_115_620),
        ("4 GPUs", &local, 1_089_208),
    ];
    for (name, runtime, pinned) in runtimes {
        let (rt, _tier) = runtime();
        let (ns, bits, logs) = timed_run(&rt, 2);
        assert_eq!(bits, one_device, "{name}: ≢ 1 device");
        assert_eq!(
            reads_after_checkpoints(&logs, 2 * SIDE * 4),
            0,
            "{name}: a block after a checkpoint read a halo row back"
        );
        let trace = rt.exec_trace();
        assert!(trace.halo_host_writes() > 0, "{name}: {trace:?}");
        assert_eq!(ns, pinned, "{name}: virtual ns");

        let (rt, _tier) = runtime();
        assert_eq!(timed_run(&rt, 0).1, bits, "{name}: ≢ no checkpoints");
        assert_eq!(rt.exec_trace().halo_host_writes(), 0, "{name}");
    }
}

// ---------------------------------------------------------------------------
// Both exchange paths, one set of bits
// ---------------------------------------------------------------------------

/// A heat-like step reading `halo` rows up and down.
fn reach(halo: usize) -> String {
    format!(
        "float func(float u) {{ return u + 0.1f * (get(0, -{halo}) + get(0, {halo}) + get(-1, 0) + get(1, 0) - 4.0f * u); }}"
    )
}

fn boundary(which: usize) -> Boundary<f32> {
    match which {
        0 => Boundary::Clamp,
        1 => Boundary::Wrap,
        _ => Boundary::Constant(0.5),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Exchanges written from the host copy (after a checkpoint, or over an
    /// output gathered by `to_vec`) give the bits of forwarded ones and of
    /// one device, for every edge policy, halo 1–2, 2–4 devices, row counts
    /// that split evenly or not, forced depths 1–3 and checkpoints every 0–3
    /// sweeps.
    #[test]
    fn host_written_exchanges_give_the_bits_of_forwarded_ones(
        edge in 0usize..3,
        halo in 1usize..=2,
        devices in 2usize..=4,
        rows_per_device in 4usize..9,
        extra_rows in 0usize..4,
        cols in 3usize..8,
        depth in 1usize..=3,
        checkpoint_every in 0usize..=3,
        sweeps in 1usize..=7,
    ) {
        let rows = devices * rows_per_device + extra_rows % devices;
        let src = reach(halo);
        let st = MapOverlap::<f32, f32>::from_source(&src)
            .with_halo(halo)
            .with_boundary(boundary(edge));
        let input = image(rows, cols);
        let iterate = |devices: usize, every: usize| {
            let rt = skelcl::init_gpus(devices);
            let m = Matrix::from_vec(&rt, rows, cols, input.clone()).unwrap();
            let out = st.run(&m).checkpoint_every(every).run_iter_at_depth(sweeps, depth).unwrap();
            (bits(&out), rt.exec_trace())
        };
        let (reference, _) = iterate(1, 0);
        let (forwarded, trace) = iterate(devices, 0);
        prop_assert_eq!(trace.halo_host_writes(), 0);
        prop_assert_eq!(&forwarded, &reference);
        let (checkpointed, trace) = iterate(devices, checkpoint_every);
        prop_assert_eq!(&checkpointed, &reference);
        // A checkpoint before the last sweep is followed by an exchange.
        let fed = checkpoint_every > 0 && checkpoint_every < sweeps;
        prop_assert_eq!(trace.halo_host_writes() > 0, fed, "{:?}", trace);

        // One sweep over an output the host has gathered (host-valid, halos
        // stale), against the same sweep over device-only data.
        let twice = |devices: usize, gather: bool| {
            let rt = skelcl::init_gpus(devices);
            let m = Matrix::from_vec(&rt, rows, cols, input.clone()).unwrap();
            let once = st.run(&m).run_iter_at_depth(sweeps, depth).unwrap();
            if gather {
                once.to_vec().unwrap();
            }
            let host_writes = rt.exec_trace().halo_host_writes();
            let out = st.run(&once).exec().unwrap();
            (bits(&out), rt.exec_trace().halo_host_writes() - host_writes)
        };
        let (expected, _) = twice(1, false);
        let (gathered, host_writes) = twice(devices, true);
        prop_assert_eq!(&gathered, &expected);
        prop_assert!(host_writes > 0);
        let (device_only, host_writes) = twice(devices, false);
        prop_assert_eq!(&device_only, &expected);
        prop_assert_eq!(host_writes, 0);
    }
}

// ---------------------------------------------------------------------------
// Faults on the host-written ghost writes
// ---------------------------------------------------------------------------

const FAULT_ROWS: usize = 48;
const FAULT_COLS: usize = 8;
const FAULT_SWEEPS: usize = 6;

/// Six sweeps of the heat step in blocks of 2, with a checkpoint after every
/// block: each exchange follows a checkpoint.
fn checkpointed_run(rt: &Arc<SkelCl>, boundary: Boundary<f32>) -> Result<Vec<f32>> {
    let heat = MapOverlap::<f32, f32>::from_source(HEAT)
        .with_halo(1)
        .with_boundary(boundary);
    let m = Matrix::from_vec(rt, FAULT_ROWS, FAULT_COLS, image(FAULT_ROWS, FAULT_COLS))?;
    heat.run(&m)
        .checkpoint_every(2)
        .run_iter_at_depth(FAULT_SWEEPS, 2)?
        .to_vec()
}

/// A transient fault on the first ghost write sent from the host after a
/// checkpoint, and a loss of its device at that write, both recover to the
/// fault-free bits and leave no buffer and no ledger charge behind — on 4
/// devices with clamped edges (on-device copies) and on 2 with constant
/// ones (fills beside the ghost writes).
#[test]
fn a_fault_on_the_first_host_written_ghost_write_recovers_bit_identically() {
    for (devices, boundary) in [(4, Boundary::Clamp), (2, Boundary::Constant(0.0))] {
        let rt = skelcl::init_gpus(devices);
        let expected = checkpointed_run(&rt, boundary).unwrap();
        let trace = rt.exec_trace();
        // Every exchange follows a checkpoint: nothing is forwarded.
        assert_eq!(trace.halo_forwards(), 0, "{boundary:?}");
        assert!(trace.halo_host_writes() > 0, "{boundary:?}");
        // A ghost write is two rows deep; an edge fill is one row.
        let ghost_bytes = 2 * FAULT_COLS * 4;
        // A fault-free queue logs every command in op order, so the log index
        // is the op number.
        let log = &rt.drain_events()[0];
        let gather = log
            .iter()
            .position(|e| e.is_read() && e.bytes > ghost_bytes)
            .expect("a checkpoint gather");
        let write = gather
            + 1
            + log[gather + 1..]
                .iter()
                .position(|e| e.is_write() && e.bytes == ghost_bytes)
                .expect("a ghost write after the checkpoint");
        assert!(log[gather + 1..write].iter().all(|e| !e.is_kernel()));
        let op = write + 1;

        for kind in [FaultKind::TransientTransfer, FaultKind::DeviceLost] {
            let what = format!("{boundary:?}, {kind:?} at device 0's op {op}");
            let rt = skelcl::init_gpus(devices);
            rt.inject_faults(&FaultPlan::new().with(FaultSpec {
                device: 0,
                trigger: FaultTrigger::AtOpCount(op),
                kind,
            }));
            let out = checkpointed_run(&rt, boundary).unwrap_or_else(|e| panic!("{what}: {e:?}"));
            assert_eq!(out, expected, "{what}: recovered ≢ fault-free");
            let trace = rt.exec_trace();
            assert_eq!(trace.faults_injected, 1, "{what}: the fault must fire");
            assert!(trace.recoveries >= 1, "{what}");
            let lost = if kind == FaultKind::DeviceLost {
                vec![0]
            } else {
                vec![]
            };
            assert_eq!(rt.lost_devices(), lost, "{what}");
            assert!(rt.take_deferred_errors().is_empty(), "{what}: latch left");
            for d in 0..devices {
                let live = rt.context().device(d).unwrap().live_buffers();
                assert_eq!(live, 0, "{what}: device {d} strands {live} buffer(s)");
            }
            let usages = rt.context().ledger().usages();
            assert!(
                usages.iter().all(|u| u.used_bytes == 0),
                "{what}: {usages:?}"
            );
        }
    }
}
