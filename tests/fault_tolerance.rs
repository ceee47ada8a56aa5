//! Cluster-level fault tolerance: a whole node of the paper's lab cluster
//! (Section IV-C / V) dies mid-way through an iterative stencil run, and
//! the recovery layer replays the computation on the surviving nodes —
//! bit-identically to a fault-free run.
//!
//! The scenario stacks every layer of the stack: `dopencl` models the
//! three-server cluster and arms the node failure, `oclsim` injects the
//! deterministic device deaths, and the `skelcl` recovery layer
//! re-partitions and replays from the `run_iter` checkpoints.

use dopencl::{Cluster, ClusterTier};
use skelcl::oclsim::FaultTrigger;
use skelcl::prelude::*;

/// Explicit 5-point heat step (halo 1), matching `host_heat` bit for bit.
const HEAT_STEP: &str = r#"
    float func(float u) {
        return u + 0.2f * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u);
    }
"#;

/// Host reference for one `HEAT_STEP` sweep with a constant-0 boundary.
fn host_heat(input: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let (r_max, c_max) = (rows as i64, cols as i64);
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..r_max {
        for c in 0..c_max {
            let probe = |dx: i64, dy: i64| -> f32 {
                let (rr, cc) = (r + dy, c + dx);
                if !(0..r_max).contains(&rr) || !(0..c_max).contains(&cc) {
                    return 0.0;
                }
                input[(rr * c_max + cc) as usize]
            };
            let u = input[(r * c_max + c) as usize];
            out[(r * c_max + c) as usize] =
                u + 0.2f32 * (probe(0, -1) + probe(0, 1) + probe(-1, 0) + probe(1, 0) - 4.0f32 * u);
        }
    }
    out
}

/// Small integers: every arithmetic result stays exact in f32, so
/// "bit-identical" holds regardless of how recovery re-partitions.
fn test_data(len: usize) -> Vec<f32> {
    (0..len).map(|i| ((i * 7 + 3) % 16) as f32).collect()
}

fn heat() -> MapOverlap<f32, f32> {
    MapOverlap::<f32, f32>::from_source(HEAT_STEP)
        .with_halo(1)
        .with_boundary(Boundary::Constant(0.0))
}

fn run_heat(tier: &ClusterTier, rows: usize, cols: usize, sweeps: usize) -> Vec<f32> {
    let rt = tier.runtime();
    let m = Matrix::from_vec(rt, rows, cols, test_data(rows * cols)).unwrap();
    let out = heat().run(&m).checkpoint_every(2).run_iter(sweeps).unwrap();
    out.to_vec().unwrap()
}

#[test]
fn node_death_mid_run_iter_recovers_bit_identically_on_the_lab_cluster() {
    let (rows, cols, sweeps) = (48, 16, 8);
    let mut expected = test_data(rows * cols);
    for _ in 0..sweeps {
        expected = host_heat(&expected, rows, cols);
    }

    // Fault-free reference on the full 8-GPU tier.
    let reference = run_heat(
        &ClusterTier::launch_gpus(&Cluster::lab_cluster()),
        rows,
        cols,
        sweeps,
    );
    assert_eq!(
        reference, expected,
        "fault-free run matches the host oracle"
    );

    // Same computation, but one dual-GPU server drops off the network
    // mid-run: its two devices die at their 20th op, well inside the sweep
    // loop.
    let tier = ClusterTier::launch_gpus(&Cluster::lab_cluster());
    let armed = tier.fail_node("small-server-1", FaultTrigger::AtOpCount(20));
    assert_eq!(armed, 2, "the node failure arms both of the server's GPUs");
    let survived = run_heat(&tier, rows, cols, sweeps);
    assert_eq!(
        survived, reference,
        "the recovered run must be bit-identical to the fault-free run"
    );

    let rt = tier.runtime();
    let mut lost = rt.lost_devices();
    lost.sort_unstable();
    assert_eq!(lost, tier.devices_of("small-server-1"));
    let trace = rt.exec_trace();
    assert!(trace.faults_injected >= 2, "both GPUs reported their death");
    assert!(trace.recoveries >= 1, "the sweep loop recovered");
    assert!(trace.repartitions >= 1, "work moved onto the survivors");
    assert!(trace.checkpoint_bytes > 0, "checkpointing was armed");
}

#[test]
fn node_topology_guides_recovery_weights() {
    // The tier registers the two-level (node / device) topology with the
    // runtime; after a node failure, the recovery weights zero out every
    // device of the dead node and keep every survivor.
    let tier = ClusterTier::launch_gpus(&Cluster::lab_cluster());
    let rt = tier.runtime();
    assert_eq!(rt.device_count(), 8);
    assert_eq!(rt.node_topology().len(), 8);
    assert_eq!(tier.devices_of("gpu-server"), vec![0, 1, 2, 3]);

    tier.fail_node("small-server-2", FaultTrigger::AtOpCount(1));
    // Trip the armed faults with a real launch; recovery replays it on the
    // surviving six devices.
    let v = Vector::from_vec(rt, test_data(96));
    let dbl = Map::<f32, f32>::from_source("float func(float x) { return 2.0f * x; }");
    let out = v.map(&dbl).unwrap().to_vec().unwrap();
    assert_eq!(
        out,
        test_data(96).iter().map(|x| 2.0 * x).collect::<Vec<_>>()
    );

    let weights = rt.recovery_weights().expect("six devices survive");
    for &d in &tier.devices_of("small-server-2") {
        assert_eq!(weights[d], 0.0, "dead node's devices get no work");
    }
    assert!(
        tier.devices_of("gpu-server")
            .iter()
            .chain(tier.devices_of("small-server-1").iter())
            .all(|&d| weights[d] > 0.0),
        "every surviving device keeps a share"
    );
}

#[test]
fn losing_two_of_three_nodes_still_recovers() {
    let (rows, cols, sweeps) = (32, 12, 6);
    let mut expected = test_data(rows * cols);
    for _ in 0..sweeps {
        expected = host_heat(&expected, rows, cols);
    }
    let tier = ClusterTier::launch_gpus(&Cluster::lab_cluster());
    tier.fail_node("small-server-1", FaultTrigger::AtOpCount(8));
    tier.fail_node("small-server-2", FaultTrigger::AtOpCount(14));
    let out = run_heat(&tier, rows, cols, sweeps);
    assert_eq!(
        out, expected,
        "only gpu-server survives, result still exact"
    );
    assert_eq!(tier.runtime().lost_devices().len(), 4);
    assert!(tier.runtime().exec_trace().repartitions >= 1);
}

/// A node dies in the middle of a block of sweeps that share one halo
/// exchange (ghost depth 3): the survivors cannot replay the sweep in place —
/// the current state is device-resident — so the run rolls back to its last
/// checkpoint, or to the input when there is none, re-partitions onto six
/// devices and stores the new parts' ghost zones afresh.
#[test]
fn node_death_inside_a_block_of_sweeps_rolls_back_and_recovers_bit_identically() {
    let (rows, cols, sweeps) = (96, 8, 9);
    let mut expected = test_data(rows * cols);
    for _ in 0..sweeps {
        expected = host_heat(&expected, rows, cols);
    }
    for checkpoint_every in [0, 3] {
        let run = |tier: &ClusterTier| {
            let m = Matrix::from_vec(tier.runtime(), rows, cols, test_data(rows * cols)).unwrap();
            heat()
                .run(&m)
                .checkpoint_every(checkpoint_every)
                .run_iter_at_depth(sweeps, 3)
                .unwrap()
        };
        // Fault-free, a device's log is: upload, then blocks of three
        // kernels, each block after the first behind its exchange (and every
        // sweep of an edge device behind its fill). The second kernel of the
        // second block is mid-block on every device.
        let clean = ClusterTier::launch_gpus(&Cluster::lab_cluster());
        let out = run(&clean);
        assert_eq!(out.ghost_depth(), 3);
        assert_eq!(out.to_vec().unwrap(), expected, "fault-free at depth 3");
        let victim = clean.devices_of("small-server-1")[0];
        let log = &clean.runtime().drain_events()[victim];
        let mut kernels = log.iter().enumerate().filter(|(_, e)| e.is_kernel());
        let (mid_block, _) = kernels.nth(4).expect("nine sweeps");
        assert!(
            log[..mid_block].iter().any(|e| e.is_read()) && log[mid_block - 1].is_kernel(),
            "op {mid_block} follows a kernel of its own block, behind an exchange"
        );

        let tier = ClusterTier::launch_gpus(&Cluster::lab_cluster());
        tier.fail_node("small-server-1", FaultTrigger::AtOpCount(mid_block + 1));
        let out = run(&tier);
        let what = format!("checkpoint_every({checkpoint_every})");
        assert_eq!(
            out.to_vec().unwrap(),
            expected,
            "{what}: recovered ≢ fault-free"
        );
        let rt = tier.runtime();
        let mut lost = rt.lost_devices();
        lost.sort_unstable();
        assert_eq!(lost, tier.devices_of("small-server-1"), "{what}");
        let trace = rt.exec_trace();
        assert!(trace.recoveries >= 1 && trace.repartitions >= 1, "{what}");
        assert_eq!(trace.checkpoint_bytes > 0, checkpoint_every > 0, "{what}");
        // Six survivors share 96 rows: 16 each, deep enough for the forced
        // depth again.
        assert_eq!(
            out.row_counts().iter().filter(|&&r| r > 0).count(),
            6,
            "{what}"
        );
        assert_eq!(out.ghost_depth(), 3, "{what}");
    }
}

/// One dOpenCL node-loss schedule has exactly one outcome: two runs of the
/// same schedule agree on the result bits (or the error text), the faults
/// that fired, every device's op count and the host clock.
#[test]
fn a_dopencl_node_loss_has_one_outcome() {
    let (rows, cols, sweeps) = (48, 16, 8);
    let run = |op: usize| {
        let tier = ClusterTier::launch_gpus(&Cluster::lab_cluster());
        tier.fail_node("small-server-1", FaultTrigger::AtOpCount(op));
        let rt = tier.runtime();
        let m = Matrix::from_vec(rt, rows, cols, test_data(rows * cols)).unwrap();
        let result = heat()
            .run(&m)
            .checkpoint_every(2)
            .run_iter(sweeps)
            .and_then(|out| out.to_vec())
            .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>())
            .map_err(|e| e.to_string());
        let ops: Vec<usize> = (0..rt.device_count())
            .map(|d| rt.context().device(d).unwrap().fault_op_count())
            .collect();
        (result, rt.exec_trace().faults_injected, ops, rt.now())
    };
    let reference = run(usize::MAX).0;
    for op in [1, 2, 7, 20] {
        let first = run(op);
        assert_eq!(run(op), first, "node loss at op {op}");
        assert_eq!(first.0, reference, "node loss at op {op} recovers");
        assert_eq!(first.1, 2, "node loss at op {op}: both GPUs died");
    }
}
