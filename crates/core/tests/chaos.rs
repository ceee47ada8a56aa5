//! Chaos suite: deterministic fault injection against every data-parallel
//! skeleton.
//!
//! The contract under test is *never silently wrong*: with an arbitrary
//! deterministic [`FaultPlan`] armed, a skeleton launch either recovers and
//! produces a result **bit-identical** to the fault-free oracle, or fails
//! with a typed injected-fault error — corrupted output is the one outcome
//! that must not exist. On top of that, the recovery layer must be free on
//! the fault-free path (bitwise and virtual-time identical with recovery on
//! or off) and every run must be reproducible (same plan ⇒ same outcome).

use proptest::prelude::*;
use skelcl::oclsim::{FaultKind, FaultPlan, FaultSpec, FaultTrigger};
use skelcl::prelude::*;

const DOUBLE: &str = "float func(float x) { return 2.0f * x; }";
const SAXPY: &str = "float func(float x, float y) { return 2.0f * x + y; }";
const ADD: &str = "float func(float a, float b) { return a + b; }";

/// Explicit 5-point heat step (halo 1), matching `host_heat` bit for bit.
const HEAT_STEP: &str = r#"
    float func(float u) {
        return u + 0.2f * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u);
    }
"#;

/// Host reference for one `HEAT_STEP` sweep with a constant-0 boundary.
fn host_heat(input: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    host_heat_bounded(input, rows, cols, Boundary::Constant(0.0))
}

/// Host reference for one `HEAT_STEP` sweep under any boundary policy.
fn host_heat_bounded(input: &[f32], rows: usize, cols: usize, boundary: Boundary<f32>) -> Vec<f32> {
    let (r_max, c_max) = (rows as i64, cols as i64);
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..r_max {
        for c in 0..c_max {
            let probe = |dx: i64, dy: i64| -> f32 {
                let (rr, cc) = (r + dy, c + dx);
                let (rr, cc) = match boundary {
                    Boundary::Clamp => (rr.clamp(0, r_max - 1), cc.clamp(0, c_max - 1)),
                    Boundary::Wrap => (rr.rem_euclid(r_max), cc.rem_euclid(c_max)),
                    Boundary::Constant(v) => {
                        if !(0..r_max).contains(&rr) || !(0..c_max).contains(&cc) {
                            return v;
                        }
                        (rr, cc)
                    }
                };
                input[(rr * c_max + cc) as usize]
            };
            let u = input[(r * c_max + c) as usize];
            out[(r * c_max + c) as usize] =
                u + 0.2f32 * (probe(0, -1) + probe(0, 1) + probe(-1, 0) + probe(1, 0) - 4.0f32 * u);
        }
    }
    out
}

fn test_data(len: usize) -> Vec<f32> {
    // Small integers: every arithmetic result below stays exact in f32, so
    // "bit-identical" holds regardless of how recovery re-partitions.
    (0..len).map(|i| ((i * 7 + 3) % 16) as f32).collect()
}

// ---------------------------------------------------------------------------
// Pinned deterministic recovery cases
// ---------------------------------------------------------------------------

#[test]
fn map_recovers_bit_identically_from_a_device_loss() {
    let data = test_data(257);
    let expected: Vec<f32> = data.iter().map(|x| 2.0 * x).collect();
    let rt = skelcl::init_gpus(4);
    // Device 1 dies on its very first command (the input write).
    rt.inject_faults(&FaultPlan::new().device_lost_at_op(1, 1));
    let v = Vector::from_vec(&rt, data);
    let dbl = Map::<f32, f32>::from_source(DOUBLE);
    let out = v.map(&dbl).unwrap();
    assert_eq!(out.to_vec().unwrap(), expected);
    let trace = rt.exec_trace();
    assert_eq!(rt.lost_devices(), vec![1]);
    assert!(trace.faults_injected >= 1);
    assert_eq!(trace.recoveries, 1, "one recovered launch");
    assert!(trace.repartitions >= 1, "a loss forces a re-partition");
    assert!(trace.replayed_launches >= 1);
}

#[test]
fn transient_faults_replay_without_repartitioning() {
    let data = test_data(128);
    let expected: Vec<f32> = data.iter().map(|x| 2.0 * x).collect();
    let rt = skelcl::init_gpus(2);
    // Device 0's ops for a map: write (1), kernel (2), read (3). Fail the
    // kernel launch once; the device survives.
    rt.inject_faults(&FaultPlan::new().transient_launch_at_op(0, 2));
    let v = Vector::from_vec(&rt, data);
    let dbl = Map::<f32, f32>::from_source(DOUBLE);
    let out = v.map(&dbl).unwrap();
    assert_eq!(out.to_vec().unwrap(), expected);
    let trace = rt.exec_trace();
    assert!(rt.lost_devices().is_empty());
    assert_eq!(trace.recoveries, 1);
    assert_eq!(trace.repartitions, 0, "transients keep the partitioning");
    assert!(trace.replayed_launches >= 1);
}

#[test]
fn zip_recovers_bit_identically_from_a_device_loss() {
    let xs = test_data(190);
    let ys: Vec<f32> = xs.iter().rev().copied().collect();
    let expected: Vec<f32> = xs.iter().zip(&ys).map(|(x, y)| 2.0 * x + y).collect();
    let rt = skelcl::init_gpus(3);
    rt.inject_faults(&FaultPlan::new().device_lost_at_op(2, 2));
    let x = Vector::from_vec(&rt, xs);
    let y = Vector::from_vec(&rt, ys);
    let saxpy = Zip::<f32, f32, f32>::from_source(SAXPY);
    let out = x.zip(&y, &saxpy).unwrap();
    assert_eq!(out.to_vec().unwrap(), expected);
    assert_eq!(rt.exec_trace().recoveries, 1);
    assert_eq!(rt.lost_devices(), vec![2]);
}

#[test]
fn reduce_recovers_exactly_from_a_device_loss() {
    let data = test_data(301);
    let expected: f32 = data.iter().sum(); // exact: small integers
    let rt = skelcl::init_gpus(4);
    rt.inject_faults(&FaultPlan::new().device_lost_at_op(3, 1));
    let v = Vector::from_vec(&rt, data);
    let sum = Reduce::<f32>::from_source(ADD);
    assert_eq!(v.reduce(&sum).unwrap(), expected);
    let trace = rt.exec_trace();
    assert_eq!(trace.recoveries, 1);
    assert!(trace.repartitions >= 1);
}

/// Per device a reduce is: input write (op 1), kernel (op 2), partials read
/// (op 3). Every device leaves several partials here (1000 elements → 3).
#[test]
fn reduce_recovers_from_a_transient_fault_on_a_partials_read() {
    let data = test_data(2000);
    let expected: f32 = data.iter().sum(); // exact: small integers
    let rt = skelcl::init_gpus(2);
    rt.inject_faults(&FaultPlan::new().transient_transfer_at_op(1, 3));
    let v = Vector::from_vec(&rt, data);
    let sum = Reduce::<f32>::from_source(ADD);
    let (value, plan) = sum.run(&v).scalar_with_plan().unwrap();
    assert_eq!(value, expected);
    assert_eq!(plan.intermediate_results, 6);
    let trace = rt.exec_trace();
    assert!(rt.lost_devices().is_empty());
    assert_eq!(trace.recoveries, 1);
    assert_eq!(trace.repartitions, 0, "transients keep the partitioning");
    // The failed gather left nothing behind: no latched error, and the
    // next reduction runs clean.
    assert!(rt.take_deferred_errors().is_empty());
    assert_eq!(v.reduce(&sum).unwrap(), expected);
    assert_eq!(rt.exec_trace().recoveries, 1);
}

#[test]
fn reduce_recovers_from_a_device_loss_between_kernel_and_gather() {
    let data = test_data(4000);
    let expected: f32 = data.iter().sum();
    let rt = skelcl::init_gpus(4);
    // Device 2 runs its kernel and dies on the partials read.
    rt.inject_faults(&FaultPlan::new().device_lost_at_op(2, 3));
    let v = Vector::from_vec(&rt, data);
    let sum = Reduce::<f32>::from_source(ADD);
    assert_eq!(v.reduce(&sum).unwrap(), expected);
    let trace = rt.exec_trace();
    assert_eq!(rt.lost_devices(), vec![2]);
    assert_eq!(trace.recoveries, 1);
    assert!(trace.repartitions >= 1, "a loss forces a re-partition");
    assert!(rt.take_deferred_errors().is_empty());

    // With the only copy of its part on the lost device, the same loss is a
    // typed error, never a wrong sum.
    let rt = skelcl::init_gpus(2);
    let v = Vector::from_vec(&rt, test_data(2000));
    v.copy_data_to_devices().unwrap();
    v.mark_device_modified();
    rt.inject_faults(&FaultPlan::new().device_lost_at_op(1, 2));
    let err = v.reduce(&sum).unwrap_err();
    assert!(err.is_device_lost(), "{err:?}");
}

#[test]
fn iterative_stencil_recovers_mid_run_via_checkpoints() {
    let (rows, cols, sweeps) = (24, 10, 8);
    let image = test_data(rows * cols);
    let mut expected = image.clone();
    for _ in 0..sweeps {
        expected = host_heat(&expected, rows, cols);
    }
    let rt = skelcl::init_gpus(2);
    // Let a few sweeps complete, then kill device 1 mid-run: op 20 lands
    // well inside the sweep loop (each sweep costs a handful of ops).
    rt.inject_faults(&FaultPlan::new().device_lost_at_op(1, 20));
    let heat = MapOverlap::<f32, f32>::from_source(HEAT_STEP)
        .with_halo(1)
        .with_boundary(Boundary::Constant(0.0));
    let m = Matrix::from_vec(&rt, rows, cols, image).unwrap();
    let out = heat.run(&m).checkpoint_every(2).run_iter(sweeps).unwrap();
    assert_eq!(
        out.to_vec().unwrap(),
        expected,
        "recovered run must be bit-identical to the fault-free oracle"
    );
    let trace = rt.exec_trace();
    assert_eq!(rt.lost_devices(), vec![1]);
    assert!(trace.recoveries >= 1);
    assert!(trace.checkpoint_bytes > 0, "checkpointing was armed");
}

// ---------------------------------------------------------------------------
// Faults inside the halo exchange
// ---------------------------------------------------------------------------

/// The commands of a between-sweeps halo exchange a fault can strike: the
/// owner's row read, the destination's forwarded write, the on-device copy
/// of an edge row whose owner is the destination itself, and the fill of a
/// constant-boundary edge row.
#[derive(Debug, Clone, Copy, PartialEq)]
enum HaloCommand {
    Read,
    Forward,
    LocalCopy,
    Fill,
}

#[derive(Debug, Clone, Copy)]
struct HaloCase {
    devices: usize,
    halo: usize,
    boundary: Boundary<f32>,
    checkpoint_every: usize,
}

const HALO_ROWS: usize = 48;
const HALO_COLS: usize = 6;
const HALO_SWEEPS: usize = 6;

impl HaloCase {
    fn run(&self, rt: &std::sync::Arc<skelcl::SkelCl>) -> Result<Vec<f32>> {
        let heat = MapOverlap::<f32, f32>::from_source(HEAT_STEP)
            .with_halo(self.halo)
            .with_boundary(self.boundary);
        let m = Matrix::from_vec(rt, HALO_ROWS, HALO_COLS, test_data(HALO_ROWS * HALO_COLS))?;
        heat.run(&m)
            .checkpoint_every(self.checkpoint_every)
            .run_iter(HALO_SWEEPS)?
            .to_vec()
    }

    /// `(device, op)` of the third `what` command some device executes in a
    /// fault-free run — mid-run, when the only current state is
    /// device-resident. A fault-free queue logs every command in op order,
    /// so the log index is the op number. Halo traffic is told from uploads
    /// and gathers (whole parts, ≥ 12 rows) by its size: ≤ `halo` rows. A
    /// small write is a fill under a constant boundary (the cases below
    /// strike those on one device, where nothing is forwarded) and a
    /// forward otherwise.
    fn third_op(&self, what: HaloCommand) -> (usize, usize) {
        let rt = skelcl::init_gpus(self.devices);
        self.run(&rt).unwrap();
        let halo_bytes = self.halo * HALO_COLS * 4;
        let constant = matches!(self.boundary, Boundary::Constant(_));
        let target = rt
            .drain_events()
            .iter()
            .enumerate()
            .find_map(|(device, log)| {
                log.iter()
                    .enumerate()
                    .filter(|(_, e)| {
                        e.is_transfer()
                            && e.bytes <= halo_bytes
                            && match what {
                                HaloCommand::Read => e.is_read(),
                                HaloCommand::Forward => e.is_write() && !constant,
                                HaloCommand::Fill => e.is_write() && constant && self.devices == 1,
                                HaloCommand::LocalCopy => !e.is_read() && !e.is_write(),
                            }
                    })
                    .nth(2)
                    .map(|(index, _)| (device, index + 1))
            });
        target.unwrap_or_else(|| panic!("{self:?} has no {what:?} to strike"))
    }

    /// Strike the third `what` command with `kind` and check the contract:
    /// the run recovers to the fault-free bits and leaves nothing behind.
    fn strike(&self, what: HaloCommand, kind: FaultKind) {
        let (device, op) = self.third_op(what);
        let mut expected = test_data(HALO_ROWS * HALO_COLS);
        for _ in 0..HALO_SWEEPS {
            expected = host_heat_bounded(&expected, HALO_ROWS, HALO_COLS, self.boundary);
        }
        let rt = skelcl::init_gpus(self.devices);
        rt.inject_faults(&FaultPlan::new().with(FaultSpec {
            device,
            trigger: FaultTrigger::AtOpCount(op),
            kind,
        }));
        let what = format!("{kind:?} on {what:?} (device {device}, op {op}) in {self:?}");
        // Every case below is recoverable: transients replay in place, and
        // a loss rolls back to the last checkpoint or the host-valid input.
        let out = self
            .run(&rt)
            .unwrap_or_else(|e| panic!("{what}: not recovered: {e:?}"));
        assert_eq!(out, expected, "{what}: recovered ≢ fault-free");
        let trace = rt.exec_trace();
        assert_eq!(trace.faults_injected, 1, "{what}: the fault must fire");
        assert!(
            trace.recoveries >= 1 || !rt.lost_devices().is_empty(),
            "{what}"
        );
        assert!(
            rt.take_deferred_errors().is_empty(),
            "{what}: latch left behind"
        );
        for d in 0..self.devices {
            let live = rt.context().device(d).unwrap().live_buffers();
            assert_eq!(live, 0, "{what}: device {d} strands {live} buffer(s)");
        }
    }
}

#[test]
fn halo_exchange_faults_recover_bit_identically() {
    use HaloCommand::{Fill, Forward, LocalCopy, Read};
    let cases: [(usize, usize, Boundary<f32>, &[HaloCommand]); 7] = [
        (4, 1, Boundary::Clamp, &[Read, Forward, LocalCopy]),
        (2, 1, Boundary::Constant(0.0), &[Read]),
        (1, 1, Boundary::Constant(0.0), &[Fill]),
        // Wrap: the owner is the destination itself on both edges of a
        // single device; two devices exchange rows both ways.
        (1, 1, Boundary::Wrap, &[LocalCopy]),
        (2, 1, Boundary::Wrap, &[Read, Forward]),
        // Wider halos travel as one multi-row segment per neighbour.
        (3, 2, Boundary::Wrap, &[Read, Forward]),
        (2, 4, Boundary::Clamp, &[Read, Forward, LocalCopy]),
    ];
    for checkpoint_every in [0, 2] {
        for (devices, halo, boundary, commands) in cases {
            let case = HaloCase {
                devices,
                halo,
                boundary,
                checkpoint_every,
            };
            for &what in commands {
                case.strike(what, FaultKind::TransientTransfer);
                // The owner's read succeeds, then the destination dies on
                // the forward; or a device dies on its own edge copy.
                if devices > 1 && matches!(what, Forward | LocalCopy) {
                    case.strike(what, FaultKind::DeviceLost);
                }
            }
        }
    }
}

/// A launch that fails for a reason recovery cannot fix — a kernel runtime
/// error: `100 / x` meets a zero in the middle of the input — returns a typed
/// error, leaves no latched error behind and gives back every buffer it had
/// allocated: the fresh outputs of an eager map, zip, index map and scan, and
/// the in-flight intermediate of a vector or matrix plan whose last group
/// fails. A `run_into` target keeps its buffers and stays usable.
#[test]
fn failed_launches_release_what_they_allocated() {
    const INV: &str = "float func(float x) { return (float) (100 / (int) x); }";
    type Case = (
        &'static str,
        fn(&std::sync::Arc<skelcl::SkelCl>, Vec<f32>) -> bool,
    );
    fn f32_map(source: &str) -> Map<f32, f32> {
        Map::from_source(source)
    }
    let cases: [Case; 7] = [
        ("map", |rt, data| {
            let inv = Map::<f32, f32>::from_source(INV);
            inv.run(&Vector::from_vec(rt, data)).exec().is_err()
        }),
        ("zip", |rt, data| {
            let inv = Zip::<f32, f32, f32>::from_source(
                "float func(float x, float y) { return y + (float) (100 / (int) x); }",
            );
            let (x, y) = (
                Vector::from_vec(rt, data.clone()),
                Vector::from_vec(rt, data),
            );
            inv.run(&x, &y).exec().is_err()
        }),
        ("index map", |rt, data| {
            let inv = Map::<i32, i32>::from_source("int func(int i) { return 100 / (i - 100); }");
            inv.run_index(rt, data.len()).exec().is_err()
        }),
        ("scan", |rt, data| {
            let inv = Scan::<f32>::from_source(
                "float func(float a, float b) { return a + (float) (100 / (int) b); }",
            );
            inv.run(&Vector::from_vec(rt, data)).exec().is_err()
        }),
        ("run_into", |rt, data| {
            let (inv, double) = (f32_map(INV), f32_map(DOUBLE));
            let n = data.len();
            let v = Vector::from_vec(rt, data);
            // A cold target (the launch allocates for it) and a warm one.
            let out = Vector::from_vec(rt, vec![0.0f32; n]);
            let failed = inv.run(&v).run_into(&out).is_err();
            double.run(&v).run_into(&out).unwrap();
            let failed = failed && inv.run(&v).run_into(&out).is_err();
            double.run(&v).run_into(&out).unwrap();
            failed && out.to_vec().unwrap() == oracle(0, &v.to_vec().unwrap())
        }),
        ("3-group plan", |rt, data| {
            let (inv, double) = (f32_map(INV), f32_map(DOUBLE));
            let plan = Vector::from_vec(rt, data)
                .lazy()
                .policy(FusionPolicy::Never);
            plan.map(&double).map(&double).map(&inv).exec().is_err()
        }),
        ("2-group matrix plan", |rt, data| {
            let (inv, double) = (f32_map(INV), f32_map(DOUBLE));
            let m = Matrix::from_vec(rt, data.len() / 8, 8, data).unwrap();
            let plan = m.lazy().policy(FusionPolicy::Never);
            plan.map(&double).map(&inv).exec().is_err()
        }),
    ];
    for devices in [1usize, 2] {
        for (name, failing) in &cases {
            let rt = skelcl::init_gpus(devices);
            let mut data: Vec<f32> = (1..=256).map(|i| (i % 16 + 1) as f32).collect();
            data[100] = 0.0;
            let what = format!("{name} on {devices} device(s)");
            assert!(failing(&rt, data), "{what}: expected a typed error");
            assert!(
                rt.take_deferred_errors().is_empty(),
                "{what}: latch left behind"
            );
            for d in 0..devices {
                let live = rt.context().device(d).unwrap().live_buffers();
                assert_eq!(live, 0, "{what}: device {d} strands {live} buffer(s)");
            }
        }
    }
}

#[test]
fn unrecoverable_state_degrades_to_a_typed_error_not_wrong_data() {
    // The lost device holds the *only* copy of its input part (the host
    // copy is stale), so recovery cannot re-partition: the launch must
    // surface a typed DeviceLost error instead of fabricating data.
    let rt = skelcl::init_gpus(2);
    let v = Vector::from_vec(&rt, test_data(64));
    v.copy_data_to_devices().unwrap();
    v.mark_device_modified(); // host copy is now stale
    rt.inject_faults(&FaultPlan::new().device_lost_at_op(1, 1));
    let dbl = Map::<f32, f32>::from_source(DOUBLE);
    let err = v.map(&dbl).unwrap_err();
    assert!(err.is_device_lost(), "{err:?}");
    assert_eq!(rt.exec_trace().recoveries, 0);
}

#[test]
fn losing_every_device_fails_gracefully() {
    let rt = skelcl::init_gpus(2);
    rt.inject_faults(
        &FaultPlan::new()
            .device_lost_at_op(0, 1)
            .device_lost_at_op(1, 1),
    );
    let v = Vector::from_vec(&rt, test_data(64));
    let dbl = Map::<f32, f32>::from_source(DOUBLE);
    let err = v.map(&dbl).unwrap_err();
    assert!(err.is_device_lost(), "{err:?}");
    assert_eq!(rt.lost_devices(), vec![0, 1]);
}

#[test]
fn fault_free_run_is_bitwise_and_virtual_time_identical_with_recovery_on_or_off() {
    let run = |recovery: bool| {
        let rt = skelcl::init_gpus(3);
        rt.set_recovery_enabled(recovery);
        // A dormant plan must also be free.
        rt.inject_faults(&FaultPlan::new().device_lost_at_op(0, 1_000_000));
        let v = Vector::from_vec(&rt, test_data(200));
        let dbl = Map::<f32, f32>::from_source(DOUBLE);
        let sum = Reduce::<f32>::from_source(ADD);
        let mapped = v.map(&dbl).unwrap();
        let total = mapped.reduce(&sum).unwrap();
        let heat = MapOverlap::<f32, f32>::from_source(HEAT_STEP)
            .with_halo(1)
            .with_boundary(Boundary::Constant(0.0));
        let m = Matrix::from_vec(&rt, 10, 20, test_data(200)).unwrap();
        let stencil = heat.run(&m).run_iter(3).unwrap().to_vec().unwrap();
        let trace = rt.exec_trace();
        assert_eq!(trace.recoveries, 0);
        assert_eq!(trace.replayed_launches, 0);
        assert_eq!(trace.repartitions, 0);
        (mapped.to_vec().unwrap(), total, stencil, rt.now())
    };
    assert_eq!(
        run(true),
        run(false),
        "recovery must cost nothing when no fault fires"
    );
}

// ---------------------------------------------------------------------------
// Property: random deterministic fault schedules never corrupt results
// ---------------------------------------------------------------------------

/// Outcome of one chaos run, comparable across repetitions.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Ok(Vec<f32>),
    InjectedFault(String),
}

fn run_chaos(
    skeleton: usize,
    devices: usize,
    data: &[f32],
    specs: &[(usize, usize, usize)],
) -> Outcome {
    let rt = skelcl::init_gpus(devices);
    let mut plan = FaultPlan::new();
    for &(device, op, kind) in specs {
        let kind = match kind {
            0 => FaultKind::DeviceLost,
            1 => FaultKind::TransientTransfer,
            _ => FaultKind::TransientLaunch,
        };
        plan = plan.with(FaultSpec {
            device: device % devices,
            trigger: FaultTrigger::AtOpCount(op),
            kind,
        });
    }
    rt.inject_faults(&plan);
    let result: Result<Vec<f32>> = match skeleton {
        0 => {
            let v = Vector::from_vec(&rt, data.to_vec());
            let dbl = Map::<f32, f32>::from_source(DOUBLE);
            v.map(&dbl).and_then(|out| out.to_vec())
        }
        1 => {
            let x = Vector::from_vec(&rt, data.to_vec());
            let ys: Vec<f32> = data.iter().rev().copied().collect();
            let y = Vector::from_vec(&rt, ys);
            let saxpy = Zip::<f32, f32, f32>::from_source(SAXPY);
            x.zip(&y, &saxpy).and_then(|out| out.to_vec())
        }
        2 => {
            let v = Vector::from_vec(&rt, data.to_vec());
            let sum = Reduce::<f32>::from_source(ADD);
            v.reduce(&sum).map(|total| vec![total])
        }
        _ => {
            let heat = MapOverlap::<f32, f32>::from_source(HEAT_STEP)
                .with_halo(1)
                .with_boundary(Boundary::Constant(0.0));
            let m = Matrix::from_vec(&rt, data.len(), 1, data.to_vec()).unwrap();
            heat.run(&m)
                .checkpoint_every(2)
                .run_iter(3)
                .and_then(|out| out.to_vec())
        }
    };
    match result {
        Ok(out) => Outcome::Ok(out),
        Err(e) => {
            assert!(
                e.is_injected_fault(),
                "a chaos run may only fail with a typed injected-fault error, got {e:?}"
            );
            Outcome::InjectedFault(e.to_string())
        }
    }
}

fn oracle(skeleton: usize, data: &[f32]) -> Vec<f32> {
    match skeleton {
        0 => data.iter().map(|x| 2.0 * x).collect(),
        1 => {
            let ys: Vec<f32> = data.iter().rev().copied().collect();
            data.iter().zip(&ys).map(|(x, y)| 2.0 * x + y).collect()
        }
        2 => vec![data.iter().sum()],
        _ => {
            let mut cur = data.to_vec();
            for _ in 0..3 {
                cur = host_heat(&cur, data.len(), 1);
            }
            cur
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// For any skeleton, device count and random deterministic fault
    /// schedule: the run either recovers to the exact fault-free oracle or
    /// fails with a typed injected-fault error — and repeating it with the
    /// same schedule reproduces the same outcome bit for bit.
    #[test]
    fn random_fault_schedules_recover_exactly_or_fail_typed(
        raw in prop::collection::vec(0u8..16, 1..160),
        devices in 1usize..=4,
        specs in prop::collection::vec((0usize..4, 1usize..12, 0usize..3), 0..4),
        skeleton in 0usize..4,
    ) {
        let data: Vec<f32> = raw.iter().map(|&x| x as f32).collect();
        let first = run_chaos(skeleton, devices, &data, &specs);
        let second = run_chaos(skeleton, devices, &data, &specs);
        prop_assert_eq!(&first, &second, "chaos runs must be reproducible");
        if let Outcome::Ok(out) = first {
            prop_assert_eq!(out, oracle(skeleton, &data));
        }
    }
}
