//! Chaos suite: deterministic fault injection against every data-parallel
//! skeleton.
//!
//! The contract under test is *never silently wrong*: with an arbitrary
//! deterministic [`FaultPlan`] armed, a skeleton launch either recovers and
//! produces a result **bit-identical** to the fault-free oracle, or fails
//! with a typed injected-fault error — corrupted output is the one outcome
//! that must not exist. On top of that, the recovery layer must be free on
//! the fault-free path (bitwise and virtual-time identical with recovery on
//! or off) and every run must be reproducible (same plan ⇒ same outcome):
//! fault triggers are virtual-schedule-deterministic, so CI runs the suite
//! under `--test-threads=1` and the default parallelism, and wall-clock test
//! interleaving must not change a single outcome — including the failed
//! launches, which must release what they allocated.

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
// Every launch owns the outcome of its own uploads
// ---------------------------------------------------------------------------

type Runtime = std::sync::Arc<skelcl::SkelCl>;

const CHAIN_LEN: usize = 128;
const CHAIN_ROWS: usize = 16;

/// The inputs of the chains below. They outlive a failed call, so repeating
/// the call shows whether a container still believes in an upload that
/// never landed.
struct ChainInputs {
    x: Vector<f32>,
    y: Vector<f32>,
    table: Vector<f32>,
    m: Matrix<f32>,
}

impl ChainInputs {
    fn new(rt: &Runtime) -> ChainInputs {
        let xs = test_data(CHAIN_LEN);
        let table = Vector::from_vec(rt, vec![2.0f32, 3.0]);
        table.set_distribution(Distribution::Copy).unwrap();
        ChainInputs {
            y: Vector::from_vec(rt, xs.iter().rev().copied().collect()),
            m: Matrix::from_vec(rt, CHAIN_ROWS, CHAIN_LEN / CHAIN_ROWS, xs.clone()).unwrap(),
            x: Vector::from_vec(rt, xs),
            table,
        }
    }
}

/// `out[i] = x[i] * table[x[i] mod 2]`, the table a copy-distributed vector
/// additional argument (the index is safe whatever a buffer holds).
fn table_scale() -> Map<f32, f32> {
    Map::new(|x, args| {
        let table = args.slice_f32(0);
        x * table[(*x as usize) % table.len()]
    })
}

type Chain = (
    &'static str,
    fn(&ChainInputs) -> Result<Vec<f32>>,
    fn(&[f32]) -> Vec<f32>,
);

/// Eager chains whose first call uploads and whose later calls consume what
/// the first produced, each with its host oracle over `test_data(CHAIN_LEN)`.
const CHAINS: [Chain; 5] = [
    (
        "map -> reduce",
        |i| {
            let doubled = i.x.map(&Map::from_source(DOUBLE))?;
            Ok(vec![doubled.reduce(&Reduce::from_source(ADD))?])
        },
        |xs| oracle(11, xs),
    ),
    (
        "zip -> reduce",
        |i| {
            let zipped = i.x.zip(&i.y, &Zip::from_source(SAXPY))?;
            Ok(vec![zipped.reduce(&Reduce::from_source(ADD))?])
        },
        |xs| vec![oracle(1, xs).iter().sum()],
    ),
    (
        "map -> map -> to_vec",
        |i| {
            let dbl = Map::<f32, f32>::from_source(DOUBLE);
            i.x.map(&dbl)?.map(&dbl)?.to_vec()
        },
        |xs| xs.iter().map(|x| 4.0 * x).collect(),
    ),
    (
        "closure map with a copy-distributed vector argument",
        |i| table_scale().run(&i.x).arg(&i.table).exec()?.to_vec(),
        |xs| xs.iter().map(|x| x * [2.0, 3.0][*x as usize % 2]).collect(),
    ),
    (
        "MapOverlap::run_iter(3)",
        |i| {
            let heat = MapOverlap::<f32, f32>::from_source(HEAT_STEP)
                .with_boundary(Boundary::Constant(0.0));
            heat.run(&i.m).run_iter(3)?.to_vec()
        },
        |xs| {
            (0..3).fold(xs.to_vec(), |cur, _| {
                host_heat(&cur, CHAIN_ROWS, CHAIN_LEN / CHAIN_ROWS)
            })
        },
    ),
];

/// A transient fault on *any* transfer of a chain — the first call's input
/// upload above all — must surface in the call that enqueued it: the chain
/// returns the host oracle bit for bit or a typed injected-fault error, never
/// another `Ok`. (Before the call path owned its uploads, `map -> reduce`
/// with the upload struck returned `Ok(0.0)`: the map handed on a buffer the
/// data never reached, and the *reduce's* recovery replayed on it.) After a
/// typed error the same call, repeated on the same containers, returns the
/// oracle — the failed upload is not believed — and nothing stays latched or
/// allocated.
#[test]
fn a_failed_upload_never_reaches_the_next_call() {
    for (name, chain, oracle) in CHAINS {
        let expected = bits(&oracle(&test_data(CHAIN_LEN)));
        for devices in [1usize, 2] {
            // Every command device 0 executes in a fault-free run is one op.
            let rt = skelcl::init_gpus(devices);
            assert_eq!(bits(&chain(&ChainInputs::new(&rt)).unwrap()), expected);
            let ops = rt.drain_events()[0].len();
            assert!(ops >= 3, "{name}: upload, launch, download at least");
            for recovery in [true, false] {
                for op in 1..=ops {
                    let what = format!(
                        "{name}, {devices} device(s), recovery {recovery}, transfer fault at op {op}"
                    );
                    let rt = skelcl::init_gpus(devices);
                    rt.set_recovery_enabled(recovery);
                    rt.inject_faults(&FaultPlan::new().transient_transfer_at_op(0, op));
                    let inputs = ChainInputs::new(&rt);
                    match chain(&inputs) {
                        Ok(out) => assert_eq!(bits(&out), expected, "{what}: wrong data"),
                        Err(e) => {
                            assert!(e.is_injected_fault(), "{what}: {e:?}");
                            let again = chain(&inputs)
                                .unwrap_or_else(|e| panic!("{what}: repeated call: {e:?}"));
                            assert_eq!(bits(&again), expected, "{what}: repeated call");
                        }
                    }
                    assert!(
                        rt.take_deferred_errors().is_empty(),
                        "{what}: latch left behind"
                    );
                    drop(inputs);
                    for d in 0..devices {
                        let live = rt.context().device(d).unwrap().live_buffers();
                        assert_eq!(live, 0, "{what}: device {d} strands {live} buffer(s)");
                    }
                }
            }
        }
    }
}

/// A failed attempt distrusts its vector additional arguments too, so the
/// replay uploads them again — and a replicated argument must still be
/// uploadable when a device is gone: its replica there is simply left out.
#[test]
fn a_replicated_vector_argument_survives_a_device_loss() {
    let (name, chain, oracle) = CHAINS[3];
    let expected = bits(&oracle(&test_data(CHAIN_LEN)));
    // Device 1's commands: its part of x (op 1), its replica of the table
    // (op 2), the kernel (op 3).
    for op in 1..=3 {
        let rt = skelcl::init_gpus(3);
        rt.inject_faults(&FaultPlan::new().device_lost_at_op(1, op));
        let out = chain(&ChainInputs::new(&rt))
            .unwrap_or_else(|e| panic!("{name}, device lost at op {op}: {e:?}"));
        assert_eq!(bits(&out), expected, "{name}, device lost at op {op}");
        let trace = rt.exec_trace();
        assert_eq!((trace.recoveries, trace.repartitions), (1, 1), "op {op}");
        assert_eq!(rt.lost_devices(), vec![1]);
    }
}

// ---------------------------------------------------------------------------
// Scan, index map and vector plans recover like every other launch
// ---------------------------------------------------------------------------

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

type Path = (&'static str, fn(&Runtime, &Vector<f32>) -> Result<Vec<f32>>);

/// The launches that ran outside the recovery wrapper before there was one
/// call path: every terminal form of an eager scan, index maps (which ignore
/// the vector), and lazy vector plans, fused or not.
const PATHS: [Path; 12] = [
    ("source scan", |_, v| {
        v.scan(&Scan::from_source(ADD))?.to_vec()
    }),
    ("closure scan", |_, v| {
        v.scan(&Scan::new(|a, b| a + b))?.to_vec()
    }),
    ("scan run_into", |rt, v| {
        let out = Vector::from_vec(rt, vec![0.0f32; v.len()]);
        Scan::from_source(ADD).run(v).run_into(&out)?;
        out.to_vec()
    }),
    ("scan trace", |_, v| {
        // The trace depends on the partition (which a recovery changes), the
        // result does not: offsets ⊕ local scans must rebuild it.
        let (out, trace) = Scan::new(|a, b| a + b).run(v).trace()?;
        let parts = trace.local_scans.iter().zip(&trace.offsets);
        let rebuilt: Vec<f32> = parts
            .flat_map(|(part, offset)| part.iter().map(move |x| offset.map_or(*x, |o| o + x)))
            .collect();
        assert_eq!(rebuilt, out.to_vec()?);
        Ok(rebuilt)
    }),
    ("source index map", |rt, _| {
        let idx = Map::<i32, f32>::from_source("float func(int i) { return 3.0f * i + 1.0f; }");
        idx.run_index(rt, 200).exec()?.to_vec()
    }),
    ("closure index map", |rt, _| {
        let idx = Map::<i32, f32>::new(|i, _| 3.0 * *i as f32 + 1.0);
        idx.run_index(rt, 200).exec()?.to_vec()
    }),
    ("plan map∘map, unfused", |_, v| {
        map_map(v, FusionPolicy::Never)
    }),
    ("plan map∘map", |_, v| map_map(v, FusionPolicy::Auto)),
    ("plan zip∘reduce, unfused", |rt, v| {
        zip_reduce(rt, v, FusionPolicy::Never)
    }),
    ("plan zip∘reduce", |rt, v| {
        zip_reduce(rt, v, FusionPolicy::Auto)
    }),
    ("plan map∘scan, unfused", |_, v| {
        map_scan(v, FusionPolicy::Never)
    }),
    ("plan map∘scan", |_, v| map_scan(v, FusionPolicy::Auto)),
];

fn map_map(v: &Vector<f32>, policy: FusionPolicy) -> Result<Vec<f32>> {
    let dbl = Map::<f32, f32>::from_source(DOUBLE);
    v.lazy().policy(policy).map(&dbl).map(&dbl).collect()
}

fn zip_reduce(rt: &Runtime, v: &Vector<f32>, policy: FusionPolicy) -> Result<Vec<f32>> {
    let w = Vector::from_vec(rt, v.to_vec()?.into_iter().rev().collect());
    let plan = v.lazy().policy(policy).zip(&w, &Zip::from_source(SAXPY));
    Ok(vec![plan.reduce(&Reduce::from_source(ADD)).scalar()?])
}

fn map_scan(v: &Vector<f32>, policy: FusionPolicy) -> Result<Vec<f32>> {
    let plan = v.lazy().policy(policy).map(&Map::from_source(DOUBLE));
    plan.scan(&Scan::from_source(ADD)).collect()
}

#[test]
fn scan_index_map_and_vector_plans_recover_bit_identically() {
    for (name, path) in PATHS {
        let fault_free = {
            let rt = skelcl::init_gpus(3);
            bits(&path(&rt, &Vector::from_vec(&rt, test_data(200))).unwrap())
        };
        let faults = [
            // The first kernel device 0 is handed fails once.
            (
                "a transient launch fault",
                FaultPlan::new().transient_launch_at_op(0, 1),
            ),
            // Device 1 dies on its first command: an upload, or the index
            // map's launch. The sources are host-valid.
            ("a device loss", FaultPlan::new().device_lost_at_op(1, 1)),
        ];
        for (fault, plan) in faults {
            let what = format!("{name} under {fault}");
            let rt = skelcl::init_gpus(3);
            rt.inject_faults(&plan);
            let out = path(&rt, &Vector::from_vec(&rt, test_data(200)))
                .unwrap_or_else(|e| panic!("{what}: not recovered: {e:?}"));
            assert_eq!(bits(&out), fault_free, "{what}: recovered ≢ fault-free");
            let trace = rt.exec_trace();
            assert_eq!(trace.faults_injected, 1, "{what}: the fault must fire");
            assert_eq!(trace.recoveries, 1, "{what}");
            let lost = rt.lost_devices().len();
            assert_eq!(trace.repartitions, lost, "{what}: re-partition iff lost");
            assert!(rt.take_deferred_errors().is_empty(), "{what}");
        }
        // With the only copy of a part on the lost device the same loss is
        // a typed error, never invented data. (An index map has no input to
        // lose.)
        if !name.contains("index map") {
            let rt = skelcl::init_gpus(3);
            let v = Vector::from_vec(&rt, test_data(200));
            v.copy_data_to_devices().unwrap();
            v.mark_device_modified();
            rt.inject_faults(&FaultPlan::new().device_lost_at_op(1, 2));
            let err = path(&rt, &v).unwrap_err();
            assert!(err.is_device_lost(), "{name}: {err:?}");
            assert_eq!(rt.exec_trace().recoveries, 0, "{name}");
        }
    }
}

// ---------------------------------------------------------------------------
// Faults inside the halo exchange
// ---------------------------------------------------------------------------

/// The commands of an iterative stencil a fault can strike between sweeps:
/// the owner's row read of a halo exchange, the destination's forwarded
/// write, the on-device copy of an edge row whose owner is the destination
/// itself, the fill of a constant-boundary edge row — and a sweep's kernel,
/// which at ghost depth 2 is the second sweep of its block, the one no
/// exchange precedes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum HaloCommand {
    Read,
    Forward,
    LocalCopy,
    Fill,
    Kernel,
}

#[derive(Debug, Clone, Copy)]
struct HaloCase {
    devices: usize,
    halo: usize,
    boundary: Boundary<f32>,
    checkpoint_every: usize,
    /// Sweeps per halo exchange (forced, so the struck op is known).
    depth: usize,
}

const HALO_ROWS: usize = 48;
const HALO_COLS: usize = 6;
/// Blocks of 2, 2, 2 and 1 sweeps at depth 2: the upload covers the first,
/// the other three start with an exchange.
const HALO_SWEEPS: usize = 7;

impl HaloCase {
    fn run(&self, rt: &std::sync::Arc<skelcl::SkelCl>) -> Result<Vec<f32>> {
        let heat = MapOverlap::<f32, f32>::from_source(HEAT_STEP)
            .with_halo(self.halo)
            .with_boundary(self.boundary);
        let m = Matrix::from_vec(rt, HALO_ROWS, HALO_COLS, test_data(HALO_ROWS * HALO_COLS))?;
        heat.run(&m)
            .checkpoint_every(self.checkpoint_every)
            .run_iter_at_depth(HALO_SWEEPS, self.depth)?
            .to_vec()
    }

    /// `(device, op)` of the third `what` command some device executes in a
    /// fault-free run (the fourth kernel: at depth 2 the second sweep of the
    /// second block) — mid-run, when the only current state is
    /// device-resident. A fault-free queue logs every command in op order,
    /// so the log index is the op number. Halo traffic is told from uploads
    /// and gathers (whole parts, ≥ 12 rows) by its size: ≤ `depth · halo`
    /// rows. A small write is a fill under a constant boundary (the cases
    /// below strike those on one device, where nothing is forwarded) and a
    /// forward otherwise.
    fn third_op(&self, what: HaloCommand) -> (usize, usize) {
        let rt = skelcl::init_gpus(self.devices);
        self.run(&rt).unwrap();
        let halo_bytes = self.depth * self.halo * HALO_COLS * 4;
        let constant = matches!(self.boundary, Boundary::Constant(_));
        let target = rt
            .drain_events()
            .iter()
            .enumerate()
            .find_map(|(device, log)| {
                log.iter()
                    .enumerate()
                    .filter(|(_, e)| match what {
                        HaloCommand::Kernel => e.is_kernel(),
                        _ if !e.is_transfer() || e.bytes > halo_bytes => false,
                        HaloCommand::Read => e.is_read(),
                        HaloCommand::Forward => e.is_write() && !constant,
                        HaloCommand::Fill => e.is_write() && constant && self.devices == 1,
                        HaloCommand::LocalCopy => !e.is_read() && !e.is_write(),
                    })
                    .nth(if what == HaloCommand::Kernel { 3 } else { 2 })
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
    use HaloCommand::{Fill, Forward, Kernel, LocalCopy, Read};
    let cases: [(usize, usize, Boundary<f32>, &[HaloCommand]); 7] = [
        (4, 1, Boundary::Clamp, &[Read, Forward, LocalCopy, Kernel]),
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
    for (checkpoint_every, depth) in [(0, 1), (2, 1), (0, 2), (2, 2)] {
        for (devices, halo, boundary, commands) in cases {
            let case = HaloCase {
                devices,
                halo,
                boundary,
                checkpoint_every,
                // One device has nobody to exchange with: depth 1 whatever
                // is asked for.
                depth: if devices == 1 { 1 } else { depth },
            };
            for &what in commands {
                let transient = match what {
                    Kernel => FaultKind::TransientLaunch,
                    _ => FaultKind::TransientTransfer,
                };
                case.strike(what, transient);
                // The owner's read succeeds, then the destination dies on
                // the forward; or a device dies on its own edge copy, or in
                // the middle of a block.
                if devices > 1 && matches!(what, Forward | LocalCopy | Kernel) {
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

/// A packed launch that fails *while it is being prepared* — its second
/// allocation does not fit the device, here with a kernel ahead of it on
/// the queue — submits nothing: it moves no clock and logs no event, and its
/// buffers go straight back to the pool. A launch the device rejects after
/// it was submitted is drained before its buffers are released. Either way
/// the next batch on the device is correct and nothing stays allocated.
#[test]
fn failed_packed_launches_leave_their_queue_clean() {
    use skelcl::oclsim::{CommandKind, CostHint, DeviceProfile, NativeKernelDef, OclError};
    // 200 floats fit once, not twice — not even next to one partial.
    let rt = skelcl::init_profiles(vec![DeviceProfile {
        memory_bytes: 800,
        ..DeviceProfile::tesla_c1060()
    }]);
    let device = rt.context().device(0).unwrap().clone();
    let ahead = NativeKernelDef::new("ahead", CostHint::DEFAULT, |_| Ok(()));
    let ahead = rt
        .context()
        .native_program([ahead])
        .kernel("ahead")
        .unwrap();
    let double = Map::<f32, f32>::from_source(DOUBLE);
    let add = Reduce::<f32>::from_source(ADD);
    let (big, small) = (test_data(200), test_data(40));
    let doubled = oracle(0, &small);
    let total: f32 = small.iter().sum();
    let big = Vector::from_vec(&rt, big);
    let small = Vector::from_vec(&rt, small);
    let check_clean_batches = |what: &str| {
        let packed = PlanVec::pack_jobs(&[&small.lazy().map(&double)], 0).unwrap();
        assert_eq!(bits(&packed.wait().unwrap().0[0]), bits(&doubled), "{what}");
        let packed = PlanScalar::pack_jobs(&[&small.lazy().reduce(&add)], 0).unwrap();
        assert_eq!(packed.wait().unwrap().0, [total], "{what}");
        assert_eq!(device.live_buffers(), 0, "{what}");
    };

    for reduce in [false, true] {
        let what = format!("second allocation fails, reduce: {reduce}");
        let logged = rt.queue(0).events().len();
        rt.queue(0).enqueue_kernel(&ahead, 1, &[]).unwrap();
        let host = rt.now();
        let err = if reduce {
            PlanScalar::pack_jobs(&[&big.lazy().reduce(&add)], 0).err()
        } else {
            PlanVec::pack_jobs(&[&big.lazy().map(&double)], 0).err()
        };
        assert!(
            matches!(
                err,
                Some(SkelError::Ocl(OclError::OutOfDeviceMemory { .. }))
            ),
            "{what}: {err:?}"
        );
        assert_eq!(
            rt.now(),
            host,
            "{what}: the rejected batch moved the host clock"
        );
        let events = rt.queue(0).events();
        let kinds: Vec<_> = events[logged..].iter().map(|e| &e.kind).collect();
        assert_eq!(kinds, [&CommandKind::Kernel("ahead".into())], "{what}");
        check_clean_batches(&what);
        assert_eq!(rt.queue(0).deferred_error_count(), 0, "{what}");
    }

    // Rejected by the device: the launch is the second command of the batch.
    let launch_op = device.fault_op_count() + 2;
    rt.inject_faults(&FaultPlan::new().transient_launch_at_op(0, launch_op));
    let packed = PlanScalar::pack_jobs(&[&small.lazy().reduce(&add)], 0).unwrap();
    let err = packed.wait().unwrap_err();
    assert!(err.is_injected_fault(), "{err:?}");
    assert!(rt.take_deferred_errors().is_empty(), "latch left behind");
    check_clean_batches("launch rejected");
}

/// A device lost in the middle of a packed batch. The batch's side input
/// lives on the device only, so preparing the batch gathers it after the
/// first slot's allocation: losing the device on that read (op + 1) fails
/// the batch before its second allocation; losing it on the batch's first
/// slot write (op + 2) fails the submitted batch. A fault schedule has one
/// outcome — error, fault count, op count and host clock agree over
/// repetitions — and nothing stays allocated.
#[test]
fn a_device_lost_inside_a_packed_batch_has_one_outcome() {
    let saxpy = Zip::<f32, f32, f32>::from_source(SAXPY);
    let double = Map::<f32, f32>::from_source(DOUBLE);
    for op in [1, 2] {
        let run = || {
            let rt = skelcl::init_gpus(1);
            let device = rt.context().device(0).unwrap().clone();
            let x = Vector::from_vec(&rt, test_data(64));
            let y = Vector::from_vec(&rt, test_data(64)).map(&double).unwrap();
            let lost_at = device.fault_op_count() + op;
            rt.inject_faults(&FaultPlan::new().device_lost_at_op(0, lost_at));
            let err = PlanVec::pack_jobs(&[&x.lazy().zip(&y, &saxpy)], 0)
                .and_then(|packed| packed.wait())
                .unwrap_err();
            assert!(err.is_device_lost(), "op + {op}: {err:?}");
            assert_eq!(device.live_buffers(), 1, "op + {op}: only `y` is left");
            drop((x, y));
            assert_eq!(device.live_buffers(), 0, "op + {op}");
            let trace = rt.exec_trace();
            let ops = device.fault_op_count();
            (err.to_string(), trace.faults_injected, ops, rt.now())
        };
        let first = run();
        for rep in 0..3 {
            assert_eq!(run(), first, "op + {op}, repetition {rep}");
        }
    }
}

/// Packed launches in flight on one queue answer for their own commands. A
/// transient fault on the *second* launch's input write fails the second
/// launch — which used to return the zeros its kernel read instead — and
/// not the first, which used to take the error off the queue's latch.
#[test]
fn packed_launches_in_flight_answer_for_their_own_commands() {
    let rt = skelcl::init_gpus(1);
    let double = Map::<f32, f32>::from_source(DOUBLE);
    let add = Reduce::<f32>::from_source(ADD);
    let (xs, ys) = (test_data(48), test_data(33));
    let (a, b) = (
        Vector::from_vec(&rt, xs.clone()),
        Vector::from_vec(&rt, ys.clone()),
    );
    // Write, launch, read of the first; the fourth command is the second's write.
    rt.inject_faults(&FaultPlan::new().transient_transfer_at_op(0, 4));
    let first = PlanVec::pack_jobs(&[&a.lazy().map(&double)], 0).unwrap();
    let second = PlanScalar::pack_jobs(&[&b.lazy().reduce(&add)], 0).unwrap();
    assert_eq!(bits(&first.wait().unwrap().0[0]), bits(&oracle(0, &xs)));
    let err = second.wait().unwrap_err();
    assert!(err.is_injected_fault(), "{err:?}");
    assert!(rt.take_deferred_errors().is_empty(), "latch left behind");
    // The replay a serving layer would schedule.
    let replay = PlanScalar::pack_jobs(&[&b.lazy().reduce(&add)], 0).unwrap();
    assert_eq!(replay.wait().unwrap().0, [ys.iter().sum::<f32>()]);
    assert_eq!(rt.context().device(0).unwrap().live_buffers(), 0);
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
        // Scan, index map and vector plans run under the same wrapper.
        let others: Vec<Vec<f32>> = PATHS
            .iter()
            .map(|(_, path)| path(&rt, &v).unwrap())
            .collect();
        let trace = rt.exec_trace();
        assert_eq!(trace.recoveries, 0);
        assert_eq!(trace.replayed_launches, 0);
        assert_eq!(trace.repartitions, 0);
        (mapped.to_vec().unwrap(), total, stencil, others, rt.now())
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

/// Outcome of one chaos run, comparable across repetitions: the result (or
/// the injected-fault error's text), the faults that fired, each device's
/// op count and the host clock.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    result: std::result::Result<Vec<f32>, String>,
    faults_injected: usize,
    fault_ops: Vec<usize>,
    host_now: skelcl::oclsim::SimTime,
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
        3 => {
            let heat = MapOverlap::<f32, f32>::from_source(HEAT_STEP)
                .with_halo(1)
                .with_boundary(Boundary::Constant(0.0));
            let m = Matrix::from_vec(&rt, data.len(), 1, data.to_vec()).unwrap();
            heat.run(&m)
                .checkpoint_every(2)
                .run_iter(3)
                .and_then(|out| out.to_vec())
        }
        4 | 5 => {
            let v = Vector::from_vec(&rt, data.to_vec());
            let prefix = match skeleton {
                4 => Scan::<f32>::from_source(ADD),
                _ => Scan::new(|a, b| a + b),
            };
            v.scan(&prefix).and_then(|out| out.to_vec())
        }
        6 | 7 => {
            let affine = match skeleton {
                6 => Map::<i32, f32>::from_source("float func(int i) { return 3.0f * i + 1.0f; }"),
                _ => Map::new(|i, _| 3.0 * *i as f32 + 1.0),
            };
            let out = affine.run_index(&rt, data.len()).exec();
            out.and_then(|out| out.to_vec())
        }
        8 => {
            let v = Vector::from_vec(&rt, data.to_vec());
            let table = Vector::from_vec(&rt, vec![2.0f32, 3.0]);
            table.set_distribution(Distribution::Copy).unwrap();
            let out = table_scale().run(&v).arg(&table).exec();
            out.and_then(|out| out.to_vec())
        }
        9 => {
            let x = Vector::from_vec(&rt, data.to_vec());
            let y = Vector::from_vec(&rt, data.iter().rev().copied().collect());
            let saxpy = Zip::<f32, f32, f32>::new(|x, y, _| 2.0 * x + y);
            x.zip(&y, &saxpy).and_then(|out| out.to_vec())
        }
        10 => {
            let v = Vector::from_vec(&rt, data.to_vec());
            let sum = Reduce::<f32>::new(|a, b| a + b);
            v.reduce(&sum).map(|total| vec![total])
        }
        11 => {
            // A two-call chain: the second call consumes what the first
            // left on the devices.
            let v = Vector::from_vec(&rt, data.to_vec());
            let doubled = v.map(&Map::from_source(DOUBLE));
            let total = doubled.and_then(|d| d.reduce(&Reduce::from_source(ADD)));
            total.map(|total| vec![total])
        }
        _ => {
            let v = Vector::from_vec(&rt, data.to_vec());
            let plan = v.lazy().map(&Map::from_source(DOUBLE));
            plan.scan(&Scan::from_source(ADD)).collect()
        }
    };
    let result = result.map_err(|e| {
        assert!(
            e.is_injected_fault(),
            "a chaos run may only fail with a typed injected-fault error, got {e:?}"
        );
        e.to_string()
    });
    let fault_ops = (0..devices)
        .map(|d| rt.context().device(d).unwrap().fault_op_count())
        .collect();
    Outcome {
        result,
        faults_injected: rt.exec_trace().faults_injected,
        fault_ops,
        host_now: rt.now(),
    }
}

fn oracle(skeleton: usize, data: &[f32]) -> Vec<f32> {
    match skeleton {
        0 => data.iter().map(|x| 2.0 * x).collect(),
        1 => {
            let ys: Vec<f32> = data.iter().rev().copied().collect();
            data.iter().zip(&ys).map(|(x, y)| 2.0 * x + y).collect()
        }
        2 | 10 => vec![data.iter().sum()],
        3 => {
            let mut cur = data.to_vec();
            for _ in 0..3 {
                cur = host_heat(&cur, data.len(), 1);
            }
            cur
        }
        4 | 5 => prefix_sums(data.iter().copied()),
        6 | 7 => (0..data.len()).map(|i| 3.0 * i as f32 + 1.0).collect(),
        8 => data
            .iter()
            .map(|x| x * [2.0, 3.0][*x as usize % 2])
            .collect(),
        9 => oracle(1, data),
        11 => vec![data.iter().map(|x| 2.0 * x).sum()],
        _ => prefix_sums(data.iter().map(|x| 2.0 * x)),
    }
}

fn prefix_sums(values: impl Iterator<Item = f32>) -> Vec<f32> {
    let sums = values.scan(0.0f32, |acc, x| {
        *acc += x;
        Some(*acc)
    });
    sums.collect()
}

/// `run_chaos` / `oracle` cases: source map, zip, reduce, iterative stencil;
/// source and closure scan; source and closure index map; closure map (with
/// a copy-distributed vector argument), zip and reduce; a two-call chain; a
/// lazy plan.
const CHAOS_SKELETONS: usize = 13;

proptest! {
    // About five cases per skeleton, as when there were four.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any skeleton, device count and random deterministic fault
    /// schedule: the run either recovers to the exact fault-free oracle or
    /// fails with a typed injected-fault error — and repeating it with the
    /// same schedule reproduces the same outcome bit for bit.
    #[test]
    fn random_fault_schedules_recover_exactly_or_fail_typed(
        raw in prop::collection::vec(0u8..16, 1..160),
        devices in 1usize..=4,
        specs in prop::collection::vec((0usize..4, 1usize..12, 0usize..3), 0..4),
        skeleton in 0usize..CHAOS_SKELETONS,
    ) {
        let data: Vec<f32> = raw.iter().map(|&x| x as f32).collect();
        let first = run_chaos(skeleton, devices, &data, &specs);
        let second = run_chaos(skeleton, devices, &data, &specs);
        prop_assert_eq!(&first, &second, "chaos runs must be reproducible");
        if let Ok(out) = first.result {
            prop_assert_eq!(out, oracle(skeleton, &data));
        }
    }
}
