//! Determinism suite for the execution engine.
//!
//! Repeated runs of the same program must produce bit-identical results AND
//! bit-identical telemetry — `SkelCl::exec_trace()` counters, per-device
//! event logs with their virtual timestamps, and the host's virtual clock.
//! Every `oclsim` command runs inside its enqueue, in program order, so
//! nothing but the program decides them.
//!
//! Each scenario below runs three times on fresh runtimes for every device
//! count from 1 to 4 and compares full observation snapshots. CI runs this
//! suite under both `--test-threads=1` and the default parallelism, so
//! other tests running beside it cannot change an outcome.

use oclsim::EventSummary;
use skelcl::prelude::*;
use skelcl::runtime::ExecTrace;

/// Deterministic pseudo-random input (explicit LCG — keeps the suite
/// seed-stable without depending on a random crate).
fn seeded(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32) / 1e6 - 8.0
        })
        .collect()
}

/// Everything an execution observably produces: result bits, runtime
/// counters, per-device event summaries and timestamps, final virtual time.
#[derive(Debug, PartialEq)]
struct Observation {
    result_bits: Vec<u32>,
    scalar_bits: u32,
    trace: ExecTrace,
    per_device_events: Vec<Vec<(u64, u64, usize, usize)>>,
    summaries: Vec<EventSummary>,
    host_ns: u64,
}

/// Run one scenario and snapshot every observable output.
fn observe(
    devices: usize,
    scenario: impl Fn(&std::sync::Arc<skelcl::SkelCl>) -> (Vec<f32>, f32),
) -> Observation {
    let rt = skelcl::init_gpus(devices);
    rt.drain_events();
    let (result, scalar) = scenario(&rt);
    rt.finish_all();
    let events = rt.drain_events();
    // Two telemetry fields are outside the contract: the wall-clock duration
    // of a kernel's one native compilation, and which device performed it
    // (the program is shared). Their total is not.
    let mut trace = rt.exec_trace();
    let compiles = trace.native_compiles();
    for device in &mut trace.devices {
        device.tiers.native_compile_ns = 0;
        device.tiers.native_compiles = 0;
    }
    trace.devices[0].tiers.native_compiles = compiles;
    Observation {
        result_bits: result.iter().map(|x| x.to_bits()).collect(),
        scalar_bits: scalar.to_bits(),
        trace,
        per_device_events: events
            .iter()
            .map(|evs| {
                evs.iter()
                    .map(|e| (e.start.as_nanos(), e.end.as_nanos(), e.bytes, e.work_items))
                    .collect()
            })
            .collect(),
        summaries: events.iter().map(EventSummary::from_events).collect(),
        host_ns: rt.now().as_nanos(),
    }
}

fn assert_deterministic(
    name: &str,
    scenario: impl Fn(&std::sync::Arc<skelcl::SkelCl>) -> (Vec<f32>, f32),
) {
    for devices in 1..=4 {
        let first = observe(devices, &scenario);
        for rep in 1..3 {
            let again = observe(devices, &scenario);
            assert_eq!(
                first, again,
                "{name} diverged on repetition {rep} with {devices} device(s)"
            );
        }
        assert!(
            first.host_ns > 0,
            "{name} must actually execute work ({devices} devices)"
        );
    }
}

#[test]
fn map_is_deterministic_under_threaded_queues() {
    assert_deterministic("map", |rt| {
        let inc =
            Map::<f32, f32>::from_source("float func(float x, float a) { return x * a + 0.5f; }");
        let v = Vector::from_vec(rt, seeded(4096, 11));
        let out = inc.run(&v).arg(1.5f32).exec().unwrap();
        (out.to_vec().unwrap(), 0.0)
    });
}

#[test]
fn zip_is_deterministic_under_threaded_queues() {
    assert_deterministic("zip", |rt| {
        let saxpy = Zip::<f32, f32, f32>::from_source(
            "float func(float x, float y, float a) { return a * x + y; }",
        );
        let x = Vector::from_vec(rt, seeded(3000, 7));
        let y = Vector::from_vec(rt, seeded(3000, 13));
        let out = saxpy.run(&x, &y).arg(2.5f32).exec().unwrap();
        (out.to_vec().unwrap(), 0.0)
    });
}

#[test]
fn reduce_is_deterministic_under_threaded_queues() {
    assert_deterministic("reduce", |rt| {
        let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
        let v = Vector::from_vec(rt, seeded(5000, 29));
        let s = sum.run(&v).exec().unwrap();
        (Vec::new(), s)
    });
}

/// The partial vectors of a reduce are read with every device's read in
/// flight before the first is claimed: in virtual time the four reads run
/// side by side instead of paying their 15 µs latencies one after another.
#[test]
fn reduce_partial_gathers_overlap_in_virtual_time() {
    let rt = skelcl::init_gpus(4);
    let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
    let v = Vector::from_vec(&rt, seeded(40_000, 5));
    v.copy_data_to_devices().unwrap();
    rt.finish_all();
    rt.drain_events();
    sum.run(&v).exec().unwrap();
    let reads: Vec<_> = rt
        .drain_events()
        .into_iter()
        .flatten()
        .filter(|e| e.is_read())
        .collect();
    assert_eq!(reads.len(), 4, "one partials read per device");
    let first_end = reads.iter().map(|e| e.end).min().unwrap();
    for read in &reads {
        assert_eq!(read.bytes, skelcl::reduce_partials(10_000) * 4);
        assert!(
            read.start < first_end,
            "read on device {} waited for another device's read",
            read.device
        );
    }
}

/// The halo exchange between two stencil sweeps never puts the host in the
/// loop: every owner's row read is in flight before the first forward, the
/// forwards wait on the device side, and the host clock only pays enqueues —
/// the stencil twin of `reduce_partial_gathers_overlap_in_virtual_time`.
#[test]
fn halo_exchange_overlaps_in_virtual_time() {
    const SIDE: usize = 192;
    const HEAT: &str = "float func(float x) { return x + 0.1f * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * x); }";
    // One warm sweep (upload, program build), then one observed sweep whose
    // input is device-resident with stale halos: refresh + kernel.
    let observe_sweep = |devices: usize| {
        let rt = skelcl::init_gpus(devices);
        let heat = MapOverlap::<f32, f32>::from_source(HEAT)
            .with_halo(1)
            .with_boundary(Boundary::Clamp);
        let m = Matrix::from_vec(&rt, SIDE, SIDE, seeded(SIDE * SIDE, 77)).unwrap();
        let warm = heat.run(&m).exec().unwrap();
        rt.finish_all();
        rt.drain_events();
        let before = rt.now();
        let out = heat.run(&warm).exec().unwrap();
        let host_advance = rt.elapsed_since(before);
        let events = rt.drain_events();
        let bits: Vec<u32> = out.to_vec().unwrap().iter().map(|x| x.to_bits()).collect();
        let api = rt.context().api().clone();
        (bits, host_advance, events, api)
    };

    let (bits, host_advance, events, api) = observe_sweep(4);
    assert_eq!(
        bits,
        observe_sweep(1).0,
        "4 devices ≡ 1 device, bit for bit"
    );
    for rep in 1..3 {
        let again = observe_sweep(4);
        assert_eq!(
            (&bits, host_advance, &events),
            (&again.0, again.1, &again.2),
            "rep {rep}: the exchange's timestamps must not depend on worker interleaving"
        );
    }

    // The host paid the skeleton dispatch plus one enqueue per command —
    // 6 reads, 2 edge copies, 6 forwards, 4 kernels — and waited for nothing.
    let commands: usize = events.iter().map(Vec::len).sum();
    assert_eq!(commands, 18);
    assert_eq!(
        host_advance.as_nanos(),
        api.dispatch_overhead.as_nanos() + commands as u64 * api.enqueue_overhead.as_nanos()
    );

    let row_bytes = SIDE * 4;
    let reads_of = |d: usize| events[d].iter().filter(|e| e.is_read());
    let writes_of = |d: usize| events[d].iter().filter(|e| e.is_write());
    let kernel_of = |d: usize| events[d].iter().find(|e| e.is_kernel()).unwrap();
    for d in 0..4 {
        let neighbours = if d == 0 || d == 3 { 1 } else { 2 };
        assert_eq!(reads_of(d).count(), neighbours);
        assert_eq!(writes_of(d).count(), neighbours);
        let copies = events[d]
            .iter()
            .filter(|e| e.is_transfer() && !e.is_read() && !e.is_write());
        assert_eq!(
            copies.count(),
            2 - neighbours,
            "clamped edge rows are on-device copies"
        );
        assert!(events[d]
            .iter()
            .filter(|e| e.is_transfer())
            .all(|e| e.bytes == row_bytes));
        assert!(
            events[d].last().unwrap().is_kernel(),
            "the in-order queue puts the sweep last"
        );
    }
    // (owner, destination) of every exchanged row, in enqueue order: each
    // destination's upper halo, then its lower one.
    let exchange = [(1, 0), (0, 1), (2, 1), (1, 2), (3, 2), (2, 3)];
    let mut reads: Vec<_> = (0..4).map(reads_of).collect();
    let mut writes: Vec<_> = (0..4).map(writes_of).collect();
    for (owner, dest) in exchange {
        let read = reads[owner].next().unwrap();
        let forward = writes[dest].next().unwrap();
        assert!(
            forward.start >= read.end,
            "row {owner}→{dest} forwarded before it was read"
        );
        let kernel = kernel_of(dest);
        assert!(kernel.start >= forward.end && kernel.start >= read.end);
    }
    // No owner's read waits for another device: each queue's first read
    // starts the instant the host enqueued it.
    for d in 0..4 {
        let read = reads_of(d).next().unwrap();
        assert_eq!(read.start, read.queued, "read on device {d} waited");
    }
}

#[test]
fn scan_is_deterministic_under_threaded_queues() {
    assert_deterministic("scan", |rt| {
        let prefix = Scan::<f32>::from_source("float func(float a, float b) { return a + b; }");
        let v = Vector::from_vec(rt, seeded(2048, 3));
        let out = prefix.run(&v).exec().unwrap();
        (out.to_vec().unwrap(), 0.0)
    });
}

#[test]
fn iterative_stencil_is_deterministic_under_threaded_queues() {
    assert_deterministic("stencil", |rt| {
        let heat = MapOverlap::<f32, f32>::from_source(
            "float func(float x) { return x + 0.1f * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * x); }",
        )
        .with_halo(1)
        .with_boundary(Boundary::Clamp);
        let m = Matrix::from_vec(rt, 24, 16, seeded(24 * 16, 41)).unwrap();
        let out = heat.run(&m).run_iter(4).unwrap();
        (out.to_vec().unwrap(), 0.0)
    });
}

#[test]
fn chained_pipeline_is_deterministic_under_threaded_queues() {
    // A chain keeps intermediate results device-resident, so this exercises
    // buffer-pool revival (lazy zeroing), run_into reuse and the
    // multi-launch event stream together.
    assert_deterministic("pipeline", |rt| {
        let double = Map::<f32, f32>::from_source("float func(float x) { return x * 2.0f; }");
        let shift = Map::<f32, f32>::from_source("float func(float x) { return x - 1.0f; }");
        let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
        let v = Vector::from_vec(rt, seeded(2500, 17));
        let a = double.run(&v).exec().unwrap();
        let b = shift.run(&a).exec().unwrap();
        let s = sum.run(&b).exec().unwrap();
        (b.to_vec().unwrap(), s)
    });
}

#[test]
fn lazy_plan_is_deterministic_under_threaded_queues() {
    // Fused plans go through the runtime's lowering memo: the compared
    // trace carries `plan_lowerings` / `plan_lowering_hits`, which must
    // repeat exactly like every other counter.
    let scenario = |rt: &std::sync::Arc<skelcl::SkelCl>| {
        let double = Map::<f32, f32>::from_source("float func(float x) { return x * 2.0f; }");
        let shift = Map::<f32, f32>::from_source("float func(float x) { return x - 1.0f; }");
        let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
        let v = Vector::from_vec(rt, seeded(2500, 23));
        let chain = v.lazy().map(&double).map(&shift);
        let first = chain.collect().unwrap();
        assert_eq!(
            chain.collect().unwrap(),
            first,
            "a memo hit runs the same kernel"
        );
        let s = chain.reduce(&sum).scalar().unwrap();
        (first, s)
    };
    assert_deterministic("lazy plan", scenario);
    let rt = skelcl::init_gpus(2);
    scenario(&rt);
    // Two shapes — map∘map and map∘map∘reduce — and the repeated
    // `collect()` is the one hit. The counters include eager source calls
    // since those go through the memo as well; the scenario makes none.
    let trace = rt.exec_trace();
    assert_eq!((trace.plan_lowerings, trace.plan_lowering_hits), (2, 1));
}

/// Eager skeleton calls and the launch groups of a lazy plan are the same
/// lowering and the same launchers — not two implementations kept in step —
/// so an eager map → zip → scan → reduce sequence and the same four stages
/// as a `FusionPolicy::Never` plan enqueue the same commands at the same
/// virtual times: identical per-device event logs (kernel names, bytes,
/// work-items, queued / start / end) and an identical host clock.
#[test]
fn eager_sequence_and_unfused_plan_produce_identical_event_logs() {
    let scale = Map::<f32, f32>::from_source("float func(float x, float a) { return x * a; }");
    let add = Zip::<f32, f32, f32>::from_source("float func(float x, float y) { return x + y; }");
    let prefix = Scan::<f32>::from_source("float func(float a, float b) { return a + b; }");
    let max = Reduce::<f32>::from_source("float func(float a, float b) { return a > b ? a : b; }");
    let observe = |devices: usize, lazy: bool| {
        let rt = skelcl::init_gpus(devices);
        let v = Vector::from_vec(&rt, seeded(3000, 31));
        let w = Vector::from_vec(&rt, seeded(3000, 37));
        // Device-resident inputs: what is compared is lowering and launch.
        v.copy_data_to_devices().unwrap();
        w.copy_data_to_devices().unwrap();
        rt.finish_all();
        rt.drain_events();
        let result = if lazy {
            v.lazy()
                .policy(FusionPolicy::Never)
                .map_with(&scale, skelcl::args![1.5f32])
                .zip(&w, &add)
                .scan(&prefix)
                .reduce(&max)
                .scalar()
                .unwrap()
        } else {
            let a = scale.run(&v).arg(1.5f32).exec().unwrap();
            let b = add.run(&a, &w).exec().unwrap();
            let c = prefix.run(&b).exec().unwrap();
            max.run(&c).exec().unwrap()
        };
        (result.to_bits(), rt.drain_events(), rt.now())
    };
    for devices in 1..=4 {
        let eager = observe(devices, false);
        let kernels = eager.1.iter().flatten().filter(|e| e.is_kernel()).count();
        // map, zip, local scan and reduce everywhere; offsets on all but one.
        assert_eq!(kernels, 5 * devices - 1);
        assert_eq!(eager, observe(devices, true), "{devices} device(s)");
    }
}

/// A matrix plan is a view of the same graph with a barrier loop on top, and
/// every barrier-delimited group is one call through the eager call path: a
/// `FusionPolicy::Never` matrix plan — map, map with an argument, stencil,
/// map — enqueues what the four eager calls enqueue, at the same virtual
/// times (the groups' dispatch charge sits where the eager call pays it), on
/// a host-resident and on a device-resident input; `Auto` fuses the two
/// leading maps into one call and computes the same bits.
#[test]
fn matrix_plan_under_never_is_the_eager_sequence_event_for_event() {
    let sq = Map::<f32, f32>::from_source("float func(float x) { return x * x; }");
    let inc = Map::<f32, f32>::from_source("float func(float x, float a) { return x + a; }");
    let blur = MapOverlap::<f32, f32>::from_source(
        "float func(float c) { return (get(0, -1) + get(-1, 0) + c + get(1, 0) + get(0, 1)) / 5.0f; }",
    );
    let observe = |devices: usize, resident: bool, policy: Option<FusionPolicy>| {
        let rt = skelcl::init_gpus(devices);
        let m = Matrix::from_vec(&rt, 48, 40, seeded(48 * 40, 41)).unwrap();
        if resident {
            Container::ensure_on_devices(&m).unwrap();
        }
        rt.finish_all();
        rt.drain_events();
        let calls = rt.exec_trace().skeleton_calls;
        let out = match policy {
            Some(policy) => m
                .lazy()
                .policy(policy)
                .map(&sq)
                .map_with(&inc, skelcl::args![0.5f32])
                .map_overlap(&blur)
                .map_with(&inc, skelcl::args![1.5f32])
                .exec()
                .unwrap(),
            None => {
                let a = sq.run(&m).exec().unwrap();
                let b = inc.run(&a).arg(0.5f32).exec().unwrap();
                let c = blur.run(&b).exec().unwrap();
                inc.run(&c).arg(1.5f32).exec().unwrap()
            }
        };
        let calls = rt.exec_trace().skeleton_calls - calls;
        let events = rt.drain_events();
        let bits: Vec<u32> = out.to_vec().unwrap().iter().map(|x| x.to_bits()).collect();
        (bits, calls, events, rt.now())
    };
    for devices in 1..=4 {
        for resident in [false, true] {
            let what = format!("{devices} device(s), device-resident input: {resident}");
            let eager = observe(devices, resident, None);
            assert_eq!(eager.1, 4, "{what}");
            assert!(eager.2.iter().flatten().any(|e| e.is_kernel()), "{what}");
            assert_eq!(
                eager,
                observe(devices, resident, Some(FusionPolicy::Never)),
                "{what}"
            );
            let fused = observe(devices, resident, Some(FusionPolicy::Auto));
            assert_eq!((&fused.0, fused.1), (&eager.0, 3), "{what}");
        }
    }
}

/// One command of a device's event log as pinned: kind (a kernel by its
/// name), bytes, and the queued / start / end timestamps in virtual ns.
type Command = (String, usize, u64, u64, u64);

/// Run `call` on a fresh 2-device runtime; the host clock right after it
/// returns, and every device's event log once the queues have drained.
fn eager_timeline(call: &dyn Fn(&std::sync::Arc<skelcl::SkelCl>)) -> (u64, Vec<Vec<Command>>) {
    let rt = skelcl::init_gpus(2);
    call(&rt);
    let host = rt.now().as_nanos();
    rt.finish_all();
    let logs = rt.drain_events().into_iter().map(|log| {
        log.iter()
            .map(|e| {
                let kind = match &e.kind {
                    oclsim::CommandKind::Kernel(name) => name.clone(),
                    other => format!("{other:?}"),
                };
                let t = |at: oclsim::SimTime| at.as_nanos();
                (kind, e.bytes, t(e.queued), t(e.start), t(e.end))
            })
            .collect()
    });
    (host, logs.collect())
}

const ADD: &str = "float func(float a, float b) { return a + b; }";
const HEAT: &str = "float func(float x) { return x + 0.1f * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * x); }";

/// One eager call of every kind and terminal form, by name.
fn eager_calls() -> Vec<(&'static str, Box<dyn Fn(&std::sync::Arc<skelcl::SkelCl>)>)> {
    let heat = || MapOverlap::<f32, f32>::from_source(HEAT).with_boundary(Boundary::Clamp);
    let grid = |rt: &std::sync::Arc<skelcl::SkelCl>| {
        Matrix::from_vec(rt, 24, 16, seeded(24 * 16, 41)).unwrap()
    };
    vec![
        (
            "map",
            Box::new(|rt| {
                let scale =
                    Map::<f32, f32>::from_source("float func(float x, float a) { return x * a; }");
                let v = Vector::from_vec(rt, seeded(4096, 11));
                scale.run(&v).arg(1.5f32).exec().unwrap();
            }),
        ),
        (
            "zip (closure)",
            Box::new(|rt| {
                let add = Zip::<f32, f32, f32>::new(|x, y, _| x + y);
                let (x, y) = (
                    Vector::from_vec(rt, seeded(3000, 7)),
                    Vector::from_vec(rt, seeded(3000, 13)),
                );
                add.run(&x, &y).exec().unwrap();
            }),
        ),
        (
            "index map",
            Box::new(|rt| {
                let ramp =
                    Map::<i32, f32>::from_source("float func(int i, float s) { return i * s; }");
                ramp.run_index(rt, 1000).arg(0.5f32).exec().unwrap();
            }),
        ),
        (
            "reduce",
            Box::new(|rt| {
                let v = Vector::from_vec(rt, seeded(5000, 29));
                Reduce::<f32>::from_source(ADD).run(&v).exec().unwrap();
            }),
        ),
        (
            "reduce .chunks(3) (closure)",
            Box::new(|rt| {
                let v = Vector::from_vec(rt, seeded(5000, 31));
                Reduce::<f32>::new(|a, b| a + b)
                    .run(&v)
                    .chunks(3)
                    .exec()
                    .unwrap();
            }),
        ),
        (
            "reduce with a device fold",
            Box::new(|rt| {
                let scheduler = skelcl::StaticScheduler::analytical(rt);
                let v = Vector::from_vec(rt, seeded(5000, 37));
                let sum = Reduce::<f32>::from_source(ADD);
                let (_, plan) = sum
                    .run(&v)
                    .scheduler(&scheduler)
                    .scalar_with_plan()
                    .unwrap();
                assert!(
                    !plan.final_on_cpu,
                    "the scheduler places the fold on a device"
                );
            }),
        ),
        (
            "scan",
            Box::new(|rt| {
                let v = Vector::from_vec(rt, seeded(2048, 3));
                Scan::<f32>::from_source(ADD).run(&v).exec().unwrap();
            }),
        ),
        (
            "scan trace (closure)",
            Box::new(|rt| {
                let v = Vector::from_vec(rt, seeded(2048, 5));
                Scan::<f32>::new(|a, b| a + b).run(&v).trace().unwrap();
            }),
        ),
        (
            "stencil sweep",
            Box::new(move |rt| {
                heat().run(&grid(rt)).exec().unwrap();
            }),
        ),
        (
            "run_iter(4)",
            Box::new(move |rt| {
                heat().run(&grid(rt)).run_iter(4).unwrap();
            }),
        ),
    ]
}

/// Per eager call of [`eager_calls`]: its name, the host clock in ns when it
/// returns, and every device's commands as [`Command`]s.
type PinnedCall = (
    &'static str,
    u64,
    &'static [&'static [(&'static str, usize, u64, u64, u64)]],
);

#[rustfmt::skip]
const PINNED: &[PinnedCall] = &[
    ("map", 150031000, &[
        &[
            ("WriteBuffer", 8192, 15000, 15000, 31575),
            ("SKELCL_MAP", 0, 150023000, 150023000, 150031230),
        ],
        &[
            ("WriteBuffer", 8192, 19000, 19000, 35575),
            ("SKELCL_MAP", 0, 150027000, 150027000, 150035230),
        ],
    ]),
    ("zip (closure)", 39000, &[
        &[
            ("WriteBuffer", 6000, 15000, 15000, 31154),
            ("WriteBuffer", 6000, 23000, 31154, 47308),
            ("skelcl_zip_native", 0, 31000, 47308, 55477),
        ],
        &[
            ("WriteBuffer", 6000, 19000, 19000, 35154),
            ("WriteBuffer", 6000, 27000, 35154, 51308),
            ("skelcl_zip_native", 0, 35000, 51308, 59477),
        ],
    ]),
    ("index map", 150023000, &[
        &[("SKELCL_MAP_INDEX", 0, 150015000, 150015000, 150023029)],
        &[("SKELCL_MAP_INDEX", 0, 150019000, 150019000, 150027029)],
    ]),
    ("reduce", 150050147, &[
        &[
            ("WriteBuffer", 10000, 15000, 15000, 31923),
            ("SKELCL_REDUCE", 0, 150023000, 150023000, 150031140),
            ("ReadBuffer", 36, 150031000, 150031140, 150046147),
        ],
        &[
            ("WriteBuffer", 10000, 19000, 19000, 35923),
            ("SKELCL_REDUCE", 0, 150027000, 150027000, 150035140),
            ("ReadBuffer", 36, 150035000, 150035140, 150050147),
        ],
    ]),
    ("reduce .chunks(3) (closure)", 59205, &[
        &[
            ("WriteBuffer", 10000, 15000, 15000, 31923),
            ("skelcl_reduce_native", 0, 23000, 31923, 40203),
            ("ReadBuffer", 12, 31000, 40203, 55205),
        ],
        &[
            ("WriteBuffer", 10000, 19000, 19000, 35923),
            ("skelcl_reduce_native", 0, 27000, 35923, 44203),
            ("ReadBuffer", 12, 35000, 44203, 59205),
        ],
    ]),
    ("reduce with a device fold", 150088163, &[
        &[
            ("WriteBuffer", 10000, 15000, 15000, 31923),
            ("SKELCL_REDUCE", 0, 150023000, 150023000, 150031140),
            ("ReadBuffer", 36, 150031000, 150031140, 150046147),
            ("WriteBuffer", 72, 150050147, 150050147, 150065161),
            ("SKELCL_REDUCE", 0, 150054147, 150065161, 150073162),
            ("ReadBuffer", 4, 150058147, 150073162, 150088163),
        ],
        &[
            ("WriteBuffer", 10000, 19000, 19000, 35923),
            ("SKELCL_REDUCE", 0, 150027000, 150027000, 150035140),
            ("ReadBuffer", 36, 150035000, 150035140, 150050147),
        ],
    ]),
    ("scan", 150054115, &[
        &[
            ("WriteBuffer", 4096, 15000, 15000, 30788),
            ("SKELCL_SCAN", 0, 150023000, 150023000, 150031114),
            ("ReadBuffer", 4, 150031000, 150031114, 150046115),
        ],
        &[
            ("WriteBuffer", 4096, 19000, 19000, 34788),
            ("SKELCL_SCAN", 0, 150027000, 150027000, 150035114),
            ("ReadBuffer", 4, 150035000, 150035114, 150050115),
            ("SKELCL_SCAN_OFFSET", 0, 150050115, 150050115, 150058229),
        ],
    ]),
    ("scan trace (closure)", 62690, &[
        &[
            ("WriteBuffer", 4096, 15000, 15000, 30788),
            ("skelcl_scan_native", 0, 23000, 30788, 38902),
            ("ReadBuffer", 4096, 31000, 38902, 54690),
        ],
        &[
            ("WriteBuffer", 4096, 19000, 19000, 34788),
            ("skelcl_scan_native", 0, 27000, 34788, 42902),
            ("ReadBuffer", 4096, 35000, 42902, 58690),
            ("skelcl_scan_offset_native", 0, 58690, 58690, 66804),
        ],
    ]),
    ("stencil sweep", 150031000, &[
        &[
            ("WriteBuffer", 896, 15000, 15000, 30172),
            ("SKELCL_MAP_OVERLAP", 0, 150023000, 150023000, 150031064),
        ],
        &[
            ("WriteBuffer", 896, 19000, 19000, 34172),
            ("SKELCL_MAP_OVERLAP", 0, 150027000, 150027000, 150035064),
        ],
    ]),
    ("run_iter(4)", 150124000, &[
        &[
            ("WriteBuffer", 1088, 15000, 15000, 30209),
            ("SKELCL_MAP_OVERLAP", 0, 150023000, 150023000, 150031080),
            ("CopyBuffer", 64, 150046000, 150046000, 150054001),
            ("SKELCL_MAP_OVERLAP", 0, 150054000, 150054001, 150062077),
            ("CopyBuffer", 64, 150077000, 150077000, 150085001),
            ("SKELCL_MAP_OVERLAP", 0, 150085000, 150085001, 150093071),
            ("CopyBuffer", 64, 150108000, 150108000, 150116001),
            ("SKELCL_MAP_OVERLAP", 0, 150116000, 150116001, 150124065),
        ],
        &[
            ("WriteBuffer", 1088, 19000, 19000, 34209),
            ("SKELCL_MAP_OVERLAP", 0, 150027000, 150027000, 150035080),
            ("CopyBuffer", 64, 150050000, 150050000, 150058001),
            ("SKELCL_MAP_OVERLAP", 0, 150058000, 150058001, 150066077),
            ("CopyBuffer", 64, 150081000, 150081000, 150089001),
            ("SKELCL_MAP_OVERLAP", 0, 150089000, 150089001, 150097071),
            ("CopyBuffer", 64, 150112000, 150112000, 150120001),
            ("SKELCL_MAP_OVERLAP", 0, 150120000, 150120001, 150128065),
        ],
    ]),
];

/// The virtual time of one eager call of every kind and terminal form on 2
/// devices — the host clock when the call returns and every device's event
/// log — is pinned to [`PINNED`], so a change to the launch path that moves
/// a single timestamp fails here (repeat-equality alone would not notice).
#[test]
fn eager_calls_keep_their_pinned_virtual_time() {
    let calls = eager_calls();
    assert_eq!(calls.len(), PINNED.len());
    for ((name, call), &(pinned_name, host, logs)) in calls.iter().zip(PINNED) {
        assert_eq!(*name, pinned_name);
        let logs: Vec<Vec<Command>> = logs
            .iter()
            .map(|log| {
                log.iter()
                    .map(|&(kind, b, q, s, e)| (kind.to_string(), b, q, s, e))
                    .collect()
            })
            .collect();
        assert_eq!(eager_timeline(&**call), (host, logs), "{name}");
    }
}

/// A packed batch — the serving layer's launch — is one submission of its
/// shape's recorded command buffer: once the shape is recorded, a batch of
/// map jobs and a batch of reductions each advance the host clock by exactly
/// the dispatch plus one enqueue, on whichever device, and their results,
/// event logs and clock repeat exactly. (The served `JobReport`s over such
/// batches repeat too: `serving/tests/{serving,reductions}.rs`.)
#[test]
fn packed_batches_are_one_submission_each_and_deterministic() {
    assert_deterministic("packed batches", |rt| {
        let api = rt.context().api().clone();
        let per_batch = api.dispatch_overhead + api.enqueue_overhead;
        let double = Map::<f32, f32>::from_source("float func(float x) { return 2.0f * x; }");
        let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
        let maps: Vec<_> = (0..3)
            .map(|j| Vector::from_vec(rt, seeded(40 + 17 * j, j as u64)))
            .collect();
        let folds: Vec<_> = (0..3)
            .map(|j| Vector::from_vec(rt, seeded(700, 50 + j)))
            .collect();
        let map_jobs: Vec<_> = maps.iter().map(|v| v.lazy().map(&double)).collect();
        let fold_jobs: Vec<_> = folds
            .iter()
            .map(|v| v.lazy().map(&double).reduce(&sum))
            .collect();
        let (map_jobs, fold_jobs): (Vec<_>, Vec<_>) =
            (map_jobs.iter().collect(), fold_jobs.iter().collect());
        let (mut results, mut total) = (Vec::new(), 0.0f32);
        for round in 0..2 {
            for device in 0..rt.device_count() {
                let before = rt.now();
                let mapped = PlanVec::pack_jobs(&map_jobs, device).unwrap();
                let between = rt.now();
                let folded = PlanScalar::pack_jobs(&fold_jobs, device).unwrap();
                if round + device > 0 {
                    assert_eq!(between - before, per_batch, "map batch on {device}");
                    assert_eq!(rt.now() - between, per_batch, "reduce batch on {device}");
                }
                results.extend(mapped.wait().unwrap().0.into_iter().flatten());
                total += folded.wait().unwrap().0.iter().sum::<f32>();
            }
        }
        (results, total)
    });
}
