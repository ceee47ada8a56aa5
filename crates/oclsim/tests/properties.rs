//! Property-based tests of the simulated OpenCL runtime: the timing model is
//! monotone and roofline-shaped, the API-model constants keep the paper's
//! CUDA/OpenCL/SkelCL relationships for any workload, every command lasts
//! exactly the `ApiModel` price a caller can predict it by, buffers round-trip
//! arbitrary data, in-order queues keep their commands ordered in virtual
//! time, and a recorded command buffer behaves exactly like its commands.

use proptest::prelude::*;

use oclsim::{
    ApiModel, ArgView, Bindings, Buffer, CommandKind, CommandQueue, Context, CostHint, DataKind,
    DeviceProfile, EventHandle, FaultPlan, KernelArg, NativeKernelDef, OclError, Program,
    SimDuration, SimTime, Slot, Value,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn transfer_time_is_monotone_in_bytes_and_at_least_the_latency(
        a in 0usize..64 * 1024 * 1024,
        b in 0usize..64 * 1024 * 1024,
    ) {
        let p = DeviceProfile::tesla_c1060();
        let (small, large) = (a.min(b), a.max(b));
        prop_assert!(p.transfer_time(small) <= p.transfer_time(large));
        prop_assert!(p.transfer_time(small) >= p.transfer_latency);
    }

    #[test]
    fn execution_time_is_the_roofline_maximum(
        items in 1usize..5_000_000,
        flops in 0.0f64..5_000.0,
        bytes in 0.0f64..5_000.0,
    ) {
        let p = DeviceProfile::tesla_c1060();
        let t = p.execution_time(items, flops, bytes).as_secs_f64();
        let compute = items as f64 * flops.max(1.0) / (p.peak_gflops * 1e9);
        let memory = items as f64 * bytes.max(4.0) / (p.mem_bandwidth_gbs * 1e9);
        let expected = compute.max(memory);
        // Virtual time is kept in integer nanoseconds, so allow one
        // nanosecond of quantisation on top of the relative tolerance.
        prop_assert!((t - expected).abs() <= expected * 1e-6 + 1e-9);
    }

    #[test]
    fn execution_time_is_monotone_in_every_argument(
        items in 1usize..1_000_000,
        flops in 1.0f64..2_000.0,
        bytes in 4.0f64..2_000.0,
    ) {
        let p = DeviceProfile::tesla_c1060();
        let base = p.execution_time(items, flops, bytes);
        prop_assert!(p.execution_time(items * 2, flops, bytes) >= base);
        prop_assert!(p.execution_time(items, flops * 2.0, bytes) >= base);
        prop_assert!(p.execution_time(items, flops, bytes * 2.0) >= base);
    }

    #[test]
    fn cuda_is_never_slower_than_opencl_and_skelcl_matches_opencl(
        items in 1usize..2_000_000,
        flops in 1.0f64..2_000.0,
        bytes in 4.0f64..500.0,
    ) {
        let p = DeviceProfile::tesla_c1060();
        let cuda = ApiModel::cuda().kernel_time(&p, items, flops, bytes);
        let opencl = ApiModel::opencl().kernel_time(&p, items, flops, bytes);
        let skelcl = ApiModel::skelcl().kernel_time(&p, items, flops, bytes);
        prop_assert!(cuda <= opencl, "CUDA must never lose on identical kernels");
        prop_assert_eq!(
            skelcl, opencl,
            "SkelCL device-side execution is plain OpenCL underneath"
        );
    }

    #[test]
    fn every_command_lasts_its_api_model_price_and_costs_the_host_one_enqueue(
        profile in profiles(),
        api in 0usize..3,
        n in 1usize..64 * 1024,
        items in 1usize..1 << 22,
        flops in 0.0f64..2_000.0,
        bytes in 0.0f64..256.0,
    ) {
        let api = [ApiModel::opencl(), ApiModel::cuda(), ApiModel::skelcl()][api].clone();
        let ctx = Context::new(vec![profile.clone()], api.clone());
        let queue = ctx.queue(0).unwrap();
        let src = ctx.create_buffer::<u8>(0, n).unwrap();
        let dst = ctx.create_buffer::<u8>(0, n).unwrap();
        let def = NativeKernelDef::new("priced", CostHint::new(flops, bytes), |_| Ok(()));
        let kernel = Program::from_native([def]).kernel("priced").unwrap();
        let mut enqueued = Vec::new();
        let mut enqueue = |command: &dyn Fn() -> oclsim::Result<EventHandle>| {
            let before = ctx.host_now();
            let event = command().unwrap();
            enqueued.push(ctx.host_now() - before);
            event
        };
        let write = enqueue(&|| queue.enqueue_write_buffer(&src, &vec![7u8; n]));
        let copy = enqueue(&|| queue.enqueue_copy_buffer_region::<u8>(&src, 0, &dst, 0, n));
        let args = [KernelArg::Buffer(dst.clone())];
        let launch = enqueue(&|| queue.enqueue_kernel(&kernel, items, &args));
        let read = enqueue(&|| queue.enqueue_read_buffer_region_nb::<u8>(&dst, 0, n));
        prop_assert_eq!(enqueued, vec![api.enqueue_overhead; 4]);
        let duration = |event: EventHandle| event.wait().unwrap().duration();
        prop_assert_eq!(duration(write), api.transfer_time(&profile, n));
        prop_assert_eq!(duration(copy), api.kernel_time(&profile, n.div_ceil(4), 0.0, 8.0));
        prop_assert_eq!(duration(launch), api.kernel_time(&profile, items, flops, bytes));
        prop_assert_eq!(duration(read), api.transfer_time(&profile, n));
    }

    #[test]
    fn buffers_round_trip_arbitrary_data(
        data in prop::collection::vec(any::<f32>().prop_filter("finite", |x| x.is_finite()), 1..512),
        device in 0usize..4,
    ) {
        let ctx = Context::with_gpus(4);
        let queue = ctx.queue(device).unwrap();
        let buf = ctx.create_buffer::<f32>(device, data.len()).unwrap();
        queue.enqueue_write_buffer(&buf, &data).unwrap();
        let mut back = vec![0.0f32; data.len()];
        queue.enqueue_read_buffer(&buf, &mut back).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn buffer_region_writes_only_touch_their_region(
        len in 8usize..256,
        split in 1usize..7,
    ) {
        let split = split.min(len - 1);
        let ctx = Context::with_gpus(1);
        let queue = ctx.queue(0).unwrap();
        let buf = ctx.create_buffer::<f32>(0, len).unwrap();
        queue.enqueue_write_buffer(&buf, &vec![1.0f32; len]).unwrap();
        // Overwrite the tail only.
        let tail = vec![9.0f32; len - split];
        queue.enqueue_write_buffer_region(&buf, split, &tail).unwrap();
        let mut back = vec![0.0f32; len];
        queue.enqueue_read_buffer(&buf, &mut back).unwrap();
        prop_assert!(back[..split].iter().all(|&x| x == 1.0));
        prop_assert!(back[split..].iter().all(|&x| x == 9.0));
    }

    #[test]
    fn fill_buffer_region_writes_the_repeated_value_and_charges_like_a_write(
        len in 8usize..256,
        split in 1usize..7,
    ) {
        let split = split.min(len - 1);
        let ctx = Context::with_gpus(1);
        let queue = ctx.queue(0).unwrap();
        let buf = ctx.create_buffer::<f32>(0, len).unwrap();
        queue.enqueue_write_buffer(&buf, &vec![1.0f32; len]).unwrap();
        let event = queue
            .enqueue_fill_buffer_region(&buf, split, -2.5f32, len - split)
            .unwrap()
            .wait()
            .unwrap();
        prop_assert_eq!(event.bytes, (len - split) * 4);
        let mut back = vec![0.0f32; len];
        queue.enqueue_read_buffer(&buf, &mut back).unwrap();
        prop_assert!(back[..split].iter().all(|&x| x == 1.0));
        prop_assert!(back[split..].iter().all(|&x| x == -2.5));
    }

    #[test]
    fn in_order_queues_never_overlap_their_commands(
        sizes in prop::collection::vec(1usize..4_096, 2..10),
    ) {
        let ctx = Context::with_gpus(1);
        let queue = ctx.queue(0).unwrap();
        let def = NativeKernelDef::new("touch", CostHint::new(10.0, 8.0), |ctx| {
            let n = ctx.global_size();
            let mut views = ctx.arg_views();
            let data = views[0]
                .as_slice_mut::<f32>()
                .ok_or("buffer expected")?;
            for i in 0..n.min(data.len()) {
                data[i] += 1.0;
            }
            Ok(())
        });
        let program = Program::from_native([def]);
        let kernel = program.kernel("touch").unwrap();
        for &n in &sizes {
            let buf = ctx.create_buffer::<f32>(0, n).unwrap();
            queue.enqueue_write_buffer(&buf, &vec![0.0f32; n]).unwrap();
            queue
                .enqueue_kernel(&kernel, n, &[KernelArg::Buffer(buf)])
                .unwrap();
        }
        queue.finish();
        let events = queue.events();
        prop_assert!(events.len() >= sizes.len() * 2);
        for w in events.windows(2) {
            prop_assert!(w[0].end <= w[1].start, "in-order queue must serialise commands");
            prop_assert!(w[0].start >= w[0].queued);
            prop_assert!(w[0].end >= w[0].start);
        }
    }

    #[test]
    fn dsl_kernels_charge_more_virtual_time_for_more_measured_work(
        items in 64usize..2_048,
    ) {
        // Two kernels with identical static shape but different runtime loop
        // bounds: the one that executes more iterations must take longer in
        // virtual time because the interpreter reports measured counts.
        let src = r#"
            __kernel void spin(__global float* v, int n, int iters) {
                int gid = get_global_id(0);
                float acc = v[gid];
                for (int i = 0; i < iters; i++) { acc = acc * 1.0001f + 1.0f; }
                v[gid] = acc;
            }
        "#;
        let ctx = Context::with_gpus(1);
        let program = ctx.build_program(src).unwrap();
        let kernel = program.kernel("spin").unwrap();
        let queue = ctx.queue(0).unwrap();

        let time_with = |iters: i32| {
            let buf = ctx.create_buffer::<f32>(0, items).unwrap();
            queue.enqueue_write_buffer(&buf, &vec![1.0f32; items]).unwrap();
            let ev = queue
                .enqueue_kernel(
                    &kernel,
                    items,
                    &[
                        KernelArg::Buffer(buf),
                        KernelArg::i32(items as i32),
                        KernelArg::i32(iters),
                    ],
                )
                .unwrap();
            ev.wait().unwrap().duration()
        };
        let short = time_with(2);
        let long = time_with(200);
        prop_assert!(long > short, "measured cost must follow the executed work");
    }
}

/// Device profiles with arbitrary throughput, bandwidth and latency figures.
fn profiles() -> impl Strategy<Value = DeviceProfile> {
    let figures = (1.0f64..2_000.0, 1.0f64..500.0, 0.1f64..20.0);
    (figures, 0u64..100_000, 0u64..100_000).prop_map(|((gflops, memory, pcie), latency, launch)| {
        DeviceProfile {
            peak_gflops: gflops,
            mem_bandwidth_gbs: memory,
            transfer_bandwidth_gbs: pcie,
            transfer_latency: SimDuration(latency),
            kernel_launch_overhead: SimDuration(launch),
            ..DeviceProfile::tesla_c1060()
        }
    })
}

#[test]
fn arg_view_type_mismatches_are_errors_not_silent_reinterpretation() {
    let ctx = Context::with_gpus(1);
    let queue = ctx.queue(0).unwrap();
    let def = NativeKernelDef::new("typed", CostHint::DEFAULT, |ctx| {
        let mut views = ctx.arg_views();
        match &mut views[0] {
            ArgView::Buffer(_) => Ok(()),
            ArgView::Scalar(_) => Err("expected a buffer".to_string()),
        }
    });
    let program = Program::from_native([def]);
    let kernel = program.kernel("typed").unwrap();
    // Passing a scalar where the kernel expects a buffer is reported when
    // the (asynchronously executing) launch is waited on — native kernels
    // have no signature to validate at enqueue time.
    let handle = queue
        .enqueue_kernel(&kernel, 1, &[KernelArg::i32(3)])
        .unwrap();
    assert!(handle.wait().is_err());
    assert!(
        queue.take_deferred_error().is_some(),
        "the queue latches the error"
    );
}

// --- Command buffers -------------------------------------------------------

/// Buffer slots of the generated command sequences.
const SLOTS: usize = 3;

/// The launch of the generated sequences.
const AXPY: &str = "__kernel void axpy(__global float* a, __global float* b, int n, float s) {
    int i = get_global_id(0);
    if (i < n) { b[i] = a[i] * s + b[i]; }
}";

/// One generated command `(what, slot, offset)`: a host write to `slot`
/// (what 0), an axpy from `slot` into `(slot + offset) % SLOTS` (1), or a
/// non-blocking read of `slot` (2).
type Cmd = (usize, usize, usize);

fn sequences() -> impl Strategy<Value = Vec<Cmd>> {
    prop::collection::vec((0usize..3, 0usize..SLOTS, 1usize..SLOTS), 1..8)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The payload of the `write`-th write of a sequence on `device`.
fn payload(device: usize, write: usize, len: usize) -> Vec<u8> {
    let data: Vec<f32> = (0..len)
        .map(|i| (device * 64 + write * 7 + i) as f32 * 0.25 - 3.0)
        .collect();
    oclsim::pod::as_bytes(&data).to_vec()
}

/// What a run of a sequence leaves behind, per device.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Each command's outcome: its error text if it failed.
    outcomes: Vec<Vec<Result<(), String>>>,
    /// The payloads of the reads that succeeded.
    reads: Vec<Vec<Vec<u32>>>,
    /// Every slot's final contents (`None` once the device is lost).
    buffers: Vec<Vec<Option<Vec<u32>>>>,
    /// The event log as (kind, bytes, work-items, start, end).
    rows: Vec<Vec<(CommandKind, usize, usize, SimTime, SimTime)>>,
    ops: Vec<usize>,
    latched: Vec<usize>,
}

/// Run `sequence` on every device of a fresh context — enqueued command by
/// command, or recorded once and submitted per device — under `faults`.
/// Returns what it left behind, each command's `queued` time and what the
/// enqueues cost the host. Every queue first runs a long kernel, so each
/// command starts when the one before it ends however the host's enqueues
/// are spaced: both ways of enqueueing must then give the same rows.
fn run_sequence(
    devices: usize,
    len: usize,
    sequence: &[Cmd],
    recorded: bool,
    faults: &FaultPlan,
) -> (Observed, Vec<Vec<SimTime>>, SimDuration) {
    let ctx = Context::with_gpus(devices);
    let axpy = ctx.build_program(AXPY).unwrap().kernel("axpy").unwrap();
    let spin = NativeKernelDef::new("spin", CostHint::new(1000.0, 4.0), |_| Ok(()));
    let spin = Program::from_native([spin]).kernel("spin").unwrap();
    let queues: Vec<CommandQueue> = (0..devices).map(|d| ctx.queue(d).unwrap()).collect();
    let slots: Vec<Vec<Buffer>> = (0..devices)
        .map(|d| {
            (0..SLOTS)
                .map(|_| ctx.create_buffer::<f32>(d, len).unwrap())
                .collect()
        })
        .collect();
    let scalars = [Value::Int(len as i32), Value::Float(1.5)];
    let payloads = |d: usize| -> Vec<Vec<u8>> {
        let writes = sequence.iter().filter(|c| c.0 == 0).count();
        (0..writes).map(|w| payload(d, w, len)).collect()
    };
    ctx.inject_faults(faults);
    let start = ctx.host_now();
    for q in &queues {
        q.enqueue_kernel(&spin, 1_000_000, &[]).unwrap();
    }
    let (mut events, mut reads): (Vec<Vec<EventHandle>>, Vec<Vec<EventHandle>>) = (vec![], vec![]);
    if recorded {
        let mut cb = ctx.command_buffer(&[DataKind::F32; SLOTS], scalars.len());
        let mut read_ids = Vec::new();
        for &(what, slot, offset) in sequence {
            match what {
                0 => cb.write(slot).unwrap(),
                1 => {
                    let (a, b) = (Slot::Buffer(slot), Slot::Buffer((slot + offset) % SLOTS));
                    cb.kernel(&axpy, &[a, b, Slot::Scalar(0), Slot::Scalar(1)])
                        .unwrap();
                }
                _ => read_ids.push(cb.read(slot).unwrap()),
            }
        }
        for (d, q) in queues.iter().enumerate() {
            let bindings = Bindings {
                buffers: slots[d].clone(),
                payloads: payloads(d),
                scalars: scalars.to_vec(),
                global_size: len,
            };
            let submission = q.enqueue_command_buffer(&cb, bindings).unwrap();
            let read = |&id| submission.read(id).unwrap().clone();
            reads.push(read_ids.iter().map(read).collect());
            events.push(submission.events().to_vec());
        }
    } else {
        for (d, q) in queues.iter().enumerate() {
            let (b, mut payloads) = (&slots[d], payloads(d).into_iter());
            let (mut evs, mut rds) = (Vec::new(), Vec::new());
            for &(what, slot, offset) in sequence {
                evs.push(
                    match what {
                        0 => q.enqueue_write_bytes(&b[slot], 0, &payloads.next().unwrap()),
                        1 => {
                            let args = [
                                KernelArg::Buffer(b[slot].clone()),
                                KernelArg::Buffer(b[(slot + offset) % SLOTS].clone()),
                                KernelArg::Scalar(scalars[0]),
                                KernelArg::Scalar(scalars[1]),
                            ];
                            q.enqueue_kernel(&axpy, len, &args)
                        }
                        _ => q.enqueue_read_buffer_region_nb::<f32>(&b[slot], 0, len),
                    }
                    .unwrap(),
                );
                if what == 2 {
                    rds.push(evs[evs.len() - 1].clone());
                }
            }
            events.push(evs);
            reads.push(rds);
        }
    }
    let host = ctx.host_now() - start;
    let claim = |read: &EventHandle| {
        let mut out = vec![0.0f32; len];
        read.wait_into(&mut out).ok().map(|_| bits(&out))
    };
    let observed = Observed {
        outcomes: events
            .iter()
            .map(|evs| {
                evs.iter()
                    .map(|e| e.wait().map(drop).map_err(|e| e.to_string()))
                    .collect()
            })
            .collect(),
        reads: reads
            .iter()
            .map(|rs| rs.iter().filter_map(claim).collect())
            .collect(),
        rows: queues
            .iter()
            .map(|q| {
                let log = q.events();
                log.iter()
                    .map(|e| (e.kind.clone(), e.bytes, e.work_items, e.start, e.end))
                    .collect()
            })
            .collect(),
        ops: (0..devices)
            .map(|d| ctx.device(d).unwrap().fault_op_count())
            .collect(),
        latched: queues
            .iter()
            .map(CommandQueue::deferred_error_count)
            .collect(),
        buffers: queues
            .iter()
            .zip(&slots)
            .map(|(q, b)| {
                let read =
                    |b: &Buffer| claim(&q.enqueue_read_buffer_region_nb::<f32>(b, 0, len).unwrap());
                b.iter().map(read).collect()
            })
            .collect(),
    };
    let queued = events
        .iter()
        .map(|evs| evs.iter().map(EventHandle::queued_at).collect())
        .collect();
    (observed, queued, host)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_recorded_sequence_behaves_exactly_like_its_commands(
        sequence in sequences(),
        devices in 1usize..=4,
        len in 1usize..48,
    ) {
        let none = FaultPlan::new();
        let (each, _, host_each) = run_sequence(devices, len, &sequence, false, &none);
        let (recorded, queued, host) = run_sequence(devices, len, &sequence, true, &none);
        // Same buffers, read payloads, kernel costs and event rows but
        // `queued`, and every command succeeded.
        prop_assert_eq!(&recorded, &each);
        prop_assert!(recorded.outcomes.iter().flatten().all(Result::is_ok));
        // The host: one enqueue per command one by one; recording costs one
        // per command once, each submission one (after each queue's spin).
        let (e, n, d) = (ApiModel::opencl().enqueue_overhead.0, sequence.len() as u64, devices as u64);
        prop_assert_eq!(host_each, SimDuration(e * d * (1 + n)));
        prop_assert_eq!(host, SimDuration(e * (d + n + d)));
        // A submission's commands share its `queued` time.
        for q in &queued {
            prop_assert!(q.iter().all(|&t| t == q[0]), "{:?}", q);
        }
    }

    #[test]
    fn a_fault_on_command_k_fails_the_rest_of_the_submission_unexecuted(
        sequence in sequences(),
        devices in 1usize..=4,
        len in 1usize..48,
        struck in 0usize..4,
        k in 0usize..8,
        lost in any::<bool>(),
    ) {
        let (struck, k) = (struck % devices, k % sequence.len() + 1);
        // Command k of the submission is the device's op 1 + k (the spin is op 1).
        let op = 1 + k;
        let plan = match (lost, sequence[k - 1].0) {
            (true, _) => FaultPlan::new().device_lost_at_op(struck, op),
            (false, 1) => FaultPlan::new().transient_launch_at_op(struck, op),
            (false, _) => FaultPlan::new().transient_transfer_at_op(struck, op),
        };
        let none = FaultPlan::new();
        let (clean, _, host_clean) = run_sequence(devices, len, &sequence, true, &none);
        let (prefix, _, _) = run_sequence(devices, len, &sequence[..k - 1], true, &none);
        let (hit, _, host) = run_sequence(devices, len, &sequence, true, &plan);
        prop_assert_eq!(host, host_clean);
        for d in 0..devices {
            if d != struck {
                prop_assert_eq!(&hit.outcomes[d], &clean.outcomes[d]);
                prop_assert_eq!(&hit.rows[d], &clean.rows[d]);
                prop_assert_eq!(&hit.buffers[d], &clean.buffers[d]);
                prop_assert_eq!((hit.ops[d], hit.latched[d]), (clean.ops[d], 0));
                continue;
            }
            // Executed 1…k: the first k − 1 as in a run of just them, and
            // command k reached the device — one fault-op — and failed.
            let outcomes = &hit.outcomes[d];
            prop_assert!(outcomes[..k - 1].iter().all(Result::is_ok));
            let err = outcomes[k - 1].clone().unwrap_err();
            prop_assert!(err.contains(if lost { "has been lost" } else { "injected transient" }), "{}", err);
            prop_assert_eq!(hit.ops[d], 1 + k);
            prop_assert_eq!(&hit.rows[d], &prefix.rows[d]);
            prop_assert_eq!(&hit.reads[d], &prefix.reads[d]);
            if !lost {
                prop_assert_eq!(&hit.buffers[d], &prefix.buffers[d]);
            }
            // Failed unexecuted k+1…: command k's error, no fault-op, no
            // row, no side effect — each latched like any failed command.
            prop_assert!(outcomes[k..].iter().all(|o| o.as_ref().err() == Some(&err)));
            prop_assert_eq!(hit.latched[d], sequence.len() - k + 1);
        }
    }
}

/// Every bad binding fails the whole submission — before the host pays
/// anything or a command runs — with the error text of the per-command call
/// it stands for; so does recording a launch whose slot kinds do not fit
/// the kernel.
#[test]
fn bad_bindings_fail_with_the_per_command_errors() {
    let ctx = Context::with_gpus(2);
    let q = ctx.queue(0).unwrap();
    let axpy = ctx.build_program(AXPY).unwrap().kernel("axpy").unwrap();
    let args = [
        Slot::Buffer(0),
        Slot::Buffer(1),
        Slot::Scalar(0),
        Slot::Scalar(1),
    ];
    let mut cb = ctx.command_buffer(&[DataKind::F32, DataKind::F32], 2);
    cb.write(0).unwrap();
    cb.kernel(&axpy, &args).unwrap();
    let read = cb.read(1).unwrap();
    let a = ctx.create_buffer::<f32>(0, 4).unwrap();
    let b = ctx.create_buffer::<f32>(0, 4).unwrap();
    let elsewhere = ctx.create_buffer::<f32>(1, 4).unwrap();
    let ints = ctx.create_buffer::<i32>(0, 4).unwrap();
    let scalars = vec![Value::Int(4), Value::Float(2.0)];
    let bind = |x: &Buffer, y: &Buffer, payload: Vec<u8>| Bindings {
        buffers: vec![x.clone(), y.clone()],
        payloads: vec![payload],
        scalars: scalars.clone(),
        global_size: 4,
    };
    let launch = |x: &Buffer, y: &Buffer| {
        let args = [
            KernelArg::Buffer(x.clone()),
            KernelArg::Buffer(y.clone()),
            KernelArg::Scalar(scalars[0]),
            KernelArg::Scalar(scalars[1]),
        ];
        q.enqueue_kernel(&axpy, 4, &args).unwrap_err().to_string()
    };
    let write = |x: &Buffer, len: usize| q.enqueue_write_bytes(x, 0, &vec![0; len]).unwrap_err();
    let host = ctx.host_now();
    let cases = [
        (
            "write to another device",
            bind(&elsewhere, &b, vec![0; 16]),
            write(&elsewhere, 16).to_string(),
        ),
        (
            "payload past the end",
            bind(&a, &b, vec![0; 20]),
            write(&a, 20).to_string(),
        ),
        (
            "one buffer twice",
            bind(&a, &a, vec![0; 16]),
            launch(&a, &a),
        ),
        (
            "int buffer for float*",
            bind(&a, &ints, vec![0; 16]),
            launch(&a, &ints),
        ),
    ];
    for (what, bindings, per_command) in cases {
        let err = q.enqueue_command_buffer(&cb, bindings).unwrap_err();
        assert_eq!(err.to_string(), per_command, "{what}");
    }
    // Counts and contexts have no per-command twin.
    let mut short = bind(&a, &b, vec![0; 16]);
    short.scalars.pop();
    let err = q.enqueue_command_buffer(&cb, short).unwrap_err();
    assert!(
        err.to_string().ends_with("takes 2 scalars, 1 bound"),
        "{err}"
    );
    let foreign = Context::with_gpus(1).command_buffer(&[], 0);
    let err = q
        .enqueue_command_buffer(&foreign, Bindings::default())
        .unwrap_err();
    assert!(matches!(err, OclError::InvalidOperation(_)), "{err:?}");
    // Nothing was charged, nothing ran.
    assert_eq!(ctx.host_now(), host);
    assert!(q.events().is_empty());
    assert_eq!(q.deferred_error_count(), 0);

    // Recording checks the slot kinds against the signature, with the
    // enqueue-time texts, and charges nothing when it refuses.
    let mut ill = ctx.command_buffer(&[DataKind::F32, DataKind::I32], 2);
    let err = ill.kernel(&axpy, &args).unwrap_err();
    assert_eq!(err.to_string(), launch(&a, &ints));
    let err = ill
        .kernel(&axpy, &[Slot::Buffer(0), Slot::Scalar(0), Slot::Scalar(1)])
        .unwrap_err();
    let three = [
        KernelArg::Buffer(a.clone()),
        KernelArg::Scalar(scalars[0]),
        KernelArg::Scalar(scalars[1]),
    ];
    assert_eq!(
        err.to_string(),
        axpy.validate_args(&three).unwrap_err().to_string()
    );
    assert!(matches!(ill.write(2), Err(OclError::InvalidOperation(_))));
    assert!(matches!(
        ill.kernel(&axpy, &[Slot::Scalar(2)]),
        Err(OclError::InvalidOperation(_))
    ));
    assert_eq!(ctx.host_now(), host);
    let nothing = Bindings {
        buffers: vec![a.clone(), ints.clone()],
        scalars: scalars.clone(),
        ..Bindings::default()
    };
    let recorded = q.enqueue_command_buffer(&ill, nothing).unwrap();
    assert!(
        recorded.events().is_empty(),
        "a refused command was recorded"
    );

    // A good submission: the read is the recorded one, no other id is.
    let submission = q
        .enqueue_command_buffer(&cb, bind(&a, &b, vec![0; 16]))
        .unwrap();
    let mut out = [1.0f32; 4];
    submission.read(read).unwrap().wait_into(&mut out).unwrap();
    assert_eq!(out, [0.0; 4]);
    // Another buffer's first command is a read; here it is the write.
    let not_a_read = ctx.command_buffer(&[DataKind::F32], 0).read(0).unwrap();
    assert!(submission.read(not_a_read).is_err());
}
