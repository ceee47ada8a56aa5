//! Acceptance tests of the 2-D stencil subsystem: Gaussian blur and heat
//! diffusion produce **bit-identical** results to a scalar host reference on
//! 1, 2 and 4 devices, and the iterative driver exchanges **halo rows only**
//! between sweeps (asserted via oclsim transfer stats and the runtime's
//! `ExecTrace` halo counters). The exchange runs without the host in the loop
//! (owner read → forwarded write, on-device edge copies); its command shapes
//! must hold under both harness schedules CI runs (`--test-threads=1` and the
//! default) — its virtual timestamps are `determinism.rs`', its fault
//! behaviour `chaos.rs`'.

use skelcl::prelude::*;

/// The 3×3 Gaussian blur kernel (halo 1): 1/16 · [1 2 1; 2 4 2; 1 2 1].
const GAUSSIAN_BLUR: &str = r#"
    float func(float x) {
        float acc = 4.0f * x;
        acc += 2.0f * (get(-1, 0) + get(1, 0) + get(0, -1) + get(0, 1));
        acc += get(-1, -1) + get(1, -1) + get(-1, 1) + get(1, 1);
        return acc / 16.0f;
    }
"#;

/// Explicit 5-point heat diffusion step (halo 1): u + α·∇²u.
const HEAT_STEP: &str = r#"
    float func(float u, float alpha) {
        return u + alpha * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u);
    }
"#;

/// A vertical 5-row average exercising halo width 2.
const WIDE_VERTICAL: &str = r#"
    float func(float x) {
        return 0.2f * (x + get(0, -2) + get(0, -1) + get(0, 1) + get(0, 2));
    }
"#;

/// Scalar host reference executor. `f` receives a neighbour probe and the
/// centre value; the probe applies `boundary` exactly like the runtime. All
/// arithmetic inside `f` must mirror the UDF's operation order — every f32
/// add/mul/div is a single correctly-rounded operation in both worlds, so
/// results match bit for bit.
fn host_stencil(
    input: &[f32],
    rows: usize,
    cols: usize,
    boundary: Boundary<f32>,
    f: impl Fn(&dyn Fn(i64, i64) -> f32, f32) -> f32,
) -> Vec<f32> {
    let (r_max, c_max) = (rows as i64, cols as i64);
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..r_max {
        for c in 0..c_max {
            let probe = |dx: i64, dy: i64| -> f32 {
                let mut rr = r + dy;
                let mut cc = c + dx;
                match boundary {
                    Boundary::Clamp => {
                        rr = rr.clamp(0, r_max - 1);
                        cc = cc.clamp(0, c_max - 1);
                    }
                    Boundary::Wrap => {
                        rr = rr.rem_euclid(r_max);
                        cc = cc.rem_euclid(c_max);
                    }
                    Boundary::Constant(v) => {
                        if !(0..r_max).contains(&rr) || !(0..c_max).contains(&cc) {
                            return v;
                        }
                    }
                }
                input[(rr * c_max + cc) as usize]
            };
            out[(r * c_max + c) as usize] = f(&probe, input[(r * c_max + c) as usize]);
        }
    }
    out
}

fn blur_ref(get: &dyn Fn(i64, i64) -> f32, x: f32) -> f32 {
    let mut acc = 4.0f32 * x;
    acc += 2.0f32 * (get(-1, 0) + get(1, 0) + get(0, -1) + get(0, 1));
    acc += get(-1, -1) + get(1, -1) + get(-1, 1) + get(1, 1);
    acc / 16.0f32
}

fn heat_ref(alpha: f32) -> impl Fn(&dyn Fn(i64, i64) -> f32, f32) -> f32 {
    move |get, u| u + alpha * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f32 * u)
}

fn wide_ref(get: &dyn Fn(i64, i64) -> f32, x: f32) -> f32 {
    0.2f32 * (x + get(0, -2) + get(0, -1) + get(0, 1) + get(0, 2))
}

fn test_image(rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| ((i * 37 + 11) % 251) as f32 * 0.25 - 20.0)
        .collect()
}

fn assert_bits_eq(got: &[f32], expected: &[f32], what: &str) {
    let g: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
    let e: Vec<u32> = expected.iter().map(|x| x.to_bits()).collect();
    assert_eq!(g, e, "{what} must match the host reference bit for bit");
}

#[test]
fn gaussian_blur_is_bit_identical_on_1_2_and_4_devices() {
    let (rows, cols) = (23, 17);
    let image = test_image(rows, cols);
    let expected = host_stencil(&image, rows, cols, Boundary::Clamp, blur_ref);
    for devices in [1, 2, 4] {
        let rt = skelcl::init_gpus(devices);
        let blur = MapOverlap::<f32, f32>::from_source(GAUSSIAN_BLUR)
            .with_halo(1)
            .with_boundary(Boundary::Clamp);
        let m = Matrix::from_vec(&rt, rows, cols, image.clone()).unwrap();
        let out = blur.run(&m).exec().unwrap();
        assert_bits_eq(
            &out.to_vec().unwrap(),
            &expected,
            &format!("gaussian blur on {devices} device(s)"),
        );
    }
}

#[test]
fn heat_diffusion_is_bit_identical_on_1_2_and_4_devices_over_many_sweeps() {
    let (rows, cols, sweeps) = (20, 12, 25);
    let alpha = 0.15f32;
    let mut expected = test_image(rows, cols);
    for _ in 0..sweeps {
        expected = host_stencil(
            &expected,
            rows,
            cols,
            Boundary::Constant(0.0),
            heat_ref(alpha),
        );
    }
    for devices in [1, 2, 4] {
        let rt = skelcl::init_gpus(devices);
        let heat = MapOverlap::<f32, f32>::from_source(HEAT_STEP)
            .with_halo(1)
            .with_boundary(Boundary::Constant(0.0));
        let m = Matrix::from_vec(&rt, rows, cols, test_image(rows, cols)).unwrap();
        let out = heat.run(&m).arg(alpha).run_iter(sweeps).unwrap();
        assert_bits_eq(
            &out.to_vec().unwrap(),
            &expected,
            &format!("{sweeps} heat sweeps on {devices} device(s)"),
        );
    }
}

#[test]
fn halo_width_two_stencils_match_on_multiple_devices() {
    let (rows, cols) = (18, 9);
    let image = test_image(rows, cols);
    let expected = host_stencil(&image, rows, cols, Boundary::Wrap, wide_ref);
    for devices in [1, 3] {
        let rt = skelcl::init_gpus(devices);
        let st = MapOverlap::<f32, f32>::from_source(WIDE_VERTICAL)
            .with_halo(2)
            .with_boundary(Boundary::Wrap);
        let m = Matrix::from_vec(&rt, rows, cols, image.clone()).unwrap();
        let out = st.run(&m).exec().unwrap();
        assert_bits_eq(
            &out.to_vec().unwrap(),
            &expected,
            &format!("halo-2 wrap stencil on {devices} device(s)"),
        );
        assert_eq!(
            (out.distribution(), out.halo_rows()),
            (Distribution::Block, 2)
        );
    }
}

#[test]
fn iterative_sweeps_exchange_halo_rows_not_whole_parts() {
    let (rows, cols, sweeps) = (64, 32, 6);
    let rt = skelcl::init_gpus(4);
    let heat = MapOverlap::<f32, f32>::from_source(HEAT_STEP)
        .with_halo(1)
        .with_boundary(Boundary::Constant(0.0));
    let m = Matrix::from_vec(&rt, rows, cols, test_image(rows, cols)).unwrap();

    rt.drain_events();
    let out = heat.run(&m).arg(0.1f32).run_iter(sweeps).unwrap();

    let events = rt.drain_events();
    let row_bytes = cols * 4;
    let core_rows = rows / 4;
    let mut halo_bytes_seen = 0usize;
    for log in &events {
        // One padded upload per device — its core rows, one edge or ghost
        // zone on each side, a ghost zone at most `sweeps` rows deep — and
        // after it nothing but halo traffic: at most a ghost zone per
        // transfer, never a part.
        let mut transfers = log.iter().filter(|e| e.is_transfer());
        let upload = transfers.next().expect("every device uploads its part");
        assert!(upload.is_write());
        let padding = upload.bytes / row_bytes - core_rows;
        assert!(
            upload.bytes % row_bytes == 0 && (2..=2 * sweeps).contains(&padding),
            "upload of {} bytes is not a padded part",
            upload.bytes
        );
        for e in transfers {
            assert!(
                e.bytes <= sweeps * row_bytes && e.bytes < core_rows * row_bytes,
                "between-sweep transfer of {} bytes exceeds a ghost zone; \
                 whole parts are {} bytes",
                e.bytes,
                core_rows * row_bytes
            );
            halo_bytes_seen += e.bytes;
        }
    }
    assert!(halo_bytes_seen > 0, "sweeps must refresh halo data");

    // The runtime telemetry exposes the same story without event plumbing.
    let trace = rt.exec_trace();
    assert!(trace.halo_transfers() > 0);
    assert_eq!(
        trace.halo_bytes() % row_bytes,
        0,
        "halo traffic is whole rows"
    );
    assert!(trace.skeleton_calls >= sweeps);
    // And the result is still exact.
    let mut expected = m.to_vec().unwrap();
    for _ in 0..sweeps {
        expected = host_stencil(
            &expected,
            rows,
            cols,
            Boundary::Constant(0.0),
            heat_ref(0.1),
        );
    }
    assert_bits_eq(
        &out.to_vec().unwrap(),
        &expected,
        "iterative heat on 4 devices",
    );
}

/// One halo refresh (the second of two chained sweeps), as the commands
/// each device executed: (reads, forwarded writes, on-device copies), plus
/// the result of the two sweeps.
fn observe_refresh(
    devices: usize,
    rows: usize,
    cols: usize,
    stencil: &MapOverlap<f32, f32>,
) -> (Vec<(Vec<usize>, Vec<usize>, Vec<usize>)>, Vec<f32>) {
    let rt = skelcl::init_gpus(devices);
    let m = Matrix::from_vec(&rt, rows, cols, test_image(rows, cols)).unwrap();
    let once = stencil.run(&m).exec().unwrap();
    rt.drain_events();
    let twice = stencil.run(&once).exec().unwrap();
    let per_device = rt
        .drain_events()
        .iter()
        .map(|log| {
            let bytes = |pred: &dyn Fn(&oclsim::Event) -> bool| -> Vec<usize> {
                log.iter().filter(|e| pred(e)).map(|e| e.bytes).collect()
            };
            (
                bytes(&|e| e.is_read()),
                bytes(&|e| e.is_write()),
                bytes(&|e| e.is_transfer() && !e.is_read() && !e.is_write()),
            )
        })
        .collect();
    (per_device, twice.to_vec().unwrap())
}

#[test]
fn wrap_edges_are_on_device_copies_on_one_device_and_forwards_on_two() {
    let (rows, cols) = (12, 8);
    let row = cols * 4;
    let heat = MapOverlap::<f32, f32>::from_source(
        "float func(float u) { return u + 0.1f * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u); }",
    )
    .with_halo(1)
    .with_boundary(Boundary::Wrap);
    let mut expected = test_image(rows, cols);
    for _ in 0..2 {
        expected = host_stencil(&expected, rows, cols, Boundary::Wrap, heat_ref(0.1));
    }
    // One device owns both wrapped neighbours itself: two copies, and no
    // byte crosses the bus.
    let (commands, out) = observe_refresh(1, rows, cols, &heat);
    assert_eq!(commands, [(vec![], vec![], vec![row, row])]);
    assert_bits_eq(&out, &expected, "wrap on 1 device");
    // Two devices are each other's upper *and* lower neighbour: each reads
    // two rows for the other and receives two forwards.
    let (commands, out) = observe_refresh(2, rows, cols, &heat);
    let both_ways = (vec![row, row], vec![row, row], vec![]);
    assert_eq!(commands, [both_ways.clone(), both_ways]);
    assert_bits_eq(&out, &expected, "wrap on 2 devices");
}

#[test]
fn wide_halos_travel_as_one_multi_row_segment_per_neighbour() {
    let (rows, cols) = (24, 5);
    let row = cols * 4;
    for halo in [2, 4] {
        let wide = MapOverlap::<f32, f32>::from_source(WIDE_VERTICAL)
            .with_halo(halo)
            .with_boundary(Boundary::Clamp);
        let mut expected = test_image(rows, cols);
        for _ in 0..2 {
            expected = host_stencil(&expected, rows, cols, Boundary::Clamp, wide_ref);
        }
        let (commands, out) = observe_refresh(3, rows, cols, &wide);
        assert_bits_eq(&out, &expected, &format!("halo {halo} on 3 devices"));
        // Between neighbours `halo` rows are one read and one forward; the
        // clamped rows beyond the matrix edge repeat one source row, so
        // each is its own single-row copy.
        let (segment, edge) = (halo * row, vec![row; halo]);
        assert_eq!(
            commands,
            [
                (vec![segment], vec![segment], edge.clone()),
                (vec![segment; 2], vec![segment; 2], vec![]),
                (vec![segment], vec![segment], edge),
            ],
            "halo {halo}"
        );
    }
}

#[test]
fn chained_stencils_stay_on_the_devices() {
    // blur ∘ blur: the second launch's input is the first's device-resident
    // output — only halo refreshes may move data, no full re-upload.
    let (rows, cols) = (40, 20);
    let rt = skelcl::init_gpus(2);
    let blur = MapOverlap::<f32, f32>::from_source(GAUSSIAN_BLUR);
    let m = Matrix::from_vec(&rt, rows, cols, test_image(rows, cols)).unwrap();
    let once = blur.run(&m).exec().unwrap();
    rt.drain_events();
    let twice = blur.run(&once).exec().unwrap();
    let events = rt.drain_events();
    let row_bytes = cols * 4;
    for e in events.iter().flatten().filter(|e| e.is_transfer()) {
        assert!(
            e.bytes <= row_bytes,
            "chained stencil moved {} bytes — more than a halo row",
            e.bytes
        );
    }
    let expected = {
        let one = host_stencil(&m.to_vec().unwrap(), rows, cols, Boundary::Clamp, blur_ref);
        host_stencil(&one, rows, cols, Boundary::Clamp, blur_ref)
    };
    assert_bits_eq(&twice.to_vec().unwrap(), &expected, "chained blur");
}

#[test]
fn more_devices_than_rows_still_computes_correctly() {
    let (rows, cols) = (3, 5);
    let rt = skelcl::init_gpus(4);
    let blur = MapOverlap::<f32, f32>::from_source(GAUSSIAN_BLUR);
    let image = test_image(rows, cols);
    let expected = host_stencil(&image, rows, cols, Boundary::Clamp, blur_ref);
    let m = Matrix::from_vec(&rt, rows, cols, image).unwrap();
    let out = blur.run(&m).run_iter(3).unwrap();
    let mut exp = expected;
    for _ in 0..2 {
        exp = host_stencil(&exp, rows, cols, Boundary::Clamp, blur_ref);
    }
    assert_bits_eq(&out.to_vec().unwrap(), &exp, "3 sweeps with idle devices");
}

#[test]
fn empty_matrix_launches_are_rejected() {
    let rt = skelcl::init_gpus(2);
    let blur = MapOverlap::<f32, f32>::from_source(GAUSSIAN_BLUR);
    let m = Matrix::from_vec(&rt, 0, 5, Vec::new()).unwrap();
    assert!(matches!(blur.run(&m).exec(), Err(SkelError::EmptyInput)));
}

#[test]
fn exec_trace_reports_pool_and_halo_telemetry() {
    let rt = skelcl::init_gpus(2);
    let heat = MapOverlap::<f32, f32>::from_source(HEAT_STEP);
    let m = Matrix::filled(&rt, 24, 12, 1.0f32);
    let _ = heat.run(&m).arg(0.2f32).run_iter(4).unwrap();
    // Run again: the first run's intermediates were released to the pool.
    let _ = heat.run(&m).arg(0.2f32).run_iter(4).unwrap();
    let trace = rt.exec_trace();
    assert!(trace.buffer_pool_hits > 0, "{trace:?}");
    assert!(trace.halo_transfers() > 0, "{trace:?}");
    assert_eq!(trace.devices.len(), 2);
    assert!(trace.programs_built >= 1);
    let total: usize = trace.devices.iter().map(|d| d.halo_bytes).sum();
    assert_eq!(total, trace.halo_bytes());
}

/// A stencil that mixes rows and columns at halo 1 and reads ±2 rows at
/// halo 2, so a ghost row computed from a stale or misplaced row shows.
const DEPTH_UDFS: [(usize, &str); 2] = [
    (
        1,
        "float func(float x) { return 0.5f * x + 0.125f * (get(0, -1) + get(-1, 1)) + 0.25f * get(1, 0); }",
    ),
    (
        2,
        "float func(float x) { return 0.25f * (x + get(0, -2) + get(1, -1)) + 0.125f * (get(0, 1) + get(-1, 2)); }",
    ),
];

fn depth_ref(halo: usize) -> impl Fn(&dyn Fn(i64, i64) -> f32, f32) -> f32 {
    move |get, x| match halo {
        1 => 0.5f32 * x + 0.125f32 * (get(0, -1) + get(-1, 1)) + 0.25f32 * get(1, 0),
        _ => 0.25f32 * (x + get(0, -2) + get(1, -1)) + 0.125f32 * (get(0, 1) + get(-1, 2)),
    }
}

/// The ghost depth is invisible in the result: forced depths 1–4, on 1–4
/// devices, under every boundary, for halo 1 and 2, with rows that do not
/// divide by the devices and sweeps that do not divide by the depth, all
/// give the bits of the sequential host sweeps.
#[test]
fn every_ghost_depth_computes_the_same_bits() {
    let (rows, cols, sweeps) = (29, 7, 7);
    for (halo, udf) in DEPTH_UDFS {
        for boundary in [Boundary::Clamp, Boundary::Wrap, Boundary::Constant(-1.5)] {
            let mut expected = test_image(rows, cols);
            for _ in 0..sweeps {
                expected = host_stencil(&expected, rows, cols, boundary, depth_ref(halo));
            }
            let st = MapOverlap::<f32, f32>::from_source(udf)
                .with_halo(halo)
                .with_boundary(boundary);
            for devices in 1..=4 {
                let rt = skelcl::init_gpus(devices);
                for depth in 1..=4 {
                    let m = Matrix::from_vec(&rt, rows, cols, test_image(rows, cols)).unwrap();
                    let out = st.run(&m).run_iter_at_depth(sweeps, depth).unwrap();
                    let what =
                        format!("halo {halo}, {boundary:?}, {devices} device(s), depth {depth}");
                    assert_bits_eq(&out.to_vec().unwrap(), &expected, &what);
                    // No part is asked for more ghost rows than its
                    // neighbour owns; one device stores none.
                    let cap = if devices == 1 {
                        1
                    } else {
                        rows / devices / halo
                    };
                    assert_eq!(out.ghost_depth(), depth.min(cap), "{what}");
                    assert_eq!(
                        (out.distribution(), out.halo_rows()),
                        (Distribution::Block, halo),
                        "{what}: the ghost depth is not part of the distribution"
                    );
                }
                // The depth the driver chooses by itself is one of them.
                let m = Matrix::from_vec(&rt, rows, cols, test_image(rows, cols)).unwrap();
                let out = st.run(&m).run_iter(sweeps).unwrap();
                assert_bits_eq(&out.to_vec().unwrap(), &expected, "chosen depth");
            }
        }
    }
}

/// Both sides of the cadence choice on one stencil (a 9-row box at halo 4,
/// 16 sweeps, 2 devices): over a narrow matrix the host's enqueues bound the
/// run and the block is as deep as the cap; over a wide one every redundant
/// ghost row is 2048 elements, so the chosen depth stops well below it —
/// with the same bits as an exchange before every sweep.
#[test]
fn the_chosen_depth_is_the_cap_only_while_redundant_rows_are_cheap() {
    let box9 = "float func(float x) { return (x + get(0, -1) + get(0, 1) + get(0, -2) + get(0, 2) \
                + get(0, -3) + get(0, 3) + get(0, -4) + get(0, 4)) / 9.0f; }";
    let st = MapOverlap::<f32, f32>::from_source(box9).with_halo(4);
    let (rows, sweeps, cap) = (128, 16, 16);
    let chosen = |cols: usize| {
        let rt = skelcl::init_gpus(2);
        let m = Matrix::from_vec(&rt, rows, cols, test_image(rows, cols)).unwrap();
        let out = st.run(&m).run_iter(sweeps).unwrap();
        let every_sweep = st.run(&m).run_iter_at_depth(sweeps, 1).unwrap();
        assert_bits_eq(
            &out.to_vec().unwrap(),
            &every_sweep.to_vec().unwrap(),
            &format!("{cols} columns"),
        );
        out.ghost_depth()
    };
    assert_eq!(chosen(32), cap);
    let wide = chosen(2048);
    assert!(1 < wide && wide <= cap / 2, "chose depth {wide} of {cap}");
}

/// A recovery-weighted overlap keeps its weights under a deeper ghost zone,
/// and its smallest part caps the depth.
#[test]
fn the_smallest_part_of_a_weighted_overlap_caps_the_ghost_depth() {
    let (rows, cols, sweeps) = (29, 5, 5);
    let (halo, udf) = DEPTH_UDFS[1];
    let mut expected = test_image(rows, cols);
    for _ in 0..sweeps {
        expected = host_stencil(&expected, rows, cols, Boundary::Wrap, depth_ref(halo));
    }
    let rt = skelcl::init_gpus(4);
    let st = MapOverlap::<f32, f32>::from_source(udf)
        .with_halo(halo)
        .with_boundary(Boundary::Wrap);
    let m = Matrix::from_vec(&rt, rows, cols, test_image(rows, cols)).unwrap();
    // As recovery builds it: an overlapped matrix re-partitioned by the
    // survivors' weights. Device 2 is out (a lost device's weight), device 1
    // owns 5 rows: two halo widths and a bit.
    let weights = [3.0, 1.0, 0.0, 3.0];
    m.set_overlap(halo, Boundary::Wrap).unwrap();
    DynContainer::repartition_for_recovery(&m, &weights).unwrap();
    let weighted = (Distribution::block_weighted(&weights), halo);
    assert_eq!((m.distribution(), m.halo_rows()), weighted);
    assert_eq!(m.row_counts(), [12, 5, 0, 12]);
    let out = st.run(&m).run_iter_at_depth(sweeps, 4).unwrap();
    assert_bits_eq(
        &out.to_vec().unwrap(),
        &expected,
        "weighted overlap at depth 4",
    );
    assert_eq!(out.ghost_depth(), 2);
    assert_eq!((out.distribution(), out.halo_rows()), weighted);
    assert_eq!(out.row_counts(), [12, 5, 0, 12]);
}

/// What `run_iter` returns is stored with a deeper ghost zone than the halo;
/// feeding it to the same skeleton again — one sweep, or another run — costs
/// one halo exchange, not a round trip through the host.
#[test]
fn a_deeper_stored_ghost_zone_is_not_a_host_round_trip() {
    let (rows, cols) = (48, 8);
    let row_bytes = cols * 4;
    let rt = skelcl::init_gpus(3);
    let heat = MapOverlap::<f32, f32>::from_source(HEAT_STEP)
        .with_halo(1)
        .with_boundary(Boundary::Clamp);
    let m = Matrix::from_vec(&rt, rows, cols, test_image(rows, cols)).unwrap();
    let deep = heat.run(&m).arg(0.1f32).run_iter_at_depth(4, 2).unwrap();
    assert_eq!(deep.ghost_depth(), 2);
    let mut expected = test_image(rows, cols);
    for _ in 0..4 {
        expected = host_stencil(&expected, rows, cols, Boundary::Clamp, heat_ref(0.1));
    }

    // One more sweep: the 4 neighbour-facing sides are read and forwarded
    // one halo row each, the 2 clamped edges copied on their devices.
    rt.finish_all();
    rt.drain_events();
    let once = heat.run(&deep).arg(0.1f32).exec().unwrap();
    let events: Vec<oclsim::Event> = rt.drain_events().into_iter().flatten().collect();
    let transfers: Vec<_> = events.iter().filter(|e| e.is_transfer()).collect();
    assert_eq!(transfers.len(), 4 + 4 + 2, "{transfers:?}");
    assert!(transfers.iter().all(|e| e.bytes == row_bytes));
    assert_eq!(
        once.ghost_depth(),
        2,
        "the output is stored as its input is"
    );
    expected = host_stencil(&expected, rows, cols, Boundary::Clamp, heat_ref(0.1));
    assert_bits_eq(
        &once.to_vec().unwrap(),
        &expected,
        "exec() over a deep matrix",
    );

    // Another run over that output, at the stored depth: one exchange of two
    // rows per side pays for both sweeps, and nothing else crosses a bus.
    // `to_vec` above left the host copy valid, so each side's rows are
    // written from it: no owner reads them back.
    rt.finish_all();
    rt.drain_events();
    let again = heat.run(&once).arg(0.1f32).run_iter_at_depth(2, 2).unwrap();
    let events: Vec<oclsim::Event> = rt.drain_events().into_iter().flatten().collect();
    let moved: Vec<usize> = events
        .iter()
        .filter(|e| e.is_read() || e.is_write())
        .map(|e| e.bytes)
        .collect();
    assert_eq!(moved, vec![2 * row_bytes; 4]);
    assert!(events.iter().all(|e| !e.is_read()));
    for _ in 0..2 {
        expected = host_stencil(&expected, rows, cols, Boundary::Clamp, heat_ref(0.1));
    }
    assert_bits_eq(
        &again.to_vec().unwrap(),
        &expected,
        "run_iter over a deep matrix",
    );
}

/// A window that starts inside the stored part — every sweep of a block but
/// its last — runs on every kernel engine to the interpreter's bits, under
/// `Wrap` (ghost rows on every side) and `Clamp` (the edge parts store the
/// per-sweep clamp copy next to ghost rows), and reading further than the
/// declared halo is the same launch error on every engine however many
/// ghost rows happen to be stored.
#[test]
fn deep_windows_agree_on_every_kernel_tier_and_keep_the_halo_bound() {
    use skelcl::Tier;
    let (rows, cols, sweeps) = (26, 6, 5);
    let (halo, udf) = DEPTH_UDFS[0];
    let mut errors = Vec::new();
    for boundary in [Boundary::Wrap, Boundary::Clamp] {
        let mut expected = test_image(rows, cols);
        for _ in 0..sweeps {
            expected = host_stencil(&expected, rows, cols, boundary, depth_ref(halo));
        }
        let too_far =
            MapOverlap::<f32, f32>::from_source("float func(float x) { return x + get(0, 2); }")
                .with_halo(1)
                .with_boundary(boundary);
        for tier in [Tier::Interp, Tier::Native] {
            let rt = skelcl::init_gpus(3);
            rt.set_kernel_tier(tier);
            let st = MapOverlap::<f32, f32>::from_source(udf)
                .with_halo(halo)
                .with_boundary(boundary);
            let m = Matrix::from_vec(&rt, rows, cols, test_image(rows, cols)).unwrap();
            let out = st.run(&m).run_iter_at_depth(sweeps, 3).unwrap();
            let label = format!("{boundary:?} {tier:?}");
            assert_bits_eq(&out.to_vec().unwrap(), &expected, &label);
            let err = too_far.run(&m).run_iter_at_depth(sweeps, 3).unwrap_err();
            errors.push(format!("{err}"));
        }
    }
    assert!(
        errors[0].contains("stencil access dy=2 exceeds the declared halo of 1 row(s)"),
        "{}",
        errors[0]
    );
    assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
}
