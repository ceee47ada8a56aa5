//! Property tests of the unified container layer: element-wise skeletons
//! over `Matrix` must be bit-identical to scalar host references on any
//! device count, and the shared `Storage` coherence core must reproduce the
//! exact transfer behaviour the `Vector` machinery had before the refactor
//! (same event counts, same bytes, same laziness).

use proptest::prelude::*;

use skelcl::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Map` over a matrix is bit-identical to the scalar host reference —
    /// the same f32 operation applied element-wise — on 1 to 4 devices.
    #[test]
    fn map_over_matrix_is_bit_identical_to_the_host_reference(
        rows in 1usize..=9,
        cols in 1usize..=7,
        devices in 1usize..=4,
        data in prop::collection::vec(-1.0e3f32..1.0e3, 63..64),
    ) {
        let rt = skelcl::init_gpus(devices);
        let elems: Vec<f32> = (0..rows * cols).map(|i| data[i % data.len()]).collect();
        let m = Matrix::from_vec(&rt, rows, cols, elems.clone()).unwrap();
        let affine = Map::<f32, f32>::from_source(
            "float func(float x, float a) { return a * x + 1.5f; }",
        );
        let out = affine.run(&m).arg(0.75f32).exec().unwrap();
        prop_assert_eq!(out.rows(), rows);
        prop_assert_eq!(out.cols(), cols);
        let got: Vec<u32> = out.to_vec().unwrap().iter().map(|x| x.to_bits()).collect();
        let expected: Vec<u32> = elems
            .iter()
            .map(|x| (0.75f32 * x + 1.5f32).to_bits())
            .collect();
        prop_assert_eq!(got, expected, "devices = {}", devices);
    }

    /// `Zip` over two equal-shaped matrices is bit-identical to the scalar
    /// host reference on 1 to 4 devices.
    #[test]
    fn zip_over_matrices_is_bit_identical_to_the_host_reference(
        rows in 1usize..=9,
        cols in 1usize..=7,
        devices in 1usize..=4,
        a in prop::collection::vec(-50.0f32..50.0, 63..64),
        b in prop::collection::vec(-50.0f32..50.0, 63..64),
    ) {
        let rt = skelcl::init_gpus(devices);
        let xs: Vec<f32> = (0..rows * cols).map(|i| a[i % a.len()]).collect();
        let ys: Vec<f32> = (0..rows * cols).map(|i| b[i % b.len()]).collect();
        let mx = Matrix::from_vec(&rt, rows, cols, xs.clone()).unwrap();
        let my = Matrix::from_vec(&rt, rows, cols, ys.clone()).unwrap();
        let saxpy = Zip::<f32, f32, f32>::from_source(
            "float func(float x, float y, float a) { return a * x + y; }",
        );
        let out = saxpy.run(&mx, &my).arg(2.0f32).exec().unwrap();
        let got: Vec<u32> = out.to_vec().unwrap().iter().map(|x| x.to_bits()).collect();
        let expected: Vec<u32> = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (2.0f32 * x + y).to_bits())
            .collect();
        prop_assert_eq!(got, expected, "devices = {}", devices);
        prop_assert_eq!(out.rows(), rows);
    }

    /// `Reduce` over a matrix equals the reduce over the flattened vector —
    /// both run through the identical container launch path.
    #[test]
    fn reduce_over_matrix_matches_the_flat_vector_reduce(
        rows in 1usize..=9,
        cols in 1usize..=7,
        devices in 1usize..=4,
        data in prop::collection::vec(-10.0f32..10.0, 63..64),
    ) {
        let rt = skelcl::init_gpus(devices);
        let elems: Vec<f32> = (0..rows * cols).map(|i| data[i % data.len()]).collect();
        let m = Matrix::from_vec(&rt, rows, cols, elems.clone()).unwrap();
        let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
        let from_matrix = sum.run(&m).scalar().unwrap();

        // Host reference folding in the engine's exact association: a
        // sequential f32 fold per row-block part, then a fold of the
        // partials in device order (the paper's three-step strategy).
        let mut idx = 0;
        let mut partials = Vec::new();
        for rows_on_device in m.row_counts() {
            let n = rows_on_device * cols;
            if n == 0 {
                continue;
            }
            let part = &elems[idx..idx + n];
            idx += n;
            let mut acc = part[0];
            for x in &part[1..] {
                acc += *x;
            }
            partials.push(acc);
        }
        let mut expected = partials[0];
        for p in &partials[1..] {
            expected += *p;
        }
        prop_assert_eq!(from_matrix.to_bits(), expected.to_bits());

        // On one device the matrix reduce and the flat vector reduce share
        // one association and must agree bit for bit.
        if devices == 1 {
            let v = Vector::from_vec(&rt, elems);
            let from_vector = sum.run(&v).scalar().unwrap();
            prop_assert_eq!(from_matrix.to_bits(), from_vector.to_bits());
        }
    }

    /// The `Storage` coherence state machine behaves identically behind a
    /// vector and a matrix under every distribution: same transition
    /// sequence (host-dirty → devices → gather), same bytes moved. A
    /// one-column matrix is stored exactly like the vector of its elements,
    /// so its transfers are the vector's one for one — device, kind, bytes
    /// and virtual timestamps.
    #[test]
    fn storage_coherence_transitions_match_between_vector_and_matrix(
        rows in 1usize..=8,
        cols in 1usize..=6,
        devices in 1usize..=4,
        kind in 0usize..4,
        single in 0usize..4,
    ) {
        let len = rows * cols;
        let data: Vec<f32> = (0..len).map(|i| i as f32).collect();
        let distribution = match kind {
            0 => Distribution::Single(single % devices),
            1 => Distribution::Block,
            2 => Distribution::block_weighted(&[3.0, 1.0, 0.0, 2.0][..devices]),
            _ => Distribution::Copy,
        };
        let transfers = |rt: &SkelCl| -> Vec<skelcl::oclsim::Event> {
            let events = rt.drain_events().into_iter().flatten();
            events.filter(|e| e.is_transfer()).collect()
        };

        // Vector run: upload (lazy) then gather.
        let rt_v = skelcl::init_gpus(devices);
        let v = Vector::from_vec(&rt_v, data.clone());
        v.set_distribution(distribution.clone()).unwrap();
        rt_v.drain_events();
        v.copy_data_to_devices().unwrap();
        v.mark_device_modified();
        let _ = v.to_vec().unwrap();
        let vector_events = transfers(&rt_v);

        // Matrix runs over the identical element space.
        let matrix_events = |rows: usize, cols: usize| {
            let rt_m = skelcl::init_gpus(devices);
            let m = Matrix::from_vec(&rt_m, rows, cols, data.clone()).unwrap();
            m.set_distribution(distribution.clone()).unwrap();
            rt_m.drain_events();
            m.ensure_on_devices().unwrap();
            m.mark_device_modified();
            let _ = m.to_vec().unwrap();
            transfers(&rt_m)
        };
        prop_assert_eq!(&vector_events, &matrix_events(len, 1), "{:?}", distribution);
        let matrix_events = matrix_events(rows, cols);
        // Block splits rows, so with more columns the parts differ; each
        // container still uploads every element once per replica and
        // downloads it once (a copy is gathered from its first device).
        let replicas = if distribution == Distribution::Copy { devices } else { 1 };
        let total = |evs: &[skelcl::oclsim::Event], read: bool| -> usize {
            evs.iter().filter(|e| e.is_read() == read).map(|e| e.bytes).sum()
        };
        for (what, evs) in [("vector", &vector_events), ("matrix", &matrix_events)] {
            prop_assert_eq!(total(evs, false), replicas * len * 4, "{} uploads", what);
            prop_assert_eq!(total(evs, true), len * 4, "{} downloads", what);
            prop_assert!(evs.len() <= 2 * devices, "{} moves each part once", what);
        }
    }

    /// Chained element-wise skeletons over matrices stay on the devices: no
    /// host transfers between a map and a following zip/reduce (the lazy
    /// coherence contract the vector always had).
    #[test]
    fn chained_matrix_skeletons_move_no_data(
        rows in 1usize..=9,
        cols in 1usize..=7,
        devices in 1usize..=4,
    ) {
        let rt = skelcl::init_gpus(devices);
        let m = Matrix::from_fn(&rt, rows, cols, |r, c| (r * cols + c) as f32);
        let inc = Map::<f32, f32>::from_source("float func(float x) { return x + 1.0f; }");
        let add = Zip::<f32, f32, f32>::from_source(
            "float func(float a, float b) { return a + b; }",
        );
        let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");

        let a = m.map(&inc).unwrap();
        rt.drain_events();
        let b = a.map(&inc).unwrap();
        let c = a.zip(&b, &add).unwrap();
        let chained_transfers: usize = rt
            .drain_events()
            .iter()
            .flatten()
            .filter(|e| e.is_transfer())
            .count();
        prop_assert_eq!(
            chained_transfers,
            0,
            "chained matrix skeletons must not touch the host"
        );
        // Reduce legitimately gathers one partial per active device.
        // c[i] = (e + 1) + (e + 2) with e = i, so the sum is 2·Σe + 3n.
        let total = c.reduce(&sum).unwrap();
        let n = (rows * cols) as f32;
        let base: f32 = (0..rows * cols).map(|i| i as f32).sum();
        prop_assert!((total - (2.0 * base + 3.0 * n)).abs() < n * 1e-2);
    }
}

#[test]
fn matrix_map_works_on_every_acceptance_device_count() {
    // The acceptance matrix of the container refactor: Map and Zip over
    // Matrix<f32> on 1, 2 and 4 devices, bit-identical to the host.
    for devices in [1usize, 2, 4] {
        let rt = skelcl::init_gpus(devices);
        let rows = 33;
        let cols = 17;
        let m = Matrix::from_fn(&rt, rows, cols, |r, c| {
            ((r * 31 + c * 7) % 101) as f32 - 50.0
        });
        let host = m.to_vec().unwrap();

        let square = Map::<f32, f32>::from_source("float func(float x) { return x * x; }");
        let squared = m.map(&square).unwrap();
        let got: Vec<u32> = squared
            .to_vec()
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let expected: Vec<u32> = host.iter().map(|x| (x * x).to_bits()).collect();
        assert_eq!(got, expected, "map, devices = {devices}");

        let sub =
            Zip::<f32, f32, f32>::from_source("float func(float a, float b) { return a - b; }");
        let diff = squared.zip(&m, &sub).unwrap();
        let got: Vec<u32> = diff.to_vec().unwrap().iter().map(|x| x.to_bits()).collect();
        let expected: Vec<u32> = host.iter().map(|x| (x * x - x).to_bits()).collect();
        assert_eq!(got, expected, "zip, devices = {devices}");
    }
}

#[test]
fn run_into_over_matrices_allocates_nothing_in_steady_state() {
    let rt = skelcl::init_gpus(2);
    let inc = Map::<f32, f32>::from_source("float func(float x) { return x + 1.0f; }");
    let m = Matrix::filled(&rt, 16, 8, 0.0f32);
    let out = Matrix::filled(&rt, 16, 8, 0.0f32);
    // Warm up both containers' device buffers.
    inc.run(&m).run_into(&out).unwrap();
    let live_before: usize = (0..2)
        .map(|d| rt.context().device(d).unwrap().live_buffers())
        .sum();
    for _ in 0..5 {
        inc.run(&m).run_into(&out).unwrap();
    }
    let live_after: usize = (0..2)
        .map(|d| rt.context().device(d).unwrap().live_buffers())
        .sum();
    assert_eq!(
        live_before, live_after,
        "steady-state run_into must reuse the target's buffers"
    );
    assert_eq!(out.to_vec().unwrap(), vec![1.0f32; 128]);
}

#[test]
fn exec_trace_telemetry_flows_through_the_container_path() {
    let rt = skelcl::init_gpus(2);
    let inc = Map::<f32, f32>::from_source("float func(float x) { return x + 1.0f; }");
    let v = Vector::from_vec(&rt, vec![1.0f32; 8]);
    let m = Matrix::filled(&rt, 4, 2, 1.0f32);
    let calls_before = rt.exec_trace().skeleton_calls;
    let _ = v.map(&inc).unwrap();
    let _ = m.map(&inc).unwrap();
    let trace = rt.exec_trace();
    assert_eq!(
        trace.skeleton_calls,
        calls_before + 2,
        "vector and matrix launches charge the same skeleton-call counter"
    );
    assert_eq!(trace.programs_built, 1, "both launches share one program");
}
