//! Workspace-level integration tests: behaviour that spans the kernel
//! language, the device simulator, the SkelCL library, the dOpenCL layer and
//! the applications. Property-based tests check the skeleton semantics
//! against sequential references for arbitrary inputs and device counts.

use proptest::prelude::*;

use skelcl::prelude::*;
use skelcl::{DeviceSelection, SkelCl, StaticScheduler};

// ---------------------------------------------------------------------------
// Skeleton semantics across device counts (Sections II-A and III-C)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn map_equals_sequential_for_any_input(
        data in prop::collection::vec(-1.0e3f32..1.0e3, 1..200),
        devices in 1usize..=4,
    ) {
        let rt = skelcl::init_gpus(devices);
        let map = Map::<f32, f32>::from_source(
            "float func(float x) { return 2.0f * x + 1.0f; }",
        );
        let v = Vector::from_vec(&rt, data.clone());
        let out = map.run(&v).exec().unwrap().to_vec().unwrap();
        let expected: Vec<f32> = data.iter().map(|x| 2.0 * x + 1.0).collect();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn zip_with_additional_argument_equals_sequential(
        data in prop::collection::vec((-1.0e3f32..1.0e3, -1.0e3f32..1.0e3), 1..200),
        a in -10.0f32..10.0,
        devices in 1usize..=4,
    ) {
        let rt = skelcl::init_gpus(devices);
        let saxpy = Zip::<f32, f32, f32>::from_source(
            "float func(float x, float y, float a) { return a * x + y; }",
        );
        let xs: Vec<f32> = data.iter().map(|(x, _)| *x).collect();
        let ys: Vec<f32> = data.iter().map(|(_, y)| *y).collect();
        let xv = Vector::from_vec(&rt, xs.clone());
        let yv = Vector::from_vec(&rt, ys.clone());
        let out = saxpy.run(&xv, &yv).arg(a).exec().unwrap().to_vec().unwrap();
        let expected: Vec<f32> = xs.iter().zip(&ys).map(|(x, y)| a * x + y).collect();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn reduce_sum_is_independent_of_device_count(
        data in prop::collection::vec(-100i32..100, 1..300),
        devices in 1usize..=4,
    ) {
        // Integer addition is exactly associative, so the multi-device result
        // must equal the sequential sum bit for bit.
        let rt = skelcl::init_gpus(devices);
        let sum = Reduce::<i32>::from_source("int func(int a, int b) { return a + b; }");
        let v = Vector::from_vec(&rt, data.clone());
        let result = v.reduce(&sum).unwrap();
        prop_assert_eq!(result, data.iter().sum::<i32>());
    }

    #[test]
    fn scan_matches_sequential_prefix_for_any_device_count(
        data in prop::collection::vec(-100i32..100, 1..300),
        devices in 1usize..=4,
    ) {
        let rt = skelcl::init_gpus(devices);
        let scan = Scan::<i32>::from_source("int func(int a, int b) { return a + b; }");
        let v = Vector::from_vec(&rt, data.clone());
        let out = scan.run(&v).exec().unwrap().to_vec().unwrap();
        let mut acc = 0;
        let expected: Vec<i32> = data.iter().map(|x| { acc += x; acc }).collect();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn redistribution_preserves_contents(
        data in prop::collection::vec(-1.0e6f32..1.0e6, 1..256),
        devices in 1usize..=4,
        order in prop::collection::vec(0usize..4, 1..6),
    ) {
        // Cycling through arbitrary sequences of distributions never changes
        // what the vector contains.
        let rt = skelcl::init_gpus(devices);
        let v = Vector::from_vec(&rt, data.clone());
        for step in order {
            let dist = match step {
                0 => Distribution::Block,
                1 => Distribution::Copy,
                2 => Distribution::Single(0),
                _ => Distribution::block_weighted(&[2.0, 1.0, 1.0, 1.0][..devices]),
            };
            v.set_distribution(dist).unwrap();
            v.copy_data_to_devices().unwrap();
        }
        prop_assert_eq!(v.to_vec().unwrap(), data);
    }

    #[test]
    fn kernel_language_matches_native_closure(
        data in prop::collection::vec(-50.0f32..50.0, 1..100),
    ) {
        // The same user function expressed as kernel-language source and as a
        // Rust closure must produce identical results.
        let rt = skelcl::init_gpus(2);
        let source = Map::<f32, f32>::from_source(
            "float func(float x) { return x * x - 3.0f * x + 1.0f; }",
        );
        let native = Map::<f32, f32>::new(|x, _| x * x - 3.0 * x + 1.0);
        let v1 = Vector::from_vec(&rt, data.clone());
        let v2 = Vector::from_vec(&rt, data);
        prop_assert_eq!(
            source.run(&v1).exec().unwrap().to_vec().unwrap(),
            native.run(&v2).exec().unwrap().to_vec().unwrap()
        );
    }
}

// ---------------------------------------------------------------------------
// Cross-crate scenarios
// ---------------------------------------------------------------------------

#[test]
fn listing_3_pipeline_runs_on_dopencl_devices() {
    // SkelCL on top of dOpenCL: the OSEM reconstruction runs unmodified on
    // the remote GPUs of the simulated lab cluster (Section V).
    let cluster = dopencl::Cluster::lab_cluster();
    let profiles: Vec<_> = cluster.gpu_profiles().into_iter().take(4).collect();
    let rt = skelcl::init_profiles(profiles);

    let config = osem::ReconstructionConfig::test_scale();
    let subsets = osem::sequential::generate_subsets(&config);
    let mut reference = vec![1.0f32; config.volume.voxel_count()];
    for s in &subsets {
        osem::sequential::process_subset(&config, s, &mut reference);
    }
    let osem_impl = osem::SkelclOsem::new(rt, config);
    let image = osem_impl.reconstruct_subsets(&subsets).unwrap();
    assert!(osem::max_relative_difference(&image, &reference) < 1e-3);
}

#[test]
fn osem_three_implementations_agree_on_two_gpus() {
    let config = osem::ReconstructionConfig::test_scale();
    let subsets = osem::sequential::generate_subsets(&config);

    let rt = SkelCl::init(DeviceSelection::Gpus(2));
    let skel = osem::SkelclOsem::new(rt, config.clone());
    let img_skel = skel.reconstruct_subsets(&subsets).unwrap();

    let ocl = osem::OpenClOsem::new(2, config.clone()).unwrap();
    let img_ocl = ocl.reconstruct_subsets(&subsets).unwrap();

    let cuda = osem::CudaOsem::new(2, config).unwrap();
    let img_cuda = cuda.reconstruct_subsets(&subsets).unwrap();

    assert!(osem::max_relative_difference(&img_skel, &img_ocl) < 1e-3);
    assert!(osem::max_relative_difference(&img_skel, &img_cuda) < 1e-3);
}

#[test]
fn scheduler_places_small_final_reduction_on_the_cpu() {
    let rt = skelcl::init_profiles(vec![
        oclsim::DeviceProfile::tesla_c1060(),
        oclsim::DeviceProfile::tesla_c1060(),
        oclsim::DeviceProfile::xeon_e5520(),
    ]);
    let scheduler = StaticScheduler::analytical(&rt);
    let (_, is_cpu) = scheduler
        .final_reduce_placement(8, 4, CostHint::new(1.0, 8.0))
        .unwrap();
    assert!(is_cpu);
}

#[test]
fn chained_skeletons_avoid_all_intermediate_transfers() {
    // map → map → reduce: only the initial upload and the final single-value
    // reads may move data.
    let rt = skelcl::init_gpus(4);
    let inc = Map::<f32, f32>::from_source("float func(float x) { return x + 1.0f; }");
    let dbl = Map::<f32, f32>::from_source("float func(float x) { return 2.0f * x; }");
    let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");
    let v = Vector::from_vec(&rt, vec![1.0f32; 4096]);

    let a = inc.run(&v).exec().unwrap();
    rt.drain_events();
    let b = dbl.run(&a).exec().unwrap();
    let result = b.reduce(&sum).unwrap();
    assert_eq!(result, 4.0 * 4096.0);

    let events = rt.drain_events();
    let uploads = events
        .iter()
        .flatten()
        .filter(|e| matches!(e.kind, oclsim::CommandKind::WriteBuffer))
        .count();
    assert_eq!(uploads, 0, "no re-uploads between chained skeletons");
}
