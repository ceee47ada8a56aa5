//! Section V of the paper: enhancing SkelCL towards distributed,
//! heterogeneous ("exascale") systems.
//!
//! The claims under test are qualitative: (1) with dOpenCL, the devices of
//! several nodes appear to the application as local OpenCL devices, so
//! SkelCL programs run on them unmodified; (2) communication with remote
//! devices is more expensive than with local ones; (3) heterogeneous
//! devices need non-evenly sized workloads, chosen by a static scheduler
//! with performance prediction; (4) the final step of a reduction is better
//! placed on a CPU when only a few intermediate results remain.

use std::sync::Arc;

use skelcl::prelude::*;
use skelcl::{SkelCl, StaticScheduler};

use dopencl::{Cluster, NetworkModel, Node};

/// A compute-heavy map: 64 multiply-adds per element.
const HEAVY_UDF: &str = r#"
float func(float x) {
    float acc = x;
    for (int i = 0; i < 64; i++) { acc = acc * 1.0001f + 0.5f; }
    return acc;
}
"#;

/// Virtual seconds of one heavy map over `n` elements under `distribution`,
/// through its download, and the result. A warm-up call builds the kernel
/// first, so runtime compilation is not measured.
fn time_heavy_map(runtime: &Arc<SkelCl>, distribution: Distribution, n: usize) -> (f64, Vec<f32>) {
    let map = Map::<f32, f32>::from_source(HEAVY_UDF);
    let v = Vector::from_vec(runtime, vec![1.0f32; n]);
    v.set_distribution(distribution).unwrap();
    v.map(&map).unwrap();
    let t0 = runtime.finish_all();
    let out = v.map(&map).unwrap().to_vec().unwrap();
    ((runtime.finish_all() - t0).as_secs_f64(), out)
}

#[test]
fn lab_cluster_exposes_all_remote_devices_as_local_ones() {
    // "in our laboratory we use dOpenCL to connect our GPU system described
    // in Section IV-C and two other GPU systems, each equipped with 1
    // multi-core CPU and 2 GPUs (3 servers) ... all 8 GPUs and 3 multi-core
    // CPUs of this distributed system appear as if they were local devices."
    let cluster = Cluster::lab_cluster();
    assert_eq!(cluster.gpu_profiles().len(), 8, "8 GPUs");
    assert_eq!(cluster.device_count(), 11, "8 GPUs + 3 CPUs");
    assert_eq!(cluster.nodes().len(), 3, "3 servers");

    // A SkelCL runtime built from the cluster's profiles behaves like any
    // local runtime.
    let rt = skelcl::init_profiles(cluster.device_profiles());
    assert_eq!(rt.device_count(), 11);
}

#[test]
fn skelcl_programs_run_unmodified_on_the_cluster_and_locally() {
    let data: Vec<f32> = (0..2048).map(|i| (i % 97) as f32).collect();
    let expected: Vec<f32> = data.iter().map(|x| x * x + 1.0).collect();

    let run_on = |profiles: Vec<oclsim::DeviceProfile>| {
        let rt = skelcl::init_profiles(profiles);
        let map = Map::<f32, f32>::from_source("float func(float x) { return x * x + 1.0f; }");
        let v = Vector::from_vec(&rt, data.clone());
        map.run(&v).exec().unwrap().to_vec().unwrap()
    };

    // Local 4-GPU system vs the distributed 11-device system: identical
    // results from the same program text.
    let local = run_on(vec![oclsim::DeviceProfile::tesla_c1060(); 4]);
    let remote = run_on(Cluster::lab_cluster().device_profiles());
    assert_eq!(local, expected);
    assert_eq!(remote, expected);
}

#[test]
fn remote_transfers_pay_the_network_penalty() {
    let cluster = Cluster::lab_cluster();
    let bytes = 4 * 1024 * 1024;

    // The offload overhead (client → server network hop) is strictly larger
    // than zero and grows with the payload.
    let small = cluster.offload_overhead(64 * 1024);
    let large = cluster.offload_overhead(bytes);
    assert!(large > small);

    // The same map skeleton on four local GPUs and on four GPUs of the lab
    // cluster: the remote run computes the same result but is slower,
    // because every transfer also crosses the network.
    let n = 200_000;
    let (local_s, local) = time_heavy_map(&skelcl::init_gpus(4), Distribution::Block, n);
    let remote_rt = skelcl::init_profiles(cluster.gpu_profiles().into_iter().take(4).collect());
    let (remote_s, remote) = time_heavy_map(&remote_rt, Distribution::Block, n);
    assert_eq!(local, remote, "remote GPUs must compute the local result");
    assert!(
        remote_s > local_s,
        "remote {remote_s:.6} s must be slower than local {local_s:.6} s"
    );
}

#[test]
fn faster_interconnects_reduce_the_network_cost() {
    let bytes = 16 * 1024 * 1024;
    let gig = NetworkModel::gigabit_ethernet().transfer_time(bytes);
    let ten_gig = NetworkModel::ten_gigabit_ethernet().transfer_time(bytes);
    let ib = NetworkModel::infiniband_qdr().transfer_time(bytes);
    assert!(gig > ten_gig, "10 GbE beats 1 GbE");
    assert!(ten_gig > ib, "InfiniBand QDR beats 10 GbE");
}

#[test]
fn cluster_nodes_can_be_assembled_explicitly() {
    let cluster = Cluster::new(NetworkModel::gigabit_ethernet())
        .with_node(Node::tesla_s1070_server("paper-testbed"))
        .with_node(Node::dual_gpu_server("lab-1"))
        .with_node(Node::dual_gpu_server("lab-2"));
    assert_eq!(cluster.nodes().len(), 3);
    assert_eq!(
        cluster.nodes()[0].gpu_count(),
        4,
        "the S1070 node has 4 GPUs"
    );
    assert_eq!(cluster.gpu_profiles().len(), 8);
    // Every remote device remembers which node it lives on.
    let remotes = cluster.remote_devices();
    assert_eq!(remotes.len(), cluster.device_count());
}

#[test]
fn heterogeneous_devices_need_non_even_workloads() {
    // A Tesla GPU, a small GPU and a CPU: the scheduler's weighted block
    // distribution must give the Tesla the largest part and the CPU the
    // smallest.
    let rt = skelcl::init_profiles(vec![
        oclsim::DeviceProfile::tesla_c1060(),
        oclsim::DeviceProfile::generic_small_gpu(),
        oclsim::DeviceProfile::xeon_e5520(),
    ]);
    let scheduler = StaticScheduler::analytical(&rt);
    let dist = scheduler.weighted_block(CostHint::new(200.0, 8.0));

    let v = Vector::from_vec(&rt, vec![0.0f32; 10_000]);
    v.set_distribution(dist).unwrap();
    v.copy_data_to_devices().unwrap();
    let sizes = v.sizes();
    assert_eq!(sizes.iter().sum::<usize>(), 10_000);
    assert!(
        sizes[0] > sizes[1] && sizes[1] > sizes[2],
        "parts must follow device speed: {sizes:?}"
    );
    assert!(
        sizes[0] > 10_000 / 3,
        "the Tesla must receive more than an even share"
    );
}

#[test]
fn weighted_distribution_beats_the_even_split_on_heterogeneous_devices() {
    // A Tesla GPU, a small GPU and a CPU. An even block split waits for the
    // CPU's third; the scheduler's weighted split must at least halve the
    // runtime.
    let profiles = || {
        vec![
            oclsim::DeviceProfile::tesla_c1060(),
            oclsim::DeviceProfile::generic_small_gpu(),
            oclsim::DeviceProfile::xeon_e5520(),
        ]
    };
    let n = 100_000;
    let (even_s, even) = time_heavy_map(&skelcl::init_profiles(profiles()), Distribution::Block, n);
    let rt = skelcl::init_profiles(profiles());
    let weighted = StaticScheduler::analytical(&rt).weighted_block(CostHint::new(130.0, 8.0));
    let (weighted_s, weighted) = time_heavy_map(&rt, weighted, n);
    assert_eq!(even, weighted);
    assert!(
        even_s >= 2.0 * weighted_s,
        "the scheduler's split must be at least 2x faster: even {even_s:.6} s, weighted {weighted_s:.6} s"
    );
}

#[test]
fn small_final_reductions_belong_on_the_cpu_large_ones_on_the_gpu() {
    // "CPUs will be faster to perform the final reduction of these vectors
    // than GPUs which provide poor performance when reducing only few
    // elements."
    let rt = skelcl::init_profiles(vec![
        oclsim::DeviceProfile::tesla_c1060(),
        oclsim::DeviceProfile::tesla_c1060(),
        oclsim::DeviceProfile::xeon_e5520(),
    ]);
    let scheduler = StaticScheduler::analytical(&rt);

    let (_, few_on_cpu) = scheduler
        .final_reduce_placement(4, 4, CostHint::new(1.0, 8.0))
        .unwrap();
    assert!(few_on_cpu, "a handful of partial results goes to the CPU");

    let (_, many_on_cpu) = scheduler
        .final_reduce_placement(50_000_000, 4, CostHint::new(400.0, 8.0))
        .unwrap();
    assert!(
        !many_on_cpu,
        "a large compute-heavy reduction stays on a GPU"
    );
}

#[test]
fn stencils_run_on_the_cluster_and_halo_exchanges_pay_the_network() {
    use skelcl::{Boundary, MapOverlap, Matrix};

    const HEAT: &str = r#"
        float func(float u, float alpha) {
            return u + alpha * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u);
        }
    "#;
    let (rows, cols, sweeps) = (64usize, 32usize, 5usize);
    let image: Vec<f32> = (0..rows * cols).map(|i| ((i * 7) % 19) as f32).collect();

    // The same stencil program on four local Teslas and on the four Teslas
    // of the S1070 node reached through Gigabit Ethernet: identical results,
    // but every halo exchange of the remote runtime additionally crosses the
    // network (latency added, bandwidth capped by the interconnect via the
    // adjusted DeviceProfiles).
    let run_on = |profiles: Vec<oclsim::DeviceProfile>| {
        let rt = skelcl::init_profiles(profiles);
        let heat = MapOverlap::<f32, f32>::from_source(HEAT)
            .with_halo(1)
            .with_boundary(Boundary::Constant(0.0));
        let m = Matrix::from_vec(&rt, rows, cols, image.clone()).unwrap();
        rt.drain_events();
        let out = heat.run(&m).arg(0.2f32).run_iter(sweeps).unwrap();
        let result = out.to_vec().unwrap();
        let events = rt.drain_events();
        let halo_row_bytes = cols * 4;
        let halo_time = events
            .iter()
            .flatten()
            .filter(|e| e.is_transfer() && e.bytes <= halo_row_bytes)
            .fold(oclsim::SimDuration::ZERO, |acc, e| acc + e.duration());
        let trace = rt.exec_trace();
        (result, halo_time, trace)
    };

    let local_profiles = vec![oclsim::DeviceProfile::tesla_c1060(); 4];
    let remote_profiles = Cluster::new(NetworkModel::gigabit_ethernet())
        .with_node(Node::tesla_s1070_server("gpu-server"))
        .gpu_profiles();
    assert_eq!(remote_profiles.len(), 4, "same topology on both sides");

    let (local_result, local_halo_time, local_trace) = run_on(local_profiles);
    let (remote_result, remote_halo_time, remote_trace) = run_on(remote_profiles);

    assert_eq!(
        local_result, remote_result,
        "the distributed run must be bit-identical to the local one"
    );
    assert_eq!(
        local_trace.halo_bytes(),
        remote_trace.halo_bytes(),
        "both runs exchange exactly the same halo rows"
    );
    assert!(local_trace.halo_transfers() > 0);
    assert!(
        remote_halo_time > local_halo_time,
        "remote halo exchanges must be charged the network cost \
         (remote {remote_halo_time:?} vs local {local_halo_time:?})"
    );
}

#[test]
fn reduce_skeleton_still_computes_the_right_value_on_the_cluster() {
    let cluster = Cluster::lab_cluster();
    let rt = skelcl::init_profiles(cluster.device_profiles());
    let sum = Reduce::<i32>::from_source("int func(int a, int b) { return a + b; }");
    let data: Vec<i32> = (1..=10_000).collect();
    let v = Vector::from_vec(&rt, data);
    assert_eq!(v.reduce(&sum).unwrap(), 10_000 * 10_001 / 2);
}
