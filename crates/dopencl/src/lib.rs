//! # dopencl — simulated distributed OpenCL (paper, Section V)
//!
//! The paper sketches **dOpenCL**, "a distributed implementation of the
//! OpenCL API": the native OpenCL implementations of several *server* nodes
//! are integrated into a single unified implementation on a *client* node, so
//! that to an application "all 8 GPUs and 3 multi-core CPUs of this
//! distributed system appear as if they were local devices". Because dOpenCL
//! is a drop-in replacement for OpenCL, SkelCL runs on top of it unchanged.
//!
//! This crate reproduces that architecture for the simulator: a [`Cluster`]
//! groups [`Node`]s (each contributing device profiles) behind a
//! [`NetworkModel`]. Exposing a remote device to the client means every
//! host ↔ device transfer additionally crosses the network, so the cluster
//! produces *adjusted* [`oclsim::DeviceProfile`]s — added latency, bandwidth capped
//! by the interconnect — which can be handed directly to
//! `skelcl::SkelCl::init(DeviceSelection::Profiles(...))`. Nothing else in
//! the stack changes, which is exactly the drop-in property the paper
//! claims.

pub mod cluster;
pub mod network;
pub mod node;
pub mod tier;

pub use cluster::Cluster;
pub use network::NetworkModel;
pub use node::Node;
pub use tier::ClusterTier;

#[cfg(test)]
mod sched;

#[cfg(test)]
mod tests {
    use super::*;
    use oclsim::DeviceProfile;

    #[test]
    fn lab_cluster_matches_the_papers_description() {
        // "we use dOpenCL to connect our GPU system described in Section IV-C
        // and two other GPU systems, each equipped with 1 multi-core CPU and
        // 2 GPUs (3 servers) to a desktop PC (the client) with no OpenCL
        // capable devices. To an OpenCL application [...] all 8 GPUs and 3
        // multi-core CPUs of this distributed system appear as if they were
        // local devices."
        let cluster = Cluster::lab_cluster();
        let profiles = cluster.device_profiles();
        let gpus = profiles
            .iter()
            .filter(|p| p.device_type == oclsim::DeviceType::Gpu)
            .count();
        let cpus = profiles
            .iter()
            .filter(|p| p.device_type == oclsim::DeviceType::Cpu)
            .count();
        assert_eq!(gpus, 8);
        assert_eq!(cpus, 3);
    }

    #[test]
    fn remote_devices_pay_the_network_cost() {
        let local = DeviceProfile::tesla_c1060();
        let cluster = Cluster::new(NetworkModel::gigabit_ethernet())
            .with_node(Node::new("server-0").with_devices(vec![local.clone()]));
        let remote = &cluster.device_profiles()[0];
        assert!(remote.transfer_latency > local.transfer_latency);
        assert!(remote.transfer_bandwidth_gbs < local.transfer_bandwidth_gbs);
        // Compute characteristics are untouched: only communication changes.
        assert_eq!(remote.peak_gflops, local.peak_gflops);
        assert_eq!(remote.compute_units, local.compute_units);
    }
}
