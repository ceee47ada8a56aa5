//! Section V at skeleton level: a heavy map on heterogeneous devices and on
//! the lab cluster's remote GPUs. Test-only: the module holds the timing
//! helper its tests share.

use std::sync::Arc;

use oclsim::DeviceProfile;
use skelcl::prelude::*;
use skelcl::{SkelCl, StaticScheduler};

use crate::Cluster;

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

mod tests {
    use super::*;

    #[test]
    fn weighted_distribution_beats_even_on_heterogeneous_devices() {
        let profiles = || {
            vec![
                DeviceProfile::tesla_c1060(),
                DeviceProfile::generic_small_gpu(),
                DeviceProfile::xeon_e5520(),
            ]
        };
        let n = 300_000;
        let (even_s, even) =
            time_heavy_map(&skelcl::init_profiles(profiles()), Distribution::Block, n);
        let rt = skelcl::init_profiles(profiles());
        let weighted = StaticScheduler::analytical(&rt).weighted_block(CostHint::new(130.0, 8.0));
        let (weighted_s, weighted) = time_heavy_map(&rt, weighted, n);
        assert_eq!(even, weighted);
        assert!(
            even_s / weighted_s > 1.1,
            "weighted scheduling should help; even {even_s:.6} s vs weighted {weighted_s:.6} s"
        );
    }

    #[test]
    fn remote_devices_are_slower_but_usable() {
        let n = 200_000;
        let (local_s, local) = time_heavy_map(&skelcl::init_gpus(4), Distribution::Block, n);
        let remote_profiles = Cluster::lab_cluster()
            .gpu_profiles()
            .into_iter()
            .take(4)
            .collect();
        let (remote_s, remote) = time_heavy_map(
            &skelcl::init_profiles(remote_profiles),
            Distribution::Block,
            n,
        );
        assert_eq!(local, remote, "remote GPUs must compute the local result");
        assert!(remote_s > local_s, "the network penalty must show up");
    }
}
