//! Static scheduling with performance prediction for heterogeneous devices
//! (paper, Section V).
//!
//! "To use the heterogeneous devices efficiently, in particular to employ all
//! devices during the complete execution of a skeleton, SkelCL should not
//! assign evenly-sized workload to the devices. [...] Currently, SkelCL
//! employs a static scheduling approach based on an enhanced performance
//! prediction approach: [...] performance prediction based on statistical
//! code analysis and benchmarks is only used for the user-defined functions
//! rather than the whole program code. The results of this performance
//! prediction are completed by analytical performance models for the
//! skeletons."
//!
//! The analytical models are oclsim's own prices: [`StaticScheduler`]
//! predicts a kernel with [`ApiModel::kernel_time`] and a transfer with
//! [`ApiModel::transfer_time`] on each device's [`DeviceProfile`] — the
//! functions the simulator charges every command with — so a prediction is
//! what the command costs an idle device. The scheduler turns predictions
//! into weighted block distributions and decides whether the final step of a
//! reduction should run on a CPU device rather than a GPU.

use std::sync::Arc;

use oclsim::{ApiModel, CostHint, DeviceProfile, DeviceType, SimDuration};

use crate::distribution::Distribution;
use crate::error::{Result, SkelError};
use crate::runtime::SkelCl;

/// The static scheduler of Section V.
#[derive(Debug, Clone)]
pub struct StaticScheduler {
    api: ApiModel,
    /// Each device's id and profile, in the runtime's device order.
    devices: Vec<(usize, DeviceProfile)>,
}

impl StaticScheduler {
    /// Create a scheduler that prices with the runtime's [`ApiModel`] on its
    /// devices' profiles.
    pub fn analytical(runtime: &Arc<SkelCl>) -> StaticScheduler {
        let context = runtime.context();
        let devices = context.devices().iter();
        StaticScheduler {
            api: context.api().clone(),
            devices: devices.map(|d| (d.id, d.profile.clone())).collect(),
        }
    }

    /// Relative weights (higher = more work, summing to 1) for distributing
    /// work of the given per-element cost across the devices: inversely
    /// proportional to each device's price for a kernel of `1 << 20` items.
    pub fn weights(&self, cost: CostHint) -> Vec<f64> {
        self.weights_among(cost, self.devices.len())
    }

    /// [`weights`](Self::weights) among the first `selected` devices — a
    /// call's `.devices(..)` selection; the others get 0.
    pub(crate) fn weights_among(&self, cost: CostHint, selected: usize) -> Vec<f64> {
        const PROBE_ITEMS: usize = 1 << 20;
        let (flops, bytes) = (cost.flops_per_item, cost.bytes_per_item);
        let inverse: Vec<f64> = self
            .devices
            .iter()
            .map(|(id, profile)| {
                if *id >= selected {
                    return 0.0;
                }
                let time = self.api.kernel_time(profile, PROBE_ITEMS, flops, bytes);
                1.0 / time.as_secs_f64().max(1e-12)
            })
            .collect();
        let total: f64 = inverse.iter().sum();
        inverse.into_iter().map(|w| w / total).collect()
    }

    /// A block distribution whose part sizes are proportional to each
    /// device's predicted throughput for a kernel of the given per-element
    /// cost — the non-even workload assignment the paper calls for.
    pub fn weighted_block(&self, cost: CostHint) -> Distribution {
        Distribution::block_weighted(&self.weights(cost))
    }

    /// Decide whether the *final* reduction of `intermediate` partial results
    /// (each `elem_bytes` bytes) should run on a CPU device rather than a
    /// GPU: the paper observes that GPUs "provide poor performance when
    /// reducing only few elements", while a CPU avoids both the launch
    /// overhead and the extra transfer. Returns the index of the chosen
    /// device and `true` if it is a CPU.
    pub fn final_reduce_placement(
        &self,
        intermediate: usize,
        elem_bytes: usize,
        cost: CostHint,
    ) -> Result<(usize, bool)> {
        self.placement_among(intermediate, elem_bytes, cost, self.devices.len())
    }

    /// [`final_reduce_placement`](Self::final_reduce_placement) among the
    /// first `selected` devices only.
    pub(crate) fn placement_among(
        &self,
        intermediate: usize,
        elem_bytes: usize,
        cost: CostHint,
        selected: usize,
    ) -> Result<(usize, bool)> {
        let (flops, bytes) = (cost.flops_per_item, cost.bytes_per_item);
        let mut best: Option<(usize, bool, SimDuration)> = None;
        for (id, profile) in self.devices.iter().filter(|(id, _)| *id < selected) {
            let exec = self
                .api
                .kernel_time(profile, intermediate.max(1), flops, bytes);
            // The partials must reach the device; a CPU device's "transfer"
            // is a cheap host-memory copy in its profile.
            let total = exec + self.api.transfer_time(profile, intermediate * elem_bytes);
            let is_cpu = profile.device_type == DeviceType::Cpu;
            match &best {
                Some((_, _, t)) if *t <= total => {}
                _ => best = Some((*id, is_cpu, total)),
            }
        }
        best.map(|(d, cpu, _)| (d, cpu))
            .ok_or_else(|| SkelError::Scheduler("the runtime has no devices".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::init_profiles;
    use oclsim::{KernelArg, NativeKernelDef, Program};

    fn heterogeneous_runtime() -> Arc<SkelCl> {
        init_profiles(vec![
            DeviceProfile::tesla_c1060(),
            DeviceProfile::generic_small_gpu(),
            DeviceProfile::xeon_e5520(),
        ])
    }

    #[test]
    fn weights_favour_faster_devices_and_sum_to_one() {
        let rt = heterogeneous_runtime();
        let weights = StaticScheduler::analytical(&rt).weights(CostHint::new(100.0, 8.0));
        assert_eq!(weights.len(), 3);
        let sum: f64 = weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(
            weights[0] > weights[1] && weights[1] > weights[2],
            "Tesla > small GPU > CPU expected, got {weights:?}"
        );
    }

    #[test]
    fn weights_are_the_inverse_of_what_the_simulator_charges() {
        let rt = heterogeneous_runtime();
        let scheduler = StaticScheduler::analytical(&rt);
        let memory_bound = CostHint::new(1.0, 64.0);
        let compute_bound = CostHint::new(500.0, 4.0);
        for cost in [memory_bound, compute_bound] {
            let def = NativeKernelDef::new("probe", cost, |_| Ok(()));
            let kernel = Program::from_native([def]).kernel("probe").unwrap();
            let inverse: Vec<f64> = (0..rt.device_count())
                .map(|device| {
                    let buffer = rt.context().create_buffer::<f32>(device, 1).unwrap();
                    let args = [KernelArg::Buffer(buffer.clone())];
                    let event = rt.queue(device).enqueue_kernel(&kernel, 1 << 20, &args);
                    let duration = event.unwrap().wait().unwrap().duration();
                    rt.context().release_buffer(&buffer).unwrap();
                    1.0 / duration.as_secs_f64()
                })
                .collect();
            let total: f64 = inverse.iter().sum();
            let weights = scheduler.weights(cost);
            for (device, (weight, inverse)) in weights.iter().zip(&inverse).enumerate() {
                let measured = inverse / total;
                assert!(
                    (weight - measured).abs() <= measured * 1e-12,
                    "{cost:?}: device {device} weighs {weight}, its measured share is {measured}"
                );
            }
        }
    }

    #[test]
    fn weighted_block_distribution_is_uneven_for_heterogeneous_devices() {
        let rt = heterogeneous_runtime();
        let scheduler = StaticScheduler::analytical(&rt);
        let dist = scheduler.weighted_block(CostHint::new(50.0, 8.0));
        match dist {
            Distribution::BlockWeighted(w) => {
                assert_eq!(w.len(), 3);
                assert!(w[0] > w[2], "the Tesla must receive more work than the CPU");
            }
            other => panic!("expected a weighted block distribution, got {other:?}"),
        }
    }

    #[test]
    fn final_reduce_prefers_cpu_for_few_elements() {
        let rt = heterogeneous_runtime();
        let scheduler = StaticScheduler::analytical(&rt);
        // Reducing a handful of partial results: the CPU avoids the GPU's
        // launch overhead and PCIe latency.
        let (_, is_cpu) = scheduler
            .final_reduce_placement(4, 4, CostHint::new(1.0, 8.0))
            .unwrap();
        assert!(is_cpu, "few elements should be reduced on the CPU");
    }

    #[test]
    fn large_final_reduce_may_go_to_the_gpu() {
        let rt = heterogeneous_runtime();
        let scheduler = StaticScheduler::analytical(&rt);
        let (device, is_cpu) = scheduler
            .final_reduce_placement(50_000_000, 4, CostHint::new(200.0, 4.0))
            .unwrap();
        assert!(
            !is_cpu,
            "a huge compute-heavy reduction should pick a GPU, picked device {device}"
        );
    }
}
