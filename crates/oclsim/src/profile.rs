//! Device profiles, the programming-model (API) cost model, and the
//! analytical timing functions used to advance virtual time.
//!
//! The paper's evaluation machine is "a quad-core CPU (Intel Xeon E5520,
//! 2.26 GHz) and an NVIDIA Tesla S1070 system with 4 Tesla GPUs. Each GPU
//! consists of 240 streaming processors. The CPU has 12 GB of main memory,
//! while each GPU owns 4 GB of dedicated memory." The profiles below encode
//! published characteristics of that hardware; the benchmark harnesses use
//! them so the reproduced figures have the same hardware ratios as the
//! paper's, even though everything runs on a laptop.

use crate::time::SimDuration;

/// Kind of OpenCL device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceType {
    /// A GPU device.
    Gpu,
    /// A CPU device.
    Cpu,
    /// Another kind of accelerator.
    Accelerator,
}

/// Static description of a device's performance characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable device name.
    pub name: String,
    /// Device kind.
    pub device_type: DeviceType,
    /// Number of compute units (streaming multiprocessors / cores).
    pub compute_units: usize,
    /// Peak single-precision throughput in GFLOP/s.
    pub peak_gflops: f64,
    /// Device (global) memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Host ↔ device interconnect bandwidth in GB/s (PCIe for GPUs).
    pub transfer_bandwidth_gbs: f64,
    /// Fixed latency of one host ↔ device transfer.
    pub transfer_latency: SimDuration,
    /// Fixed overhead of launching one kernel.
    pub kernel_launch_overhead: SimDuration,
    /// Dedicated device memory in bytes.
    pub memory_bytes: usize,
    /// One-time cost of building (compiling) a program at runtime.
    pub program_build_time: SimDuration,
}

impl DeviceProfile {
    /// One GPU of the NVIDIA Tesla S1070 used in the paper (a Tesla C1060
    /// class device: 240 streaming processors, 4 GB of GDDR3).
    pub fn tesla_c1060() -> Self {
        DeviceProfile {
            name: "NVIDIA Tesla C1060 (simulated)".to_string(),
            device_type: DeviceType::Gpu,
            compute_units: 30, // 30 SMs × 8 SPs = 240 streaming processors
            peak_gflops: 622.0,
            mem_bandwidth_gbs: 102.0,
            transfer_bandwidth_gbs: 5.2, // PCIe 2.0 x16 effective
            transfer_latency: SimDuration::from_micros(15),
            kernel_launch_overhead: SimDuration::from_micros(8),
            memory_bytes: 4 * 1024 * 1024 * 1024usize,
            program_build_time: SimDuration::from_secs_f64(0.15),
        }
    }

    /// The Intel Xeon E5520 host CPU used in the paper, exposed as an OpenCL
    /// CPU device (relevant for the Section V heterogeneous-scheduling
    /// experiments).
    pub fn xeon_e5520() -> Self {
        DeviceProfile {
            name: "Intel Xeon E5520 (simulated)".to_string(),
            device_type: DeviceType::Cpu,
            compute_units: 4,
            peak_gflops: 36.0,
            mem_bandwidth_gbs: 25.6,
            transfer_bandwidth_gbs: 12.0, // host memory copies
            transfer_latency: SimDuration::from_micros(1),
            kernel_launch_overhead: SimDuration::from_micros(2),
            memory_bytes: 12 * 1024 * 1024 * 1024usize,
            program_build_time: SimDuration::from_secs_f64(0.05),
        }
    }

    /// A small generic GPU, useful for heterogeneous-system tests where two
    /// different GPU classes are mixed.
    pub fn generic_small_gpu() -> Self {
        DeviceProfile {
            name: "Generic small GPU (simulated)".to_string(),
            device_type: DeviceType::Gpu,
            compute_units: 8,
            peak_gflops: 150.0,
            mem_bandwidth_gbs: 40.0,
            transfer_bandwidth_gbs: 4.0,
            transfer_latency: SimDuration::from_micros(20),
            kernel_launch_overhead: SimDuration::from_micros(10),
            memory_bytes: 1024 * 1024 * 1024usize,
            program_build_time: SimDuration::from_secs_f64(0.1),
        }
    }

    /// Time to move `bytes` bytes between host and this device, excluding any
    /// API-model multiplier.
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        let seconds = bytes as f64 / (self.transfer_bandwidth_gbs * 1e9);
        self.transfer_latency + SimDuration::from_secs_f64(seconds)
    }

    /// Time to execute a kernel of `work_items` items, each performing
    /// `flops_per_item` floating-point operations and `bytes_per_item` bytes
    /// of global memory traffic, excluding launch overhead and API-model
    /// multipliers. The kernel is modelled as the slower of its compute and
    /// memory phases (roofline style).
    pub fn execution_time(
        &self,
        work_items: usize,
        flops_per_item: f64,
        bytes_per_item: f64,
    ) -> SimDuration {
        let items = work_items as f64;
        // Charge at least one flop and four bytes per item so that empty or
        // degenerate kernels still cost the dispatch work of each item.
        let flops = items * flops_per_item.max(1.0);
        let bytes = items * bytes_per_item.max(4.0);
        let compute_s = flops / (self.peak_gflops * 1e9);
        let memory_s = bytes / (self.mem_bandwidth_gbs * 1e9);
        SimDuration::from_secs_f64(compute_s.max(memory_s))
    }
}

/// The programming-model constants that distinguish CUDA, OpenCL and the
/// SkelCL layer in the paper's Figure 4b: identical hardware, different
/// driver/runtime overheads and compiler efficiency.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiModel {
    /// Name used in reports ("CUDA", "OpenCL", "SkelCL").
    pub name: String,
    /// Multiplier on kernel launch overhead (CUDA < OpenCL).
    pub launch_overhead_factor: f64,
    /// Multiplier on transfer time (driver stack differences).
    pub transfer_overhead_factor: f64,
    /// Efficiency of generated device code relative to the hardware peak
    /// (the paper observes CUDA ≈ 20 % faster than OpenCL end to end).
    pub compute_efficiency: f64,
    /// Host-side virtual time consumed by each enqueue call.
    pub enqueue_overhead: SimDuration,
    /// Extra host-side virtual time per *skeleton* call; zero for raw APIs,
    /// small for the SkelCL layer (argument marshalling, distribution checks).
    pub dispatch_overhead: SimDuration,
}

impl ApiModel {
    /// Plain OpenCL: the baseline (factor 1.0 everywhere).
    pub fn opencl() -> Self {
        ApiModel {
            name: "OpenCL".to_string(),
            launch_overhead_factor: 1.0,
            transfer_overhead_factor: 1.0,
            compute_efficiency: 0.70,
            enqueue_overhead: SimDuration::from_micros(4),
            dispatch_overhead: SimDuration::ZERO,
        }
    }

    /// CUDA: lower launch/driver overhead and better generated code, matching
    /// the paper's observation of roughly 20 % faster end-to-end runtimes.
    pub fn cuda() -> Self {
        ApiModel {
            name: "CUDA".to_string(),
            launch_overhead_factor: 0.6,
            transfer_overhead_factor: 0.9,
            compute_efficiency: 0.85,
            enqueue_overhead: SimDuration::from_micros(3),
            dispatch_overhead: SimDuration::ZERO,
        }
    }

    /// SkelCL: identical to OpenCL underneath (SkelCL is built on top of
    /// OpenCL), plus a small per-skeleton dispatch overhead. The paper
    /// measures the total overhead at below 5 % of the OpenCL runtime.
    pub fn skelcl() -> Self {
        ApiModel {
            dispatch_overhead: SimDuration::from_micros(15),
            name: "SkelCL".to_string(),
            ..ApiModel::opencl()
        }
    }

    /// Launch overhead for a device under this API.
    fn launch_overhead(&self, profile: &DeviceProfile) -> SimDuration {
        SimDuration::from_secs_f64(
            profile.kernel_launch_overhead.as_secs_f64() * self.launch_overhead_factor,
        )
    }

    /// Full kernel time (launch overhead + roofline execution) for a device
    /// under this API.
    pub fn kernel_time(
        &self,
        profile: &DeviceProfile,
        work_items: usize,
        flops_per_item: f64,
        bytes_per_item: f64,
    ) -> SimDuration {
        let exec = profile.execution_time(work_items, flops_per_item, bytes_per_item);
        let scaled = SimDuration::from_secs_f64(exec.as_secs_f64() / self.compute_efficiency);
        self.launch_overhead(profile) + scaled
    }

    /// Full transfer time for `bytes` under this API.
    pub fn transfer_time(&self, profile: &DeviceProfile, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(
            profile.transfer_time(bytes).as_secs_f64() * self.transfer_overhead_factor,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tesla_profile_matches_paper_hardware() {
        let p = DeviceProfile::tesla_c1060();
        assert_eq!(p.compute_units * 8, 240, "240 streaming processors");
        assert_eq!(p.memory_bytes, 4 * 1024 * 1024 * 1024usize, "4 GB per GPU");
        assert_eq!(p.device_type, DeviceType::Gpu);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let p = DeviceProfile::tesla_c1060();
        let small = p.transfer_time(1024);
        let large = p.transfer_time(1024 * 1024 * 100);
        assert!(large > small);
        // 100 MB over ~5.2 GB/s should be roughly 19 ms, plus latency.
        let secs = large.as_secs_f64();
        assert!(
            secs > 0.015 && secs < 0.03,
            "unexpected transfer time {secs}"
        );
    }

    #[test]
    fn execution_time_is_roofline_limited() {
        let p = DeviceProfile::tesla_c1060();
        // Compute-bound: many flops per byte.
        let compute_bound = p.execution_time(1_000_000, 1000.0, 4.0);
        // Memory-bound: few flops, many bytes.
        let memory_bound = p.execution_time(1_000_000, 1.0, 1000.0);
        assert!(compute_bound.as_secs_f64() > 0.0);
        assert!(memory_bound.as_secs_f64() > 0.0);
        // The compute-bound kernel's time must equal the compute phase.
        let expect = 1_000_000.0 * 1000.0 / (p.peak_gflops * 1e9);
        assert!((compute_bound.as_secs_f64() - expect).abs() / expect < 0.01);
    }

    #[test]
    fn cuda_is_faster_than_opencl_on_identical_kernels() {
        let p = DeviceProfile::tesla_c1060();
        let cuda = ApiModel::cuda().kernel_time(&p, 1_000_000, 100.0, 16.0);
        let ocl = ApiModel::opencl().kernel_time(&p, 1_000_000, 100.0, 16.0);
        let ratio = ocl.as_secs_f64() / cuda.as_secs_f64();
        assert!(
            ratio > 1.1 && ratio < 1.35,
            "OpenCL/CUDA ratio {ratio} outside the paper's ~1.2 range"
        );
    }

    #[test]
    fn skelcl_adds_only_dispatch_overhead_over_opencl() {
        let p = DeviceProfile::tesla_c1060();
        let skel = ApiModel::skelcl();
        let ocl = ApiModel::opencl();
        assert_eq!(
            skel.kernel_time(&p, 1 << 20, 50.0, 12.0),
            ocl.kernel_time(&p, 1 << 20, 50.0, 12.0),
            "kernel execution itself is identical; overhead is charged per skeleton call"
        );
        assert!(skel.dispatch_overhead > SimDuration::ZERO);
    }

    #[test]
    fn cpu_profile_is_slower_but_lower_latency() {
        let cpu = DeviceProfile::xeon_e5520();
        let gpu = DeviceProfile::tesla_c1060();
        assert!(cpu.peak_gflops < gpu.peak_gflops);
        assert!(cpu.kernel_launch_overhead < gpu.kernel_launch_overhead);
        assert!(cpu.transfer_latency < gpu.transfer_latency);
    }
}
