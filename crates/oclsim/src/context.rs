//! The context: the set of simulated devices, the API cost model and the
//! host's virtual clock.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::{Buffer, DataKind};
use crate::command_buffer::CommandBuffer;
use crate::device::Device;
use crate::error::{OclError, Result};
use crate::ledger::ResourceLedger;
use crate::pod::Pod;
use crate::profile::{ApiModel, DeviceProfile, DeviceType};
use crate::program::{NativeKernelDef, Program};
use crate::queue::CommandQueue;
use crate::time::{SimDuration, SimTime};

/// A context owning one or more simulated devices, analogous to
/// `cl_context`.
pub struct Context {
    devices: Vec<Arc<Device>>,
    api: ApiModel,
    host_clock: Arc<Mutex<SimTime>>,
    program_cache: Mutex<HashMap<String, Program>>,
    kernel_tier: Mutex<Option<skelcl_kernel::Tier>>,
    ledger: ResourceLedger,
}

impl Context {
    /// Create a context from device profiles under the given API model.
    pub fn new(profiles: Vec<DeviceProfile>, api: ApiModel) -> Self {
        let devices = profiles
            .into_iter()
            .enumerate()
            .map(|(i, p)| Arc::new(Device::new(i, p)))
            .collect();
        Context {
            devices,
            api,
            host_clock: Arc::new(Mutex::new(SimTime::ZERO)),
            program_cache: Mutex::new(HashMap::new()),
            kernel_tier: Mutex::new(None),
            ledger: ResourceLedger::new(),
        }
    }

    /// Pin the kernel-language execution tier for every DSL program built
    /// through this context — already-cached programs (and kernels handed out
    /// from them, which share tier state) as well as future builds.
    pub fn set_kernel_tier(&self, tier: skelcl_kernel::Tier) {
        *self.kernel_tier.lock() = Some(tier);
        for program in self.program_cache.lock().values() {
            program.set_kernel_tier(tier);
        }
    }

    /// The tier pinned with [`Context::set_kernel_tier`], if any. `None`
    /// means programs keep the default tier, [`skelcl_kernel::Tier::Native`].
    pub fn kernel_tier(&self) -> Option<skelcl_kernel::Tier> {
        *self.kernel_tier.lock()
    }

    /// Convenience: a context of `n` Tesla-C1060-class GPUs (the paper's
    /// evaluation system has four) under the OpenCL API model.
    pub fn with_gpus(n: usize) -> Self {
        Context::new(vec![DeviceProfile::tesla_c1060(); n], ApiModel::opencl())
    }

    /// Convenience: a context of `n` Tesla GPUs under a specific API model.
    pub fn with_gpus_api(n: usize, api: ApiModel) -> Self {
        Context::new(vec![DeviceProfile::tesla_c1060(); n], api)
    }

    /// Number of devices in the context.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// All devices.
    pub fn devices(&self) -> &[Arc<Device>] {
        &self.devices
    }

    /// A device by index.
    pub fn device(&self, index: usize) -> Result<&Arc<Device>> {
        self.devices.get(index).ok_or(OclError::NoSuchDevice {
            index,
            available: self.devices.len(),
        })
    }

    /// Indices of all GPU devices.
    pub fn gpu_indices(&self) -> Vec<usize> {
        self.devices
            .iter()
            .filter(|d| d.device_type() == DeviceType::Gpu)
            .map(|d| d.id)
            .collect()
    }

    /// The API model of the context.
    pub fn api(&self) -> &ApiModel {
        &self.api
    }

    /// Create an in-order command queue for a device.
    pub fn queue(&self, device_index: usize) -> Result<CommandQueue> {
        let device = self.device(device_index)?.clone();
        Ok(CommandQueue::new(
            device,
            self.api.clone(),
            self.host_clock.clone(),
        ))
    }

    /// Start recording a command buffer whose submissions bind one buffer
    /// of each of the `buffers` kinds and `scalars` scalar values. The
    /// buffer is valid on every queue of this context.
    pub fn command_buffer(&self, buffers: &[DataKind], scalars: usize) -> CommandBuffer {
        let overhead = self.api.enqueue_overhead;
        CommandBuffer::new(self.host_clock.clone(), overhead, buffers, scalars)
    }

    /// Allocate a buffer of `len` elements of `T` on a device. Released
    /// same-size allocations are served from the device's buffer pool (see
    /// [`Device::create_buffer`]), so repeated same-shape launches reuse
    /// allocations instead of hitting the allocator every call.
    pub fn create_buffer<T: Pod>(&self, device_index: usize, len: usize) -> Result<Buffer> {
        self.device(device_index)?.create_buffer::<T>(len)
    }

    /// Release a buffer allocation (parked in the owning device's pool).
    pub fn release_buffer(&self, buffer: &Buffer) -> Result<()> {
        self.device(buffer.device())?.release_buffer(buffer)
    }

    /// Total allocations served from buffer pools across all devices.
    pub fn buffer_pool_hits(&self) -> usize {
        self.devices.iter().map(|d| d.pool_hit_count()).sum()
    }

    /// Total pool revivals (across all devices) whose re-zeroing memset was
    /// elided because the first command fully overwrote the buffer.
    pub fn lazy_zero_elisions(&self) -> usize {
        self.devices.iter().map(|d| d.lazy_zero_elisions()).sum()
    }

    /// Total released allocations currently parked across all device pools.
    pub fn pooled_buffers(&self) -> usize {
        self.devices.iter().map(|d| d.pooled_buffers()).sum()
    }

    /// Total bytes of storage currently parked across all device pools.
    pub fn pooled_bytes(&self) -> usize {
        self.devices.iter().map(|d| d.pooled_bytes()).sum()
    }

    /// Drop every parked allocation on every device.
    pub fn trim_buffer_pools(&self) {
        for d in &self.devices {
            d.trim_pool();
        }
    }

    /// Set the high-water byte cap of every device's buffer pool. Pools over
    /// the new cap are trimmed immediately, least-recently-parked first (see
    /// [`Device::set_pool_cap_bytes`]).
    pub fn set_pool_cap_bytes(&self, cap_bytes: usize) {
        for d in &self.devices {
            d.set_pool_cap_bytes(cap_bytes);
        }
    }

    /// Total parked allocations evicted by pool-cap trims across all devices.
    pub fn pool_evictions(&self) -> usize {
        self.devices.iter().map(|d| d.pool_evictions()).sum()
    }

    /// Total bytes evicted by pool-cap trims across all devices.
    pub fn pool_evicted_bytes(&self) -> usize {
        self.devices.iter().map(|d| d.pool_evicted_bytes()).sum()
    }

    /// Attach a deterministic fault schedule: every [`crate::FaultSpec`] in
    /// the plan is armed on its target device (specs naming devices outside
    /// the context are ignored). Plans compose — injecting twice arms both
    /// sets of triggers. A plan whose triggers never fire costs zero
    /// virtual time; see [`crate::FaultPlan`] for the fault model.
    pub fn inject_faults(&self, plan: &crate::fault::FaultPlan) {
        for spec in plan.specs() {
            if let Some(device) = self.devices.get(spec.device) {
                device.arm_fault(*spec);
            }
        }
    }

    /// Total fault triggers that have fired across all devices (primary
    /// injections only, not the cascade of failures a lost device produces).
    pub fn faults_injected(&self) -> usize {
        self.devices.iter().map(|d| d.faults_injected()).sum()
    }

    /// Indices of devices that have been lost so far.
    pub fn lost_devices(&self) -> Vec<usize> {
        self.devices
            .iter()
            .filter(|d| d.is_lost())
            .map(|d| d.id)
            .collect()
    }

    /// The context's per-tag resource ledger (tenant byte quotas and
    /// launch/transfer counters). Purely an accounting facility: nothing in
    /// the simulator charges it automatically — callers such as the serving
    /// layer charge/credit it around their own allocations.
    pub fn ledger(&self) -> &ResourceLedger {
        &self.ledger
    }

    /// Build a program from kernel-language source. Charges the runtime
    /// compilation time of the slowest device to the host clock — the paper
    /// notes that OpenCL and SkelCL compile kernels at runtime while CUDA does
    /// not, and excludes this one-time cost from its runtime measurements.
    ///
    /// Built programs are cached per context, keyed by their source: building
    /// the same source again returns the cached program and charges no
    /// compilation time, mirroring the "compilation is only required once,
    /// when launching the implementation" behaviour the paper relies on to
    /// exclude compile time from its measurements.
    pub fn build_program(&self, source: &str) -> Result<Program> {
        if let Some(cached) = self.program_cache.lock().get(source) {
            return Ok(cached.clone());
        }
        let program = Program::from_source(source)?;
        if let Some(tier) = *self.kernel_tier.lock() {
            program.set_kernel_tier(tier);
        }
        let build_time = self
            .devices
            .iter()
            .map(|d| d.profile.program_build_time)
            .max()
            .unwrap_or(SimDuration::ZERO);
        self.charge_host(build_time);
        self.program_cache
            .lock()
            .insert(source.to_string(), program.clone());
        Ok(program)
    }

    /// Number of distinct programs that have been built (and cached) so far.
    pub fn built_program_count(&self) -> usize {
        self.program_cache.lock().len()
    }

    /// Register a program of native Rust kernels (no runtime compilation
    /// cost, mirroring CUDA's offline compilation).
    pub fn native_program(&self, defs: impl IntoIterator<Item = NativeKernelDef>) -> Program {
        Program::from_native(defs)
    }

    /// Current host virtual time.
    pub fn host_now(&self) -> SimTime {
        *self.host_clock.lock()
    }

    /// Charge additional host-side virtual time (used by higher layers such
    /// as SkelCL to model their own per-call overheads).
    pub fn charge_host(&self, duration: SimDuration) {
        let mut clock = self.host_clock.lock();
        *clock += duration;
    }

    /// Advance the host's virtual clock to at least `time` — the
    /// virtually-blocking half of waiting on an [`crate::EventHandle`]
    /// (e.g. a non-blocking read whose payload the host is about to
    /// consume). A no-op when the host clock is already past `time`.
    pub fn sync_host_to(&self, time: SimTime) {
        let mut clock = self.host_clock.lock();
        *clock = (*clock).max(time);
    }

    /// Reset the host clock to zero. Queues created afterwards start from a
    /// clean timeline; existing queues keep their own clocks, so this is
    /// intended to be used between measurement repetitions that recreate
    /// their queues.
    pub fn reset_host_clock(&self) {
        *self.host_clock.lock() = SimTime::ZERO;
    }
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("api", &self.api.name)
            .field(
                "devices",
                &self
                    .devices
                    .iter()
                    .map(|d| d.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .field("host_now", &self.host_now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_construction_and_device_access() {
        let ctx = Context::with_gpus(4);
        assert_eq!(ctx.device_count(), 4);
        assert_eq!(ctx.gpu_indices(), vec![0, 1, 2, 3]);
        assert!(ctx.device(3).is_ok());
        assert!(matches!(
            ctx.device(4),
            Err(OclError::NoSuchDevice {
                index: 4,
                available: 4
            })
        ));
        assert_eq!(ctx.api().name, "OpenCL");
    }

    #[test]
    fn mixed_context_reports_gpu_indices() {
        let ctx = Context::new(
            vec![
                DeviceProfile::xeon_e5520(),
                DeviceProfile::tesla_c1060(),
                DeviceProfile::tesla_c1060(),
            ],
            ApiModel::opencl(),
        );
        assert_eq!(ctx.gpu_indices(), vec![1, 2]);
    }

    #[test]
    fn build_program_charges_host_time() {
        let ctx = Context::with_gpus(1);
        let before = ctx.host_now();
        ctx.build_program("__kernel void k(__global float* v, int n) { v[0] = n; }")
            .unwrap();
        assert!(ctx.host_now() > before);
    }

    #[test]
    fn rebuilding_the_same_source_hits_the_cache_and_is_free() {
        let ctx = Context::with_gpus(2);
        let src = "__kernel void k(__global float* v, int n) { v[0] = n; }";
        let first = ctx.build_program(src).unwrap();
        let after_first = ctx.host_now();
        let second = ctx.build_program(src).unwrap();
        assert_eq!(
            ctx.host_now(),
            after_first,
            "cache hit must not charge time"
        );
        assert_eq!(first.kernel_names(), second.kernel_names());
        assert_eq!(ctx.built_program_count(), 1);
        // A different source is a genuine build and is charged again.
        ctx.build_program("__kernel void other(__global int* v, int n) { v[0] = n; }")
            .unwrap();
        assert!(ctx.host_now() > after_first);
        assert_eq!(ctx.built_program_count(), 2);
    }

    #[test]
    fn native_program_is_free_to_register() {
        let ctx = Context::with_gpus(1);
        let before = ctx.host_now();
        ctx.native_program([NativeKernelDef::new(
            "noop",
            crate::program::CostHint::DEFAULT,
            |_| Ok(()),
        )]);
        assert_eq!(ctx.host_now(), before);
    }

    #[test]
    fn buffer_lifecycle_through_context() {
        let ctx = Context::with_gpus(2);
        let b = ctx.create_buffer::<f32>(1, 16).unwrap();
        assert_eq!(b.device(), 1);
        assert_eq!(ctx.device(1).unwrap().live_buffers(), 1);
        ctx.release_buffer(&b).unwrap();
        assert_eq!(ctx.device(1).unwrap().live_buffers(), 0);
    }

    #[test]
    fn repeated_same_shape_allocations_hit_the_pool() {
        let ctx = Context::with_gpus(2);
        // Steady-state launch loop: allocate an output per device, release,
        // repeat. After the first round every allocation is a pool hit.
        for _round in 0..5 {
            for device in 0..2 {
                let b = ctx.create_buffer::<f32>(device, 1024).unwrap();
                ctx.release_buffer(&b).unwrap();
            }
        }
        assert_eq!(ctx.buffer_pool_hits(), 8, "rounds 2-5 hit the pool");
        assert_eq!(ctx.pooled_buffers(), 2);
        ctx.trim_buffer_pools();
        assert_eq!(ctx.pooled_buffers(), 0);
    }

    #[test]
    fn charge_and_reset_host_clock() {
        let ctx = Context::with_gpus(1);
        ctx.charge_host(SimDuration::from_micros(500));
        assert_eq!(ctx.host_now().as_nanos(), 500_000);
        ctx.reset_host_clock();
        assert_eq!(ctx.host_now(), SimTime::ZERO);
    }
}
