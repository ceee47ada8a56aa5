//! The SkelCL runtime: device discovery, queues and global bookkeeping.
//!
//! Mirrors the `skelcl::init()` entry point of the C++ library: the user
//! initialises the runtime once, stating which devices to use, and then
//! creates [`crate::vector::Vector`]s and skeletons against it.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use oclsim::{
    ApiModel, CommandQueue, Context, DeviceProfile, SimDuration, SimTime, Tier, TierSnapshot,
};

use crate::error::Result;

/// Which devices to use: at runtime initialisation this selects the devices
/// the runtime is built from; passed to a skeleton `Launch` it restricts the
/// devices participating in that call.
#[derive(Debug, Clone)]
pub enum DeviceSelection {
    /// Every available device: all GPUs of the default platform at init
    /// time, or all devices of the runtime at launch time.
    All,
    /// All GPUs of the default platform (the paper's default).
    AllGpus,
    /// The first `n` GPUs of the default platform.
    Gpus(usize),
    /// An explicit list of device profiles (used for heterogeneous set-ups
    /// and by the dOpenCL layer, which contributes remote devices).
    Profiles(Vec<DeviceProfile>),
}

/// The SkelCL runtime. Holds the underlying (simulated) OpenCL context, one
/// in-order command queue per device, and counters used by the benchmark
/// harnesses.
pub struct SkelCl {
    context: Context,
    queues: Vec<CommandQueue>,
    skeleton_calls: AtomicUsize,
    vector_ids: AtomicU64,
    /// Per-device halo-exchange transfer counts (stencil redistribution).
    halo_transfers: Vec<AtomicUsize>,
    /// Per-device halo-exchange bytes moved.
    halo_bytes: Vec<AtomicUsize>,
    /// Per-device cross-device ghost writes sent from the host copy.
    halo_host_writes: Vec<AtomicUsize>,
    /// Per-device cross-device ghost writes forwarded from an owner's read.
    halo_forwards: Vec<AtomicUsize>,
    /// Pipeline stages merged into another stage's kernel by plan fusion.
    kernels_fused: AtomicUsize,
    /// Per-device kernel launches avoided by plan fusion.
    launches_elided: AtomicUsize,
    /// Intermediate device buffers never allocated thanks to plan fusion.
    intermediate_buffers_elided: AtomicUsize,
    /// Bytes of intermediate device storage never allocated thanks to plan
    /// fusion.
    intermediate_bytes_elided: AtomicUsize,
    /// Node id of each device — devices sharing a node fail together under
    /// node-level fault injection and are preferred when re-homing a lost
    /// device's share of the data. Defaults to one node per device.
    node_topology: Mutex<Vec<usize>>,
    /// Whether the fault-recovery layer wraps skeleton launches (on by
    /// default; see [`SkelCl::set_recovery_enabled`]).
    recovery_enabled: AtomicBool,
    /// Skeleton launches successfully recovered after an injected fault.
    recoveries: AtomicUsize,
    /// Kernel launches replayed by the recovery layer.
    replayed_launches: AtomicUsize,
    /// Container re-partitions performed to move work off lost devices.
    repartitions: AtomicUsize,
    /// Bytes gathered to the host by iterative-stencil checkpoints.
    checkpoint_bytes: AtomicUsize,
    /// Devices the recovery layer has moved work off: a snapshot of
    /// [`oclsim::Device::is_lost`] taken between the attempts of a launch.
    /// Uploads read the snapshot, not the live flag: a device lost earlier in
    /// the same attempt is still in that attempt's partition, and leaving its
    /// replica out would turn a replayable loss into a non-injected "no data
    /// on device" error.
    settled_losses: Vec<AtomicBool>,
    /// Every source-UDF kernel of the runtime — eager calls and plan groups
    /// — lowered and built once per distinct shape.
    lowerings: crate::plan::LoweringMemo,
}

/// One runtime telemetry snapshot: the library-level view of the execution
/// counters that benches and the scheduler previously had to collect by
/// poking [`oclsim::Context`] and its devices directly. Obtained from
/// [`SkelCl::exec_trace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecTrace {
    /// Skeleton invocations so far.
    pub skeleton_calls: usize,
    /// Allocations served from the device buffer pools.
    pub buffer_pool_hits: usize,
    /// Released allocations currently parked across all pools.
    pub pooled_buffers: usize,
    /// Bytes of storage currently parked across all pools.
    pub pooled_bytes: usize,
    /// Distinct kernel programs built (and cached) so far.
    pub programs_built: usize,
    /// Pipeline stages merged into another stage's kernel by plan fusion
    /// (a fused group of `k` stages contributes `k - 1`).
    pub kernels_fused: usize,
    /// Per-device kernel launches avoided by plan fusion.
    pub launches_elided: usize,
    /// Intermediate device buffers never allocated thanks to plan fusion.
    pub intermediate_buffers_elided: usize,
    /// Bytes of intermediate device storage never allocated thanks to plan
    /// fusion.
    pub intermediate_bytes_elided: usize,
    /// Groups of stages lowered to kernel source (lowering-memo misses): one
    /// per distinct shape the runtime has seen. Every source-UDF kernel is
    /// lowered through the memo, so eager skeleton calls count too — as
    /// one-stage groups, sharing their entry with the one-stage plan group of
    /// the same skeleton.
    pub plan_lowerings: usize,
    /// Lowerings answered from the runtime's memo instead — every eager
    /// source call and plan group after the first of its shape.
    pub plan_lowering_hits: usize,
    /// Parked allocations evicted by buffer-pool cap trims (see
    /// [`oclsim::Context::set_pool_cap_bytes`]).
    pub pool_evictions: usize,
    /// Bytes evicted by buffer-pool cap trims.
    pub pool_evicted_bytes: usize,
    /// Injected faults that actually fired (primary trigger firings only —
    /// the cascade of failures a lost device produces afterwards is not
    /// counted again).
    pub faults_injected: usize,
    /// Skeleton launches successfully recovered after an injected fault.
    pub recoveries: usize,
    /// Kernel launches replayed by the recovery layer.
    pub replayed_launches: usize,
    /// Container re-partitions performed to move work off lost devices.
    pub repartitions: usize,
    /// Bytes gathered to the host by iterative-stencil checkpoints.
    pub checkpoint_bytes: usize,
    /// Per-device counters, indexed by device.
    pub devices: Vec<DeviceTrace>,
}

impl ExecTrace {
    /// Total halo-exchange transfers across all devices.
    pub fn halo_transfers(&self) -> usize {
        self.devices.iter().map(|d| d.halo_transfers).sum()
    }

    /// Total halo-exchange bytes across all devices.
    pub fn halo_bytes(&self) -> usize {
        self.devices.iter().map(|d| d.halo_bytes).sum()
    }

    /// Total ghost segments written from the host copy across all devices.
    pub fn halo_host_writes(&self) -> usize {
        self.devices.iter().map(|d| d.halo_host_writes).sum()
    }

    /// Total ghost segments forwarded from an owner's read across all
    /// devices (each one read, on the owner, and one write).
    pub fn halo_forwards(&self) -> usize {
        self.devices.iter().map(|d| d.halo_forwards).sum()
    }

    /// The kernel-tier counts summed over all devices; the accessors below
    /// name its fields.
    pub fn tiers(&self) -> TierSnapshot {
        let mut sum = TierSnapshot::default();
        for device in &self.devices {
            sum += device.tiers;
        }
        sum
    }

    /// Total kernel-language launches handled by the AST interpreter.
    pub fn interp_launches(&self) -> usize {
        self.tiers().interp_launches
    }

    /// Kept for the repository benchmark, which predates the removal of the
    /// scalar VM: always 0.
    #[doc(hidden)]
    pub fn scalar_launches(&self) -> usize {
        0
    }

    /// Kept for the repository benchmark, which predates the removal of the
    /// lane-batched VM: always 0.
    #[doc(hidden)]
    pub fn batched_launches(&self) -> usize {
        0
    }

    /// Total kernel-language launches handled by the native tier.
    pub fn native_launches(&self) -> usize {
        self.tiers().native_launches
    }

    /// Total kernels compiled to the native tier across all devices.
    pub fn native_compiles(&self) -> usize {
        self.tiers().native_compiles
    }

    /// Total nanoseconds spent compiling kernels to the native tier.
    pub fn native_compile_ns(&self) -> u64 {
        self.tiers().native_compile_ns
    }

    /// Total native lane batches whose lanes diverged and ran under partial
    /// lane masks.
    pub fn masked_batches(&self) -> u64 {
        self.tiers().masked_batches
    }

    /// Total lane batches the native tier rolled back and replayed through
    /// the interpreter.
    pub fn replayed_batches(&self) -> u64 {
        self.tiers().replayed_batches
    }

    /// Total launches a replayed batch took off the native tier.
    pub fn bailed_launches(&self) -> usize {
        self.tiers().bailed_launches
    }

    /// One line saying which engines ran the launches so far, what the
    /// native tier gave back to the interpreter and how many of its batches
    /// diverged
    /// (rendered by `Plan::explain` and the guarded examples).
    pub fn tier_line(&self) -> String {
        let t = self.tiers();
        format!(
            "Kernel launches: {} native, {} interp; \
             {} replayed batch(es), {} bailed launch(es), {} masked batch(es)",
            t.native_launches,
            t.interp_launches,
            t.replayed_batches,
            t.bailed_launches,
            t.masked_batches
        )
    }

    /// One line saying how often a group of stages (an eager call's one, a
    /// plan's fused run) had to be lowered to kernel source and how often
    /// the runtime's memo answered instead
    /// (rendered below [`ExecTrace::tier_line`] by `Plan::explain`).
    pub fn lowering_line(&self) -> String {
        format!(
            "Plan lowerings: {} lowered, {} memo hit(s)",
            self.plan_lowerings, self.plan_lowering_hits
        )
    }

    /// Total commands that failed asynchronously and latched a deferred
    /// error on their queue, across all devices.
    pub fn deferred_errors(&self) -> usize {
        self.devices.iter().map(|d| d.deferred_errors).sum()
    }
}

/// Per-device slice of an [`ExecTrace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceTrace {
    /// Device index within the runtime.
    pub device: usize,
    /// Halo-exchange commands this device executed: one per row segment it
    /// *read* for a neighbour, one per segment *written* into its own halo
    /// (from the host copy or forwarded from the owner's read), one per edge
    /// segment it copied on-device or filled. A forwarded segment therefore
    /// counts twice (once on the owner, once on the destination), a
    /// host-written one and a device-local edge copy once.
    pub halo_transfers: usize,
    /// Bytes those commands moved (a local copy's length counts once).
    pub halo_bytes: usize,
    /// Segments from another device's rows written into this device's halo
    /// straight from the host copy (the exchange of a host-valid container).
    pub halo_host_writes: usize,
    /// Segments from another device's rows forwarded into this device's halo
    /// from a read on the owner's queue (the exchange of device-only data).
    pub halo_forwards: usize,
    /// Allocations served from this device's buffer pool.
    pub pool_hits: usize,
    /// Bytes of storage parked in this device's buffer pool.
    pub pooled_bytes: usize,
    /// Which kernel-language engine ran this device's launches, and what
    /// the native tier compiled, masked, replayed and gave up on.
    pub tiers: TierSnapshot,
    /// Commands on this device's queue that failed asynchronously and
    /// latched a deferred error (see
    /// [`oclsim::CommandQueue::take_deferred_error`]).
    pub deferred_errors: usize,
}

impl SkelCl {
    /// Initialise the runtime with the default SkelCL API model.
    pub fn init(selection: DeviceSelection) -> Arc<SkelCl> {
        Self::init_with_api(selection, ApiModel::skelcl())
    }

    /// Initialise the runtime with an explicit API model (used by the
    /// benchmark harnesses to run the same program under OpenCL- or
    /// CUDA-equivalent cost constants).
    pub fn init_with_api(selection: DeviceSelection, api: ApiModel) -> Arc<SkelCl> {
        let profiles = match selection {
            DeviceSelection::All | DeviceSelection::AllGpus => {
                oclsim::select_gpus(4).unwrap_or_default()
            }
            DeviceSelection::Gpus(n) => oclsim::select_gpus(n).unwrap_or_default(),
            DeviceSelection::Profiles(p) => p,
        };
        let profiles = if profiles.is_empty() {
            vec![DeviceProfile::tesla_c1060()]
        } else {
            profiles
        };
        let context = Context::new(profiles, api);
        let queues = (0..context.device_count())
            .map(|i| context.queue(i).expect("device index within range"))
            .collect();
        let devices = context.device_count();
        Arc::new(SkelCl {
            context,
            queues,
            skeleton_calls: AtomicUsize::new(0),
            vector_ids: AtomicU64::new(1),
            halo_transfers: (0..devices).map(|_| AtomicUsize::new(0)).collect(),
            halo_bytes: (0..devices).map(|_| AtomicUsize::new(0)).collect(),
            halo_host_writes: (0..devices).map(|_| AtomicUsize::new(0)).collect(),
            halo_forwards: (0..devices).map(|_| AtomicUsize::new(0)).collect(),
            kernels_fused: AtomicUsize::new(0),
            launches_elided: AtomicUsize::new(0),
            intermediate_buffers_elided: AtomicUsize::new(0),
            intermediate_bytes_elided: AtomicUsize::new(0),
            node_topology: Mutex::new((0..devices).collect()),
            recovery_enabled: AtomicBool::new(true),
            recoveries: AtomicUsize::new(0),
            replayed_launches: AtomicUsize::new(0),
            repartitions: AtomicUsize::new(0),
            checkpoint_bytes: AtomicUsize::new(0),
            settled_losses: (0..devices).map(|_| AtomicBool::new(false)).collect(),
            lowerings: crate::plan::LoweringMemo::default(),
        })
    }

    /// The underlying simulated OpenCL context.
    pub fn context(&self) -> &Context {
        &self.context
    }

    /// Pin the kernel-language execution tier for every kernel the runtime
    /// launches from now on — [`Tier::Native`] is the default, which runs
    /// every native-eligible kernel natively from its first launch;
    /// [`Tier::Interp`] forces the interpreter. Applies to already-built
    /// (cached) programs as well as future builds. All tiers are bit-identical
    /// in results and execution statistics; only throughput differs.
    pub fn set_kernel_tier(&self, tier: Tier) {
        self.context.set_kernel_tier(tier);
    }

    /// One-line description of the kernel-tier selection in effect (rendered
    /// by `Plan::explain`): the tier pinned with [`SkelCl::set_kernel_tier`],
    /// otherwise what the default means.
    pub fn kernel_tier_summary(&self) -> String {
        if let Some(tier) = self.context.kernel_tier() {
            format!("{tier} (pinned via set_kernel_tier)")
        } else {
            "native by default (from a kernel's first launch; the interpreter for \
             native-ineligible kernels)"
                .to_string()
        }
    }

    /// Number of devices the runtime uses.
    pub fn device_count(&self) -> usize {
        self.context.device_count()
    }

    /// The command queue of device `index`.
    pub fn queue(&self, index: usize) -> &CommandQueue {
        &self.queues[index]
    }

    /// All command queues, indexed by device.
    pub fn queues(&self) -> &[CommandQueue] {
        &self.queues
    }

    /// Current host virtual time — the value reported by the benchmark
    /// harnesses as "runtime".
    pub fn now(&self) -> SimTime {
        self.context.host_now()
    }

    /// Virtual time elapsed since `earlier`.
    pub fn elapsed_since(&self, earlier: SimTime) -> SimDuration {
        self.now() - earlier
    }

    /// Record one skeleton invocation and charge the SkelCL dispatch
    /// overhead (the library-layer cost on top of raw OpenCL measured as
    /// < 5 % in the paper).
    pub(crate) fn charge_skeleton_call(&self) {
        self.skeleton_calls.fetch_add(1, Ordering::Relaxed);
        let overhead = self.context.api().dispatch_overhead;
        self.context.charge_host(overhead);
    }

    /// Number of skeleton invocations so far.
    pub fn skeleton_calls(&self) -> usize {
        self.skeleton_calls.load(Ordering::Relaxed)
    }

    /// Record one halo-exchange command of `bytes` bytes on `device`. The
    /// halo machinery calls it once per command it enqueues: on the owner
    /// for the read of a forwarded segment, on the destination for the
    /// write of a host-written or forwarded one, and once for a device-local
    /// edge copy or fill.
    pub(crate) fn charge_halo_transfer(&self, device: usize, bytes: usize) {
        self.halo_transfers[device].fetch_add(1, Ordering::Relaxed);
        self.halo_bytes[device].fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record where one cross-device ghost write on `device` took its rows
    /// from: the host copy, or a forwarded read on the owner's queue.
    pub(crate) fn charge_ghost_write(&self, device: usize, from_host: bool) {
        let counter = if from_host {
            &self.halo_host_writes
        } else {
            &self.halo_forwards
        };
        counter[device].fetch_add(1, Ordering::Relaxed);
    }

    /// Record the effect of one fused plan group: `stages_merged` pipeline
    /// stages disappeared into another stage's kernel, eliding
    /// `launches_elided` per-device launches, `buffers_elided` intermediate
    /// device buffers and `bytes_elided` bytes of intermediate storage.
    pub(crate) fn charge_fusion(
        &self,
        stages_merged: usize,
        launches_elided: usize,
        buffers_elided: usize,
        bytes_elided: usize,
    ) {
        self.kernels_fused
            .fetch_add(stages_merged, Ordering::Relaxed);
        self.launches_elided
            .fetch_add(launches_elided, Ordering::Relaxed);
        self.intermediate_buffers_elided
            .fetch_add(buffers_elided, Ordering::Relaxed);
        self.intermediate_bytes_elided
            .fetch_add(bytes_elided, Ordering::Relaxed);
    }

    /// The runtime's lowering memo — its one kernel cache.
    pub(crate) fn lowerings(&self) -> &crate::plan::LoweringMemo {
        &self.lowerings
    }

    /// Snapshot the runtime's execution telemetry: skeleton calls, buffer
    /// pool statistics and the per-device halo-exchange counters. This is
    /// the supported read path for benches and schedulers — no need to walk
    /// [`SkelCl::context`] and its devices by hand.
    pub fn exec_trace(&self) -> ExecTrace {
        let devices = (0..self.device_count())
            .map(|d| {
                let dev = self
                    .context
                    .device(d)
                    .expect("device index within runtime range");
                DeviceTrace {
                    device: d,
                    halo_transfers: self.halo_transfers[d].load(Ordering::Relaxed),
                    halo_bytes: self.halo_bytes[d].load(Ordering::Relaxed),
                    halo_host_writes: self.halo_host_writes[d].load(Ordering::Relaxed),
                    halo_forwards: self.halo_forwards[d].load(Ordering::Relaxed),
                    pool_hits: dev.pool_hit_count(),
                    pooled_bytes: dev.pooled_bytes(),
                    tiers: dev.kernel_tiers(),
                    deferred_errors: self.queues[d].deferred_error_count(),
                }
            })
            .collect();
        ExecTrace {
            skeleton_calls: self.skeleton_calls(),
            buffer_pool_hits: self.context.buffer_pool_hits(),
            pooled_buffers: self.context.pooled_buffers(),
            pooled_bytes: self.context.pooled_bytes(),
            programs_built: self.context.built_program_count(),
            kernels_fused: self.kernels_fused.load(Ordering::Relaxed),
            launches_elided: self.launches_elided.load(Ordering::Relaxed),
            intermediate_buffers_elided: self.intermediate_buffers_elided.load(Ordering::Relaxed),
            intermediate_bytes_elided: self.intermediate_bytes_elided.load(Ordering::Relaxed),
            plan_lowerings: self.lowerings.lowerings(),
            plan_lowering_hits: self.lowerings.hits(),
            pool_evictions: self.context.pool_evictions(),
            pool_evicted_bytes: self.context.pool_evicted_bytes(),
            faults_injected: self.context.faults_injected(),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            replayed_launches: self.replayed_launches.load(Ordering::Relaxed),
            repartitions: self.repartitions.load(Ordering::Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Ordering::Relaxed),
            devices,
        }
    }

    // -----------------------------------------------------------------------
    // Fault tolerance
    // -----------------------------------------------------------------------

    /// Declare which node each device lives on (one entry per device).
    /// Devices on the same node fail together under node-level fault
    /// injection, and the recovery layer prefers surviving same-node devices
    /// when re-homing a lost device's share of the data. The default
    /// topology places every device on its own node. Entries beyond the
    /// device count are ignored; missing entries keep their default.
    pub fn set_node_topology(&self, nodes: Vec<usize>) {
        let mut topo = self.node_topology.lock();
        for (d, node) in nodes.into_iter().enumerate().take(topo.len()) {
            topo[d] = node;
        }
    }

    /// The node id of each device (see [`SkelCl::set_node_topology`]).
    pub fn node_topology(&self) -> Vec<usize> {
        self.node_topology.lock().clone()
    }

    /// Enable or disable replay-based fault recovery (enabled by default).
    /// With recovery disabled, injected faults surface directly as typed
    /// [`crate::SkelError::Ocl`] errors.
    pub fn set_recovery_enabled(&self, enabled: bool) {
        self.recovery_enabled.store(enabled, Ordering::SeqCst);
    }

    /// Whether replay-based fault recovery is enabled.
    pub fn recovery_enabled(&self) -> bool {
        self.recovery_enabled.load(Ordering::SeqCst)
    }

    /// Arm a deterministic fault plan on the runtime's devices (convenience
    /// passthrough to [`oclsim::Context::inject_faults`]).
    pub fn inject_faults(&self, plan: &oclsim::FaultPlan) {
        self.context.inject_faults(plan);
    }

    /// Devices that have been lost (permanently failed).
    pub fn lost_devices(&self) -> Vec<usize> {
        self.context.lost_devices()
    }

    /// Per-device weights for re-partitioning work onto the surviving
    /// devices: survivors start at weight 1, lost devices get 0, and each
    /// lost device's share goes preferentially to surviving devices on the
    /// same node (split evenly among them). Returns `None` when no device
    /// survives.
    pub fn recovery_weights(&self) -> Option<Vec<f64>> {
        let n = self.device_count();
        let lost: Vec<bool> = (0..n)
            .map(|d| {
                self.context
                    .device(d)
                    .map(|dev| dev.is_lost())
                    .unwrap_or(true)
            })
            .collect();
        if lost.iter().all(|&l| l) {
            return None;
        }
        let topo = self.node_topology.lock().clone();
        let mut weights: Vec<f64> = lost.iter().map(|&l| if l { 0.0 } else { 1.0 }).collect();
        for d in 0..n {
            if !lost[d] {
                continue;
            }
            let peers: Vec<usize> = (0..n).filter(|&p| !lost[p] && topo[p] == topo[d]).collect();
            if peers.is_empty() {
                // No same-node survivor: the share spreads evenly across all
                // survivors through weight normalisation.
                continue;
            }
            let share = 1.0 / peers.len() as f64;
            for p in peers {
                weights[p] += share;
            }
        }
        Some(weights)
    }

    /// Record the devices lost so far as known to the recovery layer (called
    /// between attempts).
    pub(crate) fn settle_losses(&self) {
        for device in self.lost_devices() {
            self.settled_losses[device].store(true, Ordering::SeqCst);
        }
    }

    /// Whether the recovery layer has moved work off `device` for good (see
    /// [`SkelCl::settle_losses`]); uploads leave its replicas out.
    pub(crate) fn is_settled_lost(&self, device: usize) -> bool {
        self.settled_losses[device].load(Ordering::SeqCst)
    }

    /// Record one successful launch recovery.
    pub(crate) fn note_recovery(&self) {
        self.recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` kernel launches replayed by the recovery layer.
    pub(crate) fn note_replayed_launches(&self, n: usize) {
        self.replayed_launches.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one recovery re-partition.
    pub(crate) fn note_repartition(&self) {
        self.repartitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `bytes` gathered to the host by an iterative-stencil
    /// checkpoint.
    pub(crate) fn note_checkpoint_bytes(&self, bytes: usize) {
        self.checkpoint_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Drain the deferred (asynchronously latched) error of every queue,
    /// returning the first error found per device. Fire-and-forget callers
    /// — the serving layer above all — use this to make sure failed
    /// launches surface instead of being swallowed until the next blocking
    /// read on the same queue. The latched-error *count* stays visible in
    /// [`ExecTrace::deferred_errors`] even after draining.
    pub fn take_deferred_errors(&self) -> Vec<(usize, oclsim::OclError)> {
        self.queues
            .iter()
            .enumerate()
            .filter_map(|(d, q)| q.take_deferred_error().map(|e| (d, e)))
            .collect()
    }

    /// Allocate a fresh vector id (used to detect runtime mismatches).
    pub(crate) fn next_vector_id(&self) -> u64 {
        self.vector_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Synchronise: wait (in virtual time) for all devices to finish.
    pub fn finish_all(&self) -> SimTime {
        let mut latest = self.now();
        for q in &self.queues {
            latest = latest.max(q.finish());
        }
        latest
    }

    /// Drain the profiling events of every queue (oldest first, grouped by
    /// device). Used by harnesses that report per-phase breakdowns.
    pub fn drain_events(&self) -> Vec<Vec<oclsim::Event>> {
        self.queues
            .iter()
            .map(|q| {
                let evs = q.events();
                q.clear_events();
                evs
            })
            .collect()
    }
}

impl std::fmt::Debug for SkelCl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkelCl")
            .field("devices", &self.device_count())
            .field("api", &self.context.api().name)
            .field("skeleton_calls", &self.skeleton_calls())
            .finish()
    }
}

/// Initialise a SkelCL runtime on `n` simulated Tesla GPUs — the most common
/// configuration in tests and examples.
pub fn init_gpus(n: usize) -> Arc<SkelCl> {
    SkelCl::init(DeviceSelection::Profiles(vec![
        DeviceProfile::tesla_c1060();
        n
    ]))
}

/// Convenience used throughout the test-suite: a small runtime whose device
/// count is easy to vary.
pub fn init_profiles(profiles: Vec<DeviceProfile>) -> Arc<SkelCl> {
    SkelCl::init(DeviceSelection::Profiles(profiles))
}

/// Result alias re-export for convenience in examples.
pub type SkelResult<T> = Result<T>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_selects_devices() {
        let rt = SkelCl::init(DeviceSelection::AllGpus);
        assert_eq!(rt.device_count(), 4, "the default platform has 4 GPUs");
        let rt = SkelCl::init(DeviceSelection::Gpus(2));
        assert_eq!(rt.device_count(), 2);
        let rt = init_gpus(3);
        assert_eq!(rt.device_count(), 3);
        assert_eq!(rt.context().api().name, "SkelCL");
    }

    #[test]
    fn init_with_empty_selection_falls_back_to_one_gpu() {
        let rt = SkelCl::init(DeviceSelection::Profiles(vec![]));
        assert_eq!(rt.device_count(), 1);
    }

    #[test]
    fn skeleton_calls_charge_dispatch_overhead() {
        let rt = init_gpus(1);
        let before = rt.now();
        rt.charge_skeleton_call();
        rt.charge_skeleton_call();
        assert_eq!(rt.skeleton_calls(), 2);
        assert!(rt.now() > before);
    }

    #[test]
    fn finish_all_advances_host_to_latest_queue() {
        let rt = init_gpus(2);
        let buf = rt.context().create_buffer::<f32>(1, 1 << 16).unwrap();
        rt.queue(1)
            .enqueue_write_buffer(&buf, &vec![0.0f32; 1 << 16])
            .unwrap();
        let t = rt.finish_all();
        assert!(t >= rt.queue(1).available_at());
    }

    #[test]
    fn vector_ids_are_unique() {
        let rt = init_gpus(1);
        let a = rt.next_vector_id();
        let b = rt.next_vector_id();
        assert_ne!(a, b);
    }
}
