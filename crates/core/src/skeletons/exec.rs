//! The one call path: one [`Skeleton`] trait, one [`Launch`] builder, and
//! the stages every synchronous launch in core goes through ([`run_call`]).
//! An eager skeleton call is a one-stage plan group — a `crate::plan::Stage`
//! of its kind and user function (`udf::Udf::stage`) — over its inputs,
//! under a [`LaunchConfig`]:
//!
//! 1. **configure** — a [`Launch`] builder collects additional [`Args`], an
//!    optional [`DeviceSelection`] and an optional scheduler,
//! 2. **prepare** — [`PreparedCall::prepare`], the only prepare stage: the
//!    inputs — type-erased ([`DynContainer`]), so one container, a zip's
//!    two, a plan's sources and an index map's index range are one case —
//!    are validated, coerced to the layout the call needs and uploaded
//!    lazily; additional arguments are resolved ([`PreparedArgs`]),
//! 3. **lower and launch** — the plan's group runner (`plan::run_group`)
//!    takes the group's kernels from the runtime's lowering memo (a
//!    closure's are built once per skeleton instance), binds the arguments
//!    and hands them to the one launcher of the last stage's kind:
//!    [`launch_elementwise`] here (map, zip, index map, stencil sweep),
//!    `launch_and_gather` (reduce) and `launch_scan` (scan) next to their
//!    skeletons. The launchers alone own the output buffers of a launch —
//!    allocate, reuse a `run_into` target's, release on failure,
//! 4. **wrap** — reduce and scan results come back through the host; the
//!    other outputs are wrapped as a device-resident output container.
//!
//! Stages 2–4 are one *attempt* under the one recovery wrapper
//! (`crate::recovery`): over only when every queue it enqueued on is clean,
//! replayed after an injected fault.
//!
//! The data-parallel stages are written against the
//! [`Container`](crate::container::Container) trait, not a concrete
//! container type: the same code (and the same generated kernels) executes a
//! [`Map`](crate::skeletons::Map) over a [`Vector`](crate::vector::Vector) or
//! a row-block [`Matrix`](crate::matrix::Matrix), and `Skeleton` is generic
//! over its input shape (a container, a pair of them for zip).
//!
//! ```
//! use skelcl::prelude::*;
//!
//! let rt = skelcl::init_gpus(2);
//! let saxpy = Zip::<f32, f32, f32>::from_source(
//!     "float func(float x, float y, float a) { return a * x + y; }",
//! );
//! let x = Vector::from_vec(&rt, vec![1.0f32, 2.0, 3.0]);
//! let y = Vector::from_vec(&rt, vec![10.0f32; 3]);
//! let out = saxpy.run(&x, &y).arg(2.0f32).exec().unwrap();
//! assert_eq!(out.to_vec().unwrap(), vec![12.0, 14.0, 16.0]);
//! ```

use std::sync::Arc;

use oclsim::{Buffer, CostHint, KernelArg, Pod, Value};

use crate::args::{Args, IntoArg};
use crate::container::{Container, DynContainer};
use crate::distribution::{Distribution, Partition};
use crate::error::{Result, SkelError};
use crate::kernelgen::StageKind;
use crate::plan::Stage;
use crate::runtime::{DeviceSelection, SkelCl};
use crate::scheduler::StaticScheduler;
use crate::skeletons::PreparedArgs;

/// Execution configuration of one skeleton call, collected by [`Launch`].
pub struct LaunchConfig<'a> {
    /// Additional arguments forwarded to the user-defined function.
    pub args: Args,
    /// Optional restriction of the participating devices.
    pub devices: Option<DeviceSelection>,
    /// Optional static scheduler (Section V): data-parallel skeletons use
    /// its weighted block distribution; reduce uses it to place the final
    /// combination step.
    pub scheduler: Option<&'a StaticScheduler>,
    /// Partial results each device leaves for the host in a reduction;
    /// `None` (the default) is one per 256 elements of the device's part,
    /// at most 64 ([`crate::reduce_partials`]).
    pub chunks_per_device: Option<usize>,
    /// Checkpoint period of the iterative stencil driver
    /// (`Launch::run_iter`): every `checkpoint_every` completed sweeps the
    /// current state is gathered to the host so a device loss that cannot be
    /// recovered in place replays from the last checkpoint instead of from
    /// sweep zero. `0` (the default) disables checkpointing.
    pub checkpoint_every: usize,
}

impl Default for LaunchConfig<'_> {
    fn default() -> Self {
        LaunchConfig {
            args: Args::new(),
            devices: None,
            scheduler: None,
            chunks_per_device: None,
            checkpoint_every: 0,
        }
    }
}

/// The single execution interface every skeleton implements, generic over
/// the input shape `In` — a container handle ([`crate::vector::Vector`],
/// [`crate::matrix::Matrix`]), or a pair of them for zip. One skeleton type
/// may implement `Skeleton` for several input shapes: `Map<f32, f32>` is
/// both a `Skeleton<Vector<f32>>` and a `Skeleton<Matrix<f32>>` through one
/// generic impl over the [`Container`] trait.
pub trait Skeleton<In: Clone> {
    /// The result of one call.
    type Output;

    /// The skeleton's name, for diagnostics.
    fn name(&self) -> &'static str;

    /// Execute one call under the given configuration. This is the uniform
    /// entry point behind every [`Launch`] terminal form.
    fn execute(&self, input: &In, cfg: &LaunchConfig<'_>) -> Result<Self::Output>;
}

/// Fluent builder for one skeleton call; created by each skeleton's `run`
/// method. Configure with [`args`](Launch::args) / [`arg`](Launch::arg) /
/// [`devices`](Launch::devices) / [`scheduler`](Launch::scheduler) /
/// [`chunks`](Launch::chunks), then finish with a terminal form:
/// [`exec`](Launch::exec) (every skeleton), `into_vector` / `into_matrix`
/// (map/zip/scan as identity, reduce wrapping the scalar), `scalar` /
/// `scalar_with_plan` (reduce), `trace` (scan) or `run_into` (map/zip/scan,
/// reusing an existing output container's buffers).
#[must_use = "a Launch does nothing until a terminal form such as `exec()` is called"]
pub struct Launch<'a, S, In: Clone> {
    pub(crate) skeleton: &'a S,
    pub(crate) input: In,
    pub(crate) cfg: LaunchConfig<'a>,
}

impl<'a, S, In: Clone> Launch<'a, S, In> {
    pub(crate) fn new(skeleton: &'a S, input: In) -> Launch<'a, S, In> {
        Launch {
            skeleton,
            input,
            cfg: LaunchConfig::default(),
        }
    }

    /// Replace the additional arguments of the call.
    pub fn args(mut self, args: Args) -> Self {
        self.cfg.args = args;
        self
    }

    /// Append one additional argument (any [`IntoArg`] value).
    pub fn arg(mut self, value: impl IntoArg) -> Self {
        self.cfg.args = self.cfg.args.arg(value);
        self
    }

    /// Restrict the call to a subset of the runtime's devices.
    /// [`DeviceSelection::All`] (and `AllGpus`) keeps the input's current
    /// distribution; `Gpus(n)` re-distributes over the first `n` devices.
    pub fn devices(mut self, selection: DeviceSelection) -> Self {
        self.cfg.devices = Some(selection);
        self
    }

    /// Attach a static scheduler (Section V of the paper). Data-parallel
    /// skeletons partition the input by the scheduler's predicted per-device
    /// throughput; reduce instead uses it to decide where the final
    /// combination of intermediate results runs. Either decision is made
    /// among the devices [`devices`](Launch::devices) selects.
    pub fn scheduler(mut self, scheduler: &'a StaticScheduler) -> Self {
        self.cfg.scheduler = Some(scheduler);
        self
    }

    /// Number of partial results each device leaves for the final
    /// combination of a reduction: its part is cut into `chunks_per_device`
    /// chunks of equal length (the last may be shorter; a part with fewer
    /// elements yields one partial per element). Without this call a device
    /// leaves one partial per 256 elements, at most 64
    /// ([`crate::reduce_partials`]). Only the geometry changes — the
    /// kernel, the gather and the left-to-right combination order do not.
    pub fn chunks(mut self, chunks_per_device: usize) -> Self {
        self.cfg.chunks_per_device = Some(chunks_per_device.max(1));
        self
    }

    /// Checkpoint the iterative stencil driver every `sweeps` completed
    /// sweeps (see [`LaunchConfig::checkpoint_every`]); `0` disables
    /// checkpointing. Only `run_iter` consults this — single-sweep launches
    /// recover in place and never need a checkpoint.
    pub fn checkpoint_every(mut self, sweeps: usize) -> Self {
        self.cfg.checkpoint_every = sweeps;
        self
    }

    /// Execute the call and return the skeleton's natural output.
    pub fn exec(self) -> Result<S::Output>
    where
        S: Skeleton<In>,
    {
        self.skeleton.execute(&self.input, &self.cfg)
    }
}

/// The devices a launch-time selection allows, as a count: the call runs on
/// the first `n` of the runtime's `devices` (all of them for `All`/`AllGpus`
/// or no selection); `Profiles` is an init-time-only selection and is
/// rejected. The one home of the allowed set: the distribution override and
/// an attached scheduler's weights and final-fold placement all read it.
pub(crate) fn selected_devices(
    selection: Option<&DeviceSelection>,
    devices: usize,
) -> Result<usize> {
    match selection {
        None | Some(DeviceSelection::All | DeviceSelection::AllGpus) => Ok(devices),
        Some(DeviceSelection::Gpus(n)) => match (*n).min(devices) {
            0 => Err(SkelError::Distribution(
                "device selection Gpus(0) leaves no device to run on".into(),
            )),
            n => Ok(n),
        },
        Some(DeviceSelection::Profiles(_)) => Err(SkelError::Distribution(
            "DeviceSelection::Profiles selects devices at runtime initialisation; \
             pass All or Gpus(n) to a launch"
                .into(),
        )),
    }
}

/// Translate a launch-time device selection into a distribution override.
/// `Ok(None)` means "keep the current distribution" (the selection covers
/// every device). Shared by vector launches and index-map launches so the
/// policy cannot diverge.
pub(crate) fn selection_distribution(
    selection: &DeviceSelection,
    devices: usize,
) -> Result<Option<Distribution>> {
    Ok(match selected_devices(Some(selection), devices)? {
        n if n == devices => None,
        1 => Some(Distribution::Single(0)),
        n => {
            let weights: Vec<f64> = (0..devices)
                .map(|d| if d < n { 1.0 } else { 0.0 })
                .collect();
            Some(Distribution::block_weighted(&weights))
        }
    })
}

/// What the one **prepare** stage leaves for the launch: the runtime, the
/// flat element partition the kernels iterate, the uploaded inputs and the
/// resolved additional arguments.
pub(crate) struct PreparedCall {
    pub runtime: Arc<SkelCl>,
    /// The call runs on the first `selected` devices ([`selected_devices`]);
    /// an attached scheduler weights and places among them only.
    pub selected: usize,
    /// The partition of the first input (a matrix's row blocks flattened to
    /// element ranges, an index range's blocks of indices).
    pub partition: Partition,
    pub prepared_args: PreparedArgs,
    /// Per-input per-device buffers, in skeleton argument order; an index
    /// range contributes none.
    pub input_buffers: Vec<Vec<Option<Buffer>>>,
    /// Identities of the input containers, used to detect `run_into` targets
    /// that alias an input.
    pub input_ids: Vec<u64>,
    /// Stand-ins for the buffers of an input that is bound twice.
    _scratch: ScratchCopies,
}

/// Per-device copies standing in for the buffers of an input that occurs
/// twice in one call (`zip(&v, &v)`): the device model refuses one buffer on
/// two kernel arguments. Owned by the attempt and released when it ends.
struct ScratchCopies {
    runtime: Arc<SkelCl>,
    buffers: Vec<Buffer>,
}

impl ScratchCopies {
    /// Replace every buffer of `parts` by a copy made on its device's queue.
    fn stand_in_for(&mut self, parts: &mut [Option<Buffer>]) -> Result<()> {
        for part in parts.iter_mut().flatten() {
            let device = self.runtime.context().device(part.device())?;
            let copy = device.create_buffer_of(part.kind(), part.len())?;
            self.buffers.push(copy.clone());
            self.runtime
                .queue(part.device())
                .enqueue_copy_buffer_region::<u8>(part, 0, &copy, 0, part.len_bytes())?;
            *part = copy;
        }
        Ok(())
    }
}

impl Drop for ScratchCopies {
    fn drop(&mut self) {
        for buffer in &self.buffers {
            let _ = self.runtime.context().release_buffer(buffer);
        }
    }
}

impl PreparedCall {
    /// Prepare a call over `inputs` (not empty; all of one shape) running
    /// `stage` — an eager call's or a matrix plan group's last — or, with
    /// `None`, a vector plan: validate the inputs, charge the call (a vector
    /// plan charges per group), impose the layout it needs (`coerce`), apply
    /// the device selection and the scheduler weighted by the stage's cost
    /// (a reduce's scheduler places its final fold instead), upload lazily
    /// (a stencil's padded parts fresh for the sweeps it serves) and resolve
    /// the additional arguments — in that order, which the event logs pin.
    pub fn prepare(
        runtime: &Arc<SkelCl>,
        inputs: &[&dyn DynContainer],
        cfg: &LaunchConfig<'_>,
        stage: Option<&Stage>,
        coerce: &dyn Fn() -> Result<()>,
    ) -> Result<PreparedCall> {
        for other in inputs.iter().skip(1) {
            other.check_runtime(runtime)?;
        }
        if stage.is_some() {
            runtime.charge_skeleton_call();
        }
        if inputs.iter().any(|input| input.is_empty()) {
            return Err(SkelError::EmptyInput);
        }
        coerce()?;
        if let Some(selection) = &cfg.devices {
            for input in inputs {
                input.apply_selection(selection)?;
            }
        }
        let selected = selected_devices(cfg.devices.as_ref(), runtime.device_count())?;
        let weighted = stage.filter(|stage| stage.kind != StageKind::Reduce);
        if let (Some(scheduler), Some(stage)) = (cfg.scheduler, weighted) {
            let weights = scheduler.weights_among(stage.cost(), selected);
            for input in inputs {
                input.apply_scheduler(Distribution::block_weighted(&weights))?;
            }
        }
        let halo_sweeps = stage
            .and_then(|stage| stage.stencil)
            .map_or(0, |(.., sweeps)| sweeps);
        let mut partition = None;
        let mut input_buffers = Vec::with_capacity(inputs.len());
        let input_ids: Vec<u64> = inputs.iter().map(|input| input.id()).collect();
        let mut scratch = ScratchCopies {
            runtime: runtime.clone(),
            buffers: Vec::new(),
        };
        for (position, input) in inputs.iter().enumerate() {
            let (parts, mut buffers) = input.prepare_parts(halo_sweeps)?;
            partition.get_or_insert(parts);
            if input_ids[..position].contains(&input_ids[position]) {
                scratch.stand_in_for(&mut buffers)?;
            }
            if !buffers.is_empty() {
                input_buffers.push(buffers);
            }
        }
        Ok(PreparedCall {
            runtime: runtime.clone(),
            selected,
            partition: partition
                .ok_or_else(|| SkelError::Internal("a skeleton call has no input".into()))?,
            prepared_args: PreparedArgs::prepare(runtime, &cfg.args)?,
            input_buffers,
            input_ids,
            _scratch: scratch,
        })
    }

    /// Elements of each device's output part of an element-shaped launch:
    /// what its part of the first input stores (a stencil's padding
    /// included), or the partition's sizes without an input buffer.
    pub fn out_lens(&self) -> Vec<usize> {
        match self.input_buffers.first() {
            None => self.partition.sizes(),
            Some(parts) => parts
                .iter()
                .map(|p| p.as_ref().map_or(0, Buffer::len))
                .collect(),
        }
    }

    /// The buffers of a `run_into` target that an element-shaped launch may
    /// write in place: those of its device buffers that have the length
    /// [`PreparedCall::out_lens`] asks for. A target that aliases one of the
    /// inputs (the paper's in-place `y = saxpy(x, y)` pattern) offers none —
    /// the device model forbids binding one buffer to two kernel arguments —
    /// so the launch allocates, and the old buffers are released when the
    /// result is committed.
    pub fn reusable_buffers<O: Pod, CO: Container<O>>(
        &self,
        reuse: Option<&CO>,
    ) -> Result<Option<Vec<Option<Buffer>>>> {
        match reuse {
            Some(out) if !self.input_ids.contains(&out.id()) => {
                out.check_runtime(&self.runtime)?;
                Ok(Some(out.obtain_output_buffers(&self.out_lens())))
            }
            _ => Ok(None),
        }
    }

    /// The **wrap** stage of the skeletons whose output has their input's
    /// shape and distribution: the per-device output buffers become a
    /// device-resident container, or the new state of the reused output
    /// container (`run_into`).
    pub fn wrap_output<T: Pod, O: Pod, C: Container<T>>(
        input: &C,
        out_buffers: Vec<Option<Buffer>>,
        reuse: Option<&C::Rebound<O>>,
    ) -> Result<C::Rebound<O>> {
        match reuse {
            Some(out) => {
                input.commit_output(out, out_buffers)?;
                Ok(out.clone())
            }
            None => Ok(input.wrap_output(out_buffers)),
        }
    }
}

/// The one call path. Every synchronous launch in core — an eager call's
/// stage, a matrix plan's group, a whole vector plan (`stage: None`) — is
/// `inputs` + a configuration + a `launch`, run here: prepare the inputs,
/// then let `launch` hand the lowered group to the plan's group runner
/// (behind the uploads, so a first launch's program build is charged after
/// them) and wrap its output — one attempt under replay-based fault
/// recovery (the `recovery` module, whose only caller this is).
pub(crate) fn run_call<R>(
    runtime: &Arc<SkelCl>,
    inputs: &[&dyn DynContainer],
    cfg: &LaunchConfig<'_>,
    stage: Option<&Stage>,
    coerce: &dyn Fn() -> Result<()>,
    launch: &mut dyn FnMut(&PreparedCall) -> Result<R>,
) -> Result<R> {
    let args: Vec<&dyn DynContainer> = cfg.args.vectors().collect();
    crate::recovery::run_recoverable(runtime, inputs, &args, &mut || {
        launch(&PreparedCall::prepare(runtime, inputs, cfg, stage, coerce)?)
    })
}

/// `buffers`' part on `device` as a kernel argument; `what` names the
/// container in the error when the device holds no part of it.
pub(crate) fn buffer_arg(
    buffers: &[Option<Buffer>],
    device: usize,
    what: std::fmt::Arguments<'_>,
) -> Result<KernelArg> {
    let buffer = buffers[device].clone().ok_or_else(|| {
        SkelError::Distribution(format!("{what} has no buffer on device {device}"))
    })?;
    Ok(KernelArg::Buffer(buffer))
}

/// Typed buffer creation as a value, so a stage of any element type — `Pod`,
/// not only the kernel language's four — carries how its outputs are made.
pub(crate) type CreateBuffer = fn(&SkelCl, usize, usize) -> Result<Buffer>;

/// What the group runner binds for a launcher on a device: the kernel
/// arguments `[leading…, out, n, trailing…]` but the output, `n` a checked
/// `int` — as `(leading, window, n, trailing)` — and the window the launch
/// computes: the first output element it binds and its element count.
pub(crate) type Bound = (Vec<KernelArg>, (usize, usize), Value, Vec<KernelArg>);

/// `len` elements of `T` on `device` (the [`CreateBuffer`] of `T`).
pub(crate) fn create_buffer<T: Pod>(runtime: &SkelCl, device: usize, len: usize) -> Result<Buffer> {
    Ok(runtime.context().create_buffer::<T>(device, len)?)
}

/// The per-device output buffers of one launch, and which of them the launch
/// allocated itself — the rest belong to a `run_into` target, which keeps
/// them whatever happens.
pub(crate) struct OutputBuffers {
    pub buffers: Vec<Option<Buffer>>,
    allocated: Vec<Buffer>,
}

impl OutputBuffers {
    /// One buffer of `lens[device]` elements per device with a part (a
    /// non-zero length): `reuse`'s where it offers one, a fresh one from
    /// `create` elsewhere. Nothing stays allocated if an allocation fails.
    pub(crate) fn obtain(
        runtime: &SkelCl,
        lens: &[usize],
        create: CreateBuffer,
        reuse: Option<Vec<Option<Buffer>>>,
    ) -> Result<OutputBuffers> {
        let mut out = OutputBuffers {
            buffers: reuse.unwrap_or_else(|| vec![None; lens.len()]),
            allocated: Vec::new(),
        };
        for (device, &len) in lens.iter().enumerate() {
            if len == 0 || out.buffers[device].is_some() {
                continue;
            }
            match create(runtime, device, len) {
                Ok(buffer) => {
                    out.allocated.push(buffer.clone());
                    out.buffers[device] = Some(buffer);
                }
                Err(e) => {
                    out.release(runtime);
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    /// The output buffer of an active device.
    pub(crate) fn on(&self, device: usize) -> Buffer {
        self.buffers[device]
            .clone()
            .expect("every active device obtained an output buffer")
    }

    /// Close the launch: hand the buffers over together with what the launch
    /// produced, or — it failed — release what it allocated and pass the
    /// error on.
    pub(crate) fn settle<R>(
        self,
        runtime: &SkelCl,
        launched: Result<R>,
    ) -> Result<(Vec<Option<Buffer>>, R)> {
        match launched {
            Ok(produced) => Ok((self.buffers, produced)),
            Err(e) => {
                self.release(runtime);
                Err(e)
            }
        }
    }

    /// Give back what the launch allocated, dropping the duplicate of the
    /// failure each buffer's queue latched.
    fn release(&self, runtime: &SkelCl) {
        for buffer in &self.allocated {
            let _ = runtime.queue(buffer.device()).take_deferred_error();
            let _ = runtime.context().release_buffer(buffer);
        }
    }
}

/// The one **launch** stage of every element-shaped kernel — map, zip,
/// index map and stencil sweep, closure or source, an eager call's or a
/// plan's group: for every active device of `parts` enqueue `kernel` over
/// its `n` elements with the argument layout `[leading…, output, n,
/// trailing…]` that `bind(device)` supplies, then join the launches. Owns
/// the output buffers: obtained here, returned on success, released again
/// on failure (see [`OutputBuffers`]).
pub(crate) fn launch_elementwise(
    runtime: &SkelCl,
    kernel: &oclsim::Kernel,
    partition: &Partition,
    out_lens: &[usize],
    bind: &dyn Fn(usize) -> Result<Bound>,
    create: CreateBuffer,
    reuse: Option<Vec<Option<Buffer>>>,
) -> Result<Vec<Option<Buffer>>> {
    // Resolve the argument lists of every device before allocating or
    // enqueueing anything: argument errors (a missing input part, an
    // additional-argument vector with no copy on one device) then surface
    // before anything ran, so a `run_into` target is never left partially
    // overwritten by them.
    let active = partition.active_devices();
    let bound = active
        .iter()
        .map(|&device| bind(device))
        .collect::<Result<Vec<_>>>()?;
    let out = OutputBuffers::obtain(runtime, out_lens, create, reuse)?;
    // Enqueue on every device, then read the launches' events: that
    // surfaces any kernel runtime error at the call site. Whatever was
    // enqueued is read even if a later enqueue is rejected, so the buffers
    // of a failed launch can be released.
    let mut events = Vec::with_capacity(active.len());
    let enqueued = active.iter().zip(bound).try_for_each(
        |(&device, (mut kargs, (first, n), n_arg, trailing))| {
            kargs.push(KernelArg::Buffer(out.on(device)).from_element(first));
            kargs.push(KernelArg::Scalar(n_arg));
            kargs.extend(trailing);
            let event = runtime.queue(device).enqueue_kernel(kernel, n, &kargs)?;
            events.push((device, event));
            Ok(())
        },
    );
    let joined = wait_events(runtime, events);
    out.settle(runtime, enqueued.and(joined))
        .map(|(buffers, ())| buffers)
}

/// Read the events of a set of per-device commands (kernel launches, halo
/// transfers) and surface the first error; no virtual clock moves. The
/// duplicate latched on the failing queue is discarded so later launches
/// start clean.
pub(crate) fn wait_events(
    runtime: &SkelCl,
    events: Vec<(usize, oclsim::EventHandle)>,
) -> Result<()> {
    let mut first_error = None;
    for (device, event) in events {
        if let Err(e) = event.wait() {
            let _ = runtime.queue(device).take_deferred_error();
            if first_error.is_none() {
                first_error = Some(e);
            }
        }
    }
    match first_error {
        Some(e) => Err(e.into()),
        None => Ok(()),
    }
}

/// Wait for a non-blocking read, copy its payload into `out`, and synchronise
/// the host's virtual clock with the transfer's end — the virtual
/// blocking-read semantics of `enqueue_read_buffer_region`, including
/// surfacing an earlier command's deferred error as the root cause (which
/// also drains the queue's latch).
pub(crate) fn claim_read<T: Pod>(
    runtime: &SkelCl,
    device: usize,
    event: &oclsim::EventHandle,
    out: &mut [T],
) -> Result<()> {
    let result = event.wait_into(out);
    if let Some(earlier) = runtime.queue(device).take_deferred_error() {
        return Err(earlier.into());
    }
    let record = result?;
    runtime.context().sync_host_to(record.end);
    Ok(())
}

/// Gather small per-device results (reduce partials, scan totals) the way
/// container parts are gathered: the caller has enqueued one non-blocking
/// read of `len` elements per entry — on every device before any is
/// claimed, so the transfers overlap in virtual time — and this claims them
/// in the given (device) order. Every read is claimed and every queue's
/// error latch drained even after a failure, so the caller may
/// release the buffers and later launches start clean; the first error wins.
pub(crate) fn claim_reads<T: Pod>(
    runtime: &SkelCl,
    reads: Vec<(usize, oclsim::EventHandle, usize)>,
) -> Result<Vec<Vec<T>>> {
    let mut parts = Vec::with_capacity(reads.len());
    let mut first_error = None;
    for (device, event, len) in reads {
        let mut part = crate::container::vec_uninit_len::<T>(len);
        match claim_read(runtime, device, &event, &mut part) {
            Ok(()) => parts.push(part),
            Err(e) => {
                first_error.get_or_insert(e);
            }
        }
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok(parts),
    }
}

/// Scale a per-element cost hint to the `n` elements one work-item covers
/// (a reduce chunk, or the whole part of the sequential scan).
pub(crate) fn sequential_cost(per_element: CostHint, n: usize, min_bytes: f64) -> CostHint {
    CostHint::new(
        per_element.flops_per_item * n as f64,
        per_element.bytes_per_item.max(min_bytes) * n as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::runtime::init_gpus;
    use crate::skeletons::{Map, Reduce, Scan, Zip};
    use crate::vector::Vector;

    #[test]
    fn skeleton_trait_is_generic_enough_for_uniform_dispatch() {
        // All skeletons execute through the one trait method.
        let rt = init_gpus(2);
        let v = Vector::from_vec(&rt, vec![1.0f32, 2.0, 3.0, 4.0]);
        let cfg = LaunchConfig::default();

        let map = Map::<f32, f32>::from_source("float func(float x) { return x + 1.0f; }");
        assert_eq!(
            Skeleton::execute(&map, &v, &cfg).unwrap().to_vec().unwrap(),
            vec![2.0, 3.0, 4.0, 5.0]
        );

        let zip = Zip::<f32, f32, f32>::new(|a, b, _| a + b);
        let w = Vector::from_vec(&rt, vec![1.0f32, 2.0, 3.0, 4.0]);
        let pair = (v.clone(), w);
        assert_eq!(
            Skeleton::execute(&zip, &pair, &cfg)
                .unwrap()
                .to_vec()
                .unwrap(),
            vec![2.0, 4.0, 6.0, 8.0]
        );

        let sum = Reduce::<f32>::new(|a, b| a + b);
        assert_eq!(Skeleton::execute(&sum, &v, &cfg).unwrap(), 10.0);

        let scan = Scan::<f32>::new(|a, b| a + b);
        assert_eq!(
            Skeleton::execute(&scan, &v, &cfg)
                .unwrap()
                .to_vec()
                .unwrap(),
            vec![1.0, 3.0, 6.0, 10.0]
        );
        assert_eq!(Skeleton::<Vector<f32>>::name(&map), "map");
        assert_eq!(Skeleton::<(Vector<f32>, Vector<f32>)>::name(&zip), "zip");
        assert_eq!(Skeleton::<Vector<f32>>::name(&sum), "reduce");
        assert_eq!(Skeleton::<Vector<f32>>::name(&scan), "scan");
    }

    #[test]
    fn the_same_skeleton_instance_dispatches_over_vectors_and_matrices() {
        let rt = init_gpus(2);
        let cfg = LaunchConfig::default();
        let inc = Map::<f32, f32>::from_source("float func(float x) { return x + 1.0f; }");
        let v = Vector::from_vec(&rt, vec![1.0f32; 4]);
        let m = Matrix::filled(&rt, 2, 2, 1.0f32);
        let vo: Vector<f32> = Skeleton::execute(&inc, &v, &cfg).unwrap();
        let mo: Matrix<f32> = Skeleton::execute(&inc, &m, &cfg).unwrap();
        assert_eq!(vo.to_vec().unwrap(), vec![2.0f32; 4]);
        assert_eq!(mo.to_vec().unwrap(), vec![2.0f32; 4]);
        assert_eq!(mo.rows(), 2);
    }

    #[test]
    fn launch_builder_collects_args_incrementally() {
        let rt = init_gpus(2);
        let affine = Map::<f32, f32>::from_source(
            "float func(float x, float a, int b) { return a * x + b; }",
        );
        let v = Vector::from_vec(&rt, vec![1.0f32, 2.0]);
        let out = affine.run(&v).arg(3.0f32).arg(10i32).exec().unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![13.0, 16.0]);
    }

    #[test]
    fn device_selection_all_keeps_the_distribution() {
        let rt = init_gpus(3);
        let inc = Map::<f32, f32>::from_source("float func(float x) { return x + 1.0f; }");
        let v = Vector::from_vec(&rt, vec![1.0f32; 6]);
        v.set_distribution(Distribution::Single(2)).unwrap();
        let out = inc.run(&v).devices(DeviceSelection::All).exec().unwrap();
        assert_eq!(out.distribution(), Distribution::Single(2));
        assert_eq!(out.to_vec().unwrap(), vec![2.0f32; 6]);
    }

    #[test]
    fn device_selection_gpus_restricts_the_active_devices() {
        let rt = init_gpus(4);
        let inc = Map::<f32, f32>::from_source("float func(float x) { return x + 1.0f; }");
        let v = Vector::from_vec(&rt, vec![1.0f32; 8]);
        rt.drain_events();
        let out = inc
            .run(&v)
            .devices(DeviceSelection::Gpus(2))
            .exec()
            .unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![2.0f32; 8]);
        let events = rt.drain_events();
        let kernels_per_device: Vec<usize> = events
            .iter()
            .map(|evs| evs.iter().filter(|e| e.is_kernel()).count())
            .collect();
        assert_eq!(kernels_per_device[2], 0, "device 2 must stay idle");
        assert_eq!(kernels_per_device[3], 0, "device 3 must stay idle");
        assert!(kernels_per_device[0] > 0 && kernels_per_device[1] > 0);

        // Gpus(1) degenerates to single distribution.
        let one = inc
            .run(&v)
            .devices(DeviceSelection::Gpus(1))
            .exec()
            .unwrap();
        assert_eq!(one.to_vec().unwrap(), vec![2.0f32; 8]);
        assert_eq!(v.distribution(), Distribution::Single(0));
    }

    #[test]
    fn device_selection_rejects_invalid_launch_selections() {
        let rt = init_gpus(2);
        let inc = Map::<f32, f32>::new(|x, _| x + 1.0);
        let v = Vector::from_vec(&rt, vec![1.0f32; 4]);
        assert!(matches!(
            inc.run(&v).devices(DeviceSelection::Gpus(0)).exec(),
            Err(SkelError::Distribution(_))
        ));
        assert!(matches!(
            inc.run(&v)
                .devices(DeviceSelection::Profiles(vec![]))
                .exec(),
            Err(SkelError::Distribution(_))
        ));
    }

    #[test]
    fn matrix_launches_reject_partial_selections_and_schedulers() {
        let rt = init_gpus(2);
        let inc = Map::<f32, f32>::new(|x, _| x + 1.0);
        let m = Matrix::filled(&rt, 4, 4, 1.0f32);
        assert!(inc.run(&m).devices(DeviceSelection::All).exec().is_ok());
        assert!(matches!(
            inc.run(&m).devices(DeviceSelection::Gpus(1)).exec(),
            Err(SkelError::Distribution(_))
        ));
        let scheduler = StaticScheduler::analytical(&rt);
        assert!(matches!(
            inc.run(&m).scheduler(&scheduler).exec(),
            Err(SkelError::Distribution(_))
        ));
    }

    #[test]
    fn scheduler_on_a_map_launch_weights_the_partition() {
        use oclsim::DeviceProfile;
        let rt = crate::runtime::init_profiles(vec![
            DeviceProfile::tesla_c1060(),
            DeviceProfile::xeon_e5520(),
        ]);
        let scheduler = StaticScheduler::analytical(&rt);
        let heavy = Map::<f32, f32>::from_source(
            "float func(float x) { float a = x; for (int i = 0; i < 64; i++) { a = a * 1.0001f + 0.5f; } return a; }",
        );
        let v = Vector::from_vec(&rt, vec![1.0f32; 10_000]);
        let out = heavy.run(&v).scheduler(&scheduler).exec().unwrap();
        assert_eq!(out.len(), 10_000);
        // The GPU must receive the (much) larger part.
        let sizes = v.sizes();
        assert!(
            sizes[0] > sizes[1],
            "scheduler should give the Tesla more work than the Xeon: {sizes:?}"
        );
    }

    #[test]
    fn a_scheduler_weights_only_the_selected_devices() {
        let rt = init_gpus(2);
        let scheduler = StaticScheduler::analytical(&rt);
        let inc = Map::<f32, f32>::new(|x, _| x + 1.0);
        let v = Vector::from_vec(&rt, vec![1.0f32; 4096]);
        inc.run(&v)
            .devices(DeviceSelection::Gpus(1))
            .exec()
            .unwrap();
        assert_eq!(v.sizes(), [4096, 0]);
        let launches = [
            inc.run(&v)
                .devices(DeviceSelection::Gpus(1))
                .scheduler(&scheduler),
            inc.run(&v)
                .scheduler(&scheduler)
                .devices(DeviceSelection::Gpus(1)),
        ];
        for launch in launches {
            v.set_distribution(Distribution::Block).unwrap();
            launch.exec().unwrap();
            assert_eq!(v.sizes(), [4096, 0], "device 1 was not selected");
        }
    }
}
