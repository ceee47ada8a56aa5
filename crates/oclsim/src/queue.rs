//! In-order command queues with virtual-time accounting.
//!
//! Every `enqueue_*` call runs its command before it returns: it validates
//! the command (cheap metadata checks), charges the host's virtual clock the
//! enqueue overhead, executes it — real data movement, real kernel execution
//! — and settles its virtual timestamps. The returned [`EventHandle`] is
//! already settled. Commands therefore run in program order on the host
//! thread; devices overlap in virtual time, not in wall time.
//!
//! # Virtual time
//!
//! * `queued` is the host clock at the enqueue, which then advances by the
//!   enqueue overhead.
//! * `start = max(queue available-at, queued, wait list)` and
//!   `end = start + duration`; the queue's `available_at` becomes `end`. A
//!   wait-list entry contributes its `end`, settled at its own enqueue.
//! * Virtually-blocking operations (blocking reads,
//!   [`CommandQueue::finish`]) advance the host clock to the command's end.
//!
//! A failing command charges the host its enqueue overhead — the host did
//! perform the enqueue — and no device time.
//!
//! # Wait lists and device-side data movement
//!
//! Two commands move data without the host in the loop:
//!
//! * A **forwarded write**
//!   ([`CommandQueue::enqueue_write_buffer_from_read`]) takes its payload from
//!   a non-blocking read enqueued earlier on (usually) another device's queue.
//!   Like a kernel with a wait list it may not start in virtual time before
//!   the read's `end`, and — when the read failed or its payload was already
//!   claimed — fails *without executing*: no side effect, no fault-op counted
//!   on this device. The host pays two enqueue overheads and never waits; the
//!   payload never visits a host-side staging vector.
//! * A **device-local copy** ([`CommandQueue::enqueue_copy_buffer_region`],
//!   the `clEnqueueCopyBuffer` analogue) moves a range within one device's
//!   memory. It is priced as the copy kernel a program could always have
//!   launched — launch overhead plus `2 × bytes` at device-memory bandwidth —
//!   and logged as [`CommandKind::CopyBuffer`], one fault-op.
//!
//! # Command buffers
//!
//! A [`CommandBuffer`] records host writes, launches and non-blocking reads
//! once over binding slots ([`crate::Context::command_buffer`]);
//! [`CommandQueue::enqueue_command_buffer`] submits it with one submission's
//! buffers, payloads, scalars and global size — the
//! `clEnqueueCommandBufferKHR` / `cudaGraphLaunch` analogue:
//!
//! * **Recording** charges the host one enqueue overhead per recorded
//!   command, once, and checks what needs no bindings: slot indices, and a
//!   launch's slot kinds against the kernel's signature.
//! * **Submitting** validates every command with the errors of the
//!   per-command `enqueue_*` call it stands for (device, range, aliasing,
//!   element type), in recording order and before anything is charged; then
//!   charges **one** enqueue overhead and runs the commands in order. Every
//!   command keeps its own [`Event`] row and its own fault-op; all rows
//!   share the submission's `queued` time, and start and end follow the
//!   unchanged rule above.
//! * **Failure rule:** when command *k* fails, commands *k+1…* fail with its
//!   error without executing — no side effect, no fault-op, no device time —
//!   and, like every failed command, latch on the queue. So the last command
//!   of a submission settles after, and fails with, everything before it.
//!
//! Whether a program records buffers is the program's choice, not a price:
//! [`ApiModel`] has no on/off field. The hand-written OpenCL / CUDA
//! baselines of the paper's Figure 4b never record one, so such a flag would
//! only ever hold one value.
//!
//! # Errors
//!
//! Host-side validation errors (wrong device, size mismatches, aliased or
//! ill-typed kernel arguments) are returned from `enqueue_*`. Errors that
//! occur *during* execution — kernel runtime errors such as out-of-bounds
//! accesses, injected faults — fail the command's [`EventHandle`] and are
//! additionally latched as the queue's *deferred error*, which the next
//! blocking read on the queue surfaces (so legacy enqueue-then-read code
//! cannot lose them). Runtimes that want the error at the launch site read
//! the kernel's handle.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::Buffer;
use crate::command_buffer::{Bindings, CommandBuffer, Recorded, Slot, Submission};
use crate::device::Device;
use crate::error::{OclError, Result};
use crate::event::{CommandKind, Event, EventHandle};
use crate::pod::{self, Pod};
use crate::profile::ApiModel;
use crate::program::{Kernel, KernelArg};
use crate::time::{SimDuration, SimTime};

/// What one command does, validated, on the enqueue's borrowed arguments.
enum Op<'a> {
    Write {
        buffer: &'a Buffer,
        offset_bytes: usize,
        data: &'a [u8],
    },
    /// A write whose payload is the payload of a non-blocking read — a
    /// one-entry wait list: it may not start (in virtual time) before the
    /// read ends, and fails unexecuted if the read failed.
    Forward {
        buffer: &'a Buffer,
        offset_bytes: usize,
        read: &'a EventHandle,
        len_bytes: usize,
    },
    Copy {
        src: &'a Buffer,
        src_offset_bytes: usize,
        dst: &'a Buffer,
        dst_offset_bytes: usize,
        len_bytes: usize,
    },
    Read {
        buffer: &'a Buffer,
        offset_bytes: usize,
        len_bytes: usize,
    },
    Kernel {
        kernel: &'a Kernel,
        global_size: usize,
        args: Cow<'a, [KernelArg]>,
        /// Wait list: the command may not start (in virtual time) before
        /// these events end.
        deps: &'a [EventHandle],
    },
}

impl Op<'_> {
    fn kind(&self) -> CommandKind {
        match self {
            Op::Write { .. } | Op::Forward { .. } => CommandKind::WriteBuffer,
            Op::Copy { .. } => CommandKind::CopyBuffer,
            Op::Read { .. } => CommandKind::ReadBuffer,
            Op::Kernel { kernel, .. } => CommandKind::Kernel(kernel.name.clone()),
        }
    }
}

/// An executed command, before its timestamps are settled.
struct Ran {
    start: SimTime,
    duration: SimDuration,
    bytes: usize,
    work_items: usize,
    payload: Option<Vec<u8>>,
}

/// An in-order command queue bound to one device.
pub struct CommandQueue {
    device: Arc<Device>,
    api: ApiModel,
    host_clock: Arc<Mutex<SimTime>>,
    /// Virtual time at which the device will have finished every command
    /// enqueued so far. Held while a command runs, so the commands of one
    /// queue never run at once.
    available_at: Mutex<SimTime>,
    /// Completed-command log, in enqueue order.
    log: Mutex<Vec<Event>>,
    /// First execution-time error that has not been surfaced yet.
    deferred_error: Mutex<Option<OclError>>,
    /// Total execution-time errors that ever reached the deferred-error
    /// latch (monotonic; counts every failing command, not just the first
    /// unsurfaced one). Surfaced in `ExecTrace` so fire-and-forget callers
    /// that drop their [`EventHandle`]s still see that launches failed.
    errors_latched: AtomicUsize,
}

impl CommandQueue {
    pub(crate) fn new(device: Arc<Device>, api: ApiModel, host_clock: Arc<Mutex<SimTime>>) -> Self {
        CommandQueue {
            device,
            api,
            host_clock,
            available_at: Mutex::new(SimTime::ZERO),
            log: Mutex::new(Vec::new()),
            deferred_error: Mutex::new(None),
            errors_latched: AtomicUsize::new(0),
        }
    }

    /// The device this queue submits to.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Virtual time at which the device will have finished all commands
    /// enqueued so far.
    pub fn available_at(&self) -> SimTime {
        *self.available_at.lock()
    }

    /// All events recorded on this queue so far (completed commands, in
    /// enqueue order).
    pub fn events(&self) -> Vec<Event> {
        self.log.lock().clone()
    }

    /// Clear the event log (the virtual clocks are left untouched).
    pub fn clear_events(&self) {
        self.log.lock().clear();
    }

    /// Take the queue's first unsurfaced execution-time error, if any.
    /// Blocking reads call this internally; runtimes that read kernel
    /// [`EventHandle`]s directly use it to discard the duplicate latch.
    /// Unlike [`CommandQueue::finish_checked`] it never advances the
    /// virtual host clock — the drain path for fire-and-forget callers
    /// (e.g. a serving layer) that must not perturb virtual timing.
    pub fn take_deferred_error(&self) -> Option<OclError> {
        self.deferred_error.lock().take()
    }

    /// Total execution-time errors ever latched on this queue (monotonic),
    /// whether or not they have been surfaced or taken.
    pub fn deferred_error_count(&self) -> usize {
        self.errors_latched.load(Ordering::Relaxed)
    }

    /// Record one execution-time command failure: bump the monotonic error
    /// counter and latch the error if no earlier one is still unsurfaced
    /// (first error wins, matching OpenCL's sticky queue-error semantics).
    fn latch_error(&self, error: &OclError) {
        self.errors_latched.fetch_add(1, Ordering::Relaxed);
        let mut latch = self.deferred_error.lock();
        if latch.is_none() {
            *latch = Some(error.clone());
        }
    }

    fn check_buffer_device(&self, buffer: &Buffer) -> Result<()> {
        if buffer.device() != self.device.id {
            return Err(OclError::WrongDevice {
                buffer_device: buffer.device(),
                queue_device: self.device.id,
            });
        }
        Ok(())
    }

    /// Host-side transfer-range validation shared by writes, fills and
    /// reads; mirrors the device-side check so enqueue-time and
    /// execution-time errors for the same bad range agree.
    fn check_range(&self, buffer: &Buffer, offset_bytes: usize, len_bytes: usize) -> Result<()> {
        self.check_buffer_device(buffer)?;
        if offset_bytes + len_bytes > buffer.len_bytes() {
            return Err(OclError::SizeMismatch {
                host_bytes: len_bytes,
                device_bytes: buffer.len_bytes().saturating_sub(offset_bytes),
            });
        }
        Ok(())
    }

    /// Read the `queued` timestamp and advance the host clock by the
    /// enqueue overhead.
    fn charge_enqueue(&self) -> SimTime {
        let mut host = self.host_clock.lock();
        let queued = *host;
        *host += self.api.enqueue_overhead;
        queued
    }

    /// Charge the enqueue of one validated command and run it.
    fn submit(&self, op: Op<'_>) -> EventHandle {
        let queued = self.charge_enqueue();
        self.run(queued, op)
    }

    /// Block the host until every command enqueued on this queue has
    /// completed: the host clock moves to the queue's `available_at`.
    ///
    /// `finish` does not inspect the deferred-error latch; callers that end
    /// a program with a sync rather than a blocking read should use
    /// [`CommandQueue::finish_checked`] (or read their kernel
    /// [`EventHandle`]s) so execution-time errors cannot go unnoticed.
    pub fn finish(&self) -> SimTime {
        let mut host = self.host_clock.lock();
        *host = host.max(*self.available_at.lock());
        *host
    }

    /// [`CommandQueue::finish`] that additionally surfaces the queue's first
    /// unreported execution-time error — the `clFinish` analogue for code
    /// that drops its [`EventHandle`]s and never issues a blocking read.
    pub fn finish_checked(&self) -> Result<SimTime> {
        let t = self.finish();
        match self.take_deferred_error() {
            Some(error) => Err(error),
            None => Ok(t),
        }
    }

    /// Non-blocking host → device transfer of a whole slice into the start of
    /// a buffer.
    pub fn enqueue_write_buffer<T: Pod>(&self, buffer: &Buffer, data: &[T]) -> Result<EventHandle> {
        self.enqueue_write_buffer_region(buffer, 0, data)
    }

    /// Non-blocking host → device transfer into the buffer starting at
    /// element `elem_offset`.
    pub fn enqueue_write_buffer_region<T: Pod>(
        &self,
        buffer: &Buffer,
        elem_offset: usize,
        data: &[T],
    ) -> Result<EventHandle> {
        self.enqueue_write_bytes(
            buffer,
            elem_offset * std::mem::size_of::<T>(),
            pod::as_bytes(data),
        )
    }

    /// Non-blocking fill of `count` elements starting at element
    /// `elem_offset` with a repeated value (the `clEnqueueFillBuffer`
    /// analogue, used for policy-filled halo padding). Charged exactly like
    /// the equivalent host → device transfer of `count` elements.
    pub fn enqueue_fill_buffer_region<T: Pod>(
        &self,
        buffer: &Buffer,
        elem_offset: usize,
        value: T,
        count: usize,
    ) -> Result<EventHandle> {
        let elem = std::mem::size_of::<T>();
        let mut data = vec![0u8; count * elem];
        for chunk in data.chunks_exact_mut(elem) {
            chunk.copy_from_slice(pod::as_bytes(std::slice::from_ref(&value)));
        }
        self.enqueue_write_bytes(buffer, elem_offset * elem, &data)
    }

    /// Non-blocking host → device transfer of already-serialised bytes into
    /// the buffer starting at byte `offset_bytes` — the validated submit path
    /// every write and fill shares, open to callers that assembled the
    /// payload themselves (e.g. many inputs packed back to back).
    pub fn enqueue_write_bytes(
        &self,
        buffer: &Buffer,
        offset_bytes: usize,
        data: &[u8],
    ) -> Result<EventHandle> {
        self.check_range(buffer, offset_bytes, data.len())?;
        Ok(self.submit(Op::Write {
            buffer,
            offset_bytes,
            data,
        }))
    }

    /// Non-blocking write of `len` elements at element `elem_offset` whose
    /// payload is the payload of `read`, a non-blocking read
    /// ([`CommandQueue::enqueue_read_buffer_region_nb`]) of the same length
    /// enqueued earlier — normally on another device's queue: the data is
    /// *forwarded* device → device without the host waiting for it. `read`
    /// acts as a wait list: the write starts no earlier (in virtual time)
    /// than the read ends, and if the read failed — or its payload was
    /// already claimed, or has another length — the write fails without
    /// executing, counts no fault-op on this device and latches the error on
    /// this queue. Logged and priced as a [`CommandKind::WriteBuffer`] of
    /// `len` elements.
    pub fn enqueue_write_buffer_from_read<T: Pod>(
        &self,
        buffer: &Buffer,
        elem_offset: usize,
        len: usize,
        read: &EventHandle,
    ) -> Result<EventHandle> {
        let elem = std::mem::size_of::<T>();
        self.check_range(buffer, elem_offset * elem, len * elem)?;
        if *read.kind() != CommandKind::ReadBuffer {
            return Err(OclError::InvalidOperation(
                "only a non-blocking read can be forwarded into a write".into(),
            ));
        }
        Ok(self.submit(Op::Forward {
            buffer,
            offset_bytes: elem_offset * elem,
            read,
            len_bytes: len * elem,
        }))
    }

    /// Non-blocking copy of `len` elements from element `src_elem_offset` of
    /// `src` to element `dst_elem_offset` of `dst`, both on this queue's
    /// device (the `clEnqueueCopyBuffer` analogue). The ranges may overlap
    /// within one buffer (`memmove` semantics). Priced as the copy kernel a
    /// program could launch instead: launch overhead plus `2 × bytes` at
    /// device-memory bandwidth.
    pub fn enqueue_copy_buffer_region<T: Pod>(
        &self,
        src: &Buffer,
        src_elem_offset: usize,
        dst: &Buffer,
        dst_elem_offset: usize,
        len: usize,
    ) -> Result<EventHandle> {
        let elem = std::mem::size_of::<T>();
        self.check_range(src, src_elem_offset * elem, len * elem)?;
        self.check_range(dst, dst_elem_offset * elem, len * elem)?;
        Ok(self.submit(Op::Copy {
            src,
            src_offset_bytes: src_elem_offset * elem,
            dst,
            dst_offset_bytes: dst_elem_offset * elem,
            len_bytes: len * elem,
        }))
    }

    /// Blocking device → host transfer of a whole buffer into `out`.
    pub fn enqueue_read_buffer<T: Pod>(&self, buffer: &Buffer, out: &mut [T]) -> Result<Event> {
        self.enqueue_read_buffer_region(buffer, 0, out)
    }

    /// Blocking device → host transfer starting at element `elem_offset`:
    /// synchronises the host's virtual clock with the transfer's end, and
    /// surfaces any earlier execution-time error of this queue.
    pub fn enqueue_read_buffer_region<T: Pod>(
        &self,
        buffer: &Buffer,
        elem_offset: usize,
        out: &mut [T],
    ) -> Result<Event> {
        let handle = self.enqueue_read_buffer_region_nb::<T>(buffer, elem_offset, out.len())?;
        let result = handle.wait_into(out);
        // An earlier command's failure is the root cause — surface it first
        // (the in-order queue guarantees it is older than this read).
        if let Some(earlier) = self.take_deferred_error() {
            return Err(earlier);
        }
        let record = result?;
        let mut host = self.host_clock.lock();
        *host = host.max(record.end);
        Ok(record)
    }

    /// Non-blocking device → host read of `len` elements starting at element
    /// `elem_offset`. The data travels in the returned [`EventHandle`];
    /// claim it with [`EventHandle::wait_into`].
    pub fn enqueue_read_buffer_region_nb<T: Pod>(
        &self,
        buffer: &Buffer,
        elem_offset: usize,
        len: usize,
    ) -> Result<EventHandle> {
        let bytes = len * std::mem::size_of::<T>();
        let offset_bytes = elem_offset * std::mem::size_of::<T>();
        self.check_range(buffer, offset_bytes, bytes)?;
        Ok(self.submit(Op::Read {
            buffer,
            offset_bytes,
            len_bytes: bytes,
        }))
    }

    /// Enqueue a 1-D NDRange kernel launch (non-blocking).
    ///
    /// Buffer arguments must live on this queue's device, the same buffer
    /// may not be bound to two arguments of one launch, and the arguments
    /// must match a runtime-compiled kernel's signature — all validated
    /// before the launch runs. Execution-time errors fail the returned handle.
    pub fn enqueue_kernel(
        &self,
        kernel: &Kernel,
        global_size: usize,
        args: &[KernelArg],
    ) -> Result<EventHandle> {
        self.enqueue_kernel_after(kernel, global_size, args, &[])
    }

    /// Like [`CommandQueue::enqueue_kernel`], with an explicit wait list:
    /// the launch may not start (in virtual time) before every event in
    /// `wait_list` has ended, mirroring OpenCL's event wait lists.
    pub fn enqueue_kernel_after(
        &self,
        kernel: &Kernel,
        global_size: usize,
        args: &[KernelArg],
        wait_list: &[EventHandle],
    ) -> Result<EventHandle> {
        self.check_kernel_args(kernel, args)?;
        Ok(self.submit(Op::Kernel {
            kernel,
            global_size,
            args: Cow::Borrowed(args),
            deps: wait_list,
        }))
    }

    /// Host-side launch validation: buffer devices and regions, no buffer
    /// bound twice, and the kernel's signature.
    fn check_kernel_args(&self, kernel: &Kernel, args: &[KernelArg]) -> Result<()> {
        let mut buffer_ids = Vec::new();
        for arg in args {
            if let Some((b, first)) = arg.buffer() {
                self.check_range(b, first * b.kind().elem_size(), 0)?;
                if buffer_ids.contains(&b.id()) {
                    return Err(OclError::BufferAliased { id: b.id() });
                }
                buffer_ids.push(b.id());
            }
        }
        kernel.validate_args(args)
    }

    /// Enqueue a native kernel whose cost hint is overridden for this launch
    /// (used when the per-item cost depends on runtime data, e.g. the
    /// elements one work-item of a fold covers). A kernel-language kernel
    /// is charged what it measures, whatever `cost` says.
    pub fn enqueue_kernel_with_cost(
        &self,
        kernel: &Kernel,
        global_size: usize,
        args: &[KernelArg],
        cost: crate::program::CostHint,
    ) -> Result<EventHandle> {
        let adjusted = kernel.clone().with_cost(cost);
        self.enqueue_kernel(&adjusted, global_size, args)
    }

    /// Submit a recorded [`CommandBuffer`] with this submission's
    /// `bindings` as **one** host call: every command is validated first,
    /// in recording order and with the errors of the per-command `enqueue_*`
    /// call it stands for; then the host pays one enqueue overhead and the
    /// commands run in order. Returns one event per command, all queued at
    /// the same instant (see the module docs for the failure rule).
    pub fn enqueue_command_buffer(
        &self,
        buffer: &CommandBuffer,
        bindings: Bindings,
    ) -> Result<Submission> {
        if !Arc::ptr_eq(&buffer.host_clock, &self.host_clock) {
            return Err(OclError::InvalidOperation(
                "a command buffer runs on the queues of the context that recorded it".into(),
            ));
        }
        buffer.check_counts(&bindings)?;
        let Bindings {
            buffers,
            payloads,
            scalars,
            global_size,
        } = bindings;
        let mut payloads = payloads.iter();
        let mut ops = Vec::with_capacity(buffer.commands.len());
        for command in &buffer.commands {
            ops.push(match command {
                Recorded::Write { buffer } => {
                    // `check_counts` matched the payloads to the writes.
                    let data = payloads.next().map_or(&[][..], Vec::as_slice);
                    self.check_range(&buffers[*buffer], 0, data.len())?;
                    Op::Write {
                        buffer: &buffers[*buffer],
                        offset_bytes: 0,
                        data,
                    }
                }
                Recorded::Kernel { kernel, args } => {
                    let args: Vec<KernelArg> = args
                        .iter()
                        .map(|&slot| match slot {
                            Slot::Buffer(i) => KernelArg::Buffer(buffers[i].clone()),
                            Slot::Scalar(i) => KernelArg::Scalar(scalars[i]),
                        })
                        .collect();
                    self.check_kernel_args(kernel, &args)?;
                    Op::Kernel {
                        kernel,
                        global_size,
                        args: Cow::Owned(args),
                        deps: &[],
                    }
                }
                Recorded::Read { buffer } => {
                    let len_bytes = buffers[*buffer].len_bytes();
                    self.check_range(&buffers[*buffer], 0, len_bytes)?;
                    Op::Read {
                        buffer: &buffers[*buffer],
                        offset_bytes: 0,
                        len_bytes,
                    }
                }
            });
        }
        let queued = self.charge_enqueue();
        let mut failed: Option<OclError> = None;
        let events = ops
            .into_iter()
            .map(|op| match &failed {
                Some(error) => self.fail(op.kind(), queued, error.clone()),
                None => {
                    let event = self.run(queued, op);
                    failed = event.wait().err();
                    event
                }
            })
            .collect();
        Ok(Submission::new(events))
    }

    /// Execute one command against the device and settle its event. A
    /// panic while executing it (a latent bug in an engine or a panicking
    /// native kernel) becomes a failed event and a latched queue error, so
    /// the queue stays usable.
    fn run(&self, queued: SimTime, op: Op<'_>) -> EventHandle {
        let kind = op.kind();
        let mut available_at = self.available_at.lock();
        let ready = available_at.max(queued);
        let executed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.execute(ready, op)));
        match executed.unwrap_or_else(|payload| Err(panic_error(payload.as_ref()))) {
            Ok(ran) => {
                let end = ran.start + ran.duration;
                *available_at = end;
                let record = Event {
                    kind,
                    device: self.device.id,
                    queued,
                    start: ran.start,
                    end,
                    bytes: ran.bytes,
                    work_items: ran.work_items,
                };
                self.log.lock().push(record.clone());
                EventHandle::settled(record, None, ran.payload)
            }
            Err(error) => self.fail(kind, queued, error),
        }
    }

    /// Fail one command: latch the queue's deferred error and return the
    /// failed event. A failed command charges no *execution* time and never
    /// advances `available_at` — only the enqueue overhead the host already
    /// paid (see the module docs).
    fn fail(&self, kind: CommandKind, queued: SimTime, error: OclError) -> EventHandle {
        self.latch_error(&error);
        let record = Event {
            kind,
            device: self.device.id,
            queued,
            start: queued,
            end: queued,
            bytes: 0,
            work_items: 0,
        };
        EventHandle::settled(record, Some(error), None)
    }

    /// Run one command on the device. `ready` is `max(available-at,
    /// queued)`; the start adds the wait list, and armed fault triggers are
    /// evaluated against it before any side effect.
    fn execute(&self, ready: SimTime, op: Op<'_>) -> Result<Ran> {
        let device = &self.device;
        let transfer =
            |start: SimTime| device.fault_check(start, crate::fault::CommandClass::Transfer);
        let ran = |start, duration, bytes, work_items, payload| Ran {
            start,
            duration,
            bytes,
            work_items,
            payload,
        };
        match op {
            Op::Write {
                buffer,
                offset_bytes,
                data,
            } => {
                transfer(ready)?;
                device.write_buffer_bytes(buffer, offset_bytes, data)?;
                let dur = self.api.transfer_time(&device.profile, data.len());
                Ok(ran(ready, dur, data.len(), 0, None))
            }
            Op::Forward {
                buffer,
                offset_bytes,
                read,
                len_bytes,
            } => {
                // A failed or unclaimable source fails the write without
                // executing it (and without bumping the device's fault-op
                // counter — it never reached the device), exactly like a
                // kernel behind a failed wait list.
                let (record, bytes) = read.take_payload()?;
                if bytes.len() != len_bytes {
                    return Err(OclError::SizeMismatch {
                        host_bytes: bytes.len(),
                        device_bytes: len_bytes,
                    });
                }
                let start = ready.max(record.end);
                transfer(start)?;
                device.write_buffer_bytes(buffer, offset_bytes, &bytes)?;
                let dur = self.api.transfer_time(&device.profile, len_bytes);
                Ok(ran(start, dur, len_bytes, 0, None))
            }
            Op::Copy {
                src,
                src_offset_bytes,
                dst,
                dst_offset_bytes,
                len_bytes,
            } => {
                transfer(ready)?;
                device.copy_buffer_bytes(
                    src,
                    src_offset_bytes,
                    dst,
                    dst_offset_bytes,
                    len_bytes,
                )?;
                // The price of the generated copy kernel: one work-item per
                // 4 bytes, each reading and writing 4.
                let dur = self
                    .api
                    .kernel_time(&device.profile, len_bytes.div_ceil(4), 0.0, 8.0);
                Ok(ran(ready, dur, len_bytes, 0, None))
            }
            Op::Read {
                buffer,
                offset_bytes,
                len_bytes,
            } => {
                transfer(ready)?;
                let mut payload = vec![0u8; len_bytes];
                device.read_buffer_bytes(buffer, offset_bytes, &mut payload)?;
                let dur = self.api.transfer_time(&device.profile, len_bytes);
                Ok(ran(ready, dur, len_bytes, 0, Some(payload)))
            }
            Op::Kernel {
                kernel,
                global_size,
                args,
                deps,
            } => {
                // A failed dependency fails this command without executing
                // it (and without bumping the device's fault-op counter — it
                // never reached the device).
                let mut start = ready;
                for dep in deps {
                    start = start.max(dep.wait()?.end);
                }
                device.fault_check(start, crate::fault::CommandClass::Launch)?;
                let dur = execute_kernel(device, &self.api, kernel, global_size, &args)?;
                Ok(ran(start, dur, 0, global_size, None))
            }
        }
    }
}

/// The error a panic while executing a command turns into.
fn panic_error(payload: &(dyn std::any::Any + Send)) -> OclError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string());
    OclError::Kernel(skelcl_kernel::diag::KernelError::run(format!(
        "device panicked while executing a command: {msg}"
    )))
}

/// Run a kernel against the device's buffer storage and return its virtual
/// duration (from the measured cost of runtime-compiled kernels, or the
/// author-provided hint of native ones).
fn execute_kernel(
    device: &Device,
    api: &ApiModel,
    kernel: &Kernel,
    global_size: usize,
    args: &[KernelArg],
) -> Result<SimDuration> {
    let buffer_ids: Vec<u64> = args
        .iter()
        .filter_map(|arg| arg.buffer().map(|(b, _)| b.id()))
        .collect();
    // Return the taken storage to the device even if the kernel panics
    // (the queue's panic guard keeps the queue usable; the buffers must
    // survive too).
    struct ReturnOnDrop<'a> {
        device: &'a Device,
        taken: Vec<(u64, crate::device::BufferData)>,
    }
    impl Drop for ReturnOnDrop<'_> {
        fn drop(&mut self) {
            self.device.return_buffers(std::mem::take(&mut self.taken));
        }
    }
    let mut guard = ReturnOnDrop {
        device,
        taken: device.take_buffers(&buffer_ids)?,
    };
    let result = kernel.execute(global_size, args, &mut guard.taken);
    drop(guard);
    let (cost, trace) = result?;
    if let Some(trace) = &trace {
        device.note_kernel_tier(trace);
    }
    Ok(api.kernel_time(
        &device.profile,
        global_size,
        cost.flops_per_item,
        cost.bytes_per_item,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::event::EventStatus;
    use crate::profile::{ApiModel, DeviceProfile};
    use crate::program::{CostHint, NativeKernelDef};

    fn two_gpu_context() -> Context {
        Context::new(
            vec![DeviceProfile::tesla_c1060(), DeviceProfile::tesla_c1060()],
            ApiModel::opencl(),
        )
    }

    #[test]
    fn write_kernel_read_round_trip() {
        let ctx = two_gpu_context();
        let q = ctx.queue(0).unwrap();
        let buf = ctx.create_buffer::<f32>(0, 4).unwrap();
        q.enqueue_write_buffer(&buf, &[1.0f32, 2.0, 3.0, 4.0])
            .unwrap();

        let program = ctx
            .build_program(
                "__kernel void dbl(__global float* v, int n) { int i = get_global_id(0); if (i < n) { v[i] = v[i] * 2.0f; } }",
            )
            .unwrap();
        let kernel = program.kernel("dbl").unwrap();
        q.enqueue_kernel(
            &kernel,
            4,
            &[KernelArg::Buffer(buf.clone()), KernelArg::i32(4)],
        )
        .unwrap();

        let mut out = vec![0.0f32; 4];
        q.enqueue_read_buffer(&buf, &mut out).unwrap();
        assert_eq!(out, vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn virtual_time_advances_and_orders_commands() {
        let ctx = two_gpu_context();
        let q = ctx.queue(0).unwrap();
        let buf = ctx.create_buffer::<f32>(0, 1024).unwrap();
        let w = q
            .enqueue_write_buffer(&buf, &vec![0.0f32; 1024])
            .unwrap()
            .wait()
            .unwrap();
        let mut out = vec![0.0f32; 1024];
        let r = q.enqueue_read_buffer(&buf, &mut out).unwrap();
        assert!(w.end <= r.start, "in-order queue must serialise commands");
        assert!(r.duration().as_nanos() > 0);
        assert!(
            ctx.host_now() >= r.end,
            "blocking read syncs the host clock"
        );
    }

    #[test]
    fn queues_of_different_devices_overlap_in_virtual_time() {
        let ctx = two_gpu_context();
        let q0 = ctx.queue(0).unwrap();
        let q1 = ctx.queue(1).unwrap();
        let def = NativeKernelDef::new("spin", CostHint::new(1000.0, 4.0), |_ctx| Ok(()));
        let program = ctx.native_program([def]);
        let k = program.kernel("spin").unwrap();
        let b0 = ctx.create_buffer::<f32>(0, 1).unwrap();
        let b1 = ctx.create_buffer::<f32>(1, 1).unwrap();
        let e0 = q0
            .enqueue_kernel(&k, 1_000_000, &[KernelArg::Buffer(b0)])
            .unwrap();
        let e1 = q1
            .enqueue_kernel(&k, 1_000_000, &[KernelArg::Buffer(b1)])
            .unwrap();
        let (e0, e1) = (e0.wait().unwrap(), e1.wait().unwrap());
        // The second launch starts (virtually) before the first ends: overlap.
        assert!(e1.start < e0.end, "multi-device launches must overlap");
    }

    #[test]
    fn wrong_device_buffers_are_rejected() {
        let ctx = two_gpu_context();
        let q0 = ctx.queue(0).unwrap();
        let buf1 = ctx.create_buffer::<f32>(1, 4).unwrap();
        let err = q0.enqueue_write_buffer(&buf1, &[0.0f32; 4]).unwrap_err();
        assert!(matches!(err, OclError::WrongDevice { .. }));
    }

    #[test]
    fn aliased_kernel_buffers_are_rejected() {
        let ctx = two_gpu_context();
        let q = ctx.queue(0).unwrap();
        let buf = ctx.create_buffer::<f32>(0, 4).unwrap();
        let program = ctx
            .build_program(
                "__kernel void addv(__global float* a, __global float* b, int n) { int i = get_global_id(0); if (i < n) { a[i] += b[i]; } }",
            )
            .unwrap();
        let k = program.kernel("addv").unwrap();
        let err = q
            .enqueue_kernel(
                &k,
                4,
                &[
                    KernelArg::Buffer(buf.clone()),
                    KernelArg::Buffer(buf.clone()),
                    KernelArg::i32(4),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, OclError::BufferAliased { .. }));
        // Two regions of one buffer are the same buffer twice; a region that
        // starts past the buffer's end is refused like any bad range.
        let regions = [
            KernelArg::BufferFrom(buf.clone(), 1),
            KernelArg::BufferFrom(buf.clone(), 2),
            KernelArg::i32(1),
        ];
        let err = q.enqueue_kernel(&k, 1, &regions).unwrap_err();
        assert!(matches!(err, OclError::BufferAliased { .. }));
        let other = ctx.create_buffer::<f32>(0, 4).unwrap();
        let past_the_end = [
            KernelArg::Buffer(other),
            KernelArg::BufferFrom(buf.clone(), 5),
            KernelArg::i32(1),
        ];
        let err = q.enqueue_kernel(&k, 1, &past_the_end).unwrap_err();
        assert!(matches!(err, OclError::SizeMismatch { .. }), "{err:?}");
        // The buffer must still be usable afterwards.
        assert!(q.enqueue_write_buffer(&buf, &[1.0f32; 4]).is_ok());
    }

    #[test]
    fn ill_typed_kernel_arguments_are_rejected_at_enqueue() {
        let ctx = two_gpu_context();
        let q = ctx.queue(0).unwrap();
        let program = ctx
            .build_program("__kernel void k(__global float* v, int n) { v[0] = n; }")
            .unwrap();
        let kernel = program.kernel("k").unwrap();
        // Too few arguments.
        assert!(q.enqueue_kernel(&kernel, 1, &[]).is_err());
        // Scalar where a buffer is expected.
        assert!(q
            .enqueue_kernel(&kernel, 1, &[KernelArg::i32(1), KernelArg::i32(1)])
            .is_err());
        // Wrong buffer element type.
        let ibuf = ctx.create_buffer::<i32>(0, 4).unwrap();
        assert!(q
            .enqueue_kernel(&kernel, 1, &[KernelArg::Buffer(ibuf), KernelArg::i32(4)])
            .is_err());
    }

    #[test]
    fn enqueue_time_validation_matches_the_vm_bind_errors_verbatim() {
        // `Kernel::validate_args` runs the native tier's binding check so
        // ill-typed launches still fail synchronously at enqueue. This pins
        // the promised message equality: for each ill-typed launch, the
        // enqueue error text must equal what `KernelHandle::check_args`
        // reports for the equivalent launch-time bindings — any drift
        // between the two ways of describing the arguments fails here.
        use skelcl_kernel::diag::KernelError;
        use skelcl_kernel::interp::{ArgBinding, BufferView};
        use skelcl_kernel::value::Value as KValue;

        let src = "__kernel void k(__global float* v, int n) { v[0] = n; }";
        let ctx = two_gpu_context();
        let q = ctx.queue(0).unwrap();
        let program = ctx.build_program(src).unwrap();
        let kernel = program.kernel("k").unwrap();
        let fbuf = ctx.create_buffer::<f32>(0, 4).unwrap();
        let ibuf = ctx.create_buffer::<i32>(0, 4).unwrap();

        let kprog = skelcl_kernel::Program::build(src).unwrap();
        let khandle = kprog.kernel("k").unwrap();
        let bind_error = |args: &[ArgBinding<'_>]| -> String {
            khandle
                .check_args::<KernelError>(args.iter().map(ArgBinding::kind))
                .unwrap_err()
                .message
        };

        // Wrong argument count.
        let enqueue = q.enqueue_kernel(&kernel, 1, &[]).unwrap_err();
        assert_eq!(format!("kernel error: run error: {}", bind_error(&[])), {
            let OclError::Kernel(e) = &enqueue else {
                panic!("{enqueue:?}")
            };
            format!("kernel error: run error: {}", e.message)
        });

        // Scalar bound where a buffer is expected.
        let enqueue = q
            .enqueue_kernel(&kernel, 1, &[KernelArg::i32(1), KernelArg::i32(1)])
            .unwrap_err();
        let oracle = bind_error(&[
            ArgBinding::Scalar(KValue::Int(1)),
            ArgBinding::Scalar(KValue::Int(1)),
        ]);
        let OclError::Kernel(e) = &enqueue else {
            panic!("{enqueue:?}")
        };
        assert_eq!(e.message, oracle);

        // Wrong buffer element type.
        let enqueue = q
            .enqueue_kernel(
                &kernel,
                1,
                &[KernelArg::Buffer(ibuf.clone()), KernelArg::i32(4)],
            )
            .unwrap_err();
        let mut data = vec![0i32; 4];
        let oracle = bind_error(&[
            ArgBinding::Buffer(BufferView::I32(&mut data)),
            ArgBinding::Scalar(KValue::Int(4)),
        ]);
        let OclError::Kernel(e) = &enqueue else {
            panic!("{enqueue:?}")
        };
        assert_eq!(e.message, oracle);

        // Buffer bound where a scalar is expected.
        let enqueue = q
            .enqueue_kernel(
                &kernel,
                1,
                &[
                    KernelArg::Buffer(fbuf.clone()),
                    KernelArg::Buffer(ibuf.clone()),
                ],
            )
            .unwrap_err();
        let mut fdata = vec![0f32; 4];
        let mut idata = vec![0i32; 4];
        let oracle = bind_error(&[
            ArgBinding::Buffer(BufferView::F32(&mut fdata)),
            ArgBinding::Buffer(BufferView::I32(&mut idata)),
        ]);
        let OclError::Kernel(e) = &enqueue else {
            panic!("{enqueue:?}")
        };
        assert_eq!(e.message, oracle);
    }

    #[test]
    fn finish_synchronises_host_clock() {
        let ctx = two_gpu_context();
        let q = ctx.queue(0).unwrap();
        let buf = ctx.create_buffer::<f32>(0, 1 << 20).unwrap();
        q.enqueue_write_buffer(&buf, &vec![0.0f32; 1 << 20])
            .unwrap();
        assert!(ctx.host_now() < q.available_at());
        let t = q.finish();
        assert_eq!(t, q.available_at());
        assert_eq!(ctx.host_now(), q.available_at());
    }

    #[test]
    fn event_log_accumulates_and_clears() {
        let ctx = two_gpu_context();
        let q = ctx.queue(0).unwrap();
        let buf = ctx.create_buffer::<f32>(0, 4).unwrap();
        q.enqueue_write_buffer(&buf, &[0.0f32; 4]).unwrap();
        let mut out = [0.0f32; 4];
        q.enqueue_read_buffer(&buf, &mut out).unwrap();
        assert_eq!(q.events().len(), 2);
        q.clear_events();
        assert!(q.events().is_empty());
    }

    #[test]
    fn event_handles_transition_to_complete() {
        let ctx = two_gpu_context();
        let q = ctx.queue(0).unwrap();
        let buf = ctx.create_buffer::<f32>(0, 64).unwrap();
        let handle = q.enqueue_write_buffer(&buf, &[0.5f32; 64]).unwrap();
        let record = handle.wait().unwrap();
        assert_eq!(handle.status(), EventStatus::Complete);
        assert_eq!(record.bytes, 256);
        assert_eq!(record.device, 0);
        assert!(record.queued <= record.start && record.start <= record.end);
        // Waiting again returns the same record.
        assert_eq!(handle.wait().unwrap(), record);
    }

    #[test]
    fn kernel_runtime_errors_fail_the_event_and_latch_on_the_queue() {
        let ctx = two_gpu_context();
        let q = ctx.queue(0).unwrap();
        let buf = ctx.create_buffer::<f32>(0, 4).unwrap();
        let program = ctx
            .build_program("__kernel void oob(__global float* v, int n) { v[n + 10] = 1.0f; }")
            .unwrap();
        let kernel = program.kernel("oob").unwrap();
        let handle = q
            .enqueue_kernel(
                &kernel,
                1,
                &[KernelArg::Buffer(buf.clone()), KernelArg::i32(4)],
            )
            .unwrap();
        let err = handle.wait().unwrap_err();
        assert!(matches!(err, OclError::Kernel(_)), "{err:?}");
        assert_eq!(handle.status(), EventStatus::Failed);
        // The next blocking read surfaces the same (root-cause) error.
        let mut out = [0.0f32; 4];
        let err2 = q.enqueue_read_buffer(&buf, &mut out).unwrap_err();
        assert_eq!(format!("{err}"), format!("{err2}"));
        // Once surfaced, the queue is clean again.
        assert!(q.take_deferred_error().is_none());
        assert!(q.enqueue_read_buffer(&buf, &mut out).is_ok());
    }

    #[test]
    fn panicking_kernels_fail_the_event_instead_of_hanging_the_queue() {
        let ctx = two_gpu_context();
        let q = ctx.queue(0).unwrap();
        let def = NativeKernelDef::new("boom", CostHint::DEFAULT, |_ctx| {
            panic!("native kernel exploded")
        });
        let program = ctx.native_program([def]);
        let k = program.kernel("boom").unwrap();
        let buf = ctx.create_buffer::<f32>(0, 4).unwrap();
        let handle = q
            .enqueue_kernel(&k, 4, &[KernelArg::Buffer(buf.clone())])
            .unwrap();
        // The event must carry the failure, and the queue must stay usable.
        let err = handle.wait().unwrap_err();
        assert!(format!("{err}").contains("panicked"), "{err}");
        assert!(q.finish_checked().is_err());
        assert!(q.enqueue_write_buffer(&buf, &[0.0f32; 4]).is_ok());
        assert!(q.finish_checked().is_ok());
    }

    #[test]
    fn finish_checked_surfaces_errors_that_blocking_reads_would_miss() {
        let ctx = two_gpu_context();
        let q = ctx.queue(0).unwrap();
        let buf = ctx.create_buffer::<f32>(0, 4).unwrap();
        let program = ctx
            .build_program("__kernel void oob(__global float* v, int n) { v[n + 10] = 1.0f; }")
            .unwrap();
        let kernel = program.kernel("oob").unwrap();
        // Enqueue-and-drop: the handle is discarded and no blocking read
        // follows — the clFinish analogue must still report the failure.
        let _ = q
            .enqueue_kernel(&kernel, 1, &[KernelArg::Buffer(buf), KernelArg::i32(4)])
            .unwrap();
        let err = q.finish_checked().unwrap_err();
        assert!(matches!(err, OclError::Kernel(_)), "{err:?}");
        // Surfaced once: the queue is clean afterwards.
        assert!(q.finish_checked().is_ok());
    }

    #[test]
    fn take_deferred_error_drains_without_touching_the_virtual_clock() {
        let ctx = two_gpu_context();
        let q = ctx.queue(0).unwrap();
        let buf = ctx.create_buffer::<f32>(0, 4).unwrap();
        let program = ctx
            .build_program("__kernel void oob(__global float* v, int n) { v[n + 10] = 1.0f; }")
            .unwrap();
        let kernel = program.kernel("oob").unwrap();
        assert_eq!(q.deferred_error_count(), 0);
        // Fire-and-forget: both handles are dropped immediately.
        for _ in 0..2 {
            let _ = q
                .enqueue_kernel(
                    &kernel,
                    1,
                    &[KernelArg::Buffer(buf.clone()), KernelArg::i32(4)],
                )
                .unwrap();
        }
        let host_before = ctx.host_now();
        let err = q.take_deferred_error().expect("first error is latched");
        assert!(matches!(err, OclError::Kernel(_)), "{err:?}");
        assert_eq!(
            ctx.host_now(),
            host_before,
            "the drain must not advance the virtual host clock"
        );
        // Both failures are counted even though only the first was latched.
        assert_eq!(q.deferred_error_count(), 2);
        assert!(q.take_deferred_error().is_none(), "latch surfaced once");
    }

    #[test]
    fn non_blocking_reads_deliver_their_payload_once() {
        let ctx = two_gpu_context();
        let q = ctx.queue(0).unwrap();
        let buf = ctx.create_buffer::<f32>(0, 8).unwrap();
        q.enqueue_write_buffer(&buf, &[3.0f32; 8]).unwrap();
        let handle = q.enqueue_read_buffer_region_nb::<f32>(&buf, 2, 4).unwrap();
        let mut out = [0.0f32; 4];
        handle.wait_into(&mut out).unwrap();
        assert_eq!(out, [3.0f32; 4]);
        // The payload is claimed; a second wait_into errors, a plain wait
        // still returns the record.
        assert!(handle.wait_into(&mut out).is_err());
        assert!(handle.wait().is_ok());
    }

    #[test]
    fn wait_lists_order_cross_queue_commands_in_virtual_time() {
        let ctx = two_gpu_context();
        let q0 = ctx.queue(0).unwrap();
        let q1 = ctx.queue(1).unwrap();
        let def = NativeKernelDef::new("spin", CostHint::new(500.0, 4.0), |_ctx| Ok(()));
        let program = ctx.native_program([def]);
        let k = program.kernel("spin").unwrap();
        let b0 = ctx.create_buffer::<f32>(0, 1).unwrap();
        let b1 = ctx.create_buffer::<f32>(1, 1).unwrap();
        let first = q0
            .enqueue_kernel(&k, 500_000, &[KernelArg::Buffer(b0)])
            .unwrap();
        let second = q1
            .enqueue_kernel_after(
                &k,
                10,
                &[KernelArg::Buffer(b1)],
                std::slice::from_ref(&first),
            )
            .unwrap();
        let (first, second) = (first.wait().unwrap(), second.wait().unwrap());
        assert!(
            second.start >= first.end,
            "a wait list must defer the dependent start past the dependency's end"
        );
    }

    #[test]
    fn threaded_queue_virtual_times_are_deterministic() {
        // The exact start/end values of a multi-command, multi-device
        // workload must not depend on worker interleaving: repeat the same
        // program and compare the full event logs.
        let run = || {
            let ctx = two_gpu_context();
            let q0 = ctx.queue(0).unwrap();
            let q1 = ctx.queue(1).unwrap();
            let program = ctx
                .build_program(
                    "__kernel void inc(__global float* v, int n) { int i = get_global_id(0); if (i < n) { v[i] = v[i] + 1.0f; } }",
                )
                .unwrap();
            let kernel = program.kernel("inc").unwrap();
            let b0 = ctx.create_buffer::<f32>(0, 512).unwrap();
            let b1 = ctx.create_buffer::<f32>(1, 512).unwrap();
            for (q, b) in [(&q0, &b0), (&q1, &b1)] {
                q.enqueue_write_buffer(b, &vec![0.0f32; 512]).unwrap();
                q.enqueue_kernel(
                    &kernel,
                    512,
                    &[KernelArg::Buffer(b.clone()), KernelArg::i32(512)],
                )
                .unwrap();
            }
            let mut out = vec![0.0f32; 512];
            q0.enqueue_read_buffer(&b0, &mut out).unwrap();
            q1.enqueue_read_buffer(&b1, &mut out).unwrap();
            (q0.events(), q1.events(), ctx.host_now())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "virtual telemetry must be interleaving-independent");
    }

    /// One forwarded row between two devices: device 0 is kept busy by a
    /// long kernel so the read ends late; device 1's own queue is idle.
    /// Returns (read, forward, device 1's follow-up kernel, forwarded data).
    fn forward_scenario() -> (Event, Event, Event, Vec<f32>) {
        let ctx = two_gpu_context();
        let (q0, q1) = (ctx.queue(0).unwrap(), ctx.queue(1).unwrap());
        let def = NativeKernelDef::new("spin", CostHint::new(500.0, 4.0), |_ctx| Ok(()));
        let spin = ctx.native_program([def]).kernel("spin").unwrap();
        let src = ctx.create_buffer::<f32>(0, 8).unwrap();
        let dst = ctx.create_buffer::<f32>(1, 8).unwrap();
        let scratch = ctx.create_buffer::<f32>(0, 1).unwrap();
        q0.enqueue_write_buffer(&src, &[1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
            .unwrap();
        q0.enqueue_kernel(&spin, 500_000, &[KernelArg::Buffer(scratch)])
            .unwrap();
        let read = q0.enqueue_read_buffer_region_nb::<f32>(&src, 2, 4).unwrap();
        let forward = q1
            .enqueue_write_buffer_from_read::<f32>(&dst, 1, 4, &read)
            .unwrap();
        let after = q1
            .enqueue_kernel(&spin, 10, &[KernelArg::Buffer(dst.clone())])
            .unwrap();
        let host_before = ctx.host_now();
        let (read, forward, after) = (
            read.wait().unwrap(),
            forward.wait().unwrap(),
            after.wait().unwrap(),
        );
        assert_eq!(
            ctx.host_now(),
            host_before,
            "joining moves no virtual clock"
        );
        let mut out = vec![0.0f32; 8];
        q1.enqueue_read_buffer(&dst, &mut out).unwrap();
        (read, forward, after, out)
    }

    #[test]
    fn forwarded_writes_start_after_their_source_read_on_another_queue() {
        let (read, forward, after, out) = forward_scenario();
        assert_eq!(out, [0.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.0, 0.0]);
        assert_eq!(forward.kind, CommandKind::WriteBuffer);
        assert_eq!((forward.device, forward.bytes), (1, 16));
        // Device 1's queue was idle and the enqueue long past: the read's
        // end is the binding term of max(read.end, own queue, queued).
        assert!(forward.queued < read.end);
        assert_eq!(forward.start, read.end);
        assert_eq!(
            forward.duration(),
            ApiModel::opencl().transfer_time(&DeviceProfile::tesla_c1060(), 16)
        );
        // The in-order queue keeps the consumer behind the forwarded data.
        assert!(after.start >= forward.end);
        for rep in 0..3 {
            assert_eq!(
                forward_scenario(),
                (read.clone(), forward.clone(), after.clone(), out.clone()),
                "rep {rep}: forward timestamps must not depend on worker interleaving"
            );
        }
    }

    #[test]
    fn forwarded_writes_wait_for_their_own_queue_too() {
        // The other two terms of the max: a busy destination queue, and a
        // read that finished long before the forward was enqueued.
        let ctx = two_gpu_context();
        let (q0, q1) = (ctx.queue(0).unwrap(), ctx.queue(1).unwrap());
        let src = ctx.create_buffer::<f32>(0, 4).unwrap();
        let dst = ctx.create_buffer::<f32>(1, 1 << 20).unwrap();
        let read = q0.enqueue_read_buffer_region_nb::<f32>(&src, 0, 4).unwrap();
        let big = q1
            .enqueue_write_buffer(&dst, &vec![0.0f32; 1 << 20])
            .unwrap();
        let forward = q1
            .enqueue_write_buffer_from_read::<f32>(&dst, 0, 4, &read)
            .unwrap();
        let (read, big, forward) = (
            read.wait().unwrap(),
            big.wait().unwrap(),
            forward.wait().unwrap(),
        );
        assert!(big.end > read.end);
        assert_eq!(forward.start, big.end);
        q1.finish();
        let late_read = q0.enqueue_read_buffer_region_nb::<f32>(&src, 0, 4).unwrap();
        late_read.wait().unwrap();
        ctx.charge_host(crate::time::SimDuration::from_micros(500));
        let late = q1
            .enqueue_write_buffer_from_read::<f32>(&dst, 0, 4, &late_read)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(late.start, late.queued);
    }

    #[test]
    fn a_failed_source_read_fails_the_forward_without_executing_it() {
        use crate::fault::FaultPlan;
        for lost in [false, true] {
            let ctx = two_gpu_context();
            let (q0, q1) = (ctx.queue(0).unwrap(), ctx.queue(1).unwrap());
            let src = ctx.create_buffer::<f32>(0, 4).unwrap();
            let dst = ctx.create_buffer::<f32>(1, 4).unwrap();
            q0.enqueue_write_buffer(&src, &[1.0f32; 4]).unwrap();
            q1.enqueue_write_buffer(&dst, &[9.0f32; 4]).unwrap();
            // Device 0's op 2 — the read — fails.
            ctx.inject_faults(&if lost {
                FaultPlan::new().device_lost_at_op(0, 2)
            } else {
                FaultPlan::new().transient_transfer_at_op(0, 2)
            });
            let ops_before = ctx.device(1).unwrap().fault_op_count();
            let read = q0.enqueue_read_buffer_region_nb::<f32>(&src, 0, 4).unwrap();
            let forward = q1
                .enqueue_write_buffer_from_read::<f32>(&dst, 0, 4, &read)
                .unwrap();
            let read_err = read.wait().unwrap_err();
            let forward_err = forward.wait().unwrap_err();
            assert!(read_err.is_injected_fault(), "{read_err:?}");
            assert_eq!(read_err.is_device_lost(), lost);
            assert_eq!(format!("{forward_err}"), format!("{read_err}"));
            // Never reached device 1: no op counted, no event logged, data
            // intact — but the failure is latched on its queue as well.
            assert_eq!(ctx.device(1).unwrap().fault_op_count(), ops_before);
            assert_eq!(q1.events().len(), 1, "only the initial write ran");
            assert_eq!(q1.deferred_error_count(), 1);
            assert_eq!(
                format!("{}", q1.take_deferred_error().expect("latched")),
                format!("{read_err}")
            );
            assert!(q0.take_deferred_error().is_some());
            let mut out = [0.0f32; 4];
            q1.enqueue_read_buffer(&dst, &mut out).unwrap();
            assert_eq!(out, [9.0f32; 4]);
        }
    }

    #[test]
    fn a_read_payload_is_claimed_once_by_a_forward_or_the_host() {
        let ctx = two_gpu_context();
        let (q0, q1) = (ctx.queue(0).unwrap(), ctx.queue(1).unwrap());
        let src = ctx.create_buffer::<f32>(0, 4).unwrap();
        let dst = ctx.create_buffer::<f32>(1, 4).unwrap();
        q0.enqueue_write_buffer(&src, &[5.0f32; 4]).unwrap();
        let read = q0.enqueue_read_buffer_region_nb::<f32>(&src, 0, 4).unwrap();
        q1.enqueue_write_buffer_from_read::<f32>(&dst, 0, 4, &read)
            .unwrap()
            .wait()
            .unwrap();
        let mut out = [0.0f32; 4];
        let err = read.wait_into(&mut out).unwrap_err();
        assert!(matches!(err, OclError::InvalidOperation(_)), "{err:?}");
        // The other way round the forward is the one that comes too late.
        let read = q0.enqueue_read_buffer_region_nb::<f32>(&src, 0, 4).unwrap();
        read.wait_into(&mut out).unwrap();
        let err = q1
            .enqueue_write_buffer_from_read::<f32>(&dst, 0, 4, &read)
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, OclError::InvalidOperation(_)), "{err:?}");
        assert!(q1.take_deferred_error().is_some());
        // Only reads can be forwarded, into a range that exists, of the
        // read's length.
        let write = q0.enqueue_write_buffer(&src, &[0.0f32; 4]).unwrap();
        assert!(matches!(
            q1.enqueue_write_buffer_from_read::<f32>(&dst, 0, 4, &write),
            Err(OclError::InvalidOperation(_))
        ));
        let read = q0.enqueue_read_buffer_region_nb::<f32>(&src, 0, 4).unwrap();
        assert!(matches!(
            q1.enqueue_write_buffer_from_read::<f32>(&dst, 2, 4, &read),
            Err(OclError::SizeMismatch { .. })
        ));
        let err = q1
            .enqueue_write_buffer_from_read::<f32>(&dst, 0, 2, &read)
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, OclError::SizeMismatch { .. }), "{err:?}");
        assert!(q1.take_deferred_error().is_some());
    }

    #[test]
    fn device_local_copies_are_validated_priced_and_logged() {
        let ctx = two_gpu_context();
        let (q0, q1) = (ctx.queue(0).unwrap(), ctx.queue(1).unwrap());
        let a = ctx.create_buffer::<f32>(0, 8).unwrap();
        let b = ctx.create_buffer::<f32>(0, 8).unwrap();
        let other = ctx.create_buffer::<f32>(1, 8).unwrap();
        // Both ranges and both devices are checked synchronously.
        assert!(matches!(
            q0.enqueue_copy_buffer_region::<f32>(&a, 6, &b, 0, 4),
            Err(OclError::SizeMismatch { .. })
        ));
        assert!(matches!(
            q0.enqueue_copy_buffer_region::<f32>(&a, 0, &b, 5, 4),
            Err(OclError::SizeMismatch { .. })
        ));
        assert!(matches!(
            q0.enqueue_copy_buffer_region::<f32>(&other, 0, &b, 0, 4),
            Err(OclError::WrongDevice { .. })
        ));
        assert!(matches!(
            q0.enqueue_copy_buffer_region::<f32>(&a, 0, &other, 0, 4),
            Err(OclError::WrongDevice { .. })
        ));
        assert!(matches!(
            q1.enqueue_copy_buffer_region::<f32>(&a, 0, &b, 0, 4),
            Err(OclError::WrongDevice { .. })
        ));
        assert!(q0.events().is_empty() && q1.events().is_empty());

        q0.enqueue_write_buffer(&a, &[1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
            .unwrap();
        let ops_before = ctx.device(0).unwrap().fault_op_count();
        let copy = q0
            .enqueue_copy_buffer_region::<f32>(&a, 4, &b, 2, 3)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(ctx.device(0).unwrap().fault_op_count(), ops_before + 1);
        assert_eq!(copy.kind, CommandKind::CopyBuffer);
        assert_eq!((copy.bytes, copy.work_items), (12, 0));
        assert!(copy.is_transfer() && !copy.is_read() && !copy.is_write());
        // The price of the copy kernel the program could have launched.
        let (api, gpu) = (ApiModel::opencl(), DeviceProfile::tesla_c1060());
        assert_eq!(copy.duration(), api.kernel_time(&gpu, 3, 0.0, 8.0));
        assert!(copy.duration() < api.transfer_time(&gpu, 12));
        let mut out = [0.0f32; 8];
        q0.enqueue_read_buffer(&b, &mut out).unwrap();
        assert_eq!(out, [0.0, 0.0, 5.0, 6.0, 7.0, 0.0, 0.0, 0.0]);
        let summary = crate::event::EventSummary::from_events(&q0.events());
        assert_eq!(summary.transfers, 3, "write + copy + read");
        assert_eq!(summary.bytes_transferred, 32 + 12 + 32);

        // Overlapping ranges of one buffer behave like memmove, both ways.
        q0.enqueue_copy_buffer_region::<f32>(&a, 0, &a, 2, 5)
            .unwrap();
        q0.enqueue_read_buffer(&a, &mut out).unwrap();
        assert_eq!(out, [1.0, 2.0, 1.0, 2.0, 3.0, 4.0, 5.0, 8.0]);
        q0.enqueue_copy_buffer_region::<f32>(&a, 2, &a, 0, 5)
            .unwrap();
        q0.enqueue_read_buffer(&a, &mut out).unwrap();
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0, 5.0, 4.0, 5.0, 8.0]);

        // An armed transfer fault hits a copy like any transfer, before
        // any byte moves.
        ctx.inject_faults(&crate::fault::FaultPlan::new().transient_transfer_at_op(0, 1));
        let err = q0
            .enqueue_copy_buffer_region::<f32>(&a, 0, &b, 0, 8)
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(err.is_injected_fault() && !err.is_device_lost(), "{err:?}");
        assert!(q0.take_deferred_error().is_some());
        q0.enqueue_read_buffer(&b, &mut out).unwrap();
        assert_eq!(out, [0.0, 0.0, 5.0, 6.0, 7.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn copies_into_a_revived_pool_buffer_zero_only_outside_the_written_range() {
        let ctx = two_gpu_context();
        let q = ctx.queue(0).unwrap();
        let dev = ctx.device(0).unwrap();
        let src = ctx.create_buffer::<f32>(0, 8).unwrap();
        q.enqueue_write_buffer(&src, &[1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
            .unwrap();
        let revive = || {
            let stale = ctx.create_buffer::<f32>(0, 8).unwrap();
            q.enqueue_write_buffer(&stale, &[9.0f32; 8]).unwrap();
            ctx.release_buffer(&stale).unwrap();
            let hits = dev.pool_hit_count();
            let revived = ctx.create_buffer::<f32>(0, 8).unwrap();
            assert_eq!(dev.pool_hit_count(), hits + 1, "storage came from the pool");
            revived
        };
        let mut out = [0.0f32; 8];
        // A partial copy leaves fresh-allocation zeros around the range …
        let dst = revive();
        q.enqueue_copy_buffer_region::<f32>(&src, 1, &dst, 3, 2)
            .unwrap();
        q.enqueue_read_buffer(&dst, &mut out).unwrap();
        assert_eq!(out, [0.0, 0.0, 0.0, 2.0, 3.0, 0.0, 0.0, 0.0]);
        ctx.release_buffer(&dst).unwrap();
        // … a full overwrite elides the zeroing altogether …
        let dst = revive();
        let elided = dev.lazy_zero_elisions();
        q.enqueue_copy_buffer_region::<f32>(&src, 0, &dst, 0, 8)
            .unwrap();
        q.enqueue_read_buffer(&dst, &mut out).unwrap();
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(dev.lazy_zero_elisions(), elided + 1);
        ctx.release_buffer(&dst).unwrap();
        // … and a revived *source* reads as zeros, also onto itself.
        let dst = revive();
        q.enqueue_copy_buffer_region::<f32>(&dst, 0, &dst, 4, 4)
            .unwrap();
        q.enqueue_read_buffer(&dst, &mut out).unwrap();
        assert_eq!(out, [0.0f32; 8]);
    }
}
