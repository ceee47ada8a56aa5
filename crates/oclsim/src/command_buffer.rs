//! Recorded command buffers, the `cl_khr_command_buffer` / CUDA-graph shape:
//! a sequence of host writes, kernel launches and non-blocking reads recorded
//! once over binding *slots*, then submitted to any queue of the recording
//! context as **one** host call,
//! [`CommandQueue::enqueue_command_buffer`](crate::CommandQueue::enqueue_command_buffer),
//! with the buffers, payloads, scalars and global size of that submission.
//! The queue module's "Command buffers" section gives the prices and the
//! failure rule.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::{Buffer, DataKind};
use crate::error::{OclError, Result};
use crate::event::{CommandKind, EventHandle};
use crate::program::Kernel;
use crate::time::{SimDuration, SimTime};
use crate::Value;

/// A kernel argument of a recorded launch: the index of a declared buffer
/// or scalar slot, bound per submission from [`Bindings::buffers`] /
/// [`Bindings::scalars`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Buffer slot `i`.
    Buffer(usize),
    /// Scalar slot `i`.
    Scalar(usize),
}

/// Names a read recorded in a [`CommandBuffer`]; its event in a submission
/// is [`Submission::read`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadId(usize);

/// One recorded command.
pub(crate) enum Recorded {
    /// Write the submission's next payload to the start of a buffer slot.
    Write { buffer: usize },
    /// Launch over the submission's global size.
    Kernel { kernel: Kernel, args: Vec<Slot> },
    /// Non-blocking read of a whole buffer slot.
    Read { buffer: usize },
}

/// A recorded command sequence; see the [module docs](self). Recorded from
/// a context with [`crate::Context::command_buffer`], which declares the
/// binding slots; every recording call validates what it can without
/// bindings and, when it records, charges the host one enqueue overhead.
pub struct CommandBuffer {
    /// The recording context's host clock: recording charges it, and only
    /// that context's queues accept the buffer.
    pub(crate) host_clock: Arc<Mutex<SimTime>>,
    enqueue_overhead: SimDuration,
    buffers: Vec<DataKind>,
    scalars: usize,
    pub(crate) commands: Vec<Recorded>,
}

impl CommandBuffer {
    pub(crate) fn new(
        host_clock: Arc<Mutex<SimTime>>,
        enqueue_overhead: SimDuration,
        buffers: &[DataKind],
        scalars: usize,
    ) -> CommandBuffer {
        CommandBuffer {
            host_clock,
            enqueue_overhead,
            buffers: buffers.to_vec(),
            scalars,
            commands: Vec::new(),
        }
    }

    /// Record a host write of the submission's next payload (one per write,
    /// in order) to the start of buffer slot `buffer`.
    pub fn write(&mut self, buffer: usize) -> Result<()> {
        self.kind_of(buffer)?;
        self.record(Recorded::Write { buffer });
        Ok(())
    }

    /// Record a launch of `kernel` over the submission's global size. The
    /// slots' kinds are checked against the kernel's signature now, by the
    /// rule — and with the error texts — of [`Kernel::validate_args`]; the
    /// bound buffers are checked again at every submission.
    pub fn kernel(&mut self, kernel: &Kernel, args: &[Slot]) -> Result<()> {
        let kinds = args
            .iter()
            .map(|&slot| match slot {
                Slot::Buffer(i) => self.kind_of(i).map(Some),
                Slot::Scalar(i) if i < self.scalars => Ok(None),
                Slot::Scalar(_) => Err(undeclared(slot)),
            })
            .collect::<Result<Vec<_>>>()?;
        kernel.check_kinds(kinds.into_iter())?;
        self.record(Recorded::Kernel {
            kernel: kernel.clone(),
            args: args.to_vec(),
        });
        Ok(())
    }

    /// Record a non-blocking read of the whole buffer bound to slot
    /// `buffer`; its payload is claimed through [`Submission::read`].
    pub fn read(&mut self, buffer: usize) -> Result<ReadId> {
        self.kind_of(buffer)?;
        self.record(Recorded::Read { buffer });
        Ok(ReadId(self.commands.len() - 1))
    }

    /// Check the binding counts of a submission against the declared slots
    /// and the recorded writes.
    pub(crate) fn check_counts(&self, bindings: &Bindings) -> Result<()> {
        let writes = self
            .commands
            .iter()
            .filter(|c| matches!(c, Recorded::Write { .. }))
            .count();
        for (what, declared, bound) in [
            ("buffers", self.buffers.len(), bindings.buffers.len()),
            ("payloads", writes, bindings.payloads.len()),
            ("scalars", self.scalars, bindings.scalars.len()),
        ] {
            if declared != bound {
                return Err(OclError::InvalidOperation(format!(
                    "the command buffer takes {declared} {what}, {bound} bound"
                )));
            }
        }
        Ok(())
    }

    fn kind_of(&self, buffer: usize) -> Result<DataKind> {
        let declared = self.buffers.get(buffer).copied();
        declared.ok_or_else(|| undeclared(Slot::Buffer(buffer)))
    }

    fn record(&mut self, command: Recorded) {
        *self.host_clock.lock() += self.enqueue_overhead;
        self.commands.push(command);
    }
}

fn undeclared(slot: Slot) -> OclError {
    OclError::InvalidOperation(format!("{slot:?} is not declared by the command buffer"))
}

/// What one submission binds to a [`CommandBuffer`]'s slots.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    /// One buffer per declared buffer slot, all on the submitting queue's
    /// device.
    pub buffers: Vec<Buffer>,
    /// One payload per recorded write, in recording order.
    pub payloads: Vec<Vec<u8>>,
    /// One value per declared scalar slot.
    pub scalars: Vec<Value>,
    /// Work-items of every recorded launch.
    pub global_size: usize,
}

/// The events of one submission, one per recorded command in recording
/// order. Under the failure rule a command fails if any earlier one did, so
/// the last event settles after — and fails with — everything before it.
#[derive(Debug)]
pub struct Submission {
    events: Vec<EventHandle>,
}

impl Submission {
    pub(crate) fn new(events: Vec<EventHandle>) -> Submission {
        Submission { events }
    }

    /// Every command's event, in recording order.
    pub fn events(&self) -> &[EventHandle] {
        &self.events
    }

    /// The event of the recorded read `read`, whose payload
    /// [`EventHandle::wait_into`] claims. Errs for a [`ReadId`] of another
    /// command buffer that does not name a read here.
    pub fn read(&self, read: ReadId) -> Result<&EventHandle> {
        self.events
            .get(read.0)
            .filter(|event| *event.kind() == CommandKind::ReadBuffer)
            .ok_or_else(|| {
                OclError::InvalidOperation(format!("{read:?} is not a read of this submission"))
            })
    }
}
