//! Profiling events, mirroring OpenCL's `cl_event` model: an [`EventHandle`]
//! reports an enqueued command's status (complete or failed) and, once
//! completed, its [`Event`] record with its virtual timestamps.
//!
//! A command runs inside its enqueue, so a handle is settled when it is
//! returned and [`EventHandle::wait`] never blocks. Reading a handle does
//! **not** advance the host's virtual clock — only virtually-blocking
//! operations (blocking reads, [`crate::CommandQueue::finish`]) do.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::OclError;
use crate::time::{SimDuration, SimTime};

/// The kind of command an event describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandKind {
    /// Host → device transfer.
    WriteBuffer,
    /// Device → host transfer.
    ReadBuffer,
    /// Copy between two ranges of one device's memory (the
    /// `clEnqueueCopyBuffer` analogue); `bytes` is the length copied once,
    /// the price covers reading and writing it at device-memory bandwidth.
    CopyBuffer,
    /// Kernel launch (kernel name recorded).
    Kernel(String),
    /// Program build (runtime compilation).
    BuildProgram,
    /// Synchronisation marker (`finish`).
    Marker,
}

/// A completed command with its virtual timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// What the command was.
    pub kind: CommandKind,
    /// Device the command executed on.
    pub device: usize,
    /// When the host enqueued the command.
    pub queued: SimTime,
    /// When the device started executing it.
    pub start: SimTime,
    /// When the device finished executing it.
    pub end: SimTime,
    /// Bytes moved (transfers) or zero.
    pub bytes: usize,
    /// Work-items executed (kernels) or zero.
    pub work_items: usize,
}

impl Event {
    /// Time the command spent executing on the device.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// Time from enqueue to completion (includes waiting for earlier
    /// commands on the same in-order queue).
    pub fn latency(&self) -> SimDuration {
        self.end - self.queued
    }

    /// Whether the event is a kernel launch.
    pub fn is_kernel(&self) -> bool {
        matches!(self.kind, CommandKind::Kernel(_))
    }

    /// Whether the event is a data transfer: a host ↔ device transfer or a
    /// device-local copy (so per-phase breakdowns account for halo copies).
    pub fn is_transfer(&self) -> bool {
        matches!(
            self.kind,
            CommandKind::WriteBuffer | CommandKind::ReadBuffer | CommandKind::CopyBuffer
        )
    }

    /// Whether the event is a host → device transfer (an upload).
    pub fn is_write(&self) -> bool {
        matches!(self.kind, CommandKind::WriteBuffer)
    }

    /// Whether the event is a device → host transfer (a download).
    pub fn is_read(&self) -> bool {
        matches!(self.kind, CommandKind::ReadBuffer)
    }
}

/// Execution status of a command, the analogue of OpenCL's `CL_COMPLETE`
/// and error execution-status values. Every command has settled by the time
/// its enqueue returns, so there is no pending state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventStatus {
    /// The command completed; its [`Event`] record is available.
    Complete,
    /// The command failed; waiting returns the error.
    Failed,
}

struct EventCore {
    /// The command's record; a failed command's starts and ends when it was
    /// queued.
    record: Event,
    error: Option<OclError>,
    /// Device → host payload of non-blocking reads, claimed once by
    /// [`EventHandle::wait_into`] or a forwarded write.
    payload: Mutex<Option<Vec<u8>>>,
}

/// Handle to an enqueued command, returned by the non-blocking `enqueue_*`
/// operations of [`crate::CommandQueue`]. The command has already run and
/// settled when the handle is returned.
///
/// Cloning the handle shares the underlying event. [`EventHandle::wait`]
/// returns its [`Event`] record (or the command's error); it never advances
/// the host's virtual clock.
#[derive(Clone)]
pub struct EventHandle {
    core: Arc<EventCore>,
}

impl std::fmt::Debug for EventHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventHandle")
            .field("kind", &self.core.record.kind)
            .field("device", &self.core.record.device)
            .field("status", &self.status())
            .finish()
    }
}

impl EventHandle {
    /// Create the handle of a settled command (called by the queue).
    pub(crate) fn settled(
        record: Event,
        error: Option<OclError>,
        payload: Option<Vec<u8>>,
    ) -> EventHandle {
        EventHandle {
            core: Arc::new(EventCore {
                record,
                error,
                payload: Mutex::new(payload),
            }),
        }
    }

    /// The kind of command the handle tracks.
    pub fn kind(&self) -> &CommandKind {
        &self.core.record.kind
    }

    /// Device the command was enqueued on.
    pub fn device(&self) -> usize {
        self.core.record.device
    }

    /// Virtual time at which the host enqueued the command.
    pub fn queued_at(&self) -> SimTime {
        self.core.record.queued
    }

    /// Whether the command completed or failed.
    pub fn status(&self) -> EventStatus {
        match self.core.error {
            None => EventStatus::Complete,
            Some(_) => EventStatus::Failed,
        }
    }

    /// The command's [`Event`] record, or the error it failed with. The
    /// virtual host clock is untouched.
    pub fn wait(&self) -> Result<Event, OclError> {
        match &self.core.error {
            None => Ok(self.core.record.clone()),
            Some(error) => Err(error.clone()),
        }
    }

    /// Copy a non-blocking read's payload into `out`. The payload is claimed
    /// by the first successful call.
    pub fn wait_into<T: crate::pod::Pod>(&self, out: &mut [T]) -> Result<Event, OclError> {
        let (record, data) = self.take_payload()?;
        let out_bytes = std::mem::size_of_val(out);
        if data.len() != out_bytes {
            return Err(OclError::SizeMismatch {
                host_bytes: out_bytes,
                device_bytes: data.len(),
            });
        }
        out.copy_from_slice(&crate::pod::from_bytes_vec::<T>(&data));
        Ok(record)
    }

    /// Take a non-blocking read's payload — the claim of a forwarded write
    /// (see [`crate::CommandQueue::enqueue_write_buffer_from_read`]). Like
    /// [`EventHandle::wait_into`], the payload can be claimed once.
    pub(crate) fn take_payload(&self) -> Result<(Event, Vec<u8>), OclError> {
        let record = self.wait()?;
        let data = self.core.payload.lock().take().ok_or_else(no_payload)?;
        Ok((record, data))
    }
}

/// The error of claiming a payload the event does not (or no longer) carry.
fn no_payload() -> OclError {
    OclError::InvalidOperation(
        "event carries no read payload (not a read, or already claimed)".into(),
    )
}

/// Aggregate statistics over a sequence of events, used by the benchmark
/// harnesses to report per-phase breakdowns (upload / compute / download) of
/// the OSEM iteration like Figure 3 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventSummary {
    /// Total kernel execution time.
    pub kernel_time: SimDuration,
    /// Total transfer time.
    pub transfer_time: SimDuration,
    /// Total bytes transferred.
    pub bytes_transferred: usize,
    /// Number of kernel launches.
    pub kernel_launches: usize,
    /// Number of transfers.
    pub transfers: usize,
}

impl EventSummary {
    /// Summarise a slice of events.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a Event>) -> Self {
        let mut s = EventSummary::default();
        for e in events {
            if e.is_kernel() {
                s.kernel_time += e.duration();
                s.kernel_launches += 1;
            } else if e.is_transfer() {
                s.transfer_time += e.duration();
                s.bytes_transferred += e.bytes;
                s.transfers += 1;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: CommandKind, start: u64, end: u64, bytes: usize) -> Event {
        Event {
            kind,
            device: 0,
            queued: SimTime(start.saturating_sub(1)),
            start: SimTime(start),
            end: SimTime(end),
            bytes,
            work_items: 0,
        }
    }

    #[test]
    fn durations_and_latency() {
        let e = ev(CommandKind::WriteBuffer, 100, 250, 64);
        assert_eq!(e.duration(), SimDuration(150));
        assert_eq!(e.latency(), SimDuration(151));
        assert!(e.is_transfer());
        assert!(!e.is_kernel());
    }

    #[test]
    fn summary_accumulates_by_kind() {
        let events = vec![
            ev(CommandKind::WriteBuffer, 0, 100, 1000),
            ev(CommandKind::Kernel("k".into()), 100, 600, 0),
            ev(CommandKind::ReadBuffer, 600, 650, 500),
            ev(CommandKind::Marker, 650, 650, 0),
        ];
        let s = EventSummary::from_events(&events);
        assert_eq!(s.kernel_time, SimDuration(500));
        assert_eq!(s.transfer_time, SimDuration(150));
        assert_eq!(s.bytes_transferred, 1500);
        assert_eq!(s.kernel_launches, 1);
        assert_eq!(s.transfers, 2);
    }
}
