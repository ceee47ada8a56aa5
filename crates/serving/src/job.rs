//! Job completion handles: the async result path of the serving layer.

use std::any::Any;
use std::marker::PhantomData;
use std::sync::Arc;

use oclsim::SimTime;
use parking_lot::Mutex;

use crate::error::{Result, ServeError};
use crate::scheduler::Core;

/// Bookkeeping delivered with every completed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// Server-wide job id, in admission order.
    pub job_id: u64,
    /// The submitting tenant.
    pub tenant: String,
    /// The device the job's packed launch ran on — every elementwise job and
    /// every reduction runs whole on one device. `None` only for an opaque
    /// job (a plan containing a scan), which the plan executor spreads over
    /// all devices of the runtime.
    pub device: Option<usize>,
    /// Number of jobs coalesced into the same launch (1 = uncoalesced).
    pub batch_jobs: usize,
    /// Host virtual time at admission.
    pub submit_virt: SimTime,
    /// Virtual completion time: the packed read's event end, or the host
    /// clock after a synchronous plan execution.
    pub complete_virt: SimTime,
}

impl JobReport {
    /// Virtual latency from admission to completion.
    pub fn latency(&self) -> oclsim::SimDuration {
        self.complete_virt - self.submit_virt
    }
}

/// Completion state of one job, shared between the scheduler core and the
/// job's handle.
pub(crate) enum SlotState {
    Pending,
    Ready {
        payload: Box<dyn Any + Send>,
        report: JobReport,
    },
    Failed(ServeError),
    Taken,
}

/// One job's completion slot.
pub(crate) struct JobSlot {
    state: Mutex<SlotState>,
}

impl JobSlot {
    pub(crate) fn new() -> Arc<JobSlot> {
        Arc::new(JobSlot {
            state: Mutex::new(SlotState::Pending),
        })
    }

    pub(crate) fn complete(&self, payload: Box<dyn Any + Send>, report: JobReport) {
        *self.state.lock() = SlotState::Ready { payload, report };
    }

    pub(crate) fn fail(&self, error: ServeError) {
        *self.state.lock() = SlotState::Failed(error);
    }

    pub(crate) fn is_done(&self) -> bool {
        !matches!(*self.state.lock(), SlotState::Pending)
    }

    /// Claim the result. `None` while pending; `ResultTaken` after a
    /// previous claim.
    pub(crate) fn take(&self) -> Option<Result<(Box<dyn Any + Send>, JobReport)>> {
        let mut state = self.state.lock();
        match std::mem::replace(&mut *state, SlotState::Taken) {
            SlotState::Pending => {
                *state = SlotState::Pending;
                None
            }
            SlotState::Ready { payload, report } => Some(Ok((payload, report))),
            SlotState::Failed(e) => Some(Err(e)),
            SlotState::Taken => Some(Err(ServeError::ResultTaken)),
        }
    }
}

/// Handle to an asynchronously executing job; [`JobHandle::wait`] drives the
/// scheduler until the job completes and claims its result. `P` is the
/// result payload: `Vec<T>` for vector jobs, `T` for scalar jobs.
#[must_use = "a job delivers its result only through `wait()`"]
pub struct JobHandle<P> {
    pub(crate) slot: Arc<JobSlot>,
    pub(crate) core: Arc<Core>,
    pub(crate) _payload: PhantomData<fn() -> P>,
}

impl<P: Send + 'static> JobHandle<P> {
    /// Whether the job has completed (successfully or not). Non-blocking
    /// and non-driving: a pending job stays pending until someone waits,
    /// flushes, or submits past a dispatch trigger.
    pub fn is_done(&self) -> bool {
        self.slot.is_done()
    }

    /// Cancel the job if it is still queued: its quota and pending count
    /// are released immediately and [`JobHandle::wait`] returns
    /// [`ServeError::Cancelled`]. Returns false once the job has dispatched
    /// (it then runs to completion) or already finished.
    pub fn cancel(&self) -> bool {
        self.core.cancel(&self.slot)
    }

    /// Wait for the job: drives the scheduler (dispatching queued batches
    /// and resolving in-flight launches in deterministic order) until this
    /// job's slot is resolved, then returns the payload and its report.
    pub fn wait(self) -> Result<(P, JobReport)> {
        if !self.slot.is_done() {
            self.core.drain_all();
        }
        match self.slot.take() {
            Some(Ok((payload, report))) => {
                let payload = payload.downcast::<P>().map_err(|_| {
                    ServeError::Internal("job payload type does not match its handle".into())
                })?;
                Ok((*payload, report))
            }
            Some(Err(e)) => Err(e),
            None => Err(ServeError::Internal(
                "scheduler drained but the job is still pending".into(),
            )),
        }
    }
}
