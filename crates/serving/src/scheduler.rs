//! The admission/scheduling core.
//!
//! The scheduler is **cooperative and synchronous**: there is no scheduler
//! thread. Jobs are admitted into a queue; dispatch happens under the core
//! lock when a trigger fires (an admission fills a batch, a submit finds
//! the queue full, a blocking submit cannot be admitted otherwise, a handle
//! waits, or the server flushes or shuts down). All host-virtual-clock
//! charges therefore happen in deterministic program order — given a fixed
//! submission order, results and virtual time are bit-identical across
//! repetitions.
//!
//! Jobs are ordered by **weighted fair queuing within strict priority
//! bands**: each tenant carries a virtual time that advances by
//! `footprint / weight` per admitted job, and a job's sort key is its
//! `(band, tag, admission#)`. A *coalescible* job — an elementwise chain, or
//! one closed by a reduce — packs with queued jobs of the same
//! [`CoalesceSignature`], up to the coalesce cap, in **one** packed launch
//! ([`Plan::pack_jobs`]) on the least-loaded device (in virtual time). A
//! batch that fills dispatches at the admission that fills it, after any
//! higher band's. A partial batch dispatches in leader order (the queued
//! job with the smallest key, with its signature's smallest keys), and only
//! at a drain, when a submit finds the queue full, when a blocking submit
//! cannot be admitted otherwise ([`Core::make_room`]), or — while a queued
//! job has a deadline — beside each batch that fills. Plans that
//! contain a scan are *opaque*: they run through the ordinary plan executor,
//! synchronously, at dispatch.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use oclsim::{SimDuration, SimTime};
use parking_lot::Mutex;
use skelcl::{CoalesceSignature, DeviceScalar, Plan, PlanKind, SkelCl, SkelError};

use crate::error::{Result, ServeError};
use crate::job::{JobHandle, JobReport, JobSlot};
use crate::server::ServerConfig;
use crate::tenant::{Priority, TenantConfig};

/// Fixed-point scale of the fair-queuing virtual clock.
const WFQ_SCALE: u128 = 1 << 20;

/// Dispatched batches remembered by [`crate::ServingTrace::dispatch_tenants`]
/// and `batch_sizes` (the most recent ones).
pub(crate) const DISPATCH_HISTORY: usize = 1024;

/// Per-job submission options (the `*_with` submit forms).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobOptions {
    /// Absolute virtual-time deadline: a job still *queued* when the host's
    /// virtual clock passes this instant fails with
    /// [`ServeError::DeadlineExceeded`], releasing its quota and pending
    /// count immediately. Jobs already dispatched run to completion.
    pub deadline: Option<SimTime>,
    /// Override of the server-wide retry budget
    /// (`ServerConfig::max_retries`) for this job.
    pub max_retries: Option<usize>,
}

impl JobOptions {
    /// Options with a virtual-time deadline.
    pub fn with_deadline(deadline: SimTime) -> JobOptions {
        JobOptions {
            deadline: Some(deadline),
            ..JobOptions::default()
        }
    }

    /// Options with a per-job retry budget.
    pub fn with_max_retries(max_retries: usize) -> JobOptions {
        JobOptions {
            max_retries: Some(max_retries),
            ..JobOptions::default()
        }
    }
}

/// Completion counters shared with in-flight resolution closures (which run
/// while the core lock is held and therefore cannot re-enter the state).
#[derive(Clone)]
pub(crate) struct Counters {
    pub(crate) completed: Arc<AtomicUsize>,
    pub(crate) failed: Arc<AtomicUsize>,
}

/// Everything a resolution closure needs to finish one packed job.
pub(crate) struct BatchMember {
    slot: Arc<JobSlot>,
    tenant: Arc<str>,
    footprint: usize,
    pending: Arc<AtomicUsize>,
    report: JobReport,
}

impl BatchMember {
    fn finish_ok(
        self,
        runtime: &Arc<SkelCl>,
        payload: Box<dyn Any + Send>,
        complete_virt: SimTime,
        counters: &Counters,
    ) {
        runtime
            .context()
            .ledger()
            .credit(&self.tenant, self.footprint);
        self.pending.fetch_sub(1, Ordering::Relaxed);
        let mut report = self.report;
        report.complete_virt = complete_virt;
        self.slot.complete(payload, report);
        counters.completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Outcome of resolving one in-flight packed launch: `Ok` means every
/// member was finished; `Err` hands the error and the *unfinished* members
/// back to the core, which decides between retry (re-queueing the retained
/// jobs, quota kept charged) and terminal failure (quota credited).
type ResolveOutcome = std::result::Result<(), (ServeError, Vec<BatchMember>)>;

/// Type-erased view of a queued job's plan. Whether the job packs or runs
/// alone is its coalescing signature's say, not the plan's type's: every
/// job can do both.
trait ErasedJob: Send {
    /// The job's plan as `Any` (downcast by the batch leader).
    fn plan_any(&self) -> &(dyn Any + Send);

    /// Pack `peers` (self first) into one launch on `device` and return the
    /// deferred resolution closure. Called on the leader; all peers carry
    /// the leader's signature and therefore its plan type.
    fn launch(
        &self,
        peers: &[&dyn ErasedJob],
        device: usize,
        members: Vec<BatchMember>,
        runtime: Arc<SkelCl>,
        counters: Counters,
    ) -> std::result::Result<Box<dyn FnOnce() -> ResolveOutcome + Send>, SkelError>;

    /// Run the plan alone through the plan executor, synchronously (a plan
    /// without a signature: it contains a scan).
    fn collect(&self) -> std::result::Result<Box<dyn Any + Send>, SkelError>;

    /// Re-establish a trustworthy device image of the plan's input
    /// containers before a replay (see [`Plan::refresh_for_replay`]).
    fn refresh(&self) -> std::result::Result<(), SkelError>;
}

struct TypedJob<T: DeviceScalar, K: PlanKind<T>> {
    plan: Plan<T, K>,
}

impl<T: DeviceScalar, K: PlanKind<T>> ErasedJob for TypedJob<T, K> {
    fn plan_any(&self) -> &(dyn Any + Send) {
        &self.plan
    }

    fn launch(
        &self,
        peers: &[&dyn ErasedJob],
        device: usize,
        members: Vec<BatchMember>,
        runtime: Arc<SkelCl>,
        counters: Counters,
    ) -> std::result::Result<Box<dyn FnOnce() -> ResolveOutcome + Send>, SkelError> {
        let mut plans: Vec<&Plan<T, K>> = Vec::with_capacity(peers.len());
        for peer in peers {
            let plan = peer.plan_any().downcast_ref().ok_or_else(|| {
                SkelError::Scheduler(
                    "coalesced peer's plan type does not match the batch leader".into(),
                )
            })?;
            plans.push(plan);
        }
        let packed = Plan::pack_jobs(&plans, device)?;
        Ok(Box::new(move || match packed.wait() {
            Ok((outputs, event)) => {
                for (member, out) in members.into_iter().zip(outputs) {
                    member.finish_ok(&runtime, Box::new(out), event.end, &counters);
                }
                Ok(())
            }
            Err(e) => Err((ServeError::from(e), members)),
        }))
    }

    fn collect(&self) -> std::result::Result<Box<dyn Any + Send>, SkelError> {
        self.plan
            .collect()
            .map(|v| Box::new(v) as Box<dyn Any + Send>)
    }

    fn refresh(&self) -> std::result::Result<(), SkelError> {
        self.plan.refresh_for_replay()
    }
}

/// One admitted, not-yet-dispatched job.
struct QueuedJob {
    id: u64,
    tenant: Arc<str>,
    band: Priority,
    tag: u128,
    seq: u64,
    signature: Option<CoalesceSignature>,
    footprint: usize,
    submit_virt: SimTime,
    /// Virtual-time release of the next attempt (backoff after a fault);
    /// the job is not dispatchable before this instant.
    not_before: SimTime,
    /// Absolute virtual-time deadline while queued, if any.
    deadline: Option<SimTime>,
    /// Replays left before the job fails terminally.
    retries_left: usize,
    /// Errors of the failed attempts so far, oldest first.
    fault_chain: Vec<String>,
    slot: Arc<JobSlot>,
    pending: Arc<AtomicUsize>,
    /// Re-runnable, so a job that fails with an injected fault can be
    /// replayed after backoff.
    work: Box<dyn ErasedJob>,
}

impl QueuedJob {
    fn sort_key(&self) -> (Priority, u128, u64) {
        (self.band, self.tag, self.seq)
    }

    /// Terminally fail the job: credit its quota, release its pending
    /// count and resolve its slot.
    fn fail_now(self, runtime: &Arc<SkelCl>, error: ServeError, counters: &Counters) {
        runtime
            .context()
            .ledger()
            .credit(&self.tenant, self.footprint);
        self.pending.fetch_sub(1, Ordering::Relaxed);
        self.slot.fail(error);
        counters.failed.fetch_add(1, Ordering::Relaxed);
    }
}

/// A dispatched packed launch awaiting resolution. The queued jobs are
/// retained so a fault-failed batch can be re-queued for replay.
struct InFlight {
    resolve: Box<dyn FnOnce() -> ResolveOutcome + Send>,
    jobs: Vec<QueuedJob>,
}

/// The admission queue, with the two tallies dispatch triggers consult on
/// every admission kept incrementally instead of recounted.
#[derive(Default)]
struct JobQueue {
    /// Admitted jobs in admission order (replays re-enter at the back).
    jobs: Vec<QueuedJob>,
    /// Queued jobs per coalescing signature (the coalesce-cap trigger).
    by_signature: HashMap<CoalesceSignature, usize>,
    /// Queued jobs that carry a deadline (none: the sweep is skipped).
    deadlines: usize,
}

impl JobQueue {
    /// Queue `job`; returns how many queued jobs now share its signature.
    fn push(&mut self, job: QueuedJob) -> usize {
        self.deadlines += usize::from(job.deadline.is_some());
        let same = match &job.signature {
            Some(signature) => {
                let count = self.by_signature.entry(signature.clone()).or_insert(0);
                *count += 1;
                *count
            }
            None => 0,
        };
        self.jobs.push(job);
        same
    }

    /// Take a job that has just left `jobs` off the tallies.
    fn forget(&mut self, job: &QueuedJob) {
        self.deadlines -= usize::from(job.deadline.is_some());
        if let Some(signature) = &job.signature {
            let count = self
                .by_signature
                .get_mut(signature)
                .expect("every queued signature is tallied");
            *count -= 1;
            if *count == 0 {
                self.by_signature.remove(signature);
            }
        }
    }

    fn remove(&mut self, index: usize) -> QueuedJob {
        let job = self.jobs.remove(index);
        self.forget(&job);
        job
    }

    /// Remove the jobs at `picked` (ascending queue indices) in one pass
    /// that keeps everyone else in order; returned in dispatch order.
    fn take(&mut self, picked: &[usize]) -> Vec<QueuedJob> {
        let mut next = 0;
        let mut write = picked[0];
        for read in picked[0]..self.jobs.len() {
            if picked.get(next) == Some(&read) {
                next += 1;
            } else {
                self.jobs.swap(write, read);
                write += 1;
            }
        }
        let mut batch = self.jobs.split_off(write);
        for job in &batch {
            self.forget(job);
        }
        batch.sort_unstable_by_key(QueuedJob::sort_key);
        batch
    }
}

struct TenantState {
    config: TenantConfig,
    vtime: u128,
    pending: Arc<AtomicUsize>,
}

/// Dispatch statistics (under the core lock; completion counts live in
/// [`Counters`]).
#[derive(Default, Clone)]
pub(crate) struct Stats {
    pub(crate) jobs_submitted: usize,
    pub(crate) batches: usize,
    pub(crate) packed_batches: usize,
    pub(crate) coalesced_jobs: usize,
    pub(crate) opaque_jobs: usize,
    pub(crate) would_blocks: usize,
    pub(crate) max_queue_depth_seen: usize,
    /// `(leader's tenant, size)` of the last [`DISPATCH_HISTORY`] batches.
    pub(crate) dispatches: VecDeque<(Arc<str>, usize)>,
    pub(crate) retries: usize,
    pub(crate) cancelled: usize,
    pub(crate) deadline_failures: usize,
}

struct CoreState {
    queue: JobQueue,
    inflight: Vec<InFlight>,
    tenants: HashMap<Arc<str>, TenantState>,
    vclock: u128,
    next_job: u64,
    shutting_down: bool,
    stats: Stats,
}

/// The shared scheduler core behind [`crate::Server`] and every
/// [`crate::Session`] / [`JobHandle`].
pub(crate) struct Core {
    runtime: Arc<SkelCl>,
    config: ServerConfig,
    state: Mutex<CoreState>,
    counters: Counters,
}

impl Core {
    pub(crate) fn new(runtime: Arc<SkelCl>, config: ServerConfig) -> Arc<Core> {
        Arc::new(Core {
            runtime,
            config,
            state: Mutex::new(CoreState {
                queue: JobQueue::default(),
                inflight: Vec::new(),
                tenants: HashMap::new(),
                vclock: 0,
                next_job: 0,
                shutting_down: false,
                stats: Stats::default(),
            }),
            counters: Counters {
                completed: Arc::new(AtomicUsize::new(0)),
                failed: Arc::new(AtomicUsize::new(0)),
            },
        })
    }

    pub(crate) fn runtime(&self) -> Arc<SkelCl> {
        self.runtime.clone()
    }

    pub(crate) fn add_tenant(&self, name: &str, config: TenantConfig) -> Result<()> {
        let mut state = self.state.lock();
        if state.tenants.contains_key(name) {
            return Err(ServeError::DuplicateTenant(name.to_string()));
        }
        self.runtime
            .context()
            .ledger()
            .set_cap(name, config.quota_bytes);
        state.tenants.insert(
            name.into(),
            TenantState {
                config,
                vtime: 0,
                pending: Arc::new(AtomicUsize::new(0)),
            },
        );
        Ok(())
    }

    /// The registered tenant's shared name, if `name` is registered.
    pub(crate) fn tenant(&self, name: &str) -> Option<Arc<str>> {
        let state = self.state.lock();
        state.tenants.get_key_value(name).map(|(k, _)| k.clone())
    }

    /// Admit a plan of any kind — a vector job or a reduction (try
    /// semantics: returns [`ServeError::WouldBlock`] past a watermark instead
    /// of blocking). A plan with a coalescing signature joins the packed
    /// path; one without — it contains a scan — runs alone through the plan
    /// executor. Either way the job delivers the plan kind's host result
    /// ([`PlanKind::Job`]).
    pub(crate) fn admit_plan<T: DeviceScalar, K: PlanKind<T>>(
        self: &Arc<Self>,
        tenant: &Arc<str>,
        plan: &Plan<T, K>,
        options: JobOptions,
    ) -> Result<JobHandle<K::Job>> {
        let signature = plan.coalesce_signature().map_err(ServeError::from)?;
        let footprint = plan.footprint_bytes();
        let work = Box::new(TypedJob { plan: plan.clone() });
        let slot = self.admit(tenant, signature, footprint, work, options)?;
        Ok(JobHandle {
            slot,
            core: self.clone(),
            _payload: std::marker::PhantomData,
        })
    }

    fn admit(
        &self,
        tenant: &Arc<str>,
        signature: Option<CoalesceSignature>,
        footprint: usize,
        work: Box<dyn ErasedJob>,
        options: JobOptions,
    ) -> Result<Arc<JobSlot>> {
        let mut state = self.state.lock();
        if state.shutting_down {
            return Err(ServeError::ShuttingDown);
        }
        let Some((max_pending, pending)) = state
            .tenants
            .get(&**tenant)
            .map(|t| (t.config.max_pending.max(1), t.pending.clone()))
        else {
            return Err(ServeError::UnknownTenant(tenant.to_string()));
        };
        let queue_full = state.queue.jobs.len() >= self.config.max_queue_depth.max(1);
        if pending.load(Ordering::Relaxed) >= max_pending || queue_full {
            state.stats.would_blocks += 1;
            // A queue full of batches waiting to fill admits nothing until
            // one leaves: send the leader's, so the next submit finds room.
            if queue_full {
                self.dispatch_one_locked(&mut state, None);
            }
            return Err(ServeError::WouldBlock);
        }
        self.runtime
            .context()
            .ledger()
            .try_charge(tenant, footprint)
            .map_err(|e| ServeError::from(SkelError::from(e)))?;
        let vclock = state.vclock;
        let t = state.tenants.get_mut(&**tenant).expect("checked above");
        let weight = u128::from(t.config.weight.max(1));
        let start = t.vtime.max(vclock);
        t.vtime = start + (footprint.max(1) as u128 * WFQ_SCALE) / weight;
        let tag = t.vtime;
        let band = t.config.priority;
        pending.fetch_add(1, Ordering::Relaxed);
        let id = state.next_job;
        state.next_job += 1;
        let slot = JobSlot::new();
        let submit_virt = self.runtime.now();
        let filled = signature.clone();
        let same = state.queue.push(QueuedJob {
            id,
            tenant: tenant.clone(),
            band,
            tag,
            seq: id,
            signature,
            footprint,
            submit_virt,
            not_before: submit_virt,
            deadline: options.deadline,
            retries_left: options.max_retries.unwrap_or(self.config.max_retries),
            fault_chain: Vec::new(),
            slot: slot.clone(),
            pending,
            work,
        });
        state.stats.jobs_submitted += 1;
        let depth = state.queue.jobs.len();
        state.stats.max_queue_depth_seen = state.stats.max_queue_depth_seen.max(depth);
        // Coalesce-cap trigger: the admission that fills a batch of its
        // signature dispatches that batch — waiting longer cannot grow it —
        // after any higher band's batches (one per call). A partial batch
        // waits for a drain, a full queue or a blocked submit (`make_room`);
        // while a queued job has a deadline, each trigger also sends the
        // leader's, so partial batches keep leaving, in leader order, and
        // that job is not held for its own batch to fill.
        if self.config.coalescing && same >= self.config.coalesce_cap.max(1) {
            while self.dispatch_one_locked(&mut state, filled.as_ref()) {}
            if state.queue.deadlines > 0 {
                self.dispatch_one_locked(&mut state, None);
            }
        }
        Ok(slot)
    }

    /// The device whose command queue is least loaded in virtual time
    /// (ties broken toward the lowest index, for determinism). Lost devices
    /// are skipped so replayed batches land on survivors.
    fn pick_device(&self) -> usize {
        let lost = self.runtime.lost_devices();
        (0..self.runtime.device_count())
            .filter(|d| !lost.contains(d))
            .min_by_key(|&d| (self.runtime.queue(d).available_at(), d))
            .unwrap_or(0)
    }

    /// Terminally fail every queued job whose virtual-time deadline has
    /// passed, releasing quota and pending counts immediately.
    fn sweep_deadlines_locked(&self, state: &mut CoreState) {
        if state.queue.deadlines == 0 {
            return;
        }
        let now = self.runtime.now();
        let mut index = 0;
        while index < state.queue.jobs.len() {
            match state.queue.jobs[index].deadline {
                Some(deadline) if now > deadline => {
                    let job = state.queue.remove(index);
                    state.stats.deadline_failures += 1;
                    let error = ServeError::DeadlineExceeded {
                        tenant: job.tenant.to_string(),
                        deadline,
                    };
                    job.fail_now(&self.runtime, error, &self.counters);
                }
                _ => index += 1,
            }
        }
    }

    /// Dispatch one batch: the WFQ leader's — the queued job with the
    /// smallest sort key and, coalescing on, every queued job with its
    /// signature, up to the cap — or, with `filled`, a full batch of that
    /// signature (nothing if fewer than the cap are eligible). Bands stay
    /// strict: while the leader sits in a higher band than every job of the
    /// full batch, the leader's batch goes instead. Either way a batch
    /// truncated to the cap keeps its signature's smallest keys.
    /// Packed launches go in flight (resolved later, in dispatch order); a
    /// job without a signature runs alone and completes before this
    /// returns. Jobs backing off after a fault (`not_before` in the virtual
    /// future) are not eligible; the drain loop advances the clock when
    /// only those remain.
    fn dispatch_one_locked(
        &self,
        state: &mut CoreState,
        filled: Option<&CoalesceSignature>,
    ) -> bool {
        self.sweep_deadlines_locked(state);
        let now = self.runtime.now();
        let cap = self.config.coalesce_cap.max(1);
        let queue = &state.queue.jobs;
        let eligible = |i: &usize| queue[*i].not_before <= now;
        let batch_of = |signature: &CoalesceSignature| {
            let mut same: Vec<usize> = (0..queue.len())
                .filter(|i| eligible(i) && queue[*i].signature.as_ref() == Some(signature))
                .collect();
            if same.len() > cap {
                same.sort_unstable_by_key(|&i| queue[i].sort_key());
                same.truncate(cap);
                same.sort_unstable();
            }
            same
        };
        let Some(leader) = (0..queue.len())
            .filter(eligible)
            .min_by_key(|&i| queue[i].sort_key())
        else {
            return false;
        };
        let leader_batch = || match &queue[leader].signature {
            Some(signature) if self.config.coalescing => batch_of(signature),
            _ => vec![leader],
        };
        let picked: Vec<usize> = match filled {
            None => leader_batch(),
            Some(signature) => {
                let full = batch_of(signature);
                if full.len() < cap {
                    return false;
                }
                if full.iter().all(|&i| queue[leader].band < queue[i].band) {
                    leader_batch()
                } else {
                    full
                }
            }
        };
        let batch = state.queue.take(&picked);
        state.vclock = state.vclock.max(batch[0].tag);
        state.stats.batches += 1;
        if state.stats.dispatches.len() == DISPATCH_HISTORY {
            state.stats.dispatches.pop_front();
        }
        state
            .stats
            .dispatches
            .push_back((batch[0].tenant.clone(), batch.len()));
        if batch.len() > 1 {
            state.stats.coalesced_jobs += batch.len();
        }
        let ledger_ctx = self.runtime.context().ledger();
        let mut seen_tenants: Vec<&str> = Vec::new();
        for job in &batch {
            ledger_ctx.note_transfer(&job.tenant, job.footprint);
            if !seen_tenants.contains(&&*job.tenant) {
                seen_tenants.push(&job.tenant);
                ledger_ctx.note_launch(&job.tenant);
            }
        }
        if batch[0].signature.is_some() {
            self.launch_packed_locked(state, batch);
        } else {
            // Picked alone: a job without a signature is its own batch.
            for job in batch {
                self.run_alone_locked(state, job);
            }
        }
        true
    }

    /// Pack `batch` (one signature, dispatch order) into one launch on the
    /// least-loaded device and put it in flight.
    fn launch_packed_locked(&self, state: &mut CoreState, batch: Vec<QueuedJob>) {
        state.stats.packed_batches += 1;
        let device = self.pick_device();
        let members: Vec<BatchMember> = batch
            .iter()
            .map(|j| BatchMember {
                slot: j.slot.clone(),
                tenant: j.tenant.clone(),
                footprint: j.footprint,
                pending: j.pending.clone(),
                report: JobReport {
                    job_id: j.id,
                    tenant: j.tenant.to_string(),
                    device: Some(device),
                    batch_jobs: batch.len(),
                    submit_virt: j.submit_virt,
                    complete_virt: SimTime::ZERO,
                },
            })
            .collect();
        let peers: Vec<&dyn ErasedJob> = batch.iter().map(|j| j.work.as_ref()).collect();
        let launched = peers[0].launch(
            &peers,
            device,
            members,
            self.runtime.clone(),
            self.counters.clone(),
        );
        match launched {
            Ok(resolve) => state.inflight.push(InFlight {
                resolve,
                jobs: batch,
            }),
            Err(e) => {
                let error = ServeError::from(e);
                for job in batch {
                    self.settle_failed_job(state, job, error.clone());
                }
            }
        }
    }

    /// Run an opaque job (its plan contains a scan) through the plan
    /// executor, synchronously.
    fn run_alone_locked(&self, state: &mut CoreState, job: QueuedJob) {
        state.stats.opaque_jobs += 1;
        match job.work.collect() {
            Ok(payload) => {
                self.runtime
                    .context()
                    .ledger()
                    .credit(&job.tenant, job.footprint);
                job.pending.fetch_sub(1, Ordering::Relaxed);
                let report = JobReport {
                    job_id: job.id,
                    tenant: job.tenant.to_string(),
                    device: None,
                    batch_jobs: 1,
                    submit_virt: job.submit_virt,
                    complete_virt: self.runtime.now(),
                };
                job.slot.complete(payload, report);
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => self.settle_failed_job(state, job, ServeError::from(e)),
        }
    }

    /// Decide between replay and terminal failure for a job whose attempt
    /// failed with `error`. Injected faults with retry budget left re-queue
    /// the job — quota stays charged across replays, so the ledger never
    /// double-charges — with a linear virtual-time backoff (attempt `n`
    /// waits `n × retry_backoff`); injected faults past the budget fail with
    /// [`ServeError::JobFailed`] carrying the whole fault chain; everything
    /// else passes through unchanged.
    fn settle_failed_job(&self, state: &mut CoreState, mut job: QueuedJob, error: ServeError) {
        // Drop fault records the failed attempt parked on the runtime so
        // they cannot leak into the replay (or an unrelated job).
        let _ = self.runtime.take_deferred_errors();
        let injected = matches!(&error, ServeError::Skel(e) if e.is_injected_fault());
        if injected && job.retries_left > 0 {
            // A transiently failed upload was recorded by the coherence
            // flags when enqueued but never executed; refresh the inputs so
            // the replay re-uploads instead of trusting a stale buffer. If
            // the authoritative copy itself is gone (it lived on a lost
            // device), degrade gracefully to a typed terminal failure.
            if let Err(refresh_err) = job.work.refresh() {
                job.fail_now(&self.runtime, ServeError::Skel(refresh_err), &self.counters);
                return;
            }
            job.retries_left -= 1;
            job.fault_chain.push(error.to_string());
            let attempts = job.fault_chain.len() as u64;
            job.not_before =
                self.runtime.now() + SimDuration(self.config.retry_backoff.0.max(1) * attempts);
            state.stats.retries += 1;
            state.queue.push(job);
        } else if injected {
            job.fault_chain.push(error.to_string());
            let terminal = ServeError::JobFailed {
                tenant: job.tenant.to_string(),
                attempts: job.fault_chain.len(),
                fault_chain: std::mem::take(&mut job.fault_chain),
            };
            job.fail_now(&self.runtime, terminal, &self.counters);
        } else {
            job.fail_now(&self.runtime, error, &self.counters);
        }
    }

    /// Resolve one in-flight packed launch: on success the members finished
    /// themselves inside the closure; on failure every retained job goes
    /// through the retry-or-fail decision.
    fn settle_resolved(&self, state: &mut CoreState, inflight: InFlight) {
        let InFlight { resolve, jobs } = inflight;
        match resolve() {
            Ok(()) => {}
            Err((error, members)) => {
                // The members hold no accounting of their own — quota and
                // pending counts are settled through the retained jobs.
                drop(members);
                for job in jobs {
                    self.settle_failed_job(state, job, error.clone());
                }
            }
        }
    }

    /// When the queue holds only backing-off jobs (and nothing is in
    /// flight), advance the host's virtual clock to the earliest release so
    /// a blocked drain cannot deadlock. Returns whether the clock moved.
    fn advance_to_backoff_locked(&self, state: &mut CoreState) -> bool {
        let now = self.runtime.now();
        let earliest = state
            .queue
            .jobs
            .iter()
            .map(|j| j.not_before)
            .filter(|&t| t > now)
            .min();
        match earliest {
            Some(release) => {
                self.runtime.context().sync_host_to(release);
                true
            }
            None => false,
        }
    }

    /// Cancel a still-queued job (identified by its slot): credits its
    /// quota, releases its pending count and fails the slot with
    /// [`ServeError::Cancelled`]. Returns false once the job has dispatched
    /// — in-flight and completed jobs cannot be cancelled.
    pub(crate) fn cancel(&self, slot: &Arc<JobSlot>) -> bool {
        let mut state = self.state.lock();
        let Some(pos) = state
            .queue
            .jobs
            .iter()
            .position(|j| Arc::ptr_eq(&j.slot, slot))
        else {
            return false;
        };
        let job = state.queue.remove(pos);
        state.stats.cancelled += 1;
        job.fail_now(&self.runtime, ServeError::Cancelled, &self.counters);
        true
    }

    /// Make one unit of progress for `tenant`'s blocking submit, refused at
    /// a watermark, splitting no batch that settling can spare. A refusal at
    /// a full queue has already sent the leader's batch (`Core::admit`),
    /// so this has nothing to do unless a watermark still holds. The
    /// tenant's `max_pending` counts in-flight jobs too: settle the oldest
    /// in-flight launch; only when nothing is in flight, dispatch the WFQ
    /// leader's (possibly partial) batch; else advance the clock to a
    /// backing-off job's release. Returns false when there is nothing left
    /// to drive.
    pub(crate) fn make_room(&self, tenant: &str) -> bool {
        let mut state = self.state.lock();
        let at_max_pending = state
            .tenants
            .get(tenant)
            .is_some_and(|t| t.pending.load(Ordering::Relaxed) >= t.config.max_pending.max(1));
        let queue_full = state.queue.jobs.len() >= self.config.max_queue_depth.max(1);
        !(at_max_pending || queue_full)
            || self.settle_oldest_locked(&mut state)
            || self.dispatch_one_locked(&mut state, None)
            || self.advance_to_backoff_locked(&mut state)
    }

    /// Resolve the oldest in-flight launch; false when none is in flight.
    fn settle_oldest_locked(&self, state: &mut CoreState) -> bool {
        if state.inflight.is_empty() {
            return false;
        }
        let batch = state.inflight.remove(0);
        self.settle_resolved(state, batch);
        true
    }

    /// Dispatch everything queued and resolve every in-flight launch, in
    /// deterministic (dispatch) order.
    pub(crate) fn drain_all(&self) {
        let mut state = self.state.lock();
        self.drain_locked(&mut state);
    }

    fn drain_locked(&self, state: &mut CoreState) {
        loop {
            while self.dispatch_one_locked(state, None) {}
            if !state.inflight.is_empty() {
                let resolvers: Vec<InFlight> = state.inflight.drain(..).collect();
                for batch in resolvers {
                    self.settle_resolved(state, batch);
                }
                continue;
            }
            // Only backing-off replays remain: jump the virtual clock to
            // their release instant. Bounded — every replay consumes retry
            // budget, so this loop terminates.
            if !self.advance_to_backoff_locked(state) {
                break;
            }
        }
    }

    /// Refuse new work, then drain.
    pub(crate) fn shutdown(&self) {
        let mut state = self.state.lock();
        state.shutting_down = true;
        self.drain_locked(&mut state);
    }

    pub(crate) fn snapshot(&self) -> (Stats, usize, usize, usize, usize) {
        let state = self.state.lock();
        (
            state.stats.clone(),
            self.counters.completed.load(Ordering::Relaxed),
            self.counters.failed.load(Ordering::Relaxed),
            state.queue.jobs.len(),
            state.inflight.len(),
        )
    }
}
