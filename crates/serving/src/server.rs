//! [`Server`], [`Session`] and the serving-level trace.

use std::sync::Arc;

use oclsim::SimDuration;
use skelcl::{DeviceScalar, Plan, PlanKind, PlanScalar, PlanVec, SkelCl};

use crate::error::{Result, ServeError};
use crate::job::JobHandle;
use crate::scheduler::{Core, JobOptions};
use crate::tenant::TenantConfig;

/// Server-wide scheduling knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Whether same-kernel jobs coalesce into packed launches. With
    /// coalescing off every job dispatches as a batch of one through the
    /// same packed path, so results are bit-identical either way.
    pub coalescing: bool,
    /// Maximum jobs per packed launch. The admission that queues the
    /// cap-th job of one signature dispatches those jobs at once (after any
    /// higher priority band's); a smaller batch waits for a drain, a full
    /// queue or a blocked submit — or, while a queued job has a deadline,
    /// leaves beside the next batch that fills. Clamped to at least 1.
    pub coalesce_cap: usize,
    /// Server-wide backpressure watermark on admitted-but-undispatched
    /// jobs; a submission past it dispatches the leader's batch, partial or
    /// not, and returns [`ServeError::WouldBlock`] (a blocking submit then
    /// retries). Clamped to at least 1.
    pub max_queue_depth: usize,
    /// Replays granted to a job whose attempt dies with an *injected*
    /// fault, unless overridden per job through
    /// [`JobOptions::with_max_retries`]. Past the budget the job fails
    /// with [`ServeError::JobFailed`] carrying its fault chain.
    pub max_retries: usize,
    /// Base virtual-time backoff between replays; attempt `n` waits
    /// `n × retry_backoff` before becoming dispatchable again.
    pub retry_backoff: SimDuration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            coalescing: true,
            coalesce_cap: 64,
            max_queue_depth: 256,
            max_retries: 2,
            retry_backoff: SimDuration::from_secs_f64(50e-6),
        }
    }
}

/// Aggregate serving statistics, a snapshot from [`Server::trace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServingTrace {
    /// Jobs admitted into the queue (excludes rejected submissions).
    pub jobs_submitted: usize,
    /// Jobs completed successfully.
    pub jobs_completed: usize,
    /// Jobs that failed after admission.
    pub jobs_failed: usize,
    /// Jobs currently admitted but not yet dispatched.
    pub jobs_queued: usize,
    /// Packed launches dispatched but not yet resolved.
    pub batches_inflight: usize,
    /// Dispatched batches of any kind.
    pub batches: usize,
    /// Dispatched packed launches — elementwise or reduction, coalesced or
    /// a batch of one.
    pub packed_batches: usize,
    /// Jobs that shared a packed launch with at least one other job.
    pub coalesced_jobs: usize,
    /// Jobs that ran *opaque*: alone, synchronously at dispatch, through the
    /// ordinary plan executor over every device of the runtime — blocking
    /// the host until their result is back. Only a plan that contains a scan
    /// (a vector plan, or a reduction behind a scan) does; elementwise
    /// chains and the reductions that close them always pack.
    pub opaque_jobs: usize,
    /// Submissions rejected with [`ServeError::WouldBlock`].
    pub would_blocks: usize,
    /// High-water mark of the admission queue depth.
    pub max_queue_depth_seen: usize,
    /// Tenant of each dispatched batch's leader, in dispatch order — the
    /// most recent 1 024 batches (`batches` counts all of them).
    pub dispatch_tenants: Vec<String>,
    /// Size of each dispatched batch, in dispatch order; covers the same
    /// most recent 1 024 batches as `dispatch_tenants`.
    pub batch_sizes: Vec<usize>,
    /// Fault-failed attempts that were re-queued for replay.
    pub jobs_retried: usize,
    /// Jobs cancelled through [`crate::JobHandle::cancel`] before dispatch.
    pub jobs_cancelled: usize,
    /// Jobs that missed their virtual-time deadline while queued.
    pub jobs_deadline_failed: usize,
}

/// A multi-tenant serving front end over a shared [`SkelCl`] runtime.
///
/// Register tenants with [`Server::add_tenant`], open [`Session`]s, submit
/// [`PlanVec`]/[`PlanScalar`] jobs and wait on the returned [`JobHandle`]s.
/// Cloning the server is cheap; all clones share one scheduler core.
#[derive(Clone)]
pub struct Server {
    core: Arc<Core>,
}

impl Server {
    /// A server with the default [`ServerConfig`].
    pub fn new(runtime: Arc<SkelCl>) -> Server {
        Server::with_config(runtime, ServerConfig::default())
    }

    /// A server with explicit scheduling knobs.
    pub fn with_config(runtime: Arc<SkelCl>, config: ServerConfig) -> Server {
        Server {
            core: Core::new(runtime, config),
        }
    }

    /// The shared runtime this server schedules onto.
    pub fn runtime(&self) -> Arc<SkelCl> {
        self.core.runtime()
    }

    /// Register a tenant. Installs the tenant's byte quota (if any) on the
    /// runtime's [`oclsim::ResourceLedger`]. Errors if the name is taken.
    pub fn add_tenant(&self, name: &str, config: TenantConfig) -> Result<()> {
        self.core.add_tenant(name, config)
    }

    /// Open a submission session for a registered tenant. Sessions are
    /// cheap; a tenant may hold any number concurrently.
    pub fn session(&self, tenant: &str) -> Result<Session> {
        let tenant = self
            .core
            .tenant(tenant)
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))?;
        Ok(Session {
            core: self.core.clone(),
            tenant,
        })
    }

    /// Dispatch everything queued and resolve all in-flight launches.
    pub fn flush(&self) {
        self.core.drain_all();
    }

    /// Graceful shutdown: refuse new submissions, then drain so every
    /// already-admitted job's handle resolves.
    pub fn shutdown(&self) {
        self.core.shutdown();
    }

    /// Snapshot the serving statistics.
    pub fn trace(&self) -> ServingTrace {
        let (stats, completed, failed, queued, inflight) = self.core.snapshot();
        ServingTrace {
            jobs_submitted: stats.jobs_submitted,
            jobs_completed: completed,
            jobs_failed: failed,
            jobs_queued: queued,
            batches_inflight: inflight,
            batches: stats.batches,
            packed_batches: stats.packed_batches,
            coalesced_jobs: stats.coalesced_jobs,
            opaque_jobs: stats.opaque_jobs,
            would_blocks: stats.would_blocks,
            max_queue_depth_seen: stats.max_queue_depth_seen,
            dispatch_tenants: stats
                .dispatches
                .iter()
                .map(|(tenant, _)| tenant.to_string())
                .collect(),
            batch_sizes: stats.dispatches.iter().map(|&(_, size)| size).collect(),
            jobs_retried: stats.retries,
            jobs_cancelled: stats.cancelled,
            jobs_deadline_failed: stats.deadline_failures,
        }
    }
}

/// One tenant's submission handle onto a [`Server`].
#[derive(Clone)]
pub struct Session {
    core: Arc<Core>,
    tenant: Arc<str>,
}

impl Session {
    /// The tenant this session submits as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Submit a vector pipeline job, returning [`ServeError::WouldBlock`]
    /// instead of waiting when a backpressure watermark is hit.
    pub fn try_submit_vec<T: DeviceScalar>(&self, plan: &PlanVec<T>) -> Result<JobHandle<Vec<T>>> {
        self.try_submit_vec_with(plan, JobOptions::default())
    }

    /// [`Session::try_submit_vec`] with per-job [`JobOptions`] (deadline,
    /// retry budget).
    pub fn try_submit_vec_with<T: DeviceScalar>(
        &self,
        plan: &PlanVec<T>,
        options: JobOptions,
    ) -> Result<JobHandle<Vec<T>>> {
        self.core.admit_plan(&self.tenant, plan, options)
    }

    /// Submit a vector pipeline job, making room (resolving in-flight
    /// launches, dispatching queued batches) until admission succeeds.
    pub fn submit_vec<T: DeviceScalar>(&self, plan: &PlanVec<T>) -> Result<JobHandle<Vec<T>>> {
        self.submit_vec_with(plan, JobOptions::default())
    }

    /// [`Session::submit_vec`] with per-job [`JobOptions`].
    pub fn submit_vec_with<T: DeviceScalar>(
        &self,
        plan: &PlanVec<T>,
        options: JobOptions,
    ) -> Result<JobHandle<Vec<T>>> {
        self.submit(plan, options)
    }

    /// Admit `plan`, making room whenever a watermark is hit: at the
    /// server's `max_queue_depth` the refusal has already dispatched the
    /// leader's batch; at the tenant's `max_pending`, settle the oldest
    /// in-flight launch, or dispatch the leader's batch, partial or not,
    /// when nothing is in flight.
    fn submit<T: DeviceScalar, K: PlanKind<T>>(
        &self,
        plan: &Plan<T, K>,
        options: JobOptions,
    ) -> Result<JobHandle<K::Job>> {
        loop {
            match self.core.admit_plan(&self.tenant, plan, options) {
                Err(ServeError::WouldBlock) => {
                    if !self.core.make_room(&self.tenant) {
                        return Err(ServeError::WouldBlock);
                    }
                }
                other => return other,
            }
        }
    }

    /// Submit a scalar (reduction) pipeline job with try semantics. A
    /// reduction that closes an elementwise chain runs packed, like a vector
    /// job: whole on one device, coalesced with queued reductions of the
    /// same kernel, arguments *and length*, asynchronously. Its result is,
    /// bit for bit, what `plan.scalar()` returns on a one-device runtime —
    /// whatever the batch it joined and however many devices the server has.
    pub fn try_submit_scalar<T: DeviceScalar>(&self, plan: &PlanScalar<T>) -> Result<JobHandle<T>> {
        self.try_submit_scalar_with(plan, JobOptions::default())
    }

    /// [`Session::try_submit_scalar`] with per-job [`JobOptions`].
    pub fn try_submit_scalar_with<T: DeviceScalar>(
        &self,
        plan: &PlanScalar<T>,
        options: JobOptions,
    ) -> Result<JobHandle<T>> {
        self.core.admit_plan(&self.tenant, plan, options)
    }

    /// Submit a scalar (reduction) pipeline job, making room as needed.
    pub fn submit_scalar<T: DeviceScalar>(&self, plan: &PlanScalar<T>) -> Result<JobHandle<T>> {
        self.submit_scalar_with(plan, JobOptions::default())
    }

    /// [`Session::submit_scalar`] with per-job [`JobOptions`].
    pub fn submit_scalar_with<T: DeviceScalar>(
        &self,
        plan: &PlanScalar<T>,
        options: JobOptions,
    ) -> Result<JobHandle<T>> {
        self.submit(plan, options)
    }
}
