//! SkelCL as a service: a multi-tenant serving layer over a shared
//! [`skelcl::SkelCl`] runtime.
//!
//! Many concurrent clients submit lazy pipeline [`skelcl::PlanVec`] /
//! [`skelcl::PlanScalar`] jobs through per-tenant [`Session`]s; the
//! [`Server`]'s admission scheduler:
//!
//! - **coalesces** small same-kernel jobs — elementwise chains, and
//!   equal-length reductions — into one lane-batched packed launch with
//!   per-job result slicing,
//! - enforces **weighted fair share** within strict [`Priority`] bands
//!   across tenants and 1–N simulated devices,
//! - applies per-tenant **memory quotas** (through the runtime's
//!   [`oclsim::ResourceLedger`]) and queue-depth **backpressure**
//!   ([`ServeError::WouldBlock`] past a watermark, or blocking submits
//!   that make room by driving the scheduler), and
//! - delivers results **asynchronously** through [`JobHandle`]s built on
//!   the simulator's event machinery.
//!
//! The scheduler is cooperative and synchronous — no scheduler thread —
//! so a fixed submission order yields bit-identical results *and*
//! bit-identical virtual time across repetitions and device counts:
//! packed launches pin every coalesced job to a single device chosen by
//! deterministic argmin over per-device virtual availability.
//!
//! ```
//! use skelcl::prelude::*;
//! use skelcl_serving::{Server, TenantConfig};
//!
//! let runtime = skelcl::init_gpus(2);
//! let server = Server::new(runtime.clone());
//! server.add_tenant("alice", TenantConfig::weighted(3)).unwrap();
//!
//! let session = server.session("alice").unwrap();
//! let double = Map::<f32, f32>::from_source("float func(float x) { return 2.0f * x; }");
//! let v = Vector::from_vec(&runtime, vec![1.0f32, 2.0, 3.0]);
//! let job = session.submit_vec(&v.lazy().map(&double)).unwrap();
//! let (out, report) = job.wait().unwrap();
//! assert_eq!(out, vec![2.0, 4.0, 6.0]);
//! assert_eq!(report.batch_jobs, 1);
//! ```

mod error;
mod job;
mod scheduler;
mod server;
mod tenant;

pub use error::{Result, ServeError};
pub use job::{JobHandle, JobReport};
pub use scheduler::JobOptions;
pub use server::{Server, ServerConfig, ServingTrace, Session};
pub use tenant::{Priority, TenantConfig};
