//! # oclsim — a simulated OpenCL runtime
//!
//! SkelCL is built on top of OpenCL and evaluated on an NVIDIA Tesla S1070
//! multi-GPU system. This crate substitutes that hardware with a *simulated*
//! OpenCL runtime so the reproduction runs anywhere:
//!
//! * **Functional behaviour is real.** Buffers hold real data; kernels
//!   (either kernel-language source compiled at runtime via
//!   [`skelcl_kernel`], or native Rust closures) actually execute and produce
//!   exact results.
//! * **Timing is virtual.** Each command-queue has a virtual clock; commands
//!   are charged according to a per-device cost model ([`DeviceProfile`]) and
//!   a programming-model constant set ([`ApiModel`], distinguishing CUDA,
//!   OpenCL and the SkelCL layer). Queues of different devices overlap in
//!   virtual time, so multi-GPU scaling behaviour — the subject of the
//!   paper's Figure 4b — is reproduced structurally.
//!
//! The API deliberately mirrors OpenCL's object model: [`Context`] owns
//! [`Device`]s, [`CommandQueue`]s issue transfers and 1-D NDRange launches of
//! [`Kernel`]s from [`Program`]s onto [`Buffer`]s, and every command yields a
//! profiling [`Event`].
//!
//! ```
//! use oclsim::{Context, KernelArg};
//!
//! let ctx = Context::with_gpus(2);
//! let queue = ctx.queue(0).unwrap();
//! let buf = ctx.create_buffer::<f32>(0, 4).unwrap();
//! queue.enqueue_write_buffer(&buf, &[1.0f32, 2.0, 3.0, 4.0]).unwrap();
//!
//! let program = ctx.build_program(
//!     "__kernel void dbl(__global float* v, int n) {
//!          int i = get_global_id(0);
//!          if (i < n) { v[i] = v[i] * 2.0f; }
//!      }",
//! ).unwrap();
//! let kernel = program.kernel("dbl").unwrap();
//! queue.enqueue_kernel(&kernel, 4, &[KernelArg::Buffer(buf.clone()), KernelArg::i32(4)]).unwrap();
//!
//! let mut out = vec![0.0f32; 4];
//! queue.enqueue_read_buffer(&buf, &mut out).unwrap();
//! assert_eq!(out, vec![2.0, 4.0, 6.0, 8.0]);
//! ```

pub mod buffer;
pub mod command_buffer;
pub mod context;
pub mod device;
pub mod error;
pub mod event;
pub mod fault;
pub mod ledger;
pub mod platform;
pub mod pod;
pub mod profile;
pub mod program;
pub mod queue;
pub mod time;

pub use buffer::{Buffer, DataKind};
pub use command_buffer::{Bindings, CommandBuffer, ReadId, Slot, Submission};
pub use context::Context;
pub use device::{BufferData, Device, DeviceId, TierSnapshot};
pub use error::{OclError, Result};
pub use event::{CommandKind, Event, EventHandle, EventStatus, EventSummary};
pub use fault::{CommandClass, FaultKind, FaultPlan, FaultSpec, FaultTrigger};
pub use ledger::{ResourceLedger, TagUsage};
pub use platform::{default_platforms, select_gpus, Platform};
pub use pod::Pod;
pub use profile::{ApiModel, DeviceProfile, DeviceType};
pub use program::{ArgView, CostHint, Kernel, KernelArg, NativeCtx, NativeKernelDef, Program};
pub use queue::CommandQueue;
pub use time::{SimDuration, SimTime};

/// Scalar values passed to kernels (re-exported from the kernel language).
pub use skelcl_kernel::value::Value;

/// Kernel-language execution-tier selection and per-launch tier traces
/// (re-exported from the kernel language; see [`Context::set_kernel_tier`]).
pub use skelcl_kernel::{LaunchTrace, Tier};
