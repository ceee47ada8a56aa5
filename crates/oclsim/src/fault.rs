//! Deterministic fault injection scheduled on **virtual time**.
//!
//! A [`FaultPlan`] is a reproducible *input* to a simulation run: it lists
//! [`FaultSpec`]s — each naming a device, a [`FaultTrigger`] (an exact
//! virtual timestamp or a per-device op count, never wall-clock) and a
//! [`FaultKind`]. The plan is attached to a [`crate::Context`] with
//! [`crate::Context::inject_faults`]; from then on every command a queue is
//! about to execute is checked against the device's armed triggers *before*
//! it runs (so a replayed command never applies its side effects twice).
//!
//! Two fault classes exist:
//!
//! * [`FaultKind::DeviceLost`] — permanent death. The device refuses the
//!   triggering command and **every** later command and allocation with
//!   [`OclError::DeviceLost`](crate::OclError::DeviceLost). Its commands'
//!   events fail and latch the queue's deferred error.
//! * [`FaultKind::TransientTransfer`] / [`FaultKind::TransientLaunch`] —
//!   one-shot failures of the next matching transfer or kernel launch; the
//!   device stays healthy and a replay of the command succeeds.
//!
//! Determinism: triggers are evaluated against the command's virtual start
//! time (`max(queue available-at, queued, deps)`) and a per-device monotonic
//! op counter; commands run in program order, so both are fixed by the
//! program. A plan whose triggers never become
//! due charges **zero** virtual time — a fault-free run with a plan
//! attached is bit-identical, in results and timestamps, to a run without
//! one.

use crate::time::SimTime;

/// What kind of failure a [`FaultSpec`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Permanent device death: the triggering command and all subsequent
    /// commands/allocations on the device fail with
    /// [`OclError::DeviceLost`](crate::OclError::DeviceLost).
    DeviceLost,
    /// One-shot failure of the next buffer transfer (write, fill or read)
    /// on the device; later commands succeed.
    TransientTransfer,
    /// One-shot failure of the next kernel launch on the device; later
    /// commands succeed.
    TransientLaunch,
}

/// When an armed [`FaultSpec`] fires. Both triggers are deterministic
/// functions of the virtual schedule — wall-clock never participates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Fire on the first command of the device whose prospective virtual
    /// start time is `>=` this instant.
    AtVirtualTime(SimTime),
    /// Fire on the `n`-th command (1-based) the device executes, counting
    /// every write, fill, read and kernel launch that reaches the device
    /// in queue order.
    AtOpCount(usize),
}

/// One scheduled fault: a device, a trigger and a failure kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Index of the device the fault targets.
    pub device: usize,
    /// When the fault fires.
    pub trigger: FaultTrigger,
    /// What happens when it fires.
    pub kind: FaultKind,
}

/// A deterministic, reproducible schedule of injected faults.
///
/// Build one with the fluent constructors and attach it with
/// [`crate::Context::inject_faults`]:
///
/// ```
/// use oclsim::{Context, FaultPlan, SimTime};
///
/// let ctx = Context::with_gpus(2);
/// let plan = FaultPlan::new()
///     .device_lost_at(1, SimTime::ZERO + oclsim::SimDuration::from_micros(50))
///     .transient_launch_at_op(0, 3);
/// ctx.inject_faults(&plan);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add an arbitrary [`FaultSpec`].
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Permanently kill `device` at virtual time `at`.
    pub fn device_lost_at(self, device: usize, at: SimTime) -> Self {
        self.with(FaultSpec {
            device,
            trigger: FaultTrigger::AtVirtualTime(at),
            kind: FaultKind::DeviceLost,
        })
    }

    /// Permanently kill `device` on its `op`-th executed command (1-based).
    pub fn device_lost_at_op(self, device: usize, op: usize) -> Self {
        self.with(FaultSpec {
            device,
            trigger: FaultTrigger::AtOpCount(op),
            kind: FaultKind::DeviceLost,
        })
    }

    /// Fail the next transfer of `device` at or after virtual time `at`.
    pub fn transient_transfer_at(self, device: usize, at: SimTime) -> Self {
        self.with(FaultSpec {
            device,
            trigger: FaultTrigger::AtVirtualTime(at),
            kind: FaultKind::TransientTransfer,
        })
    }

    /// Fail the transfer that would be the `op`-th executed command of
    /// `device` (or the next transfer after it).
    pub fn transient_transfer_at_op(self, device: usize, op: usize) -> Self {
        self.with(FaultSpec {
            device,
            trigger: FaultTrigger::AtOpCount(op),
            kind: FaultKind::TransientTransfer,
        })
    }

    /// Fail the next kernel launch of `device` at or after virtual time
    /// `at`.
    pub fn transient_launch_at(self, device: usize, at: SimTime) -> Self {
        self.with(FaultSpec {
            device,
            trigger: FaultTrigger::AtVirtualTime(at),
            kind: FaultKind::TransientLaunch,
        })
    }

    /// Fail the kernel launch that would be the `op`-th executed command of
    /// `device` (or the next launch after it).
    pub fn transient_launch_at_op(self, device: usize, op: usize) -> Self {
        self.with(FaultSpec {
            device,
            trigger: FaultTrigger::AtOpCount(op),
            kind: FaultKind::TransientLaunch,
        })
    }

    /// The scheduled faults, in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// `true` when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// The execution class of a command, used to match transient triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandClass {
    /// A buffer write (host-fed or forwarded), fill, read or device-local copy.
    Transfer,
    /// A kernel launch.
    Launch,
}

impl FaultKind {
    /// Does a fault of this kind apply to a command of `class`?
    /// Device loss applies to everything; transients are class-specific.
    pub(crate) fn matches(self, class: CommandClass) -> bool {
        match self {
            FaultKind::DeviceLost => true,
            FaultKind::TransientTransfer => class == CommandClass::Transfer,
            FaultKind::TransientLaunch => class == CommandClass::Launch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::error::OclError;
    use crate::program::KernelArg;
    use crate::time::SimDuration;

    const DBL: &str =
        "__kernel void dbl(__global float* v, int n) { int i = get_global_id(0); if (i < n) { v[i] = v[i] * 2.0f; } }";

    #[test]
    fn op_count_device_loss_fails_in_flight_and_future_events_without_deadlock() {
        let ctx = Context::with_gpus(2);
        let q = ctx.queue(0).unwrap();
        let buf = ctx.create_buffer::<f32>(0, 4).unwrap();
        // Ops on device 0: write (1), kernel (2), read (3). Kill on op 2.
        ctx.inject_faults(&FaultPlan::new().device_lost_at_op(0, 2));
        let w = q.enqueue_write_buffer(&buf, &[1.0f32; 4]).unwrap();
        assert!(w.wait().is_ok(), "op 1 precedes the trigger");
        let program = ctx.build_program(DBL).unwrap();
        let kernel = program.kernel("dbl").unwrap();
        let k = q
            .enqueue_kernel(
                &kernel,
                4,
                &[KernelArg::Buffer(buf.clone()), KernelArg::i32(4)],
            )
            .unwrap();
        let err = k.wait().unwrap_err();
        assert!(err.is_device_lost(), "{err:?}");
        // Future commands fail too — waiters see errors, not a hang.
        let mut out = [0.0f32; 4];
        let err = q.enqueue_read_buffer(&buf, &mut out).unwrap_err();
        assert!(err.is_device_lost(), "{err:?}");
        // New allocations are refused.
        assert!(matches!(
            ctx.create_buffer::<f32>(0, 4),
            Err(OclError::DeviceLost { device: 0 })
        ));
        assert_eq!(ctx.lost_devices(), vec![0]);
        assert_eq!(ctx.faults_injected(), 1, "one primary injection");
        // The healthy device is untouched.
        assert!(ctx.create_buffer::<f32>(1, 4).is_ok());
    }

    #[test]
    fn virtual_time_trigger_fires_on_the_first_command_at_or_after_the_instant() {
        // Run once fault-free to learn the exact virtual end of the write;
        // then schedule a loss just before the second command's start.
        let probe = Context::with_gpus(1);
        let q = probe.queue(0).unwrap();
        let buf = probe.create_buffer::<f32>(0, 1024).unwrap();
        let w = q
            .enqueue_write_buffer(&buf, &vec![1.0f32; 1024])
            .unwrap()
            .wait()
            .unwrap();

        let ctx = Context::with_gpus(1);
        ctx.inject_faults(&FaultPlan::new().device_lost_at(0, w.end));
        let q = ctx.queue(0).unwrap();
        let buf = ctx.create_buffer::<f32>(0, 1024).unwrap();
        let first = q.enqueue_write_buffer(&buf, &vec![1.0f32; 1024]).unwrap();
        assert!(
            first.wait().is_ok(),
            "the first write starts before the trigger instant"
        );
        let second = q.enqueue_write_buffer(&buf, &vec![2.0f32; 1024]).unwrap();
        let err = second.wait().unwrap_err();
        assert!(err.is_device_lost(), "{err:?}");
    }

    #[test]
    fn transient_launch_fails_once_and_the_replay_succeeds() {
        let ctx = Context::with_gpus(1);
        ctx.inject_faults(&FaultPlan::new().transient_launch_at(0, SimTime::ZERO));
        let q = ctx.queue(0).unwrap();
        let buf = ctx.create_buffer::<f32>(0, 4).unwrap();
        // Transfers are not matched by a launch fault.
        q.enqueue_write_buffer(&buf, &[1.0f32, 2.0, 3.0, 4.0])
            .unwrap()
            .wait()
            .unwrap();
        let program = ctx.build_program(DBL).unwrap();
        let kernel = program.kernel("dbl").unwrap();
        let args = [KernelArg::Buffer(buf.clone()), KernelArg::i32(4)];
        let first = q.enqueue_kernel(&kernel, 4, &args).unwrap();
        let err = first.wait().unwrap_err();
        assert!(
            matches!(
                err,
                OclError::TransientFault {
                    device: 0,
                    class: CommandClass::Launch
                }
            ),
            "{err:?}"
        );
        assert!(err.is_injected_fault() && !err.is_device_lost());
        // The failed launch left the data untouched; the replay succeeds
        // and produces the correct result.
        q.take_deferred_error();
        let replay = q.enqueue_kernel(&kernel, 4, &args).unwrap();
        assert!(replay.wait().is_ok());
        let mut out = [0.0f32; 4];
        q.enqueue_read_buffer(&buf, &mut out).unwrap();
        assert_eq!(out, [2.0, 4.0, 6.0, 8.0]);
        assert_eq!(ctx.faults_injected(), 1);
        assert!(ctx.lost_devices().is_empty());
    }

    #[test]
    fn unfired_plan_is_bitwise_and_virtual_time_identical_to_no_plan() {
        let run = |plan: Option<FaultPlan>| {
            let ctx = Context::with_gpus(2);
            if let Some(plan) = plan {
                ctx.inject_faults(&plan);
            }
            let q0 = ctx.queue(0).unwrap();
            let q1 = ctx.queue(1).unwrap();
            let program = ctx.build_program(DBL).unwrap();
            let kernel = program.kernel("dbl").unwrap();
            let mut outs = Vec::new();
            for (i, q) in [&q0, &q1].into_iter().enumerate() {
                let buf = ctx.create_buffer::<f32>(i, 256).unwrap();
                q.enqueue_write_buffer(&buf, &vec![i as f32 + 1.0; 256])
                    .unwrap();
                q.enqueue_kernel(
                    &kernel,
                    256,
                    &[KernelArg::Buffer(buf.clone()), KernelArg::i32(256)],
                )
                .unwrap();
                let mut out = vec![0.0f32; 256];
                q.enqueue_read_buffer(&buf, &mut out).unwrap();
                outs.push(out);
            }
            (outs, q0.events(), q1.events(), ctx.host_now())
        };
        // Triggers far in the virtual future / past any op count reached.
        let dormant = FaultPlan::new()
            .device_lost_at(0, SimTime::ZERO + SimDuration::from_secs_f64(3600.0))
            .transient_transfer_at_op(1, 1_000_000);
        assert_eq!(
            run(None),
            run(Some(dormant)),
            "a dormant plan must not perturb results or virtual time"
        );
    }

    #[test]
    fn plan_builder_collects_specs_in_order() {
        let plan = FaultPlan::new()
            .device_lost_at_op(2, 5)
            .transient_transfer_at(0, SimTime::ZERO)
            .transient_launch_at_op(1, 3);
        assert_eq!(plan.specs().len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(
            plan.specs()[0],
            FaultSpec {
                device: 2,
                trigger: FaultTrigger::AtOpCount(5),
                kind: FaultKind::DeviceLost,
            }
        );
        assert!(FaultPlan::new().is_empty());
    }
}
