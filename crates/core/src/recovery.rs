//! Replay-based fault recovery for skeleton launches.
//!
//! Every synchronous launch in core runs under [`run_recoverable`], through
//! its one caller, the call path in `skeletons::exec`: eager `Map`, `Zip`,
//! `Reduce`, `Scan` and `MapOverlap` calls (every terminal form), index
//! maps, the groups of a matrix plan and a whole vector plan. (A packed
//! serving launch is asynchronous: `PackedLaunch::wait` reports, the serving
//! layer retries.) When an attempt fails with an injected fault
//! ([`crate::SkelError::is_injected_fault`]) and recovery is enabled on the
//! runtime ([`crate::SkelCl::set_recovery_enabled`]), the launch is replayed:
//!
//! * a **transient** transfer/launch fault is replayed as-is — the failed
//!   command never executed, so no state was corrupted;
//! * a **device loss** first re-partitions the launch's input containers
//!   onto the surviving devices ([`crate::SkelCl::recovery_weights`]) from
//!   their host-valid (or gatherable) state, then replays.
//!
//! **An attempt is over only when every queue it enqueued on is clean.** A
//! launcher joins its kernels and reads, but the uploads a call triggers are
//! fire-and-forget. So once the attempt returns, every queue's error latch
//! is taken: a failure latched by one of the attempt's own transfers *is* the
//! attempt's failure, even though every kernel "succeeded" — on a buffer the
//! data never reached. Otherwise the garbage output is handed on, and the
//! *next* call trips over the latch and faithfully replays on the garbage.
//!
//! **A failed attempt invalidates its inputs**, replay or not: the coherence
//! flags recorded an upload when it was *enqueued*, so after a failure every
//! input (and vector additional argument) with a valid host copy stops
//! trusting its device copies ([`DynContainer::distrust_devices`]). With
//! recovery off or exhausted the caller gets the typed error, and repeating
//! the call uploads again instead of reusing a buffer the upload never
//! filled.
//!
//! If the lost device held the *only* copy of some input part (a
//! device-resident container with a stale host copy), the re-partition's
//! gather fails with a typed `DeviceLost` error and recovery degrades
//! gracefully — the error propagates to the caller instead of producing
//! wrong data. Iterative stencils add a second line of defence on top of
//! this: `MapOverlap::run_iter` checkpoints and replays whole sweeps (see
//! `LaunchConfig::checkpoint_every`).
//!
//! **Determinism.** Recovery adds zero virtual-time cost on the fault-free
//! path: reading the queues' latches touches no clock, and
//! fault state is only consulted *after* an attempt has failed, so a run
//! with no armed faults is bitwise and virtual-time identical to a run
//! without the recovery layer.

use std::sync::Arc;

use crate::container::DynContainer;
use crate::error::Result;
use crate::runtime::SkelCl;

/// Retry headroom on top of one attempt per device: transients are one-shot
/// and each device can die at most once, but coercions during replay (e.g.
/// distribution unification resurrecting an even split) may need one extra
/// round to settle.
const EXTRA_ATTEMPTS: usize = 4;

/// Run `attempt` with replay-based fault recovery (see the module docs).
///
/// `inputs` are the containers the launch partitions its work by — refreshed
/// before a replay and moved onto the surviving devices after a device loss;
/// `args` are its vector additional arguments, which keep their own
/// distribution and are only refreshed. Bounded by `device_count + 4`
/// attempts; non-injected errors, exhausted retries and unrecoverable state
/// all surface the original typed error.
pub(crate) fn run_recoverable<T>(
    runtime: &Arc<SkelCl>,
    inputs: &[&dyn DynContainer],
    args: &[&dyn DynContainer],
    attempt: &mut dyn FnMut() -> Result<T>,
) -> Result<T> {
    let max_attempts = runtime.device_count() + EXTRA_ATTEMPTS;
    let mut attempts = 0;
    loop {
        attempts += 1;
        let outcome = attempt();
        // The queue-clean rule; it also drops what a failed attempt latched
        // elsewhere, which a replay's reads must not surface as its own.
        let latched = runtime.take_deferred_errors().into_iter().next();
        let e = match (outcome, latched) {
            (Ok(value), None) => {
                if attempts > 1 {
                    runtime.note_recovery();
                }
                return Ok(value);
            }
            (Ok(_), Some((_, latched))) => latched.into(),
            (Err(e), _) => e,
        };
        for container in inputs.iter().chain(args) {
            container.distrust_devices();
        }
        if !runtime.recovery_enabled() || !e.is_injected_fault() || attempts >= max_attempts {
            return Err(e);
        }
        // Graceful degradation: a refresh error means the authoritative copy
        // is no longer gatherable (e.g. it lived on the lost device).
        for container in inputs.iter().chain(args) {
            container.refresh_for_replay()?;
        }
        if e.is_device_lost() || !runtime.lost_devices().is_empty() {
            runtime.settle_losses();
            let Some(weights) = runtime.recovery_weights() else {
                // No device survives: nothing to replay onto.
                return Err(e);
            };
            // Graceful degradation: a repartition error means the lost
            // device held the only copy of some input part.
            for input in inputs {
                input.repartition_for_recovery(&weights)?;
            }
            runtime.note_repartition();
        }
        runtime.note_replayed_launches(1);
    }
}
