//! The unified container core: **one** host ↔ device coherence and
//! distribution implementation shared by every SkelCL container.
//!
//! Historically [`crate::vector::Vector`] (1-D) and [`crate::matrix::Matrix`]
//! (2-D) each carried their own copy of the lazy-transfer machinery — validity
//! flags, per-device buffer bookkeeping, upload/download/halo-exchange loops.
//! This module collapses that duplication into three layers:
//!
//! 1. **`Storage<T>`** — the coherence core. It owns the host copy, the
//!    per-device buffers and the validity state (`host_valid` /
//!    `devices_valid` / `halos_valid`), and implements the *only* transfer
//!    paths in the crate: lazy upload (`Storage::ensure_on_devices`), lazy
//!    gather (`Storage::download_to_host`) and the halo-only exchange
//!    (`Storage::refresh_halos`). `Storage` never looks at what kind of
//!    container it backs: everything geometric is delegated to the stored
//!    layout below. Uploads and gathers cross the host by definition; the
//!    halo exchange does not — a neighbour's rows go owner read → forwarded
//!    write, an edge row the device owns itself is an on-device copy, and
//!    the host only enqueues the commands and reads their events (errors
//!    still surface synchronously; its virtual clock pays enqueue overheads
//!    only). Padding filled from a neighbour may be stored several
//!    halo widths deep and then exchanged once per that many sweeps
//!    (`ghost_sweeps` counts what is left), and `Storage::repad` changes how
//!    deep without the host.
//!
//! 2. **[`RowPartition`]** — the one stored layout. Every container is
//!    `rows × cols` elements split by a [`Distribution`] at whole rows (a
//!    vector is `len × 1`), each part padded by a halo width that only
//!    stencil inputs have. The layout describes every device part as plain
//!    data — *segments* — that `Storage` turns into transfers:
//!    * [`PartSegment`]s say how to assemble a part for upload (host ranges
//!      plus policy-filled padding),
//!    * a *gather segment* says which region of a part is authoritative on
//!      download,
//!    * [`HaloSegment`]s say which padding regions are refreshed from which
//!      neighbour — or from the device's own core rows, or by a fill —
//!      between stencil sweeps.
//!
//! 3. **[`Container`]** — the uniform launch interface of the data-parallel
//!    skeletons. `Map`, `Zip` and `Reduce` are written against this trait
//!    (element count, parts, ensure-on-device, zip unification, output
//!    adoption), so they execute over a `Vector` or a row-block `Matrix`
//!    through the *same* code path — same kernels, same telemetry
//!    ([`crate::runtime::SkelCl::exec_trace`]), no per-container forks. Its
//!    object-safe supertrait [`DynContainer`] is the type-erased view the
//!    one prepare stage and the one recovery wrapper see every input
//!    through.
//!
//! `Vector` and `Matrix` themselves are thin views over a `Storage`: they
//! translate user-facing concepts (element ranges, rows × columns, boundary
//! policies) into the vocabulary above and contain no transfer logic of
//! their own.

use std::ops::Range;
use std::sync::Arc;

use oclsim::{Buffer, Pod};

use crate::distribution::{Combine, Distribution, Partition, RowPartition};
use crate::error::{Result, SkelError};
use crate::runtime::{DeviceSelection, SkelCl};
use crate::skeletons::{claim_read, wait_events};

// ---------------------------------------------------------------------------
// Segment vocabulary: how layouts describe parts to the coherence core
// ---------------------------------------------------------------------------

/// Element-type-erased edge policy of a layout's padding regions — the
/// shape-agnostic face of [`crate::distribution::Boundary`]. The constant of
/// `Boundary::Constant` stays in the `Storage` (which knows the element
/// type); the layout only distinguishes "resolve to a real element"
/// (`Clamp` / `Wrap`) from "fill with the stored constant" (`Fill`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgePolicy {
    /// Out-of-range coordinates clamp to the nearest valid element.
    Clamp,
    /// Out-of-range coordinates wrap around (torus topology).
    Wrap,
    /// Out-of-range regions are filled with the storage's fill constant.
    Fill,
}

/// One piece of a device part as assembled for upload, in storage order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartSegment {
    /// A contiguous element range of the host copy.
    Host(Range<usize>),
    /// `len` elements of the storage's fill constant (policy-filled padding
    /// beyond the container edges).
    Fill {
        /// Number of fill elements.
        len: usize,
    },
}

/// One padding region of a stored part and where its fresh contents come
/// from during a halo-only exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HaloSegment {
    /// Fill `len` elements at `dst_offset` (within the stored part) with the
    /// storage's fill constant.
    Fill {
        /// Element offset within the destination part.
        dst_offset: usize,
        /// Number of fill elements.
        len: usize,
    },
    /// Copy `len` elements from element `src_offset` of `owner`'s stored
    /// part into the destination part at `dst_offset`.
    Remote {
        /// Element offset within the destination part.
        dst_offset: usize,
        /// Device whose part holds the authoritative copy.
        owner: usize,
        /// Element offset within the owner's stored part.
        src_offset: usize,
        /// Number of elements moved.
        len: usize,
    },
}

// ---------------------------------------------------------------------------
// Storage: the one coherence implementation
// ---------------------------------------------------------------------------

/// Where the authoritative copy of a container's data currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residence {
    /// Only the host copy is valid.
    HostOnly,
    /// Only the device copies are valid.
    DevicesOnly,
    /// Host and devices agree.
    Shared,
}

/// The shared host + multi-device storage behind every SkelCL container:
/// host data, per-device parts, validity flags and the lazy coherence
/// machinery. All geometry comes from the stored [`RowPartition`].
pub(crate) struct Storage<T: Pod> {
    pub(crate) runtime: Arc<SkelCl>,
    pub(crate) host: Vec<T>,
    pub(crate) host_valid: bool,
    pub(crate) devices_valid: bool,
    /// Whether the halo padding of the device parts is fresh for the next
    /// sweep (trivially true for layouts without halos).
    pub(crate) halos_valid: bool,
    /// How many more sweeps the padding filled from neighbouring devices
    /// supports before it must be exchanged again. The regions a device
    /// refreshes by itself go stale with every sweep regardless, so
    /// `halos_valid` implies `ghost_sweeps >= 1`, not the reverse.
    pub(crate) ghost_sweeps: usize,
    pub(crate) distribution: Distribution,
    /// How the parts are stored: `distribution` over whole rows, padded by
    /// the halo (and any deeper ghost zone).
    pub(crate) layout: RowPartition,
    pub(crate) buffers: Vec<Option<Buffer>>,
    /// How padding beyond the container edges is resolved.
    pub(crate) edge: EdgePolicy,
    /// The constant used by [`EdgePolicy::Fill`] padding.
    pub(crate) fill: Option<T>,
    /// How per-device replicas are merged when leaving a replicated
    /// distribution.
    pub(crate) combine: Combine<T>,
}

impl<T: Pod> Storage<T> {
    /// Host-resident `rows × cols` storage (no device transfer until first
    /// device use).
    pub(crate) fn new_host(
        runtime: Arc<SkelCl>,
        host: Vec<T>,
        (rows, cols): (usize, usize),
        distribution: Distribution,
    ) -> Storage<T> {
        let devices = runtime.device_count();
        let layout = RowPartition::compute(rows, cols, devices, &distribution, 0);
        Storage {
            runtime,
            host,
            host_valid: true,
            devices_valid: false,
            halos_valid: false,
            ghost_sweeps: 0,
            distribution,
            layout,
            buffers: vec![None; devices],
            edge: EdgePolicy::Clamp,
            fill: None,
            combine: Combine::KeepFirst,
        }
    }

    /// Device-resident storage (skeleton outputs): the data already lives in
    /// per-device buffers, stored as `layout` says; the host copy — and any
    /// halo padding — is stale.
    pub(crate) fn new_device_resident(
        runtime: Arc<SkelCl>,
        distribution: Distribution,
        layout: RowPartition,
        buffers: Vec<Option<Buffer>>,
        edge: EdgePolicy,
        fill: Option<T>,
    ) -> Storage<T> {
        Storage {
            runtime,
            host: Vec::new(),
            host_valid: false,
            devices_valid: true,
            halos_valid: false,
            ghost_sweeps: 0,
            distribution,
            layout,
            buffers,
            edge,
            fill,
            combine: Combine::KeepFirst,
        }
    }

    /// Where the authoritative data currently lives.
    pub(crate) fn residence(&self) -> Residence {
        match (self.host_valid, self.devices_valid) {
            (true, true) => Residence::Shared,
            (true, false) => Residence::HostOnly,
            (false, true) => Residence::DevicesOnly,
            // By construction one side is always valid; if a corrupted state
            // ever violates that, report the host side rather than panicking
            // on a runtime path.
            (false, false) => {
                debug_assert!(false, "container lost both copies");
                Residence::HostOnly
            }
        }
    }

    /// Release every device buffer back to the context.
    pub(crate) fn release_buffers(&mut self) {
        for buf in self.buffers.iter_mut() {
            if let Some(b) = buf.take() {
                // A failure here would mean the buffer was already released,
                // which cannot happen while the storage owns it; ignore.
                let _ = self.runtime.context().release_buffer(&b);
            }
        }
    }

    /// The fill constant, for layouts whose padding is policy-filled.
    /// Fill-edged storages always carry their constant; degrade to the
    /// all-zero bit pattern rather than panicking on a runtime path.
    fn fill_value(&self) -> T {
        debug_assert!(self.fill.is_some() || !matches!(self.edge, EdgePolicy::Fill));
        self.fill.unwrap_or_else(|| vec_uninit_len::<T>(1)[0])
    }

    /// Lazy upload: make the data present on the devices under the current
    /// layout. Parts are assembled from the layout's upload segments; a part
    /// that is one whole host range is written straight from the host copy
    /// without staging.
    pub(crate) fn ensure_on_devices(&mut self) -> Result<()> {
        if self.devices_valid {
            return Ok(());
        }
        debug_assert!(self.host_valid, "either host or devices must be valid");
        for device in 0..self.layout.device_count() {
            let stored = self.layout.stored_len(device);
            if stored == 0 {
                continue;
            }
            // A replica on a device the recovery layer has given up serves no
            // launch and loses no data: leave it out, so a replicated
            // container (a copy-distributed additional argument, say) can be
            // uploaded again for the replay that follows a device loss.
            if self.distribution == Distribution::Copy && self.runtime.is_settled_lost(device) {
                continue;
            }
            let buffer = match &self.buffers[device] {
                Some(b) if b.len() == stored => b.clone(),
                _ => {
                    if let Some(old) = self.buffers[device].take() {
                        let _ = self.runtime.context().release_buffer(&old);
                    }
                    let b = self.runtime.context().create_buffer::<T>(device, stored)?;
                    self.buffers[device] = Some(b.clone());
                    b
                }
            };
            let segments = self.layout.upload_segments(device, self.edge);
            match segments.as_slice() {
                [PartSegment::Host(range)] => {
                    debug_assert_eq!(range.len(), stored);
                    self.runtime
                        .queue(device)
                        .enqueue_write_buffer(&buffer, &self.host[range.clone()])?;
                }
                _ => {
                    let mut part = Vec::with_capacity(stored);
                    for segment in &segments {
                        match segment {
                            PartSegment::Host(range) => {
                                part.extend_from_slice(&self.host[range.clone()])
                            }
                            PartSegment::Fill { len } => {
                                part.resize(part.len() + len, self.fill_value())
                            }
                        }
                    }
                    debug_assert_eq!(part.len(), stored);
                    self.runtime
                        .queue(device)
                        .enqueue_write_buffer(&buffer, &part)?;
                }
            }
        }
        self.devices_valid = true;
        self.halos_valid = true;
        self.ghost_sweeps = self.layout.ghost_depth(self.edge);
        Ok(())
    }

    /// Lazy gather: bring the authoritative data back to the host. Disjoint
    /// layouts concatenate the owned region of every part; replicated
    /// layouts read one device's copy and merge the others through the
    /// [`Combine`] function (after which the individual replicas are stale).
    pub(crate) fn download_to_host(&mut self) -> Result<()> {
        if self.host_valid {
            return Ok(());
        }
        debug_assert!(self.devices_valid, "either host or devices must be valid");
        let len = self.layout.len();
        if len == 0 {
            self.host = Vec::new();
            self.host_valid = true;
            return Ok(());
        }
        if self.distribution == Distribution::Copy {
            let actives = self.layout.active_devices();
            let first = *actives.first().ok_or(SkelError::EmptyInput)?;
            // Enqueue the read of every replica before claiming any, so the
            // reads overlap in virtual time; the merge then consumes the
            // payloads in device order (the combine function may be
            // non-commutative). Trade-off: each unclaimed read holds one
            // replica-sized payload, so the transient peak is
            // ~(replicas + 2) × len during a combining gather.
            let merge_all = matches!(self.combine, Combine::Func(_));
            let mut pending = Vec::new();
            for &device in &actives {
                if device != first && !merge_all {
                    continue;
                }
                let buffer = self.buffers[device].as_ref().ok_or_else(|| {
                    SkelError::Distribution("replicated container has no device buffer".into())
                })?;
                let event = self
                    .runtime
                    .queue(device)
                    .enqueue_read_buffer_region_nb::<T>(buffer, 0, len)?;
                pending.push((device, event));
            }
            let mut host = vec_uninit_len::<T>(len);
            // The merge staging buffer is only needed when replicas are
            // actually combined (Combine::KeepFirst reads one device only).
            let mut other = if merge_all {
                vec_uninit_len::<T>(len)
            } else {
                Vec::new()
            };
            for (device, event) in pending {
                let dst = if device == first {
                    &mut host
                } else {
                    &mut other
                };
                claim_read(&self.runtime, device, &event, dst)?;
                if device != first {
                    if let Combine::Func(f) = &self.combine {
                        f(&mut host, &other);
                    }
                }
            }
            if merge_all {
                // After combining, the individual device copies are stale.
                self.devices_valid = false;
            }
            self.host = host;
        } else {
            // Enqueue every part's read before claiming any: downloads from
            // different devices overlap in virtual time (no host-clock sync
            // serialises them).
            let mut pending = Vec::new();
            for device in 0..self.layout.device_count() {
                let Some((src_offset, dst)) = self.layout.gather_segment(device) else {
                    continue;
                };
                if dst.is_empty() {
                    continue;
                }
                let buffer = self.buffers[device].as_ref().ok_or_else(|| {
                    SkelError::Distribution(format!(
                        "device {device} should hold elements {dst:?} but has no buffer"
                    ))
                })?;
                let event = self
                    .runtime
                    .queue(device)
                    .enqueue_read_buffer_region_nb::<T>(buffer, src_offset, dst.len())?;
                pending.push((device, dst, event));
            }
            let mut host = vec_uninit_len::<T>(len);
            for (device, dst, event) in pending {
                claim_read(&self.runtime, device, &event, &mut host[dst])?;
            }
            self.host = host;
        }
        self.host_valid = true;
        Ok(())
    }

    /// Halo-only re-coherence: re-fill the padding regions of every stored
    /// part from the owners' current core data (and the edge policy at the
    /// container edges) without touching any core data — and without the
    /// host in the loop. Everything is enqueued first, then joined:
    ///
    /// 1. every cross-device [`HaloSegment::Remote`] becomes a non-blocking
    ///    read on its owner's queue (all reads before any forward, so the
    ///    owners' transfers run side by side);
    /// 2. a segment whose owner *is* the destination device (the `Clamp` /
    ///    `Wrap` edge rows) is one device-local copy, a
    ///    [`HaloSegment::Fill`] one fill;
    /// 3. each read is forwarded into a write on the destination's queue,
    ///    which waits for it on the device side (see
    ///    [`oclsim::CommandQueue::enqueue_write_buffer_from_read`]).
    ///
    /// `sweeps` is how many sweeps the exchange is to pay for: the regions
    /// filled from neighbouring devices are exchanged that many halo widths
    /// deep (at most as deep as the layout stores them) and then left alone
    /// for that many sweeps — while they still hold a sweep's worth, only
    /// step 2 runs.
    ///
    /// The host's virtual clock advances by the enqueue overheads only; the
    /// next sweep's kernel is ordered behind its halo writes by the in-order
    /// queue, and reading the commands' events at the end moves no clock, so
    /// a lost device or a transient fault still surfaces here, synchronously,
    /// for the recovery layer. Halo telemetry: one [`SkelCl::charge_halo_transfer`] per
    /// command, on the device that executes it.
    pub(crate) fn refresh_halos(&mut self, sweeps: usize) -> Result<()> {
        debug_assert!(self.devices_valid);
        if self.halos_valid || self.layout.halo() == 0 {
            self.halos_valid = true;
            return Ok(());
        }
        let exchanged = if self.ghost_sweeps > 0 {
            0
        } else {
            sweeps.clamp(1, self.layout.ghost_depth(self.edge))
        };
        let mut events = Vec::new();
        let enqueued = self.enqueue_halo_exchange(&mut events, exchanged);
        // Read whatever was enqueued even if a later enqueue was rejected:
        // nothing of this exchange may stay latched.
        let joined = wait_events(&self.runtime, events);
        enqueued?;
        joined?;
        self.halos_valid = true;
        self.ghost_sweeps = self.ghost_sweeps.max(exchanged);
        Ok(())
    }

    /// Enqueue one halo exchange, `sweeps` halo widths deep between devices
    /// (see [`Storage::refresh_halos`]), pushing every command's
    /// `(device, event)` onto `events` in enqueue order.
    fn enqueue_halo_exchange(
        &self,
        events: &mut Vec<(usize, oclsim::EventHandle)>,
        sweeps: usize,
    ) -> Result<()> {
        let elem = std::mem::size_of::<T>();
        let buffer_of = |device: usize| {
            self.buffers[device].as_ref().ok_or_else(|| {
                SkelError::Internal(format!(
                    "halo refresh: device {device} takes part in the exchange but has no buffer"
                ))
            })
        };
        let mut exchange = Vec::new();
        for device in self.layout.active_devices() {
            let segments = self.layout.halo_segments(device, self.edge, sweeps);
            if !segments.is_empty() {
                exchange.push((device, buffer_of(device)?, segments));
            }
        }
        // Every command is charged to its device's halo counters and kept
        // for the join.
        let mut enqueued = |device: usize, len: usize, event: oclsim::EventHandle| {
            self.runtime.charge_halo_transfer(device, len * elem);
            events.push((device, event));
        };
        // (destination device, its buffer, offset in it, len, the owner's read)
        let mut reads = Vec::new();
        for (device, dst, segments) in &exchange {
            for segment in segments {
                match *segment {
                    HaloSegment::Remote {
                        dst_offset,
                        owner,
                        src_offset,
                        len,
                    } if len > 0 && owner != *device => {
                        let read = self
                            .runtime
                            .queue(owner)
                            .enqueue_read_buffer_region_nb::<T>(
                                buffer_of(owner)?,
                                src_offset,
                                len,
                            )?;
                        enqueued(owner, len, read.clone());
                        reads.push((*device, *dst, dst_offset, len, read));
                    }
                    _ => {}
                }
            }
        }
        for (device, dst, segments) in &exchange {
            let queue = self.runtime.queue(*device);
            for segment in segments {
                match *segment {
                    HaloSegment::Fill { dst_offset, len } if len > 0 => {
                        let fill = self.fill_value();
                        enqueued(
                            *device,
                            len,
                            queue.enqueue_fill_buffer_region(dst, dst_offset, fill, len)?,
                        );
                    }
                    HaloSegment::Remote {
                        dst_offset,
                        owner,
                        src_offset,
                        len,
                    } if len > 0 && owner == *device => enqueued(
                        *device,
                        len,
                        queue.enqueue_copy_buffer_region::<T>(
                            dst, src_offset, dst, dst_offset, len,
                        )?,
                    ),
                    _ => {}
                }
            }
        }
        for (device, dst, dst_offset, len, read) in reads {
            let forward = self
                .runtime
                .queue(device)
                .enqueue_write_buffer_from_read::<T>(dst, dst_offset, len, &read)?;
            enqueued(device, len, forward);
        }
        Ok(())
    }

    /// Prepare the container for device use: upload if the host holds the
    /// newer copy, otherwise refresh any stale halo padding (the
    /// between-sweeps path of iterative stencils) so that it lasts `sweeps`
    /// sweeps where the layout stores that much.
    pub(crate) fn prepare_on_devices(&mut self, sweeps: usize) -> Result<()> {
        if self.devices_valid {
            self.refresh_halos(sweeps)
        } else {
            self.ensure_on_devices()
        }
    }

    /// Adopt `layout` — the same owned elements per device, stored with
    /// different padding — without the host: every resident part's owned
    /// region is copied on its device into a buffer of the new stored length
    /// and the padding is left stale. On an error the storage is unchanged.
    pub(crate) fn repad(&mut self, layout: RowPartition) -> Result<()> {
        if self.devices_valid {
            let mut fresh = vec![None; self.buffers.len()];
            let mut events = Vec::new();
            let enqueued = layout.active_devices().into_iter().try_for_each(|device| {
                let (Some((from, owned)), Some((to, _)), Some(old)) = (
                    self.layout.gather_segment(device),
                    layout.gather_segment(device),
                    &self.buffers[device],
                ) else {
                    return Ok(());
                };
                let stored = layout.stored_len(device);
                let new = self.runtime.context().create_buffer::<T>(device, stored)?;
                fresh[device] = Some(new.clone());
                let queue = self.runtime.queue(device);
                let copy =
                    queue.enqueue_copy_buffer_region::<T>(old, from, &new, to, owned.len())?;
                events.push((device, copy));
                Ok(())
            });
            let joined = wait_events(&self.runtime, events);
            if let Err(e) = enqueued.and(joined) {
                for buffer in fresh.iter().flatten() {
                    let _ = self.runtime.context().release_buffer(buffer);
                }
                return Err(e);
            }
            self.release_buffers();
            self.buffers = fresh;
        }
        self.layout = layout;
        self.stale_halos();
        Ok(())
    }

    /// The padding no longer matches anything: the next device use refreshes
    /// all of it.
    pub(crate) fn stale_halos(&mut self) {
        self.halos_valid = false;
        self.ghost_sweeps = 0;
    }

    /// Change the distribution, halo width and edge policy: the
    /// authoritative state is brought to the host (merging replicas), the
    /// old device buffers are released, and the next device use re-uploads
    /// under the new layout.
    pub(crate) fn redistribute(
        &mut self,
        distribution: Distribution,
        halo: usize,
        edge: EdgePolicy,
        fill: Option<T>,
    ) -> Result<()> {
        let devices = self.runtime.device_count();
        distribution.validate(devices)?;
        self.download_to_host()?;
        self.release_buffers();
        self.devices_valid = false;
        self.stale_halos();
        let (rows, cols) = (self.layout.rows(), self.layout.cols());
        self.layout = RowPartition::compute(rows, cols, devices, &distribution, halo);
        self.distribution = distribution;
        self.edge = edge;
        self.fill = fill;
        Ok(())
    }

    /// Stop trusting the device image after a launch over this storage
    /// failed. An upload is recorded by the coherence flags when it is
    /// *enqueued*; one that failed transiently never executed, so the storage
    /// may believe in a device copy the data never reached. With a valid host
    /// copy nothing is lost by dropping the claim — the next device use
    /// uploads again; device-only data is the only copy and is kept.
    pub(crate) fn distrust_devices(&mut self) {
        if self.host_valid {
            self.devices_valid = false;
            self.stale_halos();
        }
    }

    /// Re-establish a trustworthy device image before a fault-recovery
    /// replay: gather the authoritative copy to the host (a no-op when the
    /// host is already valid; failed commands have no side effects, so device
    /// data is intact otherwise) and drop device validity
    /// ([`Storage::distrust_devices`]), forcing the replay to re-upload.
    pub(crate) fn refresh_for_replay(&mut self) -> Result<()> {
        self.download_to_host()?;
        self.distrust_devices();
        Ok(())
    }

    /// Declare that a kernel modified the device data through a channel the
    /// runtime cannot see: the host copy and the halo padding are stale.
    pub(crate) fn mark_device_modified(&mut self) {
        if self.devices_valid {
            self.host_valid = false;
            self.stale_halos();
        }
    }

    /// Invalidate the device copies after a host-side mutation; the next
    /// device use re-uploads lazily.
    pub(crate) fn invalidate_devices(&mut self) {
        self.release_buffers();
        self.devices_valid = false;
        self.stale_halos();
        self.host_valid = true;
    }

    /// Recompute the layout after a shape change (host-side resize).
    pub(crate) fn reshape(&mut self, rows: usize, cols: usize) {
        let (devices, halo) = (self.runtime.device_count(), self.layout.halo());
        self.layout = RowPartition::compute(rows, cols, devices, &self.distribution, halo);
    }

    /// The device buffers a launch writing into this storage (`run_into`) may
    /// write in place: per device the existing buffer when it holds exactly
    /// the `lens[device]` elements the launch writes there — the hot path of
    /// chained pipelines and of the stencil ping-pong — and `None` where it
    /// does not (the launch allocates those).
    ///
    /// Does **not** mutate the storage: replaced buffers stay owned by it
    /// until `Storage::commit_as_output` adopts the new set after a
    /// successful launch, so a failed launch leaves the container intact.
    pub(crate) fn obtain_output_buffers(&self, lens: &[usize]) -> Vec<Option<Buffer>> {
        let elem = std::mem::size_of::<T>();
        lens.iter()
            .enumerate()
            .map(|(device, &want)| {
                self.buffers
                    .get(device)
                    .and_then(|slot| slot.as_ref())
                    .filter(|b| want > 0 && b.len() == want && b.len_bytes() == want * elem)
                    .cloned()
            })
            .collect()
    }

    /// Commit this storage as the output of a skeleton launch that wrote the
    /// given buffers: adopt distribution, stored layout and buffers; the
    /// devices now hold the authoritative copy and the host copy is stale.
    pub(crate) fn commit_as_output(
        &mut self,
        distribution: Distribution,
        layout: RowPartition,
        buffers: Vec<Option<Buffer>>,
    ) -> Result<()> {
        // Release any old buffer that was replaced rather than reused.
        let new_ids: Vec<_> = buffers.iter().flatten().map(|b| b.id()).collect();
        let stale: Vec<Buffer> = self
            .buffers
            .iter_mut()
            .filter_map(|old| old.take())
            .filter(|b| !new_ids.contains(&b.id()))
            .collect();
        for b in stale {
            let _ = self.runtime.context().release_buffer(&b);
        }
        self.layout = layout;
        self.distribution = distribution;
        self.buffers = buffers;
        self.host_valid = false;
        self.devices_valid = true;
        self.stale_halos();
        Ok(())
    }
}

impl<T: Pod> Drop for Storage<T> {
    fn drop(&mut self) {
        self.release_buffers();
    }
}

/// Create a `Vec<T>` of the given length whose contents will be overwritten
/// immediately by a device read: `len` copies of the all-zero-bytes value,
/// in one allocation (part gathers are multi-megabyte, and transient
/// allocations of that size are what the allocator handles worst).
pub(crate) fn vec_uninit_len<T: Pod>(len: usize) -> Vec<T> {
    let zero = oclsim::pod::from_bytes_vec::<T>(&vec![0u8; std::mem::size_of::<T>()])[0];
    vec![zero; len]
}

// ---------------------------------------------------------------------------
// Container: the uniform skeleton-launch interface
// ---------------------------------------------------------------------------

/// The object-safe view of a [`Container`]: everything a skeleton call needs
/// from an input without knowing its element type or shape — identity and
/// size, the launch-time layout overrides, the upload, and the fault-recovery
/// hooks. The one prepare stage (`skeletons::exec`) and the one recovery
/// wrapper (`recovery`) see every input through it: the containers of an
/// eager call, the sources of a lazy plan, the vector additional arguments of
/// a call, and the implicit index range of an index map (which owns an
/// iteration space and no buffer).
pub trait DynContainer: Send + Sync {
    /// Stable identity (used to detect aliasing between launch inputs and
    /// `run_into` targets).
    fn id(&self) -> u64;

    /// Total number of elements.
    fn elem_count(&self) -> usize;

    /// Whether the container has no elements.
    fn is_empty(&self) -> bool {
        self.elem_count() == 0
    }

    /// Check that this container belongs to `runtime`.
    fn check_runtime(&self, runtime: &Arc<SkelCl>) -> Result<()>;

    /// Apply a launch-time device selection by overriding the distribution.
    fn apply_selection(&self, selection: &DeviceSelection) -> Result<()>;

    /// Apply an attached scheduler's weighted block distribution (Section V
    /// of the paper). Containers without a weighted layout reject the
    /// scheduler with a clear error.
    fn apply_scheduler(&self, weighted: Distribution) -> Result<()>;

    /// Coerce to the default disjoint layout (block, without a halo) — what
    /// inputs whose distributions disagree are unified to.
    fn coerce_to_block(&self) -> Result<()>;

    /// Coerce a replicated (copy) distribution to the disjoint block
    /// layout. Skeletons that must visit every element exactly once
    /// (reduce, scan) call this first: the per-device replicas are merged
    /// through the container's combine function, and each element ends up
    /// owned by exactly one device.
    fn ensure_disjoint(&self) -> Result<()>;

    /// Re-partition the container's data across the devices by weight (a
    /// zero weight excludes that device entirely) — the fault-recovery
    /// layer's path for moving work off lost devices onto the survivors.
    /// The implied exchange goes through the host like any redistribution,
    /// so it requires a host-valid (or gatherable) authoritative copy.
    fn repartition_for_recovery(&self, weights: &[f64]) -> Result<()>;

    /// Make the device image trustworthy again before a fault-recovery
    /// replay: a transiently failed transfer was recorded by the coherence
    /// flags when enqueued but never executed. Gathers the authoritative
    /// copy to the host if needed and invalidates the device copies so the
    /// replay re-uploads.
    fn refresh_for_replay(&self) -> Result<()>;

    /// Stop trusting the device copies after a launch over this container
    /// failed, when the host still holds the data: an upload the launch
    /// enqueued may never have landed, and the next device use must not
    /// build on it. Costs nothing now; the next use uploads again.
    fn distrust_devices(&self);

    /// Upload lazily and return the flat element partition a kernel iterates
    /// plus the per-device buffers. Element-wise kernels cannot iterate
    /// halo-padded stencil layouts, so those are coerced away
    /// (`halo_sweeps == 0`) unless the stencil sweep itself asks for the
    /// padded parts, with halos fresh for `halo_sweeps` sweeps where the
    /// layout stores that much.
    fn prepare_parts(&self, halo_sweeps: usize) -> Result<(Partition, Vec<Option<Buffer>>)>;

    /// The current 1-D distribution of the container's flat element space,
    /// if it has one (used by vector-specific skeletons and plans); matrices
    /// return `None`.
    fn flat_distribution(&self) -> Option<Distribution> {
        None
    }

    /// Append the elements to `out` as raw host bytes, reading the host copy
    /// in place (job packing lays many jobs' inputs back to back in one
    /// device buffer).
    fn append_host_bytes(&self, out: &mut Vec<u8>) -> Result<()>;
}

/// A distributed SkelCL container — the uniform interface the element-wise
/// skeletons ([`crate::skeletons::Map`], [`crate::skeletons::Zip`],
/// [`crate::skeletons::Reduce`]) launch against, implemented by
/// [`crate::vector::Vector`] and [`crate::matrix::Matrix`].
///
/// The element-type-independent essentials (element count, layout
/// overrides, upload, recovery hooks) live in the object-safe supertrait
/// [`DynContainer`]; this trait adds what needs the element type or the
/// container's shape: distribution unification for zip, and shape-aware
/// output adoption. The [`Container::Rebound`] associated type
/// names the same-shaped container with a different element type, which is
/// how `map(f): C<I> -> C<O>` stays shape-preserving generically.
pub trait Container<T: Pod>: DynContainer + Clone {
    /// The same-shaped container holding `O` elements (map/zip outputs).
    type Rebound<O: Pod>: Container<O>;

    /// The runtime this container belongs to.
    fn runtime(&self) -> Arc<SkelCl>;

    /// Per-device element counts of the owned parts under the current
    /// distribution.
    fn part_sizes(&self) -> Vec<usize>;

    /// Force the lazy upload now (the C++ library's `copyDataToDevices()`).
    fn ensure_on_devices(&self) -> Result<()>;

    /// Coerce `self` and `other` (same shape, possibly different element
    /// type) to one common element-wise layout — the paper's distribution
    /// unification for zip. Errors if the shapes are incompatible.
    fn unify_with<B: Pod>(&self, other: &Self::Rebound<B>) -> Result<()>;

    /// The buffers a launch writing into this container (`run_into`) may
    /// write in place: its existing device buffers where they hold exactly
    /// `lens[device]` elements, `None` where the launch has to allocate.
    fn obtain_output_buffers(&self, lens: &[usize]) -> Vec<Option<Buffer>>;

    /// Wrap freshly written per-device buffers as a device-resident output
    /// container of this container's shape and distribution.
    fn wrap_output<O: Pod>(&self, buffers: Vec<Option<Buffer>>) -> Self::Rebound<O>;

    /// Commit `out` as the output of a launch over `self` that wrote the
    /// given buffers: `out` adopts `self`'s shape and distribution.
    fn commit_output<O: Pod>(
        &self,
        out: &Self::Rebound<O>,
        buffers: Vec<Option<Buffer>>,
    ) -> Result<()>;
}
