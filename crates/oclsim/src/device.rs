//! The simulated device: profile + global-memory allocator.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::buffer::{Buffer, DataKind};
use crate::error::{OclError, Result};
use crate::fault::{CommandClass, FaultKind, FaultSpec, FaultTrigger};
use crate::pod::{self, Pod};
use crate::profile::{DeviceProfile, DeviceType};
use crate::time::SimTime;

/// Identifier of a device within a context (its index).
pub type DeviceId = usize;

/// Backing storage of one buffer. Data is kept in 8-byte words so that any
/// [`Pod`] type with alignment ≤ 8 can be viewed in place without copies.
#[derive(Debug, Clone)]
pub struct BufferData {
    words: Vec<u64>,
    len_bytes: usize,
    /// Storage revived from the buffer pool still holding its previous
    /// contents. Fresh-allocation (all-zero) semantics are established
    /// *lazily* on first access: a write zeroes only the bytes it does not
    /// cover (nothing at all for a full overwrite — the common
    /// upload-after-alloc path), a read or kernel launch settles the whole
    /// buffer.
    pending_zero: bool,
}

impl BufferData {
    /// Allocate zero-initialised storage of `len_bytes` bytes.
    pub fn new(len_bytes: usize) -> Self {
        BufferData {
            words: vec![0u64; len_bytes.div_ceil(8)],
            len_bytes,
            pending_zero: false,
        }
    }

    /// Length in bytes.
    pub fn len_bytes(&self) -> usize {
        self.len_bytes
    }

    /// Raw byte view.
    pub fn as_bytes(&self) -> &[u8] {
        &pod::as_bytes(&self.words)[..self.len_bytes]
    }

    /// Mutable raw byte view.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        let len = self.len_bytes;
        // SAFETY: u64 -> u8 reinterpretation of an exclusively borrowed,
        // fully initialised allocation; the byte length never exceeds the
        // word storage.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(
                self.words.as_mut_ptr().cast::<u8>(),
                self.words.len() * 8,
            )
        };
        &mut bytes[..len]
    }

    /// Typed view of the contents.
    pub fn as_slice<T: Pod>(&self) -> &[T] {
        pod::cast_slice(self.as_bytes())
    }

    /// Mutable typed view of the contents.
    pub fn as_slice_mut<T: Pod>(&mut self) -> &mut [T] {
        pod::cast_slice_mut(self.as_bytes_mut())
    }

    /// Establish fresh-allocation semantics now if the storage was revived
    /// from the pool and has not been settled yet.
    fn settle_zero(&mut self) {
        if self.pending_zero {
            self.words.fill(0);
            self.pending_zero = false;
        }
    }

    /// Settle a revived buffer around a write of `[offset, end)` bytes:
    /// zero only the uncovered ranges. Returns `true` when the write covers
    /// the whole buffer and no zeroing was needed at all.
    fn settle_zero_around(&mut self, offset: usize, end: usize) -> bool {
        debug_assert!(self.pending_zero);
        self.pending_zero = false;
        if offset == 0 && end == self.len_bytes {
            return true;
        }
        let total = self.words.len() * 8;
        // SAFETY: u64 -> u8 reinterpretation of an exclusively borrowed,
        // fully initialised allocation (same as `as_bytes_mut`, but over the
        // whole word storage so the tail padding is settled too).
        let bytes =
            unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), total) };
        bytes[..offset].fill(0);
        bytes[end..].fill(0);
        false
    }
}

/// Maximum number of parked allocations kept per size bucket of a device's
/// buffer pool; releases beyond this drop their storage for real.
const POOL_BUCKET_CAP: usize = 8;

/// Default high-water byte cap of a device's buffer pool (configurable per
/// device via [`Device::set_pool_cap_bytes`]); parking a release above the
/// cap evicts the least-recently-parked entries until the pool fits again.
const POOL_MAX_BYTES: usize = 256 * 1024 * 1024;

/// One parked allocation: the storage plus the monotonic sequence number of
/// the park operation, which orders evictions (oldest park evicted first).
#[derive(Debug)]
struct PooledEntry {
    seq: u64,
    data: BufferData,
}

/// The free list of one device: released storage parked by byte length.
/// Bounded by a per-bucket entry cap and a total high-water byte cap with
/// LRU (oldest-park-first) eviction.
#[derive(Debug)]
struct BufferPool {
    buckets: HashMap<usize, Vec<PooledEntry>>,
    total_bytes: usize,
    cap_bytes: usize,
    next_seq: u64,
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool {
            buckets: HashMap::new(),
            total_bytes: 0,
            cap_bytes: POOL_MAX_BYTES,
            next_seq: 0,
        }
    }
}

impl BufferPool {
    /// Evict least-recently-parked entries until `total_bytes <= cap_bytes`.
    /// Returns `(entries_evicted, bytes_evicted)`. Entries within a bucket
    /// are parked in sequence order, so each bucket's front is its oldest.
    fn trim_to_cap(&mut self) -> (usize, usize) {
        let mut evicted = 0usize;
        let mut evicted_bytes = 0usize;
        while self.total_bytes > self.cap_bytes {
            let oldest = self
                .buckets
                .iter()
                .filter_map(|(&len, bucket)| bucket.first().map(|e| (e.seq, len)))
                .min();
            let Some((_, len)) = oldest else { break };
            let bucket = self.buckets.get_mut(&len).expect("bucket exists");
            bucket.remove(0);
            if bucket.is_empty() {
                self.buckets.remove(&len);
            }
            self.total_bytes -= len;
            evicted += 1;
            evicted_bytes += len;
        }
        (evicted, evicted_bytes)
    }
}

/// The one record of kernel-tier counts: which kernel-language engine
/// handled each DSL launch, plus the native tier's compilation and batch
/// work. A device folds every launch's [`skelcl_kernel::LaunchTrace`] into
/// one ([`TierSnapshot::record`], snapshot with [`Device::kernel_tiers`]);
/// snapshots of several devices add up with `+=`. Native launches that fall
/// back to the interpreter — because the kernel is ineligible, or because
/// the very first batch bailed — count as interpreter launches. A tier, or a
/// count, is added or removed here and in `LaunchTrace`, nowhere else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierSnapshot {
    /// DSL launches executed by the AST interpreter.
    pub interp_launches: usize,
    /// DSL launches executed by the closure-compiled native tier.
    pub native_launches: usize,
    /// Kernels compiled to the native tier on this device.
    pub native_compiles: usize,
    /// Total wall-clock nanoseconds spent in native-tier compilation.
    pub native_compile_ns: u64,
    /// Lane batches the native tier completed.
    pub native_batches: u64,
    /// Of those, the batches whose lanes diverged and ran under partial lane
    /// masks (zero for straight-line kernels).
    pub masked_batches: u64,
    /// Lane batches the native tier aborted, rolled back and replayed
    /// through the interpreter (hazards, runtime errors, loop budget).
    pub replayed_batches: u64,
    /// Launches a replayed batch took off the native tier for their
    /// remainder (a cross-lane hazard); one that bailed on its very first
    /// batch counts under `interp_launches`, not `native_launches`.
    pub bailed_launches: usize,
}

impl TierSnapshot {
    /// Count one DSL kernel launch.
    pub fn record(&mut self, trace: &skelcl_kernel::LaunchTrace) {
        use skelcl_kernel::Tier;
        *match trace.tier {
            Tier::Interp => &mut self.interp_launches,
            // The trace's tier is always resolved before execution.
            Tier::Native => &mut self.native_launches,
        } += 1;
        if trace.native_compiled {
            self.native_compiles += 1;
            self.native_compile_ns += trace.native_compile_ns;
        }
        self.native_batches += trace.native_batches;
        self.masked_batches += trace.masked_batches;
        self.replayed_batches += trace.replayed_batches;
        self.bailed_launches += usize::from(trace.bailed);
    }
}

impl std::ops::AddAssign for TierSnapshot {
    fn add_assign(&mut self, other: TierSnapshot) {
        self.interp_launches += other.interp_launches;
        self.native_launches += other.native_launches;
        self.native_compiles += other.native_compiles;
        self.native_compile_ns += other.native_compile_ns;
        self.native_batches += other.native_batches;
        self.masked_batches += other.masked_batches;
        self.replayed_batches += other.replayed_batches;
        self.bailed_launches += other.bailed_launches;
    }
}

/// A simulated OpenCL device: a performance profile plus its dedicated
/// global memory, which holds the live buffer allocations.
#[derive(Debug)]
pub struct Device {
    /// Index of the device within its context.
    pub id: DeviceId,
    /// Performance characteristics.
    pub profile: DeviceProfile,
    storage: Mutex<HashMap<u64, BufferData>>,
    /// Size-bucketed free list: released allocations parked by byte length
    /// so repeated same-shape `create_buffer` calls (the skeleton
    /// `alloc_output` steady state) reuse the storage instead of hitting the
    /// allocator every launch. Revived buffers get a *fresh* id: recycling
    /// ids would turn an erroneous double release of a stale handle into
    /// silent destruction of an unrelated live buffer instead of the
    /// [`OclError::BufferNotFound`] it reports today.
    pool: Mutex<BufferPool>,
    pool_hits: AtomicUsize,
    /// Parked entries dropped by the pool's high-water LRU trim.
    pool_evictions: AtomicUsize,
    /// Bytes of parked storage dropped by the pool's high-water LRU trim.
    pool_evicted_bytes: AtomicUsize,
    /// Pool revivals whose first access was a full overwrite, so the
    /// fresh-allocation zeroing was elided entirely (see
    /// [`BufferData::settle_zero_around`]).
    zero_elisions: AtomicUsize,
    allocated: AtomicUsize,
    next_buffer_id: AtomicU64,
    /// Folded in by the queue after every DSL launch.
    tiers: Mutex<TierSnapshot>,
    /// Armed fault triggers from the context's [`crate::FaultPlan`]
    /// (shared by every queue of the device).
    fault_triggers: Mutex<Vec<FaultSpec>>,
    /// Set once a [`FaultKind::DeviceLost`] trigger fires (or
    /// [`Device::mark_lost`] is called): the device refuses all further
    /// commands and allocations.
    lost: AtomicBool,
    /// Commands that reached execution on this device, in queue order —
    /// the op counter [`crate::FaultTrigger::AtOpCount`] fires against.
    /// One op per executed command: a write, fill, read, device-local copy
    /// or launch counts once (a copy is *one* op, not a read plus a write).
    /// A command whose dependency failed — a kernel behind a failed wait
    /// list, a forwarded write whose source read failed — never reaches the
    /// device and is not counted.
    fault_ops: AtomicUsize,
    /// Fault triggers that have fired on this device (primary injections
    /// only; follow-on failures of a lost device are not counted).
    faults_fired: AtomicUsize,
}

impl Device {
    /// Create a device with the given index and profile.
    pub fn new(id: DeviceId, profile: DeviceProfile) -> Self {
        Device {
            id,
            profile,
            storage: Mutex::new(HashMap::new()),
            pool: Mutex::new(BufferPool::default()),
            pool_hits: AtomicUsize::new(0),
            pool_evictions: AtomicUsize::new(0),
            pool_evicted_bytes: AtomicUsize::new(0),
            zero_elisions: AtomicUsize::new(0),
            allocated: AtomicUsize::new(0),
            next_buffer_id: AtomicU64::new(1),
            tiers: Mutex::new(TierSnapshot::default()),
            fault_triggers: Mutex::new(Vec::new()),
            lost: AtomicBool::new(false),
            fault_ops: AtomicUsize::new(0),
            faults_fired: AtomicUsize::new(0),
        }
    }

    /// Arm a fault trigger on this device (normally via
    /// [`crate::Context::inject_faults`]).
    pub fn arm_fault(&self, spec: FaultSpec) {
        self.fault_triggers.lock().push(spec);
    }

    /// Administratively kill the device right now: every later command and
    /// allocation fails with [`OclError::DeviceLost`]. Counted as one
    /// injected fault.
    pub fn mark_lost(&self) {
        if !self.lost.swap(true, Ordering::SeqCst) {
            self.faults_fired.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Has the device been lost (by a fired [`FaultKind::DeviceLost`]
    /// trigger or [`Device::mark_lost`])?
    pub fn is_lost(&self) -> bool {
        self.lost.load(Ordering::SeqCst)
    }

    /// Fault triggers that have fired on this device so far (primary
    /// injections only — the cascade of failures a lost device produces
    /// afterwards is not counted).
    pub fn faults_injected(&self) -> usize {
        self.faults_fired.load(Ordering::Relaxed)
    }

    /// Commands that have reached execution on this device so far — the op
    /// counter [`FaultTrigger::AtOpCount`] fires against (the next command
    /// to execute is op `fault_op_count() + 1`).
    pub fn fault_op_count(&self) -> usize {
        self.fault_ops.load(Ordering::SeqCst)
    }

    /// Check a command that is about to execute against the device's armed
    /// fault triggers. Called by the queue with the command's virtual
    /// `start` *before* any side effect is applied, so a replayed
    /// command never executes twice. Bumps the per-device op counter,
    /// fires every due trigger whose kind matches `class`, and returns the
    /// injected error if one fired (or the device is already lost).
    /// Charges no virtual time when nothing fires.
    pub(crate) fn fault_check(&self, start: SimTime, class: CommandClass) -> Result<()> {
        let op = self.fault_ops.fetch_add(1, Ordering::SeqCst) + 1;
        let mut fired_lost = false;
        let mut fired_transient = false;
        {
            let mut armed = self.fault_triggers.lock();
            if !armed.is_empty() {
                armed.retain(|spec| {
                    let due = match spec.trigger {
                        FaultTrigger::AtOpCount(n) => op >= n,
                        FaultTrigger::AtVirtualTime(t) => start >= t,
                    };
                    if due && spec.kind.matches(class) {
                        match spec.kind {
                            FaultKind::DeviceLost => fired_lost = true,
                            _ => fired_transient = true,
                        }
                        false
                    } else {
                        true
                    }
                });
            }
        }
        if fired_lost {
            self.faults_fired.fetch_add(1, Ordering::Relaxed);
            self.lost.store(true, Ordering::SeqCst);
        }
        if self.is_lost() {
            return Err(OclError::DeviceLost { device: self.id });
        }
        if fired_transient {
            self.faults_fired.fetch_add(1, Ordering::Relaxed);
            return Err(OclError::TransientFault {
                device: self.id,
                class,
            });
        }
        Ok(())
    }

    /// Record which execution tier handled one DSL kernel launch (called by
    /// the queue with the launch's [`skelcl_kernel::LaunchTrace`]).
    pub(crate) fn note_kernel_tier(&self, trace: &skelcl_kernel::LaunchTrace) {
        self.tiers.lock().record(trace);
    }

    /// Snapshot this device's kernel-tier launch counters.
    pub fn kernel_tiers(&self) -> TierSnapshot {
        *self.tiers.lock()
    }

    /// Device kind (GPU / CPU / accelerator).
    pub fn device_type(&self) -> DeviceType {
        self.profile.device_type
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.profile.name
    }

    /// Bytes of device memory currently allocated.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Bytes of device memory still available.
    pub fn available_bytes(&self) -> usize {
        self.profile
            .memory_bytes
            .saturating_sub(self.allocated_bytes())
    }

    /// Number of live buffer allocations.
    pub fn live_buffers(&self) -> usize {
        self.storage.lock().len()
    }

    /// Allocate a buffer of `len` elements of type `T` on this device.
    ///
    /// Same-size allocations released earlier are served from the device's
    /// buffer pool: the parked storage is zeroed and revived (under a fresh
    /// id), so steady-state launch loops never touch the allocator.
    pub fn create_buffer<T: Pod>(&self, len: usize) -> Result<Buffer> {
        self.create_buffer_of(DataKind::of::<T>(), len)
    }

    /// Allocate a buffer of `len` elements of `kind` (see
    /// [`Device::create_buffer`]) — the type-erased form, for a copy of an
    /// existing buffer's shape.
    pub fn create_buffer_of(&self, kind: DataKind, len: usize) -> Result<Buffer> {
        if self.is_lost() {
            return Err(OclError::DeviceLost { device: self.id });
        }
        let len_bytes = len * kind.elem_size();
        let available = self.available_bytes();
        if len_bytes > available {
            return Err(OclError::OutOfDeviceMemory {
                requested: len_bytes,
                available,
            });
        }
        let recycled = {
            let mut pool = self.pool.lock();
            // Pop the most recently parked entry (LIFO keeps the storage
            // warm); eviction takes from the front, i.e. the oldest park.
            let data = pool
                .buckets
                .get_mut(&len_bytes)
                .and_then(Vec::pop)
                .map(|e| e.data);
            if data.is_some() {
                pool.total_bytes -= len_bytes;
            }
            data
        };
        let data = match recycled {
            Some(mut data) => {
                // Fresh-allocation semantics are established lazily: the
                // first command decides how much (if any) zeroing is needed.
                data.pending_zero = true;
                self.pool_hits.fetch_add(1, Ordering::Relaxed);
                data
            }
            None => BufferData::new(len_bytes),
        };
        let id = self.next_buffer_id.fetch_add(1, Ordering::Relaxed);
        self.storage.lock().insert(id, data);
        self.allocated.fetch_add(len_bytes, Ordering::Relaxed);
        Ok(Buffer::new(id, self.id, len, kind))
    }

    /// Release a buffer allocation. Releasing an already-released buffer is
    /// an error. The storage is parked in the device's size-bucketed pool
    /// (bounded per bucket and in total bytes) for reuse by a later
    /// same-size allocation.
    pub fn release_buffer(&self, buffer: &Buffer) -> Result<()> {
        let removed = self.storage.lock().remove(&buffer.id());
        match removed {
            Some(data) => {
                let len_bytes = data.len_bytes();
                self.allocated.fetch_sub(len_bytes, Ordering::Relaxed);
                let mut pool = self.pool.lock();
                // An allocation larger than the whole pool budget can never
                // be parked; drop it without churning the resident entries.
                if len_bytes <= pool.cap_bytes {
                    let seq = pool.next_seq;
                    pool.next_seq += 1;
                    let bucket = pool.buckets.entry(len_bytes).or_default();
                    if bucket.len() < POOL_BUCKET_CAP {
                        bucket.push(PooledEntry { seq, data });
                        pool.total_bytes += len_bytes;
                        // Newly parked storage may push the pool over its
                        // high-water cap: evict the oldest parks to fit.
                        let (evicted, bytes) = pool.trim_to_cap();
                        self.note_pool_evictions(evicted, bytes);
                    }
                }
                Ok(())
            }
            None => Err(OclError::BufferNotFound { id: buffer.id() }),
        }
    }

    fn note_pool_evictions(&self, evicted: usize, bytes: usize) {
        if evicted > 0 {
            self.pool_evictions.fetch_add(evicted, Ordering::Relaxed);
            self.pool_evicted_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Set the pool's high-water byte cap and trim immediately: while the
    /// parked total exceeds the cap, the least-recently-parked entries are
    /// dropped (and counted as evictions). Long-running servers use this to
    /// bound pooled memory; the default is 256 MiB.
    pub fn set_pool_cap_bytes(&self, cap_bytes: usize) {
        let mut pool = self.pool.lock();
        pool.cap_bytes = cap_bytes;
        let (evicted, bytes) = pool.trim_to_cap();
        drop(pool);
        self.note_pool_evictions(evicted, bytes);
    }

    /// The pool's current high-water byte cap.
    pub fn pool_cap_bytes(&self) -> usize {
        self.pool.lock().cap_bytes
    }

    /// Parked entries dropped so far by the pool's high-water LRU trim.
    pub fn pool_evictions(&self) -> usize {
        self.pool_evictions.load(Ordering::Relaxed)
    }

    /// Bytes of parked storage dropped so far by the pool's LRU trim.
    pub fn pool_evicted_bytes(&self) -> usize {
        self.pool_evicted_bytes.load(Ordering::Relaxed)
    }

    /// Number of released allocations currently parked in the buffer pool.
    pub fn pooled_buffers(&self) -> usize {
        self.pool.lock().buckets.values().map(Vec::len).sum()
    }

    /// Bytes of storage currently parked in the buffer pool.
    pub fn pooled_bytes(&self) -> usize {
        self.pool.lock().total_bytes
    }

    /// How many allocations have been served from the pool so far.
    pub fn pool_hit_count(&self) -> usize {
        self.pool_hits.load(Ordering::Relaxed)
    }

    /// How many pool revivals skipped the re-zeroing memset entirely because
    /// their first command fully overwrote the buffer.
    pub fn lazy_zero_elisions(&self) -> usize {
        self.zero_elisions.load(Ordering::Relaxed)
    }

    /// Drop every parked allocation (frees the host memory backing them).
    pub fn trim_pool(&self) {
        let mut pool = self.pool.lock();
        pool.buckets.clear();
        pool.total_bytes = 0;
    }

    /// Copy host data into a device buffer.
    pub fn write_buffer_bytes(
        &self,
        buffer: &Buffer,
        offset_bytes: usize,
        data: &[u8],
    ) -> Result<()> {
        let mut storage = self.storage.lock();
        let dst = storage
            .get_mut(&buffer.id())
            .ok_or(OclError::BufferNotFound { id: buffer.id() })?;
        let end = offset_bytes + data.len();
        if end > dst.len_bytes() {
            return Err(OclError::SizeMismatch {
                host_bytes: data.len(),
                device_bytes: dst.len_bytes().saturating_sub(offset_bytes),
            });
        }
        if dst.pending_zero && dst.settle_zero_around(offset_bytes, end) {
            self.zero_elisions.fetch_add(1, Ordering::Relaxed);
        }
        dst.as_bytes_mut()[offset_bytes..end].copy_from_slice(data);
        Ok(())
    }

    /// Copy a device buffer range back to the host.
    pub fn read_buffer_bytes(
        &self,
        buffer: &Buffer,
        offset_bytes: usize,
        out: &mut [u8],
    ) -> Result<()> {
        let mut storage = self.storage.lock();
        let src = storage
            .get_mut(&buffer.id())
            .ok_or(OclError::BufferNotFound { id: buffer.id() })?;
        src.settle_zero();
        let end = offset_bytes + out.len();
        if end > src.len_bytes() {
            return Err(OclError::SizeMismatch {
                host_bytes: out.len(),
                device_bytes: src.len_bytes().saturating_sub(offset_bytes),
            });
        }
        out.copy_from_slice(&src.as_bytes()[offset_bytes..end]);
        Ok(())
    }

    /// Copy `len_bytes` bytes from one buffer range to another within this
    /// device's memory. The source is settled like a read, the destination
    /// like a write of the copied range; the two ranges may overlap within
    /// one buffer (`memmove` semantics).
    pub fn copy_buffer_bytes(
        &self,
        src: &Buffer,
        src_offset_bytes: usize,
        dst: &Buffer,
        dst_offset_bytes: usize,
        len_bytes: usize,
    ) -> Result<()> {
        let mut storage = self.storage.lock();
        for (buffer, offset) in [(src, src_offset_bytes), (dst, dst_offset_bytes)] {
            let data = storage
                .get(&buffer.id())
                .ok_or(OclError::BufferNotFound { id: buffer.id() })?;
            if offset + len_bytes > data.len_bytes() {
                return Err(OclError::SizeMismatch {
                    host_bytes: len_bytes,
                    device_bytes: data.len_bytes().saturating_sub(offset),
                });
            }
        }
        let (src_end, dst_end) = (src_offset_bytes + len_bytes, dst_offset_bytes + len_bytes);
        if src.id() == dst.id() {
            let data = storage.get_mut(&src.id()).expect("checked above");
            data.settle_zero();
            data.as_bytes_mut()
                .copy_within(src_offset_bytes..src_end, dst_offset_bytes);
            return Ok(());
        }
        // Two entries of one map: lift the destination out for the copy.
        let mut dst_data = storage.remove(&dst.id()).expect("checked above");
        let src_data = storage.get_mut(&src.id()).expect("checked above");
        src_data.settle_zero();
        if dst_data.pending_zero && dst_data.settle_zero_around(dst_offset_bytes, dst_end) {
            self.zero_elisions.fetch_add(1, Ordering::Relaxed);
        }
        dst_data.as_bytes_mut()[dst_offset_bytes..dst_end]
            .copy_from_slice(&src_data.as_bytes()[src_offset_bytes..src_end]);
        storage.insert(dst.id(), dst_data);
        Ok(())
    }

    /// Temporarily take the storage of the given buffers out of the device so
    /// a kernel launch can access them mutably without aliasing. The same
    /// buffer may not appear twice.
    pub(crate) fn take_buffers(&self, ids: &[u64]) -> Result<Vec<(u64, BufferData)>> {
        let mut storage = self.storage.lock();
        let mut taken = Vec::with_capacity(ids.len());
        for &id in ids {
            match storage.remove(&id) {
                Some(mut data) => {
                    // A kernel may read any part of the buffer.
                    data.settle_zero();
                    taken.push((id, data));
                }
                None => {
                    // Either the buffer never existed, was released, or is
                    // bound twice in this launch. Distinguish aliasing for a
                    // clearer error message.
                    let aliased = taken.iter().any(|(t, _)| *t == id);
                    // Put back whatever we already removed before erroring.
                    for (tid, data) in taken {
                        storage.insert(tid, data);
                    }
                    return Err(if aliased {
                        OclError::BufferAliased { id }
                    } else {
                        OclError::BufferNotFound { id }
                    });
                }
            }
        }
        Ok(taken)
    }

    /// Return storage previously taken with [`Device::take_buffers`].
    pub(crate) fn return_buffers(&self, taken: Vec<(u64, BufferData)>) {
        let mut storage = self.storage.lock();
        for (id, data) in taken {
            storage.insert(id, data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        Device::new(0, DeviceProfile::tesla_c1060())
    }

    #[test]
    fn allocate_write_read_release() {
        let dev = device();
        let buf = dev.create_buffer::<f32>(8).unwrap();
        assert_eq!(dev.allocated_bytes(), 32);
        assert_eq!(dev.live_buffers(), 1);

        let data = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        dev.write_buffer_bytes(&buf, 0, pod::as_bytes(&data))
            .unwrap();
        let mut out = vec![0u8; 32];
        dev.read_buffer_bytes(&buf, 0, &mut out).unwrap();
        let back: Vec<f32> = pod::from_bytes_vec(&out);
        assert_eq!(back, data);

        dev.release_buffer(&buf).unwrap();
        assert_eq!(dev.allocated_bytes(), 0);
        assert!(dev.release_buffer(&buf).is_err());
    }

    #[test]
    fn partial_writes_with_offsets() {
        let dev = device();
        let buf = dev.create_buffer::<f32>(4).unwrap();
        let part = [9.0f32, 10.0];
        dev.write_buffer_bytes(&buf, 8, pod::as_bytes(&part))
            .unwrap();
        let mut out = vec![0u8; 16];
        dev.read_buffer_bytes(&buf, 0, &mut out).unwrap();
        let back: Vec<f32> = pod::from_bytes_vec(&out);
        assert_eq!(back, vec![0.0, 0.0, 9.0, 10.0]);
    }

    #[test]
    fn out_of_range_transfers_are_rejected() {
        let dev = device();
        let buf = dev.create_buffer::<f32>(2).unwrap();
        let too_big = [0.0f32; 4];
        assert!(matches!(
            dev.write_buffer_bytes(&buf, 0, pod::as_bytes(&too_big)),
            Err(OclError::SizeMismatch { .. })
        ));
        let mut out = vec![0u8; 12];
        assert!(dev.read_buffer_bytes(&buf, 0, &mut out).is_err());
    }

    #[test]
    fn allocation_respects_capacity() {
        let mut profile = DeviceProfile::tesla_c1060();
        profile.memory_bytes = 64;
        let dev = Device::new(0, profile);
        assert!(dev.create_buffer::<f32>(8).is_ok());
        assert!(matches!(
            dev.create_buffer::<f32>(16),
            Err(OclError::OutOfDeviceMemory { .. })
        ));
    }

    #[test]
    fn take_buffers_detects_aliasing_and_restores_on_error() {
        let dev = device();
        let a = dev.create_buffer::<f32>(4).unwrap();
        let b = dev.create_buffer::<f32>(4).unwrap();
        let err = dev.take_buffers(&[a.id(), b.id(), a.id()]).unwrap_err();
        assert!(matches!(err, OclError::BufferAliased { .. }));
        // Both buffers must still be live.
        assert_eq!(dev.live_buffers(), 2);

        let taken = dev.take_buffers(&[a.id(), b.id()]).unwrap();
        assert_eq!(dev.live_buffers(), 0);
        dev.return_buffers(taken);
        assert_eq!(dev.live_buffers(), 2);
    }

    #[test]
    fn released_buffers_are_pooled_and_reused() {
        let dev = device();
        let a = dev.create_buffer::<f32>(16).unwrap();
        dev.write_buffer_bytes(&a, 0, &[0xAB; 64]).unwrap();
        dev.release_buffer(&a).unwrap();
        assert_eq!(dev.pooled_buffers(), 1);
        assert_eq!(dev.pooled_bytes(), 64);
        assert_eq!(dev.allocated_bytes(), 0);

        // Same-size allocation revives the parked storage (fresh id),
        // zeroed like a fresh allocation.
        let b = dev.create_buffer::<i32>(16).unwrap();
        assert_eq!(dev.pool_hit_count(), 1);
        assert_eq!(dev.pooled_buffers(), 0);
        let mut out = vec![0xFFu8; 64];
        dev.read_buffer_bytes(&b, 0, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0), "reused storage must be zeroed");

        // A different size is a genuine new allocation, not a pool hit.
        dev.release_buffer(&b).unwrap();
        let _c = dev.create_buffer::<f32>(8).unwrap();
        assert_eq!(dev.pool_hit_count(), 1);
    }

    #[test]
    fn full_overwrite_of_a_revived_buffer_elides_the_rezeroing() {
        let dev = device();
        let a = dev.create_buffer::<f32>(16).unwrap();
        dev.write_buffer_bytes(&a, 0, &[0xAB; 64]).unwrap();
        dev.release_buffer(&a).unwrap();
        let b = dev.create_buffer::<f32>(16).unwrap();
        assert_eq!(dev.pool_hit_count(), 1);
        assert_eq!(dev.lazy_zero_elisions(), 0);
        // First command covers the whole buffer: no memset happens at all.
        dev.write_buffer_bytes(&b, 0, &[0xCD; 64]).unwrap();
        assert_eq!(dev.lazy_zero_elisions(), 1);
        let mut out = vec![0u8; 64];
        dev.read_buffer_bytes(&b, 0, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0xCD));
    }

    #[test]
    fn partial_write_to_a_revived_buffer_zeroes_only_the_uncovered_range() {
        let dev = device();
        let a = dev.create_buffer::<f32>(16).unwrap();
        dev.write_buffer_bytes(&a, 0, &[0xAB; 64]).unwrap();
        dev.release_buffer(&a).unwrap();
        let b = dev.create_buffer::<f32>(16).unwrap();
        // First command covers bytes 8..24 only: everything else must read
        // as zero (fresh-allocation semantics), nothing may leak from `a`.
        dev.write_buffer_bytes(&b, 8, &[0xEE; 16]).unwrap();
        assert_eq!(dev.lazy_zero_elisions(), 0, "partial writes settle");
        let mut out = vec![0xFFu8; 64];
        dev.read_buffer_bytes(&b, 0, &mut out).unwrap();
        assert!(out[..8].iter().all(|&x| x == 0));
        assert!(out[8..24].iter().all(|&x| x == 0xEE));
        assert!(out[24..].iter().all(|&x| x == 0));
    }

    #[test]
    fn double_release_of_a_stale_handle_cannot_destroy_a_live_buffer() {
        let dev = device();
        let a = dev.create_buffer::<f32>(16).unwrap();
        dev.release_buffer(&a).unwrap();
        // `b` revives a's storage; a second (erroneous) release of the
        // stale handle must fail, not free b.
        let b = dev.create_buffer::<f32>(16).unwrap();
        assert_ne!(b.id(), a.id(), "revived storage must get a fresh id");
        assert!(matches!(
            dev.release_buffer(&a),
            Err(OclError::BufferNotFound { .. })
        ));
        let mut out = vec![0u8; 64];
        dev.read_buffer_bytes(&b, 0, &mut out).unwrap();
    }

    #[test]
    fn pool_total_bytes_are_bounded() {
        let dev = device();
        // One allocation larger than the whole pool budget: released storage
        // must be dropped, not parked.
        let big = dev.create_buffer::<f32>(POOL_MAX_BYTES / 4 + 1024).unwrap();
        dev.release_buffer(&big).unwrap();
        assert_eq!(dev.pooled_buffers(), 0, "oversized releases are dropped");
        assert_eq!(dev.pool_evictions(), 0, "oversized drops are not trims");
    }

    #[test]
    fn pool_cap_evicts_least_recently_parked_first() {
        let dev = device();
        // Cap the pool below four parks' worth, then park four releases of
        // two different sizes in a known order.
        dev.set_pool_cap_bytes(160);
        let sizes = [16usize, 16, 8, 8]; // f32 elements: 64, 64, 32, 32 bytes
        let buffers: Vec<_> = sizes
            .iter()
            .map(|&n| dev.create_buffer::<f32>(n).unwrap())
            .collect();
        for b in &buffers {
            dev.release_buffer(b).unwrap();
        }
        // Parks: 64, 64, 32, 32 -> the last park overflows the 160-byte cap
        // (total 192): the OLDEST park (the first 64-byte entry) is evicted,
        // not the newest.
        assert_eq!(dev.pool_evictions(), 1);
        assert_eq!(dev.pool_evicted_bytes(), 64);
        assert_eq!(dev.pooled_bytes(), 128);
        assert_eq!(dev.pooled_buffers(), 3);
        // Reviving a 64-byte buffer still hits the pool: the younger
        // 64-byte park survived the trim.
        let _r = dev.create_buffer::<f32>(16).unwrap();
        assert_eq!(dev.pool_hit_count(), 1);
    }

    #[test]
    fn shrinking_the_pool_cap_trims_immediately() {
        let dev = device();
        let buffers: Vec<_> = (0..3)
            .map(|_| dev.create_buffer::<f32>(256).unwrap())
            .collect();
        for b in &buffers {
            dev.release_buffer(b).unwrap();
        }
        assert_eq!(dev.pooled_bytes(), 3072);
        dev.set_pool_cap_bytes(1024);
        assert_eq!(dev.pool_evictions(), 2);
        assert_eq!(dev.pool_evicted_bytes(), 2048);
        assert_eq!(dev.pooled_bytes(), 1024);
        assert_eq!(dev.pool_cap_bytes(), 1024);
    }

    #[test]
    fn pool_buckets_are_capped_and_trimmable() {
        let dev = device();
        let buffers: Vec<_> = (0..POOL_BUCKET_CAP + 3)
            .map(|_| dev.create_buffer::<f32>(4).unwrap())
            .collect();
        for b in &buffers {
            dev.release_buffer(b).unwrap();
        }
        assert_eq!(dev.pooled_buffers(), POOL_BUCKET_CAP);
        dev.trim_pool();
        assert_eq!(dev.pooled_buffers(), 0);
        assert_eq!(dev.pooled_bytes(), 0);
    }

    #[test]
    fn buffer_data_typed_views() {
        let mut data = BufferData::new(16);
        data.as_slice_mut::<f32>()[2] = 5.0;
        assert_eq!(data.as_slice::<f32>()[2], 5.0);
        assert_eq!(data.as_slice::<f32>().len(), 4);
        assert_eq!(data.len_bytes(), 16);
    }
}
