//! Data distributions of SkelCL containers across multiple devices
//! (paper, Section III-A and Figure 1).
//!
//! A distribution describes which part of a container each device holds:
//!
//! * [`Distribution::Single`] — the whole container lives on one device,
//! * [`Distribution::Block`] — each device holds a contiguous, disjoint part,
//! * [`Distribution::BlockWeighted`] — like block, but part sizes follow
//!   explicit weights (used by the Section V scheduler for heterogeneous
//!   devices),
//! * [`Distribution::Copy`] — every device holds a full copy.
//!
//! A vector is split at element granularity, a matrix at whole rows. Both
//! are stored as a [`RowPartition`]: a vector as `len × 1` with no halo, a
//! stencil input as row blocks padded with `halo` rows from each neighbour.
//!
//! Changing the distribution implies data exchanges between devices and the
//! host, performed implicitly (and lazily) by the containers. When changing
//! *away from* `Copy`, the per-device copies may differ and are combined with
//! a user-specified [`Combine`] function; without one, the first device's
//! copy wins (paper, Section III-A).

use std::ops::Range;
use std::sync::Arc;

use crate::container::{EdgePolicy, HaloSegment, PartSegment};
use crate::error::{Result, SkelError};

/// How a container's data is distributed across the devices of the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Distribution {
    /// Whole container on a single device (the given device index).
    Single(usize),
    /// Contiguous, disjoint, evenly-sized parts on every device.
    Block,
    /// Contiguous, disjoint parts sized proportionally to the given weights
    /// (one weight per device, in fixed-point thousandths to keep the type
    /// `Eq`-comparable). The fault-recovery layer uses it to move a
    /// container onto the surviving devices: a lost device gets weight zero.
    BlockWeighted(Vec<u32>),
    /// A full copy of the container on every device.
    Copy,
}

impl Distribution {
    /// The default distribution of newly created containers and of skeleton
    /// main inputs with no explicit distribution (the paper uses block).
    pub fn default_for_inputs() -> Distribution {
        Distribution::Block
    }

    /// Build a weighted block distribution from floating-point weights.
    pub fn block_weighted(weights: &[f64]) -> Distribution {
        let scaled = weights.iter().map(|w| (w.max(0.0) * 1000.0).round() as u32);
        Distribution::BlockWeighted(scaled.collect())
    }

    /// Whether every device participates in a skeleton over a vector with
    /// this distribution.
    pub fn uses_all_devices(&self) -> bool {
        !matches!(self, Distribution::Single(_))
    }

    /// Check the distribution against the runtime's device count:
    /// `Single(d)` must name an existing device.
    pub(crate) fn validate(&self, devices: usize) -> Result<()> {
        match self {
            Distribution::Single(d) if *d >= devices => Err(SkelError::Distribution(format!(
                "single distribution names device {d} but the runtime has {devices} devices"
            ))),
            _ => Ok(()),
        }
    }
}

/// How per-device copies are merged when switching away from
/// [`Distribution::Copy`].
#[derive(Clone)]
pub enum Combine<T> {
    /// Keep the copy of the first device, discard the others (the default).
    KeepFirst,
    /// Merge with a user function: `f(accumulator, other_copy)` is called for
    /// each additional device copy, mutating the accumulator in place.
    Func(Arc<dyn Fn(&mut [T], &[T]) + Send + Sync>),
}

impl<T> std::fmt::Debug for Combine<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Combine::KeepFirst => f.write_str("Combine::KeepFirst"),
            Combine::Func(_) => f.write_str("Combine::Func(..)"),
        }
    }
}

impl<T: Copy + std::ops::AddAssign + Send + Sync + 'static> Combine<T> {
    /// Element-wise addition — the combine function used for the OSEM error
    /// image (`Distribution::copy(add)` in Listing 3 of the paper).
    pub fn add() -> Combine<T> {
        Combine::Func(Arc::new(|acc: &mut [T], other: &[T]| {
            for (a, b) in acc.iter_mut().zip(other) {
                *a += *b;
            }
        }))
    }
}

/// The concrete partitioning of `len` items — a vector's elements or a
/// matrix's rows — over `devices` devices under a distribution: for each
/// device, the range it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    ranges: Vec<Range<usize>>,
    len: usize,
}

impl Partition {
    /// Compute the partition of `len` items for `devices` devices under
    /// `distribution`.
    pub fn compute(len: usize, devices: usize, distribution: &Distribution) -> Partition {
        assert!(devices > 0, "a runtime always has at least one device");
        let even = || Self::block_ranges(len, &vec![1.0; devices]);
        let ranges = match distribution {
            Distribution::Single(dev) => (0..devices)
                .map(|d| if d == *dev { 0..len } else { 0..0 })
                .collect(),
            Distribution::Copy => (0..devices).map(|_| 0..len).collect(),
            Distribution::Block => even(),
            // Weights that sum to zero fall back to the even split.
            Distribution::BlockWeighted(weights) => {
                let w: Vec<f64> = (0..devices)
                    .map(|d| weights.get(d).copied().unwrap_or(0) as f64)
                    .collect();
                if w.iter().sum::<f64>() > 0.0 {
                    Self::block_ranges(len, &w)
                } else {
                    even()
                }
            }
        };
        Partition { ranges, len }
    }

    /// Contiguous disjoint ranges proportional to `weights`, covering
    /// `0..len` exactly.
    fn block_ranges(len: usize, weights: &[f64]) -> Vec<Range<usize>> {
        let devices = weights.len();
        let total: f64 = weights.iter().sum();
        let mut ranges = Vec::with_capacity(devices);
        let mut start = 0usize;
        let mut acc = 0.0f64;
        for (d, w) in weights.iter().enumerate() {
            acc += *w;
            let end = if d + 1 == devices {
                len
            } else {
                ((acc / total) * len as f64).round() as usize
            };
            let end = end.clamp(start, len);
            ranges.push(start..end);
            start = end;
        }
        ranges
    }

    /// The element range device `d` holds.
    pub fn range(&self, device: usize) -> Range<usize> {
        self.ranges.get(device).cloned().unwrap_or(0..0)
    }

    /// Number of elements device `d` holds.
    pub fn size(&self, device: usize) -> usize {
        self.range(device).len()
    }

    /// Per-device part sizes (the paper's `events.sizes()` in Listing 3).
    pub fn sizes(&self) -> Vec<usize> {
        self.ranges.iter().map(|r| r.len()).collect()
    }

    /// Devices that hold at least one element.
    pub fn active_devices(&self) -> Vec<usize> {
        self.ranges
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty())
            .map(|(d, _)| d)
            .collect()
    }

    /// Total number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the partition covers zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of devices (including inactive ones).
    pub fn device_count(&self) -> usize {
        self.ranges.len()
    }
}

/// Out-of-bound policy of stencil neighbour accesses — how `get(dx, dy)`
/// resolves reads past the edges of the matrix, and how halo rows beyond the
/// first/last row are filled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Boundary<T> {
    /// Out-of-range accesses clamp to the nearest valid element.
    Clamp,
    /// Out-of-range accesses wrap around (torus topology); halo exchanges
    /// are cyclic — the first device's top halo comes from the last device.
    Wrap,
    /// Out-of-range accesses yield the given constant.
    Constant(T),
}

impl<T> Boundary<T> {
    /// The kernel-side policy code ([`skelcl_kernel::builtins::stencil`]).
    pub(crate) fn policy_code(&self) -> i32 {
        use skelcl_kernel::builtins::stencil;
        match self {
            Boundary::Clamp => stencil::POLICY_CLAMP,
            Boundary::Wrap => stencil::POLICY_WRAP,
            Boundary::Constant(_) => stencil::POLICY_CONSTANT,
        }
    }
}

/// The stored layout of a `rows × cols` container over the devices — the one
/// geometry the coherence core (`container::Storage`) executes transfers
/// from. For each device: the *core* row range it owns (a [`Partition`] of
/// the rows under the container's [`Distribution`]), the halo width, and the
/// padding rows its part stores around the core. A vector is a `len × 1`
/// layout with halo 0, whose parts are exactly its element [`Partition`].
///
/// Only a stencil input has a halo: `halo` read-only rows from the
/// neighbours above and below each row block, filled by a [`Boundary`]
/// policy at the matrix edges. The stored padding is at least the halo: the
/// iterative stencil driver stores `k · halo` *ghost* rows towards a
/// neighbouring device's part (`with_ghost_depth`) so that one halo exchange
/// pays for `k` sweeps; towards a container edge the padding is always
/// `halo` rows.
///
/// The layout describes every device part as plain data — *segments* — that
/// the storage turns into transfers: [`PartSegment`]s assemble a part for
/// upload, a *gather segment* is the authoritative region on download, and
/// [`HaloSegment`]s say which padding is refreshed from where between sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPartition {
    /// The core rows of every device.
    parts: Partition,
    cols: usize,
    halo: usize,
    /// Rows each device stores above and below its core rows.
    pads: Vec<(usize, usize)>,
}

impl RowPartition {
    /// Compute the stored layout of a `rows × cols` container for `devices`
    /// devices: whole rows under `distribution`, each part padded with
    /// `halo` rows above and below.
    pub fn compute(
        rows: usize,
        cols: usize,
        devices: usize,
        distribution: &Distribution,
        halo: usize,
    ) -> RowPartition {
        RowPartition {
            parts: Partition::compute(rows, devices, distribution),
            cols,
            halo,
            pads: vec![(halo, halo); devices],
        }
    }

    /// The core row range device `d` owns (exclusive of halo rows).
    pub fn core_rows(&self, device: usize) -> Range<usize> {
        self.parts.range(device)
    }

    /// Number of core rows device `d` owns.
    pub fn core_row_count(&self, device: usize) -> usize {
        self.parts.size(device)
    }

    /// Rows device `d` stores above and below its core rows.
    fn pads(&self, device: usize) -> (usize, usize) {
        self.pads.get(device).copied().unwrap_or((0, 0))
    }

    /// Number of rows device `d` stores, including the padding (carried even
    /// by parts at the matrix edges, where the boundary policy fills it).
    pub fn stored_row_count(&self, device: usize) -> usize {
        let core = self.core_row_count(device);
        if core == 0 {
            0
        } else {
            let (above, below) = self.pads(device);
            above + core + below
        }
    }

    /// Number of elements device `d` stores (halo included).
    pub fn stored_len(&self, device: usize) -> usize {
        self.stored_row_count(device) * self.cols
    }

    /// Number of elements device `d` computes (its core rows).
    pub fn core_len(&self, device: usize) -> usize {
        self.core_row_count(device) * self.cols
    }

    /// Total number of elements of the container.
    pub(crate) fn len(&self) -> usize {
        self.rows() * self.cols
    }

    /// The halo width of the partition.
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Matrix height in rows.
    pub fn rows(&self) -> usize {
        self.parts.len()
    }

    /// Matrix width in columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of devices (including inactive ones).
    pub fn device_count(&self) -> usize {
        self.parts.device_count()
    }

    /// Devices that own at least one core row.
    pub fn active_devices(&self) -> Vec<usize> {
        self.parts.active_devices()
    }

    /// The device whose core rows contain global row `row` (`None` for
    /// copy/single layouts should be resolved by the caller; every row of a
    /// block layout has exactly one owner).
    pub fn row_owner(&self, row: usize) -> Option<usize> {
        self.parts
            .ranges
            .iter()
            .position(|r| !r.is_empty() && r.contains(&row))
    }

    /// Per-device core row counts.
    pub fn core_row_counts(&self) -> Vec<usize> {
        self.parts.sizes()
    }

    /// Resolve padded row index `p` (may be negative or `>= rows`) to its
    /// source under the edge policy: a real matrix row, or `None` for a
    /// policy-filled row ([`EdgePolicy::Fill`] beyond the edges).
    fn row_source(&self, p: i64, edge: EdgePolicy) -> Option<usize> {
        let rows = self.rows() as i64;
        if (0..rows).contains(&p) {
            return Some(p as usize);
        }
        match edge {
            EdgePolicy::Clamp => Some(p.clamp(0, rows - 1) as usize),
            EdgePolicy::Wrap => Some(p.rem_euclid(rows) as usize),
            EdgePolicy::Fill => None,
        }
    }

    /// Whether device `d`'s part faces another device's part above and below
    /// it: the row just beyond its core belongs to a neighbour, not to the
    /// container edge (whose padding the device fills by itself).
    pub(crate) fn faces_neighbour(&self, device: usize, edge: EdgePolicy) -> (bool, bool) {
        let core = self.core_rows(device);
        let foreign = |p: i64| {
            let owner = self.row_source(p, edge).and_then(|g| self.row_owner(g));
            !core.is_empty() && owner.is_some_and(|owner| owner != device)
        };
        (foreign(core.start as i64 - 1), foreign(core.end as i64))
    }

    /// The deepest ghost zone this partition can hold: no part may be asked
    /// for more rows than its neighbour owns.
    pub(crate) fn max_ghost_depth(&self) -> usize {
        let smallest = self.parts.sizes().into_iter().filter(|&n| n > 0).min();
        (smallest.unwrap_or(0) / self.halo.max(1)).max(1)
    }

    /// This partition with `depth · halo` ghost rows stored towards every
    /// neighbouring device's part (clamped to [`Self::max_ghost_depth`]) and
    /// `halo` rows towards the container edges.
    pub(crate) fn with_ghost_depth(&self, depth: usize, edge: EdgePolicy) -> RowPartition {
        let ghost = depth.clamp(1, self.max_ghost_depth()) * self.halo;
        let pad = |faces: bool| if faces { ghost } else { self.halo };
        let pads = (0..self.device_count())
            .map(|device| {
                let (above, below) = self.faces_neighbour(device, edge);
                (pad(above), pad(below))
            })
            .collect();
        RowPartition {
            pads,
            ..self.clone()
        }
    }

    /// How many sweeps one exchange of everything stored pays for: the
    /// shallowest ghost zone any part stores towards a neighbour, in halo
    /// widths (1 when no part has a neighbour).
    pub(crate) fn ghost_depth(&self, edge: EdgePolicy) -> usize {
        if self.halo == 0 {
            return 1;
        }
        let depths = self.active_devices().into_iter().flat_map(|device| {
            let (faces_above, faces_below) = self.faces_neighbour(device, edge);
            let (above, below) = self.pads(device);
            [(faces_above, above), (faces_below, below)]
        });
        let shallowest = depths.filter(|&(faces, _)| faces).map(|(_, pad)| pad).min();
        shallowest.map_or(1, |pad| (pad / self.halo).max(1))
    }

    /// The stored rows device `d` computes in a sweep that must leave
    /// `sweeps − 1` more sweeps' worth of valid ghost rows behind: its core
    /// plus `(sweeps − 1) · halo` ghost rows towards each neighbour —
    /// `(first stored row, row count)`.
    pub(crate) fn sweep_rows(
        &self,
        device: usize,
        edge: EdgePolicy,
        sweeps: usize,
    ) -> (usize, usize) {
        let extra = sweeps.saturating_sub(1) * self.halo;
        let (faces_above, faces_below) = self.faces_neighbour(device, edge);
        let above = if faces_above { extra } else { 0 };
        let below = if faces_below { extra } else { 0 };
        (
            self.pads(device).0 - above,
            above + self.core_row_count(device) + below,
        )
    }

    /// The stored padding rows of device `d`'s part a halo refresh touches:
    /// `(slot, padded_row)` pairs, the rows above the core first, then those
    /// below. `slot` is the row index within the stored part. Towards a
    /// neighbour these are the `sweeps · halo` ghost rows next to the core
    /// (as many as are stored), towards a container edge the `halo` rows.
    fn halo_slots(&self, device: usize, edge: EdgePolicy, sweeps: usize) -> Vec<(usize, i64)> {
        let core = self.core_rows(device);
        let (faces_above, faces_below) = self.faces_neighbour(device, edge);
        let (pad_above, pad_below) = self.pads(device);
        let rows = |faces: bool, pad: usize| {
            if faces {
                (sweeps.max(1) * self.halo).min(pad)
            } else {
                self.halo
            }
        };
        let (above, below) = (rows(faces_above, pad_above), rows(faces_below, pad_below));
        (0..above)
            .map(|k| {
                (
                    pad_above - above + k,
                    (core.start + k) as i64 - above as i64,
                )
            })
            .chain((0..below).map(|k| (pad_above + core.len() + k, (core.end + k) as i64)))
            .collect()
    }

    /// The segments (host ranges and policy fills) that assemble device
    /// `d`'s stored part for upload, in storage order. Their lengths sum to
    /// [`RowPartition::stored_len`].
    pub(crate) fn upload_segments(&self, device: usize, edge: EdgePolicy) -> Vec<PartSegment> {
        if self.stored_len(device) == 0 {
            return Vec::new();
        }
        let core = self.core_rows(device);
        let (above, below) = self.pads(device);
        let cols = self.cols;
        let row_segment = |p: i64| match self.row_source(p, edge) {
            Some(r) => PartSegment::Host(r * cols..(r + 1) * cols),
            None => PartSegment::Fill { len: cols },
        };
        let mut segments = Vec::with_capacity(above + below + 1);
        for p in core.start as i64 - above as i64..core.start as i64 {
            segments.push(row_segment(p));
        }
        segments.push(PartSegment::Host(core.start * cols..core.end * cols));
        for p in core.end as i64..(core.end + below) as i64 {
            segments.push(row_segment(p));
        }
        segments
    }

    /// Where device `d`'s owned rows land on download: the element offset
    /// within its stored part and the destination host range. `None` for
    /// devices that own nothing (a replicated container is gathered from
    /// one device instead).
    pub(crate) fn gather_segment(&self, device: usize) -> Option<(usize, Range<usize>)> {
        let core = self.core_rows(device);
        if core.is_empty() {
            return None;
        }
        let cols = self.cols;
        Some((
            self.pads(device).0 * cols,
            core.start * cols..core.end * cols,
        ))
    }

    /// The halo regions of device `d`'s part. Consecutive halo slots whose
    /// sources are consecutive rows of the same owning device are grouped
    /// into one [`HaloSegment::Remote`], so the exchange between two
    /// neighbouring parts is a single `sweeps · halo_rows × cols` read plus
    /// one write; policy-filled edge rows become per-row
    /// [`HaloSegment::Fill`]s. `sweeps == 0` asks for what the device
    /// refreshes by itself only — its fills and the copies of rows it owns.
    pub(crate) fn halo_segments(
        &self,
        device: usize,
        edge: EdgePolicy,
        sweeps: usize,
    ) -> Vec<HaloSegment> {
        let cols = self.cols;
        if self.halo == 0 || cols == 0 {
            return Vec::new();
        }
        let mut segments = Vec::new();
        // (slot0, src_row0, owner, rows-in-run)
        let mut run: Option<(usize, usize, usize, usize)> = None;
        let flush = |run: &mut Option<(usize, usize, usize, usize)>,
                     segments: &mut Vec<HaloSegment>| {
            if let Some((slot0, src_row0, owner, rows)) = run.take() {
                let owner_core = self.core_rows(owner);
                segments.push(HaloSegment::Remote {
                    dst_offset: slot0 * cols,
                    owner,
                    src_offset: (src_row0 - owner_core.start + self.pads(owner).0) * cols,
                    len: rows * cols,
                });
            }
        };
        for (slot, p) in self.halo_slots(device, edge, sweeps) {
            match self.row_source(p, edge) {
                None => {
                    flush(&mut run, &mut segments);
                    segments.push(HaloSegment::Fill {
                        dst_offset: slot * cols,
                        len: cols,
                    });
                }
                Some(g) => {
                    // Block layouts cover every row exactly once, so each
                    // halo row has an owner; if a corrupted layout ever
                    // violates that, degrade the slot to a policy fill
                    // instead of panicking on a runtime path.
                    let Some(owner) = self.row_owner(g) else {
                        flush(&mut run, &mut segments);
                        segments.push(HaloSegment::Fill {
                            dst_offset: slot * cols,
                            len: cols,
                        });
                        continue;
                    };
                    if sweeps == 0 && owner != device {
                        flush(&mut run, &mut segments);
                        continue;
                    }
                    match &mut run {
                        Some((slot0, src_row0, own, rows))
                            if *own == owner
                                && g == *src_row0 + *rows
                                && slot == *slot0 + *rows =>
                        {
                            *rows += 1;
                        }
                        _ => {
                            flush(&mut run, &mut segments);
                            run = Some((slot, g, owner, 1));
                        }
                    }
                }
            }
        }
        flush(&mut run, &mut segments);
        segments
    }

    /// The flat element partition of the core rows: what an element-wise
    /// kernel iterates (for a vector, its own partition).
    pub(crate) fn flat_partition(&self) -> Partition {
        let cols = self.cols;
        let ranges = self.parts.ranges.iter();
        Partition {
            ranges: ranges.map(|r| r.start * cols..r.end * cols).collect(),
            len: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_partition_covers_exactly_once() {
        for len in [0usize, 1, 5, 16, 17, 1000] {
            for devices in 1..=6 {
                let p = Partition::compute(len, devices, &Distribution::Block);
                let mut covered = 0;
                let mut next = 0;
                for d in 0..devices {
                    let r = p.range(d);
                    assert_eq!(r.start, next, "parts must be contiguous");
                    next = r.end;
                    covered += r.len();
                }
                assert_eq!(covered, len);
                assert_eq!(next, len);
                // Even distribution: sizes differ by at most 1.
                let sizes = p.sizes();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "sizes {sizes:?} not even for len {len}");
            }
        }
    }

    #[test]
    fn single_partition_puts_everything_on_one_device() {
        let p = Partition::compute(10, 4, &Distribution::Single(2));
        assert_eq!(p.sizes(), vec![0, 0, 10, 0]);
        assert_eq!(p.active_devices(), vec![2]);
    }

    #[test]
    fn copy_partition_replicates() {
        let p = Partition::compute(8, 3, &Distribution::Copy);
        assert_eq!(p.sizes(), vec![8, 8, 8]);
        assert_eq!(p.active_devices(), vec![0, 1, 2]);
    }

    #[test]
    fn weighted_partition_follows_weights() {
        let d = Distribution::block_weighted(&[3.0, 1.0]);
        let p = Partition::compute(100, 2, &d);
        assert_eq!(p.sizes(), vec![75, 25]);
        // Still covers exactly once.
        assert_eq!(p.range(0).end, p.range(1).start);
        assert_eq!(p.range(1).end, 100);
    }

    #[test]
    fn weighted_partition_with_zero_total_falls_back_to_even() {
        let d = Distribution::BlockWeighted(vec![0, 0]);
        let p = Partition::compute(10, 2, &d);
        assert_eq!(p.sizes(), vec![5, 5]);
    }

    #[test]
    fn figure1_example_two_devices() {
        // Figure 1 of the paper shows a vector over two devices.
        let len = 16;
        let single = Partition::compute(len, 2, &Distribution::Single(0));
        assert_eq!(single.sizes(), vec![16, 0]);
        let block = Partition::compute(len, 2, &Distribution::Block);
        assert_eq!(block.sizes(), vec![8, 8]);
        let copy = Partition::compute(len, 2, &Distribution::Copy);
        assert_eq!(copy.sizes(), vec![16, 16]);
    }

    #[test]
    fn combine_add_merges_copies() {
        let combine: Combine<f32> = Combine::add();
        if let Combine::Func(f) = combine {
            let mut acc = vec![1.0f32, 2.0, 3.0];
            f(&mut acc, &[10.0, 20.0, 30.0]);
            assert_eq!(acc, vec![11.0, 22.0, 33.0]);
        } else {
            panic!("expected a combine function");
        }
    }

    #[test]
    fn default_input_distribution_is_block() {
        assert_eq!(Distribution::default_for_inputs(), Distribution::Block);
        assert!(Distribution::Block.uses_all_devices());
        assert!(!Distribution::Single(0).uses_all_devices());
    }

    #[test]
    fn row_partition_splits_rows_contiguously() {
        for rows in [0usize, 1, 5, 16, 17] {
            for devices in 1..=5 {
                let p = RowPartition::compute(rows, 7, devices, &Distribution::Block, 0);
                let mut next = 0;
                for d in 0..devices {
                    let r = p.core_rows(d);
                    assert_eq!(r.start, next, "row blocks must be contiguous");
                    next = r.end;
                    assert_eq!(p.core_len(d), r.len() * 7);
                    assert_eq!(p.stored_len(d), p.core_len(d), "no halo without one");
                }
                assert_eq!(next, rows);
            }
        }
    }

    #[test]
    fn overlap_partition_pads_every_active_part_by_the_halo() {
        let p = RowPartition::compute(10, 4, 3, &Distribution::Block, 2);
        assert_eq!(p.halo(), 2);
        assert_eq!(p.core_row_counts(), vec![3, 4, 3]);
        for dev in 0..3 {
            assert_eq!(p.stored_row_count(dev), p.core_row_count(dev) + 4);
            assert_eq!(p.stored_len(dev), p.stored_row_count(dev) * 4);
        }
    }

    #[test]
    fn ghost_depth_deepens_the_padding_towards_neighbours_only() {
        let flat = RowPartition::compute(30, 4, 3, &Distribution::Block, 2);
        assert_eq!(flat.max_ghost_depth(), 5);
        assert_eq!(flat.ghost_depth(EdgePolicy::Clamp), 1);
        let deep = flat.with_ghost_depth(3, EdgePolicy::Clamp);
        assert_eq!(deep.ghost_depth(EdgePolicy::Clamp), 3);
        assert_eq!(deep.core_row_counts(), flat.core_row_counts());
        // Container edges keep the halo, sides facing a neighbour store 3×.
        let stored: Vec<usize> = (0..3).map(|dev| deep.stored_row_count(dev)).collect();
        assert_eq!(stored, [2 + 10 + 6, 6 + 10 + 6, 6 + 10 + 2]);
        assert_eq!(deep.gather_segment(1), Some((6 * 4, 10 * 4..20 * 4)));
        // A sweep with 3 to go computes 2 halo widths of ghost rows per
        // neighbour, the last one the core alone.
        assert_eq!(deep.sweep_rows(0, EdgePolicy::Clamp, 3), (2, 10 + 4));
        assert_eq!(deep.sweep_rows(1, EdgePolicy::Clamp, 3), (2, 4 + 10 + 4));
        assert_eq!(deep.sweep_rows(1, EdgePolicy::Clamp, 1), (6, 10));
        // Under wrap the first and last part are neighbours too.
        let torus = flat.with_ghost_depth(9, EdgePolicy::Wrap);
        assert_eq!(
            torus.ghost_depth(EdgePolicy::Wrap),
            5,
            "capped by the parts"
        );
        assert_eq!(torus.stored_row_count(0), 10 + 10 + 10);
        // An exchange for 2 sweeps moves the 4 ghost rows next to the core,
        // from the neighbour's core; none (`0`) only what the device fills
        // by itself.
        let remote = |segments: Vec<HaloSegment>| -> Vec<(usize, usize, usize, usize)> {
            let rows = segments.into_iter().filter_map(|s| match s {
                HaloSegment::Remote {
                    dst_offset,
                    owner,
                    src_offset,
                    len,
                } => Some((dst_offset / 4, owner, src_offset / 4, len / 4)),
                HaloSegment::Fill { .. } => None,
            });
            rows.collect()
        };
        assert_eq!(
            remote(deep.halo_segments(1, EdgePolicy::Fill, 2)),
            [(2, 0, 2 + 6, 4), (16, 2, 6, 4)]
        );
        assert!(deep.halo_segments(1, EdgePolicy::Fill, 0).is_empty());
        let own = deep.halo_segments(0, EdgePolicy::Clamp, 0);
        assert_eq!(remote(own), [(0, 0, 2, 1), (1, 0, 2, 1)]);
    }

    #[test]
    fn row_partition_owner_lookup_and_empty_devices() {
        // More devices than rows: some devices own nothing and store nothing.
        let p = RowPartition::compute(2, 3, 4, &Distribution::Block, 1);
        let active = p.active_devices();
        assert_eq!(active.len(), 2);
        for dev in 0..4 {
            if active.contains(&dev) {
                assert!(p.stored_row_count(dev) > 0);
            } else {
                assert_eq!(p.stored_row_count(dev), 0);
                assert_eq!(p.stored_len(dev), 0);
            }
        }
        assert_eq!(p.row_owner(0), Some(active[0]));
        assert_eq!(p.row_owner(1), Some(active[1]));
        assert_eq!(p.row_owner(2), None);
    }

    #[test]
    fn single_and_copy_matrix_distributions() {
        let single = RowPartition::compute(6, 2, 3, &Distribution::Single(1), 0);
        assert_eq!(single.core_row_counts(), vec![0, 6, 0]);
        assert_eq!(single.active_devices(), vec![1]);
        let copy = RowPartition::compute(6, 2, 3, &Distribution::Copy, 0);
        assert_eq!(copy.core_row_counts(), vec![6, 6, 6]);
    }

    /// A vector is stored as a one-column, halo-free row layout: its upload,
    /// gather and halo geometry are exactly its element partition's.
    #[test]
    fn a_one_column_layout_is_the_element_partition() {
        for len in [0usize, 1, 7, 64] {
            for devices in 1..=4 {
                for d in [
                    Distribution::Single(devices - 1),
                    Distribution::Block,
                    Distribution::block_weighted(&[3.0, 0.0, 1.0, 2.0][..devices]),
                    Distribution::Copy,
                ] {
                    let p = Partition::compute(len, devices, &d);
                    let l = RowPartition::compute(len, 1, devices, &d, 0);
                    assert_eq!(l.flat_partition(), p, "{d:?}");
                    assert_eq!(l.ghost_depth(EdgePolicy::Clamp), 1);
                    for dev in 0..devices {
                        let range = p.range(dev);
                        let upload = (!range.is_empty()).then(|| PartSegment::Host(range.clone()));
                        let upload: Vec<_> = upload.into_iter().collect();
                        assert_eq!(l.upload_segments(dev, EdgePolicy::Clamp), upload);
                        let gather = (!range.is_empty()).then_some((0, range));
                        assert_eq!(l.gather_segment(dev), gather);
                        assert!(l.halo_segments(dev, EdgePolicy::Clamp, 1).is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn boundary_policy_codes_match_the_kernel_language() {
        assert_eq!(Boundary::<f32>::Clamp.policy_code(), 0);
        assert_eq!(Boundary::<f32>::Wrap.policy_code(), 1);
        assert_eq!(Boundary::Constant(1.5f32).policy_code(), 2);
    }
}
