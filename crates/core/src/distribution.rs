//! Data distributions of SkelCL vectors across multiple devices
//! (paper, Section III-A and Figure 1).
//!
//! A distribution describes which part of a vector each device holds:
//!
//! * [`Distribution::Single`] — the whole vector lives on one device,
//! * [`Distribution::Block`] — each device holds a contiguous, disjoint part,
//! * [`Distribution::BlockWeighted`] — like block, but part sizes follow
//!   explicit weights (used by the Section V scheduler for heterogeneous
//!   devices),
//! * [`Distribution::Copy`] — every device holds a full copy.
//!
//! Changing the distribution implies data exchanges between devices and the
//! host, performed implicitly (and lazily) by [`crate::vector::Vector`].
//! When changing *away from* `Copy`, the per-device copies may differ and are
//! combined with a user-specified [`Combine`] function; without one, the
//! first device's copy wins (paper, Section III-A).

use std::ops::Range;
use std::sync::Arc;

use crate::container::{EdgePolicy, HaloSegment, PartLayout, PartSegment, Partitioning};
use crate::error::{Result, SkelError};

/// How a vector's data is distributed across the devices of the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Distribution {
    /// Whole vector on a single device (the given device index).
    Single(usize),
    /// Contiguous, disjoint, evenly-sized parts on every device.
    Block,
    /// Contiguous, disjoint parts sized proportionally to the given weights
    /// (one weight per device, in fixed-point thousandths to keep the type
    /// `Eq`-comparable).
    BlockWeighted(Vec<u32>),
    /// A full copy of the vector on every device.
    Copy,
}

impl Distribution {
    /// The default distribution of newly created vectors and of skeleton main
    /// inputs with no explicit distribution (the paper uses block).
    pub fn default_for_inputs() -> Distribution {
        Distribution::Block
    }

    /// Build a weighted block distribution from floating-point weights.
    pub fn block_weighted(weights: &[f64]) -> Distribution {
        Distribution::BlockWeighted(scale_weights(weights))
    }

    /// Whether every device participates in a skeleton over a vector with
    /// this distribution.
    pub fn uses_all_devices(&self) -> bool {
        !matches!(self, Distribution::Single(_))
    }
}

impl Partitioning for Distribution {
    type Shape = usize;
    type Layout = Partition;

    fn layout(&self, shape: usize, devices: usize) -> Partition {
        Partition::compute(shape, devices, self)
    }

    fn validate(&self, devices: usize) -> Result<()> {
        if let Distribution::Single(d) = self {
            if *d >= devices {
                return Err(SkelError::Distribution(format!(
                    "single distribution names device {d} but the runtime has {devices} devices"
                )));
            }
        }
        Ok(())
    }

    fn is_replicated(&self) -> bool {
        matches!(self, Distribution::Copy)
    }
}

/// Scale floating-point weights to the fixed-point thousandths stored in
/// weighted distributions (kept integral so distributions stay `Eq`).
fn scale_weights(weights: &[f64]) -> Vec<u32> {
    weights
        .iter()
        .map(|w| (w.max(0.0) * 1000.0).round() as u32)
        .collect()
}

/// Resolve fixed-point per-device weights to block ranges, falling back to an
/// even split when the weights sum to zero.
fn weighted_ranges(len: usize, devices: usize, weights: &[u32]) -> Vec<Range<usize>> {
    let w: Vec<f64> = (0..devices)
        .map(|d| weights.get(d).copied().unwrap_or(0) as f64)
        .collect();
    let total: f64 = w.iter().sum();
    if total <= 0.0 {
        Partition::block_ranges(len, &vec![1.0; devices])
    } else {
        Partition::block_ranges(len, &w)
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

/// The concrete partitioning of `len` elements over `devices` devices under a
/// distribution: for each device, the element range it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    ranges: Vec<Range<usize>>,
    len: usize,
}

impl Partition {
    /// Compute the partition of a vector of `len` elements for `devices`
    /// devices under `distribution`.
    pub fn compute(len: usize, devices: usize, distribution: &Distribution) -> Partition {
        assert!(devices > 0, "a runtime always has at least one device");
        let ranges = match distribution {
            Distribution::Single(dev) => (0..devices)
                .map(|d| if d == *dev { 0..len } else { 0..0 })
                .collect(),
            Distribution::Copy => (0..devices).map(|_| 0..len).collect(),
            Distribution::Block => Self::block_ranges(len, &vec![1.0; devices]),
            Distribution::BlockWeighted(weights) => weighted_ranges(len, devices, weights),
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

    /// Total vector length.
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

    /// Build a partition from explicit per-device element ranges (used to
    /// flatten 2-D row layouts into the 1-D element space element-wise
    /// kernels iterate over).
    pub(crate) fn from_ranges(ranges: Vec<Range<usize>>, len: usize) -> Partition {
        Partition { ranges, len }
    }
}

impl PartLayout for Partition {
    fn len(&self) -> usize {
        self.len
    }

    fn device_count(&self) -> usize {
        Partition::device_count(self)
    }

    fn active_devices(&self) -> Vec<usize> {
        Partition::active_devices(self)
    }

    fn stored_len(&self, device: usize) -> usize {
        self.size(device)
    }

    fn upload_segments(&self, device: usize, _edge: EdgePolicy) -> Vec<PartSegment> {
        let range = self.range(device);
        if range.is_empty() {
            Vec::new()
        } else {
            vec![PartSegment::Host(range)]
        }
    }

    fn gather_segment(&self, device: usize) -> Option<(usize, Range<usize>)> {
        let range = self.range(device);
        (!range.is_empty()).then_some((0, range))
    }

    fn has_halo(&self) -> bool {
        false
    }

    fn halo_segments(&self, _device: usize, _edge: EdgePolicy, _sweeps: usize) -> Vec<HaloSegment> {
        Vec::new()
    }

    fn flat_partition(&self) -> Partition {
        self.clone()
    }
}

// ---------------------------------------------------------------------------
// 2-D (matrix) distributions
// ---------------------------------------------------------------------------

/// How a [`crate::matrix::Matrix`] is distributed across the devices of the
/// runtime. Matrices are row-major and are always split at row granularity,
/// so every device part is a contiguous range of whole rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixDistribution {
    /// The whole matrix on a single device.
    Single(usize),
    /// Contiguous, disjoint, evenly-sized row blocks on every device.
    RowBlock,
    /// A full copy of the matrix on every device.
    Copy,
    /// Row blocks where each device's part additionally carries `halo_rows`
    /// read-only rows from its neighbours above and below (filled by a
    /// [`Boundary`] policy at the matrix edges). This is the distribution of
    /// stencil ([`crate::skeletons::MapOverlap`]) inputs: redistribution
    /// between sweeps exchanges only the halo rows, never whole parts.
    OverlapBlock {
        /// Number of neighbour rows replicated on each side of a part.
        halo_rows: usize,
    },
    /// Row blocks sized proportionally to the given weights (one weight per
    /// device, fixed-point thousandths like
    /// [`Distribution::BlockWeighted`]). The fault-recovery layer uses this
    /// to re-partition a matrix onto the surviving devices after a device
    /// loss: lost devices get weight zero and hold no rows.
    RowBlockWeighted(Vec<u32>),
    /// [`MatrixDistribution::OverlapBlock`] with weighted row blocks — the
    /// stencil counterpart of [`MatrixDistribution::RowBlockWeighted`].
    OverlapBlockWeighted {
        /// Number of neighbour rows replicated on each side of a part.
        halo_rows: usize,
        /// Per-device weights in fixed-point thousandths.
        weights: Vec<u32>,
    },
}

impl MatrixDistribution {
    /// The default distribution of newly created matrices.
    pub fn default_for_inputs() -> MatrixDistribution {
        MatrixDistribution::RowBlock
    }

    /// Build a weighted row-block distribution from floating-point weights.
    pub fn row_block_weighted(weights: &[f64]) -> MatrixDistribution {
        MatrixDistribution::RowBlockWeighted(scale_weights(weights))
    }

    /// Build a weighted overlap-block distribution from floating-point
    /// weights.
    pub fn overlap_block_weighted(halo_rows: usize, weights: &[f64]) -> MatrixDistribution {
        MatrixDistribution::OverlapBlockWeighted {
            halo_rows,
            weights: scale_weights(weights),
        }
    }

    /// The halo width of the distribution (zero for non-overlapping ones).
    pub fn halo_rows(&self) -> usize {
        match self {
            MatrixDistribution::OverlapBlock { halo_rows }
            | MatrixDistribution::OverlapBlockWeighted { halo_rows, .. } => *halo_rows,
            _ => 0,
        }
    }

    /// Whether the distribution replicates halo rows around each part
    /// (either overlap variant).
    pub fn is_overlap(&self) -> bool {
        matches!(
            self,
            MatrixDistribution::OverlapBlock { .. }
                | MatrixDistribution::OverlapBlockWeighted { .. }
        )
    }
}

impl Partitioning for MatrixDistribution {
    /// `(rows, cols)` of the matrix.
    type Shape = (usize, usize);
    type Layout = RowPartition;

    fn layout(&self, (rows, cols): (usize, usize), devices: usize) -> RowPartition {
        RowPartition::compute(rows, cols, devices, self)
    }

    fn validate(&self, devices: usize) -> Result<()> {
        if let MatrixDistribution::Single(d) = self {
            if *d >= devices {
                return Err(SkelError::Distribution(format!(
                    "single distribution names device {d} but the runtime has {devices} devices"
                )));
            }
        }
        Ok(())
    }

    fn is_replicated(&self) -> bool {
        matches!(self, MatrixDistribution::Copy)
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

/// The concrete row partitioning of a `rows × cols` matrix over `devices`
/// devices: for each device the *core* row range it owns, plus the halo
/// width of [`MatrixDistribution::OverlapBlock`] and the padding rows each
/// part stores around its core.
///
/// The stored padding is at least the halo and is a private property of the
/// stored layout, not of the distribution: the iterative stencil driver
/// stores `k · halo` *ghost* rows towards a neighbouring device's part
/// (`with_ghost_depth`) so that one halo exchange pays for
/// `k` sweeps; towards a container edge the padding is always `halo` rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPartition {
    ranges: Vec<Range<usize>>,
    rows: usize,
    cols: usize,
    halo: usize,
    /// Rows each device stores above and below its core rows.
    pads: Vec<(usize, usize)>,
}

impl RowPartition {
    /// Compute the row partition of a `rows × cols` matrix for `devices`
    /// devices under `distribution`.
    pub fn compute(
        rows: usize,
        cols: usize,
        devices: usize,
        distribution: &MatrixDistribution,
    ) -> RowPartition {
        assert!(devices > 0, "a runtime always has at least one device");
        let (ranges, halo) = match distribution {
            MatrixDistribution::Single(dev) => (
                (0..devices)
                    .map(|d| if d == *dev { 0..rows } else { 0..0 })
                    .collect(),
                0,
            ),
            MatrixDistribution::Copy => ((0..devices).map(|_| 0..rows).collect(), 0),
            MatrixDistribution::RowBlock => (Partition::block_ranges(rows, &vec![1.0; devices]), 0),
            MatrixDistribution::OverlapBlock { halo_rows } => (
                Partition::block_ranges(rows, &vec![1.0; devices]),
                *halo_rows,
            ),
            MatrixDistribution::RowBlockWeighted(weights) => {
                (weighted_ranges(rows, devices, weights), 0)
            }
            MatrixDistribution::OverlapBlockWeighted { halo_rows, weights } => {
                (weighted_ranges(rows, devices, weights), *halo_rows)
            }
        };
        RowPartition {
            ranges,
            rows,
            cols,
            halo,
            pads: vec![(halo, halo); devices],
        }
    }

    /// The core row range device `d` owns (exclusive of halo rows).
    pub fn core_rows(&self, device: usize) -> Range<usize> {
        self.ranges.get(device).cloned().unwrap_or(0..0)
    }

    /// Number of core rows device `d` owns.
    pub fn core_row_count(&self, device: usize) -> usize {
        self.core_rows(device).len()
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

    /// The halo width of the partition.
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Matrix height in rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix width in columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of devices (including inactive ones).
    pub fn device_count(&self) -> usize {
        self.ranges.len()
    }

    /// Devices that own at least one core row.
    pub fn active_devices(&self) -> Vec<usize> {
        self.ranges
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty())
            .map(|(d, _)| d)
            .collect()
    }

    /// The device whose core rows contain global row `row` (`None` for
    /// copy/single layouts should be resolved by the caller; every row of a
    /// block layout has exactly one owner).
    pub fn row_owner(&self, row: usize) -> Option<usize> {
        self.ranges
            .iter()
            .position(|r| !r.is_empty() && r.contains(&row))
    }

    /// Per-device core row counts.
    pub fn core_row_counts(&self) -> Vec<usize> {
        self.ranges.iter().map(|r| r.len()).collect()
    }

    /// Resolve padded row index `p` (may be negative or `>= rows`) to its
    /// source under the edge policy: a real matrix row, or `None` for a
    /// policy-filled row ([`EdgePolicy::Fill`] beyond the edges).
    fn row_source(&self, p: i64, edge: EdgePolicy) -> Option<usize> {
        let rows = self.rows as i64;
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
        let smallest = self.ranges.iter().map(|r| r.len()).filter(|&n| n > 0).min();
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
}

impl PartLayout for RowPartition {
    fn len(&self) -> usize {
        self.rows * self.cols
    }

    fn device_count(&self) -> usize {
        RowPartition::device_count(self)
    }

    fn active_devices(&self) -> Vec<usize> {
        RowPartition::active_devices(self)
    }

    fn stored_len(&self, device: usize) -> usize {
        RowPartition::stored_len(self, device)
    }

    fn upload_segments(&self, device: usize, edge: EdgePolicy) -> Vec<PartSegment> {
        if RowPartition::stored_len(self, device) == 0 {
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

    fn gather_segment(&self, device: usize) -> Option<(usize, Range<usize>)> {
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

    fn has_halo(&self) -> bool {
        self.halo > 0
    }

    fn halo_sweeps(&self, edge: EdgePolicy) -> usize {
        self.ghost_depth(edge)
    }

    /// The halo regions of device `d`'s part. Consecutive halo slots whose
    /// sources are consecutive rows of the same owning device are grouped
    /// into one [`HaloSegment::Remote`], so the exchange between two
    /// neighbouring parts is a single `sweeps · halo_rows × cols` read plus
    /// one write; policy-filled edge rows become per-row
    /// [`HaloSegment::Fill`]s. `sweeps == 0` asks for what the device
    /// refreshes by itself only — its fills and the copies of rows it owns.
    fn halo_segments(&self, device: usize, edge: EdgePolicy, sweeps: usize) -> Vec<HaloSegment> {
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
    /// kernel iterates when a matrix is launched through the
    /// [`crate::container::Container`] interface.
    fn flat_partition(&self) -> Partition {
        let cols = self.cols;
        let ranges = self
            .ranges
            .iter()
            .map(|r| r.start * cols..r.end * cols)
            .collect();
        Partition::from_ranges(ranges, self.rows * cols)
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
                let p = RowPartition::compute(rows, 7, devices, &MatrixDistribution::RowBlock);
                let mut next = 0;
                for d in 0..devices {
                    let r = p.core_rows(d);
                    assert_eq!(r.start, next, "row blocks must be contiguous");
                    next = r.end;
                    assert_eq!(p.core_len(d), r.len() * 7);
                    assert_eq!(p.stored_len(d), p.core_len(d), "no halo under RowBlock");
                }
                assert_eq!(next, rows);
            }
        }
    }

    #[test]
    fn overlap_partition_pads_every_active_part_by_the_halo() {
        let d = MatrixDistribution::OverlapBlock { halo_rows: 2 };
        let p = RowPartition::compute(10, 4, 3, &d);
        assert_eq!(p.halo(), 2);
        assert_eq!(p.core_row_counts(), vec![3, 4, 3]);
        for dev in 0..3 {
            assert_eq!(p.stored_row_count(dev), p.core_row_count(dev) + 4);
            assert_eq!(p.stored_len(dev), p.stored_row_count(dev) * 4);
        }
        assert_eq!(d.halo_rows(), 2);
        assert_eq!(MatrixDistribution::RowBlock.halo_rows(), 0);
    }

    #[test]
    fn ghost_depth_deepens_the_padding_towards_neighbours_only() {
        let d = MatrixDistribution::OverlapBlock { halo_rows: 2 };
        let flat = RowPartition::compute(30, 4, 3, &d);
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
        let d = MatrixDistribution::OverlapBlock { halo_rows: 1 };
        // More devices than rows: some devices own nothing and store nothing.
        let p = RowPartition::compute(2, 3, 4, &d);
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
        let single = RowPartition::compute(6, 2, 3, &MatrixDistribution::Single(1));
        assert_eq!(single.core_row_counts(), vec![0, 6, 0]);
        assert_eq!(single.active_devices(), vec![1]);
        let copy = RowPartition::compute(6, 2, 3, &MatrixDistribution::Copy);
        assert_eq!(copy.core_row_counts(), vec![6, 6, 6]);
    }

    #[test]
    fn boundary_policy_codes_match_the_kernel_language() {
        assert_eq!(Boundary::<f32>::Clamp.policy_code(), 0);
        assert_eq!(Boundary::<f32>::Wrap.policy_code(), 1);
        assert_eq!(Boundary::Constant(1.5f32).policy_code(), 2);
    }
}
