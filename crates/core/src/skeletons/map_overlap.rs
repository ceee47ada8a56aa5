//! The map-overlap (stencil) skeleton: `out[r, c] = f(in[r, c])` where the
//! user-defined function may read neighbouring elements through the
//! `get(dx, dy)` builtin — the workload class of image filters, PDE solvers
//! and convolutions.
//!
//! Multi-device execution builds on overlapped row blocks
//! ([`Matrix::set_overlap`]):
//! each device owns a block of rows and additionally stores `halo` read-only
//! rows from its neighbours, filled by the configured [`Boundary`] policy at
//! the matrix edges. A single launch uploads the halo-padded parts and runs
//! one kernel per device over its core elements; the **iterative driver**
//! ([`MapOverlap::run_iter`] / `Launch::run_iter`) ping-pongs between two
//! padded buffers and re-establishes coherence between sweeps by exchanging
//! *only halo rows* — never whole parts — once per block of `k` sweeps: the
//! parts store `k · halo` ghost rows towards each neighbouring device and
//! recompute the shrinking overlap redundantly in between (see `run_iter`).
//! Everything is visible in the oclsim transfer stats and the runtime's halo
//! counters.

use std::convert::Infallible;
use std::sync::Arc;

use oclsim::Pod;

use crate::container::EdgePolicy;
use crate::distribution::Boundary;
use crate::error::{Result, SkelError};
use crate::kernelgen::{StageKind, UdfInfo};
use crate::matrix::Matrix;
use crate::plan::{run_on_matrix, Group, Stage};
use crate::skeletons::{Launch, LaunchConfig, Skeleton, Udf};

/// The map-overlap (stencil) skeleton over [`Matrix`] inputs.
///
/// The user-defined function receives the centre element and reads
/// neighbours with `get(dx, dy)` (column offset `dx`, row offset `dy`, with
/// `|dy| <= halo`); out-of-bound accesses follow the configured
/// [`Boundary`] policy.
///
/// ```
/// use skelcl::prelude::*;
///
/// let rt = skelcl::init_gpus(2);
/// let avg = MapOverlap::<f32, f32>::from_source(
///     "float func(float x) { return 0.2f * (x + get(-1, 0) + get(1, 0) + get(0, -1) + get(0, 1)); }",
/// )
/// .with_halo(1)
/// .with_boundary(Boundary::Clamp);
/// let m = Matrix::from_fn(&rt, 6, 6, |r, c| (r * 6 + c) as f32);
/// let out = avg.run(&m).exec().unwrap();
/// assert_eq!(out.rows(), 6);
/// # assert_eq!(out.cols(), 6);
/// ```
pub struct MapOverlap<I: Pod, O: Pod> {
    /// Source text only: a stencil's user function reads its neighbours
    /// through the kernel language's `get`, so it has no closure form.
    udf: Udf<Infallible>,
    halo: usize,
    boundary: Boundary<I>,
    _out: std::marker::PhantomData<fn() -> O>,
}

impl<O: Pod> MapOverlap<f32, O> {
    /// Customise the skeleton with a user-defined function given as source
    /// code in the kernel language. The UDF's first parameter receives the
    /// centre element (a `float`); further scalar parameters receive the
    /// additional arguments of the call; neighbours are read with
    /// `get(dx, dy)`. Defaults: halo width 1, clamping boundary.
    pub fn from_source(source: &str) -> MapOverlap<f32, O> {
        MapOverlap {
            udf: Udf::source(source, 1),
            halo: 1,
            boundary: Boundary::Clamp,
            _out: std::marker::PhantomData,
        }
    }

    /// Set the halo width: the largest `|dy|` the user function reads. Wider
    /// halos replicate more neighbour rows per device (and move more data
    /// per exchange) but are required for larger stencils.
    pub fn with_halo(mut self, halo_rows: usize) -> Self {
        self.halo = halo_rows;
        self
    }

    /// Set the out-of-bound policy applied at the matrix edges (both the
    /// halo fill of edge parts and column accesses inside the kernel).
    pub fn with_boundary(mut self, boundary: Boundary<f32>) -> Self {
        self.boundary = boundary;
        self
    }

    /// The configured halo width.
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// The configured boundary policy.
    pub fn boundary(&self) -> Boundary<f32> {
        self.boundary
    }

    /// This skeleton's user function as a lazy plan stage.
    pub(crate) fn plan_udf(&self) -> Result<Arc<UdfInfo>> {
        self.udf.plan_stage("map_overlap")
    }

    /// Begin a launch of this skeleton over `input`:
    /// `stencil.run(&m).arg(0.25f32).exec()?`.
    pub fn run<'a>(&'a self, input: &Matrix<f32>) -> Launch<'a, Self, Matrix<f32>> {
        Launch::new(self, input.clone())
    }

    /// One stencil sweep, a one-stage group over the input's halo-padded
    /// parts ([`run_on_matrix`]) writing padded outputs of the input's actual
    /// layout. `sweeps` is how many sweeps, this one included, run before the
    /// next exchange between devices; `reuse` is the iterative driver's
    /// ping-pong target. Losses that cannot be recovered from host-valid
    /// state escape to the caller (`run_iter` then replays its checkpoint).
    fn execute_overlap(
        &self,
        input: &Matrix<f32>,
        cfg: &LaunchConfig<'_>,
        reuse: Option<&Matrix<O>>,
        sweeps: usize,
    ) -> Result<Matrix<O>> {
        let stage = self
            .udf
            .stage::<O>(StageKind::MapOverlap, |f, _| match *f {})?;
        let stage = Stage {
            stencil: Some((self.halo, self.boundary, sweeps)),
            ..stage
        };
        run_on_matrix(&Group::of(vec![(0, &stage)]), input, cfg, reuse)
    }

    /// The exchange cadence — decided here and nowhere else: how many sweeps
    /// the halo exchange `input` is about to need should pay for, given that
    /// `left` sweeps remain before the run ends or checkpoints.
    ///
    /// A block of `k` sweeps exchanges `k · halo` rows per neighbour once and
    /// computes a shrinking band of ghost rows redundantly; it is priced
    /// with what the runtime already charges — per sweep the host pays the
    /// dispatch overhead plus one enqueue per command (kernels, the edge
    /// rows each device refreshes by itself, and in an exchange sweep one
    /// read and one forward per neighbour), every device pays what the
    /// simulator charges on its profile for its transfers
    /// ([`oclsim::ApiModel::transfer_time`]), edge refreshes and widened
    /// kernel ([`oclsim::ApiModel::kernel_time`] at the UDF's cost plus the
    /// centre load, the `get`s and the store), and parts resident with a
    /// shallower ghost zone pay the on-device re-pad once.
    /// The host never waits inside a run, so `left` sweeps cost the larger of
    /// the host's total and the slowest device's; the smallest `k` with the
    /// lowest total wins, capped by `left` and by the smallest part
    /// ([`RowPartition::max_ghost_depth`]): the cap while the host's
    /// enqueues bound the run, less once the redundant rows cost more than
    /// the exchanges they save (`tests/stencil_depth_referee.rs` holds both).
    /// One active device has nobody to exchange with: 1.
    fn exchange_cadence(&self, input: &Matrix<f32>, left: usize) -> Result<usize> {
        let runtime = input.runtime();
        let (edge, _) = crate::matrix::boundary_parts(&self.boundary);
        let (layout, resident) = input.overlap_layout(self.halo);
        let active = layout.active_devices();
        let limit = left.min(layout.max_ghost_depth());
        if active.len() < 2 || limit < 2 || self.halo == 0 {
            return Ok(1);
        }
        // Depths the resident parts already store need no re-pad; the
        // candidates' kernels are sized on the deepest layout.
        let stored = if resident {
            layout.ghost_depth(edge)
        } else {
            limit
        };
        let layout = layout.with_ghost_depth(limit, edge);
        let info = self.plan_udf()?;
        // Per element: the UDF's work; the centre load, the `get`s, the store.
        let flops = info.cost.flops_equivalent();
        let bytes = 4.0 + info.cost.global_bytes + 4.0;
        let context = runtime.context();
        let api = context.api();
        let secs = |d: oclsim::SimDuration| d.as_secs_f64();
        let (enqueue, cols) = (secs(api.enqueue_overhead), layout.cols());
        let row_bytes = cols * std::mem::size_of::<f32>();

        // Per device, by block depth `k`: what a block costs it — the exchange
        // with its neighbours, and `k` sweeps of edge refreshes and kernels,
        // the kernel of the sweep with `due` sweeps to go `due − 1` halo
        // widths wider per neighbour.
        let mut neighbours = 0;
        let mut edge_rows = 0;
        let mut devices = Vec::with_capacity(active.len());
        for &device in &active {
            let profile = &context.device(device)?.profile;
            let (above, below) = layout.faces_neighbour(device, edge);
            let facing = usize::from(above) + usize::from(below);
            let own_rows = (2 - facing) * self.halo;
            let refresh = match edge {
                EdgePolicy::Fill => api.transfer_time(profile, row_bytes),
                _ => api.kernel_time(profile, cols, 0.0, 8.0),
            };
            let mut sweeps = 0.0;
            let mut block = vec![0.0];
            for due in 1..=limit {
                let items = layout.sweep_rows(device, edge, due).1 * cols;
                let kernel = api.kernel_time(profile, items, flops, bytes);
                sweeps += own_rows as f64 * secs(refresh) + secs(kernel);
                let exchange = api.transfer_time(profile, due * self.halo * row_bytes);
                block.push(2.0 * facing as f64 * secs(exchange) + sweeps);
            }
            let copy = api.kernel_time(profile, layout.core_len(device), 0.0, 8.0);
            neighbours += facing;
            edge_rows += own_rows;
            devices.push((block, secs(copy)));
        }
        let sweep_host = secs(api.dispatch_overhead) + enqueue * (active.len() + edge_rows) as f64;
        let block_host = |k: usize| match k {
            0 => 0.0,
            _ => 2.0 * enqueue * neighbours as f64 + k as f64 * sweep_host,
        };

        let mut best = (f64::INFINITY, 1);
        for k in 1..=limit {
            // `left` sweeps are `full` blocks of `k` and one of `rest`.
            let (full, rest) = ((left / k) as f64, left % k);
            let repad = if k > stored { 1.0 } else { 0.0 };
            let host =
                full * block_host(k) + block_host(rest) + repad * enqueue * active.len() as f64;
            let slowest = devices
                .iter()
                .map(|(block, copy)| full * block[k] + block[rest] + repad * copy)
                .fold(0.0, f64::max);
            let total = host.max(slowest);
            if total < best.0 {
                best = (total, k);
            }
        }
        Ok(best.1)
    }
}

impl<O: Pod> Skeleton<Matrix<f32>> for MapOverlap<f32, O> {
    type Output = Matrix<O>;

    fn name(&self) -> &'static str {
        "map_overlap"
    }

    fn execute(&self, input: &Matrix<f32>, cfg: &LaunchConfig<'_>) -> Result<Matrix<O>> {
        self.execute_overlap(input, cfg, None, 1)
    }
}

impl<O: Pod> Launch<'_, MapOverlap<f32, O>, Matrix<f32>> {
    /// Execute one sweep and return the output matrix (identity terminal
    /// form, symmetric with the other skeletons).
    pub fn into_matrix(self) -> Result<Matrix<O>> {
        self.exec()
    }
}

impl Launch<'_, MapOverlap<f32, f32>, Matrix<f32>> {
    /// The iterative-stencil driver: run `sweeps` sweeps, feeding each
    /// sweep's output into the next. The core parts stay on their devices and
    /// device memory ping-pongs between two padded buffers, so the steady
    /// state allocates nothing.
    ///
    /// Sweeps run in blocks of `k` between halo exchanges. A part stores
    /// `k · halo` *ghost* rows towards each neighbouring device's part; one
    /// exchange — per neighbour one read and one forwarded write of
    /// `k · halo` rows, no host in the loop — fills them, and sweep `j` of
    /// the block computes, besides its core rows, the `(k − 1 − j) · halo`
    /// ghost rows per neighbour that the later sweeps of the block read
    /// (redundantly: the neighbour computes them too, to the same bits).
    /// Rows beyond a container edge are `halo` deep and refreshed by the
    /// device itself before every sweep (clamp copy, fill, or wrap copy).
    /// `k` is chosen per block from the runtime's own prices — the host's
    /// enqueue and dispatch overheads against the redundant rows' kernel time
    /// — and is capped by the sweeps left, by [`Launch::checkpoint_every`] (a
    /// block never straddles a checkpoint) and by the smallest part; one
    /// active device, or one sweep, is `k = 1`: an exchange before every
    /// sweep. The result is bit-identical for every `k`.
    ///
    /// `run_iter(0)` is an error (an empty launch); `run_iter(1)` is
    /// equivalent to [`Launch::exec`].
    ///
    /// # Fault tolerance
    ///
    /// Each sweep recovers transient faults and device losses in place when
    /// the state needed for a replay is host-valid. A loss that strikes while
    /// the only up-to-date state is device-resident (the common case between
    /// sweeps) cannot be replayed from the current sweep; with
    /// [`Launch::checkpoint_every`] set, the driver then rolls back to the
    /// most recent host-side checkpoint and re-runs the sweeps from there —
    /// without checkpoints it restarts from the original input. Either way
    /// the result is bitwise identical to a fault-free run.
    pub fn run_iter(self, sweeps: usize) -> Result<Matrix<f32>> {
        self.run_blocks(sweeps, None)
    }

    /// [`Launch::run_iter`] with every block's depth forced to `depth`
    /// (still capped as the chosen one is) — for the tests that pin every
    /// depth to the same bits and referee the chosen one against the rest.
    #[doc(hidden)]
    pub fn run_iter_at_depth(self, sweeps: usize, depth: usize) -> Result<Matrix<f32>> {
        self.run_blocks(sweeps, Some(depth))
    }

    fn run_blocks(self, sweeps: usize, forced: Option<usize>) -> Result<Matrix<f32>> {
        if sweeps == 0 {
            return Err(SkelError::EmptyInput);
        }
        let runtime = self.input.runtime();
        let every = self.cfg.checkpoint_every;
        // Last host-side checkpoint: sweeps completed and the gathered state.
        let mut checkpoint: Option<(usize, Vec<f32>)> = None;
        let mut restores = 0usize;
        let max_restores = runtime.device_count() + 4;
        let mut cur = self.input.clone();
        let mut spare: Option<Matrix<f32>> = None;
        let mut sweep = 0;
        while sweep < sweeps {
            // One recoverable step: the sweep itself *and* the checkpoint
            // gather. A device death striking during the gather's blocking
            // reads must roll back like a failed sweep, not escape.
            let step = (|| -> Result<()> {
                // Sweeps until the run ends or checkpoints; ghost rows still
                // good for some of them are used up before the next block's
                // depth is chosen.
                let mut left = sweeps - sweep;
                if every > 0 {
                    left = left.min(every - sweep % every);
                }
                let block = match (cur.ghost_sweeps(), forced) {
                    (0, None) => self.skeleton.exchange_cadence(&cur, left)?,
                    (0, Some(depth)) => depth.clamp(1, left),
                    (held, _) => held.min(left),
                };
                let out = self
                    .skeleton
                    .execute_overlap(&cur, &self.cfg, spare.as_ref(), block)?;
                // The user's input matrix is never recycled as a target;
                // every internal intermediate is.
                spare = (sweep > 0).then(|| cur.clone());
                cur = out;
                sweep += 1;
                if every > 0 && sweep % every == 0 && sweep < sweeps {
                    let data = cur.to_vec()?;
                    runtime.note_checkpoint_bytes(data.len() * std::mem::size_of::<f32>());
                    checkpoint = Some((sweep, data));
                }
                Ok(())
            })();
            match step {
                Ok(()) => {}
                Err(e) => {
                    if !runtime.recovery_enabled()
                        || !e.is_injected_fault()
                        || restores >= max_restores
                    {
                        return Err(e);
                    }
                    restores += 1;
                    // Drop errors the failed sweep latched on other queues so
                    // the replay's blocking reads start clean.
                    let _ = runtime.take_deferred_errors();
                    // Roll back to the last host-side state: the most recent
                    // checkpoint, or the original input. The spare ping-pong
                    // target may hold buffers of a lost device — discard it.
                    let done = match &checkpoint {
                        Some((done, data)) => {
                            cur = Matrix::from_vec(
                                &runtime,
                                self.input.rows(),
                                self.input.cols(),
                                data.clone(),
                            )?;
                            *done
                        }
                        None => {
                            cur = self.input.clone();
                            0
                        }
                    };
                    runtime.note_replayed_launches(sweep - done);
                    spare = None;
                    sweep = done;
                }
            }
        }
        if restores > 0 {
            runtime.note_recovery();
        }
        Ok(cur)
    }
}

impl Matrix<f32> {
    /// Apply a [`MapOverlap`] skeleton to this matrix:
    /// `m.map_overlap(&blur)?` is shorthand for `blur.run(&m).exec()?`.
    pub fn map_overlap<O: Pod>(&self, skeleton: &MapOverlap<f32, O>) -> Result<Matrix<O>> {
        skeleton.run(self).exec()
    }

    /// Run `sweeps` iterative stencil sweeps over this matrix:
    /// `m.map_overlap_iter(&heat, 100)?`.
    pub fn map_overlap_iter(
        &self,
        skeleton: &MapOverlap<f32, f32>,
        sweeps: usize,
    ) -> Result<Matrix<f32>> {
        skeleton.run(self).run_iter(sweeps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;
    use crate::runtime::init_gpus;

    const FIVE_POINT_AVG: &str =
        "float func(float x) { return 0.2f * (x + get(-1, 0) + get(1, 0) + get(0, -1) + get(0, 1)); }";

    /// Scalar host reference for a stencil, mirroring the engines' float
    /// semantics (every op is a single correctly-rounded f32 operation).
    fn host_stencil(
        input: &[f32],
        rows: usize,
        cols: usize,
        halo: i64,
        boundary: Boundary<f32>,
        f: impl Fn(&dyn Fn(i64, i64) -> f32, f32) -> f32,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows as i64 {
            for c in 0..cols as i64 {
                let get = |dx: i64, dy: i64| -> f32 {
                    assert!(dy.abs() <= halo, "reference probe within halo");
                    let rr = match boundary {
                        Boundary::Clamp => (r + dy).clamp(0, rows as i64 - 1),
                        Boundary::Wrap => (r + dy).rem_euclid(rows as i64),
                        Boundary::Constant(v) => {
                            if !(0..rows as i64).contains(&(r + dy)) {
                                return v;
                            }
                            r + dy
                        }
                    };
                    let cc = match boundary {
                        Boundary::Clamp => (c + dx).clamp(0, cols as i64 - 1),
                        Boundary::Wrap => (c + dx).rem_euclid(cols as i64),
                        Boundary::Constant(v) => {
                            if !(0..cols as i64).contains(&(c + dx)) {
                                return v;
                            }
                            c + dx
                        }
                    };
                    input[(rr * cols as i64 + cc) as usize]
                };
                out[(r * cols as i64 + c) as usize] =
                    f(&get, input[(r * cols as i64 + c) as usize]);
            }
        }
        out
    }

    fn five_point_ref(get: &dyn Fn(i64, i64) -> f32, x: f32) -> f32 {
        0.2f32 * (x + get(-1, 0) + get(1, 0) + get(0, -1) + get(0, 1))
    }

    #[test]
    fn five_point_average_matches_host_reference_on_1_to_4_devices() {
        let rows = 9;
        let cols = 7;
        let input: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 31) % 17) as f32 - 8.0)
            .collect();
        let expected = host_stencil(&input, rows, cols, 1, Boundary::Clamp, five_point_ref);
        for devices in 1..=4 {
            let rt = init_gpus(devices);
            let st = MapOverlap::<f32, f32>::from_source(FIVE_POINT_AVG);
            let m = Matrix::from_vec(&rt, rows, cols, input.clone()).unwrap();
            let out = st.run(&m).exec().unwrap();
            let got = out.to_vec().unwrap();
            let g: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            let e: Vec<u32> = expected.iter().map(|x| x.to_bits()).collect();
            assert_eq!(g, e, "devices = {devices}");
            assert_eq!(
                (out.distribution(), out.halo_rows()),
                (Distribution::Block, 1)
            );
        }
    }

    #[test]
    fn wrap_and_constant_boundaries_match_the_reference() {
        let rows = 6;
        let cols = 5;
        let input: Vec<f32> = (0..rows * cols).map(|i| (i % 11) as f32 * 0.5).collect();
        for boundary in [Boundary::Wrap, Boundary::Constant(-3.5)] {
            let expected = host_stencil(&input, rows, cols, 1, boundary, five_point_ref);
            let rt = init_gpus(3);
            let st = MapOverlap::<f32, f32>::from_source(FIVE_POINT_AVG).with_boundary(boundary);
            let m = Matrix::from_vec(&rt, rows, cols, input.clone()).unwrap();
            let got = st.run(&m).exec().unwrap().to_vec().unwrap();
            assert_eq!(got, expected, "boundary {boundary:?}");
        }
    }

    #[test]
    fn additional_scalar_arguments_reach_the_udf() {
        let rt = init_gpus(2);
        let st = MapOverlap::<f32, f32>::from_source(
            "float func(float x, float a) { return x + a * get(1, 0); }",
        );
        let m = Matrix::from_fn(&rt, 4, 4, |r, c| (r * 4 + c) as f32);
        let out = st.run(&m).arg(10.0f32).exec().unwrap();
        // Interior: x + 10 * right-neighbour.
        assert_eq!(out.get(1, 1).unwrap(), 5.0 + 10.0 * 6.0);
        // Missing arg errors out.
        assert!(matches!(st.run(&m).exec(), Err(SkelError::UdfSignature(_))));
    }

    #[test]
    fn dy_beyond_the_declared_halo_is_a_launch_error() {
        let rt = init_gpus(1);
        let st = MapOverlap::<f32, f32>::from_source("float func(float x) { return get(0, 2); }")
            .with_halo(1);
        let m = Matrix::filled(&rt, 4, 4, 1.0f32);
        let err = st.run(&m).exec().unwrap_err();
        let msg = format!("{err:?}");
        assert!(msg.contains("exceeds the declared halo"), "{msg}");
    }

    #[test]
    fn run_iter_exchanges_halos_not_whole_parts() {
        let rt = init_gpus(2);
        let rows = 32;
        let cols = 16;
        let st = MapOverlap::<f32, f32>::from_source(FIVE_POINT_AVG).with_halo(1);
        let m = Matrix::from_fn(&rt, rows, cols, |r, c| ((r * c) % 13) as f32);

        // Reference: five sequential host sweeps.
        let mut expected = m.to_vec().unwrap();
        for _ in 0..5 {
            expected = host_stencil(&expected, rows, cols, 1, Boundary::Clamp, five_point_ref);
        }

        rt.drain_events();
        // Blocks of 2, 2 and 1 sweeps: the upload covers the first block's
        // ghost rows, the other two start with an exchange.
        let depth = 2;
        let out = st.run(&m).run_iter_at_depth(5, depth).unwrap();

        let events = rt.drain_events();
        // Between-sweep traffic is at most `depth · halo` rows per transfer
        // (cols × 4 bytes each), never a whole part (16 rows × cols × 4); the
        // one bigger transfer per device is the initial padded upload: 16
        // core rows, one clamped edge row, `depth` ghost rows.
        let part_bytes = (rows / 2) * cols * 4;
        let halo_row_bytes = cols * 4;
        let initial_upload = (rows / 2 + 1 + depth) * cols * 4;
        let transfers: Vec<&oclsim::Event> = events
            .iter()
            .flatten()
            .filter(|e| e.is_transfer())
            .collect();
        for e in &transfers {
            assert!(
                e.bytes <= depth * halo_row_bytes || e.bytes == initial_upload,
                "transfer of {} bytes is neither {depth} halo rows nor the initial padded \
                 upload (part = {part_bytes} bytes)",
                e.bytes
            );
        }
        let count = |pred: &dyn Fn(&oclsim::Event) -> bool| -> usize {
            transfers.iter().filter(|e| pred(e)).count()
        };
        assert_eq!(count(&|e| e.bytes == initial_upload), 2);
        // Two exchanges, each one read and one forward per device.
        assert_eq!(count(&|e| e.is_read()), 4);
        assert_eq!(count(&|e| e.is_write() && e.bytes != initial_upload), 4);
        let trace = rt.exec_trace();
        assert!(trace.halo_transfers() > 0, "sweeps must exchange halos");

        let got = out.to_vec().unwrap();
        let g: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
        let e: Vec<u32> = expected.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            g, e,
            "5 iterative sweeps must match 5 host sweeps bit for bit"
        );
    }

    #[test]
    fn run_iter_steady_state_allocates_no_new_buffers() {
        let rt = init_gpus(2);
        let st = MapOverlap::<f32, f32>::from_source(FIVE_POINT_AVG);
        let m = Matrix::filled(&rt, 16, 8, 1.0f32);
        // Warm up: after three sweeps the ping-pong pair exists.
        let _ = st.run(&m).run_iter(3).unwrap();
        let live_before: usize = (0..2)
            .map(|d| rt.context().device(d).unwrap().live_buffers())
            .sum();
        let _ = st.run(&m).run_iter(3).unwrap();
        let live_after: usize = (0..2)
            .map(|d| rt.context().device(d).unwrap().live_buffers())
            .sum();
        // The second run's intermediates were dropped (pooled), so the live
        // count cannot grow without bound.
        assert!(live_after <= live_before + 2);
        assert!(
            rt.exec_trace().buffer_pool_hits > 0,
            "ping-pong reuses pooled buffers"
        );
    }

    #[test]
    fn run_iter_rejects_zero_sweeps_and_matches_single_exec() {
        let rt = init_gpus(2);
        let st = MapOverlap::<f32, f32>::from_source(FIVE_POINT_AVG);
        let m = Matrix::from_fn(&rt, 5, 5, |r, c| (r + c) as f32);
        assert!(st.run(&m).run_iter(0).is_err());
        let once = st.run(&m).run_iter(1).unwrap().to_vec().unwrap();
        let exec = st.run(&m).exec().unwrap().to_vec().unwrap();
        assert_eq!(once, exec);
    }

    #[test]
    fn schedulers_and_device_subsets_are_rejected() {
        let rt = init_gpus(2);
        let st = MapOverlap::<f32, f32>::from_source(FIVE_POINT_AVG);
        let m = Matrix::filled(&rt, 4, 4, 0.0f32);
        assert!(st
            .run(&m)
            .devices(crate::runtime::DeviceSelection::Gpus(1))
            .exec()
            .is_err());
        let scheduler = crate::scheduler::StaticScheduler::analytical(&rt);
        assert!(st.run(&m).scheduler(&scheduler).exec().is_err());
    }

    #[test]
    fn skeleton_trait_uniform_dispatch() {
        let rt = init_gpus(2);
        let st = MapOverlap::<f32, f32>::from_source(FIVE_POINT_AVG);
        assert_eq!(st.name(), "map_overlap");
        let m = Matrix::filled(&rt, 3, 3, 1.0f32);
        let out = Skeleton::execute(&st, &m, &LaunchConfig::default()).unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![1.0f32; 9]);
    }

    #[test]
    fn fluent_matrix_pipeline() {
        let rt = init_gpus(2);
        let st = MapOverlap::<f32, f32>::from_source(FIVE_POINT_AVG);
        let m = Matrix::filled(&rt, 4, 4, 2.0f32);
        assert_eq!(
            m.map_overlap(&st).unwrap().to_vec().unwrap(),
            vec![2.0f32; 16]
        );
        assert_eq!(
            m.map_overlap_iter(&st, 3).unwrap().to_vec().unwrap(),
            vec![2.0f32; 16]
        );
    }
}
