//! The map-overlap (stencil) skeleton: `out[r, c] = f(in[r, c])` where the
//! user-defined function may read neighbouring elements through the
//! `get(dx, dy)` builtin — the workload class of image filters, PDE solvers
//! and convolutions.
//!
//! Multi-device execution builds on
//! [`crate::distribution::MatrixDistribution::OverlapBlock`]:
//! each device owns a block of rows and additionally stores `halo` read-only
//! rows from its neighbours, filled by the configured [`Boundary`] policy at
//! the matrix edges. A single launch uploads the halo-padded parts and runs
//! one kernel per device over its core elements; the **iterative driver**
//! ([`MapOverlap::run_iter`] / `Launch::run_iter`) ping-pongs between two
//! padded buffers and re-establishes coherence between sweeps by exchanging
//! *only the halo rows* — never whole parts — which is visible in the oclsim
//! transfer stats and the runtime's halo counters.

use std::convert::Infallible;
use std::sync::Arc;

use oclsim::{Pod, Value};

use crate::distribution::Boundary;
use crate::error::{Result, SkelError};
use crate::kernelgen::{StageKind, UdfInfo};
use crate::matrix::Matrix;
use crate::skeletons::{run_call, CallSpec, Launch, LaunchConfig, PreparedCall, Skeleton, Udf};

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

    /// The skeleton a matrix plan's stencil stage runs: the stage's analysed
    /// user function and geometry, launched as any eager stencil is.
    pub(crate) fn from_stage(
        info: Arc<UdfInfo>,
        halo: usize,
        boundary: Boundary<f32>,
    ) -> MapOverlap<f32, O> {
        MapOverlap {
            udf: Udf::analysed(Ok(info)),
            halo,
            boundary,
            _out: std::marker::PhantomData,
        }
    }

    /// Begin a launch of this skeleton over `input`:
    /// `stencil.run(&m).arg(0.25f32).exec()?`.
    pub fn run<'a>(&'a self, input: &Matrix<f32>) -> Launch<'a, Self, Matrix<f32>> {
        Launch::new(self, input.clone())
    }

    /// One stencil sweep, through the one call path: the input is coerced to
    /// the overlap layout and prepared with its halo-padded parts (uploaded,
    /// or — between sweeps — refreshed by a halo exchange); the sweep is the
    /// element-shaped launch over each device's core elements, told the
    /// stencil's geometry, writing halo-padded outputs of the input's actual
    /// layout (the weighted overlap variant after a recovery re-partition).
    /// `reuse` is the iterative driver's ping-pong target, written in place
    /// where its buffers still fit. Losses that cannot be recovered from
    /// host-valid state escape to the caller (`run_iter` then replays from
    /// its last checkpoint).
    fn execute_overlap(
        &self,
        input: &Matrix<f32>,
        cfg: &LaunchConfig<'_>,
        reuse: Option<&Matrix<O>>,
    ) -> Result<Matrix<O>> {
        let spec = CallSpec {
            coerce: &|| input.set_overlap(self.halo, self.boundary),
            keep_halo: true,
            ..CallSpec::eager(self.udf.scheduler_cost_for(cfg)?)
        };
        let oob = match self.boundary {
            Boundary::Constant(c) => c,
            _ => 0.0,
        };
        let geometry = [
            Value::Int(input.cols() as i32),
            Value::Int(self.halo as i32),
            Value::Int(self.boundary.policy_code()),
            Value::Float(oob),
        ];
        run_call(&input.runtime(), &[input], cfg, &spec, &mut |call| {
            let kernels = self
                .udf
                .kernels(call, StageKind::MapOverlap, |f, _| match *f {})?;
            let out_buffers = call.launch_elementwise(&kernels.kernel, &geometry, reuse)?;
            PreparedCall::wrap_output(input, out_buffers, reuse)
        })
    }
}

impl<O: Pod> Skeleton<Matrix<f32>> for MapOverlap<f32, O> {
    type Output = Matrix<O>;

    fn name(&self) -> &'static str {
        "map_overlap"
    }

    fn execute(&self, input: &Matrix<f32>, cfg: &LaunchConfig<'_>) -> Result<Matrix<O>> {
        self.execute_overlap(input, cfg, None)
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
    /// sweep's output into the next. Between sweeps only the halo rows are
    /// re-exchanged — the core parts stay on their devices — and device
    /// memory ping-pongs between two padded buffers, so the steady state
    /// allocates nothing.
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
                let out = self
                    .skeleton
                    .execute_overlap(&cur, &self.cfg, spare.as_ref())?;
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
    use crate::distribution::MatrixDistribution;
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
                out.distribution(),
                MatrixDistribution::OverlapBlock { halo_rows: 1 }
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
        let out = st.run(&m).run_iter(5).unwrap();

        let events = rt.drain_events();
        // Count upload bytes after the initial padded upload: between-sweep
        // traffic must be halo-sized (1 row × cols × 4 bytes per transfer),
        // never a whole part (16 rows × cols × 4).
        let part_bytes = (rows / 2) * cols * 4;
        let halo_row_bytes = cols * 4;
        let transfers: Vec<usize> = events
            .iter()
            .flatten()
            .filter(|e| e.is_transfer())
            .map(|e| e.bytes)
            .collect();
        let initial_upload = (rows / 2 + 2) * cols * 4;
        for b in &transfers {
            assert!(
                *b <= halo_row_bytes || *b == initial_upload,
                "transfer of {b} bytes is neither a halo row nor the initial padded upload \
                 (part = {part_bytes} bytes)"
            );
        }
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
