//! Differential tests for the native execution tier: native ≡ interpreter,
//! on results (bit for bit), measured [`ExecStats`] and error
//! messages, across control flow, divergence (generated nested branches and
//! loops under lane masks), cross-lane hazards, division by zero, early exit,
//! stencil `get(dx, dy)` kernels and the chunked reduce template — plus tests
//! of tier selection (`Tier::Native`, the default, is native from the first
//! launch, ineligible kernels fall back with a reason, pins hold).

use proptest::prelude::*;

use skelcl_kernel::interp::{ArgBinding, BufferView, ExecStats};
use skelcl_kernel::value::Value;
use skelcl_kernel::{LaunchTrace, Program, Tier};

/// Final buffer contents (also after a failed launch: the items before the
/// failing one have run) plus the measured stats and launch trace (default
/// off the native tier) or the error message.
type Outcome = (Vec<Vec<f32>>, Result<(ExecStats, LaunchTrace), String>);

#[derive(Clone, Copy, Debug, PartialEq)]
enum Engine {
    Interp,
    Native,
}

fn run_engine(
    src: &str,
    kernel: &str,
    buffers: &[Vec<f32>],
    scalars: &[Value],
    global_size: usize,
    engine: Engine,
) -> Outcome {
    let p = Program::build(src).expect("test kernels must build");
    let k = p.kernel(kernel).expect("kernel exists");
    if engine == Engine::Native {
        p.set_tier(Tier::Native);
    }
    let mut bufs: Vec<Vec<f32>> = buffers.to_vec();
    let mut args: Vec<ArgBinding<'_>> = Vec::new();
    for b in &mut bufs {
        args.push(ArgBinding::Buffer(BufferView::F32(b)));
    }
    for s in scalars {
        args.push(ArgBinding::Scalar(*s));
    }
    let untraced = |stats| (stats, LaunchTrace::default());
    let result = match engine {
        Engine::Interp => p
            .run_ndrange_measured_interp(&k, global_size, &mut args)
            .map(untraced),
        Engine::Native => p.run_ndrange_traced(&k, global_size, &mut args),
    };
    drop(args);
    (bufs, result.map_err(|e| e.message))
}

/// Assert the native tier produces the interpreter oracle's outcome exactly:
/// bit-identical buffers (after a failed launch too: every aborted native
/// batch is fully rolled back before its replay), identical stats, identical
/// error messages. Returns the agreed stats or error.
fn agreed_outcome(
    src: &str,
    kernel: &str,
    buffers: &[Vec<f32>],
    scalars: &[Value],
    global_size: usize,
) -> Result<ExecStats, String> {
    let (oracle_bufs, oracle) =
        run_engine(src, kernel, buffers, scalars, global_size, Engine::Interp);
    let oracle = oracle.map(|(stats, _)| stats);
    let (bufs, got) = run_engine(src, kernel, buffers, scalars, global_size, Engine::Native);
    let got = got.map(|(stats, _)| stats);
    assert_eq!(
        got, oracle,
        "stats / error diverged on the native tier for kernel:\n{src}"
    );
    for (i, (g, o)) in bufs.iter().zip(&oracle_bufs).enumerate() {
        let gbits: Vec<u32> = g.iter().map(|x| x.to_bits()).collect();
        let obits: Vec<u32> = o.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            gbits, obits,
            "buffer {i} diverged on the native tier for kernel:\n{src}"
        );
    }
    oracle
}

fn assert_tiers_agree(
    src: &str,
    kernel: &str,
    buffers: &[Vec<f32>],
    scalars: &[Value],
    global_size: usize,
) {
    let _ = agreed_outcome(src, kernel, buffers, scalars, global_size);
}

/// What the native tier did on one pinned-native launch of `kernel`.
fn native_trace(
    src: &str,
    kernel: &str,
    buffers: &[Vec<f32>],
    scalars: &[Value],
    global_size: usize,
) -> LaunchTrace {
    let (_, result) = run_engine(src, kernel, buffers, scalars, global_size, Engine::Native);
    result.expect("traced launches succeed").1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The canonical guarded map shape — straight-line f32 arithmetic with
    /// iota loads/stores, the native tier's hottest fast path.
    #[test]
    fn guarded_map_agrees_across_all_tiers(
        data in prop::collection::vec(-100.0f32..100.0, 1..200),
        a in -4.0f32..4.0,
    ) {
        let src = r#"
            float func(float x, float a) { return x * a + 0.5f; }
            __kernel void SKELCL_MAP(__global float* skelcl_in, __global float* skelcl_out, int skelcl_n, float skelcl_arg_a) {
                int skelcl_gid = get_global_id(0);
                if (skelcl_gid < skelcl_n) {
                    skelcl_out[skelcl_gid] = func(skelcl_in[skelcl_gid], skelcl_arg_a);
                }
            }
        "#;
        let n = data.len();
        let out = vec![0.0f32; n];
        assert_tiers_agree(
            src, "SKELCL_MAP", &[data, out],
            &[Value::Int(n as i32), Value::Float(a)], n,
        );
    }

    /// Uniform control flow (same trip count in every lane) with break and
    /// continue: exercises native back-edge budgeting and branch terms.
    #[test]
    fn uniform_loops_agree_across_all_tiers(
        data in prop::collection::vec(-50.0f32..50.0, 1..96),
        limit in 0i32..30,
        skip in 1i32..5,
    ) {
        let src = r#"
            __kernel void k(__global float* v, int n, int limit, int skip) {
                int gid = get_global_id(0);
                float acc = 0.0f;
                for (int i = 0; i < n; i++) {
                    if (i % skip == 0) { continue; }
                    if (i > limit) { break; }
                    acc += v[i] * 0.5f;
                }
                v[gid] = acc;
            }
        "#;
        let n = data.len();
        assert_tiers_agree(
            src, "k", &[data],
            &[Value::Int(n as i32), Value::Int(limit), Value::Int(skip)], n,
        );
    }

    /// Data-dependent (gid-dependent) trip counts: lanes leave the loop at
    /// different iterations and wait at its exit under the lane mask.
    #[test]
    fn divergent_loops_agree_across_all_tiers(
        items in 1usize..160,
        mult in 0.5f32..1.5,
    ) {
        let src = r#"
            __kernel void k(__global float* v, int n, float m) {
                int gid = get_global_id(0);
                float acc = 0.0f;
                for (int i = 0; i <= gid % 7; i++) { acc += v[gid] * m; }
                v[gid] = acc;
            }
        "#;
        let data: Vec<f32> = (0..items).map(|i| (i % 13) as f32 - 6.0).collect();
        let scalars = [Value::Int(items as i32), Value::Float(mult)];
        let bufs = [data];
        assert_tiers_agree(src, "k", &bufs, &scalars, items);
        let trace = native_trace(src, "k", &bufs, &scalars, items);
        prop_assert_eq!((trace.replayed_batches, trace.bailed), (0, false));
        prop_assert_eq!(trace.masked_batches > 0, items > 1);
    }

    /// Integer division and modulo where the divisor may be zero: every tier
    /// must report the identical "integer division by zero" error (or agree
    /// bit for bit when the divisor is non-zero).
    #[test]
    fn division_by_zero_errors_agree_across_all_tiers(
        data in prop::collection::vec(-1000.0f32..1000.0, 1..96),
        d in -4i32..4,
    ) {
        let src = r#"
            __kernel void k(__global float* v, int n, int d) {
                int gid = get_global_id(0);
                int x = (int) v[gid];
                v[gid] = (float) (x * 3 - x / d + x % d);
            }
        "#;
        let n = data.len();
        assert_tiers_agree(
            src, "k", &[data],
            &[Value::Int(n as i32), Value::Int(d)], n,
        );
    }

    /// Early exit: the launch covers more items than the guard admits, so
    /// suffix lanes retire through the guard's exit chain mid-batch.
    #[test]
    fn early_exit_lane_retirement_agrees_across_all_tiers(
        len in 1usize..80,
        extra in 0usize..80,
    ) {
        let src = r#"
            __kernel void k(__global float* v, int n) {
                int gid = get_global_id(0);
                if (gid < n) { v[gid] = v[gid] * 2.0f + 1.0f; }
            }
        "#;
        let launch = len + extra;
        let data: Vec<f32> = (0..launch).map(|i| i as f32 * 0.25).collect();
        assert_tiers_agree(src, "k", &[data], &[Value::Int(len as i32)], launch);
    }

    /// Math builtins over f32 rows (the fn-pointer fast paths) mixed with
    /// casts and f64 locals.
    #[test]
    fn math_builtins_and_casts_agree_across_all_tiers(
        data in prop::collection::vec(0.01f32..100.0, 1..96),
    ) {
        let src = r#"
            __kernel void k(__global float* v, int n) {
                int gid = get_global_id(0);
                float x = v[gid];
                float y = sqrt(x) + exp(x * 0.001f) + pow(x, 0.5f);
                y = fmin(fmax(y, 0.5f), 1.0e6f) + clamp(x, 1.0f, 8.0f);
                double z = (double) y * 0.125;
                int t = (int) z;
                v[gid] = (float) z - (float) t + fabs(x) * 0.0625f;
            }
        "#;
        let n = data.len();
        assert_tiers_agree(src, "k", &[data], &[Value::Int(n as i32)], n);
    }

    /// The MapOverlap stencil shape: `get(dx, dy)` neighbour reads bind the
    /// reserved stencil context and must agree across tiers, including the
    /// "exceeds the declared halo" error when `dy` overruns.
    #[test]
    fn stencil_get_agrees_across_all_tiers(
        rows in 1usize..6,
        w in 1usize..8,
        halo in 0usize..3,
        policy in 0i32..3,
        dy in -3i32..4,
        seed in 0u32..1000,
    ) {
        let src =
            "float func(float x, int dy) { return x + 0.5f * (get(-1, 0) + get(1, 0) + get(0, dy)); }\n\
             __kernel void SKELCL_MAP_OVERLAP(__global float* skelcl_stencil_in, __global float* skelcl_out,\n\
                 int skelcl_n, int skelcl_stencil_w, int skelcl_stencil_halo,\n\
                 int skelcl_stencil_policy, float skelcl_stencil_oob, int skelcl_arg_dy) {\n\
                 int skelcl_gid = get_global_id(0);\n\
                 if (skelcl_gid < skelcl_n) {\n\
                     skelcl_out[skelcl_gid] = func(skelcl_stencil_in[skelcl_gid], skelcl_arg_dy);\n\
                 }\n\
             }\n";
        let n = rows * w;
        let padded = (rows + 2 * halo) * w;
        let input: Vec<f32> = (0..padded)
            .map(|i| ((i as u32 * 37 + seed) % 101) as f32 * 0.5 - 20.0)
            .collect();
        let out = vec![0.0f32; n];
        assert_tiers_agree(
            src, "SKELCL_MAP_OVERLAP", &[input, out],
            &[
                Value::Int(n as i32),
                Value::Int(w as i32),
                Value::Int(halo as i32),
                Value::Int(policy),
                Value::Float(-1.5),
                Value::Int(dy),
            ],
            n,
        );
    }
}

/// Cross-lane hazard: each item writes its own element then reads its
/// neighbour's. The native tier must bail, roll back and replay exactly.
#[test]
fn cross_lane_hazards_roll_back_and_replay_exactly() {
    let src = r#"
        __kernel void k(__global float* v, int n) {
            int gid = get_global_id(0);
            v[gid] = v[gid] * 2.0f;
            v[gid] += v[(gid + 1) % n];
        }
    "#;
    let n = 2 * skelcl_kernel::native::BATCH_LANES + 3;
    let data: Vec<f32> = (0..n).map(|i| (i % 13) as f32 - 6.0).collect();
    assert_tiers_agree(src, "k", &[data], &[Value::Int(n as i32)], n);
}

/// Compound assignment and increment quirks: in-place forms (`x = x op y`)
/// exercise the native tier's operand-snapshot aliasing discipline.
#[test]
fn compound_assignment_aliasing_agrees_across_all_tiers() {
    let src = r#"
        __kernel void k(__global float* v, int n) {
            int gid = get_global_id(0);
            float x = v[gid];
            x *= 2.0f;
            x += x;
            x -= x * 0.25f;
            int i = gid;
            i += i;
            float a = i++;
            float b = ++i;
            v[gid] = x + a * 0.125f - b * 0.0625f;
        }
    "#;
    let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.5 - 20.0).collect();
    assert_tiers_agree(src, "k", &[data], &[Value::Int(100)], 100);
}

/// Out-of-bounds and negative indices produce identical errors everywhere.
#[test]
fn out_of_bounds_errors_agree_across_all_tiers() {
    let src = r#"
        __kernel void k(__global float* v, int n, int idx) { v[idx] = 1.0f; }
    "#;
    for idx in [-3, 17] {
        assert_tiers_agree(
            src,
            "k",
            &[vec![0.0f32; 4]],
            &[Value::Int(4), Value::Int(idx)],
            1,
        );
    }
}

/// Reduce- and scan-shaped kernels (single-item sequential folds) run
/// identically on the native tier.
#[test]
fn sequential_fold_kernels_agree_across_all_tiers() {
    let src = r#"
        float func(float a, float b) { return a + b * 0.5f; }
        __kernel void SKELCL_REDUCE(__global float* skelcl_in, __global float* skelcl_out, int skelcl_n) {
            float skelcl_acc = skelcl_in[0];
            for (int skelcl_i = 1; skelcl_i < skelcl_n; skelcl_i++) {
                skelcl_acc = func(skelcl_acc, skelcl_in[skelcl_i]);
            }
            skelcl_out[0] = skelcl_acc;
        }
    "#;
    let data: Vec<f32> = (0..200).map(|i| (i % 17) as f32 * 0.25 - 2.0).collect();
    let out = vec![0.0f32; 1];
    assert_tiers_agree(src, "SKELCL_REDUCE", &[data, out], &[Value::Int(200)], 1);
}

/// The exact kernel text `skelcl::kernelgen::reduce_kernel` wraps around a
/// binary operator (the core crate's `vm_oracle` suite runs the generator
/// itself): work-item `g` folds chunk `g` of `ceil(n / global size)`
/// elements into `out[g]`.
const CHUNKED_REDUCE_SRC: &str = r#"
    float func(float a, float b) { return a + b * 0.5f; }
    __kernel void SKELCL_REDUCE(__global float* skelcl_in, __global float* skelcl_out, int skelcl_n) {
        int skelcl_gid = get_global_id(0);
        int skelcl_chunk = (skelcl_n - 1) / get_global_size(0) + 1;
        if (skelcl_gid <= (skelcl_n - 1) / skelcl_chunk) {
            int skelcl_start = skelcl_gid * skelcl_chunk;
            int skelcl_end = skelcl_start + min(skelcl_chunk, skelcl_n - skelcl_start);
            float skelcl_acc = skelcl_in[skelcl_start];
            for (int skelcl_i = skelcl_start + 1; skelcl_i < skelcl_end; skelcl_i++) {
                skelcl_acc = func(skelcl_acc, skelcl_in[skelcl_i]);
            }
            skelcl_out[skelcl_gid] = skelcl_acc;
        }
    }
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random element counts and launch sizes: even chunks, a ragged last
    /// chunk whose lane leaves the loop early, idle work-items past the last
    /// chunk, partly filled batches. Lanes load at a stride of one chunk
    /// (foreign loads of a read-only slot), so nothing replays.
    #[test]
    fn chunked_reduce_agrees_across_all_tiers(n in 1usize..700, work_items in 1usize..200) {
        let data: Vec<f32> = (0..n).map(|i| ((i * 29 + 7) % 53) as f32 * 0.25 - 6.0).collect();
        let buffers = [data, vec![-1.0f32; work_items]];
        let scalars = [Value::Int(n as i32)];
        assert_tiers_agree(CHUNKED_REDUCE_SRC, "SKELCL_REDUCE", &buffers, &scalars, work_items);
        let trace = native_trace(CHUNKED_REDUCE_SRC, "SKELCL_REDUCE", &buffers, &scalars, work_items);
        prop_assert_eq!(trace.native_batches as usize, work_items.div_ceil(LANES));
        prop_assert_eq!(trace.replayed_batches, 0);
        prop_assert!(!trace.bailed);
    }
}

/// A single-lane scan that runs off the end of its input in iteration `k`:
/// the `k` stores already made are rolled back, the oracle's replay redoes
/// them and reports the oracle's error, so every tier ends with the same
/// partially written output.
#[test]
fn scan_fault_mid_loop_agrees_across_all_tiers() {
    let src = r#"
        float func(float a, float b) { return a + b; }
        __kernel void SKELCL_SCAN(__global float* skelcl_in, __global float* skelcl_out, int skelcl_n) {
            float skelcl_acc = skelcl_in[0];
            skelcl_out[0] = skelcl_acc;
            for (int skelcl_i = 1; skelcl_i < skelcl_n; skelcl_i++) {
                skelcl_acc = func(skelcl_acc, skelcl_in[skelcl_i]);
                skelcl_out[skelcl_i] = skelcl_acc;
            }
        }
    "#;
    for k in [1usize, 2, 100, 1000] {
        let data: Vec<f32> = (0..k).map(|i| (i % 9) as f32 * 0.5 - 1.0).collect();
        let out = vec![f32::from_bits(0x7fc0_1234); k + 8];
        let scalars = [Value::Int(k as i32 + 5)];
        let err = agreed_outcome(src, "SKELCL_SCAN", &[data, out], &scalars, 1)
            .expect_err("the scan reads past its input");
        assert!(err.contains("out of bounds"), "k = {k}: {err}");
    }
}

// ---------------------------------------------------------------------------
// The lane-private hazard discipline
// ---------------------------------------------------------------------------

const LANES: usize = skelcl_kernel::native::BATCH_LANES;

/// The exact kernel text `skelcl::kernelgen::map_overlap_kernel` wraps
/// around a unary UDF (the core crate's `vm_oracle` suite runs the generator
/// itself): load and store go to `gid + halo·w`, not to `gid`.
fn map_overlap_src(udf: &str) -> String {
    format!(
        "{udf}\n\
         __kernel void SKELCL_MAP_OVERLAP(__global float* skelcl_stencil_in, __global float* skelcl_out, \
         int skelcl_n, int skelcl_stencil_w, int skelcl_stencil_halo, int skelcl_stencil_policy, \
         float skelcl_stencil_oob) {{\n\
         \x20   int skelcl_gid = get_global_id(0);\n\
         \x20   if (skelcl_gid < skelcl_n) {{\n\
         \x20       int skelcl_idx = (skelcl_gid / skelcl_stencil_w + skelcl_stencil_halo) * skelcl_stencil_w + skelcl_gid % skelcl_stencil_w;\n\
         \x20       skelcl_out[skelcl_idx] = func(skelcl_stencil_in[skelcl_idx]);\n\
         \x20   }}\n\
         }}\n"
    )
}

fn stencil_scalars(n: usize, w: usize, halo: usize, policy: i32) -> Vec<Value> {
    vec![
        Value::Int(n as i32),
        Value::Int(w as i32),
        Value::Int(halo as i32),
        Value::Int(policy),
        Value::Float(-1.5),
    ]
}

fn ramp(len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| (i * 37 % 101) as f32 * 0.5 - 20.0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Load at `gid + a`, store at `gid + b`, load at `gid + c` of the same
    /// buffer. Lane-private (no replay) exactly when the three bases agree;
    /// every other combination is a cross-lane dependency — the in-place
    /// shift `v[i + 1] = v[i]` among them — and must bail and replay.
    #[test]
    fn shifted_load_store_load_agrees_across_all_tiers(
        a in 0i32..4, b in 0i32..4, c in 0i32..4,
        n in 1usize..200,
        idle in 0usize..70,
    ) {
        let src = r#"
            __kernel void k(__global float* v, __global float* out, int n, int a, int b, int c) {
                int gid = get_global_id(0);
                if (gid < n) {
                    float x = v[gid + a];
                    v[gid + b] = x * 2.0f + 1.0f;
                    out[gid] = v[gid + c];
                }
            }
        "#;
        let bufs = [ramp(n + 4), vec![0.0f32; n]];
        let scalars = [Value::Int(n as i32), Value::Int(a), Value::Int(b), Value::Int(c)];
        // `idle` extra work-items retire through the guard before the stores.
        assert_tiers_agree(src, "k", &bufs, &scalars, n + idle);
        let trace = native_trace(src, "k", &bufs, &scalars, n + idle);
        if a == b && b == c {
            prop_assert_eq!(trace.replayed_batches, 0, "lane-private at one base");
            prop_assert!(trace.native_batches > 0);
        } else if n >= 2 {
            prop_assert!(trace.bailed, "bases {a}/{b}/{c} cross lanes");
        }
    }

    /// Store, foreign load, second store — all on one slot: two stores at
    /// different bases, and a private store followed by a foreign load.
    #[test]
    fn shifted_store_load_store_agrees_across_all_tiers(
        a in 0i32..4, b in 0i32..4, c in 0i32..4,
        n in 2usize..200,
    ) {
        let src = r#"
            __kernel void k(__global float* v, int n, int a, int b, int c) {
                int gid = get_global_id(0);
                v[gid + a] = (float) gid;
                float y = v[gid + b];
                v[gid + c] = y + 0.5f;
            }
        "#;
        let bufs = [ramp(n + 4)];
        let scalars = [Value::Int(n as i32), Value::Int(a), Value::Int(b), Value::Int(c)];
        assert_tiers_agree(src, "k", &bufs, &scalars, n);
        let trace = native_trace(src, "k", &bufs, &scalars, n);
        prop_assert_eq!(trace.bailed, !(a == b && b == c));
    }

    /// `get(dx, dy)` with per-lane (data-dependent) offsets cannot be row
    /// sliced; the per-lane path must produce the same values and errors.
    #[test]
    fn data_dependent_stencil_offsets_agree_across_all_tiers(
        rows in 1usize..5,
        w in 1usize..80,
        halo in 1usize..3,
        policy in 0i32..3,
    ) {
        let src = map_overlap_src(
            "float func(float u) { int k = (int) u; return u + get(k % 3, 0) + get(0, k % 2) + get(1 - k % 3, -(k % 2)); }",
        );
        let n = rows * w;
        let padded = (rows + 2 * halo) * w;
        assert_tiers_agree(
            &src, "SKELCL_MAP_OVERLAP",
            &[ramp(padded), vec![0.0f32; padded]],
            &stencil_scalars(n, w, halo, policy), n,
        );
    }
}

/// The generated MapOverlap shape runs natively end to end: the shifted
/// `gid + halo·w` load and store are lane-private spans and uniform `get`s
/// are row slices, so nothing replays.
#[test]
fn map_overlap_shape_never_replays() {
    let src = map_overlap_src(
        "float func(float u) { return u + 0.2f * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u); }",
    );
    for (rows, w) in [(3, 200), (9, 7), (2, 64), (70, 1)] {
        let n = rows * w;
        let padded = (rows + 2) * w;
        let bufs = [ramp(padded), vec![0.0f32; padded]];
        let scalars = stencil_scalars(n, w, 1, 0);
        assert_tiers_agree(&src, "SKELCL_MAP_OVERLAP", &bufs, &scalars, n);
        let trace = native_trace(&src, "SKELCL_MAP_OVERLAP", &bufs, &scalars, n);
        assert_eq!(trace.tier, Tier::Native);
        assert_eq!(trace.replayed_batches, 0, "{rows}x{w}");
        assert_eq!(trace.native_batches as usize, n.div_ceil(LANES));
    }
}

/// Own-index (iota) accesses take part in the discipline: an in-place shift
/// in either direction mixes the iota base with a shifted one.
#[test]
fn in_place_shifts_bail_and_replay_exactly() {
    for body in [
        "v[gid + 1] = v[gid];",
        "v[gid] = v[gid + 1];",
        "float x = v[gid]; v[gid] = x + 1.0f; v[gid + 1] = x;",
    ] {
        let src = format!(
            "__kernel void k(__global float* v, int n) {{ int gid = get_global_id(0); {body} }}"
        );
        let n = 2 * LANES + 9;
        let bufs = [ramp(n + 1)];
        assert_tiers_agree(&src, "k", &bufs, &[Value::Int(n as i32)], n);
        let trace = native_trace(&src, "k", &bufs, &[Value::Int(n as i32)], n);
        assert!(trace.bailed, "{body}");
    }
}

/// A stencil kernel that writes the buffer its neighbours are read from.
#[test]
fn in_place_stencil_bails_and_replays_exactly() {
    let src = r#"
        __kernel void SKELCL_MAP_OVERLAP(__global float* skelcl_stencil_in, int skelcl_n,
            int skelcl_stencil_w, int skelcl_stencil_halo, int skelcl_stencil_policy,
            float skelcl_stencil_oob) {
            int gid = get_global_id(0);
            int idx = gid + skelcl_stencil_halo * skelcl_stencil_w;
            skelcl_stencil_in[idx] = 0.5f * (get(-1, 0) + get(1, 0));
            skelcl_stencil_in[idx] += get(0, -1);
        }
    "#;
    let (rows, w) = (4, 50);
    let bufs = [ramp((rows + 2) * w)];
    let scalars = stencil_scalars(rows * w, w, 1, 1);
    assert_tiers_agree(src, "SKELCL_MAP_OVERLAP", &bufs, &scalars, rows * w);
    let trace = native_trace(src, "SKELCL_MAP_OVERLAP", &bufs, &scalars, rows * w);
    assert!(trace.bailed);
    assert_eq!(trace.tier, Tier::Interp, "no batch completed natively");
    assert_eq!((trace.native_batches, trace.replayed_batches), (0, 1));
}

// ---------------------------------------------------------------------------
// Error parity when the failing lane sits inside a span
// ---------------------------------------------------------------------------

/// `get(0, 2)` under halo 1: uniform (the row-sliced path's one `dy` check)
/// and data-dependent (first failing item in the middle of the third batch).
#[test]
fn halo_overrun_errors_agree_across_all_tiers() {
    let (rows, w) = (3, 100);
    let mut input = vec![1.0f32; (rows + 2) * w];
    let bufs = [input.clone(), vec![0.0f32; (rows + 2) * w]];
    let scalars = stencil_scalars(rows * w, w, 1, 0);
    let src = map_overlap_src("float func(float u) { return u + get(0, 2); }");
    let err = agreed_outcome(&src, "SKELCL_MAP_OVERLAP", &bufs, &scalars, rows * w).unwrap_err();
    assert_eq!(
        err,
        "stencil access dy=2 exceeds the declared halo of 1 row(s)"
    );

    // Item 150 (input index 250) is the first to ask for dy = 2: items
    // 0..150 must have stored, nothing after them.
    input[w + 2 * LANES + 22] = 2.0;
    let bufs = [input, vec![0.0f32; (rows + 2) * w]];
    let src = map_overlap_src("float func(float u) { return u + get(0, (int) u); }");
    let err = agreed_outcome(&src, "SKELCL_MAP_OVERLAP", &bufs, &scalars, rows * w).unwrap_err();
    assert_eq!(
        err,
        "stencil access dy=2 exceeds the declared halo of 1 row(s)"
    );
}

/// A launch whose first computed row is not the part's first row after the
/// halo: the iterative stencil driver stores parts with `depth · halo` ghost
/// rows and binds input and output from `halo` rows above the window it
/// computes (an OpenCL sub-buffer), so the kernel sees a part padded with
/// exactly `halo` rows wherever the window sits. Every window of a part
/// padded three rows deep agrees across the tiers, writes nothing outside
/// itself, and `dy = 2` is the halo-overrun error although the row it asks
/// for is stored.
#[test]
fn windows_into_deeper_padded_parts_agree_and_keep_the_halo_bound() {
    let (core, pad, w) = (5, 3, 2 * LANES + 9);
    let stored = ramp((core + 2 * pad) * w);
    let heat = map_overlap_src(
        "float func(float u) { return u + 0.25f * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0)); }",
    );
    let too_far = map_overlap_src("float func(float u) { return u + get(0, 2); }");
    // (first computed row, rows): the core alone, then one and two ghost
    // rows wider on each side.
    for (first, rows) in [(pad, core), (pad - 1, core + 2), (pad - 2, core + 4)] {
        let origin = (first - 1) * w;
        let bufs = [
            stored[origin..].to_vec(),
            vec![7.0e30f32; stored.len() - origin],
        ];
        let scalars = stencil_scalars(rows * w, w, 1, 1);
        agreed_outcome(&heat, "SKELCL_MAP_OVERLAP", &bufs, &scalars, rows * w).unwrap();
        let (out, _) = run_engine(
            &heat,
            "SKELCL_MAP_OVERLAP",
            &bufs,
            &scalars,
            rows * w,
            Engine::Native,
        );
        let written = |i: usize| out[1][i] != 7.0e30;
        assert!((0..w).all(|i| !written(i)), "row above the window written");
        assert!((w..(rows + 1) * w).all(written), "window not fully written");
        assert!(((rows + 1) * w..out[1].len()).all(|i| !written(i)));
        let err =
            agreed_outcome(&too_far, "SKELCL_MAP_OVERLAP", &bufs, &scalars, rows * w).unwrap_err();
        assert_eq!(
            err,
            "stencil access dy=2 exceeds the declared halo of 1 row(s)"
        );
    }
}

/// A stencil input shorter than the padded part: the row slice of `get(0,
/// 1)` runs off the end in the middle of a batch.
#[test]
fn truncated_stencil_input_errors_agree_across_all_tiers() {
    let (rows, w) = (3, 200);
    let padded = (rows + 2) * w;
    let src = map_overlap_src("float func(float u) { return u + get(1, 0) + get(0, 1); }");
    for missing in [1, 30, w + 17] {
        let bufs = [ramp(padded - missing), vec![0.0f32; padded]];
        let err = agreed_outcome(
            &src,
            "SKELCL_MAP_OVERLAP",
            &bufs,
            &stencil_scalars(rows * w, w, 1, 2),
            rows * w,
        )
        .unwrap_err();
        assert!(
            err.contains("is out of bounds for the stencil input")
                || err.contains("out of bounds for buffer"),
            "unexpected error: {err}"
        );
    }
}

/// A computed store index that is negative for the first work-items of a
/// contiguous span, and one that turns negative in the middle of a batch.
#[test]
fn negative_store_index_errors_agree_across_all_tiers() {
    let shifted = r#"
        __kernel void k(__global float* v, __global float* out, int n, int off) {
            int gid = get_global_id(0);
            if (gid < n) { out[gid + off] = v[gid] + 1.0f; }
        }
    "#;
    let n = 3 * LANES;
    for off in [-1, -30, -(LANES as i32) - 5] {
        let bufs = [ramp(n), vec![0.0f32; n]];
        let err = agreed_outcome(
            shifted,
            "k",
            &bufs,
            &[Value::Int(n as i32), Value::Int(off)],
            n,
        )
        .unwrap_err();
        assert!(err.contains("negative"), "unexpected error: {err}");
    }
    let mid_batch = r#"
        __kernel void k(__global float* v, __global float* out, int n, int bad) {
            int gid = get_global_id(0);
            int idx = gid;
            if (gid == bad) { idx = -7; }
            out[idx] = v[gid] + 1.0f;
        }
    "#;
    for bad in [0, 40, LANES + 13] {
        let bufs = [ramp(n), vec![0.0f32; n]];
        let err = agreed_outcome(
            mid_batch,
            "k",
            &bufs,
            &[Value::Int(n as i32), Value::Int(bad as i32)],
            n,
        )
        .unwrap_err();
        assert!(err.contains("negative"), "unexpected error: {err}");
    }
}

// ---------------------------------------------------------------------------
// Divergence: lane masks and reconvergence
// ---------------------------------------------------------------------------

/// Renders a random, depth-limited kernel body from a gene string: nested
/// `if`/`else`, `&&` / `||` / `!` / ternaries, `&&` / `||` results assigned
/// to a bool their right-hand side reads, `while` and `for` loops with
/// data-dependent trip counts and `break`, early `return`, stores in both
/// arms of a branch and inside loops, and the two guarded shapes that fault
/// if an idle lane executes them (`100 / q` under `q != 0`, `a[q]` under
/// `0 <= q < n`).
struct BodyGen<'a> {
    genes: &'a [u32],
    pos: usize,
    loops: usize,
}

impl BodyGen<'_> {
    fn pick(&mut self, n: u32) -> u32 {
        let g = self.genes[self.pos % self.genes.len()];
        self.pos += 1;
        g % n
    }

    fn atom(&mut self) -> &'static str {
        [
            "x > 0.5f",
            "q % 2 == 0",
            "gid % 3 == 1",
            "acc < 4.0f",
            "q > 1",
            "t < 3",
            "x <= -1.0f",
            "b",
        ][self.pick(8) as usize]
    }

    fn cond(&mut self) -> String {
        match self.pick(5) {
            0 => format!("{} && {}", self.atom(), self.atom()),
            1 => format!("{} || {}", self.atom(), self.atom()),
            2 => format!("!({})", self.atom()),
            _ => self.atom().to_string(),
        }
    }

    fn fexpr(&mut self) -> String {
        match self.pick(7) {
            0 => "x".to_string(),
            1 => "acc * 0.5f".to_string(),
            2 => "(float) q".to_string(),
            3 => "x + 1.5f".to_string(),
            // Literals in every spelling: unsuffixed (a `float` here too),
            // exponents, `-0.0`, in a cast to `int` and through a builtin.
            4 => [
                "x * 0.75 - 2.5e-1f",
                "fmax(acc, -0.0f) * 3e0",
                "(float) ((int) (x * 2.5f))",
            ][self.pick(3) as usize]
                .to_string(),
            5 => format!("clamp(x, {}.25f, 2.0)", self.pick(3)),
            _ => format!("(({}) ? x : acc - 1.0f)", self.cond()),
        }
    }

    fn stmts(&mut self, depth: u32, in_loop: bool) -> String {
        let mut out = String::new();
        for _ in 0..1 + self.pick(3) {
            let leaf = depth == 0;
            let s = match self.pick(if leaf { 6 } else { 12 }) {
                0 => format!("acc = acc + {};", self.fexpr()),
                1 => "t = t + q % 3;".to_string(),
                2 => "if (q != 0) { t = t + 100 / q + 7 % q; }".to_string(),
                3 => "if (q >= 0 && q < n) { acc = acc + a[q]; }".to_string(),
                4 => format!(
                    "if ({}) {{ out[gid] = {}; }} else {{ out[gid] = {}; }}",
                    self.cond(),
                    self.fexpr(),
                    self.fexpr()
                ),
                // The right-hand side reads the variable the result goes to.
                5 => match self.pick(3) {
                    0 => format!("b = {} && b;", self.atom()),
                    1 => format!("b = {} || b;", self.atom()),
                    _ => format!("b = ({}) ? ({} && b) : b;", self.cond(), self.atom()),
                },
                6 | 7 => format!(
                    "if ({}) {{ {} }} else {{ {} }}",
                    self.cond(),
                    self.stmts(depth - 1, in_loop),
                    self.stmts(depth - 1, in_loop)
                ),
                8 => format!(
                    "if ({}) {{ {} }}",
                    self.cond(),
                    self.stmts(depth - 1, in_loop)
                ),
                9 => {
                    self.loops += 1;
                    let c = format!("w{}", self.loops);
                    format!(
                        "int {c} = q % 5; while ({c} > 0) {{ {} if ({}) {{ break; }} \
                         out2[gid] = acc; {c} = {c} - 1; }}",
                        self.stmts(depth - 1, true),
                        self.cond()
                    )
                }
                10 => {
                    self.loops += 1;
                    let c = format!("c{}", self.loops);
                    format!(
                        "for (int {c} = 0; {c} < (gid + q) % 4; {c}++) {{ {} }}",
                        self.stmts(depth - 1, true)
                    )
                }
                _ if in_loop => format!("if ({}) {{ break; }}", self.cond()),
                _ => format!("if ({}) {{ out[gid] = acc; return; }}", self.cond()),
            };
            out.push_str(&s);
            out.push('\n');
        }
        out
    }
}

fn generated_kernel(genes: &[u32]) -> String {
    let body = BodyGen {
        genes,
        pos: 0,
        loops: 0,
    }
    .stmts(3, false);
    format!(
        "__kernel void k(__global float* a, __global float* out, __global float* out2, int n) {{\n\
         int gid = get_global_id(0);\n\
         if (gid < n) {{\n\
         float x = a[gid];\n\
         int q = (int) x;\n\
         float acc = 0.0f;\n\
         int t = 0;\n\
         bool b = gid % 2 == 0;\n\
         {body}\
         out[gid] = acc + (float) t + (b ? 0.5f : 0.0f);\n\
         }}\n\
         }}\n"
    )
}

/// One token-level mutation of a generated kernel: drop a statement, swap a
/// literal's type, put a buffer name in value position, or wrap a name or
/// call in `min`. `pick` chooses the mutation and the token.
fn mutate(src: &str, kind: u32, pick: usize) -> String {
    use skelcl_kernel::token::TokenKind;
    let tokens = skelcl_kernel::lexer::lex(src).expect("generated kernels lex");
    let splice =
        |start: usize, end: usize, with: &str| format!("{}{with}{}", &src[..start], &src[end..]);
    let nth = |candidates: Vec<(usize, usize)>| candidates[pick % candidates.len()];
    match kind % 4 {
        // A statement: from a `;` or brace to the next `;`. Loop counters'
        // decrements stay, so no mutant loops forever.
        0 => {
            let ends: Vec<(usize, usize)> = tokens
                .windows(2)
                .enumerate()
                .filter(|(_, w)| w[1].kind == TokenKind::Semicolon)
                .map(|(i, w)| {
                    let start = tokens[..=i]
                        .iter()
                        .rev()
                        .find(|t| {
                            matches!(
                                t.kind,
                                TokenKind::Semicolon | TokenKind::LBrace | TokenKind::RBrace
                            )
                        })
                        .map_or(0, |t| t.span.end);
                    (start, w[1].span.end)
                })
                .filter(|&(a, b)| !src[a..b].contains("- 1;"))
                .collect();
            let (a, b) = nth(ends);
            splice(a, b, "")
        }
        1 => {
            let lits: Vec<(usize, usize)> = tokens
                .iter()
                .filter(|t| matches!(t.kind, TokenKind::IntLit(_) | TokenKind::FloatLit(_)))
                .map(|t| (t.span.start, t.span.end))
                .collect();
            let (a, b) = nth(lits);
            let text = &src[a..b];
            let swapped = match text.strip_suffix('f') {
                Some(float) => format!("{}", float.parse::<f64>().unwrap_or(1.0) as i64),
                None => format!("{text}.0f"),
            };
            splice(a, b, &swapped)
        }
        2 | 3 => {
            let names: Vec<(usize, usize)> = tokens
                .iter()
                .filter(|t| matches!(&t.kind, TokenKind::Ident(n) if ["x", "acc", "q", "t", "gid", "get_global_id"].contains(&n.as_str())))
                .map(|t| (t.span.start, t.span.end))
                .collect();
            let (a, b) = nth(names);
            if kind % 4 == 2 {
                return splice(a, b, ["a", "out", "out2"][pick % 3]);
            }
            // A call: its name through the closing parenthesis.
            let end = if &src[a..b] == "get_global_id" {
                b + 3
            } else {
                b
            };
            splice(a, end, &format!("min({}, q)", &src[a..end]))
        }
        _ => unreachable!(),
    }
}

/// `src` with its `float` literals lifted into trailing kernel parameters,
/// then those parameters turned into loads of a `__global float*` table —
/// at the top of the kernel, one per lifted literal — as a packed launch
/// reads its jobs' values; plus the values the table holds.
fn tabled_kernel(src: &str) -> (String, String, Vec<f32>) {
    let lifted = skelcl_kernel::compose::lift_float_literals(src).unwrap();
    let params: String = (0..lifted.values.len())
        .map(|i| format!(", float skelcl_lit{i}"))
        .collect();
    let loads: String = (0..lifted.values.len())
        .map(|i| format!("float skelcl_lit{i} = skelcl_tab[{i}];\n"))
        .collect();
    let tabled = lifted.source.replacen(
        &format!("int n{params}) {{\n"),
        &format!("__global float* skelcl_tab, int n) {{\n{loads}"),
        1,
    );
    (lifted.source, tabled, lifted.values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lifted ≡ inline: a generated kernel with its `float` literals lifted
    /// into parameters and bound to their values gives the inline kernel's
    /// buffers, stats and error text on the oracle and on native — a
    /// literal and a variable read cost nothing, and no engine folds a
    /// constant across one. Read from a table instead, the values cost
    /// exactly their loads: per lifted literal and work-item one 4-byte
    /// global read and two ops (the load and the declaration), nothing else.
    #[test]
    fn lifted_literals_agree_with_inline_ones_on_every_engine(
        genes in prop::collection::vec(0u32..1_000_000, 24..48),
        values in prop::collection::vec(-6i32..7, 1..120),
        extra in 0usize..5,
    ) {
        let src = generated_kernel(&genes);
        let (lifted, tabled, lits) = tabled_kernel(&src);
        prop_assert!(!lits.is_empty());
        let n = values.len();
        let global = n + extra;
        let bufs = [divergent_input(&values), vec![-1.0f32; n], vec![-2.0f32; n]];
        let mut scalars = vec![Value::Int(n as i32)];
        let inline = agreed_outcome(&src, "k", &bufs, &scalars, global);
        scalars.extend(lits.iter().map(|v| Value::Float(*v)));
        let bound = agreed_outcome(&lifted, "k", &bufs, &scalars, global);
        prop_assert_eq!(&bound, &inline, "{}", lifted);
        let mut with_table = bufs.to_vec();
        with_table.push(lits.clone());
        let from_table = agreed_outcome(&tabled, "k", &with_table, &scalars[..1], global);
        let loads = (lits.len() * global) as f64;
        let expected = inline.map(|stats| ExecStats {
            global_bytes: stats.global_bytes + 4.0 * loads,
            ops: stats.ops + 2.0 * loads,
            ..stats
        });
        prop_assert_eq!(from_table, expected, "{}", tabled);
        for (engine, kernel, bufs, scalars) in [
            (Engine::Interp, &lifted, &bufs[..], &scalars[..]),
            (Engine::Native, &lifted, &bufs[..], &scalars[..]),
            (Engine::Interp, &tabled, &with_table[..], &scalars[..1]),
            (Engine::Native, &tabled, &with_table[..], &scalars[..1]),
        ] {
            let (got, _) = run_engine(kernel, "k", bufs, scalars, global, engine);
            let (want, _) = run_engine(&src, "k", &bufs[..3], &scalars[..1], global, engine);
            let bits = |b: &[Vec<f32>]| b[..3].iter().flatten().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want), "{:?}: {}", engine, kernel);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The new compiler under fire: mutants of generated kernels either
    /// fail to build or compile natively (to a kernel or an ineligibility
    /// reason) without a panic, and every mutant that runs agrees with the
    /// oracle on bits, stats and error text.
    #[test]
    fn mutated_generated_kernels_build_or_agree(
        genes in prop::collection::vec(0u32..1_000_000, 24..48),
        values in prop::collection::vec(-6i32..7, 1..100),
        mutations in prop::collection::vec((0u32..4, 0usize..10_000), 1..4),
    ) {
        let mut src = generated_kernel(&genes);
        for (kind, pick) in mutations {
            src = mutate(&src, kind, pick);
        }
        let Ok(p) = Program::build(&src) else {
            return Ok(());
        };
        let Ok(k) = p.kernel("k") else {
            return Ok(());
        };
        let _ = &p.native_outcome(&k).result;
        let n = values.len();
        let bufs = [divergent_input(&values), vec![-1.0f32; n], vec![-2.0f32; n]];
        let _ = agreed_outcome(&src, "k", &bufs, &[Value::Int(n as i32)], n + 3);
    }
}

/// Inputs whose integer parts cover `-6..=6` with plenty of exact zeros, so
/// every guard has lanes on both sides in most batches.
fn divergent_input(values: &[i32]) -> Vec<f32> {
    values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if v % 3 == 0 {
                0.0
            } else {
                *v as f32 + (i % 4) as f32 * 0.25
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Generated divergent control flow: every tier agrees with the oracle
    /// on buffers and stats, and the native tier neither replays nor bails —
    /// a guarded division or guarded gather executed in an idle lane would
    /// fault and show up as a replay.
    #[test]
    fn generated_divergent_kernels_agree_and_stay_native(
        genes in prop::collection::vec(0u32..1_000_000, 24..48),
        values in prop::collection::vec(-6i32..7, 1..150),
        extra in 0usize..9,
    ) {
        let src = generated_kernel(&genes);
        let n = values.len();
        let bufs = [divergent_input(&values), vec![-1.0f32; n], vec![-2.0f32; n]];
        let scalars = [Value::Int(n as i32)];
        assert_tiers_agree(&src, "k", &bufs, &scalars, n + extra);
        let trace = native_trace(&src, "k", &bufs, &scalars, n + extra);
        prop_assert_eq!(trace.tier, Tier::Native, "{}", src);
        prop_assert_eq!((trace.replayed_batches, trace.bailed), (0, false), "{}", src);
    }

    /// A fault in an *active* masked lane — inside one arm of a branch,
    /// inside a divergent loop — reproduces the oracle's message, and every
    /// buffer is what the oracle left behind: the items before the failing
    /// one have stored, nothing after it has.
    #[test]
    fn faults_in_active_masked_lanes_agree_across_all_tiers(
        values in prop::collection::vec(-6i32..7, 1..150),
        shape in 0usize..3,
    ) {
        let body = [
            // Division by zero where q == 2, under a guard that admits it.
            "if (q != 1) { t = 100 / (q - 2); } else { t = 5; }",
            // A gather past the end in the lanes with q > 3.
            "if (q > 0) { acc = a[q + n - 4]; } else { acc = a[gid]; }",
            // Division by zero in the fourth iteration of a divergent loop,
            // after lane-private stores that have to be rolled back.
            "for (int c = 0; c < q; c++) { out2[gid] = (float) c; t = t + 10 / (3 - c); }",
        ][shape];
        let src = format!(
            "__kernel void k(__global float* a, __global float* out, __global float* out2, int n) {{\n\
             int gid = get_global_id(0);\n\
             float x = a[gid]; int q = (int) x; float acc = 0.0f; int t = 0;\n\
             {body}\n\
             out[gid] = acc + (float) t;\n\
             }}\n"
        );
        let n = values.len();
        let bufs = [divergent_input(&values), vec![-1.0f32; n], vec![-2.0f32; n]];
        assert_tiers_agree(&src, "k", &bufs, &[Value::Int(n as i32)], n);
    }
}

/// The straight-line statements of generated leaf bodies (no `if`, loop,
/// ternary, `&&` or `||`), in a kernel with no guard: code the static walk
/// predicts exactly.
fn straight_line_kernel(genes: &[u32]) -> String {
    let mut gen = BodyGen {
        genes,
        pos: 0,
        loops: 0,
    };
    let body: String = (0..4)
        .flat_map(|_| {
            gen.stmts(0, false)
                .lines()
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .filter(|s| {
            !["if", "while", "for", "?", "&&", "||"]
                .iter()
                .any(|k| s.contains(k))
        })
        .map(|s| s + "\n")
        .collect();
    format!(
        "__kernel void k(__global float* a, __global float* out, __global float* out2, int n) {{\n\
         int gid = get_global_id(0);\n\
         float x = a[gid]; int q = (int) x; float acc = 0.0f; int t = 0;\n\
         bool b = gid % 2 == 0;\n\
         {body}\
         out[gid] = acc + (float) t;\n\
         }}\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One table: the static estimate of a straight-line kernel is the cost
    /// one work-item of it measures, exactly, on the interpreter and on
    /// native.
    #[test]
    fn straight_line_estimates_equal_measured_stats(
        genes in prop::collection::vec(0u32..1_000_000, 24..48),
        values in prop::collection::vec(-6i32..7, 1..8),
    ) {
        let src = straight_line_kernel(&genes);
        let tokens = skelcl_kernel::lexer::lex(&src).unwrap();
        let unit = skelcl_kernel::sema::check(skelcl_kernel::parser::parse(&tokens, &src).unwrap())
            .unwrap();
        let estimate = skelcl_kernel::cost::estimate_function(&unit, &unit.functions[0]);
        let n = values.len();
        let bufs = [divergent_input(&values), vec![-1.0f32; n], vec![-2.0f32; n]];
        let measured = agreed_outcome(&src, "k", &bufs, &[Value::Int(n as i32)], 1);
        prop_assert_eq!(measured, Ok(estimate), "{}", src);
    }
}

/// Divergence does not weaken the hazard rule: one arm reads the element
/// the other arm's neighbour lane stores, so the batch bails and replays.
#[test]
fn divergence_with_a_cross_lane_hazard_still_bails_and_replays() {
    let src = r#"
        __kernel void k(__global float* v, int n) {
            int gid = get_global_id(0);
            if (gid % 2 == 0) { v[gid] = v[gid] + 1.0f; } else { v[gid] = v[gid - 1] * 2.0f; }
        }
    "#;
    let n = 2 * LANES + 7;
    let bufs = [ramp(n)];
    assert_tiers_agree(src, "k", &bufs, &[Value::Int(n as i32)], n);
    let trace = native_trace(src, "k", &bufs, &[Value::Int(n as i32)], n);
    assert!(trace.bailed);
    assert_eq!((trace.native_batches, trace.replayed_batches), (0, 1));
}

/// The shapes the paper's applications need, pinned by hand: the OSEM
/// update's early return inside the UDF and the Mandelbrot escape loop's
/// `&&` condition with per-lane trip counts, into an `int` buffer.
#[test]
fn osem_update_and_escape_loop_run_masked_without_replays() {
    let zip = r#"
        float func(float f, float c) { if (c > 0.0f) { return f * c; } return f; }
        __kernel void k(__global float* l, __global float* r, __global float* out, int n) {
            int gid = get_global_id(0);
            if (gid < n) { out[gid] = func(l[gid], r[gid]); }
        }
    "#;
    let n = 3 * LANES + 11;
    let c: Vec<f32> = (0..n).map(|i| ((i * 7) % 5) as f32 - 2.0).collect();
    let bufs = [ramp(n), c, vec![0.0f32; n]];
    assert_tiers_agree(zip, "k", &bufs, &[Value::Int(n as i32)], n + 5);
    let trace = native_trace(zip, "k", &bufs, &[Value::Int(n as i32)], n + 5);
    assert_eq!((trace.replayed_batches, trace.bailed), (0, false));
    assert_eq!(trace.masked_batches, trace.native_batches);

    let escape = r#"
        __kernel void k(__global float* v, int n, int max_iter) {
            int gid = get_global_id(0);
            float c_re = v[gid] * 0.03f - 2.0f;
            float z_re = 0.0f;
            float z_im = 0.0f;
            int i = 0;
            while (i < max_iter && z_re * z_re + z_im * z_im <= 4.0f) {
                float new_re = z_re * z_re - z_im * z_im + c_re;
                z_im = 2.0f * z_re * z_im + 0.3f;
                z_re = new_re;
                i = i + 1;
            }
            v[gid] = (float) i;
        }
    "#;
    let scalars = [Value::Int(n as i32), Value::Int(40)];
    let bufs = [(0..n).map(|i| (i % 101) as f32).collect::<Vec<f32>>()];
    assert_tiers_agree(escape, "k", &bufs, &scalars, n);
    let trace = native_trace(escape, "k", &bufs, &scalars, n);
    assert_eq!((trace.replayed_batches, trace.bailed), (0, false));
    assert!(trace.masked_batches > 0);
}

/// Straight-line kernels never run under a partial mask, ragged tail and
/// idle suffix lanes included.
#[test]
fn straight_line_kernels_report_no_masked_batches() {
    let n = 2 * LANES + 9;
    let trace = native_trace(MAP_SRC, "k", &[ramp(n)], &[Value::Int(n as i32 - 3)], n);
    assert_eq!(trace.native_batches, 3);
    assert_eq!((trace.masked_batches, trace.replayed_batches), (0, 0));
}

// ---------------------------------------------------------------------------
// Tier selection
// ---------------------------------------------------------------------------

const MAP_SRC: &str = r#"
    __kernel void k(__global float* v, int n) {
        int gid = get_global_id(0);
        if (gid < n) { v[gid] = v[gid] * 2.0f; }
    }
"#;

fn traced_launch(p: &Program, n: usize) -> skelcl_kernel::LaunchTrace {
    let k = p.kernel("k").unwrap();
    let mut data = vec![1.0f32; n];
    let mut args = vec![
        ArgBinding::buffer_f32(&mut data),
        ArgBinding::Scalar(Value::Int(n as i32)),
    ];
    let (_, trace) = p.run_ndrange_traced(&k, n, &mut args).unwrap();
    trace
}

#[test]
fn one_shot_small_kernels_run_native_from_the_first_launch() {
    // No size or launch-count gate: a one-item launch of a fresh program is
    // already native, and repeating it changes nothing.
    for n in [1, 64, 1024] {
        let p = Program::build(MAP_SRC).unwrap();
        p.set_tier(Tier::Native);
        for launch in 0..20 {
            let trace = traced_launch(&p, n);
            assert_eq!(trace.tier, Tier::Native, "launch {launch} of {n} item(s)");
            assert_eq!(trace.native_compiled, launch == 0, "compiled exactly once");
            assert_eq!(trace.native_batches as usize, n.div_ceil(LANES));
            assert!(trace.fallback.is_none());
        }
    }
}

#[test]
fn large_launches_graduate_immediately_and_cache_the_artifact() {
    let p = Program::build(MAP_SRC).unwrap();
    p.set_tier(Tier::Native);
    let n = 8192;
    let first = traced_launch(&p, n);
    assert_eq!(first.tier, Tier::Native);
    assert!(first.native_compiled);
    let second = traced_launch(&p, n);
    assert_eq!(second.tier, Tier::Native);
    assert!(!second.native_compiled, "the compiled artifact is cached");
    assert_eq!(second.native_compile_ns, first.native_compile_ns);
}

#[test]
fn forced_native_on_ineligible_kernels_falls_back_with_a_reason() {
    // Recursion leaves an `Op::Call`, which only the interpreter executes.
    let src = r#"
        float fib(float n) {
            if (n < 2.0f) { return n; }
            return fib(n - 1.0f) + fib(n - 2.0f);
        }
        __kernel void k(__global float* v, int n) {
            int gid = get_global_id(0);
            if (gid < n) { v[gid] = fib(v[gid]); }
        }
    "#;
    let p = Program::build(src).unwrap();
    p.set_tier(Tier::Native);
    let trace = traced_launch(&p, 16);
    assert_eq!(trace.tier, Tier::Interp, "fell back to the interpreter");
    let reason = trace.fallback.expect("fallback reason recorded");
    assert!(reason.contains("without inlining it"), "reason: {reason}");
    // And the fallback still computes the right answer.
    assert_tiers_agree(src, "k", &[vec![7.0f32; 16]], &[Value::Int(16)], 16);
}

/// A kernel that some function of the unit calls still runs at call depth 0
/// when it is launched, so its own helper calls are inlined and it is
/// native-eligible like any other kernel.
#[test]
fn a_kernel_named_by_a_call_inlines_its_helpers_and_runs_natively() {
    let src = r#"
        float twice(float x) { return x * 2.0f; }
        __kernel void k(float a, int n) { float y = twice(a); y = twice(y); }
        int user(int n) { k(1.5f, n); return n; }
        __kernel void m(__global float* v, int n) { v[get_global_id(0)] = user(n); }
    "#;
    let n = 70;
    let scalars = [Value::Float(1.5), Value::Int(n as i32)];
    assert_tiers_agree(src, "k", &[], &scalars, n);
    let trace = native_trace(src, "k", &[], &scalars, n);
    assert_eq!((trace.tier, trace.fallback), (Tier::Native, None));
    assert_tiers_agree(src, "m", &[vec![0.0; n]], &[Value::Int(n as i32)], n);
}

#[test]
fn explicit_tier_override_is_respected_per_program() {
    let p = Program::build(MAP_SRC).unwrap();
    for tier in [Tier::Interp, Tier::Native] {
        p.set_tier(tier);
        assert_eq!(p.tier(), tier);
        let trace = traced_launch(&p, 64);
        assert_eq!(trace.tier, tier, "forced tier runs unconditionally");
    }
}
