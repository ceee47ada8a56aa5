//! Differential tests over the *actual* generated skeleton kernels: every
//! kernel that `kernelgen` emits (map, index map, zip, reduce, packed reduce,
//! scan + scan offset) runs through both the default (native) tier and the
//! AST-interpreter oracle, asserting identical results and identical measured
//! ExecStats. The MapOverlap, reduce and packed-reduce templates
//! additionally run on both engines pinned (interpreter ≡ native) over a
//! grid of shapes, and must never replay a batch on the native tier; so do the divergent
//! kernels of the paper's two applications (the OSEM update `Zip`, the
//! Mandelbrot index map) and a fused plan kernel with a branchy stage.

use proptest::prelude::*;

use skelcl::kernelgen::{self, UdfInfo};
use skelcl_kernel::interp::{ArgBinding, BufferView};
use skelcl_kernel::value::Value;
use skelcl_kernel::{Program, Tier};

/// Run `kernel_src` on the default tier and on the oracle over identical f32
/// buffers and assert bit-identical buffers and stats.
fn assert_generated_kernel_agrees(
    kernel_src: &str,
    kernel_name: &str,
    buffers: &[Vec<f32>],
    scalars: &[Value],
    global_size: usize,
) {
    let p = Program::build(kernel_src).expect("generated kernels always build");
    let k = p.kernel(kernel_name).expect("generated kernel exists");

    let run = |default_tier: bool| {
        let mut bufs: Vec<Vec<f32>> = buffers.to_vec();
        let mut args: Vec<ArgBinding<'_>> = Vec::new();
        for b in &mut bufs {
            args.push(ArgBinding::Buffer(BufferView::F32(b)));
        }
        for s in scalars {
            args.push(ArgBinding::Scalar(*s));
        }
        let stats = if default_tier {
            p.run_ndrange_measured(&k, global_size, &mut args)
        } else {
            p.run_ndrange_measured_interp(&k, global_size, &mut args)
        }
        .expect("generated kernels run");
        drop(args);
        (bufs, stats)
    };

    let (got_bufs, got_stats) = run(true);
    let (or_bufs, or_stats) = run(false);
    for (i, (v, o)) in got_bufs.iter().zip(&or_bufs).enumerate() {
        let vbits: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
        let obits: Vec<u32> = o.iter().map(|x| x.to_bits()).collect();
        assert_eq!(vbits, obits, "buffer {i} diverged for:\n{kernel_src}");
    }
    assert_eq!(got_stats, or_stats, "stats diverged for:\n{kernel_src}");
}

const UDF_UNARY: &str =
    "float helper(float x) { return x * 0.5f; }\nfloat func(float x) { return helper(x) * x + 1.0f; }";
const UDF_BINARY_OP: &str = "float func(float a, float b) { return a + b * 0.25f; }";
const UDF_ZIP: &str = "float func(float x, float y, float a) { return a * x + y; }";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_map_kernel(data in prop::collection::vec(-100.0f32..100.0, 1..64)) {
        let info = UdfInfo::analyze(UDF_UNARY, 1).unwrap();
        let src = kernelgen::map_kernel(&info).unwrap();
        let n = data.len();
        let out = vec![0.0f32; n];
        assert_generated_kernel_agrees(
            &src, kernelgen::MAP_KERNEL,
            &[data, out], &[Value::Int(n as i32)], n,
        );
    }

    #[test]
    fn generated_zip_kernel(
        data in prop::collection::vec((-50.0f32..50.0, -50.0f32..50.0), 1..64),
        a in -4.0f32..4.0,
    ) {
        let info = UdfInfo::analyze(UDF_ZIP, 2).unwrap();
        let src = kernelgen::zip_kernel(&info).unwrap();
        let n = data.len();
        let left: Vec<f32> = data.iter().map(|(x, _)| *x).collect();
        let right: Vec<f32> = data.iter().map(|(_, y)| *y).collect();
        let out = vec![0.0f32; n];
        assert_generated_kernel_agrees(
            &src, kernelgen::ZIP_KERNEL,
            &[left, right, out],
            &[Value::Int(n as i32), Value::Float(a)], n,
        );
    }

    #[test]
    fn generated_reduce_kernels(
        data in prop::collection::vec(-10.0f32..10.0, 1..96),
        work_items in 1usize..100,
    ) {
        // Any launch size: one work-item (the sequential fold), ragged last
        // chunks, more work-items than chunks or than elements.
        let info = UdfInfo::analyze(UDF_BINARY_OP, 2).unwrap();
        let n = data.len();
        let src = kernelgen::reduce_kernel(&info).unwrap();
        assert_generated_kernel_agrees(
            &src, kernelgen::REDUCE_KERNEL,
            &[data, vec![-1.0f32; work_items]], &[Value::Int(n as i32)], work_items,
        );
    }

    #[test]
    fn generated_packed_reduce_kernels(
        jobs in 1usize..6,
        len in 1usize..40,
        parts in 1usize..5,
        seed in 0u32..500,
    ) {
        // Any per-job launch size, as for the reduce kernel: ragged last
        // chunks, and more work-items per job than the job has chunks.
        let info = UdfInfo::analyze(UDF_BINARY_OP, 2).unwrap();
        let src = kernelgen::packed_reduce_kernel(&info).unwrap();
        let data: Vec<f32> = (0..jobs * len)
            .map(|i| ((i as u32 * 37 + seed) % 101) as f32 * 0.37 - 18.0)
            .collect();
        assert_generated_kernel_agrees(
            &src, kernelgen::PACKED_REDUCE_KERNEL,
            &[data, vec![-1.0f32; jobs * parts]],
            &[Value::Int((jobs * len) as i32), Value::Int(len as i32)],
            jobs * parts,
        );
    }

    #[test]
    fn generated_scan_kernels(
        data in prop::collection::vec(-10.0f32..10.0, 1..96),
        offset in -5.0f32..5.0,
    ) {
        let info = UdfInfo::analyze(UDF_BINARY_OP, 2).unwrap();
        let src = kernelgen::scan_kernels(&info).unwrap();
        let n = data.len();
        assert_generated_kernel_agrees(
            &src, kernelgen::SCAN_KERNEL,
            &[data.clone(), vec![0.0f32; n]], &[Value::Int(n as i32)], 1,
        );
        assert_generated_kernel_agrees(
            &src, kernelgen::SCAN_OFFSET_KERNEL,
            &[data], &[Value::Int(n as i32), Value::Float(offset)], n,
        );
    }

    #[test]
    fn generated_map_overlap_kernel(
        rows in 1usize..10,
        cols in 1usize..10,
        halo in 0usize..3,
        policy in 0i32..3,
        oob in -4.0f32..4.0,
        seed in 0u32..500,
    ) {
        // Neighbour probes are clamped to the generated halo so the launch
        // succeeds; the error paths are covered by the kernel crate's
        // differential suite.
        let dy = halo.min(1);
        let udf = format!(
            "float func(float x, float a) {{ return a * (get(-1, {dy}) + get(1, -{dy}) + get(3, 0)) + x; }}"
        );
        let info = UdfInfo::analyze(&udf, 1).unwrap();
        let src = kernelgen::map_overlap_kernel(&info).unwrap();
        let n = rows * cols;
        let padded = (rows + 2 * halo) * cols;
        let input: Vec<f32> = (0..padded)
            .map(|i| ((i as u32 * 53 + seed) % 97) as f32 * 0.5 - 24.0)
            .collect();
        let out = vec![0.0f32; padded];
        assert_generated_kernel_agrees(
            &src, kernelgen::MAP_OVERLAP_KERNEL,
            &[input, out],
            &[
                Value::Int(n as i32),
                Value::Int(cols as i32),
                Value::Int(halo as i32),
                Value::Int(policy),
                Value::Float(oob),
                Value::Float(0.75),
            ],
            n,
        );
    }

    #[test]
    fn generated_gaussian_blur_kernel(
        rows in 1usize..8,
        cols in 1usize..8,
        seed in 0u32..500,
    ) {
        // The exact UDF the examples ship: 3x3 Gaussian blur, halo 1.
        let udf = r#"
            float func(float x) {
                float acc = 4.0f * x;
                acc += 2.0f * (get(-1, 0) + get(1, 0) + get(0, -1) + get(0, 1));
                acc += get(-1, -1) + get(1, -1) + get(-1, 1) + get(1, 1);
                return acc / 16.0f;
            }
        "#;
        let info = UdfInfo::analyze(udf, 1).unwrap();
        let src = kernelgen::map_overlap_kernel(&info).unwrap();
        let n = rows * cols;
        let padded = (rows + 2) * cols;
        let input: Vec<f32> = (0..padded)
            .map(|i| ((i as u32 * 29 + seed) % 113) as f32 * 0.25)
            .collect();
        let out = vec![0.0f32; padded];
        assert_generated_kernel_agrees(
            &src, kernelgen::MAP_OVERLAP_KERNEL,
            &[input, out],
            &[
                Value::Int(n as i32),
                Value::Int(cols as i32),
                Value::Int(1),
                Value::Int(0),
                Value::Float(0.0),
            ],
            n,
        );
    }

    #[test]
    fn generated_index_map_kernel(
        n in 1usize..64,
        scale in -3i32..4,
    ) {
        let udf = "int func(int i, int scale) { return i * scale + i % 3; }";
        let info = UdfInfo::analyze(udf, 1).unwrap();
        let src = kernelgen::map_index_kernel(&info).unwrap();
        let p = Program::build(&src).unwrap();
        let k = p.kernel(kernelgen::MAP_INDEX_KERNEL).unwrap();
        let run = |default_tier: bool| {
            let mut out = vec![0i32; n];
            let mut args = vec![
                ArgBinding::Buffer(BufferView::I32(&mut out)),
                ArgBinding::Scalar(Value::Int(n as i32)),
                ArgBinding::Scalar(Value::Int(7)),
                ArgBinding::Scalar(Value::Int(scale)),
            ];
            let stats = if default_tier {
                p.run_ndrange_measured(&k, n, &mut args)
            } else {
                p.run_ndrange_measured_interp(&k, n, &mut args)
            }
            .unwrap();
            drop(args);
            (out, stats)
        };
        let (got_out, got_stats) = run(true);
        let (or_out, or_stats) = run(false);
        prop_assert_eq!(got_out, or_out);
        prop_assert_eq!(got_stats, or_stats);
    }
}

/// The full skeleton pipeline (on the default tier) still
/// matches a sequential Rust reference end to end.
#[test]
fn skeleton_pipeline_end_to_end_through_vm() {
    let rt = skelcl::init_gpus(3);
    let square =
        skelcl::skeletons::Map::<f32, f32>::from_source("float func(float x) { return x * x; }");
    let sum = skelcl::skeletons::Reduce::<f32>::from_source(
        "float func(float a, float b) { return a + b; }",
    );
    let data: Vec<f32> = (1..=100).map(|i| i as f32).collect();
    let v = skelcl::vector::Vector::from_vec(&rt, data.clone());
    let result = v.map(&square).unwrap().reduce(&sum).unwrap();
    let expected: f32 = data.iter().map(|x| x * x).sum();
    assert_eq!(result, expected);
}

// ---------------------------------------------------------------------------
// Generated kernels on every engine: the MapOverlap template
// ---------------------------------------------------------------------------

/// A kernel argument buffer of either element type the generated kernels
/// store to.
#[derive(Clone)]
enum Buf {
    F32(Vec<f32>),
    I32(Vec<i32>),
}

impl Buf {
    fn bits(&self) -> Vec<u32> {
        match self {
            Buf::F32(v) => v.iter().map(|x| x.to_bits()).collect(),
            Buf::I32(v) => v.iter().map(|x| *x as u32).collect(),
        }
    }
}

/// Launch a generated kernel on both engines; the native tier must match
/// the interpreter bit for bit (every buffer and `ExecStats`) and complete
/// every batch natively. Returns the native run's
/// masked-batch count.
fn assert_stays_native_on_all_engines(
    src: &str,
    kernel: &str,
    buffers: &[Buf],
    scalars: &[Value],
    global: usize,
    what: &str,
) -> u64 {
    let p = Program::build(src).expect("generated kernels always build");
    let k = p.kernel(kernel).unwrap();
    let run = |tier: Tier| {
        p.set_tier(tier);
        let mut bufs = buffers.to_vec();
        let mut args: Vec<ArgBinding<'_>> = bufs
            .iter_mut()
            .map(|b| match b {
                Buf::F32(v) => ArgBinding::buffer_f32(v),
                Buf::I32(v) => ArgBinding::buffer_i32(v),
            })
            .collect();
        args.extend(scalars.iter().map(|s| ArgBinding::Scalar(*s)));
        let (stats, trace) = p
            .run_ndrange_traced(&k, global, &mut args)
            .unwrap_or_else(|e| panic!("{tier} failed: {e}\n{what}"));
        drop(args);
        let bits: Vec<Vec<u32>> = bufs.iter().map(Buf::bits).collect();
        (bits, stats, trace)
    };
    let (oracle_bits, oracle_stats, _) = run(Tier::Interp);
    let (bits, stats, trace) = run(Tier::Native);
    assert_eq!(bits, oracle_bits, "output diverged on native: {what}");
    assert_eq!(stats, oracle_stats, "ExecStats diverged on native: {what}");
    assert_eq!(trace.tier, Tier::Native, "{what}");
    assert_eq!(trace.fallback, None, "{what}");
    assert_eq!(trace.replayed_batches, 0, "native replayed: {what}");
    assert!(!trace.bailed, "native bailed: {what}");
    assert_eq!(trace.native_batches as usize, global.div_ceil(64), "{what}");
    trace.masked_batches
}

const HEAT_UDF: &str =
    "float func(float u) { return u + 0.2f * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u); }";
const GAUSSIAN_UDF: &str = r#"
    float func(float x) {
        float acc = 4.0f * x;
        acc += 2.0f * (get(-1, 0) + get(1, 0) + get(0, -1) + get(0, 1));
        acc += get(-1, -1) + get(1, -1) + get(-1, 1) + get(1, 1);
        return acc / 16.0f;
    }
"#;

/// A vertical box filter over the full declared halo.
fn vertical_box_udf(halo: usize) -> String {
    let taps: String = (1..=halo)
        .map(|dy| format!(" + get(0, -{dy}) + get(0, {dy})"))
        .collect();
    format!(
        "float func(float x) {{ return (x{taps}) / {}.0f; }}",
        2 * halo + 1
    )
}

/// Launch the generated MapOverlap kernel for `udf` on both engines:
/// `n` core elements of a `w`-wide part with `halo` padding rows, over
/// `global` work-items (see [`assert_stays_native_on_all_engines`]).
fn assert_map_overlap_on_all_engines(
    udf: &str,
    w: usize,
    halo: usize,
    policy: i32,
    n: usize,
    global: usize,
) {
    let info = UdfInfo::analyze(udf, 1).unwrap();
    let src = kernelgen::map_overlap_kernel(&info).unwrap();
    let padded = (n.div_ceil(w) + 2 * halo) * w;
    let input: Vec<f32> = (0..padded)
        .map(|i| ((i * 53 + 11 * w + halo) % 97) as f32 * 0.5 - 24.0)
        .collect();
    let what = format!("w={w} halo={halo} policy={policy} n={n} global={global}\n{udf}");
    let masked = assert_stays_native_on_all_engines(
        &src,
        kernelgen::MAP_OVERLAP_KERNEL,
        &[Buf::F32(input), Buf::F32(vec![-1.0; padded])],
        &[
            Value::Int(n as i32),
            Value::Int(w as i32),
            Value::Int(halo as i32),
            Value::Int(policy),
            Value::Float(-1.5),
        ],
        global,
        &what,
    );
    assert_eq!(masked, 0, "straight-line stencil ran masked: {what}");
}

/// Batches inside a row, spanning rows and wider than a row; both halos;
/// clamp / wrap / constant columns; launches that end on a ragged batch and
/// launches with more work-items than elements (suffix lanes retire through
/// the guard before the store).
#[test]
fn generated_map_overlap_kernel_is_native_on_every_shape() {
    let rows = 5;
    for w in [1usize, 7, 63, 64, 65, 192, 200] {
        for halo in [1usize, 2] {
            let udfs = [
                HEAT_UDF.to_string(),
                GAUSSIAN_UDF.to_string(),
                vertical_box_udf(halo),
            ];
            for policy in 0..3 {
                for udf in &udfs {
                    let n = rows * w;
                    assert_map_overlap_on_all_engines(udf, w, halo, policy, n, n);
                    // A partial last row, a ragged last batch, idle lanes.
                    let n = n.saturating_sub(3).max(1);
                    assert_map_overlap_on_all_engines(udf, w, halo, policy, n, n + 9);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Generated kernels on every engine: the reduce template
// ---------------------------------------------------------------------------

/// The reduce kernel, kernelgen source verbatim, at the launch sizes the
/// skeleton picks — the default geometry, and what `.chunks(k)` asks for
/// before empty chunks are dropped (so some launches carry idle work-items):
/// every engine leaves the interpreter's partials buffer and `ExecStats`,
/// and the native tier completes every batch itself, ragged last chunks and
/// partly filled batches included.
#[test]
fn generated_reduce_kernel_is_native_on_every_geometry() {
    let info = UdfInfo::analyze(UDF_BINARY_OP, 2).unwrap();
    let src = kernelgen::reduce_kernel(&info).unwrap();
    for n in [1usize, 2, 255, 256, 257, 511, 16384, 16385, 1 << 18] {
        let data: Vec<f32> = (0..n)
            .map(|i| ((i * 37 + 11) % 101) as f32 * 0.37 - 18.0)
            .collect();
        let default = skelcl::reduce_partials(n);
        let requested = [1usize, 3, 64, 200].map(|k| k.min(n));
        for work_items in std::iter::once(default).chain(requested) {
            let what = format!("reduce, n={n}, {work_items} work-item(s)");
            assert_stays_native_on_all_engines(
                &src,
                kernelgen::REDUCE_KERNEL,
                &[Buf::F32(data.clone()), Buf::F32(vec![-1.0; work_items])],
                &[Value::Int(n as i32)],
                work_items,
                &what,
            );
        }
    }
}

/// The packed reduce kernel, kernelgen source verbatim, at the launch sizes
/// `PlanScalar::pack_jobs` picks — `reduce_partials(len)` work-items per job,
/// for batches that fill less than one lane batch, exactly one, and several:
/// every engine leaves the interpreter's partials buffer and `ExecStats`, and
/// the native tier completes every batch itself although a batch's lanes
/// start at addresses that are not linear in the work-item id.
#[test]
fn generated_packed_reduce_kernel_is_native_on_every_geometry() {
    let info = UdfInfo::analyze(UDF_BINARY_OP, 2).unwrap();
    let src = kernelgen::packed_reduce_kernel(&info).unwrap();
    for len in [1usize, 63, 64, 255, 256, 511, 512, 1000, 4096, 20000] {
        let parts = skelcl::reduce_partials(len);
        for jobs in [1usize, 2, 64, 65] {
            if jobs * len > 1 << 18 {
                continue;
            }
            let data: Vec<f32> = (0..jobs * len)
                .map(|i| ((i * 37 + 11) % 101) as f32 * 0.37 - 18.0)
                .collect();
            let what = format!("packed reduce, {jobs} job(s) of {len}, {parts} part(s) each");
            assert_stays_native_on_all_engines(
                &src,
                kernelgen::PACKED_REDUCE_KERNEL,
                &[Buf::F32(data), Buf::F32(vec![-1.0; jobs * parts])],
                &[Value::Int((jobs * len) as i32), Value::Int(len as i32)],
                jobs * parts,
                &what,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Divergent generated kernels on every engine
// ---------------------------------------------------------------------------

const SIZES: [usize; 5] = [1, 63, 64, 65, 1000];

/// Which elements take the branch: all, none, every other one, a fixed
/// pseudo-random half, or everything before the last third.
const PATTERNS: [&str; 5] = ["all", "none", "alternating", "random", "suffix"];

fn takes_branch(pattern: &str, i: usize, n: usize) -> bool {
    match pattern {
        "all" => true,
        "none" => false,
        "alternating" => i.is_multiple_of(2),
        "random" => (i.wrapping_mul(2_654_435_761) >> 7).is_multiple_of(2),
        _ => i < n - n / 3,
    }
}

const OSEM_UPDATE_UDF: &str =
    "float func(float f, float c) { if (c > 0.0f) { return f * c; } return f; }";

/// The paper's two divergent application kernels, and a fused plan kernel
/// with a branchy stage, stay on the native tier under lane masks: no
/// replay, no bail, interpreter-identical output and `ExecStats`.
#[test]
fn generated_divergent_kernels_stay_native() {
    // List-mode OSEM's `zipUpdate`, through the Zip template.
    let info = UdfInfo::analyze(OSEM_UPDATE_UDF, 2).unwrap();
    let src = kernelgen::zip_kernel(&info).unwrap();
    for n in SIZES {
        for pattern in PATTERNS {
            let f: Vec<f32> = (0..n).map(|i| (i % 23) as f32 * 0.5 + 0.25).collect();
            let c: Vec<f32> = (0..n)
                .map(|i| {
                    let mag = (i % 7) as f32 * 0.125 + 0.5;
                    if takes_branch(pattern, i, n) {
                        mag
                    } else {
                        0.5 - mag
                    }
                })
                .collect();
            let what = format!("osem update, n={n}, {pattern}");
            let masked = assert_stays_native_on_all_engines(
                &src,
                kernelgen::ZIP_KERNEL,
                &[Buf::F32(f), Buf::F32(c), Buf::F32(vec![-1.0; n])],
                &[Value::Int(n as i32)],
                n + 3,
                &what,
            );
            let uniform = n == 1 || pattern == "all" || pattern == "none";
            assert_eq!(masked == 0, uniform, "{what}");
        }
    }

    // The Mandelbrot escape loop, through the index-map template: views
    // where every pixel runs to the limit, none iterates, and mixed ones.
    let info = UdfInfo::analyze(mandelbrot::MANDELBROT_UDF, 1).unwrap();
    let src = kernelgen::map_index_kernel(&info).unwrap();
    let views = [
        ("inside", -0.1f32, 0.0f32, 0.05f32, 30),
        ("no iterations", -0.5, 0.0, 3.0, 0),
        ("default view", -0.5, 0.0, 3.0, 40),
        ("edge", -0.75, 0.1, 0.4, 60),
    ];
    for n in SIZES {
        for (name, center_re, center_im, view_width, max_iter) in views {
            let (width, height) = (40, 25);
            let what = format!("mandelbrot, n={n}, {name}");
            let masked = assert_stays_native_on_all_engines(
                &src,
                kernelgen::MAP_INDEX_KERNEL,
                &[Buf::I32(vec![-1; n])],
                &[
                    Value::Int(n as i32),
                    Value::Int(0),
                    Value::Int(width),
                    Value::Int(height),
                    Value::Float(center_re),
                    Value::Float(center_im),
                    Value::Float(view_width),
                    Value::Int(max_iter),
                ],
                n,
                &what,
            );
            if name == "inside" || name == "no iterations" {
                assert_eq!(masked, 0, "{what}");
            } else if n == 1000 {
                assert!(masked > 0, "{what}");
            }
        }
    }

    // A fused plan kernel whose first stage is the branchy update: every
    // tier runs the same fused launch, so outputs and the launch's virtual
    // duration (charged from `ExecStats`) must agree across tiers.
    let branchy = skelcl::skeletons::Map::<f32, f32>::from_source(
        "float func(float c) { if (c > 0.0f) { return c * 1.5f; } return 0.25f - c; }",
    );
    let shift =
        skelcl::skeletons::Map::<f32, f32>::from_source("float func(float x) { return x + 1.0f; }");
    for n in SIZES {
        for pattern in PATTERNS {
            let data: Vec<f32> = (0..n)
                .map(|i| {
                    let mag = (i % 11) as f32 * 0.25 + 0.5;
                    if takes_branch(pattern, i, n) {
                        mag
                    } else {
                        -mag
                    }
                })
                .collect();
            let run = |tier: Tier| {
                let rt = skelcl::init_gpus(1);
                rt.set_kernel_tier(tier);
                let v = skelcl::vector::Vector::from_vec(&rt, data.clone());
                let out = v
                    .lazy()
                    .policy(skelcl::FusionPolicy::Auto)
                    .map(&branchy)
                    .map(&shift)
                    .collect()
                    .unwrap();
                let kernel_time: Vec<_> = rt
                    .queue(0)
                    .events()
                    .iter()
                    .filter(|e| e.is_kernel())
                    .map(|e| e.duration())
                    .collect();
                let bits: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
                (bits, kernel_time, rt.exec_trace())
            };
            let what = format!("fused plan, n={n}, {pattern}");
            let (oracle_bits, oracle_time, _) = run(Tier::Interp);
            assert_eq!(oracle_time.len(), 1, "one fused launch: {what}");
            let (bits, time, trace) = run(Tier::Native);
            assert_eq!(bits, oracle_bits, "output diverged on native: {what}");
            assert_eq!(time, oracle_time, "virtual time diverged on native: {what}");
            assert_eq!(trace.kernels_fused, 1, "{what}");
            assert_eq!(trace.native_launches(), 1, "{}: {what}", trace.tier_line());
            assert_eq!(trace.replayed_batches(), 0, "{}: {what}", trace.tier_line());
            assert_eq!(trace.bailed_launches(), 0, "{}: {what}", trace.tier_line());
            let uniform = n == 1 || pattern == "all" || pattern == "none";
            assert_eq!(trace.masked_batches() == 0, uniform, "{what}");
        }
    }
}
