//! Differential property tests: the default tier (native, with the
//! interpreter for what it cannot take) against the tree-walking interpreter
//! oracle, plus the native tier's per-batch stats accumulation against the
//! oracle's per-item totals.
//!
//! Every kernel here runs through **both** engines on identical inputs; the
//! suite asserts bit-identical output buffers AND identical measured
//! [`ExecStats`] (flops, global-memory bytes, op counts). Errors must agree
//! too — same failure, same message. Coverage: control-flow edge cases
//! (for/while/break/continue, nested if, ternaries), all four buffer element
//! types (f32/f64/i32/u32), compound assignment and increment quirks,
//! helper-function calls, short-circuit logic, and division by zero.

use proptest::prelude::*;

use skelcl_kernel::interp::{ArgBinding, ExecStats};
use skelcl_kernel::value::Value;
use skelcl_kernel::Program;

/// Run `kernel` over `global_size` items through both engines on identical
/// copies of the f32 buffers; return both outcomes for comparison.
type Outcome<T> = Result<(Vec<Vec<T>>, ExecStats), String>;

fn run_both_f32(
    src: &str,
    kernel: &str,
    buffers: &[Vec<f32>],
    scalars: &[Value],
    global_size: usize,
) -> (Outcome<f32>, Outcome<f32>) {
    let p = Program::build(src).expect("test kernels must build");
    let k = p.kernel(kernel).expect("kernel exists");

    let run = |default_tier: bool| -> Outcome<f32> {
        let mut bufs: Vec<Vec<f32>> = buffers.to_vec();
        let mut args: Vec<ArgBinding<'_>> = Vec::new();
        for b in &mut bufs {
            args.push(ArgBinding::Buffer(skelcl_kernel::interp::BufferView::F32(
                b,
            )));
        }
        for s in scalars {
            args.push(ArgBinding::Scalar(*s));
        }
        let stats = if default_tier {
            p.run_ndrange_measured(&k, global_size, &mut args)
        } else {
            p.run_ndrange_measured_interp(&k, global_size, &mut args)
        };
        drop(args);
        match stats {
            Ok(s) => Ok((bufs, s)),
            Err(e) => Err(e.message),
        }
    };
    (run(true), run(false))
}

fn assert_engines_agree_f32(
    src: &str,
    kernel: &str,
    buffers: &[Vec<f32>],
    scalars: &[Value],
    global_size: usize,
) {
    let (native, oracle) = run_both_f32(src, kernel, buffers, scalars, global_size);
    match (native, oracle) {
        (Ok((vb, vs)), Ok((ob, os))) => {
            for (i, (v, o)) in vb.iter().zip(&ob).enumerate() {
                let vbits: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
                let obits: Vec<u32> = o.iter().map(|x| x.to_bits()).collect();
                assert_eq!(vbits, obits, "buffer {i} diverged for kernel:\n{src}");
            }
            assert_eq!(vs, os, "ExecStats diverged for kernel:\n{src}");
        }
        (Err(ve), Err(oe)) => {
            assert_eq!(ve, oe, "error messages diverged for kernel:\n{src}");
        }
        (native, oracle) => panic!(
            "engines disagree on success for kernel:\n{src}\nnative: {:?}\noracle: {:?}",
            native.map(|(_, s)| s),
            oracle.map(|(_, s)| s)
        ),
    }
}

/// Typed variant covering the integer buffer types.
macro_rules! run_both_typed {
    ($name:ident, $elem:ty, $view:ident) => {
        fn $name(
            src: &str,
            kernel: &str,
            buffers: &[Vec<$elem>],
            scalars: &[Value],
            global_size: usize,
        ) {
            let p = Program::build(src).expect("test kernels must build");
            let k = p.kernel(kernel).expect("kernel exists");
            let run = |default_tier: bool| -> Outcome<$elem> {
                let mut bufs: Vec<Vec<$elem>> = buffers.to_vec();
                let mut args: Vec<ArgBinding<'_>> = Vec::new();
                for b in &mut bufs {
                    args.push(ArgBinding::Buffer(
                        skelcl_kernel::interp::BufferView::$view(b),
                    ));
                }
                for s in scalars {
                    args.push(ArgBinding::Scalar(*s));
                }
                let stats = if default_tier {
                    p.run_ndrange_measured(&k, global_size, &mut args)
                } else {
                    p.run_ndrange_measured_interp(&k, global_size, &mut args)
                };
                drop(args);
                match stats {
                    Ok(s) => Ok((bufs, s)),
                    Err(e) => Err(e.message),
                }
            };
            let native = run(true);
            let oracle = run(false);
            match (native, oracle) {
                (Ok((vb, vs)), Ok((ob, os))) => {
                    assert_eq!(vb, ob, "buffers diverged for kernel:\n{src}");
                    assert_eq!(vs, os, "ExecStats diverged for kernel:\n{src}");
                }
                (Err(ve), Err(oe)) => {
                    assert_eq!(ve, oe, "errors diverged for kernel:\n{src}")
                }
                (native, oracle) => panic!(
                    "engines disagree on success for kernel:\n{src}\nnative err: {:?}\noracle err: {:?}",
                    native.err(),
                    oracle.err()
                ),
            }
        }
    };
}

run_both_typed!(assert_engines_agree_i32, i32, I32);
run_both_typed!(assert_engines_agree_u32, u32, U32);
run_both_typed!(assert_engines_agree_f64, f64, F64);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn for_loops_with_break_and_continue(
        data in prop::collection::vec(-100.0f32..100.0, 1..48),
        limit in 0i32..40,
        skip in 1i32..7,
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
        assert_engines_agree_f32(
            src, "k", &[data],
            &[Value::Int(n as i32), Value::Int(limit), Value::Int(skip)],
            n,
        );
    }

    #[test]
    fn while_loops_with_runtime_bounds(
        seed in 1u32..1000,
        iters in 0i32..60,
        items in 1usize..24,
    ) {
        let src = r#"
            __kernel void k(__global float* v, int n, int iters) {
                int gid = get_global_id(0);
                float acc = v[gid];
                int i = 0;
                while (i < iters) {
                    acc = acc * 1.001f + 0.25f;
                    i++;
                    if (acc > 1.0e6f) { break; }
                }
                v[gid] = acc;
            }
        "#;
        let data: Vec<f32> = (0..items).map(|i| (seed as f32) * 0.1 + i as f32).collect();
        assert_engines_agree_f32(
            src, "k", &[data],
            &[Value::Int(items as i32), Value::Int(iters)],
            items,
        );
    }

    #[test]
    fn nested_ifs_ternaries_and_short_circuits(
        data in prop::collection::vec(-50.0f32..50.0, 1..40),
        t in -10.0f32..10.0,
    ) {
        let src = r#"
            __kernel void k(__global float* v, int n, float t) {
                int gid = get_global_id(0);
                float x = v[gid];
                if (x > t && x < t + 20.0f) {
                    if (x > 0.0f || t < -5.0f) {
                        x = x > 10.0f ? x - 10.0f : -x;
                    } else {
                        x += 1.0f;
                    }
                } else {
                    x = !(x > t) ? t : x * 0.5f;
                }
                v[gid] = x;
            }
        "#;
        let n = data.len();
        assert_engines_agree_f32(
            src, "k", &[data],
            &[Value::Int(n as i32), Value::Float(t)],
            n,
        );
    }

    #[test]
    fn i32_arithmetic_with_division_and_modulo(
        data in prop::collection::vec(-1000i32..1000, 1..40),
        d in -8i32..8,
    ) {
        // d may be zero: both engines must report the identical
        // division-by-zero error; otherwise identical results.
        let src = r#"
            __kernel void k(__global int* v, int n, int d) {
                int gid = get_global_id(0);
                int x = v[gid];
                v[gid] = x * 3 - x / d + x % d;
            }
        "#;
        let n = data.len();
        assert_engines_agree_i32(
            src, "k", &[data],
            &[Value::Int(n as i32), Value::Int(d)],
            n,
        );
    }

    #[test]
    fn u32_arithmetic_and_unsigned_conversions(
        data in prop::collection::vec(0u32..100_000, 1..32),
        s in 0u32..17,
    ) {
        let src = r#"
            __kernel void k(__global uint* v, int n, uint s) {
                int gid = get_global_id(0);
                uint x = v[gid];
                uint y = x + s * 3u;
                if (y % 2u == 0u) { y = y / 2u; } else { y = y * 3u + 1u; }
                v[gid] = y;
            }
        "#;
        let n = data.len();
        assert_engines_agree_u32(
            src, "k", &[data],
            &[Value::Int(n as i32), Value::Uint(s)],
            n,
        );
    }

    #[test]
    fn f64_math_builtins_and_casts(
        data in prop::collection::vec(0.01f64..100.0, 1..24),
    ) {
        let src = r#"
            __kernel void k(__global double* v, int n) {
                int gid = get_global_id(0);
                double x = v[gid];
                double y = sqrt(x) + exp(x * 0.001f) + pow(x, 0.5f);
                int trunc = (int) y;
                v[gid] = y - (float) trunc + fmin(x, 10.0f);
            }
        "#;
        let n = data.len();
        assert_engines_agree_f64(src, "k", &[data], &[Value::Int(n as i32)], n);
    }

    #[test]
    fn compound_assignment_and_incdec_quirks(
        data in prop::collection::vec(-20.0f32..20.0, 2..32),
    ) {
        // Covers: compound assignment to buffer elements (the interpreter
        // evaluates the index twice), pre/post increment as values, and
        // assignment-as-expression yielding the unconverted value.
        let src = r#"
            __kernel void k(__global float* v, int n) {
                int gid = get_global_id(0);
                int i = 0;
                v[gid] *= 2.0f;
                v[gid] += v[(gid + 1) % n];
                float a = i++;
                float b = ++i;
                int c = 0;
                float d = (c = 7) + a + b;
                v[gid] -= d * 0.125f;
            }
        "#;
        let n = data.len();
        assert_engines_agree_f32(src, "k", &[data], &[Value::Int(n as i32)], n);
    }

    #[test]
    fn helper_functions_and_generated_skeleton_shapes(
        data in prop::collection::vec(-100.0f32..100.0, 1..48),
        a in -4.0f32..4.0,
    ) {
        // The exact shape kernelgen emits for a map skeleton with helpers.
        let src = r#"
            float sq(float x) { return x * x; }
            float func(float x, float a) { return sq(x) * a + sq(a); }
            __kernel void SKELCL_MAP(__global float* skelcl_in, __global float* skelcl_out, int skelcl_n, float skelcl_arg_a) {
                int skelcl_gid = get_global_id(0);
                if (skelcl_gid < skelcl_n) {
                    skelcl_out[skelcl_gid] = func(skelcl_in[skelcl_gid], skelcl_arg_a);
                }
            }
        "#;
        let n = data.len();
        let out = vec![0.0f32; n];
        assert_engines_agree_f32(
            src, "SKELCL_MAP", &[data, out],
            &[Value::Int(n as i32), Value::Float(a)],
            n,
        );
    }

    #[test]
    fn sequential_reduce_kernel_matches(
        data in prop::collection::vec(-10.0f32..10.0, 1..64),
    ) {
        // The generated reduce kernel shape: one work-item folds the buffer.
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
        let n = data.len();
        let out = vec![0.0f32; 1];
        assert_engines_agree_f32(
            src, "SKELCL_REDUCE", &[data, out],
            &[Value::Int(n as i32)],
            1,
        );
    }

    #[test]
    fn data_dependent_loops_have_identical_measured_stats(
        items in 1usize..32,
    ) {
        // Triangular work: item `gid` runs `gid+1` iterations, so the stats
        // are strongly data dependent — exactly what the per-instruction
        // cost attribution must reproduce.
        let src = r#"
            __kernel void k(__global float* v, int n) {
                int gid = get_global_id(0);
                float acc = 0.0f;
                for (int i = 0; i <= gid; i++) { acc += sqrt(acc + i) * 0.1f; }
                v[gid] = acc;
            }
        "#;
        let data = vec![0.0f32; items];
        assert_engines_agree_f32(src, "k", &[data], &[Value::Int(items as i32)], items);
    }

    #[test]
    fn out_of_bounds_errors_agree(
        idx in 8i32..64,
    ) {
        let src = r#"
            __kernel void k(__global float* v, int n, int idx) {
                v[idx] = 1.0f;
            }
        "#;
        assert_engines_agree_f32(
            src, "k", &[vec![0.0f32; 4]],
            &[Value::Int(4), Value::Int(idx)],
            1,
        );
    }
}

/// The kernel shape `kernelgen` emits for a MapOverlap (stencil) skeleton:
/// the reserved `skelcl_stencil_*` parameters bind the context of the
/// `get(dx, dy)` neighbour-access builtin.
fn stencil_kernel(udf: &str) -> String {
    format!(
        "{udf}\n\
         __kernel void SKELCL_MAP_OVERLAP(__global float* skelcl_stencil_in, __global float* skelcl_out,\n\
             int skelcl_n, int skelcl_stencil_w, int skelcl_stencil_halo,\n\
             int skelcl_stencil_policy, float skelcl_stencil_oob) {{\n\
             int skelcl_gid = get_global_id(0);\n\
             if (skelcl_gid < skelcl_n) {{\n\
                 int skelcl_row = skelcl_gid / skelcl_stencil_w;\n\
                 int skelcl_col = skelcl_gid % skelcl_stencil_w;\n\
                 skelcl_out[skelcl_gid] = func(skelcl_stencil_in[(skelcl_row + skelcl_stencil_halo) * skelcl_stencil_w + skelcl_col]);\n\
             }}\n\
         }}\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stencil_neighbour_access_agrees_across_engines(
        rows in 1usize..6,
        w in 1usize..8,
        halo in 0usize..3,
        policy in 0i32..3,
        oob in -5.0f32..5.0,
        seed in 0u32..1000,
    ) {
        // A 5-point probe clamped to the available halo, plus corner taps.
        let dy = halo.min(1) as i32;
        let udf = format!(
            "float func(float x) {{ return x + 0.5f * (get(-1, 0) + get(1, 0) + get(0, -{dy}) + get(0, {dy})) + 0.25f * get(-2, {dy}); }}"
        );
        let src = stencil_kernel(&udf);
        let n = rows * w;
        let padded = (rows + 2 * halo) * w;
        let input: Vec<f32> = (0..padded).map(|i| ((i as u32 * 37 + seed) % 101) as f32 * 0.5 - 20.0).collect();
        let out = vec![0.0f32; n];
        assert_engines_agree_f32(
            &src, "SKELCL_MAP_OVERLAP", &[input, out],
            &[
                Value::Int(n as i32),
                Value::Int(w as i32),
                Value::Int(halo as i32),
                Value::Int(policy),
                Value::Float(oob),
            ],
            n,
        );
    }

    #[test]
    fn stencil_row_accesses_beyond_the_halo_error_identically(
        rows in 1usize..5,
        w in 1usize..6,
        halo in 0usize..3,
        dy in -4i32..5,
    ) {
        // `dy` may exceed the declared halo: both engines must report the
        // identical "exceeds the declared halo" error (and identical stats
        // up to the failure); valid offsets must agree bit for bit.
        let udf = "float func(float x, int dx, int dy) { return x * 0.5f + get(dx, dy); }";
        let src = format!(
            "{udf}\n\
             __kernel void SKELCL_MAP_OVERLAP(__global float* skelcl_stencil_in, __global float* skelcl_out,\n\
                 int skelcl_n, int skelcl_stencil_w, int skelcl_stencil_halo,\n\
                 int skelcl_stencil_policy, float skelcl_stencil_oob, int skelcl_arg_dx, int skelcl_arg_dy) {{\n\
                 int skelcl_gid = get_global_id(0);\n\
                 if (skelcl_gid < skelcl_n) {{\n\
                     skelcl_out[skelcl_gid] = func(skelcl_stencil_in[skelcl_gid], skelcl_arg_dx, skelcl_arg_dy);\n\
                 }}\n\
             }}\n"
        );
        let n = rows * w;
        let padded = (rows + 2 * halo) * w;
        let input: Vec<f32> = (0..padded).map(|i| i as f32 * 0.25).collect();
        let out = vec![0.0f32; n];
        assert_engines_agree_f32(
            &src, "SKELCL_MAP_OVERLAP", &[input, out],
            &[
                Value::Int(n as i32),
                Value::Int(w as i32),
                Value::Int(halo as i32),
                Value::Int(0),
                Value::Float(0.0),
                Value::Int(1),
                Value::Int(dy),
            ],
            n,
        );
    }
}

/// A launch whose first computed row is not the part's first row after the
/// halo (the iterative stencil driver's windows into parts stored three halo
/// widths deep, bound from `halo` rows above the window): native agrees with
/// the oracle — bits and stats — on every window, and `dy = 2` is the
/// halo-overrun error in both although the row it asks for is stored.
#[test]
fn windows_into_deeper_padded_parts_agree_and_keep_the_halo_bound() {
    // The frame `kernelgen` emits today: load and store at `gid + halo·w`.
    let frame = |udf: &str| {
        stencil_kernel(udf).replace(
            "skelcl_out[skelcl_gid] =",
            "skelcl_out[(skelcl_row + skelcl_stencil_halo) * skelcl_stencil_w + skelcl_col] =",
        )
    };
    let heat = frame(
        "float func(float u) { return u + 0.25f * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0)); }",
    );
    let too_far = frame("float func(float u) { return u + get(0, 2); }");
    let (core, pad, w) = (5usize, 3usize, 41usize);
    let stored: Vec<f32> = (0..(core + 2 * pad) * w)
        .map(|i| (i * 37 % 101) as f32 * 0.5 - 20.0)
        .collect();
    for (first, rows) in [(pad, core), (pad - 1, core + 2), (pad - 2, core + 4)] {
        let origin = (first - 1) * w;
        let bufs = [
            stored[origin..].to_vec(),
            vec![7.0e30f32; stored.len() - origin],
        ];
        let scalars = [
            Value::Int((rows * w) as i32),
            Value::Int(w as i32),
            Value::Int(1),
            Value::Int(1),
            Value::Float(-1.5),
        ];
        assert_engines_agree_f32(&heat, "SKELCL_MAP_OVERLAP", &bufs, &scalars, rows * w);
        let (native, _) = run_both_f32(&heat, "SKELCL_MAP_OVERLAP", &bufs, &scalars, rows * w);
        let out = &native.expect("the window runs").0[1];
        let written = |i: usize| out[i] != 7.0e30;
        assert!((0..w).all(|i| !written(i)), "row above the window written");
        assert!((w..(rows + 1) * w).all(written), "window not fully written");
        assert!(((rows + 1) * w..out.len()).all(|i| !written(i)));
        let (native, oracle) =
            run_both_f32(&too_far, "SKELCL_MAP_OVERLAP", &bufs, &scalars, rows * w);
        let expected = "stencil access dy=2 exceeds the declared halo of 1 row(s)";
        assert_eq!(native.unwrap_err(), expected);
        assert_eq!(oracle.unwrap_err(), expected);
    }
}

#[test]
fn get_outside_a_stencil_kernel_is_the_same_runtime_error() {
    let src = r#"
        __kernel void k(__global float* v, int n) {
            int gid = get_global_id(0);
            v[gid] = get(0, 0);
        }
    "#;
    assert_engines_agree_f32(src, "k", &[vec![0.0f32; 3]], &[Value::Int(3)], 3);
}

#[test]
fn stencil_column_policies_differ_only_at_the_edges() {
    // Sanity on the semantics themselves (not just engine agreement): with a
    // 1-column probe to the left, clamp repeats the edge, wrap pulls the last
    // column, constant yields the oob value.
    let src = stencil_kernel("float func(float x) { return get(-1, 0); }");
    let p = Program::build(&src).unwrap();
    let k = p.kernel("SKELCL_MAP_OVERLAP").unwrap();
    let run = |policy: i32, oob: f32| -> Vec<f32> {
        let mut input = vec![10.0f32, 20.0, 30.0]; // 1 row, 3 cols, halo 0
        let mut out = vec![0.0f32; 3];
        let mut args = vec![
            ArgBinding::Buffer(skelcl_kernel::interp::BufferView::F32(&mut input)),
            ArgBinding::Buffer(skelcl_kernel::interp::BufferView::F32(&mut out)),
            ArgBinding::Scalar(Value::Int(3)),
            ArgBinding::Scalar(Value::Int(3)),
            ArgBinding::Scalar(Value::Int(0)),
            ArgBinding::Scalar(Value::Int(policy)),
            ArgBinding::Scalar(Value::Float(oob)),
        ];
        p.run_ndrange(&k, 3, &mut args).unwrap();
        drop(args);
        out
    };
    assert_eq!(
        run(0, 0.0),
        vec![10.0, 10.0, 20.0],
        "clamp repeats the edge"
    );
    assert_eq!(run(1, 0.0), vec![30.0, 10.0, 20.0], "wrap is cyclic");
    assert_eq!(run(2, -1.0), vec![-1.0, 10.0, 20.0], "constant fills");
}

#[test]
fn break_and_continue_at_kernel_top_level() {
    // A kernel-level `break` outside any loop ends the work-item in both
    // engines (the interpreter unwinds the block stack and stops).
    let src = r#"
        __kernel void k(__global float* v, int n) {
            int gid = get_global_id(0);
            v[gid] = 1.0f;
            if (gid > 0) { break; }
            v[gid] = 2.0f;
        }
    "#;
    assert_engines_agree_f32(src, "k", &[vec![0.0f32; 4]], &[Value::Int(4)], 4);
}

#[test]
fn orphan_break_in_helper_is_the_same_runtime_error() {
    let src = r#"
        float f(float x) { break; return x; }
        __kernel void k(__global float* v, int n) { v[0] = f(v[0]); }
    "#;
    assert_engines_agree_f32(src, "k", &[vec![1.0f32; 2]], &[Value::Int(2)], 1);
}

#[test]
fn void_helper_call_value_and_return_conversion() {
    let src = r#"
        int half_int(float x) { return x / 2.0f; }
        __kernel void k(__global float* v, int n) {
            int gid = get_global_id(0);
            v[gid] = half_int(v[gid]);
        }
    "#;
    assert_engines_agree_f32(src, "k", &[vec![1.0, 3.0, 9.5, -7.0]], &[Value::Int(4)], 4);
}

#[test]
fn negative_index_errors_agree() {
    let src = r#"
        __kernel void k(__global float* v, int n, int idx) { v[idx] = 0.5f; }
    "#;
    assert_engines_agree_f32(
        src,
        "k",
        &[vec![0.0f32; 4]],
        &[Value::Int(4), Value::Int(-3)],
        1,
    );
}

#[test]
fn work_item_geometry_functions_agree() {
    let src = r#"
        __kernel void k(__global int* v, int n) {
            int gid = get_global_id(0);
            v[gid] = gid * 1000000 + get_local_id(0) * 10000
                   + get_group_id(0) * 1000 + get_global_size(0) * 10
                   + get_local_size(0) + get_num_groups(0);
        }
    "#;
    assert_engines_agree_i32(src, "k", &[vec![0i32; 6]], &[Value::Int(6)], 6);
}

/// A float `clamp` is OpenCL's `fmin(fmax(x, lo), hi)` on both engines:
/// inverted or NaN bounds give a value, never a panic — in every lane, also
/// when a branch is divergent.
#[test]
fn clamp_with_inverted_or_nan_bounds_is_fmin_of_fmax() {
    let src = r#"
        __kernel void k(__global float* v, __global float* lo, __global float* hi, int n) {
            int g = get_global_id(0);
            if (g < n) {
                v[g] = clamp(v[g], lo[g], hi[g]);
                if (g % 2 == 0) { v[g] = v[g] + clamp(1.5f, 1.0f, 0.0f); }
            }
        }
    "#;
    let nan = f32::NAN;
    let v = vec![0.5, -3.0, 7.0, 0.25, nan, 2.0];
    let lo = vec![1.0, nan, 1.0, nan, 0.0, 1.0];
    let hi = vec![0.0, 2.0, nan, nan, 1.0, 0.0];
    let buffers = [v, lo, hi];
    assert_engines_agree_f32(src, "k", &buffers, &[Value::Int(6)], 6);
    let (native, _) = run_both_f32(src, "k", &buffers, &[Value::Int(6)], 6);
    let (out, _) = native.unwrap();
    assert_eq!(out[0], [0.0, -3.0, 7.0, 0.25, 0.0, 0.0]);
}

#[test]
fn buffer_parameter_read_as_value_is_the_same_error() {
    // A buffer in value position is a check error with a span, so no engine
    // ever runs it: as an initialiser, a condition or a bare statement.
    for src in [
        "__kernel void k(__global float* v, int n) { float x = v; v[0] = x; }",
        "__kernel void k(__global float* v, int n) { if (v) { v[0] = 1.0f; } }",
        "__kernel void k(__global float* v, int n) { while (v) { } }",
        "__kernel void k(__global float* v, int n) { v; v[0] = 1.0f; }",
        "__kernel void k(__global float* v, int n) { v[0] = v ? 1.0f : 2.0f; }",
    ] {
        let err = Program::build(src).unwrap_err();
        assert!(
            err.message.contains("buffer cannot be used as a value"),
            "{src}: {err}"
        );
        assert!(err.span.is_some(), "{src}: {err}");
    }
}

/// The value of `=`, `op=` and prefix `++`/`--` is the stored value,
/// converted to the target's type, on both engines.
#[test]
fn assignment_values_are_the_stored_values() {
    let src = r#"
        __kernel void k(__global float* v, int n) {
            int x = 0;
            v[0] = (x = 2.5f);
            v[1] = (x += 1.75f);
            float f = 0.5f;
            int i = 7;
            v[2] = (i = f * 5.0f) + 0.25f;
            v[3] = ++x + 0.5f;
            v[4] = (v[5] = 3.75f) * 2.0f;
        }
    "#;
    let p = Program::build(src).unwrap();
    let k = p.kernel("k").unwrap();
    for tier in [skelcl_kernel::Tier::Interp, skelcl_kernel::Tier::Native] {
        p.set_tier(tier);
        let mut out = vec![0.0f32; 6];
        let mut args = vec![
            ArgBinding::buffer_f32(&mut out),
            ArgBinding::Scalar(Value::Int(6)),
        ];
        let (_, trace) = p.run_ndrange_traced(&k, 1, &mut args).unwrap();
        drop(args);
        assert_eq!(trace.tier, tier);
        assert_eq!(out, [2.0, 3.0, 2.25, 4.5, 7.5, 3.75], "{tier}");
    }
}

/// `&&` and `||` assigned to a variable their right-hand side reads — also
/// through a `?:` arm and an inlined helper whose parameter is that
/// variable — see its old value, under divergent lanes.
#[test]
fn short_circuit_results_assigned_to_an_operand() {
    let src = r#"
        bool both(bool p, bool q) { return p && q; }
        bool either(bool p, bool q) { return p || q; }
        __kernel void k(__global float* v, int n) {
            int gid = get_global_id(0);
            bool x = gid % 2 == 0;
            bool y = gid % 3 == 0;
            bool b = gid % 4 < 2;
            b = x && b;
            float r = b ? 1.0f : 0.0f;
            b = gid % 5 < 3;
            b = y || b;
            r += b ? 2.0f : 0.0f;
            b = gid % 7 < 4;
            b = both(x, b);
            r += b ? 4.0f : 0.0f;
            b = gid % 6 < 3;
            b = either(y, b);
            r += b ? 8.0f : 0.0f;
            b = gid % 9 < 5;
            b = y ? b : (x && b);
            r += b ? 16.0f : 0.0f;
            v[gid] = r;
        }
    "#;
    let n = 150;
    let expected: Vec<f32> = (0..n)
        .map(|gid| {
            let (x, y) = (gid % 2 == 0, gid % 3 == 0);
            let bit = |b: bool, w: f32| if b { w } else { 0.0 };
            bit(x && gid % 4 < 2, 1.0)
                + bit(y || gid % 5 < 3, 2.0)
                + bit(x && gid % 7 < 4, 4.0)
                + bit(y || gid % 6 < 3, 8.0)
                + bit(if y { gid % 9 < 5 } else { x && gid % 9 < 5 }, 16.0)
        })
        .collect();
    assert_engines_agree_f32(src, "k", &[vec![0.0f32; n]], &[Value::Int(n as i32)], n);
    let p = Program::build(src).unwrap();
    let k = p.kernel("k").unwrap();
    let mut out = vec![0.0f32; n];
    let mut args = vec![
        ArgBinding::buffer_f32(&mut out),
        ArgBinding::Scalar(Value::Int(n as i32)),
    ];
    let (_, trace) = p.run_ndrange_traced(&k, n, &mut args).unwrap();
    drop(args);
    assert_eq!(trace.tier, skelcl_kernel::Tier::Native);
    assert_eq!(out, expected);
}

// ---------------------------------------------------------------------------
// Native per-batch accumulation vs the oracle's per-item totals
// ---------------------------------------------------------------------------
//
// `Program::run_ndrange_measured` runs work-items on the native tier in lane
// batches and accumulates `ExecStats` once per block and batch (`cost ×
// active_lanes`). These tests pin the accumulation identity it must uphold:
// the per-batch totals equal the interpreter oracle's per-item totals
// *exactly* (all cost constants are dyadic rationals, so no summation order
// may differ), at every batch-boundary shape — full batches, ragged tails,
// single-item launches — and through the early-exit lane mask.

/// Oracle totals accumulated strictly one item at a time.
fn oracle_per_item_totals(
    p: &Program,
    k: &skelcl_kernel::KernelHandle,
    buffers: &mut [Vec<f32>],
    scalars: &[Value],
    global_size: usize,
) -> ExecStats {
    let mut args: Vec<ArgBinding<'_>> = Vec::new();
    for b in buffers.iter_mut() {
        args.push(ArgBinding::Buffer(skelcl_kernel::interp::BufferView::F32(
            b,
        )));
    }
    for s in scalars {
        args.push(ArgBinding::Scalar(*s));
    }
    let mut total = ExecStats::default();
    for gid in 0..global_size {
        // One-item NDRanges keep the oracle's accumulation strictly
        // per item while preserving the launch geometry.
        let stats = p
            .run_ndrange_measured_interp_item(k, gid, global_size, &mut args)
            .expect("oracle item");
        total.flops += stats.flops;
        total.global_bytes += stats.global_bytes;
        total.ops += stats.ops;
    }
    total
}

/// The guarded map shape at sizes straddling every batch boundary: the
/// native tier's per-batch totals must equal the oracle's per-item sums
/// bit for bit, and so must the output buffers.
#[test]
fn per_batch_totals_equal_oracle_per_item_totals_across_batch_shapes() {
    let src = r#"
        float func(float x, float a) { return x * a + 0.5f; }
        __kernel void SKELCL_MAP(__global float* skelcl_in, __global float* skelcl_out, int skelcl_n, float skelcl_arg_a) {
            int skelcl_gid = get_global_id(0);
            if (skelcl_gid < skelcl_n) {
                skelcl_out[skelcl_gid] = func(skelcl_in[skelcl_gid], skelcl_arg_a);
            }
        }
    "#;
    let p = Program::build(src).unwrap();
    let k = p.kernel("SKELCL_MAP").unwrap();
    let batch = skelcl_kernel::native::BATCH_LANES;
    for n in [1, 2, batch - 1, batch, batch + 1, 3 * batch, 3 * batch + 7] {
        let input: Vec<f32> = (0..n).map(|i| i as f32 * 0.25 - 3.0).collect();
        let scalars = [Value::Int(n as i32), Value::Float(1.5)];

        let mut oracle_bufs = vec![input.clone(), vec![0.0f32; n]];
        let oracle = oracle_per_item_totals(&p, &k, &mut oracle_bufs, &scalars, n);

        let mut bufs = vec![input.clone(), vec![0.0f32; n]];
        let mut args: Vec<ArgBinding<'_>> = Vec::new();
        for b in &mut bufs {
            args.push(ArgBinding::Buffer(skelcl_kernel::interp::BufferView::F32(
                b,
            )));
        }
        for s in &scalars {
            args.push(ArgBinding::Scalar(*s));
        }
        let native = p.run_ndrange_measured(&k, n, &mut args).unwrap();
        drop(args);

        assert_eq!(native, oracle, "per-batch totals diverged at n = {n}");
        assert_eq!(bufs, oracle_bufs, "results diverged at n = {n}");
    }
}

/// A launch whose guard masks out a *strict subset* of the final batch's
/// lanes (gid ≥ n works on padding): the exit-chain charging of the lane
/// mask must reproduce the oracle's costs for the masked lanes exactly.
#[test]
fn lane_mask_exit_charging_matches_the_oracle() {
    let src = r#"
        __kernel void k(__global float* v, int n) {
            int gid = get_global_id(0);
            if (gid < n) { v[gid] = v[gid] * 2.0f + 1.0f; }
        }
    "#;
    let p = Program::build(src).unwrap();
    let k = p.kernel("k").unwrap();
    let batch = skelcl_kernel::native::BATCH_LANES;
    // Launch over more items than the buffer holds valid elements: the tail
    // lanes take the guard's exit path inside a live batch.
    for (len, launch) in [(10, 16), (batch + 5, batch + batch / 2), (3, 3 * batch)] {
        let input: Vec<f32> = (0..launch).map(|i| i as f32).collect();
        let scalars = [Value::Int(len as i32)];

        let mut oracle_bufs = vec![input.clone()];
        let oracle = oracle_per_item_totals(&p, &k, &mut oracle_bufs, &scalars, launch);

        let mut bufs = vec![input.clone()];
        let mut args = vec![
            ArgBinding::Buffer(skelcl_kernel::interp::BufferView::F32(&mut bufs[0])),
            ArgBinding::Scalar(scalars[0]),
        ];
        let native = p.run_ndrange_measured(&k, launch, &mut args).unwrap();
        drop(args);

        assert_eq!(
            native, oracle,
            "masked-lane charging diverged for len={len} launch={launch}"
        );
        assert_eq!(bufs, oracle_bufs, "results diverged for len={len}");
    }
}

/// A cross-lane hazard (the kernel reads a neighbour it also writes) bails a
/// native batch, and data-dependent divergence (gid-dependent loop counts)
/// runs under lane masks; both still match the oracle exactly.
#[test]
fn rollback_and_replay_paths_match_the_oracle() {
    let hazard = r#"
        __kernel void k(__global float* v, int n) {
            int gid = get_global_id(0);
            v[gid] = v[gid] * 2.0f;
            v[gid] += v[(gid + 1) % n];
        }
    "#;
    let divergent = r#"
        __kernel void k(__global float* v, int n) {
            int gid = get_global_id(0);
            float acc = 0.0f;
            for (int i = 0; i <= gid % 7; i++) { acc += v[gid] * 0.5f; }
            v[gid] = acc;
        }
    "#;
    let batch = skelcl_kernel::native::BATCH_LANES;
    for src in [hazard, divergent] {
        let n = 2 * batch + 3;
        let data: Vec<f32> = (0..n).map(|i| (i % 13) as f32 - 6.0).collect();
        assert_engines_agree_f32(src, "k", &[data], &[Value::Int(n as i32)], n);
    }
}

/// The default entry point and the oracle's must agree on a data-dependent
/// workload.
#[test]
fn scalar_and_batched_vm_paths_are_identical() {
    let src = r#"
        __kernel void k(__global float* v, int n) {
            int gid = get_global_id(0);
            float acc = v[gid];
            for (int i = 0; i < gid % 5 + 1; i++) { acc = acc * 1.5f - 0.25f; }
            v[gid] = acc;
        }
    "#;
    let p = Program::build(src).unwrap();
    let k = p.kernel("k").unwrap();
    let n = 150;
    let input: Vec<f32> = (0..n).map(|i| i as f32 * 0.125).collect();

    let mut a = input.clone();
    let mut args = vec![
        ArgBinding::buffer_f32(&mut a),
        ArgBinding::Scalar(Value::Int(n as i32)),
    ];
    let sa = p.run_ndrange_measured(&k, n, &mut args).unwrap();
    drop(args);

    let mut b = input.clone();
    let mut args = vec![
        ArgBinding::buffer_f32(&mut b),
        ArgBinding::Scalar(Value::Int(n as i32)),
    ];
    let sb = p.run_ndrange_measured_interp(&k, n, &mut args).unwrap();
    drop(args);

    assert_eq!(sa, sb, "native and oracle stats must be identical");
    let ab: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
    let bb: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
    assert_eq!(ab, bb, "native and oracle results must be identical");
}
