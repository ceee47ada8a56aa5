//! Property-based tests of the kernel language: the interpreter agrees with
//! a native Rust reference on arbitrary inputs, the measured execution
//! statistics behave like real counters, and the front end never panics on
//! malformed input.

use proptest::prelude::*;

use skelcl_kernel::interp::ArgBinding;
use skelcl_kernel::value::Value;
use skelcl_kernel::Program;

const SAXPY: &str = r#"
    float func(float x, float y, float a) { return a * x + y; }
    __kernel void saxpy(__global float* xs, __global float* ys,
                        __global float* out, int n, float a) {
        int gid = get_global_id(0);
        if (gid < n) { out[gid] = func(xs[gid], ys[gid], a); }
    }
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn saxpy_kernel_matches_the_rust_reference(
        data in prop::collection::vec((-1.0e3f32..1.0e3, -1.0e3f32..1.0e3), 1..128),
        a in -100.0f32..100.0,
    ) {
        let p = Program::build(SAXPY).unwrap();
        let k = p.kernel("saxpy").unwrap();
        let mut xs: Vec<f32> = data.iter().map(|(x, _)| *x).collect();
        let mut ys: Vec<f32> = data.iter().map(|(_, y)| *y).collect();
        let n = xs.len();
        let expected: Vec<f32> = xs.iter().zip(&ys).map(|(x, y)| a * x + y).collect();
        let mut out = vec![0.0f32; n];
        let mut args = vec![
            ArgBinding::buffer_f32(&mut xs),
            ArgBinding::buffer_f32(&mut ys),
            ArgBinding::buffer_f32(&mut out),
            ArgBinding::Scalar(Value::Int(n as i32)),
            ArgBinding::Scalar(Value::Float(a)),
        ];
        p.run_ndrange(&k, n, &mut args).unwrap();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn integer_polynomial_kernel_matches_the_rust_reference(
        data in prop::collection::vec(-1000i32..1000, 1..100),
        c in -50i32..50,
    ) {
        let src = r#"
            __kernel void poly(__global int* v, int n, int c) {
                int gid = get_global_id(0);
                if (gid < n) {
                    int x = v[gid];
                    v[gid] = x * x + c * x - 7;
                }
            }
        "#;
        let p = Program::build(src).unwrap();
        let k = p.kernel("poly").unwrap();
        let mut buf = data.clone();
        let n = buf.len();
        let mut args = vec![
            ArgBinding::buffer_i32(&mut buf),
            ArgBinding::Scalar(Value::Int(n as i32)),
            ArgBinding::Scalar(Value::Int(c)),
        ];
        p.run_ndrange(&k, n, &mut args).unwrap();
        let expected: Vec<i32> = data
            .iter()
            .map(|&x| x.wrapping_mul(x).wrapping_add(c.wrapping_mul(x)).wrapping_sub(7))
            .collect();
        prop_assert_eq!(buf, expected);
    }

    #[test]
    fn measured_flops_scale_with_the_runtime_loop_bound(
        iters in 1i32..200,
        items in 1usize..32,
    ) {
        // A loop whose bound arrives as a kernel argument: the measured
        // statistics must grow when the bound doubles — the static estimate
        // cannot know this.
        let src = r#"
            __kernel void spin(__global float* v, int n, int iters) {
                int gid = get_global_id(0);
                float acc = v[gid];
                for (int i = 0; i < iters; i++) { acc = acc * 1.001f + 1.0f; }
                v[gid] = acc;
            }
        "#;
        let p = Program::build(src).unwrap();
        let k = p.kernel("spin").unwrap();
        let run = |iters: i32| {
            let mut buf = vec![1.0f32; items];
            let mut args = vec![
                ArgBinding::buffer_f32(&mut buf),
                ArgBinding::Scalar(Value::Int(items as i32)),
                ArgBinding::Scalar(Value::Int(iters)),
            ];
            p.run_ndrange_measured(&k, items, &mut args).unwrap()
        };
        let single = run(iters);
        let double = run(iters * 2);
        prop_assert!(double.flops > single.flops);
        prop_assert!(single.flops >= iters as f64 * items as f64);
        // Memory traffic does not depend on the loop bound: one load and one
        // store of 4 bytes per work-item.
        prop_assert!((single.global_bytes - 8.0 * items as f64).abs() < 1e-9);
        prop_assert!((double.global_bytes - single.global_bytes).abs() < 1e-9);
    }

    #[test]
    fn static_estimate_scales_with_literal_loop_bounds(n in 1u32..500) {
        let src = format!(
            "float f(float x) {{ float acc = x; for (int i = 0; i < {n}; i++) {{ acc += x * x; }} return acc; }}"
        );
        let tokens = skelcl_kernel::lexer::lex(&src).unwrap();
        let unit = skelcl_kernel::parser::parse(&tokens, &src).unwrap();
        let unit = skelcl_kernel::sema::check(unit).unwrap();
        let est = skelcl_kernel::cost::estimate_function(&unit, &unit.functions[0]);
        // At least two flops per iteration.
        prop_assert!(est.flops >= 2.0 * n as f64);
        prop_assert!(est.flops.is_finite() && est.global_bytes >= 0.0 && est.ops > 0.0);
    }

    /// A literal-trip loop is predicted exactly: `N − a` trips of its body
    /// and step, `N − a + 1` tests of its condition (one if `a ≥ N`), on
    /// every step spelling the walk reads.
    #[test]
    fn static_estimate_of_a_literal_trip_loop_equals_its_measured_cost(
        start in 0i32..80,
        end in 0i32..80,
        inclusive in any::<bool>(),
        step in 0usize..3,
    ) {
        let cmp = if inclusive { "<=" } else { "<" };
        let step = ["i++", "++i", "i += 1"][step];
        let src = format!(
            "__kernel void k(__global float* o, int n) {{
                 float acc = o[0];
                 for (int i = {start}; i {cmp} {end}; {step}) {{ acc = acc * 0.5f + o[1]; }}
                 o[0] = acc;
             }}"
        );
        let tokens = skelcl_kernel::lexer::lex(&src).unwrap();
        let unit = skelcl_kernel::sema::check(skelcl_kernel::parser::parse(&tokens, &src).unwrap())
            .unwrap();
        let estimate = skelcl_kernel::cost::estimate_function(&unit, &unit.functions[0]);
        let p = Program::build(&src).unwrap();
        let k = p.kernel("k").unwrap();
        for tier in [skelcl_kernel::Tier::Interp, skelcl_kernel::Tier::Native] {
            p.set_tier(tier);
            let mut o = [1.0f32, 2.0];
            let mut args = [ArgBinding::buffer_f32(&mut o), ArgBinding::Scalar(Value::Int(2))];
            let measured = p.run_ndrange_measured(&k, 1, &mut args).unwrap();
            prop_assert_eq!(measured, estimate, "{} on {}", src, tier);
        }
    }

    #[test]
    fn front_end_never_panics_on_arbitrary_input(src in "[ -~\n]{0,200}") {
        // Arbitrary printable text either lexes+parses+checks or reports an
        // error; it must never panic.
        let _ = Program::build(&src);
    }

    #[test]
    fn out_of_bounds_indices_are_always_errors(idx in 4i32..1000) {
        let src = r#"
            __kernel void k(__global float* v, int n, int idx) {
                v[idx] = 1.0f;
            }
        "#;
        let p = Program::build(src).unwrap();
        let k = p.kernel("k").unwrap();
        let mut buf = vec![0.0f32; 4];
        let mut args = vec![
            ArgBinding::buffer_f32(&mut buf),
            ArgBinding::Scalar(Value::Int(4)),
            ArgBinding::Scalar(Value::Int(idx)),
        ];
        let err = p.run_ndrange(&k, 1, &mut args).unwrap_err();
        prop_assert!(err.message.contains("out of bounds"));
    }

    #[test]
    fn work_item_functions_report_consistent_geometry(global in 1usize..256) {
        // get_global_id is unique per item and < get_global_size.
        let src = r#"
            __kernel void ids(__global int* out, int n) {
                int gid = get_global_id(0);
                if (gid < n) { out[gid] = gid * 1000 + get_global_size(0); }
            }
        "#;
        let p = Program::build(src).unwrap();
        let k = p.kernel("ids").unwrap();
        let mut out = vec![0i32; global];
        let mut args = vec![
            ArgBinding::buffer_i32(&mut out),
            ArgBinding::Scalar(Value::Int(global as i32)),
        ];
        p.run_ndrange(&k, global, &mut args).unwrap();
        for (i, v) in out.iter().enumerate() {
            prop_assert_eq!(*v, (i * 1000 + global) as i32);
        }
    }
}

#[test]
fn builtin_math_functions_match_rust_on_sample_points() {
    let src = r#"
        __kernel void m(__global float* v, int n) {
            int gid = get_global_id(0);
            v[gid] = sqrt(fabs(v[gid])) + exp(v[gid] * 0.01f) + fmax(v[gid], 0.5f);
        }
    "#;
    let p = Program::build(src).unwrap();
    let k = p.kernel("m").unwrap();
    let inputs: Vec<f32> = vec![-4.0, -1.0, 0.0, 0.25, 1.0, 2.0, 9.0, 100.0];
    let mut buf = inputs.clone();
    let n = buf.len();
    let mut args = vec![
        ArgBinding::buffer_f32(&mut buf),
        ArgBinding::Scalar(Value::Int(n as i32)),
    ];
    p.run_ndrange(&k, n, &mut args).unwrap();
    for (x, got) in inputs.iter().zip(&buf) {
        let want = x.abs().sqrt() + (x * 0.01).exp() + x.max(0.5);
        assert!((got - want).abs() < 1e-4, "x = {x}: {got} vs {want}");
    }
}
