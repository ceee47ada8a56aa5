//! The signature rule of a launch is written twice on purpose: once in the
//! interpreter, which is the oracle, and once in `types::check_signature`,
//! which the native tier (through `KernelHandle::check_args`) and the
//! simulator's enqueue-time validation call. For each mismatch class the two
//! must report the same text.

use skelcl_kernel::diag::KernelError;
use skelcl_kernel::interp::{ArgBinding, Interpreter, WorkItem};
use skelcl_kernel::types::{check_signature, ArgKind, ScalarType, Type};
use skelcl_kernel::value::Value;
use skelcl_kernel::Program;

const TYPES: [(&str, ScalarType); 4] = [
    ("float", ScalarType::Float),
    ("double", ScalarType::Double),
    ("int", ScalarType::Int),
    ("uint", ScalarType::Uint),
];

/// One buffer of every element type, bound by type.
#[derive(Default)]
struct Buffers {
    f32s: [f32; 2],
    f64s: [f64; 2],
    i32s: [i32; 2],
    u32s: [u32; 2],
}

impl Buffers {
    fn bind(&mut self, ty: ScalarType) -> ArgBinding<'_> {
        match ty {
            ScalarType::Float => ArgBinding::buffer_f32(&mut self.f32s),
            ScalarType::Double => ArgBinding::buffer_f64(&mut self.f64s),
            ScalarType::Int => ArgBinding::buffer_i32(&mut self.i32s),
            ScalarType::Uint => ArgBinding::buffer_u32(&mut self.u32s),
            ScalarType::Bool => unreachable!("no bool buffers"),
        }
    }
}

/// The interpreter's and the shared checker's (through the kernel handle,
/// as the native tier binds) text for binding `args` to kernel `k` of
/// `program`; asserts the two agree.
fn texts_agree(program: &Program, args: &mut [ArgBinding<'_>]) -> String {
    let kernel = program.kernel("k").unwrap();
    let oracle = Interpreter::new(program.unit())
        .run_kernel(kernel.index(), WorkItem::linear(0, 1), args)
        .unwrap_err();
    let shared = kernel
        .check_args::<KernelError>(args.iter().map(ArgBinding::kind))
        .unwrap_err();
    assert_eq!(shared, oracle);
    oracle.message
}

#[test]
fn every_mismatch_class_reads_the_same_in_the_oracle_and_the_shared_checker() {
    let program =
        Program::build("__kernel void k(__global float* v, int n) { v[0] = n; }").unwrap();
    let mut bufs = Buffers::default();
    let n = || ArgBinding::Scalar(Value::Int(1));

    // Arity: too few and too many.
    let text = texts_agree(&program, &mut []);
    assert_eq!(text, "kernel `k` expects 2 arguments, 0 bound");
    let float = ScalarType::Float;
    let text = texts_agree(&program, &mut [bufs.bind(float), n(), n()]);
    assert_eq!(text, "kernel `k` expects 2 arguments, 3 bound");

    // A scalar where the buffer goes, a buffer where the scalar goes.
    let text = texts_agree(&program, &mut [n(), n()]);
    assert_eq!(
        text,
        "argument `v` of kernel `k` is a buffer but a scalar was bound"
    );
    let mut other = Buffers::default();
    let text = texts_agree(&program, &mut [bufs.bind(float), other.bind(float)]);
    assert_eq!(
        text,
        "argument `n` of kernel `k` is a scalar but a buffer was bound"
    );
}

#[test]
fn a_wrong_element_type_reads_the_same_for_all_four_types() {
    for (want_name, want) in TYPES {
        let source = format!("__kernel void k(__global {want_name}* v) {{ v[0] = v[1]; }}");
        let program = Program::build(&source).unwrap();
        for (got_name, got) in TYPES {
            let mut bufs = Buffers::default();
            let mut args = [bufs.bind(got)];
            if got == want {
                let kernel = program.kernel("k").unwrap();
                kernel
                    .check_args::<KernelError>(args.iter().map(ArgBinding::kind))
                    .unwrap();
                program.run_ndrange(&kernel, 1, &mut args).unwrap();
                continue;
            }
            assert_eq!(
                texts_agree(&program, &mut args),
                format!(
                    "argument `v` of kernel `k`: expected __global {want_name}*, \
                     bound {got_name} buffer"
                )
            );
        }
    }
}

/// A binder's error type: a kernel error's text, or its own.
#[derive(Debug, PartialEq)]
struct Text(String);

impl From<KernelError> for Text {
    fn from(e: KernelError) -> Text {
        Text(e.message)
    }
}

/// The binder's own error for an untyped buffer surfaces only where the rule
/// asks for the element type: after the arity check and the earlier
/// parameters, and not at all under a scalar parameter.
#[test]
fn an_untyped_buffer_is_reported_in_parameter_order() {
    let check = |args: Vec<ArgKind<Text>>| {
        let params = [
            ("v", Type::GlobalPtr(ScalarType::Float)),
            ("n", Type::Scalar(ScalarType::Int)),
        ];
        check_signature("k", params.into_iter(), args.into_iter()).map_err(|Text(text)| text)
    };
    let untyped = || ArgKind::Buffer(Err(Text("untyped".into())));
    let float = || ArgKind::Buffer(Ok(ScalarType::Float));

    assert_eq!(check(vec![float(), ArgKind::Scalar]), Ok(()));
    assert_eq!(
        check(vec![untyped(), ArgKind::Scalar]),
        Err("untyped".into())
    );
    assert_eq!(
        check(vec![untyped()]),
        Err("kernel `k` expects 2 arguments, 1 bound".into())
    );
    assert_eq!(
        check(vec![ArgKind::Scalar, untyped()]),
        Err("argument `v` of kernel `k` is a buffer but a scalar was bound".into())
    );
    assert_eq!(
        check(vec![float(), untyped()]),
        Err("argument `n` of kernel `k` is a scalar but a buffer was bound".into())
    );
}
