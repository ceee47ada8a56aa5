//! The (very small) type system of the kernel language.

use std::fmt;

use crate::diag::KernelError;

/// Scalar types supported by the language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarType {
    /// 32-bit IEEE float (`float`).
    Float,
    /// 64-bit IEEE float (`double`).
    Double,
    /// 32-bit signed integer (`int`).
    Int,
    /// 32-bit unsigned integer (`uint`, `size_t`).
    Uint,
    /// Boolean (`bool`).
    Bool,
}

impl ScalarType {
    /// Size of one element of this type in bytes (as stored in a global
    /// buffer).
    pub fn size_bytes(self) -> usize {
        match self {
            ScalarType::Float | ScalarType::Int | ScalarType::Uint => 4,
            ScalarType::Double => 8,
            ScalarType::Bool => 1,
        }
    }

    /// Whether the type is a floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::Float | ScalarType::Double)
    }

    /// Whether the type is an integer type (`int` or `uint`).
    pub fn is_integer(self) -> bool {
        matches!(self, ScalarType::Int | ScalarType::Uint)
    }

    /// The "wider" of two scalar types for the purposes of usual arithmetic
    /// conversions: float beats int, double beats float, uint and int unify
    /// to int (we do not model C's unsigned promotion subtleties).
    pub fn unify(self, other: ScalarType) -> ScalarType {
        use ScalarType::*;
        match (self, other) {
            (Double, _) | (_, Double) => Double,
            (Float, _) | (_, Float) => Float,
            (Uint, Uint) => Uint,
            (Bool, Bool) => Bool,
            _ => Int,
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarType::Float => "float",
            ScalarType::Double => "double",
            ScalarType::Int => "int",
            ScalarType::Uint => "uint",
            ScalarType::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// A full type: either a scalar value, a pointer to global memory holding
/// scalars, or `void` (function return only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// A scalar value.
    Scalar(ScalarType),
    /// A pointer into global memory (`__global T*`).
    GlobalPtr(ScalarType),
    /// No value; only valid as a function return type.
    Void,
}

impl Type {
    /// Whether the type is a global pointer.
    pub fn is_pointer(self) -> bool {
        matches!(self, Type::GlobalPtr(_))
    }

    /// Whether the type is `void`.
    pub fn is_void(self) -> bool {
        matches!(self, Type::Void)
    }

    /// The scalar component of the type (the pointee for pointers).
    ///
    /// For `void` this returns `Int` as an arbitrary placeholder; callers
    /// check [`Type::is_void`] first.
    pub fn scalar(self) -> ScalarType {
        match self {
            Type::Scalar(s) | Type::GlobalPtr(s) => s,
            Type::Void => ScalarType::Int,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Scalar(s) => write!(f, "{s}"),
            Type::GlobalPtr(s) => write!(f, "__global {s}*"),
            Type::Void => write!(f, "void"),
        }
    }
}

/// What a launch binds to one kernel parameter, as far as the signature rule
/// is concerned. `E` is the binder's error for a buffer whose elements have
/// no kernel-language type (the simulator's opaque `Pod` buffers); it is
/// reported only where the rule gets as far as asking for the element type.
#[derive(Debug)]
pub enum ArgKind<E> {
    /// A scalar value (converted to the parameter's type at launch).
    Scalar,
    /// A global buffer with its element type.
    Buffer(Result<ScalarType, E>),
}

/// The signature rule of a launch: as many arguments as parameters, a buffer
/// for every `__global` pointer and a scalar for everything else, and buffer
/// elements of exactly the pointee type. `params` yields each parameter's
/// name and declared type.
///
/// The native tier (through [`crate::KernelHandle::check_args`]) and the
/// simulator's enqueue-time validation call this one function; the
/// interpreter — the oracle — keeps its own copy of the rule, and
/// `tests/signature_rule.rs` pins the two texts equal.
pub fn check_signature<'p, E: From<KernelError>>(
    kernel: &str,
    params: impl ExactSizeIterator<Item = (&'p str, Type)>,
    args: impl ExactSizeIterator<Item = ArgKind<E>>,
) -> Result<(), E> {
    if args.len() != params.len() {
        return Err(KernelError::run(format!(
            "kernel `{kernel}` expects {} arguments, {} bound",
            params.len(),
            args.len()
        ))
        .into());
    }
    for ((name, ty), arg) in params.zip(args) {
        let mismatch = match (ty, arg) {
            (Type::GlobalPtr(want), ArgKind::Buffer(got)) => match got? {
                got if got == want => continue,
                got => format!(
                    "argument `{name}` of kernel `{kernel}`: expected __global {want}*, bound {got} buffer"
                ),
            },
            (Type::Scalar(_), ArgKind::Scalar) => continue,
            (Type::GlobalPtr(_), ArgKind::Scalar) => {
                format!("argument `{name}` of kernel `{kernel}` is a buffer but a scalar was bound")
            }
            (Type::Scalar(_), ArgKind::Buffer(_)) => {
                format!("argument `{name}` of kernel `{kernel}` is a scalar but a buffer was bound")
            }
            (Type::Void, _) => unreachable!("void parameters rejected by the parser"),
        };
        return Err(KernelError::run(mismatch).into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(ScalarType::Float.size_bytes(), 4);
        assert_eq!(ScalarType::Double.size_bytes(), 8);
        assert_eq!(ScalarType::Int.size_bytes(), 4);
        assert_eq!(ScalarType::Bool.size_bytes(), 1);
    }

    #[test]
    fn unification_prefers_floats() {
        assert_eq!(ScalarType::Int.unify(ScalarType::Float), ScalarType::Float);
        assert_eq!(
            ScalarType::Float.unify(ScalarType::Double),
            ScalarType::Double
        );
        assert_eq!(ScalarType::Uint.unify(ScalarType::Int), ScalarType::Int);
        assert_eq!(ScalarType::Uint.unify(ScalarType::Uint), ScalarType::Uint);
    }

    #[test]
    fn type_display() {
        assert_eq!(Type::Scalar(ScalarType::Float).to_string(), "float");
        assert_eq!(
            Type::GlobalPtr(ScalarType::Int).to_string(),
            "__global int*"
        );
        assert_eq!(Type::Void.to_string(), "void");
    }

    #[test]
    fn pointer_predicates() {
        assert!(Type::GlobalPtr(ScalarType::Float).is_pointer());
        assert!(!Type::Scalar(ScalarType::Float).is_pointer());
        assert!(Type::Void.is_void());
        assert_eq!(Type::GlobalPtr(ScalarType::Uint).scalar(), ScalarType::Uint);
    }
}
