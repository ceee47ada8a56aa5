//! Builtin functions available inside kernels: OpenCL work-item functions and
//! a subset of the OpenCL math library.

use crate::types::ScalarType;
use crate::value::Value;

/// Reserved parameter names through which a generated stencil (`MapOverlap`)
/// kernel provides the execution context of the [`Builtin::StencilGet`]
/// builtin. Both execution engines (interpreter and native) recognise these
/// names in the *kernel* signature at launch-bind time; `get(dx, dy)` called
/// from any function of the unit then resolves against this per-launch
/// context.
pub mod stencil {
    /// The stencil input buffer (a `__global float*`): the device's part of
    /// the matrix, padded with `halo` rows above and below the core rows.
    pub const IN_PARAM: &str = "skelcl_stencil_in";
    /// Row width (number of columns) of the matrix part (`int`).
    pub const WIDTH_PARAM: &str = "skelcl_stencil_w";
    /// Halo width in rows (`int`): the input buffer holds this many extra
    /// rows above and below the rows the launch computes.
    pub const HALO_PARAM: &str = "skelcl_stencil_halo";
    /// Column out-of-bound policy (`int`): see [`POLICY_CLAMP`] and friends.
    pub const POLICY_PARAM: &str = "skelcl_stencil_policy";
    /// The value `get` returns for out-of-range columns under the constant
    /// policy (`float`).
    pub const OOB_PARAM: &str = "skelcl_stencil_oob";

    /// Column accesses past the edge clamp to the nearest valid column.
    pub const POLICY_CLAMP: i32 = 0;
    /// Column accesses wrap around (modulo the width).
    pub const POLICY_WRAP: i32 = 1;
    /// Column accesses past the edge yield the constant `oob` value.
    pub const POLICY_CONSTANT: i32 = 2;
}

/// Identifies a builtin function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    // Work-item functions
    GetGlobalId,
    GetLocalId,
    GetGroupId,
    GetGlobalSize,
    GetLocalSize,
    GetNumGroups,
    // Math, unary
    Sqrt,
    Fabs,
    Exp,
    Log,
    Sin,
    Cos,
    Floor,
    Ceil,
    // Math, binary
    Pow,
    Fmin,
    Fmax,
    Min,
    Max,
    Atan2,
    // Math, ternary
    Fma,
    Clamp,
    // Reinterpretation of a 32-bit value's bits (OpenCL's `as_type`)
    AsFloat,
    AsInt,
    AsUint,
    /// Indexed neighbour access `get(dx, dy)` inside a stencil (`MapOverlap`)
    /// kernel: reads the stencil input at column offset `dx` and row offset
    /// `dy` from the current work-item's element. Requires the stencil
    /// context parameters (see [`stencil`]) on the enclosing kernel; costed
    /// like any other global load plus the address arithmetic.
    StencilGet,
}

impl Builtin {
    /// Look up a builtin by source name.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "get_global_id" => Builtin::GetGlobalId,
            "get_local_id" => Builtin::GetLocalId,
            "get_group_id" => Builtin::GetGroupId,
            "get_global_size" => Builtin::GetGlobalSize,
            "get_local_size" => Builtin::GetLocalSize,
            "get_num_groups" => Builtin::GetNumGroups,
            "sqrt" | "native_sqrt" => Builtin::Sqrt,
            "fabs" => Builtin::Fabs,
            "exp" | "native_exp" => Builtin::Exp,
            "log" | "native_log" => Builtin::Log,
            "sin" => Builtin::Sin,
            "cos" => Builtin::Cos,
            "floor" => Builtin::Floor,
            "ceil" => Builtin::Ceil,
            "pow" => Builtin::Pow,
            "fmin" => Builtin::Fmin,
            "fmax" => Builtin::Fmax,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "atan2" => Builtin::Atan2,
            "fma" | "mad" => Builtin::Fma,
            "clamp" => Builtin::Clamp,
            "as_float" => Builtin::AsFloat,
            "as_int" => Builtin::AsInt,
            "as_uint" => Builtin::AsUint,
            "get" => Builtin::StencilGet,
            _ => return None,
        })
    }

    /// Whether this is a work-item index function (takes a dimension index
    /// argument and returns `uint`).
    pub fn is_work_item_fn(self) -> bool {
        matches!(
            self,
            Builtin::GetGlobalId
                | Builtin::GetLocalId
                | Builtin::GetGroupId
                | Builtin::GetGlobalSize
                | Builtin::GetLocalSize
                | Builtin::GetNumGroups
        )
    }

    /// Number of arguments the builtin expects.
    pub fn arity(self) -> usize {
        match self {
            Builtin::GetGlobalId
            | Builtin::GetLocalId
            | Builtin::GetGroupId
            | Builtin::GetGlobalSize
            | Builtin::GetLocalSize
            | Builtin::GetNumGroups => 1,
            Builtin::Sqrt
            | Builtin::Fabs
            | Builtin::Exp
            | Builtin::Log
            | Builtin::Sin
            | Builtin::Cos
            | Builtin::Floor
            | Builtin::Ceil
            | Builtin::AsFloat
            | Builtin::AsInt
            | Builtin::AsUint => 1,
            Builtin::Pow
            | Builtin::Fmin
            | Builtin::Fmax
            | Builtin::Min
            | Builtin::Max
            | Builtin::Atan2 => 2,
            Builtin::StencilGet => 2,
            Builtin::Fma | Builtin::Clamp => 3,
        }
    }

    /// Whether this is the stencil neighbour access `get(dx, dy)`, which
    /// needs the per-launch stencil context (it is neither a pure math
    /// builtin nor a work-item query).
    pub fn is_stencil_fn(self) -> bool {
        matches!(self, Builtin::StencilGet)
    }

    /// The type whose bits an `as_type` reinterpretation yields, or `None`
    /// for every other builtin. Its argument must be a 32-bit scalar.
    pub fn reinterprets_as(self) -> Option<ScalarType> {
        match self {
            Builtin::AsFloat => Some(ScalarType::Float),
            Builtin::AsInt => Some(ScalarType::Int),
            Builtin::AsUint => Some(ScalarType::Uint),
            _ => None,
        }
    }

    /// The scalar type this builtin returns, given its argument types.
    pub fn result_type(self, args: &[ScalarType]) -> ScalarType {
        if self.is_work_item_fn() {
            return ScalarType::Int;
        }
        if let Some(ty) = self.reinterprets_as() {
            return ty;
        }
        match self {
            // The stencil input buffer is always a float buffer, so `get`
            // always yields float, independent of its (integer) offsets.
            Builtin::StencilGet => ScalarType::Float,
            Builtin::Min | Builtin::Max | Builtin::Clamp => args
                .iter()
                .copied()
                .reduce(ScalarType::unify)
                .unwrap_or(ScalarType::Float),
            _ => {
                // Math builtins return float unless any argument is double.
                if args.contains(&ScalarType::Double) {
                    ScalarType::Double
                } else {
                    ScalarType::Float
                }
            }
        }
    }

    /// Evaluate a math builtin (work-item functions are handled by the
    /// interpreter because they need the work-item context).
    pub fn eval_math(self, args: &[Value]) -> Value {
        debug_assert!(!self.is_work_item_fn());
        debug_assert!(
            !self.is_stencil_fn(),
            "get() needs the stencil context and is evaluated by the engines"
        );
        if let Some(ty) = self.reinterprets_as() {
            let bits = match args[0] {
                Value::Float(v) => v.to_bits(),
                Value::Int(v) => v as u32,
                Value::Uint(v) => v,
                other => unreachable!("sema admits only 32-bit `as_type` arguments: {other:?}"),
            };
            return match ty {
                ScalarType::Float => Value::Float(f32::from_bits(bits)),
                ScalarType::Int => Value::Int(bits as i32),
                _ => Value::Uint(bits),
            };
        }
        let f = |i: usize| args[i].as_f64();
        let result_ty = self.result_type(&args.iter().map(|v| v.scalar_type()).collect::<Vec<_>>());
        let r = match self {
            Builtin::Sqrt => f(0).sqrt(),
            Builtin::Fabs => f(0).abs(),
            Builtin::Exp => f(0).exp(),
            Builtin::Log => f(0).ln(),
            Builtin::Sin => f(0).sin(),
            Builtin::Cos => f(0).cos(),
            Builtin::Floor => f(0).floor(),
            Builtin::Ceil => f(0).ceil(),
            Builtin::Pow => f(0).powf(f(1)),
            Builtin::Fmin => f(0).min(f(1)),
            Builtin::Fmax => f(0).max(f(1)),
            Builtin::Atan2 => f(0).atan2(f(1)),
            Builtin::Fma => f(0).mul_add(f(1), f(2)),
            Builtin::Min => {
                return match result_ty {
                    t if t.is_float() => Value::Float(f(0).min(f(1)) as f32).convert_to(t),
                    t => Value::Int(args[0].as_i64().min(args[1].as_i64()) as i32).convert_to(t),
                }
            }
            Builtin::Max => {
                return match result_ty {
                    t if t.is_float() => Value::Float(f(0).max(f(1)) as f32).convert_to(t),
                    t => Value::Int(args[0].as_i64().max(args[1].as_i64()) as i32).convert_to(t),
                }
            }
            Builtin::Clamp if !result_ty.is_float() => {
                let (x, lo, hi) = (args[0].as_i64(), args[1].as_i64(), args[2].as_i64());
                return Value::Int(x.max(lo).min(hi) as i32).convert_to(result_ty);
            }
            // OpenCL's `fmin(fmax(x, lo), hi)`: inverted or NaN bounds give
            // a value, never a panic.
            Builtin::Clamp => f(0).max(f(1)).min(f(2)),
            _ => unreachable!("work-item builtin passed to eval_math"),
        };
        match result_ty {
            ScalarType::Double => Value::Double(r),
            _ => Value::Float(r as f32),
        }
    }

    /// Approximate cost in floating-point operations, used by the static
    /// cost estimator.
    pub fn flop_cost(self) -> f64 {
        match self {
            b if b.is_work_item_fn() || b.reinterprets_as().is_some() => 0.0,
            Builtin::Fabs | Builtin::Floor | Builtin::Ceil | Builtin::Min | Builtin::Max => 1.0,
            Builtin::Fmin | Builtin::Fmax | Builtin::Clamp => 1.0,
            Builtin::Fma => 2.0,
            // Address arithmetic of the indexed neighbour access (the global
            // load itself is charged in bytes, like any other load).
            Builtin::StencilGet => 4.0,
            Builtin::Sqrt => 4.0,
            Builtin::Sin | Builtin::Cos => 8.0,
            Builtin::Exp | Builtin::Log | Builtin::Pow | Builtin::Atan2 => 10.0,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        assert_eq!(
            Builtin::from_name("get_global_id"),
            Some(Builtin::GetGlobalId)
        );
        assert_eq!(Builtin::from_name("sqrt"), Some(Builtin::Sqrt));
        assert_eq!(Builtin::from_name("mad"), Some(Builtin::Fma));
        assert_eq!(Builtin::from_name("unknown_fn"), None);
    }

    #[test]
    fn arities() {
        assert_eq!(Builtin::GetGlobalId.arity(), 1);
        assert_eq!(Builtin::Sqrt.arity(), 1);
        assert_eq!(Builtin::Pow.arity(), 2);
        assert_eq!(Builtin::Fma.arity(), 3);
    }

    #[test]
    fn math_evaluation() {
        assert_eq!(
            Builtin::Sqrt.eval_math(&[Value::Float(9.0)]),
            Value::Float(3.0)
        );
        assert_eq!(
            Builtin::Fma.eval_math(&[Value::Float(2.0), Value::Float(3.0), Value::Float(4.0)]),
            Value::Float(10.0)
        );
        assert_eq!(
            Builtin::Min.eval_math(&[Value::Int(3), Value::Int(5)]),
            Value::Int(3)
        );
        assert_eq!(
            Builtin::Max.eval_math(&[Value::Float(3.0), Value::Float(5.0)]),
            Value::Float(5.0)
        );
        assert_eq!(
            Builtin::Clamp.eval_math(&[Value::Float(7.0), Value::Float(0.0), Value::Float(1.0)]),
            Value::Float(1.0)
        );
    }

    #[test]
    fn clamp_with_inverted_or_nan_bounds_is_fmin_of_fmax() {
        let clamp = |x: f32, lo: f32, hi: f32| {
            Builtin::Clamp.eval_math(&[Value::Float(x), Value::Float(lo), Value::Float(hi)])
        };
        assert_eq!(clamp(0.5, 1.0, 0.0), Value::Float(0.0));
        assert_eq!(clamp(0.5, f32::NAN, 2.0), Value::Float(0.5));
        assert_eq!(clamp(3.0, 1.0, f32::NAN), Value::Float(3.0));
    }

    #[test]
    fn as_type_reinterprets_the_bits() {
        let bits = (-0.0f32).to_bits();
        assert_eq!(
            Builtin::AsInt.eval_math(&[Value::Float(-0.0)]),
            Value::Int(bits as i32)
        );
        let back = Builtin::AsFloat.eval_math(&[Value::Int(bits as i32)]);
        assert_eq!(back.as_f64().to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            Builtin::AsUint.eval_math(&[Value::Int(-1)]),
            Value::Uint(u32::MAX)
        );
        assert_eq!(
            Builtin::AsFloat.result_type(&[ScalarType::Int]),
            ScalarType::Float
        );
    }

    #[test]
    fn double_arguments_produce_double_results() {
        let r = Builtin::Sqrt.eval_math(&[Value::Double(2.0)]);
        assert_eq!(r.scalar_type(), ScalarType::Double);
    }

    #[test]
    fn flop_costs_are_positive_for_math() {
        assert!(Builtin::Exp.flop_cost() > Builtin::Fabs.flop_cost());
        assert_eq!(Builtin::GetGlobalId.flop_cost(), 0.0);
    }
}
