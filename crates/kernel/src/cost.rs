//! Static per-work-item cost estimation.
//!
//! The device simulator (`oclsim`) and SkelCL's static scheduler (paper,
//! Section V) need an *analytical* model of how expensive one work-item of a
//! kernel is. SkelCL's advantage over raw OpenCL — as argued in the paper —
//! is that the skeleton structure is known, so only the user-defined function
//! needs to be analysed. This module walks a function's AST and counts
//!
//! * floating point operations (`flops`),
//! * global-memory traffic in bytes (`global_bytes`),
//! * an estimate of executed statements (`ops`), used as a proxy for integer
//!   and control-flow work.
//!
//! Branches are averaged (both sides weighted 0.5); loops with a
//! statically-recognisable trip count of the form `for (i = 0; i < N; i++)`
//! where `N` is a literal are multiplied out, otherwise a default trip count
//! is assumed. This is deliberately simple — it is a *prediction* model, and
//! its accuracy is evaluated against measured virtual time in the scheduler
//! benchmarks.

use crate::ast::*;
use crate::builtins::Builtin;

/// Default assumed trip count for loops whose bounds are not literal.
pub const DEFAULT_TRIP_COUNT: f64 = 16.0;

/// The cost of kernel code: estimated per work-item by this module, or
/// measured while running (as [`crate::interp::ExecStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostEstimate {
    /// Floating-point operations per work-item.
    pub flops: f64,
    /// Bytes of global memory traffic (reads + writes) per work-item.
    pub global_bytes: f64,
    /// Total expression/statement evaluations (a proxy for "other work").
    pub ops: f64,
}

impl CostEstimate {
    /// Sum of two estimates.
    pub fn add(self, other: CostEstimate) -> CostEstimate {
        CostEstimate {
            flops: self.flops + other.flops,
            global_bytes: self.global_bytes + other.global_bytes,
            ops: self.ops + other.ops,
        }
    }

    /// Average per-work-item cost of a total measured over `items`
    /// work-items.
    pub fn per_item(&self, items: usize) -> CostEstimate {
        let n = items.max(1) as f64;
        CostEstimate {
            flops: self.flops / n,
            global_bytes: self.global_bytes / n,
            ops: self.ops / n,
        }
    }

    /// Scale an estimate by a factor (used for loops and branch averaging).
    pub fn scale(self, factor: f64) -> CostEstimate {
        CostEstimate {
            flops: self.flops * factor,
            global_bytes: self.global_bytes * factor,
            ops: self.ops * factor,
        }
    }
}

/// Estimate the per-invocation cost of `func` within `unit` (callees are
/// resolved within the same unit; recursion is cut off at depth 8).
pub fn estimate_function(unit: &TranslationUnit, func: &Function) -> CostEstimate {
    let mut est = Estimator { unit, depth: 0 };
    est.block(&func.body)
}

struct Estimator<'u> {
    unit: &'u TranslationUnit,
    depth: usize,
}

impl<'u> Estimator<'u> {
    fn block(&mut self, block: &Block) -> CostEstimate {
        block
            .stmts
            .iter()
            .map(|s| self.stmt(s))
            .fold(CostEstimate::default(), CostEstimate::add)
    }

    fn stmt(&mut self, stmt: &Stmt) -> CostEstimate {
        let base = CostEstimate {
            ops: 1.0,
            ..Default::default()
        };
        match stmt {
            Stmt::Decl { init, .. } => match init {
                Some(e) => base.add(self.expr(e)),
                None => base,
            },
            Stmt::Expr(e) => base.add(self.expr(e)),
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => base
                .add(self.expr(cond))
                .add(self.block(then_block).scale(0.5))
                .add(self.block(else_block).scale(0.5)),
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                let trips = cond
                    .as_ref()
                    .and_then(literal_trip_count)
                    .unwrap_or(DEFAULT_TRIP_COUNT);
                let mut per_iter = self.block(body);
                if let Some(c) = cond {
                    per_iter = per_iter.add(self.expr(c));
                }
                if let Some(s) = step {
                    per_iter = per_iter.add(self.expr(s));
                }
                let init_cost = init.as_ref().map(|s| self.stmt(s)).unwrap_or_default();
                base.add(init_cost).add(per_iter.scale(trips))
            }
            Stmt::While { cond, body } => {
                let per_iter = self.block(body).add(self.expr(cond));
                base.add(per_iter.scale(DEFAULT_TRIP_COUNT))
            }
            Stmt::Return(Some(e), _) => base.add(self.expr(e)),
            Stmt::Return(None, _) | Stmt::Break(_) | Stmt::Continue(_) => base,
            Stmt::Block(b) => base.add(self.block(b)),
        }
    }

    fn expr(&mut self, expr: &Expr) -> CostEstimate {
        let one_op = CostEstimate {
            ops: 1.0,
            ..Default::default()
        };
        match &expr.kind {
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::Var(_) => CostEstimate::default(),
            ExprKind::Index { index, .. } => {
                // One global-memory read of 4 bytes (all supported scalar
                // buffer element types are 4 bytes except double, which we
                // cannot distinguish here without a symbol table; 4 is a fair
                // lower bound for the model).
                self.expr(index).add(CostEstimate {
                    global_bytes: 4.0,
                    ops: 1.0,
                    ..Default::default()
                })
            }
            ExprKind::Unary { operand, .. } => self.expr(operand).add(CostEstimate {
                flops: 1.0,
                ops: 1.0,
                ..Default::default()
            }),
            ExprKind::Binary { op, lhs, rhs } => {
                let flops = if op.is_comparison() { 0.5 } else { 1.0 };
                self.expr(lhs).add(self.expr(rhs)).add(CostEstimate {
                    flops,
                    ops: 1.0,
                    ..Default::default()
                })
            }
            ExprKind::Call { callee, args, .. } => {
                let args_cost = args
                    .iter()
                    .map(|a| self.expr(a))
                    .fold(CostEstimate::default(), CostEstimate::add);
                if let Some(b) = Builtin::from_name(callee) {
                    // The stencil neighbour access is a global load of one
                    // 4-byte element plus its address arithmetic.
                    let (global_bytes, ops) = if b.is_stencil_fn() {
                        (4.0, 2.0)
                    } else {
                        (0.0, 1.0)
                    };
                    return args_cost.add(CostEstimate {
                        flops: b.flop_cost(),
                        global_bytes,
                        ops,
                    });
                }
                if self.depth >= 8 {
                    return args_cost.add(one_op);
                }
                match self.unit.function(callee) {
                    Some(f) => {
                        self.depth += 1;
                        let inner = self.block(&f.body);
                        self.depth -= 1;
                        args_cost.add(inner).add(one_op)
                    }
                    None => args_cost.add(one_op),
                }
            }
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => self
                .expr(cond)
                .add(self.expr(then_expr).scale(0.5))
                .add(self.expr(else_expr).scale(0.5))
                .add(one_op),
            ExprKind::Assign { target, value, .. } => {
                let write = match target {
                    LValue::Index { index, .. } => self.expr(index).add(CostEstimate {
                        global_bytes: 4.0,
                        ops: 1.0,
                        ..Default::default()
                    }),
                    LValue::Var(..) => one_op,
                };
                self.expr(value).add(write)
            }
            ExprKind::IncDec { target, .. } => match target {
                LValue::Index { index, .. } => self.expr(index).add(CostEstimate {
                    global_bytes: 8.0,
                    flops: 1.0,
                    ops: 1.0,
                }),
                LValue::Var(..) => CostEstimate {
                    flops: 1.0,
                    ops: 1.0,
                    ..Default::default()
                },
            },
            ExprKind::Cast { operand, .. } => self.expr(operand).add(one_op),
        }
    }
}

/// Recognise conditions of the form `i < N` / `i <= N` with a literal `N`
/// and return the implied trip count.
fn literal_trip_count(cond: &Expr) -> Option<f64> {
    if let ExprKind::Binary { op, rhs, .. } = &cond.kind {
        let bound = match rhs.kind {
            ExprKind::IntLit(v) => v as f64,
            ExprKind::FloatLit(v) => v,
            _ => return None,
        };
        return match op {
            BinOp::Lt => Some(bound.max(0.0)),
            BinOp::Le => Some((bound + 1.0).max(0.0)),
            _ => None,
        };
    }
    None
}

/// Estimate the cost of the function named `name` inside a parsed unit;
/// convenience wrapper used by SkelCL to analyse user-defined functions
/// (not whole kernels), mirroring the paper's statement that performance
/// prediction "is only used for the user-defined functions rather than the
/// whole program code".
pub fn estimate_named(unit: &TranslationUnit, name: &str) -> Option<CostEstimate> {
    unit.function(name).map(|f| estimate_function(unit, f))
}

/// What executing one statement costs on its own (its expressions are
/// charged separately): one op.
pub(crate) const STMT_CHARGE: CostEstimate = CostEstimate {
    flops: 0.0,
    global_bytes: 0.0,
    ops: 1.0,
};

/// What one evaluation of `e` costs on its own, its operands excluded: the
/// one table of measured costs. The interpreter charges it for every node it
/// evaluates and the native tier for every node its active lanes run, so
/// both report the same [`crate::interp::ExecStats`]. Every constant is a
/// small dyadic number, so sums are exact in any order. `e` must be checked:
/// buffer traffic is sized by the element type sema recorded.
pub(crate) fn charge(e: &Expr) -> CostEstimate {
    let elem = e.ty.size_bytes() as f64;
    let (flops, global_bytes, ops) = match &e.kind {
        ExprKind::IntLit(_)
        | ExprKind::FloatLit(_)
        | ExprKind::BoolLit(_)
        | ExprKind::Var(_)
        | ExprKind::Ternary { .. }
        | ExprKind::Cast { .. } => (0.0, 0.0, 0.0),
        ExprKind::Index { .. } => (0.0, elem, 1.0),
        ExprKind::Unary { .. } => (1.0, 0.0, 1.0),
        ExprKind::Binary {
            op: BinOp::And | BinOp::Or,
            ..
        } => (0.0, 0.0, 1.0),
        ExprKind::Binary { op, .. } => (if op.is_comparison() { 0.5 } else { 1.0 }, 0.0, 1.0),
        ExprKind::Call { target, .. } => match *target {
            Callee::Builtin(b) if b.is_work_item_fn() => (0.0, 0.0, 1.0),
            // The address arithmetic as flops, the element read as bytes.
            Callee::Builtin(b) if b.is_stencil_fn() => (b.flop_cost(), 4.0, 2.0),
            Callee::Builtin(b) => (b.flop_cost(), 0.0, 1.0),
            Callee::Function(_) | Callee::Unresolved => (0.0, 0.0, 0.0),
        },
        // A store; a compound assignment loads the element first.
        ExprKind::Assign { target, op, .. } => match (target, op) {
            (LValue::Var(..), _) => (0.0, 0.0, 0.0),
            (LValue::Index { .. }, AssignOp::Assign) => (0.0, elem, 1.0),
            (LValue::Index { .. }, _) => (0.0, 2.0 * elem, 2.0),
        },
        // The addition, plus a load and a store for a buffer element.
        ExprKind::IncDec { target, .. } => match target {
            LValue::Var(..) => (1.0, 0.0, 1.0),
            LValue::Index { .. } => (1.0, 2.0 * elem, 3.0),
        },
    };
    CostEstimate {
        flops,
        global_bytes,
        ops,
    }
}

impl CostEstimate {
    /// Collapse the estimate to a single FLOP-equivalent figure, weighting
    /// non-floating-point statement work (`ops`) at a quarter FLOP each.
    /// This is the only place the weight is written: the simulated OpenCL
    /// runtime turns estimates and measured statement counts into per-item
    /// cost hints with it, and the fusion pass compares fused vs split
    /// pipeline stages on this one axis.
    pub fn flops_equivalent(&self) -> f64 {
        self.flops + 0.25 * self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::sema::check;

    fn unit(src: &str) -> TranslationUnit {
        check(parse(&lex(src).unwrap(), src).unwrap()).unwrap()
    }

    #[test]
    fn saxpy_udf_costs_two_flops() {
        let u = unit("float func(float x, float y, float a) { return a * x + y; }");
        let c = estimate_named(&u, "func").unwrap();
        assert!((c.flops - 2.0).abs() < 1e-9, "flops = {}", c.flops);
        assert_eq!(c.global_bytes, 0.0);
    }

    #[test]
    fn literal_for_loops_multiply_out() {
        let u = unit(
            r#"
            float f(float x) {
                float acc = 0.0f;
                for (int i = 0; i < 100; i++) { acc += x * x; }
                return acc;
            }
        "#,
        );
        let c = estimate_named(&u, "f").unwrap();
        // Each iteration has at least 2 flops (mul + add-assign contributes
        // via the binary op inside), times 100 iterations.
        assert!(c.flops >= 150.0, "flops = {}", c.flops);
    }

    #[test]
    fn unknown_loop_bounds_use_default_trip_count() {
        let u = unit(
            r#"
            float f(float x, int n) {
                float acc = 0.0f;
                int i = 0;
                while (i < n) { acc += x; i++; }
                return acc;
            }
        "#,
        );
        let c = estimate_named(&u, "f").unwrap();
        assert!(c.flops >= DEFAULT_TRIP_COUNT);
    }

    #[test]
    fn global_memory_traffic_is_counted() {
        let u = unit(
            r#"
            __kernel void copy(__global float* a, __global float* b, int n) {
                int i = get_global_id(0);
                if (i < n) { b[i] = a[i]; }
            }
        "#,
        );
        let f = u.function("copy").unwrap();
        let c = estimate_function(&u, f);
        // One read + one write, branch-averaged at 0.5 each -> 4 bytes total.
        assert!(c.global_bytes >= 4.0 - 1e-9, "bytes = {}", c.global_bytes);
    }

    #[test]
    fn builtin_costs_flow_through_calls() {
        let u = unit("float f(float x) { return exp(x) + sqrt(x); }");
        let c = estimate_named(&u, "f").unwrap();
        assert!(c.flops >= 14.0);
    }

    #[test]
    fn callee_costs_are_inlined() {
        let u = unit(
            r#"
            float square(float x) { return x * x; }
            float f(float x) { return square(x) + square(x); }
        "#,
        );
        let inner = estimate_named(&u, "square").unwrap();
        let outer = estimate_named(&u, "f").unwrap();
        assert!(outer.flops >= 2.0 * inner.flops);
    }

    /// The charge table sizes buffer traffic by the element type sema
    /// recorded: a `double` load and store cost 8 bytes each.
    #[test]
    fn buffer_access_costs_use_the_declared_element_size() {
        let unit = check(
            parse(
                &lex("__kernel void k(__global double* v, int n) { v[0] = v[1]; }").unwrap(),
                "",
            )
            .unwrap(),
        )
        .unwrap();
        let Stmt::Expr(store) = &unit.functions[0].body.stmts[0] else {
            panic!("a store")
        };
        let ExprKind::Assign { value, .. } = &store.kind else {
            panic!("an assignment")
        };
        assert_eq!(charge(store).global_bytes, 8.0);
        assert_eq!(charge(value).global_bytes, 8.0);
    }

    /// Every statement is charged one op of its own, on both engines.
    #[test]
    fn statement_ops_are_attributed_to_statements() {
        let p = crate::Program::build(
            "__kernel void k(__global float* v, int n) { v[0] = 1.0f; { int a = 0; } }",
        )
        .unwrap();
        let k = p.kernel("k").unwrap();
        for tier in [crate::Tier::Interp, crate::Tier::Native] {
            p.set_tier(tier);
            let mut data = [0.0f32];
            let mut args = [
                crate::interp::ArgBinding::buffer_f32(&mut data),
                crate::interp::ArgBinding::Scalar(crate::value::Value::Int(1)),
            ];
            let stats = p.run_ndrange_measured(&k, 1, &mut args).unwrap();
            // Three statements (the block one of them) and one store.
            assert_eq!((stats.ops, stats.global_bytes), (4.0, 4.0), "{tier}");
        }
    }
}
