//! The one per-node cost table, and the static walk that predicts with it.
//!
//! `charge` prices one evaluation of an expression node and
//! `STMT_CHARGE` one statement, in
//!
//! * floating point operations (`flops`),
//! * global-memory traffic in bytes (`global_bytes`),
//! * node and statement evaluations (`ops`), a proxy for integer and
//!   control-flow work.
//!
//! Both engines charge this table for every node they run, which is the
//! measured [`crate::interp::ExecStats`] the device simulator turns into
//! virtual time. SkelCL's static scheduler (paper, Section V) needs the
//! cost *before* anything runs: [`estimate_function`] walks a checked
//! function and charges the same table, a node's cost being its own charge
//! plus its children's. Where the tree alone does not say what runs, the
//! walk assumes exactly three things:
//!
//! * an `if` branch, a ternary arm and the right side of `&&` / `||` each
//!   run half the time;
//! * a `for (i = a; i < N; i++)` loop with literal `a` and `N` (also `<=`,
//!   `++i`, `i += 1`) runs `N − a` times; every other loop runs
//!   [`DEFAULT_TRIP_COUNT`] times;
//! * a call to a user function runs its body, inlined up to depth 8.
//!
//! Straight-line code (helper calls included) and literal-trip loops over it
//! are predicted exactly.

use crate::ast::*;

/// Default assumed trip count for loops whose bounds are not literal.
pub const DEFAULT_TRIP_COUNT: f64 = 16.0;

/// How deep [`estimate_function`] inlines user-function calls; deeper calls
/// add only their arguments.
const MAX_INLINE_DEPTH: usize = 8;

/// The cost of kernel code: estimated per work-item by
/// [`estimate_function`], or measured while running (as
/// [`crate::interp::ExecStats`]).
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

/// Estimate the per-invocation cost of `func`, a function of the checked
/// `unit`, by charging `charge` and `STMT_CHARGE` for every node it
/// runs under the module's three assumptions. An unchecked unit has no
/// resolved callees and no element types, so its estimate is too low.
pub fn estimate_function(unit: &TranslationUnit, func: &Function) -> CostEstimate {
    Walk { unit, depth: 0 }.block(&func.body)
}

/// The static walk: each method returns the node's own charge plus its
/// children's, weighted by how often they run.
struct Walk<'u> {
    unit: &'u TranslationUnit,
    /// User-function calls inlined around the node being walked.
    depth: usize,
}

impl Walk<'_> {
    fn block(&mut self, block: &Block) -> CostEstimate {
        block
            .stmts
            .iter()
            .fold(CostEstimate::default(), |sum, s| sum.add(self.stmt(s)))
    }

    fn stmt(&mut self, stmt: &Stmt) -> CostEstimate {
        let children = match stmt {
            Stmt::Decl { init: Some(e), .. } | Stmt::Expr(e) | Stmt::Return(Some(e), _) => {
                self.expr(e)
            }
            Stmt::Decl { init: None, .. }
            | Stmt::Return(None, _)
            | Stmt::Break(_)
            | Stmt::Continue(_) => CostEstimate::default(),
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => self.expr(cond).add(
                self.block(then_block)
                    .add(self.block(else_block))
                    .scale(0.5),
            ),
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                let trips = literal_trips(init.as_deref(), cond.as_ref(), step.as_ref())
                    .unwrap_or(DEFAULT_TRIP_COUNT);
                let init = init
                    .as_ref()
                    .map_or_else(CostEstimate::default, |s| self.stmt(s));
                let [cond, step] = [cond, step].map(|e| {
                    e.as_ref()
                        .map_or_else(CostEstimate::default, |e| self.expr(e))
                });
                let trip = self.block(body).add(step);
                init.add(cond.scale(trips + 1.0)).add(trip.scale(trips))
            }
            Stmt::While { cond, body } => self
                .expr(cond)
                .scale(DEFAULT_TRIP_COUNT + 1.0)
                .add(self.block(body).scale(DEFAULT_TRIP_COUNT)),
            Stmt::Block(b) => self.block(b),
        };
        STMT_CHARGE.add(children)
    }

    fn expr(&mut self, expr: &Expr) -> CostEstimate {
        let children = match &expr.kind {
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::Var(_) => CostEstimate::default(),
            ExprKind::Index { index: e, .. }
            | ExprKind::Unary { operand: e, .. }
            | ExprKind::Cast { operand: e, .. } => self.expr(e),
            ExprKind::Binary {
                op: BinOp::And | BinOp::Or,
                lhs,
                rhs,
            } => self.expr(lhs).add(self.expr(rhs).scale(0.5)),
            ExprKind::Binary { lhs, rhs, .. } => self.expr(lhs).add(self.expr(rhs)),
            ExprKind::Call { target, args, .. } => {
                let args = args
                    .iter()
                    .fold(CostEstimate::default(), |sum, a| sum.add(self.expr(a)));
                match *target {
                    Callee::Function(index) if self.depth < MAX_INLINE_DEPTH => {
                        self.depth += 1;
                        let body = self.block(&self.unit.functions[index].body);
                        self.depth -= 1;
                        args.add(body)
                    }
                    _ => args,
                }
            }
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => self
                .expr(cond)
                .add(self.expr(then_expr).add(self.expr(else_expr)).scale(0.5)),
            // A buffer target's index is evaluated once to store and, when
            // the old value is read first, once more to load.
            ExprKind::Assign { op, target, value } => {
                let index_runs = if *op == AssignOp::Assign { 1.0 } else { 2.0 };
                self.expr(value).add(self.target(target).scale(index_runs))
            }
            ExprKind::IncDec { target, .. } => self.target(target).scale(2.0),
        };
        charge(expr).add(children)
    }

    /// An assignment target's index, evaluated once.
    fn target(&mut self, target: &LValue) -> CostEstimate {
        match target {
            LValue::Var(..) => CostEstimate::default(),
            LValue::Index { index, .. } => self.expr(index),
        }
    }
}

/// How often the body of `for (init; cond; step)` runs if the header says
/// so: `N − a` for a literal start `a`, a bound `i < N` (`N + 1 − a` for
/// `i <= N`) and a unit step, all on one variable.
fn literal_trips(init: Option<&Stmt>, cond: Option<&Expr>, step: Option<&Expr>) -> Option<f64> {
    let int = |e: &Expr| match e.kind {
        ExprKind::IntLit(v) => Some(v),
        _ => None,
    };
    let (var, start) = match init? {
        Stmt::Decl {
            name,
            init: Some(e),
            ..
        } => (name.slot, int(e)?),
        Stmt::Expr(Expr {
            kind:
                ExprKind::Assign {
                    op: AssignOp::Assign,
                    target: LValue::Var(name, _),
                    value,
                },
            ..
        }) => (name.slot, int(value)?),
        _ => return None,
    };
    let is_var = |e: &Expr| matches!(&e.kind, ExprKind::Var(name) if name.slot == var);
    let ExprKind::Binary { op, lhs, rhs } = &cond?.kind else {
        return None;
    };
    let end = match op {
        BinOp::Lt if is_var(lhs) => int(rhs)?,
        BinOp::Le if is_var(lhs) => int(rhs)?.saturating_add(1),
        _ => return None,
    };
    let unit_step = match &step?.kind {
        ExprKind::IncDec {
            target: LValue::Var(name, _),
            delta: 1,
            ..
        } => name.slot == var,
        ExprKind::Assign {
            op: AssignOp::AddAssign,
            target: LValue::Var(name, _),
            value,
        } => name.slot == var && int(value) == Some(1),
        _ => false,
    };
    unit_step.then(|| end.saturating_sub(start).max(0) as f64)
}

/// What executing one statement costs on its own (its expressions are
/// charged separately): one op.
pub(crate) const STMT_CHARGE: CostEstimate = CostEstimate {
    flops: 0.0,
    global_bytes: 0.0,
    ops: 1.0,
};

/// What one evaluation of `e` costs on its own, its operands excluded: the
/// one per-node table. The interpreter charges it for every node it
/// evaluates and the native tier for every node its active lanes run, so
/// both report the same [`crate::interp::ExecStats`]; [`estimate_function`]
/// charges it statically. Every constant is a small dyadic number, so sums
/// are exact in any order. `e` must be checked: buffer traffic is sized by
/// the element type sema recorded.
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
        // A store.
        ExprKind::Assign {
            op: AssignOp::Assign,
            target,
            ..
        } => match target {
            LValue::Var(..) => (0.0, 0.0, 0.0),
            LValue::Index { .. } => (0.0, elem, 1.0),
        },
        // `x op= y` and `x++` cost their spelled-out form `x = x op y`: the
        // operation, plus a load and a store for a buffer element.
        ExprKind::Assign { target, .. } | ExprKind::IncDec { target, .. } => match target {
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
    /// runtime turns measured statement counts into per-item costs with it,
    /// and the fusion pass compares fused vs split pipeline stages on this
    /// one axis.
    pub fn flops_equivalent(&self) -> f64 {
        self.flops + 0.25 * self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::ArgBinding;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::sema::check;
    use crate::value::Value;
    use crate::{Program, Tier};

    fn unit(src: &str) -> TranslationUnit {
        check(parse(&lex(src).unwrap(), src).unwrap()).unwrap()
    }

    fn estimate(u: &TranslationUnit, name: &str) -> CostEstimate {
        estimate_function(u, u.function(name).unwrap())
    }

    /// The measured cost of one work-item of `k(__global float* o, int n)`
    /// on `tier`, with `o = [3, 4]` and `n = 5`.
    fn measure(src: &str, tier: Tier) -> CostEstimate {
        let p = Program::build(src).unwrap();
        p.set_tier(tier);
        let mut data = [3.0f32, 4.0];
        let mut args = [
            ArgBinding::buffer_f32(&mut data),
            ArgBinding::Scalar(Value::Int(5)),
        ];
        p.run_ndrange_measured(&p.kernel("k").unwrap(), 1, &mut args)
            .unwrap()
    }

    #[test]
    fn saxpy_udf_costs_two_flops() {
        let u = unit("float func(float x, float y, float a) { return a * x + y; }");
        let c = estimate(&u, "func");
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
        let c = estimate(&u, "f");
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
        let c = estimate(&u, "f");
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
        let c = estimate(&u, "copy");
        // One read + one write, branch-averaged at 0.5 each -> 4 bytes total.
        assert!(c.global_bytes >= 4.0 - 1e-9, "bytes = {}", c.global_bytes);
    }

    #[test]
    fn builtin_costs_flow_through_calls() {
        let u = unit("float f(float x) { return exp(x) + sqrt(x); }");
        let c = estimate(&u, "f");
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
        let inner = estimate(&u, "square");
        let outer = estimate(&u, "f");
        assert!(outer.flops >= 2.0 * inner.flops);
    }

    /// Straight-line kernels — a helper call, builtins, a cast, a compound
    /// store — are predicted exactly: the walk charges what both engines
    /// measure, node for node.
    #[test]
    fn straight_line_estimates_equal_the_measured_cost() {
        let cases = [
            (
                "float func(float a, float b) { return a + b; }
                 __kernel void k(__global float* o, int n) { o[0] = func(o[0], o[1]); }",
                (1.0, 12.0, 6.0),
            ),
            (
                "float sq(float x) { return x * x; }
                 __kernel void k(__global float* o, int n) {
                     o[0] = sqrt(sq(o[0]) + sq(o[1])) + (float)n;
                 }",
                (8.0, 12.0, 11.0),
            ),
            (
                "__kernel void k(__global float* o, int n) { o[0] += o[1]; }",
                (1.0, 12.0, 5.0),
            ),
        ];
        for (src, (flops, global_bytes, ops)) in cases {
            let u = unit(src);
            let want = CostEstimate {
                flops,
                global_bytes,
                ops,
            };
            assert_eq!(estimate(&u, "k"), want, "{src}");
            for tier in [Tier::Interp, Tier::Native] {
                assert_eq!(measure(src, tier), want, "{src} on {tier}");
            }
        }
    }

    /// Steps other than `+1` on the loop variable, and bounds on another
    /// variable, are not read as literal trip counts.
    #[test]
    fn only_unit_steps_on_the_loop_variable_count_literally() {
        let trips = |header: &str| {
            let src = format!("float f(float x) {{ int j = 0; {header} {{ }} return x; }}");
            let u = unit(&src);
            let Stmt::For {
                init, cond, step, ..
            } = &u.functions[0].body.stmts[1]
            else {
                panic!("a for loop")
            };
            literal_trips(init.as_deref(), cond.as_ref(), step.as_ref())
        };
        assert_eq!(trips("for (int i = 2; i < 10; i++)"), Some(8.0));
        assert_eq!(trips("for (int i = 2; i < 10; ++i)"), Some(8.0));
        assert_eq!(trips("for (int i = 2; i < 10; i += 1)"), Some(8.0));
        assert_eq!(trips("for (int i = 2; i <= 10; i++)"), Some(9.0));
        assert_eq!(trips("for (j = 3; j < 10; j++)"), Some(7.0));
        assert_eq!(trips("for (int i = 12; i < 10; i++)"), Some(0.0));
        for other in [
            "for (int i = 0; i < 10; i += 2)",
            "for (int i = 0; i < 10; i--)",
            "for (int i = 0; i < 10; j++)",
            "for (int i = 0; j < 10; i++)",
            "for (int i = j; i < 10; i++)",
            "for (int i = 0; i < j; i++)",
            "for (int i = 0; i > 10; i++)",
            "for (; j < 10; j++)",
        ] {
            assert_eq!(trips(other), None, "{other}");
        }
    }

    /// `x op= y` costs what `x = x op y` costs, on both engines, for a
    /// variable and for a buffer element.
    #[test]
    fn compound_assignments_cost_their_spelled_out_form() {
        for (compound, spelled) in [
            (
                "float x = o[0]; x += o[1];",
                "float x = o[0]; x = x + o[1];",
            ),
            (
                "float x = o[0]; x /= o[1];",
                "float x = o[0]; x = x / o[1];",
            ),
            ("o[0] -= o[1];", "o[0] = o[0] - o[1];"),
            ("o[n - 5] *= 2.0f;", "o[n - 5] = o[n - 5] * 2.0f;"),
        ] {
            let kernel =
                |body: &str| format!("__kernel void k(__global float* o, int n) {{ {body} }}");
            let (compound, spelled) = (kernel(compound), kernel(spelled));
            assert_eq!(
                estimate(&unit(&compound), "k"),
                estimate(&unit(&spelled), "k")
            );
            for tier in [Tier::Interp, Tier::Native] {
                assert_eq!(
                    measure(&compound, tier),
                    measure(&spelled, tier),
                    "{compound} on {tier}"
                );
            }
        }
    }

    /// The charge table sizes buffer traffic by the element type sema
    /// recorded: a `double` load and store cost 8 bytes each.
    #[test]
    fn buffer_access_costs_use_the_declared_element_size() {
        let unit = unit("__kernel void k(__global double* v, int n) { v[0] = v[1]; }");
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
        let p = Program::build(
            "__kernel void k(__global float* v, int n) { v[0] = 1.0f; { int a = 0; } }",
        )
        .unwrap();
        let k = p.kernel("k").unwrap();
        for tier in [Tier::Interp, Tier::Native] {
            p.set_tier(tier);
            let mut data = [0.0f32];
            let mut args = [
                ArgBinding::buffer_f32(&mut data),
                ArgBinding::Scalar(Value::Int(1)),
            ];
            let stats = p.run_ndrange_measured(&k, 1, &mut args).unwrap();
            // Three statements (the block one of them) and one store.
            assert_eq!((stats.ops, stats.global_bytes), (4.0, 4.0), "{tier}");
        }
    }
}
