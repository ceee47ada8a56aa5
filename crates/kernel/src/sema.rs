//! Semantic analysis: symbol resolution and type checking.
//!
//! The checker walks every function body, maintaining a scope stack, and
//! verifies that
//!
//! * every referenced variable, parameter or function exists,
//! * buffer indexing is only applied to pointer parameters and indices are
//!   integers, and a buffer is never used as a value,
//! * operand types of arithmetic/logical operators are compatible,
//! * call arities match (user functions and builtins), and only functions
//!   without buffer parameters are called,
//! * assignments target lvalues of scalar type,
//! * non-void functions return a value on the paths that have a `return`,
//!   and a `void` call is used only as a statement,
//! * kernels return `void` and do not have pointer-typed local declarations.
//!
//! It also types the tree: every expression gets the scalar type of its
//! value ([`Expr::ty`]), following the language's C-style conversions (the
//! usual arithmetic conversions of [`ScalarType::unify`], comparisons and
//! logic yield `bool`, `-` on a `uint` yields `int`, a builtin's type follows
//! from its argument types, a `?:` has the unified type of its arms, an
//! assignment or increment has its target's type). Every name gets its slot
//! in the function's frame ([`Name::slot`], [`Function::locals`]), and every
//! call its target ([`Callee`]). The interpreter's values carry exactly these
//! types, and the native tier compiles from them; neither re-derives them.
//!
//! The language is implicitly-converting (C style), so the checker mostly
//! rejects structural errors rather than narrowing conversions.

use std::collections::HashMap;

use crate::ast::*;
use crate::builtins::Builtin;
use crate::diag::KernelError;
use crate::token::Span;
use crate::types::{ScalarType, Type};

/// Type-check a translation unit, returning it with its types and slots
/// recorded.
pub fn check(mut unit: TranslationUnit) -> Result<TranslationUnit, KernelError> {
    let mut signatures: HashMap<String, Signature> = HashMap::new();
    for (index, f) in unit.functions.iter().enumerate() {
        if Builtin::from_name(&f.name).is_some() {
            return Err(KernelError::check(
                format!("function `{}` shadows a builtin", f.name),
                f.span,
            ));
        }
        if signatures
            .insert(
                f.name.clone(),
                (
                    f.params.iter().map(|p| p.ty).collect(),
                    f.return_type,
                    index,
                ),
            )
            .is_some()
        {
            return Err(KernelError::check(
                format!("duplicate definition of function `{}`", f.name),
                f.span,
            ));
        }
    }

    for f in &mut unit.functions {
        if f.is_kernel && !f.return_type.is_void() {
            return Err(KernelError::check(
                format!("__kernel function `{}` must return void", f.name),
                f.span,
            ));
        }
        let mut checker = Checker {
            signatures: &signatures,
            scopes: vec![HashMap::new()],
            locals: Vec::new(),
            name: &f.name,
            return_type: f.return_type,
        };
        for p in &f.params {
            checker.declare(&p.name, p.ty, p.span)?;
        }
        checker.check_block(&mut f.body)?;
        f.locals = checker.locals;
    }
    Ok(unit)
}

/// A user function's parameter types, return type and index.
type Signature = (Vec<Type>, Type, usize);

struct Checker<'a> {
    signatures: &'a HashMap<String, Signature>,
    /// Name → (type, slot), innermost scope last.
    scopes: Vec<HashMap<String, (Type, usize)>>,
    /// The frame layout so far: the type of every slot.
    locals: Vec<Type>,
    name: &'a str,
    return_type: Type,
}

impl<'a> Checker<'a> {
    /// Declare `name` in the innermost scope, in a fresh slot.
    fn declare(&mut self, name: &str, ty: Type, span: Span) -> Result<usize, KernelError> {
        let slot = self.locals.len();
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        if scope.insert(name.to_string(), (ty, slot)).is_some() {
            return Err(KernelError::check(
                format!("`{name}` is declared twice in the same scope"),
                span,
            ));
        }
        self.locals.push(ty);
        Ok(slot)
    }

    /// Resolve `name`, recording its slot.
    fn lookup(&self, name: &mut Name, span: Span) -> Result<Type, KernelError> {
        for scope in self.scopes.iter().rev() {
            if let Some((ty, slot)) = scope.get(&name.name) {
                name.slot = *slot;
                return Ok(*ty);
            }
        }
        Err(KernelError::check(
            format!("unknown variable `{}`", name.name),
            span,
        ))
    }

    fn check_block(&mut self, block: &mut Block) -> Result<(), KernelError> {
        self.scopes.push(HashMap::new());
        for stmt in &mut block.stmts {
            self.check_stmt(stmt)?;
        }
        self.scopes.pop();
        Ok(())
    }

    /// Check an expression whose value is used: it must be a scalar, not a
    /// buffer or the result of a `void` call.
    fn value(&mut self, e: &mut Expr) -> Result<ScalarType, KernelError> {
        let ty = self.check_expr(e)?;
        scalar_value(ty, e.span)
    }

    /// Check an expression statement: its value is discarded, so a `void`
    /// call is fine, but a bare buffer is not.
    fn discard(&mut self, e: &mut Expr) -> Result<(), KernelError> {
        match self.check_expr(e)? {
            Type::Void => Ok(()),
            ty => scalar_value(ty, e.span).map(|_| ()),
        }
    }

    fn check_stmt(&mut self, stmt: &mut Stmt) -> Result<(), KernelError> {
        match stmt {
            Stmt::Decl {
                ty,
                name,
                init,
                span,
            } => {
                if let Some(init) = init {
                    self.value(init)?;
                }
                name.slot = self.declare(&name.name, Type::Scalar(*ty), *span)?;
                Ok(())
            }
            Stmt::Expr(e) => self.discard(e),
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                self.value(cond)?;
                self.check_block(then_block)?;
                self.check_block(else_block)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.check_stmt(init)?;
                }
                if let Some(cond) = cond {
                    self.value(cond)?;
                }
                if let Some(step) = step {
                    self.discard(step)?;
                }
                self.check_block(body)?;
                self.scopes.pop();
                Ok(())
            }
            Stmt::While { cond, body } => {
                self.value(cond)?;
                self.check_block(body)
            }
            Stmt::Return(expr, span) => match (expr, self.return_type) {
                (None, Type::Void) => Ok(()),
                (Some(_), Type::Void) => Err(KernelError::check(
                    format!("void function `{}` returns a value", self.name),
                    *span,
                )),
                (Some(e), _) => match self.check_expr(e)? {
                    Type::GlobalPtr(_) => Err(KernelError::check("cannot return a pointer", *span)),
                    ty => scalar_value(ty, e.span).map(|_| ()),
                },
                (None, _) => Err(KernelError::check(
                    format!("non-void function `{}` must return a value", self.name),
                    *span,
                )),
            },
            Stmt::Break(_) | Stmt::Continue(_) => Ok(()),
            Stmt::Block(b) => self.check_block(b),
        }
    }

    fn check_lvalue(&mut self, lv: &mut LValue) -> Result<ScalarType, KernelError> {
        match lv {
            LValue::Var(name, span) => match self.lookup(name, *span)? {
                Type::Scalar(s) => Ok(s),
                _ => Err(KernelError::check(
                    format!(
                        "cannot assign to pointer `{}` directly; index it",
                        name.name
                    ),
                    *span,
                )),
            },
            LValue::Index { base, index, span } => self.check_index(base, index, *span),
        }
    }

    /// `base[index]`: the element type of the buffer `base`.
    fn check_index(
        &mut self,
        base: &mut Name,
        index: &mut Expr,
        span: Span,
    ) -> Result<ScalarType, KernelError> {
        let base_ty = self.lookup(base, span)?;
        let idx_ty = self.check_expr(index)?;
        if !matches!(idx_ty, Type::Scalar(s) if s.is_integer() || s == ScalarType::Bool) {
            return Err(KernelError::check(
                "buffer index must be an integer expression",
                index.span,
            ));
        }
        match base_ty {
            Type::GlobalPtr(s) => Ok(s),
            _ => Err(KernelError::check(
                format!("`{}` is not a buffer and cannot be indexed", base.name),
                span,
            )),
        }
    }

    /// Type `expr` and record its scalar type in it.
    fn check_expr(&mut self, expr: &mut Expr) -> Result<Type, KernelError> {
        let ty = self.expr_type(expr)?;
        if let Type::Scalar(s) = ty {
            expr.ty = s;
        }
        Ok(ty)
    }

    fn expr_type(&mut self, expr: &mut Expr) -> Result<Type, KernelError> {
        let span = expr.span;
        let scalar = |s| Ok(Type::Scalar(s));
        match &mut expr.kind {
            ExprKind::IntLit(_) => scalar(ScalarType::Int),
            ExprKind::FloatLit(_) => scalar(ScalarType::Float),
            ExprKind::BoolLit(_) => scalar(ScalarType::Bool),
            ExprKind::Var(name) => self.lookup(name, span),
            ExprKind::Index { base, index } => scalar(self.check_index(base, index, span)?),
            ExprKind::Unary { op, operand } => {
                let Type::Scalar(s) = self.check_expr(operand)? else {
                    return Err(KernelError::check(
                        "unary operator needs a scalar operand",
                        span,
                    ));
                };
                match (op, s) {
                    (UnOp::Neg, ScalarType::Bool) => {
                        Err(KernelError::check("cannot negate a bool", span))
                    }
                    // Negating a `uint` yields an `int` (as in the interpreter).
                    (UnOp::Neg, ScalarType::Uint) => scalar(ScalarType::Int),
                    (UnOp::Neg, s) => scalar(s),
                    (UnOp::Not, _) => scalar(ScalarType::Bool),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.check_expr(lhs)?;
                let rt = self.check_expr(rhs)?;
                let (Type::Scalar(ls), Type::Scalar(rs)) = (lt, rt) else {
                    return Err(KernelError::check(
                        "binary operators need scalar operands (did you forget to index a buffer?)",
                        span,
                    ));
                };
                if *op == BinOp::Rem && (ls.is_float() || rs.is_float()) {
                    return Err(KernelError::check("`%` requires integer operands", span));
                }
                if op.is_comparison() {
                    scalar(ScalarType::Bool)
                } else {
                    scalar(ls.unify(rs))
                }
            }
            ExprKind::Call {
                callee,
                target,
                args,
            } => {
                let mut arg_types = Vec::with_capacity(args.len());
                for a in args.iter_mut() {
                    let ty = self.check_expr(a)?;
                    if ty.is_pointer() {
                        return Err(KernelError::check(
                            "pointers cannot be passed to functions in this language subset",
                            a.span,
                        ));
                    }
                    arg_types.push(scalar_value(ty, a.span)?);
                }
                if let Some(b) = Builtin::from_name(callee) {
                    if args.len() != b.arity() {
                        return Err(KernelError::check(
                            format!(
                                "builtin `{callee}` expects {} argument(s), got {}",
                                b.arity(),
                                args.len()
                            ),
                            span,
                        ));
                    }
                    if b.reinterprets_as().is_some() && arg_types[0].size_bytes() != 4 {
                        return Err(KernelError::check(
                            format!(
                                "builtin `{callee}` reinterprets a 32-bit value, not `{}`",
                                arg_types[0]
                            ),
                            span,
                        ));
                    }
                    *target = Callee::Builtin(b);
                    return scalar(b.result_type(&arg_types));
                }
                let Some((params, ret, index)) = self.signatures.get(callee.as_str()) else {
                    return Err(KernelError::check(
                        format!("call to unknown function `{callee}`"),
                        span,
                    ));
                };
                if params.len() != args.len() {
                    return Err(KernelError::check(
                        format!(
                            "function `{callee}` expects {} argument(s), got {}",
                            params.len(),
                            args.len()
                        ),
                        span,
                    ));
                }
                if params.iter().any(|p| p.is_pointer()) {
                    return Err(KernelError::check(
                        format!("function `{callee}` takes a buffer, so it cannot be called"),
                        span,
                    ));
                }
                *target = Callee::Function(*index);
                // A `void` call keeps the unchecked `int` type: it evaluates
                // to int 0, and only in statement position.
                Ok(*ret)
            }
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                self.value(cond)?;
                let t = self.check_expr(then_expr)?;
                let e = self.check_expr(else_expr)?;
                match (t, e) {
                    (Type::Scalar(a), Type::Scalar(b)) => scalar(a.unify(b)),
                    _ => Err(KernelError::check(
                        "ternary arms must be scalar expressions",
                        then_expr.span,
                    )),
                }
            }
            ExprKind::Assign { target, value, op } => {
                let tgt = self.check_lvalue(target)?;
                let ty = self.check_expr(value)?;
                if ty.is_pointer() {
                    return Err(KernelError::check("cannot assign a pointer value", span));
                }
                scalar_value(ty, value.span)?;
                if *op != AssignOp::Assign && tgt == ScalarType::Bool {
                    return Err(KernelError::check(
                        "compound assignment not supported on bool",
                        span,
                    ));
                }
                scalar(tgt)
            }
            ExprKind::IncDec { target, .. } => {
                let tgt = self.check_lvalue(target)?;
                if tgt == ScalarType::Bool {
                    return Err(KernelError::check("cannot increment a bool", span));
                }
                scalar(tgt)
            }
            ExprKind::Cast { ty, operand } => {
                let oty = self.check_expr(operand)?;
                if oty.is_pointer() {
                    return Err(KernelError::check("cannot cast a pointer", span));
                }
                scalar_value(oty, operand.span)?;
                scalar(*ty)
            }
        }
    }
}

/// The scalar type of a used value, or the error for a buffer or a `void`
/// call's result in value position.
fn scalar_value(ty: Type, span: Span) -> Result<ScalarType, KernelError> {
    match ty {
        Type::Scalar(s) => Ok(s),
        Type::GlobalPtr(_) => Err(KernelError::check(
            "a buffer cannot be used as a value; index it",
            span,
        )),
        Type::Void => Err(KernelError::check(
            "a void function's result cannot be used as a value",
            span,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<TranslationUnit, KernelError> {
        check(parse(&lex(src).unwrap(), src)?)
    }

    #[test]
    fn accepts_valid_programs() {
        assert!(check_src(
            r#"
            float func(float x, float y, float a) { return a * x + y; }
            __kernel void zip(__global float* xs, __global float* ys,
                              __global float* out, int n, float a) {
                int gid = get_global_id(0);
                if (gid < n) { out[gid] = func(xs[gid], ys[gid], a); }
            }
        "#
        )
        .is_ok());
    }

    #[test]
    fn rejects_unknown_variable() {
        let err = check_src("__kernel void k(__global float* v) { v[0] = missing; }").unwrap_err();
        assert!(err.message.contains("unknown variable"));
    }

    #[test]
    fn rejects_unknown_function() {
        let err =
            check_src("__kernel void k(__global float* v) { v[0] = mystery(1.0f); }").unwrap_err();
        assert!(err.message.contains("unknown function"));
    }

    #[test]
    fn rejects_kernel_with_return_type() {
        let err = check_src("__kernel float k(__global float* v) { return v[0]; }").unwrap_err();
        assert!(err.message.contains("must return void"));
    }

    #[test]
    fn rejects_indexing_scalars() {
        let err = check_src("__kernel void k(float x) { x[0] = 1.0f; }").unwrap_err();
        assert!(err.message.contains("not a buffer"));
    }

    #[test]
    fn rejects_float_buffer_index() {
        let err =
            check_src("__kernel void k(__global float* v, float i) { v[i] = 1.0f; }").unwrap_err();
        assert!(err.message.contains("integer"));
    }

    #[test]
    fn rejects_wrong_builtin_arity() {
        let err = check_src("__kernel void k(__global float* v) { v[0] = sqrt(1.0f, 2.0f); }")
            .unwrap_err();
        assert!(err.message.contains("expects 1 argument"));
    }

    #[test]
    fn rejects_wrong_call_arity() {
        let err = check_src(
            r#"
            float f(float a, float b) { return a + b; }
            __kernel void k(__global float* v) { v[0] = f(1.0f); }
        "#,
        )
        .unwrap_err();
        assert!(err.message.contains("expects 2 argument"));
    }

    #[test]
    fn rejects_duplicate_declaration_in_scope() {
        let err = check_src("__kernel void k(__global float* v) { int a = 0; float a = 1.0f; }")
            .unwrap_err();
        assert!(err.message.contains("declared twice"));
    }

    #[test]
    fn allows_shadowing_in_nested_scope() {
        assert!(check_src(
            "__kernel void k(__global float* v, int n) { int a = 0; { float a = 1.0f; v[0] = a; } }"
        )
        .is_ok());
    }

    #[test]
    fn rejects_duplicate_functions_and_builtin_shadowing() {
        assert!(
            check_src("float f(float a) { return a; } float f(float b) { return b; } ")
                .unwrap_err()
                .message
                .contains("duplicate")
        );
        assert!(check_src("float sqrt(float a) { return a; }")
            .unwrap_err()
            .message
            .contains("shadows a builtin"));
    }

    #[test]
    fn rejects_void_function_returning_value() {
        let err = check_src("__kernel void k(__global float* v) { return 1; }").unwrap_err();
        assert!(err.message.contains("returns a value"));
    }

    #[test]
    fn rejects_modulo_on_floats() {
        let err =
            check_src("__kernel void k(__global float* v) { v[0] = 1.5f % 2.0f; }").unwrap_err();
        assert!(err.message.contains("integer operands"));
    }

    /// The type of the value of `float x = <expr>;` in the first statement
    /// of the only function.
    fn init_type(src: &str) -> ScalarType {
        let unit = check_src(src).unwrap();
        match &unit.functions[0].body.stmts[0] {
            Stmt::Decl {
                init: Some(init), ..
            } => init.ty,
            other => panic!("not a declaration: {other:?}"),
        }
    }

    #[test]
    fn builtins_are_typed_from_their_argument_types() {
        let int_min = "__kernel void k(__global int* v, int n) { int g = get_global_id(0); \
                       v[g] = min(g, n) % 3; }";
        assert!(check_src(int_min).is_ok(), "`min` of ints is an int");
        let typed = |decl: &str| {
            init_type(&format!(
                "__kernel void k(double d, int i, float f) {{ {decl} }}"
            ))
        };
        assert_eq!(typed("double x = sqrt(d);"), ScalarType::Double);
        assert_eq!(typed("float x = sqrt(f);"), ScalarType::Float);
        assert_eq!(typed("float x = sqrt(i);"), ScalarType::Float);
        assert_eq!(typed("int x = clamp(i, 0, 9);"), ScalarType::Int);
        assert_eq!(typed("float x = max(i, f);"), ScalarType::Float);
        assert_eq!(typed("float x = get_global_id(0);"), ScalarType::Int);
    }

    #[test]
    fn rejects_buffers_used_as_values() {
        for body in [
            "float x = v;",
            "if (v) { v[0] = 1.0f; }",
            "while (v) { }",
            "for (; v; ) { }",
            "v;",
            "v[0] = v ? 1.0f : 0.0f;",
        ] {
            let src = format!("__kernel void k(__global float* v) {{ {body} }}");
            let err = check_src(&src).unwrap_err();
            assert!(
                err.message.contains("buffer cannot be used as a value"),
                "{body}: {err}"
            );
            let span = err.span.expect("a span");
            assert_eq!(&src[span.start..span.end], "v", "{body}");
        }
    }

    #[test]
    fn rejects_void_results_and_calls_of_buffer_functions() {
        let void = "void f(float x) { } __kernel void k(__global float* v) { f(1.0f); float y = f(2.0f); }";
        let err = check_src(void).unwrap_err();
        assert!(err.message.contains("void function's result"), "{err}");
        let buffers = "float f(__global float* p) { return p[0]; } __kernel void k(__global float* v) { v[0] = f(1.0f); }";
        let err = check_src(buffers).unwrap_err();
        assert!(err.message.contains("takes a buffer"), "{err}");
    }

    #[test]
    fn records_slots_and_expression_types() {
        let unit = check_src(
            "__kernel void k(__global float* v, int n) { int a = n; { float a = 1.5f; v[a] = a; } }",
        )
        .unwrap_err();
        assert!(unit.message.contains("integer"), "a float index: {unit}");
        let unit = check_src(
            "__kernel void k(__global float* v, int n) { int a = n; { float b = a; v[a] = b * 2; } }",
        )
        .unwrap();
        let f = &unit.functions[0];
        let int = Type::Scalar(ScalarType::Int);
        let float = Type::Scalar(ScalarType::Float);
        assert_eq!(
            f.locals,
            [Type::GlobalPtr(ScalarType::Float), int, int, float]
        );
        let Stmt::Block(inner) = &f.body.stmts[1] else {
            panic!("a block")
        };
        let Stmt::Expr(store) = &inner.stmts[1] else {
            panic!("a store")
        };
        let ExprKind::Assign {
            target: LValue::Index { base, .. },
            value,
            ..
        } = &store.kind
        else {
            panic!("an assignment")
        };
        assert_eq!(
            (base.slot, store.ty, value.ty),
            (0, ScalarType::Float, ScalarType::Float)
        );
    }
}
