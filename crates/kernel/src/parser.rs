//! Recursive-descent parser producing the [`crate::ast`] from a token stream.

use crate::ast::*;
use crate::diag::KernelError;
use crate::token::{Keyword, Span, Token, TokenKind};
use crate::types::{ScalarType, Type};

/// Parse the token stream of a translation unit.
pub fn parse(tokens: &[Token], source: &str) -> Result<TranslationUnit, KernelError> {
    let mut parser = Parser {
        tokens,
        pos: 0,
        _source: source,
    };
    parser.translation_unit()
}

fn binary(op: BinOp, lhs: Expr, rhs: Expr, span: Span) -> Expr {
    let (lhs, rhs) = (Box::new(lhs), Box::new(rhs));
    Expr::new(ExprKind::Binary { op, lhs, rhs }, span)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    _source: &'a str,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek2_kind(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, KernelError> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(KernelError::parse(
                format!("expected {}, found {}", kind, self.peek_kind()),
                self.peek().span,
            ))
        }
    }

    fn at_keyword(&self, kw: Keyword) -> bool {
        matches!(self.peek_kind(), TokenKind::Keyword(k) if *k == kw)
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<(String, Span), KernelError> {
        let t = self.bump();
        match t.kind {
            TokenKind::Ident(name) => Ok((name, t.span)),
            other => Err(KernelError::parse(
                format!("expected identifier, found {other}"),
                t.span,
            )),
        }
    }

    // ---- types -----------------------------------------------------------

    fn at_scalar_type(&self) -> bool {
        matches!(
            self.peek_kind(),
            TokenKind::Keyword(
                Keyword::Float | Keyword::Double | Keyword::Int | Keyword::Uint | Keyword::Bool
            )
        )
    }

    fn scalar_type(&mut self) -> Result<ScalarType, KernelError> {
        let t = self.bump();
        match t.kind {
            TokenKind::Keyword(Keyword::Float) => Ok(ScalarType::Float),
            TokenKind::Keyword(Keyword::Double) => Ok(ScalarType::Double),
            TokenKind::Keyword(Keyword::Int) => Ok(ScalarType::Int),
            TokenKind::Keyword(Keyword::Uint) => Ok(ScalarType::Uint),
            TokenKind::Keyword(Keyword::Bool) => Ok(ScalarType::Bool),
            other => Err(KernelError::parse(
                format!("expected a type, found {other}"),
                t.span,
            )),
        }
    }

    /// Parse a (possibly pointer) type as used in parameter lists and return
    /// types. Accepts optional `__global`, `__local` and `const` qualifiers.
    fn full_type(&mut self) -> Result<Type, KernelError> {
        let mut saw_global = false;
        loop {
            if self.eat_keyword(Keyword::Global) || self.eat_keyword(Keyword::Local) {
                saw_global = true;
            } else if self.eat_keyword(Keyword::Const) {
                // const qualifier is accepted and ignored
            } else {
                break;
            }
        }
        if self.eat_keyword(Keyword::Void) {
            return Ok(Type::Void);
        }
        let scalar = self.scalar_type()?;
        if self.eat(&TokenKind::Star) {
            Ok(Type::GlobalPtr(scalar))
        } else if saw_global {
            Err(KernelError::parse(
                "`__global` qualifier requires a pointer type",
                self.peek().span,
            ))
        } else {
            Ok(Type::Scalar(scalar))
        }
    }

    // ---- declarations ------------------------------------------------------

    fn translation_unit(&mut self) -> Result<TranslationUnit, KernelError> {
        let mut functions = Vec::new();
        while !self.at(&TokenKind::Eof) {
            functions.push(self.function()?);
        }
        Ok(TranslationUnit { functions })
    }

    fn function(&mut self) -> Result<Function, KernelError> {
        let start = self.peek().span;
        let is_kernel = self.eat_keyword(Keyword::Kernel);
        let return_type = self.full_type()?;
        let (name, _) = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                let pspan = self.peek().span;
                let ty = self.full_type()?;
                if ty.is_void() {
                    return Err(KernelError::parse("parameter cannot have type void", pspan));
                }
                let (pname, _) = self.ident()?;
                params.push(Param {
                    name: pname,
                    ty,
                    span: pspan,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        let body = self.block()?;
        Ok(Function {
            name,
            is_kernel,
            return_type,
            params,
            body,
            span: start,
            locals: Vec::new(),
        })
    }

    // ---- statements --------------------------------------------------------

    fn block(&mut self) -> Result<Block, KernelError> {
        self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            if self.at(&TokenKind::Eof) {
                return Err(KernelError::parse(
                    "unexpected end of input in block",
                    self.peek().span,
                ));
            }
            stmts.push(self.statement()?);
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(Block { stmts })
    }

    fn statement(&mut self) -> Result<Stmt, KernelError> {
        let span = self.peek().span;
        match self.peek_kind() {
            TokenKind::LBrace => Ok(Stmt::Block(self.block()?)),
            TokenKind::Keyword(Keyword::If) => self.if_statement(),
            TokenKind::Keyword(Keyword::For) => self.for_statement(),
            TokenKind::Keyword(Keyword::While) => self.while_statement(),
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                if self.eat(&TokenKind::Semicolon) {
                    Ok(Stmt::Return(None, span))
                } else {
                    let e = self.expression()?;
                    self.expect(&TokenKind::Semicolon)?;
                    Ok(Stmt::Return(Some(e), span))
                }
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect(&TokenKind::Semicolon)?;
                Ok(Stmt::Break(span))
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect(&TokenKind::Semicolon)?;
                Ok(Stmt::Continue(span))
            }
            _ if self.at_decl_start() => {
                let s = self.declaration()?;
                self.expect(&TokenKind::Semicolon)?;
                Ok(s)
            }
            _ => {
                let e = self.expression()?;
                self.expect(&TokenKind::Semicolon)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    /// A declaration begins with `const`-qualified or bare scalar type that is
    /// *not* immediately followed by `(` (which would be a cast expression).
    fn at_decl_start(&self) -> bool {
        if matches!(self.peek_kind(), TokenKind::Keyword(Keyword::Const)) {
            return true;
        }
        self.at_scalar_type() && matches!(self.peek2_kind(), TokenKind::Ident(_))
    }

    fn declaration(&mut self) -> Result<Stmt, KernelError> {
        let span = self.peek().span;
        self.eat_keyword(Keyword::Const);
        let ty = self.scalar_type()?;
        let (name, _) = self.ident()?;
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.expression()?)
        } else {
            None
        };
        Ok(Stmt::Decl {
            ty,
            name: Name::new(name),
            init,
            span,
        })
    }

    fn if_statement(&mut self) -> Result<Stmt, KernelError> {
        self.bump(); // if
        self.expect(&TokenKind::LParen)?;
        let cond = self.expression()?;
        self.expect(&TokenKind::RParen)?;
        let then_block = self.block_or_single()?;
        let else_block = if self.eat_keyword(Keyword::Else) {
            self.block_or_single()?
        } else {
            Block::default()
        };
        Ok(Stmt::If {
            cond,
            then_block,
            else_block,
        })
    }

    /// Either a braced block or a single statement (wrapped into a block).
    fn block_or_single(&mut self) -> Result<Block, KernelError> {
        if self.at(&TokenKind::LBrace) {
            self.block()
        } else {
            let stmt = self.statement()?;
            Ok(Block { stmts: vec![stmt] })
        }
    }

    fn for_statement(&mut self) -> Result<Stmt, KernelError> {
        self.bump(); // for
        self.expect(&TokenKind::LParen)?;
        let init = if self.eat(&TokenKind::Semicolon) {
            None
        } else if self.at_decl_start() {
            let d = self.declaration()?;
            self.expect(&TokenKind::Semicolon)?;
            Some(Box::new(d))
        } else {
            let e = self.expression()?;
            self.expect(&TokenKind::Semicolon)?;
            Some(Box::new(Stmt::Expr(e)))
        };
        let cond = if self.at(&TokenKind::Semicolon) {
            None
        } else {
            Some(self.expression()?)
        };
        self.expect(&TokenKind::Semicolon)?;
        let step = if self.at(&TokenKind::RParen) {
            None
        } else {
            Some(self.expression()?)
        };
        self.expect(&TokenKind::RParen)?;
        let body = self.block_or_single()?;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
        })
    }

    fn while_statement(&mut self) -> Result<Stmt, KernelError> {
        self.bump(); // while
        self.expect(&TokenKind::LParen)?;
        let cond = self.expression()?;
        self.expect(&TokenKind::RParen)?;
        let body = self.block_or_single()?;
        Ok(Stmt::While { cond, body })
    }

    // ---- expressions -------------------------------------------------------

    fn expression(&mut self) -> Result<Expr, KernelError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, KernelError> {
        let lhs = self.ternary()?;
        let op = match self.peek_kind() {
            TokenKind::Assign => Some(AssignOp::Assign),
            TokenKind::PlusAssign => Some(AssignOp::AddAssign),
            TokenKind::MinusAssign => Some(AssignOp::SubAssign),
            TokenKind::StarAssign => Some(AssignOp::MulAssign),
            TokenKind::SlashAssign => Some(AssignOp::DivAssign),
            _ => None,
        };
        let Some(op) = op else { return Ok(lhs) };
        let opspan = self.bump().span;
        let value = self.assignment()?;
        let target = Self::expr_to_lvalue(&lhs)?;
        Ok(Expr::new(
            ExprKind::Assign {
                op,
                target,
                value: Box::new(value),
            },
            lhs.span.to(opspan),
        ))
    }

    fn expr_to_lvalue(e: &Expr) -> Result<LValue, KernelError> {
        match &e.kind {
            ExprKind::Var(name) => Ok(LValue::Var(name.clone(), e.span)),
            ExprKind::Index { base, index } => Ok(LValue::Index {
                base: base.clone(),
                index: index.clone(),
                span: e.span,
            }),
            _ => Err(KernelError::parse(
                "left-hand side of assignment must be a variable or buffer element",
                e.span,
            )),
        }
    }

    fn ternary(&mut self) -> Result<Expr, KernelError> {
        let cond = self.logical_or()?;
        if self.eat(&TokenKind::Question) {
            let then_expr = self.expression()?;
            self.expect(&TokenKind::Colon)?;
            let else_expr = self.ternary()?;
            let span = cond.span.to(else_expr.span);
            Ok(Expr::new(
                ExprKind::Ternary {
                    cond: Box::new(cond),
                    then_expr: Box::new(then_expr),
                    else_expr: Box::new(else_expr),
                },
                span,
            ))
        } else {
            Ok(cond)
        }
    }

    fn logical_or(&mut self) -> Result<Expr, KernelError> {
        let mut lhs = self.logical_and()?;
        while self.at(&TokenKind::OrOr) {
            let span = self.bump().span;
            let rhs = self.logical_and()?;
            lhs = binary(BinOp::Or, lhs, rhs, span);
        }
        Ok(lhs)
    }

    fn logical_and(&mut self) -> Result<Expr, KernelError> {
        let mut lhs = self.equality()?;
        while self.at(&TokenKind::AndAnd) {
            let span = self.bump().span;
            let rhs = self.equality()?;
            lhs = binary(BinOp::And, lhs, rhs, span);
        }
        Ok(lhs)
    }

    fn equality(&mut self) -> Result<Expr, KernelError> {
        let mut lhs = self.relational()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Eq => BinOp::Eq,
                TokenKind::Ne => BinOp::Ne,
                _ => break,
            };
            let span = self.bump().span;
            let rhs = self.relational()?;
            lhs = binary(op, lhs, rhs, span);
        }
        Ok(lhs)
    }

    fn relational(&mut self) -> Result<Expr, KernelError> {
        let mut lhs = self.additive()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Lt => BinOp::Lt,
                TokenKind::Le => BinOp::Le,
                TokenKind::Gt => BinOp::Gt,
                TokenKind::Ge => BinOp::Ge,
                _ => break,
            };
            let span = self.bump().span;
            let rhs = self.additive()?;
            lhs = binary(op, lhs, rhs, span);
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, KernelError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            let span = self.bump().span;
            let rhs = self.multiplicative()?;
            lhs = binary(op, lhs, rhs, span);
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, KernelError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Rem,
                _ => break,
            };
            let span = self.bump().span;
            let rhs = self.unary()?;
            lhs = binary(op, lhs, rhs, span);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, KernelError> {
        let span = self.peek().span;
        match self.peek_kind() {
            TokenKind::Minus => {
                self.bump();
                let operand = self.unary()?;
                Ok(Expr::new(
                    ExprKind::Unary {
                        op: UnOp::Neg,
                        operand: Box::new(operand),
                    },
                    span,
                ))
            }
            TokenKind::Not => {
                self.bump();
                let operand = self.unary()?;
                Ok(Expr::new(
                    ExprKind::Unary {
                        op: UnOp::Not,
                        operand: Box::new(operand),
                    },
                    span,
                ))
            }
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                let delta = if matches!(self.peek_kind(), TokenKind::PlusPlus) {
                    1
                } else {
                    -1
                };
                self.bump();
                let operand = self.unary()?;
                let target = Self::expr_to_lvalue(&operand)?;
                Ok(Expr::new(
                    ExprKind::IncDec {
                        target,
                        delta,
                        prefix: true,
                    },
                    span,
                ))
            }
            // Cast expression: `(float) expr`
            TokenKind::LParen
                if matches!(
                    self.peek2_kind(),
                    TokenKind::Keyword(
                        Keyword::Float
                            | Keyword::Double
                            | Keyword::Int
                            | Keyword::Uint
                            | Keyword::Bool
                    )
                ) =>
            {
                // Look ahead to distinguish `(float) x` from `(float_var + 1)`:
                // after the type keyword the next token must be `)`.
                if self.tokens.get(self.pos + 2).map(|t| &t.kind) == Some(&TokenKind::RParen) {
                    self.bump(); // (
                    let ty = self.scalar_type()?;
                    self.expect(&TokenKind::RParen)?;
                    let operand = self.unary()?;
                    Ok(Expr::new(
                        ExprKind::Cast {
                            ty,
                            operand: Box::new(operand),
                        },
                        span,
                    ))
                } else {
                    self.postfix()
                }
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, KernelError> {
        let mut expr = self.primary()?;
        loop {
            match self.peek_kind() {
                TokenKind::LBracket => {
                    let span = self.bump().span;
                    let index = self.expression()?;
                    self.expect(&TokenKind::RBracket)?;
                    let base = match &expr.kind {
                        ExprKind::Var(name) => name.clone(),
                        _ => {
                            return Err(KernelError::parse(
                                "only named buffers can be indexed",
                                expr.span,
                            ))
                        }
                    };
                    expr = Expr::new(
                        ExprKind::Index {
                            base,
                            index: Box::new(index),
                        },
                        span,
                    );
                }
                TokenKind::PlusPlus | TokenKind::MinusMinus => {
                    let delta = if matches!(self.peek_kind(), TokenKind::PlusPlus) {
                        1
                    } else {
                        -1
                    };
                    let span = self.bump().span;
                    let target = Self::expr_to_lvalue(&expr)?;
                    expr = Expr::new(
                        ExprKind::IncDec {
                            target,
                            delta,
                            prefix: false,
                        },
                        span,
                    );
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn primary(&mut self) -> Result<Expr, KernelError> {
        let t = self.bump();
        match t.kind {
            TokenKind::IntLit(v) => Ok(Expr::new(ExprKind::IntLit(v), t.span)),
            TokenKind::FloatLit(v) => Ok(Expr::new(ExprKind::FloatLit(v), t.span)),
            TokenKind::Keyword(Keyword::True) => Ok(Expr::new(ExprKind::BoolLit(true), t.span)),
            TokenKind::Keyword(Keyword::False) => Ok(Expr::new(ExprKind::BoolLit(false), t.span)),
            TokenKind::LParen => {
                let e = self.expression()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if self.at(&TokenKind::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at(&TokenKind::RParen) {
                        loop {
                            args.push(self.expression()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    Ok(Expr::new(
                        ExprKind::Call {
                            callee: name,
                            target: Callee::Unresolved,
                            args,
                        },
                        t.span,
                    ))
                } else {
                    Ok(Expr::new(ExprKind::Var(Name::new(name)), t.span))
                }
            }
            other => Err(KernelError::parse(
                format!("unexpected {other} in expression"),
                t.span,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Result<TranslationUnit, KernelError> {
        parse(&lex(src).unwrap(), src)
    }

    #[test]
    fn parse_udf_and_kernel() {
        let unit = parse_src(
            r#"
            float func(float x, float y, float a) { return a * x + y; }
            __kernel void zip(__global float* xs, __global float* ys,
                              __global float* out, int n, float a) {
                int gid = get_global_id(0);
                if (gid < n) { out[gid] = func(xs[gid], ys[gid], a); }
            }
        "#,
        )
        .unwrap();
        assert_eq!(unit.functions.len(), 2);
        assert!(!unit.functions[0].is_kernel);
        assert!(unit.functions[1].is_kernel);
        assert_eq!(unit.functions[1].params.len(), 5);
        assert!(unit.functions[1].params[0].ty.is_pointer());
        assert_eq!(
            unit.functions[1].params[3].ty,
            Type::Scalar(ScalarType::Int)
        );
    }

    #[test]
    fn parse_for_and_while_loops() {
        let unit = parse_src(
            r#"
            __kernel void loops(__global float* v, int n) {
                float acc = 0.0f;
                for (int i = 0; i < n; i++) { acc += v[i]; }
                int j = 0;
                while (j < n) { v[j] = acc; j = j + 1; }
            }
        "#,
        )
        .unwrap();
        let body = &unit.functions[0].body;
        assert_eq!(body.stmts.len(), 4);
        assert!(matches!(body.stmts[1], Stmt::For { .. }));
        assert!(matches!(body.stmts[3], Stmt::While { .. }));
    }

    #[test]
    fn parse_ternary_and_cast() {
        let unit = parse_src(
            r#"
            float clamp01(float x) { return x < 0.0f ? 0.0f : (x > 1.0f ? 1.0f : x); }
            __kernel void k(__global float* v, __global int* out, int n) {
                int i = get_global_id(0);
                if (i < n) { out[i] = (int) clamp01(v[i]); }
            }
        "#,
        )
        .unwrap();
        assert_eq!(unit.functions.len(), 2);
    }

    #[test]
    fn parse_single_statement_if_without_braces() {
        let unit = parse_src(
            r#"
            __kernel void k(__global float* c, __global float* f, int n) {
                int j = get_global_id(0);
                if (c[j] > 0.0f) f[j] = f[j] * c[j];
            }
        "#,
        )
        .unwrap();
        let body = &unit.functions[0].body;
        assert!(
            matches!(&body.stmts[1], Stmt::If { then_block, .. } if then_block.stmts.len() == 1)
        );
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_src("float f( { }").is_err());
        assert!(parse_src("void k() { 1 + ; }").is_err());
        assert!(parse_src("void k() { return 1 }").is_err());
        assert!(parse_src("void k() { 3 = x; }").is_err());
        assert!(parse_src("__global float f(float x) { return x; }").is_err());
    }

    #[test]
    fn parse_compound_assignment_and_incdec() {
        let unit = parse_src(
            r#"
            __kernel void k(__global float* v, int n) {
                for (int i = 0; i < n; ++i) { v[i] += 1.0f; v[i] *= 2.0f; }
            }
        "#,
        )
        .unwrap();
        assert_eq!(unit.functions.len(), 1);
    }
}
