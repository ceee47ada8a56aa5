//! Abstract syntax tree of the kernel language.
//!
//! The parser builds the tree; [`crate::sema::check`] then records in it
//! what every later stage reads: each expression's scalar type
//! ([`Expr::ty`]), each name's slot in its function's frame ([`Name::slot`]),
//! each call's target ([`Callee`]) and each function's frame layout
//! ([`Function::locals`]). The interpreter walks the checked tree, and the
//! native tier compiles it.

use crate::builtins::Builtin;
use crate::token::Span;
use crate::types::{ScalarType, Type};

/// A whole translation unit: a list of function definitions, where at least
/// one is usually a `__kernel` entry point.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TranslationUnit {
    /// All function definitions in declaration order.
    pub functions: Vec<Function>,
}

impl TranslationUnit {
    /// Find a function definition by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// `true` if declared with the `__kernel` qualifier.
    pub is_kernel: bool,
    /// Declared return type.
    pub return_type: Type,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Body block.
    pub body: Block,
    /// Source location of the function header.
    pub span: Span,
    /// The frame layout, filled in by [`crate::sema::check`]: the type of
    /// every slot, the parameters first (slot `k` is parameter `k`), then
    /// one slot per local declaration in source order.
    pub locals: Vec<Type>,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
    /// Source location.
    pub span: Span,
}

/// A variable or buffer name as written, with the frame slot
/// [`crate::sema::check`] resolved it to (0 until then).
#[derive(Debug, Clone, PartialEq)]
pub struct Name {
    /// The identifier.
    pub name: String,
    /// Index into the enclosing function's [`Function::locals`].
    pub slot: usize,
}

impl Name {
    /// An unresolved name.
    pub fn new(name: String) -> Name {
        Name { name, slot: 0 }
    }
}

/// What a call's name refers to, as [`crate::sema::check`] resolved it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callee {
    /// Not checked yet.
    Unresolved,
    /// A builtin function.
    Builtin(Builtin),
    /// The user function at this index of [`TranslationUnit::functions`].
    Function(usize),
}

/// A `{ ... }` block of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// The statements of the block, in order.
    pub stmts: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A local variable declaration: `float x = e;` (initialiser optional).
    Decl {
        /// Declared scalar type.
        ty: ScalarType,
        /// Variable name and slot.
        name: Name,
        /// Optional initialiser.
        init: Option<Expr>,
        /// Source location.
        span: Span,
    },
    /// An expression statement (assignment, call, increment, ...).
    Expr(Expr),
    /// `if (cond) then else alt`.
    If {
        /// Condition.
        cond: Expr,
        /// Taken when the condition is true.
        then_block: Block,
        /// Taken when the condition is false (may be empty).
        else_block: Block,
    },
    /// `for (init; cond; step) body`.
    For {
        /// Loop initialiser (declaration or expression); may be absent.
        init: Option<Box<Stmt>>,
        /// Loop condition; absent means "true".
        cond: Option<Expr>,
        /// Step expression run after each iteration.
        step: Option<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `while (cond) body`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `return e;` (expression absent for `void` functions).
    Return(Option<Expr>, Span),
    /// `break;`
    Break(Span),
    /// `continue;`
    Continue(Span),
    /// A nested block.
    Block(Block),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// Whether this operator produces a boolean result.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::And
                | BinOp::Or
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Logical not `!x`.
    Not,
}

/// Assignment flavours (`=`, `+=`, `-=`, `*=`, `/=`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    Assign,
    AddAssign,
    SubAssign,
    MulAssign,
    DivAssign,
}

/// The target of an assignment or increment.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A named local variable or scalar parameter.
    Var(Name, Span),
    /// An indexed global buffer: `buf[idx]`.
    Index {
        /// Buffer (pointer parameter) name and slot.
        base: Name,
        /// Index expression.
        index: Box<Expr>,
        /// Source location.
        span: Span,
    },
}

impl LValue {
    /// Source location of the lvalue.
    pub fn span(&self) -> Span {
        match self {
            LValue::Var(_, s) => *s,
            LValue::Index { span, .. } => *span,
        }
    }
}

/// An expression: what it computes, where it was written, and the scalar
/// type of its value.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The operation.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
    /// The type of the value, recorded by [`crate::sema::check`] (`int` in
    /// an unchecked tree). The interpreter's values carry exactly this type,
    /// which it asserts in debug builds; the native tier allocates its
    /// registers by it.
    pub ty: ScalarType,
}

impl Expr {
    /// An unchecked expression.
    pub fn new(kind: ExprKind, span: Span) -> Expr {
        Expr {
            kind,
            span,
            ty: ScalarType::Int,
        }
    }

    /// Call `f` on this expression and every expression nested in it,
    /// parents first (buffer indices of assignment targets included).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match &self.kind {
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::Var(_) => {}
            ExprKind::Index { index, .. } => index.walk(f),
            ExprKind::Unary { operand, .. } | ExprKind::Cast { operand, .. } => operand.walk(f),
            ExprKind::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            ExprKind::Call { args, .. } => args.iter().for_each(|a| a.walk(f)),
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                cond.walk(f);
                then_expr.walk(f);
                else_expr.walk(f);
            }
            ExprKind::Assign { target, value, .. } => {
                if let LValue::Index { index, .. } = target {
                    index.walk(f);
                }
                value.walk(f);
            }
            ExprKind::IncDec { target, .. } => {
                if let LValue::Index { index, .. } = target {
                    index.walk(f);
                }
            }
        }
    }
}

impl Block {
    /// Call `f` on every expression of the block's statements, nested
    /// blocks included (see [`Expr::walk`]).
    pub fn walk_exprs(&self, f: &mut impl FnMut(&Expr)) {
        self.stmts.iter().for_each(|s| s.walk_exprs(f));
    }
}

impl Stmt {
    /// Call `f` on every expression of the statement (see [`Expr::walk`]).
    pub fn walk_exprs(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Stmt::Decl { init, .. } => init.iter().for_each(|e| e.walk(f)),
            Stmt::Expr(e) => e.walk(f),
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                cond.walk(f);
                then_block.walk_exprs(f);
                else_block.walk_exprs(f);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                init.iter().for_each(|s| s.walk_exprs(f));
                cond.iter().chain(step).for_each(|e| e.walk(f));
                body.walk_exprs(f);
            }
            Stmt::While { cond, body } => {
                cond.walk(f);
                body.walk_exprs(f);
            }
            Stmt::Return(e, _) => e.iter().for_each(|e| e.walk(f)),
            Stmt::Break(_) | Stmt::Continue(_) => {}
            Stmt::Block(b) => b.walk_exprs(f),
        }
    }
}

/// What an expression computes.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Boolean literal.
    BoolLit(bool),
    /// Variable reference.
    Var(Name),
    /// Buffer element read: `buf[idx]`.
    Index {
        /// Buffer (pointer parameter) name and slot.
        base: Name,
        /// Index expression.
        index: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Function or builtin call.
    Call {
        /// Callee name.
        callee: String,
        /// What `callee` refers to.
        target: Callee,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Ternary conditional `c ? a : b`; its value is the taken arm's,
    /// converted to the expression's type.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then_expr: Box<Expr>,
        /// Value when false.
        else_expr: Box<Expr>,
    },
    /// Assignment; as an expression its value is the stored value, converted
    /// to the target's type.
    Assign {
        /// Assignment flavour.
        op: AssignOp,
        /// Target.
        target: LValue,
        /// Right-hand side.
        value: Box<Expr>,
    },
    /// Pre/post increment or decrement (`++i`, `i++`, `--i`, `i--`).
    IncDec {
        /// Target.
        target: LValue,
        /// +1 or -1.
        delta: i32,
        /// `true` for prefix form (value is the stored value).
        prefix: bool,
    },
    /// Explicit cast `(float) x`.
    Cast {
        /// Target scalar type.
        ty: ScalarType,
        /// Operand.
        operand: Box<Expr>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_comparison_predicate() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::And.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(!BinOp::Rem.is_comparison());
    }

    #[test]
    fn unit_function_lookup() {
        let f = Function {
            name: "f".into(),
            is_kernel: true,
            return_type: Type::Void,
            params: vec![],
            body: Block::default(),
            span: Span::default(),
            locals: vec![],
        };
        let unit = TranslationUnit { functions: vec![f] };
        assert!(unit.function("f").is_some());
        assert!(unit.function("g").is_none());
    }
}
