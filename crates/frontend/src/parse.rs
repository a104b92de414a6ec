//! Recursive-descent parser for the OpenCL-C subset.
//!
//! [`parse`] builds every kernel; [`parse_selected`] builds the named ones
//! and skips the other bodies by brace matching, which is how a job that
//! launches one kernel of a source avoids parsing the rest. Each kernel's
//! signature is parsed either way, so the top level must be well formed for
//! any selection; but a syntax error inside a skipped body is not seen
//! (only a body that never closes is, as an error at the end of input).

use crate::ast::*;
use crate::lex::{Span, Tok, Token};

/// Parse failure with location.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub span: Span,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a token stream into a translation unit.
pub fn parse(tokens: &[Token]) -> Result<TranslationUnit, ParseError> {
    parse_kernels(tokens, |_| true)
}

/// [`parse`], keeping only the kernels `names` lists, in source order. Every
/// kernel's signature is parsed; the body of a kernel that is not named is
/// skipped by brace matching, so an error inside it goes unseen, while one
/// that never closes is still an error at the end of input. A name the
/// source does not define is not an error here: the unit just lacks it.
pub fn parse_selected(tokens: &[Token], names: &[&str]) -> Result<TranslationUnit, ParseError> {
    parse_kernels(tokens, |name| names.contains(&name))
}

fn parse_kernels(
    tokens: &[Token],
    keep: impl Fn(&str) -> bool,
) -> Result<TranslationUnit, ParseError> {
    let mut p = Parser { tokens, pos: 0 };
    let mut unit = TranslationUnit::default();
    let mut seen = false;
    while p.peek() != &Tok::Eof {
        if let Some(k) = p.kernel(&keep)? {
            unit.kernels.push(k);
        }
        seen = true;
    }
    if !seen {
        return Err(ParseError {
            message: "no __kernel definitions found".into(),
            span: Span::default(),
        });
    }
    Ok(unit)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        let i = (self.pos + 1).min(self.tokens.len() - 1);
        &self.tokens[i].tok
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> &Token {
        let t = &self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<Span, ParseError> {
        if self.peek() == t {
            Ok(self.bump().span)
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            message,
            span: self.span(),
        }
    }

    fn ident(&mut self) -> Result<(String, Span), ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                let span = self.bump().span;
                Ok((s, span))
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    // ---- declarations ---------------------------------------------------

    /// One kernel definition; `None` when `keep` rejects its name, after
    /// the body has been skipped.
    fn kernel(&mut self, keep: impl Fn(&str) -> bool) -> Result<Option<KernelDef>, ParseError> {
        let start = self.expect(&Tok::Kernel)?;
        self.expect(&Tok::Void)?;
        let (name, _) = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                params.push(self.param()?);
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(&Tok::Comma)?;
            }
        }
        self.expect(&Tok::LBrace)?;
        if !keep(&name) {
            self.skip_block_body()?;
            return Ok(None);
        }
        let body = self.block_body()?;
        let end = self.span();
        Ok(Some(KernelDef {
            name,
            params,
            body,
            span: Span::new(start.start, end.end),
        }))
    }

    /// Skip to just past the `}` that closes the block whose `{` was the
    /// last token consumed.
    fn skip_block_body(&mut self) -> Result<(), ParseError> {
        let mut depth = 1usize;
        loop {
            match self.peek() {
                Tok::LBrace => depth += 1,
                Tok::RBrace => depth -= 1,
                Tok::Eof => return Err(self.err("unexpected end of input inside a block".into())),
                _ => {}
            }
            self.bump();
            if depth == 0 {
                return Ok(());
            }
        }
    }

    fn param(&mut self) -> Result<ParamDecl, ParseError> {
        let start = self.span();
        let mut space = None;
        loop {
            match self.peek() {
                Tok::Global => {
                    self.bump();
                    space = Some(PtrSpace::Global);
                }
                Tok::Local => {
                    self.bump();
                    space = Some(PtrSpace::Local);
                }
                Tok::Const => {
                    self.bump();
                }
                _ => break,
            }
        }
        let ty = self.type_name()?;
        self.eat(&Tok::Const);
        let pointer = if self.eat(&Tok::Star) {
            self.eat(&Tok::Const);
            // Extra `*` (e.g. `float**`) is outside the subset.
            if self.peek() == &Tok::Star {
                return Err(self.err("multi-level pointers are not supported".into()));
            }
            Some(space.unwrap_or(PtrSpace::Global))
        } else {
            if space.is_some() {
                return Err(self.err("address-space qualifier on a non-pointer parameter".into()));
            }
            None
        };
        let (name, end) = self.ident()?;
        Ok(ParamDecl {
            name,
            ty,
            pointer,
            span: Span::new(start.start, end.end),
        })
    }

    fn type_name(&mut self) -> Result<TypeName, ParseError> {
        let t = match self.peek() {
            Tok::Int => TypeName::Int,
            Tok::Uint => TypeName::Uint,
            Tok::Float => TypeName::Float,
            Tok::BoolKw => TypeName::Bool,
            other => return Err(self.err(format!("expected a type name, found {other}"))),
        };
        self.bump();
        // `unsigned int` collapses to uint.
        if t == TypeName::Uint && matches!(self.peek(), Tok::Int) {
            self.bump();
        }
        Ok(t)
    }

    fn starts_type(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Int | Tok::Uint | Tok::Float | Tok::BoolKw | Tok::Local | Tok::Const
        )
    }

    // ---- statements ------------------------------------------------------

    fn block_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut stmts = Vec::new();
        while !self.eat(&Tok::RBrace) {
            if self.peek() == &Tok::Eof {
                return Err(self.err("unexpected end of input inside a block".into()));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        match self.peek() {
            Tok::LBrace => {
                self.bump();
                Ok(Stmt::Block(self.block_body()?))
            }
            Tok::If => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let then_body = self.stmt_as_block()?;
                let else_body = if self.eat(&Tok::Else) {
                    self.stmt_as_block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    span,
                })
            }
            Tok::For => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let init = if self.eat(&Tok::Semi) {
                    None
                } else if self.starts_type() {
                    Some(Box::new(self.decl_stmt()?))
                } else {
                    let e = self.expr()?;
                    self.expect(&Tok::Semi)?;
                    Some(Box::new(Stmt::Expr(e)))
                };
                let cond = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                let step = if self.peek() == &Tok::RParen {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::RParen)?;
                let body = self.stmt_as_block()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    span,
                })
            }
            Tok::While => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let body = self.stmt_as_block()?;
                Ok(Stmt::While { cond, body, span })
            }
            Tok::Do => {
                self.bump();
                let body = self.stmt_as_block()?;
                self.expect(&Tok::While)?;
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::DoWhile { body, cond, span })
            }
            Tok::Return => {
                self.bump();
                if self.peek() != &Tok::Semi {
                    return Err(self.err("kernels are void; `return <expr>` not allowed".into()));
                }
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Return(span))
            }
            Tok::Break => {
                self.bump();
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Break(span))
            }
            Tok::Continue => {
                self.bump();
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Continue(span))
            }
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Block(Vec::new()))
            }
            _ if self.starts_type() => self.decl_stmt(),
            Tok::Ident(name) if name == "barrier" && self.peek2() == &Tok::LParen => {
                // barrier(CLK_LOCAL_MEM_FENCE | CLK_GLOBAL_MEM_FENCE): the
                // flags are parsed and ignored (the interpreter's barrier is
                // a full fence).
                self.bump();
                self.bump();
                let mut depth = 1;
                while depth > 0 {
                    match self.bump().tok {
                        Tok::LParen => depth += 1,
                        Tok::RParen => depth -= 1,
                        Tok::Eof => {
                            return Err(self.err("unterminated barrier(...)".into()));
                        }
                        _ => {}
                    }
                }
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Barrier(span))
            }
            _ => {
                let e = self.expr()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn stmt_as_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if self.eat(&Tok::LBrace) {
            self.block_body()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    /// `int x = e, y;` or `__local float tile[4][4];`
    fn decl_stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        let is_local = self.eat(&Tok::Local);
        self.eat(&Tok::Const);
        let ty = self.type_name()?;
        self.eat(&Tok::Const);
        if is_local {
            let (name, _) = self.ident()?;
            let mut dims = Vec::new();
            while self.eat(&Tok::LBracket) {
                match self.peek().clone() {
                    Tok::IntLit(v) if v > 0 => {
                        self.bump();
                        dims.push(v as u32);
                    }
                    // Constant-folded parenthesized dims like `(16)` from
                    // macro expansion.
                    Tok::LParen => {
                        self.bump();
                        match self.peek().clone() {
                            Tok::IntLit(v) if v > 0 => {
                                self.bump();
                                dims.push(v as u32);
                            }
                            other => {
                                return Err(self.err(format!(
                                    "__local array dimension must be a positive integer constant, found {other}"
                                )))
                            }
                        }
                        self.expect(&Tok::RParen)?;
                    }
                    other => {
                        return Err(self.err(format!(
                            "__local array dimension must be a positive integer constant, found {other}"
                        )))
                    }
                }
                self.expect(&Tok::RBracket)?;
            }
            if dims.is_empty() {
                return Err(self.err("__local declarations must be arrays in the subset".into()));
            }
            self.expect(&Tok::Semi)?;
            return Ok(Stmt::DeclLocalArray {
                ty,
                name,
                dims,
                span,
            });
        }
        let mut decls = Vec::new();
        loop {
            let (name, _) = self.ident()?;
            let init = if self.eat(&Tok::Assign) {
                Some(self.assign_expr()?)
            } else {
                None
            };
            decls.push((name, init));
            if self.eat(&Tok::Semi) {
                break;
            }
            self.expect(&Tok::Comma)?;
        }
        Ok(Stmt::DeclScalar { ty, decls, span })
    }

    // ---- expressions ------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.assign_expr()
    }

    fn assign_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.ternary_expr()?;
        let op = match self.peek() {
            Tok::Assign => None,
            Tok::PlusAssign => Some(AstBinOp::Add),
            Tok::MinusAssign => Some(AstBinOp::Sub),
            Tok::StarAssign => Some(AstBinOp::Mul),
            Tok::SlashAssign => Some(AstBinOp::Div),
            Tok::PercentAssign => Some(AstBinOp::Rem),
            Tok::AmpAssign => Some(AstBinOp::And),
            Tok::PipeAssign => Some(AstBinOp::Or),
            Tok::CaretAssign => Some(AstBinOp::Xor),
            Tok::ShlAssign => Some(AstBinOp::Shl),
            Tok::ShrAssign => Some(AstBinOp::Shr),
            _ => return Ok(lhs),
        };
        let span = self.bump().span;
        let value = self.assign_expr()?;
        Ok(Expr::Assign {
            target: Box::new(lhs),
            op,
            value: Box::new(value),
            span,
        })
    }

    fn ternary_expr(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary_expr(0)?;
        if self.peek() == &Tok::Question {
            let span = self.bump().span;
            let then_e = self.expr()?;
            self.expect(&Tok::Colon)?;
            let else_e = self.ternary_expr()?;
            return Ok(Expr::Ternary {
                cond: Box::new(cond),
                then_e: Box::new(then_e),
                else_e: Box::new(else_e),
                span,
            });
        }
        Ok(cond)
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let (op, prec) = match self.peek() {
                Tok::OrOr => (AstBinOp::LogOr, 1),
                Tok::AndAnd => (AstBinOp::LogAnd, 2),
                Tok::Pipe => (AstBinOp::Or, 3),
                Tok::Caret => (AstBinOp::Xor, 4),
                Tok::Amp => (AstBinOp::And, 5),
                Tok::EqEq => (AstBinOp::Eq, 6),
                Tok::NotEq => (AstBinOp::Ne, 6),
                Tok::Lt => (AstBinOp::Lt, 7),
                Tok::Le => (AstBinOp::Le, 7),
                Tok::Gt => (AstBinOp::Gt, 7),
                Tok::Ge => (AstBinOp::Ge, 7),
                Tok::Shl => (AstBinOp::Shl, 8),
                Tok::Shr => (AstBinOp::Shr, 8),
                Tok::Plus => (AstBinOp::Add, 9),
                Tok::Minus => (AstBinOp::Sub, 9),
                Tok::Star => (AstBinOp::Mul, 10),
                Tok::Slash => (AstBinOp::Div, 10),
                Tok::Percent => (AstBinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let span = self.bump().span;
            let rhs = self.binary_expr(prec + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        let span = self.span();
        match self.peek() {
            Tok::Minus => {
                self.bump();
                Ok(Expr::Unary {
                    op: AstUnOp::Neg,
                    expr: Box::new(self.unary_expr()?),
                    span,
                })
            }
            Tok::Tilde => {
                self.bump();
                Ok(Expr::Unary {
                    op: AstUnOp::BitNot,
                    expr: Box::new(self.unary_expr()?),
                    span,
                })
            }
            Tok::Bang => {
                self.bump();
                Ok(Expr::Unary {
                    op: AstUnOp::LogNot,
                    expr: Box::new(self.unary_expr()?),
                    span,
                })
            }
            Tok::Plus => {
                self.bump();
                self.unary_expr()
            }
            Tok::Amp => {
                self.bump();
                Ok(Expr::AddrOf(Box::new(self.unary_expr()?), span))
            }
            Tok::PlusPlus | Tok::MinusMinus => {
                let inc = self.peek() == &Tok::PlusPlus;
                self.bump();
                let target = self.unary_expr()?;
                Ok(Expr::IncDec {
                    target: Box::new(target),
                    inc,
                    post: false,
                    span,
                })
            }
            // Cast: `(type) expr`.
            Tok::LParen
                if matches!(
                    self.peek2(),
                    Tok::Int | Tok::Uint | Tok::Float | Tok::BoolKw
                ) =>
            {
                self.bump();
                let ty = self.type_name()?;
                self.expect(&Tok::RParen)?;
                Ok(Expr::Cast {
                    ty,
                    expr: Box::new(self.unary_expr()?),
                    span,
                })
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary_expr()?;
        loop {
            let span = self.span();
            match self.peek() {
                Tok::LBracket => {
                    let mut indices = Vec::new();
                    while self.eat(&Tok::LBracket) {
                        indices.push(self.expr()?);
                        self.expect(&Tok::RBracket)?;
                    }
                    e = Expr::Index {
                        base: Box::new(e),
                        indices,
                        span,
                    };
                }
                Tok::PlusPlus | Tok::MinusMinus => {
                    let inc = self.peek() == &Tok::PlusPlus;
                    self.bump();
                    e = Expr::IncDec {
                        target: Box::new(e),
                        inc,
                        post: true,
                        span,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        let span = self.span();
        match self.peek().clone() {
            Tok::IntLit(v) => {
                self.bump();
                Ok(Expr::IntLit(v, span))
            }
            Tok::FloatLit(v) => {
                self.bump();
                Ok(Expr::FloatLit(v, span))
            }
            Tok::True => {
                self.bump();
                Ok(Expr::BoolLit(true, span))
            }
            Tok::False => {
                self.bump();
                Ok(Expr::BoolLit(false, span))
            }
            Tok::StrLit(s) => {
                self.bump();
                Ok(Expr::Str(s, span))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.bump();
                if self.eat(&Tok::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat(&Tok::RParen) {
                                break;
                            }
                            self.expect(&Tok::Comma)?;
                        }
                    }
                    Ok(Expr::Call { name, args, span })
                } else {
                    Ok(Expr::Ident(name, span))
                }
            }
            other => Err(self.err(format!("expected an expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parse_src(src: &str) -> TranslationUnit {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_vecadd() {
        let unit = parse_src(
            "__kernel void vecadd(__global const float* a, __global float* b, __global float* c) {
                int i = get_global_id(0);
                c[i] = a[i] + b[i];
            }",
        );
        assert_eq!(unit.kernels.len(), 1);
        let k = &unit.kernels[0];
        assert_eq!(k.name, "vecadd");
        assert_eq!(k.params.len(), 3);
        assert_eq!(k.params[0].pointer, Some(PtrSpace::Global));
        assert_eq!(k.body.len(), 2);
    }

    #[test]
    fn parses_control_flow() {
        let unit = parse_src(
            "__kernel void k(__global int* a, int n) {
                for (int i = 0; i < n; i++) {
                    if (a[i] > 0) { a[i] -= 1; } else a[i] = 0;
                }
                while (n > 0) { n--; }
                do { n++; } while (n < 4);
            }",
        );
        let body = &unit.kernels[0].body;
        assert!(matches!(body[0], Stmt::For { .. }));
        assert!(matches!(body[1], Stmt::While { .. }));
        assert!(matches!(body[2], Stmt::DoWhile { .. }));
    }

    #[test]
    fn parses_local_array_decl() {
        let unit = parse_src(
            "__kernel void k() {
                __local float tile[16][16];
                barrier(CLK_LOCAL_MEM_FENCE);
            }",
        );
        match &unit.kernels[0].body[0] {
            Stmt::DeclLocalArray { name, dims, .. } => {
                assert_eq!(name, "tile");
                assert_eq!(dims, &[16, 16]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(unit.kernels[0].body[1], Stmt::Barrier(_)));
    }

    #[test]
    fn precedence_mul_over_add() {
        let unit = parse_src(
            "__kernel void k(int a, int b, int c, __global int* o) { o[0] = a + b * c; }",
        );
        match &unit.kernels[0].body[0] {
            Stmt::Expr(Expr::Assign { value, .. }) => match value.as_ref() {
                Expr::Binary {
                    op: AstBinOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(
                        rhs.as_ref(),
                        Expr::Binary {
                            op: AstBinOp::Mul,
                            ..
                        }
                    ));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_atomic_addr_of() {
        let unit = parse_src(
            "__kernel void k(__global int* h) { atomic_add(&h[get_global_id(0) % 16], 1); }",
        );
        match &unit.kernels[0].body[0] {
            Stmt::Expr(Expr::Call { name, args, .. }) => {
                assert_eq!(name, "atomic_add");
                assert!(matches!(args[0], Expr::AddrOf(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_cast_and_ternary() {
        let unit = parse_src(
            "__kernel void k(__global float* o, int n) { o[0] = (float)n > 0.5f ? 1.0f : 2.0f; }",
        );
        match &unit.kernels[0].body[0] {
            Stmt::Expr(Expr::Assign { value, .. }) => {
                assert!(matches!(value.as_ref(), Expr::Ternary { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_value_return() {
        let toks = lex("__kernel void k() { return 3; }").unwrap();
        let e = parse(&toks).unwrap_err();
        assert!(e.message.contains("void"), "{e}");
    }

    #[test]
    fn rejects_empty_unit() {
        let toks = lex("").unwrap();
        assert!(parse(&toks).is_err());
    }

    #[test]
    fn parses_multiple_kernels() {
        let unit =
            parse_src("__kernel void a() { } __kernel void b(__global float* x) { x[0] = 1.0f; }");
        assert_eq!(unit.kernels.len(), 2);
        assert_eq!(unit.kernels[1].name, "b");
    }

    #[test]
    fn parses_inc_dec_forms() {
        let unit =
            parse_src("__kernel void k(__global int* a) { int i = 0; i++; ++i; a[i--] = i; }");
        assert_eq!(unit.kernels[0].body.len(), 4);
    }

    #[test]
    fn local_pointer_param() {
        let unit = parse_src("__kernel void k(__local float* tile) { tile[0] = 0.0f; }");
        assert_eq!(unit.kernels[0].params[0].pointer, Some(PtrSpace::Local));
    }

    #[test]
    fn error_reports_unexpected_token() {
        let toks = lex("__kernel void k( { }").unwrap();
        let e = parse(&toks).unwrap_err();
        assert!(e.message.contains("expected"), "{e}");
    }

    /// Three kernels whose bodies nest blocks three deep.
    const NESTED: &str = "
        __kernel void a(__global int* d, int n) {
            for (int i = 0; i < n; i++) { if (d[i] > 0) { { d[i] -= 1; } } else { d[i] = 0; } }
        }
        __kernel void b(__global float* x) { { x[0] = 1.0f; } x[1] = 2.0f; }
        __kernel void c(__global int* d) { while (d[0] < 9) { d[0] += 1; } }";

    #[test]
    fn parse_selected_of_every_name_is_parse() {
        let toks = lex(NESTED).unwrap();
        let whole = parse(&toks).unwrap();
        assert_eq!(parse_selected(&toks, &["c", "a", "b"]).unwrap(), whole);
        // Each one-kernel selection is that kernel of the whole unit, spans
        // included, wherever it sits among skipped bodies.
        for (i, name) in ["a", "b", "c"].into_iter().enumerate() {
            let part = parse_selected(&toks, &[name]).unwrap();
            assert_eq!(part.kernels, whole.kernels[i..=i], "{name}");
        }
        let none = parse_selected(&toks, &["zz"]).unwrap();
        assert!(none.kernels.is_empty());
    }

    #[test]
    fn a_skipped_body_hides_its_errors_but_not_an_unclosed_brace() {
        let bad_body = "__kernel void a(__global int* d) { d[0] = ; { } }
                        __kernel void b(__global int* d) { d[0] = 1; }";
        let toks = lex(bad_body).unwrap();
        assert!(parse(&toks).is_err());
        let unit = parse_selected(&toks, &["b"]).unwrap();
        assert_eq!(unit.kernels.len(), 1);
        assert!(parse_selected(&toks, &["a"]).is_err());

        let unclosed = "__kernel void a(__global int* d) { if (d[0]) { d[0] = 1; }
                        __kernel void b(__global int* d) { d[0] = 1; }";
        let toks = lex(unclosed).unwrap();
        let e = parse_selected(&toks, &["b"]).unwrap_err();
        assert_eq!(e.message, "unexpected end of input inside a block");
        assert_eq!(
            e.span,
            toks.last().unwrap().span,
            "reported at the end of input"
        );

        // The signatures are parsed for any selection.
        let bad_sig = "__kernel void a(__global int* d { }  __kernel void b() { }";
        assert!(parse_selected(&lex(bad_sig).unwrap(), &["b"]).is_err());
        let no_kernels = lex("").unwrap();
        assert!(parse_selected(&no_kernels, &["b"]).is_err());
    }
}
