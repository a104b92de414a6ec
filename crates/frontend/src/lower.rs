//! AST → IR lowering with type checking.
//!
//! Implements the "Kernel Compiler" stage of the paper's Figure 2: the same
//! lowering feeds both the HLS back end and the Vortex back end.

use crate::ast::*;
use crate::lex::Span;
use ocl_ir::{
    AddressSpace, AtomicOp, BinOp, Builtin, CmpOp, Function, FunctionBuilder, LoadHint,
    LocalArrayId, Module, Operand, Param, Scalar, Type, UnOp, VReg,
};
use rustc_hash::FxHashMap;

/// Semantic / lowering failure.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError {
    pub message: String,
    pub span: Span,
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "semantic error: {}", self.message)
    }
}

impl std::error::Error for LowerError {}

/// Lower a parsed translation unit to an IR module.
pub fn lower(unit: &TranslationUnit) -> Result<Module, LowerError> {
    let mut kernels = Vec::with_capacity(unit.kernels.len());
    for k in &unit.kernels {
        kernels.push(lower_kernel(k)?);
    }
    Ok(Module { kernels })
}

fn scalar_of(t: TypeName) -> Scalar {
    match t {
        TypeName::Int => Scalar::I32,
        TypeName::Uint => Scalar::U32,
        TypeName::Float => Scalar::F32,
        TypeName::Bool => Scalar::Bool,
    }
}

/// Lowering-time type: a scalar value or a pointer with known element type.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LTy {
    S(Scalar),
    P(AddressSpace, Scalar),
}

/// A typed value.
#[derive(Debug, Clone, Copy)]
struct TV {
    op: Operand,
    ty: LTy,
}

/// An assignable place.
enum Place {
    Var(VReg, Scalar),
    Mem {
        ptr: Operand,
        elem: Scalar,
        space: AddressSpace,
    },
}

#[derive(Debug, Clone)]
enum Symbol {
    Scalar(VReg, Scalar),
    Ptr(VReg, AddressSpace, Scalar),
    LocalArray(LocalArrayId, Scalar, Vec<u32>),
}

struct Lowerer {
    b: FunctionBuilder,
    scopes: Vec<FxHashMap<String, Symbol>>,
    /// (continue target, break target) per enclosing loop.
    loops: Vec<(ocl_ir::BlockId, ocl_ir::BlockId)>,
    /// Bytes of the `__local` arrays declared so far.
    local_bytes: u64,
}

/// Most elements one `__local` array may have.
const MAX_LOCAL_ELEMS: u64 = 1 << 24;
/// Most bytes a kernel's `__local` arrays may take together: one array at
/// the element cap. Keeps every later `u32` sum of local sizes and offsets
/// (`Function::local_bytes`, the interpreter's and `vortex-cc`'s layouts)
/// from wrapping.
const MAX_LOCAL_BYTES: u64 = MAX_LOCAL_ELEMS * 4;

fn err(message: impl Into<String>, span: Span) -> LowerError {
    LowerError {
        message: message.into(),
        span,
    }
}

fn lower_kernel(k: &KernelDef) -> Result<Function, LowerError> {
    let params: Vec<Param> = k
        .params
        .iter()
        .map(|p| Param {
            name: p.name.clone(),
            ty: match p.pointer {
                Some(PtrSpace::Global) => Type::Ptr(AddressSpace::Global),
                Some(PtrSpace::Local) => Type::Ptr(AddressSpace::Local),
                None => Type::Scalar(scalar_of(p.ty)),
            },
        })
        .collect();
    let mut lw = Lowerer {
        b: FunctionBuilder::new(k.name.clone(), params),
        scopes: vec![FxHashMap::default()],
        loops: Vec::new(),
        local_bytes: 0,
    };
    for (i, p) in k.params.iter().enumerate() {
        let reg = lw.b.param(i);
        let sym = match p.pointer {
            Some(PtrSpace::Global) => Symbol::Ptr(reg, AddressSpace::Global, scalar_of(p.ty)),
            Some(PtrSpace::Local) => Symbol::Ptr(reg, AddressSpace::Local, scalar_of(p.ty)),
            None => Symbol::Scalar(reg, scalar_of(p.ty)),
        };
        if lw.scopes[0].insert(p.name.clone(), sym).is_some() {
            return Err(err(format!("duplicate parameter `{}`", p.name), p.span));
        }
    }
    lw.stmts(&k.body)?;
    if !lw.b.is_terminated() {
        lw.b.ret();
    }
    Ok(lw.b.finish())
}

impl Lowerer {
    fn lookup(&self, name: &str, span: Span) -> Result<Symbol, LowerError> {
        for scope in self.scopes.iter().rev() {
            if let Some(s) = scope.get(name) {
                return Ok(s.clone());
            }
        }
        Err(err(format!("undefined identifier `{name}`"), span))
    }

    fn declare(&mut self, name: &str, sym: Symbol, span: Span) -> Result<(), LowerError> {
        let scope = self.scopes.last_mut().expect("at least one scope");
        if scope.insert(name.to_string(), sym).is_some() {
            return Err(err(
                format!("`{name}` already declared in this scope"),
                span,
            ));
        }
        Ok(())
    }

    // ---- statements -----------------------------------------------------

    fn stmts(&mut self, body: &[Stmt]) -> Result<(), LowerError> {
        for s in body {
            if self.b.is_terminated() {
                // Unreachable code after return/break/continue: park it in a
                // fresh block so lowering stays well-formed (DCE later).
                let dead = self.b.new_block();
                self.b.switch_to(dead);
            }
            self.stmt(s)?;
        }
        Ok(())
    }

    fn scoped_stmts(&mut self, body: &[Stmt]) -> Result<(), LowerError> {
        self.scopes.push(FxHashMap::default());
        let r = self.stmts(body);
        self.scopes.pop();
        r
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), LowerError> {
        match s {
            Stmt::DeclScalar { ty, decls, span } => {
                let sc = scalar_of(*ty);
                for (name, init) in decls {
                    let reg = self.b.fresh(sc);
                    let value = match init {
                        Some(e) => {
                            let tv = self.rvalue(e)?;
                            self.coerce(tv, sc, e.span())?
                        }
                        None => Operand::Const(zero_of(sc)),
                    };
                    self.b.assign(reg, sc, value);
                    self.declare(name, Symbol::Scalar(reg, sc), *span)?;
                }
                Ok(())
            }
            Stmt::DeclLocalArray {
                ty,
                name,
                dims,
                span,
            } => {
                let sc = scalar_of(*ty);
                let len: u64 = dims.iter().map(|&d| d as u64).product();
                if len == 0 || len > MAX_LOCAL_ELEMS {
                    return Err(err(
                        format!("__local array `{name}` has unreasonable size {len}"),
                        *span,
                    ));
                }
                self.local_bytes += len * sc.bytes() as u64;
                if self.local_bytes > MAX_LOCAL_BYTES {
                    return Err(err(
                        format!(
                            "__local arrays up to `{name}` take {} bytes, over the {MAX_LOCAL_BYTES}-byte limit",
                            self.local_bytes
                        ),
                        *span,
                    ));
                }
                let id = self.b.local_array(name.clone(), sc, len as u32);
                self.declare(name, Symbol::LocalArray(id, sc, dims.clone()), *span)
            }
            Stmt::Expr(e) => {
                self.rvalue_or_void(e)?;
                Ok(())
            }
            Stmt::Block(body) => self.scoped_stmts(body),
            Stmt::Return(_) => {
                self.b.ret();
                Ok(())
            }
            Stmt::Barrier(_) => {
                self.b.barrier();
                Ok(())
            }
            Stmt::Break(span) => {
                let (_, brk) = *self
                    .loops
                    .last()
                    .ok_or_else(|| err("`break` outside a loop", *span))?;
                self.b.br(brk);
                Ok(())
            }
            Stmt::Continue(span) => {
                let (cont, _) = *self
                    .loops
                    .last()
                    .ok_or_else(|| err("`continue` outside a loop", *span))?;
                self.b.br(cont);
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let c = self.condition(cond)?;
                let then_bb = self.b.new_block();
                let join_bb = self.b.new_block();
                let else_bb = if else_body.is_empty() {
                    join_bb
                } else {
                    self.b.new_block()
                };
                self.b.cond_br(c, then_bb, else_bb);
                self.b.switch_to(then_bb);
                self.scoped_stmts(then_body)?;
                if !self.b.is_terminated() {
                    self.b.br(join_bb);
                }
                if !else_body.is_empty() {
                    self.b.switch_to(else_bb);
                    self.scoped_stmts(else_body)?;
                    if !self.b.is_terminated() {
                        self.b.br(join_bb);
                    }
                }
                self.b.switch_to(join_bb);
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.scopes.push(FxHashMap::default());
                if let Some(init) = init {
                    self.stmt(init)?;
                }
                let head = self.b.new_block();
                let body_bb = self.b.new_block();
                let step_bb = self.b.new_block();
                let exit = self.b.new_block();
                self.b.br(head);
                self.b.switch_to(head);
                match cond {
                    Some(c) => {
                        let cv = self.condition(c)?;
                        self.b.cond_br(cv, body_bb, exit);
                    }
                    None => self.b.br(body_bb),
                }
                self.loops.push((step_bb, exit));
                self.b.switch_to(body_bb);
                self.scoped_stmts(body)?;
                if !self.b.is_terminated() {
                    self.b.br(step_bb);
                }
                self.b.switch_to(step_bb);
                if let Some(step) = step {
                    self.rvalue_or_void(step)?;
                }
                self.b.br(head);
                self.loops.pop();
                self.scopes.pop();
                self.b.switch_to(exit);
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                let head = self.b.new_block();
                let body_bb = self.b.new_block();
                let exit = self.b.new_block();
                self.b.br(head);
                self.b.switch_to(head);
                let cv = self.condition(cond)?;
                self.b.cond_br(cv, body_bb, exit);
                self.loops.push((head, exit));
                self.b.switch_to(body_bb);
                self.scoped_stmts(body)?;
                if !self.b.is_terminated() {
                    self.b.br(head);
                }
                self.loops.pop();
                self.b.switch_to(exit);
                Ok(())
            }
            Stmt::DoWhile { body, cond, .. } => {
                let body_bb = self.b.new_block();
                let check = self.b.new_block();
                let exit = self.b.new_block();
                self.b.br(body_bb);
                self.loops.push((check, exit));
                self.b.switch_to(body_bb);
                self.scoped_stmts(body)?;
                if !self.b.is_terminated() {
                    self.b.br(check);
                }
                self.b.switch_to(check);
                let cv = self.condition(cond)?;
                self.b.cond_br(cv, body_bb, exit);
                self.loops.pop();
                self.b.switch_to(exit);
                Ok(())
            }
        }
    }

    // ---- expressions ------------------------------------------------------

    /// Lower an expression for its side effects; value (if any) discarded.
    fn rvalue_or_void(&mut self, e: &Expr) -> Result<Option<TV>, LowerError> {
        match e {
            Expr::Call { name, .. } if is_void_call(name) => {
                self.void_call(e)?;
                Ok(None)
            }
            _ => self.rvalue(e).map(Some),
        }
    }

    fn rvalue(&mut self, e: &Expr) -> Result<TV, LowerError> {
        match e {
            Expr::IntLit(v, span) => {
                if *v > u32::MAX as i64 || *v < i32::MIN as i64 {
                    return Err(err(
                        format!("integer literal {v} out of 32-bit range"),
                        *span,
                    ));
                }
                Ok(TV {
                    op: Operand::imm_i32(*v as i32),
                    ty: LTy::S(Scalar::I32),
                })
            }
            Expr::FloatLit(v, _) => Ok(TV {
                op: Operand::imm_f32(*v),
                ty: LTy::S(Scalar::F32),
            }),
            Expr::BoolLit(v, _) => Ok(TV {
                op: Operand::Const(ocl_ir::Const::Bool(*v)),
                ty: LTy::S(Scalar::Bool),
            }),
            Expr::Ident(name, span) => match self.lookup(name, *span)? {
                Symbol::Scalar(r, sc) => Ok(TV {
                    op: Operand::Reg(r),
                    ty: LTy::S(sc),
                }),
                Symbol::Ptr(r, space, elem) => Ok(TV {
                    op: Operand::Reg(r),
                    ty: LTy::P(space, elem),
                }),
                Symbol::LocalArray(id, elem, _) => {
                    let base = self.b.local_addr(id);
                    Ok(TV {
                        op: Operand::Reg(base),
                        ty: LTy::P(AddressSpace::Local, elem),
                    })
                }
            },
            Expr::Index { .. } => {
                let place = self.lvalue(e)?;
                self.read_place(&place)
            }
            Expr::AddrOf(inner, span) => {
                let place = self.lvalue(inner)?;
                match place {
                    Place::Mem { ptr, elem, space } => Ok(TV {
                        op: ptr,
                        ty: LTy::P(space, elem),
                    }),
                    Place::Var(..) => Err(err(
                        "`&` is only supported on array elements in the subset",
                        *span,
                    )),
                }
            }
            Expr::Unary { op, expr, span } => {
                let tv = self.rvalue(expr)?;
                match op {
                    AstUnOp::Neg => {
                        let sc = self.expect_scalar(&tv, *span)?;
                        let sc = if sc == Scalar::Bool { Scalar::I32 } else { sc };
                        let v = self.coerce(tv, sc, *span)?;
                        let r = self.b.un(UnOp::Neg, sc, v);
                        Ok(TV {
                            op: Operand::Reg(r),
                            ty: LTy::S(sc),
                        })
                    }
                    AstUnOp::BitNot => {
                        let sc = self.expect_scalar(&tv, *span)?;
                        if sc == Scalar::F32 {
                            return Err(err("`~` on a float", *span));
                        }
                        let v = self.coerce(tv, Scalar::I32, *span)?;
                        let r = self.b.un(UnOp::Not, Scalar::I32, v);
                        Ok(TV {
                            op: Operand::Reg(r),
                            ty: LTy::S(Scalar::I32),
                        })
                    }
                    AstUnOp::LogNot => {
                        let v = self.to_bool(tv, *span)?;
                        let r = self.b.un(UnOp::Not, Scalar::Bool, v);
                        Ok(TV {
                            op: Operand::Reg(r),
                            ty: LTy::S(Scalar::Bool),
                        })
                    }
                }
            }
            Expr::Binary { op, lhs, rhs, span } => self.binary(*op, lhs, rhs, *span),
            Expr::Ternary {
                cond,
                then_e,
                else_e,
                span,
            } => {
                // Lowered with control flow so side effects in the arms stay
                // correct; pure arms collapse under later optimization.
                let c = self.condition(cond)?;
                let then_bb = self.b.new_block();
                let else_bb = self.b.new_block();
                let join_bb = self.b.new_block();
                self.b.cond_br(c, then_bb, else_bb);
                self.b.switch_to(then_bb);
                let tv1 = self.rvalue(then_e)?;
                let sc1 = self.expect_scalar(&tv1, *span)?;
                let then_end = self.b.current_block();
                self.b.switch_to(else_bb);
                let tv2 = self.rvalue(else_e)?;
                let sc2 = self.expect_scalar(&tv2, *span)?;
                let else_end = self.b.current_block();
                let sc = unify(sc1, sc2);
                let result = self.b.fresh(sc);
                self.b.switch_to(then_end);
                let v1 = self.coerce(tv1, sc, *span)?;
                self.b.assign(result, sc, v1);
                self.b.br(join_bb);
                self.b.switch_to(else_end);
                let v2 = self.coerce(tv2, sc, *span)?;
                self.b.assign(result, sc, v2);
                self.b.br(join_bb);
                self.b.switch_to(join_bb);
                Ok(TV {
                    op: Operand::Reg(result),
                    ty: LTy::S(sc),
                })
            }
            Expr::Cast { ty, expr, span } => {
                let tv = self.rvalue(expr)?;
                let target = scalar_of(*ty);
                let v = self.coerce(tv, target, *span)?;
                Ok(TV {
                    op: v,
                    ty: LTy::S(target),
                })
            }
            Expr::Call { name, args, span } => self.call(name, args, *span),
            Expr::Str(_, span) => Err(err(
                "string literals are only valid as the first printf argument",
                *span,
            )),
            Expr::Assign {
                target,
                op,
                value,
                span,
            } => {
                let place = self.lvalue(target)?;
                let rhs = self.rvalue(value)?;
                let new_val = match op {
                    None => rhs,
                    Some(cop) => {
                        let old = self.read_place(&place)?;
                        self.apply_bin(*cop, old, rhs, *span)?
                    }
                };
                self.write_place(&place, new_val, *span)
            }
            Expr::IncDec {
                target,
                inc,
                post,
                span,
            } => {
                let place = self.lvalue(target)?;
                let old = self.read_place(&place)?;
                let sc = self.expect_scalar(&old, *span)?;
                let one = TV {
                    op: Operand::imm_i32(1),
                    ty: LTy::S(Scalar::I32),
                };
                let new = self.apply_bin(
                    if *inc { AstBinOp::Add } else { AstBinOp::Sub },
                    old,
                    one,
                    *span,
                )?;
                // Snapshot the old value before the write clobbers the
                // variable register.
                let old_snap = if *post {
                    let r = self.b.mov(sc, old.op);
                    Some(TV {
                        op: Operand::Reg(r),
                        ty: LTy::S(sc),
                    })
                } else {
                    None
                };
                let written = self.write_place(&place, new, *span)?;
                Ok(old_snap.unwrap_or(written))
            }
        }
    }

    /// Lower `e` as a branch condition to a Bool operand.
    fn condition(&mut self, e: &Expr) -> Result<Operand, LowerError> {
        let tv = self.rvalue(e)?;
        self.to_bool(tv, e.span())
    }

    #[allow(clippy::wrong_self_convention)]
    fn to_bool(&mut self, tv: TV, span: Span) -> Result<Operand, LowerError> {
        match tv.ty {
            LTy::S(Scalar::Bool) => Ok(tv.op),
            LTy::S(Scalar::F32) => {
                let r = self
                    .b
                    .cmp(CmpOp::Ne, Scalar::F32, tv.op, Operand::imm_f32(0.0));
                Ok(Operand::Reg(r))
            }
            LTy::S(sc) => {
                let r = self.b.cmp(CmpOp::Ne, sc, tv.op, Operand::imm_i32(0));
                Ok(Operand::Reg(r))
            }
            LTy::P(..) => Err(err("pointer used as a condition", span)),
        }
    }

    fn expect_scalar(&self, tv: &TV, span: Span) -> Result<Scalar, LowerError> {
        match tv.ty {
            LTy::S(s) => Ok(s),
            LTy::P(..) => Err(err("expected a scalar value, found a pointer", span)),
        }
    }

    /// Convert `tv` to scalar type `to`, inserting conversions as needed.
    fn coerce(&mut self, tv: TV, to: Scalar, span: Span) -> Result<Operand, LowerError> {
        let from = self.expect_scalar(&tv, span)?;
        if from == to {
            return Ok(tv.op);
        }
        // Constant operands convert at compile time.
        if let Operand::Const(c) = tv.op {
            if let Some(converted) = convert_const(c, to) {
                return Ok(Operand::Const(converted));
            }
        }
        let r = match (from, to) {
            (Scalar::I32, Scalar::F32) => self.b.un(UnOp::I2F, Scalar::I32, tv.op),
            (Scalar::U32, Scalar::F32) => self.b.un(UnOp::U2F, Scalar::U32, tv.op),
            (Scalar::Bool, Scalar::F32) => {
                let i = self.int_cast(tv.op, Scalar::I32);
                self.b.un(UnOp::I2F, Scalar::I32, Operand::Reg(i))
            }
            (Scalar::F32, Scalar::I32) => self.b.un(UnOp::F2I, Scalar::F32, tv.op),
            (Scalar::F32, Scalar::U32) => {
                let i = self.b.un(UnOp::F2I, Scalar::F32, tv.op);
                self.int_cast(Operand::Reg(i), Scalar::U32)
            }
            (Scalar::F32, Scalar::Bool) => {
                self.b
                    .cmp(CmpOp::Ne, Scalar::F32, tv.op, Operand::imm_f32(0.0))
            }
            (Scalar::I32 | Scalar::U32, Scalar::Bool) => {
                self.b.cmp(CmpOp::Ne, from, tv.op, Operand::imm_i32(0))
            }
            (_, _) => self.int_cast(tv.op, to),
        };
        Ok(Operand::Reg(r))
    }

    /// Bit-preserving integer retype.
    fn int_cast(&mut self, op: Operand, to: Scalar) -> VReg {
        let r = self.b.fresh(to);
        self.b.push_into(
            r,
            ocl_ir::Op::Un {
                op: UnOp::IntCast,
                ty: to,
                a: op,
            },
        );
        r
    }

    fn binary(
        &mut self,
        op: AstBinOp,
        lhs: &Expr,
        rhs: &Expr,
        span: Span,
    ) -> Result<TV, LowerError> {
        // Short-circuit logicals need control flow.
        if op == AstBinOp::LogAnd || op == AstBinOp::LogOr {
            let result = self.b.fresh(Scalar::Bool);
            let lv = self.condition(lhs)?;
            let rhs_bb = self.b.new_block();
            let short_bb = self.b.new_block();
            let join_bb = self.b.new_block();
            if op == AstBinOp::LogAnd {
                self.b.cond_br(lv, rhs_bb, short_bb);
            } else {
                self.b.cond_br(lv, short_bb, rhs_bb);
            }
            self.b.switch_to(short_bb);
            let short_val = ocl_ir::Const::Bool(op == AstBinOp::LogOr);
            self.b
                .assign(result, Scalar::Bool, Operand::Const(short_val));
            self.b.br(join_bb);
            self.b.switch_to(rhs_bb);
            let rv = self.condition(rhs)?;
            self.b.assign(result, Scalar::Bool, rv);
            self.b.br(join_bb);
            self.b.switch_to(join_bb);
            return Ok(TV {
                op: Operand::Reg(result),
                ty: LTy::S(Scalar::Bool),
            });
        }
        let a = self.rvalue(lhs)?;
        let b = self.rvalue(rhs)?;
        self.apply_bin(op, a, b, span)
    }

    /// Apply a (non-short-circuit) binary operator to two typed values.
    fn apply_bin(&mut self, op: AstBinOp, a: TV, b: TV, span: Span) -> Result<TV, LowerError> {
        // Pointer arithmetic: ptr ± int → gep.
        if let LTy::P(space, elem) = a.ty {
            match op {
                AstBinOp::Add | AstBinOp::Sub => {
                    let idx = self.coerce(b, Scalar::I32, span)?;
                    let idx = if op == AstBinOp::Sub {
                        Operand::Reg(self.b.un(UnOp::Neg, Scalar::I32, idx))
                    } else {
                        idx
                    };
                    let r = self.b.gep(a.op, idx, elem.bytes(), space);
                    return Ok(TV {
                        op: Operand::Reg(r),
                        ty: LTy::P(space, elem),
                    });
                }
                _ => return Err(err("unsupported pointer operation", span)),
            }
        }
        if let LTy::P(space, elem) = b.ty {
            if op == AstBinOp::Add {
                let idx = self.coerce(a, Scalar::I32, span)?;
                let r = self.b.gep(b.op, idx, elem.bytes(), space);
                return Ok(TV {
                    op: Operand::Reg(r),
                    ty: LTy::P(space, elem),
                });
            }
            return Err(err("unsupported pointer operation", span));
        }
        let sa = self.expect_scalar(&a, span)?;
        let sb = self.expect_scalar(&b, span)?;
        let common = unify(sa, sb);
        let va = self.coerce(a, common, span)?;
        let vb = self.coerce(b, common, span)?;
        let (is_cmp, irop) = match op {
            AstBinOp::Add => (false, BinOp::Add),
            AstBinOp::Sub => (false, BinOp::Sub),
            AstBinOp::Mul => (false, BinOp::Mul),
            AstBinOp::Div => (false, BinOp::Div),
            AstBinOp::Rem => (false, BinOp::Rem),
            AstBinOp::And => (false, BinOp::And),
            AstBinOp::Or => (false, BinOp::Or),
            AstBinOp::Xor => (false, BinOp::Xor),
            AstBinOp::Shl => (false, BinOp::Shl),
            AstBinOp::Shr => (false, BinOp::Shr),
            AstBinOp::Lt
            | AstBinOp::Le
            | AstBinOp::Gt
            | AstBinOp::Ge
            | AstBinOp::Eq
            | AstBinOp::Ne => (true, BinOp::Add),
            AstBinOp::LogAnd | AstBinOp::LogOr => unreachable!("handled in binary()"),
        };
        if is_cmp {
            let cop = match op {
                AstBinOp::Lt => CmpOp::Lt,
                AstBinOp::Le => CmpOp::Le,
                AstBinOp::Gt => CmpOp::Gt,
                AstBinOp::Ge => CmpOp::Ge,
                AstBinOp::Eq => CmpOp::Eq,
                AstBinOp::Ne => CmpOp::Ne,
                _ => unreachable!(),
            };
            let r = self.b.cmp(cop, common, va, vb);
            return Ok(TV {
                op: Operand::Reg(r),
                ty: LTy::S(Scalar::Bool),
            });
        }
        if common == Scalar::F32
            && matches!(
                op,
                AstBinOp::And | AstBinOp::Or | AstBinOp::Xor | AstBinOp::Shl | AstBinOp::Shr
            )
        {
            return Err(err("bitwise operator on float operands", span));
        }
        // Arithmetic on bools promotes to int.
        let arith = if common == Scalar::Bool {
            Scalar::I32
        } else {
            common
        };
        let va = if arith != common {
            Operand::Reg(self.int_cast(va, arith))
        } else {
            va
        };
        let vb = if arith != common {
            Operand::Reg(self.int_cast(vb, arith))
        } else {
            vb
        };
        let r = self.b.bin(irop, arith, va, vb);
        Ok(TV {
            op: Operand::Reg(r),
            ty: LTy::S(arith),
        })
    }

    // ---- places -----------------------------------------------------------

    fn lvalue(&mut self, e: &Expr) -> Result<Place, LowerError> {
        match e {
            Expr::Ident(name, span) => match self.lookup(name, *span)? {
                Symbol::Scalar(r, sc) => Ok(Place::Var(r, sc)),
                Symbol::Ptr(..) => Err(err(
                    "assigning to a pointer parameter is not supported",
                    *span,
                )),
                Symbol::LocalArray(..) => Err(err("cannot assign to an array name", *span)),
            },
            Expr::Index {
                base,
                indices,
                span,
            } => {
                // Local arrays support multi-dim indexing with declared dims.
                if let Expr::Ident(name, nspan) = base.as_ref() {
                    if let Symbol::LocalArray(id, elem, dims) = self.lookup(name, *nspan)? {
                        if indices.len() != dims.len() {
                            return Err(err(
                                format!(
                                    "array `{name}` has {} dimensions, {} indices given",
                                    dims.len(),
                                    indices.len()
                                ),
                                *span,
                            ));
                        }
                        let base_reg = self.b.local_addr(id);
                        let idx = self.flatten_index(indices, &dims, *span)?;
                        let ptr = self.b.gep(
                            Operand::Reg(base_reg),
                            idx,
                            elem.bytes(),
                            AddressSpace::Local,
                        );
                        return Ok(Place::Mem {
                            ptr: Operand::Reg(ptr),
                            elem,
                            space: AddressSpace::Local,
                        });
                    }
                }
                let base_tv = self.rvalue(base)?;
                let LTy::P(space, elem) = base_tv.ty else {
                    return Err(err("indexing a non-pointer value", *span));
                };
                if indices.len() != 1 {
                    return Err(err(
                        "multi-dimensional indexing is only supported on __local arrays",
                        *span,
                    ));
                }
                let idx_tv = self.rvalue(&indices[0])?;
                let idx = self.coerce(idx_tv, Scalar::I32, *span)?;
                let ptr = self.b.gep(base_tv.op, idx, elem.bytes(), space);
                Ok(Place::Mem {
                    ptr: Operand::Reg(ptr),
                    elem,
                    space,
                })
            }
            other => Err(err("expression is not assignable", other.span())),
        }
    }

    fn flatten_index(
        &mut self,
        indices: &[Expr],
        dims: &[u32],
        span: Span,
    ) -> Result<Operand, LowerError> {
        let mut acc: Option<Operand> = None;
        for (i, idx) in indices.iter().enumerate() {
            let tv = self.rvalue(idx)?;
            let v = self.coerce(tv, Scalar::I32, span)?;
            acc = Some(match acc {
                None => v,
                Some(prev) => {
                    let scaled = self.b.bin(
                        BinOp::Mul,
                        Scalar::I32,
                        prev,
                        Operand::imm_i32(dims[i] as i32),
                    );
                    Operand::Reg(self.b.bin(BinOp::Add, Scalar::I32, scaled.into(), v))
                }
            });
        }
        // The parser only builds an indexed place from `[expr]`, so the
        // subscript list is never empty here.
        Ok(acc.expect("at least one index"))
    }

    fn read_place(&mut self, p: &Place) -> Result<TV, LowerError> {
        match p {
            Place::Var(r, sc) => Ok(TV {
                op: Operand::Reg(*r),
                ty: LTy::S(*sc),
            }),
            Place::Mem { ptr, elem, space } => {
                let r = self.b.load(*ptr, *elem, *space);
                Ok(TV {
                    op: Operand::Reg(r),
                    ty: LTy::S(*elem),
                })
            }
        }
    }

    fn write_place(&mut self, p: &Place, value: TV, span: Span) -> Result<TV, LowerError> {
        match p {
            Place::Var(r, sc) => {
                let v = self.coerce(value, *sc, span)?;
                self.b.assign(*r, *sc, v);
                Ok(TV {
                    op: Operand::Reg(*r),
                    ty: LTy::S(*sc),
                })
            }
            Place::Mem { ptr, elem, space } => {
                let v = self.coerce(value, *elem, span)?;
                self.b.store(*ptr, v, *elem, *space);
                Ok(TV {
                    op: v,
                    ty: LTy::S(*elem),
                })
            }
        }
    }

    // ---- calls ------------------------------------------------------------

    fn void_call(&mut self, e: &Expr) -> Result<(), LowerError> {
        let Expr::Call { name, args, span } = e else {
            unreachable!("void_call only invoked on calls")
        };
        match name.as_str() {
            "printf" => {
                let Some(Expr::Str(fmt, _)) = args.first() else {
                    return Err(err("printf needs a literal format string", *span));
                };
                let mut ir_args = Vec::new();
                for a in &args[1..] {
                    let tv = self.rvalue(a)?;
                    let sc = self.expect_scalar(&tv, *span)?;
                    ir_args.push((tv.op, sc));
                }
                let (converted, expected) = convert_printf_format(fmt);
                if expected != ir_args.len() {
                    return Err(err(
                        format!(
                            "printf format expects {expected} arguments, {} given",
                            ir_args.len()
                        ),
                        *span,
                    ));
                }
                self.b.printf(converted, ir_args);
                Ok(())
            }
            "barrier" | "mem_fence" => {
                self.b.barrier();
                Ok(())
            }
            _ => {
                // Value-returning call in statement position (e.g. a bare
                // atomic_add(...)): lower and drop the value.
                self.call(name, args, *span)?;
                Ok(())
            }
        }
    }

    fn call(&mut self, name: &str, args: &[Expr], span: Span) -> Result<TV, LowerError> {
        // Work-item queries.
        if let Some(ctor) = workitem_builtin(name) {
            let dim = match args.first() {
                Some(Expr::IntLit(d, _)) if (0..3).contains(d) => *d as u8,
                _ => {
                    return Err(err(
                        format!("`{name}` requires a constant dimension 0..3"),
                        span,
                    ))
                }
            };
            let r = self.b.workitem(ctor(dim));
            return Ok(TV {
                op: Operand::Reg(r),
                ty: LTy::S(Scalar::U32),
            });
        }
        // Float unary math.
        if let Some(un) = float_unary(name) {
            let [a] = self.exact_args::<1>(name, args, span)?;
            let v = self.coerce(a, Scalar::F32, span)?;
            let r = self.b.un(un, Scalar::F32, v);
            return Ok(TV {
                op: Operand::Reg(r),
                ty: LTy::S(Scalar::F32),
            });
        }
        match name {
            "fmin" | "fmax" => {
                let [a, b] = self.exact_args::<2>(name, args, span)?;
                let va = self.coerce(a, Scalar::F32, span)?;
                let vb = self.coerce(b, Scalar::F32, span)?;
                let op = if name == "fmin" {
                    BinOp::Min
                } else {
                    BinOp::Max
                };
                let r = self.b.bin(op, Scalar::F32, va, vb);
                Ok(TV {
                    op: Operand::Reg(r),
                    ty: LTy::S(Scalar::F32),
                })
            }
            "min" | "max" => {
                let [a, b] = self.exact_args::<2>(name, args, span)?;
                let sa = self.expect_scalar(&a, span)?;
                let sb = self.expect_scalar(&b, span)?;
                let common = unify(sa, sb);
                let va = self.coerce(a, common, span)?;
                let vb = self.coerce(b, common, span)?;
                let op = if name == "min" {
                    BinOp::Min
                } else {
                    BinOp::Max
                };
                let r = self.b.bin(op, common, va, vb);
                Ok(TV {
                    op: Operand::Reg(r),
                    ty: LTy::S(common),
                })
            }
            "abs" => {
                let [a] = self.exact_args::<1>(name, args, span)?;
                let v = self.coerce(a, Scalar::I32, span)?;
                let r = self.b.un(UnOp::Abs, Scalar::I32, v);
                Ok(TV {
                    op: Operand::Reg(r),
                    ty: LTy::S(Scalar::I32),
                })
            }
            "mad" | "fma" => {
                let [a, b, c] = self.exact_args::<3>(name, args, span)?;
                let va = self.coerce(a, Scalar::F32, span)?;
                let vb = self.coerce(b, Scalar::F32, span)?;
                let vc = self.coerce(c, Scalar::F32, span)?;
                let m = self.b.bin(BinOp::Mul, Scalar::F32, va, vb);
                let r = self.b.bin(BinOp::Add, Scalar::F32, m.into(), vc);
                Ok(TV {
                    op: Operand::Reg(r),
                    ty: LTy::S(Scalar::F32),
                })
            }
            "clamp" => {
                let [x, lo, hi] = self.exact_args::<3>(name, args, span)?;
                let sx = self.expect_scalar(&x, span)?;
                let vx = x.op;
                let vlo = self.coerce(lo, sx, span)?;
                let vhi = self.coerce(hi, sx, span)?;
                let m = self.b.bin(BinOp::Max, sx, vx, vlo);
                let r = self.b.bin(BinOp::Min, sx, m.into(), vhi);
                Ok(TV {
                    op: Operand::Reg(r),
                    ty: LTy::S(sx),
                })
            }
            "__pipelined_load" => {
                let [p] = self.exact_args::<1>(name, args, span)?;
                let LTy::P(space, elem) = p.ty else {
                    return Err(err("__pipelined_load needs a pointer argument", span));
                };
                let r = self.b.load_hinted(p.op, elem, space, LoadHint::Pipelined);
                Ok(TV {
                    op: Operand::Reg(r),
                    ty: LTy::S(elem),
                })
            }
            _ if name.starts_with("atomic_") || name.starts_with("atom_") => {
                let short = name
                    .trim_start_matches("atomic_")
                    .trim_start_matches("atom_");
                let (op, implicit_one) = match short {
                    "add" => (AtomicOp::Add, false),
                    "sub" => (AtomicOp::Sub, false),
                    "min" => (AtomicOp::Min, false),
                    "max" => (AtomicOp::Max, false),
                    "and" => (AtomicOp::And, false),
                    "or" => (AtomicOp::Or, false),
                    "xor" => (AtomicOp::Xor, false),
                    "xchg" => (AtomicOp::Xchg, false),
                    "inc" => (AtomicOp::Add, true),
                    "dec" => (AtomicOp::Sub, true),
                    other => return Err(err(format!("unknown atomic `{other}`"), span)),
                };
                let ptr = self
                    .rvalue(args.first().ok_or_else(|| {
                        err(format!("`{name}` needs a pointer argument"), span)
                    })?)?;
                let LTy::P(space, elem) = ptr.ty else {
                    return Err(err(format!("`{name}` needs a pointer argument"), span));
                };
                if elem == Scalar::F32 {
                    return Err(err("atomics are 32-bit integer only (OpenCL 1.x)", span));
                }
                let value = if implicit_one {
                    if args.len() != 1 {
                        return Err(err(format!("`{name}` takes exactly 1 argument"), span));
                    }
                    Operand::imm_i32(1)
                } else {
                    if args.len() != 2 {
                        return Err(err(format!("`{name}` takes exactly 2 arguments"), span));
                    }
                    let v = self.rvalue(&args[1])?;
                    self.coerce(v, elem, span)?
                };
                let r = self.b.atomic(op, ptr.op, value, elem, space);
                Ok(TV {
                    op: Operand::Reg(r),
                    ty: LTy::S(elem),
                })
            }
            other => Err(err(format!("unknown function `{other}`"), span)),
        }
    }

    fn exact_args<const N: usize>(
        &mut self,
        name: &str,
        args: &[Expr],
        span: Span,
    ) -> Result<[TV; N], LowerError> {
        if args.len() != N {
            return Err(err(
                format!(
                    "`{name}` takes exactly {N} argument(s), {} given",
                    args.len()
                ),
                span,
            ));
        }
        let mut out = [TV {
            op: Operand::imm_i32(0),
            ty: LTy::S(Scalar::I32),
        }; N];
        for (i, a) in args.iter().enumerate() {
            out[i] = self.rvalue(a)?;
        }
        Ok(out)
    }
}

fn is_void_call(name: &str) -> bool {
    matches!(name, "printf" | "barrier" | "mem_fence")
}

fn workitem_builtin(name: &str) -> Option<fn(u8) -> Builtin> {
    Some(match name {
        "get_global_id" => Builtin::GlobalId,
        "get_local_id" => Builtin::LocalId,
        "get_group_id" => Builtin::GroupId,
        "get_global_size" => Builtin::GlobalSize,
        "get_local_size" => Builtin::LocalSize,
        "get_num_groups" => Builtin::NumGroups,
        _ => return None,
    })
}

fn float_unary(name: &str) -> Option<UnOp> {
    Some(match name {
        "sqrt" | "native_sqrt" | "half_sqrt" => UnOp::Sqrt,
        "fabs" => UnOp::Abs,
        "exp" | "native_exp" | "half_exp" => UnOp::Exp,
        "log" | "native_log" | "half_log" => UnOp::Log,
        "sin" | "native_sin" => UnOp::Sin,
        "cos" | "native_cos" => UnOp::Cos,
        "floor" => UnOp::Floor,
        _ => return None,
    })
}

/// Usual arithmetic conversions, restricted to the subset's types.
fn unify(a: Scalar, b: Scalar) -> Scalar {
    use Scalar::*;
    match (a, b) {
        (F32, _) | (_, F32) => F32,
        (U32, _) | (_, U32) => U32,
        (I32, _) | (_, I32) => I32,
        (Bool, Bool) => Bool,
    }
}

fn zero_of(sc: Scalar) -> ocl_ir::Const {
    match sc {
        Scalar::I32 => ocl_ir::Const::I32(0),
        Scalar::U32 => ocl_ir::Const::U32(0),
        Scalar::F32 => ocl_ir::Const::F32(0.0),
        Scalar::Bool => ocl_ir::Const::Bool(false),
    }
}

fn convert_const(c: ocl_ir::Const, to: Scalar) -> Option<ocl_ir::Const> {
    use ocl_ir::Const::*;
    Some(match (c, to) {
        (I32(v), Scalar::F32) => F32(v as f32),
        (I32(v), Scalar::U32) => U32(v as u32),
        (I32(v), Scalar::Bool) => Bool(v != 0),
        (U32(v), Scalar::F32) => F32(v as f32),
        (U32(v), Scalar::I32) => I32(v as i32),
        (U32(v), Scalar::Bool) => Bool(v != 0),
        (F32(v), Scalar::I32) => I32(v as i32),
        (F32(v), Scalar::U32) => U32(v as i32 as u32),
        (F32(v), Scalar::Bool) => Bool(v != 0.0),
        (Bool(v), Scalar::I32) => I32(v as i32),
        (Bool(v), Scalar::U32) => U32(v as u32),
        (Bool(v), Scalar::F32) => F32(v as u8 as f32),
        _ => return None,
    })
}

/// Convert a C printf format to `{}` placeholders; returns the converted
/// string and the number of arguments it consumes.
fn convert_printf_format(fmt: &str) -> (String, usize) {
    let mut out = String::with_capacity(fmt.len());
    let mut count = 0;
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        match chars.peek() {
            Some('%') => {
                chars.next();
                out.push('%');
            }
            Some(_) => {
                // Swallow flags/width/precision then the conversion char.
                while let Some(&n) = chars.peek() {
                    chars.next();
                    if n.is_ascii_alphabetic() {
                        break;
                    }
                }
                out.push_str("{}");
                count += 1;
            }
            None => out.push('%'),
        }
    }
    (out, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printf_format_conversion() {
        let (s, n) = convert_printf_format("x=%d y=%0.3f pct=%%\n");
        assert_eq!(s, "x={} y={} pct=%\n");
        assert_eq!(n, 2);
    }

    #[test]
    fn unify_prefers_float_then_unsigned() {
        assert_eq!(unify(Scalar::I32, Scalar::F32), Scalar::F32);
        assert_eq!(unify(Scalar::U32, Scalar::I32), Scalar::U32);
        assert_eq!(unify(Scalar::Bool, Scalar::I32), Scalar::I32);
        assert_eq!(unify(Scalar::Bool, Scalar::Bool), Scalar::Bool);
    }

    #[test]
    fn const_conversions() {
        use ocl_ir::Const::*;
        assert_eq!(convert_const(I32(3), Scalar::F32), Some(F32(3.0)));
        assert_eq!(convert_const(F32(2.7), Scalar::I32), Some(I32(2)));
        assert_eq!(convert_const(Bool(true), Scalar::I32), Some(I32(1)));
    }
}
