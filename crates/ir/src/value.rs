//! Virtual registers, constants and operands.

use crate::types::Scalar;
use std::fmt;

/// A virtual register. Registers are function-scoped and *mutable*: the IR is
/// not SSA, so a register may be assigned by several instructions (e.g. loop
/// induction variables). Register 0..N map 1:1 to the kernel parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u32);

impl VReg {
    /// Index into per-register side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A compile-time constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Const {
    I32(i32),
    U32(u32),
    F32(f32),
    Bool(bool),
}

impl Const {
    /// Scalar type of the constant.
    pub fn scalar(self) -> Scalar {
        match self {
            Const::I32(_) => Scalar::I32,
            Const::U32(_) => Scalar::U32,
            Const::F32(_) => Scalar::F32,
            Const::Bool(_) => Scalar::Bool,
        }
    }

    /// The constant of type `ty` whose raw 32-bit pattern is `bits` (any
    /// non-zero word is `true`).
    pub fn from_bits(ty: Scalar, bits: u32) -> Self {
        match ty {
            Scalar::I32 => Const::I32(bits as i32),
            Scalar::U32 => Const::U32(bits),
            Scalar::F32 => Const::F32(f32::from_bits(bits)),
            Scalar::Bool => Const::Bool(bits != 0),
        }
    }

    /// Raw 32-bit pattern used when the constant is materialized.
    pub fn bits(self) -> u32 {
        match self {
            Const::I32(v) => v as u32,
            Const::U32(v) => v,
            Const::F32(v) => v.to_bits(),
            Const::Bool(v) => v as u32,
        }
    }

    /// True if this is the integer/bool zero or float +0.0.
    pub fn is_zero(self) -> bool {
        match self {
            Const::I32(v) => v == 0,
            Const::U32(v) => v == 0,
            Const::F32(v) => v == 0.0,
            Const::Bool(v) => !v,
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::I32(v) => write!(f, "{v}i32"),
            Const::U32(v) => write!(f, "{v}u32"),
            Const::F32(v) => write!(f, "{v}f32"),
            Const::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// An instruction operand: either a virtual register or an inline constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    Reg(VReg),
    Const(Const),
}

impl Operand {
    /// Shorthand for an `i32` immediate.
    pub fn imm_i32(v: i32) -> Self {
        Operand::Const(Const::I32(v))
    }

    /// Shorthand for a `u32` immediate.
    pub fn imm_u32(v: u32) -> Self {
        Operand::Const(Const::U32(v))
    }

    /// Shorthand for an `f32` immediate.
    pub fn imm_f32(v: f32) -> Self {
        Operand::Const(Const::F32(v))
    }

    /// The register, if this operand is one.
    pub fn as_reg(self) -> Option<VReg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Const(_) => None,
        }
    }

    /// The constant, if this operand is one.
    pub fn as_const(self) -> Option<Const> {
        match self {
            Operand::Reg(_) => None,
            Operand::Const(c) => Some(c),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

impl From<VReg> for Operand {
    fn from(r: VReg) -> Self {
        Operand::Reg(r)
    }
}

impl From<Const> for Operand {
    fn from(c: Const) -> Self {
        Operand::Const(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_bits_roundtrip_float() {
        let c = Const::F32(1.5);
        assert_eq!(f32::from_bits(c.bits()), 1.5);
    }

    #[test]
    fn const_zero_detection() {
        assert!(Const::I32(0).is_zero());
        assert!(Const::F32(0.0).is_zero());
        assert!(Const::Bool(false).is_zero());
        assert!(!Const::U32(7).is_zero());
    }

    #[test]
    fn operand_accessors() {
        let r = Operand::Reg(VReg(3));
        assert_eq!(r.as_reg(), Some(VReg(3)));
        assert_eq!(r.as_const(), None);
        let c = Operand::imm_i32(-4);
        assert_eq!(c.as_const(), Some(Const::I32(-4)));
        assert_eq!(c.as_reg(), None);
    }

    #[test]
    fn const_scalar_types() {
        assert_eq!(Const::I32(1).scalar(), Scalar::I32);
        assert_eq!(Const::U32(1).scalar(), Scalar::U32);
        assert_eq!(Const::F32(1.0).scalar(), Scalar::F32);
        assert_eq!(Const::Bool(true).scalar(), Scalar::Bool);
    }
}
