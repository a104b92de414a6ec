//! Functions (kernels), basic blocks and modules.

use crate::inst::{Inst, Terminator};
use crate::types::{Scalar, Type};
use crate::value::VReg;

/// Identifier of a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Identifier of a `__local` array declared in a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalArrayId(pub u32);

impl LocalArrayId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A `__local` array declaration. Multi-dimensional arrays are flattened by
/// the front end; `len` is the total element count.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalArray {
    pub name: String,
    pub elem: Scalar,
    pub len: u32,
}

impl LocalArray {
    /// Total footprint in bytes.
    pub fn bytes(&self) -> u32 {
        self.len * self.elem.bytes()
    }
}

/// A kernel parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    pub name: String,
    pub ty: Type,
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub id: BlockId,
    pub insts: Vec<Inst>,
    pub term: Terminator,
}

/// A kernel function in register-machine form.
///
/// Register numbering convention: registers `0..params.len()` hold the kernel
/// arguments on entry; further registers are compiler temporaries and named
/// user variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    pub name: String,
    pub params: Vec<Param>,
    /// Type of every virtual register, indexed by `VReg::index`.
    pub vreg_types: Vec<Type>,
    pub local_arrays: Vec<LocalArray>,
    pub blocks: Vec<Block>,
}

/// Alias used where "kernel" reads better than "function".
pub type Kernel = Function;

impl Function {
    /// Entry block id (always block 0).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Number of virtual registers.
    pub fn num_vregs(&self) -> usize {
        self.vreg_types.len()
    }

    /// Type of a register.
    pub fn vreg_type(&self, r: VReg) -> Type {
        self.vreg_types[r.index()]
    }

    /// Shared borrow of a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable borrow of a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterate over `(BlockId, &Block)` in layout order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter().map(|b| (b.id, b))
    }

    /// Total instruction count (excluding terminators).
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Total `__local` memory footprint in bytes.
    pub fn local_bytes(&self) -> u32 {
        self.local_arrays.iter().map(LocalArray::bytes).sum()
    }

    /// Whether the kernel contains a work-group barrier.
    pub fn uses_barrier(&self) -> bool {
        self.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i.op, crate::inst::Op::Barrier))
    }

    /// Whether the kernel contains device-side printf.
    pub fn uses_printf(&self) -> bool {
        self.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i.op, crate::inst::Op::Printf { .. }))
    }
}

/// A translation unit: one or more kernels (e.g. backprop has two, gaussian
/// has Fan1/Fan2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    pub kernels: Vec<Function>,
}

impl Module {
    /// Look up a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&Function> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Look up a kernel by name or panic with a useful message.
    pub fn expect_kernel(&self, name: &str) -> &Function {
        self.kernel(name).unwrap_or_else(|| {
            panic!(
                "kernel `{name}` not found; module has: {:?}",
                self.kernels.iter().map(|k| &k.name).collect::<Vec<_>>()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::AddressSpace;
    use crate::value::Operand;
    use crate::{BinOp, Scalar};

    fn tiny_kernel() -> Function {
        let mut b = FunctionBuilder::new(
            "t",
            vec![Param {
                name: "out".into(),
                ty: Type::Ptr(AddressSpace::Global),
            }],
        );
        let gid = b.workitem(crate::Builtin::GlobalId(0));
        let two = b.bin(BinOp::Mul, Scalar::I32, gid.into(), Operand::imm_i32(2));
        let addr = b.gep(Operand::Reg(VReg(0)), gid.into(), 4, AddressSpace::Global);
        b.store(addr.into(), two.into(), Scalar::I32, AddressSpace::Global);
        b.ret();
        b.finish()
    }

    #[test]
    fn function_queries() {
        let f = tiny_kernel();
        assert_eq!(f.entry(), BlockId(0));
        assert_eq!(f.num_insts(), 4);
        assert!(!f.uses_barrier());
        assert_eq!(f.local_bytes(), 0);
        assert!(f.vreg_type(VReg(0)).is_ptr());
    }

    #[test]
    fn module_lookup() {
        let m = Module {
            kernels: vec![tiny_kernel()],
        };
        assert!(m.kernel("t").is_some());
        assert!(m.kernel("nope").is_none());
        assert_eq!(m.expect_kernel("t").name, "t");
    }

    #[test]
    #[should_panic(expected = "not found")]
    fn module_expect_missing_panics() {
        Module::default().expect_kernel("ghost");
    }

    #[test]
    fn local_array_bytes() {
        let a = LocalArray {
            name: "tile".into(),
            elem: Scalar::F32,
            len: 16 * 16,
        };
        assert_eq!(a.bytes(), 1024);
    }
}
