//! `ocl-ir` — the kernel intermediate representation shared by both tool flows.
//!
//! This crate is the analogue of the LLVM-IR layer in the paper's Figure 2:
//! both the HLS flow (`hls-flow`) and the soft-GPU flow (`vortex-cc`) consume
//! the same IR produced by the OpenCL front end (`ocl-front`), mirroring how
//! the paper feeds *identical kernel source* through the Intel AOC compiler
//! and the Vortex/PoCL compiler.
//!
//! Design notes:
//! * The IR is a register-machine IR with *mutable* virtual registers rather
//!   than SSA — assignments may re-define a register. This keeps front-end
//!   lowering and back-end code generation simple while still supporting the
//!   analyses the paper's results depend on (one work-item dependence
//!   analysis, [`workitem`], that both decides the Vortex SPLIT/JOIN/PRED
//!   lowering and classifies access sites for the HLS LSU/area model, and the
//!   O1 "variable reuse" load-dedup pass).
//! * Memory is explicit: address arithmetic uses [`inst::Op::Gep`] so that
//!   the HLS flow can classify each access site's pattern (thread-affine vs
//!   computed) the way the Intel SDK's load-store-unit inference does.
//! * A reference NDRange interpreter ([`interp`]) defines the functional
//!   semantics. It is the golden model every back end is tested against.

pub mod builder;
pub mod cfg;
pub mod display;
pub mod func;
pub mod inst;
pub mod interp;
pub mod liveness;
pub mod loops;
pub mod passes;
pub mod types;
pub mod value;
pub mod verify;
pub mod workitem;

pub use builder::FunctionBuilder;
pub use func::{Block, BlockId, Function, Kernel, LocalArray, LocalArrayId, Module, Param};
pub use inst::{AtomicOp, BinOp, Builtin, CmpOp, Inst, LoadHint, Op, Terminator, UnOp};
pub use types::{AddressSpace, Scalar, Type};
pub use value::{Const, Operand, VReg};
