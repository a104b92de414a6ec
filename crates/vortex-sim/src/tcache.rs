//! Pre-decoded macro-op trace cache.
//!
//! The issue scan and the execute stage used to re-derive the scoreboard
//! operands (`regs_of`) and the memory-op classification of the *same*
//! instruction every cycle a warp sat at a PC. Kernel code is immutable per
//! launch, so each core instead decodes straight-line runs once — on first
//! touch of a PC the whole run from there to the next instruction that can
//! redirect or stall the warp (branch/jump/SIMT op/barrier/memory op/halt)
//! is fused into per-PC [`MacroOp`] slots with the scoreboard indices and
//! the memory-op flag pre-resolved. A slot is 12 bytes and is never copied
//! out: the snapshot refresh reads its scoreboard bytes through
//! [`TraceCache::get`] (the one counted lookup) and the issue path re-reads
//! the instruction in place through [`TraceCache::peek`]. An undecoded slot
//! is a sentinel with no flag set, not an `Option`. Nothing is ever
//! invalidated within a launch, and [`crate::Simulator::set_program`] drops
//! the cache when the loaded binary actually changes.
//!
//! The cache is not constructed in `reference_mode` (the dense loop is the
//! semantic baseline and stays on the from-scratch decode path), which the
//! zero-overhead tests assert.

use crate::core::scoreboard;
use vortex_isa::{Instr, Program};

/// One pre-decoded instruction: the raw instruction plus everything the
/// per-cycle paths would otherwise re-derive from it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MacroOp {
    pub instr: Instr,
    /// Scoreboard indices (see [`regs_of`](crate::core::regs_of)): two
    /// sources, then the destination.
    pub sb: [u8; 3],
    /// [`MacroOp::DECODED`] | [`MacroOp::MEM`] | [`MacroOp::ENDS_RUN`].
    flags: u8,
}

impl MacroOp {
    /// The slot holds a decoded instruction (clear only in the sentinel).
    const DECODED: u8 = 1;
    /// The instruction goes through the LSU.
    const MEM: u8 = 2;
    /// The instruction ends a straight-line run: anything that can
    /// redirect the warp's PC, change its thread mask, park it, or stall in
    /// the LSU.
    const ENDS_RUN: u8 = 4;

    /// The undecoded-slot sentinel.
    const EMPTY: MacroOp = MacroOp {
        instr: Instr::Halt,
        sb: [0; 3],
        flags: 0,
    };

    /// Everything from one ISA table lookup: each core fills every PC it
    /// touches, so a fill costs one lookup, not three.
    fn decode(instr: Instr) -> MacroOp {
        let (op, x) = instr.shape();
        let mut flags = MacroOp::DECODED;
        if op.mem {
            flags |= MacroOp::MEM | MacroOp::ENDS_RUN;
        }
        if op.ctrl {
            flags |= MacroOp::ENDS_RUN;
        }
        MacroOp {
            instr,
            sb: scoreboard(op, x),
            flags,
        }
    }

    fn decoded(&self) -> bool {
        self.flags & MacroOp::DECODED != 0
    }

    fn ends_run(&self) -> bool {
        self.flags & MacroOp::ENDS_RUN != 0
    }

    pub fn is_mem(&self) -> bool {
        self.flags & MacroOp::MEM != 0
    }
}

/// Per-core trace cache: one slot per PC, filled a straight-line run at a
/// time. Counters feed the `sim.trace_cache.*` metrics.
#[derive(Debug)]
pub(crate) struct TraceCache {
    slots: Vec<MacroOp>,
    pub hits: u64,
    pub misses: u64,
    /// Macro-ops decoded across all runs (Σ run lengths).
    pub fused_ops: u64,
    /// Straight-line runs decoded.
    pub runs: u64,
}

impl TraceCache {
    pub fn new(program_len: usize) -> Self {
        TraceCache {
            slots: vec![MacroOp::EMPTY; program_len],
            hits: 0,
            misses: 0,
            fused_ops: 0,
            runs: 0,
        }
    }

    /// The macro-op at `pc`, decoding its straight-line run on first touch.
    /// `None` means the PC is outside the program (the caller raises the
    /// same `BadPc` the raw fetch would).
    #[inline]
    pub fn get(&mut self, pc: u32, program: &Program) -> Option<&MacroOp> {
        let pc = pc as usize;
        if self.slots.get(pc)?.decoded() {
            self.hits += 1;
        } else {
            self.fill_run(pc, program);
        }
        Some(&self.slots[pc])
    }

    /// The already-decoded macro-op at `pc`, without touching the counters:
    /// the issue path's re-read of a slot its snapshot refresh looked up.
    /// `None` for a PC outside the program.
    #[inline]
    pub fn peek(&self, pc: u32) -> Option<&MacroOp> {
        let m = self.slots.get(pc as usize)?;
        debug_assert!(m.decoded(), "issue re-read of a slot no refresh decoded");
        Some(m)
    }

    /// Decode the straight-line run starting at `pc` into the cache. Stops
    /// at (and includes) the first run-ending instruction, at the end of
    /// the program, or where it meets an already-decoded slot.
    #[cold]
    fn fill_run(&mut self, pc: usize, program: &Program) {
        self.misses += 1;
        self.runs += 1;
        let mut j = pc;
        loop {
            let m = MacroOp::decode(program.instrs[j]);
            self.slots[j] = m;
            self.fused_ops += 1;
            j += 1;
            if m.ends_run() || j >= self.slots.len() || self.slots[j].decoded() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_op_fits_in_sixteen_bytes() {
        // The issue path reads these in place; a slot that outgrows one
        // 16-byte load is a regression of the whole design.
        assert!(std::mem::size_of::<MacroOp>() <= 16);
        assert_eq!(std::mem::size_of::<Instr>(), 8);
    }
}
