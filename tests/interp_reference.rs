//! Holds `ir::interp`, which runs a work-group as lockstep gangs, to an
//! item-serial reference written here: it walks the `Function`'s blocks
//! and instructions directly, evaluates every operator through the public
//! `eval_bin`/`eval_un`/`eval_cmp`/`eval_atomic`, and runs one work-item
//! at a time to its next barrier, in lz/ly/lx order. It shares no decoding
//! with the interpreter.
//!
//! Both must agree on the final buffers, the printf output, the steps and
//! the global loads and stores, for all 28 benchmarks at the four opt
//! levels at test scale and for the random kernels of
//! `tests/support/kernel_gen.rs`.

use fpga_gpu_repro::ir::interp::{
    eval_atomic, eval_bin, eval_cmp, eval_un, run_ndrange, ExecResult, InterpError, KernelArg,
    Limits, Memory, NdRange, LOCAL_BASE,
};
use fpga_gpu_repro::ir::passes::OptLevel;
use fpga_gpu_repro::ir::{AddressSpace, Builtin, Function, Op, Operand, Scalar, Terminator};
use fpga_gpu_repro::suite::{all_benchmarks, run, Backend, HostData, LArg, RunOutcome, Scale};
use kernel_gen::{arb_atomic_kernel, arb_float_kernel, arb_kernel, arb_local_kernel, case_input};
use repro_util::Rng;

#[path = "support/kernel_gen.rs"]
mod kernel_gen;

/// Where one work-item stands: its registers, position and status.
struct Item {
    regs: Vec<u32>,
    lid: [u32; 3],
    block: usize,
    inst: usize,
    steps: u64,
    done: bool,
}

/// Run `f` over `nd` item by item: each group's items in lz/ly/lx order,
/// each to its next barrier or return, then the barrier releases.
fn reference(
    f: &Function,
    args: &[KernelArg],
    nd: &NdRange,
    mem: &mut Memory,
) -> Result<ExecResult, InterpError> {
    nd.validate()?;
    let mut offsets = Vec::new();
    let mut local_bytes = 0;
    for a in &f.local_arrays {
        offsets.push(local_bytes);
        local_bytes += a.bytes();
    }
    let mut out = ExecResult::default();
    let groups = nd.num_groups();
    for gz in 0..groups[2] {
        for gy in 0..groups[1] {
            for gx in 0..groups[0] {
                let group = [gx, gy, gz];
                let mut local = vec![0u8; local_bytes as usize];
                let mut items = Vec::new();
                for lz in 0..nd.local[2] {
                    for ly in 0..nd.local[1] {
                        for lx in 0..nd.local[0] {
                            let mut regs = vec![0; f.num_vregs()];
                            for (r, a) in regs.iter_mut().zip(args) {
                                *r = match *a {
                                    KernelArg::Ptr(p) | KernelArg::U32(p) => p,
                                    KernelArg::I32(v) => v as u32,
                                    KernelArg::F32(v) => v.to_bits(),
                                };
                            }
                            items.push(Item {
                                regs,
                                lid: [lx, ly, lz],
                                block: 0,
                                inst: 0,
                                steps: 0,
                                done: false,
                            });
                        }
                    }
                }
                loop {
                    for item in &mut items {
                        if !item.done {
                            let mut env = Env {
                                f,
                                nd,
                                group,
                                offsets: &offsets,
                                mem,
                                local: &mut local,
                                out: &mut out,
                            };
                            env.run_to_barrier(item)?;
                        }
                    }
                    let done = items.iter().filter(|i| i.done).count();
                    if done == items.len() {
                        break;
                    }
                    if done > 0 {
                        let waiting = (0..items.len() as u32)
                            .filter(|&i| !items[i as usize].done)
                            .collect();
                        return Err(InterpError::BarrierDivergence {
                            group,
                            done: done as u32,
                            waiting,
                        });
                    }
                }
                out.steps += items.iter().map(|i| i.steps).sum::<u64>();
            }
        }
    }
    Ok(out)
}

/// What an item's instructions read and write besides its registers.
struct Env<'a> {
    f: &'a Function,
    nd: &'a NdRange,
    group: [u32; 3],
    offsets: &'a [u32],
    mem: &'a mut Memory,
    local: &'a mut [u8],
    out: &'a mut ExecResult,
}

impl Env<'_> {
    /// Run `item` until it parks at a barrier (past it, ready to resume)
    /// or returns; every instruction and terminator is one step.
    fn run_to_barrier(&mut self, item: &mut Item) -> Result<(), InterpError> {
        let f = self.f;
        loop {
            item.steps += 1;
            assert!(
                item.steps <= Limits::default().max_steps_per_item,
                "runaway item"
            );
            let block = &f.blocks[item.block];
            let Some(inst) = block.insts.get(item.inst) else {
                let v = |o: &Operand| value(o, &item.regs);
                item.inst = 0;
                match &block.term {
                    Terminator::Ret => {
                        item.done = true;
                        return Ok(());
                    }
                    Terminator::Br { target } => item.block = target.index(),
                    Terminator::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        let to = if v(cond) != 0 { then_bb } else { else_bb };
                        item.block = to.index();
                    }
                }
                continue;
            };
            item.inst += 1;
            let v = |o: &Operand| value(o, &item.regs);
            let result = match &inst.op {
                Op::Bin { op, ty, a, b } => eval_bin(*op, *ty, v(a), v(b)),
                Op::Un { op, ty, a } => eval_un(*op, *ty, v(a)),
                Op::Cmp { op, ty, a, b } => eval_cmp(*op, *ty, v(a), v(b)) as u32,
                Op::Select { cond, a, b, .. } => {
                    if v(cond) != 0 {
                        v(a)
                    } else {
                        v(b)
                    }
                }
                Op::Mov { a, .. } => v(a),
                Op::Gep {
                    base,
                    index,
                    elem_bytes,
                    ..
                } => v(base).wrapping_add(v(index).wrapping_mul(*elem_bytes)),
                Op::Load { ptr, space, .. } => {
                    if *space == AddressSpace::Global {
                        self.out.global_loads += 1;
                    }
                    self.read(*space, v(ptr))?
                }
                Op::Store {
                    ptr, value, space, ..
                } => {
                    if *space == AddressSpace::Global {
                        self.out.global_stores += 1;
                    }
                    self.write(*space, v(ptr), v(value))?;
                    continue;
                }
                Op::AtomicRmw {
                    op,
                    ptr,
                    value,
                    ty,
                    space,
                } => {
                    let addr = v(ptr);
                    let old = self.read(*space, addr)?;
                    self.write(*space, addr, eval_atomic(*op, *ty, old, v(value)))?;
                    old
                }
                Op::WorkItem(b) => self.builtin(*b, item.lid),
                Op::LocalAddr(id) => LOCAL_BASE + self.offsets[id.index()],
                Op::Barrier => return Ok(()),
                Op::Printf { fmt, args } => {
                    let mut vals = args.iter().map(|(o, t)| (v(o), *t));
                    let mut line = String::new();
                    for (i, piece) in fmt.split("{}").enumerate() {
                        if i > 0 {
                            line += &match vals.next() {
                                Some((bits, Scalar::F32)) => f32::from_bits(bits).to_string(),
                                Some((bits, Scalar::I32)) => (bits as i32).to_string(),
                                Some((bits, _)) => bits.to_string(),
                                None => "{}".to_string(),
                            };
                        }
                        line += piece;
                    }
                    self.out.printf_output.push(line);
                    continue;
                }
            };
            if let Some(r) = inst.result {
                item.regs[r.index()] = result;
            }
        }
    }

    fn builtin(&self, b: Builtin, lid: [u32; 3]) -> u32 {
        let (nd, group) = (self.nd, self.group);
        match b {
            Builtin::GlobalId(d) => group[d as usize] * nd.local[d as usize] + lid[d as usize],
            Builtin::LocalId(d) => lid[d as usize],
            Builtin::GroupId(d) => group[d as usize],
            Builtin::GlobalSize(d) => nd.global[d as usize],
            Builtin::LocalSize(d) => nd.local[d as usize],
            Builtin::NumGroups(d) => nd.num_groups()[d as usize],
        }
    }

    /// Byte offset of the local word at `addr`.
    fn local_at(&self, addr: u32) -> Result<usize, InterpError> {
        let off = addr.wrapping_sub(LOCAL_BASE) as usize;
        if !addr.is_multiple_of(4) {
            Err(InterpError::Misaligned {
                addr,
                space: "local",
            })
        } else if off + 4 > self.local.len() {
            Err(InterpError::OutOfBounds {
                addr,
                space: "local",
            })
        } else {
            Ok(off)
        }
    }

    fn read(&self, space: AddressSpace, addr: u32) -> Result<u32, InterpError> {
        match space {
            AddressSpace::Global => self.mem.read_u32(addr),
            AddressSpace::Local => {
                let off = self.local_at(addr)?;
                Ok(u32::from_le_bytes(
                    self.local[off..off + 4].try_into().unwrap(),
                ))
            }
        }
    }

    fn write(&mut self, space: AddressSpace, addr: u32, v: u32) -> Result<(), InterpError> {
        match space {
            AddressSpace::Global => self.mem.write_u32(addr, v),
            AddressSpace::Local => {
                let off = self.local_at(addr)?;
                self.local[off..off + 4].copy_from_slice(&v.to_le_bytes());
                Ok(())
            }
        }
    }
}

fn value(o: &Operand, regs: &[u32]) -> u32 {
    match o {
        Operand::Reg(r) => regs[r.index()],
        Operand::Const(k) => k.bits(),
    }
}

/// The counters and output both sides must agree on.
fn summary(r: &ExecResult) -> (u64, u64, u64, &[String]) {
    (r.steps, r.global_loads, r.global_stores, &r.printf_output)
}

/// Run a suite workload through [`reference`] the way `ocl_suite::run`
/// runs it through the interpreter: same allocation order, same binding,
/// the same final buffers read back.
fn reference_outcome(b: &fpga_gpu_repro::suite::Benchmark, level: OptLevel) -> RunOutcome {
    let module = fpga_gpu_repro::cache::global()
        .optimize(b.source, level)
        .unwrap();
    let w = (b.workload)(Scale::Test);
    let mut mem = Memory::new(32 << 20);
    let addrs: Vec<u32> = w
        .buffers
        .iter()
        .map(|h| match h {
            HostData::Zeroed(n) => mem.try_alloc(4 * n).unwrap(),
            _ => mem.try_alloc_u32(&h.to_words()).unwrap(),
        })
        .collect();
    let mut out = RunOutcome::default();
    for l in &w.launches {
        let args: Vec<KernelArg> = l
            .args
            .iter()
            .map(|a| match *a {
                LArg::Buf(i) => KernelArg::Ptr(addrs[i]),
                LArg::I32(v) => KernelArg::I32(v),
                LArg::U32(v) => KernelArg::U32(v),
                LArg::F32(v) => KernelArg::F32(v),
            })
            .collect();
        let r = reference(module.expect_kernel(l.kernel), &args, &l.nd, &mut mem)
            .unwrap_or_else(|e| panic!("{} at {}: {e}", b.name, level.flag_name()));
        out.instructions += r.steps;
        out.global_loads += r.global_loads;
        out.global_stores += r.global_stores;
        out.printf_output.extend(r.printf_output);
    }
    out.buffers = w
        .buffers
        .iter()
        .zip(&addrs)
        .map(|(h, &a)| match h {
            HostData::Zeroed(_) => Vec::new(),
            _ => mem.read_u32_slice(a, h.words()),
        })
        .collect();
    out
}

#[test]
fn suite_matches_the_item_serial_reference() {
    let interp = Backend::Interp {
        limits: Limits::default(),
    };
    for b in all_benchmarks() {
        for level in OptLevel::ALL {
            let what = format!("{} at {}", b.name, level.flag_name());
            let got = run(
                &interp,
                b.source,
                &(b.workload)(Scale::Test),
                Some(level),
                None,
            )
            .unwrap_or_else(|e| panic!("{what}: {e}"));
            let want = reference_outcome(&b, level);
            assert_eq!(got.buffers, want.buffers, "{what}: buffers");
            // BFS races: in `bfs_expand` each frontier item tests
            // `cost[id] < 0` for its neighbours and then sets `cost[id]`,
            // `next_mask[id]` and `done[0]`. When two items of a group
            // share an unvisited neighbour, item by item the second sees
            // the first's store and skips it; in lockstep both test before
            // either stores, and both store the same values. The buffers
            // agree; the steps, loads and stores do not.
            if b.name == "BFS" {
                continue;
            }
            assert_eq!(
                (got.instructions, got.global_loads, got.global_stores),
                (want.instructions, want.global_loads, want.global_stores),
                "{what}: steps, global loads and stores"
            );
            assert_eq!(got.printf_output, want.printf_output, "{what}: printf");
        }
    }
}

/// Run `src` on both sides over `nd` with `input` in `a` and `init_out` in
/// `o`, and require the same output memory, counters and printf.
fn assert_same(case: u64, src: &str, input: &[i32], init_out: &[i32], nd: &NdRange) {
    let module = ocl_front::compile(src)
        .unwrap_or_else(|e| panic!("case {case}: gen produced invalid source: {e}\n{src}"));
    let f = module.expect_kernel("fuzz");
    let side = |gangs: bool| {
        let mut mem = Memory::new(1 << 20);
        let pa = mem.alloc_i32(input);
        let po = mem.alloc_i32(init_out);
        let args = [
            KernelArg::Ptr(pa),
            KernelArg::Ptr(po),
            KernelArg::I32(input.len() as i32),
        ];
        let r = if gangs {
            run_ndrange(f, &args, nd, &mut mem, &Limits::default())
        } else {
            reference(f, &args, nd, &mut mem)
        };
        let r = r.unwrap_or_else(|e| panic!("case {case} (gangs: {gangs}): {e}\n{src}"));
        (r, mem.read_i32_slice(po, init_out.len()))
    };
    let (got, got_mem) = side(true);
    let (want, want_mem) = side(false);
    assert_eq!(got_mem, want_mem, "case {case} on {nd:?}: memory\n{src}");
    assert_eq!(
        summary(&got),
        summary(&want),
        "case {case} on {nd:?}: steps, loads, stores, printf\n{src}"
    );
}

#[test]
fn random_kernels_match_the_item_serial_reference() {
    const CASES: u64 = 48;
    let mut r = Rng::new(0xD1FF_0009);
    for case in 0..CASES {
        let seed = r.below(1000);
        // `arb_local_kernel` indexes an 8-word `__local` tile by local id,
        // so it runs in groups of 8; the others also run in groups of 128
        // (two gangs).
        let (src, geometries) = match case % 4 {
            0 => (arb_local_kernel(&mut r), &[(64, 8)][..]),
            1 => (arb_kernel(&mut r), &[(64, 8), (256, 128)][..]),
            2 => (arb_float_kernel(&mut r), &[(64, 8), (256, 128)][..]),
            _ => (arb_atomic_kernel(&mut r), &[(64, 8), (256, 128)][..]),
        };
        for &(n, local) in geometries {
            let input = case_input(n, seed);
            let init_out: Vec<i32> = (0..n as i32).map(|i| (i * 37) % 53 - 26).collect();
            assert_same(case, &src, &input, &init_out, &NdRange::d1(n, local));
        }
    }
}
