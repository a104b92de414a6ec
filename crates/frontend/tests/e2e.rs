//! End-to-end front-end tests: compile OpenCL-C subset source and execute it
//! on the reference interpreter, checking against hand-computed results.

use ocl_front::{compile, compile_lexed, compile_with_defines, lex_source};
use ocl_ir::interp::{run_ndrange, KernelArg, Limits, Memory, NdRange};
use repro_util::diag::ReproError;

#[test]
fn end_to_end_vecadd() {
    let src = r#"
        __kernel void vecadd(__global const float* a, __global const float* b,
                             __global float* c) {
            int i = get_global_id(0);
            c[i] = a[i] + b[i];
        }
    "#;
    let m = compile(src).unwrap();
    let k = m.expect_kernel("vecadd");
    let mut mem = Memory::new(1 << 20);
    let a: Vec<f32> = (0..32).map(|i| i as f32).collect();
    let b: Vec<f32> = (0..32).map(|i| 2.0 * i as f32).collect();
    let pa = mem.alloc_f32(&a);
    let pb = mem.alloc_f32(&b);
    let pc = mem.alloc(32 * 4);
    run_ndrange(
        k,
        &[KernelArg::Ptr(pa), KernelArg::Ptr(pb), KernelArg::Ptr(pc)],
        &NdRange::d1(32, 8),
        &mut mem,
        &Limits::default(),
    )
    .unwrap();
    let out = mem.read_f32_slice(pc, 32);
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, 3.0 * i as f32);
    }
}

#[test]
fn end_to_end_loop_and_branch() {
    let src = r#"
        __kernel void count_odd(__global const int* a, __global int* out, int n) {
            int i = get_global_id(0);
            int acc = 0;
            for (int j = 0; j <= i; j++) {
                if (a[j] % 2 != 0) acc += 1;
            }
            out[i] = acc;
        }
    "#;
    let m = compile(src).unwrap();
    let k = m.expect_kernel("count_odd");
    let mut mem = Memory::new(1 << 16);
    let a: Vec<i32> = (0..16).collect();
    let pin = mem.alloc_i32(&a);
    let pout = mem.alloc(16 * 4);
    run_ndrange(
        k,
        &[
            KernelArg::Ptr(pin),
            KernelArg::Ptr(pout),
            KernelArg::I32(16),
        ],
        &NdRange::d1(16, 4),
        &mut mem,
        &Limits::default(),
    )
    .unwrap();
    let out = mem.read_i32_slice(pout, 16);
    for i in 0..16i32 {
        assert_eq!(out[i as usize], (i + 1) / 2, "i={i}");
    }
}

#[test]
fn compile_error_reports_location() {
    let e = compile("__kernel void k(__global int* o) { int x = y; o[0] = x; }").unwrap_err();
    match e {
        ReproError::Frontend {
            stage: "sema",
            message,
            line,
            ..
        } => {
            assert!(message.contains("undefined identifier"), "{message}");
            assert_eq!(line, 1);
        }
        other => panic!("unexpected {other}"),
    }
}

/// The split entry points are `compile` cut in two: the same error, at the
/// same line and column, whichever half finds it.
#[test]
fn lexed_path_reports_the_same_errors_at_the_same_positions() {
    let cases = [
        (
            "lex",
            "__kernel void k(__global int* o) {\n  o[0] = 1 ` 2;\n}",
        ),
        (
            "parse",
            "__kernel void k(__global int* o) {\n\n    o[0] = ;\n}",
        ),
        (
            "sema",
            "#define N 4\n__kernel void k(__global int* o) {\n  int x = N;\n      o[0] = x + y;\n}",
        ),
    ];
    for (stage, src) in cases {
        let whole = compile(src).unwrap_err();
        let split = lex_source(src, &[])
            .and_then(|l| compile_lexed(&l))
            .unwrap_err();
        assert_eq!(split, whole, "{stage}");
        let ReproError::Frontend {
            stage: found,
            line,
            col,
            ..
        } = whole
        else {
            panic!("{stage}: unexpected {whole}");
        };
        assert_eq!(found, stage);
        assert!(line > 1 && col > 1, "{stage}: {line}:{col}");
    }
}

#[test]
fn defines_control_constants() {
    let src = r#"
        __kernel void fill(__global int* o) {
            o[get_global_id(0)] = VALUE;
        }
    "#;
    let m = compile_with_defines(src, &[("VALUE", "42")]).unwrap();
    let k = m.expect_kernel("fill");
    let mut mem = Memory::new(1 << 12);
    let p = mem.alloc(16);
    run_ndrange(
        k,
        &[KernelArg::Ptr(p)],
        &NdRange::d1(4, 4),
        &mut mem,
        &Limits::default(),
    )
    .unwrap();
    assert_eq!(mem.read_i32_slice(p, 4), vec![42; 4]);
}

#[test]
fn short_circuit_evaluation_is_safe() {
    // Guarded out-of-bounds access: RHS of && must not run when i >= n.
    let src = r#"
        __kernel void guard(__global const int* a, __global int* o, int n) {
            int i = get_global_id(0);
            if (i < n && a[i] > 0) o[i] = 1; else o[i] = 0;
        }
    "#;
    let m = compile(src).unwrap();
    let k = m.expect_kernel("guard");
    let mut mem = Memory::new(1 << 12);
    let pa = mem.alloc_i32(&[5, -2]);
    let po = mem.alloc(4 * 4);
    run_ndrange(
        k,
        &[KernelArg::Ptr(pa), KernelArg::Ptr(po), KernelArg::I32(2)],
        &NdRange::d1(4, 4),
        &mut mem,
        &Limits::default(),
    )
    .unwrap();
    assert_eq!(mem.read_i32_slice(po, 4), vec![1, 0, 0, 0]);
}

#[test]
fn ternary_and_compound_assign() {
    let src = r#"
        __kernel void relu_scale(__global float* x, float k) {
            int i = get_global_id(0);
            float v = x[i] > 0.0f ? x[i] : 0.0f;
            v *= k;
            x[i] = v;
        }
    "#;
    let m = compile(src).unwrap();
    let k = m.expect_kernel("relu_scale");
    let mut mem = Memory::new(1 << 12);
    let px = mem.alloc_f32(&[1.0, -2.0, 3.0, -4.0]);
    run_ndrange(
        k,
        &[KernelArg::Ptr(px), KernelArg::F32(2.0)],
        &NdRange::d1(4, 4),
        &mut mem,
        &Limits::default(),
    )
    .unwrap();
    assert_eq!(mem.read_f32_slice(px, 4), vec![2.0, 0.0, 6.0, 0.0]);
}

#[test]
fn local_memory_tile_transpose() {
    let src = r#"
        __kernel void transpose_tile(__global const float* in, __global float* out, int n) {
            __local float tile[8][8];
            int lx = get_local_id(0);
            int ly = get_local_id(1);
            int gx = get_global_id(0);
            int gy = get_global_id(1);
            tile[ly][lx] = in[gy * n + gx];
            barrier(CLK_LOCAL_MEM_FENCE);
            int ox = get_group_id(1) * 8 + lx;
            int oy = get_group_id(0) * 8 + ly;
            out[oy * n + ox] = tile[lx][ly];
        }
    "#;
    let m = compile(src).unwrap();
    let k = m.expect_kernel("transpose_tile");
    let n = 16u32;
    let mut mem = Memory::new(1 << 16);
    let input: Vec<f32> = (0..n * n).map(|i| i as f32).collect();
    let pin = mem.alloc_f32(&input);
    let pout = mem.alloc(n * n * 4);
    run_ndrange(
        k,
        &[
            KernelArg::Ptr(pin),
            KernelArg::Ptr(pout),
            KernelArg::I32(n as i32),
        ],
        &NdRange::d2(n, n, 8, 8),
        &mut mem,
        &Limits::default(),
    )
    .unwrap();
    let out = mem.read_f32_slice(pout, (n * n) as usize);
    for y in 0..n {
        for x in 0..n {
            assert_eq!(out[(y * n + x) as usize], input[(x * n + y) as usize]);
        }
    }
}

#[test]
fn atomic_histogram() {
    let src = r#"
        __kernel void hist(__global const uint* data, __global int* bins) {
            uint v = data[get_global_id(0)];
            atomic_add(&bins[v % 8u], 1);
        }
    "#;
    let m = compile(src).unwrap();
    let k = m.expect_kernel("hist");
    let mut mem = Memory::new(1 << 12);
    let data: Vec<u32> = (0..64).collect();
    let pd = mem.alloc_u32(&data);
    let pb = mem.alloc_i32(&[0; 8]);
    run_ndrange(
        k,
        &[KernelArg::Ptr(pd), KernelArg::Ptr(pb)],
        &NdRange::d1(64, 8),
        &mut mem,
        &Limits::default(),
    )
    .unwrap();
    assert_eq!(mem.read_i32_slice(pb, 8), vec![8; 8]);
}

#[test]
fn pipelined_load_intrinsic_sets_hint() {
    let src = r#"
        __kernel void k(__global const float* a, __global float* o) {
            int i = get_global_id(0);
            float v = __pipelined_load(a + i);
            o[i] = v;
        }
    "#;
    let m = compile(src).unwrap();
    let k = m.expect_kernel("k");
    let pipelined = k
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| {
            matches!(
                i.op,
                ocl_ir::Op::Load {
                    hint: ocl_ir::LoadHint::Pipelined,
                    ..
                }
            )
        })
        .count();
    assert_eq!(pipelined, 1);
}

#[test]
fn break_and_continue() {
    let src = r#"
        __kernel void k(__global int* o, int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0) continue;
                if (i > 6) break;
                acc += i;
            }
            o[get_global_id(0)] = acc;
        }
    "#;
    let m = compile(src).unwrap();
    let k = m.expect_kernel("k");
    let mut mem = Memory::new(1 << 12);
    let po = mem.alloc(4);
    run_ndrange(
        k,
        &[KernelArg::Ptr(po), KernelArg::I32(100)],
        &NdRange::d1(1, 1),
        &mut mem,
        &Limits::default(),
    )
    .unwrap();
    // 1 + 3 + 5 = 9
    assert_eq!(mem.read_i32_slice(po, 1)[0], 9);
}

#[test]
fn while_do_while_equivalence() {
    let src = r#"
        __kernel void k(__global int* o) {
            int a = 0;
            int i = 0;
            while (i < 5) { a += i; i++; }
            int b = 0;
            int j = 0;
            do { b += j; j++; } while (j < 5);
            o[0] = a;
            o[1] = b;
        }
    "#;
    let m = compile(src).unwrap();
    let mut mem = Memory::new(1 << 12);
    let po = mem.alloc(8);
    run_ndrange(
        m.expect_kernel("k"),
        &[KernelArg::Ptr(po)],
        &NdRange::d1(1, 1),
        &mut mem,
        &Limits::default(),
    )
    .unwrap();
    assert_eq!(mem.read_i32_slice(po, 2), vec![10, 10]);
}

#[test]
fn math_builtins_match_rust() {
    let src = r#"
        __kernel void m(__global float* o, float x) {
            o[0] = sqrt(x);
            o[1] = exp(x);
            o[2] = log(x);
            o[3] = fabs(-x);
            o[4] = fmax(x, 2.0f);
            o[5] = floor(x);
        }
    "#;
    let m = compile(src).unwrap();
    let mut mem = Memory::new(1 << 12);
    let po = mem.alloc(6 * 4);
    let x = 3.7f32;
    run_ndrange(
        m.expect_kernel("m"),
        &[KernelArg::Ptr(po), KernelArg::F32(x)],
        &NdRange::d1(1, 1),
        &mut mem,
        &Limits::default(),
    )
    .unwrap();
    let out = mem.read_f32_slice(po, 6);
    assert_eq!(out, vec![x.sqrt(), x.exp(), x.ln(), x, 3.7, 3.0]);
}

#[test]
fn unknown_function_is_an_error() {
    let e = compile("__kernel void k(__global float* o) { o[0] = blah(1.0f); }").unwrap_err();
    assert!(e.to_string().contains("unknown function"), "{e}");
}

#[test]
fn post_increment_yields_old_value() {
    let src = r#"
        __kernel void k(__global int* o) {
            int i = 5;
            o[0] = i++;
            o[1] = i;
            o[2] = ++i;
        }
    "#;
    let m = compile(src).unwrap();
    let mut mem = Memory::new(1 << 12);
    let po = mem.alloc(12);
    run_ndrange(
        m.expect_kernel("k"),
        &[KernelArg::Ptr(po)],
        &NdRange::d1(1, 1),
        &mut mem,
        &Limits::default(),
    )
    .unwrap();
    assert_eq!(mem.read_i32_slice(po, 3), vec![5, 6, 7]);
}

#[test]
fn printf_kernel_emits_output() {
    let src = r#"
        __kernel void p(__global const int* a) {
            int i = get_global_id(0);
            printf("a[%d] = %d\n", i, a[i]);
        }
    "#;
    let m = compile(src).unwrap();
    let mut mem = Memory::new(1 << 12);
    let pa = mem.alloc_i32(&[10, 20]);
    let r = run_ndrange(
        m.expect_kernel("p"),
        &[KernelArg::Ptr(pa)],
        &NdRange::d1(2, 1),
        &mut mem,
        &Limits::default(),
    )
    .unwrap();
    assert_eq!(r.printf_output, vec!["a[0] = 10\n", "a[1] = 20\n"]);
}

#[test]
fn nested_loops_matmul_style() {
    let src = r#"
        __kernel void matmul(__global const float* a, __global const float* b,
                             __global float* c, int n) {
            int row = get_global_id(1);
            int col = get_global_id(0);
            float acc = 0.0f;
            for (int k = 0; k < n; k++) {
                acc += a[row * n + k] * b[k * n + col];
            }
            c[row * n + col] = acc;
        }
    "#;
    let m = compile(src).unwrap();
    let k = m.expect_kernel("matmul");
    let n = 8usize;
    let mut mem = Memory::new(1 << 16);
    let a: Vec<f32> = (0..n * n).map(|i| (i % 5) as f32).collect();
    let b: Vec<f32> = (0..n * n).map(|i| (i % 3) as f32).collect();
    let pa = mem.alloc_f32(&a);
    let pb = mem.alloc_f32(&b);
    let pc = mem.alloc((n * n * 4) as u32);
    run_ndrange(
        k,
        &[
            KernelArg::Ptr(pa),
            KernelArg::Ptr(pb),
            KernelArg::Ptr(pc),
            KernelArg::I32(n as i32),
        ],
        &NdRange::d2(n as u32, n as u32, 4, 4),
        &mut mem,
        &Limits::default(),
    )
    .unwrap();
    let c = mem.read_f32_slice(pc, n * n);
    for row in 0..n {
        for col in 0..n {
            let want: f32 = (0..n).map(|kk| a[row * n + kk] * b[kk * n + col]).sum();
            assert!((c[row * n + col] - want).abs() < 1e-4);
        }
    }
}
