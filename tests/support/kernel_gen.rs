//! The random kernel generators the differential tests share. Each
//! returns OpenCL source for a kernel `fuzz(a, o, n)` that reads `a[i]`
//! and writes `o`, drawn from a caller's fixed-seed [`Rng`], so a failing
//! case index is a full repro.
//!
//! Include it with `#[path = "support/kernel_gen.rs"] mod kernel_gen;`.

use repro_util::Rng;

/// A random integer expression over `i` (the gid), `v` (a loaded value) and
/// `acc`, rendered into kernel source.
fn arb_int_expr(r: &mut Rng, depth: u32) -> String {
    if depth == 0 {
        return match r.below(4) {
            0 => "i".to_string(),
            1 => "v".to_string(),
            2 => "acc".to_string(),
            _ => r.range_i32(1, 64).to_string(),
        };
    }
    let a = arb_int_expr(r, depth - 1);
    match r.below(9) {
        0 => format!("({a} + {})", arb_int_expr(r, depth - 1)),
        1 => format!("({a} - {})", arb_int_expr(r, depth - 1)),
        2 => format!("({a} * {})", arb_int_expr(r, depth - 1)),
        // Divisors/shift amounts kept well-defined.
        3 => format!("({a} / {})", r.range_i32(1, 16)),
        4 => format!("({a} % {})", r.range_i32(1, 16)),
        5 => format!("({a} >> {})", r.range_i32(0, 8)),
        6 => format!("({a} ^ {})", arb_int_expr(r, depth - 1)),
        7 => format!("min({a}, {})", arb_int_expr(r, depth - 1)),
        _ => format!("(-{a})"),
    }
}

/// A random kernel: loads a[i], optionally loops (uniform or divergent
/// bound), optionally branches divergently, writes one output.
pub fn arb_kernel(r: &mut Rng) -> String {
    let body_e = arb_int_expr(r, 2);
    let then_e = arb_int_expr(r, 1);
    let cond_e = arb_int_expr(r, 1);
    let loop_kind = r.below(3);
    let div_if = r.bool();
    let trips = r.range_i32(1, 6);
    let loop_hdr = match loop_kind {
        1 => format!("for (int j = 0; j < {trips}; j++)"),
        2 => "for (int j = 0; j < i % 4 + 1; j++)".to_string(),
        _ => "for (int j = 0; j < 1; j++)".to_string(),
    };
    let branch = if div_if {
        format!("if ((({cond_e}) & 3) == 1) {{ acc += {then_e}; }} else {{ acc -= 1; }}")
    } else {
        format!("acc += {then_e};")
    };
    format!(
        "__kernel void fuzz(__global const int* a, __global int* o, int n) {{
            int i = get_global_id(0);
            int v = a[i];
            int acc = 0;
            {loop_hdr} {{
                acc = acc + ({body_e});
                {branch}
            }}
            o[i] = acc;
        }}"
    )
}

/// [`arb_kernel`]'s divergent `if`/`else` on the float side: an integer
/// expression is converted to float, goes through add/mul/min/max under a
/// branch only some lanes of a warp take, and is converted back, so the
/// simulator runs its float arithmetic and both conversions under partial
/// thread masks. The conversion back saturates identically on both sides
/// and every operation is plain IEEE single precision, so the comparison
/// with the interpreter stays bit-for-bit.
pub fn arb_float_kernel(r: &mut Rng) -> String {
    let seed_e = arb_int_expr(r, 2);
    let then_e = arb_int_expr(r, 1);
    let cond_e = arb_int_expr(r, 1);
    let scale = r.range_i32(1, 9);
    let bias = r.range_i32(-50, 50);
    let then_op = match r.below(3) {
        0 => format!("f * {scale}.25f + (float)({then_e})"),
        1 => format!("fmin(f, (float)({then_e})) * 0.5f"),
        _ => format!("(f + {bias}.5f) * (float)(({then_e}) & 7)"),
    };
    format!(
        "__kernel void fuzz(__global const int* a, __global int* o, int n) {{
            int i = get_global_id(0);
            int v = a[i];
            int acc = i & 5;
            float f = (float)({seed_e});
            if ((({cond_e}) & 3) == 1) {{ f = {then_op}; acc = (int)(f * 0.25f); }} else {{ f = f - 1.5f; }}
            f = fmax(fmin(f, 1000000.0f), -1000000.0f);
            o[i] = (int)f ^ acc;
        }}"
    )
}

/// A random group-mode kernel: every work-item publishes into its own
/// `__local` slot, synchronizes with `barrier()`, then reads a rotated
/// neighbor's slot — optionally repeated in a uniform-trip loop with a
/// trailing barrier protecting the next iteration's store (the Dotproduct
/// idiom). Barriers stay in uniform top-level control flow (divergent
/// branches come after), so generated kernels can never deadlock.
pub fn arb_local_kernel(r: &mut Rng) -> String {
    let store_e = arb_int_expr(r, 2);
    let mix_e = arb_int_expr(r, 1);
    let shift = r.range_i32(0, 7);
    let trips = r.range_i32(1, 4);
    let tail = if r.bool() {
        format!("if (((v ^ i) & 3) == 2) {{ acc += {mix_e}; }} else {{ acc -= 2; }}")
    } else {
        String::new()
    };
    format!(
        "__kernel void fuzz(__global const int* a, __global int* o, int n) {{
            int i = get_global_id(0);
            int lid = get_local_id(0);
            __local int tmp[8];
            int v = a[i];
            int acc = 0;
            for (int j = 0; j < {trips}; j++) {{
                tmp[lid] = ({store_e}) + j;
                barrier(CLK_LOCAL_MEM_FENCE);
                acc += tmp[(lid + {shift}) % 8];
                barrier(CLK_LOCAL_MEM_FENCE);
            }}
            {tail}
            o[i] = acc;
        }}"
    )
}

/// A random kernel whose only output-buffer writes are atomic
/// read-modify-writes. Per kernel, ops are drawn from one *commuting
/// family* — `add`/`sub` together, or a single one of `min`/`max`/`and`/
/// `or`/`xor` — and return values are discarded, so the final memory is
/// independent of thread interleaving and the sequential interpreter is a
/// valid oracle for the parallel simulator.
pub fn arb_atomic_kernel(r: &mut Rng) -> String {
    let family: &[&str] = match r.below(6) {
        0 => &["atomic_add", "atomic_sub"],
        1 => &["atomic_min"],
        2 => &["atomic_max"],
        3 => &["atomic_and"],
        4 => &["atomic_or"],
        _ => &["atomic_xor"],
    };
    let mut stmts = String::new();
    for _ in 0..1 + r.below(3) {
        let op = family[r.below(family.len() as u64) as usize];
        let idx = match r.below(3) {
            0 => format!("(i % {})", r.range_i32(1, 16)),
            1 => format!("(i & {})", r.range_i32(0, 15)),
            _ => format!("((i / {}) % 16)", r.range_i32(1, 8)),
        };
        let val = arb_int_expr(r, 2);
        stmts.push_str(&format!("{op}(&o[{idx}], {val});\n            "));
    }
    format!(
        "__kernel void fuzz(__global const int* a, __global int* o, int n) {{
            int i = get_global_id(0);
            int v = a[i];
            int acc = 0;
            {stmts}
        }}"
    )
}

/// Deterministic pseudo-random input vector for a case.
pub fn case_input(n: u32, seed: u64) -> Vec<i32> {
    (0..n as i64)
        .map(|i| ((i.wrapping_mul(2654435761) + seed as i64) % 199 - 99) as i32)
        .collect()
}
