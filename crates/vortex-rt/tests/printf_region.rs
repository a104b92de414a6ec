//! Each hart prints through its own 64-byte buffer in the printf region,
//! which ends where the heap starts, so it holds `PRINTF_HARTS` (8 192)
//! harts. A kernel that prints must not launch on a machine with more: the
//! last harts' buffers would be heap words.

use fpga_arch::VortexConfig;
use ocl_ir::interp::NdRange;
use repro_util::diag::ReproError;
use vortex_isa::layout::PRINTF_HARTS;
use vortex_rt::{compile_for, Arg, VxSession};
use vortex_sim::SimConfig;

/// Items 8192..8199 print; every item writes its own index.
const SRC: &str = r#"
    __kernel void tail(__global int* out) {
        int i = get_global_id(0);
        out[i] = i;
        if (i >= 8192 && i < 8200) {
            printf("item %d of %d %d\n", i, get_global_size(0), out[i]);
        }
    }
"#;

const ITEMS: usize = 16384;

/// Launch the kernel over `ITEMS` items on a `cores` × 16 × 16 machine and
/// return the output buffer and the printed lines.
fn launch(cores: u32) -> Result<(Vec<i32>, Vec<String>), ReproError> {
    let cfg = SimConfig::new(VortexConfig::new(cores, 16, 16));
    let kernel = compile_for(SRC, "tail", &cfg).unwrap();
    let mut session = VxSession::new(cfg, kernel);
    let out = session.alloc((ITEMS * 4) as u32)?;
    let r = session.launch(&[Arg::Buf(out)], &NdRange::d1(ITEMS as u32, 16))?;
    Ok((session.read_i32(out, ITEMS)?, r.printf_output))
}

#[test]
fn printf_kernel_on_more_harts_than_the_region_holds_is_a_bad_launch() {
    assert_eq!(64 * 16 * 16, 2 * PRINTF_HARTS);
    match launch(64) {
        Err(ReproError::Harness { message }) => assert!(message.contains("printf"), "{message}"),
        other => panic!("expected a harness error, got {other:?}"),
    }
}

#[test]
fn printf_kernel_on_exactly_the_harts_the_region_holds_prints_every_line() {
    assert_eq!(32 * 16 * 16, PRINTF_HARTS);
    let (out, mut lines) = launch(32).unwrap();
    assert!(out.iter().copied().eq(0..ITEMS as i32), "output corrupted");
    lines.sort();
    let want: Vec<String> = (8192..8200)
        .map(|i| format!("item {i} of {ITEMS} {i}\n"))
        .collect();
    assert_eq!(lines, want);
}
