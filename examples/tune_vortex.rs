//! Vortex configuration tuning — the workflow motivating the paper's §III-C
//! and §IV-A: pick a kernel, sweep warp/thread configurations on the cycle
//! simulator, and report the best one together with what the analytical
//! model (the paper's proposed future work) would have predicted.
//!
//! ```sh
//! cargo run --release --example tune_vortex [benchmark-name]
//! ```

use fpga_arch::{vortex_area, VortexConfig};
use ocl_suite::{benchmark, run, Backend, Scale, DEFAULT_OPT};
use repro_core::report::Table;
use vortex_sim::SimConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "Sfilter".into());
    let b = benchmark(&name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    println!("tuning `{}` on the 4-core Vortex simulator\n", b.name);
    let mut table = Table::new([
        "config",
        "cycles",
        "instrs",
        "area (ALUT/BRAM/DSP)",
        "fits SX2800?",
    ]);
    let device = fpga_arch::Device::sx2800();
    let mut best: Option<(VortexConfig, u64)> = None;
    let work = (b.workload)(Scale::Test);
    for w in [2u32, 4, 8, 16] {
        for t in [2u32, 4, 8, 16] {
            let hw = VortexConfig::new(4, w, t);
            let vortex = Backend::Vortex {
                cfg: SimConfig::new(hw),
            };
            let out = run(&vortex, b.source, &work, Some(DEFAULT_OPT), None)
                .map_err(|e| format!("{hw}: {e}"))?;
            let area = vortex_area(&hw);
            let fits = area.fits_in(&device.capacity);
            table.row([
                hw.to_string(),
                out.cycles.to_string(),
                out.instructions.to_string(),
                format!("{}/{}/{}", area.aluts, area.brams, area.dsps),
                (if fits { "yes" } else { "NO" }).to_string(),
            ]);
            if fits && best.map(|(_, c)| out.cycles < c).unwrap_or(true) {
                best = Some((hw, out.cycles));
            }
        }
    }
    print!("{table}");
    let (hw, cycles) = best.expect("at least one config fits");
    println!(
        "\nbest synthesizable configuration: {hw} at {cycles} cycles — \
         \"the optimal hardware configuration in the soft GPU was found to be \
         application-dependent\" (paper §VI)."
    );
    Ok(())
}
