//! The repo's benchmark: four served workloads, measured end to end
//! through the real `repro serve` child and layer by layer in process.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, one pass; last stdout line is the driver's JSON result
//!     (trace 0: the end-to-end metrics, trace 1: the per-layer metrics)
//! benchmark [--seed <n>] [--seconds <s>] [--repeat <k>]
//!     every workload, both passes, every metric by name; with --repeat,
//!     min/median/max per metric and the self-agreement verdict
//! ```
//!
//! See `README.md` for what each workload and metric is for.

mod e2e;
mod expect;
mod gen;
mod layers;
mod metrics;
mod report;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use gen::Workload;
use report::Measured;

/// `run_seconds` of `BENCHMARK.json`: how long the timed phase of one
/// end-to-end run lasts unless `--seconds` says otherwise.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Where things are: the repo checkout, the built `repro`, and the scratch
/// directory everything the benchmark writes goes under.
pub struct Paths {
    pub root: PathBuf,
    pub repro: PathBuf,
    pub scratch: PathBuf,
}

impl Paths {
    /// The checkout is the parent of this package; build outputs follow
    /// `CARGO_TARGET_DIR` exactly as the nested `cargo build` will.
    fn locate() -> Result<Paths, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .ok_or("benchmark/ has no parent directory")?
            .to_path_buf();
        let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
        let target = match std::env::var_os("CARGO_TARGET_DIR").filter(|v| !v.is_empty()) {
            Some(t) => cwd.join(t),
            None => root.join("target"),
        };
        Ok(Paths {
            repro: target.join("release").join("repro"),
            scratch: target.join("benchmark"),
            root,
        })
    }

    /// Build the program under test exactly as tier-1 does (release,
    /// offline, the root workspace's own profile and lock file).
    fn build_repro(&self) -> Result<(), String> {
        let status = Command::new("cargo")
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "repro-bench", "--bin", "repro"])
            .current_dir(&self.root)
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("run cargo: {e}"))?;
        if !status.success() || !self.repro.is_file() {
            return Err(format!(
                "building {} failed ({status})",
                self.repro.display()
            ));
        }
        std::fs::create_dir_all(&self.scratch)
            .map_err(|e| format!("create {}: {e}", self.scratch.display()))
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                args.repeat = value.parse().ok().filter(|&k| k >= 1).ok_or_else(bad)?;
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(args)
}

/// One workload, one pass.
fn measure(paths: &Paths, w: Workload, args: &Args, trace: bool) -> Result<Measured, String> {
    if trace {
        layers::run(paths, w, args.seed)
    } else {
        let (run, _) = e2e::run(
            &paths.repro,
            &paths.scratch,
            w,
            args.seed,
            args.seconds,
            w.setups(),
            false,
        )?;
        Ok(Measured::from_e2e(&run))
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let paths = Paths::locate()?;
    paths.build_repro()?;
    match args.workload {
        Some(w) => {
            let m = measure(&paths, w, &args, args.trace)?;
            report::print_table(w, args.trace, &m, &mut std::io::stderr());
            println!("{}", m.result_line(args.trace));
            Ok(m.correct())
        }
        None => report::full(&paths, args.seed, args.seconds, args.repeat, |w, trace| {
            measure(&paths, w, &args, trace)
        }),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: outcomes or counts did not match; see the notes above");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
