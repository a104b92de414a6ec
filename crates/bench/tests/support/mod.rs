//! Helpers shared by the golden tests that drive the built `repro` binary.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// A fresh, empty directory under `CARGO_TARGET_TMPDIR` for one case, so
/// the checkout's `runs/` and `target/repro/` are never touched.
pub fn fresh_dir(case: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(case);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `repro <cmd>` in `dir` with an empty stdin (so `serve` sees EOF).
pub fn repro(dir: &Path, cmd: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(cmd.split_whitespace())
        .current_dir(dir)
        .stdin(Stdio::null())
        .output()
        .expect("spawn repro")
}
