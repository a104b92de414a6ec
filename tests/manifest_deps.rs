//! Holds every `[dependencies]` entry of the workspace's manifests to a use:
//! the root package and each member under `crates/` must name each crate it
//! depends on, as `<crate>::` or `use <crate>`, somewhere under its `src/`,
//! `tests/`, `benches/` or `examples/`. A dependency nothing names only
//! lengthens the build and misstates the crate graph.

use std::fs;
use std::path::{Path, PathBuf};

/// The crate names of the `[dependencies]` table of `manifest`, with `-`
/// spelled `_` as code names them.
fn dependencies(manifest: &str) -> Vec<String> {
    let mut in_table = false;
    let mut deps = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == "[dependencies]";
        } else if in_table && !line.is_empty() && !line.starts_with('#') {
            let name = line.split(['.', '=', ' ']).next().unwrap();
            deps.push(name.replace('-', "_"));
        }
    }
    deps
}

/// The text of every `.rs` file under `dir`, recursively.
fn sources(dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(fs::read_to_string(&path).unwrap());
        }
    }
}

/// `(package directory, dependencies nothing under it names)` for the root
/// package and every workspace member.
fn unnamed_dependencies() -> Vec<(PathBuf, Vec<String>)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut packages = vec![root.clone()];
    for entry in fs::read_dir(root.join("crates")).unwrap().flatten() {
        if entry.path().join("Cargo.toml").is_file() {
            packages.push(entry.path());
        }
    }
    packages.sort();
    packages
        .into_iter()
        .map(|dir| {
            let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
            let mut texts = Vec::new();
            for sub in ["src", "tests", "benches", "examples"] {
                sources(&dir.join(sub), &mut texts);
            }
            let unnamed = dependencies(&manifest)
                .into_iter()
                .filter(|dep| {
                    let (path, import) = (format!("{dep}::"), format!("use {dep}"));
                    !texts
                        .iter()
                        .any(|t| t.contains(&path) || t.contains(&import))
                })
                .collect();
            (dir, unnamed)
        })
        .collect()
}

#[test]
fn every_manifest_dependency_is_named_in_code() {
    let unnamed: Vec<String> = unnamed_dependencies()
        .into_iter()
        .filter(|(_, deps)| !deps.is_empty())
        .map(|(dir, deps)| format!("{}: {}", dir.display(), deps.join(", ")))
        .collect();
    assert!(
        unnamed.is_empty(),
        "dependencies no file of the package names:\n{}",
        unnamed.join("\n")
    );
}

#[test]
fn dependency_tables_parse() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\nrepro-util.workspace = true\n\
                    ocl-ir = { path = \"../ir\" }\n# note\n\n[dev-dependencies]\nocl-front.workspace = true\n";
    assert_eq!(dependencies(manifest), ["repro_util", "ocl_ir"]);
}
