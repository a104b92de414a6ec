//! Holds every dependency of the workspace's manifests to a use: the root
//! package and each member under `crates/` must name each crate its
//! `[dependencies]` table lists, as `<crate>::` or `use <crate>`, somewhere
//! under its `src/`, and each crate its `[dev-dependencies]` table lists
//! under `src/`, `tests/`, `benches/` or `examples/`. A dependency nothing
//! names only lengthens the build and misstates the crate graph; one only
//! tests name belongs to the tests.

use std::fs;
use std::path::{Path, PathBuf};

/// The crate names of the `[table]` table of `manifest`, with `-` spelled
/// `_` as code names them.
fn dependencies(manifest: &str, table: &str) -> Vec<String> {
    let header = format!("[{table}]");
    let mut in_table = false;
    let mut deps = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == header;
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

/// Whether any of `texts` names crate `dep`.
fn named(texts: &[String], dep: &str) -> bool {
    let (path, import) = (format!("{dep}::"), format!("use {dep}"));
    texts
        .iter()
        .any(|t| t.contains(&path) || t.contains(&import))
}

/// `(package directory relative to the root, dependencies not named where
/// their table requires)` for the root package and every workspace member.
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
            let mut code = Vec::new();
            sources(&dir.join("src"), &mut code);
            let mut all = code.clone();
            for sub in ["tests", "benches", "examples"] {
                sources(&dir.join(sub), &mut all);
            }
            let mut unnamed: Vec<String> = dependencies(&manifest, "dependencies")
                .into_iter()
                .filter(|dep| !named(&code, dep))
                .collect();
            unnamed.extend(
                dependencies(&manifest, "dev-dependencies")
                    .into_iter()
                    .filter(|dep| !named(&all, dep)),
            );
            (dir.strip_prefix(&root).unwrap().to_path_buf(), unnamed)
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
        "dependencies no file that may use them names:\n{}",
        unnamed.join("\n")
    );
}

#[test]
fn dependency_tables_parse() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\nrepro-util.workspace = true\n\
                    ocl-ir = { path = \"../ir\" }\n# note\n\n[dev-dependencies]\nocl-front.workspace = true\n";
    assert_eq!(
        dependencies(manifest, "dependencies"),
        ["repro_util", "ocl_ir"]
    );
    assert_eq!(dependencies(manifest, "dev-dependencies"), ["ocl_front"]);
}
