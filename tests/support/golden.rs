//! The golden-file harness every golden test shares.
//!
//! Include it with `#[path = "support/golden.rs"] mod golden;` (from a
//! member crate's tests, with the path up to the root's `tests/support`).
//! Goldens live in the workspace root's `tests/golden/`.

use std::path::PathBuf;
use std::sync::Mutex;

/// Compare `rendered` byte for byte with `tests/golden/<file>`; under
/// `REGOLD=1`, rewrite the golden instead. `what` names the rendered
/// artifact in the failure message, which also names the golden file and
/// the exact command that regenerates it.
#[allow(dead_code)]
pub fn check(file: &str, rendered: &str, what: &str) {
    compare(file, rendered, what, "");
}

/// [`check`] for a golden of sections that separate test cases render.
/// `sections` lists every section in file order, as its heading line and
/// the text this case rendered for it (heading included), or `None` when
/// this case does not run it. A section not run is copied from the golden,
/// so every case compares, or under `REGOLD` rewrites, the whole file.
#[allow(dead_code)]
pub fn check_sections(file: &str, header: &str, sections: &[(String, Option<String>)], what: &str) {
    // Serialises the cases' read-modify-write of the golden under `REGOLD`.
    static LOCK: Mutex<()> = Mutex::new(());
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let golden = std::fs::read_to_string(path(file)).unwrap_or_default();
    let mut rendered = String::from(header);
    for (i, (heading, text)) in sections.iter().enumerate() {
        match text {
            Some(text) => rendered.push_str(text),
            None => {
                let Some(start) = golden.find(heading.as_str()) else {
                    continue;
                };
                let end = sections[i + 1..]
                    .iter()
                    .filter_map(|(next, _)| golden[start..].find(next.as_str()))
                    .min()
                    .map_or(golden.len(), |len| start + len);
                rendered.push_str(&golden[start..end]);
            }
        }
    }
    compare(file, &rendered, what, " -- --include-ignored");
}

/// `tests/golden/<file>` under the workspace root.
fn path(file: &str) -> PathBuf {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest
        .ancestors()
        .find(|dir| dir.join("tests/golden").is_dir())
        .expect("a `tests/golden` directory above the crate");
    root.join("tests/golden").join(file)
}

fn compare(file: &str, rendered: &str, what: &str, test_args: &str) {
    let path = path(file);
    let regen = format!(
        "REGOLD=1 cargo test -p {} --test {}{test_args}",
        env!("CARGO_PKG_NAME"),
        env!("CARGO_CRATE_NAME")
    );
    if std::env::var_os("REGOLD").is_some() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read golden `tests/golden/{file}` ({e}); create it with `{regen}`")
    });
    assert_eq!(
        rendered, golden,
        "{what} changed against `tests/golden/{file}`; if intentional, regenerate with `{regen}`"
    );
}
