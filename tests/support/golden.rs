//! The golden-file harness every root golden test shares.
//!
//! Include it with `#[path = "support/golden.rs"] mod golden;`.

/// Compare `rendered` byte for byte with `tests/golden/<file>`; under
/// `REGOLD=1`, rewrite the golden instead. `what` names the rendered
/// artifact in the failure message, which also names the golden file and
/// the exact command that regenerates it.
pub fn check(file: &str, rendered: &str, what: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let regen = format!(
        "REGOLD=1 cargo test -p {} --test {}",
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
