//! Wall-clock measurement helper for per-pass timing.

use std::time::Instant;

/// Time a single invocation of `f`; returns its result and the elapsed
/// wall-clock seconds. Used by the IR pass manager for per-pass timing.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}
