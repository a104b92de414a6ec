//! `repro-bench` — experiment harness (`repro` binary) and the
//! `ablations` bench target (deterministic modeled numbers).
