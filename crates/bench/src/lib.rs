//! `repro-bench` — the experiment harness (`repro` binary).
