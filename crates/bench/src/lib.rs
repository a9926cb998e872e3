//! Criterion harness for the E1–E8 experiments.
//!
//! The workload builders live in [`scavenger::workloads`] so that the
//! offline examples at the repo root and the Criterion benches in this
//! crate share one set of programs; this crate
//! re-exports them for the benches. This package is deliberately *outside*
//! the workspace (see the root `Cargo.toml`): Criterion is not vendored,
//! so the workspace itself builds and tests fully offline, and this crate
//! is only built on machines with a crates.io mirror via
//! `cargo bench --manifest-path crates/bench/Cargo.toml`.

pub use scavenger::workloads::*;
