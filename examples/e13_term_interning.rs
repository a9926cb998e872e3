//! E13 — hash-consed terms and values: battery throughput on both
//! backends.
//!
//! The interned *program* layer (`gc_lang::intern` extended from
//! tags/types to terms and values) pays off on both machines. The Fig. 5
//! substitution machine clones its continuation at every `let` and
//! re-substitutes the whole program on every step; with interned terms a
//! continuation "clone" is a `u32` copy and `Subst` skips any subtree whose
//! free-variable fingerprint misses the domain, handing the same id back.
//! The bytecode VM benefits on its compile-time operand classification and
//! `Build` operands. Before/after numbers live in EXPERIMENTS.md §E13
//! (before = the pre-refactor tree, same harness).
//!
//! ```text
//! cargo run --release --example e13_term_interning
//! ```

use std::time::Instant;

use scavenger::gc_lang::machine::Outcome;
use scavenger::workloads::{compile_ast, live_dag_churn, live_tree_churn};
use scavenger::{Backend, Collector, Compiled};

const REPS: u32 = 5;
/// The battery workloads, shared verbatim with the before-tree harness.
fn battery() -> Vec<(String, Compiled)> {
    [3u32, 5, 7]
        .iter()
        .map(|&depth| {
            let budget = (2usize << depth) + 96;
            (
                format!("tree depth {depth} / basic"),
                compile_ast(&live_tree_churn(depth, 120), Collector::Basic, budget),
            )
        })
        .chain([(
            "dag depth 6 / forwarding".to_string(),
            compile_ast(&live_dag_churn(6, 120), Collector::Forwarding, 128),
        )])
        .chain([(
            "tree depth 5 / generational".to_string(),
            compile_ast(&live_tree_churn(5, 120), Collector::Generational, 160),
        )])
        .collect()
}

/// Best-of-`REPS` wall-clock of a plain (untracked) run, plus its step
/// count, on the chosen backend.
fn time_run(compiled: &Compiled, backend: Backend) -> (u64, f64) {
    let mut best = f64::INFINITY;
    let mut steps = 0;
    for _ in 0..REPS {
        let mut m = compiled.machine_for(backend);
        let t0 = Instant::now();
        match m.run(1_000_000_000).expect("runs") {
            Outcome::Halted(_) => {}
            other => panic!("abnormal outcome: {other:?}"),
        }
        best = best.min(t0.elapsed().as_secs_f64());
        steps = m.stats().steps;
    }
    (steps, best)
}

fn main() {
    println!("E13: term/value interning");

    for backend in Backend::ALL {
        println!("\n-- battery runs, {backend} backend (plain, untracked) --");
        println!(
            "{:<34} {:>8} {:>12} {:>12}",
            "workload", "steps", "wall ms", "steps/s"
        );
        for (name, compiled) in &battery() {
            let (steps, secs) = time_run(compiled, backend);
            println!(
                "{name:<34} {steps:>8} {:>12.2} {:>12.0}",
                secs * 1e3,
                steps as f64 / secs
            );
        }
    }
}
