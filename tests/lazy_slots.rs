//! Audit-strategy lockstep over the fault matrix.
//!
//! The incremental (dirty-page) audit and the full ⊢ M : Ψ walk must
//! agree on every injected fault: for each fault class × collector ×
//! backend, both abort at the same step with the same event stream, and
//! the full walk's diagnosis — a function of the heap alone — is the same
//! on every backend. The file and test names date from when a heap slot
//! could also hold a deferred thunk; the check never depended on it and
//! now runs against the one slot representation.

use ps_gc_lang::faults::{FaultKind, FaultPlan};
use scavenger::telemetry::Recorder;
use scavenger::{AuditMode, Backend, Collector, PipelineError, RunOptions};

const FAULT_SRC: &str = "fun build (n : int) : int * int = if0 n then (0, 0) else \
    (let rest = build (n - 1) in (n + fst rest, n))\n fst (build 8)";

/// Runs `FAULT_SRC` under `opts` with a recorder attached, expecting the
/// audit to catch the injected fault; returns the violation message and
/// the telemetry trace up to the abort.
fn violated_run(opts: &RunOptions, tag: &str) -> (String, String) {
    let rec = Recorder::new().into_shared();
    let mut opts = opts.clone();
    opts.observer = Some(rec.clone());
    let compiled = opts.compile(FAULT_SRC).expect("compiles");
    let outcome = compiled.run_with(&opts);
    let jsonl = rec.borrow().to_jsonl();
    match outcome {
        Err(PipelineError::InvariantViolation(e)) => {
            let msg = e.to_string();
            assert!(!msg.is_empty(), "{tag}: empty violation");
            (msg, jsonl)
        }
        other => panic!("{tag}: fault escaped the auditor: {other:?}"),
    }
}

/// Replaces gensym numerals (`tenv%6444`) with `%?`: the counter is
/// process-global, so two runs in the same test process see different
/// fresh names in otherwise identical diagnostics.
fn normalize_gensyms(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == '%' && chars.peek().is_some_and(char::is_ascii_digit) {
            while chars.peek().is_some_and(char::is_ascii_digit) {
                chars.next();
            }
            out.push('?');
        }
    }
    out
}

/// Drops the free-text `detail` from `invariant_violation` events: the
/// two audit strategies may word the same diagnosis differently (a dirty
/// *slot* vs a reachable *pointer* — DESIGN.md §7), but every event, and
/// in particular the violation's step, must still line up exactly.
fn strip_violation_detail(trace: &str) -> String {
    trace
        .lines()
        .map(|line| match line.find(",\"detail\":") {
            Some(i) if line.contains("\"event\":\"invariant_violation\"") => {
                format!("{}}}\n", &line[..i])
            }
            _ => format!("{line}\n"),
        })
        .collect()
}

/// The 7-class fault matrix under both audit strategies: every class is
/// caught, the incremental audit aborts at the full walk's step (identical
/// traces up to the violation's detail), and the full walk reports the
/// same diagnosis on every backend.
#[test]
fn fault_matrix_detects_at_the_same_step_with_lazy_slots() {
    for kind in FaultKind::ALL {
        for collector in Collector::ALL {
            let mut full_diagnosis: Option<(Backend, String)> = None;
            for backend in Backend::ALL {
                let opts = |audit| {
                    RunOptions::builder()
                        .collector(collector)
                        .backend(backend)
                        .budget(64)
                        .track_types(true)
                        .verify_every(1)
                        .audit(audit)
                        .inject(FaultPlan {
                            kind,
                            step: 20,
                            seed: 1,
                        })
                        .build()
                };
                let tag = format!("{kind}/{collector}/{backend}");
                let (_, trace_inc) = violated_run(&opts(AuditMode::Incremental), &tag);
                let (msg_full, trace_full) = violated_run(&opts(AuditMode::Full), &tag);
                assert_eq!(
                    strip_violation_detail(&trace_inc),
                    strip_violation_detail(&trace_full),
                    "{tag}: the incremental audit must abort at the full-walk step"
                );
                let msg_full = normalize_gensyms(&msg_full);
                match &full_diagnosis {
                    None => full_diagnosis = Some((backend, msg_full)),
                    Some((first, msg)) => assert_eq!(
                        &msg_full, msg,
                        "{tag}: full-walk diagnosis differs from {first}'s"
                    ),
                }
            }
        }
    }
}
