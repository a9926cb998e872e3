//! The traced pass: one cold compile-and-run of a workload with a span
//! around each call into a layer's public entry point, followed by untimed
//! and overhead passes that read the layers' counters.
//!
//! The spans mirror what `psgc run FILE` does, in the same order, so their
//! sum accounts for the wall time of a `psgc` invocation bar process
//! start-up and exit. Everything after the cold pass runs warm and never
//! feeds a span.

use std::time::Instant;

use scavenger::gc_lang::intern;
use scavenger::gc_lang::machine::{Outcome, StepOutcome};
use scavenger::gc_lang::tyck::Checker;
use scavenger::telemetry::{Recorder, SharedObserver};
use scavenger::{clos, lambda, trans, Backend, Collector, Compiled, SupervisedOutcome};

use crate::workload::{Workload, CHECKPOINT_EVERY, VERIFY_EVERY};

/// Named metrics in report order.
pub type Metrics = Vec<(&'static str, f64)>;

/// Runs `f`, returning its result and its wall time in milliseconds.
fn span<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// `hits / (hits + nodes)`: the share of intern calls that found an
/// existing node (every node was once a miss).
fn hit_ratio(hits: u64, nodes: usize) -> f64 {
    hits as f64 / (hits + nodes as u64).max(1) as f64
}

/// The traced pass over `source`. Returns the program's result and the
/// per-layer metrics; `Err` names the layer that failed.
pub fn trace(w: &Workload, source: &str) -> Result<(i64, Metrics), String> {
    let opts = w.options();
    let config = opts.mem_config();
    let fuel = opts.fuel;
    let mut out: Metrics = Vec::new();

    // Cold pass: the stages of `psgc run`, in order.
    let (src, t) = span(|| lambda::parse::parse_program(source));
    let src = src.map_err(|e| format!("parse: {e}"))?;
    out.push(("lambda.parse_ms", t));
    let (r, t) = span(|| lambda::typecheck::check_program(&src));
    r.map_err(|e| format!("typecheck: {e}"))?;
    out.push(("lambda.typecheck_ms", t));
    let (cps, t) = span(|| clos::cps::cps_program(&src));
    let cps = cps.map_err(|e| format!("cps: {e}"))?;
    out.push(("clos.cps_ms", t));
    let (r, t) = span(|| lambda::typecheck::check_program(&cps));
    r.map_err(|e| format!("cps recheck: {e}"))?;
    out.push(("clos.cps_recheck_ms", t));
    let (cprog, t) = span(|| clos::cc::cc_program(&cps));
    let cprog = cprog.map_err(|e| format!("cc: {e}"))?;
    out.push(("clos.cc_ms", t));
    let (r, t) = span(|| clos::tyck::check_program(&cprog));
    r.map_err(|e| format!("clos tyck: {e}"))?;
    out.push(("clos.tyck_ms", t));
    out.push(("clos.size", cprog.size() as f64));
    let (program, t) = span(|| {
        let image = w.collector.image();
        match w.collector {
            Collector::Basic => trans::basic::translate(&cprog, &image),
            Collector::Forwarding => trans::forwarding::translate(&cprog, &image),
            Collector::Generational => trans::generational::translate(&cprog, &image),
        }
    });
    let program = program.map_err(|e| format!("translate: {e}"))?;
    out.push(("trans.translate_ms", t));
    out.push(("trans.code_blocks", program.code.len() as f64));
    let (r, t) = span(|| Checker::check_program(&program));
    r.map_err(|e| format!("certify: {e}"))?;
    out.push(("gc_lang.certify_ms", t));

    // Execution as `psgc` does it; the supervisor's clean path is exactly
    // this machine with audits and checkpoints on.
    let (mut m, t) = span(|| Backend::Bytecode.load(&program, config));
    out.push(("gc_lang.load_ms", t));
    if w.audited {
        m.set_verify_every(VERIFY_EVERY);
        m.set_checkpoint_every(CHECKPOINT_EVERY);
    }
    let (first, t) = span(|| m.step());
    if !matches!(first, Ok(StepOutcome::Continue)) {
        return Err(format!("first step: {first:?}"));
    }
    out.push(("gc_lang.first_step_ms", t));
    let (outcome, run_ms) = span(|| m.run(fuel - 1));
    let result = match outcome {
        Ok(Outcome::Halted(n)) => n,
        other => return Err(format!("run: {other:?}")),
    };
    out.push(("gc_lang.run_ms", run_ms));
    let steps = m.stats().steps;
    out.push(("gc_lang.steps", steps as f64));
    out.push(("gc_lang.steps_per_s", steps as f64 / (run_ms / 1e3)));
    let spans: f64 = out
        .iter()
        .filter(|(name, _)| name.ends_with("_ms"))
        .map(|(_, v)| v)
        .sum();
    out.push(("trace.spans_ms", spans));

    // Interning counters of the cold pass only.
    let is = intern::stats();
    out.push(("intern.val_hit_ratio", hit_ratio(is.val_hits, is.val_nodes)));
    out.push(("intern.ty_hit_ratio", hit_ratio(is.ty_hits, is.ty_nodes)));
    out.push((
        "intern.term_hit_ratio",
        hit_ratio(is.term_hits, is.term_nodes),
    ));

    // Counters from a separate untimed pass, so the observer cannot
    // inflate `gc_lang.run_ms`.
    let rec = Recorder::metrics_only().into_shared();
    let mut m = Backend::Bytecode.load(&program, config);
    let obs: SharedObserver = rec.clone();
    m.set_observer(obs, 0);
    match m.run(fuel) {
        Ok(Outcome::Halted(n)) if n == result => {}
        other => {
            return Err(format!(
                "counter pass: {other:?}, cold pass halted with {result}"
            ))
        }
    }
    if m.stats().steps != steps {
        return Err(format!(
            "counter pass took {} steps, cold pass {steps}",
            m.stats().steps
        ));
    }
    let rm = &rec.borrow().metrics;
    out.push(("collectors.gc_steps", rm.gc_steps as f64));
    out.push((
        "collectors.gc_step_share",
        rm.gc_steps as f64 / steps as f64,
    ));
    out.push(("collectors.collections", rm.collections as f64));
    out.push(("collectors.words_copied", rm.words_copied as f64));
    out.push(("memory.pages_allocated", rm.pages_allocated as f64));
    out.push(("memory.max_heap_words", rm.max_heap_words as f64));
    out.push(("memory.words_allocated", m.stats().words_allocated as f64));

    // Overhead passes, warm: each mechanism alone, at the audited
    // workload's cadence, against a bare run of the same program.
    let timed_run = |verify: u64, checkpoint: u64| -> Result<f64, String> {
        let mut m = Backend::Bytecode.load(&program, config);
        m.set_verify_every(verify);
        m.set_checkpoint_every(checkpoint);
        match span(|| m.run(fuel)) {
            (Ok(Outcome::Halted(n)), t) if n == result => Ok(t),
            (other, _) => Err(format!("overhead pass: {other:?}")),
        }
    };
    let bare = timed_run(0, 0)?;
    let verify = timed_run(VERIFY_EVERY, 0)?;
    let snapshot = timed_run(0, CHECKPOINT_EVERY)?;
    // The supervisor cannot run without audits and checkpoints, so its
    // ratio is the whole observed path of `audited-dag`.
    let compiled = Compiled::from_parts(w.collector, config, src, cprog, program);
    let mut sup_opts = opts.clone();
    sup_opts.verify_every = VERIFY_EVERY;
    sup_opts.checkpoint_every = CHECKPOINT_EVERY;
    let (sup, supervised) = span(|| compiled.supervise(&sup_opts));
    match sup.outcome {
        SupervisedOutcome::Halted(n) if n == result => {}
        other => return Err(format!("supervised pass: {other:?}")),
    }
    out.push(("verify.overhead_ratio", verify / bare));
    out.push(("snapshot.overhead_ratio", snapshot / bare));
    out.push(("supervisor.overhead_ratio", supervised / bare));
    Ok((result, out))
}
