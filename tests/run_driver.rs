//! The shared run driver on its unobserved paths: the wall-clock deadline
//! of a plain (unsupervised) run, and the checkpoint ring that the
//! bytecode backend's burst path fills when nothing observes the run.

use std::process::Command;

use scavenger::gc_lang::machine::Outcome;
use scavenger::telemetry::{Recorder, SharedObserver};
use scavenger::{Backend, Collector, Pipeline, PipelineError, RunOptions, Snapshot};

const DIVERGE: &str = "fun loop (n : int) : int = loop n\n loop 0";

const BUILD: &str = "fun build (n : int) : int * int = if0 n then (0, 0) else (let rest = build (n - 1) in (n + fst rest, n))\n fst (build 24)";

#[test]
fn an_expired_deadline_ends_a_plain_run_on_every_backend() {
    for backend in Backend::ALL {
        for observed in [false, true] {
            let mut builder = RunOptions::builder().backend(backend).timeout_ms(0);
            if observed {
                let obs: SharedObserver = Recorder::metrics_only().into_shared();
                builder = builder.observer(obs, 0);
            }
            let opts = builder.build();
            let run = opts.compile(DIVERGE).expect("compiles").run_with(&opts);
            assert!(
                matches!(run, Err(PipelineError::DeadlineExceeded)),
                "{backend} (observed: {observed}): {run:?}"
            );
        }
        let dir = std::env::temp_dir().join(format!("psgc-deadline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("loop.lam");
        std::fs::write(&file, DIVERGE).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_psgc"))
            .arg("run")
            .arg(&file)
            .args(["--backend", backend.name(), "--timeout-ms", "1"])
            .output()
            .expect("psgc runs");
        assert_eq!(out.status.code(), Some(1), "{backend}: {out:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn unobserved_bytecode_checkpoints_resume_on_every_backend() {
    for collector in Collector::ALL {
        let compiled = Pipeline::new(collector)
            .region_budget(64)
            .compile(BUILD)
            .expect("compiles");
        let mut plain = compiled.machine_for(Backend::Bytecode);
        let Outcome::Halted(want) = plain.run(u64::MAX).expect("runs") else {
            panic!("{collector}: plain run did not halt");
        };
        let want_stats = plain.stats().clone();

        // No observer, no audit, no fault plan: the burst path, where a
        // collection's checkpoint lands at the end of its burst. Collect
        // the ring after every slice so checkpoints from the whole run are
        // covered.
        let mut m = compiled.machine_for(Backend::Bytecode);
        m.set_checkpoint_every(32);
        let mut snaps: Vec<Snapshot> = Vec::new();
        loop {
            let outcome = m.run(500).expect("runs");
            for s in m.snapshots() {
                if snaps.iter().all(|t| t.step() != s.step()) {
                    snaps.push(s.clone());
                }
            }
            if outcome != Outcome::OutOfFuel {
                assert_eq!(outcome, Outcome::Halted(want), "{collector}");
                break;
            }
        }
        assert_eq!(
            m.stats(),
            &want_stats,
            "{collector}: checkpointing changed the run"
        );
        assert!(snaps.len() > 4, "{collector}: too few checkpoints");
        assert!(want_stats.collections > 0, "{collector}: never collected");

        for snap in &snaps {
            for backend in Backend::ALL {
                let mut r = compiled.machine_for(backend);
                r.restore(snap).expect("same dialect");
                let got = r.run(u64::MAX).expect("resumes");
                let at = snap.step();
                assert_eq!(
                    got,
                    Outcome::Halted(want),
                    "{collector}/{backend} from {at}"
                );
                assert_eq!(r.stats(), &want_stats, "{collector}/{backend} from {at}");
            }
        }
    }
}
