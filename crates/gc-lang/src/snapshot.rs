//! Machine checkpoints: cheap, restorable images of a running λGC machine.
//!
//! A [`Snapshot`] captures everything a backend needs to resume a run as if
//! it had never stopped: the *resolved* control term (closed — any pending
//! environment or register bindings already applied, exactly what
//! `Machine::resolved_control` returns), the BiBOP page store, the machine
//! statistics, and the telemetry emitter's collection accounting. The
//! memory image is copy-on-reference: pages sit behind `Arc`, so cloning
//! [`crate::memory::Memory`] is refcount bumps and a page is copied only
//! when a post-checkpoint write touches it — a checkpoint costs O(pages)
//! pointer copies, not a heap walk.
//!
//! Control capture can be **deferred** ([`SnapControl::deferred`]):
//! instead of materializing the resolved term at checkpoint time, a backend
//! hands over the point-in-time ingredients (e.g. the register bindings in
//! scope plus the raw control — everything `Arc`-shared and immutable) and
//! the term is built on first [`Snapshot::control`] access. Restore and
//! triage are rare; checkpoints are not. This keeps the per-checkpoint cost
//! flat even for a backend whose resolution walks a term (bytecode).
//!
//! Capturing the *resolved* control is what makes snapshots portable across
//! backends: the substitution machine restores it as its term, and the
//! bytecode machine recompiles it as a new entry unit. The differential suites assert that a restored run is
//! byte-identical — same [`crate::machine::Stats`], same telemetry stream,
//! same final value — to the uninterrupted one.
//!
//! Machines keep their checkpoints in a small [`SnapRing`]; the supervisor
//! ([`crate::supervisor`]) audits the ring newest-first to find the last
//! *good* image when a run aborts.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::driver::CoreState;
use crate::machine::Stats;
use crate::memory::Memory;
use crate::syntax::{Dialect, Term};
use crate::telemetry::TelemetryPhase;

/// A backend's control at a checkpoint: resolved at capture time, or a
/// deferred resolution evaluated (once) on first access. Clones share the
/// memoization cell, so a snapshot ring never resolves the same image
/// twice.
#[derive(Clone)]
pub enum SnapControl {
    /// The resolved control term.
    Ready(Box<Term>),
    /// A resolution over point-in-time, `Arc`-shared ingredients.
    Deferred {
        /// Builds the resolved control term.
        resolve: Arc<dyn Fn() -> Term + Send + Sync>,
        /// The memoized result of `resolve`.
        cell: Arc<OnceLock<Term>>,
    },
}

impl SnapControl {
    /// A control resolved now.
    pub fn ready(control: Term) -> SnapControl {
        SnapControl::Ready(Box::new(control))
    }

    /// A control resolved on first access: `resolve` must capture the
    /// machine's point-in-time resolution state (immutable, `Arc`-shared
    /// clones).
    pub fn deferred(resolve: impl Fn() -> Term + Send + Sync + 'static) -> SnapControl {
        SnapControl::Deferred {
            resolve: Arc::new(resolve),
            cell: Arc::new(OnceLock::new()),
        }
    }

    fn get(&self) -> &Term {
        match self {
            SnapControl::Ready(t) => t,
            SnapControl::Deferred { resolve, cell } => cell.get_or_init(|| resolve()),
        }
    }
}

impl fmt::Debug for SnapControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapControl::Ready(t) => t.fmt(f),
            SnapControl::Deferred { cell, .. } => match cell.get() {
                Some(t) => t.fmt(f),
                None => f.write_str("<deferred>"),
            },
        }
    }
}

/// How many checkpoints a machine retains (older ones are evicted). The
/// supervisor needs more than one: a checkpoint taken after a fault was
/// injected is corrupt, and triage falls back to the newest clean image.
pub const RING_CAPACITY: usize = 4;

/// A restorable image of a machine at a step boundary.
#[derive(Clone, Debug)]
pub struct Snapshot {
    control: SnapControl,
    dialect: Dialect,
    memory: Memory,
    stats: Stats,
    halted: Option<i64>,
    pending_faults: Vec<crate::faults::FaultPlan>,
    telem_phase: TelemetryPhase,
}

impl Snapshot {
    /// Assembles a snapshot of a core's state: `control` must resolve to
    /// the core's closed control term, and `pending_faults` are the fault
    /// plans still armed.
    pub(crate) fn capture(
        control: SnapControl,
        st: &CoreState,
        pending_faults: Vec<crate::faults::FaultPlan>,
    ) -> Snapshot {
        Snapshot {
            control,
            dialect: st.dialect,
            memory: st.mem.clone(),
            stats: st.stats.clone(),
            halted: st.halted,
            pending_faults,
            telem_phase: st.telem.phase_state(),
        }
    }

    /// The resolved control term at capture time (materialized on first
    /// access when the capture was deferred).
    pub fn control(&self) -> &Term {
        self.control.get()
    }

    /// The dialect of the machine that captured this snapshot.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// The captured page store.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The captured statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The captured halt value, if the machine had already halted.
    pub fn halted(&self) -> Option<i64> {
        self.halted
    }

    /// Fault plans that were still armed (not yet injected) at capture
    /// time. Restoring re-arms exactly these, so a resumed run re-injects
    /// deterministically — the property the supervisor's replay relies on.
    pub fn pending_faults(&self) -> &[crate::faults::FaultPlan] {
        &self.pending_faults
    }

    /// The step the snapshot was captured at.
    pub fn step(&self) -> u64 {
        self.stats.steps
    }

    /// The captured telemetry collection accounting.
    pub fn telemetry_phase(&self) -> &TelemetryPhase {
        &self.telem_phase
    }
}

/// A bounded ring of checkpoints, oldest first.
#[derive(Clone, Debug, Default)]
pub struct SnapRing {
    snaps: Vec<Snapshot>,
}

impl SnapRing {
    /// An empty ring.
    pub fn new() -> SnapRing {
        SnapRing::default()
    }

    /// Appends a snapshot, evicting the oldest once [`RING_CAPACITY`] is
    /// reached.
    pub fn push(&mut self, snap: Snapshot) {
        if self.snaps.len() == RING_CAPACITY {
            self.snaps.remove(0);
        }
        self.snaps.push(snap);
    }

    /// The retained snapshots, oldest → newest.
    pub fn as_slice(&self) -> &[Snapshot] {
        &self.snaps
    }

    /// Drops every retained snapshot (a restore does this: checkpoints
    /// taken on the old timeline no longer describe this machine).
    pub fn clear(&mut self) {
        self.snaps.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{GrowthPolicy, MemConfig};
    use crate::syntax::Value;

    fn dummy(step: u64) -> Snapshot {
        let program = crate::machine::Program {
            dialect: Dialect::Basic,
            code: vec![],
            main: Term::Halt(Value::Int(0)),
        };
        let config = MemConfig {
            region_budget: 16,
            growth: GrowthPolicy::Fixed,
            track_types: false,
            max_heap_words: None,
            page_words: 8,
        };
        let mut st = CoreState::load(&program, config);
        st.stats.steps = step;
        Snapshot::capture(SnapControl::ready(program.main), &st, Vec::new())
    }

    #[test]
    fn ring_keeps_the_newest_capacity_snapshots() {
        let mut ring = SnapRing::new();
        for i in 0..10 {
            ring.push(dummy(i));
        }
        let steps: Vec<u64> = ring.as_slice().iter().map(Snapshot::step).collect();
        assert_eq!(steps, vec![6, 7, 8, 9]);
        ring.clear();
        assert!(ring.as_slice().is_empty());
    }
}
