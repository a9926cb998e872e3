//! The run driver: the one per-step policy loop every backend runs under.
//!
//! The certified core of a run is a backend's reduction step. Around it
//! sits a small checked runtime: periodic heap audits (incremental or
//! full), deterministic fault injection, checkpoints into a bounded ring,
//! a wall-clock deadline, and the out-of-memory/out-of-fuel telemetry.
//! That policy lives here, once, in [`Driver`]; a backend supplies only a
//! [`Core`] — its step function, its resolved control term and the
//! capture/restore of its own control state — so no backend can end up
//! with a weaker audit than another.
//!
//! The driver is generic over its core, so every call into the core is
//! static: a `Box<dyn Machine>` pays one dynamic call per
//! [`Machine::run`], not one per step.

use std::sync::Arc;
use std::time::Instant;

use crate::error::{dialect_err, stuck_err, ErrorKind, LangError, Result};
use crate::faults::FaultPlan;
use crate::machine::{AuditMode, Machine, Outcome, Program, Stats, StepOutcome};
use crate::memory::{MemConfig, Memory};
use crate::snapshot::{SnapControl, SnapRing, Snapshot};
use crate::syntax::{Dialect, Term, Value};
use crate::telemetry::{SharedObserver, Telemetry};

/// The machine state every backend core keeps in the same shape: the
/// heap, the dialect, the statistics, the telemetry emitter and the halt
/// value. The driver reads and checkpoints it without knowing the
/// backend; the core's own control state stays private to the core.
#[derive(Clone, Debug)]
pub struct CoreState {
    pub(crate) mem: Memory,
    pub(crate) dialect: Dialect,
    pub(crate) stats: Stats,
    pub(crate) telem: Telemetry,
    pub(crate) halted: Option<i64>,
}

impl CoreState {
    /// Fresh state for `program`: its code blocks installed in `cd`.
    pub(crate) fn load(program: &Program, config: MemConfig) -> CoreState {
        let mut mem = Memory::new(config);
        for def in &program.code {
            mem.install_code(Value::Code(Arc::new(def.clone())), def.ty());
        }
        CoreState {
            mem,
            dialect: program.dialect,
            stats: Stats::default(),
            telem: Telemetry::default(),
            halted: None,
        }
    }

    /// A stuck-state error tagged with the dialect.
    pub(crate) fn stuck(&self, msg: String) -> LangError {
        stuck_err(msg).in_context(format!("dialect {}", self.dialect))
    }
}

/// What a backend provides to the [`Driver`]: one reduction step and
/// its control state. Everything else about a run is the driver's.
pub trait Core: Sized {
    /// Loads `program`: code blocks in `cd`, the main term as control.
    fn load(program: &Program, config: MemConfig) -> Self;

    /// The shared machine state.
    fn state(&self) -> &CoreState;

    /// Mutable access to the shared machine state.
    fn state_mut(&mut self) -> &mut CoreState;

    /// Takes one machine step (a halted core reports its value again).
    fn step(&mut self) -> Result<StepOutcome>;

    /// The control term with every binding substituted in: the closed
    /// term the substitution oracle holds at the same step.
    fn resolved_control(&self) -> Term;

    /// The control for a checkpoint, resolved now or on first use.
    fn capture_control(&self) -> SnapControl;

    /// Makes the closed term `control` the new control, dropping any
    /// registers or compiled code tied to the old one.
    fn restore_control(&mut self, control: &Term);

    /// Whether [`Core::run_fast`] is a real unobserved fast path. Only
    /// such cores run in bursts; the others step under the per-step loop
    /// even when nothing observes the run.
    const FAST_PATH: bool = false;

    /// Runs up to `fuel` steps with no per-step hook: no observer, audit
    /// or fault plan can see the intermediate states. Statistics are
    /// counted per step as usual. The default simply steps.
    fn run_fast(&mut self, fuel: u64) -> Result<Outcome> {
        for _ in 0..fuel {
            if let StepOutcome::Halted(n) = self.step()? {
                return Ok(Outcome::Halted(n));
            }
        }
        Ok(Outcome::OutOfFuel)
    }
}

/// A backend core under the shared run policy — the one implementation
/// of [`Machine`]. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Driver<C> {
    pub(crate) core: C,
    verify_every: u64,
    audit_mode: AuditMode,
    faults: Vec<FaultPlan>,
    checkpoint_every: u64,
    deadline: Option<Instant>,
    snaps: SnapRing,
}

impl<C: Core> Driver<C> {
    /// Loads `program` on this core with every knob off.
    pub fn load(program: &Program, config: MemConfig) -> Driver<C> {
        Driver {
            core: C::load(program, config),
            verify_every: 0,
            audit_mode: AuditMode::default(),
            faults: Vec::new(),
            checkpoint_every: 0,
            deadline: None,
            snaps: SnapRing::new(),
        }
    }

    // `run`, `step`, `stats`, `memory` and `halted` are also inherent, so
    // code holding a concrete machine needs no `Machine` import.

    /// Runs until `halt`, an error, or `fuel` steps under the armed
    /// policy (see [`Machine::run`]).
    ///
    /// # Errors
    ///
    /// Returns a stuck-state error if no reduction rule applies — a
    /// progress violation for well-typed programs (Prop. 6.5) — or an
    /// [`ErrorKind::OutOfMemory`] error if an allocation would exceed
    /// [`MemConfig::max_heap_words`].
    pub fn run(&mut self, fuel: u64) -> Result<Outcome> {
        // The next interval-checkpoint step, derived once per run.
        let mut next_cp = match self.checkpoint_every {
            0 => u64::MAX,
            n => {
                let steps = self.core.state().stats.steps;
                steps - steps % n + n
            }
        };
        // With no fault plan, no audit cadence and no observer, nothing
        // can see intermediate per-step state.
        let unobserved = self.faults.is_empty()
            && self.verify_every == 0
            && !self.core.state().telem.is_enabled();
        let out = if C::FAST_PATH && unobserved {
            self.run_bursts(fuel, &mut next_cp)
        } else {
            self.run_stepped(fuel, &mut next_cp)
        };
        let st = self.core.state_mut();
        match &out {
            Err(e) if e.kind() == ErrorKind::OutOfMemory => {
                let limit = st.mem.config().max_heap_words.unwrap_or(0);
                st.telem.on_oom(st.stats.steps, st.mem.data_words(), limit);
            }
            Ok(Outcome::OutOfFuel) => st.telem.on_fuel_exhausted(st.stats.steps),
            _ => {}
        }
        out
    }

    /// Takes a single machine step, outside any policy.
    ///
    /// # Errors
    ///
    /// Returns a stuck-state or memory error if no rule applies.
    pub fn step(&mut self) -> Result<StepOutcome> {
        self.core.step()
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.core.state().stats
    }

    /// The machine's memory.
    pub fn memory(&self) -> &Memory {
        &self.core.state().mem
    }

    /// The halt value, if the machine has halted.
    pub fn halted(&self) -> Option<i64> {
        self.core.state().halted
    }

    /// Mutable access to the memory, for tests that corrupt a live state.
    #[cfg(test)]
    pub(crate) fn memory_mut(&mut self) -> &mut Memory {
        &mut self.core.state_mut().mem
    }

    /// Steps one at a time with the whole policy after every step.
    fn run_stepped(&mut self, fuel: u64, next_cp: &mut u64) -> Result<Outcome> {
        for _ in 0..fuel {
            let cols = self.core.state().stats.collections;
            if let StepOutcome::Halted(n) = self.core.step()? {
                return Ok(Outcome::Halted(n));
            }
            self.try_inject();
            if self.verify_every > 0
                && self
                    .core
                    .state()
                    .stats
                    .steps
                    .is_multiple_of(self.verify_every)
            {
                if let Err(e) = self.audit() {
                    let st = self.core.state_mut();
                    st.telem
                        .on_invariant_violation(st.stats.steps, &e.to_string());
                    return Ok(Outcome::InvariantViolation(e));
                }
            }
            if self.checkpoint_due(cols, next_cp) {
                self.checkpoint();
            }
            if self.deadline.is_some()
                && self.core.state().stats.steps & 1023 == 0
                && self.deadline_passed()
            {
                return Ok(Outcome::DeadlineExceeded);
            }
        }
        Ok(Outcome::OutOfFuel)
    }

    /// The core's fast path in bursts that end exactly at the next
    /// interval checkpoint and, under a deadline, at least every 1024
    /// steps. Only for unobserved runs: with no observer there are no
    /// events to place, so the one concession — a collection inside a
    /// burst gets its boundary checkpoint at the end of the burst, never
    /// more than one interval late — is invisible to everything but the
    /// checkpoint ring.
    fn run_bursts(&mut self, fuel: u64, next_cp: &mut u64) -> Result<Outcome> {
        let mut left = fuel;
        loop {
            let steps = self.core.state().stats.steps;
            let to_poll = if self.deadline.is_some() {
                1024
            } else {
                u64::MAX
            };
            let burst = left.min(*next_cp - steps).min(to_poll);
            let cols = self.core.state().stats.collections;
            match self.core.run_fast(burst)? {
                Outcome::OutOfFuel => {}
                done => return Ok(done),
            }
            left -= burst;
            if self.checkpoint_due(cols, next_cp) {
                self.checkpoint();
            }
            if self.deadline_passed() {
                return Ok(Outcome::DeadlineExceeded);
            }
            if left == 0 {
                return Ok(Outcome::OutOfFuel);
            }
        }
    }

    /// Applies each armed fault plan whose step has been reached, in spec
    /// order. A plan stays armed until an application actually lands (it
    /// may find no target at its nominal step, e.g. before the first
    /// allocation). The injection root is the resolved control, so every
    /// backend picks the same site.
    fn try_inject(&mut self) {
        let steps = self.core.state().stats.steps;
        if self.faults.iter().all(|p| steps < p.step) {
            return;
        }
        let root = self.core.resolved_control();
        let mem = &mut self.core.state_mut().mem;
        let mut i = 0;
        while i < self.faults.len() {
            let plan = self.faults[i];
            if steps >= plan.step && crate::faults::apply(&plan, mem, &root).is_some() {
                self.faults.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// One periodic audit: the dirty pages only, or a full walk when the
    /// mode or the memory (after a region free) asks for one.
    fn audit(&mut self) -> Result<()> {
        let full = self.audit_mode == AuditMode::Full || self.core.state().mem.wants_full_audit();
        if !full {
            let st = self.core.state_mut();
            return crate::verify::audit_dirty(&mut st.mem, st.dialect);
        }
        let root = self.core.resolved_control();
        let st = self.core.state_mut();
        crate::verify::audit_state(&st.mem, st.dialect, &root)?;
        st.mem.note_full_audit();
        Ok(())
    }

    /// The checkpoint cadence: due at a collection boundary (the step or
    /// burst that began with `cols` collections collected) and whenever
    /// the step count reaches `next_cp`, which then advances by one
    /// interval. Compare-and-bump rather than a per-step modulo.
    fn checkpoint_due(&self, cols: u64, next_cp: &mut u64) -> bool {
        if self.checkpoint_every == 0 {
            return false;
        }
        let stats = &self.core.state().stats;
        if stats.steps >= *next_cp {
            *next_cp += self.checkpoint_every;
            return true;
        }
        stats.collections != cols
    }

    /// Captures a checkpoint into the ring.
    fn checkpoint(&mut self) {
        let st = self.core.state_mut();
        st.telem.on_snapshot(st.stats.steps, &st.mem);
        let snap = self.snapshot();
        self.snaps.push(snap);
    }

    fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|dl| Instant::now() >= dl)
    }
}

impl<C: Core> Machine for Driver<C> {
    fn set_observer(&mut self, observer: SharedObserver, step_interval: u64) {
        self.core.state_mut().telem.attach(observer, step_interval);
    }

    fn set_verify_every(&mut self, n: u64) {
        self.verify_every = n;
    }

    fn set_audit_mode(&mut self, mode: AuditMode) {
        self.audit_mode = mode;
    }

    fn set_fault_plans(&mut self, plans: &[FaultPlan]) {
        self.faults = plans.to_vec();
    }

    fn pending_faults(&self) -> &[FaultPlan] {
        &self.faults
    }

    fn set_checkpoint_every(&mut self, n: u64) {
        self.checkpoint_every = n;
    }

    fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    fn snapshots(&self) -> &[Snapshot] {
        self.snaps.as_slice()
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot::capture(
            self.core.capture_control(),
            self.core.state(),
            self.faults.clone(),
        )
    }

    fn restore(&mut self, snap: &Snapshot) -> Result<()> {
        let st = self.core.state_mut();
        if snap.dialect() != st.dialect {
            return Err(dialect_err(format!(
                "snapshot dialect {} does not match machine dialect {}",
                snap.dialect(),
                st.dialect
            )));
        }
        st.mem = snap.memory().clone();
        st.stats = snap.stats().clone();
        st.halted = snap.halted();
        st.telem.restore_phase(snap.telemetry_phase());
        self.core.restore_control(snap.control());
        self.faults = snap.pending_faults().to_vec();
        self.snaps.clear();
        Ok(())
    }

    fn memory(&self) -> &Memory {
        Driver::memory(self)
    }

    fn dialect(&self) -> Dialect {
        self.core.state().dialect
    }

    fn stats(&self) -> &Stats {
        Driver::stats(self)
    }

    fn halted(&self) -> Option<i64> {
        Driver::halted(self)
    }

    fn resolved_control(&self) -> Term {
        self.core.resolved_control()
    }

    fn step(&mut self) -> Result<StepOutcome> {
        Driver::step(self)
    }

    fn run(&mut self, fuel: u64) -> Result<Outcome> {
        Driver::run(self, fuel)
    }
}
