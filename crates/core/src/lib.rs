//! # scavenger — *Principled Scavenging* as a library
//!
//! A full reproduction of Monnier, Saha & Shao, *Principled Scavenging*
//! (PLDI 2001): provably type-safe stop-and-copy garbage collection built
//! from a region calculus plus intensional type analysis.
//!
//! The headline idea: instead of trusting the collector, *write it inside a
//! type-safe language* (λGC) whose hard-wired Typerec `Mρ(τ)` states the
//! mutator–collector contract, and let an ordinary typechecker certify it.
//! This crate compiles a small ML-like source language down to λGC, links
//! it with one of three certified collectors, and runs the result on the
//! paper's own operational semantics:
//!
//! | collector | paper | what it shows |
//! |---|---|---|
//! | [`Collector::Basic`] | Figs. 4/12 | the core contract `copy : M_{r₁}(t) → M_{r₂}(t)` |
//! | [`Collector::Forwarding`] | Fig. 9, §7 | efficient forwarding pointers via the `widen` cast; sharing preserved |
//! | [`Collector::Generational`] | Fig. 11, §8 | minor collections that never touch the old generation |
//!
//! # Examples
//!
//! ```
//! use scavenger::{Collector, Pipeline};
//!
//! # fn main() -> Result<(), scavenger::PipelineError> {
//! let program = Pipeline::new(Collector::Basic)
//!     .region_budget(96) // tiny: force many collections
//!     .compile("fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\n fact 10")?;
//! program.typecheck()?; // certifies mutator AND collector together
//! let run = program.run(10_000_000)?;
//! assert_eq!(run.result, 3_628_800);
//! assert!(run.stats.collections > 0);
//! # Ok(())
//! # }
//! ```

use std::fmt;

pub use ps_clos as clos;
pub use ps_collectors as collectors;
pub use ps_gc_lang as gc_lang;
pub use ps_ir as ir;
pub use ps_lambda as lambda;
pub use ps_trans as trans;

use ps_clos::syntax::CProgram;
use ps_collectors::CollectorImage;
use ps_gc_lang::faults::FaultPlan;
use ps_gc_lang::machine::{Outcome, Program, Stats, SubstMachine};
use ps_gc_lang::memory::{GrowthPolicy, MemConfig};
use ps_gc_lang::syntax::Dialect;

pub use ps_gc_lang::memory::PageStats;
use ps_gc_lang::tyck::Checker;

pub use ps_gc_lang::machine::{AuditMode, Backend, Machine};
pub use ps_gc_lang::snapshot::Snapshot;
pub use ps_gc_lang::supervisor::{SuperviseSpec, SupervisedOutcome, SupervisedRun, TriageReport};

pub mod workloads;

/// GC telemetry: structured event streams, observers, recorders, and the
/// JSON-lines trace schema. Defined in [`ps_gc_lang`] (the machines emit
/// the events) and re-exported here as the public face of the subsystem.
pub mod telemetry {
    pub use ps_gc_lang::telemetry::*;
}

use telemetry::{RunMeta, SharedObserver};

/// Which certified collector to link against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Collector {
    /// The basic stop-and-copy collector of Fig. 12 (no sharing
    /// preservation: DAGs are copied as trees).
    Basic,
    /// The forwarding-pointer collector of Fig. 9 (§7).
    Forwarding,
    /// The generational collector of Fig. 11 (§8), minor collections.
    Generational,
}

impl Collector {
    /// Every collector, in canonical order (drives CLI metavars and the
    /// exhaustive collector × backend test matrices).
    pub const ALL: [Collector; 3] = [
        Collector::Basic,
        Collector::Forwarding,
        Collector::Generational,
    ];

    /// The collector's λGC code image.
    pub fn image(self) -> CollectorImage {
        match self {
            Collector::Basic => ps_collectors::basic::collector(),
            Collector::Forwarding => ps_collectors::forwarding::collector(),
            Collector::Generational => ps_collectors::generational::collector(),
        }
    }

    /// The λGC dialect the collector's image is written in and certified
    /// against.
    pub fn dialect(self) -> Dialect {
        match self {
            Collector::Basic => Dialect::Basic,
            Collector::Forwarding => Dialect::Forwarding,
            Collector::Generational => Dialect::Generational,
        }
    }

    /// Translates a closure-converted program to λGC, linked with this
    /// collector's image.
    ///
    /// # Errors
    ///
    /// Returns the translation error for programs outside the fragment the
    /// translation handles.
    pub fn translate(self, clos: &CProgram) -> Result<Program, ps_trans::TransError> {
        let image = self.image();
        match self {
            Collector::Basic => ps_trans::basic::translate(clos, &image),
            Collector::Forwarding => ps_trans::forwarding::translate(clos, &image),
            Collector::Generational => ps_trans::generational::translate(clos, &image),
        }
    }

    /// The collector's canonical name — the single source for `Display`,
    /// `FromStr`, CLI metavars, and trace metadata.
    pub fn name(self) -> &'static str {
        match self {
            Collector::Basic => "basic",
            Collector::Forwarding => "forwarding",
            Collector::Generational => "generational",
        }
    }
}

impl fmt::Display for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Collector {
    type Err = String;

    fn from_str(s: &str) -> Result<Collector, String> {
        Collector::ALL
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown collector {s:?} (expected {})",
                    Collector::ALL.map(Collector::name).join("|")
                )
            })
    }
}

/// An error from any stage of the pipeline.
#[derive(Clone, Debug)]
pub enum PipelineError {
    /// Source lexing/parsing failed.
    Parse(ps_lambda::parse::ParseError),
    /// The source program is ill-typed.
    SourceType(ps_lambda::typecheck::TypeError),
    /// CPS conversion failed (ill-typed input).
    Cps(ps_clos::cps::CpsError),
    /// Closure conversion failed (CPS invariant violated).
    Cc(ps_clos::cc::CcError),
    /// The λCLOS intermediate program is ill-typed (a compiler bug).
    ClosType(ps_clos::tyck::ClosTypeError),
    /// Translation to λGC failed.
    Trans(ps_trans::TransError),
    /// The final λGC program is ill-typed (a compiler or collector bug).
    GcType(ps_gc_lang::error::LangError),
    /// The machine got stuck or hit a memory fault.
    Runtime(ps_gc_lang::error::LangError),
    /// A periodic heap audit (`--verify-every`) found a violated invariant.
    InvariantViolation(ps_gc_lang::error::LangError),
    /// The machine ran out of fuel.
    OutOfFuel,
    /// The wall-clock deadline (`--timeout-ms`) passed before the run
    /// finished.
    DeadlineExceeded,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "{e}"),
            PipelineError::SourceType(e) => write!(f, "{e}"),
            PipelineError::Cps(e) => write!(f, "{e}"),
            PipelineError::Cc(e) => write!(f, "{e}"),
            PipelineError::ClosType(e) => write!(f, "{e}"),
            PipelineError::Trans(e) => write!(f, "{e}"),
            PipelineError::GcType(e) => write!(f, "λGC {e}"),
            PipelineError::Runtime(e) => write!(f, "runtime {e}"),
            PipelineError::InvariantViolation(e) => write!(f, "heap invariant violated: {e}"),
            PipelineError::OutOfFuel => write!(f, "machine ran out of fuel"),
            PipelineError::DeadlineExceeded => write!(f, "wall-clock deadline exceeded"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Everything that configures one run, in one place: which collector to
/// link, which backend interprets, the memory settings, the fuel, the
/// audit/fault/checkpoint/deadline knobs and the telemetry observer.
/// Consumed by [`RunOptions::compile`] / [`Compiled::run_with`] /
/// [`Compiled::supervise`] in the library and by `psgc`'s flag parser, so
/// the CLI and the API cannot drift apart. [`Pipeline`] (alias
/// [`RunOptionsBuilder`]) is its chainable front end, and a [`Compiled`]
/// program keeps the options it was compiled with.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`RunOptions::builder`] (or [`RunOptions::new`] /
/// [`RunOptions::default`] plus field assignment), so new backend/VM knobs
/// can be added without breaking downstream construction sites.
///
/// # Examples
///
/// ```
/// use scavenger::{Collector, RunOptions};
///
/// # fn main() -> Result<(), scavenger::PipelineError> {
/// let opts = RunOptions::builder()
///     .collector(Collector::Forwarding)
///     .budget(96)
///     .build();
/// let run = opts.compile("fun f (n : int) : int = n + n\n f 21")?.run_with(&opts)?;
/// assert_eq!(run.result, 42);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct RunOptions {
    /// Which certified collector to link against.
    pub collector: Collector,
    /// Interpreter backend; `None` picks [`Backend::default_for`]:
    /// [`Backend::Bytecode`], or [`Backend::Subst`] with
    /// [`Self::track_types`] on.
    pub backend: Option<Backend>,
    /// Base region budget in words.
    pub budget: usize,
    /// Region budget growth policy.
    pub growth: GrowthPolicy,
    /// Step limit for the run.
    pub fuel: u64,
    /// Maintain the memory typing `Ψ` while running.
    pub track_types: bool,
    /// Typecheck every intermediate program during compilation.
    pub check_stages: bool,
    /// Telemetry observer to attach to the machine, if any.
    pub observer: Option<SharedObserver>,
    /// Emit a [`telemetry::GcEvent::Step`] heap sample every this many
    /// machine steps (0 = never). Only meaningful with an observer.
    pub step_interval: u64,
    /// Run the [`ps_gc_lang::verify`] heap auditor every this many machine
    /// steps. 0 = never on a plain run; under [`Compiled::supervise`], 0
    /// keeps the supervisor's default cadence ([`SuperviseSpec::new`]). A
    /// failed audit ends a plain run with
    /// [`PipelineError::InvariantViolation`].
    pub verify_every: u64,
    /// Deterministic faults to inject during the run (fault-injection
    /// machinery; see [`ps_gc_lang::faults`]). Each plan fires once at its
    /// own step; empty = no injection.
    pub inject: Vec<FaultPlan>,
    /// Hard cap on live heap words; an allocation that would exceed it
    /// fails with a typed out-of-memory error (`None` = unbounded).
    /// Accounting is page-granular: the cap is charged per page footprint,
    /// not per object.
    pub max_heap_words: Option<usize>,
    /// Page size of the BiBOP store, in words (rounded up to a power of
    /// two by [`MemConfig`]).
    pub page_words: usize,
    /// How the periodic heap audit walks the store: incrementally over
    /// dirtied pages (the default) or as a full walk every time.
    pub audit: AuditMode,
    /// Run under the [`gc_lang::supervisor`]: aborts restore the last good
    /// checkpoint and are triaged by replay on the substitution oracle
    /// (see [`Compiled::supervise`]).
    pub supervise: bool,
    /// Take a machine checkpoint every this many steps, in addition to the
    /// checkpoint at every GC boundary. 0 = no checkpoints on a plain run;
    /// under [`Compiled::supervise`], 0 keeps the supervisor's default
    /// cadence ([`SuperviseSpec::new`]).
    pub checkpoint_every: u64,
    /// Wall-clock deadline for the run, in milliseconds (`None` =
    /// unbounded). An expired deadline ends an unsupervised run with
    /// [`PipelineError::DeadlineExceeded`]; the supervisor instead restarts
    /// from the last checkpoint, a bounded number of times.
    pub timeout_ms: Option<u64>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            collector: Collector::Basic,
            backend: None,
            budget: MemConfig::default().region_budget,
            growth: MemConfig::default().growth,
            fuel: 1_000_000_000,
            track_types: false,
            check_stages: true,
            observer: None,
            step_interval: 0,
            verify_every: 0,
            inject: Vec::new(),
            max_heap_words: None,
            page_words: MemConfig::default().page_words,
            audit: AuditMode::default(),
            supervise: false,
            checkpoint_every: 0,
            timeout_ms: None,
        }
    }
}

impl RunOptions {
    /// Defaults with the given collector.
    pub fn new(collector: Collector) -> RunOptions {
        RunOptions {
            collector,
            ..RunOptions::default()
        }
    }

    /// A builder over the defaults — the forward-compatible way to
    /// construct options (the struct is `#[non_exhaustive]`).
    pub fn builder() -> RunOptionsBuilder {
        Pipeline::default()
    }

    /// The memory configuration these options describe.
    pub fn mem_config(&self) -> MemConfig {
        MemConfig {
            region_budget: self.budget,
            growth: self.growth,
            track_types: self.track_types,
            max_heap_words: self.max_heap_words,
            page_words: self.page_words,
        }
    }

    /// The backend these options select (resolving the default).
    pub fn resolved_backend(&self) -> Backend {
        self.backend
            .unwrap_or(Backend::default_for(self.track_types))
    }

    /// Compiles `source` all the way to a λGC program linked with the
    /// collector. The result keeps these options.
    ///
    /// # Errors
    ///
    /// Returns the first stage error; with `check_stages` on (the default),
    /// every intermediate program is typechecked, so miscompilation
    /// surfaces as a [`PipelineError::ClosType`]/[`PipelineError::GcType`]
    /// here rather than at run time.
    pub fn compile(&self, source: &str) -> Result<Compiled, PipelineError> {
        let src = ps_lambda::parse::parse_program(source).map_err(PipelineError::Parse)?;
        ps_lambda::typecheck::check_program(&src).map_err(PipelineError::SourceType)?;
        let cps = ps_clos::cps::cps_program(&src).map_err(PipelineError::Cps)?;
        if self.check_stages {
            ps_lambda::typecheck::check_program(&cps).map_err(PipelineError::SourceType)?;
        }
        let clos = ps_clos::cc::cc_program(&cps).map_err(PipelineError::Cc)?;
        if self.check_stages {
            ps_clos::tyck::check_program(&clos).map_err(PipelineError::ClosType)?;
        }
        let program = self
            .collector
            .translate(&clos)
            .map_err(PipelineError::Trans)?;
        Ok(Compiled {
            opts: self.clone(),
            source: src,
            clos,
            program,
        })
    }

    /// Trace-header metadata describing these options (for
    /// [`telemetry::Recorder::with_meta`]).
    pub fn meta(&self) -> RunMeta {
        RunMeta {
            collector: self.collector.name().to_string(),
            backend: self.resolved_backend().to_string(),
            budget: self.budget,
            growth: self.growth.to_string(),
            fuel: self.fuel,
            step_interval: self.step_interval,
        }
    }

    /// These options as the run description ps-gc-lang loads machines
    /// from — the one place the run knobs cross over. When `supervised`,
    /// cadences left at 0 keep [`SuperviseSpec::new`]'s defaults.
    fn spec(&self, supervised: bool) -> SuperviseSpec {
        let defaults = SuperviseSpec::new(self.resolved_backend(), self.mem_config(), self.fuel);
        let cadence = |n: u64, default: u64| if n == 0 && supervised { default } else { n };
        SuperviseSpec {
            verify_every: cadence(self.verify_every, defaults.verify_every),
            audit: self.audit,
            faults: self.inject.clone(),
            observer: self.observer.clone(),
            step_interval: self.step_interval,
            checkpoint_every: cadence(self.checkpoint_every, defaults.checkpoint_every),
            timeout_ms: self.timeout_ms,
            ..defaults
        }
    }
}

/// The chainable front end of [`RunOptions`]: each method sets one field
/// of the options it wraps, and [`Pipeline::compile`] /
/// [`Pipeline::build`] finish. Start from [`Pipeline::new`] (a collector)
/// or [`RunOptions::builder`] (the defaults).
///
/// # Examples
///
/// ```
/// use scavenger::{Backend, Collector, RunOptions};
///
/// let opts = RunOptions::builder()
///     .collector(Collector::Generational)
///     .backend(Backend::Bytecode)
///     .budget(128)
///     .verify_every(64)
///     .build();
/// assert_eq!(opts.resolved_backend(), Backend::Bytecode);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Pipeline {
    opts: RunOptions,
}

/// The name [`RunOptions::builder`] returns: the same chainable front end
/// as [`Pipeline`].
pub type RunOptionsBuilder = Pipeline;

impl Pipeline {
    /// A pipeline for the given collector with default settings.
    pub fn new(collector: Collector) -> Pipeline {
        Pipeline {
            opts: RunOptions::new(collector),
        }
    }

    /// Which certified collector to link against.
    pub fn collector(mut self, collector: Collector) -> Pipeline {
        self.opts.collector = collector;
        self
    }

    /// Pins the interpreter backend. By default the bytecode VM
    /// ([`Backend::Bytecode`]) runs plain programs and the substitution machine
    /// ([`Backend::Subst`]) runs with [`Self::track_types`] on — the
    /// well-formedness judgement `⊢ (M, e)` consumes a closed term, which
    /// only the substitution machine maintains (see
    /// [`Backend::default_for`]). All backends are observationally
    /// identical (results *and* statistics).
    pub fn backend(mut self, backend: Backend) -> Pipeline {
        self.opts.backend = Some(backend);
        self
    }

    /// Base region budget in words: how much mutator allocation fits
    /// before `ifgc` triggers a collection.
    pub fn budget(mut self, words: usize) -> Pipeline {
        self.opts.budget = words;
        self
    }

    /// [`Self::budget`] under its pipeline name.
    pub fn region_budget(self, words: usize) -> Pipeline {
        self.budget(words)
    }

    /// Region budget growth policy.
    pub fn growth(mut self, policy: GrowthPolicy) -> Pipeline {
        self.opts.growth = policy;
        self
    }

    /// Step limit for the run.
    pub fn fuel(mut self, fuel: u64) -> Pipeline {
        self.opts.fuel = fuel;
        self
    }

    /// Maintains the memory typing `Ψ` while running, enabling
    /// [`gc_lang::wf::check_state`] (slower; off by default).
    pub fn track_types(mut self, on: bool) -> Pipeline {
        self.opts.track_types = on;
        self
    }

    /// Typechecks every intermediate program during compilation (on by
    /// default; they are cheap, only benchmarks turn them off).
    pub fn check_stages(mut self, on: bool) -> Pipeline {
        self.opts.check_stages = on;
        self
    }

    /// Attaches a telemetry observer; `step_interval > 0` additionally
    /// emits periodic heap samples (see [`telemetry::GcEvent::Step`]).
    pub fn observer(mut self, observer: SharedObserver, step_interval: u64) -> Pipeline {
        self.opts.observer = Some(observer);
        self.opts.step_interval = step_interval;
        self
    }

    /// Run the heap auditor every `n` machine steps (0 = never).
    pub fn verify_every(mut self, n: u64) -> Pipeline {
        self.opts.verify_every = n;
        self
    }

    /// Arms a deterministic fault plan (fault-injection machinery).
    /// Chainable: each call adds a plan.
    pub fn inject(mut self, plan: FaultPlan) -> Pipeline {
        self.opts.inject.push(plan);
        self
    }

    /// Arms several fault plans at once (e.g. from
    /// [`gc_lang::faults::parse_plans`]).
    pub fn inject_all(mut self, plans: &[FaultPlan]) -> Pipeline {
        self.opts.inject.extend_from_slice(plans);
        self
    }

    /// Run under the supervisor (checkpoint, restart, triage).
    pub fn supervise(mut self, on: bool) -> Pipeline {
        self.opts.supervise = on;
        self
    }

    /// Take a machine checkpoint every `n` steps (plus GC boundaries).
    pub fn checkpoint_every(mut self, n: u64) -> Pipeline {
        self.opts.checkpoint_every = n;
        self
    }

    /// Wall-clock deadline for the run, in milliseconds.
    pub fn timeout_ms(mut self, ms: u64) -> Pipeline {
        self.opts.timeout_ms = Some(ms);
        self
    }

    /// Hard cap on live heap words.
    pub fn max_heap_words(mut self, words: usize) -> Pipeline {
        self.opts.max_heap_words = Some(words);
        self
    }

    /// Page size of the BiBOP store, in words.
    pub fn page_words(mut self, words: usize) -> Pipeline {
        self.opts.page_words = words;
        self
    }

    /// Audit strategy for the periodic heap auditor.
    pub fn audit(mut self, mode: AuditMode) -> Pipeline {
        self.opts.audit = mode;
        self
    }

    /// The memory configuration machines are loaded with.
    pub fn config(&self) -> MemConfig {
        self.opts.mem_config()
    }

    /// The finished options.
    pub fn build(self) -> RunOptions {
        self.opts
    }

    /// Compiles a source program under the options built so far (see
    /// [`RunOptions::compile`]).
    ///
    /// # Errors
    ///
    /// As [`RunOptions::compile`].
    pub fn compile(&self, source: &str) -> Result<Compiled, PipelineError> {
        self.opts.compile(source)
    }
}

/// A compiled program with its intermediate forms, and the options it
/// was compiled with ([`Compiled::run`] runs under them).
#[derive(Clone, Debug)]
pub struct Compiled {
    opts: RunOptions,
    /// The parsed source program.
    pub source: ps_lambda::syntax::SrcProgram,
    /// The λCLOS intermediate program.
    pub clos: ps_clos::syntax::CProgram,
    /// The final λGC program (collector + translated mutator).
    pub program: Program,
}

/// The outcome of running a compiled program.
#[derive(Clone, Debug)]
pub struct Run {
    /// The integer the program halted with.
    pub result: i64,
    /// Machine statistics (collections, words reclaimed, …).
    pub stats: Stats,
    /// BiBOP page-store statistics at halt (`psgc --stats-pages`).
    pub pages: PageStats,
    /// Armed fault plans that never fired (their step was past the halt, or
    /// their injector found no matching site). Useful for warning that a
    /// `--inject` spec was a no-op.
    pub unfired_faults: Vec<FaultPlan>,
}

impl Compiled {
    /// Which collector this program is linked with.
    pub fn collector(&self) -> Collector {
        self.opts.collector
    }

    /// Which interpreter backend [`Self::run`] uses.
    pub fn backend(&self) -> Backend {
        self.opts.resolved_backend()
    }

    /// Overrides the interpreter backend for [`Self::run`].
    pub fn with_backend(mut self, backend: Backend) -> Compiled {
        self.opts.backend = Some(backend);
        self
    }

    /// Attaches a telemetry observer for [`Self::run`] (see
    /// [`Pipeline::observer`]).
    pub fn with_observer(mut self, observer: SharedObserver, step_interval: u64) -> Compiled {
        self.opts.observer = Some(observer);
        self.opts.step_interval = step_interval;
        self
    }

    /// Typechecks the *whole* λGC program — mutator and collector together
    /// — under the paper's static semantics. This is the certification
    /// step: no part of memory management remains in the trusted base.
    ///
    /// # Errors
    ///
    /// Returns the λGC type error, naming the offending code block.
    pub fn typecheck(&self) -> Result<(), PipelineError> {
        Checker::check_program(&self.program).map_err(PipelineError::GcType)
    }

    /// Creates a machine loaded with this program.
    pub fn machine(&self) -> SubstMachine {
        self.machine_with(self.opts.mem_config())
    }

    /// Creates a machine with an explicit memory configuration.
    pub fn machine_with(&self, config: MemConfig) -> SubstMachine {
        SubstMachine::load(&self.program, config)
    }

    /// Creates a machine on the given backend — the uniform,
    /// backend-agnostic constructor (see [`Machine`]).
    pub fn machine_for(&self, backend: Backend) -> Box<dyn Machine> {
        backend.load(&self.program, self.opts.mem_config())
    }

    /// Runs the program to completion under the options it was compiled
    /// with, for at most `fuel` steps.
    ///
    /// # Errors
    ///
    /// As [`Self::run_with`].
    pub fn run(&self, fuel: u64) -> Result<Run, PipelineError> {
        self.run_with(&RunOptions {
            fuel,
            ..self.opts.clone()
        })
    }

    /// Runs the program under the given [`RunOptions`] — backend, memory
    /// settings, fuel, observer and the audit/fault/checkpoint/deadline
    /// knobs all come from `opts` (its `collector` field is ignored: this
    /// program is already linked).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Runtime`] on a stuck state (impossible for
    /// typechecked programs, per progress) or an out-of-memory error,
    /// [`PipelineError::InvariantViolation`] on a failed audit,
    /// [`PipelineError::OutOfFuel`] or [`PipelineError::DeadlineExceeded`].
    pub fn run_with(&self, opts: &RunOptions) -> Result<Run, PipelineError> {
        let mut m = opts.spec(false).load(&self.program);
        let outcome = m.run(opts.fuel).map_err(PipelineError::Runtime)?;
        match outcome {
            Outcome::Halted(result) => Ok(Run {
                result,
                stats: m.stats().clone(),
                pages: m.memory().page_stats(),
                unfired_faults: m.pending_faults().to_vec(),
            }),
            Outcome::InvariantViolation(e) => Err(PipelineError::InvariantViolation(e)),
            Outcome::OutOfFuel => Err(PipelineError::OutOfFuel),
            Outcome::DeadlineExceeded => Err(PipelineError::DeadlineExceeded),
        }
    }

    /// Runs the program under the [`gc_lang::supervisor`]: checkpoints at
    /// GC boundaries and every `opts.checkpoint_every` steps, and on an
    /// invariant violation, typed OOM, deadline, or panic restores the last
    /// good checkpoint and replays on the substitution oracle with full
    /// per-step auditing to localize the first violating step. Cadences
    /// left at 0 take the supervisor's defaults ([`SuperviseSpec::new`]).
    /// Infallible by construction: every abort mode maps to a
    /// [`SupervisedOutcome`] variant rather than an error.
    pub fn supervise(&self, opts: &RunOptions) -> SupervisedRun {
        ps_gc_lang::supervisor::supervise(&self.program, &opts.spec(true))
    }

    /// Evaluates the *source* program with the reference evaluator — the
    /// observational oracle the compiled program must agree with.
    ///
    /// # Errors
    ///
    /// Propagates evaluator errors (fuel exhaustion on divergent programs).
    pub fn reference_result(&self, fuel: u64) -> Result<i64, PipelineError> {
        ps_lambda::eval::run_program(&self.source, fuel).map_err(|e| {
            PipelineError::Runtime(ps_gc_lang::error::LangError::new(
                ps_gc_lang::error::ErrorKind::Stuck,
                e.0,
            ))
        })
    }
}

impl Compiled {
    /// Assembles a `Compiled` from externally built parts — used by the
    /// benchmark harness, whose workloads are constructed as source ASTs
    /// (deep live structure needs types of matching depth, which no
    /// hand-written concrete syntax would enumerate).
    pub fn from_parts(
        collector: Collector,
        config: MemConfig,
        source: ps_lambda::syntax::SrcProgram,
        clos: ps_clos::syntax::CProgram,
        program: Program,
    ) -> Compiled {
        Compiled {
            opts: RunOptions {
                collector,
                budget: config.region_budget,
                growth: config.growth,
                track_types: config.track_types,
                max_heap_words: config.max_heap_words,
                page_words: config.page_words,
                ..RunOptions::default()
            },
            source,
            clos,
            program,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIB: &str = "fun fib (n : int) : int = if0 n then 0 else if0 n - 1 then 1 else fib (n - 1) + fib (n - 2)\n fib 12";

    #[test]
    fn all_collectors_agree_with_the_oracle() {
        for collector in [
            Collector::Basic,
            Collector::Forwarding,
            Collector::Generational,
        ] {
            let compiled = Pipeline::new(collector)
                .region_budget(128)
                .compile(FIB)
                .unwrap();
            compiled.typecheck().unwrap();
            let run = compiled.run(100_000_000).unwrap();
            assert_eq!(run.result, compiled.reference_result(10_000_000).unwrap());
            assert!(run.stats.collections > 0, "{collector}");
        }
    }

    #[test]
    fn parse_errors_surface() {
        assert!(matches!(
            Pipeline::new(Collector::Basic).compile("fun ("),
            Err(PipelineError::Parse(_))
        ));
    }

    #[test]
    fn type_errors_surface() {
        assert!(matches!(
            Pipeline::new(Collector::Basic).compile("(1, 2) + 3"),
            Err(PipelineError::SourceType(_))
        ));
    }

    #[test]
    fn out_of_fuel_is_distinguished() {
        let compiled = Pipeline::new(Collector::Basic)
            .compile("fun loop (n : int) : int = loop n\n loop 0")
            .unwrap();
        assert!(matches!(compiled.run(1_000), Err(PipelineError::OutOfFuel)));
    }

    #[test]
    fn budget_controls_collection_count() {
        let small = Pipeline::new(Collector::Basic)
            .region_budget(64)
            .compile(FIB)
            .unwrap()
            .run(100_000_000)
            .unwrap();
        let big = Pipeline::new(Collector::Basic)
            .region_budget(1 << 24)
            .compile(FIB)
            .unwrap()
            .run(100_000_000)
            .unwrap();
        assert!(small.stats.collections > big.stats.collections);
        assert_eq!(big.stats.collections, 0);
        assert_eq!(small.result, big.result);
    }

    #[test]
    fn collector_display() {
        assert_eq!(Collector::Basic.to_string(), "basic");
        assert_eq!(Collector::Forwarding.to_string(), "forwarding");
        assert_eq!(Collector::Generational.to_string(), "generational");
    }

    #[test]
    fn collector_and_backend_roundtrip_through_strings() {
        for c in Collector::ALL {
            assert_eq!(c.to_string().parse::<Collector>().unwrap(), c);
            assert_eq!(c.image().name, c.name());
        }
        for b in Backend::ALL {
            assert_eq!(b.to_string().parse::<Backend>().unwrap(), b);
        }
        assert!("mark-sweep".parse::<Collector>().is_err());
    }

    #[test]
    fn backend_all_is_exhaustive() {
        // Compile-time gate: adding a `Backend` variant without extending
        // `Backend::ALL` (and thus every ALL-driven matrix) fails here.
        fn index_of(b: Backend) -> usize {
            match b {
                Backend::Subst => 0,
                Backend::Bytecode => 1,
            }
        }
        assert_eq!(Backend::ALL.len(), 2);
        for (i, b) in Backend::ALL.into_iter().enumerate() {
            assert_eq!(index_of(b), i, "ALL must list every backend in order");
            // Display and FromStr round-trip through the canonical name.
            assert_eq!(b.to_string(), b.name());
            assert_eq!(b.name().parse::<Backend>().unwrap(), b);
        }
        let mut names: Vec<&str> = Backend::ALL.map(Backend::name).to_vec();
        names.dedup();
        assert_eq!(names.len(), Backend::ALL.len(), "names must be unique");
        assert!("jit".parse::<Backend>().is_err());
        assert_eq!("bc".parse::<Backend>().unwrap(), Backend::Bytecode);
    }

    #[test]
    fn run_options_compile_and_run() {
        let opts = RunOptions::builder()
            .collector(Collector::Generational)
            .budget(128)
            .build();
        let compiled = opts.compile(FIB).unwrap();
        let run = compiled.run_with(&opts).unwrap();
        assert_eq!(run.result, 144);
        assert!(run.stats.collections > 0);
        let meta = opts.meta();
        assert_eq!(meta.collector, "generational");
        assert_eq!(meta.backend, "bytecode");
        assert_eq!(meta.budget, 128);
    }

    #[test]
    fn observer_records_a_consistent_event_stream() {
        let recorder = telemetry::Recorder::new().into_shared();
        let opts = RunOptions::builder()
            .budget(96)
            .observer(recorder.clone(), 64)
            .build();
        let run = opts.compile(FIB).unwrap().run_with(&opts).unwrap();
        let rec = recorder.borrow();
        // The event stream and Stats are two views of the same run.
        assert_eq!(rec.metrics.collections, run.stats.collections);
        assert_eq!(rec.metrics.words_reclaimed, run.stats.words_reclaimed);
        assert_eq!(rec.metrics.regions_allocated, run.stats.regions_created);
        assert!(rec.metrics.events > 0);
        assert!(rec.events.iter().any(|e| e.name() == "step"), "sampling on");
        assert!(matches!(
            rec.events.last(),
            Some(telemetry::GcEvent::Halt { value: 144, .. })
        ));
    }

    #[test]
    fn disabled_observer_changes_nothing() {
        let opts = RunOptions::builder().budget(96).build();
        let with = {
            let recorder = telemetry::Recorder::new().into_shared();
            let mut opts = opts.clone();
            opts.observer = Some(recorder.clone());
            opts.compile(FIB).unwrap().run_with(&opts).unwrap()
        };
        let without = opts.compile(FIB).unwrap().run_with(&opts).unwrap();
        assert_eq!(with.result, without.result);
        assert_eq!(with.stats, without.stats);
    }
}
