//! The benchmark's workloads: seeded source generators plus the `psgc`
//! flags each one pins.
//!
//! Generators emit `.lam` text directly (no AST, no symbol interning), so
//! generating a workload leaves the compiler's global tables untouched and
//! the traced pass that follows starts as cold as a fresh `psgc` process.
//! The seed changes values, access paths and binding order, never the mix
//! of work: every seed of `gc-churn` and `audited-dag` takes the same
//! number of machine steps, and every seed of `long-lets` compiles the
//! same mix of bindings, so runs on different seeds are comparable samples
//! of one workload.

use std::fmt::Write as _;

use scavenger::gc_lang::memory::GrowthPolicy;
use scavenger::{Backend, Collector, RunOptions};

/// SplitMix64: a small, seedable generator whose output is fixed by the
/// seed on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One benchmark workload: how to generate its source and how `psgc` runs it.
pub struct Workload {
    pub name: &'static str,
    pub collector: Collector,
    /// Base region budget in words.
    pub budget: usize,
    /// `--supervise --verify-every 1 --checkpoint-every 256` when set.
    pub audited: bool,
    generate: fn(&mut Rng) -> String,
}

/// Audit cadence of the audited workload (every step).
pub const VERIFY_EVERY: u64 = 1;
/// Checkpoint cadence of the audited workload, in steps.
pub const CHECKPOINT_EVERY: u64 = 256;

/// Throwaway pairs made by `churn` while the live structure is held.
const CHURN: usize = 2000;
/// Depth of the live pair tree of `gc-churn` (511 cells).
const TREE_DEPTH: u32 = 9;
/// Depth of the live DAG of `audited-dag` (12 cells, 4096 paths).
const DAG_DEPTH: usize = 12;
/// Bindings of `long-lets`: 300–370 ms of compile per run, well below the
/// 2,500–4,000 at which the front end overflows its stack on this
/// generator's programs (the probes cover that size).
pub const LONG_LETS: usize = 900;

pub const WORKLOADS: [Workload; 3] = [
    // Execution-heavy: the mutator, the basic collector, the page store
    // and value interning do the work; compile is ~15% of a run.
    Workload {
        name: "gc-churn",
        collector: Collector::Basic,
        budget: 1120,
        audited: false,
        generate: gc_churn,
    },
    // Front-end-heavy: parse, CPS, closure conversion and the three
    // typecheckers take >95% of a run; execution takes a few ms.
    Workload {
        name: "long-lets",
        collector: Collector::Basic,
        budget: 256,
        audited: false,
        generate: |rng| long_lets(rng, LONG_LETS),
    },
    // The execution layers on the observed path: forwarding-pointer
    // writes, the incremental auditor, snapshot pages and the supervisor.
    Workload {
        name: "audited-dag",
        collector: Collector::Forwarding,
        budget: 128,
        audited: true,
        generate: audited_dag,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The workload's source text for `seed`.
    pub fn source(&self, seed: u64) -> String {
        (self.generate)(&mut Rng::new(seed))
    }

    /// The `psgc` flags that follow `FILE`. The backend is pinned so that a
    /// change of the default backend cannot change what is measured.
    pub fn flags(&self) -> Vec<String> {
        let mut flags = vec![
            "--backend".to_string(),
            "bytecode".to_string(),
            "--collector".to_string(),
            self.collector.name().to_string(),
            "--budget".to_string(),
            self.budget.to_string(),
            "--growth".to_string(),
            "adaptive".to_string(),
        ];
        if self.audited {
            flags.extend(
                [
                    "--supervise",
                    "--verify-every",
                    &VERIFY_EVERY.to_string(),
                    "--checkpoint-every",
                    &CHECKPOINT_EVERY.to_string(),
                ]
                .map(String::from),
            );
        }
        flags
    }

    /// The library options equal to [`Workload::flags`].
    pub fn options(&self) -> RunOptions {
        let b = RunOptions::builder()
            .collector(self.collector)
            .backend(Backend::Bytecode)
            .budget(self.budget)
            .growth(GrowthPolicy::Adaptive);
        if self.audited {
            b.supervise(true)
                .verify_every(VERIFY_EVERY)
                .checkpoint_every(CHECKPOINT_EVERY)
                .build()
        } else {
            b.build()
        }
    }
}

/// `churn k` allocates `k` throwaway pairs.
const CHURN_DEF: &str =
    "fun churn (k : int) : int = if0 k then 0 else let junk = (k, k) in churn (k - 1)\n";

fn tree(rng: &mut Rng, depth: u32, out: &mut String) {
    if depth == 0 {
        let _ = write!(out, "{}", 1 + rng.below(99));
    } else {
        out.push('(');
        tree(rng, depth - 1, out);
        out.push_str(", ");
        tree(rng, depth - 1, out);
        out.push(')');
    }
}

/// `fst (snd (… x))`: a root-to-leaf path of `depth` projections, each
/// side drawn from `rng`.
fn path(rng: &mut Rng, depth: u32, x: &str) -> String {
    let mut e = x.to_string();
    for _ in 0..depth {
        let side = if rng.below(2) == 0 { "fst" } else { "snd" };
        e = format!("{side} ({e})");
    }
    e
}

/// A complete pair tree of depth 9 with seeded leaves, kept live across
/// `churn`, then read along four seeded paths.
fn gc_churn(rng: &mut Rng) -> String {
    let mut s = String::from(CHURN_DEF);
    s.push_str("let t = ");
    tree(rng, TREE_DEPTH, &mut s);
    let _ = writeln!(s, " in\nlet z = churn {CHURN} in");
    let paths: Vec<String> = (0..4).map(|_| path(rng, TREE_DEPTH, "t")).collect();
    let _ = writeln!(s, "{} + z", paths.join(" + "));
    s
}

/// A DAG `d₀ = c, dᵢ = (dᵢ₋₁, dᵢ₋₁)` of depth 12 with a seeded leaf, kept
/// live across `churn`, then read along a seeded path.
fn audited_dag(rng: &mut Rng) -> String {
    let mut s = String::from(CHURN_DEF);
    let _ = writeln!(s, "let d0 = {} in", 1 + rng.below(99));
    for i in 1..=DAG_DEPTH {
        let _ = writeln!(s, "let d{i} = (d{p}, d{p}) in", p = i - 1);
    }
    let _ = writeln!(s, "let z = churn {CHURN} in");
    let _ = writeln!(
        s,
        "{} + z",
        path(rng, DAG_DEPTH as u32, &format!("d{DAG_DEPTH}"))
    );
    s
}

/// The four binding kinds of `long-lets`.
#[derive(Clone, Copy)]
enum Kind {
    Arith,
    Pair,
    Proj,
    Fn,
}

/// A straight-line chain of `n` `let` bindings. The kinds are a seeded
/// shuffle of a fixed mix (45% arithmetic, 25% pairs, 20% projections,
/// 10% applied local `fn`s), so every seed compiles the same mix; operands
/// are drawn from the eight most recent bindings of the right type.
pub fn long_lets(rng: &mut Rng, n: usize) -> String {
    let mut kinds: Vec<Kind> = (0..n)
        .map(|i| match i * 20 / n {
            0..=8 => Kind::Arith,
            9..=13 => Kind::Pair,
            14..=17 => Kind::Proj,
            _ => Kind::Fn,
        })
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i + 1));
    }

    let mut s = String::new();
    let _ = writeln!(s, "let x0 = {} in", 1 + rng.below(99));
    let _ = writeln!(s, "let p0 = (x0, {}) in", 1 + rng.below(99));
    let mut ints = vec!["x0".to_string()];
    let mut pairs = vec!["p0".to_string()];
    fn recent<'a>(rng: &mut Rng, vars: &'a [String]) -> &'a str {
        &vars[vars.len() - 1 - rng.below(vars.len().min(8))]
    }
    for (i, kind) in kinds.into_iter().enumerate() {
        let i = i + 1;
        match kind {
            Kind::Arith => {
                let op = ["+", "-", "*"][rng.below(3)];
                let (a, b) = (recent(rng, &ints), recent(rng, &ints));
                let _ = writeln!(s, "let x{i} = {a} {op} {b} in");
                ints.push(format!("x{i}"));
            }
            Kind::Pair => {
                let (a, b) = (recent(rng, &ints), recent(rng, &ints));
                let _ = writeln!(s, "let p{i} = ({a}, {b}) in");
                pairs.push(format!("p{i}"));
            }
            Kind::Proj => {
                let side = if rng.below(2) == 0 { "fst" } else { "snd" };
                let p = recent(rng, &pairs);
                let _ = writeln!(s, "let x{i} = {side} {p} in");
                ints.push(format!("x{i}"));
            }
            Kind::Fn => {
                let (a, b) = (recent(rng, &ints), recent(rng, &ints));
                let c = 1 + rng.below(9);
                let _ = writeln!(s, "let x{i} = (fn (y : int) => y * {c} + {a}) {b} in");
                ints.push(format!("x{i}"));
            }
        }
    }
    let tail: Vec<&str> = ints.iter().rev().take(8).map(String::as_str).collect();
    let _ = writeln!(s, "{}", tail.join(" + "));
    s
}

/// `1 + (1 + (… 1))`, nested `depth` deep.
pub fn nested_sum(depth: usize) -> String {
    format!("{}1{}\n", "1 + (".repeat(depth), ")".repeat(depth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger::lambda;

    #[test]
    fn a_seed_fixes_the_source_and_seeds_differ() {
        for w in &WORKLOADS {
            assert_eq!(w.source(7), w.source(7), "{}", w.name);
            assert_ne!(w.source(7), w.source(8), "{}", w.name);
        }
    }

    #[test]
    fn sources_are_well_typed_and_evaluate() {
        // The front end and the evaluator recurse along the let spine and
        // `churn`; a test thread's default stack is too small for that in
        // an unoptimized build.
        std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn(|| {
                for w in &WORKLOADS {
                    let p = lambda::parse::parse_program(&w.source(3)).expect(w.name);
                    lambda::typecheck::check_program(&p).expect(w.name);
                    lambda::eval::run_program(&p, 1_000_000_000).expect(w.name);
                }
            })
            .expect("spawn the test thread")
            .join()
            .expect("sources check");
    }

    #[test]
    fn every_long_lets_seed_has_the_same_mix() {
        let mix = |seed| {
            let s = long_lets(&mut Rng::new(seed), LONG_LETS);
            ["(fn", "fst", "snd", ", "].map(|k| s.matches(k).count())
        };
        let (a, b) = (mix(1), mix(2));
        assert_eq!(a[0], b[0], "applied fns");
        assert_eq!(a[1] + a[2], b[1] + b[2], "projections");
        assert_eq!(a[3], b[3], "pairs");
    }

    #[test]
    fn flags_and_options_agree() {
        for w in &WORKLOADS {
            let flags = w.flags();
            let opts = w.options();
            assert_eq!(opts.resolved_backend(), Backend::Bytecode);
            assert!(flags.windows(2).any(|f| f == ["--backend", "bytecode"]));
            assert!(flags
                .windows(2)
                .any(|f| f[0] == "--budget" && f[1] == opts.budget.to_string()));
            assert_eq!(flags.contains(&"--supervise".to_string()), opts.supervise);
        }
    }
}
