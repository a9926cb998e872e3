//! E17 — execution throughput and incremental-audit cost per backend,
//! the repo's tracked execution-layer numbers.
//!
//! (The example's name is historical: E17 first measured lazy
//! ids-or-thunks heap slots against eager interning. Eager won, so slots
//! are now always canonical values and the A/B column is gone.)
//!
//! Two measurements over the E9/E14 throughput rows and the E15 audit
//! rows, interleaved best-of-5 (every configuration is timed inside the
//! same rep loop, so all samples see the same scheduler conditions):
//!
//! * **throughput** — steps/second per backend, plus the bytecode VM's
//!   speedup over the Fig. 5 substitution oracle;
//! * **audit ratio** — wall-clock of a `--verify-every 1 --audit
//!   incremental` run over the bare run (both with Ψ tracking on, as in
//!   E15), per backend.
//!
//! ```text
//! cargo run --release --example e17_lazy_intern [--smoke] [--json PATH]
//! ```
//!
//! `--smoke` runs a single workload at 2 reps (the tier-1 wiring);
//! `--json PATH` additionally writes the machine-readable `BENCH_E17.json`
//! that `scripts/bench.sh` checks in. Byte-identity of results, stats,
//! and telemetry across backends and audit settings is asserted by the
//! battery and backend-agreement suites; this example measures only
//! wall-clock.

use std::fmt::Write as _;
use std::time::Instant;

use scavenger::workloads::{compile_ast, live_dag_churn, live_tree_churn};
use scavenger::{AuditMode, Backend, Collector, Compiled, RunOptions};

/// Times one full run, returning (steps, seconds).
fn timed_run(c: &Compiled, backend: Backend, track: bool, every: u64) -> (u64, f64) {
    let opts = RunOptions::builder()
        .collector(Collector::Basic) // collector ignored by run_with
        .backend(backend)
        .track_types(track)
        .verify_every(every)
        .audit(AuditMode::Incremental)
        .build();
    let t0 = Instant::now();
    let run = c.run_with(&opts).expect("runs");
    (run.stats.steps, t0.elapsed().as_secs_f64())
}

/// Number of backends; per-backend arrays are indexed in
/// [`Backend::ALL`] order.
const N: usize = Backend::ALL.len();
const SUBST: usize = 0;
const BYTECODE: usize = 1;

/// One measured workload row.
struct Row {
    name: String,
    steps: u64,
    /// Best steps/second per backend.
    sps: [f64; N],
    /// verify-every-1 incremental wall over bare wall, Ψ tracked, per
    /// backend.
    audit_ratio: [f64; N],
}

impl Row {
    fn bytecode_over_subst(&self) -> f64 {
        self.sps[BYTECODE] / self.sps[SUBST]
    }
}

/// Measures every configuration of one workload, reps interleaved.
fn measure(name: &str, c: &Compiled, reps: u32) -> Row {
    let mut steps = 0u64;
    let mut best = [f64::INFINITY; N];
    let mut bare_tracked = [f64::INFINITY; N];
    let mut audited = [f64::INFINITY; N];
    for _ in 0..reps {
        for (i, backend) in Backend::ALL.into_iter().enumerate() {
            let (s, plain) = timed_run(c, backend, false, 0);
            let (sb, bare) = timed_run(c, backend, true, 0);
            let (sa, inc) = timed_run(c, backend, true, 1);
            if steps == 0 {
                steps = s;
            }
            assert!(
                s == steps && sb == steps && sa == steps,
                "{name}/{backend}: configurations disagree on step count"
            );
            best[i] = best[i].min(plain);
            bare_tracked[i] = bare_tracked[i].min(bare);
            audited[i] = audited[i].min(inc);
        }
    }
    Row {
        name: name.to_string(),
        steps,
        sps: best.map(|t| steps as f64 / t),
        audit_ratio: std::array::from_fn(|i| audited[i] / bare_tracked[i]),
    }
}

fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0u32);
    for x in xs {
        sum += x.ln();
        n += 1;
    }
    (sum / f64::from(n.max(1))).exp()
}

/// The E9/E14 throughput rows plus the E15 audit-flavor rows.
fn workloads(smoke: bool) -> Vec<(String, Compiled)> {
    if smoke {
        let budget = (2usize << 5) + 96;
        return vec![(
            "e1 tree depth 5 (gc)".to_string(),
            compile_ast(&live_tree_churn(5, 120), Collector::Basic, budget),
        )];
    }
    [3u32, 5, 7, 9]
        .iter()
        .map(|&depth| {
            let budget = (2usize << depth) + 96;
            (
                format!("e1 tree depth {depth} (gc)"),
                compile_ast(&live_tree_churn(depth, 120), Collector::Basic, budget),
            )
        })
        .chain([6u32, 8].iter().map(|&depth| {
            (
                format!("e4 tree depth {depth} (mut)"),
                compile_ast(
                    &live_tree_churn(depth, 120),
                    Collector::Basic,
                    1 << (depth + 3),
                ),
            )
        }))
        .chain([4u32].iter().map(|&depth| {
            let budget = (2usize << depth) + 96;
            (
                format!("dag depth {depth} (forwarding)"),
                compile_ast(&live_dag_churn(depth, 15), Collector::Forwarding, budget),
            )
        }))
        .chain([4u32].iter().map(|&depth| {
            let budget = (2usize << depth) + 96;
            (
                format!("tree depth {depth} (generational)"),
                compile_ast(&live_tree_churn(depth, 15), Collector::Generational, budget),
            )
        }))
        .collect()
}

fn to_json(rows: &[Row], reps: u32) -> String {
    let names = Backend::ALL.map(Backend::name);
    let per_backend = |xs: &[f64; N]| {
        names
            .iter()
            .zip(xs)
            .map(|(n, x)| format!("\"{n}\": {x:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut s = String::from("{\n  \"experiment\": \"E17\",\n");
    let _ = writeln!(s, "  \"reps\": {reps},");
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let ratios = names
            .iter()
            .zip(&r.audit_ratio)
            .map(|(n, x)| format!("\"{n}\": {x:.3}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            s,
            "    {{\"workload\": \"{}\", \"steps\": {}, \
             \"steps_per_sec\": {{{}}}, \
             \"audit_ratio_incremental\": {{{}}}}}",
            r.name,
            r.steps,
            per_backend(&r.sps),
            ratios
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let bc_subst = geomean(rows.iter().map(Row::bytecode_over_subst));
    let ratio_geo: Vec<String> = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            format!(
                "\"{n}\": {:.3}",
                geomean(rows.iter().map(|r| r.audit_ratio[i]))
            )
        })
        .collect();
    let _ = writeln!(
        s,
        "  \"geomean\": {{\"bytecode_over_subst\": {bc_subst:.3}, \
         \"audit_ratio_incremental\": {{{}}}}}",
        ratio_geo.join(", ")
    );
    s.push_str("}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let reps = if smoke { 2 } else { 5 };

    println!("E17: execution throughput and incremental-audit cost");
    println!(
        "{:<30} {:>10} {:>11} {:>11} {:>7} {:>7} {:>7}",
        "workload", "steps", "sub st/s", "bc st/s", "bc/sub", "x(sub)", "x(bc)"
    );
    let cases = workloads(smoke);
    let mut rows = Vec::new();
    for (name, compiled) in &cases {
        let row = measure(name, compiled, reps);
        println!(
            "{:<30} {:>10} {:>11.0} {:>11.0} {:>6.1}x {:>6.2} {:>6.2}",
            row.name,
            row.steps,
            row.sps[SUBST],
            row.sps[BYTECODE],
            row.bytecode_over_subst(),
            row.audit_ratio[SUBST],
            row.audit_ratio[BYTECODE],
        );
        rows.push(row);
    }
    println!(
        "\ngeomean bytecode/subst: {:.1}x; \
         audit ratios subst {:.2}x, bytecode {:.2}x",
        geomean(rows.iter().map(Row::bytecode_over_subst)),
        geomean(rows.iter().map(|r| r.audit_ratio[SUBST])),
        geomean(rows.iter().map(|r| r.audit_ratio[BYTECODE])),
    );
    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&rows, reps)).expect("write JSON");
        println!("wrote {path}");
    }
}
