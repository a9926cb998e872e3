//! `psbench`: the compiled half of the `psgc` benchmark. `run.py` drives it.
//!
//! ```text
//! psbench gen    --workload W --seed N --out FILE   # write the source, evaluate it
//! psbench trace  --workload W --source FILE         # traced layer pass
//! psbench probes --seed N --dir DIR                  # front-end size probes
//! ```
//!
//! Each command prints one JSON object (`probes`: one path per line).
//! Exit codes: 0 ok, 1 a workload failed, 2 usage.

mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use scavenger::lambda;
use workload::{Rng, Workload};

/// Fuel for the reference evaluator: far above any workload's needs.
const REF_FUEL: u64 = 1_000_000_000;

/// Bindings of the two `long-lets` probes and depth of the nested probe.
const PROBE_LETS: [usize; 2] = [1000, 4000];
const PROBE_NEST: usize = 4000;

fn usage(msg: &str) -> ExitCode {
    eprintln!("psbench: {msg}");
    eprintln!("usage: psbench gen --workload W --seed N --out FILE");
    eprintln!("       psbench trace --workload W --source FILE");
    eprintln!("       psbench probes --seed N --dir DIR");
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("psbench: {msg}");
    ExitCode::FAILURE
}

/// The value of `--name` in `args`, if given.
fn arg<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = || match arg(&args, "--workload") {
        Some(name) => Workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}")),
        None => Err("missing --workload".to_string()),
    };
    let seed = || {
        arg(&args, "--seed")
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or("missing or invalid --seed")
    };
    match args.first().map(String::as_str) {
        Some("gen") => {
            let (w, seed, out) = match (workload(), seed(), arg(&args, "--out")) {
                (Ok(w), Ok(s), Some(o)) => (w, s, o),
                (Err(e), ..) => return usage(&e),
                (_, Err(e), _) => return usage(e),
                _ => return usage("missing --out"),
            };
            gen(w, seed, out)
        }
        Some("trace") => {
            let (w, path) = match (workload(), arg(&args, "--source")) {
                (Ok(w), Some(p)) => (w, p),
                (Err(e), _) => return usage(&e),
                _ => return usage("missing --source"),
            };
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => return fail(&format!("cannot read {path}: {e}")),
            };
            match trace::trace(w, &source) {
                Ok((result, metrics)) => {
                    let fields: Vec<String> = metrics
                        .iter()
                        .map(|(k, v)| format!("{}: {v}", json_str(k)))
                        .collect();
                    println!(
                        "{{\"result\": {result}, \"metrics\": {{{}}}}}",
                        fields.join(", ")
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&format!("{}: {e}", w.name)),
            }
        }
        Some("probes") => {
            let (seed, dir) = match (seed(), arg(&args, "--dir")) {
                (Ok(s), Some(d)) => (s, d),
                (Err(e), _) => return usage(e),
                _ => return usage("missing --dir"),
            };
            probes(seed, dir)
        }
        _ => usage("expected a command: gen, trace or probes"),
    }
}

/// Generates the workload's source into `out` and evaluates it with the
/// source reference evaluator, which shares no code with the compiler's
/// back end. The timed set-up is exactly these two steps.
fn gen(w: &Workload, seed: u64, out: &str) -> ExitCode {
    let t = Instant::now();
    let source = w.source(seed);
    if let Err(e) = std::fs::write(out, &source) {
        return fail(&format!("cannot write {out}: {e}"));
    }
    let expected = match lambda::parse::parse_program(&source) {
        Ok(p) => lambda::eval::run_program(&p, REF_FUEL),
        Err(e) => return fail(&format!("{}: generated source does not parse: {e}", w.name)),
    };
    let setup_s = t.elapsed().as_secs_f64();
    let expected = match expected {
        Ok(n) => n,
        Err(e) => return fail(&format!("{}: reference evaluation failed: {e}", w.name)),
    };
    let flags: Vec<String> = w.flags().iter().map(|f| json_str(f)).collect();
    println!(
        "{{\"expected\": {expected}, \"setup_s\": {setup_s}, \"collector\": {}, \"flags\": [{}]}}",
        json_str(w.collector.name()),
        flags.join(", ")
    );
    ExitCode::SUCCESS
}

/// Writes the front-end probes: the `long-lets` generator past the size at
/// which the front end overflows its stack, and a deeply nested sum.
fn probes(seed: u64, dir: &str) -> ExitCode {
    let mut files: Vec<(String, String)> = PROBE_LETS
        .iter()
        .map(|&n| {
            (
                format!("{dir}/probe-lets-{n}.lam"),
                workload::long_lets(&mut Rng::new(seed), n),
            )
        })
        .collect();
    files.push((
        format!("{dir}/probe-nest-{PROBE_NEST}.lam"),
        workload::nested_sum(PROBE_NEST),
    ));
    for (path, text) in &files {
        if let Err(e) = std::fs::write(path, text) {
            return fail(&format!("cannot write {path}: {e}"));
        }
        println!("{path}");
    }
    ExitCode::SUCCESS
}
