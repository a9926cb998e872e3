#!/usr/bin/env bash
# E17 perf tracking: runs the E9/E14/E15 workloads interleaved best-of-5
# on every backend (bare, and audited every step) and emits the
# machine-readable BENCH_E17.json checked in at the repo root.
#
#   scripts/bench.sh                 # full run, writes BENCH_E17.json
#   scripts/bench.sh --smoke [OUT]   # 1 workload at 2 reps (tier-1 wiring)
#
# Runs from the repository root regardless of the caller's cwd.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --example e17_lazy_intern

if [ "${1:-}" = "--smoke" ]; then
  out="${2:-$(mktemp --suffix=.json)}"
  ./target/release/examples/e17_lazy_intern --smoke --json "$out"
  # The smoke gate: the emitted JSON must be well-shaped.
  grep -q '"experiment": "E17"' "$out"
  grep -q '"bytecode_over_subst"' "$out"
else
  ./target/release/examples/e17_lazy_intern --json BENCH_E17.json
fi
