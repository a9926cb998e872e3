#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `psgc`.

Run from the repository root:

    python3 psbench/run.py --workload gc-churn --seed 1 --seconds 20 --trace 0
    python3 psbench/run.py --workload all --seconds 5     # every metric of every workload

`--trace 0` times fresh `psgc run FILE` and `psgc check FILE` processes,
one at a time (a closed loop with one client). `--trace 1` instead repeats
the traced layer pass of `psbench trace`, one fresh process per sample, and
runs the front-end probes. Every metric is printed with its unit; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

The workload sources are generated from `--seed` by `psbench gen`, which
also evaluates them with the source reference evaluator; every timed
invocation's output is compared with that result. Builds go to
`$CARGO_TARGET_DIR` (default `.bench_build`), generated files to
`.bench_work`.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
TARGET = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
PSGC = os.path.join(TARGET, "release", "psgc")
PSBENCH = os.path.join(TARGET, "release", "psbench")

WORKLOADS = ["gc-churn", "long-lets", "audited-dag"]

# Set-up (generation plus reference evaluation) is repeated in this many
# fresh processes per run; `setup_s` is their median.
SETUP_REPS = 15
# A timed invocation that runs longer than this is killed and counted as
# failed (a budget below the live data can otherwise run for minutes and
# grow to gigabytes).
DEADLINE_S = 20.0
PROBE_DEADLINE_S = 30.0
# Address-space cap for every child process.
MEM_LIMIT = 4 << 30
# Order of invocations in one cycle of the end-to-end loop.
CYCLE = ("run", "check", "run")

END_TO_END = [
    ("run_ms.p50", "ms"),
    ("run_ms.tail", "ms"),
    ("check_ms.p50", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
]
PER_LAYER = [
    ("lambda.parse_ms", "ms"),
    ("lambda.typecheck_ms", "ms"),
    ("clos.cps_ms", "ms"),
    ("clos.cps_recheck_ms", "ms"),
    ("clos.cc_ms", "ms"),
    ("clos.tyck_ms", "ms"),
    ("clos.size", "nodes"),
    ("trans.translate_ms", "ms"),
    ("trans.code_blocks", "count"),
    ("gc_lang.certify_ms", "ms"),
    ("gc_lang.load_ms", "ms"),
    ("gc_lang.first_step_ms", "ms"),
    ("gc_lang.run_ms", "ms"),
    ("gc_lang.steps", "count"),
    ("gc_lang.steps_per_s", "1/s"),
    ("collectors.gc_steps", "count"),
    ("collectors.gc_step_share", "ratio"),
    ("collectors.collections", "count"),
    ("collectors.words_copied", "words"),
    ("memory.pages_allocated", "count"),
    ("memory.max_heap_words", "words"),
    ("memory.words_allocated", "words"),
    ("intern.val_hit_ratio", "ratio"),
    ("intern.ty_hit_ratio", "ratio"),
    ("intern.term_hit_ratio", "ratio"),
    ("verify.overhead_ratio", "ratio"),
    ("snapshot.overhead_ratio", "ratio"),
    ("supervisor.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("frontend.probe_aborts", "count"),
]
# Counters that must repeat exactly across traced processes.
EXACT = ["gc_lang.steps", "collectors.gc_steps", "collectors.words_copied", "collectors.collections"]


class BenchError(Exception):
    """A failure of the benchmark itself (build, set-up, determinism)."""


def log(msg):
    print(f"psbench: {msg}", file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "psgc"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "psbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")


class Invocation:
    """One finished child process."""

    def __init__(self, wall_ms, code, maxrss_kib, stdout, stderr, deadline_s):
        self.wall_ms = wall_ms
        self.code = code  # exit code, or minus the signal number
        self.maxrss_kib = maxrss_kib
        self.stdout = stdout
        self.stderr = stderr
        self.deadline_s = deadline_s  # None unless the deadline was missed

    @property
    def timed_out(self):
        return self.deadline_s is not None

    def describe(self):
        if self.timed_out:
            return f"missed its {self.deadline_s:g} s deadline"
        last = self.stderr.strip().splitlines()[-1:]
        why = f" ({last[0]})" if last else ""
        if self.code < 0:
            return f"died by signal {-self.code}{why}"
        return f"exited with {self.code}{why}"


def invoke(argv, deadline_s=DEADLINE_S):
    """Runs `argv` to completion, timed from spawn to exit. Peak RSS comes
    from `wait4`'s rusage; a child past its deadline is killed."""
    out_path = os.path.join(WORK, "stdout.txt")
    err_path = os.path.join(WORK, "stderr.txt")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = None
    try:
        try:
            resource.prlimit(pid, resource.RLIMIT_AS, (MEM_LIMIT, MEM_LIMIT))
        except ProcessLookupError:
            pass
        pidfd = os.pidfd_open(pid)
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        timed_out = not poller.poll(deadline_s * 1e3)
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall_ms = (time.perf_counter() - start) * 1e3
        pid = None
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if pidfd is not None:
            os.close(pidfd)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    code = os.waitstatus_to_exitcode(status)
    missed = deadline_s if timed_out else None
    return Invocation(wall_ms, code, usage.ru_maxrss, stdout, stderr, missed)


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def setup(workload, seed):
    """Generates the workload's source and reference result SETUP_REPS
    times in fresh processes. Every repetition must write byte-identical
    source and compute the same result."""
    src = os.path.join(WORK, f"{workload}-{seed}.lam")
    runs, digests = [], set()
    for _ in range(SETUP_REPS):
        inv = invoke([PSBENCH, "gen", "--workload", workload, "--seed", str(seed), "--out", src])
        if inv.code != 0:
            raise BenchError(f"set-up of {workload} {inv.describe()}")
        runs.append(json.loads(inv.stdout))
        digests.add(digest(src))
    if len(digests) != 1 or len({r["expected"] for r in runs}) != 1:
        raise BenchError(f"seed {seed} of {workload} is not deterministic: {len(digests)} distinct sources")
    first = runs[0]
    return {
        "source": src,
        "expected": first["expected"],
        "flags": first["flags"],
        "verdict": f"✓ certified ({first['collector']} collector)\n",
        "setup_s": statistics.median(r["setup_s"] for r in runs),
    }


def failure(inv, expected):
    """Why `inv` failed, or None: a nonzero exit, death by signal, a missed
    deadline or output other than `expected`."""
    if inv.timed_out or inv.code != 0:
        return inv.describe()
    if inv.stdout != expected:
        return f"printed {inv.stdout!r}, expected {expected!r}"
    return None


class Tally:
    """Attempted and failed invocations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def count(self, what, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            log(f"{what} {reason}")
        return reason is None


def tail(samples):
    """The highest whole percentile with at least ten samples above it
    (nearest rank), and its value; the maximum (p100) when there are too
    few samples for that."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return 100, xs[-1]
    p = (100 * (n - 10)) // n
    return p, xs[math.ceil(p * n / 100) - 1]


def end_to_end(workload, seed, seconds):
    s = setup(workload, seed)
    tally = Tally()
    times = {"run": [], "check": []}
    rss = []
    expected = {"run": f"{s['expected']}\n", "check": s["verdict"]}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for cmd in CYCLE:
            inv = invoke([PSGC, cmd, s["source"], *s["flags"]])
            if tally.count(f"psgc {cmd} {workload}", failure(inv, expected[cmd])):
                times[cmd].append(inv.wall_ms)
                if cmd == "run":
                    rss.append(inv.maxrss_kib / 1024)
    if not times["run"] or not times["check"]:
        raise BenchError(f"no successful invocations of {workload}")
    p, tail_ms = tail(times["run"])
    print(f"# {workload}: {len(times['run'])} run and {len(times['check'])} check samples; "
          f"run_ms.tail is p{p}")
    metrics = {
        "run_ms.p50": statistics.median(times["run"]),
        "run_ms.tail": tail_ms,
        "check_ms.p50": statistics.median(times["check"]),
        "peak_rss_mib": statistics.median(rss),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "setup_s": s["setup_s"],
    }
    return tally, metrics, END_TO_END


def probe_aborts(seed, flags):
    """Runs `psgc check` on inputs past the front end's size limits and
    counts the probes that end outside the contract exit codes 0-4."""
    inv = invoke([PSBENCH, "probes", "--seed", str(seed), "--dir", WORK])
    if inv.code != 0:
        raise BenchError(f"probe generation {inv.describe()}")
    aborts = 0
    for path in inv.stdout.split():
        probe = invoke([PSGC, "check", path, *flags], PROBE_DEADLINE_S)
        ok = not probe.timed_out and 0 <= probe.code <= 4
        print(f"# probe {os.path.basename(path)}: {probe.describe()}")
        aborts += not ok
    return aborts


def traced(workload, seed, seconds):
    s = setup(workload, seed)
    tally = Tally()
    aborts = probe_aborts(seed, s["flags"])
    samples, psgc_ms = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        inv = invoke([PSBENCH, "trace", "--workload", workload, "--source", s["source"]])
        reason = failure(inv, inv.stdout)
        if reason is None:
            out = json.loads(inv.stdout)
            if out["result"] != s["expected"]:
                reason = f"halted with {out['result']}, expected {s['expected']}"
        if tally.count(f"psbench trace {workload}", reason):
            samples.append(out["metrics"])
        # An untraced `psgc run` of the same file: the denominator of
        # trace.coverage.
        inv = invoke([PSGC, "run", s["source"], *s["flags"]])
        if tally.count(f"psgc run {workload}", failure(inv, f"{s['expected']}\n")):
            psgc_ms.append(inv.wall_ms)
    if not samples or not psgc_ms:
        raise BenchError(f"no successful traced passes of {workload}")
    for name in EXACT:
        values = {m[name] for m in samples}
        if len(values) != 1:
            raise BenchError(f"{name} of {workload} differs across processes: {sorted(values)}")
    print(f"# {workload}: {len(samples)} traced passes, {len(psgc_ms)} psgc runs")
    metrics = {name: statistics.median(m[name] for m in samples) for name in samples[0]}
    metrics["trace.coverage"] = metrics["trace.spans_ms"] / statistics.median(psgc_ms)
    metrics["frontend.probe_aborts"] = aborts
    return tally, metrics, PER_LAYER


def report(metrics, units, prefix=""):
    out = {}
    for name, unit in units:
        key = prefix + name
        print(f"{key:<40} {metrics[name]:>18.6f} {unit}")
        out[key] = {"value": metrics[name], "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        build()
        os.makedirs(WORK, exist_ok=True)
        if args.workload == "all":
            runs = [(w, mode) for w in WORKLOADS for mode in (end_to_end, traced)]
        else:
            runs = [(args.workload, traced if args.trace else end_to_end)]
        total, metrics = Tally(), {}
        for w, mode in runs:
            tally, values, units = mode(w, args.seed, args.seconds)
            total.attempted += tally.attempted
            total.failed += tally.failed
            metrics.update(report(values, units, f"{w}/" if args.workload == "all" else ""))
    except BenchError as e:
        log(str(e))
        return 1
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
