"""Seeded end-to-end benchmark of the symcheb command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every op is a fresh
``python -m symcheb`` process (see child.py), run one at a time by a single
client in a closed loop.  The op list comes from workloads.py, seeded by
--seed and sized so that the run takes about --seconds on the reference
machine.  The list is executed REPEATS times, each pass in its own seeded
order, and every timing of an op is the best of its executions: on the
2-core reference VM the CPU speed drops by up to 40% for tens of seconds at
a time, and spreading the repeats over the run keeps most ops clear of such
a stretch.  The first
output of each op is checked by checks.py outside the timed region; every
later execution must reproduce it byte for byte.

With --trace 0 the last stdout line is the end-to-end result.  With --trace 1
each op also runs once traced, right next to its first untraced execution,
and the last line holds the per-layer metrics of the traced executions plus
the tracing overhead; end-to-end numbers always come from untraced
executions.  The full record, including the generated argv list, goes to
.bench_out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

RUN_BUDGET_S = 160.0
OP_TIMEOUT_S = 60.0
REPEATS = 3
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: self time of each wrapped function, call counts of the
# busiest ones, and the work counts child.py records at the same boundaries.
SELF_TIMES = [
    "laurent.mul", "laurent.format_exact", "cli.run", "chebyshev.cheb_coeffs",
    "symmetrized.build", "symmetrized.univariate_table", "symmetrized.positivity_report",
    "symmetrized.sign_survey", "freegroup.counts_by_formula", "freegroup.enumerate_counts",
    "cltstats.marginal_moments_exact", "cltstats.fg_marginal_moments_exact",
    "cltstats.marginal_moments_float", "cltstats.fg_marginal_moments_float",
    "cltstats.distribution", "cltstats.moments",
]
CALLS = ["laurent.mul", "laurent.format_exact", "chebyshev.cheb_coeffs"]
COUNTS = [
    "laurent.mul.terms_out", "symmetrized.build.steps", "symmetrized.univariate_table.entries",
    "freegroup.counts_by_formula.steps", "freegroup.counts_by_formula.classes_out",
    "freegroup.enumerate_counts.words", "cltstats.row_entries",
]


@dataclass
class OpResult:
    """One execution of one op."""

    op_id: int
    traced: bool
    wall_s: float
    op_s: float | None = None
    maxrss_kb: int = 0
    stdout_bytes: int = 0
    failure: str | None = None
    facts: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict, repr=False)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def execute(argv: list[str], traced: bool, op_id: int, timeout: float):
    """Run one op in a fresh process; returns (completed process, wall seconds, record)."""
    record_path = OUT / f"op-record-{os.getpid()}.json"
    record_path.unlink(missing_ok=True)
    command = [sys.executable, str(BENCH / "child.py"), str(record_path), str(int(traced)),
               str(op_id), *argv]
    start = time.perf_counter()
    proc = subprocess.run(command, capture_output=True, env=child_env(), cwd=ROOT,
                          timeout=timeout)
    wall = time.perf_counter() - start
    try:
        record = json.loads(record_path.read_text())
        record_path.unlink()
    except (OSError, ValueError):  # the child died before writing a whole record
        record = {}
    return proc, wall, record


def run_op(argv, traced, op_id, deadline, verified, execute=execute) -> OpResult:
    """Execute and judge one op; ``verified`` maps op id to its checked output digest."""
    # checks imports symcheb, which is importable only once SRC is on sys.path.
    from checks import CheckFailure, check

    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        return OpResult(op_id, traced, 0.0, failure="not run: run budget spent")
    try:
        proc, wall, record = execute(argv, traced, op_id, min(OP_TIMEOUT_S, remaining))
    except subprocess.TimeoutExpired:
        return OpResult(op_id, traced, min(OP_TIMEOUT_S, remaining), failure="timed out")
    result = OpResult(op_id, traced, wall, record.get("op_s"), record.get("maxrss_kb", 0),
                      len(proc.stdout), record=record)
    stderr = proc.stderr.decode(errors="replace")
    if proc.returncode != 0:
        result.failure = f"exit code {proc.returncode}: {stderr.strip()[-300:]}"
    elif "Traceback" in stderr:
        result.failure = "traceback on stderr"
    elif result.op_s is None:
        result.failure = "no timing record"
    elif op_id in verified:
        if hashlib.sha256(proc.stdout).digest() != verified[op_id]:
            result.failure = "output differs from the op's checked output"
    else:
        try:
            result.facts = check(argv, proc.stdout.decode())
        except CheckFailure as exc:
            result.failure = f"check failed: {exc}"
        else:
            verified[op_id] = hashlib.sha256(proc.stdout).digest()
    return result


def run_stream(ops, trace: bool, deadline: float, repeats: int = REPEATS, seed: str = "",
               execute=execute) -> list[OpResult]:
    """All executions: ``repeats`` untraced passes, each in its own seeded order,
    plus one traced execution per op next to its first untraced one when
    ``trace`` (alternating which of the two runs first)."""
    results, verified = [], {}
    for pass_no in range(repeats):
        order = list(range(len(ops)))
        if pass_no:
            random.Random(f"{seed}:pass{pass_no}").shuffle(order)
        for op_id in order:
            modes = [False]
            if trace and pass_no == 0:
                modes = [False, True] if op_id % 2 == 0 else [True, False]
            for traced in modes:
                results.append(run_op(ops[op_id], traced, op_id, deadline, verified, execute))
    return results


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND ops beyond it (nearest rank)."""
    for pct in range(99, 0, -1):
        if count - math.ceil(pct * count / 100) >= TAIL_BEYOND:
            return pct
    return 100


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct * len(ordered) / 100)) - 1]


def end_to_end(results: list[OpResult]) -> dict:
    """Metrics over ops whose untraced executions all succeeded, each timing
    taken as the best over the op's executions."""
    runs: dict[int, list[OpResult]] = {}
    for r in results:
        if not r.traced:
            runs.setdefault(r.op_id, []).append(r)
    ok = [rs for rs in runs.values() if all(r.failure is None for r in rs)]
    if not ok:
        return {}
    walls = [min(r.wall_s for r in rs) for rs in ok]
    op_times = [min(r.op_s for r in rs) for rs in ok]
    setups = [min(r.wall_s - r.op_s for r in rs) for rs in ok]
    peak_kb = max(r.maxrss_kb for rs in ok for r in rs)
    pct = tail_percentile(len(ok))
    best = f"best of {len(ok[0])}"
    metrics = {
        "setup_s": (statistics.median(setups), len(ok),
                    f"median over ops of process wall minus op time, {best}"),
        "ops_per_s": (len(ok) / sum(walls), len(ok),
                      f"{len(ok)} ops / {sum(walls):.2f} s of process wall, {best}"),
        "op_p50_s": (statistics.median(op_times), len(ok), f"median op time, {best}"),
        "op_tail_s": (nearest_rank(op_times, pct), len(ok), f"p{pct} op time, {best}"),
        "peak_rss_mb": (peak_kb / 1024, sum(map(len, ok)), "largest child peak RSS"),
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name], "samples": samples,
                   "note": note} for name, (value, samples, note) in metrics.items()}


def self_times(record: dict) -> dict[str, list[float]]:
    """Per span name: [calls, self seconds]; self = duration minus child spans."""
    spans = record.get("spans", [])
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, list[float]] = {}
    for (name, start, end, _), inner in zip(spans, child):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start - inner
    return totals


def per_layer(results: list[OpResult]) -> dict:
    """Per-layer metrics of the traced executions; the overhead compares each
    traced execution with the untraced one that ran next to it."""
    traced = [r for r in results if r.traced]
    first: dict[int, OpResult] = {}
    for r in results:
        if not r.traced:
            first.setdefault(r.op_id, r)
    selfs: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    for result in traced:
        for name, (calls, busy) in self_times(result.record).items():
            entry = selfs.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += busy
        for name, value in result.record.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {f"{name}.self_s": (selfs.get(name, [0, 0.0])[1], "s") for name in SELF_TIMES}
    metrics.update({f"{name}.calls": (selfs.get(name, [0, 0.0])[0], "count") for name in CALLS})
    metrics.update({name: (counts.get(name, 0), "count") for name in COUNTS})
    hits = counts.get("chebyshev.cheb_coeffs.hits", 0)
    misses = counts.get("chebyshev.cheb_coeffs.misses", 0)
    metrics["chebyshev.cheb_coeffs.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    metrics["symmetrized.sign_survey.useful_ratio"] = (
        ratio(counts.get("symmetrized.sign_survey.useful", 0),
              counts.get("symmetrized.sign_survey.built", 0)), "ratio")
    metrics["symmetrized.max_coeff_bits"] = (
        max((r.facts.get("max_coeff_bits", 0) for r in results), default=0), "bits")
    metrics["cli.output_bytes"] = (sum(r.stdout_bytes for r in traced), "bytes")
    metrics["trace.overhead_ratio"] = (
        ratio(sum(r.wall_s for r in traced), sum(first[r.op_id].wall_s for r in traced)) - 1.0,
        "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symcheb" / "__init__.py").is_file():
        print(f"bench: no symcheb source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.perf_counter() + RUN_BUDGET_S
    cycles = workloads.cycles_for(args.workload, args.seconds, REPEATS)
    ops = workloads.generate(args.workload, args.seed, cycles)
    argv_digest = hashlib.sha256(json.dumps(ops).encode()).hexdigest()[:16]
    execute(["fgcount", "--r", "2", "--n", "1"], False, -1, OP_TIMEOUT_S)  # fill bytecode caches

    results = run_stream(ops, bool(args.trace), deadline, seed=f"{args.workload}:{args.seed}")
    failed = sum(r.failure is not None for r in results)
    e2e = end_to_end(results)
    layers = per_layer(results) if args.trace else {}

    print(f"symcheb bench  workload={args.workload} seed={args.seed} ops={len(ops)} "
          f"repeats={REPEATS} cycles={cycles} trace={args.trace} python={platform.python_version()} "
          f"nproc={os.cpu_count()} argv_sha256={argv_digest}")
    for name, m in e2e.items():
        print(f"  {name:<12} {m['value']:>12.6g} {m['unit']:<4} n={m['samples']:<4} {m['note']}")
    print(f"  {'fail_ratio':<12} {failed / len(results):>12.6g} {'-':<4} n={len(results):<4} "
          f"{failed} failed")
    for name, m in layers.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for r in results:
        if r.failure:
            print(f"  FAILED op {r.op_id} {'traced' if r.traced else ''}: "
                  f"{' '.join(ops[r.op_id])}: {r.failure}")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "repeats": REPEATS, "cycles": cycles, "op_count": len(ops), "argv_sha256": argv_digest, "argv": ops,
        "attempted": len(results), "failed": failed, "end_to_end": e2e, "per_layer": layers,
        "ops": [{k: v for k, v in asdict(r).items() if k != "record"} for r in results],
    }
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1))

    chosen = layers if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
