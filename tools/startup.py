"""What each symcheb process loads and spends before its op starts.

    python tools/startup.py [--runs N] ARGV...
    python tools/startup.py [--runs N] --workload W --seed S

Each ARGV is one quoted command line, such as "coeffs --kind T --n 3 --c 2".
With --workload, the command lines are the distinct ops that
``bench/workloads.generate`` makes for that workload and seed, in a
``bench/run.py`` run of BENCHMARK.json's ``run_seconds``.  Per command line
it prints

- the ``symcheb`` modules loaded at parser-ready (when ``cli.build_parser``
  returns, where ``bench/child.py`` starts the op clock), and any that the
  op itself imports first, after that point;
- the young-generation count ``gc.get_count()[0]`` at parser-ready, and the
  garbage collections that start inside the op's timed window;
- the median process wall and set-up (wall minus op time, the benchmark's
  ``setup_s``) over N runs (default 5) of ``bench/child.py``.

Modules and collections are read by running ``bench/child.py``'s own
``main`` in a process that wraps ``cli.build_parser`` first: the wrapper,
and the collection callback it installs, are a few allocations that the
benchmark's child does not make.  Timings come from ``bench/run.py``'s
``execute``, the benchmark's own process runner, so they match its
numbers.  The probe runs with the tool's own -O flags, so
``python -O tools/startup.py`` reads an optimized start-up; the timed runs
are ``bench/run.py``'s, which runs plain.  Nothing under bench/ is changed.
Exit status 1 if some op imports a ``symcheb`` module after parser-ready.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

# Run as: python -c PROBE CHILD_PY RESULT_PATH RECORD_PATH ARGV...
PROBE = """
import gc, json, sys, time
child_py, result_path, record_path, *command = sys.argv[1:]
child = {"__name__": "bench_child", "__file__": child_py}
with open(child_py, encoding="utf-8") as handle:
    exec(compile(handle.read(), child_py, "exec"), child)
from symcheb import cli
build_parser, starts, seen = cli.build_parser, [], {}
def note(phase, info):
    if phase == "start":
        starts.append(time.perf_counter())
def ready():
    parser = build_parser()
    seen["count"] = gc.get_count()[0]
    seen["modules"] = [*sys.modules]
    gc.callbacks.append(note)
    seen["at"] = time.perf_counter()
    return parser
cli.build_parser = ready
code = child["main"]([record_path, "0", "0", *command])
gc.callbacks.remove(note)
with open(record_path, encoding="utf-8") as handle:
    op_s = json.load(handle)["op_s"]
at = seen.get("at")
report = {
    "code": code,
    "ready": sorted(m for m in seen.get("modules", ()) if m.startswith("symcheb")),
    "exit": sorted(m for m in sys.modules if m.startswith("symcheb")),
    "count": seen.get("count"),
    "in_op": None if at is None else sum(at <= t <= at + op_s for t in starts),
}
with open(result_path, "w", encoding="utf-8") as handle:
    json.dump(report, handle)
"""


def _bench():
    """bench/run.py and bench/workloads.py, imported as they are."""
    sys.path.insert(0, str(BENCH))
    import run
    import workloads

    return run, workloads


def probe(argv: list[str], env: dict) -> dict:
    """Modules and garbage collections of one run of ``argv`` (see PROBE)."""
    with tempfile.TemporaryDirectory() as scratch:
        result, record = Path(scratch, "result.json"), Path(scratch, "record.json")
        command = [sys.executable, *["-O"] * sys.flags.optimize, "-c", PROBE,
                   str(BENCH / "child.py"), str(result), str(record), *argv]
        subprocess.run(command, capture_output=True, env=env, cwd=ROOT, check=True)
        return json.loads(result.read_text(encoding="utf-8"))


def timings(run, argv: list[str], runs: int) -> tuple[float, float]:
    """Median process wall and median wall minus op time, in seconds."""
    walls, setups = [], []
    for _ in range(runs):
        _, wall, record = run.execute(argv, False, 0, run.OP_TIMEOUT_S)
        walls.append(wall)
        setups.append(wall - record["op_s"])
    return statistics.median(walls), statistics.median(setups)


def _names(modules: list[str]) -> str:
    return ",".join(m.removeprefix("symcheb.") for m in modules if m != "symcheb") or "-"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("argvs", nargs="*", metavar="ARGV", help="one quoted command line")
    parser.add_argument("--runs", type=int, default=5, help="timed runs per command line")
    parser.add_argument("--workload", help="take the command lines of this workload")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    run, workloads = _bench()
    commands = [shlex.split(text) for text in args.argvs]
    if args.workload:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        cycles = workloads.cycles_for(args.workload, seconds, run.REPEATS)
        for op in workloads.generate(args.workload, args.seed, cycles):
            if op not in commands:
                commands.append(op)
    if not commands:
        parser.error("give command lines or --workload")
    run.OUT.mkdir(exist_ok=True)
    env, late_ops = run.child_env(), 0
    print("wall_s  setup_s  gc0  gc_in_op  modules at parser-ready  late  argv")
    for command in commands:
        seen = probe(command, env)
        wall, setup = timings(run, command, args.runs)
        late = [m for m in seen["exit"] if m not in seen["ready"]]
        late_ops += bool(late)
        print(f"{wall:.4f}  {setup:.4f}  {seen['count']:>3}  {seen['in_op']:>8}  "
              f"{_names(seen['ready']):<23}  {_names(late):<4}  {shlex.join(command)}")
    print(f"{len(commands)} command lines, {late_ops} with a module first imported in the op")
    return 1 if late_ops else 0


if __name__ == "__main__":
    sys.exit(main())
