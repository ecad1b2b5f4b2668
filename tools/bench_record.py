"""Write a checked-in benchmark record, BENCH_<label>.json, at the root.

Run as ``python tools/bench_record.py --label L --seed N --seconds S``.
For each workload named in BENCHMARK.json it runs

    python3 bench/run.py --workload W --seed N --seconds S --trace 0

from the root, reads the run record .bench_out/W-seedN-trace0.json and
keeps, per workload, the end-to-end metrics (value, unit, samples), the
argv digest, the op count and the attempted and failed executions.  The
file also holds the Python version and nproc of the runs, the seed, the
seconds, and the commit (``git rev-parse HEAD``, and whether tracked files
differ from it) where git is available.  Stdlib only; bench/ is run as it
is, never changed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def workload_record(run: dict) -> dict:
    """What BENCH_<label>.json keeps of one bench/run.py run record."""
    return {
        "argv_sha256": run["argv_sha256"],
        "op_count": run["op_count"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "end_to_end": {
            name: {key: metric[key] for key in ("value", "unit", "samples")}
            for name, metric in run["end_to_end"].items()
        },
    }


def bench_record(runs: dict[str, dict], seed: int, seconds: float, commit: dict | None) -> dict:
    """The BENCH_<label>.json record of one run record per workload, in the
    order given; the runs must agree on the Python version and nproc."""
    hosts = {(run["python"], run["nproc"]) for run in runs.values()}
    if len(hosts) != 1:
        raise ValueError(f"the runs disagree on (python, nproc): {sorted(hosts)}")
    ((python, nproc),) = hosts
    return {
        "python": python, "nproc": nproc, "seed": seed, "seconds": seconds, "git": commit,
        "workloads": {name: workload_record(run) for name, run in runs.items()},
    }


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_commit() -> dict | None:
    """{"head": sha, "dirty": tracked files differ from it}, or None without git."""
    head = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return None if head is None or status is None else {"head": head, "dirty": bool(status)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    runs = {}
    for name in names:
        command = ["python3", "bench/run.py", "--workload", name, "--seed", str(args.seed),
                   "--seconds", f"{args.seconds:g}", "--trace", "0"]
        if subprocess.run(command, cwd=ROOT).returncode != 0:
            print(f"bench_record: {' '.join(command)} failed", file=sys.stderr)
            return 1
        out = ROOT / ".bench_out" / f"{name}-seed{args.seed}-trace0.json"
        runs[name] = json.loads(out.read_text())
    record = bench_record(runs, args.seed, args.seconds, git_commit())
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
