"""Tests of the benchmark itself, on tiny op streams (a few seconds in all)."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = 0.1


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced_stream(request):
    run.OUT.mkdir(exist_ok=True)
    ops = workloads.generate(request.param, seed=0, cycles=1, scale=TINY)
    return ops, run.run_stream(ops, True, time.perf_counter() + 120, repeats=1)


def test_spec_names_the_generated_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_is_emitted(traced_stream):
    _, results = traced_stream
    assert set(run.end_to_end(results)) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(run.per_layer(results)) == {m["name"] for m in SPEC["per_layer"]}


def test_no_op_fails(traced_stream):
    ops, results = traced_stream
    assert sorted((r.op_id, r.traced) for r in results) == sorted(
        (i, traced) for i in range(len(ops)) for traced in (False, True))
    assert [r.failure for r in results] == [None] * len(results)


def test_corrupted_coefficient_counts_as_failure():
    def corrupt(argv, traced, op_id, timeout):
        proc, wall, record = run.execute(argv, traced, op_id, timeout)
        if argv[0] == "coeffs" and "json" in argv:
            payload = json.loads(proc.stdout)
            num, den = payload["terms"][0]["coeff"].split("/")
            payload["terms"][0]["coeff"] = f"{int(num) + 1}/{den}"
            proc = subprocess.CompletedProcess(
                proc.args, proc.returncode, json.dumps(payload).encode(), proc.stderr
            )
        return proc, wall, record

    ops = [argv for argv in workloads.generate("lattice_exact", 0, 1, TINY)
           if argv[0] == "coeffs" and "json" in argv]
    run.OUT.mkdir(exist_ok=True)
    results = run.run_stream(ops, False, time.perf_counter() + 60, repeats=2, execute=corrupt)
    assert ops and len(results) == 2 * len(ops)
    assert all(r.failure and r.failure.startswith("check failed") for r in results)
    assert run.end_to_end(results) == {}


def test_repeats_must_reproduce_the_checked_output():
    outputs = iter([b"first", b"second"])

    def fake(argv, traced, op_id, timeout):
        proc = subprocess.CompletedProcess(argv, 0, next(outputs), b"")
        return proc, 0.5, {"op_s": 0.25, "maxrss_kb": 1024}

    verified = {0: hashlib.sha256(b"first").digest()}
    deadline = time.perf_counter() + 10
    assert run.run_op(["fgcount"], False, 0, deadline, verified, fake).failure is None
    assert "differs" in run.run_op(["fgcount"], False, 0, deadline, verified, fake).failure


def test_stream_is_seeded_and_safe_for_planned_fixes():
    ops = workloads.generate("float_limits", 7, 2)
    assert ops == workloads.generate("float_limits", 7, 2)
    assert ops != workloads.generate("float_limits", 8, 2)
    for name in workloads.WORKLOADS:
        for argv in workloads.generate(name, 7, 1):
            if argv[0] != "clt":
                continue
            assert "--exact-ceiling" in argv
            opts = dict(zip(argv[1::2], argv[2::2]))
            if opts["--mode"] == "float_normalized" and "--k" in opts:
                assert float(opts["--c"]) >= int(opts["--k"])


def test_tail_percentile_leaves_ten_ops_beyond():
    assert run.tail_percentile(30) == 66
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(5) == 100
