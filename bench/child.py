"""Run one symcheb command exactly as ``python -m symcheb ARGV...`` does, and
time it from inside the process.

    python child.py RECORD_PATH TRACE OP_ID ARGV...

The op clock starts when ``cli.build_parser`` returns (parser ready) and
stops once the output is flushed, so interpreter start, ``import symcheb``,
parser construction and exit stay outside it.  The record written to
RECORD_PATH holds the op time and the peak RSS.  With TRACE = 1 the public
functions of every module are wrapped from outside: each call becomes a span
(name, start, end, parent) kept in memory, with per-layer work counts, and
all of it is added to the record at exit.
"""

from __future__ import annotations

import json
import resource
import runpy
import sys
import time
from collections import Counter

perf_counter = time.perf_counter


class Tracer:
    """Spans and counts of one process; spans share the op id by construction."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(counts, args, result)
            return result

        return traced


# Work counts, taken from each wrapped call's arguments and result.


def _mul_terms(counts, args, result):
    if result is not NotImplemented:
        counts["laurent.mul.terms_out"] += len(result)


def _build_steps(counts, args, result):
    counts["symmetrized.build.steps"] += args[0].n


def _table_entries(counts, args, result):
    counts["symmetrized.univariate_table.entries"] += sum(map(len, result.rows))


def _survey_counts(counts, args, result):
    n_max = args[2]
    for row in result:
        counts["symmetrized.sign_survey.built"] += n_max + 1
        scanned = n_max + 1 if row.witness is None else row.witness.n + 1
        counts["symmetrized.sign_survey.useful"] += scanned


def _formula_counts(counts, args, result):
    counts["freegroup.counts_by_formula.steps"] += result.n
    counts["freegroup.counts_by_formula.classes_out"] += len(result.counts)


def _enum_words(counts, args, result):
    counts["freegroup.enumerate_counts.words"] += result.total()


def _row_entries(counts, args, result):
    if result:
        counts["cltstats.row_entries"] += (result[-1][0] + 1) ** 2


def install_tracer(tracer: Tracer):
    """Wrap each layer's public functions in every module that binds them.

    Returns the unwrapped ``cheb_coeffs``, whose cache statistics are read
    at exit.
    """
    from symcheb import chebyshev, cli, cltstats, freegroup, laurent, symmetrized

    targets = [
        (laurent, "format_exact", None),
        (chebyshev, "cheb_coeffs", None),
        (symmetrized, "build", _build_steps),
        (symmetrized, "univariate_table", _table_entries),
        (symmetrized, "positivity_report", None),
        (symmetrized, "sign_survey", _survey_counts),
        (freegroup, "counts_by_formula", _formula_counts),
        (freegroup, "enumerate_counts", _enum_words),
        (cltstats, "marginal_moments_exact", _row_entries),
        (cltstats, "marginal_moments_float", _row_entries),
        (cltstats, "fg_marginal_moments_exact", _row_entries),
        (cltstats, "fg_marginal_moments_float", _row_entries),
        (cltstats, "distribution", None),
        (cltstats, "moments", None),
        (cli, "run", None),
    ]
    cheb_coeffs = chebyshev.cheb_coeffs
    modules = [chebyshev, cli, cltstats, freegroup, laurent, symmetrized]
    for module, attr, count in targets:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
        wrapped = tracer.wrap(name, original, count)
        for other in modules:
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)
    laurent.LaurentPoly.__mul__ = tracer.wrap("laurent.mul", laurent.LaurentPoly.__mul__, _mul_terms)
    return cheb_coeffs


def peak_rss_kb() -> int:
    """Peak RSS of this program image.

    VmHWM restarts at exec; ru_maxrss does not, so after a vfork-based spawn
    it can report the parent's footprint instead of the child's.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    record_path, trace, op_id, command = argv[0], argv[1] == "1", int(argv[2]), argv[3:]
    from symcheb import cli

    tracer = Tracer() if trace else None
    cheb_coeffs = install_tracer(tracer) if tracer else None
    ready: list[float] = []
    build_parser = cli.build_parser

    def timed_build_parser():
        parser = build_parser()
        ready.append(perf_counter())
        return parser

    cli.build_parser = timed_build_parser
    sys.argv = ["symcheb", *command]
    code = 0
    try:
        runpy.run_module("symcheb", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    done = perf_counter()
    record = {"op_id": op_id, "op_s": done - ready[0] if ready else None, "maxrss_kb": peak_rss_kb()}
    if tracer is not None:
        info = cheb_coeffs.cache_info()
        tracer.counts["chebyshev.cheb_coeffs.hits"] += info.hits
        tracer.counts["chebyshev.cheb_coeffs.misses"] += info.misses
        record["spans"] = tracer.spans
        record["counts"] = dict(tracer.counts)
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
