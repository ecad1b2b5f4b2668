"""Batch command-line front end.

Every command is deterministic: identical inputs produce byte-identical
output.  Exit code 0 is success, a finding such as "negative coefficient
found" included.  Every failure, a rejected option or an unwritable output
too, is an ``errors`` exception, which ``run`` reports as one stderr line
with the label and exit code that its class carries.

Each command's handler runs all of its checks and builds its kernel rows
when it is called, then returns its output as an iterable of text pieces:
the head, each table row or each run of terms that share a prefix, the
tail.  ``run`` joins them into batches of at least 64 KiB and writes each
batch, so no byte is written and no --out file is opened before the last
check has passed, and memory tracks a row of output, not the whole
document.  Term lists are written from the kernel's orbit representatives
by ``chebyshev.orbit_lines``: the lines of the last coordinates are made
once per block of an orbit and shared by every prefix, with no tuple, sort
or format per term; only ``fgcount --method oracle``, the independent
route, formats term by term.  Only a failed write can leave partial
output.

Exact parameters are written as ``p/q`` or integer literals; decimal input
is accepted only where a computation is explicitly float-mode (clt with
--mode float_normalized), so nothing exact ever passes through binary
floating point.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from functools import partial
from typing import IO, Callable, Iterable, Iterator, Sequence

from . import cltstats, freegroup, symmetrized
from .chebyshev import ChebKind, orbit_lines
from .errors import DomainError, InternalError, ResourceBudgetError, UsageError
from .laurent import format_exact, parse_exact

_KINDS = {"T": ChebKind.FIRST, "U": ChebKind.SECOND}


# Option types raise ArgumentTypeError: argparse replaces the message of
# any other exception with its generic "invalid <function name> value".
def _parse_kind(text: str) -> ChebKind:
    try:
        return _KINDS[text]
    except KeyError:
        raise argparse.ArgumentTypeError(f"kind must be T or U, got {text!r}") from None


def _parse_n_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from None


def _parse_c(text: str) -> Fraction:
    try:
        return parse_exact(text)
    except UsageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cell(value: object) -> str:
    """A CSV value: a bool as true or false, None as empty, a list
    ";"-joined, a float or Fraction to 9 significant digits, else str."""
    if isinstance(value, bool):
        return str(value).lower()
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(map(str, value))
    if isinstance(value, (float, Fraction)):
        return f"{float(value):.9g}"
    return str(value)


def _csv_lines(header: str, rows: Iterable[str]) -> Iterator[str]:
    """The header and each item of rows, one or more lines apiece."""
    yield f"{header}\n"
    for row in rows:
        yield f"{row}\n"


def _json_list(head: dict, key: str, items: Iterable[str]) -> Iterator[str]:
    """json.dumps({**head, key: [...]}) for items already in JSON text, in
    pieces: the head, each item, the tail."""
    yield f"{json.dumps(head)[:-1]}, {json.dumps(key)}: ["
    separator = ""
    for item in items:
        yield separator + item
        separator = ", "
    yield "]}\n"


def _terms_text(
    fmt: str, head: dict, key: str, name: str, k: int, lines: Callable[[tuple], Iterable[str]]
) -> Iterator[str]:
    """A term list, as ``lines(layout)`` writes its terms: in JSON,
    under ``key`` after the ``head`` fields; in CSV, as columns e1..ek and
    ``name``.  With layout (head, sep, tail, end, joint), a term is head e_1
    sep ... sep e_k tail text end, and the terms of a piece are joined by
    joint."""
    if fmt == "json":
        layout = ('{"e": [', ", ", f"], {json.dumps(name)}: ", "}", ", ")
        return _json_list(head, key, lines(layout))
    header = ",".join([*map("e{}".format, range(1, k + 1)), name])
    return _csv_lines(header, lines(("", ",", ",", "", "\n")))


def _plain_lines(terms: Iterable[tuple[tuple, int]], layout: tuple) -> Iterator[str]:
    """Each (exponents, count) term as one piece in the layout of
    ``_terms_text``: the term-by-term writer of the enumeration route."""
    head, sep, tail, end, _ = layout
    for e, count in terms:
        yield f"{head}{sep.join(map(str, e))}{tail}{count}{end}"


def _ratio_text(entry: int, scale: int) -> str:
    """format_exact(Fraction(entry, scale)) for scale > 0, by one gcd."""
    g = math.gcd(entry, scale)
    return f"{entry // g}/{scale // g}"


def _ratio_json(entry: int, scale: int) -> str:
    return json.dumps(_ratio_text(entry, scale))


_RATIO = {"json": _ratio_json, "csv": _ratio_text}


def _spec_head(args: argparse.Namespace) -> tuple[symmetrized.SymChebSpec, dict]:
    """The polynomial that ``coeffs`` and ``positivity`` name, and its JSON fields."""
    spec = symmetrized.SymChebSpec(kind=args.kind, n=args.n, c=args.c, k=args.k)
    return spec, {"kind": args.kind.value, "n": args.n, "c": format_exact(args.c), "k": args.k}


def _exact_or_float(value: Fraction | float) -> str | float:
    return format_exact(value) if isinstance(value, Fraction) else value


# --- per-command handlers ----------------------------------------------------
# Each runs its checks and its kernel when called and returns its output as
# text pieces; a small output is one piece, and a term list or a table is
# formatted a run of terms or a row at a time, as ``run`` reads it.


def _cmd_coeffs(args: argparse.Namespace) -> Iterable[str]:
    spec, head = _spec_head(args)
    reps, row, scale = symmetrized._scaled_row(spec)
    ratio = _RATIO[args.format]
    lines = partial(orbit_lines, reps, row, lambda entry: ratio(entry, scale))
    return _terms_text(args.format, head, "terms", "coeff", args.k, lines)


def _cmd_table(args: argparse.Namespace) -> Iterable[str]:
    ratio = _RATIO[args.format]
    rows = symmetrized._univariate_rows(args.kind, args.c, args.n_max, ratio)
    if args.format == "json":
        head = {"kind": args.kind.value, "c": format_exact(args.c), "n_max": args.n_max}
        items = (f'{{"n": {n}, "coeffs": [{", ".join(row)}]}}' for n, row in enumerate(rows))
        return _json_list(head, "rows", items)
    lines = (
        "\n".join([f"{n},{idx - n},{text}" for idx, text in enumerate(row)])
        for n, row in enumerate(rows)
    )
    return _csv_lines("n,j,value", lines)


def _cmd_positivity(args: argparse.Namespace) -> Iterable[str]:
    spec, head = _spec_head(args)
    report = symmetrized.positivity_report(spec)
    fields = {
        "all_nonnegative": report.all_nonnegative,
        "pattern_ok": report.pattern_ok,
        "min_coefficient": format_exact(report.min_coefficient),
        "witness": None if report.witness is None else list(report.witness),
    }
    if args.format == "json":
        return [json.dumps({**head, **fields}) + "\n"]
    return _csv_lines(",".join(fields), [",".join(map(_cell, fields.values()))])


def _cmd_sign_survey(args: argparse.Namespace) -> Iterable[str]:
    rows = symmetrized.sign_survey(args.kind, args.k, args.n_max, args.c)
    if args.format == "json":
        payload = {
            "kind": args.kind.value,
            "k": args.k,
            "n_max": args.n_max,
            "rows": [
                {
                    "c": format_exact(row.c),
                    "classification": row.classification.value,
                    "witness": None
                    if row.witness is None
                    else {
                        "n": row.witness.n,
                        "e": list(row.witness.exponents),
                        "value": format_exact(row.witness.value),
                    },
                }
                for row in rows
            ],
        }
        return [json.dumps(payload) + "\n"]
    lines = []
    for row in rows:
        w = row.witness
        found = (None,) * 3 if w is None else (w.n, list(w.exponents), format_exact(w.value))
        lines.append(",".join(map(_cell, (format_exact(row.c), row.classification.value, *found))))
    return _csv_lines("c,classification,witness_n,witness_e,witness_value", lines)


def _cmd_fgcount(args: argparse.Namespace) -> Iterable[str]:
    if args.method == "oracle":
        lines = partial(_plain_lines, freegroup.enumerate_counts(args.r, args.n).sorted_items())
    else:
        lines = partial(orbit_lines, *freegroup._formula_row(args.r, args.n), str)
    return _terms_text(args.format, {"r": args.r, "n": args.n}, "counts", "count", args.r, lines)


def _cmd_fgverify(args: argparse.Namespace) -> Iterable[str]:
    freegroup._check_budgets(args.r, args.n)
    formula = freegroup.counts_by_formula(args.r, args.n)
    oracle = freegroup.enumerate_counts(args.r, args.n)
    mismatches = [
        (key, formula.counts.get(key, 0), oracle.counts.get(key, 0))
        for key in sorted(set(formula.counts) | set(oracle.counts))
        if formula.counts.get(key, 0) != oracle.counts.get(key, 0)
    ]
    if mismatches:
        key, by_formula, by_oracle = mismatches[0]
        raise InternalError(
            f"{len(mismatches)} mismatched classes for r = {args.r}, n = {args.n}; the "
            f"first, {list(key)}, counts {by_formula} by formula and {by_oracle} by enumeration"
        )
    if args.format == "json":
        payload = {
            "r": args.r,
            "n": args.n,
            "status": "MATCH",
            "total_formula": formula.total(),
            "total_oracle": oracle.total(),
            "mismatches": [],
        }
        return [json.dumps(payload) + "\n"]
    row = f"MATCH,{formula.total()},{oracle.total()},0"
    return _csv_lines("status,total_formula,total_oracle,mismatch_classes", [row])


def _clt_report(args: argparse.Namespace) -> tuple[cltstats.ConvergenceReport, str]:
    if args.fg_r is not None:
        if args.c is not None or args.k is not None:
            raise UsageError("--fg-r cannot be combined with --c/--k")
        report = cltstats.freegroup_convergence_report(
            args.fg_r, args.n, mode=args.mode, exact_ceiling=args.exact_ceiling
        )
        return report, f"fg:{args.fg_r}"
    if args.c is None or args.k is None:
        raise UsageError("clt needs either --c and --k, or --fg-r")
    try:
        c = parse_exact(args.c)
        c_text = format_exact(c)
    except UsageError as exc:
        try:
            c = float(args.c)
        except ValueError:
            if args.mode != cltstats.MODE_FLOAT:
                raise exc from None  # no decimal either: parse_exact's message
            raise UsageError(f"cannot parse c: {args.c!r}") from None
        if args.mode != cltstats.MODE_FLOAT:
            raise UsageError(
                f"exact mode takes c as p/q or an integer, got {args.c!r} "
                "(decimals are float-mode only)"
            ) from None
        c_text = repr(c)
    report = cltstats.convergence_report(
        c, args.k, args.n, mode=args.mode, exact_ceiling=args.exact_ceiling
    )
    return report, c_text


# the columns of a clt row, in ConvergenceRow field order; dist_reported is
# written dist_paper
_CLT_FIELDS = ("n", "m2_over_n", "kurtosis", "max_offdiag", "dist_paper", "dist_rederived")


def _cmd_clt(args: argparse.Namespace) -> Iterable[str]:
    report, c_text = _clt_report(args)
    if args.format == "json":
        payload = {
            "c": c_text,
            "k": report.k,
            "mode": report.mode,
            "sigma2_paper": report.sigma2_reported,
            "sigma2_rederived": report.sigma2_rederived,
            "rows": [dict(zip(_CLT_FIELDS, map(_exact_or_float, row))) for row in report.rows],
        }
        return [json.dumps(payload) + "\n"]
    lines = [",".join(map(_cell, row)) for row in report.rows]
    return _csv_lines(",".join(_CLT_FIELDS), lines)


# --- parser -----------------------------------------------------------------


# argparse's own pattern, r"^-\d+$|^-\d*\.\d+$" in Python 3.11, plus -p/q
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")


class _Parser(argparse.ArgumentParser):
    """argparse that raises UsageError for a rejected command line and takes
    a negative ``-p/q`` for a value, as it takes -2 and -1.5; subparsers
    inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str):
        raise UsageError(message)

    def print_help(self, file=None):
        # to standard output through run's writer: argparse would swallow a failed write
        _write([self.format_help()], None)


def _add_spec(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", type=_parse_kind, required=True, metavar="T|U")
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--c", type=_parse_c, required=True, metavar="p/q")
    parser.add_argument("--k", type=int, default=1)


def _add_common(parser: argparse.ArgumentParser, default_format: str = "json") -> None:
    parser.add_argument("--format", choices=("json", "csv"), default=default_format)
    parser.add_argument("--out", metavar="PATH", default=None, help="write output to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symcheb",
        description="Exact symmetrized Chebyshev Laurent polynomials: "
        "coefficients, sign structure, free-group word counts, and "
        "coefficient-distribution convergence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="emit the term list of T_n(A) or U_n(A)")
    _add_spec(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_coeffs)

    p = sub.add_parser("table", help="univariate coefficient table rows 0..n_max")
    p.add_argument("--kind", type=_parse_kind, required=True, metavar="T|U")
    p.add_argument("--c", type=_parse_c, required=True, metavar="p/q")
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("positivity", help="coefficient sign report for one polynomial")
    _add_spec(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_positivity)

    p = sub.add_parser("sign-survey", help="classify sign behaviour over a grid of c")
    p.add_argument("--kind", type=_parse_kind, required=True, metavar="T|U")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument(
        "--c", type=_parse_c, action="append", required=True, metavar="p/q",
        help="repeatable: one survey row per value",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_sign_survey)

    p = sub.add_parser("fgcount", help="cyclically reduced word counts by homology class")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("formula", "oracle"), default="formula")
    _add_common(p)
    p.set_defaults(handler=_cmd_fgcount)

    p = sub.add_parser("fgverify", help="diff the formula counts against brute force")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_fgverify)

    p = sub.add_parser("clt", help="convergence report toward the Gaussian limit")
    p.add_argument("--c", default=None, metavar="p/q",
                   help="rational parameter (decimal allowed in float mode only)")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--fg-r", dest="fg_r", type=int, default=None,
                   help="use the rank-r word-count distributions instead of --c/--k")
    p.add_argument("--n", type=_parse_n_list, required=True, metavar="N1,N2,...")
    p.add_argument("--mode", choices=(cltstats.MODE_EXACT, cltstats.MODE_FLOAT),
                   default=cltstats.MODE_EXACT)
    p.add_argument("--exact-ceiling", dest="exact_ceiling", type=int, default=None)
    _add_common(p, default_format="csv")
    p.set_defaults(handler=_cmd_clt)

    return parser


# --- writer -----------------------------------------------------------------

_BATCH = 1 << 16  # characters per write; the output is ASCII, so bytes too


def _copy(pieces: Iterable[str], handle: IO[str]) -> None:
    """Write the pieces in batches of at least _BATCH characters: one write
    per batch, not per piece, since with PYTHONUNBUFFERED=1 every write to
    standard output is a system call."""
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            handle.write("".join(batch))
            batch, size = [], 0
    if batch:
        handle.write("".join(batch))


def _write(pieces: Iterable[str], out: str | None) -> None:
    """Write the pieces to the file ``out``, or to standard output and flush
    it; UsageError if a write fails."""
    try:
        if out is None:
            _copy(pieces, sys.stdout)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8") as handle:
                _copy(pieces, handle)
    except OSError as exc:
        if out is None:  # Python's flush at exit would fail again, with exit code 120
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        where = "standard output" if out is None else f"--out {out}"
        raise UsageError(f"cannot write {where}: {exc.strerror}") from None


def run(argv: Sequence[str]) -> int:
    """Execute one command; returns 0, or the exit code of the error that stopped it."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        _write(args.handler(args), args.out)
    except (UsageError, DomainError, ResourceBudgetError, InternalError) as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except SystemExit:  # argparse exits only after printing --help
        pass
    return 0


def main() -> None:
    # exact output is printed whatever its length (no int/str limit before 3.10.7)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
