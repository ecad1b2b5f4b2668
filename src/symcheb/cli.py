"""Batch command-line front end.

Every command is deterministic: identical inputs produce byte-identical
output.  Exit code 0 is success, a finding such as "negative coefficient
found" included.  Every failure, a rejected option or an unwritable output
too, is an ``errors`` exception, which ``run`` reports as one stderr line
with the label and exit code that its class carries.

Each command's handler runs all of its checks and builds its kernel rows
when it is called, then returns its output as an iterable of text pieces:
the head, each table row or each run of terms that share a prefix (at
k = 1, each term), the tail.  ``_copy`` alone joins them into batches of
at least 64 KiB and writes each batch, so no byte is written and no --out
file is opened before the last check has passed, and memory tracks a row
of output, not the whole document.  Term lists are written from the
kernel's orbit representatives by ``_orbit_lines``: the lines of the last
coordinates are made once per block of an orbit and shared by every
prefix, with no tuple, sort or format per term.  Brute-force enumeration,
the independent route, is reached only through ``fgverify``, which diffs
it against the kernel.  Only a failed write can leave partial output.

``coeffs`` and ``table`` write each nonzero kernel entry once as p/q in
lowest terms, reduced against its row's scale s = q0 d^m by
``_ratio_text``: a remainder by a part M of s, below 2^30 unless the base
q0 d is larger, in place of a big-int gcd, which only an entry that holds
a prime to its full power in M still takes.

Command lines are read from one option table per command, ``_COMMANDS``.
``_read`` takes a command and its ``--option value`` pairs from the table
alone and returns the namespace that argparse would make of them, or
declines: an option not named in full, a value that starts with "-" and
is not a negative number, a missing or rejected value, help.  Only a
declined command line imports argparse, which ``_argparse_parser`` builds
from the same table, so help text and every error message are argparse's.

The module imports no compute module.  Each command's entry in
``_COMMANDS`` names the modules that its handler runs (``symmetrized``,
``freegroup``, or for clt both and then ``cltstats``), and ``run``
imports them first, before ``build_parser``, so a process compiles only
the modules its command uses, and the import is start-up like every
other import: the benchmark's child starts the op clock when
``build_parser`` returns.  ``run`` passes the last of them to the
handler, so the table is the one place that names them.  clt lists the
two modules that ``cltstats`` imports ahead of it.  Imported from inside
the import of ``cltstats`` instead, they left the clt op that follows
100-170 us (30-50%) slower, though no import and no garbage collection
ran in it (2-core Xeon VM, Python 3.11.7; the cause was not found).

Exact parameters are written as ``p/q`` or integer literals; decimal input
is accepted only where a computation is explicitly float-mode (clt with
--mode float_normalized), so nothing exact ever passes through binary
floating point.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from fractions import Fraction
from functools import partial
from importlib import import_module
from operator import neg
from types import ModuleType, SimpleNamespace
from typing import IO, Callable, Iterable, Iterator, Sequence

from .chebyshev import ChebKind
from .errors import DomainError, InternalError, ResourceBudgetError, UsageError
from .laurent import format_exact, parse_exact

_KINDS = {"T": ChebKind.FIRST, "U": ChebKind.SECOND}


# Option types raise ArgumentTypeError: argparse replaces the message of
# any other exception with its generic "invalid <function name> value".
# argparse is imported for a rejected value only, which argparse reports.
def _type_error(message: str) -> Exception:
    import argparse

    return argparse.ArgumentTypeError(message)


def _parse_kind(text: str) -> ChebKind:
    try:
        return _KINDS[text]
    except KeyError:
        raise _type_error(f"kind must be T or U, got {text!r}") from None


def _parse_n_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise _type_error(f"expected a comma-separated list of integers, got {text!r}") from None


def _parse_c(text: str) -> Fraction:
    try:
        return parse_exact(text)
    except UsageError as exc:
        raise _type_error(str(exc)) from None


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
    fmt: str, head: dict, key: str, name: str, k: int, reps: Sequence[tuple[int, ...]],
    row: Sequence[int], value: Callable[[int], str], quote: str = "",
) -> Iterator[str]:
    """The term list of a kernel row, as ``_orbit_lines(reps, row, value,
    layout)`` writes it: in JSON, under ``key`` after the ``head`` fields,
    each text between two quotes; in CSV, as columns e1..ek and ``name``.
    With layout (head, sep, tail, end, joint), a term is head e_1 sep ...
    sep e_k tail text end, and the terms of a piece are joined by joint."""
    if fmt == "json":
        layout = ('{"e": [', ", ", f"], {json.dumps(name)}: {quote}", f"{quote}}}", ", ")
        return _json_list(head, key, _orbit_lines(reps, row, value, layout))
    header = ",".join([*map("e{}".format, range(1, k + 1)), name])
    return _csv_lines(header, _orbit_lines(reps, row, value, ("", ",", ",", "", "\n")))


# A zero level of ``_orbit_lines`` with at most this many coordinates is a
# shared block like any other; nested, such blocks copy a line at most this
# many times.
_ZERO_BLOCK_LENGTH = 8


def _orbit_lines(
    reps: Sequence[tuple[int, ...]], row: Sequence[int], value: Callable[[int], str], layout: tuple
) -> Iterator[str]:
    """The terms of ``chebyshev.orbit_terms(reps, row, value)`` in the
    layout of ``_terms_text``, in order: one piece per run of terms that
    share a prefix of their coordinates, or at k = 1 per term; ``_copy``
    joins the pieces into write batches.  value is called once per nonzero
    entry, before the first piece.

    The members with e_1 = -v or v of a representative holding v are
    (e_1, *f), f in the orbit of the representative with one copy of v taken
    off.  So the lines of coordinates j..k are made once per multiset of
    entries taken off, as one "\\n"-joined block, and one str.replace puts
    the coordinates before j on each of its lines.  Each block is made
    once; the e_1 = -v slice keeps its blocks until e_1 = v, and no slice
    is joined whole.  A long run of zero coordinates is walked in a loop
    rather than nested into blocks, so stack depth and memory follow the
    nonzero entries, not k."""
    head, sep, tail, end, joint = layout
    zero, blocks = f"0{sep}", {}

    def parts(taken, items, v):
        """(prefix, block of the lines after it) for the members of the orbits
        of the items with one copy of v taken off, ascending; taken is the
        sorted tuple of the nonzero entries taken off, v included.  The lines
        of the last coordinate are one block.  A zero level with more than
        _ZERO_BLOCK_LENGTH coordinates is walked in the loop, not recursed
        into: each level's negatives, then the next zero level, then the
        positives in reverse level order; the item that is all zeros waits
        for the first shorter level, or is one line at the turn."""
        later, flat, depth = [], None, 0
        while True:
            zeros = zero * depth
            buckets = {}
            for rest, text in items:
                i = rest.index(v)
                rest = rest[:i] + rest[i + 1 :]
                if rest[0]:
                    for w in set(rest):
                        buckets.setdefault(w, []).append((rest, text))
                else:  # all zeros, as rest is sorted descending
                    flat = text
            short = len(rest) <= _ZERO_BLOCK_LENGTH
            if short and flat is not None:
                buckets.setdefault(0, []).append(((0,) * len(rest), flat))
                flat = None
            if len(rest) == 1:
                lines = []  # a loop: a comprehension adds GC-tracked objects at start-up
                for x in sorted({*buckets, *map(neg, buckets)}):
                    lines.append(f"{x}{tail}{buckets[abs(x)][0][1]}")
                yield zeros, "\n".join(lines)
                break
            level = []
            for w in sorted(buckets):
                if w or short:
                    inner = tuple(sorted((*taken, w))) if w else taken
                    key = (len(rest), *inner)  # len(rest) fixes how many zeros were taken off
                    if key not in blocks:
                        lines = []
                        for p, block in parts(inner, buckets[w], w):
                            lines.append(p + block.replace("\n", "\n" + p))
                        blocks[key] = "\n".join(lines)
                    level.append((w, blocks[key]))
            for w, block in reversed(level):
                if w:
                    yield f"{zeros}-{w}{sep}", block
            later.append((depth, level))
            if short or 0 not in buckets:
                break
            items, v, depth = buckets[0], 0, depth + 1
        if flat is not None:
            yield f"{zeros}{sep.join(['0'] * len(rest))}{tail}", flat
        for depth, level in reversed(later):
            zeros = zero * depth
            for w, block in level:
                yield f"{zeros}{w}{sep}", block

    if reps and len(reps[0]) == 1:  # k = 1: one term per e_1
        texts = {}
        for (e,), entry in zip(reps, row):
            if entry:
                texts[e] = value(entry)
        del reps, row  # the texts stand for them from here on: their ints can go
        for x in sorted({*texts, *map(neg, texts)}):
            yield f"{head}{x}{tail}{texts[abs(x)]}{end}"
        return
    buckets = {}  # each nonzero representative under each of its entries
    for e, entry in zip(reps, row):
        if entry:
            item = (e, value(entry))
            for v in set(e):
                buckets.setdefault(v, []).append(item)
    kept = {}  # the parts of e_1 = -v, until e_1 = v
    for x in sorted({*buckets, *map(neg, buckets)}):
        sub = buckets[abs(x)]
        pairs = kept.pop(x, None) or parts((abs(x),) if x else (), sub, abs(x))
        if x < 0:
            kept[-x] = pairs = list(pairs)
        for p, block in pairs:
            prefix = f"{head}{x}{sep}{p}"
            block = block.replace("\n", f"{end}{joint}{prefix}")
            yield f"{prefix}{block}{end}"


# A remainder by a divisor below 2^30, one CPython digit, takes time linear
# in the dividend, where a gcd of two big ints takes quadratic time.
_WORD = 1 << 30


def _ratio_text(scale: int, base: int) -> Callable[[int], str]:
    """format_exact(Fraction(entry, scale)) as a function of the entry, for
    a scale s = q0 d^m with base b = q0 d (``symmetrized._kernel_args``).

    M = gcd(s, b^j), grown from j = 1 while it grows and stays below 2^30,
    is the divisor, and r = gcd(s / M, b) the next factor it would take.
    Every prime of s divides b, so M holds every prime of s, and to its
    power in s unless the prime divides r.  Hence h = gcd(entry % M, M) is
    gcd(entry, s) whenever every prime of r divides M / h; only an entry
    that fails this, holding a prime of r to its full power in M, takes the
    big gcd.  The test is made once per distinct h, as is the denominator
    text s / h.  The text is digits, "-" and "/": in JSON, quotes are all
    the escaping it needs."""
    divisor = math.gcd(scale, base)
    short = math.gcd(scale // divisor, base)
    while short > 1 and divisor * short < _WORD:  # gcd(s, b^(j+1)) = M gcd(s / M, b)
        divisor *= short
        short = math.gcd(scale // divisor, base)
    tails = {}  # h: "/" s / h, or "" where the entry may hold more of a prime of r
    exponent = short.bit_length()  # at least each prime's power in r

    def text(entry):
        h = math.gcd(entry % divisor, divisor)
        tail = tails.get(h)
        if tail is None:
            fits = pow(divisor // h, exponent, short) == 0  # every prime of r divides M / h
            tail = tails[h] = f"/{scale // h}" if fits else ""
        if tail:
            return f"{entry // h}{tail}"
        g = math.gcd(entry, scale)
        return f"{entry // g}/{scale // g}"

    return text


def _spec_head(
    args: SimpleNamespace, symmetrized: ModuleType
) -> tuple[symmetrized.SymChebSpec, dict]:
    """The polynomial that ``coeffs`` and ``positivity`` name, and its JSON fields."""
    spec = symmetrized.SymChebSpec(kind=args.kind, n=args.n, c=args.c, k=args.k)
    return spec, {"kind": args.kind.value, "n": args.n, "c": format_exact(args.c), "k": args.k}


def _exact_or_float(value: Fraction | float) -> str | float:
    return format_exact(value) if isinstance(value, Fraction) else value


# --- per-command handlers ----------------------------------------------------
# Each runs its checks and its kernel when called and returns its output as
# text pieces; a small output is one piece, and a term list or a table is
# formatted a run of terms or a row at a time, as ``run`` reads it.


def _cmd_coeffs(args: SimpleNamespace, symmetrized: ModuleType) -> Iterable[str]:
    spec, head = _spec_head(args, symmetrized)
    ((reps, row, scale),) = symmetrized._rows(spec.kind, spec.c, spec.k, [spec.n])
    _, _, q0, d = symmetrized._kernel_args(spec.kind, spec.c, spec.k)
    text = _ratio_text(scale, q0 * d)
    return _terms_text(args.format, head, "terms", "coeff", args.k, reps, row, text, '"')


def _cmd_table(args: SimpleNamespace, symmetrized: ModuleType) -> Iterable[str]:
    _, _, q0, q = symmetrized._kernel_args(args.kind, args.c, 1)
    texts = partial(_ratio_text, base=q0 * q)
    rows = symmetrized._univariate_rows(args.kind, args.c, args.n_max, texts)
    if args.format == "json":
        head = {"kind": args.kind.value, "c": format_exact(args.c), "n_max": args.n_max}
        quoted = '", "'.join
        items = (f'{{"n": {n}, "coeffs": ["{quoted(row)}"]}}' for n, row in enumerate(rows))
        return _json_list(head, "rows", items)
    lines = (
        "\n".join([f"{n},{idx - n},{text}" for idx, text in enumerate(row)])
        for n, row in enumerate(rows)
    )
    return _csv_lines("n,j,value", lines)


def _cmd_positivity(args: SimpleNamespace, symmetrized: ModuleType) -> Iterable[str]:
    spec, head = _spec_head(args, symmetrized)
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


def _cmd_sign_survey(args: SimpleNamespace, symmetrized: ModuleType) -> Iterable[str]:
    names = ("n", "e", "value")  # the witness fields, witness_n ... in CSV
    items, lines = [], []
    for row in symmetrized.sign_survey(args.kind, args.k, args.n_max, args.c):
        w = row.witness
        found = None if w is None else (w.n, list(w.exponents), format_exact(w.value))
        c, sign = format_exact(row.c), row.classification.value
        items.append({"c": c, "classification": sign, "witness": found and dict(zip(names, found))})
        lines.append(",".join(map(_cell, (c, sign, *(found or (None,) * 3)))))
    if args.format == "json":
        head = {"kind": args.kind.value, "k": args.k, "n_max": args.n_max}
        return [json.dumps({**head, "rows": items}) + "\n"]
    return _csv_lines(",".join(["c", "classification", *map("witness_{}".format, names)]), lines)


def _cmd_fgcount(args: SimpleNamespace, freegroup: ModuleType) -> Iterable[str]:
    reps, row = freegroup._formula_row(args.r, args.n)
    head = {"r": args.r, "n": args.n}
    return _terms_text(args.format, head, "counts", "count", args.r, reps, row, str)


def _cmd_fgverify(args: SimpleNamespace, freegroup: ModuleType) -> Iterable[str]:
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


def _clt_report(
    args: SimpleNamespace, cltstats: ModuleType
) -> tuple[cltstats.ConvergenceReport, str]:
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
    except UsageError:
        if args.mode != cltstats.MODE_FLOAT:
            raise
        try:
            c = float(args.c)
        except ValueError:
            raise UsageError(f"cannot parse c: {args.c!r}") from None
        c_text = repr(c)
    report = cltstats.convergence_report(
        c, args.k, args.n, mode=args.mode, exact_ceiling=args.exact_ceiling
    )
    return report, c_text


# the columns of a clt row, in ConvergenceRow field order; dist_reported is
# written dist_paper
_CLT_FIELDS = ("n", "m2_over_n", "kurtosis", "max_offdiag", "dist_paper", "dist_rederived")


def _cmd_clt(args: SimpleNamespace, cltstats: ModuleType) -> Iterable[str]:
    report, c_text = _clt_report(args, cltstats)
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


# --- options ----------------------------------------------------------------
# One table per command, option string: the keywords of argparse's
# add_argument.  ``_read`` reads a well-formed command line from the tables
# alone; ``_argparse_parser`` builds argparse from them for whatever
# ``_read`` declines, so help text and every error message are argparse's.

_FORMATS = ("json", "csv")
_KIND = {"type": _parse_kind, "required": True, "metavar": "T|U"}
_C = {"type": _parse_c, "required": True, "metavar": "p/q"}
_INT = {"type": int, "required": True}
_K = {"type": int, "default": 1}
_JSON = {"choices": _FORMATS, "default": "json"}
_OUT = {"metavar": "PATH", "help": "write output to PATH"}
_SPEC = {"--kind": _KIND, "--n": _INT, "--c": _C, "--k": _K, "--format": _JSON, "--out": _OUT}
_RANK = {"--r": _INT, "--n": _INT, "--format": _JSON, "--out": _OUT}

# command: (help, handler, options, the modules its handler runs), in the
# order of --help; ``run`` imports the modules in order before the options
# are read and calls handler(args, the last module)
_COMMANDS = {
    "coeffs": ("emit the term list of T_n(A) or U_n(A)", _cmd_coeffs, _SPEC, ("symmetrized",)),
    "table": ("univariate coefficient table rows 0..n_max", _cmd_table, {
        "--kind": _KIND, "--c": _C, "--n-max": _INT, "--format": _JSON, "--out": _OUT,
    }, ("symmetrized",)),
    "positivity": (
        "coefficient sign report for one polynomial", _cmd_positivity, _SPEC, ("symmetrized",)
    ),
    "sign-survey": ("classify sign behaviour over a grid of c", _cmd_sign_survey, {
        "--kind": _KIND, "--k": _K, "--n-max": _INT,
        "--c": {**_C, "action": "append", "help": "repeatable: one survey row per value"},
        "--format": _JSON, "--out": _OUT,
    }, ("symmetrized",)),
    "fgcount": (
        "cyclically reduced word counts by homology class", _cmd_fgcount, _RANK, ("freegroup",)
    ),
    "fgverify": (
        "diff the formula counts against brute force", _cmd_fgverify, _RANK, ("freegroup",)
    ),
    "clt": ("convergence report toward the Gaussian limit", _cmd_clt, {
        "--c": {"metavar": "p/q",
                "help": "rational parameter (decimal allowed in float mode only)"},
        "--k": {"type": int},
        "--fg-r": {"type": int,
                   "help": "use the rank-r word-count distributions instead of --c/--k"},
        "--n": {"type": _parse_n_list, "required": True, "metavar": "N1,N2,..."},
        # cltstats.MODE_EXACT and MODE_FLOAT, written out so that the table needs no cltstats
        "--mode": {"choices": ("exact", "float_normalized"), "default": "exact"},
        "--exact-ceiling": {"type": int},
        "--format": {"choices": _FORMATS, "default": "csv"},
        "--out": _OUT,
    }, ("freegroup", "symmetrized", "cltstats")),
}


# a value that argparse takes for a negative number, not an option: its own
# pattern, r"^-\d+$|^-\d*\.\d+$" in Python 3.11, plus -p/q
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that argparse makes of argv, read from ``_COMMANDS``;
    None, a decline, unless argv is a command and --option value pairs
    that argparse takes as they stand.  So it declines an option that is
    not named in full (an abbreviation, --opt=value, -h, --), a value that
    starts with "-" but is not a negative number of ``_NEGATIVE_NUMBER``,
    a missing value or required option, and a value that its type rejects
    or that is not one of its choices: argparse then parses argv and
    reports what it finds.  A repeated option keeps its last value, or
    with "append" all of them, as in argparse."""
    if len(argv) % 2 == 0 or argv[0] not in _COMMANDS:
        return None
    _, handler, options, _ = _COMMANDS[argv[0]]
    given = {}
    for option, text in zip(argv[1::2], argv[2::2]):
        keywords = options.get(option)
        if keywords is None or text.startswith("-") and not _NEGATIVE_NUMBER.match(text):
            return None
        try:
            value = keywords.get("type", str)(text)
        except Exception:  # whatever it is, argparse meets it again
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        if keywords.get("action") == "append":
            value = [*given.get(option, ()), value]
        given[option] = value
    args = SimpleNamespace(command=argv[0], handler=handler)
    for option, keywords in options.items():
        if option not in given and keywords.get("required"):
            return None
        # argparse's dest of a long option
        setattr(args, option[2:].replace("-", "_"), given.get(option, keywords.get("default")))
    return args


def build_parser() -> Callable[[list[str]], SimpleNamespace | None]:
    """The parser of a command line: ``_read``, which builds nothing; ``run``
    turns to ``_argparse_parser`` only where it declines."""
    return _read


def _argparse_parser():
    """argparse built from ``_COMMANDS``: it raises UsageError for a rejected
    command line, writes help through ``_write``, and takes a negative
    ``-p/q`` for a value, as it takes -2 and -1.5."""
    import argparse

    class Parser(argparse.ArgumentParser):  # subparsers inherit the class
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = _NEGATIVE_NUMBER

        def error(self, message: str):
            raise UsageError(message)

        def print_help(self, file=None):
            # to standard output through run's writer: argparse would swallow a failed write
            _write([self.format_help()], None)

    parser = Parser(
        prog="symcheb",
        description="Exact symmetrized Chebyshev Laurent polynomials: "
        "coefficients, sign structure, free-group word counts, and "
        "coefficient-distribution convergence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, handler, options, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for option, keywords in options.items():
            p.add_argument(option, **keywords)
        p.set_defaults(handler=handler)
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


def _modules(command: str) -> ModuleType:
    """Import the modules that the command's ``_COMMANDS`` entry names, in
    order, and return the last, the one its handler calls."""
    return [import_module(f"{__package__}.{name}") for name in _COMMANDS[command][3]][-1]


def run(argv: Sequence[str]) -> int:
    """Execute one command; returns 0, or the exit code of the error that stopped it."""
    argv = list(argv)
    # the command's modules, before its options are read; argparse too takes
    # the command only from argv[0], as its top level has no option but -h
    module = _modules(argv[0]) if argv and argv[0] in _COMMANDS else None
    read = build_parser()
    try:
        # a declined command line is parsed, or refused, by argparse
        args = read(argv) or _argparse_parser().parse_args(argv, SimpleNamespace())
        _write(args.handler(args, module), args.out)
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
