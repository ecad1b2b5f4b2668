"""Per-op correctness checks, each through a route independent of the one
the program used.

``check(argv, stdout)`` parses one op's output and raises ``CheckFailure``
when it disagrees with:

* the coefficient sum, against ``cheb_coeffs(kind, n).evaluate(c)`` (the
  value at x = (1, ..., 1)) or the scalar Chebyshev recurrence;
* mirror and permutation symmetry, and parity support (|e|_1 <= n,
  |e|_1 = n mod 2);
* single coefficients, against ``fullform_coeff`` (T at k = 1) or the
  explicit expansion sum_d a_d (c/2k)^d [x^e](sum_i x_i + 1/x_i)^d;
* ``total_count`` and sign-flip symmetry for word counts, and MATCH for
  the formula-vs-enumeration diff;
* the exact identity m2(n)/n = (c/k) U_{n-1}(c) / T_n(c) for ``clt`` rows
  (its integer rescaling 2 V_{n-1} / ((2r-1)^n + 1 + corr) for word
  counts), exactly for exact JSON rows and within ``FLOAT_REL_TOL``
  otherwise.

References are cached for the life of the process, which is one run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction
from functools import lru_cache

from symcheb import ChebKind, cheb_coeffs, fullform_coeff, total_count

# CSV prints 9 significant digits; float-mode rows carry ~1e-13 relative error.
FLOAT_REL_TOL = 1e-7
SPOT_CHECKS = 3

_KINDS = {"T": ChebKind.FIRST, "U": ChebKind.SECOND}


class CheckFailure(Exception):
    """An op's output disagrees with its independent check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _options(argv: list[str]) -> tuple[str, dict[str, list[str]]]:
    opts: dict[str, list[str]] = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        opts.setdefault(flag.lstrip("-"), []).append(value)
    return argv[0], opts


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _csv_rows(stdout: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(stdout)))


# --- references --------------------------------------------------------------


@lru_cache(maxsize=None)
def cheb_value(kind: ChebKind, n: int, c: Fraction) -> Fraction:
    return cheb_coeffs(kind, n).evaluate(c)


@lru_cache(maxsize=None)
def scaled_chebyshev(kind: ChebKind, p: int, q: int, n_max: int) -> tuple[int, ...]:
    """q^m P_m(p/q) for m = 0..n_max by the scalar recurrence, as integers."""
    values = [1, p if kind is ChebKind.FIRST else 2 * p]
    for _ in range(n_max - 1):
        values.append(2 * p * values[-1] - q * q * values[-2])
    return tuple(values[: n_max + 1])


def m2_over_n(c: Fraction, k: int, n: int) -> Fraction:
    """(c/k) U_{n-1}(c) / T_n(c) = p u_{n-1} / (k t_n) with u, t rescaled by q^m."""
    p, q = c.numerator, c.denominator
    t = scaled_chebyshev(ChebKind.FIRST, p, q, n)
    u = scaled_chebyshev(ChebKind.SECOND, p, q, n)
    return Fraction(p * u[n - 1], k * t[n])


@lru_cache(maxsize=None)
def _fg_scaled_u(r: int, n_max: int) -> tuple[int, ...]:
    """V_m = (2r-1)^(m/2) U_m(r / sqrt(2r-1)): V_{m+1} = 2r V_m - (2r-1) V_{m-1}."""
    values = [1, 2 * r]
    for _ in range(n_max - 1):
        values.append(2 * r * values[-1] - (2 * r - 1) * values[-2])
    return tuple(values[: n_max + 1])


def fg_m2_over_n(r: int, n: int) -> Fraction:
    total = (2 * r - 1) ** n + 1 + (r - 1) * (1 + (-1) ** n)
    return Fraction(2 * _fg_scaled_u(r, n)[n - 1], total)


@lru_cache(maxsize=None)
def _lattice_walks(d: int, e: tuple[int, ...]) -> int:
    """[x^e] (sum_i x_i + 1/x_i)^d, by splitting d steps over the coordinates."""
    if not e:
        return 1 if d == 0 else 0
    head, rest = abs(e[0]), e[1:]
    total = 0
    for d1 in range(head, d + 1, 2):
        total += (
            math.comb(d, d1) * math.comb(d1, (d1 + head) // 2) * _lattice_walks(d - d1, rest)
        )
    return total


@lru_cache(maxsize=None)
def explicit_coeff(kind: ChebKind, n: int, c: Fraction, e: tuple[int, ...]) -> Fraction:
    """[x^e] P_n(A) from P_n(y) = sum_d a_d y^d and the expansion of A^d."""
    k = len(e)
    base = Fraction(c, 2 * k)
    return sum(
        (a * base**d * _lattice_walks(d, e) for d, a in enumerate(cheb_coeffs(kind, n).coeffs)
         if a),
        Fraction(0),
    )


def sigma2_constants(c: float, k: int) -> tuple[float, float]:
    """(reported, rederived) limit constants, recomputed here from their formulas."""
    reported = (c / k) * (1.0 + math.sqrt((c + 1.0) / (c - 1.0)))
    return reported, c / (k * math.sqrt(c * c - 1.0))


# --- shared invariants -------------------------------------------------------


def _check_support(terms: dict[tuple[int, ...], object], n: int, what: str) -> None:
    for e, value in terms.items():
        size = sum(map(abs, e))
        _require(size <= n and (n - size) % 2 == 0, f"{what} at {list(e)} off the parity support")
        for i in range(len(e)):
            mirrored = e[:i] + (-e[i],) + e[i + 1 :]
            _require(terms.get(mirrored) == value, f"{what} not mirror-symmetric at {list(e)}")
        for i in range(len(e) - 1):
            swapped = e[:i] + (e[i + 1], e[i]) + e[i + 2 :]
            _require(terms.get(swapped) == value, f"{what} not permutation-symmetric at {list(e)}")


def _spot_exponents(argv: list[str], n: int, k: int) -> list[tuple[int, ...]]:
    """Seeded exponent vectors on the parity support, fixed per argv."""
    rng = random.Random(" ".join(argv))
    spots = []
    for _ in range(SPOT_CHECKS):
        steps = n - 2 * rng.randint(0, n // 2)  # |e|_1, same parity as n
        e = [0] * k
        for _ in range(steps):
            e[rng.randrange(k)] += rng.choice((1, -1))
        spots.append(tuple(e))
    return spots


def _spot_value(kind: ChebKind, n: int, c: Fraction, e: tuple[int, ...]) -> Fraction:
    if kind is ChebKind.FIRST and len(e) == 1 and n >= 1:
        return fullform_coeff(n, c, e[0])
    return explicit_coeff(kind, n, c, e)


def _max_bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0
    )


# --- per-command checks --------------------------------------------------------


def _check_coeffs(argv, opts, stdout) -> dict:
    kind, n, c, k = _KINDS[opts["kind"][0]], int(opts["n"][0]), _frac(opts["c"][0]), int(opts["k"][0])
    if opts["format"][0] == "json":
        payload = json.loads(stdout)
        terms = {tuple(t["e"]): _frac(t["coeff"]) for t in payload["terms"]}
    else:
        terms = {
            tuple(int(row[f"e{i + 1}"]) for i in range(k)): _frac(row["coeff"])
            for row in _csv_rows(stdout)
        }
    _require(all(terms.values()), "a stored coefficient is zero")
    _require(sum(terms.values()) == cheb_value(kind, n, c), "coefficient sum != P_n(c)")
    _check_support(terms, n, "coefficient")
    for e in _spot_exponents(argv, n, k):
        _require(terms.get(e, 0) == _spot_value(kind, n, c, e), f"coefficient at {list(e)} is wrong")
    return {"max_coeff_bits": _max_bits(terms.values())}


def _check_table(argv, opts, stdout) -> dict:
    kind, c, n_max = _KINDS[opts["kind"][0]], _frac(opts["c"][0]), int(opts["n-max"][0])
    if opts["format"][0] == "json":
        rows = [[_frac(v) for v in row["coeffs"]] for row in json.loads(stdout)["rows"]]
    else:
        rows = [[] for _ in range(n_max + 1)]
        for row in _csv_rows(stdout):
            rows[int(row["n"])].append(_frac(row["value"]))
    _require(len(rows) == n_max + 1, "wrong number of rows")
    sums = scaled_chebyshev(kind, c.numerator, c.denominator, n_max)
    for n, row in enumerate(rows):
        _require(len(row) == 2 * n + 1, f"row {n} has the wrong length")
        _require(sum(row) * c.denominator**n == sums[n], f"row {n} sum != P_n(c)")
        terms = {(j - n,): v for j, v in enumerate(row) if v}
        _require(len(terms) == n + 1, f"row {n} is not nonzero exactly on the parity support")
        _check_support(terms, n, f"row {n} entry")
    _require(sum(rows[-1]) == cheb_value(kind, n_max, c), "last row sum != cheb_coeffs value")
    for (j,) in _spot_exponents(argv, n_max, 1):
        _require(rows[-1][j + n_max] == _spot_value(kind, n_max, c, (j,)), f"entry {j} is wrong")
    return {"max_coeff_bits": _max_bits(v for row in rows for v in row)}


def _check_positivity(argv, opts, stdout) -> dict:
    kind, n, c, k = _KINDS[opts["kind"][0]], int(opts["n"][0]), _frac(opts["c"][0]), int(opts["k"][0])
    if opts["format"][0] == "json":
        payload = json.loads(stdout)
        nonneg, pattern = payload["all_nonnegative"], payload["pattern_ok"]
        minimum, witness = _frac(payload["min_coefficient"]), payload["witness"]
    else:
        (row,) = _csv_rows(stdout)
        nonneg = row["all_nonnegative"] == "true"
        pattern = None if row["pattern_ok"] == "" else row["pattern_ok"] == "true"
        minimum = _frac(row["min_coefficient"])
        witness = [int(x) for x in row["witness"].split(";")] if row["witness"] else None
    _require(nonneg == (witness is None) == (minimum >= 0), "inconsistent positivity report")
    if c >= k:
        _require(nonneg, f"c = {c} >= k but a negative coefficient was reported")
    if k == 1:
        _require(isinstance(pattern, bool) and (pattern or c <= 1), "bad pattern_ok")
    else:
        _require(pattern is None, "pattern_ok must be empty for k > 1")
    if witness is not None:
        value = explicit_coeff(kind, n, c, tuple(witness))
        _require(value < 0 and minimum <= value, f"witness {witness} is not negative")
    for e in _spot_exponents(argv, n, k):
        value = explicit_coeff(kind, n, c, e)
        _require(not value or minimum <= value, f"min_coefficient exceeds the coefficient at {e}")
    return {}


def _check_sign_survey(argv, opts, stdout) -> dict:
    kind, k, n_max = _KINDS[opts["kind"][0]], int(opts["k"][0]), int(opts["n-max"][0])
    rows = json.loads(stdout)["rows"]
    grid = [_frac(text) for text in opts["c"]]
    _require([_frac(row["c"]) for row in rows] == grid, "survey rows do not follow the c grid")
    for c, row in zip(grid, rows):
        witness = row["witness"]
        if c >= k:
            _require(row["classification"] == "ALL_NONNEG", f"c = {c} >= k is not ALL_NONNEG")
        _require(row["classification"] != "ALTERNATING", f"c = {c} > 0 cannot alternate")
        _require((witness is None) == (row["classification"] == "ALL_NONNEG"),
                 f"witness presence disagrees with the class at c = {c}")
        if witness is not None:
            value = _frac(witness["value"])
            _require(witness["n"] <= n_max and value < 0, f"witness at c = {c} is not negative")
            _require(explicit_coeff(kind, witness["n"], c, tuple(witness["e"])) == value,
                     f"witness value at c = {c} is wrong")
    return {}


def _check_fgcount(argv, opts, stdout) -> dict:
    r, n = int(opts["r"][0]), int(opts["n"][0])
    if opts["format"][0] == "json":
        counts = {tuple(item["e"]): item["count"] for item in json.loads(stdout)["counts"]}
    else:
        counts = {
            tuple(int(row[f"e{i + 1}"]) for i in range(r)): int(row["count"])
            for row in _csv_rows(stdout)
        }
    _require(all(v > 0 for v in counts.values()), "a stored count is not positive")
    _require(sum(counts.values()) == total_count(r, n), "count total != total_count")
    _check_support(counts, n, "count")
    return {}


def _check_fgverify(argv, opts, stdout) -> dict:
    r, n = int(opts["r"][0]), int(opts["n"][0])
    if opts["format"][0] == "json":
        payload = json.loads(stdout)
        status, totals = payload["status"], (payload["total_formula"], payload["total_oracle"])
        mismatches = len(payload["mismatches"])
    else:
        (row,) = _csv_rows(stdout)
        status, totals = row["status"], (int(row["total_formula"]), int(row["total_oracle"]))
        mismatches = int(row["mismatch_classes"])
    _require(status == "MATCH" and mismatches == 0, "formula and enumeration disagree")
    _require(totals == (total_count(r, n),) * 2, "totals != total_count")
    return {}


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= FLOAT_REL_TOL * max(scale, 1.0)


def _check_clt(argv, opts, stdout) -> dict:
    ns = [int(x) for x in opts["n"][0].split(",")]
    exact_json = opts["mode"][0] == "exact" and opts["format"][0] == "json"
    if "fg-r" in opts:
        r = int(opts["fg-r"][0])
        expect = [fg_m2_over_n(r, n) for n in ns]
        reported = sigma2_constants(r / math.sqrt(2 * r - 1), r)[0]
        rederived = 1.0 / (r - 1)  # c / (k sqrt(c^2 - 1)) at c = r / sqrt(2r - 1), k = r
    else:
        c, k = Fraction(opts["c"][0]), int(opts["k"][0])
        expect = [m2_over_n(c, k, n) for n in ns]
        reported, rederived = sigma2_constants(float(c), k)
    if opts["format"][0] == "json":
        rows = json.loads(stdout)["rows"]
    else:
        rows = _csv_rows(stdout)
    _require([int(row["n"]) for row in rows] == ns, "clt rows do not follow the n list")
    for want, row in zip(expect, rows):
        n = int(row["n"])
        if exact_json:
            got = _frac(row["m2_over_n"])
            _require(got == want, f"m2/n at n = {n} breaks the U/T identity")
            _require(_frac(row["max_offdiag"]) == 0, f"nonzero off-diagonal at n = {n}")
            _require(_frac(row["kurtosis"]) >= 1, f"kurtosis below 1 at n = {n}")
        else:
            got = float(row["m2_over_n"])
            _require(_close(got, float(want), float(want)), f"m2/n at n = {n} off the identity")
            _require(float(row["max_offdiag"]) == 0.0, f"nonzero off-diagonal at n = {n}")
            _require(float(row["kurtosis"]) >= 1.0, f"kurtosis below 1 at n = {n}")
        _require(_close(float(row["dist_paper"]), abs(got - reported), reported),
                 f"dist_paper at n = {n} is wrong")
        _require(_close(float(row["dist_rederived"]), abs(got - rederived), rederived),
                 f"dist_rederived at n = {n} is wrong")
    return {}


_CHECKS = {
    "coeffs": _check_coeffs,
    "table": _check_table,
    "positivity": _check_positivity,
    "sign-survey": _check_sign_survey,
    "fgcount": _check_fgcount,
    "fgverify": _check_fgverify,
    "clt": _check_clt,
}


def check(argv: list[str], stdout: str) -> dict:
    """Check one op's output; returns untimed facts about it (coefficient bits)."""
    command, opts = _options(argv)
    try:
        return _CHECKS[command](argv, opts, stdout)
    except CheckFailure:
        raise
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        raise CheckFailure(f"unparseable output: {type(exc).__name__}: {exc}") from exc
