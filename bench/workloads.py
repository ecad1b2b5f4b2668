"""Seeded op generators for the benchmark workloads.

A workload is a cycle of op slots.  Each slot fixes the command and the
size of one op (degree, table height, largest moment index); the seed
draws everything else: the rational parameter c, the kind, the output
format, and a jitter of a few percent on every size.  A run is a whole
number of cycles in seeded order, so two seeds give different inputs with
nearly the same cost profile, and parent and change see the same argv
list for the same seed and run length.

Sizes are set so that one op costs about 0.05-0.5 s: each op is timed
several times in a run (see run.py), and a run must hold enough distinct
ops for a tail percentile.  The formats of the ops with the largest outputs
are fixed, so that the peak RSS does not depend on the seed.

Ops are chosen so that none fails on the current program and none changes
meaning under a planned correctness fix: float ``clt`` at k > 1 always has
c >= k, and every ``clt`` passes ``--exact-ceiling`` explicitly, so raising
the default ceilings leaves the op stream unchanged.
"""

from __future__ import annotations

import random
from fractions import Fraction

JITTER = 0.02


def _size(rng: random.Random, base: int, scale: float, least: int = 2) -> int:
    n = max(least, round(base * scale))
    spread = int(n * JITTER)
    return n + rng.randint(-spread, spread) if spread else n


def _n_list(rng: random.Random, top: int, scale: float, parts: int = 4) -> list[int]:
    """A strictly increasing list ending at a jittered top, halving downward."""
    top = _size(rng, top, scale, least=parts)
    return sorted({max(1, top >> i) for i in range(parts)})


def _text(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def _near_one(rng: random.Random) -> Fraction:
    """c = (q+1)/q with a two-digit-sized denominator: the "11/10" family."""
    q = rng.randint(9, 13)
    return Fraction(q + 1, q)


def _below_threshold(rng: random.Random) -> Fraction:
    """c just above 1, where k > 1 polynomials can carry negative coefficients."""
    q = rng.randint(8, 12)
    return Fraction(rng.randint(q + 1, q + q // 4), q)


def _certified(rng: random.Random, k: int) -> Fraction:
    """c in [k, k + 1]: every coefficient is nonnegative there."""
    q = rng.randint(2, 4)
    return Fraction(rng.randint(k * q, (k + 1) * q), q)


def _survey_grid(rng: random.Random, k: int, size: int = 3) -> list[Fraction]:
    """Distinct c in (1, k], drawn on both sides of the nonnegativity threshold."""
    grid = {_below_threshold(rng)}
    while len(grid) < size:
        q = rng.randint(2, 6)
        grid.add(Fraction(rng.randint(q + 1, k * q), q))
    return sorted(grid)


def _decimal(rng: random.Random, low: int, high: int) -> str:
    """A decimal c in [low, high] with an eighths grid, so float(c) is exact."""
    eighths = rng.randint(8 * low + 1, 8 * high)
    return repr(eighths / 8)


def _kind(rng: random.Random) -> str:
    return rng.choice("TU")


def _fmt(rng: random.Random) -> str:
    return rng.choice(("json", "csv"))


def _coeffs(kind: str, n: int, c: Fraction, k: int, fmt: str) -> list[str]:
    return ["coeffs", "--kind", kind, "--n", str(n), "--c", _text(c), "--k", str(k),
            "--format", fmt]


def _positivity(kind: str, n: int, c: Fraction, k: int, fmt: str) -> list[str]:
    return ["positivity", "--kind", kind, "--n", str(n), "--c", _text(c), "--k", str(k),
            "--format", fmt]


def _survey(kind: str, k: int, n_max: int, grid: list[Fraction], fmt: str) -> list[str]:
    argv = ["sign-survey", "--kind", kind, "--k", str(k), "--n-max", str(n_max)]
    for c in grid:
        argv += ["--c", _text(c)]
    return argv + ["--format", fmt]


def _clt(ns: list[int], mode: str, fmt: str, *, c: str | None = None,
         k: int | None = None, fg_r: int | None = None,
         ceiling: int | None = None) -> list[str]:
    """A ``clt`` op; the exact ceiling defaults to the largest n requested."""
    argv = ["clt"]
    if fg_r is not None:
        argv += ["--fg-r", str(fg_r)]
    else:
        argv += ["--c", c, "--k", str(k)]
    return argv + ["--n", ",".join(map(str, ns)), "--mode", mode,
                   "--exact-ceiling", str(ceiling or ns[-1]), "--format", fmt]


def lattice_exact(rng: random.Random, scale: float) -> list[list[str]]:
    """Multivariate exact builds: many terms, small coefficients."""

    def s(base: int, least: int = 2) -> int:
        return _size(rng, base, scale, least)

    def either(k: int) -> Fraction:
        return rng.choice((_below_threshold(rng), _certified(rng, k)))

    verify_r = rng.choice((2, 3))
    return [
        _coeffs(_kind(rng), s(19), either(2), 2, "json"),
        _coeffs(_kind(rng), s(24), either(2), 2, "csv"),
        _coeffs(_kind(rng), s(10), either(3), 3, "json"),
        _coeffs(_kind(rng), s(12), either(3), 3, "json"),
        _positivity(_kind(rng), s(16), _below_threshold(rng), 2, _fmt(rng)),
        _positivity(_kind(rng), s(26), _certified(rng, 2), 2, _fmt(rng)),
        _positivity(_kind(rng), s(8), _below_threshold(rng), 3, _fmt(rng)),
        _positivity(_kind(rng), s(13), _certified(rng, 3), 3, _fmt(rng)),
        _survey(_kind(rng), 2, s(13), _survey_grid(rng, 2), "json"),
        _survey(_kind(rng), 3, s(9), _survey_grid(rng, 3), "json"),
        ["fgcount", "--r", "3", "--n", str(s(17, 1)), "--format", _fmt(rng)],
        ["fgcount", "--r", "4", "--n", str(s(10, 1)), "--format", "json"],
        ["fgverify", "--r", str(verify_r), "--n", str(s(9 if verify_r == 2 else 6, 1)),
         "--format", _fmt(rng)],
    ]


def deep_exact(rng: random.Random, scale: float) -> list[list[str]]:
    """Univariate exact work: high degree, huge rationals, large outputs."""

    def s(base: int) -> int:
        return _size(rng, base, scale)

    half = Fraction(rng.choice((3, 5, 7)), 2)
    return [
        _coeffs("T", s(100), _near_one(rng), 1, "json"),
        _coeffs("U", s(140), _near_one(rng), 1, "csv"),
        _coeffs(_kind(rng), s(175), _near_one(rng), 1, _fmt(rng)),
        ["table", "--kind", _kind(rng), "--c", _text(_near_one(rng)),
         "--n-max", str(s(75)), "--format", "csv"],
        ["table", "--kind", _kind(rng), "--c", _text(_near_one(rng)),
         "--n-max", str(s(120)), "--format", "json"],
        _clt(_n_list(rng, 224, scale), "exact", "json", c=_text(half), k=1),
        _clt(_n_list(rng, 112, scale, 3), "exact", "csv", c=_text(_near_one(rng)), k=1),
        _clt(_n_list(rng, 576, scale), "exact", "json", fg_r=2),
        _clt(_n_list(rng, 448, scale), "exact", "csv", fg_r=3),
        _clt([8, 16, 24] if scale >= 1 else [2, 4], "exact", "json",
             c=_text(_certified(rng, 2)), k=2, ceiling=32),
    ]


def float_limits(rng: random.Random, scale: float) -> list[list[str]]:
    """Float-normalised limits: the O(n^2) float rows, tiny outputs."""
    out = []
    for top in (448, 896, 1152):
        out.append(_clt(_n_list(rng, top, scale), "float_normalized", _fmt(rng),
                        c=_decimal(rng, 1, 3), k=1, ceiling=128))
    for top in (640, 1152):
        out.append(_clt(_n_list(rng, top, scale), "float_normalized", _fmt(rng),
                        c=_decimal(rng, 2, 3), k=2, ceiling=32))
    for r, top in ((2, 640), (3, 896), (4, 1152)):
        out.append(_clt(_n_list(rng, top, scale), "float_normalized", _fmt(rng),
                        fg_r=r, ceiling=1024))
    return out


WORKLOADS = {
    "lattice_exact": lattice_exact,
    "deep_exact": deep_exact,
    "float_limits": float_limits,
}

# Untraced seconds for one execution of every slot of a cycle on the
# reference machine (2 cores, Python 3.11); sets how many cycles fill a run.
CYCLE_SECONDS = {
    "lattice_exact": 3.0,
    "deep_exact": 3.4,
    "float_limits": 3.4,
}

MIN_CYCLES = 2


def cycles_for(workload: str, seconds: float, repeats: int) -> int:
    return max(MIN_CYCLES, round(seconds / (repeats * CYCLE_SECONDS[workload])))


def generate(workload: str, seed: int, cycles: int, scale: float = 1.0) -> list[list[str]]:
    """The op stream of one run: ``cycles`` whole cycles in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = [argv for _ in range(cycles) for argv in WORKLOADS[workload](rng, scale)]
    rng.shuffle(ops)
    return ops
