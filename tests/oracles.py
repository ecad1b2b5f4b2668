"""Independent routes that the package's kernel, certificates and command
line are checked against.  They are deliberately separate code, not used by
``symcheb``."""

import json
import math

from symcheb import SymChebSpec, build, counts_by_formula, univariate_table
from symcheb.laurent import format_exact


def scaled_rows(a, g, q0, k, n_max):
    """Oracle: Q_0..Q_{n_max} of Q_0 = q0, Q_1 = a S, Q_{m+1} = a S Q_m - g
    Q_{m-1}, S = sum_i (x_i + 1/x_i), over the ints on the full lattice.

    A row maps each exponent vector, packed into one int (Kronecker
    substitution: digits e_i + n_max in radix 2 n_max + 1, e_1 most
    significant, so key order is lexicographic order), to its coefficient;
    coefficients that cancel may stay as zeros.
    """
    radix = 2 * n_max + 1
    shifts = [radix**i for i in range(k)]
    origin = n_max * sum(shifts)
    prev = {origin: q0}
    cur = {origin + sign * shift: a for shift in shifts for sign in (1, -1)}
    yield prev
    if n_max:
        yield cur
    for _ in range(n_max - 1):
        nxt = {}
        get = nxt.get
        for key, coeff in cur.items():
            coeff *= a
            for shift in shifts:
                up, down = key + shift, key - shift
                nxt[up] = get(up, 0) + coeff
                nxt[down] = get(down, 0) + coeff
        for key, coeff in prev.items():
            nxt[key] = get(key, 0) - g * coeff
        prev, cur = cur, nxt
        yield cur


def unpack_exponents(key, k, n_max):
    """The exponent vector of a key of ``scaled_rows(..., k, n_max)``."""
    radix = 2 * n_max + 1
    return tuple(key // radix**i % radix - n_max for i in range(k - 1, -1, -1))


def lattice_rows(a, g, q0, k, n_max):
    """``scaled_rows`` with each row as {exponents: coefficient}, in
    lexicographic order."""
    for row in scaled_rows(a, g, q0, k, n_max):
        yield {unpack_exponents(key, k, n_max): row[key] for key in sorted(row)}


def walk_counts(k, h):
    """Oracle: w_k(2i) for i = 0..h, the closed walks of length 2i on Z^k:
    C(2i, i) B_i, where B_i, the sum of the squared multinomials of i into k
    parts, follows Miller's power recurrence
    B_i = (1/i) sum_j ((k+1) j - i) C(i, j)^2 B_(i-j)."""
    b, binom = [1], [1]
    for i in range(1, h + 1):
        binom = [1, *map(int.__add__, binom, binom[1:]), 1]  # row i of Pascal's triangle
        b.append(sum(((k + 1) * j - i) * binom[j] ** 2 * b[i - j] for j in range(1, i + 1)) // i)
    return [math.comb(2 * i, i) * b_i for i, b_i in enumerate(b)]


def constant_term(p, g, n, walks):
    """Oracle: the constant term of the kernel row Q_n = 2 (kq)^n T_n(A) at
    even n,

        sum_m n/(n-m) C(n-m, m) (-g)^m p^(n-2m) w_k(n-2m),  g = (kq)^2,

    summed in Horner form in -g from the m = n/2 term, 2 (-g)^(n/2)."""
    h = n // 2
    acc, p_pow, p2 = 2, 1, p * p
    for i in range(1, h + 1):
        m = h - i
        p_pow *= p2
        acc = -g * acc + n * math.comb(n - m, m) // (n - m) * walks[i] * p_pow
    return acc


def _terms_text(fmt, head, key, name, k, terms):
    """A list of (exponents, value) terms: in JSON, one dict per term under
    ``key`` after the ``head`` fields; in CSV, columns e1..ek and ``name``."""
    if fmt == "json":
        return json.dumps({**head, key: [{"e": list(e), name: value} for e, value in terms]}) + "\n"
    header = ",".join([*(f"e{i + 1}" for i in range(k)), name])
    return "\n".join([header, *(",".join([*map(str, e), str(value)]) for e, value in terms)]) + "\n"


def coeffs_text(kind, n, c, k, fmt):
    """Oracle: ``symcheb coeffs`` output through ``LaurentPoly``: one
    Fraction, one ``format_exact`` and, in JSON, one dict per term."""
    head = {"kind": kind.value, "n": n, "c": format_exact(c), "k": k}
    terms = [(e, format_exact(coeff)) for e, coeff in build(SymChebSpec(kind, n, c, k)).terms()]
    return _terms_text(fmt, head, "terms", "coeff", k, terms)


def table_text(kind, c, n_max, fmt):
    """Oracle: ``symcheb table`` output from ``univariate_table``, one
    ``format_exact`` per entry."""
    table = univariate_table(kind, c, n_max)
    if fmt == "json":
        rows = [{"n": n, "coeffs": [format_exact(v) for v in row]} for n, row in enumerate(table.rows)]
        payload = {"kind": kind.value, "c": format_exact(c), "n_max": n_max, "rows": rows}
        return json.dumps(payload) + "\n"
    lines = [
        f"{n},{idx - n},{format_exact(value)}"
        for n, row in enumerate(table.rows)
        for idx, value in enumerate(row)
    ]
    return "\n".join(["n,j,value", *lines]) + "\n"


def fgcount_text(r, n, fmt):
    """Oracle: ``symcheb fgcount`` output from ``counts_by_formula``."""
    table = counts_by_formula(r, n)
    return _terms_text(fmt, {"r": r, "n": n}, "counts", "count", r, table.sorted_items())
