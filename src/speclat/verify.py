"""Built-in verification suite for the two worked examples.

Each criterion is a function of one example's SpectralContext returning
(passed, detail); the registry names each criterion once and maps it to
the example it exercises, so ``run_suite`` runs one example's suite on one
context into the CLI's ``verify`` payload, and the acceptance tests run
everything.  The criteria read only that context, which builds the
lattice, W and each b_N once, as its factors g_{d,j} (``factored_value``,
``level_multiplicity``) and, for c08's ``_packed_divides``, its packed
product.  c12 averages log|6 - W| with the Mahler routes' ``_log_mean``, and
the walk/trace bridge builds its own small matrix of multiplication by W.
Expected values are frozen here: the printed value table, the factored
level-6 polynomial, the finite-field count row, and the closed forms of
the line example.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .analysis import _log_mean, hilbert_transform, mahler_measure, spectrum
from .arith import valuation_inequality_check, vp
from .catalog import builtin_point_set
from .context import SpectralContext
from .errors import IntegralityViolation
from .graph import build_graph, walk_totals
from .laurent import fold_mod_N
from .moments import (
    check_congruence,
    moment_sequence_N,
    newton_sums,
    product_exponents,
    series_coefficients,
)
from .specpoly import _packed_divides, factored_value, level_multiplicity

CHEB_VALUES_AT_6 = [
    2, 12, 50, 192, 722, 2700, 10082, 37632, 140450, 524172, 1956242,
    7300800, 27246962, 101687052, 379501250, 1416317952, 5285770562,
]
HONEYCOMB_LEVEL6_ROOTS = [0] * 2 + [1] * 15 + [3] * 6 + [4] * 6 + [7] * 6 + [9]
F7_COUNT_ROW = [8, 15, 1, 6, 6, 0, 0]
# sum over (offset, q) of q(k) m_{k + offset} = 0, q by ascending coefficients in k
HONEYCOMB_RECURRENCE = (
    (-1, (0, 0, 9)),
    (0, (-3, -10, -10)),
    (1, (1, 2, 1)),
)


# -- criteria -------------------------------------------------------------------


def _value(ctx: SpectralContext, N: int, z: int) -> int:
    return int(factored_value(ctx.spectral_factors(N), z))


def check_honeycomb_level6(ctx: SpectralContext) -> tuple[bool, str]:
    # b_6 is monic of degree 36: 36 integer roots, counted, fix every coefficient
    b, roots = ctx.spectral_factors(6), HONEYCOMB_LEVEL6_ROOTS
    ok = b.degree == 36 and all(level_multiplicity(b, r) == roots.count(r) for r in set(roots))
    return ok, "coefficient-exact, degree 36"


def check_cheb_value_table(ctx: SpectralContext) -> tuple[bool, str]:
    got = [_value(ctx, N, 6) for N in range(1, 18)]
    return got == CHEB_VALUES_AT_6, f"levels 1..17, first/last {got[0]}/{got[-1]}"


def check_cheb_shifted_recurrence(ctx: SpectralContext) -> tuple[bool, str]:
    s = [None] + [_value(ctx, N, 6) + 2 for N in range(1, 41)]
    ok = all(s[N + 1] == 4 * s[N] - s[N - 1] for N in range(2, 40))
    return ok, "s(N+1) = 4 s(N) - s(N-1), N <= 40"


def _check_generating_series(ctx: SpectralContext, z: int, K: int) -> tuple[bool, str]:
    # b_N(z) / N, N <= K, are the coefficients of -log(1 - (z - 4) T / (1 - T)^2)
    # = -log(1 - (z - 2) T + T^2) + 2 log(1 - T): b_N(z) is the N-th Newton sum of
    # x^2 + (2 - z) x + 1 less twice that of x - 1
    quadratic = newton_sums((1, 2 - z, 1), K)
    linear = newton_sums((-1, 1), K)
    ok = all(_value(ctx, N, z) == a - 2 * b for N, a, b in zip(range(1, K + 1), quadratic, linear))
    return ok, f"orders 1..{K} over exact rationals"


def check_honeycomb_moments(ctx: SpectralContext) -> tuple[bool, str]:
    seq = ctx.moment_sequence(41)
    formula_ok = all(
        seq[k] == sum(math.comb(k, j) ** 2 * math.comb(2 * j, j) for j in range(k + 1))
        for k in range(42)
    )
    rec_ok = not any(
        sum(seq[k + off] * sum(c * k**i for i, c in enumerate(q)) for off, q in HONEYCOMB_RECURRENCE)
        for k in range(1, 41)
    )
    return formula_ok and rec_ok, "binomial formula and three-term recurrence, k <= 40"


def check_honeycomb_moment_stability(ctx: SpectralContext) -> tuple[bool, str]:
    exact = ctx.moment_sequence(8)
    ok = True
    for N in range(1, 9):
        level = moment_sequence_N(ctx.w, 8, N)
        for k in range(9):
            ok = ok and level[k] >= exact[k] >= 0
            if N > k:
                ok = ok and level[k] == exact[k]
    return ok, "k <= 8, N <= 8"


def _check_congruences(ctx: SpectralContext) -> tuple[bool, str]:
    ok = all(
        check_congruence(ctx.w, p, k, alpha)
        for p in (2, 3, 5)
        for k in range(5)
        for alpha in (0, 1)
    )
    return ok, "p in {2,3,5}, k <= 4, alpha <= 1"


def _check_divisibility(ctx: SpectralContext) -> tuple[bool, str]:
    b = ctx.spectral_factors  # each level built once, by the context
    ok = all(_packed_divides(b(Np), b(N)) and not _packed_divides(b(N), b(Np))
             for N in range(1, 9) for Np in range(1, N) if N % Np == 0)
    return ok, "all divisor pairs N' | N <= 8"


def _check_walk_bridge(ctx: SpectralContext, nmax: int, kmax: int) -> tuple[bool, str]:
    n = ctx.dimension
    ok = True
    for N in range(1, nmax + 1):
        G = build_graph(ctx.ps, ctx.basis, N)
        # multiplication by W on the residues mod N: row i has c_e at column i + e
        size, residues = N**n, np.indices((N,) * n).reshape(n, -1)
        M = np.zeros((size, size), dtype=object)
        for e, c in fold_mod_N(ctx.w, N).terms.items():
            columns = np.ravel_multi_index((residues + np.array(e)[:, None]) % N, (N,) * n)
            M[np.arange(size), columns] += c
        level = moment_sequence_N(ctx.w, kmax, N)
        acc = M
        for k, walks in enumerate(walk_totals(G, kmax), 1):
            ok = ok and walks == acc.trace() == size * level[k]
            acc = acc.dot(M)
    return ok, f"walks = traces = level moments, N <= {nmax}, k <= {kmax}"


def check_honeycomb_padic(ctx: SpectralContext) -> tuple[bool, str]:
    *residues, (lhs, rhs, holds) = valuation_inequality_check(ctx, [*range(7), 53], 7, 1)
    row = [count for _, count, _ in residues]
    ok = row == F7_COUNT_ROW and all(h for *_, h in residues) and (lhs, rhs, holds) == (12, 6, True)
    return ok, f"count row {row}, valuation at 53 = {lhs} > {rhs}"


def check_cheb_padic_pattern(ctx: SpectralContext) -> tuple[bool, str]:
    def val(N, p):
        return vp(_value(ctx, N, 6), p)

    ok = all(
        v == 1 if p in (2, 3) else v >= 2 if p % 12 in (1, 11) else v == 0
        for p in (2, 3, 5, 7, 11, 13, 17)
        for v in [val(p - 1, p)]
    )
    ok = ok and val(24, 5) >= 2 and val(48, 7) >= 2
    return ok, "square divisibility iff p = +-1 mod 12, p <= 17"


def check_cheb_mahler_limit(ctx: SpectralContext) -> tuple[bool, str]:
    target = 2 - math.sqrt(3)
    errors = [abs(math.exp(-_log_mean(ctx.w, N, 6)) - target) for N in range(20, 41)]
    worst = max(errors)
    return all(e < 1e-3 for e in errors), f"|est - (2 - sqrt 3)| <= {worst:.2e} for N in 20..40"


def check_honeycomb_mahler_routes(ctx: SpectralContext) -> tuple[bool, str]:
    limit = mahler_measure(ctx, 10, method="limit", tol=1e-5)
    series = mahler_measure(ctx, 10, method="moment-series", tol=1e-4)
    delta = abs(limit.value - series.value)
    return delta < 1e-4, f"route delta {delta:.2e} at z = 10"


def check_cheb_hilbert(ctx: SpectralContext) -> tuple[bool, str]:
    h = hilbert_transform(ctx, 6, tol=1e-10)
    err = abs(h - 1 / math.sqrt(12))
    return err < 1e-8, f"|H(6) - 12^-1/2| = {err:.2e}"


def _check_series_integrality(ctx: SpectralContext) -> tuple[bool, str]:
    seq = ctx.moment_sequence(31)
    try:
        A = series_coefficients(seq)
        b = product_exponents(seq)
    except IntegralityViolation as exc:  # a failure; any other error escapes
        return False, repr(exc)
    ok = len(A) >= 30 and len(b) >= 30 and A[0] == b[0] == seq[1]
    return ok, "A_k, b_k integral, k <= 30"


def check_honeycomb_multiplicities(ctx: SpectralContext) -> tuple[bool, str]:
    ok = True
    for N in range(1, 9):
        hist = spectrum(ctx, N)
        if hist.ambiguous:
            return False, f"ambiguous clustering at N={N}"
        b = ctx.spectral_factors(N)
        for value, mult in hist.clusters:
            level = round(value)
            if abs(value - level) < hist.tolerance:
                # integer levels must match the exact root multiplicity
                ok = ok and level_multiplicity(b, level) == mult
            if abs(value - 9) < 1e-9:
                ok = ok and mult == 1
            elif abs(value) < 1e-9:
                ok = ok and N % 3 == 0 and mult == 2
            elif abs(value - 1) < 1e-9 and N % 2 == 0:
                ok = ok and mult % 6 == 3
            else:
                ok = ok and mult % 6 == 0
        # the special levels must actually occur
        ok = ok and hist.multiplicity_near(9.0) == 1
        if N % 3 == 0:
            ok = ok and hist.multiplicity_near(0.0) == 2
        if N % 2 == 0:
            ok = ok and hist.multiplicity_near(1.0) % 6 == 3
    return ok, "symmetry pattern, N <= 8"


def check_honeycomb_cross_validation(ctx: SpectralContext) -> tuple[bool, str]:
    hist = spectrum(ctx, 6)
    b = ctx.spectral_factors(6)
    ok = len(hist.clusters) == 6
    for value, mult in hist.clusters:
        level = round(value)
        ok = ok and abs(value - level) < 1e-9
        ok = ok and level_multiplicity(b, level) == mult
    return ok, "float clusters = exact multiplicities at N=6"


# (criterion id, example it exercises, check function of that example's context)
CRITERIA: list[tuple[str, str, Callable[[SpectralContext], tuple[bool, str]]]] = [
    ("c01-honeycomb-level6-polynomial", "honeycomb", check_honeycomb_level6),
    ("c02-cheb-values-at-6", "chebyshev", check_cheb_value_table),
    ("c03-cheb-shifted-recurrence", "chebyshev", check_cheb_shifted_recurrence),
    ("c04-cheb-generating-series", "chebyshev", lambda ctx: _check_generating_series(ctx, 6, 17)),
    ("c05-honeycomb-moments", "honeycomb", check_honeycomb_moments),
    ("c06-honeycomb-moment-stability", "honeycomb", check_honeycomb_moment_stability),
    ("c07-congruences-chebyshev", "chebyshev", _check_congruences),
    ("c07-congruences-honeycomb", "honeycomb", _check_congruences),
    ("c08-divisibility-chebyshev", "chebyshev", _check_divisibility),
    ("c08-divisibility-honeycomb", "honeycomb", _check_divisibility),
    ("c09-walk-bridge-chebyshev", "chebyshev", lambda ctx: _check_walk_bridge(ctx, 4, 6)),
    ("c09-walk-bridge-honeycomb", "honeycomb", lambda ctx: _check_walk_bridge(ctx, 3, 5)),
    ("c10-honeycomb-padic", "honeycomb", check_honeycomb_padic),
    ("c11-cheb-padic-pattern", "chebyshev", check_cheb_padic_pattern),
    ("c12-cheb-mahler-limit", "chebyshev", check_cheb_mahler_limit),
    ("c12-honeycomb-mahler-routes", "honeycomb", check_honeycomb_mahler_routes),
    ("c13-cheb-hilbert", "chebyshev", check_cheb_hilbert),
    ("c14-series-integrality-chebyshev", "chebyshev", _check_series_integrality),
    ("c14-series-integrality-honeycomb", "honeycomb", _check_series_integrality),
    ("c15-honeycomb-multiplicities", "honeycomb", check_honeycomb_multiplicities),
    ("c16-honeycomb-cross-validation", "honeycomb", check_honeycomb_cross_validation),
]


def run_suite(example: str) -> dict:
    """The ``verify`` payload of one built-in example: each of its criteria,
    in order, run on one context of the example, and whether all passed."""
    ctx = SpectralContext(builtin_point_set(example))
    results = []
    for cid, tag, check in CRITERIA:
        if tag == example:
            passed, detail = check(ctx)
            results.append({"criterion": cid, "passed": bool(passed), "detail": detail})
    return {"example": example, "results": results, "passed": all(r["passed"] for r in results)}
