"""Built-in verification suite for the two worked examples.

Each criterion is a function of one example's SpectralContext returning a
CheckResult; the registry maps criteria to the example they exercise so
the CLI can run one example's suite on one context and the acceptance
tests can run everything.  Expected values are
frozen here: the printed value table, the factored level-6 polynomial, the
finite-field count row, and the closed forms of the line example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .analysis import hilbert_transform, mahler_measure, spectrum
from .arith import count_points, valuation_inequality_check, vp
from .catalog import builtin_point_set
from .context import SpectralContext
from .graph import based_walk_weight_sum, build_graph
from .moments import (
    chebyshev_generating_check,
    check_congruence,
    moment_sequence_N,
    product_exponents,
    series_coefficients,
    verify_recurrence,
)
from .specpoly import (
    IntPolynomial,
    convolution_matrix,
    divides,
    evaluate_at_integer,
    integer_root_multiplicity,
    spectral_log_value,
)

CHEB_VALUES_AT_6 = [
    2, 12, 50, 192, 722, 2700, 10082, 37632, 140450, 524172, 1956242,
    7300800, 27246962, 101687052, 379501250, 1416317952, 5285770562,
]
HONEYCOMB_LEVEL6_ROOTS = [0] * 2 + [1] * 15 + [3] * 6 + [4] * 6 + [7] * 6 + [9]
F7_COUNT_ROW = [8, 15, 1, 6, 6, 0, 0]
HONEYCOMB_RECURRENCE = (
    (-1, (0, 0, 9)),
    (0, (-3, -10, -10)),
    (1, (1, 2, 1)),
)


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    passed: bool
    detail: str


def _result(criterion: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(criterion, bool(passed), detail)


def _matrix_power_traces(rows, kmax: int) -> list[int]:
    size = len(rows)
    acc = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    traces = []
    for _ in range(kmax):
        acc = [
            [sum(acc[i][t] * rows[t][j] for t in range(size)) for j in range(size)]
            for i in range(size)
        ]
        traces.append(sum(acc[i][i] for i in range(size)))
    return traces


# -- criteria -------------------------------------------------------------------


def check_honeycomb_level6(ctx: SpectralContext) -> CheckResult:
    p = ctx.spectral_polynomial(6)
    expected = IntPolynomial.from_roots(HONEYCOMB_LEVEL6_ROOTS)
    ok = p == expected and p.degree == 36
    return _result("c01-honeycomb-level6-polynomial", ok, "coefficient-exact, degree 36")


def check_cheb_value_table(ctx: SpectralContext) -> CheckResult:
    got = [evaluate_at_integer(ctx.spectral_polynomial(N), 6) for N in range(1, 18)]
    return _result(
        "c02-cheb-values-at-6",
        got == CHEB_VALUES_AT_6,
        f"levels 1..17, first/last {got[0]}/{got[-1]}",
    )


def check_cheb_shifted_recurrence(ctx: SpectralContext) -> CheckResult:
    s = [None] + [evaluate_at_integer(ctx.spectral_polynomial(N), 6) + 2 for N in range(1, 41)]
    ok = all(s[N + 1] == 4 * s[N] - s[N - 1] for N in range(2, 40))
    return _result("c03-cheb-shifted-recurrence", ok, "s(N+1) = 4 s(N) - s(N-1), N <= 40")


def check_cheb_generating_series(ctx: SpectralContext) -> CheckResult:
    ok = chebyshev_generating_check(6, 17)
    return _result("c04-cheb-generating-series", ok, "orders 1..17 over exact rationals")


def check_honeycomb_moments(ctx: SpectralContext) -> CheckResult:
    seq = ctx.moment_sequence(41)
    formula_ok = all(
        seq[k] == sum(math.comb(k, j) ** 2 * math.comb(2 * j, j) for j in range(k + 1))
        for k in range(42)
    )
    rec_ok = verify_recurrence(seq, HONEYCOMB_RECURRENCE)
    return _result(
        "c05-honeycomb-moments",
        formula_ok and rec_ok,
        "binomial formula and three-term recurrence, k <= 40",
    )


def check_honeycomb_moment_stability(ctx: SpectralContext) -> CheckResult:
    exact = ctx.moment_sequence(8)
    ok = True
    for N in range(1, 9):
        level = moment_sequence_N(ctx.w, 8, N)
        for k in range(9):
            ok = ok and level[k] >= exact[k] >= 0
            if N > k:
                ok = ok and level[k] == exact[k]
    return _result("c06-honeycomb-moment-stability", ok, "k <= 8, N <= 8")


def _check_congruences(name: str, ctx: SpectralContext) -> CheckResult:
    ok = all(
        check_congruence(ctx.w, p, k, alpha)
        for p in (2, 3, 5)
        for k in range(5)
        for alpha in (0, 1)
    )
    return _result(f"c07-congruences-{name}", ok, "p in {2,3,5}, k <= 4, alpha <= 1")


def _check_divisibility(name: str, ctx: SpectralContext) -> CheckResult:
    polys = {N: ctx.spectral_polynomial(N) for N in range(1, 9)}
    ok = all(
        divides(polys[Np], polys[N])
        for N in range(1, 9)
        for Np in range(1, N)
        if N % Np == 0
    )
    return _result(f"c08-divisibility-{name}", ok, "all divisor pairs N' | N <= 8")


def _check_walk_bridge(name: str, ctx: SpectralContext, nmax: int, kmax: int) -> CheckResult:
    n = ctx.dimension
    ok = True
    for N in range(1, nmax + 1):
        G = build_graph(ctx.ps, ctx.basis, N)
        traces = _matrix_power_traces(convolution_matrix(ctx.w, N).rows, kmax)
        level = moment_sequence_N(ctx.w, kmax, N)
        for k in range(1, kmax + 1):
            walks = based_walk_weight_sum(G, k)
            ok = ok and walks == traces[k - 1] == N**n * level[k]
    return _result(
        f"c09-walk-bridge-{name}", ok, f"walks = traces = level moments, N <= {nmax}, k <= {kmax}"
    )


def check_honeycomb_padic(ctx: SpectralContext) -> CheckResult:
    row = [count_points(ctx, z, 7, 1) for z in range(7)]
    ok = row == F7_COUNT_ROW
    for z in range(7):
        lhs, rhs, holds = valuation_inequality_check(ctx, z, 7, 1)
        ok = ok and holds
    lhs, rhs, holds = valuation_inequality_check(ctx, 53, 7, 1)
    ok = ok and (lhs, rhs, holds) == (12, 6, True)
    return _result(
        "c10-honeycomb-padic", ok, f"count row {row}, valuation at 53 = {lhs} > {rhs}"
    )


def check_cheb_padic_pattern(ctx: SpectralContext) -> CheckResult:
    def val(N, p):
        return vp(evaluate_at_integer(ctx.spectral_polynomial(N), 6), p)

    ok = True
    for p in (2, 3, 5, 7, 11, 13, 17):
        v = val(p - 1, p)
        if p in (2, 3):
            ok = ok and v == 1
        elif p % 12 in (1, 11):
            ok = ok and v >= 2
        else:
            ok = ok and v == 0
    ok = ok and val(24, 5) >= 2 and val(48, 7) >= 2
    return _result(
        "c11-cheb-padic-pattern", ok, "square divisibility iff p = +-1 mod 12, p <= 17"
    )


def check_cheb_mahler_limit(ctx: SpectralContext) -> CheckResult:
    target = 2 - math.sqrt(3)
    ok = True
    worst = 0.0
    for N in range(20, 41):
        logmag, _ = spectral_log_value(ctx.w, N, 6)
        q = math.exp(-logmag / N)
        worst = max(worst, abs(q - target))
        ok = ok and abs(q - target) < 1e-3
    return _result(
        "c12-cheb-mahler-limit", ok, f"|est - (2 - sqrt 3)| <= {worst:.2e} for N in 20..40"
    )


def check_honeycomb_mahler_routes(ctx: SpectralContext) -> CheckResult:
    limit = mahler_measure(ctx, 10, method="limit", tol=1e-5)
    series = mahler_measure(ctx, 10, method="moment-series", tol=1e-4)
    delta = abs(limit.value - series.value)
    return _result(
        "c12-honeycomb-mahler-routes", delta < 1e-4, f"route delta {delta:.2e} at z = 10"
    )


def check_cheb_hilbert(ctx: SpectralContext) -> CheckResult:
    h = hilbert_transform(ctx, 6, tol=1e-10)
    err = abs(h - 1 / math.sqrt(12))
    return _result("c13-cheb-hilbert", err < 1e-8, f"|H(6) - 12^-1/2| = {err:.2e}")


def _check_series_integrality(name: str, ctx: SpectralContext) -> CheckResult:
    seq = ctx.moment_sequence(31)
    try:
        A = series_coefficients(seq)
        b = product_exponents(seq)
    except Exception as exc:  # IntegralityViolation counts as failure
        return _result(f"c14-series-integrality-{name}", False, repr(exc))
    ok = len(A) >= 30 and len(b) >= 30 and A[0] == b[0] == seq[1]
    return _result(f"c14-series-integrality-{name}", ok, "A_k, b_k integral, k <= 30")


def check_honeycomb_multiplicities(ctx: SpectralContext) -> CheckResult:
    ok = True
    for N in range(1, 9):
        hist = spectrum(ctx, N)
        if hist.ambiguous:
            return _result(
                "c15-honeycomb-multiplicities", False, f"ambiguous clustering at N={N}"
            )
        poly = ctx.spectral_polynomial(N)
        for value, mult in hist.clusters:
            level = round(value)
            if abs(value - level) < hist.tolerance:
                # integer levels must match the exact root multiplicity
                ok = ok and integer_root_multiplicity(poly, level) == mult
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
    return _result("c15-honeycomb-multiplicities", ok, "symmetry pattern, N <= 8")


def check_honeycomb_cross_validation(ctx: SpectralContext) -> CheckResult:
    hist = spectrum(ctx, 6)
    poly = ctx.spectral_polynomial(6)
    ok = len(hist.clusters) == 6
    for value, mult in hist.clusters:
        level = round(value)
        ok = ok and abs(value - level) < 1e-9
        ok = ok and integer_root_multiplicity(poly, level) == mult
    return _result(
        "c16-honeycomb-cross-validation", ok, "float clusters = exact multiplicities at N=6"
    )


# (criterion id, example it exercises, check function of that example's context)
CRITERIA: list[tuple[str, str, Callable[[SpectralContext], CheckResult]]] = [
    ("c01-honeycomb-level6-polynomial", "honeycomb", check_honeycomb_level6),
    ("c02-cheb-values-at-6", "chebyshev", check_cheb_value_table),
    ("c03-cheb-shifted-recurrence", "chebyshev", check_cheb_shifted_recurrence),
    ("c04-cheb-generating-series", "chebyshev", check_cheb_generating_series),
    ("c05-honeycomb-moments", "honeycomb", check_honeycomb_moments),
    ("c06-honeycomb-moment-stability", "honeycomb", check_honeycomb_moment_stability),
    ("c07-congruences-chebyshev", "chebyshev", lambda ctx: _check_congruences("chebyshev", ctx)),
    ("c07-congruences-honeycomb", "honeycomb", lambda ctx: _check_congruences("honeycomb", ctx)),
    ("c08-divisibility-chebyshev", "chebyshev", lambda ctx: _check_divisibility("chebyshev", ctx)),
    ("c08-divisibility-honeycomb", "honeycomb", lambda ctx: _check_divisibility("honeycomb", ctx)),
    ("c09-walk-bridge-chebyshev", "chebyshev",
     lambda ctx: _check_walk_bridge("chebyshev", ctx, 4, 6)),
    ("c09-walk-bridge-honeycomb", "honeycomb",
     lambda ctx: _check_walk_bridge("honeycomb", ctx, 3, 5)),
    ("c10-honeycomb-padic", "honeycomb", check_honeycomb_padic),
    ("c11-cheb-padic-pattern", "chebyshev", check_cheb_padic_pattern),
    ("c12-cheb-mahler-limit", "chebyshev", check_cheb_mahler_limit),
    ("c12-honeycomb-mahler-routes", "honeycomb", check_honeycomb_mahler_routes),
    ("c13-cheb-hilbert", "chebyshev", check_cheb_hilbert),
    ("c14-series-integrality-chebyshev", "chebyshev",
     lambda ctx: _check_series_integrality("chebyshev", ctx)),
    ("c14-series-integrality-honeycomb", "honeycomb",
     lambda ctx: _check_series_integrality("honeycomb", ctx)),
    ("c15-honeycomb-multiplicities", "honeycomb", check_honeycomb_multiplicities),
    ("c16-honeycomb-cross-validation", "honeycomb", check_honeycomb_cross_validation),
]


def run_suite(example: str) -> list[CheckResult]:
    """All checks for one built-in example, in criterion order, on one
    context of the example."""
    ctx = SpectralContext(builtin_point_set(example))
    return [fn(ctx) for cid, tag, fn in CRITERIA if tag == example]
