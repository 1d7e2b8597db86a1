"""Public API fuzz: the functions of ``speclat.__all__``, called in process
on drawn inputs under small caps.

Each example draws a weighted point set of 1-3 dimensions (or a built-in
one) and one group of calls, with levels, moment counts K, z (0, negative,
inside the spectrum and above it), tolerances (0 and negative among them),
primes p, non-primes and degrees nu.  Whatever the input, each call
returns, or raises a SpeclatError or a ValueError with a message: never a
ZeroDivisionError, OverflowError, MemoryError or RecursionError, nor any
other exception.  nu log2 p stays small, as the API puts no cost cap on
p^nu; a moment list or a congruence sweep past the series cap raises
SizeLimit, however large its K or alpha.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import speclat
from speclat.errors import SizeLimit, SpeclatError

from _oracles import expanded
from conftest import SMALL_CAPS, mostly

SERIES = SMALL_CAPS["DEFAULT_SERIES_CAP"]

level = mostly(st.integers(1, 8), st.integers(-1, 0))
count = mostly(st.integers(0, 12), st.sampled_from([-2, -1, 40, SERIES, SERIES + 1, 10**9]))
integer = mostly(st.integers(-20, 60), st.sampled_from([10**6, -(10**12), 10**40]))
prime = mostly(st.sampled_from([2, 3, 5, 7, 11, 13]), st.sampled_from([-3, 0, 1, 4, 9]))
nu = mostly(st.integers(1, 3), st.integers(-1, 0))
tol = mostly(st.floats(1e-12, 0.5), st.sampled_from(
    [0.0, -0.0, -1.0, 1e-300, 5e-324, 1e308, float("inf"), float("nan")]) | st.floats(-1, 0))


@st.composite
def point_sets(draw):
    """A built-in set, or a0 + scale s_i e_i for each axis i (full rank) and
    up to two more points a0 + scale v, with weights mostly 1-4 and now and
    then 10^5."""
    if draw(st.integers(0, 9)) == 0:
        return speclat.builtin_point_set(draw(st.sampled_from(["chebyshev", "honeycomb"])))
    n, scale = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2]))
    a0 = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    a0[0] += scale == 2 and a0[0] % 2 == 0  # at scale 2, a0 is off the lattice: walks run
    steps = draw(st.lists(st.sampled_from([1, 2, -1, 3]), min_size=n, max_size=n))
    offsets = [[s * (i == j) for j in range(n)] for i, s in enumerate(steps)]
    offsets += draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=2))
    coords = {tuple(x + scale * y for x, y in zip(a0, v)) for v in offsets} | {tuple(a0)}
    weight = mostly(st.integers(1, 4), st.just(10**5))
    return speclat.WeightedPointSet(n, [(a, draw(weight)) for a in sorted(coords)])


def z_near(draw, ctx):
    """z at 0, below 0, inside the spectrum [0, C^2] or above it."""
    C2 = ctx.ps.total_weight**2
    where = draw(st.sampled_from(["zero", "negative", "inside", "above"]))
    if where == "zero":
        return draw(st.sampled_from([0, 0.0]))
    if where == "negative":
        return -draw(st.floats(0, 4, exclude_min=True)) * C2
    return draw(st.floats(0, 1) if where == "inside" else st.floats(1, 4, exclude_min=True)) * C2


def attempt(f, *args):
    """f(*args), or None when it raises a SpeclatError or a ValueError with a message."""
    try:
        return f(*args)
    except (SpeclatError, ValueError) as e:
        assert str(e), repr(e)


def exact(ctx, draw):
    if b := attempt(speclat.spectral_factors, ctx.w, draw(level)):
        r = draw(integer)
        attempt(speclat.level_multiplicity, b, r)
        attempt(speclat.factored_value, b, draw(integer))
        attempt(speclat.integer_root_multiplicity, expanded(b), r)
        if d := attempt(speclat.spectral_factors, ctx.w, draw(level)):
            attempt(d.divides, b)


def moment_lists(ctx, draw):
    # moment_sequence, through the context
    if m := attempt(ctx.moment_sequence, draw(count)):
        attempt(speclat.series_coefficients, m)
        attempt(speclat.product_exponents, m)
    attempt(speclat.moment_sequence_N, ctx.w, draw(count), draw(level))
    p, k, alpha = draw(prime), draw(st.integers(-1, 4)), draw(st.integers(-1, 3))
    attempt(speclat.check_congruence, ctx.w, p, k, alpha)
    # a congruence past the series cap, alpha up to 10^9: refused, not swept
    p, k = draw(st.sampled_from([2, 3, 5, 7, 11, 13])), draw(st.integers(1, 4))
    alpha = next(a for a in itertools.count() if k * p ** (a + 1) > SERIES)
    alpha += draw(mostly(st.integers(0, 3), st.just(10**9)))
    with pytest.raises(SizeLimit, match="the series cap"):
        speclat.check_congruence(ctx.w, p, k, alpha)


def spectrum(ctx, draw):
    if hist := attempt(speclat.spectrum, ctx, draw(level), draw(st.none() | tol)):
        attempt(speclat.empirical_cdf, hist, z_near(draw, ctx))
        attempt(hist.multiplicity_near, z_near(draw, ctx))


def hilbert(ctx, draw):
    method = draw(mostly(st.sampled_from(["moment-series", "spectrum-average"]), st.just("sum")))
    attempt(speclat.hilbert_transform, ctx, z_near(draw, ctx), method, draw(tol))


def mahler(ctx, draw):
    methods = st.sampled_from(["limit", "moment-series", "torus-quadrature"])
    method, resolution = draw(mostly(methods, st.just("mean"))), draw(st.integers(-1, 40))
    attempt(speclat.mahler_measure, ctx, z_near(draw, ctx), method, draw(tol), resolution)


def padic(ctx, draw):
    zs = draw(st.lists(integer, max_size=4))
    attempt(speclat.valuation_inequality_check, ctx, zs, draw(prime), draw(nu))
    attempt(speclat.vp, draw(integer), draw(prime))
    p = draw(mostly(prime, st.sampled_from([2**31 - 1, 2**61 - 1])))
    attempt(speclat.primitive_modulus, p, draw(nu if p < 2**10 else st.integers(-1, 2)))


def walks(ctx, draw):
    n = ctx.dimension
    attempt(speclat.disjointness_check, ctx.ps, ctx.basis)
    size = draw(mostly(st.just(n), st.just(n + 1)))
    v = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    attempt(speclat.to_lattice_coords, v, ctx.basis)
    attempt(speclat.fold_mod_N, ctx.w, draw(level))
    N = draw(level)
    if G := attempt(speclat.build_graph, ctx.ps, ctx.basis, N):
        totals = attempt(speclat.walk_totals, G, draw(st.integers(-1, 4)))
        if b := attempt(speclat.spectral_factors, ctx.w, N):
            attempt(speclat.walk_series_check, b, totals or [])


CALLS = {f.__name__: f for f in (exact, moment_lists, spectrum, hilbert, mahler, padic, walks)}


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(point_sets(), st.sampled_from(sorted(CALLS)), st.data())
def test_api_fuzz(small_caps, ps, name, data):
    CALLS[name](speclat.SpectralContext(ps), data.draw)


@pytest.mark.parametrize(
    "call, message",
    [
        # a negative K divided by zero in the tight shape, or gave no moments
        (lambda ctx: speclat.moment_sequence(ctx.w, -1), "K must be >= 0, got -1"),
        (lambda ctx: speclat.moment_sequence_N(ctx.w, -1, 2), "K must be >= 0, got -1"),
        # 1 / z and C2 / |z| came before the check of |z| > C2
        (lambda ctx: speclat.hilbert_transform(ctx, 0), "needs |z| above the spectrum top"),
        (lambda ctx: speclat.mahler_measure(ctx, 0, method="moment-series"),
         "needs |z| above the spectrum top"),
        # log(tol) of a tolerance <= 0: math domain error
        (lambda ctx: speclat.hilbert_transform(ctx, 20, tol=0.0),
         "tol must be a finite number > 0, got 0.0"),
        (lambda ctx: speclat.hilbert_transform(ctx, 20, tol=-1.0),
         "tol must be a finite number > 0, got -1.0"),
    ],
    ids=["moments-negative-K", "level-moments-negative-K", "hilbert-z-0", "mahler-z-0",
         "hilbert-tol-0", "hilbert-tol-negative"],
)
def test_calls_the_fuzz_found(honeycomb_ctx, call, message):
    # each raised ZeroDivisionError, returned (), or raised ValueError: math domain error
    with pytest.raises(ValueError) as caught:
        call(honeycomb_ctx)
    assert message in str(caught.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda ctx: speclat.spectrum(ctx, 4),
        lambda ctx: speclat.mahler_measure(ctx, 5.0),
        lambda ctx: speclat.hilbert_transform(ctx, 2.0**1000, "spectrum-average"),
    ],
    ids=["spectrum", "mahler", "hilbert-spectrum-average"],
)
def test_float_readers_past_float_range(call):
    # the honeycomb with one weight of 2^600: float(C^2) raised OverflowError
    heavy = speclat.WeightedPointSet(2, (((1, 0), 2**600), ((0, 1), 1), ((-1, -1), 1)))
    with pytest.raises(ValueError, match=r"total_weight\^2 must be below 2\^1024"):
        call(speclat.SpectralContext(heavy))
