"""The torus-float kernels against their per-item loop oracles.

Walk enumeration, character values and spectrum clustering are checked on
random weighted point sets in dimensions 1-3, some with weights >= 10^6 so
that the walk totals overflow int64 and take the Python-integer path.  The
suffix table is shrunk in some cases so that the prefix loop runs too, and
the character-value block is shrunk to one row or a few so that the sum
runs over many blocks.  The streamed torus means are checked against
``np.mean`` over the whole grid at levels past one leaf of the sum.
"""

import json
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from speclat import analysis, graph, limits, specpoly
from speclat.analysis import _log_mean, _log_reading, _stieltjes_reading, _torus_means
from speclat.analysis import mahler_measure, spectrum
from speclat.context import SpectralContext
from speclat.errors import CosetViolation, RankDeficient, SizeLimit, SpectrumProximity
from speclat.lattice import WeightedPointSet, difference_lattice
from speclat.laurent import LaurentPoly, diffraction_polynomial
from speclat.moments import moment_sequence_N
from speclat.specpoly import character_rows, character_values, integer_root_multiplicity

from _oracles import complex_character_values, json_text, loop_adjacency, loop_clusters
from _oracles import expanded, tuple_walk_weight_sum

MAX_LEVEL = {1: 30, 2: 12, 3: 5}
ORACLE_SEQUENCES = 4096  # most type sequences one oracle walk count enumerates
BIG_WEIGHTS = (10**6, 10**6 + 3, 2**40)


def check_kernels(ps: WeightedPointSet, N: int, suffix_rows: int, tolerance=None):
    basis = difference_lattice(ps)
    w = diffraction_polynomial(ps, basis)
    G = graph.build_graph(ps, basis, N)
    npairs = len(G.pair_deltas)
    K = 1
    while K < 4 and npairs ** (K + 1) <= ORACLE_SEQUENCES:
        K += 1
    level = moment_sequence_N(w, K, N)
    with mock.patch.object(graph, "SUFFIX_ROWS", suffix_rows):
        for k in range(1, K + 1):
            walks = graph.based_walk_weight_sum(G, k)
            assert walks == tuple_walk_weight_sum(G, k)
            assert walks == N**ps.dimension * level[k]
    adjacency = json.dumps(loop_adjacency(G), sort_keys=True, indent=2)
    assert json_text(G.adjacency()) == adjacency

    values = character_values(w, N)
    reference = complex_character_values(w, N)
    assert np.array_equal(values, reference)
    assert np.array_equal(np.signbit(values), np.signbit(reference))

    hist = spectrum(SpectralContext(ps), N, tolerance=tolerance)
    assert hist.clusters == loop_clusters(np.sort(reference.ravel()), hist.tolerance)


def random_graph_set(rng: random.Random, big: bool) -> WeightedPointSet:
    """Full-rank set that avoids its own difference lattice."""
    n = rng.randint(1, 3)
    weights = (1, 2, 3) + (BIG_WEIGHTS if big else ())
    while True:
        npts, pts = rng.randint(2, 4), set()
        while len(pts) < npts:
            pts.add(tuple(rng.randint(-3, 3) for _ in range(n)))
        ps = WeightedPointSet(n, tuple((a, rng.choice(weights)) for a in sorted(pts)))
        try:
            graph.build_graph(ps, difference_lattice(ps), 1)
        except (RankDeficient, CosetViolation):
            continue
        return ps


@pytest.mark.parametrize("seed", range(24))
def test_torus_kernels_match_loops_random(seed):
    rng = random.Random(seed)
    ps = random_graph_set(rng, big=seed % 3 == 0)
    N = rng.randint(1, MAX_LEVEL[ps.dimension])
    tolerance = rng.choice([None, 0.0, 0.25])
    check_kernels(ps, N, rng.choice([1, 16, graph.SUFFIX_ROWS]), tolerance)


@st.composite
def graph_sets(draw, big=True):
    n = draw(st.integers(1, 3))
    points = draw(
        st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=2, max_size=4, unique=True)
    )
    weight = st.one_of(st.integers(1, 3), st.sampled_from(BIG_WEIGHTS if big else (1,)))
    ps = WeightedPointSet(n, tuple((a, draw(weight)) for a in sorted(points)))
    try:
        graph.build_graph(ps, difference_lattice(ps), 1)
    except (RankDeficient, CosetViolation):
        assume(False)
    return ps, draw(st.integers(1, MAX_LEVEL[n])), draw(st.sampled_from([1, 16, 2**16]))


@settings(max_examples=50)
@given(graph_sets())
def test_torus_kernels_match_loops_property(case):
    ps, N, suffix_rows = case
    check_kernels(ps, N, suffix_rows)


HONEYCOMB = WeightedPointSet(2, (((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)))
CUBE = WeightedPointSet(3, (((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((-1, -1, -1), 1)))


@pytest.mark.parametrize("ps, N", [(HONEYCOMB, 384), (CUBE, 48)], ids=["honeycomb-384", "cube-48"])
def test_spectrum_means_bitwise_at_large_clusters(ps, N):
    # clusters above 128 values, where numpy's pairwise sum splits into blocks
    hist = spectrum(SpectralContext(ps), N)
    reference = loop_clusters(hist.values, hist.tolerance)
    assert max(size for _, size in reference) > 128
    assert [(mean.hex(), size) for mean, size in hist.clusters] == [
        (mean.hex(), size) for mean, size in reference
    ]
    gaps = [b[0] - a[0] for a, b in zip(reference, reference[1:])]
    assert hist.min_gap.hex() == min(gaps).hex()


# -- character values over many blocks ------------------------------------------------


def check_values(w: LaurentPoly, N: int, rows: int | None = None):
    """character_values against the complex oracle, bit for bit, with the
    value block shrunk to ``rows`` rows of the first axis (None: as is)."""
    block = specpoly._VALUE_BLOCK if rows is None else rows * N ** (w.dimension - 1)
    with mock.patch.object(specpoly, "_VALUE_BLOCK", block):
        values = character_values(w, N)
    reference = complex_character_values(w, N)
    assert values.shape == (N,) * w.dimension
    assert np.array_equal(values, reference)
    assert np.array_equal(np.signbit(values), np.signbit(reference))


def palindromic(n: int, half: dict) -> LaurentPoly:
    terms = {(0,) * n: 5}
    for e, c in half.items():
        terms[e] = terms[tuple(-x for x in e)] = c
    return LaurentPoly(n, terms)


W_HONEYCOMB = diffraction_polynomial(HONEYCOMB, difference_lattice(HONEYCOMB))
W_CUBE = diffraction_polynomial(CUBE, difference_lattice(CUBE))
VALUE_CASES = {
    "honeycomb-384": (W_HONEYCOMB, 384),
    "cube-48": (W_CUBE, 48),
    "honeycomb-1": (W_HONEYCOMB, 1),
    "honeycomb-2": (W_HONEYCOMB, 2),
    "cube-1": (W_CUBE, 1),
    "cube-2": (W_CUBE, 2),
    # last exponents of 2 and 3, both signs
    "last-2-3": (palindromic(2, {(1, -3): 2, (2, 2): 1, (-1, -2): 3, (0, 3): 1}), 20),
    "last-2-3-3d": (palindromic(3, {(1, 0, -3): 1, (0, 1, 2): 2, (1, -1, -2): 1}), 7),
    # weights of 2^40: coefficients far past 2^53
    "weights-2^40": (palindromic(2, {(1, 0): 2**40, (1, -1): 2**80 + 1, (0, 2): 3}), 30),
    # exponents past N / 2, and a first-axis reach that shortens the block
    "wide-1d": (palindromic(1, {(1,): 1, (999,): 2, (1000,): 1}), 300),
    "wide-1d-small-N": (palindromic(1, {(1,): 1, (999,): 2, (1000,): 1}), 7),
    "wide-2d": (palindromic(2, {(40, 3): 1, (1, 0): 2, (-3, 41): 1}), 64),
}


@pytest.mark.parametrize("rows", [1, 3, None], ids=["1-row", "3-rows", "default"])
@pytest.mark.parametrize("case", VALUE_CASES)
def test_character_values_over_blocks(case, rows):
    check_values(*VALUE_CASES[case], rows)


@pytest.mark.parametrize(
    "w, N",
    [
        # were a block the whole row, a view would span 10^7 entries of its
        # table (over 300 MB in all)
        (palindromic(1, {(1,): 1, (999,): 2, (1000,): 1}), 10**4),
        # unreduced, the second exponent would span 10^7 entries
        (palindromic(2, {(1, 0): 1, (0, 10**5 + 1): 2}), 100),
    ],
    ids=["long-first-axis", "past-N"],
)
def test_wide_exponents_keep_tables_small(w, N):
    tracemalloc.start()
    try:
        values = character_values(w, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**23
    assert np.array_equal(values, complex_character_values(w, N))


@st.composite
def value_cases(draw):
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-6, 6)] * n)
    coeffs = st.one_of(st.integers(1, 3), st.sampled_from(BIG_WEIGHTS))
    half = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=5))
    N = draw(st.integers(1, MAX_LEVEL[n]))
    return palindromic(n, half), N, draw(st.sampled_from([1, 2, 3, None]))


@settings(max_examples=60)
@given(value_cases())
def test_character_values_over_blocks_property(case):
    check_values(*case)


@settings(max_examples=60)
@given(value_cases(), st.data())
def test_any_rows_are_those_rows_of_the_grid_property(case, data):
    w, N, rows = case
    r0 = data.draw(st.integers(0, N - 1))
    r1 = data.draw(st.integers(r0, N))
    block = specpoly._VALUE_BLOCK if rows is None else rows * N ** (w.dimension - 1)
    with mock.patch.object(specpoly, "_VALUE_BLOCK", block):
        some = character_rows(w, N)(r0, r1, np.full((N,) * w.dimension, np.nan))
    grid = character_values(w, N)[r0:r1]
    assert some.shape == grid.shape
    assert np.array_equal(some, grid) and np.array_equal(np.signbit(some), np.signbit(grid))


# -- the half grid of the torus quadrature ---------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_half_grid_is_every_other_point(seed):
    ps = random_graph_set(random.Random(seed), big=seed % 2 == 0)
    w = diffraction_polynomial(ps, difference_lattice(ps))
    every_other = (slice(None, None, 2),) * ps.dimension
    for R in range(2, 65, 2):
        fine, half = character_values(w, R), character_values(w, R // 2)
        assert np.array_equal(fine[every_other], half)
        assert np.array_equal(np.signbit(fine[every_other]), np.signbit(half))


def fresh_log_average(ctx, N, z):
    return float(np.mean(np.log(np.abs(complex(z) - character_values(ctx.w, N).ravel()))))


@pytest.mark.parametrize("resolution", [2, 3, 4, 9, 16, 33, 64])
@pytest.mark.parametrize("seed", range(3))
def test_torus_quadrature_matches_fresh_grids(seed, resolution):
    ctx = SpectralContext(random_graph_set(random.Random(seed), big=False))
    C2 = ctx.ps.total_weight**2
    for z in (C2 + 1.5, -2, 3 * C2):
        res = mahler_measure(ctx, z, "torus-quadrature", resolution=resolution)
        fine = math.exp(-fresh_log_average(ctx, resolution, z))
        coarse = math.exp(-fresh_log_average(ctx, resolution // 2, z))
        assert (res.value, res.error) == (fine, abs(fine - coarse))


@pytest.mark.parametrize("N", [0, -1])
def test_float_grid_below_level_one_is_refused(N):
    ctx = SpectralContext(random_graph_set(random.Random(0), big=False))
    with pytest.raises(ValueError, match="N must be >= 1"):
        specpoly.check_level(N, ctx.dimension, limits.DEFAULT_FLOAT_CAP, "character values")
    with pytest.raises(ValueError, match="N must be >= 1"):
        character_values(ctx.w, N)


@pytest.mark.parametrize("resolution", [1, 0, -1])
def test_quadrature_below_resolution_two_is_refused(resolution):
    # R = 1 would read the level-0 half grid
    ctx = SpectralContext(random_graph_set(random.Random(0), big=False))
    with pytest.raises(ValueError, match="resolution must be >= 2"):
        mahler_measure(ctx, 100.0, "torus-quadrature", resolution=resolution)


@pytest.mark.parametrize("seed", range(3))
def test_log_average_real_z_matches_complex_form(seed):
    rng = random.Random(seed)
    ps = random_graph_set(rng, big=True)
    w = diffraction_polynomial(ps, difference_lattice(ps))
    vals = character_values(w, 6)
    for z in (0.3, -3, 7.25, rng.uniform(-1e6, 1e6), 1.5 * ps.total_weight**2):
        expected = float(np.mean(np.log(np.abs(complex(z) - vals.ravel()))))
        assert _log_mean(w, 6, z) == expected


# -- averages reduced in place ------------------------------------------------------------


Z_VALUES = st.one_of(
    st.integers(-50, 50),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60)
@given(graph_sets(), Z_VALUES)
def test_averages_in_place_are_bitwise_property(case, z):
    ps, N, _ = case
    w = diffraction_polynomial(ps, difference_lattice(ps))
    vals = character_values(w, N)
    assume(np.abs(complex(z) - vals).min() > 0)
    expected = np.log(np.abs(z - vals))
    buf = vals.copy()
    assert _log_reading(z, 0.0)(buf) is buf and np.array_equal(buf, expected)
    assert _log_mean(w, N, z) == float(np.mean(expected))
    flat = vals.ravel()
    average = _torus_means(w, N, _stieltjes_reading(z, 0.0))[0]
    assert complex(average) == complex(np.mean(1.0 / (complex(z) - flat)))


# levels whose N^n values straddle the 2^16-value leaf of the streamed sum,
# odd and even, powers of two and not (1000^2 has a node of 62500 values)
STREAM_LEVELS = {
    1: [2**16 - 8, 2**16, 2**16 + 1, 2**17 + 6, 131071, 100_000],
    2: [255, 256, 257, 362, 777, 1000, 1022],
    3: [40, 41, 50, 64, 66, 101],
}


@settings(max_examples=30, deadline=None)
@given(graph_sets(), st.data(), Z_VALUES)
def test_streamed_means_are_np_mean_past_a_leaf_property(case, data, z):
    ps, _, _ = case
    w = diffraction_polynomial(ps, difference_lattice(ps))
    N = data.draw(st.sampled_from(STREAM_LEVELS[ps.dimension]))
    vals = character_values(w, N)
    assume(np.abs(complex(z) - vals).min() > 0)
    logs = np.log(np.abs(z - vals))
    fine, *coarse = _torus_means(w, N, _log_reading(z, 0.0), half=N % 2 == 0)
    assert fine.hex() == float(np.mean(logs)).hex()
    if N % 2 == 0:  # the quadrature's coarse half, as a grid of its own
        half = np.log(np.abs(z - vals[(slice(None, None, 2),) * ps.dimension]))
        assert coarse[0].hex() == float(np.mean(half)).hex()
    average = complex(_torus_means(w, N, _stieltjes_reading(z, 0.0))[0])
    expected = complex(np.mean(1.0 / (complex(z) - vals.ravel())))
    assert (average.real.hex(), average.imag.hex()) == (expected.real.hex(), expected.imag.hex())


@pytest.mark.parametrize("seed", range(3))
def test_spectrum_average_matches_fresh_grids(seed):
    ctx = SpectralContext(random_graph_set(random.Random(seed), big=False))
    C2 = ctx.ps.total_weight**2
    for z in (C2 + 0.5, 3 * C2, 0.5 + 1j):
        prev, N = None, 16
        while True:
            vals = character_values(ctx.w, N).ravel()
            cur = complex(np.mean(1.0 / (complex(z) - vals)))
            if prev is not None and abs(cur - prev) < 1e-9:
                break
            prev, N = cur, 2 * N
        assert analysis.hilbert_transform(ctx, z, "spectrum-average", tol=1e-9) == cur


@settings(max_examples=40)
@given(graph_sets(big=False))
def test_quadrature_meets_a_value_held_only_by_the_fine_grid(case):
    ps, N, _ = case
    ctx = SpectralContext(ps)
    R = 2 * max(N, 2)
    proximity = 1e-6 * ps.total_weight**2
    fine = character_values(ctx.w, R)
    coarse = fine[(slice(None, None, 2),) * ps.dimension].ravel()
    far = [v for v in fine.ravel().tolist() if np.abs(v - coarse).min() >= proximity]
    assume(far)
    with pytest.raises(SpectrumProximity) as caught:
        mahler_measure(ctx, far[0], "torus-quadrature", resolution=R)
    assert str(caught.value) == f"{far[0]} is within {proximity} of an observed spectrum value"


def doubling_loop(ctx, reading, tol, failure, cap):
    """The doubling ladder written out: a fresh grid at N = 16, 32, ... while
    N^n <= cap, until two readings agree within tol: (reading, |difference|)."""
    prev, N = None, 16
    while N**ctx.dimension <= cap:
        cur = reading(character_values(ctx.w, N))
        if prev is not None and abs(cur - prev) < tol:
            return cur, abs(cur - prev)
        prev, N = cur, 2 * N
    raise SizeLimit(failure)


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (SizeLimit, SpectrumProximity) as exc:
        return type(exc), str(exc)


LIMIT_FAILURE = "limit method did not stabilize within the float cap"
AVERAGE_FAILURE = "spectrum average did not stabilize within the cap"


@pytest.mark.parametrize("seed", range(6))
def test_ladders_match_a_doubling_loop_over_fresh_grids(seed, monkeypatch):
    ctx = SpectralContext(random_graph_set(random.Random(seed), big=False))
    C2 = ctx.ps.total_weight**2
    proximity = 1e-6 * C2
    cap = 2**14
    monkeypatch.setattr(limits, "DEFAULT_FLOAT_CAP", cap)

    def limit(z, tol):
        res = mahler_measure(ctx, z, "limit", tol=tol)
        return res.value, res.error

    def average(z, tol):
        return analysis.hilbert_transform(ctx, z, "spectrum-average", tol=tol)

    def near(z, gaps):
        if gaps.min() < proximity:
            raise SpectrumProximity(f"{z} is within {proximity} of an observed spectrum value")

    def log_estimate(z):
        def reading(vals):
            near(z, gaps := np.abs(z - vals))
            return math.exp(-np.mean(np.log(gaps)))
        return reading

    def stieltjes(z):
        def reading(vals):
            near(z, np.abs(complex(z) - vals))
            return complex(np.mean(1.0 / (complex(z) - vals.ravel())))
        return reading

    # z next to the top level C2 fails both ladders at their first rung; tol 0
    # climbs both ladders to the cap
    for z in (C2 + 0.5, 3 * C2, C2 + 1e-9, 0.5 + 1j):
        for tol in (1e-3, 1e-9, 0.0):
            expected = outcome(doubling_loop, ctx, log_estimate(z), tol, LIMIT_FAILURE, cap)
            assert outcome(limit, z, tol) == expected
            expected = outcome(
                lambda: doubling_loop(ctx, stieltjes(z), tol, AVERAGE_FAILURE, cap)[0]
            )
            assert outcome(average, z, tol) == expected
    message = f"{C2 + 1e-9} is within {proximity} of an observed spectrum value"
    assert outcome(limit, C2 + 1e-9, 1e-3) == (SpectrumProximity, message)
    assert outcome(average, C2 + 1e-9, 1e-3) == (SpectrumProximity, message)
    assert outcome(limit, 3 * C2, 0.0) == (SizeLimit, LIMIT_FAILURE)
    assert outcome(average, 3 * C2, 0.0) == (SizeLimit, AVERAGE_FAILURE)


def traced_peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


LEAVES_BOUND = 4 * 2**20  # bytes: a row block and a leaf or two of 2^16 values, not a grid


@pytest.mark.parametrize("resolution", [512, 1024, 2048])
def test_quadrature_holds_leaves_not_the_grid(resolution):
    ctx = SpectralContext(HONEYCOMB)
    ctx.w  # W is built before tracing
    peak = traced_peak(mahler_measure, ctx, 12.0, "torus-quadrature", resolution=resolution)
    assert peak < LEAVES_BOUND


def test_limit_rung_holds_leaves_not_the_grid(monkeypatch):
    ctx = SpectralContext(HONEYCOMB)
    ctx.w  # W is built before tracing
    monkeypatch.setattr(limits, "DEFAULT_FLOAT_CAP", 2**20)  # rungs 16 to 1024
    sizes = []

    def recorded(w, N):
        sizes.append(N**w.dimension)
        return character_rows(w, N)

    monkeypatch.setattr(analysis, "character_rows", recorded)
    # tol 0: no two rungs agree, so the ladder climbs to the cap
    peak = traced_peak(pytest.raises, SizeLimit, mahler_measure, ctx, 12.0, "limit", tol=0.0)
    assert sizes == [N**2 for N in (16, 32, 64, 128, 256, 512, 1024)]
    assert peak < LEAVES_BOUND


# -- float clusters against exact root multiplicities ------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_float_clusters_match_exact_multiplicities(seed):
    rng = random.Random(seed)
    ctx = SpectralContext(random_graph_set(rng, big=False))
    N = rng.randint(2, {1: 12, 2: 6, 3: 3}[ctx.dimension])
    hist = spectrum(ctx, N)
    poly = expanded(ctx.spectral_factors(N))
    for level in range(ctx.ps.total_weight**2 + 1):
        assert hist.multiplicity_near(level) == integer_root_multiplicity(poly, level), level
