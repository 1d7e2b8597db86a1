"""The torus-float kernels against their per-item loop oracles.

Walk enumeration, character values and spectrum clustering are checked on
random weighted point sets in dimensions 1-3, some with weights >= 10^6 so
that the walk totals overflow int64 and take the Python-integer path.  The
suffix table is shrunk in some cases so that the prefix loop runs too.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from speclat import graph
from speclat.analysis import spectrum
from speclat.context import SpectralContext
from speclat.errors import CosetViolation, RankDeficient
from speclat.lattice import WeightedPointSet, difference_lattice
from speclat.laurent import diffraction_polynomial
from speclat.moments import moment_sequence_N
from speclat.specpoly import character_values

from _oracles import complex_character_values, loop_clusters, tuple_walk_weight_sum

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
    level = moment_sequence_N(w, K, N).values
    with mock.patch.object(graph, "SUFFIX_ROWS", suffix_rows):
        for k in range(1, K + 1):
            walks = graph.based_walk_weight_sum(G, k)
            assert walks == tuple_walk_weight_sum(G, k)
            assert walks == N**ps.dimension * level[k]

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
def graph_sets(draw):
    n = draw(st.integers(1, 3))
    points = draw(
        st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=2, max_size=4, unique=True)
    )
    weight = st.one_of(st.integers(1, 3), st.sampled_from(BIG_WEIGHTS))
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
