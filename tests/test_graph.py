import cmath
import itertools
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclat.errors import CosetViolation, SizeLimit
from speclat.cli import main
from speclat.context import SpectralContext
from speclat import graph
from speclat.graph import build_graph, walk_series_check
from speclat.lattice import WeightedPointSet, anchored_coords, difference_lattice
from speclat.laurent import diffraction_polynomial
from speclat.moments import moment_sequence_N, newton_sums
from speclat.specpoly import character_values, factored_value

from _oracles import convolution_matrix, table_rows


def graph_of(ps, N):
    return build_graph(ps, difference_lattice(ps), N)


def walk_total(G, k):
    """The weight of based closed walks of length 2k alone: the last of ``walk_totals``."""
    return graph.walk_totals(G, k)[-1]


def edges_of(G):
    """(black, white, type, weight) of each exported edge."""
    edges = table_rows(G.adjacency()["edges"])
    return [(tuple(e["from"]), tuple(e["to"]), e["type"], e["weight"]) for e in edges]


def test_honeycomb_level3_counts(honeycomb):
    G = graph_of(honeycomb, 3)
    adj = G.adjacency()
    assert len(adj["black"]) == len(adj["white"]) == 9
    assert len(edges_of(G)) == 27


def test_honeycomb_level1(honeycomb):
    G = graph_of(honeycomb, 1)
    assert table_rows(G.adjacency()["black"]) == [[0, 0]]
    edges = edges_of(G)
    assert len(edges) == 3
    # three parallel typed edges on the same vertex pair
    assert {(e[0], e[1]) for e in edges} == {((0, 0), (0, 0))}
    assert {e[2] for e in edges} == {0, 1, 2}


def test_degrees(honeycomb):
    G = graph_of(honeycomb, 2)
    out = {}
    inc = {}
    for b, w, _, _ in edges_of(G):
        out[b] = out.get(b, 0) + 1
        inc[w] = inc.get(w, 0) + 1
    assert set(out.values()) == {3}
    assert set(inc.values()) == {3}


def test_coset_violation():
    ps = WeightedPointSet(2, (((0, 0), 1), ((1, 0), 1), ((0, 1), 1)))
    with pytest.raises(CosetViolation):
        build_graph(ps, difference_lattice(ps), 2)


@pytest.mark.parametrize("N", [0, 2**62 + 1])
def test_a_level_outside_1_to_2_62_is_refused(honeycomb, N):
    # a residue plus a folded delta, both below N, must stay in int64
    with pytest.raises(ValueError, match=rf"^N must be from 1 to 2\^62, got {N}$"):
        graph_of(honeycomb, N)


def test_walk_sums_honeycomb_k1(honeycomb):
    # only a == b closes for N >= 2, giving 3 walks per start vertex
    for N in (2, 3):
        G = graph_of(honeycomb, N)
        assert walk_total(G, 1) == 3 * N**2
    # at level 1 all nine type pairs close
    assert walk_total(graph_of(honeycomb, 1), 1) == 9


def test_walk_sum_cheb(chebyshev):
    G = graph_of(chebyshev, 2)
    # level-2 moment at k=2 is binom(4,0)+binom(4,2)+binom(4,4) = 8,
    # times the 2 start vertices
    assert walk_total(G, 2) == 2 * 8


def test_walk_sum_matches_trace_and_moments(honeycomb, chebyshev):
    for ps, n in ((honeycomb, 2), (chebyshev, 1)):
        w = diffraction_polynomial(ps, difference_lattice(ps))
        for N in (1, 2, 3):
            G = graph_of(ps, N)
            rows = convolution_matrix(w, N)
            size = len(rows)
            acc = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
            for k in range(1, 5):
                acc = [
                    [
                        sum(acc[i][t] * rows[t][j] for t in range(size))
                        for j in range(size)
                    ]
                    for i in range(size)
                ]
                walks = walk_total(G, k)
                assert walks == sum(acc[i][i] for i in range(size))
                assert walks == N**n * moment_sequence_N(w, k, N)[k]


def test_walks_invariant_under_relabeling(honeycomb):
    shuffled = WeightedPointSet(2, (((0, 1), 1), ((-1, -1), 1), ((1, 0), 1)))
    for N, k in ((2, 3), (3, 2)):
        a = walk_total(graph_of(honeycomb, N), k)
        b = walk_total(graph_of(shuffled, N), k)
        assert a == b


def test_weighted_walks():
    ps = WeightedPointSet(1, (((-1,), 2), ((1,), 3)))
    G = graph_of(ps, 2)
    # k=1: closing pairs are (a,a) and (b,b): weights 4 + 9, times N^n = 2
    assert walk_total(G, 1) == 2 * 13


def test_explosion_guard(honeycomb, monkeypatch):
    monkeypatch.setattr("speclat.limits.DEFAULT_WALK_CAP", 1000)
    G = graph_of(honeycomb, 2)
    with pytest.raises(SizeLimit, match=r"^9\*\*5 type sequences exceed the cap 1000$"):
        graph.walk_totals(G, 5)


def test_walk_totals_read_no_length_below_one(honeycomb):
    G = graph_of(honeycomb, 2)
    assert graph.walk_totals(G, 0) == []
    # no length, whatever the weights: a pair weight past int64 is no OverflowError
    heavy = graph_of(WeightedPointSet(1, (((-1,), 10**20), ((1,), 1))), 3)
    assert graph.walk_totals(heavy, 0) == []
    assert graph.walk_totals(heavy, 1) == [3 * (10**40 + 1)]
    with pytest.raises(ValueError, match="K must be >= 0"):
        graph.walk_totals(G, -1)


def test_per_class_weight(honeycomb, tmp_path):
    # the walks record's per-class totals are the based totals over k
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dimension": 2,
        "points": [{"a": list(a), "c": c} for a, c in honeycomb.points],
        "walks": {"N": 2, "k_max": 3},
    }))
    out = tmp_path / "out.json"
    assert main(["walks", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    G = graph_of(honeycomb, 2)
    for k in (1, 2, 3):
        total = walk_total(G, k)
        assert payload["walk_totals"][k - 1] == str(total)
        assert payload["per_class"][k - 1] == str(Fraction(total, k))


def walk_totals(ctx, N, K):
    G = build_graph(ctx.ps, ctx.basis, N)
    return [walk_total(G, k) for k in range(1, K + 1)]


def test_walk_series_honeycomb(honeycomb_ctx):
    assert walk_series_check(honeycomb_ctx.spectral_factors(2), walk_totals(honeycomb_ctx, 2, 4))


def test_walk_series_cheb(cheb_ctx):
    assert walk_series_check(cheb_ctx.spectral_factors(3), walk_totals(cheb_ctx, 3, 5))


def test_walk_series_order_one_is_trace(cheb_ctx):
    assert walk_series_check(cheb_ctx.spectral_factors(4), walk_totals(cheb_ctx, 4, 1))


@pytest.mark.parametrize("N, K", [(2, 4), (3, 3)])
def test_walk_series_fails_when_one_total_is_off_by_one(honeycomb_ctx, N, K):
    b, totals = honeycomb_ctx.spectral_factors(N), walk_totals(honeycomb_ctx, N, K)
    assert walk_series_check(b, totals) and walk_series_check(b, [])
    for k in range(K):
        for delta in (1, -1):
            off = list(totals)
            off[k] += delta
            assert not walk_series_check(b, off)


def test_adjacency_export(honeycomb):
    G = graph_of(honeycomb, 2)
    adj = G.adjacency()
    assert adj["N"] == 2
    assert len(adj["black"]) == 4
    assert len(adj["edges"]) == 12
    e = table_rows(adj["edges"])[0]
    assert set(e) == {"from", "to", "type", "weight"}


def test_adjacency_export_capped_before_any_work(chebyshev):
    # the walks plan's export cap, 10^4 vertices per colour, holds in the API too
    start = time.process_time()
    with pytest.raises(SizeLimit, match=r"^walks export_graph: 20001\^1 vertices per colour "
                       r"exceed cap 10000$"):
        graph_of(chebyshev, 20001).adjacency()
    assert time.process_time() - start < 1
    assert len(graph_of(chebyshev, 10**4).adjacency()["black"]) == 10**4


# -- the dimer bridge (Kenyon, Okounkov and Sheffield, Ann. Math. 2006) ----------


def perfect_matchings(G):
    """The weighted count of perfect matchings of G's export, by backtracking over the
    edges of each black vertex in turn, each to a white vertex not yet matched."""
    edges = {}
    for e in table_rows(G.adjacency()["edges"]):
        edges.setdefault(tuple(e["from"]), []).append((tuple(e["to"]), e["weight"]))
    black = list(edges.values())

    def count(i, used):
        if i == len(black):
            return 1
        return sum(w * count(i + 1, used | {to}) for to, w in black[i] if to not in used)

    return count(0, frozenset())


def twisted_determinants(ctx, N):
    """|D_N(u, v)|, u, v = +-1, for D_N(u, v) the product of P(x, y) over x^N = u and
    y^N = v, P = sum c_a x^a1 y^a2 over the anchored lattice coordinates of the points:
    each from complex products, within 1e-6 of its integer, and rounded to it."""
    terms = list(zip(anchored_coords(ctx.ps, ctx.basis), (c for _, c in ctx.ps.points)))
    dets = []
    for u, v in itertools.product((1, -1), repeat=2):
        xs, ys = ([cmath.exp(1j * math.pi * (2 * k + (s < 0)) / N) for k in range(N)]
                  for s in (u, v))
        D = math.prod(sum(c * x**a * y**b for (a, b), c in terms) for x in xs for y in ys)
        assert abs(abs(D) - round(abs(D))) < 1e-6
        dets.append(round(abs(D)))
    return dets


HONEYCOMB_MATCHINGS = {1: 3, 2: 9, 3: 42, 4: 417}


@pytest.mark.parametrize("N", HONEYCOMB_MATCHINGS)
def test_honeycomb_perfect_matchings(honeycomb_ctx, N):
    G = build_graph(honeycomb_ctx.ps, honeycomb_ctx.basis, N)
    assert perfect_matchings(G) == HONEYCOMB_MATCHINGS[N]


@pytest.mark.parametrize("N", HONEYCOMB_MATCHINGS)
def test_honeycomb_matchings_are_half_the_twisted_determinants(honeycomb_ctx, N):
    # Z = (1/2) sum over u, v = +-1 of |D_N(u, v)|: the honeycomb needs no Kasteleyn signs
    assert sum(twisted_determinants(honeycomb_ctx, N)) == 2 * HONEYCOMB_MATCHINGS[N]


@pytest.mark.parametrize("N", HONEYCOMB_MATCHINGS)
def test_twisted_determinants_square_to_b_2N_at_0(honeycomb_ctx, N):
    # the 2N-torsion characters split by (x^N, y^N), and b_2N(0) is +- the product of
    # W = |P|^2 over them; 0 at N = 3, where 1 + w + w^2 = 0 at a cube root of unity w
    b = honeycomb_ctx.spectral_factors(2 * N)
    assert math.prod(twisted_determinants(honeycomb_ctx, N)) ** 2 == abs(factored_value(b, 0))


# -- the bridge property on random weighted sets --------------------------------


@st.composite
def sets_avoiding_their_lattice(draw):
    """A weighted 1-3-D set a0 + L0 that avoids its difference lattice L.

    L is drawn as a Hermite basis with a diagonal entry d_j >= 2, and a0 as
    t e_j plus a lattice vector, 0 < t < d_j: substitution on a0 - t e_j stops
    at entry j, so a0 is not in L.  The points a0 + r_i, r_i the rows, make
    the differences span all of L; up to two more points lie in a0 + L too."""
    n = draw(st.integers(1, 3))
    j = draw(st.integers(0, n - 1))
    diag = [draw(st.integers(2, 3)) if i == j else draw(st.integers(1, 3)) for i in range(n)]
    rows = [[0] * i + [diag[i]] + [draw(st.integers(-2, 2)) for _ in range(n - i - 1)]
            for i in range(n)]
    small = st.lists(st.integers(-1, 1), min_size=n, max_size=n)

    def in_lattice(lam):
        return [sum(c * r[k] for c, r in zip(lam, rows)) for k in range(n)]

    t = draw(st.integers(1, diag[j] - 1))
    a0 = [x + t * (k == j) for k, x in enumerate(in_lattice(draw(small)))]
    offsets = [[0] * n, *rows, *(in_lattice(draw(small)) for _ in range(draw(st.integers(0, 2))))]
    points = list(dict.fromkeys(tuple(x + y for x, y in zip(a0, off)) for off in offsets))
    points = draw(st.permutations(points))
    return WeightedPointSet(n, tuple((a, draw(st.integers(1, 3))) for a in points))


@settings(max_examples=100)
@given(sets_avoiding_their_lattice(), st.integers(1, 4))
def test_bridge_property(ps, N):
    # the Newton sums s_k of b_N, read from its factors as
    # sum_{d,j} j newton_sums(g_{d,j})[k], equal N^n m_k(N), the based walk
    # totals and the float power sums of the character values; and
    # b_N(0) = +-(prod_chi P(chi))**2, W = |P|**2 for the amplitude P
    K, ctx = 4, SpectralContext(ps)
    b, n = ctx.spectral_factors(N), ps.dimension
    sums = [[j * s for s in newton_sums(p, K)] for (_, j), p in b.factors.items()]
    newton = [sum(ss) for ss in zip(*sums)]
    assert newton == [N**n * m for m in moment_sequence_N(ctx.w, K, N)[1:]]
    G = build_graph(ps, ctx.basis, N)
    assert newton == [walk_total(G, k) for k in range(1, K + 1)]
    values = character_values(ctx.w, N)
    for k, s in enumerate(newton, 1):
        assert math.isclose(float((values**k).sum()), s, rel_tol=1e-9)
    value = abs(int(factored_value(b, 0)))
    assert math.isqrt(value) ** 2 == value
