import json
from fractions import Fraction

import pytest

from speclat.errors import CosetViolation, ExplosionGuard
from speclat.cli import main
from speclat.graph import based_walk_weight_sum, build_graph, walk_series_check
from speclat.lattice import WeightedPointSet, difference_lattice
from speclat.laurent import diffraction_polynomial
from speclat.moments import moment_sequence_N
from speclat.specpoly import convolution_matrix


def graph_of(ps, N):
    return build_graph(ps, difference_lattice(ps), N)


def test_honeycomb_level3_counts(honeycomb):
    G = graph_of(honeycomb, 3)
    adj = G.adjacency()
    assert len(adj["black"]) == len(adj["white"]) == 9
    assert len(G.edges) == 27


def test_honeycomb_level1(honeycomb):
    G = graph_of(honeycomb, 1)
    assert G.adjacency()["black"] == [[0, 0]]
    assert len(G.edges) == 3
    # three parallel typed edges on the same vertex pair
    assert {(e[0], e[1]) for e in G.edges} == {((0, 0), (0, 0))}
    assert {e[2] for e in G.edges} == {0, 1, 2}


def test_degrees(honeycomb):
    G = graph_of(honeycomb, 2)
    out = {}
    inc = {}
    for b, w, _, _ in G.edges:
        out[b] = out.get(b, 0) + 1
        inc[w] = inc.get(w, 0) + 1
    assert set(out.values()) == {3}
    assert set(inc.values()) == {3}


def test_coset_violation():
    ps = WeightedPointSet(2, (((0, 0), 1), ((1, 0), 1), ((0, 1), 1)))
    with pytest.raises(CosetViolation):
        build_graph(ps, difference_lattice(ps), 2)


def test_walk_sums_honeycomb_k1(honeycomb):
    # only a == b closes for N >= 2, giving 3 walks per start vertex
    for N in (2, 3):
        G = graph_of(honeycomb, N)
        assert based_walk_weight_sum(G, 1) == 3 * N**2
    # at level 1 all nine type pairs close
    assert based_walk_weight_sum(graph_of(honeycomb, 1), 1) == 9


def test_walk_sum_cheb(chebyshev):
    G = graph_of(chebyshev, 2)
    # level-2 moment at k=2 is binom(4,0)+binom(4,2)+binom(4,4) = 8,
    # times the 2 start vertices
    assert based_walk_weight_sum(G, 2) == 2 * 8


def test_walk_sum_matches_trace_and_moments(honeycomb, chebyshev):
    for ps, n in ((honeycomb, 2), (chebyshev, 1)):
        w = diffraction_polynomial(ps, difference_lattice(ps))
        for N in (1, 2, 3):
            G = graph_of(ps, N)
            m = convolution_matrix(w, N)
            size = m.size
            acc = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
            for k in range(1, 5):
                acc = [
                    [
                        sum(acc[i][t] * m.rows[t][j] for t in range(size))
                        for j in range(size)
                    ]
                    for i in range(size)
                ]
                walks = based_walk_weight_sum(G, k)
                assert walks == sum(acc[i][i] for i in range(size))
                assert walks == N**n * moment_sequence_N(w, k, N)[k]


def test_walks_invariant_under_relabeling(honeycomb):
    shuffled = WeightedPointSet(2, (((0, 1), 1), ((-1, -1), 1), ((1, 0), 1)))
    for N, k in ((2, 3), (3, 2)):
        a = based_walk_weight_sum(graph_of(honeycomb, N), k)
        b = based_walk_weight_sum(graph_of(shuffled, N), k)
        assert a == b


def test_weighted_walks():
    ps = WeightedPointSet(1, (((-1,), 2), ((1,), 3)))
    G = graph_of(ps, 2)
    # k=1: closing pairs are (a,a) and (b,b): weights 4 + 9, times N^n = 2
    assert based_walk_weight_sum(G, 1) == 2 * 13


def test_explosion_guard(honeycomb):
    G = graph_of(honeycomb, 2)
    with pytest.raises(ExplosionGuard):
        based_walk_weight_sum(G, 5, cap=1000)


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
        total = based_walk_weight_sum(G, k)
        assert payload["walk_totals"][k - 1] == str(total)
        assert payload["per_class"][k - 1] == str(Fraction(total, k))


def test_walk_series_honeycomb(honeycomb_ctx):
    assert walk_series_check(honeycomb_ctx, 2, 10, 4)


def test_walk_series_cheb(cheb_ctx):
    assert walk_series_check(cheb_ctx, 3, 6, 5)


def test_walk_series_order_one_is_trace(cheb_ctx):
    assert walk_series_check(cheb_ctx, 4, 17, 1)


def test_walk_series_needs_large_z(honeycomb_ctx):
    with pytest.raises(ValueError):
        walk_series_check(honeycomb_ctx, 2, 9, 2)


def test_adjacency_export(honeycomb):
    G = graph_of(honeycomb, 2)
    adj = G.adjacency()
    assert adj["N"] == 2
    assert len(adj["black"]) == 4
    assert len(adj["edges"]) == 12
    e = adj["edges"][0]
    assert set(e) == {"from", "to", "type", "weight"}
