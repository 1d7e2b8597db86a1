"""The dimer bridge on the honeycomb (Kenyon, Okounkov and Sheffield, "Dimers
and amoebae", Ann. Math. 2006).

W = |P|^2 for the amplitude P = sum_a c_a x^(a - a0) on
``lattice.anchored_coords``.  The level-N torus graph of ``graph.build_graph``
is the honeycomb dimer model on an N x N torus, read off the four products
D_N(u, v) = prod_{x^N = u, y^N = v} P(x, y), u, v = +-1:

* the 2N-torsion characters are the four sets x^N = u, y^N = v, so
  prod_{u,v} |D_N(u, v)|^2 = prod_chi W(chi) = |b_2N(0)|;
* the graph has Z_N = 1/2 sum_{u,v} |D_N(u, v)| perfect matchings, counted
  here by backtracking over its black vertices.

D_N is a product of complex numbers, taken with mpmath at 60 digits, which
reaches N = 5 for the first identity; ``tests/test_graph.py`` checks both in
floats for N <= 4, counting the matchings of the graph's export.
"""

import functools
import itertools

import mpmath
import pytest

from speclat.graph import build_graph
from speclat.lattice import anchored_coords
from speclat.specpoly import factored_value

EPS = mpmath.mpf(10) ** -40


def amplitude_products(ctx, N):
    """[D_N(u, v) for u, v = +-1], at the working precision."""
    terms = list(zip(anchored_coords(ctx.ps, ctx.basis), (c for _, c in ctx.ps.points)))

    def roots(u):  # the x with x^N = u
        return [mpmath.expjpi(mpmath.mpf(2 * k + (u < 0)) / N) for k in range(N)]

    return [
        mpmath.fprod(sum(c * x**e1 * y**e2 for (e1, e2), c in terms)
                     for x in roots(u) for y in roots(v))
        for u, v in itertools.product((1, -1), repeat=2)
    ]


def perfect_matchings(G):
    """The weighted perfect matchings of G: each black vertex, in turn, takes an
    edge to a white vertex no earlier one took, the taken set memoised."""
    N = G.N
    blacks = list(itertools.product(range(N), repeat=G.dimension))
    index = {v: i for i, v in enumerate(blacks)}
    edges = [[(index[tuple((x + o) % N for x, o in zip(v, offset))], c) for offset, c in G.points]
             for v in blacks]

    @functools.lru_cache(maxsize=None)
    def count(i, taken):
        if i == len(blacks):
            return 1
        return sum(c * count(i + 1, taken | 1 << w) for w, c in edges[i] if not taken >> w & 1)

    return count(0, 0)


@pytest.mark.parametrize("N", range(1, 6))
def test_four_products_multiply_to_b_2N_at_0(honeycomb_ctx, N):
    # b_6(0) = 0: P(x, y) = 0 at a character of order 3, so D_3(1, 1) = 0
    with mpmath.workdps(60):
        product = mpmath.fprod(abs(d) ** 2 for d in amplitude_products(honeycomb_ctx, N))
        value = abs(int(factored_value(honeycomb_ctx.spectral_factors(2 * N), 0)))
        assert mpmath.almosteq(product, value, rel_eps=EPS, abs_eps=EPS)


@pytest.mark.parametrize("N, Z", [(1, 3), (2, 9), (3, 42), (4, 417)])
def test_matchings_are_half_the_four_products(honeycomb_ctx, N, Z):
    assert perfect_matchings(build_graph(honeycomb_ctx.ps, honeycomb_ctx.basis, N)) == Z
    with mpmath.workdps(60):
        assert abs(mpmath.fsum(map(abs, amplitude_products(honeycomb_ctx, N))) / 2 - Z) < EPS
