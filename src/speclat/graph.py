"""Torus quotients of the periodic bipartite graph of a point set.

Black vertices are the residues of the difference lattice mod N; white
vertices are the (single) folded coset of the point set.  Each black vertex
sends one typed edge per point, weighted by that point's weight; the edge
list is generated on access, since only the adjacency export reads it.  A
closed walk alternates black-to-white and white-to-black steps, so a walk
of length 2k is a sequence of k type pairs whose difference sum folds to
zero.  Those sequences are enumerated literally (no matrix, torus or
convolution shortcut), so they provide the independent count that the
convolution traces are checked against: numpy holds the folded
displacements and weight products of all suffixes (up to 2^16 of them),
and each prefix tests them all at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .context import SpectralContext
from .errors import CosetViolation, ExplosionGuard
from .lattice import LatticeBasis, WeightedPointSet, disjointness_check, to_lattice_coords
from .moments import poly_log_series

DEFAULT_WALK_CAP = 10**8
SUFFIX_ROWS = 2**16  # most type sequences held in one suffix table


@dataclass(frozen=True)
class TorusBipartiteGraph:
    """Level-N quotient graph.  Vertices are lattice-coordinate tuples;
    edges run black -> white and carry the type (index of the point) and
    its weight."""

    N: int
    dimension: int
    points: tuple[tuple[tuple[int, ...], int], ...]
    pair_deltas: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def edges(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int, int], ...]:
        """(black, white, type, weight) for every typed edge."""
        return tuple(
            (v, tuple((x + y) % self.N for x, y in zip(v, off)), t, c)
            for v in _residues(self.dimension, self.N)
            for t, (off, c) in enumerate(self.points)
        )

    def adjacency(self) -> dict:
        """JSON-ready adjacency description for external visualization."""
        return {
            "N": self.N,
            "dimension": self.dimension,
            "black": [list(v) for v in _residues(self.dimension, self.N)],
            "white": [list(v) for v in _residues(self.dimension, self.N)],
            "edges": [
                {
                    "from": list(b),
                    "to": list(w),
                    "type": t,
                    "weight": c,
                }
                for b, w, t, c in self.edges
            ],
        }


def _residues(n: int, N: int):
    return itertools.product(range(N), repeat=n)


def build_graph(
    ps: WeightedPointSet, basis: LatticeBasis, N: int
) -> TorusBipartiteGraph:
    """Quotient graph at level N; requires the point set to avoid its own
    difference lattice (otherwise black and white vertices collide)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not disjointness_check(ps, basis):
        raise CosetViolation("point set meets its difference lattice")
    anchor = ps.points[0][0]
    # offsets of each point against the anchor, in lattice coordinates
    offsets = []
    for a, c in ps.points:
        rel = tuple(x - y for x, y in zip(a, anchor))
        offsets.append((to_lattice_coords(rel, basis), c))
    pair_deltas = []
    for (a, ca), (b, cb) in itertools.product(ps.points, repeat=2):
        diff = tuple(x - y for x, y in zip(a, b))
        pair_deltas.append((to_lattice_coords(diff, basis), ca * cb))
    return TorusBipartiteGraph(N, ps.dimension, tuple(offsets), tuple(pair_deltas))


def check_walk_cap(npairs: int, k: int, cap: int = DEFAULT_WALK_CAP) -> None:
    """Raise ExplosionGuard when the npairs**k type sequences of walks of
    length 2k exceed the cap."""
    if npairs**k > cap:
        raise ExplosionGuard(f"{npairs}**{k} type sequences exceed the cap {cap}")


def _sequence_table(deltas: np.ndarray, weights: np.ndarray, length: int, N: int):
    """Folded displacement sums (one column per sequence, one row per
    axis) and weight products of every type-pair sequence of the given
    length; ``deltas`` holds one column per type pair."""
    disp = np.zeros((deltas.shape[0], 1), dtype=np.int64)
    prod = np.ones(1, dtype=weights.dtype)
    for _ in range(length):
        disp = ((disp[:, :, None] + deltas[:, None, :]) % N).reshape(deltas.shape[0], -1)
        prod = (prod[:, None] * weights[None, :]).reshape(-1)
    return disp, prod


def based_walk_weight_sum(
    G: TorusBipartiteGraph, k: int, cap: int = DEFAULT_WALK_CAP
) -> int:
    """Total weight of based closed walks of length 2k, all start vertices.

    Literal enumeration over all k-sequences of (out-type, back-type)
    pairs; a sequence closes iff its folded displacement sum vanishes.
    Each sequence is a prefix of k - s pairs and a suffix of s pairs, with
    s as large as P^s <= 2^16 allows (P the number of type pairs): every
    prefix tests the whole suffix table at once, closing exactly with the
    suffixes whose displacement is minus its own.  Weights are int64
    while the weight total of all P^k sequences fits, Python integers
    above.  Translation invariance contributes the factor of N^n start
    vertices.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    npairs = len(G.pair_deltas)
    check_walk_cap(npairs, k, cap)
    N, n = G.N, G.dimension
    deltas = np.array([[d[j] % N for d, _ in G.pair_deltas] for j in range(n)], dtype=np.int64)
    # every partial total is at most the weight total of all P^k sequences
    fits_int64 = sum(w for _, w in G.pair_deltas) ** k < 2**63
    weights = np.array([w for _, w in G.pair_deltas], dtype=np.int64 if fits_int64 else object)
    s = 1
    while s < k and npairs ** (s + 1) <= SUFFIX_ROWS:
        s += 1
    tail_disp, tail_prod = _sequence_table(deltas, weights, s, N)
    head_disp, head_prod = _sequence_table(deltas, weights, k - s, N)
    total = 0
    for want, weight in zip(-head_disp.T % N, head_prod):
        closed = (tail_disp == want[:, None]).all(axis=0)
        total += int(weight) * int(tail_prod[closed].sum())
    return total * N**n


def walk_series_check(
    ctx: SpectralContext, N: int, z: int, K: int, cap: int = DEFAULT_WALK_CAP
) -> bool:
    """Closed walks reproduce the log expansion of the spectral polynomial.

    Left side: the formal log of p(z)/z^deg for the exact level-N
    polynomial, as a series in 1/z.  Right side: -(walk total)/k at each
    order k <= K.  Both sides exact rationals; z only gates the usual
    convergence region.
    """
    C = ctx.ps.total_weight
    if z <= C * C:
        raise ValueError(f"z must exceed the spectrum top {C * C}")
    G = build_graph(ctx.ps, ctx.basis, N)
    p = ctx.spectral_polynomial(N)
    logs = poly_log_series(p, K)
    for k in range(1, K + 1):
        walks = based_walk_weight_sum(G, k, cap)
        if logs[k - 1] != Fraction(-walks, k):
            return False
    return True
