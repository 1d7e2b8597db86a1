"""Torus quotients of the periodic bipartite graph of a point set.

Black vertices are the residues of the difference lattice mod N; white
vertices are the (single) folded coset of the point set.  Each black vertex
sends one typed edge per point, weighted by that point's weight.  A
closed walk alternates black-to-white and white-to-black steps, so a walk
of length 2k is a sequence of k type pairs whose difference sum folds to
zero.  Those sequences are enumerated literally (no matrix, torus or
convolution shortcut), so they provide the independent count that the
convolution traces are checked against: numpy holds the folded
displacements and weight products of all suffixes (up to 2^16 of them),
and each prefix tests them all at once.  The series check compares totals
already enumerated with the Newton sums of the factors of a b_N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import limits
from .errors import CosetViolation, SizeLimit
from .lattice import LatticeBasis, WeightedPointSet, anchored_coords, disjointness_check
from .limits import MAX_WALK_LEVEL
from .moments import newton_sums
from .specpoly import SpectralFactors
from .table import Table

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

    def adjacency(self) -> dict:
        """Adjacency description for external visualization, which ``table.record_parts``
        writes: tables of the residues mod N and of the edges v -> v + offset_t, each v,
        each t.  Raises SizeLimit before any work past the export cap (``check_export_cap``)."""
        n, N, P = self.dimension, self.N, len(self.points)
        check_export_cap(N, n)
        black = np.indices((N,) * n).reshape(n, -1)
        offsets = np.array([[x % N for x in off] for off, _ in self.points])
        white = (black[:, :, None] + offsets.T[:, None, :]) % N  # axis, vertex, type
        vertices = Table([...] * n, tuple(black.tolist()))
        weights = [c for _, c in self.points]
        edges = Table(
            {"from": [...] * n, "to": [...] * n, "type": ..., "weight": ...},
            (*np.repeat(black, P, axis=1).tolist(), *white.reshape(n, -1).tolist(),
             list(range(P)) * N**n, weights * N**n),
        )
        return {"N": N, "dimension": n, "black": vertices, "white": vertices, "edges": edges}


def build_graph(
    ps: WeightedPointSet, basis: LatticeBasis, N: int
) -> TorusBipartiteGraph:
    """Quotient graph at level N; requires the point set to avoid its own
    difference lattice (otherwise black and white vertices collide)."""
    if not 1 <= N <= MAX_WALK_LEVEL:
        raise ValueError(f"N must be from 1 to 2^62, got {N}")
    if not disjointness_check(ps, basis):
        raise CosetViolation("point set meets its difference lattice")
    # offsets of each point against the first, in lattice coordinates
    offsets = tuple(zip(anchored_coords(ps, basis), (c for _, c in ps.points)))
    pair_deltas = tuple(
        (tuple(x - y for x, y in zip(a, b)), ca * cb)
        for (a, ca), (b, cb) in itertools.product(offsets, repeat=2)
    )
    return TorusBipartiteGraph(N, ps.dimension, offsets, pair_deltas)


def check_walk_cap(npairs: int, k: int) -> None:
    """Raise SizeLimit when the npairs**k >= 2**k type sequences of walks
    of length 2k exceed ``limits.DEFAULT_WALK_CAP``."""
    if npairs ** min(k, (cap := limits.DEFAULT_WALK_CAP).bit_length()) > cap:
        raise SizeLimit(f"{npairs}**{k} type sequences exceed the cap {cap}")


def check_export_cap(N: int, n: int) -> None:
    """Raise SizeLimit when the N^n vertices of each colour of a level-N graph in n
    dimensions exceed ``limits.DEFAULT_SIZE_LIMIT``, the most an export lists."""
    if N**n > (cap := limits.DEFAULT_SIZE_LIMIT):
        raise SizeLimit(f"walks export_graph: {N}^{n} vertices per colour exceed cap {cap}")


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


def based_walk_weight_sum(G: TorusBipartiteGraph, k: int) -> int:
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
    check_walk_cap(npairs, k)
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


def walk_series_check(b: SpectralFactors, totals: list[int]) -> bool:
    """Closed walks are the Newton sums of b_N = prod_j g_j**j: t_k, the based
    walk total of length 2k, is the k-th power sum of b_N's roots at each
    k <= K = len(totals), the sum over j of j ``newton_sums(g_j, K)``[k]:
    b_N itself is never expanded."""
    K = len(totals)
    sums = [[j * s for s in newton_sums(p, K)] for j, p in b.factors.items()]
    return all(t == sum(ss) for t, *ss in zip(totals, *sums))
