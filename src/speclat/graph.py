"""Torus quotients of the periodic bipartite graph of a point set.

Black vertices are the residues of the difference lattice mod N; white
vertices are the (single) folded coset of the point set.  Each black vertex
sends one typed edge per point, weighted by that point's weight.  A
closed walk alternates black-to-white and white-to-black steps, so a walk
of length 2k is a sequence of k type pairs whose difference sum folds to
zero.  Those sequences are enumerated literally (no matrix, torus or
convolution shortcut), so they provide the independent count that the
convolution traces are checked against: a sequence of k pairs closes iff
its halves of floor(k/2) and ceil(k/2) pairs have opposite displacements,
so one pass over about P^ceil(K/2) halves (P type pairs, read from the
points) reads every length k <= K, while the walk cap counts all P^K
sequences.  The series check compares totals already enumerated with the
Newton sums of the factors of a b_N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import limits
from .errors import CosetViolation, SizeLimit
from .lattice import LatticeBasis, WeightedPointSet, anchored_coords, disjointness_check
from .limits import MAX_WALK_LEVEL
from .moments import newton_sums
from .specpoly import SpectralFactors
from .table import Table


@dataclass(frozen=True)
class TorusBipartiteGraph:
    """Level-N quotient graph, held as its points ((offset from the first, in lattice
    coordinates), weight): edge type t runs black v -> white v + offset_t mod N with
    weight c_t, and ``walk_totals`` reads the walks' type pairs from the points."""

    N: int
    dimension: int
    points: tuple[tuple[tuple[int, ...], int], ...]

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
    points = tuple(zip(anchored_coords(ps, basis), (c for _, c in ps.points)))
    return TorusBipartiteGraph(N, ps.dimension, points)


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


def walk_totals(G: TorusBipartiteGraph, K: int) -> list[int]:
    """[t_1, ..., t_K]: t_k is the total weight of based closed walks of length 2k,
    all start vertices, each type sequence joined from two halves (meet in the
    middle); t_K alone is ``walk_totals(G, K)[-1]``.  The P^2 type pairs (a, b) of
    the graph's P points, in ``itertools.product`` order, step by a - b mod N with
    weight c_a c_b.  The halves of 0 to ceil(K/2) pairs are tabled once, each table
    extended from the last by one pair and sorted by folded displacement with a
    running weight sum, and each head of floor(k/2) pairs reads the weight of the
    tails at minus its displacement by a binary search.  Weights are int64 while the
    weight total of all P^2K sequences fits, Python integers above.  Translation
    invariance contributes the factor of N^n start vertices.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    check_walk_cap(len(G.points) ** 2, K)
    N, n = G.N, G.dimension
    offsets = np.array([[x % N for x in a] for a, _ in G.points], dtype=np.int64)
    deltas = ((offsets[:, None, :] - offsets[None, :, :]) % N).reshape(-1, n)
    # each pair weight and every partial total is at most (sum c)^(2 max(K, 1))
    fits_int64 = sum(c for _, c in G.points) ** (2 * max(K, 1)) < 2**63
    w = np.array([c for _, c in G.points], dtype=np.int64 if fits_int64 else object)
    weights = np.multiply.outer(w, w).reshape(-1)
    row = np.dtype((np.void, 8 * n))  # a displacement row as one sortable key
    disp, prod = np.zeros((1, n), dtype=np.int64), np.ones(1, dtype=weights.dtype)
    heads, tails = [], []  # by length: (displacements, weights), (sorted keys, running sums)
    for length in range((K + 1) // 2 + 1):
        if length:
            disp = ((disp[:, None, :] + deltas[None, :, :]) % N).reshape(-1, n)
            prod = (prod[:, None] * weights[None, :]).reshape(-1)
        heads.append((disp, prod))
        order = np.argsort(disp.view(row).ravel())
        running = np.zeros(len(prod) + 1, dtype=prod.dtype)
        np.cumsum(prod[order], out=running[1:])
        tails.append((disp[order].view(row).ravel(), running))
    totals = []
    for k in range(1, K + 1):
        (disp, prod), (keys, running) = heads[k // 2], tails[k - k // 2]
        want = (-disp % N).view(row).ravel()
        closing = running[keys.searchsorted(want, "right")] - running[keys.searchsorted(want)]
        totals.append(int((prod * closing).sum()) * N**n)
    return totals


def walk_series_check(b: SpectralFactors, totals: list[int]) -> bool:
    """Closed walks are the Newton sums of b_N = prod g_{d,j}**j: t_k, the based
    walk total of length 2k, is the k-th power sum of b_N's roots at each
    k <= K = len(totals), the sum over d and j of j ``newton_sums(g_{d,j}, K)``[k]."""
    K = len(totals)
    sums = [[j * s for s in newton_sums(p, K)] for (_, j), p in b.factors.items()]
    return all(t == sum(ss) for t, *ss in zip(totals, *sums))
