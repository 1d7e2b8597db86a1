"""Sparse multivariate Laurent polynomials over Python integers.

Exponents are lattice coordinates (tuples of ints, negative allowed);
coefficients are arbitrary-precision integers.  The central object is the
squared-diffraction polynomial of a weighted point set: the sum of
c_a * c_b over all ordered point pairs, attached to the lattice coordinates
of a - b.  Folded mod N, its values at the N-torsion characters are the
level-N spectrum, from which ``specpoly`` reads b_N and every moment.
Here live the tight unimodular coordinates that the exact moments and the
congruence sweep of ``moments`` read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .lattice import LatticeBasis, WeightedPointSet, anchored_coords

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class LaurentPoly:
    """Immutable sparse Laurent polynomial; zero coefficients never stored."""

    dimension: int
    terms: Mapping[Exponent, int]

    def __post_init__(self):
        clean = {}
        for e, c in self.terms.items():
            e = tuple(int(x) for x in e)
            if len(e) != self.dimension:
                raise ValueError(f"exponent {e} has wrong dimension")
            c = int(c)
            if c:
                clean[e] = c
        object.__setattr__(self, "terms", clean)

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        return sorted(self.terms.items())


def diffraction_polynomial(ps: WeightedPointSet, basis: LatticeBasis) -> LaurentPoly:
    """Squared diffraction amplitude of the point set, written on the basis.

    Term for each ordered pair (a, b): coefficient c_a * c_b at the lattice
    coordinates of a - b, the difference of the points' anchored
    coordinates (one solve per point).  All coefficients are positive, the polynomial is
    palindromic, and its value at the all-ones point is total_weight**2.
    """
    terms: dict[Exponent, int] = {}
    weighted = zip(anchored_coords(ps, basis), (c for _, c in ps.points))
    for (a, ca), (b, cb) in itertools.product(weighted, repeat=2):
        e = tuple(x - y for x, y in zip(a, b))
        terms[e] = terms.get(e, 0) + ca * cb
    return LaurentPoly(ps.dimension, terms)


def fold_mod_N(f: LaurentPoly, N: int) -> LaurentPoly:
    """Reduce exponents componentwise mod N, summing colliding coefficients."""
    if N < 1:
        raise ValueError("N must be >= 1")
    out: dict[Exponent, int] = {}
    for e, c in f.terms.items():
        r = tuple(x % N for x in e)
        out[r] = out.get(r, 0) + c
    return LaurentPoly(f.dimension, out)


# -- tight coordinates ---------------------------------------------------------


def _tight_coordinates(exponents: np.ndarray) -> np.ndarray:
    """Unimodular U shrinking the reach max_e |u_i·e| of each row u_i over the rows e
    of ``exponents``: from the identity, replace u_i by u_i ± u_j, the largest drop
    first, while one lowers it; after 256 steps (a skew set {0, e_1, b e_1 + e_2} takes
    b), by u_i ± t u_j for the last t, found bit by bit, at which the reach (convex in
    t) drops.  As |u_i·e| <= R, the largest |exponent|, every sum formed is below
    n R (4 R + 1) |U|: int64 while that is below 2^63."""
    n, R = exponents.shape[1], int(np.abs(exponents).max(initial=0))
    E, U = exponents, np.eye(n, dtype=object)
    for steps in itertools.count():
        dtype = np.int64 if n * R * (4 * R + 1) * int(np.abs(U).max()) < 2**63 else object
        if U.dtype != dtype:
            E, U = exponents.astype(dtype), U.astype(dtype)
        reach = lambda u: np.abs(E @ u).max(initial=0)
        Y = E @ U.T
        moved = np.stack([Y[:, :, None] + Y[:, None, :], Y[:, :, None] - Y[:, None, :]])
        gain = np.abs(Y).max(axis=0, initial=0)[:, None] - np.abs(moved).max(axis=1, initial=0)
        gain[:, range(n), range(n)] = 0  # [sign, i, j]
        s, i, j = np.unravel_index(gain.argmax(), gain.shape)
        if gain[s, i, j] <= 0:
            return U
        step, t = int(1 - 2 * s) * U[j], 1
        for b in reversed(range(R.bit_length() + 1 if steps >= 256 else 0)):
            if reach(U[i] + (t + 2**b) * step) < reach(U[i] + (t + 2**b - 1) * step):
                t += 2**b
        U[i] += t * step


def _tight_form(f: LaurentPoly) -> tuple[LaurentPoly, list[int]]:
    """f with each exponent e as U·e (``_tight_coordinates``), and its reach per axis."""
    exponents = np.array(list(f.terms), dtype=object).reshape(-1, f.dimension)
    tight = exponents @ _tight_coordinates(exponents).T  # in Python integers
    form = LaurentPoly(f.dimension, dict(zip(map(tuple, tight.tolist()), f.terms.values())))
    return form, np.abs(tight).max(axis=0, initial=0).tolist()
