"""Sparse multivariate Laurent polynomials over Python integers.

Exponents are lattice coordinates (tuples of ints, negative allowed);
coefficients are arbitrary-precision integers.  The central object is the
squared-diffraction polynomial of a weighted point set: the sum of
c_a * c_b over all ordered point pairs, attached to the lattice coordinates
of a - b.  Folded mod N, its values at the N-torsion characters are the
level-N spectrum, from which ``specpoly`` reads b_N and every moment.
Here live tight unimodular coordinates, and the one sweep over powers left:
constant terms of f**k modulo p^(alpha+1), for the congruence check.
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.dimension == other.dimension
            and dict(self.terms) == dict(other.terms)
        )

    def __hash__(self):
        return hash((self.dimension, tuple(self.sorted_terms())))


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


# -- tight coordinates, and the congruence sweep -------------------------------


def _tight_coordinates(exponents: np.ndarray) -> np.ndarray:
    """Unimodular U shrinking the reach max_e |u_i·e| of each row u_i over
    the rows e of ``exponents``: from the identity, replace u_i by
    u_i ± u_j, the largest drop first, while some replacement lowers it."""
    n = exponents.shape[1]
    U = np.eye(n, dtype=np.int64)
    while True:
        Y = exponents @ U.T
        moved = np.stack([Y[:, :, None] + Y[:, None, :], Y[:, :, None] - Y[:, None, :]])
        gain = np.abs(Y).max(axis=0, initial=0)[:, None] - np.abs(moved).max(axis=1, initial=0)
        gain[:, range(n), range(n)] = 0  # [sign, i, j]
        s, i, j = np.unravel_index(gain.argmax(), gain.shape)
        if gain[s, i, j] <= 0:
            return U
        U[i] += (1 - 2 * s) * U[j]


def _tight_form(f: LaurentPoly) -> LaurentPoly:
    """f with each exponent e as U·e, U unimodular from ``_tight_coordinates``."""
    exponents = np.array(list(f.terms), dtype=np.int64).reshape(-1, f.dimension)
    tight = exponents @ _tight_coordinates(exponents).T
    return LaurentPoly(f.dimension, dict(zip(map(tuple, tight.tolist()), f.terms.values())))


def _moment_sweep(f: LaurentPoly, K: int, coeff_mod: int) -> list[int]:
    """Constant terms of f**k modulo ``coeff_mod``, k = 0..K: with CT(g*h) = sum_v
    g_v h_{-v}, m_{2j+1} pairs f^j with f^(j+1), m_{2j+2} f^(j+1) with itself, each
    on the box -j*r .. j*r of ``_tight_form`` (r the largest |exponent| per axis).
    Residues below 2**15 are int64 (products below 2**30, over under 2**33 cells)."""
    n = f.dimension
    kernel = _tight_form(LaurentPoly(n, {e: c % coeff_mod for e, c in f.terms.items()}))
    r = [max((abs(e[i]) for e in kernel.terms), default=0) for i in range(n)]
    dtype = np.int64 if coeff_mod <= 2**15 else object

    def ct(g, h):  # CT(g*h), g on a box no larger than h's: the centre of h, reversed
        h = h[tuple(slice((y - x) // 2, (y + x) // 2) for x, y in zip(g.shape, h.shape))]
        return int((g * h[(slice(None, None, -1),) * n]).sum()) % coeff_mod

    out, prev = [1 % coeff_mod], np.ones((1,) * n, dtype=dtype)
    for j in range((K + 1) // 2):
        cur = np.zeros(tuple(2 * (j + 1) * ri + 1 for ri in r), dtype=dtype)
        for e, c in kernel.terms.items():  # cur[i] += c * prev[i - e - r]
            cur[tuple(slice(x + ri, x + ri + m) for x, ri, m in zip(e, r, prev.shape))] += prev * c
        cur %= coeff_mod
        out.append(ct(prev, cur))
        if 2 * j + 2 <= K:
            out.append(ct(cur, cur))
        prev = cur
    return out
