"""Sparse multivariate Laurent polynomials over Python integers.

Exponents are lattice coordinates (tuples of ints, negative allowed);
coefficients are arbitrary-precision integers.  The central object is the
squared-diffraction polynomial of a weighted point set: the sum of
c_a * c_b over all ordered point pairs, attached to the lattice coordinates
of a - b.  Folding exponents modulo N turns multiplication into convolution
on the N-fold torsion quotient, which is how all the finite spectra and the
level-N moments are computed.  Exact moments need no fold: the powers are
expanded on boxes that grow from the origin, and only half of them are
needed, since CT(g*h) = sum_v g_v * h_{-v}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .lattice import LatticeBasis, WeightedPointSet, to_lattice_coords

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
    coordinates of a - b.  All coefficients are positive, the polynomial is
    palindromic, and its value at the all-ones point is total_weight**2.
    """
    terms: dict[Exponent, int] = {}
    for (a, ca), (b, cb) in itertools.product(ps.points, repeat=2):
        diff = tuple(x - y for x, y in zip(a, b))
        e = to_lattice_coords(diff, basis)
        terms[e] = terms.get(e, 0) + ca * cb
    return LaurentPoly(ps.dimension, terms)


def constant_term(f: LaurentPoly) -> int:
    return f.terms.get((0,) * f.dimension, 0)


def fold_mod_N(f: LaurentPoly, N: int) -> LaurentPoly:
    """Reduce exponents componentwise mod N, summing colliding coefficients."""
    if N < 1:
        raise ValueError("N must be >= 1")
    out: dict[Exponent, int] = {}
    for e, c in f.terms.items():
        r = tuple(x % N for x in e)
        out[r] = out.get(r, 0) + c
    return LaurentPoly(f.dimension, out)


# -- moment sweeps --------------------------------------------------------------
#
# Powers of f are dense coefficient arrays, exact with dtype=object (Python
# ints) or int64 under a small coefficient modulus; multiplying by f is one
# shifted add per term.  m_{2j+1} = CT(f^j * f^(j+1)) and
# m_{2j+2} = CT(f^(j+1) * f^(j+1)), so m_0..m_K need f^0 .. f^ceil(K/2).


def _kernel(f: LaurentPoly, coeff_mod: int | None):
    # residues below 2**15: products stay below 2**30, and a sum of them
    # reaches 2**63 only over 2**33 cells
    dtype = np.int64 if coeff_mod is not None and 1 < coeff_mod <= 2**15 else object
    terms = f.sorted_terms()
    if coeff_mod is not None:
        terms = [(e, c % coeff_mod) for e, c in terms if c % coeff_mod]
    return terms, dtype


def _half_power_moments(K: int, unit: np.ndarray, step, pair, coeff_mod: int | None) -> list[int]:
    """m_0..m_K (mod ``coeff_mod``) from f^0 = ``unit`` and f^(j+1) =
    ``step(f^j, j)``, where ``pair(g, a, h, b)`` is CT(g*h) for g = f^a,
    h = f^b and a <= b."""
    out = [pair(unit, 0, unit, 0)]
    prev = unit
    for j in range((K + 1) // 2):
        cur = step(prev, j)
        if coeff_mod is not None:
            cur %= coeff_mod
        out.append(pair(prev, j, cur, j + 1))
        if 2 * j + 2 <= K:
            out.append(pair(cur, j + 1, cur, j + 1))
        prev = cur
    return out if coeff_mod is None else [m % coeff_mod for m in out]


def _moment_sweep(f: LaurentPoly, K: int, coeff_mod: int | None = None) -> list[int]:
    """Exact constant terms of f**k for k = 0..K (reduced mod ``coeff_mod``).

    f^j lives on the box -j*r .. j*r, r the largest |exponent| per axis
    (the bounding box of f^j when f is palindromic): index i stands for
    exponent i - j*r.
    """
    kernel, dtype = _kernel(f, coeff_mod)
    n = f.dimension
    r = [max((abs(e[i]) for e, _ in kernel), default=0) for i in range(n)]

    def step(prev, j):
        cur = np.zeros(tuple(2 * (j + 1) * ri + 1 for ri in r), dtype=dtype)
        for e, c in kernel:
            window = cur[tuple(slice(x + ri, x + ri + m) for x, ri, m in zip(e, r, prev.shape))]
            window += prev if c == 1 else prev * c
        return cur

    def pair(g, a, h, b):
        # for a <= b: h_{-v} on g's box is the reversed central part of h
        centre = tuple(slice((b - a) * ri, (b + a) * ri + 1) for ri in r)
        return int((g * h[centre][(slice(None, None, -1),) * n]).sum())

    return _half_power_moments(K, np.ones((1,) * n, dtype=dtype), step, pair, coeff_mod)


def folded_power_sweep(
    f: LaurentPoly, K: int, N: int, coeff_mod: int | None = None
) -> list[int]:
    """Constant-residue coefficients of f**k folded mod N, for k = 0..K.

    The folded powers are cyclic N^n arrays; multiplying by f is one
    np.roll per term of the folded kernel, and the residue-0 coefficient of
    A*B is sum_r A_r * B_{-r mod N}.
    """
    kernel, dtype = _kernel(fold_mod_N(f, N), coeff_mod)
    axes = tuple(range(f.dimension))
    unit = np.zeros((N,) * f.dimension, dtype=dtype)
    unit[(0,) * f.dimension] = 1

    def step(prev, j):
        cur = np.zeros_like(prev)
        for e, c in kernel:
            shifted = np.roll(prev, e, axis=axes)
            cur += shifted if c == 1 else shifted * c
        return cur

    def pair(g, a, h, b):
        # h[-r mod N] along every axis: reverse, then shift index 0 back home
        reflected = np.roll(h[(slice(None, None, -1),) * h.ndim], 1, axis=axes)
        return int((g * reflected).sum())

    return _half_power_moments(K, unit, step, pair, coeff_mod)
