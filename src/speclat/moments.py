"""Spectral moments and their exact series expansions.

The level-N moment m_k(N) is the mean of W(chi)**k over the N-torsion
characters chi; m_k, the constant term of W**k, is that mean over the
characters of Z_N1 x ... x Z_Nn, each N_i > k * reach_i (tight coordinates),
where no nonzero exponent of W**k folds onto 0.  Both are character power
sums (``specpoly``); the congruence check sweeps powers mod p^(alpha+1).
Each is planned (``_moments``, exact or at a level, ``_congruence_sweep``)
before any work, for the public functions and the CLI alike: every cap
checked and the split moduli found, the plan returns the run, which raises
no SizeLimit.  ``newton_sums``, the power sums of a monic polynomial's
roots, serves the walk and generating-series checks.

Everything in this module is exact: Python integers and integer residue
arrays, and the moments are the tuples of integers the power sums give.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import limits, primes
from .errors import IntegralityViolation, SizeLimit
from .laurent import LaurentPoly, _tight_form
from .specpoly import _character_power_sums, check_level


def _series_cap(K: int) -> None:
    """Raise unless a moment list or sweep to k = K is within ``limits.DEFAULT_SERIES_CAP``."""
    if K > (cap := limits.DEFAULT_SERIES_CAP):
        raise SizeLimit(f"moments need a sweep past k = {cap}, the series cap")


def _moments(f: LaurentPoly, K: int, N: int | None = None) -> Callable[[], tuple[int, ...]]:
    """The run of m_0..m_K, exact or at level N >= 1, every cap of it checked and its split
    moduli found here, before any work: K >= 0 within the series cap, then at most
    ``limits.DEFAULT_FLOAT_CAP`` level cells N^n max(1, ceil(K/2)), a cost proxy, or exact
    characters, first (K + 1)^n, as every reach is at least 1, then the chosen shape."""
    n, cap = f.dimension, limits.DEFAULT_FLOAT_CAP
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    if N is not None and N < 1:
        raise ValueError("N must be >= 1")
    _series_cap(K)
    if N is not None and N**n * (steps := max(1, -(-K // 2))) > cap:
        raise SizeLimit(f"moments levels need {N}^{n} x {steps} cells, past the float cap {cap}")
    if N is None and (K + 1) ** n > cap:
        raise SizeLimit(f"moments to k = {K} need {K + 1}^{n} characters or more, past cap {cap}")
    if K == 0:  # one character, whatever the torus: m_0 = 1
        return lambda: (1,)
    g, shape = f, (N,) * n
    if N is None:
        g, reach = _tight_form(f)
        chain, M = [1] * n, 1
        for i in sorted(range(n), key=reach.__getitem__):
            M = chain[i] = M * -(-(K * reach[i] + 1) // M)
        shape = min(tuple(chain), (K * max(reach) + 1,) * n, key=math.prod)
        if (m := math.prod(shape)) > cap:
            raise SizeLimit(f"moments to k = {K} need {m} characters, past cap {cap}")
    run = _character_power_sums(g, K, shape)
    return lambda: tuple(run())


def moment_sequence(f: LaurentPoly, K: int) -> tuple[int, ...]:
    """Exact moments m_0..m_K: power sums over Z_N1 x ... x Z_Nn, N_i > K *
    reach_i, all equal or, if fewer characters, each a multiple of the last.
    Raises SizeLimit before any work (``_moments``), as the CLI does."""
    return _moments(f, K)()


def moment_sequence_N(f: LaurentPoly, K: int, N: int) -> tuple[int, ...]:
    """Level-N moments m_0..m_K: the averages of the powers of the character
    values, integers by construction (constant-residue coefficients of the
    folded powers).  Raises SizeLimit before any work (``_moments``), as the CLI does."""
    return _moments(f, K, N)()


def _congruence_sweep(f: LaurentPoly, p: int, k: int, alpha: int) -> Callable[[], bool]:
    """The sweep of one congruence to h = k p^(alpha+1) modulo q = p^(alpha+1), returned
    to run once every cap of it holds, each checked before any work: first h past
    ``limits.DEFAULT_SERIES_CAP``, refused before q is formed, then (h + 1)^n cells, then
    its largest box prod(2 ceil(h / 2) r_i + 1), r the tight reach of f mod q."""
    if not k:  # both sides are m_0: no sweep, and no cap
        return lambda: True
    n, cap = f.dimension, limits.DEFAULT_FLOAT_CAP
    # p >= 2: p^bit_length passes the cap, so the power is never formed past it
    _series_cap(k * p ** min(alpha + 1, limits.DEFAULT_SERIES_CAP.bit_length()))
    q = p ** (alpha + 1)
    h = k * q
    check_level(h + 1, n, cap, "cells of a moment sweep")
    kernel, r = _tight_form(LaurentPoly(n, {e: c % q for e, c in f.terms.items()}))
    if (cells := math.prod(2 * -(-h // 2) * ri + 1 for ri in r)) > cap:
        raise SizeLimit(f"a moment sweep to k = {h} needs {cells} cells, past cap {cap}")
    return lambda: (m := _moment_sweep(kernel, r, h, q))[h] == m[h // p]


def _moment_sweep(kernel: LaurentPoly, r: list[int], K: int, q: int) -> list[int]:
    """Constant terms of f**k modulo q, k = 0..K, from the kernel f mod q in tight
    form and its reach r: with CT(g*h) = sum_v g_v h_{-v}, m_{2j+1} pairs f^j with
    f^(j+1), m_{2j+2} f^(j+1) with itself, each on the box -j*r .. j*r.  Residues
    are int64: a congruence sweep has q <= K <= ``limits.DEFAULT_SERIES_CAP`` = 1024, so
    products stay below 2**20 and sums over at most 10**7 cells below 2**44."""

    def ct(g, h):  # CT(g*h), g on a box no larger than h's: the centre of h, reversed
        h = h[tuple(slice((y - x) // 2, (y + x) // 2) for x, y in zip(g.shape, h.shape))]
        return int((g * np.flip(h)).sum()) % q

    out, prev = [1], np.ones((1,) * kernel.dimension, dtype=np.int64)
    for j in range((K + 1) // 2):
        cur = np.zeros(tuple(2 * (j + 1) * ri + 1 for ri in r), dtype=np.int64)
        for e, c in kernel.terms.items():  # cur[i] += c * prev[i - e - r]
            cur[tuple(slice(x + ri, x + ri + m) for x, ri, m in zip(e, r, prev.shape))] += prev * c
        cur %= q
        out.append(ct(prev, cur))
        if 2 * j + 2 <= K:
            out.append(ct(cur, cur))
        prev = cur
    return out


def check_congruence(f: LaurentPoly, p: int, k: int, alpha: int) -> bool:
    """True iff m_{k p^(alpha+1)} and m_{k p^alpha} agree mod p^(alpha+1).

    Guaranteed by the Frobenius congruence on the coefficients, so False
    signals an implementation bug, not bad input.  Both moments are computed
    modulo p^(alpha+1), which commutes with products, by ``_congruence_sweep``,
    whose caps, the CLI's too, raise SizeLimit before any work: h = k p^(alpha+1)
    past the series cap of 1024 (the power unformed), (h + 1)^n or the tight box
    past 10**7 cells."""
    if not primes.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 0 or alpha < 0:
        raise ValueError("k and alpha must be >= 0")
    return _congruence_sweep(f, p, k, alpha)()


# -- series expansions ---------------------------------------------------------


def series_coefficients(moments) -> list[int]:
    """Integer coefficients A_1..A_{K-1} of the expansion of
    (1/z) * exp(sum m_k/k z^-k) as 1/z + sum A_k z^-k-1.

    Newton's recurrence k*A_k = sum_{j<=k} m_j A_{k-j} runs in integers;
    integrality is guaranteed and enforced at each division by k.
    """
    m = _moment_values(moments)
    K = len(m) - 1
    A = [1]
    for k in range(1, K):
        s = sum(m[j] * A[k - j] for j in range(1, k + 1))
        if s % k:
            raise IntegralityViolation(f"A_{k} = {s}/{k} is not an integer")
        A.append(s // k)
    return A[1:]


def product_exponents(moments) -> list[int]:
    """Integer exponents b_1..b_K with
    exp(sum m_k/k z^-k) = prod (1 - z^-k)^(-b_k):
    taking log of both sides gives sum_{d | k} d*b_d = m_k."""
    m = _moment_values(moments)
    K = len(m) - 1
    b: list[int] = []
    for k in range(1, K + 1):
        s = m[k] - sum(d * b[d - 1] for d in range(1, k) if k % d == 0)
        if s % k:
            raise IntegralityViolation(f"b_{k} = {s}/{k} is not an integer")
        b.append(s // k)
    return b


def newton_sums(p: tuple[int, ...], K: int) -> list[int]:
    """Power sums s_1..s_K of the roots of the monic integer polynomial p
    (coefficients low degree first), by Newton's identities
    s_k = -k a_k - sum_{j<k} a_j s_{k-j}, a_j the coefficient of z^(deg - j),
    0 past deg: integers throughout, no division."""
    if p[-1] != 1:
        raise ValueError("polynomial must be monic")
    deg = len(p) - 1
    a = [p[deg - j] if j <= deg else 0 for j in range(K + 1)]
    s = [0]
    for k in range(1, K + 1):
        s.append(-k * a[k] - sum(a[j] * s[k - j] for j in range(1, min(k, deg + 1))))
    return s[1:]


def _moment_values(moments) -> tuple[int, ...]:
    vals = tuple(int(v) for v in moments)
    if not vals or vals[0] != 1:
        raise ValueError("moment list must start with m_0 = 1")
    return vals
