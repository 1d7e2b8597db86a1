"""Spectral moments and their exact series expansions.

The k-th moment of a diffraction polynomial is the constant term of its
k-th power; the level-N moment is the constant-residue coefficient of the
k-th power folded mod N.  Both are read from half the powers: with
CT(g*h) = sum_v g_v * h_{-v}, m_{2j+1} pairs f^j with f^(j+1) and m_{2j+2}
pairs f^(j+1) with itself, so m_0..m_K take ceil(K/2) products.  Exact
powers live on unfolded boxes about the origin, which grow by the largest
exponent of f per side at each product; level-N powers live on the N^n
torus.

Everything in this module is exact: Python integers and Fractions only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import primes
from .catalog import chebyshev_point_set
from .errors import IntegralityViolation
from .lattice import difference_lattice
from .laurent import LaurentPoly, _moment_sweep, diffraction_polynomial, folded_power_sweep
from .specpoly import IntPolynomial, evaluate_at_integer, spectral_polynomial

Recurrence = Sequence[tuple[int, Sequence[int]]]


@dataclass(frozen=True)
class MomentSequence:
    """Moments m_0..m_K with a tag recording how they were obtained."""

    values: tuple[int, ...]
    source: str  # "constant-term" or "folded mod N"

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals or vals[0] != 1:
            raise ValueError("moment sequence must start with m_0 = 1")
        if any(v < 0 for v in vals):
            raise ValueError("moments are nonnegative")

    def __getitem__(self, k: int) -> int:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)


def moment_sequence(f: LaurentPoly, K: int) -> MomentSequence:
    """Exact moments m_0..m_K from the powers f^0 .. f^ceil(K/2)."""
    return MomentSequence(tuple(_moment_sweep(f, K)), "constant-term")


def moment_sequence_N(f: LaurentPoly, K: int, N: int) -> MomentSequence:
    """Level-N moments m_0..m_K: the averages of the powers of the character
    values, integers by construction (constant-residue coefficients of the
    folded powers)."""
    return MomentSequence(
        tuple(folded_power_sweep(f, K, N)), f"folded mod {N}"
    )


def check_congruence(f: LaurentPoly, p: int, k: int, alpha: int) -> bool:
    """True iff m_{k p^(alpha+1)} and m_{k p^alpha} agree mod p^(alpha+1).

    Guaranteed by the Frobenius congruence on the coefficients, so False
    signals an implementation bug, not bad input.  Both moments are
    computed modulo p^(alpha+1); that commutes with products.
    """
    if not primes.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 0 or alpha < 0:
        raise ValueError("k and alpha must be >= 0")
    if k == 0:
        return True
    modulus = p ** (alpha + 1)
    hi = k * p ** (alpha + 1)
    lo = k * p**alpha
    vals = _moment_sweep(f, hi, coeff_mod=modulus)
    return vals[hi] == vals[lo]


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
            raise IntegralityViolation(f"A_{k} = {Fraction(s, k)} is not an integer")
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


def _moment_values(moments) -> tuple[int, ...]:
    if isinstance(moments, MomentSequence):
        return moments.values
    vals = tuple(int(v) for v in moments)
    if not vals or vals[0] != 1:
        raise ValueError("moment list must start with m_0 = 1")
    return vals


def verify_recurrence(moments, rec: Recurrence) -> bool:
    """Check a linear recurrence with polynomial-in-k coefficients.

    ``rec`` is a sequence of (offset, poly) pairs, poly given by ascending
    integer coefficients in k; the claim is
    sum_j poly_j(k) * m_{k+offset_j} = 0 for every k where all the indices
    are in range.
    """
    m = _moment_values(moments)
    offsets = [off for off, _ in rec]
    lo, hi = min(offsets), max(offsets)
    for k in range(max(0, -lo), len(m) - hi):
        total = 0
        for off, poly in rec:
            pk = sum(c * k**i for i, c in enumerate(poly))
            total += pk * m[k + off]
        if total != 0:
            return False
    return True


# -- formal series of integer polynomials ---------------------------------------


def poly_log_series(p: IntPolynomial, K: int) -> list[Fraction]:
    """Coefficients g_1..g_K of log(p(z) / z^deg) as a series in 1/z.

    p must be monic; the reversed coefficient sequence is a power series
    with constant term 1 and g = log of it, computed by the exact
    quotient-rule recurrence.
    """
    if not p.is_monic:
        raise ValueError("polynomial must be monic")
    deg = p.degree
    f = [Fraction(p.coefficients[deg - j]) if j <= deg else Fraction(0) for j in range(K + 1)]
    g: list[Fraction] = [Fraction(0)]
    for k in range(1, K + 1):
        s = k * f[k] - sum(j * g[j] * f[k - j] for j in range(1, k))
        g.append(s / k)
    return g[1:]


def _series_inverse(c: list[Fraction], K: int) -> list[Fraction]:
    inv = [1 / c[0]]
    for k in range(1, K + 1):
        s = sum(c[j] * inv[k - j] for j in range(1, min(k, len(c) - 1) + 1))
        inv.append(-s / c[0])
    return inv


def chebyshev_generating_check(z: int, K: int) -> bool:
    """For the two-point line example: the spectral values at integer z,
    divided by the level, are the coefficients of
    -log(1 - (z - 4) T / (1 - T)^2), checked through order K exactly."""
    ps = chebyshev_point_set()
    w = diffraction_polynomial(ps, difference_lattice(ps))
    lhs = [
        Fraction(evaluate_at_integer(spectral_polynomial(w, N), z), N)
        for N in range(1, K + 1)
    ]
    # u(T) = (z-4) T / (1-T)^2, truncated
    inv_sq = _series_inverse([Fraction(1), Fraction(-2), Fraction(1)], K)
    u = [Fraction(0)] + [Fraction(z - 4) * c for c in inv_sq[:K]]
    # -log(1-u) = sum u^m / m
    rhs = [Fraction(0)] * (K + 1)
    upow = [Fraction(1)] + [Fraction(0)] * K
    for m in range(1, K + 1):
        nxt = [Fraction(0)] * (K + 1)
        for i, a in enumerate(upow):
            if a:
                for j in range(1, min(K - i, K) + 1):
                    nxt[i + j] += a * u[j]
        upow = nxt
        for i in range(K + 1):
            rhs[i] += upow[i] / m
    return lhs == rhs[1 : K + 1]
