"""Exact spectral polynomials of the torsion-level convolution operators.

For torsion level N the spectral polynomial b_N is the monic integer
polynomial of degree N^n with one root W(chi) for each N-torsion
character chi of the difference lattice.  It is computed here without
any matrix, from the characters themselves:

* take primes p = 1 (mod N), descending below 2**62; F_p then holds an
  element omega of exact order N, and the characters are
  k -> omega**(e.k) on the folded exponents e, so W(chi_k) mod p is a sum
  of powers of omega;
* multiply out b_N mod p as the product of (z - W(chi_k)) over all k,
  evaluating each exactly equal group of characters once;
* lift the residues by CRT until the prime product exceeds twice a
  certified coefficient bound.

The bound comes from the sign of the roots.  Every point a differs from a
fixed point a0 by a lattice vector, so
W(chi) = |sum_a c_a chi(a - a0)|**2 >= 0, and the roots have mean c0, the
constant term of W folded mod N.  Maclaurin's inequality for nonnegative
reals (Hardy, Littlewood and Polya, Inequalities, 2.22) then bounds the
coefficient of z**(N^n - j) by binom(N^n, j) * c0**j.  The result does not
depend on which primes were used.

The convolution matrix of the folded polynomial is kept for the walk/trace
bridge: its eigenvalues are the same character values.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import primes
from .errors import SingularLevel, SizeLimit
from .laurent import LaurentPoly, constant_term, fold_mod_N

DEFAULT_SIZE_LIMIT = 10_000


@dataclass(frozen=True)
class IntPolynomial:
    """Dense univariate polynomial over Python integers, low degree first."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = [int(c) for c in self.coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_monic(self) -> bool:
        return self.coefficients[-1] == 1

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    @staticmethod
    def from_roots(roots: Sequence[int]) -> "IntPolynomial":
        p = IntPolynomial((1,))
        for r in roots:
            p = p * IntPolynomial((-r, 1))
        return p


def evaluate_at_integer(p: IntPolynomial, z: int) -> int:
    """Horner evaluation, exact."""
    acc = 0
    for c in reversed(p.coefficients):
        acc = acc * z + c
    return acc


def divides(p: IntPolynomial, q: IntPolynomial) -> bool:
    """True iff the monic polynomial p divides q in Z[z]."""
    if not p.is_monic:
        raise ValueError("divisor must be monic")
    d = p.degree
    rem = list(q.coefficients)
    if len(rem) < d + 1:
        return not any(rem)
    for i in range(len(rem) - 1, d - 1, -1):
        f = rem[i]
        if f:
            for j in range(d + 1):
                rem[i - d + j] -= f * p.coefficients[j]
    return not any(rem[:d])


def integer_root_multiplicity(p: IntPolynomial, r: int) -> int:
    """Largest m with (z - r)^m dividing p."""
    coeffs = list(p.coefficients)
    mult = 0
    while len(coeffs) >= 2:
        # synthetic division by (z - r)
        quot = [0] * (len(coeffs) - 1)
        acc = 0
        for i in range(len(coeffs) - 1, 0, -1):
            acc = acc * r + coeffs[i]
            quot[i - 1] = acc
        if acc * r + coeffs[0] != 0:
            break
        mult += 1
        coeffs = quot
    return mult


@dataclass(frozen=True)
class ConvolutionMatrix:
    """Matrix of multiplication by a folded polynomial on the quotient
    residues (lexicographic order).  Symmetric with constant row sum when
    the polynomial is palindromic with positive coefficients."""

    N: int
    dimension: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.rows)


def convolution_matrix(
    folded: LaurentPoly, N: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> ConvolutionMatrix:
    """Entry (i, j) is the folded coefficient at residue rep_j - rep_i."""
    n = folded.dimension
    size = N**n
    if size > size_limit:
        raise SizeLimit(f"matrix size {size} exceeds cap {size_limit}")
    reps = list(itertools.product(range(N), repeat=n))
    coeffs = fold_mod_N(folded, N).terms
    rows = []
    for vi in reps:
        row = []
        for vj in reps:
            delta = tuple((x - y) % N for x, y in zip(vj, vi))
            row.append(coeffs.get(delta, 0))
        rows.append(tuple(row))
    return ConvolutionMatrix(N, n, tuple(rows))


# -- exact spectral polynomial by split primes ----------------------------------


def _character_rows(folded: LaurentPoly, N: int) -> Counter:
    """W at each N-torsion character k as the sparse row ((r, A_r), ...),
    A_r the sum of the c_e with e.k = r (mod N): W(chi_k) = sum_r A_r
    omega**r for omega of exact order N.  Counted by multiplicity; equal
    rows are equal values modulo every prime."""
    terms = folded.sorted_terms()
    rows: Counter = Counter()
    for k in itertools.product(range(N), repeat=folded.dimension):
        row: dict[int, int] = {}
        for e, c in terms:
            r = sum(x * y for x, y in zip(e, k)) % N
            row[r] = row.get(r, 0) + c
        rows[tuple(sorted(row.items()))] += 1
    return rows


def _maclaurin_bound(m: int, c0: int) -> int:
    """max_j binom(m, j) * c0**j: bounds |coefficient| of every monic
    degree-m polynomial whose m roots are nonnegative with mean c0."""
    best = term = 1
    for j in range(1, m + 1):
        term = term * (m - j + 1) * c0 // j  # binom(m, j) * c0**j, exact in order
        best = max(best, term)
    return best


def _split_prime_lift(
    folded: LaurentPoly, N: int, prime_start: int = 2**62
) -> IntPolynomial:
    """prod over the N-torsion characters chi of (z - W(chi)), exactly: the
    product of linear factors modulo primes p = 1 (mod N) descending below
    ``prime_start``, lifted by CRT to the symmetric residues."""
    m = N**folded.dimension
    rows = _character_rows(folded, N)
    # The roots are nonnegative: every point a differs from a fixed point a0
    # by a lattice vector, so W(chi) = sum_{a,b} c_a c_b chi(a - a0)
    # conj(chi(b - a0)) = |sum_a c_a chi(a - a0)|**2 >= 0.  Their mean is
    # trace / m = c0, the folded constant term, so Maclaurin's inequality
    # e_j / binom(m, j) <= (e_1 / m)**j bounds the coefficient e_j of
    # z**(m - j) by binom(m, j) * c0**j.
    need = 2 * _maclaurin_bound(m, constant_term(folded)) + 1
    lifted, mod = [0] * (m + 1), 1
    for p in primes.primes_below(prime_start, N):
        omega = primes.root_of_unity(N, p)
        powers = [pow(omega, r, p) for r in range(N)]
        poly = [1]  # low degree first
        for row, mult in rows.items():
            v = sum(a * powers[r] for r, a in row) % p
            for _ in range(mult):
                poly = [(a - v * b) % p for a, b in zip([0] + poly, poly + [0])]
        # incremental CRT
        inv = pow(mod, -1, p)
        lifted = [x + mod * ((r - x) * inv % p) for x, r in zip(lifted, poly)]
        mod *= p
        if mod > need:
            return IntPolynomial(tuple(x - mod if x > mod // 2 else x for x in lifted))
    raise ArithmeticError(f"primes 1 mod {N} below {prime_start} exhausted")


def spectral_polynomial(
    w: LaurentPoly, N: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> IntPolynomial:
    """Monic integer polynomial of degree N^n whose roots are the values of
    the diffraction polynomial w at all N-torsion characters.  w must be a
    diffraction polynomial: the certified bound rests on its nonnegative
    character values."""
    if N < 1:
        raise ValueError("N must be >= 1")
    size = N**w.dimension
    if size > size_limit:
        raise SizeLimit(f"{size} torsion characters exceed cap {size_limit}")
    return _split_prime_lift(fold_mod_N(w, N), N)


# -- floating-point character evaluation ---------------------------------------


def character_values(f: LaurentPoly, N: int) -> np.ndarray:
    """Real part of f at all N-torsion characters, as an (N,)*n array.

    Only meaningful for palindromic f (real values).  Each term c x^e adds
    c * cos(2 pi (e.k) / N) at character k, read from one table of the
    real parts of exp(2 pi i r / N); e.k comes from per-axis ranges
    broadcast against each other.  The sum runs in float64 in term order,
    so it equals, bit for bit, the real part of the same sum taken in
    complex arithmetic.  The value at the trivial character (index all
    zeros) is the exact coefficient sum.
    """
    n = f.dimension
    # cos at every residue of a phase sum, which stays below n * N
    table = np.tile(np.exp(2j * np.pi * np.arange(N) / N).real, n)
    axes = [np.arange(N).reshape((N,) + (1,) * (n - 1 - j)) for j in range(n)]
    acc = np.zeros((N,) * n)
    for e, c in f.sorted_terms():
        phase = sum((ej * ax) % N for ej, ax in zip(e, axes))
        acc += c * table[phase]
    return acc


def spectral_log_value(w: LaurentPoly, N: int, z: complex) -> tuple[float, float]:
    """(log magnitude, argument) of the product of (z - value) over all
    N-torsion character values of w, in double precision.

    No size cap: the cost is N^n character evaluations, not a dense
    matrix.  Raises SingularLevel when a factor underflows to zero.
    """
    values = character_values(w, N).ravel()
    diffs = complex(z) - values
    mags = np.abs(diffs)
    if mags.min() < 1e-300:
        raise SingularLevel(f"{z} is in or numerically touching the spectrum")
    logmag = float(np.log(mags).sum())
    arg = float(np.angle(diffs).sum())
    return logmag, arg
