"""Exact spectral polynomials of the torsion-level convolution operators.

For torsion level N the spectral polynomial b_N is the monic integer
polynomial of degree m = N^n with one root W(chi) for each N-torsion
character chi of the difference lattice.  One pass per level computes it
without any matrix: characters with the same row W(chi_k) = sum_r A_r
omega**r (A_r the sum of the c_e with e.k = r mod N) are counted once;
for primes p = 1 (mod N) descending below 2**62, whose F_p holds an omega
of exact order N, each distinct row gives one value v; the residues of
b_N are lifted by CRT until the prime product exceeds twice a certified
bound.  Each prime multiplies the leaves (z - v)**mult, each expanded by
the binomial theorem, in a balanced product tree (von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 10), each node one big-integer
product of Kronecker-packed coefficients (ibid. 8.4): a slot sums at most
L = min(len a, len b) products of residues, so slots of s bytes with
2**(8 s) > L (p - 1)**2 never carry (under 124 + bitlen(m) bits for
p < 2**62).  The same character rows, read p-adically, give the `padic`
valuations (see ``arith``).

The bound comes from the sign of the roots.  Every point a differs from a
fixed point a0 by a lattice vector, so
W(chi) = |sum_a c_a chi(a - a0)|**2 >= 0, and the roots have mean c0, the
constant term of W folded mod N.  Maclaurin's inequality for nonnegative
reals (Hardy, Littlewood and Polya, Inequalities, 2.22) then bounds their
elementary symmetric functions, e_j <= binom(m, j) c0**j, so the
coefficient of z**(m - j), +-e_j, is bounded, whichever primes were used.

The convolution matrix of the folded polynomial is kept for the walk/trace
bridge: its eigenvalues are the same character values.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import primes
from .errors import SizeLimit
from .laurent import LaurentPoly, constant_term, fold_mod_N

DEFAULT_SIZE_LIMIT = 10_000
DEFAULT_FLOAT_CAP = 10**7
_CHAR_BLOCK = 2**16  # characters per step of the row count
_VALUE_BLOCK = 2**16  # cells per block of the float character-value sum


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

    @staticmethod
    def from_roots(roots: Sequence[int]) -> "IntPolynomial":
        coeffs = [1]
        for r in roots:
            coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
        return IntPolynomial(tuple(coeffs))


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


def convolution_matrix(folded: LaurentPoly, N: int) -> ConvolutionMatrix:
    """Entry (i, j) is the folded coefficient at residue rep_j - rep_i."""
    n = folded.dimension
    size = N**n
    if size > DEFAULT_SIZE_LIMIT:
        raise SizeLimit(f"matrix size {size} exceeds cap {DEFAULT_SIZE_LIMIT}")
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
    rows are equal values modulo every prime.  The characters, in blocks
    of ``_CHAR_BLOCK``, are counted by their tuple of per-term phases
    e.k mod N; only the distinct tuples are merged into rows."""
    terms, shape, m = folded.sorted_terms(), (N,) * folded.dimension, N**folded.dimension
    exps = np.array([e for e, _ in terms], dtype=np.int64)
    phases: Counter = Counter()
    for start in range(0, m, _CHAR_BLOCK):
        chars = np.array(np.unravel_index(np.arange(start, min(start + _CHAR_BLOCK, m)), shape))
        phases.update(map(tuple, ((exps @ chars) % N).T.tolist()))
    rows: Counter = Counter()
    for key, mult in phases.items():
        row: dict[int, int] = {}
        for r, (_, c) in zip(key, terms):
            row[r] = row.get(r, 0) + c
        rows[tuple(sorted(row.items()))] += mult
    return rows


def _maclaurin_bound(m: int, c0: int) -> int:
    """max_j binom(m, j) * c0**j: bounds |coefficient| of every monic
    degree-m polynomial whose m roots are nonnegative with mean c0."""
    best = term = 1
    for j in range(1, m + 1):
        term = term * (m - j + 1) * c0 // j  # binom(m, j) * c0**j, exact in order
        best = max(best, term)
    return best


def _mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """a * b mod p for coefficient lists (low degree first) with entries in
    [0, p), as one big-integer product: each list is packed into slots of s
    bytes, where 2**(8 s) exceeds the largest slot sum
    min(len a, len b) * (p - 1)**2, so no slot carries into the next."""
    s = ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7) // 8
    x, y = (int.from_bytes(b"".join([c.to_bytes(s, "little") for c in u]), "little") for u in (a, b))
    out = (x * y).to_bytes((len(a) + len(b) - 1) * s, "little")
    return [int.from_bytes(out[i : i + s], "little") % p for i in range(0, len(out), s)]


def _tree_product(polys: list[list[int]], p: int) -> list[int]:
    """Product of the polynomials mod p in a balanced tree, pairing neighbours."""
    while len(polys) > 1:
        pairs = zip(polys[::2], polys[1::2])
        polys = [_mul_mod(a, b, p) for a, b in pairs] + polys[len(polys) & ~1 :]
    return polys[0]


def _power_leaf(v: int, binom: list[int], p: int) -> list[int]:
    """(z - v)**mult mod p by the binomial theorem; binom[k] = binom(mult, k)."""
    pw = itertools.accumulate(binom[1:], lambda x, _: x * -v % p, initial=1)  # (-v)**j
    return [b * x % p for b, x in zip(binom, reversed(list(pw)))]


def _split_prime_lift(folded: LaurentPoly, N: int, prime_start: int = 2**62) -> IntPolynomial:
    """prod over the N-torsion characters chi of (z - W(chi)), exactly,
    computed modulo primes p = 1 (mod N) descending below ``prime_start``
    and lifted by CRT past the bound of the module docstring."""
    m = N**folded.dimension
    rows = _character_rows(folded, N)
    need = 2 * _maclaurin_bound(m, constant_term(folded)) + 1
    binoms = [[math.comb(mult, k) for k in range(mult + 1)] for mult in rows.values()]
    lifted, mod = [0] * (m + 1), 1
    for p in primes.primes_below(prime_start, N):
        omega = primes.root_of_unity(N, p)
        powers = [pow(omega, r, p) for r in range(N)]
        values = [sum(a * powers[r] for r, a in row) % p for row in rows]
        residues = _tree_product([_power_leaf(v, b, p) for v, b in zip(values, binoms)], p)
        # incremental CRT
        inv = pow(mod, -1, p)
        lifted = [x + mod * ((r - x) * inv % p) for x, r in zip(lifted, residues)]
        mod *= p
        if mod > need:
            return IntPolynomial(tuple(x - mod if x > mod // 2 else x for x in lifted))
    raise ArithmeticError(f"primes 1 mod {N} below {prime_start} exhausted")


def _folded_level(w: LaurentPoly, N: int, size_limit: int) -> LaurentPoly:
    if N < 1:
        raise ValueError("N must be >= 1")
    if N**w.dimension > size_limit:
        raise SizeLimit(f"{N}^{w.dimension} torsion characters exceed cap {size_limit}")
    return fold_mod_N(w, N)


def spectral_polynomial(
    w: LaurentPoly, N: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> IntPolynomial:
    """Monic integer polynomial of degree N^n whose roots are the values of
    the diffraction polynomial w at all N-torsion characters.  w must be a
    diffraction polynomial: the certified bound rests on its nonnegative
    character values."""
    return _split_prime_lift(_folded_level(w, N, size_limit), N)


# -- floating-point character evaluation ---------------------------------------


def character_values(f: LaurentPoly, N: int) -> np.ndarray:
    """Real part of f at all N-torsion characters, as an (N,)*n array.

    Only meaningful for palindromic f (real values).  Term c x^e adds
    c cos(2 pi (e.k mod N) / N), cos the real part of exp(2 pi i r / N).  With
    each e_i reduced to |e_i| <= N/2, its values on rows r0 .. r0 + R - 1 are
    one view, strides e_i, from offset s + (e_0 r0 mod N), of the row
    T_c[j] = c cos(2 pi (j - s) / N), 0 <= j < N + 2 s, that the terms with
    this c share: no view moves over s = reach_0 (R - 1) + sum_{i>0} reach_i
    (N - 1) entries (reach_i the largest |e_i|; R N^(n-1) and R reach_0 stay
    within ``_VALUE_BLOCK``).  c cos(r) has the same bits wherever r is read,
    and each value is summed from 0 in term order: bit for bit the real part
    of the sum in complex arithmetic, and the exact coefficient sum at the
    trivial character (index all zeros).  Raises SizeLimit, before any work,
    when the N^n values exceed ``DEFAULT_FLOAT_CAP``.
    """
    n = f.dimension
    if N**n > DEFAULT_FLOAT_CAP:
        raise SizeLimit(f"{N}^{n} character values exceed cap {DEFAULT_FLOAT_CAP}")
    exps, coeffs = zip(*f.sorted_terms())
    exps = [[(x + N // 2) % N - N // 2 for x in e] for e in exps]
    reach = [max(map(abs, axis)) for axis in zip(*exps)]
    rows = max(1, min(N, _VALUE_BLOCK // N ** (n - 1), _VALUE_BLOCK // (reach[0] or 1)))
    span = reach[0] * (rows - 1) + sum(reach[1:]) * (N - 1)
    table = {c: i for i, c in enumerate(dict.fromkeys(coeffs))}
    cos = np.exp(2j * np.pi * np.arange(N) / N).real[np.arange(-span, N + span) % N]
    scaled = np.array(list(table), float)[:, None] * cos
    acc = np.zeros((N,) * n)
    for r0 in range(0, N, rows):
        block = acc[r0 : r0 + rows]
        for e, c in zip(exps, coeffs):
            offset = 8 * ((N + 2 * span) * table[c] + span + e[0] * r0 % N)
            block += np.ndarray(block.shape, float, scaled, offset, [8 * x for x in e])
    return acc
