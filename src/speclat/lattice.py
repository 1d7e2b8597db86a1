"""Difference lattices of weighted point sets.

A weighted point set is a finite collection of distinct points of Z^n with
positive integer weights.  Its difference lattice is the Z-span of all
pairwise differences; everything downstream (the Laurent polynomial, the
torsion characters, the quotient graphs) lives on that lattice, so this
module fixes a canonical basis for it and provides exact coordinate maps.

All arithmetic is plain Python int, hence exact at any size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import NotInLattice, RankDeficient

Vector = tuple[int, ...]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class WeightedPointSet:
    """Distinct points of Z^n with positive integer weights.

    ``total_weight`` is the sum of the weights; its square is the maximum
    the associated diffraction intensity attains.
    """

    dimension: int
    points: tuple[tuple[Vector, int], ...]

    def __post_init__(self):
        n = self.dimension
        if not _is_int(n) or n < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {n!r}")
        pts = tuple((tuple(a), c) for a, c in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("need at least 2 points")
        seen = set()
        for a, c in pts:
            # a float or a bool is refused, never truncated to another point set
            if not all(map(_is_int, a)) or not _is_int(c):
                raise ValueError(f"point {a} with weight {c!r} is not integral")
            if len(a) != n:
                raise ValueError(f"point {a} does not have dimension {n}")
            if c < 1:
                raise ValueError(f"weight {c} of point {a} is not positive")
            if a in seen:
                raise ValueError(f"point {a} repeated")
            seen.add(a)

    @property
    def total_weight(self) -> int:
        return sum(c for _, c in self.points)

    def vectors(self) -> tuple[Vector, ...]:
        return tuple(a for a, _ in self.points)


@dataclass(frozen=True)
class LatticeBasis:
    """An n x n integer matrix whose rows generate a full-rank sublattice.

    ``difference_lattice`` always returns the canonical Hermite normal form
    (upper triangular, positive diagonal, off-diagonal entries balanced
    around zero); arbitrary full-rank row sets are accepted here so that
    alternative bases of the same lattice can be compared.
    """

    dimension: int
    rows: tuple[Vector, ...]
    index: int = field(init=False)

    def __post_init__(self):
        n = self.dimension
        rows = tuple(tuple(int(x) for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("basis must be a square n x n matrix")
        d = _det(rows)
        if d == 0:
            raise RankDeficient("basis rows are linearly dependent")
        object.__setattr__(self, "index", abs(d))


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _balanced_mod(x: int, d: int) -> int:
    """Residue of x mod d in the range (-d/2, d/2], preferring +d/2."""
    r = x % d
    if 2 * r > d:
        r -= d
    return r


def _row_hnf(generators: Iterable[Sequence[int]], n: int) -> tuple[Vector, ...]:
    """Hermite normal form of the lattice spanned by the given row vectors.

    Returns n upper-triangular rows with positive diagonal; raises
    RankDeficient when the span has rank < n.  Off-diagonal entries are
    reduced into the balanced range, which makes the output canonical.
    """
    work = [list(g) for g in generators if any(g)]
    basis: list[list[int]] = []
    for col in range(n):
        live = [r for r in work if r[col] != 0]
        if not live:
            raise RankDeficient(f"generators span no pivot in column {col}")
        # gcd elimination in this column
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            rest = []
            for r in live[1:]:
                q = r[col] // pivot[col]
                for j in range(col, n):
                    r[j] -= q * pivot[j]
                if r[col] != 0:
                    rest.append(r)
            live = [pivot] + rest
        pivot = live[0]
        if pivot[col] < 0:
            for j in range(col, n):
                pivot[j] = -pivot[j]
        basis.append(pivot)
        # every other row now has a zero in this column
        work = [r for r in work if r is not pivot and any(r[col:])]
    # normalize entries above each diagonal into the balanced range
    for j in range(n):
        d = basis[j][j]
        for i in range(j):
            r = _balanced_mod(basis[i][j], d)
            q = (basis[i][j] - r) // d
            if q:
                for k in range(j, n):
                    basis[i][k] -= q * basis[j][k]
    return tuple(tuple(r) for r in basis)


def difference_lattice(ps: WeightedPointSet) -> LatticeBasis:
    """Canonical basis of the lattice spanned by all differences a - b.

    The result is in Hermite normal form, so equal point sets always give
    the identical basis.  Raises RankDeficient when the differences do not
    span all of Q^n (the standing full-rank assumption).
    """
    n = ps.dimension
    pts = ps.vectors()
    gens = [
        tuple(x - y for x, y in zip(a, b))
        for a, b in itertools.permutations(pts, 2)
    ]
    return LatticeBasis(n, _row_hnf(gens, n))


def to_lattice_coords(v: Sequence[int], basis: LatticeBasis) -> Vector:
    """Coordinates lam with lam . rows = v, or NotInLattice.

    Solved by Cramer's rule on the transposed system, exactly: each
    coordinate is a quotient of two integer determinants and must divide
    evenly for v to lie in the lattice.
    """
    n = basis.dimension
    v = tuple(int(x) for x in v)
    if len(v) != n:
        raise ValueError("vector has wrong dimension")
    d = _det(basis.rows)
    coords = []
    for j in range(n):
        replaced = tuple(v if i == j else basis.rows[i] for i in range(n))
        num = _det(replaced)
        if num % d != 0:
            raise NotInLattice(f"{v} is not in the lattice")
        coords.append(num // d)
    return tuple(coords)


def disjointness_check(ps: WeightedPointSet, basis: LatticeBasis) -> bool:
    """True iff no point of the set lies in the difference lattice itself."""
    for a in ps.vectors():
        try:
            to_lattice_coords(a, basis)
        except NotInLattice:
            continue
        return False
    return True

