"""Difference lattices of weighted point sets.

A weighted point set is a finite collection of distinct points of Z^n with
positive integer weights.  Its difference lattice is the Z-span of all
pairwise differences; everything downstream (the Laurent polynomial, the
torsion characters, the quotient graphs) lives on that lattice, so this
module fixes a canonical basis for it and provides exact coordinate maps.

All arithmetic is plain Python int, hence exact at any size.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Sequence

from .errors import NotInLattice, RankDeficient

Vector = tuple[int, ...]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class WeightedPointSet(namedtuple("WeightedPointSet", "dimension points")):
    """Distinct points of Z^n with positive integer weights, as a checked
    tuple of ``dimension`` and ``points``, the (point, weight) pairs:
    immutable, and equal and hashed by value.

    ``total_weight`` is the sum of the weights; its square is the maximum
    the associated diffraction intensity attains.
    """

    __slots__ = ()

    def __new__(cls, dimension: int, points: Iterable[tuple[Sequence[int], int]]):
        n = dimension
        if not _is_int(n) or n < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {n!r}")
        pts = tuple((tuple(a), c) for a, c in points)
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
        return super().__new__(cls, n, pts)

    @classmethod
    def _make(cls, fields):  # ``_replace`` builds through it: checked too
        return cls(*fields)

    @property
    def total_weight(self) -> int:
        return sum(c for _, c in self.points)


class LatticeBasis(namedtuple("LatticeBasis", "dimension rows")):
    """The Hermite normal form ``difference_lattice`` returns: n x n integer
    rows, upper triangular with a positive diagonal, spanning a full-rank
    sublattice of Z^n of ``index`` the product of the diagonal.  A checked
    tuple of ``dimension`` and ``rows``, as ``WeightedPointSet`` is."""

    __slots__ = ()

    def __new__(cls, dimension: int, rows: Iterable[Sequence[int]]):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if len(rows) != dimension or any(len(r) != dimension for r in rows):
            raise ValueError("basis must be a square n x n matrix")
        if any(r[i] <= 0 or any(r[:i]) for i, r in enumerate(rows)):
            raise ValueError("basis must be upper triangular with a positive diagonal")
        return super().__new__(cls, dimension, rows)

    @classmethod
    def _make(cls, fields):  # ``_replace`` builds through it: checked too
        return cls(*fields)


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
    # reduce each entry x above a diagonal entry d to x - q d in (-d/2, d/2]
    for j in range(n):
        d = basis[j][j]
        for i in range(j):
            q = -((d - 2 * basis[i][j]) // (2 * d))  # the least q with x - q d <= d/2
            for k in range(j, n):
                basis[i][k] -= q * basis[j][k]
    return tuple(tuple(r) for r in basis)


def difference_lattice(ps: WeightedPointSet) -> LatticeBasis:
    """Canonical basis of the lattice spanned by all differences a - b, which
    the P - 1 differences a - a0 span, a0 the first point: a - b is
    (a - a0) - (b - a0).  The result is in Hermite normal form, so equal
    point sets always give the identical basis.  Raises RankDeficient when
    the differences do not span all of Q^n (the standing full-rank assumption).
    """
    a0 = ps.points[0][0]
    gens = [tuple(x - y for x, y in zip(a, a0)) for a, _ in ps.points[1:]]
    return LatticeBasis(ps.dimension, _row_hnf(gens, ps.dimension))


def to_lattice_coords(v: Sequence[int], basis: LatticeBasis) -> Vector:
    """Coordinates lam with lam . rows = v, or NotInLattice.

    The rows are upper triangular, so entry j of v is the sum over i <= j of
    lam_i rows[i][j]: forward substitution gives lam_j once the earlier ones
    are known, exactly, and a lam_j that does not divide evenly shows that v
    is not in the lattice.
    """
    n = basis.dimension
    v = tuple(int(x) for x in v)
    if len(v) != n:
        raise ValueError("vector has wrong dimension")
    coords: list[int] = []
    for j, row in enumerate(basis.rows):
        rest = v[j] - sum(c * r[j] for c, r in zip(coords, basis.rows))
        if rest % row[j]:
            raise NotInLattice(f"{v} is not in the lattice")
        coords.append(rest // row[j])
    return tuple(coords)


def anchored_coords(ps: WeightedPointSet, basis: LatticeBasis) -> list[Vector]:
    """Lattice coordinates of a - a0 for each point a, a0 the first point:
    one solve per point, and the coordinates of any difference a - b are
    those of a - a0 minus those of b - a0."""
    a0 = ps.points[0][0]
    return [to_lattice_coords(tuple(x - y for x, y in zip(a, a0)), basis) for a, _ in ps.points]


def disjointness_check(ps: WeightedPointSet, basis: LatticeBasis) -> bool:
    """True iff no point of the set lies in its difference lattice L (the
    ``basis``): each point lies in the coset a0 + L of the first, a0, so a0 decides."""
    try:
        to_lattice_coords(ps.points[0][0], basis)
    except NotInLattice:
        return True
    return False

