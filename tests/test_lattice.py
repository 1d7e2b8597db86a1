import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from speclat.errors import NotInLattice, RankDeficient
from speclat.graph import build_graph
from speclat.lattice import (
    LatticeBasis,
    WeightedPointSet,
    difference_lattice,
    disjointness_check,
    to_lattice_coords,
)

from _oracles import bareiss_coords, det, table_rows
from conftest import random_point_set


@pytest.mark.parametrize(
    "dimension, points",
    [
        (2, (((1.5, 0), 1), ((0, 1), 1))),  # float coordinate
        (2, (((1.0, 0), 1), ((0, 1), 1))),  # integral float coordinate
        (2, (((True, 0), 1), ((0, 1), 1))),  # bool coordinate
        (2, (((1, 0), 1.5), ((0, 1), 1))),  # float weight
        (2, (((1, 0), True), ((0, 1), 1))),  # bool weight
        (2, ((("1", 0), 1), ((0, 1), 1))),  # string coordinate
        (2.0, (((1, 0), 1), ((0, 1), 1))),  # float dimension
        (True, (((1,), 1), ((0,), 1))),  # bool dimension
    ],
)
def test_point_set_rejects_non_integers(dimension, points):
    # refused, never truncated to a different point set
    with pytest.raises(ValueError):
        WeightedPointSet(dimension, points)


def test_point_set_validation():
    with pytest.raises(ValueError):
        WeightedPointSet(2, (((1, 0), 1),))  # fewer than 2 points
    with pytest.raises(ValueError):
        WeightedPointSet(2, (((1, 0), 0), ((0, 1), 1)))  # zero weight
    with pytest.raises(ValueError):
        WeightedPointSet(2, (((1, 0), 1), ((1, 0), 2)))  # repeated point
    with pytest.raises(ValueError):
        WeightedPointSet(2, (((1,), 1), ((0, 1), 1)))  # wrong dimension


HONEYCOMB_POINTS = (((1, 0), 1), ((0, 1), 1), ((-1, -1), 1))


def test_point_sets_and_bases_are_values():
    ps = WeightedPointSet(2, HONEYCOMB_POINTS)
    same = WeightedPointSet(points=[([1, 0], 1), ([0, 1], 1), ([-1, -1], 1)], dimension=2)
    assert ps == same and hash(ps) == hash(same) and len({ps, same}) == 1
    assert ps != WeightedPointSet(2, HONEYCOMB_POINTS[:2] + (((-1, -1), 2),))
    assert same.points == HONEYCOMB_POINTS  # lists held as tuples
    basis = LatticeBasis(2, [[1, -1], [0, 3]])
    same_basis = LatticeBasis(rows=((1, -1), (0, 3)), dimension=2)
    assert basis == same_basis == difference_lattice(ps) and hash(basis) == hash(same_basis)
    assert basis != LatticeBasis(2, ((1, 1), (0, 3))) and det(basis.rows) == 3
    for value, field in ((ps, "dimension"), (ps, "points"), (basis, "rows")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    assert repr(ps) == f"WeightedPointSet(dimension=2, points={HONEYCOMB_POINTS!r})"
    # a changed copy is checked as a new value is
    with pytest.raises(ValueError, match="need at least 2 points"):
        ps._replace(points=HONEYCOMB_POINTS[:1])
    with pytest.raises(ValueError, match="upper triangular"):
        basis._replace(rows=((1, -1), (1, 3)))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: WeightedPointSet(0, HONEYCOMB_POINTS), "dimension must be an integer >= 1, got 0"),
        (lambda: WeightedPointSet(2.0, HONEYCOMB_POINTS),
         "dimension must be an integer >= 1, got 2.0"),
        (lambda: WeightedPointSet(2, HONEYCOMB_POINTS[:1]), "need at least 2 points"),
        (lambda: WeightedPointSet(2, (((1, 0), 1), ((0, 1.0), 1))),
         "point (0, 1.0) with weight 1 is not integral"),
        (lambda: WeightedPointSet(2, (((1, 0), True), ((0, 1), 1))),
         "point (1, 0) with weight True is not integral"),
        (lambda: WeightedPointSet(2, (((1, 0), 1), ((0,), 1))),
         "point (0,) does not have dimension 2"),
        (lambda: WeightedPointSet(2, (((1, 0), 1), ((0, 1), 0))),
         "weight 0 of point (0, 1) is not positive"),
        (lambda: WeightedPointSet(2, (((1, 0), 1), ((1, 0), 2))), "point (1, 0) repeated"),
        (lambda: LatticeBasis(2, ((1, 0),)), "basis must be a square n x n matrix"),
        (lambda: LatticeBasis(2, ((1, 0), (0,))), "basis must be a square n x n matrix"),
        (lambda: LatticeBasis(2, ((1, 0), (1, 1))),
         "basis must be upper triangular with a positive diagonal"),
        (lambda: LatticeBasis(2, ((1, 0), (0, -1))),
         "basis must be upper triangular with a positive diagonal"),
    ],
)
def test_bad_point_sets_and_bases_name_their_fault(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


def test_total_weight(honeycomb, chebyshev):
    assert honeycomb.total_weight == 3
    assert chebyshev.total_weight == 2


def test_difference_lattice_honeycomb(honeycomb):
    basis = difference_lattice(honeycomb)
    assert basis.rows == ((1, -1), (0, 3))
    assert det(basis.rows) == 3


def test_difference_lattice_two_points(chebyshev):
    basis = difference_lattice(chebyshev)
    assert basis.rows == ((2,),)
    assert det(basis.rows) == 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_difference_lattice_simplex_identity(n):
    # 0 together with the standard basis vectors spans all of Z^n
    pts = [((0,) * n, 1)]
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        pts.append((e, 1))
    basis = difference_lattice(WeightedPointSet(n, tuple(pts)))
    identity = tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )
    assert basis.rows == identity
    assert det(basis.rows) == 1


def test_rank_deficient():
    ps = WeightedPointSet(2, (((1, 1), 1), ((2, 2), 1), ((3, 3), 1)))
    with pytest.raises(RankDeficient):
        difference_lattice(ps)


def test_to_lattice_coords_honeycomb(honeycomb):
    basis = difference_lattice(honeycomb)
    assert to_lattice_coords((2, 1), basis) == (2, 1)
    assert to_lattice_coords((0, 0), basis) == (0, 0)
    with pytest.raises(NotInLattice):
        to_lattice_coords((1, 0), basis)


def test_all_differences_have_coords(honeycomb, chebyshev):
    for ps in (honeycomb, chebyshev):
        basis = difference_lattice(ps)
        for a, b in itertools.permutations([a for a, _ in ps.points], 2):
            diff = tuple(x - y for x, y in zip(a, b))
            lam = to_lattice_coords(diff, basis)
            recon = tuple(
                sum(l * r[j] for l, r in zip(lam, basis.rows))
                for j in range(ps.dimension)
            )
            assert recon == diff


def test_disjointness(honeycomb, chebyshev):
    assert disjointness_check(honeycomb, difference_lattice(honeycomb))
    assert disjointness_check(chebyshev, difference_lattice(chebyshev))
    with_origin = WeightedPointSet(2, (((0, 0), 1), ((1, 0), 1), ((0, 1), 1)))
    assert not disjointness_check(with_origin, difference_lattice(with_origin))


def test_quotient_enumeration(honeycomb):
    # the quotient graph lists the residues of the lattice mod N in
    # lexicographic order, each once
    basis = difference_lattice(honeycomb)

    def reps(N):
        black = build_graph(honeycomb, basis, N).adjacency()["black"]
        return [tuple(v) for v in table_rows(black)]

    assert reps(1) == [(0, 0)]
    assert reps(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(reps(6)) == len(set(reps(6))) == 36
    assert reps(6) == sorted(reps(6))


@pytest.mark.parametrize("seed", range(8))
def test_hnf_idempotent_under_redundant_generators(seed):
    # appending extra lattice vectors must not change the canonical basis
    rng = random.Random(seed)
    ps = random_point_set(rng)
    basis = difference_lattice(ps)
    n = ps.dimension
    from speclat.lattice import _row_hnf

    gens = [
        tuple(x - y for x, y in zip(a, b))
        for a, b in itertools.permutations([a for a, _ in ps.points], 2)
    ]
    extra = []
    for _ in range(3):
        coeffs = [rng.randint(-3, 3) for _ in basis.rows]
        extra.append(
            tuple(
                sum(c * r[j] for c, r in zip(coeffs, basis.rows))
                for j in range(n)
            )
        )
    assert _row_hnf(gens + extra, n) == basis.rows


@pytest.mark.parametrize("seed", range(8))
def test_hnf_shape(seed):
    rng = random.Random(seed)
    ps = random_point_set(rng)
    basis = difference_lattice(ps)
    n = ps.dimension
    for i in range(n):
        assert basis.rows[i][i] > 0
        for j in range(i):
            assert basis.rows[i][j] == 0


def test_unimodular_rows_keep_the_index(honeycomb):
    # other bases of the honeycomb lattice are U H, H its Hermite basis and U a
    # unimodular change of coordinates: their rows have integer coordinates on H,
    # and |det| the index
    basis = difference_lattice(honeycomb)
    for rows in (((2, 1), (-1, -2)), ((2, 1), (1, 2)), ((1, -1), (1, 2))):
        assert abs(det([to_lattice_coords(r, basis) for r in rows])) == 1
        assert abs(det(rows)) == det(basis.rows) == 3


def test_basis_rejects_singular_rows():
    # a triangular basis is singular exactly when a diagonal entry is 0
    for rows in (((1, 2), (2, 4)), ((1, 2), (0, 0))):
        assert det(rows) == 0
        with pytest.raises(ValueError):
            LatticeBasis(2, rows)


@st.composite
def hnf_bases(draw):
    """An upper-triangular basis with a positive diagonal, entries above it free."""
    n = draw(st.integers(1, 3))
    rows = [
        [0] * i + [draw(st.integers(1, 6))] + [draw(st.integers(-9, 9)) for _ in range(n - i - 1)]
        for i in range(n)
    ]
    return LatticeBasis(n, rows)


@given(hnf_bases(), st.data())
def test_coords_by_substitution_match_bareiss(basis, data):
    # forward substitution against the general elimination, on lattice members
    # and on vectors of Z^n at large, most of them non-members
    n = basis.dimension
    lam = data.draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    member = tuple(sum(c * r[j] for c, r in zip(lam, basis.rows)) for j in range(n))
    assert to_lattice_coords(member, basis) == bareiss_coords(member, basis.rows) == tuple(lam)
    v = tuple(data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)))
    expected = bareiss_coords(v, basis.rows)
    if expected is None:
        with pytest.raises(NotInLattice):
            to_lattice_coords(v, basis)
    else:
        assert to_lattice_coords(v, basis) == expected
    # the index is the product of the diagonal
    assert math.prod(r[i] for i, r in enumerate(basis.rows)) == det(basis.rows)


@given(hnf_bases(), st.data())
def test_basis_refuses_rows_off_hermite_shape(basis, data):
    n = basis.dimension
    rows = [list(r) for r in basis.rows]
    i = data.draw(st.integers(0, n - 1))
    if i and data.draw(st.booleans()):  # an entry below the diagonal
        rows[i][data.draw(st.integers(0, i - 1))] = data.draw(st.integers(1, 9) | st.integers(-9, -1))
    else:  # a diagonal entry <= 0
        rows[i][i] = data.draw(st.integers(-6, 0))
    with pytest.raises(ValueError):
        LatticeBasis(n, rows)
