import itertools
import random

import pytest

from speclat.errors import NotInLattice, RankDeficient
from speclat.graph import build_graph
from speclat.lattice import (
    LatticeBasis,
    WeightedPointSet,
    difference_lattice,
    disjointness_check,
    to_lattice_coords,
)

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


def test_total_weight(honeycomb, chebyshev):
    assert honeycomb.total_weight == 3
    assert chebyshev.total_weight == 2


def test_difference_lattice_honeycomb(honeycomb):
    basis = difference_lattice(honeycomb)
    assert basis.rows == ((1, -1), (0, 3))
    assert basis.index == 3


def test_difference_lattice_two_points(chebyshev):
    basis = difference_lattice(chebyshev)
    assert basis.rows == ((2,),)
    assert basis.index == 2


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
    assert basis.index == 1


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
        for a, b in itertools.permutations(ps.vectors(), 2):
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
        return [tuple(v) for v in build_graph(honeycomb, basis, N).adjacency()["black"]]

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
        for a, b in itertools.permutations(ps.vectors(), 2)
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


def test_basis_accepts_unimodular_rows():
    alt = LatticeBasis(2, ((2, 1), (-1, -2)))
    assert alt.index == 3


def test_basis_rejects_singular_rows():
    with pytest.raises(RankDeficient):
        LatticeBasis(2, ((1, 2), (2, 4)))
