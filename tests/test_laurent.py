import itertools
import random
import time

import numpy as np
import pytest

from speclat.errors import CosetViolation
from speclat.graph import build_graph
from speclat.lattice import WeightedPointSet, difference_lattice, to_lattice_coords
from speclat.laurent import (
    LaurentPoly,
    _tight_coordinates,
    diffraction_polynomial,
    fold_mod_N,
)
from speclat.moments import moment_sequence

from _oracles import (
    constant_term,
    det,
    folded_moment_sweep,
    folded_power,
    folded_power_dense,
    is_palindromic,
    multiply,
    one,
    power,
    rebased,
)
from conftest import random_point_set


def test_no_zero_coefficients_stored():
    f = LaurentPoly(1, {(0,): 0, (1,): 2})
    assert f.terms == {(1,): 2}


def test_an_exponent_of_the_wrong_dimension_is_refused():
    with pytest.raises(ValueError, match=r"^exponent \(1,\) has wrong dimension$"):
        LaurentPoly(2, {(0, 0): 1, (1,): 1})


def test_fold_mod_N_refuses_a_level_below_one(w_honey):
    with pytest.raises(ValueError, match="^N must be >= 1$"):
        fold_mod_N(w_honey, 0)


def test_cheb_polynomial(w_cheb):
    assert dict(w_cheb.terms) == {(1,): 1, (-1,): 1, (0,): 2}
    assert constant_term(w_cheb) == 2


def test_honeycomb_polynomial_alternative_bases(honeycomb, w_honey):
    # A change of basis is a unimodular change of W's exponent coordinates.
    # With lattice rows (2,1) and (1,2) the polynomial factors as
    # (u1+u2+1)(1/u1+1/u2+1); the u2 axis flips if (1,2) is replaced by
    # its negative.
    rows = difference_lattice(honeycomb).rows
    w = rebased(w_honey, rows, ((2, 1), (1, 2)))
    assert dict(w.terms) == {
        (1, 0): 1,
        (-1, 0): 1,
        (0, 1): 1,
        (0, -1): 1,
        (-1, 1): 1,
        (1, -1): 1,
        (0, 0): 3,
    }
    w_flip = rebased(w_honey, rows, ((2, 1), (-1, -2)))
    assert dict(w_flip.terms) == {
        (1, 0): 1,
        (-1, 0): 1,
        (0, 1): 1,
        (0, -1): 1,
        (1, 1): 1,
        (-1, -1): 1,
        (0, 0): 3,
    }


def test_honeycomb_constant_term(w_honey):
    assert constant_term(w_honey) == 3


def test_value_at_ones_is_total_weight_squared(w_honey, w_cheb):
    assert sum(w_honey.terms.values()) == 9
    assert sum(w_cheb.terms.values()) == 4


@pytest.mark.parametrize("seed", range(6))
def test_diffraction_polynomial_invariants(seed):
    rng = random.Random(1000 + seed)
    ps = random_point_set(rng)
    w = diffraction_polynomial(ps, difference_lattice(ps))
    C = ps.total_weight
    assert sum(w.terms.values()) == C * C
    assert is_palindromic(w)
    assert all(c > 0 for c in w.terms.values())
    assert constant_term(w) == sum(c * c for _, c in ps.points)


@pytest.mark.parametrize("seed", range(12))
def test_anchored_coordinates_match_per_pair_solves(seed):
    # one solve per point gives the terms, in insertion order, and the walk
    # graph's type pairs that a solve per ordered pair gives
    rng = random.Random(2000 + seed)
    ps = random_point_set(rng, dimension=rng.choice([1, 2, 3]))
    basis = difference_lattice(ps)
    pairs = [
        (to_lattice_coords(tuple(x - y for x, y in zip(a, b)), basis), ca * cb)
        for (a, ca), (b, cb) in itertools.product(ps.points, repeat=2)
    ]
    terms = {}
    for e, c in pairs:
        terms[e] = terms.get(e, 0) + c
    assert list(diffraction_polynomial(ps, basis).terms.items()) == list(terms.items())
    try:
        G = build_graph(ps, basis, 2)
    except CosetViolation:
        return
    assert [(tuple(x - y for x, y in zip(a, b)), ca * cb)
            for (a, ca), (b, cb) in itertools.product(G.points, repeat=2)] == pairs


def test_multiply_identity(w_honey):
    assert multiply(w_honey, one(2)) == w_honey


def test_square_by_hand(w_cheb):
    sq = power(w_cheb, 2)
    assert dict(sq.terms) == {(2,): 1, (-2,): 1, (1,): 4, (-1,): 4, (0,): 6}


def test_power_zero(w_honey):
    assert power(w_honey, 0) == one(2)


def test_constant_term_zero_poly():
    assert constant_term(LaurentPoly(2, {})) == 0


def test_fold_cheb(w_cheb):
    folded = fold_mod_N(w_cheb, 2)
    assert dict(folded.terms) == {(0,): 2, (1,): 2}


def test_fold_to_point(w_cheb):
    assert dict(fold_mod_N(power(w_cheb, 3), 1).terms) == {(0,): 4**3}


def test_fold_honeycomb_residue_zero(w_honey):
    for N in (2, 3, 5):
        folded = fold_mod_N(w_honey, N)
        assert folded.terms[(0, 0)] == 3


def test_fold_commutes_with_multiply(w_honey, w_cheb):
    for f, N in ((w_honey, 3), (w_cheb, 4)):
        fg = multiply(f, f)
        lhs = fold_mod_N(fg, N)
        rhs = fold_mod_N(multiply(fold_mod_N(f, N), fold_mod_N(f, N)), N)
        assert lhs == rhs


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_power_coefficient_sum(w_honey, k):
    assert sum(power(w_honey, k).terms.values()) == 9**k


@pytest.mark.parametrize("k", [2, 3, 5])
def test_power_palindromic(w_honey, k):
    assert is_palindromic(power(w_honey, k))


@pytest.mark.parametrize("N", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_folded_power_matches_unfolded(w_honey, N, k):
    direct = fold_mod_N(power(w_honey, k), N)
    assert folded_power(w_honey, k, N) == direct


def test_folded_power_dense_modular(w_cheb):
    # coefficients mod 5 agree with the exact folded power
    exact = folded_power_dense(w_cheb, 6, 4)
    modular = folded_power_dense(w_cheb, 6, 4, coeff_mod=5)
    assert modular.dtype.kind == "i"
    for i in range(4):
        assert int(exact[i]) % 5 == int(modular[i])


def test_folded_moment_sweep_central_binomials(w_cheb):
    import math

    vals = folded_moment_sweep(w_cheb, 6, 13)
    assert vals == [math.comb(2 * k, k) for k in range(7)]


@pytest.mark.parametrize(
    "dimension, points",
    [
        (1, [((-1,), 1), ((1,), 1)]),  # chebyshev
        (2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)]),  # honeycomb
        (2, [((-2, -2), 1), ((-1, 0), 2), ((0, -1), 1), ((1, 1), 3)]),
        (3, [((0, 2, -2), 1), ((1, 0, 1), 1), ((1, 2, 0), 1), ((2, 2, 0), 1)]),
    ],
)
def test_tight_coordinates_reach_one(dimension, points):
    # the moment sweep's box grows by the reach per axis and per power
    ps = WeightedPointSet(dimension, tuple(points))
    exponents = np.array(list(diffraction_polynomial(ps, difference_lattice(ps)).terms))
    U = _tight_coordinates(exponents)
    assert U.dtype.kind == "i"
    assert round(abs(np.linalg.det(U))) == 1
    assert np.abs(exponents @ U.T).max(axis=0).tolist() == [1] * dimension


@pytest.mark.parametrize("b", [10**5, 2**40, 2**70])
def test_tight_coordinates_of_a_skew_set(b):
    # {0, e_1, b e_1 + e_2} is {0, e_1, e_2} under a unimodular map: reach 1 on
    # each axis, found by multiples after 256 single steps (a step per unit of
    # reach took 3.1 s at b = 10^5), in Python integers where int64 would overflow
    ps = WeightedPointSet(2, [((0, 0), 1), ((1, 0), 2), ((b, 1), 3)])
    w = diffraction_polynomial(ps, difference_lattice(ps))
    exponents = np.array(list(w.terms), dtype=object)
    start = time.perf_counter()
    U = _tight_coordinates(exponents)
    assert time.perf_counter() - start < 0.5
    assert abs(det(U.tolist())) == 1
    assert np.abs(exponents @ U.T).max(axis=0).tolist() == [1, 1]
    plain = WeightedPointSet(2, [((0, 0), 1), ((1, 0), 2), ((0, 1), 3)])
    w_plain = diffraction_polynomial(plain, difference_lattice(plain))
    assert moment_sequence(w, 6) == moment_sequence(w_plain, 6)
