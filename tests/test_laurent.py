import random

import pytest

from speclat.lattice import LatticeBasis, difference_lattice
from speclat.laurent import (
    LaurentPoly,
    constant_term,
    diffraction_polynomial,
    fold_mod_N,
    folded_power_sweep,
)

from _oracles import folded_power, folded_power_dense, is_palindromic, multiply, one, power
from conftest import random_point_set


def test_no_zero_coefficients_stored():
    f = LaurentPoly(1, {(0,): 0, (1,): 2})
    assert f.terms == {(1,): 2}


def test_cheb_polynomial(w_cheb):
    assert dict(w_cheb.terms) == {(1,): 1, (-1,): 1, (0,): 2}
    assert constant_term(w_cheb) == 2


def test_honeycomb_polynomial_alternative_bases(honeycomb):
    # With lattice rows (2,1) and (1,2) the polynomial factors as
    # (u1+u2+1)(1/u1+1/u2+1); the u2 axis flips if (1,2) is replaced by
    # its negative.
    w = diffraction_polynomial(honeycomb, LatticeBasis(2, ((2, 1), (1, 2))))
    assert dict(w.terms) == {
        (1, 0): 1,
        (-1, 0): 1,
        (0, 1): 1,
        (0, -1): 1,
        (-1, 1): 1,
        (1, -1): 1,
        (0, 0): 3,
    }
    w_flip = diffraction_polynomial(honeycomb, LatticeBasis(2, ((2, 1), (-1, -2))))
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


def test_folded_power_sweep_central_binomials(w_cheb):
    import math

    vals = folded_power_sweep(w_cheb, 6, 13)
    assert vals == [math.comb(2 * k, k) for k in range(7)]
