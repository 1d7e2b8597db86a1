import itertools
import math
import random

import pytest

from speclat import primes
from speclat.errors import SingularLevel, SizeLimit
from speclat.lattice import LatticeBasis, difference_lattice
from speclat.laurent import constant_term, diffraction_polynomial, fold_mod_N
from speclat.moments import moment_sequence_N
from speclat.specpoly import (
    IntPolynomial,
    _maclaurin_bound,
    _split_prime_lift,
    character_values,
    convolution_matrix,
    divides,
    evaluate_at_integer,
    integer_root_multiplicity,
    spectral_log_value,
    spectral_polynomial,
)

from _oracles import berkowitz_charpoly, charpoly_exact
from conftest import random_point_set


def w_of(ps):
    return diffraction_polynomial(ps, difference_lattice(ps))


def folded(ps, N):
    return fold_mod_N(w_of(ps), N)


# -- convolution matrices ------------------------------------------------------


def test_matrix_honeycomb_n1(honeycomb):
    m = convolution_matrix(folded(honeycomb, 1), 1)
    assert m.rows == ((9,),)


def test_matrix_cheb_n2(chebyshev):
    m = convolution_matrix(folded(chebyshev, 2), 2)
    assert m.rows == ((2, 2), (2, 2))


def test_matrix_honeycomb_n2(honeycomb):
    m = convolution_matrix(folded(honeycomb, 2), 2)
    assert m.size == 4
    for i in range(4):
        assert m.rows[i][i] == 3
        assert sum(m.rows[i]) == 9
        for j in range(4):
            assert m.rows[i][j] == m.rows[j][i]
            assert m.rows[i][j] >= 0


def test_matrix_trace_identity(honeycomb):
    for N in (2, 3, 4):
        f = folded(honeycomb, N)
        m = convolution_matrix(f, N)
        assert sum(m.rows[i][i] for i in range(m.size)) == N**2 * f.terms[(0, 0)]


def test_size_limit(honeycomb):
    with pytest.raises(SizeLimit):
        convolution_matrix(folded(honeycomb, 7), 7, size_limit=10)


# -- exact characteristic polynomials (Hessenberg oracle) -----------------------


def test_charpoly_1x1():
    assert charpoly_exact(((9,),)).coefficients == (-9, 1)


def test_charpoly_2x2():
    assert charpoly_exact(((2, 2), (2, 2))).coefficients == (0, -4, 1)


def test_charpoly_honeycomb_n2(honeycomb):
    p = charpoly_exact(convolution_matrix(folded(honeycomb, 2), 2))
    assert p == IntPolynomial.from_roots([9, 1, 1, 1])


@pytest.mark.parametrize("seed", range(10))
def test_charpoly_matches_berkowitz(seed):
    rng = random.Random(seed)
    m = rng.choice([1, 2, 3, 4, 5, 6, 10, 16])
    rows = tuple(
        tuple(rng.randint(-9, 9) for _ in range(m)) for _ in range(m)
    )
    assert charpoly_exact(rows).coefficients == berkowitz_charpoly(rows)


# -- split primes ---------------------------------------------------------------


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6, 9, 12, 17])
def test_split_primes_and_roots_of_unity(N):
    found = list(itertools.islice(primes.primes_below(2**62, N), 4))
    found += list(itertools.islice(primes.primes_below(2**20, N), 4))
    assert len(found) == 8
    for p in found:
        assert primes.is_prime(p) and (p - 1) % N == 0
        omega = primes.root_of_unity(N, p)
        assert pow(omega, N, p) == 1
        assert all(pow(omega, d, p) != 1 for d in range(1, N))
    assert found[:4] == sorted(found[:4], reverse=True)
    assert all(p < 2**62 for p in found[:4])


def test_split_primes_small_start():
    assert list(primes.primes_below(12)) == [11, 7, 5, 3, 2]
    assert list(primes.primes_below(30, 4)) == [29, 17, 13, 5]
    with pytest.raises(ValueError):
        primes.root_of_unity(4, 7)


def test_charpoly_prime_set_independence(honeycomb):
    f = folded(honeycomb, 3)
    a = _split_prime_lift(f, 3)
    b = _split_prime_lift(f, 3, prime_start=2**61)
    c = _split_prime_lift(f, 3, prime_start=2**31)
    assert a == b == c == spectral_polynomial(w_of(honeycomb), 3)


def _newton_power_sums(p: IntPolynomial, K: int) -> list[int]:
    """p_1..p_K of the roots of a monic polynomial, by Newton's identities."""
    m = p.degree
    e = [(-1) ** j * p.coefficients[m - j] for j in range(m + 1)]
    sums = []
    for k in range(1, K + 1):
        acc = (-1) ** (k - 1) * k * e[k] if k <= m else 0
        for i in range(1, k):
            if i <= m:
                acc += (-1) ** (i - 1) * e[i] * sums[k - i - 1]
        sums.append(acc)
    return sums


@pytest.mark.parametrize("seed", range(18))
def test_split_prime_matches_berkowitz(seed):
    rng = random.Random(700 + seed)
    n = 1 + seed % 3
    ps = random_point_set(rng, dimension=n)
    top = {1: 12, 2: 6, 3: 3}[n]
    N = top if seed % 2 == 0 else rng.randint(1, top)
    w = w_of(ps)
    f = fold_mod_N(w, N)
    p = spectral_polynomial(w, N)
    assert p.is_monic and p.degree == N**n
    assert p.coefficients == berkowitz_charpoly(convolution_matrix(f, N).rows)
    bound = _maclaurin_bound(N**n, constant_term(f))
    assert max(abs(c) for c in p.coefficients) <= bound
    level = moment_sequence_N(w, 6, N).values[1:]
    assert _newton_power_sums(p, 6) == [N**n * v for v in level]


def test_maclaurin_bound_is_tight_for_equal_roots():
    # all roots equal to the mean: the bound is the largest coefficient
    for m, c0 in ((4, 3), (7, 2), (36, 9)):
        p = IntPolynomial.from_roots([c0] * m)
        assert _maclaurin_bound(m, c0) == max(abs(c) for c in p.coefficients)
    assert _maclaurin_bound(1, 9) == 9
    assert _maclaurin_bound(3, 0) == 1


def test_spectral_size_limit(w_honey):
    with pytest.raises(SizeLimit):
        spectral_polynomial(w_honey, 4, size_limit=15)
    assert spectral_polynomial(w_honey, 4, size_limit=16).degree == 16


# -- spectral polynomials -------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_level_one_is_linear(seed):
    rng = random.Random(40 + seed)
    ps = random_point_set(rng)
    C = ps.total_weight
    assert spectral_polynomial(w_of(ps), 1).coefficients == (-C * C, 1)


def test_honeycomb_level6_factorization(w_honey):
    expected = IntPolynomial.from_roots(
        [0] * 2 + [1] * 15 + [3] * 6 + [4] * 6 + [7] * 6 + [9]
    )
    p = spectral_polynomial(w_honey, 6)
    assert p.degree == 36
    assert p.is_monic
    assert p == expected


def test_cheb_values_at_6(w_cheb):
    assert evaluate_at_integer(spectral_polynomial(w_cheb, 3), 6) == 50
    assert evaluate_at_integer(spectral_polynomial(w_cheb, 17), 6) == 5285770562


def test_honeycomb_value_53(w_honey):
    v = evaluate_at_integer(spectral_polynomial(w_honey, 6), 53)
    assert v % 7**12 == 0 and v % 7**13 != 0


def test_trace_coefficient(honeycomb, chebyshev):
    for ps, N in ((honeycomb, 3), (chebyshev, 5)):
        f = folded(ps, N)
        m = convolution_matrix(f, N)
        p = charpoly_exact(m)
        assert p.coefficients[p.degree - 1] == -sum(m.rows[i][i] for i in range(m.size))


def test_divides(w_honey):
    b6 = spectral_polynomial(w_honey, 6)
    for Np in (1, 2, 3):
        assert divides(spectral_polynomial(w_honey, Np), b6)
    assert not divides(IntPolynomial((-1, 1)), IntPolynomial((0, 1)))


def test_sign_pattern_outside_spectrum(w_honey):
    p = spectral_polynomial(w_honey, 4)
    deg = p.degree
    for z in (10, 20, 100):
        assert evaluate_at_integer(p, z) > 0
    for z in (-1, -7):
        assert (-1) ** deg * evaluate_at_integer(p, z) > 0


def test_root_multiplicities(w_honey):
    b6 = spectral_polynomial(w_honey, 6)
    assert integer_root_multiplicity(b6, 9) == 1
    assert integer_root_multiplicity(b6, 0) == 2
    assert integer_root_multiplicity(b6, 1) == 15
    assert integer_root_multiplicity(b6, 5) == 0


def test_basis_independence(honeycomb, w_honey):
    for rows in (((2, 1), (-1, -2)), ((2, 1), (1, 2)), ((1, -1), (1, 2))):
        w_alt = diffraction_polynomial(honeycomb, LatticeBasis(2, rows))
        for N in (2, 3):
            assert spectral_polynomial(w_alt, N) == spectral_polynomial(w_honey, N)


def test_evaluate_at_root(w_cheb):
    p = spectral_polynomial(w_cheb, 1)
    assert evaluate_at_integer(p, 4) == 0


# -- floating path --------------------------------------------------------------


def test_character_values_shapes(honeycomb):
    w = diffraction_polynomial(honeycomb, difference_lattice(honeycomb))
    vals = character_values(w, 6)
    assert vals.shape == (6, 6)
    assert vals[0, 0] == 9.0
    assert vals.min() > -1e-9
    assert vals.max() <= 9.0


def test_log_value_closed_form(w_cheb):
    q = 2 - math.sqrt(3)
    for N in (5, 10, 20):
        expected = math.log(q**-N + q**N - 2)
        logmag, arg = spectral_log_value(w_cheb, N, 6)
        assert abs(logmag - expected) < 1e-9
        assert abs(arg) < 1e-12


def test_log_value_level_one(w_cheb):
    logmag, arg = spectral_log_value(w_cheb, 1, 11)
    assert abs(logmag - math.log(11 - 4)) < 1e-12
    assert arg == 0.0


def test_log_value_singular(w_cheb):
    with pytest.raises(SingularLevel):
        spectral_log_value(w_cheb, 2, 4)


def test_log_value_matches_exact(w_honey):
    for N, z in ((2, 12), (3, 17)):
        p = spectral_polynomial(w_honey, N)
        logmag, _ = spectral_log_value(w_honey, N, z)
        assert abs(logmag - math.log(evaluate_at_integer(p, z))) < 1e-8
