import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclat.errors import IntegralityViolation
from speclat.lattice import difference_lattice
from speclat.laurent import (
    LaurentPoly,
    _moment_sweep,
    constant_term,
    diffraction_polynomial,
    folded_power_sweep,
)
from speclat.moments import (
    MomentSequence,
    chebyshev_generating_check,
    check_congruence,
    moment_sequence,
    moment_sequence_N,
    poly_log_series,
    product_exponents,
    series_coefficients,
    verify_recurrence,
)
from speclat.specpoly import convolution_matrix, spectral_polynomial

from _oracles import exact_moment_sweep, folded_moment_sweep, power
from conftest import random_point_set

HONEYCOMB_RECURRENCE = (
    (-1, (0, 0, 9)),  # 9 k^2 m_{k-1}
    (0, (-3, -10, -10)),  # -(10k^2+10k+3) m_k
    (1, (1, 2, 1)),  # (k+1)^2 m_{k+1}
)


def honeycomb_moment_formula(k):
    return sum(math.comb(k, j) ** 2 * math.comb(2 * j, j) for j in range(k + 1))


def cheb_moment_N_formula(k, N):
    return sum(math.comb(2 * k, j) for j in range(2 * k + 1) if j % N == k % N)


# -- moments --------------------------------------------------------------------


def test_cheb_moments_are_central_binomials(w_cheb):
    for k in range(9):
        assert moment_sequence(w_cheb, k)[k] == math.comb(2 * k, k)
    assert moment_sequence(w_cheb, 3)[3] == 20


def test_honeycomb_moments(w_honey):
    assert [moment_sequence(w_honey, k)[k] for k in (1, 2, 3)] == [3, 15, 93]
    for k in range(13):
        assert moment_sequence(w_honey, k)[k] == honeycomb_moment_formula(k)


@pytest.mark.parametrize("k", range(7))
def test_moment_agrees_with_unfolded_power(w_honey, k):
    assert moment_sequence(w_honey, k)[k] == constant_term(power(w_honey, k))


def test_moment_sequence_matches_single(w_honey):
    seq = moment_sequence(w_honey, 10)
    assert seq.source == "constant-term"
    assert list(seq.values) == [moment_sequence(w_honey, k)[k] for k in range(11)]


def test_moments_basis_independent(honeycomb, w_honey):
    from speclat.lattice import LatticeBasis
    from speclat.laurent import diffraction_polynomial

    for rows in (((2, 1), (1, 2)), ((2, 1), (-1, -2))):
        w_alt = diffraction_polynomial(honeycomb, LatticeBasis(2, rows))
        for k in range(7):
            assert moment_sequence(w_alt, k)[k] == moment_sequence(w_honey, k)[k]
        for N in (2, 3, 5):
            assert moment_sequence_N(w_alt, 4, N)[4] == moment_sequence_N(w_honey, 4, N)[4]


def test_moment_N_level_one(w_honey, w_cheb):
    for k in range(5):
        assert moment_sequence_N(w_honey, k, 1)[k] == 9**k
        assert moment_sequence_N(w_cheb, k, 1)[k] == 4**k


@pytest.mark.parametrize("N", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_cheb_moment_N_formula(w_cheb, N, k):
    assert moment_sequence_N(w_cheb, k, N)[k] == cheb_moment_N_formula(k, N)


def test_honeycomb_moment_stability(w_honey):
    # equality as soon as N exceeds k, and domination always
    for k in range(9):
        mk = moment_sequence(w_honey, k)[k]
        for N in range(1, 9):
            mkN = moment_sequence_N(w_honey, k, N)[k]
            assert mkN >= mk >= 0
            if N > k:
                assert mkN == mk


def test_trace_cross_check(w_honey, w_cheb):
    # N^n * m_k^(N) equals the trace of the k-th power of the convolution
    # matrix; matrix powers computed by plain integer matmul here
    for w, n in ((w_honey, 2), (w_cheb, 1)):
        for N in (1, 2, 3, 4):
            m = convolution_matrix(w, N)
            size = m.size
            acc = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
            for k in range(1, 7):
                acc = [
                    [
                        sum(acc[i][t] * m.rows[t][j] for t in range(size))
                        for j in range(size)
                    ]
                    for i in range(size)
                ]
                tr = sum(acc[i][i] for i in range(size))
                assert tr == N**n * moment_sequence_N(w, k, N)[k]


# -- property sweep against the full-torus oracle ---------------------------------


def check_against_full_torus(f: LaurentPoly, K: int):
    """Every moment entry point agrees with K products on the full fold
    torus; the MomentSequence wrappers only where the moments are >= 0."""
    positive = all(c > 0 for c in f.terms.values())
    exact = exact_moment_sweep(f, K)
    assert [_moment_sweep(f, k)[k] for k in range(K + 1)] == exact
    if positive:
        assert list(moment_sequence(f, K).values) == exact
    for mod in (9, 2**61 - 1):  # int64 and object residues
        assert _moment_sweep(f, K, coeff_mod=mod) == [m % mod for m in exact]
    for N in (1, 2, 3, 5):
        level = folded_moment_sweep(f, K, N)
        assert [folded_power_sweep(f, k, N)[k] for k in range(K + 1)] == level
        if positive:
            assert list(moment_sequence_N(f, K, N).values) == level
    for p, k, alpha in ((2, 1, 0), (3, 1, 0), (2, 1, 1)):
        lo, hi = k * p**alpha, k * p ** (alpha + 1)
        ref = exact_moment_sweep(f, hi, coeff_mod=p ** (alpha + 1))
        assert check_congruence(f, p, k, alpha) == (ref[hi] == ref[lo])


def random_laurent(rng: random.Random, n: int, shape: str) -> LaurentPoly:
    span = 3 if n < 3 else 2
    if shape == "constant":
        return LaurentPoly(n, {(0,) * n: rng.randint(1, 3)})
    if shape == "monomial":
        e = tuple(rng.randint(-span, span) for _ in range(n))
        return LaurentPoly(n, {e: rng.choice([-2, 1, 3])})
    # one-sided support misses the origin, so no power but f^0 reaches it
    least = 1 if shape == "one-sided" else -span
    coefficients = [1, 2, 3] if rng.random() < 0.5 else [-3, -2, -1, 1, 2, 3]
    return LaurentPoly(n, {
        tuple(rng.randint(least, span) for _ in range(n)): rng.choice(coefficients)
        for _ in range(rng.randint(2, 5))
    })


@pytest.mark.parametrize("seed", range(24))
def test_moments_match_full_torus_random(seed):
    rng = random.Random(3000 + seed)
    n = 1 + seed % 3
    f = random_laurent(rng, n, ("general", "constant", "monomial", "one-sided")[seed // 3 % 4])
    check_against_full_torus(f, rng.randint(0, 12))


@pytest.mark.parametrize("seed", range(6))
def test_moments_match_full_torus_diffraction(seed):
    rng = random.Random(4000 + seed)
    n = 1 + seed % 3
    ps = random_point_set(rng, dimension=n)
    w = diffraction_polynomial(ps, difference_lattice(ps))
    check_against_full_torus(w, rng.randint(0, 12 if n < 3 else 6))


@st.composite
def moment_cases(draw):
    n = draw(st.integers(1, 3))
    span = 3 if n < 3 else 2
    exponent = st.tuples(*[st.integers(-span, span)] * n)
    coefficient = st.integers(-3, 3).filter(bool)
    terms = draw(st.dictionaries(exponent, coefficient, min_size=1, max_size=5))
    return LaurentPoly(n, terms), draw(st.integers(0, 12 if n < 3 else 8))


@settings(max_examples=50)
@given(moment_cases())
def test_moments_match_full_torus_property(case):
    check_against_full_torus(*case)


# -- congruences ----------------------------------------------------------------


def test_congruence_examples(w_honey, w_cheb):
    assert check_congruence(w_honey, 2, 1, 0)  # 15 = 3 mod 2
    assert check_congruence(w_cheb, 3, 1, 1)  # binom(18,9) = binom(6,3) mod 9
    assert check_congruence(w_cheb, 5, 0, 1)


def test_congruence_sweep(w_honey, w_cheb):
    for w in (w_honey, w_cheb):
        for p in (2, 3):
            for k in (1, 2, 3):
                for alpha in (0, 1):
                    assert check_congruence(w, p, k, alpha)


def test_congruence_rejects_composite(w_cheb):
    with pytest.raises(ValueError):
        check_congruence(w_cheb, 4, 1, 0)


def test_congruence_value_check(w_cheb):
    assert math.comb(18, 9) % 9 == math.comb(6, 3) % 9 == 2


# -- series expansions ------------------------------------------------------------


def test_series_coefficients_cheb(w_cheb):
    # expansion coefficients are shifted Catalan numbers
    seq = moment_sequence(w_cheb, 12)
    A = series_coefficients(seq)
    catalan = [math.comb(2 * k + 2, k + 1) // (k + 2) for k in range(1, 12)]
    assert A == catalan


def test_series_coefficients_honeycomb(w_honey):
    seq = moment_sequence(w_honey, 6)
    A = series_coefficients(seq)
    assert A[:3] == [3, 12, 58]


def test_first_coefficient_is_first_moment(w_honey, w_cheb):
    for w in (w_honey, w_cheb):
        seq = moment_sequence(w, 3)
        assert series_coefficients(seq)[0] == seq[1]
        assert product_exponents(seq)[0] == seq[1]


def test_zero_moments_give_zero_series():
    seq = [1] + [0] * 6
    assert series_coefficients(seq) == [0] * 5
    assert product_exponents(seq) == [0] * 6


def test_product_exponents_cheb(w_cheb):
    seq = moment_sequence(w_cheb, 5)
    assert product_exponents(seq)[:4] == [2, 2, 6, 16]


def test_product_expansion_matches_series(w_honey):
    # independent route: expand prod (1-t^k)^(-b_k) as a power series and
    # compare with 1 + sum A_k t^k
    K = 10
    seq = moment_sequence(w_honey, K + 1)
    A = series_coefficients(seq)
    b = product_exponents(seq)
    series = [Fraction(1)] + [Fraction(0)] * K
    for k in range(1, K + 1):
        # multiply by (1 - t^k)^(-b_k) term by term
        factor = [Fraction(1)] + [Fraction(0)] * K
        # (1-x)^(-b) = sum binom(b+j-1, j) x^j with x = t^k
        for j in range(1, K // k + 1):
            binom = math.comb(b[k - 1] + j - 1, j) if b[k - 1] >= 0 else (-1) ** j * math.comb(-b[k - 1], j)
            factor[k * j] = Fraction(binom)
        series = [
            sum(series[i] * factor[m - i] for i in range(m + 1))
            for m in range(K + 1)
        ]
    assert [int(x) for x in series[1:]] == A[:K]


def test_integrality_violation_raised():
    with pytest.raises(IntegralityViolation):
        series_coefficients([1, 1, 2, 1])  # 2 E_2 = 1*1 + 2 -> 3/2


def test_moment_sequence_validation():
    with pytest.raises(ValueError):
        MomentSequence((2, 3), "constant-term")


# -- recurrences -----------------------------------------------------------------


def test_honeycomb_recurrence_small(w_honey):
    assert 4 * 15 == 23 * 3 - 9 * 1  # k = 1 instance
    seq = moment_sequence(w_honey, 41)
    assert verify_recurrence(seq, HONEYCOMB_RECURRENCE)


def test_recurrence_rejects_wrong_coefficients(w_honey):
    seq = moment_sequence(w_honey, 8)
    wrong = ((-1, (0, 0, 9)), (0, (-3, -10, -10)), (1, (2, 2, 1)))
    assert not verify_recurrence(seq, wrong)


# -- generating series and formal logs ---------------------------------------------


def test_chebyshev_generating_series():
    assert chebyshev_generating_check(6, 10)
    assert chebyshev_generating_check(5, 5)
    assert chebyshev_generating_check(4, 4)


def test_poly_log_matches_level_moments(w_honey):
    # coefficients of log(p(z)/z^deg) are -N^n m_k^(N) / k
    for N in (1, 2, 3):
        p = spectral_polynomial(w_honey, N)
        K = 6
        logs = poly_log_series(p, K)
        for k in range(1, K + 1):
            assert logs[k - 1] == Fraction(-(N**2) * moment_sequence_N(w_honey, k, N)[k], k)


def test_truncated_expansion_rate(w_honey):
    # the 1/z expansion built from level-N moments agrees with the exact one
    # through the order where folded and exact moments coincide; beyond that
    # the level-N expansion need not be integral, so expand with Fractions
    def exp_series(values, K):
        out = [Fraction(1)]
        for k in range(1, K + 1):
            out.append(
                sum(Fraction(values[j]) * out[k - j] for j in range(1, k + 1)) / k
            )
        return out[1:]

    N = 8
    exact = moment_sequence(w_honey, N + 1)
    level = moment_sequence_N(w_honey, N + 1, N)
    agree_to = N - 1  # m_k equal for k < N in this example
    a_exact = exp_series(exact.values, agree_to)
    a_level = exp_series(level.values, agree_to)
    assert a_exact == a_level
    assert a_exact == [
        Fraction(x) for x in series_coefficients(moment_sequence(w_honey, agree_to + 1))
    ]
