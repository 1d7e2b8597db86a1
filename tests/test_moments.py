import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from speclat.context import SpectralContext
from speclat.errors import IntegralityViolation, RankDeficient, SizeLimit
from speclat.lattice import WeightedPointSet, difference_lattice
from speclat.laurent import LaurentPoly, _tight_form, diffraction_polynomial
from speclat.moments import (
    _moment_sweep,
    check_congruence,
    moment_sequence,
    moment_sequence_N,
    newton_sums,
    product_exponents,
    series_coefficients,
)
from speclat.specpoly import _character_power_sums, spectral_factors
from speclat.verify import HONEYCOMB_RECURRENCE, _check_generating_series

from _oracles import (
    constant_term,
    convolution_matrix,
    evaluate_at_integer,
    exact_moment_sweep,
    folded_moment_sweep,
    from_roots,
    is_palindromic,
    power,
    rebased,
)
from conftest import (
    HONEYCOMB_BAD_FIBRES,
    WEIGHTED_BAD_FIBRES,
    WEIGHTED_TRIANGLE,
    random_point_set,
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
    assert list(seq) == [moment_sequence(w_honey, k)[k] for k in range(11)]


@pytest.mark.parametrize("K, capped", [(100, False), (200, True)])
def test_exact_moment_torus_capped_by_its_shape(monkeypatch, K, capped):
    # tight reaches 2 and 300: (K + 1)^2 is far below the cap, but the torus the
    # moments need passes it at K = 200, and is refused before any power sum
    ps = WeightedPointSet(2, (((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((300, 300), 1)))
    shapes = []
    monkeypatch.setattr("speclat.moments._character_power_sums",
                        lambda g, K, shape: shapes.append(shape) or (lambda: [1] * (K + 1)))
    w = diffraction_polynomial(ps, difference_lattice(ps))
    if capped:
        with pytest.raises(SizeLimit, match="past cap 10000000"):
            moment_sequence(w, K)
        assert shapes == []
    else:
        moment_sequence(w, K)
        assert shapes == [(201, 30150)]


def test_zeroth_moment_builds_no_torus(monkeypatch, w_honey):
    # m_0 = 1 on any torus, so K = 0 builds no tight form and sums no powers: the
    # 40-D simplex's tight form and the honeycomb's 3000^2 characters took seconds
    def refuse(*args):
        raise AssertionError("a torus built for m_0")

    for modname, mod in list(sys.modules.items()):
        for name in ("_tight_form", "_character_power_sums"):
            if modname.split(".")[0] == "speclat" and hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    n = 40
    simplex = WeightedPointSet(n, [(tuple(int(i == j) for j in range(n)), 1) for i in range(n)]
                               + [((-1,) * n, 1)])
    assert moment_sequence(diffraction_polynomial(simplex, difference_lattice(simplex)), 0) == (1,)
    assert moment_sequence_N(w_honey, 0, 3000) == (1,)


def test_moments_basis_independent(honeycomb, w_honey):
    # W's exponents in coordinates on other bases, unimodular changes of them
    hnf = difference_lattice(honeycomb).rows
    for rows in (((2, 1), (1, 2)), ((2, 1), (-1, -2))):
        w_alt = rebased(w_honey, hnf, rows)
        for k in range(7):
            assert moment_sequence(w_alt, k)[k] == moment_sequence(w_honey, k)[k]
        for N in (2, 3, 5):
            assert moment_sequence_N(w_alt, 4, N)[4] == moment_sequence_N(w_honey, 4, N)[4]


def test_level_moments_refused_past_the_float_cap(w_honey):
    # by the CLI's levels rule, with its message, before any power sum: 10^8 characters
    # once ran for minutes, and 2000^2 are within the cap, but not 5 power steps over each
    for K, N, steps in ((2, 10**4, 1), (10, 2000, 5)):
        start = time.process_time()
        with pytest.raises(SizeLimit, match=rf"^moments levels need {N}\^2 x {steps} cells, "
                                            r"past the float cap 10000000$"):
            moment_sequence_N(w_honey, K, N)
        assert time.process_time() - start < 1


@pytest.mark.parametrize("call", [lambda w: moment_sequence(w, 5000),
                                  lambda w: moment_sequence_N(w, 5000, 3)],
                         ids=["exact", "level"])
def test_moment_lists_refused_past_the_series_cap(w_cheb, call):
    # the CLI's k_max cap: the exact list to K = 5000 once ran past 15 s
    start = time.process_time()
    with pytest.raises(SizeLimit, match=r"^moments need a sweep past k = 1024, the series cap$"):
        call(w_cheb)
    assert time.process_time() - start < 1


def test_the_series_cap_admits_its_longest_list(w_cheb):
    assert moment_sequence(w_cheb, 1024)[1024] == math.comb(2048, 1024)


@pytest.mark.parametrize("K", [0, 3])
def test_level_zero_is_refused(w_honey, K):
    # at K = 0 the cost proxy alone would pass N = 0 and give (1,)
    with pytest.raises(ValueError, match="^N must be >= 1$"):
        moment_sequence_N(w_honey, K, 0)


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
            rows = convolution_matrix(w, N)
            size = len(rows)
            acc = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
            for k in range(1, 7):
                acc = [
                    [
                        sum(acc[i][t] * rows[t][j] for t in range(size))
                        for j in range(size)
                    ]
                    for i in range(size)
                ]
                tr = sum(acc[i][i] for i in range(size))
                assert tr == N**n * moment_sequence_N(w, k, N)[k]


def test_congruence_sweep_capped_for_library_callers(monkeypatch):
    # {(0,0), (1,0), (0,1), (300,300)}: tight reach (2, 300), so the sweep to
    # h = 2^8 needs 513 x 76801 cells, and is refused before any is allocated
    ps = WeightedPointSet(2, [((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((300, 300), 1)])
    w = diffraction_polynomial(ps, difference_lattice(ps))
    monkeypatch.setattr("speclat.moments.np", None)  # the sweep's arrays
    with pytest.raises(SizeLimit, match="a moment sweep to k = 256 needs 39398913 cells"):
        check_congruence(w, 2, 1, 7)
    monkeypatch.setattr("speclat.limits.DEFAULT_FLOAT_CAP", 1000)
    with pytest.raises(SizeLimit, match=r"1025\^2 cells of a moment sweep exceed cap 1000"):
        check_congruence(w, 2, 1, 9)


@pytest.mark.parametrize("alpha", [10**5, 10**9])
def test_congruence_sweep_refused_from_bit_lengths(w_honey, monkeypatch, alpha):
    # h = 3^(alpha + 1) passes the series cap: refused before the power is formed
    # or the kernel built, with the CLI's message
    monkeypatch.setattr("speclat.moments._tight_form", None)
    start = time.process_time()
    with pytest.raises(SizeLimit, match=r"^moments need a sweep past k = 1024, the series cap$"):
        check_congruence(w_honey, 3, 1, alpha)
    assert time.process_time() - start < 1


@pytest.mark.parametrize("p, alpha", [(1021, 0), (2, 9)])  # h = q = 1021, and 1024 = the cap
def test_congruence_at_the_largest_sweeps(w_cheb, p, alpha):
    q = p ** (alpha + 1)
    exact = exact_moment_sweep(w_cheb, q, coeff_mod=q)
    assert swept(w_cheb, q, q) == exact
    assert check_congruence(w_cheb, p, 1, alpha) == (exact[q] == exact[q // p])


# -- property sweep against the full-torus oracle ---------------------------------


def swept(f: LaurentPoly, K: int, q: int) -> list[int]:
    """``_moment_sweep`` of f to K modulo q, on the kernel a congruence sweep builds."""
    kernel, r = _tight_form(LaurentPoly(f.dimension, {e: c % q for e, c in f.terms.items()}))
    return _moment_sweep(kernel, r, K, q)


def check_against_full_torus(f: LaurentPoly, K: int):
    """Every moment entry point agrees with K products on the full fold
    torus, whatever the signs of the coefficients."""
    exact = exact_moment_sweep(f, K)
    reach = max(abs(x) for e in f.terms for x in e)
    assert _character_power_sums(f, K, (K * reach + 1,) * f.dimension)() == exact
    assert list(moment_sequence(f, K)) == exact
    assert [swept(f, k, 9)[k] for k in range(K + 1)] == [m % 9 for m in exact]
    for q in (9, 1021, 1024):  # up to the largest moduli a congruence sweep has
        assert swept(f, K, q) == [m % q for m in exact]
    for N in (1, 2, 3, 5):
        level = folded_moment_sweep(f, K, N)
        assert _character_power_sums(f, K, (N,) * f.dimension)() == level
        assert list(moment_sequence_N(f, K, N)) == level
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


@st.composite
def palindromic_cases(draw):
    """A palindromic f, whose character values are real, as every W's are:
    the diffraction polynomial of a random weighted point set, or a random
    Laurent polynomial plus its reflection (negative coefficients too)."""
    n = draw(st.integers(1, 3))
    K = draw(st.integers(0, 12 if n < 3 else 8))
    if draw(st.booleans()):
        box = 2 if n < 3 else 1
        points = draw(st.lists(
            st.tuples(*[st.integers(-box, box)] * n), min_size=n + 1, max_size=4, unique=True
        ))
        weights = draw(st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points)))
        ps = WeightedPointSet(n, tuple(zip(points, weights)))
        try:
            basis = difference_lattice(ps)
        except RankDeficient:
            assume(False)
        return diffraction_polynomial(ps, basis), K
    span = 3 if n < 3 else 2
    exponent = st.tuples(*[st.integers(-span, span)] * n)
    terms = draw(st.dictionaries(exponent, st.integers(-3, 3).filter(bool), min_size=1, max_size=4))
    symmetric: dict = {}
    for e, c in terms.items():
        for v in (e, tuple(-x for x in e)):
            symmetric[v] = symmetric.get(v, 0) + c
    return LaurentPoly(n, symmetric), K


@settings(max_examples=60)
@given(palindromic_cases())
def test_half_box_sweep_matches_full_torus(case):
    assert is_palindromic(case[0])
    check_against_full_torus(*case)


@pytest.mark.parametrize("seed", range(9))
def test_level_moments_above_wrap_are_exact(seed):
    # no power up to f^K wraps on the N-torus, so the two sweeps agree
    rng = random.Random(5000 + seed)
    n = 1 + seed % 3
    w = diffraction_polynomial(ps := random_point_set(rng, dimension=n), difference_lattice(ps))
    K = rng.randint(1, 10 if n < 3 else 3)
    N = 2 * K * max(abs(x) for e in w.terms for x in e) + 1
    assert moment_sequence_N(w, K, N) == moment_sequence(w, K)


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
    with pytest.raises(IntegralityViolation, match="b_2 = 1/2"):
        product_exponents((1, 0, 1))  # b_1 = m_1 = 0, 2 b_2 = m_2 - b_1 = 1


def test_moment_sequence_validation():
    with pytest.raises(ValueError):
        series_coefficients((2, 3))


# -- recurrences: guessed modulo a word-sized prime, then proved over Z --------------

GUESS_PRIME = 2**61 - 1
HONEYCOMB = (((1, 0), 1), ((0, 1), 1), ((-1, -1), 1))


def kernel_mod(rows, p):
    """A basis of the right kernel of the integer matrix ``rows`` modulo the prime p,
    by Gauss-Jordan elimination: one vector per free column."""
    rows, pivots = [[x % p for x in row] for row in rows], []
    for c in range(len(rows[0])):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [(x - row[c] * y) % p for x, y in zip(row, rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(len(rows[0])) if c not in pivots):
        v = [0] * len(rows[0])
        v[free] = 1
        for row, c in zip(rows, pivots):
            v[c] = -row[free] % p
        basis.append(v)
    return basis


def rational(a, p):
    """n/d = a mod p, n the first remainder below sqrt(p/2) of the extended Euclidean
    algorithm on (p, a) and d its cofactor (Wang, SYMSAC 1981): a guess, which the
    exact check that follows decides."""
    r0, r1, t0, t1 = p, a % p, 0, 1
    while 2 * r1 * r1 > p:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1)


def primitive(c):
    """The integer vector c over the gcd of its entries, its first nonzero entry positive."""
    g = math.gcd(*c)
    return [x // g for x in c] if next(x for x in c if x) > 0 else [-x // g for x in c]


def guess_recurrence(m, budget=6):
    """(r, d, [q_0, .., q_r]) with sum_i q_i(k) m_{k+i} = 0 for every k that m reaches,
    each q_i of degree at most d by ascending integer coefficients, for the least
    order r >= 1 and then the least degree d with r + d <= budget; None if there is
    none, since an integer kernel vector made primitive survives modulo the prime.
    Its kernel modulo ``GUESS_PRIME`` must be one vector; reconstructed over Q, it is
    checked over Z on every row, the rows past the (r + 1)(d + 1) unknowns spare."""
    for r in range(1, budget + 1):
        for d in range(budget + 1 - r):
            rows = [[k**j * m[k + i] for i in range(r + 1) for j in range(d + 1)]
                    for k in range(len(m) - r)]
            if kernel := kernel_mod(rows, GUESS_PRIME):
                [v] = kernel
                assert len(rows) >= 2 * len(v)  # as many spare rows as unknowns
                q = [rational(x, GUESS_PRIME) for x in v]
                scale = math.lcm(*(x.denominator for x in q))
                c = primitive([int(x * scale) for x in q])
                assert all(sum(a * b for a, b in zip(row, c)) == 0 for row in rows)
                return r, d, [tuple(c[i * (d + 1) : (i + 1) * (d + 1)]) for i in range(r + 1)]
    return None


def test_the_found_honeycomb_recurrence_is_the_frozen_one(honeycomb_ctx):
    # c05 states sum over (offset, q) of q(k) m_{k + offset} = 0, offsets -1..1: at
    # k + 1, offsets 0..2, each q(k + 1) expanded by the binomial theorem
    r, d, found = guess_recurrence(honeycomb_ctx.moment_sequence(40))
    frozen = [tuple(sum(c * math.comb(i, j) for i, c in enumerate(q)) for j in range(len(q)))
              for _, q in sorted(HONEYCOMB_RECURRENCE)]
    assert (r, d) == (2, 2)
    assert list(sum(found, ())) == primitive(sum(frozen, ()))


@pytest.mark.parametrize("points, order, degree, bad", [
    (HONEYCOMB, 2, 2, HONEYCOMB_BAD_FIBRES),
    (WEIGHTED_TRIANGLE, 3, 3, WEIGHTED_BAD_FIBRES),
], ids=["honeycomb", "weighted"])
def test_the_recurrence_roots_are_the_bad_fibres(points, order, degree, bad):
    # the characteristic polynomial sum_i [k^d] q_i x^i splits over Z, and its roots
    # with 0 are the fibres W = z that the Hasse-Weil tests skip (test_arith.py)
    m = SpectralContext(WeightedPointSet(2, points)).moment_sequence(40)
    r, d, q = guess_recurrence(m)
    assert (r, d) == (order, degree)
    chi = [qi[d] for qi in q]
    bound = 2 + max(map(abs, chi)) // abs(chi[-1])  # Cauchy's
    roots = [x for x in range(-bound, bound) if evaluate_at_integer(chi, x) == 0]
    assert chi == [chi[-1] * c for c in from_roots(roots)]
    assert {0, *roots} == set(bad)


@settings(max_examples=25)
@given(st.tuples(*[st.integers(1, 6)] * 3))
def test_the_recurrence_roots_are_the_bad_fibres_of_weighted_triangles(weights):
    # W = |a + b x + c y|^2 meets its singular fibres at 0 and the (a +- b +- c)^2; with
    # four distinct nonzero ones the recurrence needs order 4 and degree 4
    a, b, c = weights
    m = SpectralContext(WeightedPointSet(2, (((0, 0), a), ((1, 0), b), ((0, 1), c)))).moment_sequence(60)
    found = guess_recurrence(m, budget=8)
    assert found is not None
    r, d, q = found
    chi = [qi[d] for qi in q]
    bad = {0} | {(a + s * b + t * c) ** 2 for s in (1, -1) for t in (1, -1)}
    roots = [x for x in bad if evaluate_at_integer(chi, x) == 0]
    assert chi == [chi[-1] * x for x in from_roots(roots)]  # it splits, over these roots
    assert {0, *roots} == bad


@pytest.mark.parametrize("points", [HONEYCOMB, WEIGHTED_TRIANGLE], ids=["honeycomb", "weighted"])
def test_one_moment_off_by_one_leaves_no_recurrence(points):
    m = list(SpectralContext(WeightedPointSet(2, points)).moment_sequence(40))
    m[20] += 1
    assert guess_recurrence(m) is None


# -- generating series and formal logs ---------------------------------------------


def test_chebyshev_generating_series(cheb_ctx):
    # -log(1 - (z - 4) T / (1 - T)^2) = -log(1 - (z - 2) T + T^2) + 2 log(1 - T)
    for z, K in ((6, 10), (5, 5), (4, 4), (7, 12), (0, 9), (-3, 8), (100, 10)):
        assert _check_generating_series(cheb_ctx, z, K)[0]


def test_newton_sums_match_level_moments(w_honey):
    # the power sums of b_N's roots, the values W(chi), are N^n m_k^(N)
    for N in (1, 2, 3):
        p = spectral_factors(w_honey, N).polynomial
        K = 6
        assert newton_sums(p, K) == [N**2 * m for m in moment_sequence_N(w_honey, K, N)[1:]]


@given(st.lists(st.integers(-20, 20), max_size=8), st.integers(0, 12))
def test_newton_sums_are_root_power_sums(roots, K):
    assert newton_sums(from_roots(roots), K) == [sum(r**k for r in roots) for k in range(1, K + 1)]


@pytest.mark.parametrize("p", [(1, 2), (0, 1, -1), (3,)])
def test_newton_sums_refuse_a_non_monic_polynomial(p):
    with pytest.raises(ValueError, match="monic"):
        newton_sums(p, 3)


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
    a_exact = exp_series(exact, agree_to)
    a_level = exp_series(level, agree_to)
    assert a_exact == a_level
    assert a_exact == [
        Fraction(x) for x in series_coefficients(moment_sequence(w_honey, agree_to + 1))
    ]
