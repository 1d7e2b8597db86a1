import decimal
import itertools
import math
import random
import time
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from speclat import arith, limits, primes, specpoly
from speclat.arith import primitive_modulus, valuation_inequality_check, vp
from speclat.context import SpectralContext
from speclat.errors import CosetViolation, RankDeficient, SizeLimit
from speclat.lattice import WeightedPointSet
from speclat.laurent import fold_mod_N
from speclat.moments import moment_sequence_N
from speclat.primes import prime_factors
from speclat.specpoly import character_values

from _oracles import (
    crt_point_values,
    evaluate_at_integer,
    expanded,
    exact_lift_precision,
    miller_rabin_twelve,
    sieve,
    tuple_count_points,
)
from conftest import HONEYCOMB_BAD_FIBRES, SMALL_CAPS, WEIGHTED_BAD_FIBRES, WEIGHTED_TRIANGLE

F7_COUNT_ROW = [8, 15, 1, 6, 6, 0, 0]


@pytest.mark.parametrize("p, nu, message", [(4, 1, "4 is not prime"), (5, 0, "nu must be >= 1")])
def test_primitive_modulus_refuses_a_composite_p_and_nu_below_one(p, nu, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        primitive_modulus(p, nu)


def test_vp_examples():
    assert vp(722, 19) == 2  # 722 = 2 * 19^2
    assert vp(0, 5) == math.inf
    assert vp(-56, 2) == 3
    assert vp(9, 2) == 0
    with pytest.raises(ValueError):
        vp(10, 6)


def test_vp_of_spectral_value(honeycomb_ctx):
    v = evaluate_at_integer(expanded(honeycomb_ctx.spectral_factors(6)), 53)
    assert vp(v, 7) == 12


def test_factorize_examples():
    assert prime_factors(140450) == {2: 1, 5: 2, 53: 2}
    assert prime_factors(1) == {}
    assert prime_factors(12) == {2: 2, 3: 1}
    assert prime_factors(3137 * 3163) == {3137: 1, 3163: 1}  # near a moment shape's cap 10^7
    with pytest.raises(ValueError):
        prime_factors(0)


def test_factorize_spectral_value(cheb_ctx):
    # level 9 value at 6 appears in the printed series as 140450
    assert evaluate_at_integer(expanded(cheb_ctx.spectral_factors(9)), 6) == 140450


@pytest.mark.parametrize("seed", range(6))
def test_factorize_roundtrip(seed):
    rng = random.Random(seed)
    x = rng.randrange(2, 10**12)
    f = prime_factors(x)
    assert all(primes.is_prime(p) for p in f)
    assert math.prod(p**e for p, e in f.items()) == x
    assert all(e >= 1 for e in f.values())


def test_factorize_semiprime_beyond_trial_range():
    p, q = 1_000_003, 1_000_033
    assert prime_factors(p * q) == {p: 1, q: 1}


def test_factorize_matches_smallest_factor_sieve():
    limit = 10**5
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    for n in range(2, limit + 1):
        expected, m = {}, n
        while m > 1:
            expected[spf[m]] = expected.get(spf[m], 0) + 1
            m //= spf[m]
        assert prime_factors(n) == expected, n


@pytest.mark.parametrize(
    "factors",
    [
        {1_000_003: 2},
        {1_000_003: 1, 1_000_033: 1, 1_000_037: 1},
        {2: 3, 3: 1, 1_000_039: 1, 1_000_081: 1},
        {7: 1, 999_983: 1, 1_000_099: 2},
        {2_147_483_647: 1, 1_000_003: 1},
    ],
)
def test_factorize_products_of_primes_above_trial_range(factors):
    assert prime_factors(math.prod(p**e for p, e in factors.items())) == factors


@pytest.mark.parametrize("p", [1_099_511_627_791, 2**61 - 1])  # past 2^40, and 2^61 - 1
@pytest.mark.parametrize("k", [2, 3])
def test_factorize_powers_of_a_large_prime_without_rho(p, k):
    # with no rho and no root search, p^k (p past 2^20) is refused, not split
    for n in (p**k, 12 * p**k * 1021**2):
        with pytest.raises(ValueError, match=f"cannot factor {n}: a composite factor"):
            prime_factors(n)


def test_factorize_refuses_two_prime_factors_past_2_20():
    # trial division stops at 2^20; no level or field order under the caps gets there
    n = (2**31 - 1) * (2**61 - 1)
    with pytest.raises(ValueError, match=f"cannot factor {n}: a composite factor"):
        prime_factors(n)


# primes on both sides of the trial bound 2^10, and powers of them; 3163, the least
# prime whose square passes 10^7, stands in for the largest trial divisor a number
# under the caps needs (the cases above keep the primes near 2^20)
_FACTOR_PRIMES = (2, 3, 5, 1013, 1019, 1021, 1031, 1033, 3163, 65537)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(_FACTOR_PRIMES), st.integers(1, 4), max_size=4))
def test_factorize_returns_the_factors_it_was_built_from(factors):
    f = prime_factors(math.prod(p**e for p, e in factors.items()))
    assert f == factors
    assert list(f) == sorted(f)


# -- finite fields ----------------------------------------------------------------


@pytest.mark.parametrize("p,nu", [(2, 1), (7, 1), (3, 2), (5, 2), (2, 4)])
def test_field_generator_order(p, nu):
    F = primitive_modulus(p, nu)
    q, one = p**nu, (1,) + (0,) * (nu - 1)
    assert F[-1] == 1 and len(F) == nu + 1
    g = arith._poly_pow((0, 1), 1, F, p)
    seen = {g}
    acc = g
    for _ in range(q - 2):
        acc = arith._poly_mul_mod(acc, g, F, p)
        seen.add(acc)
    assert acc == arith._poly_pow(g, q - 1, F, p) or q - 1 == 1
    assert arith._poly_pow(g, q - 1, F, p) == one
    assert len(seen) == q - 1  # g really generates the whole group


def test_field_modulus_deterministic():
    assert primitive_modulus(5, 3) == primitive_modulus(5, 3)


def _order_of_x(F, p):
    """The multiplicative order of x modulo (F, p) by repeated multiplication,
    None if no power of x up to p^nu - 1 is 1."""
    nu = len(F) - 1
    one = (1,) + (0,) * (nu - 1)
    g = acc = arith._poly_pow((0, 1), 1, F, p)
    for k in range(1, p**nu):
        if acc == one:
            return k
        acc = arith._poly_mul_mod(acc, g, F, p)
    return None


# every field of at most 200 elements over a prime p < 80
@pytest.mark.parametrize("p,nu", [(p, nu) for p in range(80) if primes.is_prime(p)
                                  for nu in range(1, 8) if p**nu <= 200])
def test_field_modulus_is_the_first_primitive(p, nu):
    # brute force: x has order p^nu - 1 modulo F, and modulo no monic polynomial
    # whose lower coefficients come first in lexicographic order
    F = primitive_modulus(p, nu)
    assert len(F) == nu + 1 and F[-1] == 1
    assert _order_of_x(F, p) == p**nu - 1
    for low in itertools.product(range(p), repeat=nu):
        if low == F[:-1]:
            break
        assert _order_of_x(low + (1,), p) != p**nu - 1, low


def test_field_modulus_over_a_large_prime():
    # each of the p candidates with a_0 = 1 has norm 1, no generator of F_p^*: a search
    # that tries them never ends here.  A bound on the powers taken fails it fast.
    p, powers, original = 2**61 - 1, itertools.count(1), arith._poly_pow

    def bounded(*args):
        assert next(powers) <= 100, "more than 100 powers taken"
        return original(*args)

    with mock.patch.object(arith, "_poly_pow", side_effect=bounded):
        F = primitive_modulus(p, 2)
    assert F == (37, 2, 1)
    q, one = p**2, (1, 0)
    quotients = [(q - 1) // ell for ell in prime_factors(q - 1)]
    order_is_q_minus_1 = lambda F: arith._poly_pow((0, 1), q - 1, F, p) == one and all(
        arith._poly_pow((0, 1), e, F, p) != one for e in quotients)
    assert order_is_q_minus_1(F)
    assert not any(order_is_q_minus_1((37, a1, 1)) for a1 in range(2))
    # the norm a_0 of every earlier candidate is no generator of F_p^*
    assert all(any(pow(a0, (p - 1) // ell, p) == 1 for ell in prime_factors(p - 1))
               for a0 in range(1, 37))


def test_teichmuller_lift_is_the_root_of_unity_over_g():
    # from the root x at p^j the ladder climbs 2j, 4j, .., k, each rung the root over g
    for p, nu in ((2, 1), (2, 4), (3, 2), (5, 3), (13, 1)):
        F = primitive_modulus(p, nu)
        g, one = arith._poly_pow((0, 1), 1, F, p), (1,) + (0,) * (nu - 1)
        starts = [(1, g), *arith._teichmuller(F, p, g, 1, 5)]
        assert [j for j, _ in starts] == [1, 2, 4, 5]
        for j, x in starts:
            for k in (1, 2, 3, 9, 33, 100):
                rungs = [j]
                while rungs[-1] < k:
                    rungs.append(min(2 * rungs[-1], k))
                lifts = list(arith._teichmuller(F, p, x, j, k))
                assert [i for i, _ in lifts] == rungs[1:]
                for i, y in lifts:
                    assert tuple(c % p for c in y) == g
                    assert tuple(c % p**j for c in y) == x
                    assert arith._poly_pow(y, p**nu - 1, F, p**i) == one


# -- point counts -----------------------------------------------------------------


def counts(ctx, zs, p, nu=1):
    """The point-count column of the valuation inequality."""
    return [count for _, count, _ in valuation_inequality_check(ctx, zs, p, nu)]


def test_honeycomb_f7_table(honeycomb_ctx):
    assert counts(honeycomb_ctx, range(7), 7) == F7_COUNT_ROW


def test_count_total_is_group_size(honeycomb_ctx):
    assert sum(counts(honeycomb_ctx, range(7), 7)) == 36


def test_count_at_top_value(honeycomb_ctx, cheb_ctx):
    # the all-ones point always maps to total_weight^2
    assert counts(honeycomb_ctx, [9], 11)[0] >= 1
    assert counts(cheb_ctx, [4], 13)[0] >= 1


def test_count_basis_invariance_via_extension(honeycomb_ctx):
    # same count whether z is reduced or not
    assert counts(honeycomb_ctx, [53, 4], 7) == [6, 6]


def test_count_extension_field(cheb_ctx):
    # over the 9-element field: W(u) = (u+1)^2/u = z has solutions counted
    # against a direct enumeration using a second power table convention
    F = primitive_modulus(3, 2)
    g = arith._poly_pow((0, 1), 1, F, 3)
    found = {}
    for i in range(8):
        u = arith._poly_pow(g, i, F, 3)
        uinv = arith._poly_pow(g, (8 - i) % 8, F, 3)
        val = tuple((x + y + e) % 3 for x, y, e in zip(u, uinv, (2, 0)))
        found[val] = found.get(val, 0) + 1
    for z in range(3):
        expect = found.get((z, 0), 0)
        assert counts(cheb_ctx, [z], 3, 2) == [expect]


def test_count_cap(monkeypatch):
    monkeypatch.setattr("speclat.limits.DEFAULT_SIZE_LIMIT", 50)
    ctx = SpectralContext(WeightedPointSet(2, (((1, 0), 1), ((0, 1), 1), ((-1, -1), 1))))
    with pytest.raises(SizeLimit):
        valuation_inequality_check(ctx, [1], 11, 1)


@st.composite
def count_cases(draw, max_tuples=1000):
    """A point set in 1-3 dimensions and a field of p^nu elements, p <= 13
    and nu <= 3, whose torus of at most ``max_tuples`` points the tuple
    oracle can walk."""
    n = draw(st.integers(1, 3))
    points = draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * n), min_size=n + 1, max_size=4, unique=True
    ))
    weights = draw(st.lists(st.integers(1, 13), min_size=len(points), max_size=len(points)))
    try:
        ctx = SpectralContext(WeightedPointSet(n, tuple(zip(points, weights))))
    except (RankDeficient, CosetViolation):
        assume(False)
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    nu = draw(st.integers(1, 3))
    assume((p**nu - 1) ** n <= max_tuples)
    return ctx, p, nu


@settings(max_examples=30)
@given(count_cases(), st.sampled_from([1, 7, 2**16]))
def test_count_points_matches_tuple_oracle(case, block):
    # the character rows, grouped ``block`` characters at a time, give the counts
    ctx, p, nu = case
    zs = [*range(p), -1, p + 2]
    original = specpoly._CHAR_BLOCK
    specpoly._CHAR_BLOCK = block
    try:
        found = counts(ctx, zs, p, nu)
    finally:
        specpoly._CHAR_BLOCK = original
    assert found == [tuple_count_points(ctx, z, p, nu) for z in zs]
    assert sum(found[:p]) <= (p**nu - 1) ** ctx.dimension


# -- the p-adic counts against b_N's factors ------------------------------------------


def root_multiplicity_mod(g, z, p):
    """The multiplicity of z as a root of the monic g mod p, low degree first:
    synthetic division by z - z until a remainder is nonzero."""
    g, mult = [c % p for c in g], 0
    while True:
        acc, quot = 0, []
        for c in reversed(g):
            acc = (acc * z + c) % p
            quot.append(acc)
        if acc:  # the last is the remainder, g(z)
            return mult
        g, mult = quot[-2::-1], mult + 1


def check_counts_against_factors(ctx, p, nu=1):
    """For N = p^nu - 1, the point count at each z in F_p is the number of characters
    with W(chi) = z mod a prime over p, as the N-th roots of unity reduce to F_(p^nu)^x:
    the multiplicity of z as a root of b_N = prod_d prod_j g_{d,j}**j mod p, read off
    the strata Psi_d that ``specpoly`` lifts over its split moduli."""
    b = ctx.spectral_factors(p**nu - 1)
    assert counts(ctx, range(p), p, nu) == [
        sum(j * root_multiplicity_mod(g, z, p) for (_, j), g in b.factors.items()) for z in range(p)
    ]


@pytest.mark.parametrize("points, p", [
    *((WEIGHTED_TRIANGLE, p) for p in (5, 7, 11, 13)),
    *(((((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)), p) for p in (5, 7, 11)),
], ids=["weighted-5", "weighted-7", "weighted-11", "weighted-13",
        "honeycomb-5", "honeycomb-7", "honeycomb-11"])
def test_padic_counts_are_the_roots_of_the_factors(points, p):
    check_counts_against_factors(SpectralContext(WeightedPointSet(2, points)), p)


EXTENSION_SETS = {
    "weighted": (2, WEIGHTED_TRIANGLE),
    "honeycomb": (2, (((1, 0), 1), ((0, 1), 1), ((-1, -1), 1))),
    "line-142": (1, (((0,), 1), ((1,), 4), ((5,), 2))),
    "simplex-1235": (3, (((0, 0, 0), 1), ((1, 0, 0), 2), ((0, 1, 0), 3), ((0, 0, 1), 5))),
}


@pytest.mark.parametrize("name, p, nu", [
    *((name, p, nu) for name in ("weighted", "honeycomb", "line-142")
      for p, nu in ((2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3))),
    *(("simplex-1235", p, nu) for p, nu in ((2, 2), (3, 2), (2, 3))),
])
def test_padic_counts_are_the_roots_of_the_factors_over_extensions(name, p, nu):
    check_counts_against_factors(SpectralContext(WeightedPointSet(*EXTENSION_SETS[name])), p, nu)


@settings(max_examples=150)
@given(count_cases(max_tuples=10**6), st.data())
def test_padic_counts_are_the_roots_of_the_factors_property(case, data):
    # weighted sets of 1-3 dimensions, p <= 13 in 1 and 2 and p <= 7 in 3, and
    # nu = 2, 3 where the (p^nu - 1)^n characters are within the small size cap
    ctx, n = case[0], case[0].dimension
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13] if n < 3 else [2, 3, 5, 7]))
    nu = data.draw(st.sampled_from(
        [1, *(nu for nu in (2, 3) if (p**nu - 1) ** n <= SMALL_CAPS["DEFAULT_SIZE_LIMIT"])]))
    check_counts_against_factors(ctx, p, nu)


# -- the p-adic counts against the level moments ----------------------------------------


def check_counts_against_moments(ctx, p):
    """For N = p - 1, count(z) = (-1)^n (1 - sum_{j < p} M_j z^(p-1-j)) mod p, M_j the
    level-N moments: on F_p, [W(x) = z] = 1 - (W(x) - z)^(p-1) (Chevalley-Warning),
    (W - z)^(p-1) = sum_j W^j z^(p-1-j) as C(p-1, j) = (-1)^j, and the sum of W^j over
    the torus (F_p^x)^n is (p-1)^n M_j."""
    M, sign = moment_sequence_N(ctx.w, p - 1, p - 1), (-1) ** ctx.dimension
    expect = [sign * (1 - sum(m * pow(z, p - 1 - j, p) for j, m in enumerate(M))) % p
              for z in range(p)]  # pow(0, 0, p) = 1
    assert [count % p for count in counts(ctx, range(p), p)] == expect


@pytest.mark.parametrize("dimension, points, p", [
    (2, (((1, 0), 1), ((0, 1), 2), ((-1, -1), 3)), 7),
    *((2, WEIGHTED_TRIANGLE, p) for p in (11, 13)),
    (3, (((0, 0, 0), 1), ((1, 0, 0), 2), ((0, 1, 0), 3), ((0, 0, 1), 5)), 5),
], ids=["honeycomb-123-7", "weighted-11", "weighted-13", "simplex-1235-5"])
def test_padic_counts_are_the_level_moments_mod_p(dimension, points, p):
    check_counts_against_moments(SpectralContext(WeightedPointSet(dimension, points)), p)


@settings(max_examples=100)
@given(count_cases(max_tuples=10**6), st.data())
def test_padic_counts_are_the_level_moments_mod_p_property(case, data):
    # weighted sets of 1-3 dimensions, p <= 13 in 1 and 2 and p <= 7 in 3
    ctx = case[0]
    check_counts_against_moments(ctx, data.draw(st.sampled_from(
        [2, 3, 5, 7, 11, 13] if ctx.dimension < 3 else [2, 3, 5, 7])))


# -- Hasse-Weil: the smooth fibres of W = z are genus-1 curves ------------------------

def frobenius_traces(ctx, p, bad):
    """{z: [a_0, a_1, ...]} for each residue z mod p outside ``bad``, where
    a_nu = p^nu - 5 - N_nu, N_nu the torus points of W = z over F_{p^nu}, for
    every nu the size cap admits, and a_0 = 2."""
    zs = [z for z in range(p) if z not in {b % p for b in bad}]
    top = max(nu for nu in range(1, 20) if (p**nu - 1) ** 2 <= limits.DEFAULT_SIZE_LIMIT)
    columns = [[p**nu - 5 - c for c in counts(ctx, zs, p, nu)] for nu in range(1, top + 1)]
    return {z: [2, *a] for z, a in zip(zs, zip(*columns))}


def check_hasse_weil(traces, p):
    """A smooth fibre is a genus-1 curve that meets the toric boundary in 6
    rational points: N_nu = p^nu - 5 - (alpha^nu + beta^nu), alpha beta = p,
    so a_1^2 <= 4p and a_nu = a_1 a_(nu-1) - p a_(nu-2)."""
    for z, a in traces.items():
        assert a[1] ** 2 <= 4 * p, (p, z, a)
        for nu in range(2, len(a)):
            assert a[nu] == a[1] * a[nu - 1] - p * a[nu - 2], (p, z, a)


@pytest.mark.parametrize("p, levels", [(3, 4), (5, 2), (7, 2), (11, 1), (13, 1)])
def test_honeycomb_smooth_fibres_satisfy_hasse_weil(honeycomb_ctx, p, levels):
    traces = frobenius_traces(honeycomb_ctx, p, HONEYCOMB_BAD_FIBRES)
    assert traces and all(len(a) == levels + 1 for a in traces.values())
    check_hasse_weil(traces, p)


def test_weighted_triangle_smooth_fibres_satisfy_hasse_weil():
    ctx = SpectralContext(WeightedPointSet(2, WEIGHTED_TRIANGLE))
    smooth = 0
    for p in (5, 7, 11, 13, 17, 19):
        traces = frobenius_traces(ctx, p, WEIGHTED_BAD_FIBRES)
        check_hasse_weil(traces, p)
        smooth += len(traces)
    assert smooth == 49


# -- primality ------------------------------------------------------------------------


def test_is_prime_rejects_strong_pseudoprimes():
    spsp_37 = 318665857834031151167461  # = 399165290221 * 798330580441
    assert spsp_37 == 399165290221 * 798330580441
    assert miller_rabin_twelve(spsp_37)  # fools the twelve prime bases 2..37
    for n in (spsp_37, 3825123056546413051, 3317044064679887385961981, 2**64 + 1):
        assert not primes.is_prime(n)
    with pytest.raises(ValueError, match="no prime factor below 2\\^20"):
        prime_factors(7 * spsp_37)  # its two factors are about 4e11


def test_is_prime_matches_sieve():
    small = set(sieve(2 * 10**5))
    assert [n for n in range(2 * 10**5 + 1) if primes.is_prime(n)] == sorted(small)


def test_is_prime_matches_twelve_bases_below_2_62():
    rng = random.Random(62)
    for _ in range(20_000):
        n = rng.getrandbits(62) | 1
        assert primes.is_prime(n) == miller_rabin_twelve(n)
    for n in (2**61 - 1, 2**62 - 57, 2**64 - 59, 2**89 - 1):
        assert primes.is_prime(n)


# -- valuation inequality -----------------------------------------------------------


def test_inequality_strict_example(honeycomb_ctx):
    [(lhs, rhs, holds)] = valuation_inequality_check(honeycomb_ctx, [53], 7, 1)
    assert (lhs, rhs, holds) == (12, 6, True)


def test_inequality_z2(honeycomb_ctx):
    [(lhs, rhs, holds)] = valuation_inequality_check(honeycomb_ctx, [2], 7, 1)
    assert rhs == 1 and lhs >= 1 and holds


def test_inequality_all_residues(honeycomb_ctx):
    rows = valuation_inequality_check(honeycomb_ctx, range(7), 7, 1)
    assert len(rows) == 7
    for z, (lhs, rhs, holds) in enumerate(rows):
        assert holds
        assert rhs == F7_COUNT_ROW[z]


def test_inequality_infinite_valuation(honeycomb_ctx):
    [(lhs, rhs, holds)] = valuation_inequality_check(honeycomb_ctx, [0], 7, 1)
    assert lhs == math.inf and holds


@pytest.fixture
def row_reads(monkeypatch):
    """The (row, modulus) of each ``arith._row_value`` call, in order."""
    reads, read = [], arith._row_value
    monkeypatch.setattr(arith, "_row_value", lambda row, power, m: (
        reads.append((row, m)) or read(row, power, m)))
    return reads


def test_each_row_is_read_once_below_the_first_pass_precision(
    honeycomb_ctx, cheb_ctx, row_reads
):
    # honeycomb p = 11: k0 = 7 and K = 4 at z in {0, 1}, so the rows with z = W(chi)
    # mod 11^7 are proven zero with no rung climbed: each class row is read once
    rows = [row for row, _ in specpoly._character_rows(fold_mod_N(honeycomb_ctx.w, 10), 10)]
    assert [v for v, _, _ in valuation_inequality_check(honeycomb_ctx, [0, 1], 11)] == [
        18, math.inf]
    assert row_reads == [(row, 11**7) for row in rows]
    # honeycomb p = 31: k0 = 6 < K = 7, and the deep rows are read only at 31^7
    row_reads.clear()
    rows = [row for row, _ in specpoly._character_rows(fold_mod_N(honeycomb_ctx.w, 30), 30)]
    valuation_inequality_check(honeycomb_ctx, range(31), 31)
    assert row_reads[: len(rows)] == [(row, 31**6) for row in rows]
    deep = row_reads[len(rows):]
    assert deep and {m for _, m in deep} == {31**7}
    # chebyshev p = 9973, k0 = 2: the trivial character's row, z - 4 = 9973^3 10^20,
    # is read once more, at 9973^4, where its valuation 3 shows; K is far above
    row_reads.clear()
    z = 4 + 9973**3 * 10**20
    assert valuation_inequality_check(cheb_ctx, [z], 9973) == [(3, 1, True)]
    assert arith._lift_precision(z, 4, 9972, 9973) > 1000
    assert {m for _, m in row_reads[:-1]} == {9973**2}
    assert row_reads[-1][1] == 9973**4


def _crt_valuations(ctx, zs, p, nu):
    """v_p(b_N(z)), N = p^nu - 1, from the CRT point-value oracle, one large z at a time."""
    N = p**nu - 1
    f = fold_mod_N(ctx.w, N)
    small = [z for z in zs if abs(z) <= 10**4]
    values = dict(zip(small, crt_point_values(f, N, small)))
    values.update((z, crt_point_values(f, N, [z])[0]) for z in zs if abs(z) > 10**4)
    return [vp(values[z], p) for z in zs]


@settings(max_examples=40)
@given(
    count_cases(max_tuples=64),
    st.lists(st.integers(-(10**100), 10**100), max_size=2),
    st.integers(1, 40),
)
def test_valuation_pass_matches_crt_and_tuple_oracles(case, extra, j):
    ctx, p, nu = case
    N = p**nu - 1
    C2 = ctx.ps.total_weight**2
    # spectrum levels: the integers the float character values sit on; C^2 is always one
    vals = character_values(ctx.w, N).ravel()
    levels = sorted({round(x) for x in vals if abs(x - round(x)) < 1e-9})
    assert C2 in levels
    zs = [*range(p), *levels, -1, -C2, C2 + p**j, *extra]
    checked = valuation_inequality_check(ctx, zs, p, nu)
    assert [v for v, _, _ in checked] == _crt_valuations(ctx, zs, p, nu)
    assert [c for _, c, _ in checked] == [tuple_count_points(ctx, z, p, nu) for z in zs]
    assert all(holds and v >= c for v, c, holds in checked)
    assert checked[zs.index(C2)][0] == math.inf
    # the trivial character leaves z - C^2 = p^j: a finite valuation of at least j
    assert j <= checked[zs.index(C2 + p**j)][0] < math.inf


@pytest.mark.parametrize("p", [2, 3])
def test_valuation_at_the_precision_edge(p, honeycomb_ctx, cheb_ctx):
    # phi(p - 1) = 1, so the precision K is the least with p^K > |z| + C^2:
    # at z = C^2 + p^j the trivial character leaves alpha = p^j, and
    # K = j + 1 once p^j (p - 1) > 2 C^2; one p-adic digit less would read
    # alpha as 0
    for ctx in (cheb_ctx, honeycomb_ctx):
        C2 = ctx.ps.total_weight**2
        edge = 0
        for j in range(1, 60):
            z = C2 + p**j
            [(v, _, _)] = valuation_inequality_check(ctx, [z], p, 1)
            assert j <= v < math.inf
            assert [v] == _crt_valuations(ctx, [z], p, 1)
            edge += arith._lift_precision(z, C2, p - 1, p) == j + 1
        assert edge > 40


@pytest.mark.parametrize("p, nu", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 2), (11, 1)])
def test_lift_precision_matches_the_exact_search(p, nu):
    # K from logarithms is the least K with p^K > (|z| + C^2)^phi(N), or one more
    # where phi(N) log_p(|z| + C^2) lies within a relative 2^-40 below an integer
    N, exact = p**nu - 1, decimal.Context(prec=60)
    phi = sum(math.gcd(k, N) == 1 for k in range(1, N + 1))
    for c2 in (1, 4, 9):
        zs = [0, 1, -1, 10**1000, -(10**1000), 4 + p**2 * 10**500]
        for j in range(1, 80):
            # (|z| + c2)^phi just above p^(j phi), exactly it (q an integer), just below it
            zs += [c2 + p**j, p**j - c2, p**j - 1 - c2]
        for z in zs:
            K, least = arith._lift_precision(z, c2, N, p), exact_lift_precision(z, c2, N, p)
            q = phi * exact.divide(exact.ln(abs(z) + c2), exact.ln(p))
            assert K == least or K == least + 1 and least - q < least * exact.power(2, -40)


def test_lift_precision_is_one_logarithm(cheb_ctx):
    # phi(9972) = 3312: (|z| + C^2)^3312 has 3.3 M digits, and is never formed
    z = 4 + 9973**2 * 10**4000
    start = time.process_time()
    assert valuation_inequality_check(cheb_ctx, [z], 9973) == [(2, 1, True)]
    assert time.process_time() - start < 1


def test_cheb_divisibility_pattern(cheb_ctx):
    # p = 13 = 12+1: the level-12 value at 6 is divisible by 13^2;
    # p = 5: not divisible by 5 at level 4
    v13 = evaluate_at_integer(expanded(cheb_ctx.spectral_factors(12)), 6)
    assert vp(v13, 13) >= 2
    v5 = evaluate_at_integer(expanded(cheb_ctx.spectral_factors(4)), 6)
    assert vp(v5, 5) == 0
