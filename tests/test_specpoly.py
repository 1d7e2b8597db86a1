import decimal
import itertools
import math
import random
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from speclat import primes, specpoly
from speclat.arith import valuation_inequality_check, vp
from speclat.analysis import _log_mean
from speclat.context import SpectralContext
from speclat.errors import CosetViolation, IntegralityViolation, RankDeficient, SizeLimit
from speclat.lattice import WeightedPointSet, difference_lattice
from speclat.laurent import diffraction_polynomial, fold_mod_N
from speclat.moments import moment_sequence, moment_sequence_N
from speclat.specpoly import (
    _character_classes,
    _character_power_sums,
    _character_rows,
    _class_factor_lift,
    _maclaurin_bound,
    _mul_mod,
    character_values,
    factored_value,
    integer_root_multiplicity,
    level_multiplicity,
    spectral_factors,
)

from _oracles import (
    berkowitz_charpoly,
    charpoly_exact,
    constant_term,
    convolution_matrix,
    crt_point_values,
    divides,
    evaluate_at_integer,
    expanded,
    exact_moment_sweep,
    folded_moment_sweep,
    from_roots,
    linear_factor_lift,
    loop_character_rows,
    poly_product,
    rebased,
    primes_below,
    root_of_unity,
    sieve,
    split_primes,
)
from conftest import random_point_set


CUBE = WeightedPointSet(3, (((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((-1, -1, -1), 1)))


def w_of(ps):
    return diffraction_polynomial(ps, difference_lattice(ps))


def folded(ps, N):
    return fold_mod_N(w_of(ps), N)


def merged_rows(rows):
    """The class rows merged into the Counter ``loop_character_rows`` gives: each row
    as ((r, A_r), ...), A_r the sum of its c_t with r_t = r, counted by class size."""
    out = Counter()
    for row, mult in rows:
        A = {}
        for r, c in row:
            A[r] = A.get(r, 0) + c
        out[tuple(sorted(A.items()))] += mult
    return out


# -- convolution matrices ------------------------------------------------------


def test_matrix_honeycomb_n1(honeycomb):
    assert convolution_matrix(folded(honeycomb, 1), 1) == ((9,),)


def test_matrix_cheb_n2(chebyshev):
    assert convolution_matrix(folded(chebyshev, 2), 2) == ((2, 2), (2, 2))


def test_matrix_honeycomb_n2(honeycomb):
    rows = convolution_matrix(folded(honeycomb, 2), 2)
    assert len(rows) == 4
    for i in range(4):
        assert rows[i][i] == 3
        assert sum(rows[i]) == 9
        for j in range(4):
            assert rows[i][j] == rows[j][i]
            assert rows[i][j] >= 0


def test_matrix_trace_identity(honeycomb):
    for N in (2, 3, 4):
        f = folded(honeycomb, N)
        rows = convolution_matrix(f, N)
        assert sum(rows[i][i] for i in range(len(rows))) == N**2 * f.terms[(0, 0)]


# -- exact characteristic polynomials (Hessenberg oracle) -----------------------


def test_charpoly_1x1():
    assert charpoly_exact(((9,),)) == (-9, 1)


def test_charpoly_2x2():
    assert charpoly_exact(((2, 2), (2, 2))) == (0, -4, 1)


def test_charpoly_honeycomb_n2(honeycomb):
    p = charpoly_exact(convolution_matrix(folded(honeycomb, 2), 2))
    assert p == from_roots([9, 1, 1, 1])


@pytest.mark.parametrize("seed", range(10))
def test_charpoly_matches_berkowitz(seed):
    rng = random.Random(seed)
    m = rng.choice([1, 2, 3, 4, 5, 6, 10, 16])
    rows = tuple(
        tuple(rng.randint(-9, 9) for _ in range(m)) for _ in range(m)
    )
    assert charpoly_exact(rows) == berkowitz_charpoly(rows)


# -- split moduli ---------------------------------------------------------------


def certified(M, N, omega):
    """The certificate of the specpoly docstring, read afresh: omega**N = 1 and
    omega**(N/q) - 1 a unit mod M for each prime q | N."""
    return pow(omega, N, M) == 1 and all(
        math.gcd(pow(omega, N // q, M) - 1, M) == 1 for q in primes.prime_factors(N))


def crt_root(N, p, q):
    """(p q, omega) for primes p, q = 1 (mod N): omega the CRT of their roots of unity."""
    wp, wq = root_of_unity(N, p), root_of_unity(N, q)
    return p * q, wp + p * ((wq - wp) * pow(p, -1, q) % q)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6, 8, 9, 12, 17, 30, 64, 210, 2062])
def test_split_primes_and_roots_of_unity(N):
    found = list(itertools.islice(primes_below(2**62, N), 4))
    found += list(itertools.islice(primes_below(2**20, N), 4))
    assert len(found) == 8
    for p in found:
        assert primes.is_prime(p) and (p - 1) % N == 0
        omega = root_of_unity(N, p)
        assert pow(omega, N, p) == 1
        assert all(pow(omega, d, p) != 1 for d in range(1, N))
    assert found[:4] == sorted(found[:4], reverse=True)
    assert all(p < 2**62 for p in found[:4])


def test_split_primes_small_start():
    assert list(primes_below(12)) == [11, 7, 5, 3, 2]
    assert list(primes_below(30, 4)) == [29, 17, 13, 5]
    with pytest.raises(ValueError):
        root_of_unity(4, 7)
    # g = 2 gives -1 at p = 853669: only 2062's prime factor 1031, past trial division, rejects it
    omega = root_of_unity(2062, 853669)
    assert pow(omega, 2, 853669) != 1 and pow(omega, 1031, 853669) != 1


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6, 10, 12, 2062])
def test_primes_below_match_the_sieve(N):
    for start in (0, 2, 3, 4, 30, 1000, 10**5):
        expected = [p for p in reversed(sieve(start - 1)) if (p - 1) % N == 0]
        assert list(primes_below(start, N)) == expected


@pytest.mark.parametrize("N, bits, start", [
    (1, 1, 2**62), (12, 100, 2**62), (12, 4000, 2**31), (2062, 166, 2**31), (10, 62, 2**31),
    (4, 3, 30), (4, 14, 30),
])
def test_split_primes_match_the_oracle(N, bits, start):
    for need in (2**bits - 1, 2**bits, 3 * 2 ** (bits - 1)):
        moduli = specpoly._split_moduli(N, need, start)
        assert [M for M, _ in moduli] == split_primes(N, need, start)
        assert all(omega == root_of_unity(N, M) for M, omega in moduli)


def cold_moduli(N, need, start):
    """``_split_moduli`` on an empty table: a search that no call before it has served."""
    with mock.patch.object(specpoly, "_MODULI", {}):
        return specpoly._split_moduli(N, need, start)


def test_split_primes_by_a_running_product(monkeypatch):
    # the first 1291 primes 1 mod 12 below 2^31, as the whole product formed for each gave,
    # timed on an empty table so that the search itself runs.  The bound guards the running
    # product: this search took 0.05-0.11 s on a 2-core x86 box, and one that forms the whole
    # product for each modulus 0.9-1.3 s
    monkeypatch.setattr(specpoly, "_MODULI", {})
    start = time.process_time()
    chosen = specpoly._split_moduli(12, 2**40000, 2**31)
    assert time.process_time() - start < 0.3
    assert [M for M, _ in chosen] == list(itertools.islice(primes_below(2**31, 12), 1291))


def test_a_search_certifies_each_candidate_once(monkeypatch):
    # the search's work, counted: a cold search for those 1291 moduli makes 26116 ``pow``
    # calls, and a warm one, served from the table, none
    calls = []
    monkeypatch.setattr(specpoly, "_MODULI", {})
    monkeypatch.setattr(specpoly, "pow", lambda *args: calls.append(args) or pow(*args),
                        raising=False)
    for want in (26116, 0):
        calls.clear()
        assert len(specpoly._split_moduli(12, 2**40000, 2**31)) == 1291
        assert len(calls) == want


def test_split_primes_that_run_out_are_a_size_limit(monkeypatch):
    # 29 * 17 * 13 * 5 = 32045: the primes 1 mod 4 below 30 lift no further.  The table
    # keeps the search run out: the same SizeLimit on every call, also after 32044 is served
    monkeypatch.setattr(specpoly, "_MODULI", {})
    for _ in range(2):
        with pytest.raises(SizeLimit, match="primes 1 mod 4 below 30 run out before 15 bits"):
            specpoly._split_moduli(4, 32045, 30)
        assert [M for M, _ in specpoly._split_moduli(4, 32044, 30)] == [29, 17, 13, 5]


def test_a_served_list_is_the_callers_own(monkeypatch):
    # each call returns a new list: what one caller does to it no later call sees
    monkeypatch.setattr(specpoly, "_MODULI", {})
    want = list(cold_moduli(12, 2**400, 2**31))
    first = specpoly._split_moduli(12, 2**400, 2**31)
    first.pop()
    first[0] = (7, 1)
    first.append((5, 1))
    assert specpoly._split_moduli(12, 2**400, 2**31) == want
    assert specpoly._split_moduli(12, 2**200, 2**31) == cold_moduli(12, 2**200, 2**31)


def test_an_interrupted_search_is_not_kept(monkeypatch):
    # a search stopped by an exception, an interrupt say, leaves the table: a later
    # call searches afresh instead of reading the level as one whose moduli ran out
    search = specpoly._certified_moduli

    def interrupted(N, start):
        yield from itertools.islice(search(N, start), 3)
        raise KeyboardInterrupt

    monkeypatch.setattr(specpoly, "_MODULI", {})
    monkeypatch.setattr(specpoly, "_certified_moduli", interrupted)
    with pytest.raises(KeyboardInterrupt):
        specpoly._split_moduli(12, 2**400, 2**31)
    monkeypatch.setattr(specpoly, "_certified_moduli", search)
    assert specpoly._split_moduli(12, 2**400, 2**31) == cold_moduli(12, 2**400, 2**31)


@settings(max_examples=60)
@given(st.integers(1, 300), st.sampled_from([2**62, 2**31]), st.integers(1, 1500),
       st.integers(1, 1500), st.integers(-1, 1))
def test_a_served_search_is_a_cold_one(N, start, a, b, shift):
    # two needs asked of one table, in either order, each get what a cold search gives
    needs = (2**a + shift, 2**b + shift)
    cold = [cold_moduli(N, need, start) for need in needs]
    for order in (needs, needs[::-1]):
        with mock.patch.object(specpoly, "_MODULI", {}):
            served = [specpoly._split_moduli(N, need, start) for need in order]
        assert served == (cold if order == needs else cold[::-1])


def test_a_level_searched_once_certifies_no_new_candidate(monkeypatch, honeycomb):
    # a second lift or power-sum plan at a level already searched, for another point
    # set, reads the level's table: its search yields no new modulus.  The first goes
    # only as far as it needs: the cube's lift at N = 6 asks once for each of its seven
    # class sizes, and certifies only as many candidates as its largest factor's list
    sets = [WeightedPointSet(2, (((0, 0), 1), ((1, 0), 2), ((0, 1), 3))), honeycomb]
    jobs = [(w, N) for w in map(w_of, sets) for N in (4, 5)] + [(w_of(CUBE), 6)]
    want = [(spectral_factors(w, N), _character_power_sums(w, 6, (N,) * w.dimension)())
            for w, N in jobs]
    assert len(want[-1][0].factors) == 7
    pulled, lengths = Counter(), Counter()
    search, serve = specpoly._certified_moduli, specpoly._split_moduli

    def counted(N, start):
        for item in search(N, start):
            pulled[N, start] += 1
            yield item

    def served(N, need, start):
        moduli = serve(N, need, start)
        lengths[N, start] = max(lengths[N, start], len(moduli))
        return moduli

    monkeypatch.setattr(specpoly, "_MODULI", {})
    monkeypatch.setattr(specpoly, "_certified_moduli", counted)
    monkeypatch.setattr(specpoly, "_split_moduli", served)
    got = [(spectral_factors(w, N), _character_power_sums(w, 6, (N,) * w.dimension)())
           for w, N in jobs]
    assert got == want
    assert pulled == lengths and len(pulled) == 6 and all(pulled.values())
    before = pulled.copy()
    for w, N in jobs[::-1]:
        spectral_factors(w, N)
        _character_power_sums(w, 3, (N,) * w.dimension)
    assert pulled == before


@settings(max_examples=60)
@given(st.integers(1, 300), st.sampled_from([2**62, 2**31]), st.integers(1, 1500),
       st.integers(-1, 1))
def test_split_moduli_are_certified_and_the_oracles_primes(N, start, bits, shift):
    need = 2**bits + shift
    moduli = specpoly._split_moduli(N, need, start)
    found = [M for M, _ in moduli]
    assert found == sorted(found, reverse=True) and found[-1] < start
    for M, omega in moduli:
        assert M % 2 == 1 and (M - 1) % N == 0 and certified(M, N, omega)
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(found, 2))
    assert math.prod(found) > need >= math.prod(found[:-1])
    # every prime down to the last modulus, each with its root of unity; a composite
    # that passes has omega of order N modulo each of its primes, all 1 mod N
    oracle = list(itertools.takewhile(lambda p: p >= found[-1], primes_below(start, N)))
    assert [M for M in found if primes.is_prime(M)] == oracle
    for M, omega in moduli:
        if primes.is_prime(M):
            assert omega == root_of_unity(N, M)
        else:
            assert all((r - 1) % N == 0 for r in primes.prime_factors(M))


def oracle_moduli(N, need, start):
    """The split primes with their roots of unity, by Miller-Rabin."""
    return [(p, root_of_unity(N, p)) for p in split_primes(N, need, start)]


def test_the_search_meets_a_composite_and_lifts_through_it(monkeypatch, chebyshev):
    # 3319 * 647011 passes: both factors are 1 mod 79, and 2 is no Fermat witness.  It is
    # the 28th modulus of level 79 from 2^31 and the 13th of level 237, which the power
    # sums of W to k = 200 read; over the primes alone they lift the same
    M = 3319 * 647011
    for N, at in ((79, 27), (237, 12)):
        moduli = specpoly._split_moduli(N, 2**1200, 2**31)
        assert moduli[at][0] == M and certified(M, N, moduli[at][1])
        assert [m for m, _ in moduli if not primes.is_prime(m)] == [M]
    f = w_of(chebyshev)
    assert M in [m for m, _ in specpoly._split_moduli(237, 2 * 237 * 4**200, 2**31)]
    through = _character_power_sums(f, 200, (237,))()
    monkeypatch.setattr(specpoly, "_split_moduli", oracle_moduli)
    assert through == _character_power_sums(f, 200, (237,))()


@pytest.mark.parametrize("N", [2, 4, 5, 6])
def test_a_composite_modulus_lifts_as_the_primes_do(monkeypatch, honeycomb, N):
    # M = p q below 2^31, omega by CRT: were the g_j or the power sums mod M not the
    # primes', the lift over M and the usual moduli would move or raise
    composite = crt_root(N, *itertools.islice(primes_below(2**15, N), 2))
    assert certified(composite[0], N, composite[1])
    sets = (honeycomb, WeightedPointSet(2, (((0, 0), 1), ((1, 0), 2), ((0, 1), 3))))

    def lifts():
        return [(_class_factor_lift(folded(s, N), N).factors,
                 _character_power_sums(w_of(s), 6, (N, N))()) for s in sets]

    want, search = lifts(), specpoly._split_moduli
    monkeypatch.setattr(specpoly, "_split_moduli",
                        lambda N, need, start: [composite, *search(N, need, start)])
    assert lifts() == want


def test_split_moduli_are_pairwise_coprime():
    # N = 1 takes each odd M that 2 is no Fermat witness for: 23377 = 97 * 241 and
    # 18721 = 97 * 193 are base-2 pseudoprimes, and the second shares 97 with the first
    found = [M for M, _ in specpoly._split_moduli(1, 2**10000, 23378)]
    assert found[0] == 23377 and found[-1] < 18721
    assert not {18721, 97, 193, 241} & set(found)
    assert math.prod(found) == math.lcm(*found)


def test_charpoly_prime_set_independence(honeycomb):
    f = folded(honeycomb, 3)
    lifts = []
    for start in (2**62, 2**61, 2**31):
        with mock.patch.object(specpoly, "_PRIME_START", start):
            lifts.append(expanded(_class_factor_lift(f, 3)))
    assert lifts[0] == lifts[1] == lifts[2] == expanded(spectral_factors(w_of(honeycomb), 3))


def _newton_power_sums(p: tuple[int, ...], K: int) -> list[int]:
    """p_1..p_K of the roots of a monic polynomial, by Newton's identities."""
    m = len(p) - 1
    e = [(-1) ** j * p[m - j] for j in range(m + 1)]
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
    p = expanded(spectral_factors(w, N))
    assert p[-1] == 1 and len(p) - 1 == N**n
    assert p == berkowitz_charpoly(convolution_matrix(f, N))
    bound = _maclaurin_bound(N**n, constant_term(f))
    assert max(abs(c) for c in p) <= bound
    level = moment_sequence_N(w, 6, N)[1:]
    assert _newton_power_sums(p, 6) == [N**n * v for v in level]


def test_maclaurin_bound_is_tight_for_equal_roots():
    # all roots equal to the mean: the bound is the largest coefficient
    for m, c0 in ((4, 3), (7, 2), (36, 9)):
        p = from_roots([c0] * m)
        assert _maclaurin_bound(m, c0) == max(abs(c) for c in p)
    assert _maclaurin_bound(1, 9) == 9
    assert _maclaurin_bound(3, 0) == 1


# -- the split-prime engine: product tree and point values ---------------------

PRIME_STARTS = (2**62, 2**61, 2**31)


@st.composite
def engine_cases(draw):
    """A diffraction polynomial in 1-3 dimensions, a level small enough for
    Berkowitz, and where the descending prime search starts."""
    n = draw(st.integers(1, 3))
    box = 2 if n < 3 else 1
    points = draw(st.lists(
        st.tuples(*[st.integers(-box, box)] * n), min_size=n + 1, max_size=4, unique=True
    ))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points)))
    ps = WeightedPointSet(n, tuple(zip(points, weights)))
    try:
        w = w_of(ps)
    except (RankDeficient, CosetViolation):
        assume(False)
    N = draw(st.integers(1, {1: 16, 2: 5, 3: 3}[n]))
    return w, N, draw(st.sampled_from(PRIME_STARTS))


@settings(max_examples=60)
@given(engine_cases())
def test_tree_matches_linear_factors_and_berkowitz(case):
    w, N, start = case
    f = fold_mod_N(w, N)
    with mock.patch.object(specpoly, "_PRIME_START", start):
        tree = expanded(_class_factor_lift(f, N))
    assert tree == linear_factor_lift(f, N, start)
    assert tree == berkowitz_charpoly(convolution_matrix(f, N))


@settings(max_examples=60)
@given(engine_cases(), st.lists(st.integers(-10**12, 10**12), max_size=4))
def test_point_values_match_horner(case, extra):
    # the CRT point-value oracle, which the padic tests read, against Horner on the tree's b_N
    w, N, start = case
    f = fold_mod_N(w, N)
    with mock.patch.object(specpoly, "_PRIME_START", start):
        poly = expanded(_class_factor_lift(f, N))
    C2 = sum(w.terms.values())
    for zs in ((0, -1, -C2, C2, C2 + 1, *range(C2 + 1)), (10**6, -(10**9), *extra)):
        values = crt_point_values(f, N, zs, start)
        assert values == tuple(evaluate_at_integer(poly, z) for z in zs)
        for z, v in zip(zs, values):
            assert abs(v) <= (abs(z) + constant_term(f)) ** (len(poly) - 1)


@st.composite
def weighted_cases(draw, levels=None, tops=(1, 3, 60)):
    """A diffraction polynomial of a weighted set in 1-3 dimensions (the keys of
    ``levels``), weights up to one of ``tops``, and a level in ``levels[n]``.
    Equal weights give W symmetries past k -> -k, so classes of more than two."""
    levels = levels or {1: (1, 24), 2: (1, 6), 3: (1, 3)}
    n = draw(st.sampled_from(sorted(levels)))
    points = draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * n), min_size=n + 1, max_size=5, unique=True
    ))
    top = draw(st.sampled_from(tops))
    weights = draw(st.lists(st.integers(1, top), min_size=len(points), max_size=len(points)))
    try:
        w = w_of(WeightedPointSet(n, tuple(zip(points, weights))))
    except (RankDeficient, CosetViolation):
        assume(False)
    return w, draw(st.integers(*levels[n]))


@settings(max_examples=40)
@given(weighted_cases())
def test_class_factors_match_linear_factor_lift(case):
    w, N = case
    b = spectral_factors(w, N)
    assert b.degree == N**w.dimension
    assert expanded(b) == linear_factor_lift(fold_mod_N(w, N), N)
    assert b.coefficient_text == [str(c) for c in expanded(b)]


@settings(max_examples=30)
@given(weighted_cases())
def test_each_factor_lifts_over_its_own_moduli(case):
    # one ``_split_moduli`` call per class size, for the need of that g_j's own bound,
    # and g_j's CRT reads exactly that call's moduli, no fewer and no more
    w, N = case
    split, crt, calls, reads = specpoly._split_moduli, specpoly._crt, [], []

    def split_recorded(N, need, start):
        calls.append((need, start, split(N, need, start)))
        return calls[-1][-1]

    def crt_recorded(residues, moduli):
        reads.append([M for _, (M, _) in zip(residues, moduli)])
        return crt(residues, moduli)

    with mock.patch.object(specpoly, "_split_moduli", split_recorded), \
            mock.patch.object(specpoly, "_crt", crt_recorded):
        b = spectral_factors(w, N)
    needs = [(2 * _maclaurin_bound(len(g) - 1, b.top) + 1) << specpoly._MARGIN_BITS
             for g in b.factors.values()]
    assert [(need, start) for need, start, _ in calls] == [
        (need, specpoly._PRIME_START) for need in needs]
    assert reads == [[M for M, _ in moduli] for *_, moduli in calls]
    assert expanded(b) == linear_factor_lift(fold_mod_N(w, N), N)


@settings(max_examples=25)
@given(weighted_cases({2: (5, 8)}, (1, 2)), st.sampled_from([2, 3, 5, 11]))
def test_class_factors_match_linear_factor_lift_when_classes_span_blocks(case, run):
    # blocks of ``run`` indices k and their negations, and classes past the pairs
    # k, -k (near-equal weights) of irrational values (N >= 5): split across blocks,
    # they would leave the g_j non-integral unless merged
    w, N = case
    f = fold_mod_N(w, N)
    with mock.patch.object(specpoly, "_CHAR_BLOCK", 2 * len(f.terms) * run):
        blocks = list(_character_classes(f, (N,) * f.dimension))
        b = spectral_factors(w, N)
    assert sum(int(mult.sum()) for *_, mult in blocks) == N**f.dimension
    assert expanded(b) == linear_factor_lift(f, N)


@pytest.mark.parametrize("N", [5, 7, 8])
def test_a_class_split_across_sizes_is_refused(w_honey, monkeypatch, N):
    # b_N = prod_j g_j**j still holds if a class of size j of irrational value is
    # counted as sizes 1 and j - 1, but then g_1, g_(j-1) and g_j are not integral
    f = fold_mod_N(w_honey, N)
    rows = _character_rows(f, N)
    value = lambda row: sum(c * math.cos(2 * math.pi * r / N) for r, c in row)
    i = next(i for i, (row, size) in enumerate(rows)
             if size > 2 and abs(value(row) - round(value(row))) > 1e-6)
    row, size = rows[i]
    split = rows[:i] + [(row, 1), (row, size - 1)] + rows[i + 1 :]
    monkeypatch.setattr(specpoly, "_character_rows", lambda folded, level: split)
    with pytest.raises(IntegralityViolation):
        spectral_factors(w_honey, N).coefficient_text


def test_power_sums_over_one_split_modulus_too_few_are_refused(w_honey, monkeypatch):
    # the CRT past too small a product wraps, and m no longer divides the lifted sums
    search = specpoly._split_moduli
    monkeypatch.setattr(specpoly, "_split_moduli", lambda *args: search(*args)[:-1])
    with pytest.raises(IntegralityViolation, match="are not all divisible by 441"):
        moment_sequence(w_honey, 20)


def test_a_factor_with_a_negative_root_is_refused():
    # g = z + 1: h(z) = -g(-z) = z - 1 has a coefficient below 0, which no slot holds
    with pytest.raises(IntegralityViolation, match="g_1 has a root below 0"):
        specpoly.SpectralFactors({1: (1, 1)}, 1).coefficient_text


@pytest.mark.parametrize("root, overflow", [(99, False), (12345, True)])
def test_slots_narrower_than_a_coefficient_are_refused(monkeypatch, root, overflow):
    # |b_N(-1)| understated as 1 gives slots of 2 digits: the coefficient root of z - root
    # fills the guard digit of its slot, or the product passes the digits of its context
    monkeypatch.setattr(specpoly, "factored_value", lambda b, z: decimal.Decimal(1))
    with pytest.raises(IntegralityViolation, match="b_N overflows its coefficient bound") as exc:
        specpoly.SpectralFactors({1: (-root, 1)}, root).coefficient_text
    assert isinstance(exc.value.__context__, decimal.Inexact) == overflow


@settings(max_examples=30)
@given(weighted_cases(), st.lists(st.integers(-10**9, 10**9), max_size=3))
def test_factored_readers_match_the_expanded_polynomial(case, extra):
    # levels and values read from the g_j against the expanded b_N
    w, N = case
    b = spectral_factors(w, N)
    p = expanded(b)
    C2 = sum(w.terms.values())
    roots = {round(v) for v in character_values(w, N).ravel().tolist() if abs(v - round(v)) < 1e-6}
    for z in (*roots, -1, 0, 1, 2, C2, C2 + 1, -C2, 10**100, -(10**100), *extra):
        assert level_multiplicity(b, z) == integer_root_multiplicity(p, z)
        assert str(factored_value(b, z)) == str(evaluate_at_integer(p, z))


@pytest.mark.parametrize(
    "N, zs, reader",
    [
        # the reader of b_N(z) that earlier versions chose; padic now reads no b_N(z)
        (10, (0, 10, -10), "_point_values"),
        (10, (10**4,), "_point_values"),
        (10, (10**5,), "_tree_product"),
        (10, (0, 1, -(10**6)), "_tree_product"),
        (4, (53,), "_point_values"),
        (4, (10**3,), "_tree_product"),
        (1, (0, 1), "_point_values"),
        (1, (9,), "_tree_product"),
    ],
)
def test_reader_follows_bound_size(w_honey, honeycomb_ctx, N, zs, reader):
    # N + 1 is prime: the padic pass at p = N + 1 gives v_p(b_N(z)) at each z
    poly = expanded(spectral_factors(w_honey, N))
    checked = valuation_inequality_check(honeycomb_ctx, zs, N + 1, 1)
    assert [v for v, _, _ in checked] == [vp(evaluate_at_integer(poly, z), N + 1) for z in zs]


def test_rows_with_multiplicity_and_level_values(w_honey, honeycomb_ctx):
    f = fold_mod_N(w_honey, 6)
    rows = merged_rows(_character_rows(f, 6))
    assert rows == loop_character_rows(f, 6)
    assert sum(rows.values()) == 36 and max(rows.values()) > 1
    poly = expanded(_class_factor_lift(f, 6))
    assert poly == linear_factor_lift(f, 6)
    # at the spectrum levels the value is exactly 0: valuation inf
    levels = (0, 1, 3, 4, 7, 9)
    assert crt_point_values(f, 6, levels) == (0,) * 6
    checked = valuation_inequality_check(honeycomb_ctx, [*levels, 2, 53], 7, 1)
    assert [v for v, _, _ in checked] == [math.inf] * 6 + [
        vp(evaluate_at_integer(poly, z), 7) for z in (2, 53)
    ]


@pytest.mark.parametrize("seed", range(12))
def test_character_rows_match_loop(seed, monkeypatch):
    rng = random.Random(900 + seed)
    ps = random_point_set(rng, dimension=1 + seed % 3)
    N = rng.randint(1, 7)
    if seed % 2:
        monkeypatch.setattr("speclat.specpoly._CHAR_BLOCK", rng.randint(1, 20))
    f = fold_mod_N(w_of(ps), N)
    rows = _character_rows(f, N)
    assert merged_rows(rows) == loop_character_rows(f, N)
    assert len({row for row, _ in rows}) == len(rows)  # each class once, whatever the blocks


@pytest.mark.parametrize("start", [2**62, 2**31, 2**8])
def test_packed_product_with_largest_slot_sums(start):
    # every coefficient p - 1 makes the middle slot sum exactly
    # min(len a, len b) * (p - 1)**2, the largest the slot width allows
    p = next(primes_below(start))
    for la, lb in ((1, 1), (1, 9), (2, 3), (16, 17), (40, 40), (129, 64), (300, 257)):
        a, b = [p - 1] * la, [p - 1] * lb
        expect = [0] * (la + lb - 1)
        for i in range(la):
            for j in range(lb):
                expect[i + j] += a[i] * b[j]
        assert _mul_mod(a, b, p) == [x % p for x in expect]


def test_spectral_size_limit(w_honey, honeycomb_ctx, monkeypatch):
    # the cap is read at each call, so patching it is the one way to lower it
    monkeypatch.setattr("speclat.limits.DEFAULT_SIZE_LIMIT", 15)
    with pytest.raises(SizeLimit, match=r"^4\^2 torsion characters exceed cap 15$"):
        spectral_factors(w_honey, 4)
    with pytest.raises(SizeLimit):
        valuation_inequality_check(honeycomb_ctx, [0], 5, 1)
    monkeypatch.setattr("speclat.limits.DEFAULT_SIZE_LIMIT", 16)
    assert spectral_factors(w_honey, 4).degree == 16
    [(v, _, _)] = valuation_inequality_check(honeycomb_ctx, [0], 5, 1)
    assert v == vp(expanded(spectral_factors(w_honey, 4))[0], 5)


# -- spectral polynomials -------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_level_one_is_linear(seed):
    rng = random.Random(40 + seed)
    ps = random_point_set(rng)
    C = ps.total_weight
    assert expanded(spectral_factors(w_of(ps), 1)) == (-C * C, 1)


def test_honeycomb_level6_factorization(w_honey):
    expected = from_roots(
        [0] * 2 + [1] * 15 + [3] * 6 + [4] * 6 + [7] * 6 + [9]
    )
    p = expanded(spectral_factors(w_honey, 6))
    assert len(p) - 1 == 36
    assert p[-1] == 1
    assert p == expected


def test_cheb_values_at_6(w_cheb):
    assert evaluate_at_integer(expanded(spectral_factors(w_cheb, 3)), 6) == 50
    assert evaluate_at_integer(expanded(spectral_factors(w_cheb, 17)), 6) == 5285770562


def test_honeycomb_value_53(w_honey):
    v = evaluate_at_integer(expanded(spectral_factors(w_honey, 6)), 53)
    assert v % 7**12 == 0 and v % 7**13 != 0


def test_trace_coefficient(honeycomb, chebyshev):
    for ps, N in ((honeycomb, 3), (chebyshev, 5)):
        f = folded(ps, N)
        rows = convolution_matrix(f, N)
        p = charpoly_exact(rows)
        assert p[-2] == -sum(rows[i][i] for i in range(len(rows)))


def test_divides(w_honey):
    b6 = expanded(spectral_factors(w_honey, 6))
    for Np in (1, 2, 3):
        assert divides(expanded(spectral_factors(w_honey, Np)), b6)
    assert not divides((-1, 1), (0, 1))


@pytest.mark.parametrize("seed", range(6))
def test_divides_random(seed):
    # b_N' | b_N for N' | N: the characters of order dividing N' are among those of order N
    rng = random.Random(1800 + seed)
    n = 1 + seed % 3
    ctx = SpectralContext(random_point_set(rng, dimension=n))
    for N in range(1, 9 if n < 3 else 5):
        for d in (d for d in range(1, N) if N % d == 0):
            assert divides(expanded(ctx.spectral_factors(d)), expanded(ctx.spectral_factors(N)))


small_ints = st.integers(-20, 20)
monic_polys = st.lists(small_ints, max_size=5).map(lambda c: (*c, 1))


@given(monic_polys, st.lists(small_ints, min_size=1, max_size=6), st.data())
def test_divides_exactly_the_multiples(p, s, data):
    # p | p s; p s + delta z^i, i < deg p, is not a multiple, nor is any nonzero
    # q of lower degree than p; s may have zeros at the top, as q's list then has
    q, d = poly_product(p, s), len(p) - 1
    assert divides(p, q)
    if d:
        i = data.draw(st.integers(0, d - 1), label="i")
        delta = data.draw(st.integers(-5, 5).filter(bool), label="delta")
        assert not divides(p, tuple(c + delta * (j == i) for j, c in enumerate(q)))
    short = data.draw(st.lists(st.integers(-3, 3), max_size=d), label="short")
    assert divides(p, tuple(short)) == (not any(short))


@settings(max_examples=40)
@given(st.integers(0, 2**32), st.integers(1, 3))
def test_packed_divides_agrees_with_the_schoolbook(seed, n):
    # every ordered pair of levels up to 8 (4 in 3-D), divisors or not, both ways round
    ctx = SpectralContext(random_point_set(random.Random(seed), dimension=n))
    levels = range(1, 9 if n < 3 else 5)
    for d, N in itertools.product(levels, repeat=2):
        b_d, b_N = ctx.spectral_factors(d), ctx.spectral_factors(N)
        assert b_d.divides(b_N) == divides(expanded(b_d), expanded(b_N))


roots_at_least_0 = st.lists(st.integers(0, 12), max_size=6)


@settings(max_examples=300)
@given(roots_at_least_0, roots_at_least_0, roots_at_least_0)
def test_packed_divides_is_root_inclusion(common, only_d, only_N):
    # prod (z - r) over a multiset R_d of integers r >= 0 divides that over R_N
    # exactly when R_d lies in R_N: past |b_N(-1)| at once, or by the division,
    # whose remainder is nonzero or whose quotient is read back
    R_d, R_N = common + only_d, common + only_N
    b_d, b_N = (specpoly.SpectralFactors({1: from_roots(R)}, max(R, default=0)) for R in (R_d, R_N))
    assert b_d.divides(b_N) == (not Counter(R_d) - Counter(R_N))


@given(
    st.lists(st.tuples(st.integers(-8, 8), st.integers(1, 3)), max_size=4,
             unique_by=lambda t: t[0]),
    st.lists(small_ints, min_size=1, max_size=4).filter(any),
    st.integers(-8, 8),
)
def test_root_multiplicity_of_a_product(roots, s, other):
    # prod (z - r_i)^m_i s has r_i to multiplicity m_i wherever s(r_i) != 0
    q = poly_product(from_roots([r for r, m in roots for _ in range(m)]), s)
    for r, m in [*roots, (other, dict(roots).get(other, 0))]:
        if evaluate_at_integer(s, r):
            assert integer_root_multiplicity(q, r) == m


def test_sign_pattern_outside_spectrum(w_honey):
    p = expanded(spectral_factors(w_honey, 4))
    deg = len(p) - 1
    for z in (10, 20, 100):
        assert evaluate_at_integer(p, z) > 0
    for z in (-1, -7):
        assert (-1) ** deg * evaluate_at_integer(p, z) > 0


def test_root_multiplicities(w_honey):
    b6 = expanded(spectral_factors(w_honey, 6))
    assert integer_root_multiplicity(b6, 9) == 1
    assert integer_root_multiplicity(b6, 0) == 2
    assert integer_root_multiplicity(b6, 1) == 15
    assert integer_root_multiplicity(b6, 5) == 0


@pytest.mark.parametrize("seed", range(20))
def test_root_multiplicity_counts_the_roots(seed):
    rng = random.Random(5000 + seed)
    roots = [rng.randint(-6, 6) for _ in range(rng.randint(0, 10))]
    roots += [0] * rng.randint(0, 2)
    p = from_roots(roots)
    for r in range(min(roots, default=0) - 3, max(roots, default=0) + 4):
        assert integer_root_multiplicity(p, r) == roots.count(r)


def test_root_multiplicity_answers_a_huge_level_at_once(w_honey):
    # b_30 has 0 as a double root; any other integer root divides its lowest
    # nonzero coefficient, and +-10^4000 does not.  Dividing b_30 by
    # z - 10^4000 instead takes about 50 s.
    b30 = expanded(spectral_factors(w_honey, 30))
    start = time.perf_counter()
    assert [integer_root_multiplicity(b30, r) for r in (10**4000, -(10**4000))] == [0, 0]
    assert time.perf_counter() - start < 0.5


def test_basis_independence(honeycomb, w_honey):
    # W's exponents in coordinates on other bases, unimodular changes of them
    hnf = difference_lattice(honeycomb).rows
    for rows in (((2, 1), (-1, -2)), ((2, 1), (1, 2)), ((1, -1), (1, 2))):
        w_alt = rebased(w_honey, hnf, rows)
        for N in (2, 3):
            assert expanded(spectral_factors(w_alt, N)) == expanded(spectral_factors(w_honey, N))


def test_evaluate_at_root(w_cheb):
    p = expanded(spectral_factors(w_cheb, 1))
    assert evaluate_at_integer(p, 4) == 0


# -- the Kasteleyn bridge -------------------------------------------------------

KASTELEYN_WEIGHTED = WeightedPointSet(2, (((0, 0), 2), ((1, 0), 1), ((0, 1), 3), ((2, 1), 1)))


@pytest.mark.parametrize("name", ["honeycomb", "chebyshev", "weighted"])
def test_kasteleyn_constant_term_is_a_square(request, name):
    # W = |P|^2 for the amplitude P = sum_a c_a x^(a - a0), so |b_N(0)| = prod_chi W(chi)
    # is R_N^2, R_N = |prod_chi P(chi)| an integer (a norm of an algebraic integer)
    ps = KASTELEYN_WEIGHTED if name == "weighted" else request.getfixturevalue(name)
    ctx = SpectralContext(ps)
    roots = []
    for N in range(1, 11):
        value = abs(int(factored_value(ctx.spectral_factors(N), 0)))
        roots.append(math.isqrt(value))
        assert roots[-1] ** 2 == value, N
    if name == "weighted":  # P(exp(i pi / 3), -1) = 0: R_N = 0 exactly when 6 | N
        assert roots[:4] == [7, 105, 18928, 49310625]
        assert [N for N, R in enumerate(roots, 1) if R == 0] == [6]


# -- floating path --------------------------------------------------------------


def test_character_values_shapes(honeycomb):
    w = diffraction_polynomial(honeycomb, difference_lattice(honeycomb))
    vals = character_values(w, 6)
    assert vals.shape == (6, 6)
    assert vals[0, 0] == 9.0
    assert vals.min() > -1e-9
    assert vals.max() <= 9.0


def log_product(w, N, z):
    """log prod |z - value| over the N-torsion characters: N^n times the
    level-N log-average."""
    return N**w.dimension * _log_mean(w, N, z)


def test_log_value_closed_form(w_cheb):
    q = 2 - math.sqrt(3)
    for N in (5, 10, 20):
        expected = math.log(q**-N + q**N - 2)
        assert abs(log_product(w_cheb, N, 6) - expected) < 1e-9


def test_log_value_level_one(w_cheb):
    assert abs(log_product(w_cheb, 1, 11) - math.log(11 - 4)) < 1e-12


def test_log_value_matches_exact(w_honey):
    for N, z in ((2, 12), (3, 17)):
        p = expanded(spectral_factors(w_honey, N))
        logmag = log_product(w_honey, N, z)
        assert abs(logmag - math.log(evaluate_at_integer(p, z))) < 1e-8


# -- character power sums ---------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_character_power_sums_match_oracles(seed, monkeypatch):
    # seeded random 1-, 2- and 3-D weighted sets: level sums against K products on the
    # N-torus, and at N past K times the reach against the exact moments
    rng = random.Random(1700 + seed)
    n = 1 + seed % 3
    w = w_of(random_point_set(rng, dimension=n))
    K = rng.randint(0, 12 if n < 3 else 6)
    if seed % 4 == 3:  # blocks of a few character classes, and of a few primes
        monkeypatch.setattr("speclat.specpoly._CHAR_BLOCK", rng.randint(1, 40))
    for N in (1, 2, 3, 5, 8):
        assert _character_power_sums(w, K, (N,) * n)() == folded_moment_sweep(w, K, N)
    reach = [max(abs(e[i]) for e in w.terms) for i in range(n)]
    exact = exact_moment_sweep(w, K)
    assert _character_power_sums(w, K, tuple(K * r + 1 for r in reach))() == exact
    assert moment_sequence(w, K) == tuple(exact)


def test_character_power_sums_past_int64_weights():
    # W's coefficients pass 2**64; each enters the int64 arrays reduced mod p
    ps = WeightedPointSet(2, (((0, 0), 2**40 + 3), ((1, 0), 2**33), ((0, 1), 5), ((1, 1), 1)))
    w = w_of(ps)
    assert max(w.terms.values()) > 2**64
    for N in (1, 2, 3, 4):
        assert moment_sequence_N(w, 6, N) == tuple(folded_moment_sweep(w, 6, N))
    assert moment_sequence(w, 8) == tuple(exact_moment_sweep(w, 8))


def test_exact_moments_on_unequal_reaches(monkeypatch):
    # reaches 2 and 12 in tight coordinates: levels 13 and 13 * 6 = 78, 1014 characters, not 73^2
    w = w_of(WeightedPointSet(2, (((0, 0), 1), ((1, 0), 2), ((0, 1), 1), ((12, 12), 3))))
    shapes = []

    def recorded(f, K, shape):
        shapes.append(shape)
        return _character_power_sums(f, K, shape)

    monkeypatch.setattr("speclat.moments._character_power_sums", recorded)
    assert moment_sequence(w, 6) == tuple(exact_moment_sweep(w, 6))
    assert shapes == [(13, 78)]


@pytest.mark.parametrize("seed", range(6))
def test_character_classes_pair_each_k_with_its_negation(seed, monkeypatch):
    # in four or more blocks the power sums are those of one block, and each block
    # merges every k with -k: at most (m + #{k = -k}) / 2 classes over all blocks
    rng = random.Random(1800 + seed)
    n = 1 + seed % 3
    w = w_of(random_point_set(rng, dimension=n))
    shape = tuple(rng.randint(*[(8, 40), (3, 12), (2, 6)][n - 1]) for _ in range(n))
    m, K, f = math.prod(shape), rng.randint(1, 8), fold_mod_N(w, math.lcm(*shape))
    one_block = _character_power_sums(w, K, shape)()
    monkeypatch.setattr("speclat.specpoly._CHAR_BLOCK", 2 * len(f.terms) * max(m // 10, 1))
    blocks = list(_character_classes(f, shape))
    assert len(blocks) >= 4
    assert sum(int(mult.sum()) for _, _, mult in blocks) == m
    self_negating = math.prod(2 if N % 2 == 0 else 1 for N in shape)
    assert sum(phases.shape[1] for _, phases, _ in blocks) <= (m + self_negating) // 2
    assert _character_power_sums(w, K, shape)() == one_block
