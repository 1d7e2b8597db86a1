import math
import random

import pytest

from speclat.arith import (
    FactoredInteger,
    PrimePowerField,
    count_points,
    factorize,
    valuation_inequality_check,
    vp,
)
from speclat.context import SpectralContext
from speclat.errors import SizeLimit
from speclat.lattice import WeightedPointSet
from speclat.specpoly import evaluate_at_integer

F7_COUNT_ROW = [8, 15, 1, 6, 6, 0, 0]


def test_vp_examples():
    assert vp(722, 19) == 2  # 722 = 2 * 19^2
    assert vp(0, 5) == math.inf
    assert vp(-56, 2) == 3
    assert vp(9, 2) == 0
    with pytest.raises(ValueError):
        vp(10, 6)


def test_vp_of_spectral_value(honeycomb_ctx):
    v = evaluate_at_integer(honeycomb_ctx.spectral_polynomial(6), 53)
    assert vp(v, 7) == 12


def test_factorize_examples():
    f = factorize(140450)
    assert f.factors == {2: 1, 5: 2, 53: 2}
    assert f.cofactor == 1 and f.sign == 1
    assert factorize(1) == FactoredInteger(1, {})
    assert factorize(12).factors == {2: 2, 3: 1}
    assert factorize(-45).sign == -1
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_spectral_value(cheb_ctx):
    # level 9 value at 6 appears in the printed series as 140450
    assert evaluate_at_integer(cheb_ctx.spectral_polynomial(9), 6) == 140450


@pytest.mark.parametrize("seed", range(6))
def test_factorize_roundtrip(seed):
    rng = random.Random(seed)
    x = rng.randrange(2, 10**12)
    f = factorize(x)
    assert f.cofactor == 1
    assert f.sign * math.prod(p**e for p, e in f.factors.items()) == x
    assert all(e >= 1 for e in f.factors.values())


def test_factorize_semiprime_beyond_trial_range():
    p, q = 1_000_003, 1_000_033
    f = factorize(p * q)
    assert f.factors == {p: 1, q: 1}


# -- finite fields ----------------------------------------------------------------


@pytest.mark.parametrize("p,nu", [(2, 1), (7, 1), (3, 2), (5, 2), (2, 4)])
def test_field_generator_order(p, nu):
    field = PrimePowerField(p, nu)
    q = p**nu
    assert field.modulus[-1] == 1 and len(field.modulus) == nu + 1
    g = field.generator()
    seen = {g}
    acc = g
    for _ in range(q - 2):
        acc = field.mul(acc, g)
        seen.add(acc)
    assert acc == field.pow(g, q - 1) or q - 1 == 1
    assert field.pow(g, q - 1) == field.one
    assert len(seen) == q - 1  # g really generates the whole group


def test_field_modulus_deterministic():
    a = PrimePowerField(5, 3)
    b = PrimePowerField(5, 3)
    assert a.modulus == b.modulus


# -- point counts -----------------------------------------------------------------


def test_honeycomb_f7_table(honeycomb_ctx):
    row = [count_points(honeycomb_ctx, z, 7, 1) for z in range(7)]
    assert row == F7_COUNT_ROW


def test_count_total_is_group_size(honeycomb_ctx):
    assert sum(count_points(honeycomb_ctx, z, 7, 1) for z in range(7)) == 36


def test_count_at_top_value(honeycomb_ctx, cheb_ctx):
    # the all-ones point always maps to total_weight^2
    assert count_points(honeycomb_ctx, 9, 11, 1) >= 1
    assert count_points(cheb_ctx, 4, 13, 1) >= 1


def test_count_basis_invariance_via_extension(honeycomb_ctx):
    # same count whether z is reduced or not
    assert count_points(honeycomb_ctx, 53, 7, 1) == count_points(honeycomb_ctx, 4, 7, 1) == 6


def test_count_extension_field(cheb_ctx):
    # over the 9-element field: W(u) = (u+1)^2/u = z has solutions counted
    # against a direct enumeration using a second power table convention
    field = PrimePowerField(3, 2)
    g = field.generator()
    counts = {}
    for i in range(8):
        u = field.pow(g, i)
        uinv = field.pow(g, (8 - i) % 8)
        val = field.add(field.add(u, uinv), field.embed(2))
        counts[val] = counts.get(val, 0) + 1
    for z in range(3):
        expect = counts.get(field.embed(z), 0)
        assert count_points(cheb_ctx, z, 3, 2) == expect


def test_count_cap():
    ctx = SpectralContext(WeightedPointSet(2, (((1, 0), 1), ((0, 1), 1), ((-1, -1), 1))))
    with pytest.raises(SizeLimit):
        count_points(ctx, 1, 11, 1, cap=50)


# -- valuation inequality -----------------------------------------------------------


def test_inequality_strict_example(honeycomb_ctx):
    lhs, rhs, holds = valuation_inequality_check(honeycomb_ctx, 53, 7, 1)
    assert (lhs, rhs, holds) == (12, 6, True)


def test_inequality_z2(honeycomb_ctx):
    lhs, rhs, holds = valuation_inequality_check(honeycomb_ctx, 2, 7, 1)
    assert rhs == 1 and lhs >= 1 and holds


def test_inequality_all_residues(honeycomb_ctx):
    for z in range(7):
        lhs, rhs, holds = valuation_inequality_check(honeycomb_ctx, z, 7, 1)
        assert holds
        assert rhs == F7_COUNT_ROW[z]


def test_inequality_infinite_valuation(honeycomb_ctx):
    lhs, rhs, holds = valuation_inequality_check(honeycomb_ctx, 0, 7, 1)
    assert lhs == math.inf and holds


def test_cheb_divisibility_pattern(cheb_ctx):
    # p = 13 = 12+1: the level-12 value at 6 is divisible by 13^2;
    # p = 5: not divisible by 5 at level 4
    v13 = evaluate_at_integer(cheb_ctx.spectral_polynomial(12), 6)
    assert vp(v13, 13) >= 2
    v5 = evaluate_at_integer(cheb_ctx.spectral_polynomial(4), 6)
    assert vp(v5, 5) == 0
