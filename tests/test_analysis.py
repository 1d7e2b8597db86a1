import math
import random
import warnings
from fractions import Fraction

import pytest

from speclat.analysis import (
    _series_length,
    empirical_cdf,
    hilbert_transform,
    mahler_measure,
    spectrum,
)
from speclat.errors import SizeLimit, SpectrumProximity
from speclat.context import SpectralContext
from speclat.lattice import WeightedPointSet
from speclat.specpoly import character_values, integer_root_multiplicity

from _oracles import expanded, hilbert_moment_series, mahler_moment_series
from conftest import random_point_set


def cluster_dict(hist, ndigits=6):
    return {round(v, ndigits): m for v, m in hist.clusters}


# -- diffraction field ------------------------------------------------------------


def test_field_extremes_honeycomb(honeycomb_ctx):
    grid = character_values(honeycomb_ctx.w, 12)
    assert grid.shape == (12, 12)
    assert grid[0, 0] == 9.0
    assert grid.max() == 9.0
    assert abs(grid.min()) < 1e-9 * 9  # zero attained on multiples of 3


def test_field_origin_cheb(cheb_ctx):
    grid = character_values(cheb_ctx.w, 8)
    assert grid[0] == 4.0
    assert grid.min() >= -1e-12


# -- spectrum histograms ------------------------------------------------------------


def test_spectrum_level6(honeycomb_ctx):
    hist = spectrum(honeycomb_ctx, 6)
    assert cluster_dict(hist) == {0.0: 2, 1.0: 15, 3.0: 6, 4.0: 6, 7.0: 6, 9.0: 1}
    assert not hist.ambiguous
    assert sum(m for _, m in hist.clusters) == 36
    assert hist.support[0] == pytest.approx(0, abs=1e-12)
    assert hist.support[1] == 9.0


def test_spectrum_level1(honeycomb_ctx):
    hist = spectrum(honeycomb_ctx, 1)
    assert hist.clusters == ((9.0, 1),)


def test_spectrum_top_is_simple(honeycomb_ctx, cheb_ctx):
    for ps, C2 in ((honeycomb_ctx, 9), (cheb_ctx, 4)):
        for N in (2, 3, 5, 8):
            hist = spectrum(ps, N)
            assert hist.multiplicity_near(C2) == 1


def test_spectrum_matches_exact_multiplicities(honeycomb_ctx):
    hist = spectrum(honeycomb_ctx, 6)
    poly = expanded(honeycomb_ctx.spectral_factors(6))
    for value, mult in hist.clusters:
        level = round(value)
        assert abs(value - level) < 1e-9
        assert integer_root_multiplicity(poly, level) == mult


def test_spectrum_symmetry_pattern(honeycomb_ctx):
    # multiplicity 1 at the top; 2 at zero when 3 | N; 3 mod 6 at the saddle
    # level when 2 | N; everything else 0 mod 6
    for N in range(1, 9):
        hist = spectrum(honeycomb_ctx, N)
        assert not hist.ambiguous
        for value, mult in hist.clusters:
            if abs(value - 9) < 1e-9:
                assert mult == 1
            elif abs(value) < 1e-9:
                assert N % 3 == 0 and mult == 2
            elif abs(value - 1) < 1e-9 and N % 2 == 0:
                assert mult % 6 == 3
            else:
                assert mult % 6 == 0


def test_spectrum_ambiguity_flag(honeycomb_ctx):
    hist = spectrum(honeycomb_ctx, 6, tolerance=0.5)
    assert hist.ambiguous


def test_spectrum_cap(honeycomb_ctx, monkeypatch):
    monkeypatch.setattr("speclat.limits.DEFAULT_FLOAT_CAP", 100)
    with pytest.raises(SizeLimit):
        spectrum(honeycomb_ctx, 100)


def test_cdf(honeycomb_ctx):
    hist = spectrum(honeycomb_ctx, 6)
    assert empirical_cdf(hist, 2) == Fraction(17, 36)
    assert empirical_cdf(hist, 100) == 1
    assert empirical_cdf(hist, -1) == 0
    assert empirical_cdf(hist, 8.99) == Fraction(35, 36)


def test_cdf_refinement_proxy(honeycomb_ctx):
    # empirical proxy for convergence of the counting distribution: along
    # the dyadic refinement the coarse estimate is farther from the fine
    # reference than the finest one.  Individual steps oscillate below the
    # 1/N^2 granularity, so only the ends are compared, at levels away
    # from the spectrum's flat spots.
    ref_hist = spectrum(honeycomb_ctx, 96)
    for r in (5.0, 7.5):
        ref = empirical_cdf(ref_hist, r)
        diffs = [
            abs(float(empirical_cdf(spectrum(honeycomb_ctx, N), r) - ref))
            for N in (6, 12, 24, 48)
        ]
        assert diffs[-1] < diffs[0]


# -- Hilbert transform ---------------------------------------------------------------


def test_hilbert_closed_form(cheb_ctx):
    h = hilbert_transform(cheb_ctx, 6)
    assert abs(h - 1 / math.sqrt(12)) < 1e-9


def test_hilbert_large_z(cheb_ctx):
    h = hilbert_transform(cheb_ctx, 1e6)
    assert abs(1e6 * h - 1) < 1e-5


def test_hilbert_methods_agree(honeycomb_ctx):
    a = hilbert_transform(honeycomb_ctx, 100, method="moment-series", tol=1e-10)
    b = hilbert_transform(honeycomb_ctx, 100, method="spectrum-average", tol=1e-10)
    assert abs(a - b) < 1e-8


def test_hilbert_rejects_small_z(cheb_ctx, monkeypatch):
    monkeypatch.setattr("speclat.limits.DEFAULT_SERIES_CAP", 64)
    with pytest.raises(SizeLimit):
        hilbert_transform(cheb_ctx, 4.000001)
    with pytest.raises(ValueError):
        hilbert_transform(cheb_ctx, 3, method="moment-series")


@pytest.mark.parametrize("z", [1.0, 9.0, 9 + 1e-7, 4 + 1e-6j])
def test_hilbert_spectrum_average_at_a_spectrum_value(honeycomb_ctx, z):
    # 1/(z - v) divided by zero at every rung and ended in "did not stabilize"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpectrumProximity, match="within 9e-06 of an observed spectrum value"):
            hilbert_transform(honeycomb_ctx, z, method="spectrum-average")


def test_hilbert_unknown_method(cheb_ctx):
    with pytest.raises(ValueError):
        hilbert_transform(cheb_ctx, 6, method="quadrature")


# -- Mahler measure --------------------------------------------------------------------


def test_mahler_limit_cheb(cheb_ctx):
    res = mahler_measure(cheb_ctx, 6, method="limit", tol=1e-6)
    assert abs(res.value - (2 - math.sqrt(3))) < 1e-6
    assert res.method == "limit"


def test_mahler_series_cheb(cheb_ctx):
    res = mahler_measure(cheb_ctx, 6, method="moment-series", tol=1e-8)
    assert abs(res.value - (2 - math.sqrt(3))) < 1e-8


def test_mahler_quadrature_cheb(cheb_ctx):
    res = mahler_measure(cheb_ctx, 6, method="torus-quadrature", resolution=256)
    assert abs(res.value - (2 - math.sqrt(3))) < 1e-5
    assert res.error < 1e-4


def test_mahler_large_z_behaves_like_inverse(cheb_ctx):
    res = mahler_measure(cheb_ctx, 1e4, method="moment-series", tol=1e-8)
    assert abs(res.value * 1e4 - 1) < 1e-3


def test_mahler_routes_agree_honeycomb(honeycomb_ctx):
    limit = mahler_measure(honeycomb_ctx, 20, method="limit", tol=1e-7)
    series = mahler_measure(honeycomb_ctx, 20, method="moment-series", tol=1e-6)
    quad = mahler_measure(honeycomb_ctx, 20, method="torus-quadrature", resolution=128)
    assert abs(limit.value - series.value) < 1e-6
    assert abs(limit.value - quad.value) < 1e-5


def test_series_with_huge_moments(monkeypatch):
    # heavy weights push the integer moments past float range (6561^k
    # overflows float64 at k = 81); the scaled summation must not care
    from speclat.lattice import WeightedPointSet

    monkeypatch.setattr("speclat.limits.DEFAULT_SERIES_CAP", 2048)
    ps = SpectralContext(WeightedPointSet(1, (((-1,), 40), ((1,), 41))))
    h = hilbert_transform(ps, 9000.0, tol=1e-16)
    ha = hilbert_transform(ps, 9000.0, method="spectrum-average", tol=1e-13)
    assert abs(h - ha) < 1e-12
    q = mahler_measure(ps, 9000.0, method="moment-series", tol=1e-12)
    lim = mahler_measure(ps, 9000.0, method="limit", tol=1e-10)
    assert abs(q.value - lim.value) < 1e-12 * q.value


@pytest.mark.parametrize("seed", range(12))
def test_moment_series_routes_equal_the_two_loops(seed):
    # both routes sum one series; each equals its own loop bit for bit, at
    # real z of both signs past C^2 and at a complex z
    rng = random.Random(4000 + seed)
    if seed:
        ps = random_point_set(rng, dimension=rng.choice([1, 2, 3]))
    else:
        ps = WeightedPointSet(1, (((-1,), 40), ((1,), 41)))
    ctx = SpectralContext(ps)
    C2 = ps.total_weight**2
    zs = (1.6 * C2, -1.7 * C2, complex(1.2 * C2, -1.3 * C2))
    if not seed:  # series past k = 81, where 6561^k, and so m_k, overflows a float
        zs += (1.1 * C2,)
    for z in zs:
        for tol in (1e-3, 1e-6):
            h = hilbert_transform(ctx, z, method="moment-series", tol=tol)
            assert h == hilbert_moment_series(ctx, z, _series_length(C2, z, tol, False))
            res = mahler_measure(ctx, z, method="moment-series", tol=tol)
            K = _series_length(C2, z, tol, True)
            assert (res.value, res.error) == mahler_moment_series(ctx, z, K)


def test_mahler_proximity(cheb_ctx):
    with pytest.raises(SpectrumProximity):
        mahler_measure(cheb_ctx, 4, method="limit")


def test_mahler_unknown_method(cheb_ctx):
    with pytest.raises(ValueError):
        mahler_measure(cheb_ctx, 6, method="other")


def test_a_ladder_with_no_rung_in_the_float_cap_reads_none(monkeypatch):
    # the 6-D simplex: 16^6 characters at the first rung, refused before any torus mean,
    # where both ladders once read nothing and said they did not stabilize
    n = 6
    ctx = SpectralContext(WeightedPointSet(n, [((0,) * n, 1)] + [
        (tuple(int(i == j) for j in range(n)), 1) for i in range(n)]))

    def refuse(*args):
        raise AssertionError("a rung was read")

    monkeypatch.setattr("speclat.analysis._torus_means", refuse)
    for call in (lambda: mahler_measure(ctx, 130.0, method="limit"),
                 lambda: hilbert_transform(ctx, 130.0, method="spectrum-average")):
        with pytest.raises(SizeLimit, match=r"^16\^6 character values exceed cap 10000000$"):
            call()
