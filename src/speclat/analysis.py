"""Floating-point spectral analysis.

Everything here is double precision by design: spectrum histograms over
the torsion characters, the Hilbert transform of the level-density
measure, and the Mahler-measure limit of the spectral polynomials.  Each
function reads a SpectralContext: W from it, and the exact moments the
series routes need, so a job that asks for several readings builds W once
and reads the moments once.  The Mahler ``limit`` and the Hilbert
``spectrum-average`` routes climb one doubling ladder of fresh character
grids, ``_ladder``; their ``moment-series`` routes sum one ``_series_terms``.

The torus log-average, the stabilized polynomial limit and the moment
series are three independent numerical routes to the same Mahler measure;
the test suite checks them against each other and against closed forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .context import SpectralContext
from .errors import SizeLimit, SpectrumProximity
from .limits import DEFAULT_FLOAT_CAP, DEFAULT_SERIES_CAP
from .specpoly import character_values


@dataclass(frozen=True)
class SpectrumHistogram:
    """Sorted character values at level N with clustered levels.

    Clusters are maximal runs separated by gaps above the tolerance, kept
    as arrays of their means and sizes; the histogram is flagged ambiguous
    when two clusters approach within ten tolerances, rather than silently
    merging them.
    """

    values: np.ndarray
    means: np.ndarray
    sizes: np.ndarray
    support: tuple[float, float]
    tolerance: float
    min_gap: float
    ambiguous: bool

    @property
    def clusters(self) -> tuple[tuple[float, int], ...]:
        return tuple(zip(self.means.tolist(), self.sizes.tolist()))

    def multiplicity_near(self, level: float) -> int:
        for value, mult in self.clusters:
            if abs(value - level) <= self.tolerance:
                return mult
        return 0


def spectrum(ctx: SpectralContext, N: int, tolerance: float | None = None) -> SpectrumHistogram:
    """All N^n character values, sorted and clustered.

    A cluster's level is the mean of its values, bit for bit what
    ``ndarray.mean`` gives on the cluster: the clusters of each size L are
    gathered into one (count, L) block and averaged as ``block.sum(axis=1)
    / L``, which reduces every contiguous row with numpy's pairwise sum,
    the same order ``mean`` uses.  A singleton keeps its value.
    """
    C2 = ctx.ps.total_weight**2
    tol = 1e-6 * C2 if tolerance is None else tolerance
    vals = np.sort(character_values(ctx.w, N).ravel())
    starts = np.flatnonzero(np.r_[True, np.diff(vals) > tol])
    sizes = np.diff(np.r_[starts, len(vals)])
    means = vals[starts]
    # bincount, not np.unique: a plain unique loads numpy.ma (``np.ma.is_masked``
    # in numpy 2.4), which costs every short CLI job its memory
    for size in np.flatnonzero(np.bincount(sizes)):
        if size > 1:
            rows = sizes == size
            means[rows] = vals[starts[rows, None] + np.arange(size)].sum(axis=1) / size
    min_gap = float(np.diff(means).min()) if len(means) > 1 else math.inf
    return SpectrumHistogram(
        values=vals,
        means=means,
        sizes=sizes,
        support=(float(vals[0]), float(vals[-1])),
        tolerance=tol,
        min_gap=min_gap,
        ambiguous=min_gap < 10 * tol,
    )


def empirical_cdf(hist: SpectrumHistogram, r: float) -> Fraction:
    """Fraction of stored values <= r, exact over the stored multiset."""
    return Fraction(int((hist.values <= r).sum()), len(hist.values))


def _ladder(ctx: SpectralContext, read, tol: float, failure: str):
    """(reading, |difference|) at the first of the character grids
    N = 16, 32, ... whose reading agrees within tol with the one before.
    Each grid is fresh and handed to ``read``, which may consume it in
    place; the next is built once ``read`` has let it go.  Raises
    SizeLimit(failure) when N^n passes the float cap first."""
    prev = None
    N = 16
    while N**ctx.dimension <= DEFAULT_FLOAT_CAP:
        cur = read(character_values(ctx.w, N))
        if prev is not None and abs(cur - prev) < tol:
            return cur, abs(cur - prev)
        prev = cur
        N *= 2
    raise SizeLimit(failure)


# -- Hilbert transform ----------------------------------------------------------


def _series_length(ratio: float, scale: float, tol: float, div: float = 1) -> int:
    # smallest K with ratio^(K+1) / scale < tol / div, held to the series cap
    if not 0 < ratio < 1:
        raise ValueError("series method needs |z| above the spectrum top")
    bound = tol / div * scale  # past the positive floats, its log is its factors' logs summed
    log_bound = math.log(bound) if 0 < bound < math.inf else (
        math.log(tol) - math.log(div) + math.log(scale))
    K = max(1, math.ceil(log_bound / math.log(ratio)) + 1)
    if K > DEFAULT_SERIES_CAP:
        raise SizeLimit(f"series needs {K} moments (cap {DEFAULT_SERIES_CAP}); z is too close "
                        "to the spectrum top for the moment series")
    return K


def _hilbert_length(C2: int, z: complex, tol: float) -> int:
    return _series_length(C2 / abs(z), abs(z) - C2, tol)


def _mahler_length(C2: int, z: complex, tol: float) -> int:
    return _series_length(C2 / abs(z), 1 - C2 / abs(z), tol, 10)


def sweep_series_moments(
    ctx: SpectralContext, z: complex, mahler_tol: float | None, hilbert_tol: float | None
) -> None:
    """Read the moments once, to the longer of the series that the moment-series
    routes of mahler_measure and hilbert_transform will read at these tolerances
    (None: that route is not taken).  Raises SizeLimit before any work when a
    length passes ``DEFAULT_SERIES_CAP``, Mahler's checked first."""
    C2 = ctx.ps.total_weight**2
    K = max(
        _mahler_length(C2, z, mahler_tol) if mahler_tol is not None else 0,
        _hilbert_length(C2, z, hilbert_tol) if hilbert_tol is not None else 0,
    )
    if K:
        ctx.moment_sequence(K)


def _series_terms(ctx: SpectralContext, z: complex, K: int):
    """(k, m_k / C2^k, (C2/z)^k), k = 0..K, the terms both moment series sum: each
    factor stays bounded however large the integer moments get, m_k / C2^k in (0, 1]."""
    C2 = ctx.ps.total_weight**2
    m = ctx.moment_sequence(K)
    base = C2 * (1 / complex(z))
    scaled, c2pow = 1 + 0j, 1
    for k in range(K + 1):
        yield k, m[k] / c2pow, scaled
        scaled *= base
        c2pow *= C2


def _stieltjes_average(vals: np.ndarray, z) -> complex:
    """Mean of 1/(z - v) over vals, in one complex buffer: the ufuncs and
    order of ``np.mean(1.0 / (complex(z) - vals))``, so the same bits."""
    buf = np.subtract(complex(z), vals)
    return complex(np.mean(np.divide(1.0, buf, out=buf)))


def hilbert_transform(
    ctx: SpectralContext,
    z: complex,
    method: str = "moment-series",
    tol: float = 1e-10,
) -> complex:
    """Stieltjes transform of the level density at z.

    moment-series: sum of m_k / z^(k+1) with a geometric tail bound below
    tol (requires |z| > total_weight^2).  spectrum-average: average of
    1/(z - value) over the characters, level doubled until stable.
    """
    C2 = ctx.ps.total_weight**2
    if method == "moment-series":
        zinv = 1 / complex(z)
        acc = 0j
        for _, a, s in _series_terms(ctx, z, _hilbert_length(C2, z, tol)):
            acc += a * s * zinv
        return acc
    if method == "spectrum-average":
        average = lambda vals: _stieltjes_average(vals.ravel(), z)
        return _ladder(ctx, average, tol, "spectrum average did not stabilize within the cap")[0]
    raise ValueError(f"unknown method {method!r}")


# -- Mahler measure ---------------------------------------------------------------


@dataclass(frozen=True)
class MahlerResult:
    value: float
    error: float
    method: str


def _log_average(vals: np.ndarray, z, tol_abs, out: np.ndarray | None = None) -> float:
    """Mean of log|z - v| over vals, reduced inside one float buffer: ``out``
    (vals itself, when the caller has no further use for it) or a fresh
    array.  The ufuncs and their order are those of
    ``np.mean(np.log(np.abs(z - vals)))``, so the bits are too; a real z
    gives |complex(z) - v| = hypot(z - v, 0), the same bits, with no complex
    buffer, and a complex z takes one for z - vals."""
    if np.iscomplexobj(z):
        buf = np.abs(np.subtract(z, vals), out=out)
    else:
        buf = np.subtract(z, vals, out=out)
        np.abs(buf, out=buf)
    if buf.min() < tol_abs:
        raise SpectrumProximity(
            f"{z} is within {tol_abs} of an observed spectrum value"
        )
    return float(np.mean(np.log(buf, out=buf)))


def mahler_measure(
    ctx: SpectralContext,
    z: complex,
    method: str = "limit",
    tol: float = 1e-3,
    resolution: int = 128,
) -> MahlerResult:
    """exp(-average of log|z - value|) over the full torus, three ways.

    limit: follow exp(-log avg at level N) along the doubling ladder until
    two successive estimates differ by less than tol.  moment-series:
    |exp(sum m_k/k z^-k) / z| with the tail bounded below tol (needs
    |z| > total_weight^2).  torus-quadrature: one uniform grid log-average
    at the given resolution, with the half-resolution difference as the
    error estimate.  At an even resolution R the half grid is every other
    point of the fine one, bit for bit: 2 pi (2 k) / R and 2 pi k / (R / 2)
    are the same double, a power-of-two scaling apart; at R = 2, the level-1 grid.

    Each grid is reduced in its own memory: a ``limit`` rung and the fine
    grid are consumed in place, after the coarse half, which takes a fresh
    buffer of its own size (a copy of the every-other-point view, or the
    fresh half grid at an odd resolution).  A job holds one
    float64 per point of its largest grid, plus the coarse half.
    """
    C2 = ctx.ps.total_weight**2
    proximity = 1e-6 * C2
    if method == "limit":
        estimate = lambda vals: math.exp(-_log_average(vals, z, proximity, out=vals))
        failure = "limit method did not stabilize within the float cap"
        return MahlerResult(*_ladder(ctx, estimate, tol, failure), method)
    if method == "moment-series":
        ratio = C2 / abs(z)
        K = _mahler_length(C2, z, tol)
        acc = 0j
        for k, a, s in itertools.islice(_series_terms(ctx, z, K), 1, None):
            acc += a / k * s
        value = abs(1 / complex(z) * np.exp(acc))
        tail = ratio ** (K + 1) / ((K + 1) * (1 - ratio))
        return MahlerResult(float(value), float(value * tail), method)
    if method == "torus-quadrature":
        if resolution < 2:  # the half grid needs level resolution // 2 >= 1
            raise ValueError("resolution must be >= 2")
        grid = character_values(ctx.w, resolution)  # meets the float cap before any sweep
        if resolution % 2:
            half = character_values(ctx.w, resolution // 2)
            coarse = _log_average(half, z, proximity, out=half)
        else:
            coarse = _log_average(grid[(slice(None, None, 2),) * ctx.dimension], z, proximity)
        fine = math.exp(-_log_average(grid, z, proximity, out=grid))
        return MahlerResult(fine, abs(fine - math.exp(-coarse)), method)
    raise ValueError(f"unknown method {method!r}")
