"""Floating-point spectral analysis.

Everything here is double precision by design: spectrum histograms over
the torsion characters, the diffraction intensity on a grid, the Hilbert
transform of the level-density measure, and the Mahler-measure limit of
the spectral polynomials.  Each function reads a SpectralContext: W from
it, and the exact moments the series routes need, so a job that asks for
several readings builds W once and sweeps the moments once.

The torus log-average, the stabilized polynomial limit and the moment
series are three independent numerical routes to the same Mahler measure;
the test suite checks them against each other and against closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .context import SpectralContext
from .errors import SizeLimit, SpectrumProximity
from .specpoly import character_values

DEFAULT_FLOAT_CAP = 10**7
DEFAULT_SERIES_CAP = 1024
MAHLER_METHODS = ("limit", "moment-series", "torus-quadrature")


@dataclass(frozen=True)
class SpectrumHistogram:
    """Sorted character values at level N with clustered levels.

    Clusters are maximal runs separated by gaps above the tolerance; the
    histogram is flagged ambiguous when two clusters approach within ten
    tolerances, rather than silently merging them.
    """

    N: int
    values: np.ndarray
    clusters: tuple[tuple[float, int], ...]
    support: tuple[float, float]
    tolerance: float
    min_gap: float
    ambiguous: bool

    def multiplicity_near(self, level: float, tol: float | None = None) -> int:
        tol = self.tolerance if tol is None else tol
        for value, mult in self.clusters:
            if abs(value - level) <= tol:
                return mult
        return 0


def diffraction_field(ctx: SpectralContext, resolution: int) -> np.ndarray:
    """Squared diffraction intensity on the uniform resolution^n grid of the
    fundamental domain (lattice coordinates)."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    return character_values(ctx.w, resolution)


def spectrum(
    ctx: SpectralContext,
    N: int,
    tolerance: float | None = None,
    float_cap: int = DEFAULT_FLOAT_CAP,
) -> SpectrumHistogram:
    """All N^n character values, sorted and clustered.

    A cluster's level is the mean of its values, bit for bit what
    ``ndarray.mean`` gives on the cluster: the clusters of each size L are
    gathered into one (count, L) block and averaged as ``block.sum(axis=1)
    / L``, which reduces every contiguous row with numpy's pairwise sum,
    the same order ``mean`` uses.  A singleton keeps its value.
    """
    n = ctx.dimension
    if N**n > float_cap:
        raise SizeLimit(f"{N**n} character values exceed cap {float_cap}")
    C2 = ctx.ps.total_weight**2
    tol = 1e-6 * C2 if tolerance is None else tolerance
    vals = np.sort(character_values(ctx.w, N).ravel())
    starts = np.flatnonzero(np.r_[True, np.diff(vals) > tol])
    sizes = np.diff(np.r_[starts, len(vals)])
    means = vals[starts]
    # bincount, not np.unique: unique imports numpy.ma, which costs every
    # short CLI job its memory
    for size in np.flatnonzero(np.bincount(sizes)):
        if size > 1:
            rows = sizes == size
            means[rows] = vals[starts[rows, None] + np.arange(size)].sum(axis=1) / size
    min_gap = float(np.diff(means).min()) if len(means) > 1 else math.inf
    return SpectrumHistogram(
        N=N,
        values=vals,
        clusters=tuple(zip(means.tolist(), sizes.tolist())),
        support=(float(vals[0]), float(vals[-1])),
        tolerance=tol,
        min_gap=min_gap,
        ambiguous=min_gap < 10 * tol,
    )


def empirical_cdf(hist: SpectrumHistogram, r: float) -> Fraction:
    """Fraction of stored values <= r, exact over the stored multiset."""
    return Fraction(int((hist.values <= r).sum()), len(hist.values))


# -- Hilbert transform ----------------------------------------------------------


def _series_length(ratio: float, scale: float, tol: float, cap: float) -> int:
    # smallest K with ratio^(K+1) / scale < tol
    if not 0 < ratio < 1:
        raise ValueError("series method needs |z| above the spectrum top")
    K = max(1, math.ceil(math.log(tol * scale) / math.log(ratio)) + 1)
    if K > cap:
        raise SizeLimit(
            f"series needs {K} moments (cap {cap}); z is too close to the "
            "spectrum top for the moment series"
        )
    return K


def _hilbert_length(C2: int, z: complex, tol: float, cap: float = math.inf) -> int:
    return _series_length(C2 / abs(z), abs(z) - C2, tol, cap)


def _mahler_length(C2: int, z: complex, tol: float, cap: float = math.inf) -> int:
    return _series_length(C2 / abs(z), 1 - C2 / abs(z), tol / 10, cap)


def sweep_series_moments(
    ctx: SpectralContext, z: complex, mahler_tol: float | None, hilbert_tol: float | None
) -> None:
    """Sweep the moments once, to the longer of the series that the
    moment-series routes of mahler_measure and hilbert_transform will read
    at these tolerances (None: that route is not taken) with the default
    series cap.  A length over the cap is left for the route to refuse."""
    C2 = ctx.ps.total_weight**2
    K = max(
        _mahler_length(C2, z, mahler_tol) if mahler_tol is not None else 0,
        _hilbert_length(C2, z, hilbert_tol) if hilbert_tol is not None else 0,
    )
    if 0 < K <= DEFAULT_SERIES_CAP:
        ctx.moment_sequence(K)


def hilbert_transform(
    ctx: SpectralContext,
    z: complex,
    method: str = "moment-series",
    tol: float = 1e-10,
    float_cap: int = DEFAULT_FLOAT_CAP,
    series_cap: int = DEFAULT_SERIES_CAP,
) -> complex:
    """Stieltjes transform of the level density at z.

    moment-series: sum of m_k / z^(k+1) with a geometric tail bound below
    tol (requires |z| > total_weight^2).  spectrum-average: average of
    1/(z - value) over the characters, level doubled until stable.
    """
    C2 = ctx.ps.total_weight**2
    if method == "moment-series":
        K = _hilbert_length(C2, z, tol, series_cap)
        m = ctx.moment_sequence(K)
        # sum m_k / z^(k+1) as (m_k / C2^k) * (C2/z)^k / z: both factors
        # stay bounded however large the integer moments get
        zinv = 1 / complex(z)
        base = C2 * zinv
        acc = 0j
        scaled = 1 + 0j
        c2pow = 1
        for k in range(K + 1):
            acc += float(Fraction(m[k], c2pow)) * scaled * zinv
            scaled *= base
            c2pow *= C2
        return acc
    if method == "spectrum-average":
        prev = None
        N = 16
        while N**ctx.dimension <= float_cap:
            vals = character_values(ctx.w, N).ravel()
            cur = complex(np.mean(1.0 / (complex(z) - vals)))
            if prev is not None and abs(cur - prev) < tol:
                return cur
            prev = cur
            N *= 2
        raise SizeLimit("spectrum average did not stabilize within the cap")
    raise ValueError(f"unknown method {method!r}")


# -- Mahler measure ---------------------------------------------------------------


@dataclass(frozen=True)
class MahlerResult:
    value: float
    error: float
    method: str


def _log_average(ctx: SpectralContext, N, z, tol_abs) -> float:
    vals = character_values(ctx.w, N).ravel()
    diffs = np.abs(complex(z) - vals)
    if diffs.min() < tol_abs:
        raise SpectrumProximity(
            f"{z} is within {tol_abs} of an observed spectrum value"
        )
    return float(np.mean(np.log(diffs)))


def mahler_measure(
    ctx: SpectralContext,
    z: complex,
    method: str = "limit",
    tol: float = 1e-3,
    resolution: int = 128,
    float_cap: int = DEFAULT_FLOAT_CAP,
    series_cap: int = DEFAULT_SERIES_CAP,
) -> MahlerResult:
    """exp(-average of log|z - value|) over the full torus, three ways.

    limit: follow exp(-log avg at level N) along a doubling ladder until
    two successive estimates differ by less than tol.  moment-series:
    |exp(sum m_k/k z^-k) / z| with the tail bounded below tol (needs
    |z| > total_weight^2).  torus-quadrature: one uniform grid log-average
    at the given resolution, with the half-resolution difference as the
    error estimate.
    """
    C2 = ctx.ps.total_weight**2
    proximity = 1e-6 * C2
    if method == "limit":
        prev = None
        N = 16
        while N**ctx.dimension <= float_cap:
            cur = math.exp(-_log_average(ctx, N, z, proximity))
            if prev is not None and abs(cur - prev) < tol:
                return MahlerResult(cur, abs(cur - prev), method)
            prev = cur
            N *= 2
        raise SizeLimit("limit method did not stabilize within the float cap")
    if method == "moment-series":
        ratio = C2 / abs(z)
        K = _mahler_length(C2, z, tol, series_cap)
        m = ctx.moment_sequence(K)
        zinv = 1 / complex(z)
        base = C2 * zinv
        acc = 0j
        scaled = base  # (C2/z)^k, bounded; m_k/C2^k in (0,1]
        c2pow = C2
        for k in range(1, K + 1):
            acc += float(Fraction(m[k], c2pow)) / k * scaled
            scaled *= base
            c2pow *= C2
        value = abs(zinv * np.exp(acc))
        tail = ratio ** (K + 1) / ((K + 1) * (1 - ratio))
        return MahlerResult(float(value), float(value * tail), method)
    if method == "torus-quadrature":
        coarse = math.exp(-_log_average(ctx, max(resolution // 2, 2), z, proximity))
        fine = math.exp(-_log_average(ctx, resolution, z, proximity))
        return MahlerResult(fine, abs(fine - coarse), method)
    raise ValueError(f"unknown method {method!r}")
