"""Floating-point spectral analysis.

Everything here is double precision by design: spectrum histograms over
the torsion characters, the Hilbert transform of the level-density
measure, and the Mahler-measure limit of the spectral polynomials.  Each
function reads a SpectralContext: W from it, and the exact moments the
series routes need, so a job that asks for several readings builds W once
and reads the moments once.  ``_plan`` checks every cap of the Mahler and
Hilbert routes a call or a CLI ``mahler`` job asks for, once, before any
work; each public call begins with it, so both raise the same messages.
The Mahler ``limit`` and the Hilbert ``spectrum-average`` routes climb one
doubling ladder of character levels, ``_ladder``; their ``moment-series``
routes sum one ``_series_terms``.  Every torus mean, those two ladders'
rungs and the Mahler quadrature, is one ``_torus_means`` of one
``_reading``, of log|z - v| or 1/(z - v): it reads the characters a row
block at a time and sums them in numpy's own pairwise order, so it holds a
leaf of that sum instead of the grid and gives ``np.mean``'s bits.  Only
``spectrum``, which sorts every value, holds its grid.

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

from . import limits
from .context import SpectralContext
from .errors import SizeLimit, SpectrumProximity
from .limits import FLOAT_OVERFLOW
from .specpoly import _VALUE_BLOCK, character_rows, character_values, check_level


def _top(ctx: SpectralContext) -> int:
    """C^2, the spectrum's top, if a float holds it (ValueError if not)."""
    if (C2 := ctx.ps.total_weight**2) >= FLOAT_OVERFLOW:
        raise ValueError("total_weight^2 must be below 2^1024 for float character values")
    return C2


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
    C2 = _top(ctx)
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


def _pairwise(m: int, unit: int, leaf):
    """numpy's pairwise sum of m values of ``unit`` reals each (2 for complex),
    with ``leaf(size)`` for each node of at most ``_VALUE_BLOCK`` values, in
    order: numpy's ``pairwise_sum`` splits a node of m unit reals at half of
    them rounded down to a multiple of 8.  A leaf of [size] lists the leaves."""
    if m <= _VALUE_BLOCK:
        return leaf(m)
    left = m * unit // 2 // 8 * 8 // unit
    return _pairwise(left, unit, leaf) + _pairwise(m - left, unit, leaf)


class _StreamMean:
    """``np.mean`` of ``count`` values fed in order, bit for bit.  Reduced
    alone, a node of numpy's pairwise tree walks the same tree below it as
    the whole sum does, so each leaf is reduced once its values are in, and
    the sums fold as the tree adds them.  Each leaf's reduce starts from
    numpy's initial 0, which the whole sum adds once: that turns a -0 sum
    into +0 and nothing else.  The quotient is numpy's, the sum's scalar
    over an ``intp`` count.  The first values fed give the dtype; a leaf
    that straddles feeds is gathered in one buffer."""

    def __init__(self, count: int):
        self.count, self.sizes, self.sums, self.fill = count, None, [], 0

    def feed(self, values: np.ndarray) -> None:
        if self.sizes is None:
            self.unit = 2 if np.iscomplexobj(values) else 1
            self.sizes = _pairwise(self.count, self.unit, lambda size: [size])[::-1]
            self.leaf = np.empty(min(self.count, _VALUE_BLOCK), values.dtype)
        at = 0
        while at < values.size:
            size = self.sizes[-1]
            take = min(size - self.fill, values.size - at)
            if take < size:
                self.leaf[self.fill : self.fill + take] = values[at : at + take]
            self.fill, at = self.fill + take, at + take
            if self.fill == size:  # a whole leaf is reduced where it lies
                self.sums.append(np.add.reduce(self.leaf[:size] if take < size else
                                               values[at - size : at]))
                self.sizes.pop()
                self.fill = 0

    def mean(self):
        sums = iter(self.sums)
        return _pairwise(self.count, self.unit, lambda size: next(sums)) / np.intp(self.count)


def _torus_means(w, N: int, read, half: bool = False) -> list:
    """[np.mean(read(character_values(w, N)))], bit for bit, then with
    ``half`` (N even) the same over every other point, the level-N/2 grid.
    ``read`` maps a block of rows, of at most ``_VALUE_BLOCK`` values, in
    place where it can; the job holds a block and a leaf, not the grid."""
    rows, n = character_rows(w, N), w.dimension  # the float cap, before any work
    step = max(1, min(N, _VALUE_BLOCK // N ** (n - 1)))
    buf = np.empty((step,) + (N,) * (n - 1))
    means = [_StreamMean(N**n)] + [_StreamMean((N // 2) ** n)] * half
    every_other = (slice(None, None, 2),) * (n - 1)
    for r0 in range(0, N, step):
        block = read(rows(r0, min(r0 + step, N), buf))
        means[0].feed(block.ravel())
        if half:
            means[1].feed(block[(slice(r0 % 2, None, 2), *every_other)].ravel())
    return [mean.mean() for mean in means]


def _ladder(ctx: SpectralContext, read, tol: float, failure: str):
    """(reading, |difference|) at the first of the levels N = 16, 32, ...
    whose reading ``read(N)`` agrees within tol with the one before.
    Raises SizeLimit(failure) when N^n passes the float cap first, after
    reading at least one rung: ``_plan`` checked the first."""
    prev, N, cap = None, 16, limits.DEFAULT_FLOAT_CAP
    while N**ctx.dimension <= cap:
        cur = read(N)
        if prev is not None and abs(cur - prev) < tol:
            return cur, abs(cur - prev)
        prev = cur
        N *= 2
    raise SizeLimit(failure)


# -- the plan -------------------------------------------------------------------


def _series_length(C2: int, z: complex, tol: float, mahler: bool) -> int:
    """The moments the Mahler (``mahler``) or the Hilbert moment series needs at z: the
    smallest K with ratio^(K+1) / scale < tol / div, ratio = C2 / |z|, held to the series
    cap; the Mahler series has scale 1 - ratio and div 10, the Hilbert |z| - C2 and 1."""
    ratio = C2 / abs(z) if z else math.inf  # z = 0 is refused with the rest of |z| <= C2
    scale, div = (1 - ratio, 10) if mahler else (abs(z) - C2, 1)
    if not 0 < ratio < 1:
        raise ValueError("series method needs |z| above the spectrum top")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite number > 0, got {tol}")
    bound = tol / div * scale  # past the positive floats, its log is its factors' logs summed
    log_bound = math.log(bound) if 0 < bound < math.inf else (
        math.log(tol) - math.log(div) + math.log(scale))
    K = max(1, math.ceil(log_bound / math.log(ratio)) + 1)
    if K > (cap := limits.DEFAULT_SERIES_CAP):
        raise SizeLimit(f"series needs {K} moments (cap {cap}); z is too close "
                        "to the spectrum top for the moment series")
    return K


def _plan(ctx: SpectralContext, z, methods=(), tol: float = 1e-3, resolution: int = 128,
          hilbert=(), hilbert_tol: float = 1e-10):
    """(K_mahler, K_hilbert, the run of the moments to the longer) of the Mahler routes
    ``methods`` and the Hilbert routes ``hilbert`` at z, each K 0 for no series, every
    cap checked once, before any work, in the order of the README's ``mahler`` row:
    with ``torus-quadrature``, resolution >= 2 (ValueError) and resolution^n within the
    float cap; the Mahler series length, then the Hilbert one; the moments' own caps;
    with ``limit`` or ``spectrum-average``, the ladders' first rung, 16^n."""
    C2, n = _top(ctx), ctx.dimension
    if "torus-quadrature" in methods:
        if resolution < 2:  # the half grid needs level resolution // 2 >= 1
            raise ValueError("resolution must be >= 2")
        check_level(resolution, n, limits.DEFAULT_FLOAT_CAP, "character values")
    K = [_series_length(C2, z, t, mahler) if "moment-series" in routes else 0
         for routes, t, mahler in ((methods, tol, True), (hilbert, hilbert_tol, False))]
    moments = ctx.plan_moments(max(K))
    if {"limit", "spectrum-average"} & {*methods, *hilbert}:
        check_level(16, n, limits.DEFAULT_FLOAT_CAP, "character values")
    return (*K, moments)


# -- Hilbert transform ----------------------------------------------------------


def _series_terms(C2: int, z: complex, m: tuple[int, ...]):
    """(k, m_k / C2^k, (C2/z)^k) for each moment m_k of m, the terms both moment series
    sum: each factor stays bounded however large the integer moments get, m_k / C2^k in (0, 1]."""
    base = C2 * (1 / complex(z))
    scaled, c2pow = 1 + 0j, 1
    for k, mk in enumerate(m):
        yield k, mk / c2pow, scaled
        scaled *= base
        c2pow *= C2


def _reading(z, tol_abs: float, log: bool):
    """vals -> log|z - v| (``log``) or 1/(z - v) elementwise: the ufuncs of
    ``np.log(np.abs(z - vals))`` or ``1.0 / (complex(z) - vals)``, so the same
    bits; SpectrumProximity, read in vals, when a |z - v| is below tol_abs.
    A real z's log reading works in vals itself, as |complex(z) - v| =
    hypot(z - v, 0) has the same bits; any other takes one complex buffer."""

    def read(vals: np.ndarray) -> np.ndarray:
        if log and not np.iscomplexobj(z):
            diff = np.subtract(z, vals, out=vals)
        else:
            diff = np.subtract(complex(z), vals)
        size = np.abs(diff, out=vals)
        if size.min() < tol_abs:
            raise SpectrumProximity(f"{z} is within {tol_abs} of an observed spectrum value")
        return np.log(size, out=size) if log else np.divide(1.0, diff, out=diff)

    return read


def hilbert_transform(
    ctx: SpectralContext,
    z: complex,
    method: str = "moment-series",
    tol: float = 1e-10,
) -> complex:
    """Stieltjes transform of the level density at z.

    moment-series: sum of m_k / z^(k+1) with a geometric tail bound below
    tol (requires |z| > total_weight^2).  spectrum-average: average of
    1/(z - value) over the characters, level doubled until stable; as in
    ``mahler_measure``, SpectrumProximity within 1e-6 total_weight^2 of a value.
    """
    moments = _plan(ctx, z, hilbert=(method,), hilbert_tol=tol)[2]
    C2 = ctx.ps.total_weight**2
    if method == "moment-series":
        zinv = 1 / complex(z)
        acc = 0j
        for _, a, s in _series_terms(C2, z, moments()):
            acc += a * s * zinv
        return acc
    if method == "spectrum-average":
        average = lambda N: complex(_torus_means(ctx.w, N, _reading(z, 1e-6 * C2, False))[0])
        return _ladder(ctx, average, tol, "spectrum average did not stabilize within the cap")[0]
    raise ValueError(f"unknown method {method!r}")


# -- Mahler measure ---------------------------------------------------------------


@dataclass(frozen=True)
class MahlerResult:
    value: float
    error: float
    method: str


def _log_mean(w, N: int, z, tol_abs: float = 0.0) -> float:
    """Mean of log|z - w(chi)| over the N-torsion characters chi, bit for bit
    ``np.mean(np.log(np.abs(z - character_values(w, N))))``."""
    return float(_torus_means(w, N, _reading(z, tol_abs, True))[0])


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
    point of the fine one, read from the same stream; at an odd one it is
    the level R // 2 grid, read on its own; at R = 2, the level-1 grid.

    Every grid is a ``_torus_means`` stream, so a ``limit`` rung or a
    quadrature holds a block and a leaf of 2^16 values, not its grid.
    """
    K, _, moments = _plan(ctx, z, (method,), tol, resolution)
    C2 = ctx.ps.total_weight**2
    proximity = 1e-6 * C2
    if method == "limit":
        estimate = lambda N: math.exp(-_log_mean(ctx.w, N, z, proximity))
        failure = "limit method did not stabilize within the float cap"
        return MahlerResult(*_ladder(ctx, estimate, tol, failure), method)
    if method == "moment-series":
        ratio = C2 / abs(z)
        acc = 0j
        for k, a, s in itertools.islice(_series_terms(C2, z, moments()), 1, None):
            acc += a / k * s
        value = abs(1 / complex(z) * np.exp(acc))
        tail = ratio ** (K + 1) / ((K + 1) * (1 - ratio))
        return MahlerResult(float(value), float(value * tail), method)
    if method == "torus-quadrature":
        fine, *coarse = _torus_means(ctx.w, resolution, _reading(z, proximity, True),
                                     half=resolution % 2 == 0)
        fine = math.exp(-fine)
        coarse = coarse[0] if coarse else _log_mean(ctx.w, resolution // 2, z, proximity)
        return MahlerResult(fine, abs(fine - math.exp(-coarse)), method)
    raise ValueError(f"unknown method {method!r}")
