"""Per-job spectral context: one point set's diffraction polynomial W and
the exact invariants read from it.

Every invariant speclat computes is a reading of W on the difference
lattice.  A context builds the lattice basis and W once, and keeps each
exact reading it is asked for: b_N per level, as its factors g_j and, once
read, its one packed product, and the moments, a tuple of integers read
once as power sums to the largest K asked for, sliced below it.
A context serves one job and nothing of it outlives the job; ``specpoly``'s
table of split moduli does, as it holds constants of a level, not of a point
set: a one-shot CLI process pays one search per level.  Float character
values are recomputed on each call, so the Mahler ``limit`` ladder and the
Hilbert ``spectrum-average`` ladder each build their own rungs: holding
them would cost memory for no exact gain.
"""

from __future__ import annotations

from .lattice import WeightedPointSet, difference_lattice
from .laurent import diffraction_polynomial
from .moments import _moments
from .specpoly import SpectralFactors, spectral_factors


class SpectralContext:
    """The lattice basis and W of one point set, with b_N and the moments
    computed at most once each."""

    def __init__(self, ps: WeightedPointSet):
        self.ps = ps
        self.basis = difference_lattice(ps)
        self.w = diffraction_polynomial(ps, self.basis)
        self._factors: dict[int, SpectralFactors] = {}
        self._moments: tuple[int, ...] = ()

    @property
    def dimension(self) -> int:
        return self.ps.dimension

    def spectral_factors(self, N: int) -> SpectralFactors:
        """b_N as prod_j g_j**j, built at most once per level."""
        if N not in self._factors:
            self._factors[N] = spectral_factors(self.w, N)
        return self._factors[N]

    def plan_moments(self, K: int):
        """The run of ``moment_sequence(K)``, planned by ``moments._moments`` unless
        the moments are kept; a run keeps its moments for later readers."""
        if 0 <= K < len(self._moments):  # moment_sequence refuses K < 0
            return lambda: self._moments[: K + 1]
        run = _moments(self.w, K)

        def keep():
            self._moments = run()
            return self._moments

        return keep

    def moment_sequence(self, K: int) -> tuple[int, ...]:
        """Exact moments m_0..m_K, sliced from the longest tuple so far."""
        return self.plan_moments(K)()
