"""Per-job spectral context: one point set's diffraction polynomial W and
the exact invariants read from it.

Every invariant speclat computes is a reading of W on the difference
lattice.  A context builds the lattice basis and W once, and keeps each
exact reading it is asked for: b_N per level, and the moments, swept once
to the largest K asked for and sliced below it.  A context serves one job
and nothing outlives it.  Float character values are recomputed on each
call: holding them would cost memory for no exact gain.
"""

from __future__ import annotations

from .lattice import WeightedPointSet, difference_lattice
from .laurent import diffraction_polynomial
from .moments import MomentSequence, moment_sequence
from .specpoly import DEFAULT_SIZE_LIMIT, IntPolynomial, spectral_polynomial


class SpectralContext:
    """The lattice basis and W of one point set, with b_N and the moments
    computed at most once each."""

    def __init__(self, ps: WeightedPointSet):
        self.ps = ps
        self.basis = difference_lattice(ps)
        self.w = diffraction_polynomial(ps, self.basis)
        self._polys: dict[int, IntPolynomial] = {}
        self._moments: tuple[int, ...] = ()

    @property
    def dimension(self) -> int:
        return self.ps.dimension

    def spectral_polynomial(self, N: int, size_limit: int = DEFAULT_SIZE_LIMIT) -> IntPolynomial:
        """b_N; every call is held to ``size_limit``, whether or not b_N is kept."""
        if N not in self._polys or N**self.dimension > size_limit:
            # over the limit, spectral_polynomial raises before any work
            self._polys[N] = spectral_polynomial(self.w, N, size_limit)
        return self._polys[N]

    def moment_sequence(self, K: int) -> MomentSequence:
        """Exact moments m_0..m_K, sliced from the longest sweep so far."""
        if len(self._moments) <= K:
            self._moments = moment_sequence(self.w, K).values
        return MomentSequence(self._moments[: K + 1], "constant-term")
