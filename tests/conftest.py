import random

import pytest
from hypothesis import settings

from speclat.context import SpectralContext
from speclat.lattice import WeightedPointSet, difference_lattice
from speclat.laurent import diffraction_polynomial

# same examples on every run, no example database, no wall-clock deadline
settings.register_profile("speclat", derandomize=True, database=None, deadline=None)
settings.load_profile("speclat")


@pytest.fixture
def honeycomb():
    return WeightedPointSet(2, (((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)))


@pytest.fixture
def chebyshev():
    return WeightedPointSet(1, (((-1,), 1), ((1,), 1)))


@pytest.fixture
def honeycomb_ctx(honeycomb):
    return SpectralContext(honeycomb)


@pytest.fixture
def cheb_ctx(chebyshev):
    return SpectralContext(chebyshev)


@pytest.fixture
def w_honey(honeycomb):
    return diffraction_polynomial(honeycomb, difference_lattice(honeycomb))


@pytest.fixture
def w_cheb(chebyshev):
    return diffraction_polynomial(chebyshev, difference_lattice(chebyshev))


def random_point_set(rng: random.Random, dimension=None) -> WeightedPointSet:
    """Small full-rank point set with distinct points; used for seeded
    property sweeps."""
    n = dimension or rng.choice([1, 2])
    while True:
        npts = rng.randint(2, 4)
        pts = set()
        while len(pts) < npts:
            pts.add(tuple(rng.randint(-2, 2) for _ in range(n)))
        ps = WeightedPointSet(
            n, tuple((p, rng.randint(1, 3)) for p in sorted(pts))
        )
        try:
            difference_lattice(ps)
        except Exception:
            continue
        return ps
