import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from speclat import limits
from speclat.context import SpectralContext
from speclat.lattice import WeightedPointSet, difference_lattice
from speclat.laurent import diffraction_polynomial

# same examples on every run, no example database, no wall-clock deadline
settings.register_profile("speclat", derandomize=True, database=None, deadline=None)
settings.load_profile("speclat")

# every cap of ``speclat.limits``, and its value under ``small_caps``
SMALL_CAPS = {
    "DEFAULT_SIZE_LIMIT": 200,
    "DEFAULT_FLOAT_CAP": 5000,
    "DEFAULT_SERIES_CAP": 64,
    "DEFAULT_WALK_CAP": 10**4,
}

# the fibres W = z that are not smooth genus-1 curves, and the roots of the moments'
# recurrence with 0: the honeycomb's, and the weighted triangle's (1 +- 2 +- 3)^2 and 0
HONEYCOMB_BAD_FIBRES = (0, 1, 9)
WEIGHTED_TRIANGLE = (((0, 0), 1), ((1, 0), 2), ((0, 1), 3))
WEIGHTED_BAD_FIBRES = (0, 4, 16, 36)


@st.composite
def mostly(draw, common, rare, percent=85):
    """A value from ``common`` ``percent`` times in 100, from ``rare`` otherwise."""
    return draw(common if draw(st.integers(0, 99)) < percent else rare)


@pytest.fixture(scope="module")
def small_caps():
    """Each cap of ``SMALL_CAPS`` patched low in ``speclat.limits``, its one binding,
    so the jobs a fuzz test runs stay small."""
    with pytest.MonkeyPatch.context() as mp:
        for name, cap in SMALL_CAPS.items():
            mp.setattr(limits, name, cap)
        yield mp


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
