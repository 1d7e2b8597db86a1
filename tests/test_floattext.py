"""The record writer's numpy kernel writes each float as ``float.__repr__``
does (``json.dumps``, for NaN and the infinities), byte for byte."""

import json
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from speclat.table import TABLE_BLOCK
from speclat.floattext import float_texts


def written(values):
    """(the kernel's texts, the values it left to its fallback)."""
    left = []

    def fallback(x):
        left.append(x)
        return json.dumps(x)

    return float_texts(np.array(values, dtype=np.float64), fallback), left


def assert_written(values):
    texts, _ = written(values)
    assert texts == [json.dumps(x) for x in values]


def decimal_and_neighbours(digits, exponent):
    x = float(f"{digits}e{exponent}")
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# values each step of the kernel has an edge at: short decimals and their
# neighbours, powers of two and of ten, and dyadic values whose decimal
# expansion ties two candidates (N + 1/4 past 2^49, N + 1/8 past 10^14)
edges = st.one_of(
    st.builds(decimal_and_neighbours, st.integers(1, 10**17), st.integers(-25, 16)),
    st.builds(lambda e: [2.0**e], st.integers(-1074, 1023)),
    st.builds(decimal_and_neighbours, st.just(1), st.integers(-6, 17)),
    st.builds(lambda n, j: [n / 2**j], st.integers(1, 2**53), st.integers(0, 70)),
    st.builds(lambda j: [0.125 * 10.0**j], st.integers(-5, 17)),
    st.builds(lambda n, q: [n + q / 4], st.integers(2**49, 10**15), st.sampled_from([1, 3])),
    st.builds(lambda n, q: [n + q / 8], st.integers(10**14, 2**47), st.integers(0, 7)),
).map(lambda xs: [x for x in xs if math.isfinite(x)])


@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_floats_written_as_repr(values):
    assert_written(values)


@given(st.lists(edges, min_size=1, max_size=20).map(lambda groups: sum(groups, [])))
def test_edge_values_written_as_repr(values):
    assert_written(values + [-x for x in values])


def test_special_values_go_to_the_fallback():
    specials = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310, 1e300, 1e15, 2.0**-10]
    texts, left = written(specials + [0.5 + 2**-20])
    assert texts == ["0.0", "-0.0", "NaN", "Infinity", "-Infinity", "5e-324", "1e-310",
                     "1e+300", "1000000000000000.0", "0.0009765625", "0.5000009536743164"]
    assert len(left) == len(specials)  # all but the last


def test_log_uniform_sweep_has_no_mismatch():
    rng = np.random.default_rng(20)
    left = total = 0
    for _ in range(250):  # in the record writer's blocks
        values = (10 ** rng.uniform(-4, 15, TABLE_BLOCK)).tolist()
        texts, fell_back = written(values)
        assert texts == list(map(float.__repr__, values))
        left, total = left + len(fell_back), total + len(values)
    assert total >= 10**6
    print(f"fallback share {left / total:.4f} of {total} values")
