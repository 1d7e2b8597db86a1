"""``float.__repr__`` of a long column of floats, byte for byte, in numpy.

The record writer's long float columns (a spectrum's levels and grid
values) would otherwise cost one ``float.__repr__`` each, about 1.2 us in
CPython's ``dtoa``.  The kernel finds the shortest round-trip digits as Ryu
does (Adams, PLDI 2018), on the exact product of Dekker's two-product
(Numer. Math. 1971), and hands every case it does not decide to the
caller's per-value writer.
"""

from __future__ import annotations

import numpy as np

MARGIN = 2.0**-30
_P10 = 10.0 ** np.arange(22)  # exact: 10^k = 5^k 2^k with 5^k < 2^53
_SPLIT = 2.0**27 + 1  # Veltkamp's constant for doubles
# the ASCII bytes of 0000..9999, and of each leading digit and ".0 ", as uint32s
_DIGITS4 = np.arange(10_000, dtype=np.uint16)[:, None] // np.uint16([1000, 100, 10, 1]) % 10
_DIGITS4 = (48 + _DIGITS4).astype(np.uint8).view(np.uint32).ravel()
_LEAD = np.frombuffer(b"".join(b"%d.0 " % i for i in range(10)), dtype=np.uint32)
# a row of 20 bytes holds the last 16 digits, the first digit, ".", "0" and " ";
# _LAYOUT[d + 3] lists the bytes that write a point after d digits (-3 <= d <= 15),
# padded to 23 with " "
_FIRST, _DOT, _ZERO, _PAD = 16, 17, 18, 19
_LAYOUT = [
    np.array(row + [_PAD] * (23 - len(row))) for row in (
        [_FIRST, *range(d - 1), _DOT, *range(d - 1, 16)] if d > 0
        else [_ZERO, _DOT, *[_ZERO] * -d, _FIRST, *range(16)]
        for d in range(-3, 16))
]


def _split(a):
    """Veltkamp's split of a into hi + lo, each of at most 26 significant bits."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _scaled(x, k):
    """(F, f) with x 10^k = F + f, F an int64 and 0 <= f < 1: exact once
    x 10^k >= 2^53, where the product's rounded part hi is an integer (below,
    F < 10^16 all the same).  Dekker's two-product gives hi + lo exactly."""
    hi = x * _P10[k]
    (xh, xl), (ph, pl) = _split(x), _split(_P10[k])
    lo = ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl
    whole = np.floor(lo)
    return hi.astype(np.int64) + whole.astype(np.int64), lo - whole


def float_texts(values: np.ndarray, fallback) -> list[str]:
    """``[float.__repr__(x) for x in values]``, of a float64 array, for the
    x the kernel decides, ``fallback(x)`` for the rest.

    It decides x in [1e-4, 1e15) that is not a power of two, whose repr has
    no exponent.  With k <= 20 such that V = x 10^k is in [1e16, 1e17), V's
    nearest multiples of 1000, 100, 10 and 1 are x's 14- to 17-digit
    candidates.  A candidate C round-trips iff |C - V| < g = 10^k 2^(e-54),
    half an ulp of x = m 2^e (0.5 < m < 1) in V's units: x is no power of
    two, so its rounding interval is symmetric, and the nearest n-digit
    decimal round-trips if any does.  As g > 0.55, 17 digits always do.
    repr writes the fewest digits that round-trip, the nearest such: the
    15-, 16- or 17-digit candidate.  Left to ``fallback`` are the x whose
    14-digit candidate round-trips (repr may write fewer digits) and exact
    ties between two 16- or 17-digit candidates (f = 1/2, or f = 0 and F
    ending in 5), which repr breaks by its own rule; tied 14- and 15-digit
    candidates are 500 or 50 from V, past g < 11.2.

    F + f = V and g are exact, and C - F is an integer of at most 500, so
    a gap g - |C - V| is computed within 2^-44 of its true value (within
    2^-49 near 0, where |C - V| < 12).  A computed gap past ``MARGIN`` =
    2^-30 thus has the sign of the true one; a closer one goes to
    ``fallback``.

    The temporaries take about 150 bytes a value, so the record writer
    passes a few thousand values at a time.
    """
    sure = (values >= 1e-4) & (values < 1e15) & (np.frexp(values)[0] != 0.5)  # NaN: False
    x = np.where(sure, values, 1.0)  # the rest go to fallback: any value in range will do
    k = 16 - np.floor(np.log10(x)).astype(np.int64)  # off by one next to 10^j
    F, f = _scaled(x, k)
    low, high = F < 10**16, F >= 10**17
    if low.any() or high.any():
        k += low
        k -= high
        F, f = _scaled(x, k)
    g = np.ldexp(_P10[k], np.frexp(x)[1] - 54)
    sure &= (f != 0.5) & ((f != 0) | (F % 10 != 5))  # no tie
    digits = F + (f > 0.5)  # the nearest integer; round half up, as a tie is left
    shorter = {}  # the nearest multiple of the unit round-trips
    for unit in (10, 100, 1000):
        r = F % unit
        nearest = F - r + unit * (r >= unit // 2)
        gap = g - np.abs((nearest - F) - f)
        sure &= np.abs(gap) > MARGIN
        shorter[unit] = gap > 0
        np.copyto(digits, nearest, where=shorter[unit])
    sure &= ~shorter[1000]
    digits[~sure] = 10**16  # any 17 digits: an undecided one may round to 10^17
    top, bottom = np.divmod(digits, 10**8)
    words = np.empty((len(x), 5), dtype=np.uint32)
    words[:, 0], words[:, 1] = _DIGITS4[top // 10**4 % 10**4], _DIGITS4[top % 10**4]
    words[:, 2], words[:, 3] = _DIGITS4[bottom // 10**4], _DIGITS4[bottom % 10**4]
    words[:, 4] = _LEAD[top // 10**8]
    rows = words.view(np.uint8)
    rows[shorter[10], 15] = 32  # 16 digits: the 17th is padding
    rows[shorter[100] & (k > 2), 14] = 32  # 15: the 16th too, unless it follows a
    # point after all 15 (k = 2): "123456789012345.0"
    text = np.empty((len(x), 23), dtype=np.uint8)
    for kk in np.flatnonzero(np.bincount(k)).tolist():
        at = np.flatnonzero(k == kk)
        text[at] = rows.take(at, axis=0).take(_LAYOUT[20 - kk], axis=1)
    texts = text.tobytes().decode("ascii").split()
    for i in np.flatnonzero(~sure).tolist():
        texts[i] = fallback(values[i])
    return texts
