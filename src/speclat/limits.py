"""Each cap's one binding, read by every layer at each check, and the command table's
choices: free of numpy, so the CLI can check a config and serve a cache hit without it."""

DEFAULT_SIZE_LIMIT = 10_000  # torsion characters of an exact b_N or padic level, graph vertices
DEFAULT_FLOAT_CAP = 10**7  # values of a float torus grid, or characters of the exact moments
DEFAULT_SERIES_CAP = 1024  # longest moment list of a series or congruence sweep
DEFAULT_WALK_CAP = 10**8  # type sequences of one walk enumeration
MAX_WALK_LEVEL = 2**62  # a residue plus a folded delta, both below N, stays in int64
FLOAT_OVERFLOW = 2**1024 - 2**970  # the least int that float() overflows on
MAHLER_METHODS = ("limit", "moment-series", "torus-quadrature")
