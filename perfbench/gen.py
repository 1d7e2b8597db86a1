"""Seeded inputs for the speclat benchmark: point sets and job lists.

Two point-set families are generated from the seed; two are the package's
built-in examples and never change:

* ``weighted`` -- 2-D, 4 points with weights {1, 1, 2, 3} (total 7), like
  {(1,0):1, (0,1):2, (-1,-1):1, (2,2):3};
* ``cube`` -- 3-D, 4 unit-weight points, like {e1, e2, e3, -(e1+e2+e3)};
* ``honeycomb`` and ``chebyshev`` -- the built-in examples.

A generated set is accepted only when it has the same cost factors as its
template: dimension, point count, weight multiset (hence total weight),
index of the difference lattice, largest lattice exponent of the
diffraction polynomial, and the multiset of its coefficients (hence its
number of terms).  Those fix the matrix sizes, the CRT coefficient bound,
the moment torus, the walk count and the number of distinct spectral
levels, so seeds cost the same.  Sets that are rank-deficient or meet their own
difference lattice (no bipartite walk graph) are rejected.

The lattice arithmetic here is the benchmark's own, so the generator does
not import the program: the program only ever sees the config files.
"""

from __future__ import annotations

import json
import os
import random

TEMPLATES = {
    "weighted": (2, [((1, 0), 1), ((0, 1), 2), ((-1, -1), 1), ((2, 2), 3)]),
    "cube": (3, [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((-1, -1, -1), 1)]),
}
BUILTIN = {
    "honeycomb": (2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)]),
    "chebyshev": (1, [((-1,), 1), ((1,), 1)]),
}
BOX = 2  # generated coordinates lie in [-BOX, BOX]
MAX_TRIES = 200_000


def hnf(vectors, n):
    """Canonical Hermite normal form rows of the span (upper triangular,
    positive diagonal, entries above it in (-d/2, d/2]), or None when the
    span has rank < n."""
    work = [list(v) for v in vectors if any(v)]
    basis = []
    for col in range(n):
        live = [r for r in work if r[col]]
        if not live:
            return None
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot, rest = live[0], []
            for r in live[1:]:
                q = r[col] // pivot[col]
                for j in range(col, n):
                    r[j] -= q * pivot[j]
                if r[col]:
                    rest.append(r)
            live = [pivot] + rest
        pivot = live[0]
        if pivot[col] < 0:
            pivot[:] = [-x for x in pivot]
        basis.append(pivot)
        work = [r for r in work if r is not pivot and any(r[col:])]
    for j in range(n):
        d = basis[j][j]
        for i in range(j):
            r = basis[i][j] % d
            if 2 * r > d:
                r -= d
            q = (basis[i][j] - r) // d
            basis[i] = [x - q * y for x, y in zip(basis[i], basis[j])]
    return basis


def lattice_coords(v, basis):
    """Coordinates of v on the triangular basis, or None if v is not in it."""
    lam = []
    for j in range(len(v)):
        s = v[j] - sum(l * basis[i][j] for i, l in enumerate(lam))
        if s % basis[j][j]:
            return None
        lam.append(s // basis[j][j])
    return lam


def cost_factors(n, points):
    """The tuple a generated set must share with its template, or None if
    the set is rank-deficient or meets its difference lattice."""
    vecs = [a for a, _ in points]
    coeffs = {}
    for a, ca in points:
        for b, cb in points:
            d = tuple(x - y for x, y in zip(a, b))
            coeffs[d] = coeffs.get(d, 0) + ca * cb
    diffs = list(coeffs)
    basis = hnf(diffs, n)
    if basis is None or any(lattice_coords(a, basis) is not None for a in vecs):
        return None
    index = 1
    for i in range(n):
        index *= basis[i][i]
    max_exp = max(abs(x) for d in diffs for x in lattice_coords(d, basis))
    weights = tuple(sorted(c for _, c in points))
    return n, len(points), index, max_exp, weights, tuple(sorted(coeffs.values()))


def generate(family, seed):
    """Seeded point set of the family, as a sorted list of (point, weight)."""
    if family in BUILTIN:
        return BUILTIN[family][1]
    n, template = TEMPLATES[family]
    target = cost_factors(n, template)
    rng = random.Random(f"{family}:{seed}")
    for _ in range(MAX_TRIES):
        pts = set()
        while len(pts) < len(template):
            pts.add(tuple(rng.randint(-BOX, BOX) for _ in range(n)))
        weights = [c for _, c in template]
        rng.shuffle(weights)
        cand = list(zip(sorted(pts), weights))
        if cost_factors(n, cand) == target:
            return cand
    raise RuntimeError(f"no {family} set found for seed {seed}")


# -- job lists ------------------------------------------------------------------
#
# A job is (label, point set, command, parameter block, format).  Sizes are
# cut down from the largest cases that fit so that one pass takes about two
# seconds on a 2-core box and a run holds enough passes for steady medians;
# each list has an odd number of jobs so the per-job median falls inside one
# job's samples.  The charpoly cost of a generated set still depends on its
# structure (up to 1.7x between seeds at the same size), so in exact-bn the
# generated sets get the two cheapest jobs: the median and the tail then fall
# on built-in jobs whose cost does not change with the seed.

EXACT_BN = [
    ("bn-honeycomb-8", "honeycomb", "bn",
     {"N": 8, "levels": [0, 1, 3, 4, 9], "divisor_checks": [[4, 8]], "evaluate_at": [53]}),
    ("bn-honeycomb-9", "honeycomb", "bn", {"N": 9}),
    ("bn-weighted-6", "weighted", "bn", {"N": 6}),
    ("bn-cube-3", "cube", "bn", {"N": 3, "divisor_checks": [[1, 3]]}),
    ("padic-honeycomb-11", "honeycomb", "padic", {"p": 11, "z_values": [0, 1]}),
]

MOMENT_SERIES = [
    ("moments-honeycomb-64", "honeycomb", "moments",
     {"k_max": 64, "levels": [4, 6], "congruences": [[2, 1, 2], [3, 1, 1]]}),
    ("moments-weighted-40", "weighted", "moments", {"k_max": 40}),
    ("moments-cube-16", "cube", "moments", {"k_max": 16}),
    ("mahler-series-honeycomb", "honeycomb", "mahler",
     {"z": 10.0, "tol": 3e-2, "methods": ["moment-series"], "hilbert": False}),
    ("mahler-series-weighted", "weighted", "mahler",
     {"z": 60.0, "tol": 1e-2, "methods": ["moment-series"], "hilbert": True, "hilbert_tol": 1e-4}),
]

TORUS_FLOAT = [
    ("spectrum-cube-48", "cube", "spectrum", {"N": 48, "grid": 16, "cdf_at": [4.0]}),
    ("spectrum-honeycomb-384", "honeycomb", "spectrum", {"N": 384, "grid": 64, "cdf_at": [1.0]}),
    ("spectrum-weighted-192", "weighted", "spectrum", {"N": 192, "cdf_at": [10.0]}),
    ("mahler-torus-weighted", "weighted", "mahler",
     {"z": 100.0, "methods": ["limit", "torus-quadrature"], "resolution": 1024, "hilbert": False}),
    ("mahler-torus-cube", "cube", "mahler",
     {"z": 30.0, "methods": ["limit", "torus-quadrature"], "resolution": 64, "hilbert": False}),
    ("walks-honeycomb-3", "honeycomb", "walks", {"N": 3, "k_max": 5, "series_z": 10, "series_K": 4}),
    ("walks-cube-2", "cube", "walks", {"N": 2, "k_max": 4}),
]


def _small_jobs():
    """Short jobs over every command and set, two parameter variants each,
    the first as JSON and the second as CSV."""
    variants = {
        "bn": lambda s: [{"N": 2}, {"N": 3 if s == "cube" else 4}],
        "moments": lambda s: [{"k_max": 4, "levels": [2]}, {"k_max": 6}],
        "walks": lambda s: [{"N": 2, "k_max": 2}, {"N": 2, "k_max": 3 if s != "cube" else 2}],
        "spectrum": lambda s: [{"N": 4}, {"N": 6, "grid": 4}],
        "mahler": lambda s: [
            {"z": 120.0, "methods": ["torus-quadrature"], "resolution": 8, "hilbert": False},
            {"z": 150.0, "methods": ["moment-series"], "tol": 1e-2, "hilbert": False},
        ],
        "padic": lambda s: [{"p": 3}, {"p": 3 if s == "cube" else 5, "z_values": [0, 1]}],
    }
    jobs = []
    for set_name in ("chebyshev", "honeycomb", "weighted", "cube"):
        for command, make in variants.items():
            for i, block in enumerate(make(set_name)):
                fmt = "json" if i == 0 else "csv"
                jobs.append((f"{command}-{set_name}-{i}-{fmt}", set_name, command, block, fmt))
    return jobs


CLI_CACHE = _small_jobs()

WORKLOADS = {
    "exact-bn": [j + ("json",) for j in EXACT_BN],
    "moment-series": [j + ("json",) for j in MOMENT_SERIES],
    "torus-float": [j + ("json",) for j in TORUS_FLOAT],
    "cli-cache": CLI_CACHE,
}


def _config(points, n, command, block):
    return {
        "dimension": n,
        "points": [{"a": list(a), "c": c} for a, c in points],
        command: block,
    }


def write_inputs(workdir, workload, seed):
    """Write one config file per job under workdir and return the manifest
    the child process runs."""
    os.makedirs(workdir, exist_ok=True)
    sets = {name: generate(name, seed) for name in (*BUILTIN, *TEMPLATES)}
    dims = {name: (BUILTIN.get(name) or TEMPLATES[name])[0] for name in sets}
    jobs = []
    for label, set_name, command, block, fmt in WORKLOADS[workload]:
        n = dims[set_name]
        path = os.path.join(workdir, f"{label}.json")
        with open(path, "w") as fh:
            json.dump(_config(sets[set_name], n, command, block), fh)
        jobs.append({
            "label": label,
            "command": command,
            "format": fmt,
            "argv": [command, "--config", path, "--format", fmt],
            "points": [[list(a), c] for a, c in sets[set_name]],
        })
    return {"workload": workload, "seed": seed, "jobs": jobs}
