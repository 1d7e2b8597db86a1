"""sha256 digests of CLI records, for byte-identity checks across versions.

    PYTHONPATH=src python3 scripts/record_digests.py > tests/record_digests.txt

Runs ``speclat.cli.main`` in process on

* the README example config: every command it configures (``bn``,
  ``moments``, ``walks``, ``spectrum``, ``mahler`` and ``padic``), each as
  JSON and as CSV, and ``walks`` with ``export_graph`` on;
* ``verify`` on each built-in example, as JSON and as CSV;
* every benchmark workload's jobs (``perfbench/gen.py``) for seeds 0, 1 and 2:
  ``exact-bn`` (big-integer coefficient strings), ``moment-series`` (moment
  lists), ``torus-float`` (spectra and grids) and ``cli-cache`` (every command,
  as JSON and as CSV), each run cold and then warm on an empty cache
  directory;
* larger jobs than the workloads hold (``LARGE_JOBS``): honeycomb ``bn`` at
  N = 20 with ``levels`` and a divisor check, honeycomb ``padic`` at p = 31
  over every residue and at p = 11 at two pairs of large z (both read in
  one p-adic pass over the class rows; their labels, ``-values`` and
  ``-horner``, name evaluation routes of earlier versions and are kept so
  that digests compare across versions), ``padic`` over the 9-element field on
  the generated weighted set of each seed, chebyshev ``padic`` over the
  81-element field and honeycomb ``padic`` over the 64-element field, each
  at small and large z, chebyshev ``padic`` over the fields of 2^13 and
  2063 elements, whose N = 8191 and 2062 = 2 * 1031 have a prime factor
  past trial division, ``mahler`` torus quadrature at
  the odd resolution 255 on that set, at 2048, 1022, 4 and 2 on the
  honeycomb, at 100 and 2 on the generated cube and at 2^17 + 6 on chebyshev
  (torus means whose leaves of 2^16 values split rows and grids of no
  power-of-two size), a ``mahler`` job on the 3-D simplex whose Hilbert
  ``spectrum-average`` ladder climbs to 64^3 characters, ``spectrum`` at
  N = 64 on the generated cube, and
  honeycomb ``mahler`` by a ``limit`` ladder of six rungs, by every
  method with ``hilbert`` on, by a spectrum-average ladder that climbs past
  the ``limit`` ladder, and two that fail: ``SpectrumProximity`` next to
  the top level and ``SizeLimit`` from a ``limit`` ladder at the float cap;
  and the largest tables a record lists:
  honeycomb ``spectrum`` at N = 100 with a grid of 100^2 = 10^4 values,
  the largest grid listed, chebyshev ``spectrum`` at N = 4096 and a
  ``spectrum`` at N = 64 with a grid of 32^2 on the honeycomb's shape with
  weights 10^5, 2 * 10^5 and 3 * 10^5 (long float columns, written by the
  record writer's numpy kernel, of values the benchmark does not reach),
  honeycomb ``walks`` with ``export_graph`` at
  N = 100, the most vertices exported, and chebyshev ``padic`` at
  p = 9973 over every residue and at two z that are W(chi) mod 9973^2,
  one of them huge, whose lift ladder stops early, and at a z whose lift
  precision (K = 255,097) only logarithms size; ``moments`` past the
  benchmark's sizes (honeycomb to k = 200 with levels up to 60 and three
  congruences, the generated cube to k = 30 at level 5, chebyshev to
  k = 400 at levels 7 and 401), a weighted moment-series ``mahler`` with ``hilbert``, a
  ``moments`` level past the float cap, and a honeycomb ``bn`` divisor
  check and ``walks`` series check at a level past the b_N cap (these three
  exit 3); honeycomb ``walks`` series checks past ``k_max`` and with no walk
  lengths; honeycomb ``spectrum`` with a grid past the float cap, and
  ``mahler`` with a Hilbert series past the series cap and with a
  quadrature resolution past the float cap (these three exit 3); honeycomb
  ``mahler`` series whose tolerance times its scale leaves float range:
  a Mahler and a Hilbert tolerance of 5e-324 (the product underflows; both
  exit 3) and a Hilbert tolerance of 1e308 at z = 1e308 (it overflows); honeycomb
  ``bn`` at N = 20 with a repeated level and levels of 1001 digits, and
  ``mahler`` with a repeated method; ``bn`` on the generated weighted set at
  N = 12 (character classes of sizes 1 and 2 only) and on the generated cube
  at N = 6 (seven class sizes), honeycomb ``bn`` at N = 30 with
  ``levels``, ``evaluate_at`` and a divisor check, and ``bn`` on the
  generated weighted set at N = 20 with ``evaluate_at`` at -1 and 0 and a
  true and a false divisor check, its coefficient slots sized from
  |b_20(-1)|, and at N = 24, whose g_j lift over 27 split moduli, and
  honeycomb ``bn`` at N = 12 and chebyshev ``bn`` at N = 60 with divisor
  checks that end at each step of the packed division (a divisor past
  |b_N(-1)|, a nonzero remainder, a true check), ``moments`` congruence
  sweeps on the 3-D simplex to
  h = 128, the last power of two under the float cap, and to h = 256,
  past it (exit 3), and ``moments`` on {0, 1, 2000} to k = 1000, whose
  split primes run out (exit 3), ``moments`` on {0, 1} with weights 2^2000
  at level 625000, whose split moduli run out (exit 3, planned before the
  exact moments), and ``mahler`` on the 6-D simplex with ``limit`` and
  ``hilbert``, whose ladders have no rung within the float cap (exit 3,
  planned before the moment series)
  (built-in and fixed sets run once);
* jobs in fresh interpreters (``FRESH_JOBS``, run as ``python -m
  speclat.cli``), the only way to reach the paths that serve a job before
  numpy is loaded: a warm cache hit of honeycomb ``bn`` as JSON and as CSV,
  a config error, and honeycomb ``padic`` over every residue of the prime
  2^61 - 1, past the cap (each run cold, then warm, on one cache directory);

and prints one ``label digest`` line per record, digested with its exit
code and its stderr, so error messages are compared too.

The output is pinned in ``tests/record_digests.txt``, and
``tests/test_record_digests.py`` fails on any changed, missing or extra
line.  Re-pin with the command above only in a change that means to change
a record, or that changes a benchmark job (``perfbench/gen.py``), and say so
in CHANGES.md.  A new job adds its label with its digest in the change that
adds it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402  (perfbench/gen.py)
from speclat import cli  # noqa: E402
from speclat.catalog import BUILTIN_POINT_SETS  # noqa: E402

README_COMMANDS = ("bn", "moments", "walks", "spectrum", "mahler", "padic")
SEEDS = (0, 1, 2)
BENCH_WORKLOADS = tuple(gen.WORKLOADS)
LARGE_JOBS = (
    ("bn-honeycomb-20", "honeycomb", "bn",
     {"N": 20, "levels": [0, 1, 3, 4, 9], "divisor_checks": [[10, 20]]}),
    ("padic-honeycomb-31", "honeycomb", "padic", {"p": 31}),
    ("padic-weighted-3-2", "weighted", "padic", {"p": 3, "nu": 2}),
    # large z, read in one p-adic pass; the labels are kept from earlier versions
    # that evaluated b_10 by point values or by Horner, so digests stay comparable
    ("padic-honeycomb-11-values", "honeycomb", "padic", {"p": 11, "z_values": [10**4, -(10**4)]}),
    ("padic-honeycomb-11-horner", "honeycomb", "padic", {"p": 11, "z_values": [53, 10**6]}),
    # the Galois ring path: nu > 1 over every residue and at a large z
    ("padic-chebyshev-3-4", "chebyshev", "padic", {"p": 3, "nu": 4, "z_values": [0, 1, 2, 10**6]}),
    ("padic-honeycomb-2-6", "honeycomb", "padic", {"p": 2, "nu": 6, "z_values": [0, 1, 9, 10**6]}),
    # the field modulus and the lift precision factor p^nu - 1: 8191 prime, 2062 = 2 * 1031
    ("padic-chebyshev-2-13", "chebyshev", "padic", {"p": 2, "nu": 13, "z_values": [0, 1, 2, 5, 10**6]}),
    ("padic-chebyshev-2063", "chebyshev", "padic", {"p": 2063, "z_values": [0, 1, 2, 5, 10**6]}),
    # an odd resolution computes the half grid afresh; 2048 runs over many value blocks
    ("mahler-weighted-odd", "weighted", "mahler",
     {"z": 100.0, "methods": ["torus-quadrature"], "resolution": 255, "hilbert": False}),
    ("mahler-honeycomb-2048", "honeycomb", "mahler",
     {"z": 12.0, "methods": ["torus-quadrature"], "resolution": 2048, "hilbert": False}),
    # torus means summed a leaf of 2^16 values at a time: 3-D rows of 10^4 values that
    # cross leaf bounds, a 2-D grid of no power-of-two size, a 1-D grid past two
    # leaves, and a Hilbert ladder whose last rung has 64^3 characters
    ("mahler-cube-100", "cube", "mahler",
     {"z": 100.0, "methods": ["torus-quadrature"], "resolution": 100, "hilbert": False}),
    ("mahler-honeycomb-1022", "honeycomb", "mahler",
     {"z": 12.0, "methods": ["torus-quadrature"], "resolution": 1022, "hilbert": False}),
    ("mahler-chebyshev-131078", "chebyshev", "mahler",
     {"z": 6.0, "methods": ["torus-quadrature"], "resolution": 2**17 + 6, "hilbert": False}),
    ("mahler-simplex3-hilbert-ladder", "simplex3", "mahler",
     {"z": 17.0, "methods": ["limit"], "hilbert_tol": 1e-10}),
    ("spectrum-cube-64", "cube", "spectrum", {"N": 64}),
    # inside the spectrum the ladder climbs six rungs, 16 to 512
    ("mahler-honeycomb-limit", "honeycomb", "mahler",
     {"z": 4.1, "methods": ["limit"], "hilbert": False}),
    # every method, and both Hilbert routes
    ("mahler-honeycomb-hilbert", "honeycomb", "mahler", {"z": 12.0, "resolution": 256}),
    # at R = 2 the half grid is the level-1 grid, every other point of the fine one;
    # at R = 4, the level-2 grid
    ("mahler-cube-2", "cube", "mahler",
     {"z": 100.0, "methods": ["torus-quadrature"], "resolution": 2, "hilbert": False}),
    ("mahler-honeycomb-2", "honeycomb", "mahler",
     {"z": 12.0, "methods": ["torus-quadrature"], "resolution": 2, "hilbert": False}),
    ("mahler-honeycomb-4", "honeycomb", "mahler",
     {"z": 12.0, "methods": ["torus-quadrature"], "resolution": 4, "hilbert": False}),
    # errors: z next to the top level 9, and a limit ladder that climbs to the float cap
    ("mahler-honeycomb-proximity", "honeycomb", "mahler",
     {"z": 9 + 1e-9, "methods": ["torus-quadrature", "limit"], "hilbert": False}),
    ("mahler-honeycomb-limit-cap", "honeycomb", "mahler",
     {"z": 4.1, "methods": ["limit"], "tol": 1e-300, "hilbert": False}),
    # the spectrum-average ladder climbs to 64, past the limit ladder's 32
    ("mahler-honeycomb-hilbert-ladder", "honeycomb", "mahler",
     {"z": 9.5, "methods": ["limit"], "hilbert_tol": 1e-5}),
    # tables at their caps: 10^4 grid values, 10^4 vertices per colour, 9973 rows
    ("spectrum-honeycomb-100", "honeycomb", "spectrum", {"N": 100, "grid": 100}),
    # long float columns on both of the record writer's paths: 2047 levels, some
    # of them short or powers of two; levels and grid values of 7 to 12 digits
    # before the point
    ("spectrum-chebyshev-4096", "chebyshev", "spectrum", {"N": 4096}),
    ("spectrum-heavy-64", "heavy", "spectrum", {"N": 64, "grid": 32}),
    ("walks-honeycomb-graph-100", "honeycomb", "walks", {"N": 100, "export_graph": True}),
    ("padic-chebyshev-9973", "chebyshev", "padic", {"p": 9973}),
    # rows equal to z mod p^k0 at a huge z: the Teichmueller ladder stops at its first rung
    ("padic-chebyshev-9973-deep", "chebyshev", "padic",
     {"p": 9973, "z_values": [4 + 9973**2 * 10**50, 4 + 9973**3]}),
    # a lift precision K = 255,097 from logarithms, past any rung the ladder climbs
    ("padic-chebyshev-9973-far", "chebyshev", "padic",
     {"p": 9973, "z_values": [4 + 9973**2 * 10**300]}),
    # moments past the benchmark's sizes: exact, level and congruence lists
    ("moments-honeycomb-200", "honeycomb", "moments",
     {"k_max": 200, "levels": [1, 2, 3, 60], "congruences": [[2, 3, 4], [3, 1, 3], [7, 2, 1]]}),
    ("moments-cube-30", "cube", "moments", {"k_max": 30, "levels": [5]}),
    ("moments-chebyshev-400", "chebyshev", "moments", {"k_max": 400, "levels": [7, 401]}),
    ("mahler-weighted-series-hilbert", "weighted", "mahler",
     {"z": 60.0, "tol": 1e-4, "methods": ["moment-series"], "hilbert": True, "hilbert_tol": 1e-8}),
    # 2000^2 x 5 cells pass the float cap: exit 3 before any work
    ("moments-honeycomb-levels-cap", "honeycomb", "moments", {"k_max": 10, "levels": [2000]}),
    # a divisor check's level, and a walk series' level, past the b_N cap: exit 3
    ("bn-honeycomb-divisor-cap", "honeycomb", "bn", {"N": 40, "divisor_checks": [[1, 101]]}),
    ("walks-honeycomb-series-cap", "honeycomb", "walks", {"N": 101, "series_z": 10}),
    # a walk series read past k_max, and one with no walk lengths at all
    ("walks-honeycomb-series-past-k", "honeycomb", "walks",
     {"N": 3, "k_max": 2, "series_z": 10, "series_K": 5}),
    ("walks-honeycomb-series-empty", "honeycomb", "walks",
     {"N": 3, "k_max": 0, "series_z": 10, "series_K": 0}),
    ("walks-honeycomb-series-60", "honeycomb", "walks",
     {"N": 60, "k_max": 1, "series_z": 10, "series_K": 3}),
    # every vertex and edge end in the coordinates of a Hermite basis with entries above
    # its diagonal, on more points than the dimension plus one
    ("walks-fcc-graph-4", "fcc", "walks", {"N": 4, "k_max": 2, "export_graph": True}),
    # float grids and moment series past their caps: exit 3
    ("spectrum-honeycomb-grid-cap", "honeycomb", "spectrum", {"N": 3000, "grid": 4000}),
    ("mahler-honeycomb-series-cap", "honeycomb", "mahler",
     {"z": 9.02, "methods": ["limit", "torus-quadrature"], "resolution": 3000,
      "hilbert_tol": 1e-10}),
    ("mahler-honeycomb-resolution-cap", "honeycomb", "mahler",
     {"z": 12.0, "methods": ["limit", "torus-quadrature"], "resolution": 5000}),
    # a series tolerance times its scale past float range: K from the factors' logs
    ("mahler-honeycomb-tol-underflow", "honeycomb", "mahler",
     {"z": 10.0, "methods": ["moment-series"], "tol": 5e-324, "hilbert": False}),
    ("mahler-honeycomb-hilbert-tol-underflow", "honeycomb", "mahler",
     {"z": 9.5, "methods": ["limit"], "hilbert_tol": 5e-324}),
    ("mahler-honeycomb-hilbert-tol-overflow", "honeycomb", "mahler",
     {"z": 1e308, "methods": ["limit"], "hilbert_tol": 1e308}),
    # repeated values, each keyed once in the record, and levels that cannot be roots
    ("bn-honeycomb-20-repeats", "honeycomb", "bn",
     {"N": 20, "levels": [0, 1, 9, 9, 10**1000, -(10**1000)]}),
    ("mahler-honeycomb-repeats", "honeycomb", "mahler",
     {"z": 12.0, "methods": ["limit", "limit", "moment-series"], "hilbert": False}),
    # b_N = prod_j g_j**j over the class sizes j: sizes 1 and 2 only, seven sizes,
    # and every reader of the g_j at a level past the benchmark's
    ("bn-weighted-12", "weighted", "bn", {"N": 12}),
    ("bn-cube-6", "cube", "bn", {"N": 6}),
    ("bn-honeycomb-30", "honeycomb", "bn",
     {"N": 30, "levels": [0, 1, 3, 4, 9], "divisor_checks": [[10, 30]],
      "evaluate_at": [0, 53, -(10**6), 10**100]}),
    # coefficient slots sized from |b_N(-1)| on a weighted set past the benchmark's
    ("bn-weighted-20", "weighted", "bn",
     {"N": 20, "evaluate_at": [-1, 0], "divisor_checks": [[4, 20], [3, 20]]}),
    # divisor checks that end at each step of the packed division: a divisor whose
    # |b_d(-1)| passes |b_N(-1)|, a nonzero remainder, and a true check
    ("bn-honeycomb-12-divisors", "honeycomb", "bn",
     {"N": 12, "divisor_checks": [[24, 12], [5, 12], [6, 12]]}),
    ("bn-chebyshev-60-divisors", "chebyshev", "bn",
     {"N": 60, "divisor_checks": [[30, 60], [7, 60], [120, 60]]}),
    # a g_j lifted over 27 split moduli from 2^62
    ("bn-weighted-24", "weighted", "bn", {"N": 24}),
    # a congruence sweep to h = 2^7 on the 3-D simplex, 129^3 cells under the float
    # cap, and one to h = 2^8, past it at 257^3 cells: exit 3 before any work
    ("moments-simplex3-sweep-128", "simplex3", "moments",
     {"k_max": 2, "congruences": [[2, 1, 6]], "series": False}),
    ("moments-simplex3-sweep-cap", "simplex3", "moments",
     {"k_max": 2, "congruences": [[2, 1, 7]], "series": False}),
    # the split moduli 1 mod 2000001 below 2^31 run out before the moments' modulus: exit 3
    ("moments-line2000-primes-cap", "line2000", "moments", {"k_max": 1000, "series": False}),
    # the level's split moduli run out, found in the plan before the exact moments: exit 3
    ("moments-heavy-line-levels-primes-cap", "heavy-line", "moments",
     {"k_max": 32, "levels": [625000], "series": False}),
    # 16^6 characters: no rung of the limit ladder within the float cap, refused in the
    # plan before the moment series reads m_0..m_11: exit 3
    ("mahler-simplex6-ladder-cap", "simplex6", "mahler",
     {"z": 130, "methods": ["moment-series", "limit"], "hilbert": True, "hilbert_tol": 1e-6}),
)
# six points of odd coordinate sum: their differences span the face-centred cubic
# lattice, Hermite basis (1, 0, 1), (0, 1, 1), (0, 0, 2); the 3-D simplex, whose W
# has tight reach 1 on every axis; {0, 1, 2000}, whose W has reach 2000; and the
# honeycomb's shape with weights 10^5 to 3 * 10^5, whose W takes values up to 10^11;
# {0, 1} with both weights 2^2000; and the 6-D simplex, whose first ladder rung has
# 16^6 characters
FIXED_SETS = {
    "fcc": (3, [((1, 0, 0), 1), ((0, 1, 0), 2), ((0, 0, 1), 1), ((1, 1, 1), 3),
                ((2, -1, 0), 1), ((0, 2, -1), 2)]),
    "simplex3": (3, [((0, 0, 0), 1), ((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)]),
    "line2000": (1, [((0,), 1), ((1,), 1), ((2000,), 1)]),
    "heavy": (2, [((1, 0), 100000), ((0, 1), 200000), ((-1, -1), 300000)]),
    "heavy-line": (1, [((0,), 2**2000), ((1,), 2**2000)]),
    "simplex6": (6, [((0,) * 6, 1), *(((*(int(i == j) for j in range(6)),), 1) for i in range(6))]),
}
# (label, command, block, format) of honeycomb jobs, each run in a fresh interpreter
FRESH_JOBS = (
    ("bn-honeycomb-hit-json", "bn", {"N": 6, "levels": [0, 9]}, "json"),
    ("bn-honeycomb-hit-csv", "bn", {"N": 6, "levels": [0, 9]}, "csv"),
    ("bn-config-error", "bn", {"N": 0}, "json"),
    ("padic-honeycomb-every-residue-cap", "padic", {"p": 2**61 - 1}, "json"),
)


def readme_config() -> dict:
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = re.search(r"```json\n(.*?)```", fh.read(), re.S)
    return json.loads(block.group(1))


def record(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"exit={code}\n" + out.getvalue() + "\nstderr:\n" + err.getvalue()


def fresh_record(argv: list[str]) -> str:
    """``record(argv)``, run as ``python -m speclat.cli`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "speclat.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    return f"exit={done.returncode}\n" + done.stdout + "\nstderr:\n" + done.stderr


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    with tempfile.TemporaryDirectory() as work:
        cfg = readme_config()
        cfg_path = os.path.join(work, "readme.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        for command in README_COMMANDS:
            for fmt in ("json", "csv"):
                text = record([command, "--config", cfg_path, "--format", fmt])
                print(f"readme/{command}/{fmt} {digest(text)}")
        cfg["walks"]["export_graph"] = True
        graph_path = os.path.join(work, "readme-graph.json")
        with open(graph_path, "w") as fh:
            json.dump(cfg, fh)
        print(f"readme/walks-graph/json {digest(record(['walks', '--config', graph_path]))}")
        for example in sorted(BUILTIN_POINT_SETS):
            for fmt in ("json", "csv"):
                text = record(["verify", example, "--format", fmt])
                print(f"verify/{example}/{fmt} {digest(text)}")
        for workload in BENCH_WORKLOADS:
            for seed in SEEDS:
                manifest = gen.write_inputs(os.path.join(work, f"{workload}-{seed}"), workload, seed)
                for i, job in enumerate(manifest["jobs"]):
                    cache = os.path.join(work, "cache", f"{workload}-{seed}-{i}")
                    cold = record(job["argv"] + ["--cache-dir", cache])
                    warm = record(job["argv"] + ["--cache-dir", cache])
                    if warm != cold:
                        print(f"{workload}/{seed}/{job['label']} cold and warm records differ")
                        return 1
                    print(f"{workload}/{seed}/{job['label']} {digest(cold)}")
        fixed = {**gen.BUILTIN, **FIXED_SETS}
        for seed in SEEDS:
            for label, set_name, command, block in LARGE_JOBS:
                if set_name in fixed and seed != SEEDS[0]:
                    continue
                n, points = fixed.get(set_name) or (gen.TEMPLATES[set_name][0],
                                                    gen.generate(set_name, seed))
                path = os.path.join(work, f"large-{seed}-{label}.json")
                with open(path, "w") as fh:
                    json.dump(gen._config(points, n, command, block), fh)
                print(f"large/{seed}/{label} {digest(record([command, '--config', path]))}")
        for label, command, block, fmt in FRESH_JOBS:
            path = os.path.join(work, f"fresh-{label}.json")
            with open(path, "w") as fh:
                json.dump(gen._config(gen.generate("honeycomb", 0), 2, command, block), fh)
            cache = os.path.join(work, "cache", f"fresh-{label}")
            argv = [command, "--config", path, "--cache-dir", cache, "--format", fmt]
            cold, warm = fresh_record(argv), fresh_record(argv)
            if warm != cold:
                print(f"fresh/{label} cold and warm records differ")
                return 1
            print(f"fresh/{label} {digest(warm)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
