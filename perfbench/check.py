"""Output checks for the speclat benchmark.

Every job's first output is checked two ways:

* for the default seed, against ``reference.json``: one digest per
  top-level payload key (JSON) or per table (CSV).  Exact leaves -- big
  integers as strings, ints, booleans, structure -- are hashed; floats are
  fingerprinted by count and sum and compared within 1e-7 relative, so a
  reformulated floating-point route does not read as a wrong answer.
  Payload keys the reference lacks are ignored and ``config_hash`` is
  left out, since it is a cache key, not a result;
* for any seed, by the paper's bridges: b_N is monic of degree N^n and the
  divisor checks hold; the Newton power sums p_1..p_m of b_N (m = N^n,
  which fixes every coefficient) equal the power sums of the diffraction
  polynomial over the N-torsion characters, that is N^n times the level-N
  moments; closed-walk totals equal the same sums;
  congruences, valuation inequalities and the walk/log series hold; float
  results lie where the theory puts them.

The character power sums are computed here, by folding the diffraction
polynomial's exponents (lattice coordinates from ``gen.py``) mod N and
convolving on the N^n torus, independently of the program.

Later outputs of the same job must be byte-identical to the first.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from collections import defaultdict

from gen import hnf, lattice_coords

DEFAULT_SEED = 0
_INT = re.compile(r"-?\d+\Z")
_EXACT_WORDS = {"True", "False", "inf", "None", ""}


def _split(value, floats):
    """Skeleton of a JSON value with floats replaced by a marker."""
    if isinstance(value, float):
        floats.append(value)
        return "<f>"
    if isinstance(value, dict):
        return {k: _split(v, floats) for k, v in value.items()}
    if isinstance(value, list):
        return [_split(v, floats) for v in value]
    return value


def _csv_skeleton(text, floats):
    rows = []
    for row in csv.reader(io.StringIO(text)):
        out = []
        for cell in row:
            if _INT.match(cell) or cell in _EXACT_WORDS or not _is_float(cell):
                out.append(cell)
            else:
                floats.append(float(cell))
                out.append("<f>")
        rows.append(out)
    return rows


def _is_float(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _digest(skeleton, floats):
    text = json.dumps(skeleton, sort_keys=True, separators=(",", ":"))
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest()[:24],
        "floats": len(floats),
        "sum": math.fsum(floats),
        "abs_sum": math.fsum(abs(x) for x in floats),
    }


def digests(fmt, text):
    """Digest per payload key (JSON) or of the whole table (CSV)."""
    if fmt == "csv":
        floats = []
        return {"csv": _digest(_csv_skeleton(text, floats), floats)}
    out = {}
    record = json.loads(text)
    for key, value in record["payload"].items():
        floats = []
        out[f"payload.{key}"] = _digest(_split(value, floats), floats)
    for key in ("schema", "command"):
        out[key] = _digest(record[key], [])
    return out


def compare_digests(actual, reference):
    """Problems found comparing digests with the reference (empty if none)."""
    problems = []
    for key, ref in reference.items():
        got = actual.get(key)
        if got is None:
            problems.append(f"{key}: missing")
            continue
        if got["sha256"] != ref["sha256"] or got["floats"] != ref["floats"]:
            problems.append(f"{key}: exact content differs")
        elif abs(got["sum"] - ref["sum"]) > 1e-7 * ref["abs_sum"] + 1e-12:
            problems.append(f"{key}: float sum {got['sum']!r} != {ref['sum']!r}")
    return problems


# -- bridges ----------------------------------------------------------------------


def _power_sums(coefficients, K):
    """Newton power sums p_1..p_K of the roots of a monic polynomial given
    low degree first."""
    m = len(coefficients) - 1
    a = [coefficients[m - i] if i <= m else 0 for i in range(K + 1)]
    p = []
    for k in range(1, K + 1):
        p.append(-sum(a[i] * p[k - i - 1] for i in range(1, k)) - k * a[k])
    return p


def character_power_sums(points, N, K):
    """sum over the N-torsion characters chi of W(chi)^k, for k = 1..K."""
    n = len(points[0][0])
    pairs = [([x - y for x, y in zip(a, b)], ca * cb) for a, ca in points for b, cb in points]
    basis = hnf([d for d, _ in pairs], n)
    kernel = defaultdict(int)
    for d, c in pairs:
        kernel[tuple(x % N for x in lattice_coords(d, basis))] += c
    zero = (0,) * n
    acc, sums = {zero: 1}, []
    for _ in range(K):
        nxt = defaultdict(int)
        for e, c in acc.items():
            for f, d in kernel.items():
                nxt[tuple((x + y) % N for x, y in zip(e, f))] += c * d
        acc = nxt
        sums.append(N**n * acc.get(zero, 0))
    return sums


def bridge_problems(job, text):
    """Problems found checking one record against the theory."""
    if job["format"] != "json":
        return _csv_problems(text)
    payload = json.loads(text)["payload"]
    points = job["points"]
    C2 = sum(c for _, c in points) ** 2
    check = {
        "bn": _bn_problems,
        "moments": _moments_problems,
        "walks": _walks_problems,
        "spectrum": _spectrum_problems,
        "mahler": _mahler_problems,
        "padic": _padic_problems,
    }[job["command"]]
    return check(payload, points, C2)


def _csv_problems(text):
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
        return ["csv: ragged or empty table"]
    return []


def _bn_problems(payload, points, C2):
    problems = []
    N, n = payload["N"], len(points[0][0])
    coeffs = [int(c) for c in payload["coefficients"]]
    if payload["degree"] != N**n or len(coeffs) != N**n + 1 or coeffs[-1] != 1:
        problems.append(f"b_{N} is not monic of degree {N**n}")
    if not all(d["divides"] for d in payload["divisor_checks"]):
        problems.append("a divisor check failed")
    if sum(payload["level_multiplicities"].values()) > N**n:
        problems.append("root multiplicities exceed the degree")
    if _power_sums(coeffs, N**n) != character_power_sums(points, N, N**n):
        problems.append(f"power sums of b_{N} differ from the character power sums")
    return problems


def _moments_problems(payload, points, C2):
    problems = []
    moments = [int(v) for v in payload["moments"]]
    if moments[0] != 1 or any(not 0 <= v <= C2**k for k, v in enumerate(moments)):
        problems.append("moments outside [0, C^2k]")
    for level, seq in payload["level_moments"].items():
        if int(seq[0]) != 1:
            problems.append(f"level {level} moments do not start at 1")
    if not all(c["holds"] for c in payload["congruences"]):
        problems.append("a congruence failed")
    return problems


def _walks_problems(payload, points, C2):
    problems = []
    N = payload["N"]
    totals = [int(t) for t in payload["walk_totals"]]
    if totals != character_power_sums(points, N, len(totals)):
        problems.append("walk totals differ from the character power sums")
    if "series_check" in payload and not payload["series_check"]["ok"]:
        problems.append("walk/log series check failed")
    return problems


def _spectrum_problems(payload, points, C2):
    problems = []
    N, n = payload["N"], len(points[0][0])
    if sum(m for _, m in payload["levels"]) != N**n:
        problems.append("level multiplicities do not sum to N^n")
    lo, hi = payload["support"]
    if lo < -1e-9 * C2 or abs(hi - C2) > 1e-9 * C2:
        problems.append(f"support [{lo}, {hi}] is not inside [0, {C2}] with top {C2}")
    grid = payload.get("grid")
    if grid and (grid["min"] < -1e-9 * C2 or grid["max"] > C2 * (1 + 1e-9)):
        problems.append("grid values outside [0, C^2]")
    return problems


def _mahler_problems(payload, points, C2):
    problems = []
    z = payload["z"]
    # exp(-mean log|z - W|) with W in [0, C^2] and z above it
    lo, hi = 1 / z, 1 / (z - C2)
    for method, res in payload["mahler"].items():
        value = res["value"]
        if not lo * (1 - 1e-6) <= value <= hi * (1 + 1e-6):
            problems.append(f"{method} value {value} outside [1/z, 1/(z - C^2)]")
    if any(d > 1e-2 for d in payload["deltas"].values()):
        problems.append("Mahler routes disagree")
    if "hilbert" in payload and payload["hilbert"]["delta"] > 1e-3:
        problems.append("Hilbert routes disagree")
    return problems


def _padic_problems(payload, points, C2):
    if not all(row["holds"] for row in payload["rows"]):
        return ["a valuation inequality failed"]
    return []
