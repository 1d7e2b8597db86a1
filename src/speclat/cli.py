"""Command-line front end.

    speclat <bn|moments|walks|spectrum|mahler|padic> --config cfg.json
            [--out FILE] [--format json|csv] [--cache-dir DIR] [overrides]
    speclat verify <chebyshev|honeycomb>

The config file carries the point set and one parameter block per
command; command-line flags override scalar parameters.  Results are
deterministic, content-addressed by a hash of the effective config, and
cached as JSON when a cache directory is given.  Big integers are
serialized as decimal strings.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string

from .analysis import (
    MAHLER_METHODS,
    diffraction_field,
    empirical_cdf,
    hilbert_transform,
    mahler_measure,
    spectrum,
)
from .arith import valuation_inequality_check
from .catalog import BUILTIN_POINT_SETS
from .errors import ConfigError, ResourceLimit, SpeclatError
from .graph import based_walk_weight_sum, build_graph, check_walk_cap, walk_series_check
from .lattice import WeightedPointSet, difference_lattice
from .laurent import diffraction_polynomial
from .moments import (
    check_congruence,
    moment_sequence,
    moment_sequence_N,
    product_exponents,
    series_coefficients,
)
from .primes import is_prime
from .specpoly import (
    DEFAULT_SIZE_LIMIT,
    divides,
    evaluate_at_integer,
    integer_root_multiplicity,
    spectral_polynomial,
)
from .verify import run_suite

SCHEMA = "speclat-result/1"

COMMANDS = ("bn", "moments", "walks", "spectrum", "mahler", "padic")

# scalar parameters a flag may override, per command
OVERRIDABLE = {
    "bn": {"N": int, "size_limit": int},
    "moments": {"k_max": int},
    "walks": {"N": int, "k_max": int, "series_z": int, "series_K": int},
    "spectrum": {"N": int, "grid": int, "tolerance": float},
    "mahler": {"z": float, "tol": float, "resolution": int},
    "padic": {"p": int, "nu": int},
}

DEFAULTS = {
    "bn": {"N": 1, "size_limit": DEFAULT_SIZE_LIMIT, "levels": [], "divisor_checks": [], "evaluate_at": []},
    "moments": {"k_max": 8, "levels": [], "congruences": [], "series": True},
    "walks": {"N": 2, "k_max": 3, "series_z": None, "series_K": 3, "export_graph": False},
    "spectrum": {"N": 4, "grid": None, "cdf_at": [], "tolerance": None},
    "mahler": {"z": None, "methods": list(MAHLER_METHODS),
               "tol": 1e-3, "resolution": 128, "hilbert": True, "hilbert_tol": 1e-10},
    "padic": {"p": None, "nu": 1, "z_values": None},
}

# least allowed value of integer parameters, per command; padic's p must be prime
MINIMA = {"bn": {"N": 1}, "moments": {"k_max": 0}, "walks": {"N": 1, "k_max": 0, "series_K": 0},
          "spectrum": {"N": 1}, "padic": {"p": 2, "nu": 1}}


def _check_ranges(command: str, params: dict, ps: WeightedPointSet):
    if command == "padic" and params["p"] is None:
        raise ConfigError("padic requires a prime p")
    if command == "mahler":
        methods = params["methods"]
        if not isinstance(methods, list) or any(m not in MAHLER_METHODS for m in methods):
            raise ConfigError(
                f"mahler methods must be a list of {list(MAHLER_METHODS)}, got {methods!r}"
            )
        if params["z"] is not None:
            try:
                z = abs(float(params["z"]))
            except (TypeError, ValueError):
                raise ConfigError(f"mahler z must be a number, got {params['z']!r}") from None
            # the moment series converge only outside the spectrum [0, C^2]
            C2 = ps.total_weight**2
            if ("moment-series" in methods or params["hilbert"]) and z <= C2:
                raise ConfigError(
                    f"mahler moment-series and hilbert need |z| > total_weight^2 = {C2}, "
                    f"got z = {params['z']}"
                )
    if command == "walks" and params["series_z"] is not None:
        # the log expansion the walks are checked against converges only above the spectrum
        C2 = ps.total_weight**2
        try:
            above = int(params["series_z"]) > C2
        except (TypeError, ValueError):
            above = False
        if not above:
            raise ConfigError(
                f"walks series_z must be an integer > total_weight^2 = {C2}, "
                f"got {params['series_z']!r}"
            )
    for key, least in MINIMA.get(command, {}).items():
        try:
            value = int(params[key])
        except (TypeError, ValueError):
            raise ConfigError(f"{command} {key} must be an integer, got {params[key]!r}") from None
        if value < least:
            raise ConfigError(f"{command} {key} must be >= {least}, got {value}")
        if key == "p" and not is_prime(value):
            raise ConfigError(f"padic p must be a prime, got {value}")


@dataclass(frozen=True)
class JobConfig:
    """One validated job: point set, command, effective parameters, output
    options.  Construction validates the point set and rejects unknown
    parameters, so dispatch never sees a malformed job."""

    point_set: WeightedPointSet
    command: str
    params: dict
    fmt: str = "json"
    cache_dir: str | None = None
    out: str | None = None

    @staticmethod
    def from_file(path: str, command: str, overrides: dict, args) -> "JobConfig":
        with open(path) as fh:
            cfg = json.load(fh)
        try:
            dim = cfg["dimension"]
            points = tuple((tuple(p["a"]), p.get("c", 1)) for p in cfg["points"])
            ps = WeightedPointSet(dim, points)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid point set: {exc}") from exc
        params = dict(DEFAULTS[command])
        block = cfg.get(command, {})
        if not isinstance(block, dict):
            raise ConfigError(f"config block {command!r} must be an object")
        unknown = set(block) - set(params)
        if unknown:
            raise ConfigError(f"unknown {command} parameters: {sorted(unknown)}")
        params.update(block)
        for key, value in overrides.items():
            if value is not None:
                params[key] = value
        _check_ranges(command, params, ps)
        return JobConfig(
            ps, command, params, fmt=args.format, cache_dir=args.cache_dir, out=args.out
        )

    def hash(self) -> str:
        canonical = json.dumps(
            {
                "points": {
                    "dimension": self.point_set.dimension,
                    "points": [[list(a), c] for a, c in self.point_set.points],
                },
                "command": self.command,
                "params": self.params,
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:32]


@dataclass(frozen=True)
class ResultRecord:
    """Versioned, content-addressed result; round-trips losslessly through
    JSON (big integers travel as decimal strings inside the payload)."""

    command: str
    config_hash: str
    payload: dict
    schema: str = SCHEMA

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "command": self.command,
            "config_hash": self.config_hash,
            "payload": self.payload,
        }

    @staticmethod
    def from_dict(d: dict) -> "ResultRecord":
        return ResultRecord(
            command=d["command"],
            config_hash=d["config_hash"],
            payload=d["payload"],
            schema=d["schema"],
        )


# -- payload builders -----------------------------------------------------------


def _run_bn(ps: WeightedPointSet, params: dict) -> dict:
    N = int(params["N"])
    poly = spectral_polynomial(ps, N, size_limit=int(params["size_limit"]))
    payload = {
        "N": N,
        "degree": poly.degree,
        "coefficients": [str(c) for c in poly.coefficients],
        "level_multiplicities": {
            str(r): integer_root_multiplicity(poly, int(r)) for r in params["levels"]
        },
        "divisor_checks": [],
        "evaluations": [],
    }
    for np_, n_ in params["divisor_checks"]:
        payload["divisor_checks"].append(
            {
                "divisor_level": np_,
                "level": n_,
                "divides": divides(
                    spectral_polynomial(ps, int(np_), size_limit=int(params["size_limit"])),
                    spectral_polynomial(ps, int(n_), size_limit=int(params["size_limit"])),
                ),
            }
        )
    for z in params["evaluate_at"]:
        payload["evaluations"].append({"z": int(z), "value": str(evaluate_at_integer(poly, int(z)))})
    return payload


def _run_moments(ps: WeightedPointSet, params: dict) -> dict:
    K = int(params["k_max"])
    w = diffraction_polynomial(ps, difference_lattice(ps))
    seq = moment_sequence(w, K)
    payload = {
        "k_max": K,
        "moments": [str(v) for v in seq.values],
        "level_moments": {
            str(N): [str(v) for v in moment_sequence_N(w, K, int(N)).values]
            for N in params["levels"]
        },
        "congruences": [
            {"p": p, "k": k, "alpha": a, "holds": check_congruence(w, int(p), int(k), int(a))}
            for p, k, a in params["congruences"]
        ],
    }
    if params["series"]:
        payload["series_coefficients"] = [str(a) for a in series_coefficients(seq)]
        payload["product_exponents"] = [str(b) for b in product_exponents(seq)]
    return payload


def _run_walks(ps: WeightedPointSet, params: dict) -> dict:
    N, kmax = int(params["N"]), int(params["k_max"])
    # the job's longest enumeration, over (points)^2 type pairs, before any work
    kmost = max(kmax, int(params["series_K"]) if params["series_z"] is not None else 0)
    check_walk_cap(len(ps.points) ** 2, kmost)
    G = build_graph(ps, difference_lattice(ps), N)
    totals = {k: based_walk_weight_sum(G, k) for k in range(1, kmax + 1)}
    payload = {
        "N": N,
        "k_max": kmax,
        "walk_totals": [str(totals[k]) for k in range(1, kmax + 1)],
        "per_class": [str(Fraction(totals[k], k)) for k in range(1, kmax + 1)],
    }
    if params["series_z"] is not None:
        payload["series_check"] = {
            "z": int(params["series_z"]),
            "K": int(params["series_K"]),
            "ok": walk_series_check(ps, N, int(params["series_z"]), int(params["series_K"])),
        }
    if params["export_graph"]:
        payload["graph"] = G.adjacency()
    return payload


def _run_spectrum(ps: WeightedPointSet, params: dict) -> dict:
    N = int(params["N"])
    hist = spectrum(ps, N, tolerance=params["tolerance"])
    payload = {
        "N": N,
        "levels": [[v, m] for v, m in hist.clusters],
        "support": list(hist.support),
        "tolerance": hist.tolerance,
        "min_gap": None if hist.min_gap == float("inf") else hist.min_gap,
        "ambiguous": hist.ambiguous,
        "cdf": [
            {"r": float(r), "value": str(empirical_cdf(hist, float(r)))}
            for r in params["cdf_at"]
        ],
    }
    if params["grid"] is not None:
        m = int(params["grid"])
        grid = diffraction_field(ps, m)
        values = None
        if m**ps.dimension <= 10_000:
            # ravel's C order is the order itertools.product walks the grid in
            values = [
                {"t": list(idx), "value": value}
                for idx, value in zip(
                    itertools.product(range(m), repeat=ps.dimension), grid.ravel().tolist()
                )
            ]
        payload["grid"] = {
            "resolution": m,
            "min": float(grid.min()),
            "max": float(grid.max()),
            "values": values,
        }
    return payload


def _run_mahler(ps: WeightedPointSet, params: dict) -> dict:
    if params["z"] is None:
        raise ConfigError("mahler requires a z value")
    z = params["z"]
    results = {}
    for method in params["methods"]:
        res = mahler_measure(
            ps, z, method=method, tol=float(params["tol"]), resolution=int(params["resolution"])
        )
        results[method] = {"value": res.value, "error": res.error}
    deltas = {}
    methods = list(results)
    for i, a in enumerate(methods):
        for b in methods[i + 1 :]:
            deltas[f"{a}|{b}"] = abs(results[a]["value"] - results[b]["value"])
    payload = {"z": z, "mahler": results, "deltas": deltas}
    if params["hilbert"]:
        hs = hilbert_transform(ps, z, method="moment-series", tol=float(params["hilbert_tol"]))
        ha = hilbert_transform(ps, z, method="spectrum-average", tol=float(params["hilbert_tol"]))
        payload["hilbert"] = {
            "moment-series": [hs.real, hs.imag],
            "spectrum-average": [ha.real, ha.imag],
            "delta": abs(hs - ha),
        }
    return payload


def _run_padic(ps: WeightedPointSet, params: dict) -> dict:
    p, nu = int(params["p"]), int(params["nu"])
    z_values = params["z_values"]
    if z_values is None:
        z_values = list(range(p))
    rows = []
    for z in z_values:
        lhs, rhs, holds = valuation_inequality_check(ps, int(z), p, nu)
        rows.append(
            {
                "z": int(z),
                "valuation": "inf" if lhs == float("inf") else int(lhs),
                "count": rhs,
                "holds": holds,
            }
        )
    return {"p": p, "nu": nu, "rows": rows}


RUNNERS = {
    "bn": _run_bn,
    "moments": _run_moments,
    "walks": _run_walks,
    "spectrum": _run_spectrum,
    "mahler": _run_mahler,
    "padic": _run_padic,
}


# -- CSV flattening ---------------------------------------------------------------


def _csv_rows(command: str, payload: dict):
    if command == "bn":
        yield ("index", "coefficient")
        for i, c in enumerate(payload["coefficients"]):
            yield (i, c)
    elif command == "moments":
        yield ("k", "moment")
        for k, v in enumerate(payload["moments"]):
            yield (k, v)
    elif command == "walks":
        yield ("k", "based_total", "per_class")
        for k, (t, pc) in enumerate(zip(payload["walk_totals"], payload["per_class"]), 1):
            yield (k, t, pc)
    elif command == "spectrum":
        grid = payload.get("grid")
        if grid and grid.get("values"):
            n = len(grid["values"][0]["t"])
            yield tuple(f"t{i}" for i in range(n)) + ("value",)
            for row in grid["values"]:
                yield tuple(row["t"]) + (row["value"],)
        else:
            yield ("level", "multiplicity")
            for v, m in payload["levels"]:
                yield (v, m)
    elif command == "mahler":
        yield ("method", "value", "error")
        for method, res in payload["mahler"].items():
            yield (method, res["value"], res["error"])
    elif command == "padic":
        yield ("z", "valuation", "count", "holds")
        for row in payload["rows"]:
            yield (row["z"], row["valuation"], row["count"], row["holds"])
    elif command == "verify":
        yield ("criterion", "passed", "detail")
        for row in payload["results"]:
            yield (row["criterion"], row["passed"], row["detail"])
    else:  # pragma: no cover
        raise ValueError(command)


# -- record plumbing ---------------------------------------------------------------


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, for
    trees with string keys (any other key raises TypeError).  json has no C
    encoder for indented output, and its pure-Python one is a chain of
    generators; this builds each container's text in one join.  ``pad`` is
    the newline and indentation that ``obj``'s lines continue from."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):  # np.float64 too, written as float.__repr__ writes it
        text = float.__repr__(obj)
        return _JSON_NONFINITE.get(text, text)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, str):
        return _json_string(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_text(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_json_string(k) + ": " + _json_text(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _record_text(record: ResultRecord) -> str:
    return _json_text(record.to_dict()) + "\n"


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cache_path(cache_dir: str, command: str, cfg_hash: str) -> str:
    return os.path.join(cache_dir, f"{command}-{cfg_hash}.json")


def _cached_record(cache_dir: str | None, command: str, cfg_hash: str):
    if not cache_dir:
        return None
    path = _cache_path(cache_dir, command, cfg_hash)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            raw = json.load(fh)
        record = ResultRecord.from_dict(raw)
    except (OSError, json.JSONDecodeError, KeyError):
        return None
    if record.schema != SCHEMA or record.config_hash != cfg_hash:
        return None  # stale or corrupt; recompute
    return record


def _store_record(cache_dir: str | None, record: ResultRecord):
    if not cache_dir:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, record.command, record.config_hash)
    _atomic_write(path, _record_text(record))


def _emit(record: ResultRecord, out: str | None, fmt: str):
    if fmt == "json":
        text = _record_text(record)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in _csv_rows(record.command, record.payload):
            writer.writerow(row)
        text = buf.getvalue()
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


# -- entry point -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speclat",
        description="exact spectral invariants of weighted lattice point sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", default="json", choices=("json", "csv"))
        p.add_argument("--cache-dir", default=None)
        for key, typ in OVERRIDABLE[command].items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=f"ov_{key}", type=typ, default=None)
    v = sub.add_parser("verify")
    v.add_argument("example", choices=sorted(BUILTIN_POINT_SETS))
    v.add_argument("--out", default=None)
    v.add_argument("--format", default="json", choices=("json", "csv"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        results = run_suite(args.example)
        payload = {
            "example": args.example,
            "results": [
                {"criterion": r.criterion, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "passed": all(r.passed for r in results),
        }
        record = ResultRecord("verify", args.example, payload)
        _emit(record, args.out, args.format)
        for r in results:
            print(("PASS " if r.passed else "FAIL ") + r.criterion, file=sys.stderr)
        return 0 if payload["passed"] else 1

    try:
        overrides = {
            key: getattr(args, f"ov_{key}") for key in OVERRIDABLE[args.command]
        }
        job = JobConfig.from_file(args.config, args.command, overrides, args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"speclat: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"speclat: config error: {exc}", file=sys.stderr)
        return 2

    try:
        cfg_hash = job.hash()
        record = _cached_record(job.cache_dir, job.command, cfg_hash)
        if record is None:
            payload = RUNNERS[job.command](job.point_set, job.params)
            record = ResultRecord(job.command, cfg_hash, payload)
            _store_record(job.cache_dir, record)
        _emit(record, job.out, job.fmt)
        return 0
    except ConfigError as exc:
        print(f"speclat: config error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimit as exc:
        print(f"speclat: resource cap: {exc}", file=sys.stderr)
        return 3
    except SpeclatError as exc:
        print(f"speclat: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
