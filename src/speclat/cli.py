"""Command-line front end.

    speclat <bn|moments|walks|spectrum|mahler|padic> --config cfg.json
            [--out FILE] [--format json|csv] [--cache-dir DIR] [overrides]
    speclat verify <chebyshev|honeycomb>

The config file carries the point set and one parameter block per
command; command-line flags override scalar parameters.  ``COMMANDS`` is
the one table of the commands: for each, its parameters (a kind, a
default and, for a scalar a flag may override, the flag's type), its
runner and its CSV table.  Every parameter is checked against its kind
before the config is hashed and is kept exactly as given, so one job has
one hash.  A job runs on one SpectralContext, which builds the lattice, W
and each b_N once.  Results are deterministic, content-addressed by a
hash of the effective config, and cached as JSON when a cache directory
is given; the cache file name carries ``ALGORITHM``, so no record of a
superseded algorithm is served.  Big integers are serialized as decimal
strings.

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
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string
from typing import Callable, NamedTuple

from .analysis import (
    MAHLER_METHODS,
    diffraction_field,
    empirical_cdf,
    hilbert_transform,
    mahler_measure,
    spectrum,
    sweep_series_moments,
)
from .arith import valuation_inequality_check
from .catalog import BUILTIN_POINT_SETS
from .context import SpectralContext
from .errors import ConfigError, ResourceLimit, SpeclatError
from .graph import based_walk_weight_sum, build_graph, check_walk_cap, walk_series_check
from .lattice import WeightedPointSet, _is_int
from .moments import check_congruence, moment_sequence_N, product_exponents, series_coefficients
from .primes import is_prime
from .specpoly import DEFAULT_SIZE_LIMIT, divides, evaluate_at_integer, integer_root_multiplicity
from .verify import run_suite

SCHEMA = "speclat-result/1"

# Names the algorithms behind the records.  Change it with any change that
# can alter a record: cache entries written under another tag are never read.
ALGORITHM = "alg1"


@dataclass(frozen=True)
class JobConfig:
    """One validated job: point set, command, effective parameters, output
    options.  Construction validates the point set, rejects unknown
    parameters and checks every parameter against its kind, so dispatch
    never sees a malformed job."""

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
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid point set: {exc}") from exc
        spec = COMMANDS[command]
        block = cfg.get(command, {})
        if not isinstance(block, dict):
            raise ConfigError(f"config block {command!r} must be an object")
        unknown = set(block) - set(spec.params)
        if unknown:
            raise ConfigError(f"unknown {command} parameters: {sorted(unknown)}")
        params = {key: param.default for key, param in spec.params.items()}
        params.update(block)
        params.update((key, value) for key, value in overrides.items() if value is not None)
        for key, (kind, default, _) in spec.params.items():
            value = params[key]
            if not kind.ok(value):
                if value is None and default is None:
                    raise ConfigError(f"{command} requires {kind.what} {key}")
                raise ConfigError(f"{command} {key} must be {kind.what}, got {value!r}")
        spec.check(params, ps.total_weight**2)
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


# -- parameter kinds --------------------------------------------------------------


class Kind(NamedTuple):
    """What a parameter value must be: ``ok`` tests it, ``what`` names it."""

    what: str
    ok: Callable[[object], bool]


def _int(least: int) -> Kind:
    return Kind(f"an integer >= {least}", lambda v: _is_int(v) and v >= least)


def _optional(kind: Kind) -> Kind:
    return Kind(f"null or {kind.what}", lambda v: v is None or kind.ok(v))


def _list(kind: Kind) -> Kind:
    return Kind(f"a list, each item {kind.what}",
                lambda v: isinstance(v, list) and all(map(kind.ok, v)))


def _row(*kinds: Kind) -> Kind:
    return Kind(
        f"[{', '.join(k.what for k in kinds)}]",
        lambda v: isinstance(v, list) and len(v) == len(kinds)
        and all(k.ok(x) for k, x in zip(kinds, v)),
    )


INT = Kind("an integer", _is_int)
LEVEL = _int(1)
COUNT = _int(0)
PRIME = Kind("a prime", lambda v: _is_int(v) and is_prime(v))
BOOL = Kind("true or false", lambda v: isinstance(v, bool))
NUMBER = Kind("a finite number", lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v))
POSITIVE = Kind("a number > 0", lambda v: NUMBER.ok(v) and v > 0)
NONNEGATIVE = Kind("a number >= 0", lambda v: NUMBER.ok(v) and v >= 0)
METHODS = Kind(f"a list of {list(MAHLER_METHODS)}",
               lambda v: isinstance(v, list) and all(m in MAHLER_METHODS for m in v))


class Param(NamedTuple):
    """A kind, a default (None with a kind that refuses None: required) and
    the type of the flag that overrides the parameter, if any."""

    kind: Kind
    default: object = None
    flag: type | None = None


# -- payload builders -----------------------------------------------------------


def _run_bn(ctx: SpectralContext, params: dict) -> dict:
    N, size_limit = params["N"], params["size_limit"]
    poly = ctx.spectral_polynomial(N, size_limit)
    return {
        "N": N,
        "degree": poly.degree,
        "coefficients": [str(c) for c in poly.coefficients],
        "level_multiplicities": {
            str(r): integer_root_multiplicity(poly, r) for r in params["levels"]
        },
        "divisor_checks": [
            {
                "divisor_level": d,
                "level": n,
                "divides": divides(
                    ctx.spectral_polynomial(d, size_limit), ctx.spectral_polynomial(n, size_limit)
                ),
            }
            for d, n in params["divisor_checks"]
        ],
        "evaluations": [
            {"z": z, "value": str(evaluate_at_integer(poly, z))} for z in params["evaluate_at"]
        ],
    }


def _run_moments(ctx: SpectralContext, params: dict) -> dict:
    K = params["k_max"]
    seq = ctx.moment_sequence(K)
    payload = {
        "k_max": K,
        "moments": [str(v) for v in seq.values],
        "level_moments": {
            str(N): [str(v) for v in moment_sequence_N(ctx.w, K, N).values]
            for N in params["levels"]
        },
        "congruences": [
            {"p": p, "k": k, "alpha": a, "holds": check_congruence(ctx.w, p, k, a)}
            for p, k, a in params["congruences"]
        ],
    }
    if params["series"]:
        payload["series_coefficients"] = [str(a) for a in series_coefficients(seq)]
        payload["product_exponents"] = [str(b) for b in product_exponents(seq)]
    return payload


def _run_walks(ctx: SpectralContext, params: dict) -> dict:
    N, kmax, z, K = params["N"], params["k_max"], params["series_z"], params["series_K"]
    # the job's longest enumeration, over (points)^2 type pairs, before any work
    check_walk_cap(len(ctx.ps.points) ** 2, max(kmax, K if z is not None else 0))
    G = build_graph(ctx.ps, ctx.basis, N)
    totals = [based_walk_weight_sum(G, k) for k in range(1, kmax + 1)]
    payload = {
        "N": N,
        "k_max": kmax,
        "walk_totals": [str(t) for t in totals],
        "per_class": [str(Fraction(t, k)) for k, t in enumerate(totals, 1)],
    }
    if z is not None:
        payload["series_check"] = {"z": z, "K": K, "ok": walk_series_check(ctx, N, z, K)}
    if params["export_graph"]:
        payload["graph"] = G.adjacency()
    return payload


def _run_spectrum(ctx: SpectralContext, params: dict) -> dict:
    N = params["N"]
    hist = spectrum(ctx, N, tolerance=params["tolerance"])
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
    m = params["grid"]
    if m is not None:
        grid = diffraction_field(ctx, m)
        n = ctx.dimension
        values = None
        if m**n <= 10_000:
            # ravel's C order is the order itertools.product walks the grid in
            values = [
                {"t": list(idx), "value": value}
                for idx, value in zip(itertools.product(range(m), repeat=n), grid.ravel().tolist())
            ]
        payload["grid"] = {
            "resolution": m,
            "min": float(grid.min()),
            "max": float(grid.max()),
            "values": values,
        }
    return payload


def _run_mahler(ctx: SpectralContext, params: dict) -> dict:
    z, methods, tol = params["z"], params["methods"], params["tol"]
    # the two moment series read one sweep, to the longer of them
    sweep_series_moments(
        ctx,
        z,
        tol if "moment-series" in methods else None,
        params["hilbert_tol"] if params["hilbert"] else None,
    )
    results = {}
    for method in methods:
        res = mahler_measure(ctx, z, method=method, tol=tol, resolution=params["resolution"])
        results[method] = {"value": res.value, "error": res.error}
    deltas = {}
    names = list(results)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            deltas[f"{a}|{b}"] = abs(results[a]["value"] - results[b]["value"])
    payload = {"z": z, "mahler": results, "deltas": deltas}
    if params["hilbert"]:
        hs = hilbert_transform(ctx, z, method="moment-series", tol=params["hilbert_tol"])
        ha = hilbert_transform(ctx, z, method="spectrum-average", tol=params["hilbert_tol"])
        payload["hilbert"] = {
            "moment-series": [hs.real, hs.imag],
            "spectrum-average": [ha.real, ha.imag],
            "delta": abs(hs - ha),
        }
    return payload


def _run_padic(ctx: SpectralContext, params: dict) -> dict:
    p, nu, z_values = params["p"], params["nu"], params["z_values"]
    rows = []
    for z in range(p) if z_values is None else z_values:
        lhs, rhs, holds = valuation_inequality_check(ctx, z, p, nu)
        rows.append(
            {"z": z, "valuation": "inf" if lhs == float("inf") else lhs, "count": rhs, "holds": holds}
        )
    return {"p": p, "nu": nu, "rows": rows}


def _spectrum_csv(payload: dict) -> list[tuple]:
    grid = payload.get("grid")
    if grid and grid.get("values"):
        n = len(grid["values"][0]["t"])
        return [
            tuple(f"t{i}" for i in range(n)) + ("value",),
            *(tuple(row["t"]) + (row["value"],) for row in grid["values"]),
        ]
    return [("level", "multiplicity"), *map(tuple, payload["levels"])]


def _dict_rows(field: str, header: tuple) -> Callable[[dict], list[tuple]]:
    """CSV table of the dicts in payload[field], one column per header key."""
    return lambda payload: [header, *(tuple(r[h] for h in header) for r in payload[field])]


_verify_csv = _dict_rows("results", ("criterion", "passed", "detail"))


def _mahler_above_spectrum(params: dict, C2: int):
    # the moment series converge only outside the spectrum [0, C^2]
    if ("moment-series" in params["methods"] or params["hilbert"]) and abs(params["z"]) <= C2:
        raise ConfigError(
            f"mahler moment-series and hilbert need |z| > total_weight^2 = {C2}, "
            f"got z = {params['z']}"
        )


def _walks_above_spectrum(params: dict, C2: int):
    # the log expansion the walks are checked against converges only above the spectrum
    z = params["series_z"]
    if z is not None and z <= C2:
        raise ConfigError(f"walks series_z must be an integer > total_weight^2 = {C2}, got {z!r}")


class Command(NamedTuple):
    """Parameters, payload builder, CSV table (header row first) and a check
    of the parameters against total_weight^2."""

    params: dict[str, Param]
    run: Callable[[SpectralContext, dict], dict]
    csv: Callable[[dict], list[tuple]]
    check: Callable[[dict, int], None] = lambda params, C2: None


COMMANDS = {
    "bn": Command(
        {
            "N": Param(LEVEL, 1, int),
            "size_limit": Param(LEVEL, DEFAULT_SIZE_LIMIT, int),
            "levels": Param(_list(INT), []),
            "divisor_checks": Param(_list(_row(LEVEL, LEVEL)), []),
            "evaluate_at": Param(_list(INT), []),
        },
        _run_bn,
        lambda payload: [("index", "coefficient"), *enumerate(payload["coefficients"])],
    ),
    "moments": Command(
        {
            "k_max": Param(COUNT, 8, int),
            "levels": Param(_list(LEVEL), []),
            "congruences": Param(_list(_row(PRIME, COUNT, COUNT)), []),
            "series": Param(BOOL, True),
        },
        _run_moments,
        lambda payload: [("k", "moment"), *enumerate(payload["moments"])],
    ),
    "walks": Command(
        {
            "N": Param(LEVEL, 2, int),
            "k_max": Param(COUNT, 3, int),
            "series_z": Param(_optional(INT), None, int),
            "series_K": Param(COUNT, 3, int),
            "export_graph": Param(BOOL, False),
        },
        _run_walks,
        lambda payload: [
            ("k", "based_total", "per_class"),
            *((k, *row) for k, row in enumerate(zip(payload["walk_totals"], payload["per_class"]), 1)),
        ],
        _walks_above_spectrum,
    ),
    "spectrum": Command(
        {
            "N": Param(LEVEL, 4, int),
            "grid": Param(_optional(_int(2)), None, int),
            "cdf_at": Param(_list(NUMBER), []),
            "tolerance": Param(_optional(NONNEGATIVE), None, float),
        },
        _run_spectrum,
        _spectrum_csv,
    ),
    "mahler": Command(
        {
            "z": Param(NUMBER, None, float),
            "methods": Param(METHODS, list(MAHLER_METHODS)),
            "tol": Param(POSITIVE, 1e-3, float),
            "resolution": Param(_int(2), 128, int),
            "hilbert": Param(BOOL, True),
            "hilbert_tol": Param(POSITIVE, 1e-10),
        },
        _run_mahler,
        lambda payload: [
            ("method", "value", "error"),
            *((m, r["value"], r["error"]) for m, r in payload["mahler"].items()),
        ],
        _mahler_above_spectrum,
    ),
    "padic": Command(
        {
            "p": Param(PRIME, None, int),
            "nu": Param(LEVEL, 1, int),
            "z_values": Param(_optional(_list(INT))),
        },
        _run_padic,
        _dict_rows("rows", ("z", "valuation", "count", "holds")),
    ),
}


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
    return os.path.join(cache_dir, f"{command}-{ALGORITHM}-{cfg_hash}.json")


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
        table = COMMANDS[record.command].csv if record.command in COMMANDS else _verify_csv
        buf = io.StringIO()
        csv.writer(buf).writerows(table(record.payload))
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
        for key, param in COMMANDS[command].params.items():
            if param.flag:
                p.add_argument(
                    f"--{key.replace('_', '-')}", dest=f"ov_{key}", type=param.flag, default=None
                )
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
            key: getattr(args, f"ov_{key}")
            for key, param in COMMANDS[args.command].params.items()
            if param.flag
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
            payload = COMMANDS[job.command].run(SpectralContext(job.point_set), job.params)
            record = ResultRecord(job.command, cfg_hash, payload)
            _store_record(job.cache_dir, record)
        _emit(record, job.out, job.fmt)
        return 0
    except ResourceLimit as exc:
        print(f"speclat: resource cap: {exc}", file=sys.stderr)
        return 3
    except SpeclatError as exc:
        print(f"speclat: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
