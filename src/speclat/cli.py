"""Command-line front end.

    speclat <bn|moments|walks|spectrum|mahler|padic> --config cfg.json
            [--out FILE] [--format json|csv] [--cache-dir DIR] [overrides]
    speclat verify <chebyshev|honeycomb>

The config file carries the point set and one parameter block per
command; command-line flags override scalar parameters, each flag parsed
into its parameter's name.  ``COMMANDS`` is the one table of the
commands: for each, its parameters (a kind, a default and, for a scalar a
flag may override, the flag's type), its plan and its CSV table.  Every
parameter is checked against its kind before the config is hashed and is
kept exactly as given, so one job has one hash.  A job runs on one
SpectralContext, which builds the lattice, W and each b_N once.  The
command's plan raises every SizeLimit of the job before any work and
returns the run, which computes the payload from what the plan built and
raises none, but for a ladder that read a rung and did not settle; the
``moments`` plan states no cap, but runs the planners of ``moments``, and
the ``mahler`` plan runs ``analysis._plan``, as does each public call its
run makes.  Results are deterministic, content-addressed by a hash of the
effective config, and cached as JSON when a cache directory is given; a
hit serves the cached text as it is, and the cache file name carries
``ALGORITHM``, so no record of a superseded algorithm is served.  A record
is the plain dict of ``RECORD_KEYS``, its big integers decimal strings,
written by ``table.record_parts`` in parts, which stdout, ``--out`` and
the cache each take by ``writelines``: no record is held as one string.
A start loads only the stdlib every job uses (``argparse``, ``json``,
``hashlib``, ``os``), not ``dataclasses``: the job, the point set and the
command table are plain named tuples.  The computing layers, and numpy
with them, are imported only when a job computes, and ``csv`` only to
write CSV: a cache hit, a config error or ``--help`` never loads them.

Exit codes: 0 success, 1 verification failure, 2 configuration error or
unwritable output, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import sys
import tempfile
import types
from collections import namedtuple
from typing import TYPE_CHECKING, Callable

from . import limits
from .catalog import BUILTIN_POINT_SETS
from .errors import ConfigError, ConfigUnreadable, CosetViolation, RankDeficient, SizeLimit
from .errors import SpeclatError, SpectrumProximity
from .lattice import WeightedPointSet, _is_int
from .limits import FLOAT_OVERFLOW, MAHLER_METHODS, MAX_WALK_LEVEL
from .primes import is_prime
from .table import TABLE_BLOCK, Table, record_parts, row_leaves

if TYPE_CHECKING:
    from .context import SpectralContext

SCHEMA = "speclat-result/1"
RECORD_KEYS = {"schema", "command", "config_hash", "payload"}

# Names the algorithms behind the records.  Change it with any change that
# can alter a record: cache entries written under another tag are never read.
ALGORITHM = "alg2"


class JobConfig(namedtuple("JobConfig", "point_set command params")):
    """One validated job: point set, command and effective parameters.
    ``from_file`` validates the point set, rejects unknown parameters and
    checks every parameter against its kind, so dispatch never sees a
    malformed job."""

    __slots__ = ()

    @staticmethod
    def from_file(path: str, command: str, flags: dict) -> JobConfig:
        try:  # not JSON, too deep, or an int past int()'s digits, read or put in a message
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
            params.update(flags)
            for key, (kind, default, _) in spec.params.items():
                value = params[key]
                if not kind.ok(value):
                    if value is None and default is None:
                        raise ConfigError(f"{command} requires {kind.what} {key}")
                    raise ConfigError(f"{command} {key} must be {kind.what}, got {value!r}")
            spec.check(params, ps.total_weight**2)
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigUnreadable(exc) from exc
        return JobConfig(ps, command, params)

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


# -- parameter kinds --------------------------------------------------------------


# what a parameter value must be: ``ok`` tests it, ``what`` names it
Kind = namedtuple("Kind", "what ok")


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
WALK_LEVEL = Kind("an integer from 1 to 2^62", lambda v: LEVEL.ok(v) and v <= MAX_WALK_LEVEL)
MAX_SIZE_LIMIT = 10**4  # bn's size_limit default and its most; its plan also reads the size cap
SIZE_LIMIT = Kind("an integer from 1 to 10^4", lambda v: LEVEL.ok(v) and v <= MAX_SIZE_LIMIT)
COUNT = _int(0)
PRIME = Kind("a prime", lambda v: _is_int(v) and is_prime(v))
BOOL = Kind("true or false", lambda v: isinstance(v, bool))
NUMBER = Kind("a finite number", lambda v: _is_int(v) and abs(v) < FLOAT_OVERFLOW
              or isinstance(v, float) and math.isfinite(v))
POSITIVE = Kind("a number > 0", lambda v: NUMBER.ok(v) and v > 0)
NONNEGATIVE = Kind("a number >= 0", lambda v: NUMBER.ok(v) and v >= 0)
METHODS = Kind(f"a list of {list(MAHLER_METHODS)}",
               lambda v: isinstance(v, list) and all(m in MAHLER_METHODS for m in v))


# a kind, a default (None with a kind that refuses None: required) and the
# type of the flag that overrides the parameter, if any
Param = namedtuple("Param", "kind default flag", defaults=(None, None))


# -- plans ------------------------------------------------------------------------


def _plan_bn(ctx: SpectralContext, params: dict) -> Callable[[], dict]:
    from .specpoly import check_level, factored_value, level_multiplicity

    N, cap = params["N"], min(params["size_limit"], limits.DEFAULT_SIZE_LIMIT)
    # every level the job reads, in the order it reads them
    for level in (N, *itertools.chain.from_iterable(params["divisor_checks"])):
        check_level(level, ctx.dimension, cap)

    def run():
        b, read = ctx.spectral_factors(N), ctx.spectral_factors
        return {
            "N": N,
            "degree": b.degree,
            "coefficients": b.coefficient_text,
            "level_multiplicities": {
                str(r): level_multiplicity(b, r) for r in dict.fromkeys(params["levels"])
            },
            "divisor_checks": [
                {"divisor_level": d, "level": n, "divides": read(d).divides(read(n))}
                for d, n in params["divisor_checks"]
            ],
            "evaluations": [
                {"z": z, "value": str(factored_value(b, z))} for z in params["evaluate_at"]
            ],
        }

    return run


def _plan_moments(ctx: SpectralContext, params: dict) -> Callable[[], dict]:
    from .moments import _congruence_sweep, _moments, product_exponents, series_coefficients

    K = params["k_max"]
    sweeps = [_congruence_sweep(ctx.w, p, k, a) for p, k, a in params["congruences"]]
    exact = ctx.plan_moments(K)  # then each level, every cap of each in ``moments``
    levels = {N: _moments(ctx.w, K, N) for N in dict.fromkeys(params["levels"])}

    def run():
        seq = exact()
        payload = {
            "k_max": K,
            "moments": [str(v) for v in seq],
            "level_moments": {str(N): [str(v) for v in level()] for N, level in levels.items()},
            "congruences": [
                {"p": p, "k": k, "alpha": a, "holds": sweep()}
                for (p, k, a), sweep in zip(params["congruences"], sweeps)
            ],
        }
        if params["series"]:
            payload["series_coefficients"] = [str(a) for a in series_coefficients(seq)]
            payload["product_exponents"] = [str(b) for b in product_exponents(seq)]
        return payload

    return run


def _plan_walks(ctx: SpectralContext, params: dict) -> Callable[[], dict]:
    from fractions import Fraction

    from .graph import build_graph, check_export_cap, check_walk_cap, walk_series_check
    from .graph import walk_totals
    from .specpoly import check_level

    N, kmax, z = params["N"], params["k_max"], params["series_z"]
    K = params["series_K"] if z is not None else 0  # the walk lengths the series check reads
    # the job's longest enumeration, over (points)^2 type pairs
    check_walk_cap(len(ctx.ps.points) ** 2, max(kmax, K))
    if params["export_graph"]:
        check_export_cap(N, ctx.dimension)
    G = build_graph(ctx.ps, ctx.basis, N)  # a CosetViolation exits 2 before the level cap
    if z is not None:  # the series check reads b_N's factors, whose lift needs N^n within the cap
        check_level(N, ctx.dimension, limits.DEFAULT_SIZE_LIMIT)

    def run():
        totals = walk_totals(G, max(kmax, K))
        payload = {
            "N": N,
            "k_max": kmax,
            "walk_totals": [str(t) for t in totals[:kmax]],
            "per_class": [str(Fraction(t, k)) for k, t in enumerate(totals[:kmax], 1)],
        }
        if z is not None:
            ok = walk_series_check(ctx.spectral_factors(N), totals[:K])
            payload["series_check"] = {"z": z, "K": K, "ok": ok}
        if params["export_graph"]:
            payload["graph"] = G.adjacency()
        return payload

    return run


def _plan_spectrum(ctx: SpectralContext, params: dict) -> Callable[[], dict]:
    import numpy as np

    from .analysis import empirical_cdf, spectrum
    from .specpoly import character_values, check_level

    N, m, n = params["N"], params["grid"], ctx.dimension
    for level in filter(None, (N, m)):
        check_level(level, n, limits.DEFAULT_FLOAT_CAP, "character values")

    def run():
        hist = spectrum(ctx, N, tolerance=params["tolerance"])
        payload = {
            "N": N,
            "levels": Table([..., ...], (hist.means, hist.sizes)),
            "support": list(hist.support),
            "tolerance": hist.tolerance,
            "min_gap": None if hist.min_gap == float("inf") else hist.min_gap,
            "ambiguous": hist.ambiguous,
            "cdf": [
                {"r": float(r), "value": str(empirical_cdf(hist, float(r)))}
                for r in params["cdf_at"]
            ],
        }
        if m is not None:
            grid = character_values(ctx.w, m)
            values = None
            if m**n <= 10_000:
                # ravel's C order is the order np.indices lists the grid points in
                t = np.indices(grid.shape).reshape(n, -1)
                values = Table({"t": [...] * n, "value": ...}, (*t, grid.ravel()))
            payload["grid"] = {
                "resolution": m,
                "min": float(grid.min()),
                "max": float(grid.max()),
                "values": values,
            }
        return payload

    return run


def _plan_mahler(ctx: SpectralContext, params: dict) -> Callable[[], dict]:
    from .analysis import _plan, hilbert_transform, mahler_measure

    z, methods, tol = params["z"], params["methods"], params["tol"]
    routes = ("moment-series", "spectrum-average") if params["hilbert"] else ()
    # every cap of every route, the two moment series reading one list, to the longer
    moments = _plan(ctx, z, methods, tol, params["resolution"], routes, params["hilbert_tol"])[2]

    def run():
        moments()
        results = {}
        for method in dict.fromkeys(methods):
            res = mahler_measure(ctx, z, method=method, tol=tol, resolution=params["resolution"])
            results[method] = {"value": res.value, "error": res.error}
        deltas = {
            f"{a}|{b}": abs(results[a]["value"] - results[b]["value"])
            for a, b in itertools.combinations(results, 2)
        }
        payload = {"z": z, "mahler": results, "deltas": deltas}
        if routes:
            hs, ha = (hilbert_transform(ctx, z, route, params["hilbert_tol"]) for route in routes)
            payload["hilbert"] = {
                "moment-series": [hs.real, hs.imag],
                "spectrum-average": [ha.real, ha.imag],
                "delta": abs(hs - ha),
            }
        return payload

    return run


def _plan_padic(ctx: SpectralContext, params: dict) -> Callable[[], dict]:
    from .arith import _valuations

    p, nu, z_values = params["p"], params["nu"], params["z_values"]
    zs = range(p) if z_values is None else z_values
    checks = _valuations(ctx, zs, p, nu)

    def run():
        vals, counts, holds = zip(*rows) if (rows := checks()) else ((), (), ())
        vals = ["inf" if v == math.inf else v for v in vals]
        row = {"count": ..., "holds": ..., "valuation": ..., "z": ...}
        return {"p": p, "nu": nu, "rows": Table(row, (counts, holds, vals, list(zs)))}

    return run


def _reordered(field: str, header: tuple, order: tuple) -> Callable[[dict], list]:
    """CSV table of payload[field]: header, then the leaves at ``order`` of each row."""
    return lambda payload: [header, *map(operator.itemgetter(*order), row_leaves(payload[field]))]


def _spectrum_csv(payload: dict) -> list:
    grid = payload.get("grid")
    if grid and grid["values"]:
        rows = list(row_leaves(grid["values"]))
        return [(*(f"t{i}" for i in range(len(rows[0]) - 1)), "value"), *rows]
    return [("level", "multiplicity"), *row_leaves(payload["levels"])]


_verify_csv = _reordered("results", ("criterion", "passed", "detail"), (0, 2, 1))


def _float_range(params: dict, C2: int):
    if C2 >= FLOAT_OVERFLOW:
        raise ConfigError("total_weight^2 must be below 2^1024 for float character values")


def _mahler_above_spectrum(params: dict, C2: int):
    _float_range(params, C2)
    # the moment series converge only outside the spectrum [0, C^2]
    if ("moment-series" in params["methods"] or params["hilbert"]) and abs(params["z"]) <= C2:
        raise ConfigError(
            f"mahler moment-series and hilbert need |z| > total_weight^2 = {C2}, "
            f"got z = {params['z']}"
        )


def _walks_above_spectrum(params: dict, C2: int):
    # series_z only switches on the series check (integer Newton sums, nothing read at z) and
    # is echoed; it stays above the spectrum, where log b_N's series in 1/z converges
    z = params["series_z"]
    if z is not None and z <= C2:
        raise ConfigError(f"walks series_z must be an integer > total_weight^2 = {C2}, got {z!r}")


# parameters (a dict of Param), plan (which returns the payload's run), CSV
# table (header row first) and a check of the parameters against total_weight^2
Command = namedtuple("Command", "params plan csv check", defaults=(lambda params, C2: None,))


COMMANDS = {
    "bn": Command(
        {
            "N": Param(LEVEL, 1, int),
            "size_limit": Param(SIZE_LIMIT, MAX_SIZE_LIMIT, int),
            "levels": Param(_list(INT), []),
            "divisor_checks": Param(_list(_row(LEVEL, LEVEL)), []),
            "evaluate_at": Param(_list(INT), []),
        },
        _plan_bn,
        lambda payload: [("index", "coefficient"), *enumerate(payload["coefficients"])],
    ),
    "moments": Command(
        {
            "k_max": Param(COUNT, 8, int),
            "levels": Param(_list(LEVEL), []),
            "congruences": Param(_list(_row(PRIME, COUNT, COUNT)), []),
            "series": Param(BOOL, True),
        },
        _plan_moments,
        lambda payload: [("k", "moment"), *enumerate(payload["moments"])],
    ),
    "walks": Command(
        {
            "N": Param(WALK_LEVEL, 2, int),
            "k_max": Param(COUNT, 3, int),
            "series_z": Param(_optional(INT), None, int),
            "series_K": Param(COUNT, 3, int),
            "export_graph": Param(BOOL, False),
        },
        _plan_walks,
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
        _plan_spectrum,
        _spectrum_csv,
        _float_range,
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
        _plan_mahler,
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
        _plan_padic,
        _reordered("rows", ("z", "valuation", "count", "holds"), (3, 2, 0, 1)),
    ),
}


# -- record plumbing ---------------------------------------------------------------


def _atomic_write(path: str, text: list[str]):
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:  # named by the path written, not by the temporary file
        raise OSError(exc.errno, exc.strerror, path) from exc


def _cache_path(cache_dir: str, command: str, cfg_hash: str) -> str:
    return os.path.join(cache_dir, f"{command}-{ALGORITHM}-{cfg_hash}.json")


def _cached_record(cache_dir: str | None, command: str, cfg_hash: str):
    """(record, [the file's text]) of the cached record, or None: a missing,
    corrupt or stale entry is recomputed."""
    if not cache_dir:
        return None
    try:
        with open(_cache_path(cache_dir, command, cfg_hash)) as fh:
            text = fh.read()
        record = json.loads(text)
    except (OSError, ValueError):  # ValueError: undecodable bytes or not JSON
        return None
    if not (isinstance(record, dict) and RECORD_KEYS <= record.keys()):
        return None
    if record["schema"] != SCHEMA or record["config_hash"] != cfg_hash:
        return None
    return record, [text]


def _store_record(cache_dir: str | None, record: dict) -> list[str] | None:
    """Write the record to the cache, if any, and return its text in parts."""
    if not cache_dir:
        return None
    os.makedirs(cache_dir, exist_ok=True)
    text = record_parts(record)
    _atomic_write(_cache_path(cache_dir, record["command"], record["config_hash"]), text)
    return text


def _emit(record: dict, out: str | None, fmt: str, text: list[str] | None = None):
    """Write the record as ``fmt``; ``text``, if given, is its JSON text in parts."""
    if fmt != "json":
        import csv

        command = record["command"]
        table = COMMANDS[command].csv if command in COMMANDS else _verify_csv
        # writerow returns what write returns: here the row's text, joined a block at a time
        rows = map(csv.writer(types.SimpleNamespace(write=str)).writerow, table(record["payload"]))
        text = list(iter(lambda: "".join(itertools.islice(rows, TABLE_BLOCK)), ""))
    elif text is None:
        text = record_parts(record)
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.writelines(text)


@contextlib.contextmanager
def _unlimited_int_text():
    """Lift Python's int-to-text digit limit (3.11+) for a record's integers."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    set_limit = sys.set_int_max_str_digits if limit else lambda _: None
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


# -- entry point -------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call: each ``add_argument``
    builds a help formatter, about 2 ms for the whole table."""
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
                p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=param.flag,
                               default=argparse.SUPPRESS)
    v = sub.add_parser("verify")
    v.add_argument("example", choices=sorted(BUILTIN_POINT_SETS))
    v.add_argument("--out", default=None)
    v.add_argument("--format", default="json", choices=("json", "csv"))
    v.set_defaults(cache_dir=None)  # verify caches nothing
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:  # verify and each command build one record, written once
        if args.command == "verify":
            from .verify import run_suite

            cfg_hash, cached, payload = args.example, None, run_suite(args.example)
        else:
            flags = {k: v for k, v in vars(args).items() if k in COMMANDS[args.command].params}
            job = JobConfig.from_file(args.config, args.command, flags)
            cfg_hash = job.hash()
            cached = _cached_record(args.cache_dir, job.command, cfg_hash)
            if cached is None:
                # every layer, whatever the job: perfbench's tracer wraps them all
                from . import analysis, arith, graph  # noqa: F401
                from .context import SpectralContext

                with _unlimited_int_text():  # every cap in the plan, before the run does any work
                    run = COMMANDS[job.command].plan(SpectralContext(job.point_set), job.params)
                    payload = run()
        record, text = cached or ({"schema": SCHEMA, "command": args.command,
                                   "config_hash": cfg_hash, "payload": payload}, None)
        # a hit is in the cache already; an --out or --cache-dir may fail after the job computed
        _emit(record, args.out, args.format, text or _store_record(args.cache_dir, record))
    except ConfigUnreadable as exc:
        print(f"speclat: cannot read config: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, SpectrumProximity, RankDeficient, CosetViolation) as exc:
        # a z on the spectrum is the config's, a lattice fault (found once built) the point set's
        lattice = isinstance(exc, (RankDeficient, CosetViolation))
        where = f"invalid point set for {args.command}: " if lattice else ""
        print(f"speclat: config error: {where}{exc}", file=sys.stderr)
        return 2
    except SizeLimit as exc:
        print(f"speclat: resource cap: {exc}", file=sys.stderr)
        return 3
    except SpeclatError as exc:
        print(f"speclat: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"speclat: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    if args.command != "verify":
        return 0
    for r in payload["results"]:
        print(("PASS " if r["passed"] else "FAIL ") + r["criterion"], file=sys.stderr)
    return 0 if payload["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
