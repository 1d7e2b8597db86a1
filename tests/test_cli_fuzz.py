"""CLI fuzz: random config trees, run in process under small caps.

Every job command gets point sets of 1-4 dimensions and parameter blocks
that vary types, ranges, missing and unknown keys, huge integers and nested
values.  Most configs are valid, so most jobs compute.  Whatever the
config, the CLI exits 0, 2 or 3, writes exactly one stderr line when it
refuses a job and none when it runs it, and caches only what it ran.  And
every cap is in the plan: the only SizeLimit a command's run raises is a
ladder's that read a rung and did not settle.  The moments plan refuses
exactly what the public moment functions refuse, with their message.
"""

import contextlib
import functools
import importlib.util
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from speclat import analysis, cli, context, moments
from speclat.errors import SizeLimit

from conftest import mostly
from test_api_fuzz import point_sets as weighted_point_sets

LARGE = [300, 10**4, 10**6, 2**31, 2**62, 2**63, 2**64 + 1, 10**40, -(10**30), 2**1100]
large = st.sampled_from(LARGE)

junk = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 12),
        st.sampled_from(LARGE),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=3),
    ),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=3), kids, max_size=2)),
    max_leaves=4,
)


level = mostly(st.integers(1, 6), st.sampled_from([0, -1, *LARGE]))
small = mostly(st.integers(-2, 12), large)
prime = mostly(st.sampled_from([2, 3, 5, 7]), st.sampled_from([4, 9, 2**61 - 1, 2**89 - 1]))
number = mostly(st.floats(-20, 300) | st.integers(-20, 300), st.sampled_from([*LARGE, 1e308]))
tol = mostly(st.sampled_from([1e-2, 1e-1, 0.5]),
             st.floats(-1, 1) | st.sampled_from([1e-300, 5e-324, 1e308]))

# for each command, each parameter's plausible values
PARAMS = {
    "bn": {
        "N": level,
        "size_limit": mostly(st.integers(1, 300), st.integers(-1, 0)),
        "levels": st.lists(small, max_size=3),
        "divisor_checks": st.lists(st.lists(level, min_size=2, max_size=2), max_size=2),
        "evaluate_at": st.lists(small, max_size=3),
    },
    "moments": {
        "k_max": mostly(st.integers(0, 12), large),
        # a level past the levels rule, often with no congruence refused before it
        "levels": mostly(st.lists(level, max_size=3),
                         st.lists(st.sampled_from([300, 1000, 10**4]), min_size=1, max_size=2),
                         percent=70),
        "congruences": mostly(st.lists(st.lists(st.one_of(prime, st.integers(0, 3),
                                                          st.integers(0, 9)),
                                                min_size=3, max_size=3)
                                       | st.tuples(prime, st.integers(0, 3),
                                                   st.integers(0, 9)).map(list),
                                       max_size=2),
                              st.just([]), percent=60),
        "series": st.booleans(),
    },
    "walks": {
        "N": level,
        "k_max": mostly(st.integers(0, 4), large),
        "series_z": st.none() | mostly(st.integers(-5, 300), large),
        "series_K": mostly(st.integers(0, 4), large),
        "export_graph": st.booleans(),
    },
    "spectrum": {
        "N": level,
        "grid": st.none() | mostly(st.integers(1, 40), large),
        "cdf_at": st.lists(number, max_size=3),
        "tolerance": st.none() | tol,
    },
    "mahler": {
        "z": number,
        "methods": st.lists(st.sampled_from(["limit", "moment-series", "torus-quadrature"]),
                            max_size=3),
        "tol": tol,
        "resolution": mostly(st.integers(1, 40), large),
        "hilbert": st.booleans(),
        "hilbert_tol": tol,
    },
    "padic": {
        "p": prime,
        "nu": mostly(st.integers(1, 3), st.integers(-1, 0)),
        "z_values": st.none() | st.lists(small, max_size=3),
    },
}


@st.composite
def point_sets(draw):
    """A config's point set, 1-4-D: a0 + scale s_i e_i for each axis i (full
    rank, so most sets reach the computing layers) and up to two more points
    a0 + scale v, in any order; now and then a large coordinate or weight, or
    a malformed key."""
    n, scale = draw(st.integers(1, 4)), draw(st.sampled_from([1, 2]))
    coordinate = mostly(st.integers(-3, 3), large, percent=90)
    a0 = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    a0[0] += scale == 2 and a0[0] % 2 == 0  # at scale 2, a0 is off the lattice: walks run
    steps = draw(st.lists(st.sampled_from([1, 2, -1, 3]), min_size=n, max_size=n))
    offsets = [[s * (i == j) for j in range(n)] for i, s in enumerate(steps)]
    offsets += draw(st.lists(st.lists(coordinate, min_size=n, max_size=n), max_size=2))
    coords = [[x + scale * y for x, y in zip(a0, v)] for v in offsets if any(v)]
    coords = draw(st.permutations([a0, *coords]))
    weight = mostly(st.integers(1, 4), large | junk, percent=90)
    points = [{"a": a, **({"c": draw(weight)} if draw(st.booleans()) else {})} for a in coords]
    cfg = {"dimension": n, "points": points}
    if draw(st.integers(0, 99)) >= 95:  # malformed: a key replaced by junk or dropped
        key = draw(st.sampled_from(["dimension", "points"]))
        if draw(st.booleans()):
            cfg[key] = draw(junk)
        else:
            del cfg[key]
    return cfg


@st.composite
def configs(draw):
    """(command, config tree): a point set and a block of the command's
    parameters, each mostly kept, else dropped or replaced by junk, and now
    and then an unknown key or a block that is not an object."""
    command = draw(st.sampled_from(sorted(PARAMS)))
    block = {}
    for key, values in PARAMS[command].items():
        pick = draw(st.integers(0, 99))
        if pick < 85:
            block[key] = draw(values)
        elif pick < 93:
            block[key] = draw(junk)
    if draw(st.integers(0, 99)) >= 95:
        block[draw(st.text(min_size=1, max_size=3))] = draw(junk)
    cfg = draw(point_sets())
    cfg[command] = draw(junk) if draw(st.integers(0, 99)) >= 97 else block
    return command, cfg


def run_job(command, cfg):
    """(exit code, stderr, cache entries) of one job, run with an empty cache directory."""
    with tempfile.TemporaryDirectory() as work:
        path, cache = os.path.join(work, "cfg.json"), os.path.join(work, "cache")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", path, "--cache-dir", cache])
        return code, err.getvalue(), os.listdir(cache) if os.path.isdir(cache) else []


def run_planned_job(command, cfg):
    """``run_job``, each run that a plan returns watched: (exit code, stderr, and
    (message, rungs read) of each SizeLimit that escaped a run)."""
    escaped, rungs, climb = [], [], analysis._ladder

    def ladder(ctx, read, tol, failure):
        return climb(ctx, lambda N: rungs.append(N) or read(N), tol, failure)

    def watch(run):
        try:
            return run()
        except SizeLimit as exc:
            escaped.append((str(exc), len(rungs)))
            raise

    def watched(plan):
        return lambda ctx, params: functools.partial(watch, plan(ctx, params))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_ladder", ladder)
        for name, spec in cli.COMMANDS.items():
            mp.setitem(cli.COMMANDS, name, spec._replace(plan=watched(spec.plan)))
        code, err, _ = run_job(command, cfg)
    return code, err, escaped


def only_ladders_escape(escaped):
    return all("did not stabilize" in message and rungs for message, rungs in escaped)


# the jobs of scripts/record_digests.py's LARGE_JOBS that exit 3, all on fixed or built-in sets
LARGE_EXIT_3 = (
    "mahler-simplex3-hilbert-ladder", "mahler-honeycomb-limit-cap", "moments-honeycomb-levels-cap",
    "bn-honeycomb-divisor-cap", "walks-honeycomb-series-cap", "spectrum-honeycomb-grid-cap",
    "mahler-honeycomb-series-cap", "mahler-honeycomb-resolution-cap",
    "mahler-honeycomb-tol-underflow", "mahler-honeycomb-hilbert-tol-underflow",
    "moments-simplex3-sweep-cap", "moments-line2000-primes-cap",
    "moments-heavy-line-levels-primes-cap", "mahler-simplex6-ladder-cap",
)


@functools.cache
def digest_script():
    """scripts/record_digests.py, loaded once."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scripts", "record_digests.py")
    spec = importlib.util.spec_from_file_location("record_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def large_job(label):
    """(command, config) of the LARGE_JOBS entry ``label`` of scripts/record_digests.py."""
    script = digest_script()
    [(set_name, command, block)] = [job[1:] for job in script.LARGE_JOBS if job[0] == label]
    n, points = {**script.gen.BUILTIN, **script.FIXED_SETS}[set_name]
    return command, script.gen._config(points, n, command, block)


# at the CLI's own caps, before the fuzz tests: small_caps, once set up, holds
# for the rest of the module
@pytest.mark.parametrize("label", LARGE_EXIT_3)
def test_large_refusals_are_planned(label):
    code, err, escaped = run_planned_job(*large_job(label))
    assert code == 3 and err.startswith("speclat: resource cap: ")
    assert only_ladders_escape(escaped), escaped


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_cli_fuzz(small_caps, job):
    code, err, cached = run_job(*job)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert not cached
    else:
        assert err == "" and len(cached) == 1


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_every_cap_is_planned(small_caps, job):
    code, err, escaped = run_planned_job(*job)
    assert code in (0, 2, 3), err
    assert only_ladders_escape(escaped), escaped


HONEYCOMB = [{"a": [1, 0]}, {"a": [0, 1]}, {"a": [-1, -1]}]


@pytest.mark.parametrize(
    "command, cfg, code, message",
    [
        # lattice coordinates past int64: the tight coordinates run on Python integers
        ("moments", {"dimension": 1, "points": [{"a": [-2]}, {"a": [-1]}, {"a": [-(10**30)]}],
                     "moments": {"k_max": 5}},
         3, "resource cap: moments to k = 5 need 4999999999999999999999999999996 characters, "
            "past cap 5000"),
        ("moments", {"dimension": 1, "points": [{"a": [-2]}, {"a": [-1]}, {"a": [-(10**30)]}],
                     "moments": {"k_max": 0}}, 0, ""),
        # a coordinate of 2^31 took a step of the tight-coordinate search per unit of reach
        ("moments", {"dimension": 3, "points": [{"a": [3, 2**31, -2], "c": 2}, {"a": [-1, 2, 2]},
                                                 {"a": [1, 3, 1]}, {"a": [-1, 2, 3]},
                                                 {"a": [1, 2, 2]}, {"a": [-1, 5, 2]}],
                     "moments": {"series": False}},
         3, "resource cap: moments to k = 8 need 1985992877208 characters, past cap 5000"),
        # 9**(2^62) type sequences were computed before they were compared with the cap
        ("walks", {"dimension": 2, "points": HONEYCOMB, "walks": {"N": 2, "k_max": 2**62}},
         3, f"resource cap: 9**{2**62} type sequences exceed the cap 10000"),
        # C^2 past float range: float(C^2) raised OverflowError
        ("spectrum", {"dimension": 2, "points": [{"a": [1, 0], "c": 2**600}, *HONEYCOMB[1:]],
                      "spectrum": {"N": 4}},
         2, "config error: total_weight^2 must be below 2^1024 for float character values"),
        ("mahler", {"dimension": 2, "points": [{"a": [1, 0], "c": 2**600}, *HONEYCOMB[1:]],
                    "mahler": {"z": 5.0, "methods": ["limit"], "hilbert": False}},
         2, "config error: total_weight^2 must be below 2^1024 for float character values"),
    ],
    ids=["huge-coordinate", "huge-coordinate-k0", "skew-coordinate", "walk-length",
         "spectrum-weight", "mahler-weight"],
)
def test_configs_the_fuzz_found(small_caps, command, cfg, code, message):
    # each gave a traceback or ran for hours before it was mended (under any caps)
    got, err, cached = run_job(command, cfg)
    assert (got, err) == (code, f"speclat: {message}\n" if message else "")
    assert len(cached) == (code == 0)


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(weighted_point_sets(),
       mostly(st.integers(0, 12), st.integers(13, 80) | st.just(10**6)),
       mostly(st.integers(1, 12), st.integers(13, 3000) | st.just(10**9)))
def test_moments_caps_match_the_api(small_caps, ps, K, N):
    # the CLI refuses a moments job exactly when the public functions refuse its lists
    cfg = {"dimension": ps.dimension,
           "points": [{"a": list(a), "c": c} for a, c in ps.points],
           "moments": {"k_max": K, "levels": [N], "series": False}}
    w = context.SpectralContext(ps).w
    try:
        moments.moment_sequence(w, K)
        moments.moment_sequence_N(w, K, N)
        expected = (0, "")
    except SizeLimit as exc:
        expected = (3, f"speclat: resource cap: {exc}\n")
    assert run_job("moments", cfg)[:2] == expected
