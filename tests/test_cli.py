import itertools
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import speclat
from speclat import limits, specpoly
from speclat.cli import SCHEMA, COMMANDS, JobConfig, _build_parser, _unlimited_int_text, main
from speclat.context import SpectralContext
from speclat.errors import ConfigError, CosetViolation, IntegralityViolation, RankDeficient
from speclat.errors import SizeLimit, SpectrumProximity
from speclat.lattice import WeightedPointSet
from speclat.table import LONG_FLOAT_COLUMN, TABLE_BLOCK, Table, leaves, record_parts, row_leaves

from _oracles import evaluate_at_integer, expanded, json_text, table_rows


def record_text(record):
    return "".join(record_parts(record))


def record_of(command, config_hash, payload):
    return {"schema": SCHEMA, "command": command, "config_hash": config_hash, "payload": payload}


def test_record_round_trip():
    record = record_of("bn", "abc123", {"degree": 4, "coefficients": ["1", "-9"]})
    assert json.loads(record_text(record)) == record

HONEYCOMB_CFG = {
    "dimension": 2,
    "points": [{"a": [1, 0], "c": 1}, {"a": [0, 1], "c": 1}, {"a": [-1, -1], "c": 1}],
}
CHEB_CFG = {
    "dimension": 1,
    "points": [{"a": [-1], "c": 1}, {"a": [1], "c": 1}],
}


def readme_config():
    """The example config of README.md, its one JSON block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


def test_readme_counts_match_the_code():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    digests = (Path(__file__).parent / "record_digests.txt").read_text().splitlines()
    names = re.search(r"the package's\s+(\d+)\s+public\s+names", text)
    jobs = re.search(r"`scripts/record_digests.py`\s+runs\s+(\d+)\s+jobs", text)
    assert int(names.group(1)) == len(speclat.__all__)
    assert int(jobs.group(1)) == sum(1 for line in digests if line.strip())


def test_readme_parameter_table_matches_the_command_table():
    # each row: command, `parameter`, kind, default, `--flag` or nothing
    text = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| (\w+) \| `(\w+)` \|.*\| (?:`(--[\w-]+)`)? ?\|$", text, re.M)
    table = [(command, key, f"--{key.replace('_', '-')}" if param.flag else "")
             for command, spec in COMMANDS.items() for key, param in spec.params.items()]
    assert rows == table


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, cfg, argv, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


def test_bn_command(tmp_path):
    cfg = dict(HONEYCOMB_CFG)
    cfg["bn"] = {
        "N": 6,
        "levels": [0, 1, 3, 4, 7, 9],
        "divisor_checks": [[2, 6], [3, 6], [4, 6], [2, 3]],
        "evaluate_at": [53],
    }
    code, out = run(tmp_path, cfg, ["bn", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    record = json.loads(out.read_text())
    assert record["schema"] == "speclat-result/1"
    payload = record["payload"]
    assert payload["degree"] == 36
    assert payload["level_multiplicities"] == {
        "0": 2, "1": 15, "3": 6, "4": 6, "7": 6, "9": 1,
    }
    assert [check["divides"] for check in payload["divisor_checks"]] == [True, True, False, False]
    value = int(payload["evaluations"][0]["value"])
    assert value % 7**12 == 0


def test_bn_flag_override(tmp_path):
    cfg = dict(HONEYCOMB_CFG)
    cfg["bn"] = {"N": 6}
    code, out = run(
        tmp_path, cfg, ["bn", "--config", write_cfg(tmp_path, cfg), "--N", "1"]
    )
    assert code == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["N"] == 1
    assert payload["coefficients"] == ["-9", "1"]


def test_moments_command(tmp_path):
    cfg = dict(CHEB_CFG)
    cfg["moments"] = {"k_max": 6, "levels": [2], "congruences": [[2, 1, 0]]}
    code, out = run(tmp_path, cfg, ["moments", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    payload = json.loads(out.read_text())["payload"]
    assert [int(v) for v in payload["moments"]] == [
        math.comb(2 * k, k) for k in range(7)
    ]
    assert payload["congruences"][0]["holds"] is True
    assert [int(a) for a in payload["series_coefficients"]] == [2, 5, 14, 42, 132]


def test_walks_command(tmp_path):
    cfg = dict(HONEYCOMB_CFG)
    cfg["walks"] = {"N": 2, "k_max": 3, "series_z": 10, "series_K": 3, "export_graph": True}
    code, out = run(tmp_path, cfg, ["walks", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["walk_totals"][0] == "12"  # 3 closing pairs x 4 vertices
    assert payload["series_check"]["ok"] is True
    assert len(payload["graph"]["edges"]) == 12


def test_spectrum_command(tmp_path):
    cfg = dict(HONEYCOMB_CFG)
    cfg["spectrum"] = {"N": 6, "cdf_at": [2.0], "grid": 6}
    code, out = run(tmp_path, cfg, ["spectrum", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    payload = json.loads(out.read_text())["payload"]
    levels = {round(v): m for v, m in payload["levels"]}
    assert levels == {0: 2, 1: 15, 3: 6, 4: 6, 7: 6, 9: 1}
    assert payload["cdf"][0]["value"] == "17/36"
    assert payload["grid"]["max"] == 9.0


def test_mahler_command(tmp_path):
    cfg = dict(CHEB_CFG)
    cfg["mahler"] = {"z": 6.0, "tol": 1e-6}
    code, out = run(tmp_path, cfg, ["mahler", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    payload = json.loads(out.read_text())["payload"]
    target = 2 - math.sqrt(3)
    for method in ("limit", "moment-series", "torus-quadrature"):
        assert abs(payload["mahler"][method]["value"] - target) < 1e-4
    assert max(payload["deltas"].values()) < 1e-4
    assert abs(payload["hilbert"]["moment-series"][0] - 1 / math.sqrt(12)) < 1e-8


def test_padic_command(tmp_path):
    cfg = dict(HONEYCOMB_CFG)
    cfg["padic"] = {"p": 7, "z_values": [0, 1, 2, 53]}
    code, out = run(tmp_path, cfg, ["padic", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    payload = json.loads(out.read_text())["payload"]
    by_z = {row["z"]: row for row in payload["rows"]}
    assert by_z[0]["valuation"] == "inf" and by_z[0]["count"] == 8
    assert by_z[1]["count"] == 15
    assert by_z[53] == {"z": 53, "valuation": 12, "count": 6, "holds": True}


def test_csv_output(tmp_path):
    cfg = dict(HONEYCOMB_CFG)
    cfg["padic"] = {"p": 7, "z_values": [0, 2]}
    out = tmp_path / "out.csv"
    code = main(
        ["padic", "--config", write_cfg(tmp_path, cfg), "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "z,valuation,count,holds"
    assert lines[1].startswith("0,inf,8,")


def test_deterministic_and_cached(tmp_path):
    cfg = dict(CHEB_CFG)
    cfg["bn"] = {"N": 5, "evaluate_at": [6]}
    cfg_path = write_cfg(tmp_path, cfg)
    cache = tmp_path / "cache"
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(
            ["bn", "--config", cfg_path, "--cache-dir", str(cache), "--out", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    cached = list(cache.glob("bn-*.json"))
    assert len(cached) == 1
    assert cached[0].read_bytes() == outs[0]


def test_cache_hit_skips_recompute(tmp_path):
    # a valid cached record with a doctored payload must be served as-is,
    # proving hits never recompute
    cfg = dict(CHEB_CFG)
    cfg["bn"] = {"N": 2}
    cfg_path = write_cfg(tmp_path, cfg)
    cache = tmp_path / "cache"
    out1 = tmp_path / "a.json"
    assert main(["bn", "--config", cfg_path, "--cache-dir", str(cache), "--out", str(out1)]) == 0
    cached = list(cache.glob("bn-*.json"))[0]
    record = json.loads(cached.read_text())
    record["payload"]["degree"] = 999
    cached.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    out2 = tmp_path / "b.json"
    assert main(["bn", "--config", cfg_path, "--cache-dir", str(cache), "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["payload"]["degree"] == 999


# cache file contents, or edits of the cached record, that must be
# recomputed and rewritten
CORRUPTIONS = {
    "not-json": b"{ not json",
    "not-utf-8": b"\xff\xfe not utf-8",
    "not-an-object": b"[]",
    "no-payload": lambda r: {k: v for k, v in r.items() if k != "payload"},
    "no-command": lambda r: {k: v for k, v in r.items() if k != "command"},
    "other-schema": lambda r: r | {"schema": "speclat-result/0"},
    "other-config-hash": lambda r: r | {"config_hash": "0" * 32},
}


def test_cache_corruption_recovers(tmp_path):
    cfg = dict(CHEB_CFG)
    cfg["bn"] = {"N": 3}
    cfg_path = write_cfg(tmp_path, cfg)
    cache = tmp_path / "cache"
    out1 = tmp_path / "a.json"
    assert main(["bn", "--config", cfg_path, "--cache-dir", str(cache), "--out", str(out1)]) == 0
    cached = list(cache.glob("bn-*.json"))[0]
    argv = ["bn", "--config", cfg_path, "--cache-dir", str(cache), "--out"]
    for name, corrupt in CORRUPTIONS.items():
        if not isinstance(corrupt, bytes):
            corrupt = json.dumps(corrupt(json.loads(out1.read_text()))).encode()
        cached.write_bytes(corrupt)
        out2 = tmp_path / f"{name}.json"
        assert main(argv + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), name
        assert json.loads(cached.read_text())["schema"] == "speclat-result/1"
        assert cached.read_bytes() == out1.read_bytes(), name


def test_cache_hit_serves_the_stored_text(tmp_path, monkeypatch):
    cfg = dict(HONEYCOMB_CFG)
    cfg["spectrum"] = {"N": 6, "grid": 4, "cdf_at": [3.0]}
    argv = ["spectrum", "--config", write_cfg(tmp_path, cfg)]
    cache = ["--cache-dir", str(tmp_path / "cache")]
    cold = {}
    for fmt, extra in (("json", cache), ("csv", [])):  # the CSV from a computed payload
        code, out = run(tmp_path, cfg, argv + extra + ["--format", fmt], name=f"cold.{fmt}")
        assert code == 0
        cold[fmt] = out.read_bytes()
    written = count_calls(monkeypatch, sys.modules["speclat.cli"], "record_parts")
    serialised = count_calls(monkeypatch, sys.modules["speclat.table"], "_write")
    for fmt in ("json", "csv"):
        code, out = run(tmp_path, cfg, argv + cache + ["--format", fmt], name=f"warm.{fmt}")
        assert code == 0
        assert out.read_bytes() == cold[fmt]
    assert written == [] and serialised == []


def test_bad_config_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert main(["bn", "--config", str(path)]) == 2
    path.write_text("not json at all")
    assert main(["bn", "--config", str(path)]) == 2
    assert main(["bn", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("levels", [1_000, 100_000])
def test_config_nested_past_the_recursion_limit_exit_2(tmp_path, capsys, levels):
    path = tmp_path / "deep.json"
    path.write_text('{"dimension": 1, "bn": {"levels": ' + "[" * levels + "]" * levels + "}}")
    assert main(["bn", "--config", str(path)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("speclat: cannot read config: maximum recursion depth exceeded")


@pytest.mark.parametrize(
    "argv",
    [
        ["bn", "--out", "{tmp}/missing/x.json"],  # FileNotFoundError
        ["bn", "--out", "{tmp}"],  # IsADirectoryError
        ["bn", "--cache-dir", "{tmp}/cfg.json"],  # FileExistsError
        ["verify", "honeycomb", "--out", "{tmp}/missing/x.json"],
    ],
    ids=["out-in-missing-dir", "out-is-dir", "cache-dir-is-file", "verify-out-in-missing-dir"],
)
def test_unwritable_output_exit_2(tmp_path, capsys, argv):
    # the path that cannot be written is the last argument; verify computes before it writes
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    config = [] if argv[0] == "verify" else ["--config", write_cfg(tmp_path, dict(CHEB_CFG))]
    assert main(argv + config) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"speclat: cannot write {argv[-1]}: ")
    # no temporary file left, nor any directory made
    assert [p.name for p in tmp_path.rglob("*")] == ([] if argv[0] == "verify" else ["cfg.json"])


def test_invalid_points_exit_2(tmp_path):
    cfg = {"dimension": 2, "points": [{"a": [1, 0], "c": 0}, {"a": [0, 1], "c": 1}]}
    assert main(["bn", "--config", write_cfg(tmp_path, cfg)]) == 2


def test_unknown_parameter_exit_2(tmp_path):
    cfg = dict(CHEB_CFG)
    cfg["bn"] = {"n": 3}
    assert main(["bn", "--config", write_cfg(tmp_path, cfg)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bn", "--N", "0"],
        ["walks", "--N", "0"],
        ["spectrum", "--N", "0"],
        ["padic", "--p", "8"],
        ["padic", "--p", "1"],
        ["padic", "--nu", "0"],
        ["moments", "--k-max", "-1"],
        ["padic", "--p", "318665857834031151167461"],  # a strong pseudoprime to 2..37
    ],
)
def test_out_of_range_parameter_exit_2(tmp_path, capsys, argv):
    cfg = dict(HONEYCOMB_CFG)
    cfg["padic"] = {"p": 5}
    code = main(argv[:1] + ["--config", write_cfg(tmp_path, cfg)] + argv[1:])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("speclat: config error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "block",
    [
        {"z": 5.0, "methods": ["moment-series"], "hilbert": False},
        {"z": 9.0, "methods": ["limit"]},  # hilbert defaults to true
    ],
)
def test_mahler_series_inside_spectrum_exit_2(tmp_path, capsys, block):
    cfg = dict(HONEYCOMB_CFG)
    cfg["mahler"] = block
    code = main(["mahler", "--config", write_cfg(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("speclat: config error: ")
    assert "total_weight^2 = 9" in err
    assert "Traceback" not in err


SERIES_CAP_TAIL = "; z is too close to the spectrum top for the moment series\n"


@pytest.mark.parametrize(
    "block, code, err",
    [
        # tol / 10 * (1 - 9/10) and tol * (9.5 - 9) underflow to 0, so K is read
        # from the logs of the factors
        ({"z": 10.0, "methods": ["moment-series"], "tol": 5e-324, "hilbert": False},
         3, "speclat: resource cap: series needs 7111 moments (cap 1024)" + SERIES_CAP_TAIL),
        ({"z": 9.5, "methods": ["limit"], "hilbert_tol": 5e-324},
         3, "speclat: resource cap: series needs 13783 moments (cap 1024)" + SERIES_CAP_TAIL),
        # tol * (|z| - 9) overflows to inf
        ({"z": 1e308, "methods": ["limit"], "hilbert_tol": 1e308}, 0, ""),
    ],
    ids=["mahler-tol-underflow", "hilbert-tol-underflow", "hilbert-tol-overflow"],
)
def test_mahler_series_tolerance_past_float_range(tmp_path, capsys, block, code, err):
    cfg = dict(HONEYCOMB_CFG, mahler=block)
    assert main(["mahler", "--config", write_cfg(tmp_path, cfg), "--out",
                 str(tmp_path / "out.json")]) == code
    assert capsys.readouterr().err == err


def test_mahler_on_an_observed_spectrum_value_exit_2(tmp_path, capsys):
    # |x + y + 1/(xy)|^2 = |2i - 1|^2 = 5 at x = y = i, a spectrum value: a
    # fault of the config (exit 2), not a failed check (exit 1)
    cfg = dict(HONEYCOMB_CFG)
    cfg["mahler"] = {"z": 5.0, "methods": ["limit", "torus-quadrature"], "hilbert": False}
    cache, out = tmp_path / "cache", tmp_path / "out.json"
    argv = ["mahler", "--config", write_cfg(tmp_path, cfg), "--cache-dir", str(cache)]
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "speclat: config error: 5.0 is within 9e-06 of an observed spectrum value\n"
    assert not out.exists()
    assert not list(cache.glob("*.json"))


@pytest.mark.parametrize(
    "methods", [["bogus"], ["limit", "Limit"], "limit", [["limit"]], 3]
)
def test_mahler_unknown_method_exit_2(tmp_path, capsys, methods):
    cfg = dict(HONEYCOMB_CFG)
    cfg["mahler"] = {"z": 12.0, "methods": methods}
    code = main(["mahler", "--config", write_cfg(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("speclat: config error: mahler methods must be a list of")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "block, argv",
    [
        ({"N": 3}, ["--k-max", "20"]),  # 9**20 type sequences
        ({"N": 2, "k_max": 2, "series_z": 10, "series_K": 9}, []),  # 9**9 in the series
    ],
)
def test_walk_cap_checked_before_enumeration(tmp_path, capsys, monkeypatch, block, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("walks enumerated past the job's cap")

    monkeypatch.setattr("speclat.graph.walk_totals", refuse)
    monkeypatch.setattr("speclat.graph.walk_series_check", refuse)
    cfg = dict(HONEYCOMB_CFG)
    cfg["walks"] = block
    code = main(["walks", "--config", write_cfg(tmp_path, cfg)] + argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("speclat: resource cap: ")
    assert "exceed the cap 100000000" in err


@pytest.mark.parametrize(
    "block",
    [
        {"k_max": 100_000},
        {"k_max": 4, "congruences": [[997, 1, 3]]},  # a sweep to 997**4
        {"k_max": 4, "congruences": [[2, 1, 10]]},  # 2**11 = 2048, just past the cap
        {"k_max": 4, "congruences": [[3, 1, 10**9]]},  # a power too large to form
    ],
)
def test_moments_cap_checked_before_any_sweep(tmp_path, capsys, monkeypatch, block):
    def refuse(*args, **kwargs):
        raise AssertionError("moments swept past the job's cap")

    monkeypatch.setattr("speclat.context.SpectralContext.moment_sequence", refuse)
    monkeypatch.setattr("speclat.moments.check_congruence", refuse)
    monkeypatch.setattr("speclat.moments.moment_sequence_N", refuse)
    cfg = dict(HONEYCOMB_CFG)
    cfg["moments"] = block
    cache = tmp_path / "cache"
    start = time.perf_counter()
    code = main(["moments", "--config", write_cfg(tmp_path, cfg), "--cache-dir", str(cache)])
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("speclat: resource cap: moments need a sweep past k = 1024")
    assert not cache.exists() or not any(cache.iterdir())


@pytest.fixture
def small_float_cap(monkeypatch):
    """DEFAULT_FLOAT_CAP at 1000 in ``speclat.limits``, which every layer reads."""
    monkeypatch.setattr(limits, "DEFAULT_FLOAT_CAP", 1000)


@pytest.mark.parametrize(
    "command, block, message",
    [
        ("spectrum", {"N": 4, "grid": 32}, "32^2 character values exceed cap 1000"),
        ("mahler", {"z": 12.0, "methods": ["torus-quadrature"], "hilbert": False,
                    "resolution": 32}, "32^2 character values exceed cap 1000"),
        ("moments", {"k_max": 8, "levels": [3, 16]},  # 16^2 cells, 4 sweep steps
         "moments levels need 16^2 x 4 cells, past the float cap 1000"),
        ("moments", {"k_max": 0, "levels": [32]},  # the unit array alone
         "moments levels need 32^2 x 1 cells, past the float cap 1000"),
    ],
    ids=["spectrum-grid", "mahler-resolution", "moments-levels", "moments-levels-k0"],
)
def test_float_cap_checked_before_any_sweep(
    tmp_path, capsys, monkeypatch, small_float_cap, command, block, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("swept past the float cap")

    monkeypatch.setattr("speclat.moments.moment_sequence_N", refuse)
    monkeypatch.setattr("speclat.context.SpectralContext.moment_sequence", refuse)
    cfg = dict(HONEYCOMB_CFG)
    cfg[command] = block
    cache = tmp_path / "cache"
    code = main([command, "--config", write_cfg(tmp_path, cfg), "--cache-dir", str(cache)])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"speclat: resource cap: {message}\n"
    assert not list(cache.glob("*.json"))


BIG = 10**2200  # N^2 has more digits than int() may print


@pytest.mark.parametrize(
    "command, block, code, message",
    [
        ("moments", {"levels": [BIG]},
         3, f"resource cap: moments levels need {BIG}^2 x 4 cells, past the float cap 10000000"),
        ("spectrum", {"N": BIG}, 3, f"resource cap: {BIG}^2 character values exceed cap 10000000"),
        ("spectrum", {"grid": BIG},
         3, f"resource cap: {BIG}^2 character values exceed cap 10000000"),
        ("mahler", {"z": 12.0, "methods": ["torus-quadrature"], "hilbert": False,
                    "resolution": BIG},
         3, f"resource cap: {BIG}^2 character values exceed cap 10000000"),
        ("walks", {"N": BIG},
         2, f"config error: walks N must be an integer from 1 to 2^62, got {BIG}"),
        ("walks", {"N": 2**62 + 1},
         2, f"config error: walks N must be an integer from 1 to 2^62, got {2**62 + 1}"),
    ],
    ids=["moments-levels", "spectrum-N", "spectrum-grid", "mahler-resolution", "walks-N",
         "walks-N-past-int64"],
)
def test_levels_past_the_digit_limit_exit_cleanly(tmp_path, capsys, command, block, code, message):
    cfg = dict(HONEYCOMB_CFG)
    cfg[command] = block
    assert main([command, "--config", write_cfg(tmp_path, cfg)]) == code
    assert capsys.readouterr().err == f"speclat: {message}\n"


FLOAT_EDGE = 2**1024 - 2**970  # the least integer that float() overflows on


@pytest.mark.parametrize(
    "command, block, key",
    [
        ("spectrum", {"cdf_at": [0.5, 10**400]}, "cdf_at"),
        ("spectrum", {"cdf_at": [-FLOAT_EDGE]}, "cdf_at"),
        ("mahler", {"z": 10**400}, "z"),
        ("mahler", {"z": FLOAT_EDGE, "methods": ["moment-series"], "hilbert": False}, "z"),
        ("mahler", {"z": 12, "tol": FLOAT_EDGE}, "tol"),
    ],
    ids=["spectrum-cdf", "spectrum-cdf-edge", "mahler-z", "mahler-series-z-edge", "mahler-tol"],
)
def test_integers_past_float_range_exit_2(tmp_path, capsys, command, block, key):
    cfg = dict(HONEYCOMB_CFG)
    cfg[command] = block
    assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"speclat: config error: {command} {key} must be ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "command, block",
    [
        ("spectrum", {"cdf_at": [FLOAT_EDGE - 1, 1 - FLOAT_EDGE]}),
        ("mahler", {"z": FLOAT_EDGE - 1, "methods": ["moment-series"], "hilbert": False}),
    ],
    ids=["spectrum-cdf", "mahler-series-z"],
)
def test_integers_just_inside_float_range_run(tmp_path, command, block):
    cfg = dict(HONEYCOMB_CFG)
    cfg[command] = block
    code, out = run(tmp_path, cfg, [command, "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    assert json.loads(out.read_text())["payload"]


def test_walks_at_the_largest_level(tmp_path):
    cfg = dict(HONEYCOMB_CFG)
    cfg["walks"] = {"N": 2**62, "k_max": 2}
    code, out = run(tmp_path, cfg, ["walks", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    # no displacement folds at so large a level: the based totals are N^2 times the
    # closed type sequences, 3 and 15 of them
    totals = json.loads(out.read_text())["payload"]["walk_totals"]
    assert totals == [str(3 * 2**124), str(15 * 2**124)]


def test_moments_levels_cap_admits_levels_up_to_it(tmp_path, small_float_cap):
    cfg = dict(HONEYCOMB_CFG)
    cfg["moments"] = {"k_max": 8, "levels": [15], "series": False}  # 15^2 cells, 4 steps
    code, out = run(tmp_path, cfg, ["moments", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    assert len(json.loads(out.read_text())["payload"]["level_moments"]["15"]) == 9


def test_moments_cap_admits_sweeps_up_to_it(tmp_path, monkeypatch):
    from speclat import moments

    plan, planned = moments._congruence_sweep, []

    def checked(*args):
        planned.append(args[1:])
        plan(*args)  # every cap of the sweep checked, the sweep itself left out
        return lambda: True

    monkeypatch.setattr(moments, "_congruence_sweep", checked)
    cfg = dict(HONEYCOMB_CFG)
    cfg["moments"] = {"k_max": 2, "congruences": [[2, 1, 9], [2, 0, 10**9]], "series": False}
    code, out = run(tmp_path, cfg, ["moments", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    # h = 2^10, the cap; k = 0 is planned too, but checks no cap and forms no 2^(10^9 + 1)
    assert planned == [(2, 1, 9), (2, 0, 10**9)]
    payload = json.loads(out.read_text())["payload"]
    assert payload["moments"] == ["1", "3", "15"]
    assert [row["holds"] for row in payload["congruences"]] == [True, True]


def test_moments_builds_each_sweep_kernel_once(tmp_path, monkeypatch):
    from speclat import moments

    plans = count_calls(monkeypatch, moments, "_congruence_sweep")
    sweeps = count_calls(monkeypatch, moments, "_moment_sweep")
    cfg = dict(HONEYCOMB_CFG)
    congruences = [[2, 1, 0], [3, 0, 2], [3, 1, 1], [2, 1, 0]]
    cfg["moments"] = {"k_max": 2, "congruences": congruences, "series": False}
    code, out = run(tmp_path, cfg, ["moments", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    # one plan per congruence, and for k > 0 its kernel built for its caps and run once
    assert [args[1:] for args in plans] == [(2, 1, 0), (3, 0, 2), (3, 1, 1), (2, 1, 0)]
    assert [(K, q) for _, _, K, q in sweeps] == [(2, 2), (9, 9), (2, 2)]
    rows = json.loads(out.read_text())["payload"]["congruences"]
    assert [row["holds"] for row in rows] == [True] * 4


@pytest.mark.parametrize(
    "block",
    [
        {"series_z": 5},  # inside the spectrum [0, 9]: the log expansion diverges
        {"k_max": "x"},
        {"series_z": 10, "series_K": "y"},
    ],
)
def test_walks_bad_input_exit_2(tmp_path, capsys, block):
    cfg = dict(HONEYCOMB_CFG)
    cfg["walks"] = block
    code = main(["walks", "--config", write_cfg(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("speclat: config error: walks ")
    assert "Traceback" not in err


def test_padic_without_prime_exit_2(tmp_path, capsys):
    assert main(["padic", "--config", write_cfg(tmp_path, HONEYCOMB_CFG)]) == 2
    assert "requires a prime p" in capsys.readouterr().err


def test_resource_cap_exit_3(tmp_path):
    cfg = dict(HONEYCOMB_CFG)
    cfg["bn"] = {"N": 101}
    assert main(["bn", "--config", write_cfg(tmp_path, cfg)]) == 3


def test_split_primes_that_run_out_exit_3(tmp_path, capsys):
    # m_0..m_1000 of {0, 1, 2000} need a 3192-bit modulus of primes 1 mod 2000001 below 2^31
    cfg = {"dimension": 1, "points": [{"a": [0]}, {"a": [1]}, {"a": [2000]}],
           "moments": {"k_max": 1000, "series": False}}
    start = time.process_time()
    code, out = run(tmp_path, cfg, ["moments", "--config", write_cfg(tmp_path, cfg)])
    assert time.process_time() - start < 1
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == (
        "speclat: resource cap: primes 1 mod 2000001 below 2147483648 run out before 3192 bits\n")


def test_a_failed_certificate_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # power sums lifted over one split modulus too few: m no longer divides them
    search = specpoly._split_moduli
    monkeypatch.setattr(specpoly, "_split_moduli", lambda *args: search(*args)[:-1])
    cfg = dict(HONEYCOMB_CFG, moments={"k_max": 20})
    code, out = run(tmp_path, cfg, ["moments", "--config", write_cfg(tmp_path, cfg)])
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        "speclat: power sums over (21, 21) are not all divisible by 441\n")


def test_bn_size_limit_lowers_the_cap_only(tmp_path, capsys):
    cfg = dict(HONEYCOMB_CFG, bn={"N": 1, "size_limit": 10001})
    assert main(["bn", "--config", write_cfg(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == (
        "speclat: config error: bn size_limit must be an integer from 1 to 10^4, got 10001\n")
    code, out = run(tmp_path, cfg, ["bn", "--config", write_cfg(tmp_path, cfg), "--size-limit",
                                    "10000"])
    assert code == 0 and json.loads(out.read_text())["payload"]["degree"] == 1


@pytest.mark.parametrize("block, code, err", [
    ({"N": 3}, 0, ""),
    ({"N": 3, "size_limit": 500}, 0, ""),
    ({"N": 15}, 3, "speclat: resource cap: 15^2 torsion characters exceed cap 200\n"),
    ({"N": 15, "size_limit": 100}, 3,
     "speclat: resource cap: 15^2 torsion characters exceed cap 100\n"),
], ids=["default", "above-the-cap", "past-the-cap", "below-the-cap"])
def test_bn_checks_the_lower_of_size_limit_and_the_size_cap(tmp_path, capsys, monkeypatch,
                                                            block, code, err):
    # the size cap lowered in limits after the CLI is imported: the default size_limit
    # (10^4) and a size_limit above the cap both meet the cap, the lower one
    monkeypatch.setattr(limits, "DEFAULT_SIZE_LIMIT", 200)
    cfg = dict(HONEYCOMB_CFG, bn=block)
    assert run(tmp_path, cfg, ["bn", "--config", write_cfg(tmp_path, cfg)])[0] == code
    assert capsys.readouterr().err == err


def test_a_verify_criterion_that_raises_exits_1_with_one_line(capsys, monkeypatch):
    from speclat import verify

    def broken(ctx):
        raise IntegralityViolation("b_6 overflows its coefficient bound")

    (cid, example, _), *rest = verify.CRITERIA
    monkeypatch.setattr(verify, "CRITERIA", [(cid, example, broken), *rest])
    assert main(["verify", "honeycomb"]) == 1
    # no record, and no PASS or FAIL line: the one line of the failure
    assert capsys.readouterr() == ("", "speclat: b_6 overflows its coefficient bound\n")


def test_verify_unknown_example_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuch"])
    assert exc.value.code == 2


def test_verify_chebyshev(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "chebyshev", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["passed"] is True
    assert len(payload["results"]) == 10
    err = capsys.readouterr().err
    assert "PASS c02-cheb-values-at-6" in err


@pytest.mark.parametrize("example", ["chebyshev", "honeycomb"])
def test_verify_writes_the_suite_payload(tmp_path, capsys, example):
    from speclat.verify import CRITERIA, run_suite

    out = tmp_path / "verify.json"
    assert main(["verify", example, "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == record_of("verify", example, run_suite(example))
    # one line per criterion of the example, in registry order
    expected = [f"PASS {cid}" for cid, tag, _ in CRITERIA if tag == example]
    assert capsys.readouterr().err.splitlines() == expected


json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**64, 2**200),
    st.integers(-(2**200), -(2**64)),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.floats().map(np.float64),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
)
# keys holding format, brace and control characters
json_keys = st.one_of(
    st.text(),
    st.sampled_from(["%", "%s", "%%", "%(a)s", "{", "}", "{%s}", "a%d{}"]),
    st.text(st.characters(max_codepoint=0x1F)),
)
# what one column of a uniform list holds: scalars of one type, finite floats
# with the odd non-finite or -0.0, mixed leaves, or any subtree
uniform_scalars = st.sampled_from([
    st.floats(allow_nan=False, allow_infinity=False),
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from([math.nan, math.inf, -math.inf, -0.0])),
    st.floats().map(np.float64),
    st.one_of(st.floats(), st.sampled_from(
        [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310, 1e300])),
    st.integers(),
    st.one_of(st.integers(-(2**200), 2**200), st.integers(2**64, 2**70)),
    st.booleans(),
    st.none(),
    st.text(),
])


def columns(kids):
    """Strategies, one per column."""
    return st.one_of(uniform_scalars, st.just(json_leaves), st.just(kids))


def uniform_rows(kids):
    """Lists of equal-length lists (or tuples, or both), column by column."""
    return st.lists(columns(kids), max_size=4).flatmap(
        lambda cols: st.tuples(
            st.lists(st.tuples(*cols), max_size=6),
            st.sampled_from(["list", "tuple", "both"]),
        ).map(lambda drawn: [
            list(row) if drawn[1] == "list" or (drawn[1] == "both" and i % 2) else row
            for i, row in enumerate(drawn[0])
        ])
    )


def uniform_dicts(kids):
    """Lists of dicts with one key set, every other one in reverse key order."""
    return st.dictionaries(json_keys, columns(kids), max_size=4).flatmap(
        lambda spec: st.lists(st.fixed_dictionaries(spec), max_size=6).map(
            lambda rows: [dict(reversed(r.items())) if i % 2 else r for i, r in enumerate(rows)]
        )
    )


json_trees = st.recursive(
    json_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.text(), kids, max_size=5),
        uniform_scalars.flatmap(lambda s: st.lists(s, max_size=8)),
        uniform_rows(kids),
        uniform_dicts(kids),
        st.lists(st.lists(kids, max_size=3), max_size=4),  # ragged
        st.lists(st.dictionaries(json_keys, kids, max_size=3), max_size=4),  # differing keys
    ),
    max_leaves=40,
)


@given(json_trees)
def test_record_writer_matches_json_dumps(tree):
    assert json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)
    record = record_of("spectrum", "abc123", {"tree": tree})
    assert record_text(record) == json.dumps(record, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("leaf", [{1, 2}, object()])
def test_record_writer_rejects_non_json(leaf):
    with pytest.raises(TypeError):
        json_text({"payload": [1.5, leaf]})


@pytest.mark.parametrize(
    "tree",
    [
        [[1.5, {1, 2}], [2.5, {3}]],  # a bad leaf in a column of equal-length lists
        [{"a": [0, object()]}, {"a": [1, object()]}],
        [{"a": {"b": [{1: 2}]}}, {"a": {"b": [{1: 3}]}}],  # int keys, one key set
        [{"a": {"b": {1: 2}}}, {"a": {"b": {3: 4}}}],  # int keys, differing key sets
        [{"a": 1, 2: 3}, {"a": 4, 2: 5}],  # mixed keys at the column's own level
        [np.int64(3), np.int64(4)],
    ],
)
def test_record_writer_rejects_non_json_in_uniform_column(tree):
    with pytest.raises(TypeError):
        json_text({"payload": tree})


@pytest.mark.parametrize(
    "dimension, points, params",
    [
        (2, HONEYCOMB_CFG["points"], {"N": 384, "grid": 64, "cdf_at": [1.0]}),
        (3, [{"a": a, "c": 1} for a in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1])],
         {"N": 48, "grid": 16, "cdf_at": [4.0]}),
    ],
)
def test_spectrum_record_matches_json_dumps(dimension, points, params):
    ps = WeightedPointSet(dimension, [(p["a"], p["c"]) for p in points])
    spec = COMMANDS["spectrum"]
    defaults = {key: p.default for key, p in spec.params.items()}
    payload = spec.plan(SpectralContext(ps), defaults | params)()
    assert len(payload["levels"]) > 1000 and len(payload["grid"]["values"]) == 4096
    record = record_of("spectrum", "abc123", payload)
    assert record_text(record) == json.dumps(rows_of(record), sort_keys=True, indent=2) + "\n"


def rows_of(tree):
    """``tree`` with each table replaced by the list of its rows."""
    if isinstance(tree, Table):
        return table_rows(tree)
    if isinstance(tree, dict):
        return {key: rows_of(value) for key, value in tree.items()}
    return [rows_of(item) for item in tree] if isinstance(tree, list) else tree


# a table's row: slots in lists and dicts of fixed width, some of them empty
row_shapes = st.recursive(
    st.sampled_from([..., [], {}]),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(json_keys, kids, max_size=3)),
    max_leaves=6,
).filter(lambda row: isinstance(row, (list, dict)) and ... in leaves(row))


@st.composite
def tables(draw):
    """A table of 0, 1 or many rows, each slot's column of one scalar type or
    mixed; a column past 60 rows repeats its first 60."""
    row = draw(row_shapes)
    count = draw(st.sampled_from([0, 1, 2, 7, 60, 1500]))
    size = min(count, 60)
    columns = [
        draw(st.lists(draw(st.one_of(uniform_scalars, st.just(json_leaves))),
                      min_size=size, max_size=size))
        for _ in leaves(row)
    ]
    return Table(row, tuple(list(itertools.islice(itertools.cycle(c), count)) for c in columns))


@given(tables(), st.integers(0, 3))
def test_table_text_matches_json_dumps_of_its_rows(table, depth):
    pad = "\n" + "  " * depth
    rows = table_rows(table)
    assert len(rows) == len(table)
    assert json_text(table, pad) == json.dumps(rows, sort_keys=True, indent=2).replace("\n", pad)
    # the CSV reads a table's records and a cached record's rows alike
    assert list(row_leaves(table)) == list(map(tuple, row_leaves(rows)))
    record = record_of("spectrum", "abc123", {"rows": table})
    assert record_text(record) == json.dumps(rows_of(record), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("count", [LONG_FLOAT_COLUMN - 1, LONG_FLOAT_COLUMN, TABLE_BLOCK + 5,
                                   2 * TABLE_BLOCK + LONG_FLOAT_COLUMN])
def test_long_float_columns_go_through_the_kernel(monkeypatch, count):
    import speclat.floattext

    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310, 1e300, 0.1, 2.0]
    rng = np.random.default_rng(count)
    values = (10 ** rng.uniform(-6, 17, count - len(specials))).tolist() + specials
    rng.shuffle(values)
    kernel = count_calls(monkeypatch, speclat.floattext, "float_texts")
    # float64 arrays, and a list, which the kernel never reads
    table = Table({"n": ..., "x": [..., ...], "y": ...},
                  (np.arange(count), np.array(values), np.array(values[::-1]), values))
    text = json_text(table, "\n  ")
    assert text == json.dumps(table_rows(table), sort_keys=True, indent=2).replace("\n", "\n  ")
    # a call per float64 array column of each block of LONG_FLOAT_COLUMN rows or more
    blocks = [min(count - start, TABLE_BLOCK) for start in range(0, count, TABLE_BLOCK)]
    assert [len(column) for column, _ in kernel] == [
        size for size in blocks if size >= LONG_FLOAT_COLUMN for _ in range(2)]


# floats the kernel leaves to the scalar writer, and short reprs it may
FLOAT_EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-310, 1e300, 0.1, 2.5, 1e-5]


@settings(max_examples=40)
@given(st.sampled_from([TABLE_BLOCK - 1, TABLE_BLOCK, TABLE_BLOCK + 1,
                        LONG_FLOAT_COLUMN - 1, LONG_FLOAT_COLUMN, LONG_FLOAT_COLUMN + 1]),
       st.lists(st.floats() | st.sampled_from(FLOAT_EDGES), min_size=1, max_size=30),
       st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=30),
       st.integers(0, 3))
def test_array_columns_are_written_as_their_lists(count, floats, ints, depth):
    x, n = np.resize(np.array(floats), count), np.resize(np.array(ints, dtype=np.int64), count)
    table = Table({"n": ..., "x": [..., ...]}, (n, x, x[::-1]))
    lists = Table(table.row, tuple(column.tolist() for column in table.columns))
    pad = "\n" + "  " * depth
    rows = [{"n": a, "x": [b, c]} for a, b, c in zip(*lists.columns)]
    assert json_text(table, pad) == json.dumps(rows, sort_keys=True, indent=2).replace("\n", pad)
    # the CSV reads the same Python scalars from an array as from its list (repr: NaN too)
    assert [list(map(repr, row)) for row in row_leaves(table)] == [
        list(map(repr, row)) for row in row_leaves(lists)]


def test_bn_record_is_json_dumps_through_every_writer(tmp_path, capsys):
    cfg = dict(HONEYCOMB_CFG)
    cfg["bn"] = {"N": 12, "levels": [0, 1, 9], "divisor_checks": [[4, 12]],
                 "evaluate_at": [10, -3, 10**30]}
    path = write_cfg(tmp_path, cfg)
    job = JobConfig.from_file(path, "bn", {})
    payload = COMMANDS["bn"].plan(SpectralContext(job.point_set), job.params)()
    expected = json.dumps(record_of("bn", job.hash(), payload), sort_keys=True, indent=2) + "\n"
    argv, cache, out = ["bn", "--config", path], tmp_path / "cache", tmp_path / "out.json"
    assert main(argv + ["--cache-dir", str(cache)]) == 0  # stdout, and the cache file
    assert capsys.readouterr().out == expected
    [cached] = cache.glob("bn-*.json")
    assert cached.read_bytes() == expected.encode()
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode()
    assert main(argv + ["--cache-dir", str(cache)]) == 0  # a hit, on stdout
    assert capsys.readouterr().out == expected


class RecordingStream:
    """A stdout that keeps what it is handed, and the length of its longest string."""

    def __init__(self):
        self.parts, self.longest = [], 0

    def write(self, text):
        self.parts.append(text)
        self.longest = max(self.longest, len(text))

    def writelines(self, parts):
        for text in parts:
            self.write(text)


def test_no_string_written_is_longer_than_a_table_block(tmp_path, monkeypatch):
    cfg = dict(HONEYCOMB_CFG)
    cfg["spectrum"] = {"N": 384, "grid": 64}  # 12150 levels (3 blocks), 4096 grid values
    stream = RecordingStream()
    monkeypatch.setattr(sys, "stdout", stream)
    argv = ["spectrum", "--config", write_cfg(tmp_path, cfg), "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    payload = json.loads("".join(stream.parts))["payload"]
    tables = [(payload["levels"], "\n    "), (payload["grid"]["values"], "\n      ")]
    assert len(tables[0][0]) > 2 * TABLE_BLOCK
    # the longest text of a block of rows, its brackets included
    block = max(len(json.dumps(rows[start:start + TABLE_BLOCK], sort_keys=True, indent=2)
                    .replace("\n", pad))
                for rows, pad in tables for start in range(0, len(rows), TABLE_BLOCK))
    assert 0 < stream.longest <= block


def test_csv_goes_out_a_block_of_rows_at_a_time(tmp_path, monkeypatch):
    # neither the whole CSV as one string nor a string per row
    cfg = dict(HONEYCOMB_CFG, spectrum={"N": 384})  # a header and 12150 levels
    stream = RecordingStream()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["spectrum", "--config", write_cfg(tmp_path, cfg), "--format", "csv"]) == 0
    rows = [part.count("\r\n") for part in stream.parts]
    assert rows == [TABLE_BLOCK, TABLE_BLOCK, 12151 - 2 * TABLE_BLOCK]


@pytest.mark.parametrize(
    "command, block",
    [
        ("spectrum", {"N": 6, "grid": 5, "cdf_at": [1.0]}),
        ("spectrum", {"N": 6}),
        ("walks", {"N": 3, "export_graph": True}),
        ("padic", {"p": 7}),
        ("padic", {"p": 7, "z_values": []}),
    ],
)
def test_csv_of_computed_payload_equals_csv_of_cached_record(tmp_path, monkeypatch, command, block):
    cfg = dict(HONEYCOMB_CFG, **{command: block})
    argv = [command, "--config", write_cfg(tmp_path, cfg)]
    cache = ["--cache-dir", str(tmp_path / "cache")]
    code, computed = run(tmp_path, cfg, argv + ["--format", "csv"], name="computed.csv")
    assert code == 0
    assert run(tmp_path, cfg, argv + cache, name="stored.json")[0] == 0

    def recompute(ctx, params):
        raise AssertionError("the cached record was not read")

    cli = sys.modules["speclat.cli"]
    monkeypatch.setitem(cli.COMMANDS, command, cli.COMMANDS[command]._replace(plan=recompute))
    code, cached = run(tmp_path, cfg, argv + cache + ["--format", "csv"], name="cached.csv")
    assert code == 0 and cached.read_bytes() == computed.read_bytes()


# -- strict parameters ------------------------------------------------------------


@pytest.mark.parametrize(
    "command, block",
    [
        ("bn", {"levels": ["x"]}),
        ("bn", {"divisor_checks": [[2]]}),
        ("bn", {"evaluate_at": "abc"}),
        ("bn", {"size_limit": 2.5}),
        ("moments", {"congruences": [[4, 1, 0]]}),  # 4 is not prime
        ("moments", {"levels": [0]}),
        ("moments", {"k_max": 3.7}),
        ("moments", {"k_max": "3"}),
        ("moments", {"k_max": True}),
        ("moments", {"series": "no"}),
        ("spectrum", {"cdf_at": ["x"]}),
        ("spectrum", {"grid": 1}),
        ("spectrum", {"tolerance": -1}),
        ("mahler", {"z": 12.0, "resolution": 1}),
        ("mahler", {"z": None}),
        ("padic", {"p": 7, "z_values": ["a"]}),
        ("walks", {"export_graph": "yes"}),
    ],
)
def test_malformed_parameter_exit_2_before_hashing(tmp_path, capsys, monkeypatch, command, block):
    def refuse(self):
        raise AssertionError("a malformed config was hashed")

    monkeypatch.setattr("speclat.cli.JobConfig.hash", refuse)
    cfg = dict(HONEYCOMB_CFG)
    cfg[command] = block
    code = main([command, "--config", write_cfg(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"speclat: config error: {command} ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "point", [{"a": [1.5, 0], "c": 1}, {"a": [1, 0], "c": 1.5}, {"a": [1, 0], "c": True}]
)
def test_non_integer_point_set_exit_2(tmp_path, capsys, point):
    cfg = dict(HONEYCOMB_CFG)
    cfg["points"] = [point] + HONEYCOMB_CFG["points"][1:]
    code = main(["bn", "--config", write_cfg(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("speclat: config error: invalid point set: ")
    assert "Traceback" not in err


def test_number_kept_as_given(tmp_path):
    # 10 and 10.0 are both valid z and stay distinct in the record
    hashes = []
    for z in (10, 10.0):
        cfg = dict(HONEYCOMB_CFG)
        cfg["mahler"] = {"z": z, "methods": ["limit"], "hilbert": False}
        code, out = run(tmp_path, cfg, ["mahler", "--config", write_cfg(tmp_path, cfg)])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["payload"]["z"] == z and type(record["payload"]["z"]) is type(z)
        hashes.append(record["config_hash"])
    assert hashes[0] != hashes[1]


# -- cache tags -------------------------------------------------------------------


def test_cache_entry_of_another_algorithm_is_recomputed(tmp_path, monkeypatch):
    cfg = dict(CHEB_CFG)
    cfg["bn"] = {"N": 2}
    cfg_path = write_cfg(tmp_path, cfg)
    cache = tmp_path / "cache"
    argv = ["bn", "--config", cfg_path, "--cache-dir", str(cache), "--out"]
    with monkeypatch.context() as m:
        m.setattr("speclat.cli.ALGORITHM", "superseded")
        assert main(argv + [str(tmp_path / "old.json")]) == 0
    (stale,) = cache.glob("bn-*.json")
    record = json.loads(stale.read_text())
    record["payload"]["degree"] = 999  # a valid record the current algorithm never wrote
    stale.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    out = tmp_path / "new.json"
    assert main(argv + [str(out)]) == 0
    assert json.loads(out.read_text())["payload"]["degree"] == 2
    assert len(list(cache.glob("bn-*.json"))) == 2


def test_quadrature_at_resolution_2_halves_to_level_1(tmp_path, monkeypatch):
    # honeycomb W takes 9, 1, 1, 1 on the level-2 grid and 9 on the level-1 grid;
    # an "alg1" cache entry (error 0.0: the level-2 grid read twice) is not served
    cfg = dict(HONEYCOMB_CFG)
    cfg["mahler"] = {"z": 12.0, "methods": ["torus-quadrature"], "resolution": 2,
                     "hilbert": False}
    cache = tmp_path / "cache"
    argv = ["mahler", "--config", write_cfg(tmp_path, cfg), "--cache-dir", str(cache), "--out"]
    with monkeypatch.context() as m:
        m.setattr("speclat.cli.ALGORITHM", "alg1")
        assert main(argv + [str(tmp_path / "old.json")]) == 0
    (stale,) = cache.glob("mahler-alg1-*.json")
    record = json.loads(stale.read_text())
    record["payload"]["mahler"]["torus-quadrature"]["error"] = 0.0
    stale.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    out = tmp_path / "new.json"
    assert main(argv + [str(out)]) == 0
    result = json.loads(out.read_text())["payload"]["mahler"]["torus-quadrature"]
    fine = (3 * 11**3) ** -0.25
    assert result["value"] == pytest.approx(fine, rel=1e-12)
    assert result["error"] == pytest.approx(1 / 3 - fine, rel=1e-12)
    assert result == {"value": 0.1257984159300823, "error": 0.207534917403251}


# -- one context per job ------------------------------------------------------------


def count_calls(monkeypatch, module, name):
    """Count the calls of module.name, rebound wherever a speclat module binds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "speclat" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize(
    "command, levels, sweeps",
    [
        ("bn", 3, 0),  # b_6, b_2 and b_3
        ("moments", 0, 3),  # the moments, the level-4 moments, a sweep mod 2 for the congruence
        ("walks", 1, 0),
        ("spectrum", 0, 0),
        ("mahler", 0, 1),  # one reading serves both moment series
        ("padic", 1, 0),  # the level-6 rows, read p-adically for all eight z values: no b_6
    ],
)
def test_readme_job_computes_each_object_once(tmp_path, monkeypatch, command, levels, sweeps):
    from speclat import graph, lattice, moments, specpoly

    lattices = count_calls(monkeypatch, lattice, "difference_lattice")
    grouped = count_calls(monkeypatch, specpoly, "_character_rows")
    lifted = count_calls(monkeypatch, specpoly, "_class_factor_lift")
    summed = count_calls(monkeypatch, specpoly, "_character_power_sums")
    swept = count_calls(monkeypatch, moments, "_moment_sweep")
    graphs = count_calls(monkeypatch, graph, "build_graph")
    walked = count_calls(monkeypatch, graph, "walk_totals")
    assert main([command, "--config", write_cfg(tmp_path, readme_config()),
                 "--out", str(tmp_path / "out.json")]) == 0
    assert len(lattices) == 1
    assert len(grouped) == levels
    assert len({N for _, N in grouped}) == levels
    assert len(lifted) == (0 if command == "padic" else levels)
    assert len(summed) + len(swept) == sweeps
    # walks: one graph, and every length 2k, k <= max(k_max, series_K) = 4, read in one pass
    assert len(graphs) == (command == "walks")
    assert [K for _, K in walked] == ([4] if command == "walks" else [])


@pytest.mark.parametrize(
    "block, K",
    [
        ({"N": 3, "k_max": 2, "series_z": 10, "series_K": 5}, 5),  # the series reads past k_max
        ({"N": 3, "k_max": 5, "series_z": 10, "series_K": 2}, 5),
        ({"N": 3, "k_max": 1, "series_K": 4}, 1),  # no series_z: series_K is not read
        ({"N": 3, "k_max": 0, "series_z": 10, "series_K": 0}, 0),
    ],
    ids=["series-past-k-max", "k-max-past-series", "no-series", "no-lengths"],
)
def test_walks_enumerates_each_length_once(tmp_path, monkeypatch, block, K):
    from speclat import graph

    graphs = count_calls(monkeypatch, graph, "build_graph")
    walked = count_calls(monkeypatch, graph, "walk_totals")
    cfg = dict(HONEYCOMB_CFG, walks=block)
    code, out = run(tmp_path, cfg, ["walks", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    # one pass reads every length to K = max(k_max, series_K)
    assert len(graphs) == 1 and [k for _, k in walked] == [K]
    payload = json.loads(out.read_text())["payload"]
    assert len(payload["walk_totals"]) == len(payload["per_class"]) == block["k_max"]
    assert payload.get("series_check", {"ok": True})["ok"] is True


@pytest.mark.parametrize(
    "command, block, repeated, module, name",
    [
        ("bn", {"N": 6, "levels": [9]}, "levels", "specpoly", "level_multiplicity"),
        ("moments", {"k_max": 4, "levels": [3]}, "levels", "specpoly", "_character_power_sums"),
        ("mahler", {"z": 12.0, "methods": ["limit"], "hilbert": False}, "methods",
         "analysis", "_ladder"),
    ],
)
def test_a_repeated_value_is_computed_once(tmp_path, monkeypatch, command, block, repeated,
                                           module, name):
    import importlib

    calls = count_calls(monkeypatch, importlib.import_module(f"speclat.{module}"), name)
    payloads, counts = [], []
    for values in (block[repeated], block[repeated] * 2):
        cfg = dict(HONEYCOMB_CFG, **{command: dict(block, **{repeated: values})})
        code, out = run(tmp_path, cfg, [command, "--config", write_cfg(tmp_path, cfg)])
        assert code == 0
        payloads.append(json.loads(out.read_text())["payload"])
        counts.append(len(calls))
        calls.clear()
    assert payloads[0] == payloads[1]
    # moments: one power sum for m_0..m_4, then one for the level
    assert counts == [1 + (command == "moments")] * 2


def test_padic_builds_no_polynomial(tmp_path, monkeypatch):
    from speclat import specpoly

    built = []
    original = specpoly.SpectralFactors.__init__

    def counted(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(specpoly.SpectralFactors, "__init__", counted)
    grouped = count_calls(monkeypatch, specpoly, "_character_rows")
    lifted = count_calls(monkeypatch, specpoly, "_class_factor_lift")
    cfg = dict(HONEYCOMB_CFG, padic={"p": 31})
    code, out = run(tmp_path, cfg, ["padic", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0 and len(json.loads(out.read_text())["payload"]["rows"]) == 31
    assert main(["padic", "--config", write_cfg(tmp_path, readme_config(), "readme.json"),
                 "--out", str(tmp_path / "readme-out.json")]) == 0
    assert [N for _, N in grouped] == [30, 6]
    assert lifted == [] and built == []


def test_walks_export_graph_capped_before_any_work(tmp_path, monkeypatch, capsys):
    from speclat import graph

    built = count_calls(monkeypatch, graph, "build_graph")
    cfg = dict(HONEYCOMB_CFG, walks={"N": 100, "k_max": 1, "export_graph": True})
    code, out = run(tmp_path, cfg, ["walks", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0 and len(json.loads(out.read_text())["payload"]["graph"]["black"]) == 10**4
    assert len(built) == 1
    # 101^2 vertices per colour are past the cap of 10^4
    capsys.readouterr()
    cfg = dict(HONEYCOMB_CFG, walks={"N": 101, "k_max": 1, "export_graph": True})
    code, out = run(tmp_path, cfg, ["walks", "--config", write_cfg(tmp_path, cfg)], "capped.json")
    err = capsys.readouterr().err
    assert code == 3 and not out.exists()
    assert err.count("\n") == 1 and "101^2" in err
    assert len(built) == 1
    # without the export the level is uncapped
    cfg = dict(HONEYCOMB_CFG, walks={"N": 101, "k_max": 1})
    assert run(tmp_path, cfg, ["walks", "--config", write_cfg(tmp_path, cfg)])[0] == 0


@pytest.mark.parametrize("hilbert, averaged", [(True, [16, 32]), (False, [])])
def test_mahler_builds_each_rung_once(tmp_path, monkeypatch, hilbert, averaged):
    from speclat import analysis

    built, original = [], analysis.character_rows

    def recorded(w, N):
        built.append(N)
        return original(w, N)

    monkeypatch.setattr(analysis, "character_rows", recorded)
    readings = count_calls(monkeypatch, analysis, "_reading")
    cfg = dict(HONEYCOMB_CFG, mahler={"z": 12.0, "hilbert": hilbert})
    assert run(tmp_path, cfg, ["mahler", "--config", write_cfg(tmp_path, cfg)])[0] == 0
    # the limit ladder streams 16 and 32, the quadrature 128 with its half, the
    # Hilbert ladder its own rungs, each read once
    assert built == [16, 32, 128] + averaged
    assert sum(not log for _, _, log in readings) == len(averaged)  # 1 / (z - v) readings


def test_padic_size_check_only_when_values_are_asked(tmp_path):
    # b_102 has 102^2 characters, past the cap: refused only when a value is asked
    for z_values, code in (([], 0), ([0], 3)):
        cfg = dict(HONEYCOMB_CFG, padic={"p": 103, "z_values": z_values})
        assert main(["padic", "--config", write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "out.json")]) == code


@pytest.mark.parametrize("nu", [100_000, 30_000_000])
def test_padic_huge_nu_exit_3_before_work(tmp_path, monkeypatch, capsys, nu):
    # (2^nu - 1)^2 characters: refused from nu before 2^nu is formed
    from speclat import arith

    fields = count_calls(monkeypatch, arith, "primitive_modulus")
    cfg = dict(HONEYCOMB_CFG, padic={"p": 2})
    code, _ = run(tmp_path, cfg, ["padic", "--config", write_cfg(tmp_path, cfg), "--nu", str(nu)])
    err = capsys.readouterr().err
    assert code == 3 and fields == []
    assert err == f"speclat: resource cap: (2^{nu} - 1)^2 torsion characters exceed cap 10000\n"


@pytest.mark.parametrize("p", [2**25 - 39, 2**31 - 1, 2**61 - 1, 10**30 + 57])
def test_padic_every_residue_of_a_large_prime_exit_3(tmp_path, capsys, p):
    # no z_values: every residue mod p is asked for, refused before any is listed
    cfg = dict(HONEYCOMB_CFG, padic={"p": p})
    start = time.perf_counter()
    code, _ = run(tmp_path, cfg, ["padic", "--config", write_cfg(tmp_path, cfg)])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert capsys.readouterr().err == (
        f"speclat: resource cap: ({p}^1 - 1)^2 torsion characters exceed cap 10000\n")


def test_bn_huge_level_cap_message(tmp_path, capsys):
    # N^2 has 4401 digits, past the digit limit of int-to-str: the message names N^2
    cfg = dict(HONEYCOMB_CFG, bn={"N": 10**2200})
    code, _ = run(tmp_path, cfg, ["bn", "--config", write_cfg(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"speclat: resource cap: {10**2200}^2 torsion characters exceed cap 10000\n"


# the first computation each job would reach: a b_N, or a walk total
WORK = {"bn": "speclat.specpoly._class_factor_lift", "walks": "speclat.graph.walk_totals"}


@pytest.mark.parametrize(
    "command, block, level",
    [
        # b_40 would take about a second before the divisor check's b_101 is refused
        ("bn", {"N": 40, "divisor_checks": [[1, 101]]}, 101),
        # levels are checked in the order the job reads them: N, then d and n of each pair
        ("bn", {"N": 150, "divisor_checks": [[101, 150]]}, 150),
        ("bn", {"N": 6, "divisor_checks": [[2, 6], [1, 202], [101, 6]]}, 202),
        # the series check reads b_101, after every walk total is enumerated
        ("walks", {"N": 101, "series_z": 10}, 101),
    ],
    ids=["bn-divisor", "bn-level", "bn-order", "walks-series"],
)
def test_every_level_capped_before_any_work(tmp_path, monkeypatch, capsys, command, block, level):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} worked before every level was checked")

    monkeypatch.setattr(WORK[command], refuse)
    cfg = dict(HONEYCOMB_CFG, **{command: block})
    start = time.perf_counter()
    code, out = run(tmp_path, cfg, [command, "--config", write_cfg(tmp_path, cfg)])
    assert time.perf_counter() - start < 1.0
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == (
        f"speclat: resource cap: {level}^2 torsion characters exceed cap 10000\n")


@pytest.mark.parametrize("n", [20, 40])
@pytest.mark.parametrize(
    "command, block, K",
    [
        ("moments", {"k_max": 2}, 2),
        # z = 10^6 needs moments to k = 3
        ("mahler", {"z": 1e6, "methods": ["moment-series"], "hilbert": False}, 3),
    ],
)
def test_exact_moments_of_a_simplex_capped_before_any_work(
    tmp_path, monkeypatch, capsys, n, command, block, K
):
    # e_1..e_n and -(e_1 + ... + e_n): every tight reach is at least 1, so the
    # torus of the exact moments holds at least (K + 1)^n characters
    def refuse(*args, **kwargs):
        raise AssertionError("the exact moments worked before the torus was capped")

    monkeypatch.setattr("speclat.moments._tight_form", refuse)
    monkeypatch.setattr("speclat.moments._character_power_sums", refuse)
    points = [{"a": [int(i == j) for j in range(n)], "c": 1} for i in range(n)]
    cfg = {"dimension": n, "points": [*points, {"a": [-1] * n, "c": 1}], command: block}
    start = time.perf_counter()
    code, out = run(tmp_path, cfg, [command, "--config", write_cfg(tmp_path, cfg)])
    assert time.perf_counter() - start < 1.0
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == (f"speclat: resource cap: moments to k = {K} need "
                                       f"{K + 1}^{n} characters or more, past cap 10000000\n")


def simplex_cfg(n, *extra):
    """The points 0, e_1, .., e_n and ``extra``, unit weights."""
    points = [[0] * n, *([int(i == j) for j in range(n)] for i in range(n)), *extra]
    return {"dimension": n, "points": [{"a": list(a), "c": 1} for a in points]}


@pytest.mark.parametrize(
    "n, extra, congruence, message",
    [
        # (h + 1)^n past the cap before the tight form: h = 2^8 in 3-D, 2^6 in 4-D
        (3, [], [2, 1, 7], "257^3 cells of a moment sweep exceed cap 10000000"),
        (4, [], [2, 1, 5], "65^4 cells of a moment sweep exceed cap 10000000"),
        # the tight box, reach (2, 2, 2) at h = 2^7, and reach (2, 300) at h = 2^8
        (3, [[2, 2, 2]], [2, 1, 6],
         "a moment sweep to k = 128 needs 16974593 cells, past cap 10000000"),
        (2, [[300, 300]], [2, 1, 7],
         "a moment sweep to k = 256 needs 39398913 cells, past cap 10000000"),
    ],
)
def test_congruence_sweep_capped_before_any_work(
    tmp_path, monkeypatch, capsys, n, extra, congruence, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("worked before the congruence sweep was capped")

    for name in ("moment_sequence", "moment_sequence_N", "_moment_sweep"):
        monkeypatch.setattr(f"speclat.moments.{name}", refuse)
    monkeypatch.setattr("speclat.context._moments", refuse)
    cfg = simplex_cfg(n, *extra)
    cfg["moments"] = {"k_max": 2, "levels": [2], "congruences": [[2, 1, 1], congruence]}
    cache = tmp_path / "cache"
    start = time.perf_counter()
    code = main(["moments", "--config", write_cfg(tmp_path, cfg), "--cache-dir", str(cache)])
    assert time.perf_counter() - start < 1.0
    assert code == 3 and not list(cache.glob("*.json"))
    assert capsys.readouterr().err == f"speclat: resource cap: {message}\n"


HEAVY_LINE = {"dimension": 1, "points": [{"a": [0], "c": 2**2000}, {"a": [1], "c": 2**2000}]}


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        # the level's split moduli run out: found once the exact moments were summed (5 s, 37 s)
        ("moments", dict(HEAVY_LINE, moments={"k_max": 32, "levels": [625000], "series": False}),
         "primes 1 mod 625000 below 2147483648 run out before 128085 bits"),
        ("moments", dict(HEAVY_LINE, moments={"k_max": 64, "levels": [312500], "series": False}),
         "primes 1 mod 312500 below 2147483648 run out before 256148 bits"),
        # 16^6 characters: no rung of either ladder within the float cap, found once the
        # moment series had read m_0..m_11 (3 s), as "limit method did not stabilize"
        ("mahler", dict(simplex_cfg(6), mahler={"z": 130, "methods": ["moment-series", "limit"],
                                                "hilbert": True, "hilbert_tol": 1e-6}),
         "16^6 character values exceed cap 10000000"),
    ],
    ids=["moments-32", "moments-64", "mahler-simplex6"],
)
def test_refused_in_the_plan_before_any_power_sum(tmp_path, monkeypatch, capsys, command, cfg,
                                                  message):
    plan, planned, ran = specpoly._character_power_sums, [], []

    def watched(f, K, shape):
        planned.append(shape)
        run = plan(f, K, shape)
        return lambda: ran.append(shape) or run()

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "speclat" and getattr(mod, "_character_power_sums", 0) is plan:
            monkeypatch.setattr(mod, "_character_power_sums", watched)
    start = time.process_time()
    code, out = run(tmp_path, cfg, [command, "--config", write_cfg(tmp_path, cfg)])
    assert time.process_time() - start < 1
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == f"speclat: resource cap: {message}\n"
    assert planned and not ran  # the exact moments are planned, and no power summed


# the 6-D simplex's mahler jobs that fail a cap older than the ladders' first rung
OLDER_CAPS = {
    "series": ({"z": 49.5, "methods": ["limit", "moment-series"], "hilbert": False},
               "series needs 1361 moments (cap 1024); z is too close to the spectrum top for "
               "the moment series"),
    "resolution": ({"z": 130, "methods": ["limit", "torus-quadrature"], "resolution": 20,
                    "hilbert": False}, "20^6 character values exceed cap 10000000"),
    "moments": ({"z": 60, "methods": ["limit", "moment-series"], "hilbert": False},
                "moments to k = 55 need 56^6 characters or more, past cap 10000000"),
}


@pytest.mark.parametrize("block, message", OLDER_CAPS.values(), ids=OLDER_CAPS)
def test_the_first_rung_is_checked_after_every_older_cap(tmp_path, capsys, block, message):
    # the 6-D simplex's ladders have no rung within the float cap, but a job that fails
    # another cap as well keeps that cap's message
    cfg = dict(simplex_cfg(6), mahler=block)
    code, out = run(tmp_path, cfg, ["mahler", "--config", write_cfg(tmp_path, cfg)])
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == f"speclat: resource cap: {message}\n"


def test_congruence_sweep_under_the_cap_still_runs(tmp_path):
    # h = 2^7 on the 3-D simplex: 129^3 cells, under the cap
    cfg = simplex_cfg(3)
    cfg["moments"] = {"k_max": 2, "congruences": [[2, 1, 6]], "series": False}
    code, out = run(tmp_path, cfg, ["moments", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["congruences"] == [{"alpha": 6, "holds": True, "k": 1, "p": 2}]


# honeycomb jobs whose last cap would be reached only after work
FLOAT_CAPS = {
    # the 3000^2 spectrum would be computed before the grid is refused
    "spectrum-grid": ("spectrum", {"N": 3000, "grid": 4000},
                      "4000^2 character values exceed cap 10000000"),
    # both routes would run before the Hilbert series is refused
    "mahler-series": ("mahler", {"z": 9.02, "methods": ["limit", "torus-quadrature"],
                                 "resolution": 3000, "hilbert_tol": 1e-10},
                      "series needs 12137 moments (cap 1024); z is too close to the spectrum "
                      "top for the moment series"),
    # the limit ladder would climb before the quadrature grid is refused
    "mahler-resolution": ("mahler", {"z": 12.0, "methods": ["limit", "torus-quadrature"],
                                     "resolution": 5000},
                          "5000^2 character values exceed cap 10000000"),
}


@pytest.mark.parametrize("command, block, message", FLOAT_CAPS.values(), ids=FLOAT_CAPS)
def test_every_float_cap_before_any_work(tmp_path, monkeypatch, capsys, command, block, message):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} worked before every cap was checked")

    for work in ("analysis.spectrum", "analysis._ladder", "analysis.character_values",
                 "analysis.character_rows", "specpoly.character_values",
                 "specpoly.character_rows", "context.SpectralContext.moment_sequence"):
        monkeypatch.setattr(f"speclat.{work}", refuse)
    cfg = dict(HONEYCOMB_CFG, **{command: block})
    code, out = run(tmp_path, cfg, [command, "--config", write_cfg(tmp_path, cfg)])
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == f"speclat: resource cap: {message}\n"


# each mahler job above: its config and, from those tests, the CLI's message
PUBLIC_CAPS = {
    **{name: (simplex_cfg(6), block, message) for name, (block, message) in OLDER_CAPS.items()},
    **{name: (HONEYCOMB_CFG, block, message)
       for name, (command, block, message) in FLOAT_CAPS.items() if command == "mahler"},
}


@pytest.mark.parametrize("cfg, block, message", PUBLIC_CAPS.values(), ids=PUBLIC_CAPS)
def test_public_calls_hold_the_clis_caps(monkeypatch, cfg, block, message):
    # mahler_measure and hilbert_transform plan as the CLI does: called route by route in
    # the CLI's order of checks, the first call refused raises the CLI's message; a call
    # whose caps hold stops at its first torus mean or moment
    from speclat import analysis
    from speclat.analysis import hilbert_transform, mahler_measure

    class Worked(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Worked

    plan_moments = SpectralContext.plan_moments

    def planned(self, K):  # the moments' caps are checked, and their run refused
        return plan_moments(self, K) and refuse

    monkeypatch.setattr(analysis, "_torus_means", refuse)
    monkeypatch.setattr(SpectralContext, "plan_moments", planned)
    params = {name: param.default for name, param in COMMANDS["mahler"].params.items()}
    params.update(block)
    methods, hilbert = params["methods"], params["hilbert"]
    routes = [(mahler_measure, m) for m in ("torus-quadrature", "moment-series") if m in methods]
    routes += [(hilbert_transform, "moment-series")] * hilbert
    routes += [(mahler_measure, "limit")] * ("limit" in methods)
    routes += [(hilbert_transform, "spectrum-average")] * hilbert
    tols = {mahler_measure: (params["tol"], params["resolution"]),
            hilbert_transform: (params["hilbert_tol"],)}
    ps = WeightedPointSet(cfg["dimension"], tuple((tuple(p["a"]), p["c"]) for p in cfg["points"]))
    ctx = SpectralContext(ps)
    with pytest.raises(SizeLimit) as refused:
        for route, method in routes:
            try:
                route(ctx, params["z"], method, *tols[route])
            except Worked:
                pass
    assert str(refused.value) == message


def test_config_integer_past_digit_limit_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(HONEYCOMB_CFG)[:-1] + ', "bn": {"N": 1' + "0" * 5000 + "}}")
    assert main(["bn", "--config", str(path), "--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err.startswith("speclat: cannot read config: ")
    assert not (tmp_path / "out.json").exists()


def test_config_message_past_digit_limit_exit_2(tmp_path, capsys):
    # a weight of 4001 digits reads, but total_weight^2, about 8000, is put in the message
    points = [dict(HONEYCOMB_CFG["points"][0], c=10**4000), *HONEYCOMB_CFG["points"][1:]]
    cfg = dict(HONEYCOMB_CFG, points=points, walks={"series_z": 1})
    code, out = run(tmp_path, cfg, ["walks", "--config", write_cfg(tmp_path, cfg)])
    assert code == 2 and not out.exists()
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("speclat: cannot read config: Exceeds the limit (4300 digits)")


HEAVY_CFG = {"dimension": 1, "points": [{"a": [-1], "c": 10**300}, {"a": [1], "c": 1}]}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_record_integers_past_digit_limit(tmp_path, fmt):
    # b_10(10^100) has 10^4 digits; b_8 of a weight-10^300 set has a 4800-digit coefficient
    before = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if fmt == "json":
        cfg = dict(HONEYCOMB_CFG, bn={"N": 10, "evaluate_at": [10**100]})
    else:
        cfg = dict(HEAVY_CFG, bn={"N": 8})
    code, out = run(tmp_path, cfg, ["bn", "--config", write_cfg(tmp_path, cfg), "--format", fmt])
    assert code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == before
    ps = WeightedPointSet(cfg["dimension"], tuple((tuple(p["a"]), p["c"]) for p in cfg["points"]))
    poly = expanded(SpectralContext(ps).spectral_factors(cfg["bn"]["N"]))
    with _unlimited_int_text():
        if fmt == "json":
            value = json.loads(out.read_text())["payload"]["evaluations"][0]["value"]
            assert value == str(evaluate_at_integer(poly, 10**100))
            assert len(value) > 4300
        else:
            rows = out.read_text().splitlines()
            coefficients = (f"{i},{c}" for i, c in enumerate(poly))
            assert rows == ["index,coefficient", *coefficients]
            assert max(map(len, rows)) > 4300


def test_divides_past_the_digit_limit():
    # b_8 of the weight-10^300 set packs in slots of s = 4802 digits, past int()'s
    # default 4300: the packed division reads no integer from text
    ps = WeightedPointSet(1, tuple((tuple(p["a"]), p["c"]) for p in HEAVY_CFG["points"]))
    ctx = SpectralContext(ps)
    before = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if before:
        sys.set_int_max_str_digits(4300)
    try:
        assert ctx.spectral_factors(8)._packed[1] == 4802
        assert ctx.spectral_factors(4).divides(ctx.spectral_factors(8))
    finally:
        if before:
            sys.set_int_max_str_digits(before)


def test_bn_value_at_a_huge_z_without_int_text(tmp_path):
    # b_14(10^4000) has 784,000 digits; Horner and int-to-text on it once took 16 s.
    # The trace of b_14 is 196 c0 = 588, so it begins with the digits of 10^4000 - 588.
    cfg = dict(HONEYCOMB_CFG, bn={"N": 14, "evaluate_at": [10**4000]})
    start = time.perf_counter()
    code, out = run(tmp_path, cfg, ["bn", "--config", write_cfg(tmp_path, cfg)])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    value = json.loads(out.read_text())["payload"]["evaluations"][0]["value"]
    assert len(value) == 784_000 and value.startswith("9" * 3997 + "412")


# -- one parser per process ----------------------------------------------------------


def test_parser_built_once_and_overrides_do_not_leak(tmp_path):
    cfg = dict(CHEB_CFG)
    cfg["bn"] = {"N": 3}
    cfg_path = write_cfg(tmp_path, cfg)
    levels = []
    for argv in (["--N", "5"], []):
        code, out = run(tmp_path, cfg, ["bn", "--config", cfg_path] + argv)
        assert code == 0
        levels.append(json.loads(out.read_text())["payload"]["N"])
    assert levels == [5, 3]
    assert _build_parser() is _build_parser()


# (command, parameter, the config's block, the flag's value) for every flag; a
# block value of None is the config's null, which an absent flag keeps
FLAG_CASES = [
    ("bn", "N", {"N": 4}, 6),
    ("bn", "size_limit", {"N": 4, "size_limit": 100}, 50),
    ("moments", "k_max", {"k_max": 4, "congruences": [[3, 1, 0]]}, 6),
    ("walks", "N", {"N": 3, "series_z": 5}, 4),
    ("walks", "k_max", {"k_max": 2}, 3),
    ("walks", "series_z", {"series_z": 5}, 7),
    ("walks", "series_z", {"series_z": None}, 7),
    ("walks", "series_K", {"series_z": 5, "series_K": 2}, 4),
    ("spectrum", "N", {"N": 4, "grid": 3}, 6),
    ("spectrum", "grid", {"grid": 3}, 4),
    ("spectrum", "grid", {"grid": None}, 4),
    ("spectrum", "tolerance", {"tolerance": 1e-9}, 1e-06),
    ("spectrum", "tolerance", {"tolerance": None}, 0.5),
    ("mahler", "z", {"z": 5.0, "methods": ["limit", "torus-quadrature"]}, 6.5),
    ("mahler", "tol", {"z": 5.0, "tol": 0.01, "hilbert": False}, 0.001),
    ("mahler", "resolution", {"z": 5.0, "methods": ["torus-quadrature"], "resolution": 8}, 16),
    ("padic", "p", {"p": 5}, 7),
    ("padic", "nu", {"p": 3, "nu": 1}, 2),
]


def effective_hash(cfg, command, block):
    """The config hash of ``command``'s defaults updated with ``block``."""
    ps = WeightedPointSet(cfg["dimension"], [(p["a"], p.get("c", 1)) for p in cfg["points"]])
    params = {key: param.default for key, param in COMMANDS[command].params.items()}
    return JobConfig(ps, command, params | block).hash()


@pytest.mark.parametrize("command, key, block, value", FLAG_CASES)
def test_each_flag_overrides_its_parameter(tmp_path, command, key, block, value):
    cfg = dict(CHEB_CFG, **{command: block})
    held = dict(CHEB_CFG, **{command: {**block, key: value}})
    flag = [f"--{key.replace('_', '-')}", str(value)]
    records = {}
    for name, config, extra in (("kept", cfg, []), ("given", cfg, flag), ("held", held, [])):
        argv = [command, "--config", write_cfg(tmp_path, config, name=f"{name}-cfg.json")]
        code, out = run(tmp_path, config, argv + extra, name=f"{name}.json")
        assert code == 0, name
        records[name] = out.read_bytes()
    # an absent flag keeps the config's value, a given one replaces it, and the
    # record is the one of a config that holds the flag's value
    assert json.loads(records["kept"])["config_hash"] == effective_hash(cfg, command, block)
    assert json.loads(records["given"])["config_hash"] == effective_hash(held, command, held[command])
    assert records["given"] == records["held"] != records["kept"]


@pytest.mark.parametrize("command", COMMANDS)
def test_help_names_each_flag_after_its_parameter(capsys, command):
    flagged = [key for key, param in COMMANDS[command].params.items() if param.flag]
    assert flagged == list(dict.fromkeys(key for c, key, *_ in FLAG_CASES if c == command))
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = capsys.readouterr().out
    assert "OV_" not in text
    for key in flagged:
        assert f"--{key.replace('_', '-')} {key.upper()}\n" in text


@pytest.mark.parametrize("command", [None, *COMMANDS, "verify"])
def test_help_text_equals_a_fresh_parser(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    texts = []
    for parse in (main, _build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("usage: speclat")


# -- one serialisation per job ---------------------------------------------------------


def test_cache_miss_serialises_record_once(tmp_path, monkeypatch):
    texts = count_calls(monkeypatch, sys.modules["speclat.cli"], "record_parts")
    cfg = dict(CHEB_CFG)
    cfg["bn"] = {"N": 4}
    cache = tmp_path / "cache"
    code, out = run(tmp_path, cfg, ["bn", "--config", write_cfg(tmp_path, cfg),
                                    "--cache-dir", str(cache)])
    assert code == 0
    assert len(texts) == 1
    (cached,) = cache.glob("bn-*.json")
    assert cached.read_bytes() == out.read_bytes()


# -- point sets that fail once their lattice is built ----------------------------------

RANK_DEFICIENT_CFG = {"dimension": 2, "points": [{"a": [1, 1], "c": 1}, {"a": [2, 2], "c": 1}]}
MEETS_LATTICE_CFG = {
    "dimension": 2,
    "points": [{"a": [0, 0], "c": 1}, {"a": [1, 0], "c": 1}, {"a": [0, 1], "c": 1}],
}
BLOCKS = {"mahler": {"z": 12.0}, "padic": {"p": 5}}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_rank_deficient_point_set_exit_2(tmp_path, capsys, command):
    cfg = dict(RANK_DEFICIENT_CFG)
    cfg[command] = BLOCKS.get(command, {})
    cache = tmp_path / "cache"
    code = main([command, "--config", write_cfg(tmp_path, cfg), "--cache-dir", str(cache)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("speclat: config error: invalid point set for ")
    assert "Traceback" not in err
    assert not list(cache.glob("*.json"))


def test_walks_on_point_set_meeting_its_lattice_exit_2(tmp_path, capsys):
    cache = tmp_path / "cache"
    cfg_path = write_cfg(tmp_path, MEETS_LATTICE_CFG)
    # a series level past the b_N cap is checked only once the graph is built
    for argv in ([], ["--N", "101", "--series-z", "10"]):
        code = main(["walks", "--config", cfg_path, "--cache-dir", str(cache)] + argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("speclat: config error: invalid point set for walks: ")
        assert "meets its difference lattice" in err
        assert not list(cache.glob("*.json"))
    # the other commands have no use for the bipartite graph
    code, out = run(tmp_path, MEETS_LATTICE_CFG,
                    ["bn", "--config", cfg_path, "--cache-dir", str(cache)])
    assert code == 0
    assert json.loads(out.read_text())["payload"]["N"] == 1
    assert len(list(cache.glob("bn-*.json"))) == 1


@pytest.mark.parametrize(
    "image",
    [
        [((10, 0), 1), ((28, 6), 3), ((12, 0), 4)],  # under x -> [[1, 3], [0, 1]] x + (1, -2)
        [((10, 0), 1), ((10, 6), 3), ((12, 0), 4)],  # the translate by (7, -2)
    ],
)
def test_walks_exit_code_is_not_translation_invariant(tmp_path, image):
    # the white vertices are the coset a0 + L: the set is off its difference lattice
    # L = 2Z x 6Z, and both images land on theirs, where the bipartite model has no graph
    codes = []
    for points in ([((3, 2), 1), ((3, 8), 3), ((5, 2), 4)], image):
        cfg = {"dimension": 2, "points": [{"a": list(a), "c": c} for a, c in points],
               "walks": {"N": 2}}
        code, out = run(tmp_path, cfg, ["walks", "--config", write_cfg(tmp_path, cfg)])
        codes.append(code)
        if code == 0:
            assert json.loads(out.read_text())["payload"]["walk_totals"] == ["104", "5408", "308864"]
    assert codes == [0, 2]


# -- every reading invariant under a unimodular change of coordinates ----------------

# each command's block, as a config gives it; walks' series_z is C^2 + 1
INVARIANT_BLOCKS = {
    "bn": {"N": 3, "levels": [0, 1, 4], "divisor_checks": [[1, 3]]},
    "moments": {"k_max": 6, "levels": [2, 3], "congruences": [[2, 1, 1]]},
    "walks": {"N": 2, "k_max": 3},
    "padic": {"p": 5},
    "spectrum": {"N": 6},
}


def readings(ps):
    """{command: payload} for the jobs of ``INVARIANT_BLOCKS`` that would exit 0 on ``ps``."""
    ctx, out = SpectralContext(ps), {}
    for command, block in INVARIANT_BLOCKS.items():
        spec = COMMANDS[command]
        params = {key: param.default for key, param in spec.params.items()}
        params.update(block)
        if command == "walks":
            params["series_z"] = ps.total_weight**2 + 1
        try:
            spec.check(params, ps.total_weight**2)
            out[command] = spec.plan(ctx, params)()
        except (ConfigError, RankDeficient, CosetViolation, SizeLimit, SpectrumProximity):
            pass
    return out


def same_readings(a, b):
    """The commands read on both sides, each with the same payload: spectrum
    levels with equal multiplicities and values within the tolerance."""
    both = a.keys() & b.keys()
    for command in both - {"spectrum"}:
        assert json_text(a[command]) == json_text(b[command]), command
    if "spectrum" in both:
        (means, sizes), (means_b, sizes_b) = (zip(*row_leaves(x["spectrum"]["levels"]))
                                              for x in (a, b))
        assert sizes == sizes_b
        assert np.abs(np.subtract(means, means_b)).max() <= a["spectrum"]["tolerance"]
    return both


@st.composite
def unimodular_images(draw):
    """(set, image): a weighted 1-3-D set, a0 + scale s_i e_i for each axis and
    up to two more points a0 + scale v, and its image under x -> M x + t, with
    M a product of elementary matrices (entries <= 3) and sign flips and t in
    [-3, 3]^n."""
    n, scale = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2]))
    a0 = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    a0[0] += scale == 2 and a0[0] % 2 == 0  # at scale 2, a0 is off the lattice: walks run
    steps = draw(st.lists(st.sampled_from([1, 2, -1, 3]), min_size=n, max_size=n))
    offsets = [[s * (i == j) for j in range(n)] for i, s in enumerate(steps)]
    offsets += draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=2))
    coords = sorted({tuple(x + scale * y for x, y in zip(a0, v)) for v in offsets} | {tuple(a0)})
    weights = draw(st.lists(st.integers(1, 4), min_size=len(coords), max_size=len(coords)))
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-3, 3))
        M[i] = [x + c * y for x, y in zip(M[i], M[j])]  # row i += c row j
    M = [[-x for x in row] if draw(st.booleans()) else row for row in M]
    t = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    image = [tuple(sum(m * x for m, x in zip(row, a)) + s for row, s in zip(M, t)) for a in coords]
    return WeightedPointSet(n, tuple(zip(coords, weights))), WeightedPointSet(n, tuple(zip(image, weights)))


@settings(max_examples=60)
@given(unimodular_images())
def test_readings_are_invariant_under_a_unimodular_map(pair):
    # a unimodular map permutes the characters.  Exit codes are out of scope: the greedy
    # tight coordinates may refuse one side only, and a translation can move a set onto
    # its difference lattice, where walks refuses it
    ps, image = pair
    same_readings(readings(ps), readings(image))


def test_readings_differ_when_a_weight_of_the_image_moves(honeycomb):
    # the honeycomb with weights 1, 2, 3 under [[3, 7], [2, 5]] plus (4, -9), and that image
    # with one weight moved: the payloads that the property compares differ
    weighted = WeightedPointSet(2, tuple((a, c) for (a, _), c in zip(honeycomb.points, (1, 2, 3))))
    image = [((3 * x + 7 * y + 4, 2 * x + 5 * y - 9), c) for (x, y), c in weighted.points]
    moved = [image[0], image[1], (image[2][0], 4)]
    assert same_readings(readings(weighted), readings(WeightedPointSet(2, image))) == INVARIANT_BLOCKS.keys()
    with pytest.raises(AssertionError):
        same_readings(readings(WeightedPointSet(2, image)), readings(WeightedPointSet(2, moved)))
