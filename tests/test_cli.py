import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from speclat.cli import ResultRecord, _json_text, _record_text, main


def test_record_round_trip():
    record = ResultRecord("bn", "abc123", {"degree": 4, "coefficients": ["1", "-9"]})
    again = ResultRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert again == record

HONEYCOMB_CFG = {
    "dimension": 2,
    "points": [{"a": [1, 0], "c": 1}, {"a": [0, 1], "c": 1}, {"a": [-1, -1], "c": 1}],
}
CHEB_CFG = {
    "dimension": 1,
    "points": [{"a": [-1], "c": 1}, {"a": [1], "c": 1}],
}


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
        "divisor_checks": [[2, 6], [3, 6]],
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
    assert all(check["divides"] for check in payload["divisor_checks"])
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


def test_cache_corruption_recovers(tmp_path):
    cfg = dict(CHEB_CFG)
    cfg["bn"] = {"N": 3}
    cfg_path = write_cfg(tmp_path, cfg)
    cache = tmp_path / "cache"
    out1 = tmp_path / "a.json"
    assert main(["bn", "--config", cfg_path, "--cache-dir", str(cache), "--out", str(out1)]) == 0
    cached = list(cache.glob("bn-*.json"))[0]
    cached.write_text("{ not json")
    out2 = tmp_path / "b.json"
    assert main(["bn", "--config", cfg_path, "--cache-dir", str(cache), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(cached.read_text())["schema"] == "speclat-result/1"


def test_bad_config_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert main(["bn", "--config", str(path)]) == 2
    path.write_text("not json at all")
    assert main(["bn", "--config", str(path)]) == 2
    assert main(["bn", "--config", str(tmp_path / "missing.json")]) == 2


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

    monkeypatch.setattr("speclat.cli.based_walk_weight_sum", refuse)
    monkeypatch.setattr("speclat.cli.walk_series_check", refuse)
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
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.text(), kids, max_size=5),
    ),
    max_leaves=40,
)


@given(json_trees)
def test_record_writer_matches_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)
    record = ResultRecord("spectrum", "abc123", {"tree": tree})
    assert _record_text(record) == json.dumps(record.to_dict(), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("leaf", [{1, 2}, object()])
def test_record_writer_rejects_non_json(leaf):
    with pytest.raises(TypeError):
        _json_text({"payload": [1.5, leaf]})


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
    "command, lifts, sweeps",
    [
        ("bn", 3, 0),  # levels 6, 2 and 3
        ("moments", 0, 2),  # the moments, and one sweep mod 2 for the congruence
        ("walks", 1, 0),
        ("spectrum", 0, 0),
        ("mahler", 0, 1),  # one sweep serves both moment series
        ("padic", 1, 0),  # b_6 for all eight z values
    ],
)
def test_readme_job_computes_each_object_once(tmp_path, monkeypatch, command, lifts, sweeps):
    from speclat import laurent, lattice, specpoly

    from test_golden_records import README_CONFIG

    lattices = count_calls(monkeypatch, lattice, "difference_lattice")
    lifted = count_calls(monkeypatch, specpoly, "_split_prime_lift")
    swept = count_calls(monkeypatch, laurent, "_moment_sweep")
    assert main([command, "--config", write_cfg(tmp_path, README_CONFIG),
                 "--out", str(tmp_path / "out.json")]) == 0
    assert len(lattices) == 1
    assert len(lifted) == lifts
    assert len({N for _, N in lifted}) == lifts
    assert len(swept) == sweeps
