"""Byte identity of CLI records across versions.

The sha256 of every record the README example config gives, and of the
``verify`` record of each built-in example, as JSON and as CSV, each pinned
from the version that introduced it.  A change that moves a single byte of
a record (a float's last bit, key order, indentation, the config hash)
fails here; one that means to must say so and re-pin.
"""

import hashlib
import json

import pytest

from speclat.cli import main

README_CONFIG = {
    "dimension": 2,
    "points": [{"a": [1, 0], "c": 1}, {"a": [0, 1], "c": 1}, {"a": [-1, -1], "c": 1}],
    "bn": {"N": 6, "levels": [0, 1, 3, 4, 7, 9], "divisor_checks": [[2, 6], [3, 6]],
           "evaluate_at": [53]},
    "moments": {"k_max": 10, "levels": [4], "congruences": [[2, 1, 0]]},
    "walks": {"N": 2, "k_max": 4, "series_z": 10, "series_K": 4},
    "spectrum": {"N": 6, "cdf_at": [2.0], "grid": 12},
    "mahler": {"z": 10.0, "tol": 1e-5},
    "padic": {"p": 7, "nu": 1, "z_values": [0, 1, 2, 3, 4, 5, 6, 53]},
}

DIGESTS = {
    ("bn", "json"): "d6255b86e83a8f010172dd8e95ba206080ad922e3e5f680226576274c46d7283",
    ("bn", "csv"): "f1c8d5b9795e0b9b20513aca0d607cb5a8a3c6bee948e71dfea76520abdb5366",
    ("moments", "json"): "6e72fe4d01e24767b0b8fc39b2b50a44b9b4940381b3c4785c661b85204a655b",
    ("moments", "csv"): "655be0d081a2a1120b42d1e1dacdfc91a1d0c81e5554e07ffcbb44a0df639eb1",
    ("walks", "json"): "cde587ae23ccfe055621716480201bdf45eec2a2d3ecac6577dd94d602ac5205",
    ("walks", "csv"): "e782eea0aa2abf504ddd569e5b6c0e705227ac26fe6c21db0a6903805c9b08cd",
    ("spectrum", "json"): "34436646ba95160a55282216b5665aad4eb08b58137f6d7b9154b43e2f237c8c",
    ("spectrum", "csv"): "e45fa0b90341a8e26a361599635917c53b96f1cf512536ae7ebf1020b05c3eb6",
    ("padic", "json"): "4aa627f5e4b35e32b091b6097dc0e9be9bbe949d7237892678da924a3fe86092",
    ("padic", "csv"): "0f79a07ff2112da591f90a90dff53ed3a7d0303d2a2e663965bb939b8ee699b0",
}


VERIFY_DIGESTS = {
    ("chebyshev", "json"): "92b4506fdd831cac93207afc21230d1745c3a1d1827fb6210d6b3fdd471cb085",
    ("chebyshev", "csv"): "30869fb463f9b131b582bb365539e327d2ffea3d31bdb17efb619abd4200ecf5",
    ("honeycomb", "json"): "64eb6689ae0e875efabcc9921594abfb00c68df0c7cc445aaff86ab0753b66a4",
    ("honeycomb", "csv"): "7d057edf48c5f8b0acc8832e772e9095a1cb11ab5184db2b76a9b6dbee3bc42e",
}


@pytest.mark.parametrize("command, fmt", sorted(DIGESTS))
def test_readme_record_bytes_pinned(tmp_path, command, fmt):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(README_CONFIG))
    out = tmp_path / f"out.{fmt}"
    assert main([command, "--config", str(cfg), "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[command, fmt]


@pytest.mark.parametrize("example, fmt", sorted(VERIFY_DIGESTS))
def test_verify_record_bytes_pinned(tmp_path, example, fmt):
    out = tmp_path / f"out.{fmt}"
    assert main(["verify", example, "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_DIGESTS[example, fmt]
