"""Cache hits, config errors and help are served without importing numpy.

Each job runs ``speclat.cli.main`` in a fresh interpreter, which reports on
its last stderr line whether numpy was loaded: in the test process numpy is
always loaded already.
"""

import json
import os
import subprocess
import sys

import pytest

import speclat

SRC = os.path.dirname(os.path.dirname(os.path.abspath(speclat.__file__)))
FRESH = """
import sys
try:
    from speclat.cli import main
    sys.exit(main(sys.argv[1:]))
finally:
    print("numpy" in sys.modules, file=sys.stderr)
"""
HONEYCOMB_BN = {
    "dimension": 2,
    "points": [{"a": [1, 0]}, {"a": [0, 1]}, {"a": [-1, -1]}],
    "bn": {"N": 6, "levels": [0, 9]},
}


def fresh(code, *argv):
    """(exit code, stdout, stderr lines) of ``code`` run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=60)
    return done.returncode, done.stdout, done.stderr.splitlines()


def fresh_main(*argv):
    """(exit code, stdout, stderr lines before the report, numpy loaded) of ``main(argv)``."""
    code, out, err = fresh(FRESH, *argv)
    assert err[-1] in ("True", "False")
    return code, out, err[:-1], err[-1] == "True"


def test_import_cli_loads_no_numpy():
    code, out, err = fresh("import sys, speclat.cli; print('numpy' in sys.modules)")
    assert (code, out, err) == (0, "False\n", [])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cache_hit_loads_no_numpy(tmp_path, fmt):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(HONEYCOMB_BN))
    argv = ["bn", "--config", str(config), "--cache-dir", str(tmp_path / "cache"), "--format", fmt]
    cold = fresh_main(*argv)
    assert cold[0] == 0 and cold[2] == [] and cold[3]  # a miss computes, with numpy
    warm = fresh_main(*argv)
    assert warm == (0, cold[1], [], False)


@pytest.mark.parametrize(
    "block, message",
    [
        ({"N": 0}, "speclat: config error: bn N must be an integer >= 1, got 0"),
        ({"M": 1}, "speclat: config error: unknown bn parameters: ['M']"),
    ],
)
def test_config_error_loads_no_numpy(tmp_path, block, message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**HONEYCOMB_BN, "bn": block}))
    assert fresh_main("bn", "--config", str(config)) == (2, "", [message], False)


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["padic", "--help"]])
def test_help_loads_no_numpy(argv):
    code, out, err, numpy_loaded = fresh_main(*argv)
    assert code == 0 and out.startswith("usage: speclat") and err == []
    assert not numpy_loaded


def test_public_names_resolve_lazily():
    for name in speclat.__all__:
        assert getattr(speclat, name).__name__ == name
    assert set(speclat.__all__) <= set(dir(speclat))
    namespace = {}
    exec("from speclat import *", namespace)
    assert set(speclat.__all__) <= namespace.keys()
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        speclat.no_such_name
