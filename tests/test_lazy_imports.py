"""Cache hits, config errors and help are served on the stdlib modules
every job uses: no numpy, and none of the heavier stdlib modules only some
jobs need.

Each job runs ``speclat.cli.main`` in a fresh interpreter, which reports on
its last stderr line which of ``HEAVY`` it loaded beyond what the bare
interpreter held before it (``site`` may hold some): in the test process
they are all loaded already.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

import speclat
from speclat.table import LONG_FLOAT_COLUMN

SRC = os.path.dirname(os.path.dirname(os.path.abspath(speclat.__file__)))
# numpy and the record writer's numpy kernel, and the stdlib a start would
# otherwise pay for: dataclasses imports inspect (and ast, dis, tokenize),
# fractions imports decimal
HEAVY = ("numpy", "speclat.floattext", "dataclasses", "inspect", "fractions", "decimal", "csv")
REPORT = f"print(sorted(set({HEAVY!r}) & set(sys.modules) - bare), file=sys.stderr)"
FRESH = f"""
import sys
bare = set(sys.modules)
try:
    from speclat.cli import main
    sys.exit(main(sys.argv[1:]))
finally:
    {REPORT}
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
    """(exit code, stdout, stderr lines before the report, the ``HEAVY`` modules
    it loaded) of ``main(argv)``."""
    code, out, err = fresh(FRESH, *argv)
    return code, out, err[:-1], ast.literal_eval(err[-1])


def test_import_cli_loads_no_numpy():
    code = f"import sys; bare = set(sys.modules); import speclat.cli; {REPORT}"
    assert fresh(code) == (0, "", ["[]"])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cache_hit_loads_no_numpy(tmp_path, fmt):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(HONEYCOMB_BN))
    argv = ["bn", "--config", str(config), "--cache-dir", str(tmp_path / "cache"), "--format", fmt]
    cold = fresh_main(*argv)
    assert cold[0] == 0 and cold[2] == [] and "numpy" in cold[3]  # a miss computes, with numpy
    warm = fresh_main(*argv)
    assert warm == (0, cold[1], [], ["csv"] if fmt == "csv" else [])  # a CSV hit needs csv


def test_spectrum_cache_hit_loads_no_kernel(tmp_path):
    """A hit on a record whose grid the kernel wrote is served as its text."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**HONEYCOMB_BN, "spectrum": {"N": 6, "grid": 32}}))
    out = tmp_path / "spectrum.json"
    argv = ["spectrum", "--config", str(config), "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out)]
    cold = fresh_main(*argv)
    assert cold[0] == 0 and {"numpy", "speclat.floattext"} <= set(cold[3])
    record = out.read_bytes()
    assert len(json.loads(record)["payload"]["grid"]["values"]) >= LONG_FLOAT_COLUMN
    assert fresh_main(*argv) == (0, "", [], [])
    assert out.read_bytes() == record


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
    assert fresh_main("bn", "--config", str(config)) == (2, "", [message], [])


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["padic", "--help"]])
def test_help_loads_no_numpy(argv):
    code, out, err, loaded = fresh_main(*argv)
    assert code == 0 and out.startswith("usage: speclat") and err == []
    assert loaded == []


def test_public_names_resolve_lazily():
    for name in speclat.__all__:
        assert getattr(speclat, name).__name__ == name
    assert set(speclat.__all__) <= set(dir(speclat))
    namespace = {}
    exec("from speclat import *", namespace)
    assert set(speclat.__all__) <= namespace.keys()
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        speclat.no_such_name
