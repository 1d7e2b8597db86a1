"""The benchmark's layer tracer (``perfbench/spans.py``) installs on the CLI
as it stands.  It rebinds ``JobConfig.from_file`` and the public functions
of every computing layer, which must all be loaded once a job has computed;
a change to either shows here rather than only in a traced benchmark run.

The job runs in a fresh interpreter, as the benchmark's does: in the test
process other tests have loaded every layer already.
"""

import json
import os
import subprocess
import sys

import speclat

SRC = os.path.dirname(os.path.dirname(os.path.abspath(speclat.__file__)))
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
TRACED = """
import json, sys
from speclat import cli
argv = sys.argv[1:]
assert cli.main(argv) == 0  # computes, so every layer is loaded
from_file = cli.JobConfig.from_file
from spans import Tracer
tracer = Tracer()
tracer.install()
try:
    assert cli.JobConfig.from_file is not from_file
    assert cli.main(argv) == 0
    counts = tracer.take_pass()
finally:
    tracer.uninstall()
assert cli.JobConfig.from_file is from_file
print(json.dumps(counts), file=sys.stderr)
"""
HONEYCOMB_BN = {
    "dimension": 2,
    "points": [{"a": [1, 0]}, {"a": [0, 1]}, {"a": [-1, -1]}],
    "bn": {"N": 6, "levels": [0, 9]},
}


def test_tracer_wraps_a_computing_job(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(HONEYCOMB_BN))
    path = os.pathsep.join([SRC, PERFBENCH, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", TRACED, "bn", "--config", str(config)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=60)
    assert done.returncode == 0, done.stderr
    half = len(done.stdout) // 2
    assert done.stdout[:half] == done.stdout[half:]  # the traced job writes the same record
    counts = json.loads(done.stderr)
    assert counts["cli.main.calls"] == counts["cli.config.calls"] == 1
    assert counts["lattice.difference_lattice.calls"] == 1
    assert counts["laurent.diffraction_polynomial.calls"] == 1
    assert counts["specpoly.spectral_factors.calls"] == 1
    assert not any(v for k, v in counts.items() if k.endswith(".errors"))
