"""Byte identity of CLI records across versions.

``scripts/record_digests.py`` digests every record it runs (the README
example config, ``verify``, every benchmark job and the larger jobs its
docstring lists), each with its exit code and stderr.  Its output is pinned
in ``record_digests.txt``: a change that moves a single byte of a record (a
float's last bit, key order, indentation, the config hash, an error
message) fails here, naming the record's label.  A change that means to
move a record re-pins the list, as the script's docstring says.
"""

import os
import subprocess
import sys

import speclat

TESTS = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(os.path.dirname(TESTS), "scripts", "record_digests.py")
PINNED = os.path.join(TESTS, "record_digests.txt")


def digests(text: str) -> dict[str, str]:
    """{label: digest} of ``label digest`` lines; a repeated label fails."""
    pairs = [line.rsplit(" ", 1) for line in text.splitlines()]
    labels = [label for label, _ in pairs]
    assert len(set(labels)) == len(labels), sorted({x for x in labels if labels.count(x) > 1})
    return dict(pairs)


def test_records_match_the_pinned_digests():
    src = os.path.dirname(os.path.dirname(os.path.abspath(speclat.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(PINNED) as fh:
        want = digests(fh.read())
    got = digests(done.stdout)
    changed = [label for label in want if label in got and got[label] != want[label]]
    missing = [label for label in want if label not in got]
    extra = [label for label in got if label not in want]
    assert not (changed or missing or extra), f"changed {changed}, missing {missing}, extra {extra}"
