"""Byte identity of the README and ``verify`` records, one record a test.

Each record is run in process as ``scripts/record_digests.py`` runs it (its
``record`` and ``digest``, on README.md's example config) and compared with
its line of ``record_digests.txt``, the one pinned list.  The whole list is
checked by ``test_record_digests.py``; these name the record that moved.
"""

import importlib.util
import json
import os
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(os.path.dirname(TESTS), "scripts", "record_digests.py")
PINNED = os.path.join(TESTS, "record_digests.txt")


def load_script():
    """The digest script as a module; it puts ``perfbench`` on ``sys.path`` to
    import ``gen``, which is undone once it has loaded."""
    spec = importlib.util.spec_from_file_location("record_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


script = load_script()


def pinned(label: str) -> str:
    with open(PINNED) as fh:
        lines = dict(line.rsplit(" ", 1) for line in fh.read().splitlines())
    return lines[label]


@pytest.fixture(scope="module")
def readme_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("readme") / "readme.json"
    with open(path, "w") as fh:
        json.dump(script.readme_config(), fh)
    return str(path)


@pytest.mark.parametrize("command, fmt", sorted(
    (command, fmt) for command in script.README_COMMANDS for fmt in ("json", "csv")))
def test_readme_record_bytes_pinned(readme_cfg, command, fmt):
    text = script.record([command, "--config", readme_cfg, "--format", fmt])
    assert script.digest(text) == pinned(f"readme/{command}/{fmt}"), text[:2000]


@pytest.mark.parametrize("example, fmt", sorted(
    (example, fmt) for example in script.BUILTIN_POINT_SETS for fmt in ("json", "csv")))
def test_verify_record_bytes_pinned(example, fmt):
    text = script.record(["verify", example, "--format", fmt])
    assert script.digest(text) == pinned(f"verify/{example}/{fmt}"), text[:2000]
