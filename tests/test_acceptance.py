"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  The criterion implementations (and their
frozen expected values) live in speclat.verify, so the CLI's verify
command runs exactly the same checks; here each runs on a fresh context
of its example."""

import pytest

from speclat.catalog import builtin_point_set
from speclat.context import SpectralContext
from speclat.verify import CRITERIA


@pytest.mark.parametrize(
    "cid,example,check",
    CRITERIA,
    ids=[cid for cid, _, _ in CRITERIA],
)
def test_criterion(cid, example, check):
    passed, detail = check(SpectralContext(builtin_point_set(example)))
    line = f"{'PASS' if passed else 'FAIL'} {cid}: {detail}"
    print(line)
    assert passed, line
