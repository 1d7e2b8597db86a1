"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  The criterion implementations (and their
frozen expected values) live in speclat.verify, so the CLI's verify
command runs exactly the same checks; here each runs on a fresh context
of its example."""

import dataclasses

import pytest

import speclat.verify
from speclat.catalog import builtin_point_set
from speclat.context import SpectralContext
from speclat.errors import IntegralityViolation
from speclat.laurent import LaurentPoly, fold_mod_N
from speclat.specpoly import factored_value
from speclat.verify import CRITERIA, _check_generating_series, run_suite


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


def test_an_unknown_example_is_a_value_error():
    with pytest.raises(ValueError, match=r"^unknown example 'cube'; available: "
                                         r"\['chebyshev', 'honeycomb'\]$"):
        builtin_point_set("cube")


# -- mutations the rewritten criteria must catch ----------------------------------


def test_honeycomb_multiplicities_fail_on_an_ambiguous_clustering(honeycomb_ctx, monkeypatch):
    # c15 reads no multiplicity from a histogram whose clusters approach each other
    [check] = [check for c, _, check in CRITERIA if c == "c15-honeycomb-multiplicities"]
    spectrum = speclat.verify.spectrum
    monkeypatch.setattr("speclat.verify.spectrum", lambda ctx, N: dataclasses.replace(
        spectrum(ctx, N), ambiguous=N == 3))
    assert check(honeycomb_ctx) == (False, "ambiguous clustering at N=3")


@pytest.mark.parametrize("N", [1, 2, 9, 17])
def test_generating_series_fails_when_one_value_is_off_by_one(cheb_ctx, monkeypatch, N):
    def off_by_one(b, z):
        # b_N(6) + 1 at the level of degree N: the constant coefficient moves by one
        return factored_value(b, z) + (b.degree == N)

    monkeypatch.setattr("speclat.verify.factored_value", off_by_one)
    passed, _ = _check_generating_series(cheb_ctx, 6, 17)
    assert not passed


@pytest.mark.parametrize("example", ["chebyshev", "honeycomb"])
@pytest.mark.parametrize("at", ["constant", "pair"])
def test_walk_bridge_fails_on_a_matrix_of_a_perturbed_w(monkeypatch, example, at):
    cid = f"c09-walk-bridge-{example}"
    [check] = [check for c, _, check in CRITERIA if c == cid]

    def perturbed(w, N):
        # W + 1 at the origin, or W + x^e + x^-e at its largest residue e (the origin
        # at N = 1): past N = 1 the second keeps the trace, so k >= 2 must catch it
        f = fold_mod_N(w, N)
        terms, zero = dict(f.terms), (0,) * f.dimension
        e = zero if at == "constant" else max(terms)
        for r in {e, tuple(-x % N for x in e)}:
            terms[r] = terms.get(r, 0) + 1
        return LaurentPoly(f.dimension, terms)

    monkeypatch.setattr("speclat.verify.fold_mod_N", perturbed)
    passed, _ = check(SpectralContext(builtin_point_set(example)))
    assert not passed


def test_honeycomb_moments_fail_on_a_wrong_recurrence_coefficient(honeycomb_ctx, monkeypatch):
    # (k + 1)^2 m_{k+1} read as (k^2 + 2k + 2) m_{k+1}: the binomial formula still holds
    [check] = [check for c, _, check in CRITERIA if c == "c05-honeycomb-moments"]
    wrong = ((-1, (0, 0, 9)), (0, (-3, -10, -10)), (1, (2, 2, 1)))
    monkeypatch.setattr("speclat.verify.HONEYCOMB_RECURRENCE", wrong)
    passed, detail = check(honeycomb_ctx)
    assert not passed and detail == "binomial formula and three-term recurrence, k <= 40"


def test_series_integrality_fails_only_on_an_integrality_violation(monkeypatch):
    # c14 reports a series that is not integral as a failure, with the exception's
    # repr; any other error is a fault of the program and escapes the suite
    def raising(exc):
        def series_coefficients(seq):
            raise exc
        return series_coefficients

    violation = IntegralityViolation("A_3 is not an integer")
    monkeypatch.setattr("speclat.verify.series_coefficients", raising(violation))
    [c14] = [r for r in run_suite("honeycomb")["results"]
             if r["criterion"] == "c14-series-integrality-honeycomb"]
    assert (c14["passed"], c14["detail"]) == (False, repr(violation))
    monkeypatch.setattr("speclat.verify.series_coefficients", raising(ZeroDivisionError("x")))
    with pytest.raises(ZeroDivisionError):
        run_suite("honeycomb")
