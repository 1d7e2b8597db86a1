"""Each cap has one binding, in ``speclat.limits``, which every layer reads at
each check: a cap set there bounds every public call it guards, and no other
module binds a copy of it."""

import ast
import os

import pytest

import speclat
from speclat import limits
from speclat.analysis import hilbert_transform, mahler_measure, spectrum
from speclat.arith import valuation_inequality_check
from speclat.context import SpectralContext
from speclat.errors import SizeLimit
from speclat.graph import build_graph, walk_totals
from speclat.moments import check_congruence, moment_sequence, moment_sequence_N
from speclat.specpoly import spectral_factors

PACKAGE = os.path.dirname(os.path.abspath(speclat.__file__))

# (cap, its lowered value, a call on the honeycomb's context that passes under the
# default cap and is refused under the lowered one)
BOUNDED_CALLS = {
    "spectrum": ("DEFAULT_FLOAT_CAP", 100, lambda ctx: spectrum(ctx, 11)),
    "mahler-torus-quadrature": ("DEFAULT_FLOAT_CAP", 100, lambda ctx: mahler_measure(
        ctx, 20.0, "torus-quadrature", resolution=11)),
    "moments-exact": ("DEFAULT_FLOAT_CAP", 100, lambda ctx: moment_sequence(ctx.w, 10)),
    "moments-level": ("DEFAULT_FLOAT_CAP", 100, lambda ctx: moment_sequence_N(ctx.w, 2, 11)),
    "congruence": ("DEFAULT_FLOAT_CAP", 100, lambda ctx: check_congruence(ctx.w, 3, 1, 1)),
    "spectral-factors": ("DEFAULT_SIZE_LIMIT", 100, lambda ctx: spectral_factors(ctx.w, 11)),
    "valuations": ("DEFAULT_SIZE_LIMIT", 100,
                   lambda ctx: valuation_inequality_check(ctx, [0], 13)),
    "graph-export": ("DEFAULT_SIZE_LIMIT", 100,
                     lambda ctx: build_graph(ctx.ps, ctx.basis, 11).adjacency()),
    "moments-series": ("DEFAULT_SERIES_CAP", 10, lambda ctx: moment_sequence(ctx.w, 11)),
    "hilbert-series": ("DEFAULT_SERIES_CAP", 10,
                       lambda ctx: hilbert_transform(ctx, 12.0, tol=1e-10)),
    "walks": ("DEFAULT_WALK_CAP", 100,
              lambda ctx: walk_totals(build_graph(ctx.ps, ctx.basis, 2), 3)),
}


@pytest.mark.parametrize("cap, value, call", BOUNDED_CALLS.values(), ids=BOUNDED_CALLS)
def test_a_cap_set_in_limits_bounds_every_layer(honeycomb, monkeypatch, cap, value, call):
    call(SpectralContext(honeycomb))
    monkeypatch.setattr(limits, cap, value)
    with pytest.raises(SizeLimit):
        call(SpectralContext(honeycomb))


def cap_copies(source: str) -> list[str]:
    """The lines of a module that bind a ``DEFAULT_*`` name: an assignment to
    one, or an import of one by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [name for alias in node.names for name in (alias.name, alias.asname or "")]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names if name.startswith("DEFAULT_")]
    return found


def moduli_names(source: str, exempt: bool) -> list[str]:
    """The lines of a module that name ``_certified_moduli`` or ``_MODULI``, by name, as an
    attribute or in an import; if exempt, not inside ``_split_moduli`` or the table's own
    module-level binding."""
    found = []
    for stmt in ast.parse(source).body:
        binding = isinstance(stmt, ast.AnnAssign) and getattr(stmt.target, "id", None) == "_MODULI"
        if exempt and (binding or getattr(stmt, "name", None) == "_split_moduli"):
            continue
        for node in ast.walk(stmt):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or (
                node.name if isinstance(node, ast.alias) else None)
            if name in ("_certified_moduli", "_MODULI"):
                found.append(f"{node.lineno}: {name}")
    return found


def test_only_split_moduli_reads_the_moduli_table():
    # the rule "the fewest leading certified moduli past the need" is written once
    copies = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                if found := moduli_names(fh.read(), exempt=name == "specpoly.py"):
                    copies[name] = found
    assert not copies
    with open(os.path.join(PACKAGE, "specpoly.py")) as fh:
        assert len(moduli_names(fh.read(), exempt=False)) == 4  # the guard sees them


def analysis_names(source: str) -> set[str]:
    """The names a module reads from ``analysis``: those of a ``from .analysis import``
    and the attributes of a name ``analysis``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "analysis":
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "analysis":
            found.add(node.attr)
    return found


def test_only_analysis_plans_its_routes():
    # every cap of a Mahler or Hilbert route is checked in ``analysis._plan``: no other
    # module reads a private name of ``analysis`` but the plan and c12's ``_log_mean``
    read = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "analysis.py":
            with open(os.path.join(PACKAGE, name)) as fh:
                read[name] = analysis_names(fh.read())
    private = {f"{module}: {name}" for module, names in read.items() for name in names
               if name.startswith("_") and name not in ("_plan", "_log_mean")}
    assert not private
    assert read["cli.py"] <= {"_plan", "empirical_cdf", "hilbert_transform", "mahler_measure",
                              "spectrum"}
    assert "_plan" in read["cli.py"] and "_log_mean" in read["verify.py"]  # the guard sees them


def test_no_module_but_limits_binds_a_cap():
    copies = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "limits.py":
            with open(os.path.join(PACKAGE, name)) as fh:
                if found := cap_copies(fh.read()):
                    copies[name] = found
    assert not copies

