"""speclat: exact spectral invariants of weighted lattice point sets.

Given a finite set of points of Z^n with positive integer weights, this
package computes, in exact arithmetic where the quantities are integral:

* the difference lattice and its torsion quotients,
* the squared-diffraction Laurent polynomial on that lattice,
* the integer characteristic polynomials of the associated convolution
  operators, one root per torsion character,
* spectral moments, their congruences and integer series expansions,
* closed-walk counts on the associated periodic bipartite graphs,
* point counts over finite fields and p-adic valuation inequalities,

and, in floating point, spectrum histograms, Hilbert transforms and
Mahler-measure limits.  See the cli module for the command-line surface.
The names of ``__all__`` are the public API; each is imported from its
module on first use (PEP 562), so importing the package loads no numpy.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "analysis": "MahlerResult SpectrumHistogram empirical_cdf hilbert_transform mahler_measure "
    "spectrum",
    "arith": "primitive_modulus valuation_inequality_check vp",
    "catalog": "builtin_point_set chebyshev_point_set honeycomb_point_set",
    "context": "SpectralContext",
    "graph": "TorusBipartiteGraph build_graph walk_series_check walk_totals",
    "lattice": "LatticeBasis WeightedPointSet difference_lattice disjointness_check "
    "to_lattice_coords",
    "laurent": "LaurentPoly diffraction_polynomial fold_mod_N",
    "moments": "check_congruence moment_sequence moment_sequence_N product_exponents "
    "series_coefficients",
    "specpoly": "SpectralFactors factored_value integer_root_multiplicity "
    "level_multiplicity spectral_factors",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
