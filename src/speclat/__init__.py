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
"""

__version__ = "0.1.0"

from .analysis import (
    MahlerResult,
    SpectrumHistogram,
    diffraction_field,
    empirical_cdf,
    hilbert_transform,
    mahler_measure,
    spectrum,
)
from .arith import (
    FactoredInteger,
    PrimePowerField,
    count_points,
    factorize,
    valuation_inequality_check,
    vp,
)
from .catalog import builtin_point_set, chebyshev_point_set, honeycomb_point_set
from .graph import TorusBipartiteGraph, WalkSum, based_walk_weight_sum, build_graph, walk_series_check
from .lattice import (
    LatticeBasis,
    WeightedPointSet,
    difference_lattice,
    disjointness_check,
    quotient_enumeration,
    to_lattice_coords,
)
from .laurent import (
    LaurentPoly,
    constant_term,
    diffraction_polynomial,
    fold_mod_N,
    multiply,
    power,
)
from .moments import (
    MomentSequence,
    check_congruence,
    chebyshev_generating_check,
    moment,
    moment_N,
    moment_sequence,
    moment_sequence_N,
    product_exponents,
    series_coefficients,
    verify_recurrence,
)
from .specpoly import (
    ConvolutionMatrix,
    IntPolynomial,
    convolution_matrix,
    divides,
    evaluate_at_integer,
    integer_root_multiplicity,
    spectral_log_value,
    spectral_polynomial,
)

__all__ = [
    "WeightedPointSet",
    "LatticeBasis",
    "difference_lattice",
    "to_lattice_coords",
    "disjointness_check",
    "quotient_enumeration",
    "LaurentPoly",
    "diffraction_polynomial",
    "multiply",
    "power",
    "constant_term",
    "fold_mod_N",
    "IntPolynomial",
    "ConvolutionMatrix",
    "convolution_matrix",
    "spectral_polynomial",
    "divides",
    "evaluate_at_integer",
    "integer_root_multiplicity",
    "spectral_log_value",
    "MomentSequence",
    "moment",
    "moment_N",
    "moment_sequence",
    "moment_sequence_N",
    "check_congruence",
    "series_coefficients",
    "product_exponents",
    "verify_recurrence",
    "chebyshev_generating_check",
    "TorusBipartiteGraph",
    "WalkSum",
    "build_graph",
    "based_walk_weight_sum",
    "walk_series_check",
    "vp",
    "factorize",
    "FactoredInteger",
    "PrimePowerField",
    "count_points",
    "valuation_inequality_check",
    "SpectrumHistogram",
    "MahlerResult",
    "diffraction_field",
    "spectrum",
    "empirical_cdf",
    "hilbert_transform",
    "mahler_measure",
    "chebyshev_point_set",
    "honeycomb_point_set",
    "builtin_point_set",
]
