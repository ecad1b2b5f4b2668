"""Exact arithmetic for symmetrized Chebyshev Laurent polynomials.

T_n and U_n composed with (c/2k) sum_i (x_i + 1/x_i): exact construction,
coefficient sign structure, cyclically-reduced-word counts in free groups by
homology class, and convergence of the coefficient distributions to their
Gaussian limit.
"""

from .chebyshev import ChebCoeffVector, ChebKind, cheb_coeffs, coeff_formula_T, eval_closed_T
from .cltstats import (
    ConvergenceReport,
    ConvergenceRow,
    LatticeDistribution,
    MomentReport,
    char_fn,
    convergence_report,
    distribution,
    freegroup_convergence_report,
    moments,
    sigma2_rederived,
    sigma2_reported,
)
from .errors import DomainError, InternalError, ResourceBudgetError, UsageError
from .freegroup import (
    HomologyCountTable,
    Word,
    counts_by_formula,
    enumerate_counts,
    homology_of,
    inverse_letter,
    is_cyclically_reduced,
    total_count,
)
from .laurent import LaurentPoly, format_exact, parse_exact
from .symmetrized import (
    PositivityReport,
    SignClass,
    SurveyRow,
    SurveyWitness,
    SymChebSpec,
    UnivariateCoeffTable,
    build,
    build_sequence,
    fullform_coeff,
    positivity_report,
    sign_survey,
    univariate_table,
)

__version__ = "0.1.0"

__all__ = [
    "ChebCoeffVector",
    "ChebKind",
    "ConvergenceReport",
    "ConvergenceRow",
    "DomainError",
    "HomologyCountTable",
    "InternalError",
    "LatticeDistribution",
    "LaurentPoly",
    "MomentReport",
    "PositivityReport",
    "ResourceBudgetError",
    "SignClass",
    "SurveyRow",
    "SurveyWitness",
    "SymChebSpec",
    "UnivariateCoeffTable",
    "UsageError",
    "Word",
    "build",
    "build_sequence",
    "char_fn",
    "cheb_coeffs",
    "coeff_formula_T",
    "convergence_report",
    "counts_by_formula",
    "distribution",
    "enumerate_counts",
    "eval_closed_T",
    "format_exact",
    "freegroup_convergence_report",
    "fullform_coeff",
    "homology_of",
    "inverse_letter",
    "is_cyclically_reduced",
    "moments",
    "parse_exact",
    "positivity_report",
    "sigma2_rederived",
    "sigma2_reported",
    "sign_survey",
    "total_count",
    "univariate_table",
]
