"""Exact arithmetic for symmetrized Chebyshev Laurent polynomials.

T_n and U_n composed with (c/2k) sum_i (x_i + 1/x_i): exact construction,
coefficient sign structure, cyclically-reduced-word counts in free groups by
homology class, and convergence of the coefficient distributions to their
Gaussian limit.

Public names load lazily (PEP 562): ``import symcheb`` imports no submodule,
and the first use of a name imports the module it lives in, so a
command-line process compiles only the modules its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# module: the public names defined there
_HOMES = {
    "chebyshev": ("ChebCoeffVector", "ChebKind", "cheb_coeffs", "coeff_formula_T", "eval_closed_T"),
    "cltstats": (
        "ConvergenceReport", "ConvergenceRow", "LatticeDistribution", "MomentReport", "char_fn",
        "convergence_report", "distribution", "freegroup_convergence_report", "moments",
        "sigma2_rederived", "sigma2_reported",
    ),
    "errors": ("DomainError", "InternalError", "ResourceBudgetError", "UsageError"),
    "freegroup": (
        "HomologyCountTable", "Word", "counts_by_formula", "enumerate_counts", "homology_of",
        "inverse_letter", "is_cyclically_reduced", "total_count",
    ),
    "laurent": ("LaurentPoly", "format_exact", "parse_exact"),
    "symmetrized": (
        "PositivityReport", "SignClass", "SurveyRow", "SurveyWitness", "SymChebSpec",
        "UnivariateCoeffTable", "build", "build_sequence", "fullform_coeff", "positivity_report",
        "sign_survey", "univariate_table",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, imported from its module on first use and kept here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
