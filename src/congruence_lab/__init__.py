"""Exact and numerical toolkit for quadratic congruences modulo odd prime powers.

Character sums (Gauss, Kloosterman, Salie) with closed forms, modular
square roots and Hensel lifting, solution densities, weighted
small-solution counts with a spectral cross-check, square-root
exponential sums, and singular series machinery, plus a CLI.

The names below are loaded on first use (PEP 562), so ``import
congruence_lab`` and each CLI verb import only the submodules they need.
"""

import importlib

_SUBMODULES = ("charsums", "counting", "densities", "errors", "modmath", "representations", "sqrt_expsums")

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "charsums": (
            "ExactCharSum",
            "F_bruteforce",
            "F_closed",
            "KloostermanClosedForm",
            "cochrane_vanishes",
            "gauss_sum_bruteforce",
            "gauss_sum_closed",
            "kloosterman_bruteforce",
            "kloosterman_closed",
            "salie_bruteforce",
            "salie_closed",
        ),
        "counting": (
            "NOT_ALL_ZERO",
            "UNIT_COORDS",
            "CountReport",
            "WeightSpec",
            "bump_pair_weight",
            "count_weighted_direct",
            "count_weighted_spectral",
            "gaussian_weight",
            "poisson_identity_check",
            "sharp_cutoff_weight",
            "weight_eval",
            "weight_fourier",
        ),
        "densities": (
            "DensityValue",
            "DiagonalForm",
            "count_B_m",
            "density_A",
            "density_B",
            "hensel_stability_report",
            "ternary_C_p",
        ),
        "representations": (
            "DualForm",
            "SingularData",
            "quadruple_count",
            "singular_coefficient",
            "singular_integral",
            "singular_series",
            "tau_n",
        ),
        "sqrt_expsums": ("BoundScanRow", "SqrtSumParams", "bound_scan", "sqrt_root_sum"),
        "errors": (
            "BudgetExceeded",
            "CongruenceLabError",
            "CoprimalityViolated",
            "EvenModulus",
            "HypothesisViolated",
            "IndefiniteForm",
            "NotHomogeneous",
            "NotInvertible",
            "TruncationInsufficient",
            "UnsupportedCase",
            "ValidationError",
        ),
        "modmath": (
            "PrimePowerModulus",
            "Residue",
            "RootClassSet",
            "additive_character",
            "epsilon_c",
            "jacobi_symbol",
            "mod_inverse",
            "mod_pow",
            "sqrt_classes_mod_prime_power",
            "sqrt_mod_prime",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule behind ``name`` and bind the name here, so the
    next access is a plain module-dict lookup."""
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__all__})
