"""The package's public names, loaded on first use."""

import importlib
import inspect
import subprocess
import sys

import pytest

import congruence_lab

SUBMODULES = ("charsums", "counting", "densities", "errors", "modmath", "representations", "sqrt_expsums")

# the public API, pinned so that adding or removing a name is a deliberate edit here
PUBLIC_NAMES = {
    "BoundScanRow", "BudgetExceeded", "CongruenceLabError", "CoprimalityViolated", "CountReport",
    "DensityValue", "DiagonalForm", "DualForm", "EvenModulus", "ExactCharSum", "F_bruteforce",
    "F_closed", "HypothesisViolated", "IndefiniteForm", "KloostermanClosedForm", "NOT_ALL_ZERO",
    "NotHomogeneous", "NotInvertible", "PrimePowerModulus", "Residue", "RootClassSet", "SingularData",
    "SqrtSumParams", "TruncationInsufficient", "UNIT_COORDS", "UnsupportedCase", "ValidationError",
    "WeightSpec", "additive_character", "bound_scan", "bump_pair_weight", "cochrane_vanishes",
    "count_B_m", "count_weighted_direct", "count_weighted_spectral", "density_A", "density_B",
    "epsilon_c", "gauss_sum_bruteforce", "gauss_sum_closed", "gaussian_weight",
    "hensel_stability_report", "jacobi_symbol", "kloosterman_bruteforce", "kloosterman_closed",
    "mod_inverse", "mod_pow", "poisson_identity_check", "quadruple_count", "salie_bruteforce",
    "salie_closed", "sharp_cutoff_weight", "singular_coefficient", "singular_integral",
    "singular_series", "sqrt_classes_mod_prime_power", "sqrt_mod_prime", "sqrt_root_sum", "tau_n",
    "ternary_C_p", "weight_eval", "weight_fourier",
}


def test_public_names_are_pinned():
    assert congruence_lab.__all__ == sorted(PUBLIC_NAMES)


@pytest.mark.parametrize("name", congruence_lab.__all__)
def test_public_name_is_the_object_of_its_submodule(name):
    module = importlib.import_module(f"congruence_lab.{congruence_lab._EXPORTS[name]}")
    value = getattr(congruence_lab, name)
    assert value is getattr(module, name)
    if inspect.isclass(value) or inspect.isfunction(inspect.unwrap(value)):
        assert value.__module__ == module.__name__  # the module that defines it
    assert vars(congruence_lab)[name] is value  # bound: the next access is a dict lookup
    assert name in dir(congruence_lab)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from congruence_lab import *", namespace)
    assert {name: namespace[name] for name in congruence_lab.__all__} == {
        name: getattr(congruence_lab, name) for name in congruence_lab.__all__
    }


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="'congruence_lab' has no attribute 'no_such_name'"):
        congruence_lab.no_such_name
    with pytest.raises(ImportError):
        from congruence_lab import no_such_name  # noqa: F401


def test_submodules_resolve_as_attributes_after_a_bare_import():
    script = (
        "import sys\n"
        "import congruence_lab\n"
        "assert not [m for m in sys.modules if m.startswith('congruence_lab.')]\n"
        f"for name in {SUBMODULES!r}:\n"
        "    assert getattr(congruence_lab, name) is sys.modules['congruence_lab.' + name]\n"
        "    assert name in dir(congruence_lab)\n"
        "assert not hasattr(congruence_lab, 'cli')\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
