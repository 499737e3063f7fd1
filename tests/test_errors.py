import math

import pytest

from congruence_lab.counting import (
    NOT_ALL_ZERO,
    WeightSpec,
    count_weighted_direct,
    count_weighted_spectral,
    gaussian_weight,
    poisson_identity_check,
)
from congruence_lab.charsums import (
    F_bruteforce,
    F_closed,
    cochrane_vanishes,
    gauss_sum_bruteforce,
    gauss_sum_closed,
    kloosterman_bruteforce,
    kloosterman_closed,
    salie_bruteforce,
    salie_closed,
)
from congruence_lab.densities import DiagonalForm, density_B, hensel_stability_report, ternary_C_p
from congruence_lab.errors import BudgetExceeded, charge, resolve_budget
from congruence_lab.errors import ValidationError
from congruence_lab.modmath import PrimePowerModulus, Residue, require_odd_prime, sqrt_classes_mod_prime_power
from congruence_lab.representations import DualForm, quadruple_count, singular_integral, tau_n
from congruence_lab.sqrt_expsums import bound_scan


def test_charge_refuses_an_integer_cost_beyond_float_range():
    with pytest.raises(BudgetExceeded, match=r"needs ~1\.00e\+400 ops"):
        charge(10**400, 10**8, "huge table")
    charge(10**8, 10**8)  # at the budget is still allowed


_G = gaussian_weight()
_FORM = DiagonalForm((1, 1, 2), 1)
_MOD = PrimePowerModulus(5, 2)
_DUAL = DualForm((1, 1))

# each entry point with the one scale argument under test left free
_SCALE_ENTRY_POINTS = {
    "direct N": ("N", lambda v: count_weighted_direct(_FORM, _MOD, v, _G)),
    "direct hom N": ("N", lambda v: count_weighted_direct(DiagonalForm((1, 1, 1)), _MOD, v, _G,
                                                          NOT_ALL_ZERO, strategy="histogram")),
    "spectral N": ("N", lambda v: count_weighted_spectral(_FORM, _MOD, v, _G)),
    "poisson N": ("N", lambda v: poisson_identity_check(_G, 7, 3, v, 20)),
    "tau N": ("N", lambda v: tau_n(2, _DUAL, 0, _G, PrimePowerModulus(3, 5), v)),
    "singular k": ("k", lambda v: singular_integral(v, 2.0, _DUAL, _G)),
    "singular P": ("P", lambda v: singular_integral(1.0, v, _DUAL, _G)),
    "weight sigma": ("sigma", lambda v: WeightSpec("gaussian", sigma=v)),
    "weight radius": ("radius", lambda v: WeightSpec("bump_pair", radius=v)),
}


# a string, None or a complex scale used to raise a bare TypeError
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0, "25", None, 2j])
@pytest.mark.parametrize("entry", list(_SCALE_ENTRY_POINTS))
def test_non_finite_or_non_positive_scale_is_refused_by_name(entry, value):
    name, call = _SCALE_ENTRY_POINTS[entry]
    with pytest.raises(ValidationError, match=rf"\b{name}\b"):
        call(value)


def test_singular_integral_keeps_P_at_least_one():
    with pytest.raises(ValidationError, match=r"\bP\b"):
        singular_integral(1.0, 0.5, _DUAL, _G)


@pytest.mark.parametrize("kwargs", [{"mode": "nonzero"}, {"strategy": "fft"}])
def test_unknown_mode_or_strategy_is_refused_before_any_charge(kwargs):
    """A budget of one operation would refuse the weight table; the bad option must win."""
    with pytest.raises(ValidationError, match="unknown"):
        count_weighted_direct(_FORM, _MOD, 25.0, _G, budget=1, **kwargs)


_TAU_MOD = PrimePowerModulus(3, 5)
_MOD_125 = PrimePowerModulus(5, 3)

# each entry point with one integer argument given as a float; a nan or inf
# budget used to come back as is, and then admitted every cost
_INTEGER_ENTRY_POINTS = {
    "budget nan": ("budget", lambda: resolve_budget(math.nan)),
    "budget inf": ("budget", lambda: resolve_budget(math.inf)),
    "budget 1.5": ("budget", lambda: resolve_budget(1.5)),
    "scan s": ("s", lambda: bound_scan(3, [2.5], 2, 1)),
    "scan trials": ("trials", lambda: bound_scan(3, [2], 2.0, 1)),
    "scan seed": ("seed", lambda: bound_scan(3, [2], 2, 1.0)),
    "scan c_max": ("c_max", lambda: bound_scan(3, [2], 2, 1, c_max=8.5)),
    "scan k_cap": ("k_cap", lambda: bound_scan(3, [2], 2, 1, k_cap=100.5)),
    "quadruple alpha": ("alpha", lambda: quadruple_count((1, 1, 1.5, 1), 4, 81, 2)),
    "quadruple b": ("b", lambda: quadruple_count((1, 1, 1, 1), 4.5, 81, 2)),
    "quadruple c": ("c", lambda: quadruple_count((1, 1, 1, 1), 4, 81.5, 2)),
    "quadruple M": ("M", lambda: quadruple_count((1, 1, 1, 1), 4, 81, 2.5)),
    "tau k": ("k", lambda: tau_n(12.0, DualForm((1, 1)), 0, _G, _TAU_MOD, 10.0)),
    "tau r": ("r", lambda: tau_n(12, DualForm((1, 1)), 0.5, _G, _TAU_MOD, 10.0)),
    "residue value": ("value", lambda: Residue(2.5, 7)),
    "residue modulus": ("modulus", lambda: Residue(2, 7.0)),
    "root classes r": ("r", lambda: sqrt_classes_mod_prime_power(2.5, _MOD)),
    "poisson q": ("q", lambda: poisson_identity_check(_G, 5.0, 2, 10.0, 60)),
    "poisson a": ("a", lambda: poisson_identity_check(_G, 5, 2.5, 10.0, 60)),
    "poisson truncation": ("truncation", lambda: poisson_identity_check(_G, 5, 2, 10.0, 60.5)),
    "cochrane a": ("a", lambda: cochrane_vanishes(2.5, 1, Residue(1, 5), _MOD_125)),
    "cochrane b": ("b", lambda: cochrane_vanishes(1, 2.5, Residue(1, 5), _MOD_125)),
    "hensel m_max": ("m_max", lambda: hensel_stability_report(_FORM, 5, 2.5)),
    "F_closed r": ("r", lambda: F_closed(0.5, (1, 1, 1), _FORM, _MOD_125)),
    "F_closed l_j": ("l_j", lambda: F_closed(0, (1, 1.5, 1), _FORM, _MOD_125)),
    "odd prime p": ("p", lambda: require_odd_prime(7.0)),
    "density_B p": ("p", lambda: density_B(DiagonalForm((1, 1, 2), 1), 5.0)),
    "ternary p": ("p", lambda: ternary_C_p(1, 1, 2, 5.0)),
    "scan p": ("p", lambda: bound_scan(7.0, [2], 2, 1)),
    "gauss closed a": ("a", lambda: gauss_sum_closed(1.5, 2, _MOD_125)),
    "gauss closed b": ("b", lambda: gauss_sum_closed(1, 2.5, _MOD_125)),
    "kloosterman closed a": ("a", lambda: kloosterman_closed(1.5, 2, _MOD_125)),
    "kloosterman closed b": ("b", lambda: kloosterman_closed(1, 2.5, _MOD_125)),
    "salie closed a": ("a", lambda: salie_closed(1.5, 2, _MOD_125)),
    "salie closed b": ("b", lambda: salie_closed(1, 2.5, _MOD_125)),
    "gauss brute a": ("a", lambda: gauss_sum_bruteforce(1.5, 2, 5)),
    "gauss brute b": ("b", lambda: gauss_sum_bruteforce(1, 2.5, 5)),
    "gauss brute c": ("c", lambda: gauss_sum_bruteforce(1, 2, 5.0)),
    "kloosterman brute a": ("a", lambda: kloosterman_bruteforce(1.5, 2, 9)),
    "kloosterman brute b": ("b", lambda: kloosterman_bruteforce(1, 2.5, 9)),
    "kloosterman brute c": ("c", lambda: kloosterman_bruteforce(1, 2, 9.0)),
    "salie brute a": ("a", lambda: salie_bruteforce(1.5, 2, 9)),
    "salie brute b": ("b", lambda: salie_bruteforce(1, 2.5, 9)),
    "salie brute c": ("c", lambda: salie_bruteforce(1, 2, 9.0)),
    "F brute k_j": ("k_j", lambda: F_bruteforce((1.5, 2, 1), _FORM, _MOD)),
    "quadruple p": ("p", lambda: quadruple_count((1, 1, 1, 1), 4, 81, 2, p=2.5)),
}


@pytest.mark.parametrize("entry", list(_INTEGER_ENTRY_POINTS))
def test_non_integer_argument_is_refused_by_name(entry):
    """Each of these used to run on the float, or fail with an exception
    that did not name it."""
    name, call = _INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(ValidationError, match=rf"\b{name} must be an integer"):
        call()


@pytest.mark.parametrize("p", [0, 4, -3, 1])
def test_quadruple_count_refuses_a_p_that_is_not_an_odd_prime(p):
    """p = 0 used to divide by zero, and 4 or -3 ran as if prime."""
    with pytest.raises(ValidationError, match=rf"\bp={p} must be an odd prime"):
        quadruple_count((1, 1, 1, 1), 4, 81, 2, p=p)
