import itertools
import time
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_lab.densities import (
    DiagonalForm,
    _convolved_count,
    _convolved_count_cost,
    _count_mod_p,
    count_B_m,
    cyclic_convolution_exact,
    density_A,
    density_B,
    hensel_stability_report,
    square_value_histogram,
    ternary_C_p,
)
from congruence_lab.errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CoprimalityViolated,
    NotHomogeneous,
    ValidationError,
)
from congruence_lab.modmath import PrimePowerModulus, jacobi_symbol

RNG = np.random.default_rng(42)


def count_exhaustive(lams, target, q, p, units_only):
    count = 0
    ranges = [range(q)] * len(lams)
    for xs in itertools.product(*ranges):
        if units_only and any(x % p == 0 for x in xs):
            continue
        if sum(lam * x * x for lam, x in zip(lams, xs)) % q == target % q:
            count += 1
    return count


def test_cyclic_convolution_matches_naive():
    for _ in range(20):
        L = int(RNG.integers(1, 30))
        a = [int(v) for v in RNG.integers(0, 1000, L)]
        b = [int(v) for v in RNG.integers(0, 1000, L)]
        want = [0] * L
        for i, av in enumerate(a):
            for j, bv in enumerate(b):
                want[(i + j) % L] += av * bv
        assert cyclic_convolution_exact(a, b) == want


def test_cyclic_convolution_big_values():
    L = 11
    a = [10**25 + i for i in range(L)]
    b = [3**40 - i for i in range(L)]
    want = [0] * L
    for i in range(L):
        for j in range(L):
            want[(i + j) % L] += a[i] * b[j]
    assert cyclic_convolution_exact(a, b) == want


def test_density_B_examples():
    dv = density_B(DiagonalForm((1, 1), 2), 5)
    assert (dv.numerator, dv.denominator) == (4, 5)
    assert dv.numerator == count_exhaustive((1, 1), 2, 5, 5, True)
    dv1 = density_B(DiagonalForm((1,), 1), 5)
    assert (dv1.numerator, dv1.denominator) == (2, 1)
    # six squares with unit coefficients always represent a unit mod 5
    dv6 = density_B(DiagonalForm((1, 1, 1, 1, 1, 1), 1), 5)
    assert dv6.numerator > 0
    assert dv6.numerator == count_exhaustive((1,) * 6, 1, 5, 5, True)


def test_density_B_nonempty_for_p_at_least_5():
    """Sumsets of unit squares cover enough residues once p >= 5."""
    for p in (5, 7, 11, 13):
        for _ in range(10):
            lams = tuple(int(RNG.integers(1, p)) for _ in range(4))
            lnext = int(RNG.integers(1, p))
            assert density_B(DiagonalForm(lams, lnext), p).numerator > 0


def test_density_B_coprimality_errors():
    with pytest.raises(CoprimalityViolated):
        density_B(DiagonalForm((3, 1), 1), 3)
    with pytest.raises(CoprimalityViolated):
        density_B(DiagonalForm((1, 1), 3), 3)


def test_form_coefficients_are_integers():
    """A float coefficient used to be truncated (1.5 became 1) and the
    inhomogeneous term was never coerced."""
    form = DiagonalForm((np.int64(1), np.int32(1), 2), np.int64(3))
    assert form == DiagonalForm((1, 1, 2), 3)
    assert all(type(v) is int for v in (*form.lambdas, form.inhomogeneous_term))
    for lams, lnext in [((1.5, 1, 2), 3), ((1, 1, 2), 3.0), (("1", 1, 2), 3), ((1, 1, 2), "3")]:
        with pytest.raises(ValidationError, match="must be an integer"):
            DiagonalForm(lams, lnext)


def test_density_A_examples():
    dv = density_A(DiagonalForm((1, 1, 1)), 3)
    assert (dv.numerator, dv.denominator) == (8, 9)
    assert dv.numerator == count_exhaustive((1, 1, 1), 0, 3, 3, False) - 1
    dv2 = density_A(DiagonalForm((1, -1)), 5)
    assert dv2.numerator == 8
    assert dv2.numerator == count_exhaustive((1, -1), 0, 5, 5, False) - 1
    dv4 = density_A(DiagonalForm((1, 1, 1, 1)), 3)
    assert dv4.numerator > 0
    with pytest.raises(NotHomogeneous):
        density_A(DiagonalForm((1, 1), 1), 3)


def test_ternary_examples():
    assert ternary_C_p(1, 1, 1, 5) == 0
    assert count_exhaustive((1, 1, 1), 0, 5, 5, True) == 0
    assert ternary_C_p(1, 1, -1, 5) == 0
    assert jacobi_symbol(-1, 7) == -1
    assert ternary_C_p(1, 1, 1, 7) == Fraction(48, 49)
    assert count_exhaustive((1, 1, 1), 0, 7, 7, True) == 48
    with pytest.raises(CoprimalityViolated):
        ternary_C_p(5, 1, 1, 5)


def test_ternary_matches_exhaustive_random():
    for p in (3, 5, 7, 11, 13):
        for _ in range(10):
            l1, l2, l3 = (int(RNG.integers(1, p)) for _ in range(3))
            cp = ternary_C_p(l1, l2, l3, p)
            count = count_exhaustive((l1, l2, l3), 0, p, p, True)
            assert count == cp * p * p, (p, l1, l2, l3)


def test_count_B_m_examples_and_oracle():
    form = DiagonalForm((1, 1), 2)
    assert count_B_m(form, PrimePowerModulus(5, 1)) == density_B(form, 5).numerator * 1
    c2 = count_B_m(form, PrimePowerModulus(5, 2))
    assert c2 == 20
    assert c2 == count_exhaustive((1, 1), 2, 25, 5, True)
    form3 = DiagonalForm((1, 1, 1), 1)
    c3 = count_B_m(form3, PrimePowerModulus(3, 3))
    assert c3 == count_exhaustive((1, 1, 1), 1, 27, 3, True)
    assert c3 == 3 ** (2 * 2) * count_B_m(form3, PrimePowerModulus(3, 1))


@pytest.mark.parametrize(
    "lams,lnext,p,m",
    [((1, 2), 1, 3, 3), ((2, 3), 4, 5, 2), ((1, 1, 2), 2, 3, 2), ((1, 4), 3, 7, 2)],
)
def test_histogram_count_equals_naive(lams, lnext, p, m):
    q = p**m
    assert q ** len(lams) <= 10**6
    form = DiagonalForm(lams, lnext)
    assert count_B_m(form, PrimePowerModulus(p, m)) == count_exhaustive(lams, lnext, q, p, True)


def test_hensel_stability_examples():
    assert hensel_stability_report(DiagonalForm((1, 1), 2), 5, 3) == [Fraction(4, 5)] * 3
    assert hensel_stability_report(DiagonalForm((1,), 1), 7, 3) == [Fraction(2)] * 3
    rep = hensel_stability_report(DiagonalForm((1, 1, 1), 1), 3, 2)
    assert len(set(rep)) == 1


def test_hensel_stability_random_forms():
    for p in (3, 5, 7):
        for _ in range(7):
            n = int(RNG.integers(1, 4))
            lams = tuple(int(RNG.integers(1, p)) for _ in range(n))
            lnext = int(RNG.integers(1, p))
            rep = hensel_stability_report(DiagonalForm(lams, lnext), p, 3)
            assert len(set(rep)) == 1, (p, lams, lnext, rep)


def test_square_histogram_totals():
    h = square_value_histogram(2, 9, 3, units_only=True)
    assert sum(h) == 6
    want = [0] * 9
    for x in range(9):
        if x % 3:
            want[2 * x * x % 9] += 1
    assert h == want


def test_form_validation():
    with pytest.raises(ValidationError):
        DiagonalForm(())
    f = DiagonalForm((1, 2), 3)
    assert f.n == 2 and not f.is_homogeneous
    assert DiagonalForm((1,)).is_homogeneous


def full_chain_count(coeffs, target, q, p, units_only):
    """The n - 1 exact convolutions of the whole chain (the half-chain count's oracle)."""
    hists = [square_value_histogram(coeff, q, p, units_only) for coeff in coeffs]
    return reduce(cyclic_convolution_exact, hists)[target % q]


@st.composite
def _convolved_count_args(draw):
    p, m_max = draw(st.sampled_from([(3, 5), (5, 4), (7, 3)]))
    q = p ** draw(st.integers(1, m_max))
    coeffs = tuple(draw(st.lists(st.integers(-2 * q, 2 * q), min_size=1, max_size=7)))
    return coeffs, draw(st.integers(0, q - 1)), q, p, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_convolved_count_args())
def test_half_chain_count_equals_full_chain(args):
    assert _convolved_count(*args) == full_chain_count(*args)


@st.composite
def _mod_p_count_args(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
    unit = st.integers(-3 * p, 3 * p).filter(lambda x: x % p != 0)
    lambdas = tuple(draw(st.lists(unit, min_size=1, max_size=7)))
    return lambdas, draw(st.integers(-4 * p, 4 * p)), p, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_mod_p_count_args())
def test_closed_mod_p_count_equals_convolution(args):
    lambdas, target, p, units_only = args
    zero_vector = not units_only and target % p == 0
    want = _convolved_count(lambdas, target, p, p, units_only) - zero_vector
    assert _count_mod_p(lambdas, target, p, units_only) == want


def test_density_A_at_the_largest_prime_below_the_bound():
    # for odd n the quadric sum x_j^2 = 0 has exactly p^(n-1) solutions mod p,
    # the zero vector among them
    p = 1_048_573
    start = time.perf_counter()
    dv = density_A(DiagonalForm((1, 1, 1, 1, 1)), p)
    assert time.perf_counter() - start < 0.5
    assert (dv.numerator, dv.denominator) == (p**4 - 1, p**4)


def test_count_B_m_charges_its_half_chains():
    form = DiagonalForm((1, 1, 1, 1, 1, 1), 2)
    mod = PrimePowerModulus(5, 6)
    cost = _convolved_count_cost(6, mod.q, mod.q - mod.q // 5)
    assert 10**7 < cost < DEFAULT_BUDGET  # six squares mod 5^6 fit the default budget
    with pytest.raises(BudgetExceeded, match="count_B_m"):
        count_B_m(form, mod, budget=cost - 1)
    assert count_B_m(form, mod, budget=cost) == 286102294921875000000
