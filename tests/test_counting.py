import itertools
import math
import time
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_lab import charsums
from congruence_lab.counting import (
    NOT_ALL_ZERO,
    UNIT_COORDS,
    WeightSpec,
    _cyclic_convolution,
    bump_pair_weight,
    count_weighted_direct,
    count_weighted_spectral,
    fourier_at_zero,
    gaussian_weight,
    poisson_identity_check,
    sharp_cutoff_weight,
    weight_eval,
    weight_eval_array,
    weight_fourier,
    weight_support_cutoff,
)
from congruence_lab.counting import _count_enumerate, _top_frequency_block, weight_fourier_array
from congruence_lab.densities import DiagonalForm, count_B_m
from congruence_lab.errors import (
    BudgetExceeded,
    TruncationInsufficient,
    ValidationError,
)
from congruence_lab.modmath import PrimePowerModulus, sqrt_classes_mod_prime_power


def brute_count(form, q, p, N, w, mode):
    """Full-box enumeration with a direct congruence test (the oracle)."""
    X = math.ceil(weight_support_cutoff(w) * N)
    target = form.inhomogeneous_term % q
    import itertools

    total = 0.0
    for xs in itertools.product(range(-X, X + 1), repeat=form.n):
        if mode == UNIT_COORDS and any(x % p == 0 for x in xs):
            continue
        if mode == NOT_ALL_ZERO and all(x % p == 0 for x in xs):
            continue
        if sum(lam * x * x for lam, x in zip(form.lambdas, xs)) % q != target:
            continue
        wt = 1.0
        for x in xs:
            wt *= weight_eval(w, x / N)
        total += wt
    return total


def test_weight_examples():
    g = gaussian_weight()
    assert weight_eval(g, 0.0) == 1.0
    assert abs(weight_eval(g, 1.0) - math.exp(-math.pi)) < 1e-15
    assert abs(fourier_at_zero(g) - 1.0) < 1e-15
    b = bump_pair_weight()
    for x in (0.3, 1.7, 4.0):
        assert weight_eval(b, x) >= 0
        assert weight_eval(b, x) == weight_eval(b, -x)
    assert weight_fourier(b, 2.0) == 0.0
    assert weight_fourier(b, 2.1) == 0.0
    assert fourier_at_zero(b) > 0
    s = sharp_cutoff_weight(1.0)
    assert weight_eval(s, 0.5) == 1.0 and weight_eval(s, 1.5) == 0.0
    assert abs(fourier_at_zero(s) - 2.0) < 1e-15
    with pytest.raises(ValidationError):
        WeightSpec("triangle")


def test_bump_pair_parseval():
    """The bump-pair weight integrates to its Fourier transform at zero."""
    b = bump_pair_weight()
    cut = weight_support_cutoff(b)
    xs = np.linspace(-cut, cut, 40001)
    vals = np.array([weight_eval(b, float(x)) for x in xs[:: len(xs) // 2001]])
    # coarse scalar subsample, then a fine trapezoid through the array path
    integral = np.trapezoid(weight_eval_array(b, xs), xs)
    assert abs(integral - fourier_at_zero(b)) < 1e-6
    assert (vals >= 0).all()


@pytest.mark.parametrize("name", ["sigma", "radius"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
def test_weight_spec_rejects_non_finite_or_non_positive_shape(name, value):
    for kind in ("gaussian", "bump_pair", "sharp_cutoff"):
        with pytest.raises(ValidationError, match=name):
            WeightSpec(kind, **{name: value})


def test_bump_pair_fourier_is_scaled_self_convolution():
    b = bump_pair_weight(radius=0.5)
    assert weight_fourier(b, 1.0) == 0.0  # support is [-2r, 2r] = [-1, 1]
    assert weight_fourier(b, 0.999) != 0.0 or weight_fourier(b, 0.9) > 0


def test_poisson_examples():
    g = gaussian_weight()
    assert poisson_identity_check(g, 5, 2, 10.0, 40).gap < 1e-8
    assert poisson_identity_check(g, 1, 0, 9.0, 60).gap < 1e-8
    chk = poisson_identity_check(g, 3, 1, 200.0, 700)
    assert chk.gap < 1e-8
    # zero-frequency dominance for large N
    assert abs(chk.lhs - 200.0 / 3) < 1.0
    with pytest.raises(TruncationInsufficient):
        poisson_identity_check(g, 5, 2, 10.0, 2)
    with pytest.raises(TruncationInsufficient):
        poisson_identity_check(sharp_cutoff_weight(), 5, 2, 10.0, 50)


def test_poisson_with_bump_validates_transform_pair():
    b = bump_pair_weight()
    assert poisson_identity_check(b, 7, 3, 11.0, 80).gap < 1e-7


@pytest.mark.parametrize("strategy", ["enumerate", "histogram"])
def test_direct_count_matches_bruteforce(strategy):
    g = gaussian_weight()
    form = DiagonalForm((1, 1), 2)
    mod = PrimePowerModulus(5, 2)
    rep = count_weighted_direct(form, mod, 25.0, g, UNIT_COORDS, strategy=strategy)
    want = brute_count(form, 25, 5, 25.0, g, UNIT_COORDS)
    assert abs(rep.T - want) < 1e-9 * max(1.0, want)
    assert abs(rep.ratio - 1.0) < 0.25
    assert rep.T0 > 0


def test_direct_count_homogeneous_matches_bruteforce():
    g = gaussian_weight()
    form = DiagonalForm((1, 1, 1))
    mod = PrimePowerModulus(3, 2)
    for strategy in ("enumerate", "histogram"):
        rep = count_weighted_direct(form, mod, 6.0, g, NOT_ALL_ZERO, strategy=strategy)
        want = brute_count(form, 9, 3, 6.0, g, NOT_ALL_ZERO)
        assert abs(rep.T - want) < 1e-9 * max(1.0, want)


def test_sharp_weight_linear_progression_count():
    """n=1: the count is just the weighted size of two residue classes."""
    s = sharp_cutoff_weight(1.0)
    form = DiagonalForm((1,), 1)
    mod = PrimePowerModulus(5, 1)
    N = 500.0
    rep = count_weighted_direct(form, mod, N, s, UNIT_COORDS)
    exact = sum(1 for x in range(-500, 501) if x * x % 5 == 1)
    assert rep.T == exact
    assert abs(rep.T - 2 * (2 * N / 5)) <= 2.0


def test_mode_monotonicity():
    g = gaussian_weight()
    form = DiagonalForm((1, 1, 1, 1))
    for p, m, N in [(3, 3, 10.0), (5, 2, 12.0), (3, 4, 20.0)]:
        mod = PrimePowerModulus(p, m)
        t_units = count_weighted_direct(form, mod, N, g, UNIT_COORDS, strategy="histogram").T
        t_nonzero = count_weighted_direct(form, mod, N, g, NOT_ALL_ZERO, strategy="histogram").T
        assert t_units <= t_nonzero + 1e-9


def test_strategies_agree_on_larger_config():
    g = gaussian_weight()
    form = DiagonalForm((1, 1, 2), 1)
    mod = PrimePowerModulus(3, 3)
    r1 = count_weighted_direct(form, mod, 8.0, g, UNIT_COORDS, strategy="enumerate")
    r2 = count_weighted_direct(form, mod, 8.0, g, UNIT_COORDS, strategy="histogram")
    assert abs(r1.T - r2.T) < 1e-8 * max(1.0, r1.T)


def test_spectral_matches_direct():
    g = gaussian_weight()
    cases = [
        ((1, 1), 2, 5, 2, 25.0),
        ((1, 1, 2), 1, 3, 3, 8.0),
        ((1, 1, 1), 2, 3, 4, 15.0),
    ]
    for lams, lnext, p, m, N in cases:
        form = DiagonalForm(lams, lnext)
        mod = PrimePowerModulus(p, m)
        rd = count_weighted_direct(form, mod, N, g, UNIT_COORDS)
        rs = count_weighted_spectral(form, mod, N, g)
        assert abs(rs.T - rd.T) <= 0.01 * max(rd.T, 1e-9), (lams, lnext, p, m)


def test_negative_coefficients_direct_and_spectral():
    g = gaussian_weight()
    form = DiagonalForm((1, -1))
    mod = PrimePowerModulus(3, 2)
    for strategy in ("enumerate", "histogram"):
        rep = count_weighted_direct(form, mod, 5.0, g, NOT_ALL_ZERO, strategy=strategy)
        want = brute_count(form, 9, 3, 5.0, g, NOT_ALL_ZERO)
        assert abs(rep.T - want) < 1e-9 * max(1.0, want)
    iform = DiagonalForm((1, -1), 1)
    mod7 = PrimePowerModulus(7, 2)
    rd = count_weighted_direct(iform, mod7, 30.0, g, UNIT_COORDS)
    rs = count_weighted_spectral(iform, mod7, 30.0, g)
    assert rd.T > 0
    assert abs(rs.T - rd.T) <= 0.01 * rd.T


def test_spectral_small_N_uses_low_frequency_block():
    b = bump_pair_weight()
    form = DiagonalForm((1, 1, 1, 1, 1, 1), 1)
    mod = PrimePowerModulus(5, 2)
    rd = count_weighted_direct(form, mod, 6.0, b, UNIT_COORDS, strategy="histogram")
    rs = count_weighted_spectral(form, mod, 6.0, b)
    assert abs(rs.T - rd.T) <= 0.01 * rd.T


@pytest.mark.parametrize("lams,lnext", [((1, 1, 1, 1, 1, 1), 1), ((1, 2, 3, 4, 1, 2), 3)])
def test_bump_spectral_matches_direct_tightly(lams, lnext):
    """With exact bump transforms the two sides of Poisson summation agree far
    below criterion 8's 1 percent; what remains (~1.5e-11) is the direct box
    cut where the weight falls below 1e-12."""
    b = bump_pair_weight(radius=0.5)
    form = DiagonalForm(lams, lnext)
    for m in (2, 3, 4):
        mod = PrimePowerModulus(5, m)
        N = float(math.ceil(mod.q**0.55))
        rd = count_weighted_direct(form, mod, N, b, UNIT_COORDS)
        rs = count_weighted_spectral(form, mod, N, b)
        assert abs(rs.T - rd.T) <= 1e-9 * rd.T, (lams, m)


def test_spectral_matches_literal_frequency_sum():
    """Tie the grouped spectral evaluation to the raw dual expansion:
    T = N^n q^-(n+1) * sum over the whole frequency grid of Psi(k) F(k),
    with F evaluated by the literal triple sum (mixed valuations included)."""
    import itertools

    from congruence_lab.charsums import F_bruteforce

    g = gaussian_weight()
    form = DiagonalForm((1, 1), 2)
    mod = PrimePowerModulus(3, 2)
    N = 6.0
    cutoff = 5
    total = 0.0 + 0.0j
    for k in itertools.product(range(-cutoff, cutoff + 1), repeat=2):
        psi = weight_fourier(g, k[0] * N / 9) * weight_fourier(g, k[1] * N / 9)
        if psi < 1e-16:
            continue
        total += psi * F_bruteforce(k, form, mod)
    literal = (N**2 / 9**3) * total
    assert abs(literal.imag) < 1e-9
    rs = count_weighted_spectral(form, mod, N, g)
    rd = count_weighted_direct(form, mod, N, g, UNIT_COORDS)
    assert rs.T == pytest.approx(literal.real, rel=1e-9)
    assert rd.T == pytest.approx(literal.real, rel=1e-9)


@pytest.mark.parametrize("lams, lnext, p, m", [
    ((1,), 2, 3, 3),
    ((1, 1, 1), 2, 3, 4),
    ((1, 1), 1, 5, 3),
])
@pytest.mark.parametrize("w", [gaussian_weight(), bump_pair_weight(0.5)])
def test_spectral_is_exactly_zero_without_unit_solutions_mod_p(lams, lnext, p, m, w):
    """No unit-coordinate solution mod p leaves none mod p^m: both routes
    return an exact 0.0, the spectral one without rounding noise."""
    form = DiagonalForm(lams, lnext)
    mod = PrimePowerModulus(p, m)
    N = float(math.ceil(mod.q**0.6))
    rs = count_weighted_spectral(form, mod, N, w)
    rd = count_weighted_direct(form, mod, N, w, UNIT_COORDS)
    assert rs.T0 == 0.0
    assert rs.T == 0.0 and rd.T == 0.0


@pytest.mark.parametrize("lams, lnext, p, m", [
    ((1, 1), 2, 3, 5),  # n even, (-1/c) = -1 at odd levels: the 2i sin pairs
    ((1, 1, 1, 1, 1, 1), 2, 5, 4),  # n even, (-1/c) = 1
    ((1, 2, 3), 1, 7, 3),  # n odd: Salie levels
])
def test_spectral_levels_are_real_floats(lams, lnext, p, m, monkeypatch):
    """The front turns each level's cosines, i sines or Salie twists real, so
    the count adds floats and carries no imaginary part."""
    levels = []

    def recorded(*args):
        levels.append(level(*args))
        return levels[-1]

    level = charsums.dual_kernel_level
    monkeypatch.setattr(charsums, "dual_kernel_level", recorded)
    mod = PrimePowerModulus(p, m)
    rep = count_weighted_spectral(DiagonalForm(lams, lnext), mod, mod.q**0.55, bump_pair_weight())
    assert rep.cost["kernel_evals"] > 0 and levels
    assert all(type(v) is float for v in levels) and type(rep.T) is float


def test_spectral_requires_unit_inhomogeneous_term():
    g = gaussian_weight()
    with pytest.raises(Exception):
        count_weighted_spectral(DiagonalForm((1, 1)), PrimePowerModulus(5, 2), 10.0, g)


def test_budget_exceeded():
    g = gaussian_weight()
    form = DiagonalForm((1, 1, 1), 1)
    with pytest.raises(BudgetExceeded):
        count_weighted_direct(form, PrimePowerModulus(3, 2), 50.0, g, UNIT_COORDS,
                              strategy="enumerate", budget=1000)


def test_histogram_count_charges_its_transforms():
    form = DiagonalForm((1, 1, 1, 1, 1, 1), 2)
    mod = PrimePowerModulus(5, 6)
    # one rfft for the one distinct coefficient, one irfft: 2 * q * ceil(log2 q)
    transforms = 2 * mod.q * 14
    with pytest.raises(BudgetExceeded, match="histogram count"):
        count_weighted_direct(form, mod, 203.0, gaussian_weight(), UNIT_COORDS,
                              strategy="histogram", budget=transforms)


@pytest.mark.parametrize("lambdas,mode,transforms", [
    ((1, 1, 2), UNIT_COORDS, 3),
    ((1, 6, 2), UNIT_COORDS, 4),  # 1, 6 and 2 are distinct mod 25
    ((1, 1, 2), NOT_ALL_ZERO, 6),  # two signed parts, three transforms each
    ((1, 1, 1, 1, 1, 1), UNIT_COORDS, 2),
])
def test_histogram_count_reports_the_transforms_that_run(lambdas, mode, transforms):
    rep = count_weighted_direct(DiagonalForm(lambdas, 1), PrimePowerModulus(5, 2), 25.0,
                                gaussian_weight(), mode, strategy="histogram")
    assert rep.cost["convolutions"] == transforms


def test_spectral_count_charges_the_dual_kernel_per_level():
    form = DiagonalForm((1, 1, 1, 1, 1, 1), 2)
    mod = PrimePowerModulus(5, 3)
    # the level r = 0 mod 5^3: 1948 for its axis and two transforms, plus 8 * 125
    # for the gather's 16 passes over the units below c/2
    level = 1948 + 8 * mod.q
    with pytest.raises(BudgetExceeded, match="spectral frequency sum"):
        count_weighted_spectral(form, mod, 10.0, gaussian_weight(), budget=level - 1)
    rep = count_weighted_spectral(form, mod, 10.0, gaussian_weight(), budget=level)
    assert rep.T == count_weighted_spectral(form, mod, 10.0, gaussian_weight()).T


def test_spectral_count_at_a_large_prime_refuses_within_a_second():
    # the main term costs O(n^2) integer steps at any p, so the budget refuses
    # the frequency sum before any work of length p
    mod = PrimePowerModulus(100_003, 2)
    N = float(math.ceil(mod.q**0.55))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="spectral frequency sum"):
        count_weighted_spectral(DiagonalForm((1, 1, 1, 1, 1, 1), 2), mod, N, gaussian_weight())
    assert time.perf_counter() - start < 1.0


def test_direct_count_takes_its_bump_weights_from_one_grid_table(monkeypatch):
    """A not-all-zero bump count at X ~ 9000 runs both parts of its side condition on one
    table, whose cosines and sines number at most 4 * 192 * (sqrt(X + 1) + 1) elements
    (two tables, or 28 cosine/sine pairs per point, would exceed that)."""
    w = bump_pair_weight(0.5)
    N = 203.0
    X = math.ceil(weight_support_cutoff(w) * N)  # also runs the cached cutoff scan before counting
    evaluated = []
    for name in ("cos", "sin"):
        trig = getattr(np, name)
        monkeypatch.setattr(np, name, lambda a, trig=trig: evaluated.append(np.size(a)) or trig(a))
    rep = count_weighted_direct(DiagonalForm((1, 1, 2, 1)), PrimePowerModulus(5, 6), N, w, NOT_ALL_ZERO,
                                strategy="histogram")
    assert rep.T > 0.0 and 8900 <= X <= 9100
    assert 0 < sum(evaluated) <= 4 * 192 * (math.sqrt(X + 1) + 1)


def test_report_fields():
    g = gaussian_weight()
    rep = count_weighted_direct(DiagonalForm((1, 1), 2), PrimePowerModulus(5, 2), 25.0, g, UNIT_COORDS)
    assert rep.p == 5 and rep.m == 2 and rep.N == 25.0
    assert rep.lambdas == (1, 1) and rep.inhomogeneous_term == 2
    assert rep.mode == UNIT_COORDS
    assert rep.cost and rep.truncation_bound >= 0


def fold_convolve(a, b, q):
    """The O(q^2) linear convolution folded mod q (the FFT convolution's oracle)."""
    full = np.convolve(a, b)
    out = np.zeros(q, dtype=full.dtype)
    np.add.at(out, np.arange(len(full)) % q, full)
    return out


@st.composite
def _histogram_operands(draw):
    """(q, operands): 1..7 nonnegative length-q histograms drawn from up to three
    distinct ones, so some operands repeat."""
    q = draw(st.one_of(st.integers(1, 400), st.sampled_from([2, 3, 97, 243, 251, 397, 399])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = []
    for _ in range(3):
        hist = rng.random(q) * draw(st.sampled_from([1.0, 1e3]))
        hist[rng.random(q) < draw(st.sampled_from([0.0, 0.5, 0.95]))] = 0.0
        bases.append(hist)
    labels = draw(st.lists(st.integers(0, 2), min_size=1, max_size=7))
    return q, [bases[i] for i in labels], labels, bases


@settings(max_examples=200, deadline=None)
@given(_histogram_operands())
def test_fft_cyclic_convolution_matches_folded_convolve(args):
    q, operands, labels, bases = args
    want = reduce(lambda a, b: fold_convolve(a, b, q), operands)
    got = _cyclic_convolution([(bases[i], power) for i, power in Counter(labels).items()], q)
    assert got.shape == (q,)
    bound = 1e-12 * math.prod(float(op.sum()) for op in operands)
    assert np.abs(got - want).max() <= bound


@st.composite
def _unit_forms(draw):
    """(form, modulus): odd p < 12 with p^m <= 2500 and 1..6 coefficients plus an
    inhomogeneous term, all units mod p and some negative."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    m = draw(st.integers(1, int(math.log(2500, p))))
    unit = st.integers(-3 * p, 3 * p).filter(lambda v: v % p != 0)
    lams = draw(st.lists(unit, min_size=1, max_size=6))
    return DiagonalForm(tuple(lams), draw(unit)), PrimePowerModulus(p, m)


@settings(max_examples=150, deadline=None)
@given(_unit_forms(), st.integers(1, 60), st.sampled_from([gaussian_weight(), bump_pair_weight(0.5)]))
def test_main_term_from_mod_p_density_matches_exact_count(case, N, w):
    """Both counts' T0 is bitwise the one built from the exact count mod p^m."""
    form, mod = case
    n, p, q = form.n, mod.p, mod.q
    density = Fraction(count_B_m(form, mod), p ** (mod.m * (n - 1)))
    want = float(density) * fourier_at_zero(w) ** n * float(N) ** n / q
    assert count_weighted_spectral(form, mod, float(N), w).T0 == want
    direct = count_weighted_direct(form, mod, float(N), w, UNIT_COORDS, strategy="histogram")
    assert direct.T0 == want


def gauss_matrix_top_block(form, p, m, N, w, t_max):
    """The top-frequency block by p x p Gauss-sum matrices (the oracle): for each
    coefficient, sig[u, t] = sum over units y of e((u lam y^2 + t y) / p), folded
    over |t| <= t_max with the Fourier weights, multiplied over the coordinates,
    minus the t = 0 product, and summed over u against e(-u lam_{n+1} / p)."""
    n = form.n
    fa0 = fourier_at_zero(w)
    phase_p = np.exp(2j * np.pi * np.arange(p) / p)
    u_col = np.arange(p)[:, None]
    t_row = np.arange(p)[None, :]
    low_full = np.ones(p, dtype=np.complex128)
    low_zero = np.ones(p, dtype=np.complex128)
    low_weights = weight_fourier_array(w, np.arange(t_max + 1) * N / p).tolist()
    for lam in form.lambdas:
        sig = np.zeros((p, p), dtype=np.complex128)
        lam_p = lam % p
        for y in range(1, p):
            sig += phase_p[(u_col * ((lam_p * y * y) % p) + t_row * y) % p]
        axis_col = fa0 * sig[:, 0].copy()
        full_col = axis_col.copy()
        for t in range(1, t_max + 1):
            full_col += low_weights[t] * (sig[:, t % p] + sig[:, (-t) % p])
        low_full *= full_col
        low_zero *= axis_col
    carrier = phase_p[(-np.arange(p) * (form.inhomogeneous_term % p)) % p]
    return float(p) ** (n * (m - 1)) * complex((carrier * (low_full - low_zero)).sum())


@st.composite
def _top_block_cases(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    unit = st.integers(-3 * p, 3 * p).filter(lambda v: v % p != 0)
    form = DiagonalForm(tuple(draw(st.lists(unit, min_size=1, max_size=6))), draw(unit))
    w = draw(st.sampled_from([gaussian_weight(), bump_pair_weight(0.5), bump_pair_weight(1.0)]))
    N = draw(st.floats(0.3 * p, 3.0 * p))
    return form, p, draw(st.integers(2, 4)), N, w, draw(st.integers(1, 40))


@settings(max_examples=200, deadline=None)
@given(_top_block_cases())
def test_top_frequency_block_matches_gauss_matrix_oracle(case):
    """The histogram-convolution block equals the Gauss-matrix block to rounding,
    measured against the size of the t = 0 term it subtracts."""
    form, p, m, N, w, t_max = case
    n = form.n
    got = _top_frequency_block(form, p, m, N, w, t_max)
    want = gauss_matrix_top_block(form, p, m, N, w, t_max)
    scale = float(p) ** (n * (m - 1) + 1) * fourier_at_zero(w) ** n * (p - 1) ** n / p
    assert abs(got - want) <= 1e-12 * scale


@pytest.mark.parametrize("lams, lnext, p, m, N, w", [
    ((1, 1, 2), 1, 3, 3, 8.0, gaussian_weight()),
    ((1,) * 6, 1, 5, 2, 6.0, bump_pair_weight(1.0)),
    ((1,) * 6, 1, 5, 2, 6.0, bump_pair_weight(0.5)),
    ((1,) * 6, 2, 5, 3, float(math.ceil(125**0.55)), gaussian_weight()),
])
def test_spectral_with_top_frequency_block_matches_direct_tightly(lams, lnext, p, m, N, w):
    form = DiagonalForm(lams, lnext)
    mod = PrimePowerModulus(p, m)
    rs = count_weighted_spectral(form, mod, N, w)
    assert rs.cost["k_cutoff"] // p ** (m - 1) >= 1  # the block runs
    rd = count_weighted_direct(form, mod, N, w, UNIT_COORDS)
    assert abs(rs.T - rd.T) <= 1e-9 * rd.T


def enumerate_oracle(form, modulus, table, X, restrict):
    """Literal outer-box enumeration with the solved-coordinate square-root trick
    (the meet-in-the-middle join's oracle), in Python-int residues and math.fsum.

    Every coordinate but the one with the largest |lam_j| (ties to the highest
    index) runs over the admissible x in [-X, X]; the last is solved through the
    square-root classes of the remaining residue.  restrict is "none", "units"
    or "pdiv", as in the count's parts."""
    n, q, p = form.n, modulus.q, modulus.p
    solve_idx = max(range(n), key=lambda j: (abs(form.lambdas[j]), j))
    inv_solve = pow(form.lambdas[solve_idx] % q, -1, q)
    xs = [x for x in range(-X, X + 1)
          if restrict == "none" or (x % p == 0) == (restrict == "pdiv")]
    weights = table.tolist()
    pairs = [[((form.lambdas[j] % q) * (x * x % q) % q, weights[x + X]) for x in xs]
             for j in range(n) if j != solve_idx]
    target = form.inhomogeneous_term % q
    root_cache = {}
    terms = []
    for combo in itertools.product(*pairs):
        rhs = inv_solve * (target - sum(res for res, _ in combo)) % q
        if restrict == "units" and rhs % p == 0:
            continue
        if rhs not in root_cache:
            root_cache[rhs] = sqrt_classes_mod_prime_power(rhs, modulus).progressions
        inner = [weights[x + X] for offset, step in root_cache[rhs]
                 for x in range(-X + (offset + X) % step, X + 1, step)
                 if restrict != "pdiv" or x % p == 0]
        terms.append(math.prod(wv for _, wv in combo) * math.fsum(inner))
    return math.fsum(terms)


_JOIN_WEIGHTS = [gaussian_weight(), bump_pair_weight(0.5), sharp_cutoff_weight(1.0)]


@st.composite
def _join_cases(draw):
    """(form, modulus, table, X, restrict): n = 1..4 unit coefficients (some negative),
    p in {3, 5, 7, 11} with p^m up to past 2^63, and a box with (2X+1)^(n-1) <= 20,000."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    n = draw(st.integers(1, 4))
    q_bits = draw(st.sampled_from([12, 24, 40, 70]))
    m = draw(st.integers(1, max(1, int(q_bits / math.log2(p)))))
    unit = st.integers(-3 * p, 3 * p).filter(lambda v: v % p != 0)
    form = DiagonalForm(tuple(draw(st.lists(unit, min_size=n, max_size=n))),
                        draw(st.integers(-(p**m), p**m)))
    x_cap = 300 if n == 1 else int((20_000 ** (1 / (n - 1)) - 1) / 2)
    X = draw(st.integers(1, x_cap))
    w = draw(st.sampled_from(_JOIN_WEIGHTS))
    N = draw(st.floats(0.2, 2.0)) * X / weight_support_cutoff(w)
    table = weight_eval_array(w, np.arange(-X, X + 1) / N)
    return form, PrimePowerModulus(p, m), table, X, draw(st.sampled_from(["none", "units", "pdiv"]))


@settings(max_examples=120, deadline=None)
@given(_join_cases())
def test_enumerate_join_matches_literal_loop(case):
    """The join equals the literal loop to rounding, measured against W^n, W the
    sum of the box's axis weights (an upper bound on every term's total)."""
    form, mod, table, X, restrict = case
    T, _ = _count_enumerate(form, mod, table, X, restrict)
    want = enumerate_oracle(form, mod, table, X, restrict)
    assert abs(T - want) <= 1e-13 * float(table.sum()) ** form.n


@pytest.mark.parametrize("p, m, lnext, N, w", [
    # (q - 1) * x^2 wrapped int64 in the replaced loop, which returned T = 0
    # against the brute-force 0.042044992394563295
    (5, 25, 17, 10.0, gaussian_weight()),
    # q^2 just past 2^63: (q - 1) * x^2 wraps int64 from |x| > 51,400 on, and the
    # replaced loop lost x = +-55,000, y = +-55,001 of y^2 - x^2 = 110,001 (12 of 16)
    (3, 20, 110_001, 56_000.0, sharp_cutoff_weight(1.0)),
])
def test_small_box_count_beyond_int64_matches_oracle(p, m, lnext, N, w):
    form, mod = DiagonalForm((-1, 1), lnext), PrimePowerModulus(p, m)
    assert mod.q ** 2 >= 1 << 63
    rep = count_weighted_direct(form, mod, N, w, UNIT_COORDS)
    assert rep.strategy == "enumerate"
    X = math.ceil(weight_support_cutoff(w) * N)
    oracle = enumerate_oracle(form, mod, weight_eval_array(w, np.arange(-X, X + 1) / N), X, "units")
    assert rep.T == pytest.approx(oracle, rel=1e-13)


def test_auto_runs_the_smaller_charge():
    """A small box at large q runs the join; a wide box at small q the histogram."""
    form, g = DiagonalForm((1, 1), 2), gaussian_weight()
    small_box = count_weighted_direct(form, PrimePowerModulus(5, 10), 125.0, g, UNIT_COORDS)
    wide_box = count_weighted_direct(form, PrimePowerModulus(5, 2), 25.0, g, UNIT_COORDS)
    assert (small_box.strategy, wide_box.strategy) == ("enumerate", "histogram")
    assert set(small_box.cost) == {"axis_points", "outer_points"}
    with pytest.raises(BudgetExceeded, match="histogram count"):
        count_weighted_direct(form, PrimePowerModulus(5, 10), 125.0, g, UNIT_COORDS, strategy="histogram")
