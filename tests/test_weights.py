"""Weight kinds: the bump pair against adaptive quadrature, against mpmath and
against the kernels its fast paths replaced, and the scalar public functions
against the array path."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from congruence_lab.counting import (
    _BUMP_T_MAX,
    _FOLDED_NODES,
    _FOLDED_WEIGHTS,
    BUMP_PAIR,
    GAUSSIAN,
    SHARP_CUTOFF,
    WeightSpec,
    _bump_fhat,
    bump_pair_weight,
    gaussian_weight,
    weight_eval,
    weight_eval_array,
    weight_fourier,
    weight_fourier_array,
)


def seed_bump(u):
    return math.exp(-1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0


def quad_fhat(t):
    """Transform of the seed bump by adaptive quadrature (QAWO cosine weight)."""
    if t == 0:
        return quad(seed_bump, -1.0, 1.0, epsabs=1e-15, limit=200)[0]
    return quad(seed_bump, -1.0, 1.0, weight="cos", wvar=2.0 * math.pi * t, epsabs=1e-15, limit=200)[0]


def quad_self_convolution(z):
    lo, hi = max(-1.0, z - 1.0), min(1.0, z + 1.0)
    return quad(lambda u: seed_bump(u) * seed_bump(z - u), lo, hi, epsabs=1e-16, limit=200)[0]


FHAT0 = quad_fhat(0.0)


@pytest.mark.parametrize("radius", [1.0, 0.5])
def test_bump_transform_matches_quadrature(radius):
    """weight(x) = (fhat(r|x|) / fhat(0))^2, so |fhat(t)| = fhat(0) sqrt(weight(t / r))."""
    b = bump_pair_weight(radius)
    for t in (0.0, 0.37, 1.3, 4.1, 9.7, 17.0, 22.0, 29.0):
        got = FHAT0 * math.sqrt(weight_eval(b, t / radius))
        assert abs(got - abs(quad_fhat(t))) <= 1e-12 * FHAT0, t


@pytest.mark.parametrize("radius", [1.0, 0.5])
def test_bump_self_convolution_matches_quadrature(radius):
    """Fourier(weight)(y) = (bump * bump)(|y| / r) / (r fhat(0)^2)."""
    b = bump_pair_weight(radius)
    scale = radius * FHAT0 * FHAT0
    conv0 = quad_self_convolution(0.0)
    for z in (0.0, 0.5, 1.2, 1.8, 1.95):
        got = weight_fourier(b, z * radius) * scale
        assert abs(got - quad_self_convolution(z)) <= 1e-12 * conv0, z


points = st.lists(st.floats(-60.0, 60.0, allow_nan=False), min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([GAUSSIAN, BUMP_PAIR, SHARP_CUTOFF]),
    shape=st.floats(0.05, 20.0),
    xs=points,
)
def test_scalar_functions_equal_array_path(kind, shape, xs):
    w = WeightSpec(kind, sigma=shape, radius=shape)
    arr = np.array(xs)
    values = weight_eval_array(w, arr)
    transform = weight_fourier_array(w, arr)
    assert values.shape == transform.shape == arr.shape
    for x, v, f in zip(xs, values, transform):
        assert weight_eval(w, x) == v
        assert weight_fourier(w, x) == f
    assert (values >= 0).all()
    assert (weight_eval_array(w, -arr) == values).all()


def test_gaussian_at_huge_argument_is_zero_without_warning():
    w = gaussian_weight(1.0)
    xs = np.array([0.5, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = weight_eval_array(w, xs)
        transform = weight_fourier_array(w, xs)
    assert values[1] == 0.0 and transform[1] == 0.0
    assert values[0] == math.exp(-math.pi * 0.25) and transform[0] == math.exp(-math.pi * 0.25)


def cosine_matrix_fhat(ts):
    """The seed bump's transform as one 192-cosine row per distinct t (the oracle
    of the angle-addition kernel); 0 from _BUMP_T_MAX on and at NaN."""
    out = np.zeros(ts.shape)
    inside = ts < _BUMP_T_MAX
    distinct, index = np.unique(ts[inside], return_inverse=True)
    rows = (np.cos(2.0 * math.pi * distinct[:, None] * _FOLDED_NODES) * _FOLDED_WEIGHTS).sum(axis=1)
    out[inside] = rows[index]
    return out


ORACLE_FHAT0 = float(cosine_matrix_fhat(np.zeros(1))[0])


@st.composite
def weight_arguments(draw):
    """Float arrays of every shape the array path takes: 0-d, empty, 1-D and 2-D, with
    repeated points, signed zeros, infinities, NaN and points on both sides of the
    bump's transform and self-convolution cutoffs."""
    specials = st.sampled_from([0.0, -0.0, 15.0, 30.0, -30.0, 60.0, 1e308, math.inf, -math.inf, math.nan])
    values = draw(st.lists(st.one_of(st.floats(-40.0, 40.0), st.floats(-400.0, 400.0), specials), max_size=40))
    if values:
        values += draw(st.lists(st.sampled_from(values), max_size=10))
    layout = draw(st.sampled_from(["0-d", "1-D", "2-D"]))
    if layout == "0-d":
        return np.array(values[0] if values else 0.0)
    if layout == "2-D":
        return np.array(values[:len(values) // 2 * 2]).reshape(2, -1)
    return np.array(values)


@settings(max_examples=300, deadline=None)
@given(xs=weight_arguments(), radius=st.floats(0.1, 2.0))
def test_bump_transform_matches_the_kernel_it_replaced(xs, radius):
    """Angle addition against the full cosine sum, with the edges kept exact; the
    self-convolution keeps its shape and is exactly 0 from z = 2 on."""
    w = bump_pair_weight(radius)
    with np.errstate(over="ignore"):
        ts = radius * np.abs(xs)
        zs = np.abs(xs) / radius

    values = weight_eval_array(w, xs)
    assert values.shape == xs.shape
    assert (values[~(ts < _BUMP_T_MAX)] == 0.0).all()
    assert np.abs(values - (cosine_matrix_fhat(ts) / ORACLE_FHAT0) ** 2).max(initial=0.0) <= 4e-15

    fhat = _bump_fhat(ts)
    assert fhat.shape == xs.shape
    assert np.abs(fhat - cosine_matrix_fhat(ts)).max(initial=0.0) <= 2e-15 * ORACLE_FHAT0

    transform = weight_fourier_array(w, xs)
    assert transform.shape == xs.shape
    assert (transform[~(zs < 2.0)] == 0.0).all()


def test_bump_kernels_give_each_argument_its_value_alone():
    """A value does not depend on the other arguments of its call: each of 5000 sorted
    arguments, spread over three row blocks, matches the same argument passed alone."""
    rng = np.random.default_rng(19)
    w = bump_pair_weight(1.0)
    for evaluate, hi in ((weight_eval_array, 35.0), (weight_fourier_array, 2.2)):
        xs = np.sort(rng.uniform(0.0, hi, 5000))
        together = evaluate(w, xs)
        picked = rng.choice(len(xs), 150, replace=False)
        assert all(evaluate(w, xs[i:i + 1])[0] == together[i] for i in picked)


def mpmath_fhat(t):
    """The same 192-node folded trapezoid sum at 40 digits, nodes and weights taken exactly."""
    with mpmath.workdps(40):
        arg = 2 * mpmath.pi * mpmath.mpf(t)
        return float(mpmath.fsum(mpmath.mpf(float(wt)) * mpmath.cos(arg * mpmath.mpf(float(u)))
                                 for u, wt in zip(_FOLDED_NODES, _FOLDED_WEIGHTS)))


def test_bump_transform_accuracy_against_mpmath():
    """Over ~300 t in [0, 30), the angle-addition kernel is within 1e-15 of fhat(0) of the
    exact trapezoid sum, and no worse than the cosine kernel it replaced."""
    ts = np.concatenate([np.arange(0.0, _BUMP_T_MAX, 0.25), np.random.default_rng(11).uniform(0.0, _BUMP_T_MAX, 180)])
    exact = np.array([mpmath_fhat(t) for t in ts])
    worst = np.abs(_bump_fhat(ts) - exact).max()
    assert worst <= 1e-15 * exact[0]
    assert worst <= np.abs(cosine_matrix_fhat(ts) - exact).max()
