"""Weight kinds: the bump pair against adaptive quadrature, and the scalar
public functions against the array path."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from congruence_lab.counting import (
    BUMP_PAIR,
    GAUSSIAN,
    SHARP_CUTOFF,
    WeightSpec,
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
