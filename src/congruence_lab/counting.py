"""Weighted counts of small solutions to diagonal quadratic congruences.

A weighted count T sums a product of one-dimensional weights over lattice
points satisfying Q(x) = 0 mod p^m under a coprimality side condition.
Two independent evaluations are provided: the direct sum over a truncated
box, either by a meet-in-the-middle join of residue sums (small boxes) or by
a cyclic convolution of per-coordinate residue histograms (wide boxes), and
the spectral route through the dual kernel F, whose zero frequency is the
main term T0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .densities import DiagonalForm, mod_p_density
from .errors import (
    TruncationInsufficient,
    ValidationError,
    charge,
    require_finite_positive,
    require_int,
    resolve_budget,
)
from .modmath import PrimePowerModulus, invmod, residue_dtype

GAUSSIAN = "gaussian"
BUMP_PAIR = "bump_pair"
SHARP_CUTOFF = "sharp_cutoff"

UNIT_COORDS = "unit-coords"
NOT_ALL_ZERO = "not-all-zero"

WEIGHT_NEGLIGIBLE = 1e-12
FOURIER_NEGLIGIBLE = 1e-14


@dataclass(frozen=True)
class WeightSpec:
    """A nonnegative Schwartz-type weight with an evaluable Fourier transform.

    kind "gaussian": exp(-pi x^2 / sigma^2), self-dual up to scaling.
    kind "bump_pair": the square of the Fourier transform of the standard
    compactly supported bump scaled to [-radius, radius]; its own Fourier
    transform is the bump self-convolution, supported on [-2 radius, 2 radius].
    kind "sharp_cutoff": the indicator of [-radius, radius] (direct counts
    only; it is not Schwartz and fails the spectral tail checks).
    """

    kind: str
    sigma: float = 1.0
    radius: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown weight kind {self.kind!r}")
        for name, value in (("sigma", self.sigma), ("radius", self.radius)):
            require_finite_positive(f"weight {name}", value)
        if self.kind == GAUSSIAN and self.sigma * self.sigma == 0.0:
            # exp(-pi x^2 / sigma^2) would divide by a square that underflowed to 0
            raise ValidationError(f"weight sigma={self.sigma!r} is too small: sigma^2 underflows to 0")


def gaussian_weight(sigma: float = 1.0) -> WeightSpec:
    return WeightSpec(GAUSSIAN, sigma=sigma)


def bump_pair_weight(radius: float = 1.0) -> WeightSpec:
    return WeightSpec(BUMP_PAIR, radius=radius)


def sharp_cutoff_weight(radius: float = 1.0) -> WeightSpec:
    return WeightSpec(SHARP_CUTOFF, radius=radius)


# Each kind below implements, on float arrays: the weight, its Fourier
# transform, the support cutoff (x beyond which the weight is below
# WEIGHT_NEGLIGIBLE), the Fourier tail cutoff (y beyond which the transform
# is below FOURIER_NEGLIGIBLE times its value at 0), and monotone majorants
# of the weight and of |transform| beyond each point (the decay envelopes).


class _Sampled:
    def table(self, w, N, X):
        """The weight at x / N for every integer x in [-X, X], at table[x + X]."""
        return self.values(w, np.arange(-X, X + 1) / N)


class _Gaussian(_Sampled):
    # at huge |x| the square overflows to inf and exp(-inf) is the exact 0.0
    def values(self, w, xs):
        with np.errstate(over="ignore"):
            return np.exp(-math.pi * xs * xs / (w.sigma * w.sigma))

    # np.square, not ** 2: a 0-d argument's ** 2 runs C pow, an ulp off the array's square
    def fourier(self, w, ys):
        with np.errstate(over="ignore"):
            return w.sigma * np.exp(-math.pi * np.square(w.sigma * ys))

    def support_cutoff(self, w):
        return 6.0 * w.sigma

    def fourier_tail_cutoff(self, w):
        return math.sqrt(-math.log(FOURIER_NEGLIGIBLE) / math.pi) / w.sigma

    # both decrease in |x|, so each is its own envelope
    value_envelope = values
    fourier_envelope = fourier


class _SharpCutoff(_Sampled):
    def values(self, w, xs):
        return (np.abs(xs) <= w.radius).astype(float)

    def fourier(self, w, ys):
        # sinc(z) = sin(pi z) / (pi z); where pi z passes the float range, its limit 0
        with np.errstate(over="ignore"):
            zs = 2.0 * w.radius * ys
            beyond = np.isinf(math.pi * zs)
        return np.where(beyond, 0.0, 2.0 * w.radius * np.sinc(np.where(beyond, 0.0, zs)))

    def support_cutoff(self, w):
        return w.radius

    def fourier_tail_cutoff(self, w):
        return math.inf  # sinc tails never become negligible

    value_envelope = values

    def fourier_envelope(self, w, ys):
        with np.errstate(divide="ignore"):
            return np.minimum(2.0 * w.radius, 1.0 / (math.pi * np.abs(ys)))


def _seed_bump(u):
    """The standard bump exp(-1/(1-u^2)) on (-1, 1), 0 outside."""
    return np.exp(-1.0 / np.maximum(1.0 - u * u, np.finfo(float).tiny))


# Every derivative of the seed bump vanishes at +-1, so the trapezoid rule on
# a fixed grid gives its transform and self-convolution to rounding error
# (Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
# SIAM Rev. 56, 2014).  384 panels match adaptive quadrature to ~1e-15 of
# fhat(0) for |t| <= 30, where the rule's aliasing error is fhat at |t| >= 162.
_BUMP_PANELS = 384
_NODE_STEP = 2.0 / _BUMP_PANELS
_BUMP_NODES = np.arange(1 - _BUMP_PANELS // 2, _BUMP_PANELS // 2) * _NODE_STEP
_BUMP_NODE_WEIGHTS = _NODE_STEP * _seed_bump(_BUMP_NODES)
# the seed is even, so its cosine sum folds onto the nodes u_j = j * _NODE_STEP, 0 <= j < 192
_FOLDED_NODES = _BUMP_NODES[_BUMP_PANELS // 2 - 1:]
_FOLDED_WEIGHTS = np.where(_FOLDED_NODES == 0.0, 1.0, 2.0) * _BUMP_NODE_WEIGHTS[_BUMP_PANELS // 2 - 1:]
# Angle addition over j = 16a + b: with x = 2 pi _NODE_STEP t,
#   fhat(t) = sum_a cos(16ax) (C W^T)[a] - sin(16ax) (S W^T)[a],
# where C, S hold cos(bx), sin(bx) for b < 16 and W[a, b] is the folded weight of node 16a + b.
_ANGLE_SPLIT = 16
_FOLDED_WEIGHT_GRID = _FOLDED_WEIGHTS.reshape(-1, _ANGLE_SPLIT)  # W: (12, 16)
_INNER_STEPS = np.arange(_ANGLE_SPLIT)
_OUTER_STEPS = np.arange(0, len(_FOLDED_NODES), _ANGLE_SPLIT)
_BUMP_T_MAX = 30.0  # the bump-pair weight is taken as 0 beyond this transform argument
_BUMP_SCAN_STEP = 0.02
# One sequential sum over all 192 nodes drifts to ~1e-15 of fhat(0) near t = 0; four
# runs of 48 keep the grid within ~4e-16 of the exact trapezoid sum.
_GRID_RUNS = 4
_ROW_BLOCK = 2048  # distinct arguments per block: the largest block matrix, 2048 x 383, is 6.3 MB


def _node_sum(args: np.ndarray, limit: float, block_sum) -> np.ndarray:
    """block_sum(rows) for each a < limit (0 elsewhere), once per distinct a, in ascending blocks."""
    out = np.zeros(args.shape)
    inside = args < limit
    distinct, index = np.unique(args[inside], return_inverse=True)
    sums = np.empty(len(distinct))
    for start in range(0, len(distinct), _ROW_BLOCK):
        sums[start:start + _ROW_BLOCK] = block_sum(distinct[start:start + _ROW_BLOCK])
    out[inside] = sums[index]
    return out


# Each argument gets the value it gets alone in a block: einsum's loops, unlike
# BLAS matmul, do not change with the number of rows.
def _fhat_block(ts: np.ndarray) -> np.ndarray:
    x = (2.0 * math.pi * _NODE_STEP) * ts[:, None]
    inner = x * _INNER_STEPS
    outer = x * _OUTER_STEPS
    return ((np.cos(outer) * np.einsum("rb,ab->ra", np.cos(inner), _FOLDED_WEIGHT_GRID)).sum(axis=1)
            - (np.sin(outer) * np.einsum("rb,ab->ra", np.sin(inner), _FOLDED_WEIGHT_GRID)).sum(axis=1))


def _bump_fhat(ts: np.ndarray) -> np.ndarray:
    """The seed bump's Fourier transform at each t >= 0 (0 from _BUMP_T_MAX on)."""
    return _node_sum(ts, _BUMP_T_MAX, _fhat_block)


_BUMP_FHAT0 = float(_bump_fhat(np.zeros(1))[0])


def _bump_fhat_grid(h: float, count: int) -> np.ndarray:
    """fhat(x h) for x = 0, ..., count - 1 (0 from _BUMP_T_MAX on), as one grid product.

    With a = 2 pi _NODE_STEP h and x = B x1 + x0 (B = isqrt(count)), each term of the
    folded sum splits as cos(a j x) = cos(a j B x1) cos(a j x0) - sin(a j B x1) sin(a j x0):
    two (rows x 192) . (192 x B) contractions and 2 * 192 * (rows + B) cosines and sines
    for the whole grid, instead of 28 pairs per point.  Each contraction runs over
    _GRID_RUNS runs of consecutive nodes and adds the runs' sums at the end; it is an
    einsum, not BLAS matmul, so its values do not depend on the BLAS thread count.
    """
    B = math.isqrt(count)
    a = 2.0 * math.pi * _NODE_STEP * h
    j = np.arange(len(_FOLDED_NODES)).reshape(_GRID_RUNS, -1)
    outer = a * (np.arange(0, count, B)[:, None, None] * j)  # exact integer products, one rounding each
    inner = a * (j[:, :, None] * np.arange(B))
    weights = _FOLDED_WEIGHTS.reshape(j.shape)
    runs = np.einsum("xrj,rjb->xrb", np.cos(outer) * weights, np.cos(inner))
    runs -= np.einsum("xrj,rjb->xrb", np.sin(outer) * weights, np.sin(inner))
    fhat = runs.sum(axis=1).ravel()[:count]
    fhat[np.arange(count) * h >= _BUMP_T_MAX] = 0.0
    return fhat


@lru_cache(maxsize=1)
def _bump_scan() -> tuple[float, np.ndarray]:
    """One scan of |fhat| on the 0.02 grid over [0, 30]: the support cutoff t* (one
    step past the last point where (fhat/fhat(0))^2 >= 1e-12) and the suffix
    maxima of |fhat|, a monotone majorant of the oscillating tail.  The grid product
    stays within ~6e-16 fhat(0) of the node sums, and is ~2.5x as fast."""
    ts = np.arange(0.0, _BUMP_T_MAX + _BUMP_SCAN_STEP / 2, _BUMP_SCAN_STEP)
    mag = np.abs(_bump_fhat_grid(_BUMP_SCAN_STEP, len(ts)))
    last = np.nonzero(mag >= 1e-6 * mag[0])[0][-1]
    return float(ts[last] + _BUMP_SCAN_STEP), np.maximum.accumulate(mag[::-1])[::-1]


class _BumpPair:
    # an argument scaled past the float range is inf, which lies outside both supports
    def values(self, w, xs):
        with np.errstate(over="ignore"):
            ts = w.radius * np.abs(xs)
        return np.square(_bump_fhat(ts) / _BUMP_FHAT0)  # not ** 2, as in _Gaussian.fourier

    def fourier(self, w, ys):
        # the self-convolution (bump * bump)(z), supported on |z| < 2
        with np.errstate(over="ignore"):
            zs = np.abs(ys) / w.radius
        conv = _node_sum(zs, 2.0, lambda z: (_seed_bump(z[:, None] - _BUMP_NODES) * _BUMP_NODE_WEIGHTS).sum(axis=1))
        return conv / (w.radius * _BUMP_FHAT0 * _BUMP_FHAT0)

    def table(self, w, N, X):
        # x / N scales to t = x h with h = radius / N: an arithmetic grid, mirrored to x < 0
        half = (_bump_fhat_grid(w.radius / N, X + 1) / _BUMP_FHAT0) ** 2
        return np.concatenate([half[:0:-1], half])

    def support_cutoff(self, w):
        return _bump_scan()[0] / w.radius

    def fourier_tail_cutoff(self, w):
        return 2.0 * w.radius  # exactly supported

    def value_envelope(self, w, xs):
        t_star, suffix_max = _bump_scan()
        ts = w.radius * np.abs(xs)
        at = np.minimum(ts / _BUMP_SCAN_STEP, len(suffix_max) - 1).astype(int)
        return np.where(ts >= t_star, WEIGHT_NEGLIGIBLE, (suffix_max[at] / _BUMP_FHAT0) ** 2)

    def fourier_envelope(self, w, ys):
        return np.where(np.abs(ys) >= 2.0 * w.radius, 0.0, fourier_at_zero(w))


_KINDS = {GAUSSIAN: _Gaussian(), BUMP_PAIR: _BumpPair(), SHARP_CUTOFF: _SharpCutoff()}


def weight_eval_array(w: WeightSpec, xs) -> np.ndarray:
    """The weight at each point of xs, normalized so the Gaussian has value 1 at 0."""
    return _KINDS[w.kind].values(w, np.asarray(xs, dtype=float))


def weight_fourier_array(w: WeightSpec, ys) -> np.ndarray:
    """The Fourier transform at each point of ys (real: all weights here are real and even)."""
    return _KINDS[w.kind].fourier(w, np.asarray(ys, dtype=float))


def weight_eval(w: WeightSpec, x: float) -> float:
    """The weight value at x (weight_eval_array at one point)."""
    return float(weight_eval_array(w, x))


def weight_fourier(w: WeightSpec, y: float) -> float:
    """The Fourier transform at y (weight_fourier_array at one point)."""
    return float(weight_fourier_array(w, y))


def fourier_at_zero(w: WeightSpec) -> float:
    return weight_fourier(w, 0.0)


def weight_support_cutoff(w: WeightSpec) -> float:
    """x beyond which the weight drops below the negligibility threshold."""
    return _KINDS[w.kind].support_cutoff(w)


def fourier_tail_cutoff(w: WeightSpec) -> float:
    """y beyond which |Fourier transform| < 1e-14 * its value at 0."""
    return _KINDS[w.kind].fourier_tail_cutoff(w)


class PoissonCheck(NamedTuple):
    lhs: float
    rhs: float
    gap: float


def poisson_identity_check(
    w: WeightSpec, q: int, a: int, N: float, truncation: int
) -> PoissonCheck:
    """Numerically compare both sides of Poisson summation over a residue class.

    lhs sums the weight over m = a mod q with |m| <= truncation * q; rhs sums
    (N/q) * Fourier(n N / q) * e(n a / q) over |n| <= truncation.  Raises
    TruncationInsufficient when the weight's decay envelope says either tail
    could exceed 1e-10.
    """
    require_finite_positive("N", N)
    q, a, truncation = require_int("q", q), require_int("a", a), require_int("truncation", truncation)
    if q < 1 or truncation < 1:
        raise ValidationError("need q >= 1, truncation >= 1")
    M = truncation * q
    lhs_tail = float(_KINDS[w.kind].value_envelope(w, np.asarray(M / N))) * (N / q + 2.0)
    rhs_tail = float(_KINDS[w.kind].fourier_envelope(w, np.asarray(truncation * N / q))) * (q / N + 2.0)
    if lhs_tail > 1e-10 or rhs_tail > 1e-10:
        raise TruncationInsufficient(
            f"tail envelopes {lhs_tail:.2g}/{rhs_tail:.2g} exceed 1e-10"
        )
    a_red = a % q
    j_lo = math.ceil((-M - a_red) / q)
    j_hi = math.floor((M - a_red) / q)
    lhs = float(weight_eval_array(w, (a_red + np.arange(j_lo, j_hi + 1) * q) / N).sum())
    ns = np.arange(-truncation, truncation + 1)
    terms = weight_fourier_array(w, ns * N / q) * np.exp(2j * math.pi * ns * a_red / q)
    rhs_c = complex(terms.sum()) * (N / q)
    return PoissonCheck(lhs, rhs_c.real, abs(lhs - rhs_c))


@dataclass(frozen=True)
class CountReport:
    """Outcome of one weighted count: T, the main term T0, and their ratio."""

    T: float
    T0: float
    ratio: float
    p: int
    m: int
    N: float
    lambdas: tuple[int, ...]
    inhomogeneous_term: int
    weight: WeightSpec
    mode: str
    strategy: str
    cost: dict
    truncation_bound: float


def _main_term(
    form: DiagonalForm, modulus: PrimePowerModulus, N: float, w: WeightSpec, mode: str
) -> float:
    """T0 = density * fhat(0)^n * N^n / q, the density taken mod p under the
    mode's side condition (see count_weighted_spectral for why mod p suffices)."""
    density = mod_p_density(form, modulus.p, units_only=mode == UNIT_COORDS).as_rational
    try:
        volume = float(N) ** form.n
    except OverflowError:
        raise ValidationError(f"N^n = {N}^{form.n} is beyond the float range") from None
    return float(density) * fourier_at_zero(w) ** form.n * volume / modulus.q


def _cyclic_convolution(factors, q: int) -> np.ndarray:
    """Cyclic convolution mod q of float histograms given as (histogram, power)
    pairs, each histogram taken power times: one rfft per pair, a pointwise
    power and product of the spectra, one inverse transform."""
    spectrum = np.ones(q // 2 + 1, dtype=complex)
    for hist, power in factors:
        spectrum *= np.fft.rfft(hist) ** power
    return np.fft.irfft(spectrum, q)


def _residue_histograms(coeffs, squares: np.ndarray, weights: np.ndarray, q: int):
    """(histogram of coeff * squares mod q weighted by weights, multiplicity)
    for each distinct coefficient mod q: the factors of _cyclic_convolution."""
    return [(np.bincount(coeff * squares % q, weights=weights, minlength=q), power)
            for coeff, power in Counter(c % q for c in coeffs).items()]


def _fft_cost(n: int, q: int) -> int:
    """Budget estimate of n length-q transforms: n * q * ceil(log2 q)."""
    return n * q * (q - 1).bit_length()


def _convolution_transforms(coeffs, q: int) -> int:
    """Transforms _cyclic_convolution runs on the histograms of coeffs mod q:
    one rfft per distinct coefficient mod q and one irfft."""
    return len({c % q for c in coeffs}) + 1


def _axis_data(table: np.ndarray, X: int, p: int, q: int, restrict: str):
    """Per-coordinate admissible lattice values in [-X, X], their weights (table[x + X])
    and their squares mod q (Python ints once products mod q leave int64).

    restrict is "none", "units" (x coprime to p) or "pdiv" (p | x).
    """
    xs = np.arange(-X, X + 1, dtype=np.int64)
    if restrict == "units":
        xs = xs[xs % p != 0]
    elif restrict == "pdiv":
        xs = xs[xs % p == 0]
    return xs, table[xs + X], (xs * xs).astype(residue_dtype(q), copy=False) % q


def _count_histogram(form, modulus, table, X, restrict):
    q = modulus.q
    xs, wts, squares = _axis_data(table, X, modulus.p, q, restrict)
    if len(xs) == 0:
        return 0.0, {"axis_points": 0, "convolutions": 0}
    factors = _residue_histograms(form.lambdas, squares, wts, q)
    acc = _cyclic_convolution(factors, q)
    # the transforms that ran: one rfft per factor and the irfft
    cost = {"axis_points": int(len(xs) * form.n), "convolutions": len(factors) + 1}
    return float(acc[form.inhomogeneous_term % q]), cost


def _distinct_keys(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the summed weights of each."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    return distinct, np.bincount(inverse, weights=weights)


def _sorted_join(want: np.ndarray, wts: np.ndarray, keys: np.ndarray, key_wts: np.ndarray):
    """Sum of wts[i] * key_wts[j] over the pairs with want[i] = keys[j], for
    distinct ascending keys: one binary search per entry of want."""
    idx = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    hit = keys[idx] == want
    return np.dot(wts[hit], key_wts[idx[hit]])


def _residue_sums(lambdas, squares: np.ndarray, wts: np.ndarray, q: int):
    """Every sum of lam_j x_j^2 mod q over the given coordinates (x_j^2 mod q
    from squares) and the product of the x_j's weights, one entry per vector."""
    sums, prods = np.zeros(1, dtype=squares.dtype), np.ones(1)
    for lam in lambdas:
        sums = ((sums[:, None] + (lam % q) * squares % q) % q).ravel()
        prods = np.outer(prods, wts).ravel()
    return sums, prods


def _count_enumerate(form, modulus, table, X, restrict):
    """Meet in the middle: the first n // 2 coordinates' sums mod q are joined
    against the distinct sums of the others, sorted, at lam_{n+1} minus each."""
    q = modulus.q
    xs, wts, squares = _axis_data(table, X, modulus.p, q, restrict)
    half = form.n // 2
    left, left_wts = _residue_sums(form.lambdas[:half], squares, wts, q)
    right, right_wts = _residue_sums(form.lambdas[half:], squares, wts, q)
    total = _sorted_join((form.inhomogeneous_term % q - left) % q, left_wts, *_distinct_keys(right, right_wts))
    return float(total), {"axis_points": int(len(xs) * form.n), "outer_points": len(left) + len(right)}


def count_weighted_direct(
    form: DiagonalForm,
    modulus: PrimePowerModulus,
    N: float,
    w: WeightSpec,
    mode: str = UNIT_COORDS,
    strategy: str = "auto",
    budget: int | None = None,
) -> CountReport:
    """Weighted count of lattice solutions of Q(x) = 0 mod p^m in a box.

    The box [-X, X]^n truncates each coordinate where the weight falls below
    1e-12.  Strategy "enumerate" meets in the middle: a table of every residue
    sum of the first n // 2 coordinates, with its weight product, is joined to
    the sorted distinct sums of the rest, at about E log E operations for
    E = (2X+1)^(n//2) + (2X+1)^(n - n//2) and nothing of length q, so it
    serves small boxes at large q.  "histogram" groups the same sum by
    residues (per-coordinate weighted histograms, cyclically convolved) at
    O(n * (X + q log q)): one real FFT per distinct coefficient mod q and one
    inverse transform, which serves wide boxes.  "auto" runs whichever of the
    two budget charges is smaller.
    """
    if mode not in (UNIT_COORDS, NOT_ALL_ZERO):
        raise ValidationError(f"unknown mode {mode!r}")
    if strategy not in ("auto", "enumerate", "histogram"):
        raise ValidationError(f"unknown strategy {strategy!r}")
    require_finite_positive("N", N)
    q, p = modulus.q, modulus.p
    form.require_unit_coefficients(p)
    budget_val = resolve_budget(budget)
    extent = weight_support_cutoff(w) * N
    charge(2 * extent + 1, budget_val, "weight table")
    X = math.ceil(extent)
    n = form.n

    # the side condition in signed parts: units, or all vectors minus p | every x_j
    parts = [("units", 1)] if mode == UNIT_COORDS else [("none", 1), ("pdiv", -1)]
    # the half tables and one sort; the axis histograms and their transforms
    entries = (2 * X + 1) ** (n // 2) + (2 * X + 1) ** (n - n // 2)
    charges = {
        "enumerate": len(parts) * entries * entries.bit_length(),
        "histogram": len(parts) * (n * (2 * X + 1) + _fft_cost(_convolution_transforms(form.lambdas, q), q)),
    }
    if strategy == "auto":
        strategy = min(charges, key=charges.get)
    charge(charges[strategy], budget_val, f"{strategy} count")
    count_part = _count_enumerate if strategy == "enumerate" else _count_histogram
    table = _KINDS[w.kind].table(w, N, X)  # shared by both parts
    counts = [count_part(form, modulus, table, X, r) for r, _ in parts]
    T = sum(sign * t for (_, sign), (t, _) in zip(parts, counts))
    cost = {key: sum(c[key] for _, c in counts) for key in counts[0][1]}

    T0 = _main_term(form, modulus, N, w, mode)
    if mode == UNIT_COORDS and T0 == 0.0:
        T = 0.0  # no unit solution mod p, so none in the box: drop the FFT's rounding noise
    ratio = T / T0 if T0 > 0 else math.nan
    trunc = 2 * n * (2 * X + 1) ** (n - 1) * WEIGHT_NEGLIGIBLE
    return CountReport(
        T=T, T0=T0, ratio=ratio, p=p, m=modulus.m, N=N,
        lambdas=form.lambdas, inhomogeneous_term=form.inhomogeneous_term,
        weight=w, mode=mode, strategy=strategy, cost=cost, truncation_bound=trunc,
    )


def _top_frequency_block(form, p, m, N, w, t_max) -> float:
    """Sum of Psi(k) F(k) over the nonzero k = p^(m-1) * t with |t_j| <= t_max.

    There F(k) = p^(n(m-1)) sum_u e(-u lam_{n+1}/p) prod_j sum_y e((u lam_j y^2 + t_j y)/p),
    u mod p and y over the units mod p.  Summing over t weights each y by
    phi(y) = sum_t fhat(t N/p) e(t y/p), and the sum over u leaves p^(n(m-1)+1)
    times the phi-weighted histogram convolution mod p at lam_{n+1}.  Weight
    fhat(0) gives the t = 0 term, which belongs to T0 and is subtracted.
    """
    ts = np.arange(-t_max, t_max + 1)
    folded = np.bincount(ts % p, weights=weight_fourier_array(w, ts * N / p), minlength=p)
    units = np.arange(1, p)
    phi = np.fft.fft(folded).real[units]  # folded[s] = folded[-s], so phi is real
    squares, target = units * units % p, form.inhomogeneous_term % p
    full, zero = (_cyclic_convolution(_residue_histograms(form.lambdas, squares, wts, p), p)[target]
                  for wts in (phi, np.full(p - 1, fourier_at_zero(w))))
    return float(p) ** (form.n * (m - 1) + 1) * float(full - zero)


def count_weighted_spectral(
    form: DiagonalForm,
    modulus: PrimePowerModulus,
    N: float,
    w: WeightSpec,
    budget: int | None = None,
) -> CountReport:
    """The same count through the dual side: T = N^n q^{-(n+1)} sum of Psi(k) F(k).

    The zero frequency is the main term T0 from the mod-p density.  Every
    lam_j is a unit mod p, so each unit-coordinate solution mod p is
    nonsingular and Hensel's lemma lifts it to exactly p^(n-1) solutions per
    level: #{x mod p^m} = p^((m-1)(n-1)) * #{x mod p}, which makes that
    density exact at every m.  Nonzero frequencies contribute only at vectors
    p^r * l with all l_j coprime to p and 0 <= r <= m - 2, where the closed
    kernel applies, and at p^(m-1) * t, where the kernel depends only on
    t mod p (see _top_frequency_block).
    Frequencies p^r * l are grouped by the value of the dual quadratic form
    mod c = p^(m-r), and each level is one real gather over the units below
    c/2 (see dual_kernel_level).  Frequencies stop at ceil(Y q / N), Y the
    weight's ``fourier_tail_cutoff``, reported as ``cost["k_cutoff"]``.
    """
    # the one use of charsums here: a direct count never loads it
    from .charsums import dual_kernel_level

    q, p, m = modulus.q, modulus.p, modulus.m
    n = form.n
    require_finite_positive("N", N)
    form.require_unit_coefficients(p, include_inhomogeneous=True)
    budget_val = resolve_budget(budget)

    T0 = _main_term(form, modulus, N, w, UNIT_COORDS)

    ycut = fourier_tail_cutoff(w)
    if not math.isfinite(ycut):
        raise TruncationInsufficient("weight's Fourier tail never becomes negligible")
    k_cutoff = math.ceil(ycut * q / N)

    total = 0.0
    kernel_evals = 0
    axis_points = 0

    # T0 = 0 means no unit-coordinate solution mod p, hence none mod q: T is
    # exactly 0 and the frequency sums below would only add rounding noise
    solvable = T0 != 0.0
    # frequencies k = p^(m-1) * t: significant whenever the Fourier weight at N/p is
    t_max = k_cutoff // p ** (m - 1)
    if solvable and t_max > 0:
        transforms = _convolution_transforms(form.lambdas, p)
        charge(2 * t_max + 1 + _fft_cost(1, p) + 2 * (n * (p - 1) + _fft_cost(transforms, p)),
               budget_val, "spectral low-frequency block")
        total += _top_frequency_block(form, p, m, N, w, t_max)
        axis_points += n * (2 * t_max + 1)
    for r in range(m - 1 if solvable else 0):
        c = p ** (m - r)
        L = k_cutoff // p**r
        vs = np.array([v for v in range(1, L + 1) if v % p != 0], dtype=np.int64)
        if len(vs) == 0:
            continue
        inverses = [invmod(lam % c, c) for lam in form.lambdas]
        # the axis, the transforms, and the gather's at most 16 array passes over the units below c/2
        charge(n * len(vs) + _fft_cost(_convolution_transforms(inverses, c), c) + 8 * c, budget_val,
               "spectral frequency sum")
        axis_points += n * len(vs)
        fw = 2.0 * weight_fourier_array(w, (p**r) * vs * N / q)  # +-v folded
        wdist = _cyclic_convolution(_residue_histograms(inverses, (vs * vs) % c, fw, c), c)
        kernel_evals += c
        total += dual_kernel_level(form, modulus, r, wdist)

    U = total * float(N) ** n / float(q) ** (n + 1)
    T = T0 + U
    ratio = T / T0 if T0 > 0 else math.nan
    cost = {
        "kernel_evals": kernel_evals,
        "axis_points": axis_points,
        "k_cutoff": k_cutoff,
    }
    return CountReport(
        T=T, T0=T0, ratio=ratio, p=p, m=m, N=N,
        lambdas=form.lambdas, inhomogeneous_term=form.inhomogeneous_term,
        weight=w, mode=UNIT_COORDS, strategy="spectral", cost=cost,
        truncation_bound=FOURIER_NEGLIGIBLE * n * max(1.0, abs(T0)),
    )
