"""Weighted counts of small solutions to diagonal quadratic congruences.

A weighted count T sums a product of one-dimensional weights over lattice
points satisfying Q(x) = 0 mod p^m under a coprimality side condition.
Two independent evaluations are provided: direct enumeration over a
truncated box (with the congruence resolved by modular square roots in the
solved coordinate), and the spectral route through the dual kernel F, whose
zero frequency is the main term T0.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .charsums import dual_kernel_level
from .densities import DiagonalForm, mod_p_density
from .errors import (
    TruncationInsufficient,
    ValidationError,
    charge,
    require_finite_positive,
    resolve_budget,
)
from .modmath import PrimePowerModulus, invmod, sqrt_classes_mod_prime_power

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


class _Gaussian:
    # at huge |x| the square overflows to inf and exp(-inf) is the exact 0.0
    def values(self, w, xs):
        with np.errstate(over="ignore"):
            return np.exp(-math.pi * xs * xs / (w.sigma * w.sigma))

    def fourier(self, w, ys):
        with np.errstate(over="ignore"):
            return w.sigma * np.exp(-math.pi * (w.sigma * ys) ** 2)

    def support_cutoff(self, w):
        return 6.0 * w.sigma

    def fourier_tail_cutoff(self, w):
        return math.sqrt(-math.log(FOURIER_NEGLIGIBLE) / math.pi) / w.sigma

    # both decrease in |x|, so each is its own envelope
    value_envelope = values
    fourier_envelope = fourier


class _SharpCutoff:
    def values(self, w, xs):
        return (np.abs(xs) <= w.radius).astype(float)

    def fourier(self, w, ys):
        return 2.0 * w.radius * np.sinc(2.0 * w.radius * ys)

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


@lru_cache(maxsize=1)
def _bump_scan() -> tuple[float, np.ndarray]:
    """One scan of |fhat| on the 0.02 grid over [0, 30]: the support cutoff t* (one
    step past the last point where (fhat/fhat(0))^2 >= 1e-12) and the suffix
    maxima of |fhat|, a monotone majorant of the oscillating tail."""
    ts = np.arange(0.0, _BUMP_T_MAX + _BUMP_SCAN_STEP / 2, _BUMP_SCAN_STEP)
    mag = np.abs(_bump_fhat(ts))
    last = np.nonzero(mag >= 1e-6 * mag[0])[0][-1]
    return float(ts[last] + _BUMP_SCAN_STEP), np.maximum.accumulate(mag[::-1])[::-1]


class _BumpPair:
    # an argument scaled past the float range is inf, which lies outside both supports
    def values(self, w, xs):
        with np.errstate(over="ignore"):
            ts = w.radius * np.abs(xs)
        return (_bump_fhat(ts) / _BUMP_FHAT0) ** 2

    def fourier(self, w, ys):
        # the self-convolution (bump * bump)(z), supported on |z| < 2
        with np.errstate(over="ignore"):
            zs = np.abs(ys) / w.radius
        conv = _node_sum(zs, 2.0, lambda z: (_seed_bump(z[:, None] - _BUMP_NODES) * _BUMP_NODE_WEIGHTS).sum(axis=1))
        return conv / (w.radius * _BUMP_FHAT0 * _BUMP_FHAT0)

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
    return float(density) * fourier_at_zero(w) ** form.n * float(N) ** form.n / modulus.q


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


def _axis_data(
    form: DiagonalForm, q: int, p: int, N: float, w: WeightSpec, X: int, restrict: str
):
    """Per-coordinate admissible lattice values, their weights and squares mod q,
    plus the weight of every x in [-X, X] at table[x + X].

    restrict is "none", "units" (x coprime to p) or "pdiv" (p | x).
    """
    table = weight_eval_array(w, np.arange(-X, X + 1) / N)
    xs = np.arange(-X, X + 1, dtype=np.int64)
    if restrict == "units":
        xs = xs[xs % p != 0]
    elif restrict == "pdiv":
        xs = xs[xs % p == 0]
    return xs, table[xs + X], (xs * xs) % q, table


def _count_histogram(form, q, p, N, w, X, restrict, target):
    xs, wts, squares, _ = _axis_data(form, q, p, N, w, X, restrict)
    if len(xs) == 0:
        return 0.0, {"axis_points": 0, "convolutions": 0}
    factors = _residue_histograms(form.lambdas, squares, wts, q)
    acc = _cyclic_convolution(factors, q)
    # the transforms that ran: one rfft per factor and the irfft
    cost = {"axis_points": int(len(xs) * form.n), "convolutions": len(factors) + 1}
    return float(acc[target % q]), cost


def _count_enumerate(form, modulus, q, p, N, w, X, restrict, budget):
    """Literal outer-box enumeration with the solved-coordinate square-root trick."""
    n = form.n
    # solve for the largest coefficient; tie-break on the highest index
    solve_idx = max(range(n), key=lambda j: (abs(form.lambdas[j]), j))
    lam_solve = form.lambdas[solve_idx] % q
    inv_solve = invmod(lam_solve, q)
    xs, wts, squares, table = _axis_data(form, q, p, N, w, X, restrict)
    outer_idx = [j for j in range(n) if j != solve_idx]
    outer_size = len(xs) ** len(outer_idx)
    charge(outer_size, budget, "box enumeration")
    table = table.tolist()
    root_cache: dict[int, tuple] = {}
    solves = 0
    unit_roots_only = restrict == "units"
    pdiv_roots = restrict == "pdiv"
    total = 0.0
    target = form.inhomogeneous_term % q
    pairs = [list(zip(((form.lambdas[j] % q) * squares % q).tolist(), wts.tolist()))
             for j in outer_idx]
    for combo in itertools.product(*pairs):
        s = 0
        wt = 1.0
        for res, wv in combo:
            s += res
            wt *= wv
        rhs = (inv_solve * (target - s)) % q
        if unit_roots_only and rhs % p == 0:
            continue
        cached = root_cache.get(rhs)
        if cached is None:
            cached = sqrt_classes_mod_prime_power(rhs, modulus).progressions
            root_cache[rhs] = cached
            solves += 1
        inner = 0.0
        for offset, step in cached:
            first = -X + (offset + X) % step
            for x in range(first, X + 1, step):
                if pdiv_roots and x % p != 0:
                    continue
                inner += table[x + X]
        total += wt * inner
    cost = {"outer_points": outer_size, "root_solves": solves}
    return total, cost


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

    The box truncates each coordinate where the weight falls below 1e-12.
    Strategy "enumerate" walks the outer coordinates and solves the last one
    through modular square-root classes; "histogram" groups the identical sum
    by residues (per-coordinate weighted histograms, cyclically convolved),
    which handles the wide boxes enumeration cannot.  "auto" picks by size.
    The histogram strategy costs O(n * (X + q log q)) for a box [-X, X]^n:
    one real FFT per distinct coefficient mod q and one inverse transform.
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
    if strategy == "auto":
        outer = (2 * X + 1) ** (n - 1)
        strategy = "enumerate" if outer <= min(budget_val, 200_000) else "histogram"

    # the side condition in signed parts: units, or all vectors minus p | every x_j
    parts = [("units", 1)] if mode == UNIT_COORDS else [("none", 1), ("pdiv", -1)]
    target = form.inhomogeneous_term % q
    if strategy == "histogram":
        transforms = _convolution_transforms(form.lambdas, q)
        charge(len(parts) * (n * (2 * X + 1) + _fft_cost(transforms, q)), budget_val, "histogram count")
        counts = [_count_histogram(form, q, p, N, w, X, r, target) for r, _ in parts]
    else:
        counts = [_count_enumerate(form, modulus, q, p, N, w, X, r, budget_val) for r, _ in parts]
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
    k_cutoff: int | None = None,
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
    mod p^(m-r), so the kernel is evaluated once per residue class.
    """
    q, p, m = modulus.q, modulus.p, modulus.m
    n = form.n
    require_finite_positive("N", N)
    form.require_unit_coefficients(p, include_inhomogeneous=True)
    budget_val = resolve_budget(budget)

    T0 = _main_term(form, modulus, N, w, UNIT_COORDS)

    ycut = fourier_tail_cutoff(w)
    if not math.isfinite(ycut):
        raise TruncationInsufficient("weight's Fourier tail never becomes negligible")
    if k_cutoff is None:
        k_cutoff = math.ceil(ycut * q / N)
    if k_cutoff < 0:
        raise ValidationError("k_cutoff must be non-negative")

    total = 0.0 + 0.0j
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
        charge(n * len(vs) + _fft_cost(_convolution_transforms(inverses, c), c), budget_val,
               "spectral frequency sum")
        # the kernel table mod c and its dot with wdist: ~20 array passes over the residues
        charge(20 * c, budget_val, "dual kernel level")
        axis_points += n * len(vs)
        fw = 2.0 * weight_fourier_array(w, (p**r) * vs * N / q)  # +-v folded
        wdist = _cyclic_convolution(_residue_histograms(inverses, (vs * vs) % c, fw, c), c)
        front, table = dual_kernel_level(form, modulus, r)
        kernel_evals += c
        total += front * complex((wdist * table).sum())

    U = total * float(N) ** n / float(q) ** (n + 1)
    T = T0 + U.real
    ratio = T / T0 if T0 > 0 else math.nan
    cost = {
        "kernel_evals": kernel_evals,
        "axis_points": axis_points,
        "imag_residual": abs(U.imag),
        "k_cutoff": k_cutoff,
    }
    return CountReport(
        T=T, T0=T0, ratio=ratio, p=p, m=m, N=N,
        lambdas=form.lambdas, inhomogeneous_term=form.inhomogeneous_term,
        weight=w, mode=UNIT_COORDS, strategy="spectral", cost=cost,
        truncation_bound=FOURIER_NEGLIGIBLE * n * max(1.0, abs(T0)),
    )
