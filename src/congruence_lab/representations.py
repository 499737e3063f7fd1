"""Representation numbers for the dual form and their local/archimedean factors.

Weighted counts tau_n(k) of lattice representations by the positive
definite dual form, the singular series coefficients a_q(k) with the
unit-coordinate side condition (an Euler product over prime powers), the
truncated singular series, the thin-shell singular integral (nested
one-dimensional quadrature), and the bounded quadruple count for
congruences in four squares.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .counting import WeightSpec, _distinct_keys, _sorted_join, weight_fourier_array
from .densities import DiagonalForm
from .errors import (
    CoprimalityViolated,
    HypothesisViolated,
    IndefiniteForm,
    TruncationInsufficient,
    ValidationError,
    charge,
    require_finite_positive,
    require_int,
    resolve_budget,
)
from .modmath import PrimePowerModulus, invmod, require_odd_prime, residue_dtype


@dataclass(frozen=True)
class DualForm:
    """Coefficients Delta_j of the dual diagonal form, with the unit Lambda
    inverting Delta_{n+1} mod p^m when built from a source form."""

    deltas: tuple[int, ...]
    Lambda: int | None = None

    def __post_init__(self) -> None:
        if len(self.deltas) < 1:
            raise ValidationError("dual form needs at least one coefficient")
        object.__setattr__(self, "deltas", tuple(require_int("Delta", v) for v in self.deltas))

    @property
    def n(self) -> int:
        return len(self.deltas)

    def require_positive_definite(self) -> None:
        if any(d <= 0 for d in self.deltas):
            raise IndefiniteForm(f"dual coefficients {self.deltas} are not all positive")

    @classmethod
    def from_form(cls, form: DiagonalForm, modulus: PrimePowerModulus) -> "DualForm":
        """Delta_j = Delta / lambda_j with Delta the product of all coefficients;
        Lambda inverts Delta_{n+1} mod p^m."""
        if form.inhomogeneous_term == 0:
            raise ValidationError("dual construction needs an inhomogeneous form")
        form.require_unit_coefficients(modulus.p, include_inhomogeneous=True)
        delta = form.inhomogeneous_term
        for lam in form.lambdas:
            delta *= lam
        deltas = tuple(delta // lam for lam in form.lambdas)
        delta_next = delta // form.inhomogeneous_term
        return cls(deltas, invmod(delta_next % modulus.q, modulus.q))


def tau_n(
    k: int,
    dual: DualForm,
    r: int,
    w: WeightSpec,
    modulus: PrimePowerModulus,
    N: float,
    budget: int | None = None,
) -> float:
    """Weighted number of unit-coordinate representations of k by the dual form.

    Sums the product of Fourier weights at p^r * l_i * N / p^m over integer
    vectors with all coordinates coprime to p and sum of Delta_j l_j^2 = k.
    Meet in the middle: each half of the coordinates gets a table of its
    partial sums Delta_j v^2 over v >= 1, v != 0 mod p (signs folded in as a
    factor 2 per coordinate), and the halves are matched by a sorted join of
    the left sums against k minus the right ones.
    """
    dual.require_positive_definite()
    require_finite_positive("N", N)
    k, r = require_int("k", k), require_int("r", r)
    if k < 0:
        raise ValidationError("k must be non-negative")
    if r < 0:
        raise ValidationError("r must be non-negative")
    budget_val = resolve_budget(budget)
    p = modulus.p
    deltas = dual.deltas
    if k < sum(deltas):
        return 0.0
    # p^r N / q scales every weight argument, so p^r has to be a float; 3^1024 is not
    if r >= 1024 or p**r > sys.float_info.max:
        raise ValidationError(f"r={r} puts p^r beyond the float range")
    # every coordinate has Delta_j v^2 <= k, so v <= isqrt(k // min Delta)
    v_max = math.isqrt(k // min(deltas))
    charge(v_max + 1, budget_val, "tau weight table")
    # every partial sum stays <= k; Python ints once k leaves int64
    vs = np.arange(1, v_max + 1, dtype=np.int64 if k < 1 << 63 else object)
    vs = vs[vs % p != 0]
    fw = 2.0 * weight_fourier_array(w, (p**r) * N / modulus.q * vs.astype(float))
    half = dual.n // 2
    left_sums, left_wts = _tau_half_table(deltas[:half], k - sum(deltas[half:]), vs, fw, budget_val)
    right_sums, right_wts = _tau_half_table(deltas[half:], k - sum(deltas[:half]), vs, fw, budget_val)
    # one sort of the right table, one binary search per left entry
    join_cost = (len(left_sums) + len(right_sums)) * len(right_sums).bit_length()
    charge(join_cost, budget_val, "tau half-table join")
    return float(_sorted_join(k - left_sums, left_wts, *_distinct_keys(right_sums, right_wts)))


def _tau_half_table(
    deltas: tuple[int, ...], cap: int, vs: np.ndarray, fw: np.ndarray, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """Partial sums of Delta_j v_j^2 over the given coordinates (v from vs,
    weighted by fw at the same index) and their weight products, pruned so
    that every coordinate still to come fits under cap with v = 1.  Never
    empty: all v = 1 fits."""
    sums = np.zeros(1, dtype=vs.dtype)
    wts = np.ones(1)
    rest = sum(deltas)
    for d in deltas:
        rest -= d
        room = cap - rest
        # only v with d v^2 <= room, so d v^2 never leaves the dtype
        vs_d = vs[: np.searchsorted(vs, math.isqrt(room // d), side="right")]
        sq = d * vs_d * vs_d
        # ragged outer product: row i takes the v with d v^2 <= room - sums[i]
        counts = np.searchsorted(sq, room - sums, side="right")
        total = int(counts.sum())
        charge(total, budget, "tau half table")
        rows = np.repeat(np.arange(len(sums)), counts)
        cols = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        sums = sums[rows] + sq[cols]
        wts = wts[rows] * fw[cols]
    return sums, wts


class _TableCache:
    """Read-only arrays by key, least recently used first out once the arrays
    held pass ``max_bytes`` (a table larger than that is built but not kept)."""

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self.nbytes = 0
        self.tables: OrderedDict[tuple, np.ndarray] = OrderedDict()

    def get(self, key: tuple, build) -> np.ndarray:
        table = self.tables.get(key)
        if table is not None:
            self.tables.move_to_end(key)
            return table
        table = build(*key)
        table.flags.writeable = False
        if table.nbytes <= self.max_bytes:
            self.tables[key] = table
            self.nbytes += table.nbytes
            while self.nbytes > self.max_bytes:
                self.nbytes -= self.tables.popitem(last=False)[1].nbytes
        return table


# A table mod q takes 16 q bytes, and tables are built at q = 1 and at prime
# powers only: every table of a q_max = 100 series (~22 KB per form and
# prime, ~22 KB of square sums per prime, ~22 KB of unit roots) stays cached,
# and a series to any q_max leaves at most this many bytes of its last
# tables behind.
_PHASE_TABLE_BYTES = 8 << 20
_PHASE_TABLES = _TableCache(_PHASE_TABLE_BYTES)


def _coefficient_phase_table(q: int, p: int, deltas: tuple[int, ...]) -> np.ndarray:
    """Products over coordinates of the unit-restricted quadratic sums
    S(b) = sum_{x mod pq, (x,p)=1} e_q(b x^2) at b = a Delta_j, for every a
    mod q; zero at the non-units a.  Cached per (q, p, deltas)."""
    return _PHASE_TABLES.get((q, p, deltas), _build_phase_table)


def _build_phase_table(q: int, p: int, deltas: tuple[int, ...]) -> np.ndarray:
    sums = _PHASE_TABLES.get((q, p), _square_sums)
    a = np.arange(q, dtype=np.int64)
    table = (np.gcd(a, q) == 1).astype(np.complex128)
    for d in deltas:
        table *= sums[a * (d % q) % q]
    return table


def _square_sums(q: int, p: int) -> np.ndarray:
    """S(b) for every b mod q, cached per (q, p) for every form: S(b) =
    sum_r #{x : x^2 = r mod q} e_q(b r), one inverse DFT of the histogram."""
    xs = np.arange(p * q, dtype=np.int64)
    xs = xs[xs % p != 0] % q
    return q * np.fft.ifft(np.bincount(xs * xs % q, minlength=q))


def _unit_roots(q: int) -> np.ndarray:
    """e_q(-m) for every m mod q, cached per q."""
    return np.exp(-2j * np.pi * np.arange(q, dtype=np.int64) / q)


def singular_coefficient(
    q: int, k: int, dual: DualForm, p: int, budget: int | None = None
) -> float:
    """The modulus-q coefficient a_q(k) of the singular series.

    a_q(k) = (pq)^(-n) sum over units a mod q of e_q(-a k) times the
    unit-coordinate character sum over x mod pq, the latter factorized into
    a product of one-variable quadratic sums.  Those come for every a at
    once from one DFT of the square histogram mod q, cached per modulus.
    That sum is taken at q = 1 and at prime powers only: a_q(k) (p/(p-1))^n
    is multiplicative in q, so a composite q is the product of its
    prime-power factors, taken in the order ``singular_series`` takes them.
    """
    q, k, p = require_int("q", q), require_int("k", k), require_int("p", p)
    if q < 1:
        raise ValidationError("q must be positive")
    _require_unit_duals(dual, p)
    # the prime-power factors sum to at most q, so this bounds their costs
    charge(_coefficient_cost(q, p, dual.n), resolve_budget(budget), "singular coefficient")
    # the prime-power factors of q by increasing prime: the heads of the
    # series' split at q, rest[q], rest[rest[q]], ...
    head, rest = _split(q)
    factors = [int(head[q])]
    while rest[q] > 1:
        q = int(rest[q])
        factors.append(int(head[q]))
    aq = _coefficient(factors[-1], k, dual.deltas, p)
    unit = _euler_unit(p, dual.n)
    for factor in reversed(factors[:-1]):
        aq = _coefficient(factor, k, dual.deltas, p) * aq * unit + 0.0
    return aq


def _euler_unit(p: int, n: int) -> float:
    """(p/(p-1))^n: a_{q1 q2} = a_{q1} a_{q2} (p/(p-1))^n for coprime q1, q2.
    The Chinese remainder theorem splits the units a mod q1 q2 and the x mod
    p q1 q2, and the condition that p does not divide x falls into exactly
    one of the two factors, which leaves one surplus (p - 1)/p per coordinate."""
    return (p / (p - 1)) ** n


def _require_unit_duals(dual: DualForm, p: int) -> None:
    require_odd_prime(p)
    if any(d % p == 0 for d in dual.deltas):
        raise CoprimalityViolated("dual coefficients must be units mod p")


def _coefficient_cost(q: int, p: int, n: int) -> int:
    """One direct a_q in ops at the ~4e8 charged ops/s of the library's other
    stages, fitted to its measured parts (2-vCPU Xeon, numpy 2.4): the square
    histogram over x mod pq, ~7 per x; the length-q DFT, ~6 per q log2 q,
    since at a prime q it is a Bluestein transform; the unit mask, the unit
    roots and the phase sum, ~44 per residue; the n gathers, ~3 per residue
    and coordinate; and ~24,000 for the table builds of any q."""
    return q * (7 * p + 6 * (q - 1).bit_length() + 3 * n + 44) + 24_000


# Per q <= q_max: the smallest-prime-factor sieve, the head/rest split, the
# product rounds, the prefix sum, the decay maximum and the coefficient dict
# took 300-600 ns per q (q_max 1000-8940), 120-240 ops at the ~4e8 charged
# ops/s of the library's other stages.
_SPLIT_OPS = 160


def _series_cost(direct: list[int], q_max: int, p: int, n: int) -> int:
    """What ``singular_series`` runs: ``_coefficient_cost`` at each modulus
    it evaluates directly (q = 1 and the prime powers), and ``_SPLIT_OPS``
    per q for the split and the products."""
    return sum(_coefficient_cost(q, p, n) for q in direct) + _SPLIT_OPS * q_max


def _split(q_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(head, rest) for q = 0..q_max: head is the full power of the smallest
    prime factor of q in q, and rest = q / head.  rest is 1 exactly at q = 1
    and at the prime powers; q = 0 is a placeholder with head = rest = 1."""
    qs = np.arange(q_max + 1, dtype=np.int64)
    spf = qs.copy()
    spf[:2] = 1
    for d in range(2, math.isqrt(q_max) + 1):
        if spf[d] == d:
            multiples = spf[d * d :: d]  # a view: the assignment writes spf
            multiples[multiples == qs[d * d :: d]] = d
    head = spf.copy()
    rest = qs // spf
    rest[0] = 1
    more = np.flatnonzero((spf > 1) & (rest % spf == 0))
    while len(more):
        head[more] *= spf[more]
        rest[more] //= spf[more]
        more = more[rest[more] % spf[more] == 0]
    return head, rest


def _coefficient(q: int, k: int, deltas: tuple[int, ...], p: int) -> float:
    """a_q(k) by its phase-table sum, for any q; the direct evaluation that
    the Euler product applies at q = 1 and at prime powers."""
    table = _coefficient_phase_table(q, p, deltas)
    phases = _PHASE_TABLES.get((q,), _unit_roots)[np.arange(q, dtype=np.int64) * (k % q) % q]
    return float((table @ phases).real / (p * q) ** len(deltas))


def singular_coefficient_naive(q: int, k: int, dual: DualForm, p: int) -> float:
    """Literal double sum over a mod q and x mod pq; oracle for tiny pq."""
    pq = p * q
    if pq > 30:
        raise ValidationError("naive double sum is only for tiny moduli")
    n = dual.n
    total = 0.0 + 0.0j
    coords = [x for x in range(pq) if x % p != 0]
    for a in range(1, q + 1):
        if math.gcd(a, q) != 1:
            continue
        for xs in itertools.product(coords, repeat=n):
            val = sum(d * x * x for d, x in zip(dual.deltas, xs)) - k
            total += np.exp(2j * np.pi * ((a * val) % q) / q)
    return float(total.real / (p * q) ** n)


@dataclass(frozen=True)
class SingularData:
    """Truncated singular series: per-q coefficients, partial sum, tail model."""

    q_max: int
    coefficients: dict[int, float] = field(compare=False)
    partial_sum: float = 0.0
    tail_bound: float = 0.0
    decay_constant: float = 0.0


def singular_series(
    k: int, dual: DualForm, p: int, q_max: int, budget: int | None = None
) -> SingularData:
    """Partial sum of a_q(k) for q <= q_max with an empirical tail estimate.

    The coefficients are an Euler product: a_q(k) is evaluated directly at
    q = 1 and at the prime powers, and every other a_q is filled in as
    a_head a_rest (p/(p-1))^n, head the power of q's smallest prime, in
    rounds by the number of distinct prime factors; the partial sum adds
    them in order of q.  The recorded decay constant is max |a_q(k)|
    q^(n/2-1); the tail bound is that constant times q_max^(2-n/2) (the
    integral-comparison envelope, degenerating to the constant itself at
    n = 4).  The whole series is charged before any coefficient runs, and a
    q_max whose largest prime alone is over budget is refused before the
    split is built.
    """
    k, p, q_max = require_int("k", k), require_int("p", p), require_int("q_max", q_max)
    n = dual.n
    if n < 4:
        raise ValidationError("singular series needs n >= 4")
    if q_max < 1:
        raise ValidationError("q_max must be positive")
    _require_unit_duals(dual, p)
    budget_val = resolve_budget(budget)
    # Bertrand: a prime lies in (q_max / 2, q_max], so its coefficient alone
    # is a lower bound that refuses a huge q_max before anything of length
    # q_max exists
    cost = _coefficient_cost(q_max // 2 + 1, p, n)
    if cost <= budget_val:
        head, rest = _split(q_max)
        direct = np.flatnonzero(rest == 1)[1:].tolist()
        cost = _series_cost(direct, q_max, p, n)
    charge(cost, budget_val, "singular series")
    coeffs = np.zeros(q_max + 1)
    for q in direct:
        coeffs[q] = _coefficient(q, k, dual.deltas, p)
    unit = _euler_unit(p, n)
    done = rest == 1
    while not done.all():
        ready = np.flatnonzero(~done & done[rest])
        # + 0.0: a zero factor times a negative one is 0.0, not -0.0
        coeffs[ready] = coeffs[head[ready]] * coeffs[rest[ready]] * unit + 0.0
        done[ready] = True
    values = coeffs[1:].tolist()
    # Python's q ** e, not numpy's power, which may differ in the last bit
    e = n / 2.0 - 1.0
    decay = max(abs(aq) * q**e for q, aq in enumerate(values, 1))
    tail = decay * q_max ** (2.0 - n / 2.0)
    partial = float(np.cumsum(coeffs[1:])[-1])  # left to right, as a running sum
    return SingularData(q_max, dict(enumerate(values, 1)), partial, tail, decay)


# The m-node rule first tried; doubled until two successive rules agree.
_FIRST_NODES = 16
# weight evaluations one rule may take (~1 s for a Gaussian, ~1 min for a
# bump); the 32-node rule stays within it up to n = 16
_MAX_RULE_EVALS = 1 << 24
# two rules that differ by less than this share of the envelope agree: the
# sums are rounded at that scale, so a value far below it (near the edge of
# a compact support, or where an oscillating weight cancels) has no
# resolvable relative error
_ENVELOPE_ROUNDING = 1e-13
# levels x angle nodes per block of pair-density evaluations (128 KiB of floats)
_PAIR_BLOCK = 1 << 14


def singular_integral(
    k: float,
    P: float,
    dual: DualForm,
    w: WeightSpec,
    rel_tol: float = 1e-3,
) -> float:
    """Thin-shell density of the dual form at level t = k / P^2.

    J(t) is the density at t of sum_j Delta_j y_j^2 under the product
    measure prod_j fhat(y_j) dy_j.  One coordinate has the density
    rho(u) = fhat(sqrt(u / Delta)) / sqrt(u Delta).  A pair has, with
    u = s sin^2 phi, P_ij(s) = 2 / sqrt(Delta_i Delta_j) times the integral
    over [0, pi/2] of fhat(sqrt(s / Delta_i) sin phi) fhat(sqrt(s / Delta_j) cos phi),
    an even pi-periodic integrand, so the midpoint rule is spectrally
    accurate.  The pair densities are convolved on [0, s] by Gauss-Legendre,
    halving the list of pairs at each level; an odd last coordinate enters
    as the integral over v in [0, sqrt(t)] of D(t - v^2) fhat(v / sqrt(Delta)) 2 / sqrt(Delta).
    Every rule has m nodes: the 16- and 32-node values are compared, m
    doubles until two successive values agree to ``rel_tol`` (or differ by
    less than 1e-13 of the envelope, the same density with every fhat
    replaced by fhat(0), which bounds |J(t)| for every weight kind), and the
    last is returned.  A rule past ``_MAX_RULE_EVALS`` weight evaluations
    raises ``TruncationInsufficient``.
    """
    dual.require_positive_definite()
    require_finite_positive("k", k)
    require_finite_positive("P", P)
    if P < 1:
        raise ValidationError(f"P must be >= 1, got {P!r}")
    if not (math.isfinite(rel_tol) and 0.0 < rel_tol < 1.0):
        raise ValidationError(f"rel_tol must be finite and in (0, 1), got {rel_tol!r}")
    t = k / (P * P)
    n = dual.n
    if n == 1:
        d = dual.deltas[0]
        return float(weight_fourier_array(w, math.sqrt(t / d))) / math.sqrt(t * d)
    log_envelope = (n * math.log(float(weight_fourier_array(w, 0.0))) + n / 2.0 * math.log(math.pi)
                    + (n / 2.0 - 1.0) * math.log(t) - math.lgamma(n / 2.0)
                    - sum(math.log(d) for d in dual.deltas) / 2.0)
    floor = _ENVELOPE_ROUNDING * math.exp(min(log_envelope, 700.0))
    m = _FIRST_NODES
    value = None
    while True:
        if _rule_evals(n, m) > _MAX_RULE_EVALS:
            raise TruncationInsufficient(
                f"the {m}-node rule for n = {n} needs {_rule_evals(n, m)} weight evaluations "
                f"(limit {_MAX_RULE_EVALS}); the {m // 2}-node value {value!r} did not reach rel_tol={rel_tol}"
            )
        previous, value = value, _shell_density(t, dual.deltas, w, m)
        if previous is not None and abs(value - previous) <= max(rel_tol * abs(value), floor):
            return value
        m *= 2


def _rule_evals(n: int, m: int) -> int:
    """An upper bound on the weight evaluations of the m-node rule at n >= 2:
    n coordinates, each at m angle nodes per level, and m^depth levels."""
    depth = (n // 2 - 1).bit_length() + n % 2
    return n * m ** (depth + 1)


@lru_cache(maxsize=16)
def _quadrature_rule(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The m-node Gauss-Legendre nodes and weights on [0, 1] (Golub-Welsch:
    the eigenvalues of the Jacobi matrix, the weights from the first
    components of its eigenvectors), made symmetric, so the nodes read
    backwards are 1 - x exactly; and sin and cos at the m midpoints of
    [0, pi/2].  Built on first use and kept per m."""
    j = np.arange(1.0, m)
    beta = j / np.sqrt(4.0 * j * j - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    weights = vectors[0] ** 2
    x = (1.0 + (nodes - nodes[::-1]) / 2.0) / 2.0
    wx = (weights + weights[::-1]) / 2.0
    phi = (np.arange(m) + 0.5) * (math.pi / (2 * m))
    rule = (x, wx, np.sin(phi), np.cos(phi))
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _shell_density(t: float, deltas: tuple[int, ...], w: WeightSpec, m: int) -> float:
    """J(t) by the m-node rules (n >= 2)."""
    rule = _quadrature_rule(m)
    pairs = [deltas[i : i + 2] for i in range(0, len(deltas) - 1, 2)]
    if len(deltas) % 2 == 0:
        return float(_pairs_density(pairs, np.array([t]), w, rule)[0])
    x, wx = rule[0], rule[1]
    scale = 1.0 / math.sqrt(deltas[-1])
    v = math.sqrt(t) * x
    # t - v^2 as t (1 - x)(1 + x): no cancellation near v = sqrt(t)
    inner = _pairs_density(pairs, t * x[::-1] * (1.0 + x), w, rule)
    return math.sqrt(t) * 2.0 * scale * float((inner * weight_fourier_array(w, v * scale)) @ wx)


def _pairs_density(pairs: list[tuple[int, ...]], s: np.ndarray, w: WeightSpec, rule) -> np.ndarray:
    """The density of the sum over the given pairs at each level in s: one
    pair by the midpoint rule in phi, more by a Gauss-Legendre convolution
    of the two halves' densities on [0, s]."""
    x, wx, sin, cos = rule
    if len(pairs) == 1:
        di, dj = pairs[0]
        flat = np.sqrt(s).ravel()
        sin_i, cos_j = sin / math.sqrt(di), cos / math.sqrt(dj)
        out = np.empty(len(flat))
        step = max(1, _PAIR_BLOCK // len(sin))
        for lo in range(0, len(flat), step):
            r = flat[lo : lo + step, None]
            vals = weight_fourier_array(w, r * sin_i) * weight_fourier_array(w, r * cos_j)
            out[lo : lo + step] = vals.sum(axis=1)
        return out.reshape(s.shape) * (math.pi / (len(sin) * math.sqrt(di * dj)))
    half = len(pairs) // 2
    left = _pairs_density(pairs[:half], s[..., None] * x, w, rule)
    right = _pairs_density(pairs[half:], s[..., None] * x[::-1], w, rule)
    # a pairwise sum, not BLAS matmul, whose bits may depend on its thread count
    return s * (left * right * wx).sum(axis=-1)


def quadruple_count(
    alphas: tuple[int, int, int, int],
    b: int,
    c: int,
    M: int,
    p: int | None = None,
    budget: int | None = None,
) -> int:
    """Exact count of |l_i| <= M with alpha_1 l_1^2 + ... + alpha_4 l_4^2 = b mod c.

    Meet in the middle over l >= 0, a nonzero l standing for +-l.  The pairs
    (l_3, l_4) are split by multiplicity: both nonzero (4 sign choices), one
    table of M^2 sums mod c sorted in place; exactly one zero (2), a table of
    2M; both zero (1), the sum 0.  The pairs (l_1, l_2) go in blocks of
    2^14 // (M + 1) values of l_1: each block's b minus its pair sums mod c
    are sorted and searched in each table, with the run of equal keys
    measured at the hits alone, and the weighted hits added as exact
    integers.  The M^2 table is the one large array, 8 M^2 bytes (18 MiB at
    M = 1500); nothing of length c is allocated, and residues are Python
    ints once products mod c leave int64.  Requires the hypothesis
    8 M^2 < c.
    """
    if len(alphas) != 4:
        raise ValidationError("exactly four coefficients are required")
    alphas = tuple(require_int("alpha", a) for a in alphas)
    b, c, M = require_int("b", b), require_int("c", c), require_int("M", M)
    if M < 1 or c < 1:
        raise ValidationError("need M >= 1 and c >= 1")
    if 8 * M * M >= c:
        raise HypothesisViolated(f"8*M^2 = {8 * M * M} must be below c = {c}")
    if p is not None:
        require_odd_prime(p)
        if any(a % p == 0 for a in alphas):
            raise CoprimalityViolated("coefficients must be units mod p")
    # two pair tables of (M+1)^2 entries: one sort, one binary search per entry
    size = (M + 1) ** 2
    charge(2 * size * size.bit_length(), resolve_budget(budget), "quadruple count")
    ls = np.arange(M + 1, dtype=residue_dtype(c))
    sq = [(a % c) * (ls * ls) % c for a in alphas]  # l^2 < c by the hypothesis, and sq[j][0] = 0
    both = (sq[2][1:, None] + sq[3][1:]).ravel()
    both %= c
    both.sort()
    tables = ((both, 4), (np.sort(np.concatenate((sq[2][1:], sq[3][1:]))), 2))
    mult = np.where(ls == 0, 1, 2)
    rows = max(1, (1 << 14) // (M + 1))
    # exact integer counts; the total is at most (2M+1)^4, inside int64 for
    # every M < 27,000 (larger pair tables would not fit in memory)
    total = 0
    for lo in range(0, M + 1, rows):
        want = ((b % c - sq[0][lo : lo + rows, None] - sq[1]) % c).ravel()
        wts = np.outer(mult[lo : lo + rows], mult).ravel()
        order = np.argsort(want)  # sorted keys keep the binary searches in cache
        want, wts = want[order], wts[order]
        total += int(wts[want == 0].sum())
        for table, weight in tables:
            idx = np.searchsorted(table, want)
            hit = table[np.minimum(idx, len(table) - 1)] == want
            runs = np.searchsorted(table, want[hit], side="right") - idx[hit]
            total += weight * int(np.dot(wts[hit], runs))
    return total
