"""Representation numbers for the dual form and their local/archimedean factors.

Weighted counts tau_n(k) of lattice representations by the positive
definite dual form, the singular series coefficients a_q(k) with the
unit-coordinate side condition, the truncated singular series, the
thin-shell singular integral, and the bounded quadruple count for
congruences in four squares.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .counting import WeightSpec, _distinct_keys, _sorted_join, weight_fourier_array
from .densities import DiagonalForm
from .errors import (
    CoprimalityViolated,
    HypothesisViolated,
    IndefiniteForm,
    ValidationError,
    charge,
    require_finite_positive,
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
        object.__setattr__(self, "deltas", tuple(int(v) for v in self.deltas))

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


# A table mod q takes 16 q bytes: every table for q <= 100 (~80 KB per form
# and prime, ~80 KB of square sums per prime, ~80 KB of unit roots) stays
# cached, and a singular_series scan to any q_max leaves at most this many
# bytes of its last tables behind.
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
    """
    if q < 1:
        raise ValidationError("q must be positive")
    _require_unit_duals(dual, p)
    charge(_coefficient_cost(q, p, dual.n), resolve_budget(budget), "singular coefficient")
    return _coefficient(q, k, dual.deltas, p)


def _require_unit_duals(dual: DualForm, p: int) -> None:
    require_odd_prime(p)
    if any(d % p == 0 for d in dual.deltas):
        raise CoprimalityViolated("dual coefficients must be units mod p")


def _coefficient_cost(q: int, p: int, n: int) -> int:
    """Square histogram, one transform, n gathers and the final phase sum."""
    return q * (p + (q - 1).bit_length() + n + 1)


def _series_cost(q_max: int, p: int, n: int) -> int:
    """The sum of ``_coefficient_cost`` over q <= q_max, in closed form per bit
    length j of q - 1 (q in (2^(j-1), 2^j]), so a huge q_max refuses at once."""

    def tri(m: int) -> int:
        return m * (m + 1) // 2

    cost = (p + n + 1) * tri(q_max)
    for j in range(1, (q_max - 1).bit_length() + 1):
        cost += j * (tri(min(1 << j, q_max)) - tri(1 << (j - 1)))
    return cost


def _coefficient(q: int, k: int, deltas: tuple[int, ...], p: int) -> float:
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

    The recorded decay constant is max |a_q(k)| q^(n/2-1); the tail bound is
    that constant times q_max^(2-n/2) (the integral-comparison envelope,
    degenerating to the constant itself at n = 4).  The arguments are
    checked once, and the whole series, the sum of every coefficient's
    cost, is charged before the first one runs.
    """
    n = dual.n
    if n < 4:
        raise ValidationError("singular series needs n >= 4")
    if q_max < 1:
        raise ValidationError("q_max must be positive")
    _require_unit_duals(dual, p)
    charge(_series_cost(q_max, p, n), resolve_budget(budget), "singular series")
    coeffs: dict[int, float] = {}
    decay = 0.0
    partial = 0.0
    for q in range(1, q_max + 1):
        aq = _coefficient(q, k, dual.deltas, p)
        coeffs[q] = aq
        partial += aq
        decay = max(decay, abs(aq) * q ** (n / 2.0 - 1.0))
    tail = decay * q_max ** (2.0 - n / 2.0)
    return SingularData(q_max, coeffs, partial, tail, decay)


def singular_integral(
    k: float,
    P: float,
    dual: DualForm,
    w: WeightSpec,
    rel_tol: float = 1e-3,
    seed: int = 0,
) -> float:
    """Thin-shell density of the dual form at level t = k / P^2.

    Computed in co-area form: (1/2) t^(n/2-1) * prod(Delta_j^(-1/2)) times
    the mean over the unit sphere of the product of Fourier weights at the
    ellipsoid point sqrt(t) * theta_j / sqrt(Delta_j), scaled by the sphere
    area.  n = 2 uses deterministic angular quadrature; higher n uses Monte
    Carlo with a fixed seed, sized for the requested relative accuracy.
    """
    dual.require_positive_definite()
    require_finite_positive("k", k)
    require_finite_positive("P", P)
    if P < 1:
        raise ValidationError(f"P must be >= 1, got {P!r}")
    n = dual.n
    t = k / (P * P)
    inv_sqrt = np.array([1.0 / math.sqrt(d) for d in dual.deltas])
    front = 0.5 * t ** (n / 2.0 - 1.0) * float(np.prod(inv_sqrt))
    if n == 1:
        pts = np.array([[1.0], [-1.0]])
        vals = _shell_values(w, pts, t, inv_sqrt)
        return front * float(vals.sum())
    if n == 2:
        thetas = np.linspace(0.0, 2.0 * math.pi, 8192, endpoint=False)
        pts = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        vals = _shell_values(w, pts, t, inv_sqrt)
        return front * 2.0 * math.pi * float(vals.mean())
    rng = np.random.default_rng(seed)
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    batch = 40_000
    vals = np.empty(batch)
    total = 0.0
    total_sq = 0.0
    count = 0
    for _ in range(50):
        # row blocks draw the same stream as one (batch, n) draw, and each
        # point's value depends on its own row alone
        for lo in range(0, batch, 4096):
            g = rng.standard_normal((min(4096, batch - lo), n))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            vals[lo : lo + len(g)] = _shell_values(w, g, t, inv_sqrt)
        total += vals.sum()
        total_sq += (vals * vals).sum()
        count += batch
        mean = total / count
        if mean == 0.0:
            return 0.0
        var = max(total_sq / count - mean * mean, 0.0)
        stderr = math.sqrt(var / count)
        if stderr <= rel_tol * abs(mean) / 2.0:
            break
    return front * area * (total / count)


def _shell_values(w: WeightSpec, pts: np.ndarray, t: float, inv_sqrt: np.ndarray) -> np.ndarray:
    coords = math.sqrt(t) * pts * inv_sqrt
    vals = np.ones(len(pts))
    for j in range(pts.shape[1]):
        vals *= weight_fourier_array(w, coords[:, j])
    return vals


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
    if M < 1 or c < 1:
        raise ValidationError("need M >= 1 and c >= 1")
    if 8 * M * M >= c:
        raise HypothesisViolated(f"8*M^2 = {8 * M * M} must be below c = {c}")
    if p is not None and any(a % p == 0 for a in alphas):
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
