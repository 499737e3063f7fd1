"""Exponential sums over Hensel-lifted modular square roots.

The central object is the double sum of e(u / p^s) over k running through
an arithmetic progression (coprime to p) and u through the square roots of
k * Lambda mod p^s, optionally restricted to a residue class mod p or
twisted by the Jacobi symbol.  A scan harness measures the empirical
constant in the p^(s/2) * log(p^s) bound over pseudo-random parameters.
"""

from __future__ import annotations

import cmath
import io
import math
from dataclasses import dataclass

from .errors import ValidationError, charge, resolve_budget
from .modmath import require_odd_prime

TWO_PI = 2.0 * math.pi

ROW_TERM_BUDGET = 10**7


@dataclass(frozen=True)
class SqrtSumParams:
    """Parameters of one root sum.

    ``a`` restricts roots to u = a mod p; ``a = None`` sums over all roots
    (the aggregate form), where ``mu = 1`` applies the (u / p^s) twist.
    With ``a`` fixed the twist is the constant (a / p^s)^mu.
    """

    p: int
    s: int
    Lambda: int
    a: int | None
    b: int
    c: int
    K: int
    mu: int = 0

    def __post_init__(self) -> None:
        require_odd_prime(self.p)
        if self.s < 2:
            raise ValidationError("s must be at least 2")
        if self.Lambda % self.p == 0:
            raise ValidationError("Lambda must be a unit mod p")
        if self.a is not None and self.a % self.p == 0:
            raise ValidationError("root class a must be a unit mod p")
        if self.c < 1:
            raise ValidationError("progression modulus c must be positive")
        if not 0 < self.K <= self.p**self.s:
            raise ValidationError("need 0 < K <= p^s")
        if self.mu not in (0, 1):
            raise ValidationError("mu must be 0 or 1")


def _legendre_tables(p: int) -> tuple[list[int], list[int], list[int]]:
    """(legendre symbol, canonical sqrt or -1, inverse or 0) tables mod p."""
    leg = [0] * p
    root = [-1] * p
    inv = [0] * p
    for x in range(1, p):
        leg[x] = 1 if pow(x, (p - 1) // 2, p) == 1 else -1
        inv[x] = pow(x, -1, p)
    for x in range(1, p):
        sq = x * x % p
        if root[sq] < 0:
            root[sq] = min(x, p - x)
    root[0] = 0
    return leg, root, inv


def sqrt_root_sum(params: SqrtSumParams) -> complex:
    """Sum of e(u / p^s) over the progression of k and matching roots u.

    Iterates k = b mod c with 0 < k <= K and (k, p) = 1; roots of
    k * Lambda mod p^s are produced by a Newton inverse-square-root lift of
    the base root mod p (equivalent to the exponent-doubling Hensel lift),
    costing O(log s) multiplications per contributing k.
    """
    p, s, c, K, mu = params.p, params.s, params.c, params.K, params.mu
    q = p**s
    lam = params.Lambda % q
    leg, root_tab, inv_tab = _legendre_tables(p)
    inv2 = pow(2, -1, q)
    mods = []
    t = 1
    while t < s:
        t = min(2 * t, s)
        mods.append(p**t)
    k0 = params.b % c
    if k0 == 0:
        k0 = c
    restricted = params.a is not None
    if restricted:
        a_res = params.a % p
        target_sq = a_res * a_res % p
        y_start = inv_tab[a_res]
    odd_twist = mu == 1 and s % 2 == 1  # (u/p^s) = (u/p)^s is 1 for even s
    total = 0.0 + 0.0j
    two_pi_over_q = TWO_PI / q
    for k in range(k0, K + 1, c):
        if k % p == 0:
            continue
        z = k * lam % q
        zp = z % p
        if restricted:
            if zp != target_sq:
                continue
            y = y_start
        else:
            if leg[zp] != 1:
                continue
            y = inv_tab[root_tab[zp]]
        for mod_t in mods:
            y = y * (3 - z * y * y) * inv2 % mod_t
        u = z * y % q
        if restricted:
            total += cmath.exp(complex(0.0, two_pi_over_q * u))
        else:
            term = cmath.exp(complex(0.0, two_pi_over_q * u))
            other = cmath.exp(complex(0.0, two_pi_over_q * (q - u)))
            if odd_twist:
                total += leg[u % p] * term + leg[(q - u) % p] * other
            else:
                total += term + other
    if restricted and odd_twist:
        total *= leg[params.a % p]
    return total


@dataclass(frozen=True)
class BoundScanRow:
    """One scan row: the sum value and its ratio to p^(s/2) * log(p^s)."""

    params: SqrtSumParams
    value: complex
    normalized: float


class _Lcg:
    """Deterministic 64-bit linear congruential generator (Knuth constants).

    state <- state * 6364136223846793005 + 1442695040888963407 mod 2^64;
    draws take the high 32 bits, so scans reproduce exactly across platforms.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & self.MASK

    def next_below(self, n: int) -> int:
        self.state = (self.state * self.MULT + self.INC) & self.MASK
        return (self.state >> 32) % n


def _random_row_params(rng: _Lcg, p: int, s: int, c_max: int, k_cap: int) -> SqrtSumParams:
    q = p**s
    lam = 1 + rng.next_below(q - 1)
    while lam % p == 0:
        lam = 1 + rng.next_below(q - 1)
    kind = rng.next_below(3)
    if kind == 0:
        a: int | None = 1 + rng.next_below(p - 1)
        mu = 0
    else:
        a = None
        mu = kind - 1
    c = 1 + rng.next_below(c_max)
    k_hi = min(q, c * k_cap)
    K = 1 + rng.next_below(k_hi)
    b = rng.next_below(c)
    return SqrtSumParams(p=p, s=s, Lambda=lam, a=a, b=b, c=c, K=K, mu=mu)


def bound_scan(
    p: int,
    s_values: range | list[int],
    trials: int,
    seed: int,
    c_max: int = 64,
    k_cap: int = 100_000,
    threads: int = 1,
    budget: int | None = None,
) -> list[BoundScanRow]:
    """Measure |sum| / (p^(s/2) log p^s) over pseudo-random parameter tuples.

    Rows are generated by the documented LCG from ``seed``, so the output is
    identical across runs; ``k_cap`` bounds the number of k-terms per row
    (the per-row budget).  ``threads`` is accepted and ignored: the rows run
    in one thread, since a thread pool bought nothing under the GIL.
    """
    require_odd_prime(p)
    if any(s < 2 for s in s_values):
        raise ValidationError("s must be at least 2")
    if trials < 1:
        raise ValidationError("trials must be positive")
    budget_val = resolve_budget(budget)
    charge(min(k_cap, ROW_TERM_BUDGET), ROW_TERM_BUDGET, "scan row terms")
    rng = _Lcg(seed)
    all_params = []
    for s in s_values:
        for _ in range(trials):
            all_params.append(_random_row_params(rng, p, s, c_max, min(k_cap, ROW_TERM_BUDGET)))
    charge(sum(ps.K // ps.c + 1 for ps in all_params), budget_val, "bound scan")

    rows = []
    for ps in all_params:
        value = sqrt_root_sum(ps)
        denom = p ** (ps.s / 2.0) * math.log(p**ps.s)
        rows.append(BoundScanRow(ps, value, abs(value) / denom))
    return rows


SCAN_CSV_COLUMNS = ["p", "s", "Lambda", "a", "b", "c", "K", "mu", "re", "im", "abs", "normalized"]


def scan_rows_to_csv(rows: list[BoundScanRow]) -> str:
    """Render scan rows as CSV with the documented column order."""
    out = io.StringIO()
    out.write(",".join(SCAN_CSV_COLUMNS) + "\n")
    for row in rows:
        ps = row.params
        fields = [
            str(ps.p), str(ps.s), str(ps.Lambda),
            "" if ps.a is None else str(ps.a),
            str(ps.b), str(ps.c), str(ps.K), str(ps.mu),
            format(row.value.real, ".17g"), format(row.value.imag, ".17g"),
            format(abs(row.value), ".17g"), format(row.normalized, ".17g"),
        ]
        out.write(",".join(fields) + "\n")
    return out.getvalue()
