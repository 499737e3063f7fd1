"""Exponential sums over Hensel-lifted modular square roots.

The central object is the double sum of e(u / p^s) over k running through
an arithmetic progression (coprime to p) and u through the square roots of
k * Lambda mod p^s, optionally restricted to a residue class mod p or
twisted by the Jacobi symbol.  A scan harness measures the empirical
constant in the p^(s/2) * log(p^s) bound over pseudo-random parameters.

Sums are evaluated in batches: the k-terms of many rows with the same p and
s run through one array pass per chunk, with the roots from the vectorized
int64 lift ``modmath.lift_sqrt_array`` and the characters added per row by
``np.bincount`` in k order, so each value equals the term-by-term sum.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import ValidationError, charge, resolve_budget
from .modmath import TWO_PI, lift_sqrt_array, prime_tables, require_odd_prime, residue_dtype

ROW_TERM_BUDGET = 10**7

# k-terms per array pass: the working arrays stay ~1.5 MiB however long the
# rows are, instead of growing with the row length
CHUNK_TERMS = 1 << 14


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


def _term_count(ps: SqrtSumParams) -> int:
    """Number of k = b mod c in [1, K], before the k = 0 mod p filter."""
    k0 = ps.b % ps.c or ps.c
    return max(0, (ps.K - k0) // ps.c + 1)


def _root_sums(rows: list[SqrtSumParams]) -> list[complex]:
    """``sqrt_root_sum`` of every row, for rows sharing p and s.

    The k-terms of all rows are laid end to end and evaluated in chunks of
    ``CHUNK_TERMS``: each chunk builds its k by ``arange`` arithmetic, keeps
    k != 0 mod p whose k * Lambda has a root in the row's class, lifts the
    roots with ``lift_sqrt_array`` and adds the characters per row with
    ``np.bincount``.  A row running on from the previous chunk enters with
    its partial sum as its first weight, and ``np.bincount`` adds in order,
    so each value is the left-to-right sum over k, term by term.
    """
    p, s = rows[0].p, rows[0].s
    q = p**s
    leg, root, _ = prime_tables(p)
    dtype = residue_dtype(q)
    counts = np.array([_term_count(ps) for ps in rows], dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    # a row with terms has k0 <= K <= q, and with two or more also c <= q
    k0 = np.array([min(ps.b % ps.c or ps.c, q) for ps in rows], dtype=dtype)
    step = np.array([min(ps.c, q) for ps in rows], dtype=dtype)
    lam = np.array([ps.Lambda % q for ps in rows], dtype=dtype)
    fixed = np.array([ps.a is not None for ps in rows])
    a_res = np.array([(ps.a or 0) % p for ps in rows], dtype=np.int64)
    twisted = np.array([ps.mu == 1 and s % 2 == 1 for ps in rows])  # (u/p^s) = (u/p)^s is 1 for even s
    theta = TWO_PI / q
    re = np.zeros(len(rows))
    im = np.zeros(len(rows))
    total_terms = int(ends[-1])
    for lo in range(0, total_terms, CHUNK_TERMS):
        hi = min(lo + CHUNK_TERMS, total_terms)
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        spans = np.minimum(ends[first:last], hi) - np.maximum(starts[first:last], lo)
        row = np.repeat(np.arange(first, last), spans)
        k = k0[row] + step[row] * (np.arange(lo, hi) - starts[row])
        z = k * lam[row] % q
        zp = (z % p).astype(np.int64)
        keep = (k % p != 0) & np.where(fixed[row], zp == a_res[row] ** 2 % p, root[zp] >= 0)
        row, z, zp = row[keep], z[keep], zp[keep]
        alone = fixed[row]
        u = lift_sqrt_array(z, np.where(alone, a_res[row], root[zp]), p, s)
        term = np.exp(1j * (theta * u.astype(np.float64)))
        pair = ~alone
        if pair.any():
            # the two roots u and q - u of k * Lambda, each with its own sign when twisted
            u, v = u[pair], q - u[pair]
            other = np.exp(1j * (theta * v.astype(np.float64)))
            tw = twisted[row[pair]]
            if tw.any():
                sign_u = np.where(tw, leg[(u % p).astype(np.int64)], 1)
                sign_v = np.where(tw, leg[(v % p).astype(np.int64)], 1)
                term[pair] = sign_u * term[pair] + sign_v * other
            else:
                term[pair] += other
        slot = np.concatenate(([0], row - first))
        re[first:last] = np.bincount(slot, np.concatenate(([re[first]], term.real)), last - first)
        im[first:last] = np.bincount(slot, np.concatenate(([im[first]], term.imag)), last - first)
    sums = []
    for ps, x, y, tw in zip(rows, re, im, twisted):
        total = complex(x, y)
        if tw and ps.a is not None:
            total *= int(leg[ps.a % p])  # (u/p^s) = (a/p)^s on the class u = a mod p
        sums.append(total)
    return sums


def sqrt_root_sum(params: SqrtSumParams) -> complex:
    """Sum of e(u / p^s) over the progression of k and matching roots u.

    Iterates k = b mod c with 0 < k <= K and (k, p) = 1; the roots of
    k * Lambda mod p^s come from one ``lift_sqrt_array`` call per chunk of
    k (a Newton inverse-square-root lift of the base root mod p, O(log s)
    array products).  This is the one-row case of the batched evaluation
    that ``bound_scan`` runs over whole groups of rows.
    """
    return _root_sums([params])[0]


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
    (the per-row budget).  Rows with the same s are evaluated together in
    bounded chunks of k-terms, each value equal to ``sqrt_root_sum`` of its
    row.  ``threads`` is accepted and ignored: the rows run in one thread,
    since a thread pool bought nothing under the GIL.
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
    for s, group in groupby(all_params, key=lambda ps: ps.s):
        group = list(group)
        denom = p ** (s / 2.0) * math.log(p**s)
        for ps, value in zip(group, _root_sums(group)):
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
