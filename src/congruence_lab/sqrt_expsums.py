"""Exponential sums over Hensel-lifted modular square roots.

The central object is the double sum of e(u / p^s) over k running through
an arithmetic progression (coprime to p) and u through the square roots of
k * Lambda mod p^s, optionally restricted to a residue class mod p or
twisted by the Jacobi symbol.  A scan harness measures the empirical
constant in the p^(s/2) * log(p^s) bound over pseudo-random parameters.

Sums are evaluated in batches over the terms they keep: k * Lambda mod p
depends only on the index of k in its progression mod p, so a small table
per row lists which k have roots in the row's class, in increasing order.
Only those terms of the rows with the same p and s run through one array
pass per chunk, with the roots from the vectorized int64 lift
``modmath.lift_sqrt_array`` and the characters added per row by
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

# kept terms per array pass: the working arrays stay under 1 MiB however
# long the rows are, instead of growing with the row length; 2^14 raised the
# expsum-scan CLI's peak RSS by ~1.1 MiB and ran no faster
CHUNK_TERMS = 1 << 13


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
    """Number of k = b mod c in [1, K], before keeping those with roots."""
    k0 = ps.b % ps.c or ps.c
    return max(0, (ps.K - k0) // ps.c + 1)


def _root_sums(rows: list[SqrtSumParams]) -> list[complex]:
    """``sqrt_root_sum`` of every row, for rows sharing p and s.

    Term i of a row is k = k0 + c * i, so z = k * Lambda mod p^s is
    z0 + zs * i with z0 = k0 * Lambda and zs = c * Lambda, and z mod p
    depends on i mod p alone (on nothing when p | c).  A rows x p table,
    built once, gives each row its admitted residues S of i mod p in
    increasing order (z mod p a nonzero square for aggregate rows, a^2 for
    a fixed class a, never 0) with the root w mod p of each; the t-th kept
    term is then i = p * (t // |S|) + S[t % |S|].  The kept terms of all rows
    are laid end to end and evaluated in chunks of ``CHUNK_TERMS``: each
    chunk lifts its roots with ``lift_sqrt_array`` and adds the characters
    per row with ``np.bincount``.  A row running on from the previous chunk
    enters with its partial sum as its first weight, and ``np.bincount`` adds
    in order, so each value is the left-to-right sum over k, term by term.
    """
    p, s = rows[0].p, rows[0].s
    block = max(1, CHUNK_TERMS // p)
    if len(rows) > block:  # keeps the rows x p tables within CHUNK_TERMS cells for large p
        return [v for lo in range(0, len(rows), block) for v in _root_sums(rows[lo : lo + block])]
    q = p**s
    leg, root, _ = prime_tables(p)
    dtype = residue_dtype(q)
    n = np.array([_term_count(ps) for ps in rows], dtype=np.int64)
    z0 = np.array([(ps.b % ps.c or ps.c) * ps.Lambda % q for ps in rows], dtype=dtype)
    zs = np.array([ps.c * ps.Lambda % q for ps in rows], dtype=dtype)
    fixed = np.array([ps.a is not None for ps in rows])
    a_res = np.array([(ps.a or 0) % p for ps in rows], dtype=np.int64)
    twisted = np.array([ps.mu == 1 and s % 2 == 1 for ps in rows])  # (u/p^s) = (u/p)^s is 1 for even s
    residues = np.arange(p)
    zp = (z0 % p).astype(np.int64)[:, None] + (zs % p).astype(np.int64)[:, None] * residues
    zp %= p
    admit = np.where(fixed[:, None], zp == (a_res * a_res % p)[:, None], leg[zp] == 1)
    order = np.argsort(~admit, axis=1, kind="stable")  # the admitted residues first, increasing
    base = np.where(fixed[:, None], a_res[:, None], root[np.take_along_axis(zp, order, axis=1)])
    period = admit.sum(axis=1)
    kept = period * (n // p) + (admit & (residues < (n % p)[:, None])).sum(axis=1)
    order, base = order.ravel(), base.ravel()
    ends = np.cumsum(kept)
    starts = ends - kept
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
        cycle, j = np.divmod(np.arange(lo, hi) - starts[row], period[row])
        cell = row * p + j
        z = (z0[row] + zs[row] * (cycle * p + order[cell])) % q
        u = lift_sqrt_array(z, base[cell], p, s)
        term = np.exp(1j * (theta * u.astype(np.float64)))
        pair = ~fixed[row]
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
    the k that have roots in the row's class (a Newton inverse-square-root
    lift seeded from a table mod p^t0, O(log(s / t0)) array products).  This
    is the one-row case of the batched evaluation that ``bound_scan`` runs
    over whole groups of rows.
    """
    return _root_sums([params])[0]


@dataclass(frozen=True)
class BoundScanRow:
    """One scan row: the sum value and its ratio to p^(s/2) * log(p^s)."""

    params: SqrtSumParams
    value: complex
    normalized: float


# The scan's 64-bit linear congruential generator (Knuth's constants):
# state <- state * _LCG_MULT + _LCG_INC mod 2^64, and a draw below n is the
# high 32 bits mod n, so scans reproduce exactly across platforms.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def _scan_params(
    p: int, s_values: range | list[int], trials: int, seed: int, c_max: int, k_cap: int, budget: int
) -> list[SqrtSumParams]:
    """The scan's rows, ``trials`` per s, drawn from the LCG seeded by ``seed``.

    Each row draws, in order: Lambda (again while p | Lambda), its kind
    (a fixed class a, drawn next, or the aggregate with mu = 0 or 1), c,
    K <= min(p^s, c * k_cap) and b mod c.  A running total of K // c + 1 is
    charged as the rows are drawn, so a refused scan stops at the first row
    that crosses ``budget``.
    """
    mult, inc, mask = _LCG_MULT, _LCG_INC, _LCG_MASK
    state = (seed ^ 0x9E3779B97F4A7C15) & mask
    params = []
    total = 0
    for s in s_values:
        q = p**s
        for _ in range(trials):
            lam = 0
            while lam % p == 0:
                state = (state * mult + inc) & mask
                lam = 1 + (state >> 32) % (q - 1)
            state = (state * mult + inc) & mask
            kind = (state >> 32) % 3
            a = None
            if kind == 0:
                state = (state * mult + inc) & mask
                a = 1 + (state >> 32) % (p - 1)
            state = (state * mult + inc) & mask
            c = 1 + (state >> 32) % c_max
            state = (state * mult + inc) & mask
            K = 1 + (state >> 32) % min(q, c * k_cap)
            state = (state * mult + inc) & mask
            b = (state >> 32) % c
            total += K // c + 1
            charge(total, budget, "bound scan")
            params.append(SqrtSumParams(p=p, s=s, Lambda=lam, a=a, b=b, c=c, K=K, mu=max(kind - 1, 0)))
    return params


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
    (the per-row budget), and a scan whose rows total more than ``budget``
    terms is refused at the first row that crosses it.  Rows with the same s
    are evaluated together in bounded chunks of kept terms, each value equal
    to ``sqrt_root_sum`` of its row.  ``threads`` is accepted and ignored:
    the rows run in one thread, since a thread pool bought nothing under the
    GIL.
    """
    require_odd_prime(p)
    if any(s < 2 for s in s_values):
        raise ValidationError("s must be at least 2")
    if trials < 1:
        raise ValidationError("trials must be positive")
    if c_max < 1:
        raise ValidationError(f"c_max must be at least 1, got {c_max}")
    if k_cap < 1:
        raise ValidationError(f"k_cap must be at least 1, got {k_cap}")
    budget_val = resolve_budget(budget)
    charge(min(k_cap, ROW_TERM_BUDGET), ROW_TERM_BUDGET, "scan row terms")
    all_params = _scan_params(p, s_values, trials, seed, c_max, min(k_cap, ROW_TERM_BUDGET), budget_val)

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
