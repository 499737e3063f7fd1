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
    depends on i mod p alone (on nothing when p | c).  A row of n terms
    gets a table over its first min(p, n) residues i, built once: its
    admitted residues S in increasing order (z mod p a nonzero square for
    aggregate rows, a^2 for a fixed class a, never 0) with the root w mod p
    of each.  The t-th kept term is then i = p * (t // |S|) + S[t % |S|];
    a row with n < p keeps the terms of S alone, so t < |S|.  Rows are
    taken in blocks of at most ``CHUNK_TERMS`` table cells (a longer row
    alone), so the tables of a block stay small whatever p is, and their
    cells total sum(min(p, n)) over the rows, within the scan's charge.
    The kept terms of a block's rows are laid end to end and evaluated in
    chunks of ``CHUNK_TERMS``: each chunk lifts its roots with
    ``lift_sqrt_array`` and adds the characters per row with
    ``np.bincount``.  A row running on from the previous chunk enters with
    its partial sum as its first weight, and ``np.bincount`` adds in order,
    so each value is the left-to-right sum over k, term by term.
    """
    p = rows[0].p
    n = np.array([_term_count(ps) for ps in rows], dtype=np.int64)
    width = np.minimum(n, p)
    if len(rows) > 1 and width.sum() > CHUNK_TERMS:
        sums, lo, cells = [], 0, 0
        for i, w in enumerate(width.tolist()):
            if cells + w > CHUNK_TERMS and i > lo:
                sums += _root_sums(rows[lo:i])
                lo, cells = i, 0
            cells += w
        return sums + _root_sums(rows[lo:])
    s = rows[0].s
    q = p**s
    leg, root, _ = prime_tables(p)
    dtype = residue_dtype(q)
    z0 = np.array([(ps.b % ps.c or ps.c) * ps.Lambda % q for ps in rows], dtype=dtype)
    zs = np.array([ps.c * ps.Lambda % q for ps in rows], dtype=dtype)
    fixed = np.array([ps.a is not None for ps in rows])
    a_res = np.array([(ps.a or 0) % p for ps in rows], dtype=np.int64)
    twisted = np.array([ps.mu == 1 and s % 2 == 1 for ps in rows])  # (u/p^s) = (u/p)^s is 1 for even s
    # the tables, laid end to end: row r owns cells offset[r] .. offset[r] + width[r] - 1
    offset = np.cumsum(width) - width
    table_row = np.repeat(np.arange(len(rows)), width)
    residues = np.arange(int(width.sum())) - offset[table_row]
    zp = (z0 % p).astype(np.int64)[table_row] + (zs % p).astype(np.int64)[table_row] * residues
    zp %= p
    admit = np.where(fixed[table_row], zp == (a_res * a_res % p)[table_row], leg[zp] == 1)
    # within each row, the admitted residues first, increasing
    order = np.argsort(2 * table_row + ~admit, kind="stable")
    base = np.where(fixed[table_row], a_res[table_row], root[zp[order]])
    order = residues[order]
    period = np.bincount(table_row[admit], minlength=len(rows))
    partial = admit & (residues < (n % p)[table_row])  # admitted in the last, partial period
    kept = period * (n // p) + np.bincount(table_row[partial], minlength=len(rows))
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
        cell = offset[row] + j
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

# draws per window of the vectorized row generator: ~2700 rows, ~1 MiB of arrays
SCAN_WINDOW = 1 << 14


def _lcg_jumps(count: int) -> tuple[np.ndarray, np.ndarray]:
    """uint64 (A, C) with state_i = A[i] * state_0 + C[i] mod 2^64, i < count."""
    A = np.ones(1, dtype=np.uint64)
    C = np.zeros(1, dtype=np.uint64)
    while len(A) < count:
        # state_(m+i) = A[i] * state_m + C[i], with state_m = A_m * state_0 + C_m
        A_m, C_m = A[-1:] * _LCG_MULT, C[-1:] * _LCG_MULT + _LCG_INC
        A, C = np.concatenate((A, A * A_m)), np.concatenate((C, A * C_m + C))
    return A[:count], C[:count]


def _scan_params(
    p: int, s_values: range | list[int], trials: int, seed: int, c_max: int, k_cap: int, budget: int
) -> list[SqrtSumParams]:
    """The scan's rows, ``trials`` per s, drawn from the LCG seeded by ``seed``.

    Each row draws, in order: Lambda (again while p | Lambda), its kind
    (a fixed class a, drawn next, or the aggregate with mu = 0 or 1), c,
    K <= min(p^s, c * k_cap) and b mod c.  The draws come a window at a
    time as arrays, from jumps of the LCG, and the rows are read off them:
    row j ends where row j + 1 starts, after its first accepted Lambda and
    5 or 6 draws.  A running total of K // c + 1 is charged as the rows are
    read, and only rows within it are built, so a refused scan stops at the
    first row that crosses ``budget``.
    """
    cap = 1 << 32  # a draw is below 2^32, so any modulus above that leaves it as it is
    state = (seed ^ 0x9E3779B97F4A7C15) & _LCG_MASK
    A, C = _lcg_jumps(1)
    params = []
    total = 0
    for s in s_values:
        q = p**s
        left = trials
        # a row takes 5 or 6 draws and one more per rejected Lambda
        width = min(SCAN_WINDOW, 8 * left + 16)
        while left:
            if len(A) <= width:
                A, C = _lcg_jumps(width + 1)
            states = A[1 : width + 1] * np.uint64(state) + C[1 : width + 1]
            x = (states >> np.uint64(32)).astype(np.int64)
            accepted = np.where((1 + x % min(q - 1, cap)) % p != 0, np.arange(width), width)
            lam_at = np.minimum.accumulate(accepted[::-1])[::-1]  # first accepted Lambda from each draw on
            draws_a = x[np.minimum(lam_at + 1, width - 1)] % 3 == 0  # kind 0
            row_end = (lam_at + 5 + draws_a).tolist() + [width + 1]  # a row starting at the end is not whole
            starts = []
            j = 0
            while len(starts) < left and row_end[j] <= width:
                starts.append(j)
                j = row_end[j]
            if not starts:
                width *= 2  # no whole row in the window: a long run of rejected Lambdas
                continue
            at = lam_at[starts]  # the draw of each row's Lambda
            kind = x[at + 1] % 3
            extra = (kind == 0).astype(np.int64)
            c = 1 + x[at + 2 + extra] % min(c_max, cap)
            K = 1 + x[at + 3 + extra] % np.minimum(min(q, cap), c * k_cap)
            b = x[at + 4 + extra] % c
            running = total + np.cumsum(K // c + 1)
            fits = int(np.searchsorted(running, budget, side="right"))
            lam = 1 + x[at] % min(q - 1, cap)
            a = np.where(kind == 0, 1 + x[at + 2] % (p - 1), 0)
            mu = np.maximum(kind - 1, 0)
            params += [
                SqrtSumParams(p=p, s=s, Lambda=L, a=a_i or None, b=b_i, c=c_i, K=K_i, mu=mu_i)
                for L, a_i, b_i, c_i, K_i, mu_i in zip(
                    lam[:fits].tolist(), a.tolist(), b.tolist(), c.tolist(), K.tolist(), mu.tolist()
                )
            ]
            if fits < len(starts):
                charge(int(running[fits]), budget, "bound scan")
            total = int(running[-1])
            left -= len(starts)
            state = int(states[j - 1])
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
