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
pass per chunk, with the roots from the one Newton lift
``modmath.lift_sqrt_array`` (int64, or Python ints once p^(2s) >= 2^63)
and the characters added per row by ``np.bincount`` in k order.  An
aggregate row takes both roots u and q - u of each k at once, as one real
cosine or sine of the smaller one, so its real or its imaginary part is
exactly zero.  Rows travel as int64 columns, checked a window at a time,
and become ``SqrtSumParams`` only at the end.
"""

from __future__ import annotations

import io
import math
from dataclasses import astuple, dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, charge, require_int, resolve_budget
from .modmath import TWO_PI, lift_sqrt_array, prime_tables, require_odd_prime, residue_dtype

ROW_TERM_BUDGET = 10**7

# kept terms per array pass: the working arrays stay under 1 MiB however
# long the rows are, instead of growing with the row length; 2^14 raised the
# expsum-scan CLI's peak RSS by ~1.1 MiB and ran no faster
CHUNK_TERMS = 1 << 13

# the kinds of row, each evaluated in passes of its own: a fixed class
# (one e(u/q) per root), the aggregate (2 cos(2 pi t/q) per root pair) and
# the twisted aggregate with s odd (that pair value times (t/p), or
# 2i sin(2 pi t/q) (t/p) when (-1/p) = -1)
_FIXED, _PLAIN, _TWISTED = 0, 1, 2


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
        _check_rows(self.p, self.s, self.Lambda, self.a, self.c, self.K, self.mu)


def _check_rows(p: int, s: int, Lambda, a, c, K, mu) -> None:
    """The checks of ``SqrtSumParams``, on one row's values or at once on the
    int64 columns of rows sharing p and s; there ``a`` holds the classes of
    the rows that have one."""
    require_odd_prime(p)
    if s < 2:
        raise ValidationError("s must be at least 2")
    for bad, message in (
        (Lambda % p == 0, "Lambda must be a unit mod p"),
        (a is not None and a % p == 0, "root class a must be a unit mod p"),
        (c < 1, "progression modulus c must be positive"),
        ((K < 1) | (K > p**s), "need 0 < K <= p^s"),
        ((mu != 0) & (mu != 1), "mu must be 0 or 1"),
    ):
        if bad.any() if isinstance(bad, np.ndarray) else bad:
            raise ValidationError(message)


class _Rows(NamedTuple):
    """Rows sharing p and s as columns; a = 0 stands for the aggregate form."""

    Lambda: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    K: np.ndarray
    mu: np.ndarray


def _columns(params: list[SqrtSumParams]) -> _Rows:
    """Rows sharing p and s as columns of their exact ints."""
    cols = zip(*((ps.Lambda, ps.a or 0, ps.b, ps.c, ps.K, ps.mu) for ps in params))
    return _Rows(*(np.array(col, dtype=object) for col in cols))


def _params(p: int, s: int, rows: _Rows) -> list[SqrtSumParams]:
    """The rows as ``SqrtSumParams``, built without running the checks again:
    each field is set as the dataclass' own ``__init__`` sets it."""
    params = []
    new, set_field = object.__new__, object.__setattr__
    for L, a, b, c, K, mu in zip(*(col.tolist() for col in rows)):
        ps = new(SqrtSumParams)
        set_field(ps, "p", p)
        set_field(ps, "s", s)
        set_field(ps, "Lambda", L)
        set_field(ps, "a", a or None)
        set_field(ps, "b", b)
        set_field(ps, "c", c)
        set_field(ps, "K", K)
        set_field(ps, "mu", mu)
        params.append(ps)
    return params


def _root_sums(p: int, s: int, rows: _Rows) -> list[complex]:
    """``sqrt_root_sum`` of every row, for rows sharing p and s.

    Term i of a row is k = k0 + c * i, so z = k * Lambda mod p^s is
    z0 + zs * i with z0 = k0 * Lambda and zs = c * Lambda.  The rows are
    sorted by kind (fixed class, aggregate, twisted aggregate) and taken in
    blocks of at most ``CHUNK_TERMS`` table cells (a longer row alone), so
    the tables of a block stay small whatever p is, and their cells total
    sum(min(p, n)) over the rows, within the scan's charge; ``_block_sums``
    adds the terms of each block.
    """
    q = p**s
    dtype = residue_dtype(q)
    Lambda, b, c, K = rows.Lambda, rows.b, rows.c, rows.K
    if dtype is object:
        Lambda, b, c, K = (col.astype(object) for col in (Lambda, b, c, K))
    k0 = b % c
    k0 = np.where(k0 == 0, c, k0)  # the first k = b mod c in [1, K], if any
    n = np.maximum((K - k0) // c + 1, 0).astype(np.int64)
    z0 = (k0 % q * (Lambda % q) % q).astype(dtype)
    zs = (c % q * (Lambda % q) % q).astype(dtype)
    a_res = (rows.a % p).astype(np.int64)
    odd_twist = (rows.mu == 1) & (s % 2 == 1)  # (u/p^s) = (u/p)^s is 1 for even s
    kind = np.where(a_res != 0, _FIXED, np.where(odd_twist, _TWISTED, _PLAIN))
    by_kind = np.argsort(kind, kind="stable")
    width = np.minimum(n[by_kind], p).tolist()
    re = np.zeros(len(kind))
    im = np.zeros(len(kind))
    lo, cells = 0, 0
    for i, w in enumerate(width + [CHUNK_TERMS + 1]):  # the sentinel closes the last block
        if cells + w > CHUNK_TERMS and i > lo:
            block = by_kind[lo:i]
            re[block], im[block] = _block_sums(
                p, s, z0[block], zs[block], n[block], a_res[block], kind[block]
            )
            lo, cells = i, 0
        cells += w
    sums = list(map(complex, re.tolist(), im.tolist()))
    leg = prime_tables(p).legendre
    for i in np.flatnonzero(odd_twist & (kind == _FIXED)).tolist():
        sums[i] *= int(leg[a_res[i]])  # (u/p^s) = (a/p)^s on the class u = a mod p
    return sums


def _block_sums(
    p: int, s: int, z0: np.ndarray, zs: np.ndarray, n: np.ndarray, a_res: np.ndarray, kind: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the sums of rows sorted by kind.

    z mod p depends on i mod p alone (on nothing when p | c).  A row of n
    terms gets a table over its first min(p, n) residues i, built once: its
    admitted residues S in increasing order (z mod p a nonzero square for
    aggregate rows, a^2 for a fixed class a, never 0).  The t-th kept term
    is then i = p * (t // |S|) + S[t % |S|]; a row with n < p keeps the
    terms of S alone, so t < |S|.  The kept terms of the rows of one kind
    are laid end to end and evaluated in chunks of ``CHUNK_TERMS``: each
    chunk lifts its roots with ``lift_sqrt_array`` and adds the terms per
    row with ``np.bincount``.  A fixed-class term is e(u/q); an aggregate
    term pairs the roots u and q - u, and with t = min(u, q - u) their sum
    is 2 cos(2 pi t/q), times (t/p) when twisted, and 2i sin(2 pi t/q) (t/p)
    when twisted and (-1/p) = -1.  A row running on from the previous chunk
    enters with its partial sum as its first weight, and ``np.bincount``
    adds in order, so each value is the left-to-right sum over k, term by
    term.
    """
    q = p**s
    leg = prime_tables(p).legendre
    fixed = kind == _FIXED
    width = np.minimum(n, p)
    # the tables, laid end to end: row r owns cells offset[r] .. offset[r] + width[r] - 1
    offset = np.cumsum(width) - width
    table_row = np.repeat(np.arange(len(n)), width)
    residues = np.arange(int(width.sum())) - offset[table_row]
    zp = (z0 % p).astype(np.int64)[table_row] + (zs % p).astype(np.int64)[table_row] * residues
    zp %= p
    admit = np.where(fixed[table_row], zp == (a_res * a_res % p)[table_row], leg[zp] == 1)
    # within each row, the admitted residues first, increasing
    order = np.argsort(2 * table_row + ~admit, kind="stable")
    order = residues[order]
    period = np.bincount(table_row[admit], minlength=len(n))
    partial = admit & (residues < (n % p)[table_row])  # admitted in the last, partial period
    kept = period * (n // p) + np.bincount(table_row[partial], minlength=len(n))
    ends = np.cumsum(kept)
    starts = ends - kept
    theta = TWO_PI / q
    re = np.zeros(len(n))
    im = np.zeros(len(n))
    # per aggregate kind: a root pair's trig function of 2 pi t/q, the part
    # it adds to and whether (t/p) signs it
    twisted = (np.cos, re, True) if p % 4 == 1 else (np.sin, im, True)
    pairs = {_PLAIN: (np.cos, re, False), _TWISTED: twisted}
    first_row = np.searchsorted(kind, (_FIXED, _PLAIN, _TWISTED, _TWISTED + 1)).tolist()
    for kd in (_FIXED, _PLAIN, _TWISTED):
        rows_lo, rows_hi = first_row[kd], first_row[kd + 1]
        if rows_lo == rows_hi:
            continue
        terms_hi = int(ends[rows_hi - 1])
        for lo in range(int(starts[rows_lo]), terms_hi, CHUNK_TERMS):
            hi = min(lo + CHUNK_TERMS, terms_hi)
            first = int(np.searchsorted(ends, lo, side="right"))
            last = int(np.searchsorted(ends, hi - 1, side="right")) + 1
            spans = np.minimum(ends[first:last], hi) - np.maximum(starts[first:last], lo)
            row = np.repeat(np.arange(first, last), spans)
            cycle, j = np.divmod(np.arange(lo, hi) - starts[row], period[row])
            z = (z0[row] + zs[row] * (cycle * p + order[offset[row] + j])) % q
            if kd == _FIXED:
                u = lift_sqrt_array(z, a_res[row], p, s)
                term = np.exp(1j * (theta * u.astype(np.float64)))
                parts = ((re, term.real), (im, term.imag))
            else:
                trig, sums, signed = pairs[kd]
                u = lift_sqrt_array(z, None, p, s)  # u or q - u: the pair value is the same
                t = np.minimum(u, q - u)
                value = 2 * trig(theta * t.astype(np.float64))
                if signed:
                    value *= leg[(t % p).astype(np.int64)]
                parts = ((sums, value),)
            slot = np.concatenate(([0], row - first))
            for sums, term in parts:
                sums[first:last] = np.bincount(slot, np.concatenate(([sums[first]], term)), last - first)
    return re, im


def sqrt_root_sum(params: SqrtSumParams) -> complex:
    """Sum of e(u / p^s) over the progression of k and matching roots u.

    Iterates k = b mod c with 0 < k <= K and (k, p) = 1; the roots of
    k * Lambda mod p^s come from one ``lift_sqrt_array`` call per chunk of
    the k that have roots in the row's class (a Newton inverse-square-root
    lift seeded from a table mod p^t0, or mod p once p^2 > 2^14, with
    O(log(s / t0)) array products in int64 or Python ints).  This is the
    one-row case of the batched evaluation that ``bound_scan`` runs over
    whole groups of rows.
    """
    return _root_sums(params.p, params.s, _columns([params]))[0]


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


def _row_starts(row_end: np.ndarray, left: int) -> np.ndarray:
    """The first draws 0, row_end[0], row_end[row_end[0]], ... of a window's
    whole rows (row_end <= the window's width), at most ``left`` of them.

    The chain is followed by pointer doubling, with no Python step per row:
    with the jumps of 2^k rows tabled for k < K, the draws reached from 0
    double in number at each table, longest jump first, until they hold
    every start within 2^K - 1 rows.  A row that is not whole, and the sink
    past the window, jump to the sink.
    """
    width = len(row_end)
    sink = width + 1
    # a row from draw `width` on is not whole either
    jump = np.append(np.where(row_end <= width, row_end, sink), [sink, sink])
    jumps = [jump]
    while 1 << len(jumps) <= min(left, width // 5 + 1):  # a row takes at least 5 draws
        jumps.append(jumps[-1][jumps[-1]])
    reached = np.zeros(1, dtype=np.int64)
    for jump in reversed(jumps):
        reached = np.concatenate((reached, jump[reached]))
    start = np.zeros(sink + 1, dtype=bool)
    start[reached] = True
    return np.flatnonzero(start & (jumps[0] != sink))[:left]


def _scan_params(
    p: int, s_values: range | list[int], trials: int, seed: int, c_max: int, k_cap: int, budget: int
) -> list[tuple[int, _Rows]]:
    """The scan's rows as columns per s, ``trials`` per s, drawn from the LCG
    seeded by ``seed``.

    Each row draws, in order: Lambda (again while p | Lambda), its kind
    (a fixed class a, drawn next, or the aggregate with mu = 0 or 1), c,
    K <= min(p^s, c * k_cap) and b mod c.  The draws come a window at a
    time as arrays, from jumps of the LCG, and the rows are read off them:
    row j ends where row j + 1 starts, after its first accepted Lambda and
    5 or 6 draws.  A running total of K // c + 1 is charged as the rows are
    read, so a refused scan stops at the first row that crosses ``budget``;
    each window's columns pass the checks of ``SqrtSumParams`` at once.
    """
    cap = 1 << 32  # a draw is below 2^32, so any modulus above that leaves it as it is
    state = (seed ^ 0x9E3779B97F4A7C15) & _LCG_MASK
    A, C = _lcg_jumps(1)
    groups = []
    total = 0
    for s in s_values:
        q = p**s
        left = trials
        windows = []
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
            row_end = lam_at + 5 + draws_a
            starts = _row_starts(row_end, left)
            if not len(starts):
                width *= 2  # no whole row in the window: a long run of rejected Lambdas
                continue
            at = lam_at[starts]  # the draw of each row's Lambda
            kind = x[at + 1] % 3
            extra = (kind == 0).astype(np.int64)
            c = 1 + x[at + 2 + extra] % min(c_max, cap)
            K = 1 + x[at + 3 + extra] % np.minimum(min(q, cap), c * k_cap)
            running = total + np.cumsum(K // c + 1)
            fits = int(np.searchsorted(running, budget, side="right"))
            at, kind, extra, c, K = at[:fits], kind[:fits], extra[:fits], c[:fits], K[:fits]
            rows = _Rows(
                1 + x[at] % min(q - 1, cap),
                np.where(kind == 0, 1 + x[at + 2] % (p - 1), 0),
                x[at + 4 + extra] % c,
                c,
                K,
                np.maximum(kind - 1, 0),
            )
            _check_rows(p, s, rows.Lambda, rows.a[kind == 0], c, K, rows.mu)
            if fits < len(starts):
                charge(int(running[fits]), budget, "bound scan")
            windows.append(rows)
            total = int(running[-1])
            left -= len(starts)
            state = int(states[row_end[starts[-1]] - 1])
        groups.append((s, _Rows(*map(np.concatenate, zip(*windows)))))
    return groups


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
    (the per-row budget, refused with ``BudgetExceeded`` above
    ``ROW_TERM_BUDGET``), and a scan whose rows total more than ``budget``
    terms is refused at the first row that crosses it, before any row
    object is built.  Rows with the same s are evaluated together in bounded
    chunks of kept terms, each value equal to ``sqrt_root_sum`` of its row.
    ``threads`` is accepted and ignored: the rows run in one thread, since a
    thread pool bought nothing under the GIL.
    """
    require_odd_prime(p)
    s_values = [require_int("s", s) for s in s_values]
    trials, seed = require_int("trials", trials), require_int("seed", seed)
    c_max, k_cap = require_int("c_max", c_max), require_int("k_cap", k_cap)
    if any(s < 2 for s in s_values):
        raise ValidationError("s must be at least 2")
    if trials < 1:
        raise ValidationError("trials must be positive")
    if c_max < 1:
        raise ValidationError(f"c_max must be at least 1, got {c_max}")
    if k_cap < 1:
        raise ValidationError(f"k_cap must be at least 1, got {k_cap}")
    budget_val = resolve_budget(budget)
    charge(k_cap, ROW_TERM_BUDGET, "scan row terms")
    groups = _scan_params(p, s_values, trials, seed, c_max, k_cap, budget_val)

    rows = []
    for s, columns in groups:
        denom = p ** (s / 2.0) * math.log(p**s)
        for ps, value in zip(_params(p, s, columns), _root_sums(p, s, columns)):
            rows.append(BoundScanRow(ps, value, abs(value) / denom))
    return rows


SCAN_CSV_COLUMNS = [f.name for f in fields(SqrtSumParams)] + ["re", "im", "abs", "normalized"]


def scan_rows_to_csv(rows: list[BoundScanRow]) -> str:
    """Render scan rows as CSV: the fields of ``SqrtSumParams``, then the value."""
    out = io.StringIO()
    out.write(",".join(SCAN_CSV_COLUMNS) + "\n")
    for row in rows:
        cells = ["" if v is None else str(v) for v in astuple(row.params)]
        cells += (format(x, ".17g") for x in (row.value.real, row.value.imag, abs(row.value), row.normalized))
        out.write(",".join(cells) + "\n")
    return out.getvalue()
