import cmath
import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_lab.errors import BudgetExceeded, ValidationError
from congruence_lab.modmath import (
    PrimePowerModulus,
    additive_character,
    jacobi_symbol,
    sqrt_classes_mod_prime_power,
)
from congruence_lab import modmath, sqrt_expsums
from congruence_lab.sqrt_expsums import (
    SCAN_CSV_COLUMNS,
    BoundScanRow,
    SqrtSumParams,
    bound_scan,
    scan_rows_to_csv,
    sqrt_root_sum,
)


def oracle_sum(params: SqrtSumParams) -> complex:
    """Recompute the double sum from complete root classes, k by k."""
    q = params.p**params.s
    total = 0.0 + 0.0j
    k0 = params.b % params.c or params.c
    for k in range(k0, params.K + 1, params.c):
        if k % params.p == 0:
            continue
        roots = sqrt_classes_mod_prime_power(k * params.Lambda, PrimePowerModulus(params.p, params.s))
        for u in roots.members():
            if params.a is not None and u % params.p != params.a % params.p:
                continue
            twist = jacobi_symbol(u, q) if params.mu == 1 else 1
            total += twist * additive_character(u, q)
    return total


def test_empty_range_gives_zero():
    # first admissible k is 5, beyond K
    params = SqrtSumParams(p=3, s=2, Lambda=1, a=1, b=5, c=7, K=4)
    assert sqrt_root_sum(params) == 0


def test_spec_small_case():
    """p=3, s=2, all k up to 9: roots congruent to 1 mod 3 exist for k in {1,4,7}."""
    params = SqrtSumParams(p=3, s=2, Lambda=1, a=1, b=1, c=1, K=9)
    got = sqrt_root_sum(params)
    want = additive_character(1, 9) + additive_character(7, 9) + additive_character(4, 9)
    assert abs(got - want) < 1e-12
    assert got == pytest.approx(oracle_sum(params))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_root_class_oracle(seed):
    import random

    rng = random.Random(seed)
    for _ in range(120):
        p = rng.choice([3, 5, 7])
        s = rng.randint(2, 5)
        q = p**s
        lam = rng.choice([x for x in range(1, q) if x % p])
        a = rng.randint(1, p - 1) if rng.random() < 0.5 else None
        mu = rng.randint(0, 1)
        c = rng.randint(1, 9)
        params = SqrtSumParams(
            p=p, s=s, Lambda=lam, a=a, b=rng.randint(0, c - 1), c=c,
            K=rng.randint(1, q), mu=mu,
        )
        assert sqrt_root_sum(params) == pytest.approx(oracle_sum(params), abs=1e-9)


def test_restriction_classes_sum_to_aggregate():
    p, s = 3, 8
    q = p**s
    for lam, b, c in [(7, 2, 5), (1, 0, 1), (q - 2, 3, 11)]:
        agg = sqrt_root_sum(SqrtSumParams(p=p, s=s, Lambda=lam, a=None, b=b, c=c, K=q, mu=0))
        parts = sum(
            sqrt_root_sum(SqrtSumParams(p=p, s=s, Lambda=lam, a=a, b=b, c=c, K=q, mu=0))
            for a in range(1, p)
        )
        assert abs(agg - parts) < 1e-9


def test_twisted_aggregate_decomposes_over_classes():
    """The Jacobi-twisted sum equals the twist-weighted sum of class sums."""
    p, s = 5, 3
    q = p**s
    lam, b, c, K = 3, 1, 4, q
    twisted = sqrt_root_sum(SqrtSumParams(p=p, s=s, Lambda=lam, a=None, b=b, c=c, K=K, mu=1))
    parts = 0.0 + 0.0j
    for a in range(1, p):
        class_sum = sqrt_root_sum(SqrtSumParams(p=p, s=s, Lambda=lam, a=a, b=b, c=c, K=K, mu=0))
        parts += jacobi_symbol(a, q) * class_sum
    assert abs(twisted - parts) < 1e-9


def test_pair_count_consistency():
    """Visited (k, u) pairs match a direct enumeration of u mod p^s."""
    p, s = 3, 4
    q = p**s
    lam, K = 2, 50
    inv_lam = pow(lam, -1, q)
    pairs_direct = 0
    for u in range(q):
        if u % p == 0:
            continue
        k = u * u * inv_lam % q
        if 0 < k <= K:
            pairs_direct += 1
    pairs_via_classes = 0
    for k in range(1, K + 1):
        if k % p == 0:
            continue
        pairs_via_classes += sqrt_classes_mod_prime_power(k * lam, PrimePowerModulus(p, s)).count()
    assert pairs_direct == pairs_via_classes


def test_degenerate_progression_one_term():
    params = SqrtSumParams(p=5, s=3, Lambda=1, a=None, b=1, c=100, K=50)
    value = sqrt_root_sum(params)
    assert abs(value) <= 2.0


@pytest.mark.parametrize("field, bad", [
    ("Lambda", 6), ("a", 3), ("c", 0), ("K", 0), ("K", 28), ("mu", 2), ("mu", -1),
])
def test_window_checks_raise_the_row_check_message(field, bad):
    # a window of valid rows mod 3^3 with one bad entry: the same message as that row alone
    good = dict(p=3, s=3, Lambda=2, a=1, b=0, c=5, K=27, mu=0)
    with pytest.raises(ValidationError) as row_error:
        SqrtSumParams(**{**good, field: bad})
    columns = {name: np.full(5, good[name], dtype=np.int64) for name in ("Lambda", "a", "c", "K", "mu")}
    columns[field][3] = bad
    with pytest.raises(ValidationError) as window_error:
        sqrt_expsums._check_rows(3, 3, columns["Lambda"], columns["a"], columns["c"], columns["K"], columns["mu"])
    assert str(window_error.value) == str(row_error.value)


def test_param_validation():
    with pytest.raises(ValidationError):
        SqrtSumParams(p=3, s=1, Lambda=1, a=1, b=0, c=1, K=1)
    with pytest.raises(ValidationError):
        SqrtSumParams(p=3, s=2, Lambda=3, a=1, b=0, c=1, K=1)
    with pytest.raises(ValidationError):
        SqrtSumParams(p=3, s=2, Lambda=1, a=1, b=0, c=1, K=10)
    with pytest.raises(ValidationError):
        SqrtSumParams(p=3, s=2, Lambda=1, a=1, b=0, c=1, K=5, mu=2)


def test_scan_determinism_and_csv():
    rows1 = bound_scan(3, range(2, 6), 8, seed=99)
    rows2 = bound_scan(3, range(2, 6), 8, seed=99, threads=3)
    assert [(r.params, r.value, r.normalized) for r in rows1] == [
        (r.params, r.value, r.normalized) for r in rows2
    ]
    csv_text = scan_rows_to_csv(rows1)
    lines = csv_text.strip().split("\n")
    assert lines[0] == ",".join(SCAN_CSV_COLUMNS)
    assert len(lines) == len(rows1) + 1
    assert all(len(line.split(",")) == len(SCAN_CSV_COLUMNS) for line in lines)
    # the exact zeros of the paired sums are positive zeros
    assert "-0" not in {field for line in lines for field in line.split(",")}


@pytest.mark.parametrize("kwargs, name", [({"c_max": 0}, "c_max"), ({"k_cap": 0}, "k_cap"), ({"k_cap": -5}, "k_cap")])
def test_scan_rejects_c_max_and_k_cap_below_one(kwargs, name):
    with pytest.raises(ValidationError, match=name):
        bound_scan(3, [2, 3], 2, seed=1, **kwargs)


def test_refused_scan_stops_drawing_at_the_row_that_crosses_the_budget():
    windows = []
    check_rows = sqrt_expsums._check_rows

    def recording_check(p, s, Lambda, fixed, c, K, mu):
        windows.append((c, K))  # the rows of each window that fit, checked once
        return check_rows(p, s, Lambda, fixed, c, K, mu)

    budget, k_cap = 10**5, 1000
    with mock.patch.object(sqrt_expsums, "_check_rows", recording_check), \
            mock.patch.object(sqrt_expsums, "_params", wraps=sqrt_expsums._params) as params:
        with pytest.raises(BudgetExceeded, match="bound scan"):
            bound_scan(3, range(2, 11), 10_000, seed=1, k_cap=k_cap, budget=budget)
    assert params.call_count == 0  # no row object is built before the scan fits
    # each row adds K // c + 1 <= k_cap + 1, so the rows before the crossing one sum to within that of the budget
    total = sum(int((K // c + 1).sum()) for c, K in windows)
    assert budget - (k_cap + 1) < total <= budget
    assert sum(len(K) for _, K in windows) < 9 * 10_000


def test_k_cap_is_charged_and_drawn_unclamped():
    # at the row-term budget the rows keep the documented draw: q = 3^16 > c * k_cap, so k_cap bounds K
    rows = bound_scan(3, [16], 2, seed=1, c_max=1, k_cap=10**7)
    assert [row.params for row in rows] == scan_params_loop_oracle(3, [16], 2, 1, 1, 10**7)
    assert max(row.params.K for row in rows) > 10**6
    # past it the cap is refused before any row is drawn, not clamped to 10^7
    with mock.patch.object(sqrt_expsums, "_scan_params", wraps=sqrt_expsums._scan_params) as scan:
        with pytest.raises(BudgetExceeded, match="scan row terms needs ~1.00e[+]9 ops, budget is 10000000"):
            bound_scan(3, [20], 50, seed=1, c_max=1, k_cap=10**9)
    assert scan.call_count == 0


def test_scan_runs_trial_division_once_not_per_row(monkeypatch):
    calls = []
    real_is_prime = modmath.is_prime
    monkeypatch.setattr(modmath, "is_prime", lambda n: calls.append(n) or real_is_prime(n))
    modmath._small_prime.cache_clear()
    rows = bound_scan(1_000_003, range(2, 4), 50, seed=1, k_cap=10)
    assert len(rows) == 100
    assert calls == [1_000_003]


def test_scan_rows_respect_bound_shape():
    rows = bound_scan(3, range(2, 8), 10, seed=5)
    for row in rows:
        assert isinstance(row, BoundScanRow)
        assert row.normalized >= 0
        denom = 3 ** (row.params.s / 2.0) * math.log(3**row.params.s)
        assert row.normalized == pytest.approx(abs(row.value) / denom)
    assert max(r.normalized for r in rows) < 10.0


# The scalar per-k loop that the batched lift replaced, kept as the exact
# oracle: the batched sums add the same terms in the same order, so they must
# agree bit for bit, not just approximately.


def _legendre_tables(p):
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


def scalar_root_sum(params):
    """Per-k Newton inverse-square-root lift: one cmath.exp per root of a
    fixed class, one math.cos or math.sin per root pair of the aggregate."""
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
    odd_twist = mu == 1 and s % 2 == 1
    # e(u/q) + e(-u/q) = 2 cos, and with the twist (-u/p) = (-1/p)(u/p) the pair is 2i sin when (-1/p) = -1
    imag_pairs = odd_twist and p % 4 == 3
    total = 0.0 + 0.0j
    re = im = 0.0
    two_pi_over_q = 2.0 * math.pi / q
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
            t = min(u, q - u)
            sign = leg[t % p] if odd_twist else 1
            if imag_pairs:
                im += sign * (2 * math.sin(two_pi_over_q * t))
            else:
                re += sign * (2 * math.cos(two_pi_over_q * t))
    if restricted:
        return total * leg[params.a % p] if odd_twist else total
    return complex(re, im)


def term_count(params):
    """Terms k = b mod c in [1, K], before keeping those with roots."""
    return len(range(params.b % params.c or params.c, params.K + 1, params.c))


def group_sums(rows):
    """``_root_sums`` of rows sharing p and s, as ``bound_scan`` evaluates a group."""
    return sqrt_expsums._root_sums(rows[0].p, rows[0].s, sqrt_expsums._columns(rows))


def kept_term_count(params):
    """Terms the scalar loop keeps: k != 0 mod p with k * Lambda mod p a square (a^2 for a fixed class)."""
    p = params.p
    kept = 0
    for k in range(params.b % params.c or params.c, params.K + 1, params.c):
        zp = k * params.Lambda % p
        if params.a is None:
            kept += zp != 0 and pow(zp, (p - 1) // 2, p) == 1
        else:
            kept += zp == params.a * params.a % p
    return kept


def _same_complex(got, want):
    return type(got) is complex and (got.real, got.imag) == (want.real, want.imag)


@st.composite
def _root_sum_params(draw, s_max=10, terms=3000):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    s = draw(st.integers(2, s_max))
    q = p**s
    unit = st.integers(1, q - 1).filter(lambda x: x % p)
    c = draw(st.integers(1, 64))
    # K from 1 (often below the first k = b mod c, an empty sum) up to ~`terms` terms
    K = draw(st.integers(1, min(q, terms * c)))
    return SqrtSumParams(
        p=p, s=s, Lambda=draw(unit), a=draw(st.none() | st.integers(1, p - 1)),
        b=draw(st.integers(0, c - 1)), c=c, K=K, mu=draw(st.integers(0, 1)),
    )


@settings(max_examples=300, deadline=None)
@given(_root_sum_params())
def test_root_sum_equals_scalar_loop_exactly(params):
    assert _same_complex(sqrt_root_sum(params), scalar_root_sum(params))


@pytest.mark.parametrize("a,mu", [(None, 0), (None, 1), (1, 0), (2, 1)])
def test_rows_spanning_several_chunks_equal_scalar_loop(a, mu):
    # 5^7 and 3^10 terms in int64, ~10^5 terms mod 11^10 past the int64 limit:
    # each row keeps more than CHUNK_TERMS of them, so it runs over 2 to 6 chunks
    for p, s, lam, c in [(5, 7, 2, 1), (3, 10, 5, 1), (11, 10, 7, 11**10 // 100_000)]:
        params = SqrtSumParams(p=p, s=s, Lambda=lam, a=a, b=0, c=c, K=p**s, mu=mu)
        assert kept_term_count(params) > sqrt_expsums.CHUNK_TERMS
        assert _same_complex(sqrt_root_sum(params), scalar_root_sum(params))


@st.composite
def _root_sum_groups(draw):
    """1 to 40 rows sharing p and s, as ``bound_scan`` hands them to ``_root_sums``."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    s = draw(st.integers(2, 10))
    q = p**s
    unit = st.integers(1, q - 1).filter(lambda x: x % p)
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        # p | c fixes k * Lambda mod p: every term is kept, or none, as for a class that never occurs
        c = draw(st.integers(1, 64) | st.integers(1, 8).map(lambda m: m * p))
        # mostly short rows, some over several chunks; K below b mod c leaves a row empty
        terms = draw(st.sampled_from([1500] * 7 + [3 * sqrt_expsums.CHUNK_TERMS]))
        rows.append(SqrtSumParams(
            p=p, s=s, Lambda=draw(unit), a=draw(st.none() | st.integers(1, p - 1)),
            b=draw(st.integers(0, c - 1)), c=c, K=draw(st.integers(1, min(q, terms * c))),
            mu=draw(st.integers(0, 1)),
        ))
    return rows


@settings(max_examples=80, deadline=None)
@given(_root_sum_groups(), st.sampled_from([sqrt_expsums.CHUNK_TERMS, 300]))
def test_group_root_sums_equal_scalar_loop_exactly(rows, chunk):
    # 300-term chunks put many more row boundaries inside chunks and split groups of
    # more than 300 // p rows into blocks
    with mock.patch.object(sqrt_expsums, "CHUNK_TERMS", chunk):
        sums = group_sums(rows)
    assert len(sums) == len(rows)
    for got, params in zip(sums, rows):
        assert _same_complex(got, scalar_root_sum(params))


@settings(max_examples=200, deadline=None)
@given(_root_sum_params(s_max=6, terms=300))
def test_root_sum_near_root_class_oracle_with_exact_zeros(params):
    got = sqrt_root_sum(params)
    roots = kept_term_count(params) * (1 if params.a is not None else 2)
    assert abs(got - oracle_sum(params)) <= 1e-12 * max(1, roots)
    if params.a is None:
        # a root pair sums to 2 cos, to (u/p) 2 cos, or to (u/p) 2i sin when (-1/p) = -1
        if params.mu == 1 and params.s % 2 == 1 and params.p % 4 == 3:
            assert got.real == 0.0
        else:
            assert got.imag == 0.0
        assert all(math.copysign(1.0, part) == 1.0 for part in (got.real, got.imag) if part == 0.0)


def test_one_real_trig_per_aggregate_term_one_complex_exp_per_fixed_term():
    # a mixed group mod 7^5: untwisted, twisted (2i sin, as (-1/7) = -1) and fixed-class rows
    rows = [
        SqrtSumParams(p=7, s=5, Lambda=3, a=None, b=1, c=2, K=7**5, mu=0),
        SqrtSumParams(p=7, s=5, Lambda=5, a=None, b=0, c=3, K=7**5, mu=1),
        SqrtSumParams(p=7, s=5, Lambda=1, a=2, b=4, c=5, K=7**5, mu=0),
        SqrtSumParams(p=7, s=5, Lambda=6, a=3, b=1, c=1, K=16_000, mu=1),
    ]
    numpy = sqrt_expsums.np
    with mock.patch.object(numpy, "cos", wraps=numpy.cos) as cos, \
            mock.patch.object(numpy, "sin", wraps=numpy.sin) as sin, \
            mock.patch.object(numpy, "exp", wraps=numpy.exp) as exp:
        sums = group_sums(rows)

    def evaluated(fn):
        return sum(numpy.size(call.args[0]) for call in fn.call_args_list)

    assert evaluated(cos) + evaluated(sin) == sum(kept_term_count(ps) for ps in rows if ps.a is None)
    assert evaluated(sin) == kept_term_count(rows[1])
    assert evaluated(exp) == sum(kept_term_count(ps) for ps in rows if ps.a is not None)
    assert all(numpy.iscomplexobj(call.args[0]) for call in exp.call_args_list)
    assert all(_same_complex(got, scalar_root_sum(ps)) for got, ps in zip(sums, rows))


def test_lift_sees_only_kept_terms_one_call_per_chunk():
    chunk = sqrt_expsums.CHUNK_TERMS
    # 3 * CHUNK_TERMS candidates: p does not divide c, p | c with every term kept, a fixed class
    rows = [
        SqrtSumParams(p=5, s=8, Lambda=2, a=None, b=1, c=1, K=chunk, mu=0),
        SqrtSumParams(p=5, s=8, Lambda=3, a=None, b=2, c=5, K=5 * chunk, mu=1),
        SqrtSumParams(p=5, s=8, Lambda=1, a=2, b=3, c=7, K=7 * chunk, mu=0),
    ]
    assert sum(term_count(ps) for ps in rows) == 3 * chunk
    lifted = []
    lift = sqrt_expsums.lift_sqrt_array

    def recording_lift(z, w, p, s):
        lifted.append(len(z))
        return lift(z, w, p, s)

    with mock.patch.object(sqrt_expsums, "lift_sqrt_array", recording_lift):
        sums = group_sums(rows)
    # the fixed class and the aggregate rows (mu = 1 at even s is untwisted) run in chunks of their own
    aggregate, fixed = kept_term_count(rows[0]) + kept_term_count(rows[1]), kept_term_count(rows[2])
    assert sum(lifted) == aggregate + fixed
    assert len(lifted) == -(-aggregate // chunk) - (-fixed // chunk)
    assert all(_same_complex(got, scalar_root_sum(ps)) for got, ps in zip(sums, rows))


@pytest.mark.parametrize("p,s_values,k_cap", [(3, range(2, 11), 100_000), (13, [9, 10], 2000), (7, [3, 10], 50_000)])
def test_scan_rows_equal_single_row_sums(p, s_values, k_cap):
    rows = bound_scan(p, s_values, 12, seed=7, k_cap=k_cap)
    for row in rows:
        assert SqrtSumParams(**vars(row.params)) == row.params  # the checks hold for rows built without them
        assert _same_complex(row.value, sqrt_root_sum(row.params))


def test_scan_memory_stays_bounded():
    """Long rows are evaluated in chunks, never as row-length arrays."""
    sqrt_root_sum(SqrtSumParams(p=7, s=2, Lambda=1, a=None, b=0, c=1, K=49))  # warm the tables
    tracemalloc.start()
    try:
        rows = bound_scan(7, [10], 3, 1, k_cap=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(term_count(r.params) for r in rows) > 5 * sqrt_expsums.CHUNK_TERMS
    assert peak < 3 * 2**20


def test_long_p_tables_hold_min_p_n_cells_per_row():
    """At p = 1,000,003 rows keep at most ~1000 terms each: their admission
    tables (one stable argsort over the cells of a block) cover min(p, n)
    residues per row, not all p, and the sums stay bit for bit the scalar
    loop's."""
    p = 1_000_003
    with mock.patch.object(sqrt_expsums.np, "argsort", wraps=sqrt_expsums.np.argsort) as argsort:
        rows = bound_scan(p, [3], 100, seed=3, k_cap=1000)
    cells = sum(call.args[0].size for call in argsort.call_args_list)
    assert cells <= sum(min(p, term_count(r.params)) for r in rows) + p
    assert max(term_count(r.params) for r in rows) <= 1000
    # the scalar loop's length-p tables, built once for the rows checked
    with mock.patch(f"{__name__}._legendre_tables", functools.lru_cache(_legendre_tables)):
        for row in rows[:: len(rows) // 4]:
            assert _same_complex(row.value, scalar_root_sum(row.params)), row.params


def scan_params_loop_oracle(p, s_values, trials, seed, c_max, k_cap):
    """The scalar LCG loop the windowed generator replaced, one draw at a time."""
    mult, inc, mask = 6364136223846793005, 1442695040888963407, (1 << 64) - 1
    state = (seed ^ 0x9E3779B97F4A7C15) & mask
    params = []
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
            params.append(SqrtSumParams(p=p, s=s, Lambda=lam, a=a, b=b, c=c, K=K, mu=max(kind - 1, 0)))
    return params


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 13, 1_000_003, 1_048_573]),
    st.lists(st.integers(2, 40), min_size=1, max_size=4),
    st.integers(1, 300),
    st.integers(0, 2**64),
    st.integers(1, 70) | st.integers(2**31, 2**40),
    st.integers(1, 10**7),
    st.sampled_from([sqrt_expsums.SCAN_WINDOW, 16]),
)
def test_windowed_scan_rows_equal_scalar_lcg_loop(p, s_values, trials, seed, c_max, k_cap, window):
    # q = p^s from 9 past 2^800, c_max and c * k_cap past the 2^32 range of a draw;
    # 16-draw windows split the rows over many windows, and some hold no whole row
    with mock.patch.object(sqrt_expsums, "SCAN_WINDOW", window):
        groups = sqrt_expsums._scan_params(p, s_values, trials, seed, c_max, k_cap, 10**30)
    got = [ps for s, columns in groups for ps in sqrt_expsums._params(p, s, columns)]
    assert got == scan_params_loop_oracle(p, s_values, trials, seed, c_max, k_cap)
    # rows built without the checks pass them when built with them
    assert all(SqrtSumParams(**vars(ps)) == ps for ps in got)
