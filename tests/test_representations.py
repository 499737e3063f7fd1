import itertools
import math
import pathlib
import re
from collections import Counter
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congruence_lab.counting import (
    _distinct_keys,
    _sorted_join,
    bump_pair_weight,
    gaussian_weight,
    sharp_cutoff_weight,
    weight_fourier,
    weight_fourier_array,
)
from congruence_lab.densities import DiagonalForm
from congruence_lab.errors import (
    BudgetExceeded,
    CoprimalityViolated,
    HypothesisViolated,
    IndefiniteForm,
    TruncationInsufficient,
    ValidationError,
)
from congruence_lab import representations
from congruence_lab.modmath import PrimePowerModulus, residue_dtype
from congruence_lab.representations import (
    DualForm,
    quadruple_count,
    singular_coefficient,
    singular_coefficient_naive,
    singular_integral,
    singular_series,
    tau_n,
)

G = gaussian_weight()

# regression fixture: all-ones dual, n=4, p=3, k=1, q_max=50 (pinned at first run)
SINGULAR_FIXTURE = 0.54604993682305747


def tau_oracle(k, deltas, r, w, modulus, N, p):
    M = math.isqrt(k) + 1
    scale = (p**r) * N / modulus.q
    total = 0.0
    for xs in itertools.product(range(-M, M + 1), repeat=len(deltas)):
        if any(x == 0 or x % p == 0 for x in xs):
            continue
        if sum(d * x * x for d, x in zip(deltas, xs)) != k:
            continue
        wt = 1.0
        for x in xs:
            wt *= weight_fourier(w, scale * x)
        total += wt
    return total


def test_dual_form_construction():
    form = DiagonalForm((1, 2, 3), 5)
    mod = PrimePowerModulus(7, 2)
    dual = DualForm.from_form(form, mod)
    assert dual.deltas == (30, 15, 10)
    delta_next = 6
    assert dual.Lambda * delta_next % mod.q == 1
    with pytest.raises(ValidationError):
        DualForm.from_form(DiagonalForm((1, 2)), mod)


def test_tau_examples():
    mod = PrimePowerModulus(3, 5)
    dual = DualForm((2, 3))
    # k below the minimum of an all-positive form has no representations
    assert tau_n(1, dual, 0, G, mod, 10.0) == 0.0
    d2 = DualForm((1, 1))
    wv = weight_fourier(G, 10.0 / mod.q)
    assert tau_n(2, d2, 0, G, mod, 10.0) == pytest.approx(4 * wv * wv)
    d4 = DualForm((1, 1, 1, 1))
    assert tau_n(4, d4, 0, G, mod, 10.0) == pytest.approx(16 * wv**4)


def test_tau_rejects_indefinite():
    with pytest.raises(IndefiniteForm):
        tau_n(5, DualForm((1, -1)), 0, G, PrimePowerModulus(3, 3), 5.0)


def test_tau_matches_box_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        p = int(rng.choice([3, 5]))
        deltas = tuple(int(d) for d in rng.integers(1, 6, n) if True)
        if any(d % p == 0 for d in deltas):
            continue
        k = int(rng.integers(1, 200))
        r = int(rng.integers(0, 2))
        N = float(rng.uniform(3, 20))
        mod = PrimePowerModulus(p, 4)
        got = tau_n(k, DualForm(deltas), r, G, mod, N)
        want = tau_oracle(k, deltas, r, G, mod, N, p)
        assert got == pytest.approx(want, abs=1e-10), (deltas, k, r)


def test_singular_coefficient_q1():
    for p, n in [(3, 4), (5, 4), (3, 6)]:
        dual = DualForm((1,) * n)
        assert singular_coefficient(1, 7, dual, p) == pytest.approx(((p - 1) / p) ** n)


def test_singular_coefficient_periodic_in_k():
    dual = DualForm((1, 1, 1, 1))
    for q in (2, 3, 5, 8):
        a = singular_coefficient(q, 3, dual, 3)
        b = singular_coefficient(q, 3 + q, dual, 3)
        assert a == pytest.approx(b, abs=1e-12)


def test_singular_coefficient_matches_naive():
    dual4 = DualForm((1, 1, 1, 1))
    for q in (1, 2, 3, 4, 5):
        got = singular_coefficient(q, 1, dual4, 3)
        want = singular_coefficient_naive(q, 1, dual4, 3)
        assert got == pytest.approx(want, abs=1e-9), q
    dual6 = DualForm((1, 2, 1, 1, 2, 1))
    for q in (1, 2):
        got = singular_coefficient(q, 2, dual6, 3)
        want = singular_coefficient_naive(q, 2, dual6, 3)
        assert got == pytest.approx(want, abs=1e-9)


def prime_powers(q_max):
    """q = 1 and the prime powers up to q_max, by trial division."""
    def is_prime_power(q):
        d = next(d for d in range(2, q + 1) if q % d == 0)
        while q % d == 0:
            q //= d
        return q == 1

    return [1] + [q for q in range(2, q_max + 1) if is_prime_power(q)]


def test_phase_table_cache_stays_within_its_byte_bound():
    cache = representations._PHASE_TABLES
    dual = DualForm((1, 1, 1, 1))
    # every table of a q <= 100 series survives a second one (the same objects
    # come back), and tables exist at q = 1 and the prime powers only
    cache.tables.clear()
    cache.nbytes = 0
    singular_series(1, dual, 3, 100)
    assert {key[0] for key in cache.tables} == set(prime_powers(100))
    tables = {q: representations._coefficient_phase_table(q, 3, dual.deltas) for q in prime_powers(100)}
    singular_series(2, dual, 3, 100)
    assert all(representations._coefficient_phase_table(q, 3, dual.deltas) is t for q, t in tables.items())
    # a long series leaves at most the bound behind (its prime-power tables take ~13 MiB);
    # 1999 is the last prime power it evaluates
    singular_series(1, dual, 3, 2000)
    assert 0 < cache.nbytes <= representations._PHASE_TABLE_BYTES
    assert cache.nbytes == sum(t.nbytes for t in cache.tables.values())
    assert (1999, 3, dual.deltas) in cache.tables
    assert {key[0] for key in cache.tables} <= set(prime_powers(2000))
    # a table above the bound is returned but not kept
    held = dict(cache.tables)
    big = cache.max_bytes // 16 + 1
    table = cache.get((big, 3, dual.deltas), lambda q, p, deltas: np.zeros(q, dtype=complex))
    assert len(table) == big and list(cache.tables) == list(held)


def test_series_share_square_sums_across_forms_and_unit_roots_across_k():
    cache = representations._PHASE_TABLES
    cache.tables.clear()
    cache.nbytes = 0
    numpy = representations.np
    with mock.patch.object(numpy.fft, "ifft", wraps=numpy.fft.ifft) as ifft, \
            mock.patch.object(numpy, "exp", wraps=numpy.exp) as exp:
        for n in (4, 6):
            for k in (1, 2, 3):
                singular_series(k, DualForm((1,) * n), 5, 30)
    # one square-sum DFT per prime power q (and q = 1) for both forms, one
    # table of e_q(-m) per such q for every k: 17 moduli up to 30
    assert len(prime_powers(30)) == 17
    assert ifft.call_count == 17
    assert exp.call_count == 17


def test_singular_series_consistency_n6():
    dual = DualForm((1, 1, 1, 1, 1, 1))
    sums = {}
    for q_max in (20, 40, 80):
        data = singular_series(2, dual, 5, q_max)
        sums[q_max] = data
    assert abs(sums[20].partial_sum - sums[40].partial_sum) < sums[20].tail_bound
    assert abs(sums[40].partial_sum - sums[80].partial_sum) < sums[40].tail_bound


def test_singular_series_periodicity_fixture():
    dual = DualForm((1, 1, 1, 1))
    data = singular_series(1, dual, 3, 50)
    assert data.partial_sum == pytest.approx(SINGULAR_FIXTURE, rel=1e-12)
    lcm = math.lcm(*range(1, 11))
    small = singular_series(1, dual, 3, 10)
    shifted = singular_series(1 + lcm, dual, 3, 10)
    assert small.partial_sum == pytest.approx(shifted.partial_sum, abs=1e-12)
    assert small.coefficients == pytest.approx(shifted.coefficients)


def test_singular_series_needs_four_variables():
    with pytest.raises(ValidationError):
        singular_series(1, DualForm((1, 1, 1)), 3, 10)


def test_singular_integral_gaussian_radial_oracle():
    """n=2, unit coefficients: d/dt of the ball integral is available in closed form."""
    dual = DualForm((1, 1))
    for t in (0.5, 1.0, 3.0):
        got = singular_integral(t, 1.0, dual, G)
        want = math.pi * math.exp(-math.pi * t)
        assert got == pytest.approx(want, rel=1e-6)


def test_singular_integral_finite_difference_oracle():
    """Generic n=2 dual checked against (V(t+h) - V(t-h)) / 2h by quadrature."""
    from scipy.integrate import quad

    dual = DualForm((1, 2))
    t = 1.3

    def ball_integral(level):
        # area integral of the weight over {x^2 + 2 y^2 <= level} in polar form
        def ring(rho):
            def integrand(theta):
                x = rho * math.cos(theta)
                y = rho * math.sin(theta) / math.sqrt(2.0)
                return math.exp(-math.pi * (x * x + y * y))

            val = quad(integrand, 0.0, 2.0 * math.pi, epsabs=1e-12)[0]
            return val * rho / math.sqrt(2.0)

        return quad(ring, 0.0, math.sqrt(level), epsabs=1e-12)[0]

    h = t * 1e-3
    fd = (ball_integral(t + h) - ball_integral(t - h)) / (2 * h)
    got = singular_integral(t, 1.0, dual, G)
    assert got == pytest.approx(fd, rel=1e-4)


def test_singular_integral_outside_bump_support_is_zero():
    b = bump_pair_weight()
    # beyond sum of Delta_j * support^2 the shell misses the weight entirely;
    # the bump's transform is supported on |y| < 2
    for deltas in [(1, 1, 1, 1), (1, 2, 3), (1, 2, 3, 5, 7), (2, 3, 5, 7, 11, 13)]:
        edge = 4.0 * sum(deltas)
        for t in (edge * 1.001, edge * 3.0):
            assert singular_integral(t, 1.0, DualForm(deltas), b) == 0.0, (deltas, t)
    # near the edge the density is ~1e-40 of its envelope, below what any rule
    # resolves relatively; both rules agree to the envelope's rounding at once
    for deltas in [(1, 1, 1, 1), (1, 2, 3)]:
        assert 0.0 <= singular_integral(3.6 * sum(deltas), 1.0, DualForm(deltas), b) < 1e-25


def test_singular_integral_bounded_on_log_grid():
    dual = DualForm((1, 1, 1, 1))
    recorded = 0.0
    for t in np.geomspace(1.0, 1e4, 9):
        val = singular_integral(float(t), 1.0, dual, G, rel_tol=5e-3)
        assert val >= 0.0
        recorded = max(recorded, val)
    assert recorded < 10.0


def test_singular_integral_deterministic():
    """The same call gives the same bits, also after the node tables of
    larger rules were built in between."""
    for deltas, w in [((1, 1, 2), G), ((1, 2, 3, 5, 7), sharp_cutoff_weight())]:
        dual = DualForm(deltas)
        a = singular_integral(2.0, 1.0, dual, w)
        singular_integral(2.0, 1.0, dual, w, rel_tol=1e-13)
        assert singular_integral(2.0, 1.0, dual, w) == a


def test_quadruple_count_examples():
    assert quadruple_count((1, 1, 1, 1), 4, 3**4, 1) == 16
    # no quadruple of squares bounded by M=1 sums to 40 mod 81
    assert quadruple_count((1, 1, 1, 1), 40, 3**4, 1) == 0
    with pytest.raises(HypothesisViolated):
        quadruple_count((1, 1, 1, 1), 0, 100, 4)
    with pytest.raises(CoprimalityViolated):
        quadruple_count((3, 1, 1, 1), 0, 3**9, 5, p=3)


def test_quadruple_count_matches_exhaustive():
    rng = np.random.default_rng(8)
    for M in (3, 5, 8, 12):
        c = 3 ** (1 + math.ceil(math.log(8 * M * M) / math.log(3)))
        for _ in range(5):
            alphas = tuple(int(a) for a in rng.integers(1, 20, 4))
            if any(a % 3 == 0 for a in alphas):
                continue
            b = int(rng.integers(0, c))
            got = quadruple_count(alphas, b, c, M, p=3)
            ls = np.arange(-M, M + 1)
            grids = np.meshgrid(*([ls] * 4), indexing="ij")
            vals = sum(a * g * g for a, g in zip(alphas, grids))
            want = int(((vals - b) % c == 0).sum())
            assert got == want, (alphas, b, c, M)


def test_representation_ratio_against_local_global_prediction():
    """Aggregate tau over a dyadic window against the product of local densities
    and the shell density; the loosest sanity check in the suite."""
    dual = DualForm((1, 1, 1, 1))
    p = 3
    for P in (10.0, 20.0):
        m = 12
        mod = PrimePowerModulus(3, m)
        N = mod.q / P
        num = 0.0
        den = 0.0
        for k in range(int(P * P), 2 * int(P * P) + 1):
            if k % 3 == 0:
                continue
            num += tau_n(k, dual, 0, G, mod, N)
            sig = singular_series(k, dual, p, q_max=40)
            den += singular_integral(k, P, dual, G) * sig.partial_sum * P * P
        assert 0.5 <= num / den <= 1.5, (P, num, den)


# ---------------------------------------------------------------------------
# The scalar kernels the array code replaced, kept as oracles.


def tau_cone_descent_oracle(k, deltas, r, w, modulus, N):
    """Cone descent over coordinates sorted by decreasing coefficient, signs
    folded in as a factor 2 per coordinate.  Products and sum are exact
    Fractions of the float weights, rounded once, so the oracle stays correctly
    rounded where tau underflows into subnormals (float spacing 5e-324 there)."""
    p, q = modulus.p, modulus.q
    deltas = sorted(deltas, reverse=True)
    n = len(deltas)
    min_tail = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        min_tail[j] = min_tail[j + 1] + deltas[j]
    if k < min_tail[0]:
        return 0.0
    v_max = math.isqrt(k // deltas[-1])
    axis_weight = [Fraction(x) for x in weight_fourier_array(w, (p**r) * N / q * np.arange(v_max + 1)).tolist()]

    def descend(j, remaining, weight_acc):
        d = deltas[j]
        if j == n - 1:
            if remaining % d != 0:
                return 0.0
            quot = remaining // d
            v = math.isqrt(quot)
            if v * v != quot or v == 0 or v % p == 0:
                return 0
            return weight_acc * 2 * axis_weight[v]
        total = Fraction(0)
        v = 1
        while d * v * v + min_tail[j + 1] <= remaining:
            if v % p != 0:
                total += descend(j + 1, remaining - d * v * v, weight_acc * 2 * axis_weight[v])
            v += 1
        return total

    return float(descend(0, k, Fraction(1)))


def singular_coefficient_loop_oracle(q, k, deltas, p):
    """Per-unit loop with one phase-array sum per distinct key a * Delta_j mod q."""
    xs = np.arange(p * q, dtype=np.int64)
    xs = xs[xs % p != 0]
    sq = (xs * xs) % q
    phases = np.exp(2j * np.pi * np.arange(q) / q)
    per_coeff = {}
    total = 0.0 + 0.0j
    for a in range(1, q + 1):
        if math.gcd(a, q) != 1:
            continue
        prod = 1.0 + 0.0j
        for d in deltas:
            key = (a * (d % q)) % q
            if key not in per_coeff:
                per_coeff[key] = complex(phases[(key * sq) % q].sum())
            prod *= per_coeff[key]
        total += prod * np.exp(-2j * np.pi * ((a * k) % q) / q)
    return float(total.real / (p * q) ** len(deltas))


def quadruple_histogram_oracle(alphas, b, c, M):
    """Two length-c pair-sum histograms over -M..M, correlated over every residue."""
    ls = np.arange(-M, M + 1, dtype=np.int64)
    sq = [(a % c) * ((ls * ls) % c) % c for a in alphas]
    h1 = np.bincount(((sq[0][:, None] + sq[1][None, :]) % c).ravel(), minlength=c)
    h2 = np.bincount(((sq[2][:, None] + sq[3][None, :]) % c).ravel(), minlength=c)
    return int((h1 * h2[(b - np.arange(c)) % c]).sum())


def quadruple_counter_oracle(alphas, b, c, M):
    """Pair sums over -M..M in Python ints, matched through two Counters."""
    ls = range(-M, M + 1)
    left = Counter((alphas[0] * x * x + alphas[1] * y * y) % c for x in ls for y in ls)
    right = Counter((alphas[2] * x * x + alphas[3] * y * y) % c for x in ls for y in ls)
    return sum(count * right[(b - key) % c] for key, count in left.items())


@st.composite
def _quadruple_cases(draw):
    M = draw(st.integers(1, 15))
    c = 3 ** draw(st.integers(math.ceil(math.log(8 * M * M + 1, 3)), 9))
    alphas = tuple(draw(st.integers(1, 3 * c).filter(lambda a: a % 3)) for _ in range(4))
    return alphas, draw(st.integers(-c, 2 * c)), c, M


@settings(max_examples=150, deadline=None)
@given(_quadruple_cases())
def test_quadruple_count_matches_histogram_oracle(case):
    alphas, b, c, M = case
    assert quadruple_count(alphas, b, c, M, p=3) == quadruple_histogram_oracle(alphas, b, c, M)


@pytest.mark.parametrize("e", [39, 41])
def test_quadruple_count_exact_beyond_int64(e):
    """At c = 3^39 products of residues leave int64, at 3^41 c itself does;
    coefficients near c make every alpha l^2 wrap."""
    c = 3**e
    for alphas in [(c - 1, c - 2, 1, 2), (c - 1, c - 5, c - 7, 4), (c - 2, 1, c - 4, 7)]:
        for b in (0, 4, c - 3, 3 * c + 12):
            want = quadruple_counter_oracle(alphas, b, c, 25)
            assert quadruple_count(alphas, b, c, 25, p=3) == want, (alphas, b, e)
    assert quadruple_count((c - 1, c - 2, 1, 2), 0, c, 25) > 0


def test_quadruple_count_large_box_runs_at_default_budget():
    """The old length-c correlation charged 2c and refused this box; the pair
    tables cost O(M^2 log M) whatever c is."""
    alphas, b, c = (52, 61, 77, 95), 1234567, 3**17
    assert quadruple_count(alphas, b, c, 1000, p=3) == quadruple_counter_oracle(alphas, b, c, 1000)


@st.composite
def _tau_cases(draw):
    n = draw(st.integers(1, 6))
    p = draw(st.sampled_from([3, 5, 7]))
    deltas = tuple(draw(st.integers(1, 9).filter(lambda d: d % p)) for _ in range(n))
    k = draw(st.integers(0, 120 if n >= 5 else 600))
    w = draw(st.sampled_from([gaussian_weight(), gaussian_weight(0.7), bump_pair_weight(), bump_pair_weight(0.5)]))
    return k, deltas, draw(st.integers(0, 3)), w, PrimePowerModulus(p, 4), draw(st.floats(1.0, 40.0))


# Below the smallest normal float (2^-1022) floats are ulp(0.0) = 2^-1074
# apart whatever their size, so each term that tau_n rounds there is off by up
# to ulp(0.0)/2 absolute and no relative bound holds: the @example's
# tau = 8.07e-315 is 1 ulp, 6e-10 relative, from the correctly rounded oracle.
# Sums of subnormals are exact, so the error is those per-term roundings
# added up, and they take both signs: the worst of ~3,000 subnormal cases
# drawn from this strategy's ranges (up to 153 terms) was 4 ulps.  Twice that
# is the floor; it is below 1e-12 times every normal float, so it only acts
# on subnormal tau.
TAU_ABS_FLOOR = 8 * math.ulp(0.0)


@settings(max_examples=200, deadline=None)
@given(_tau_cases())
@example((396, (1, 3, 3, 3), 3, gaussian_weight(0.7), PrimePowerModulus(5, 4), 9.25))
def test_tau_matches_cone_descent_oracle(case):
    k, deltas, r, w, mod, N = case
    got = tau_n(k, DualForm(deltas), r, w, mod, N)
    want = tau_cone_descent_oracle(k, deltas, r, w, mod, N)
    assert abs(got - want) <= max(1e-12 * abs(want), TAU_ABS_FLOOR), (k, deltas, r, w, N)


def test_tau_exact_beyond_int64():
    """Coefficients and k beyond int64: the partial sums are Python ints."""
    mod = PrimePowerModulus(3, 5)
    big = 10**19 + 1  # not divisible by 3
    for deltas, k in [((big, big), 5 * big), ((big, 2 * big, big), 10 * big), ((big, big + 3), 5 * big + 12)]:
        got = tau_n(k, DualForm(deltas), 0, G, mod, 10.0)
        want = tau_cone_descent_oracle(k, deltas, 0, G, mod, 10.0)
        assert want > 0
        assert got == pytest.approx(want, rel=1e-12), (deltas, k)
    assert tau_n(5 * big + 1, DualForm((big, big)), 0, G, mod, 10.0) == 0.0


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 200),
    st.integers(0, 10**6),
    st.sampled_from([3, 5, 7]),
    st.integers(4, 6),
    st.randoms(use_true_random=False),
)
def test_singular_coefficient_matches_loop_oracle(q, k, p, n, rnd):
    deltas = tuple(rnd.choice([d for d in range(1, 3 * p) if d % p]) for _ in range(n))
    got = singular_coefficient(q, k, DualForm(deltas), p)
    assert abs(got - singular_coefficient_loop_oracle(q, k, deltas, p)) <= 1e-12, (q, k, deltas, p)


def quadruple_pair_join_oracle(alphas, b, c, M):
    """The one-shot pair join the blocked count replaced: every (l3, l4) sum
    made distinct with its summed multiplicity, one binary search per
    (l1, l2) pair."""
    ls = np.arange(M + 1, dtype=residue_dtype(c))
    sq = [(a % c) * (ls * ls) % c for a in alphas]
    mult = np.where(ls == 0, 1, 2)
    pair_mult = np.outer(mult, mult).ravel()
    keys, counts = _distinct_keys((sq[2][:, None] + sq[3]).ravel() % c, pair_mult)
    want = (b % c - sq[0][:, None] - sq[1]).ravel() % c
    return int(_sorted_join(want, pair_mult, keys, counts.astype(np.int64)))


def quadruple_brute_force(alphas, b, c, M):
    """Every l in [-M, M]^4, one Python-int sum each."""
    cols = [[a * l * l for l in range(-M, M + 1)] for a in alphas]
    return sum((sum(v) - b) % c == 0 for v in itertools.product(*cols))


@st.composite
def _quadruple_blocks(draw):
    M = draw(st.integers(1, 60))
    # any modulus above 8 M^2, often with c^2 >= 2^63 (Python-int residues)
    c = draw(st.integers(8 * M * M + 1, 50 * M * M) | st.integers(3 * 10**9, 10**25))
    alphas = tuple(draw(st.integers(-3 * c, 3 * c)) for _ in range(4))
    return alphas, draw(st.integers(-2 * c, 2 * c)), c, M


@settings(max_examples=150, deadline=None)
@given(_quadruple_blocks())
def test_blocked_quadruple_count_equals_pair_join_oracle(case):
    alphas, b, c, M = case
    got = quadruple_count(alphas, b, c, M)
    assert got == quadruple_pair_join_oracle(alphas, b, c, M), case
    if M <= 8:
        assert got == quadruple_brute_force(alphas, b, c, M), case


def test_quadruple_count_working_set(traced_peak):
    """The scan-and-series benchmark's box: M = 300 at c = 3^14.  The one-shot
    join held about six pair-sized arrays (5.6 MiB)."""
    alphas, c, M = (52, 61, 77, 95), 3**14, 300
    got, mib = traced_peak(quadruple_count, alphas, 1234567, c, M, p=3)
    assert got == quadruple_pair_join_oracle(alphas, 1234567, c, M)
    assert mib <= 2.5


def singular_integral_monte_carlo(k, P, dual, w, points, seed):
    """The seeded Monte Carlo estimator the quadrature replaced: the co-area
    form (1/2) t^(n/2-1) prod(Delta_j^(-1/2)) times the sphere area times the
    mean over uniform points theta of the unit sphere of prod_j
    fhat(sqrt(t) theta_j / sqrt(Delta_j)).  Returns (estimate, standard error)."""
    n = dual.n
    t = k / (P * P)
    inv_sqrt = 1.0 / np.sqrt(np.array(dual.deltas, dtype=float))
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    front = 0.5 * t ** (n / 2.0 - 1.0) * float(np.prod(inv_sqrt)) * area
    g = np.random.default_rng(seed).standard_normal((points, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    coords = math.sqrt(t) * g * inv_sqrt
    vals = np.ones(points)
    for j in range(n):
        vals *= weight_fourier_array(w, coords[:, j])
    return front * vals.mean(), front * vals.std() / math.sqrt(points)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize(
    "w", [gaussian_weight(), gaussian_weight(0.7), sharp_cutoff_weight(), bump_pair_weight()],
    ids=["gauss", "gauss0.7", "sharp", "bump"],
)
def test_blocked_singular_integral_is_bit_identical_to_one_batch(n, w, monkeypatch):
    """The pair densities are evaluated a block of levels at a time; one level
    per block and all levels in one block give the same bits."""
    dual = DualForm((1, 2, 3, 5, 7, 11)[:n])
    for k in (0.6, 1.3, 2.2)[:1 if w.kind == "bump_pair" else 3]:
        monkeypatch.setattr(representations, "_PAIR_BLOCK", 1)
        got = singular_integral(k, 1.0, dual, w)
        monkeypatch.setattr(representations, "_PAIR_BLOCK", 1 << 30)
        want = singular_integral(k, 1.0, dual, w)
        assert got == want and got != 0.0, (n, w, k)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize(
    "w", [gaussian_weight(), sharp_cutoff_weight(), bump_pair_weight()], ids=["gauss", "sharp", "bump"]
)
def test_singular_integral_agrees_with_monte_carlo_oracle(n, w):
    """Unequal Delta, so no closed form; the seeded estimator (fewer points
    for the bump, whose transform costs ~4 us a point) must lie within 4 of
    its standard errors."""
    dual = DualForm((1, 2, 3, 5, 7, 11)[:n])
    got = singular_integral(1.3, 1.0, dual, w)
    mc, stderr = singular_integral_monte_carlo(1.3, 1.0, dual, w, 20_000 if w.kind == "bump_pair" else 200_000, seed=n)
    assert abs(got - mc) <= 4.0 * stderr, (n, w, got, mc, stderr)


@pytest.mark.parametrize("n", range(1, 9))
def test_singular_integral_gaussian_closed_form(n):
    """For a Gaussian of scale sigma and equal Delta = delta,
    J(t) = sigma^n e^(-pi sigma^2 t / delta) pi^(n/2) t^(n/2-1) / (Gamma(n/2) delta^(n/2))."""
    for sigma, delta, t in itertools.product((1.0, 0.7), (1, 3), (0.05, 0.4, 1.1, 6.0)):
        got = singular_integral(t, 1.0, DualForm((delta,) * n), gaussian_weight(sigma))
        want = (sigma**n * math.exp(-math.pi * sigma**2 * t / delta) * math.pi ** (n / 2)
                * t ** (n / 2 - 1) / (math.gamma(n / 2) * delta ** (n / 2)))
        assert abs(got - want) <= 1e-12 * want, (n, sigma, delta, t)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_bump_singular_integral_converges_under_refinement(n):
    """The 20- and 40-node rules agree to 1e-9 (the bump's transform is smooth
    but compactly supported, so convergence is fast but not geometric)."""
    deltas = (1, 2, 3, 5, 7, 11)[:n]
    coarse = representations._shell_density(1.3, deltas, bump_pair_weight(), 20)
    fine = representations._shell_density(1.3, deltas, bump_pair_weight(), 40)
    assert abs(fine - coarse) <= 1e-9 * abs(fine)


def test_singular_integral_rel_tol_and_rule_limit(monkeypatch):
    dual = DualForm((1, 2, 3))
    for rel_tol in (0.0, 1.0, -1e-3, 2.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="rel_tol"):
            singular_integral(1.0, 1.0, dual, G, rel_tol=rel_tol)
    with pytest.raises(TypeError):
        singular_integral(1.0, 1.0, dual, G, seed=0)
    # 17 coordinates need 17 * 16^5 weight evaluations for the first rule
    with pytest.raises(TruncationInsufficient, match="16-node rule"):
        singular_integral(1.0, 1.0, DualForm((1,) * 17), G)
    # halfway to the edge of the bump's support the 16- and 32-node rules
    # differ by ~4e-4; with the limit at the 32-node rule that is final
    dual = DualForm((1, 1, 1, 1))
    assert singular_integral(8.0, 1.0, dual, bump_pair_weight(), rel_tol=1e-3) > 0.0
    monkeypatch.setattr(representations, "_MAX_RULE_EVALS", representations._rule_evals(4, 32))
    with pytest.raises(TruncationInsufficient, match="64-node rule"):
        singular_integral(8.0, 1.0, dual, bump_pair_weight(), rel_tol=1e-6)


def test_library_never_imports_numpy_random():
    """The quadrature left nothing to seed; numpy.random costs ~17 ms to import."""
    for path in pathlib.Path(representations.__file__).parent.glob("*.py"):
        assert not re.search(r"np\.random|numpy\.random|default_rng", path.read_text()), path.name


def test_singular_integral_working_set(traced_peak):
    """The six-variable Gaussian integral of the scan-and-series benchmark; the
    Monte Carlo loop held 5.6 MiB for a whole batch drawn at once."""
    dual = DualForm((1,) * 6)
    singular_integral(1.1, 1.0, dual, G)  # build the node tables
    got, mib = traced_peak(singular_integral, 1.1, 1.0, dual, G)
    assert got == singular_integral(1.1, 1.0, dual, G)
    assert got == pytest.approx(math.exp(-math.pi * 1.1) * math.pi**3 * 1.1**2 / 2.0, rel=1e-12)
    assert mib <= 1.5


def test_singular_series_charges_the_whole_series_up_front():
    """The charge is what runs: the direct cost at q = 1 and at each prime
    power, which are the only moduli evaluated, and a share per q for the
    split and the products; it is taken before any coefficient runs.  A
    charge per q alone let q_max = 10,000 run for ~19 s under the default
    budget, and a q_max far past the budget refuses before the split exists."""

    def cost(q_max, p, n):
        return representations._series_cost(prime_powers(q_max), q_max, p, n)

    for q_max, p, n, k in [(1, 3, 4, 1), (2, 5, 6, 3), (100, 3, 4, 2), (1025, 7, 5, 11)]:
        dual = DualForm((1,) * n)
        with mock.patch.object(representations, "_coefficient", wraps=representations._coefficient) as coeff, \
                mock.patch.object(representations, "charge", wraps=representations.charge) as charged:
            singular_series(k, dual, p, q_max)
        assert [c.args[0] for c in coeff.call_args_list] == prime_powers(q_max)
        assert charged.call_args.args[0] == cost(q_max, p, n) == (
            sum(representations._coefficient_cost(q, p, n) for q in prime_powers(q_max))
            + representations._SPLIT_OPS * q_max)
    dual = DualForm((1, 1, 1, 1))
    # 2963 is prime, so the charge steps there
    assert cost(2962, 3, 4) <= 10**8 < cost(2963, 3, 4)
    with mock.patch.object(representations, "_split", wraps=representations._split) as split:
        for q_max in (2963, 10_000, 10**30):
            with pytest.raises(BudgetExceeded, match="singular series"):
                singular_series(1, dual, 3, q_max)
    assert [c.args[0] for c in split.call_args_list] == [2963, 10_000]
    with pytest.raises(BudgetExceeded, match="singular series"):
        singular_series(1, dual, 3, 100, budget=cost(100, 3, 4) - 1)
    with pytest.raises(CoprimalityViolated):
        singular_series(1, DualForm((1, 3, 1, 1)), 3, 5)
    with pytest.raises(ValidationError):
        singular_series(1, dual, 9, 5)


def test_singular_series_coefficients_equal_singular_coefficient():
    for deltas, p, k in [((1, 1, 1, 1), 3, 1), ((1, 2, 4, 5, 7), 3, 11), ((2, 3, 1, 4, 1, 6), 5, 23)]:
        dual = DualForm(deltas)
        data = singular_series(k, dual, p, 630)
        # 210 = 2 3 5 7, 330 = 2 3 5 11, 420 = 4 3 5 7, 630 = 2 9 5 7: four prime-power factors, p among them
        qs = [*range(1, 61), 210, 330, 420, 630]
        assert {q: data.coefficients[q] for q in qs} == {q: singular_coefficient(q, k, dual, p) for q in qs}


@st.composite
def _coprime_moduli(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    deltas = tuple(draw(st.integers(1, 4 * p).filter(lambda d: d % p)) for _ in range(draw(st.integers(4, 6))))
    q1 = draw(st.integers(1, 75))
    q2 = draw(st.integers(1, 150 // q1).filter(lambda q: math.gcd(q, q1) == 1))
    return q1, q2, draw(st.integers(-10**6, 10**6)), deltas, p


@settings(max_examples=200, deadline=None)
@given(_coprime_moduli())
def test_euler_product_matches_direct_coefficient(case):
    """a_{q1 q2} = a_{q1} a_{q2} (p/(p-1))^n for coprime q1, q2 (p | q allowed),
    and the factorized coefficient is the direct phase-table sum to 1e-15."""
    q1, q2, k, deltas, p = case
    direct = representations._coefficient(q1 * q2, k, deltas, p)
    product = (representations._coefficient(q1, k, deltas, p) * representations._coefficient(q2, k, deltas, p)
               * (p / (p - 1)) ** len(deltas))
    assert abs(product - direct) <= 1e-15, case
    assert abs(singular_coefficient(q1 * q2, k, DualForm(deltas), p) - direct) <= 1e-15, case


def mpmath_coefficient(q, k, deltas, p):
    """a_q(k) at 40 digits: the square histogram over x mod pq (p not dividing
    x) against the q-th roots of unity, for every unit a mod q."""
    with mpmath.workdps(40):
        roots = [mpmath.expjpi(mpmath.mpf(2 * j) / q) for j in range(q)]
        hist = Counter(x * x % q for x in range(p * q) if x % p)
        total = mpmath.mpc(0)
        for a in range(q):
            if math.gcd(a, q) == 1:
                term = roots[-a * k % q]
                for d in deltas:
                    term *= sum(c * roots[a * d * r % q] for r, c in hist.items())
                total += term
        return total.real / mpmath.mpf(p * q) ** len(deltas)


def test_readme_series_is_no_less_accurate_than_the_direct_sums():
    """The README example: the worst coefficient error against 40 digits is
    2.2e-17 for the Euler product and 6.6e-17 for the per-q direct sums it
    replaced, and the partial sum is within 1e-16."""
    deltas = (1, 1, 1, 1)
    data = singular_series(1, DualForm(deltas), 3, 50)
    exact = {q: mpmath_coefficient(q, 1, deltas, 3) for q in range(1, 51)}
    worst = max(abs(data.coefficients[q] - exact[q]) for q in exact)
    worst_direct = max(abs(representations._coefficient(q, 1, deltas, 3) - exact[q]) for q in exact)
    assert worst <= worst_direct
    with mpmath.workdps(40):
        assert abs(data.partial_sum - mpmath.fsum(exact.values())) <= 1e-16


def test_dual_form_and_series_arguments_are_integers():
    """A float Delta used to be truncated (1.5 became 1), and a float q_max
    raised AttributeError."""
    dual = DualForm((np.int64(1), np.int32(1), 1, 1))
    assert dual == DualForm((1, 1, 1, 1)) and all(type(d) is int for d in dual.deltas)
    for deltas in [(1.5, 1, 1, 1), ("1", 1, 1, 1), (1.0, 1, 1, 1)]:
        with pytest.raises(ValidationError, match="Delta must be an integer"):
            DualForm(deltas)
    want = singular_series(1, dual, 3, 10)
    got = singular_series(np.int64(1), dual, np.int64(3), np.int64(10))
    assert (got.coefficients, got.partial_sum) == (want.coefficients, want.partial_sum)
    assert all(type(q) is int for q in got.coefficients)
    for k, q_max in [(1, 10.5), (1, 10.0), (1, "10"), (1.5, 10), ("1", 10)]:
        with pytest.raises(ValidationError, match="must be an integer"):
            singular_series(k, dual, 3, q_max)
    with pytest.raises(ValidationError, match="must be an integer"):
        singular_coefficient(10.0, 1, dual, 3)
