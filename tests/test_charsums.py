import cmath
import copy
import gc
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruence_lab import charsums, modmath
from congruence_lab.charsums import (
    ExactCharSum,
    F_bruteforce,
    F_closed,
    cochrane_vanishes,
    KloostermanClosedForm,
    dual_kernel_level,
    gauss_sum_bruteforce,
    gauss_sum_closed,
    kloosterman_bruteforce,
    kloosterman_closed,
    restricted_sum_bruteforce,
    salie_bruteforce,
    salie_closed,
)
from congruence_lab.counting import count_weighted_spectral, gaussian_weight
from congruence_lab.densities import DiagonalForm, count_B_m
from congruence_lab.errors import BudgetExceeded, UnsupportedCase, ValidationError
from congruence_lab.modmath import (
    TWO_PI,
    PrimePowerModulus,
    Residue,
    additive_character,
    epsilon_c,
    invmod,
    jacobi_symbol,
    prime_tables,
    sqrt_classes_mod_prime_power,
)

RNG = np.random.default_rng(20240817)


def tol(c):
    return 1e-8 * max(1.0, math.sqrt(c))


def test_gauss_brute_examples():
    assert abs(gauss_sum_bruteforce(1, 0, 5) - math.sqrt(5)) < 1e-9
    direct = 1 + 2 * cmath.exp(2j * math.pi * 2 / 3)
    assert abs(gauss_sum_bruteforce(2, 0, 3) - direct) < 1e-12
    assert abs(direct - (-1j * math.sqrt(3))) < 1e-12
    for c in (1, 2, 9, 40):
        assert abs(gauss_sum_bruteforce(0, 0, c) - c) < 1e-9


def test_gauss_closed_examples():
    assert gauss_sum_closed(3, 1, PrimePowerModulus(3, 2)).is_zero
    cs = gauss_sum_closed(1, 0, PrimePowerModulus(5, 1))
    assert (cs.sign, cs.eps, cs.sqrt_arg, cs.phase_num) == (1, 1, 5, 0)
    assert abs(cs.to_complex() - gauss_sum_bruteforce(1, 0, 5)) < tol(5)
    cs2 = gauss_sum_closed(2, 0, PrimePowerModulus(3, 1))
    assert (cs2.sign, cs2.eps, cs2.sqrt_arg) == (-1, 1j, 3)
    assert abs(cs2.to_complex() - gauss_sum_bruteforce(2, 0, 3)) < tol(3)


def test_gauss_closed_on_a_numpy_modulus():
    """A numpy p used to reach invmod as np.int64 and raise a bare TypeError."""
    got = gauss_sum_closed(3, 4, PrimePowerModulus(np.int64(5), 3))
    assert got == gauss_sum_closed(3, 4, PrimePowerModulus(5, 3))
    assert abs(got.to_complex() - gauss_sum_bruteforce(3, 4, 125)) < tol(125)


@pytest.mark.parametrize("p,m", [(3, 3), (5, 2), (7, 2)])
def test_gauss_closed_exhaustive(p, m):
    mod = PrimePowerModulus(p, m)
    for a in range(mod.q):
        for b in range(mod.q):
            got = gauss_sum_closed(a, b, mod).to_complex()
            want = gauss_sum_bruteforce(a, b, mod.q)
            assert abs(got - want) <= tol(mod.q), (a, b, mod.q)


def test_gauss_magnitude_bound():
    """|G(a,0,c)| <= 2 sqrt(c) for all a coprime to c, c <= 2000.

    All magnitudes for one modulus come from a single DFT of the
    square-count vector; the DFT table is itself spot-checked against the
    term-by-term sum.
    """
    spot_checked = 0
    for c in range(1, 2001):
        counts = np.zeros(c)
        for n in range(c):
            counts[n * n % c] += 1
        table = np.fft.ifft(counts) * c  # index b holds G(b, 0, c)
        mags = np.abs(table)
        units = np.array([a for a in range(c) if math.gcd(a, c) == 1])
        assert (mags[units] <= 2.0 * math.sqrt(c) + 1e-7).all(), c
        if c % 391 == 0:
            a = int(units[len(units) // 2])
            assert abs(table[a] - gauss_sum_bruteforce(a, 0, c)) < tol(c)
            spot_checked += 1
    assert spot_checked >= 4


def test_kloosterman_brute_examples():
    assert abs(kloosterman_bruteforce(1, 1, 3) - (-1)) < 1e-12
    assert abs(kloosterman_bruteforce(1, 1, 9) - 6 * math.cos(4 * math.pi / 9)) < 1e-12
    for c in (3, 9, 15, 25):
        phi = sum(1 for n in range(c) if math.gcd(n, c) == 1)
        assert abs(kloosterman_bruteforce(0, 0, c) - phi) < 1e-9


def test_salie_brute_examples():
    assert abs(salie_bruteforce(1, 1, 9) - kloosterman_bruteforce(1, 1, 9)) < 1e-12
    for p in (3, 5, 7, 11):
        assert abs(salie_bruteforce(0, 0, p)) < 1e-9
    # two-term direct evaluation at the prime 3
    want = cmath.exp(2j * math.pi * 2 / 3) - cmath.exp(2j * math.pi / 3)
    assert abs(salie_bruteforce(1, 1, 3) - want) < 1e-12
    assert abs(want - (-1j * math.sqrt(3))) < 1e-12


def test_kloosterman_closed_examples():
    m9 = PrimePowerModulus(3, 2)
    got = kloosterman_closed(1, 1, m9)
    assert abs(got.to_complex() - 6 * math.cos(4 * math.pi / 9)) < tol(9)
    assert len(got.terms) == 2
    assert kloosterman_closed(3, 1, m9).is_zero
    assert abs(kloosterman_bruteforce(3, 1, 9)) < 1e-9
    assert jacobi_symbol(2, 5) == -1
    assert kloosterman_closed(2, 1, PrimePowerModulus(5, 2)).is_zero
    assert abs(kloosterman_bruteforce(2, 1, 25)) < 1e-9


def test_salie_closed_examples():
    assert abs(salie_closed(1, 1, PrimePowerModulus(3, 2)).to_complex() - 6 * math.cos(4 * math.pi / 9)) < tol(9)
    assert salie_closed(2, 1, PrimePowerModulus(5, 2)).is_zero
    assert salie_closed(3, 1, PrimePowerModulus(3, 3)).is_zero
    assert abs(salie_bruteforce(3, 1, 27)) < 1e-9


def test_closed_forms_refuse_doubly_divisible():
    with pytest.raises(UnsupportedCase):
        kloosterman_closed(3, 6, PrimePowerModulus(3, 2))
    with pytest.raises(UnsupportedCase):
        salie_closed(5, 10, PrimePowerModulus(5, 2))
    with pytest.raises(UnsupportedCase):
        kloosterman_closed(1, 1, PrimePowerModulus(3, 1))


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2)])
def test_kloosterman_salie_closed_exhaustive(p, m):
    mod = PrimePowerModulus(p, m)
    c = mod.q
    inv = {n: pow(n, -1, c) for n in range(c) if math.gcd(n, c) == 1}
    phases = np.exp(2j * np.pi * np.arange(c) / c)
    jac = [jacobi_symbol(n, c) for n in range(c)]
    for a in range(c):
        for b in range(c):
            if a % p == 0 and b % p == 0:
                continue
            k0 = sum(phases[(a * nb + b * n) % c] for n, nb in inv.items())
            k1 = sum(jac[n] * phases[(a * nb + b * n) % c] for n, nb in inv.items())
            assert abs(kloosterman_closed(a, b, mod).to_complex() - k0) <= tol(c)
            assert abs(salie_closed(a, b, mod).to_complex() - k1) <= tol(c)
            # vanishing exactly when ab is a non-residue or one side is divisible
            if a % p and b % p:
                is_zero = jacobi_symbol(a * b, p) == -1
            else:
                is_zero = True
            assert kloosterman_closed(a, b, mod).is_zero == is_zero
            if is_zero:
                assert abs(k0) < 1e-8


def test_gauss_closed_large_modulus_spot():
    """Closed form against the literal sum near the 10^6 modulus ceiling."""
    for p, m in [(3, 12), (5, 8), (7, 7)]:
        mod = PrimePowerModulus(p, m)
        c = mod.q
        assert c <= 10**6
        for a, b in [(1, 0), (2, 5), (c - 1, 3 * p), (p * 7 + 1, p**2), (p**3, p**3 * 4)]:
            got = gauss_sum_closed(a, b, mod).to_complex()
            want = gauss_sum_bruteforce(a, b, c)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want), math.sqrt(c)), (p, m, a, b)


def test_kloosterman_salie_closed_large_modulus_spot():
    for p, m in [(3, 10), (7, 6)]:
        mod = PrimePowerModulus(p, m)
        c = mod.q
        assert c <= 10**6
        for a, b in [(1, 1), (2, c - 1), (p, 4), (11, p * 9)]:
            k0 = kloosterman_closed(a, b, mod).to_complex()
            want0 = kloosterman_bruteforce(a, b, c)
            assert abs(k0 - want0) <= 1e-9 * max(1.0, math.sqrt(c)), ("K0", p, m, a, b)
            k1 = salie_closed(a, b, mod).to_complex()
            want1 = salie_bruteforce(a, b, c)
            assert abs(k1 - want1) <= 1e-9 * max(1.0, math.sqrt(c)), ("K1", p, m, a, b)


def test_cochrane_examples():
    m9 = PrimePowerModulus(3, 2)
    assert cochrane_vanishes(3, 1, Residue(1, 3), m9)
    assert abs(restricted_sum_bruteforce(3, 1, 1, m9)) < 1e-9
    # critical point: alpha^2 = a/b mod p leaves the test inconclusive
    assert not cochrane_vanishes(1, 1, Residue(1, 3), m9)
    assert cochrane_vanishes(0, 1, Residue(1, 3), m9)
    assert abs(restricted_sum_bruteforce(0, 1, 1, m9)) < 1e-9


def test_cochrane_guarantee_holds_on_grid():
    for p, m in [(3, 2), (3, 3), (5, 2), (7, 2)]:
        mod = PrimePowerModulus(p, m)
        for a in range(0, 3 * p):
            for b in range(0, 3 * p):
                for alpha in range(1, p):
                    if cochrane_vanishes(a, b, Residue(alpha, p), mod):
                        val = restricted_sum_bruteforce(a, b, alpha, mod)
                        assert abs(val) < 1e-8, (p, m, a, b, alpha, val)


def test_F_zero_vector_matches_density_count():
    form = DiagonalForm((1, 1), 2)
    mod = PrimePowerModulus(3, 2)
    val = F_bruteforce((0, 0), form, mod)
    want = mod.q * count_B_m(form, mod)
    assert abs(val - want) < 1e-9 * max(1, want)


def test_F_closed_matches_bruteforce_random():
    for _ in range(80):
        n = int(RNG.integers(2, 4))
        p, m = [(3, 2), (3, 3), (5, 2)][int(RNG.integers(0, 3))]
        mod = PrimePowerModulus(p, m)
        units = [x for x in range(1, 3 * p) if x % p != 0]
        lams = tuple(int(RNG.choice(units)) for _ in range(n))
        lnext = int(RNG.choice(units))
        form = DiagonalForm(lams, lnext)
        r = int(RNG.integers(0, m - 1))
        lvals = [x for x in range(-9, 10) if x % p != 0]
        l = tuple(int(RNG.choice(lvals)) for _ in range(n))
        k = tuple(p**r * x for x in l)
        bf = F_bruteforce(k, form, mod)
        cf = F_closed(r, l, form, mod)
        assert abs(bf - cf) <= 1e-6 * max(1.0, abs(bf)), (form, r, l)


def test_F_closed_vanishes_when_dual_value_divisible():
    # n=2, lambda=(1,1,.), l=(1,2), p=5: A = (1+4)/4 = 0 mod 5
    form = DiagonalForm((1, 1), 1)
    mod = PrimePowerModulus(5, 2)
    assert F_closed(0, (1, 2), form, mod) == 0
    assert abs(F_bruteforce((1, 2), form, mod)) < 1e-8 * mod.q


def test_F_bruteforce_budget():
    form = DiagonalForm((1, 1), 1)
    with pytest.raises(BudgetExceeded):
        F_bruteforce((1, 1), form, PrimePowerModulus(3, 3), budget=100)


def test_F_mixed_valuation_is_zero():
    form = DiagonalForm((1, 2), 1)
    mod = PrimePowerModulus(3, 3)
    assert abs(F_bruteforce((1, 3), form, mod)) < 1e-9 * mod.q
    assert abs(F_bruteforce((9, 1), form, mod)) < 1e-9 * mod.q


ODD_PRIMES_BELOW_50 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


@st.composite
def _prime_power_args(draw):
    """(a, b, p, m) with p an odd prime below 50 and p^m <= 2500."""
    p = draw(st.sampled_from(ODD_PRIMES_BELOW_50))
    m = draw(st.integers(1, int(math.log(2500, p) + 1e-9)))
    q = p**m
    return draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1)), p, m


@settings(max_examples=300, deadline=None)
@given(_prime_power_args())
def test_closed_forms_match_bruteforce_random(args):
    a, b, p, m = args
    mod = PrimePowerModulus(p, m)
    scale = math.sqrt(mod.q)
    closed = gauss_sum_closed(a, b, mod).to_complex()
    assert abs(closed - gauss_sum_bruteforce(a, b, mod.q)) < 1e-9 * max(scale, abs(closed))
    for closed_fn, brute_fn in ((kloosterman_closed, kloosterman_bruteforce), (salie_closed, salie_bruteforce)):
        if m < 2 or (a % p == 0 and b % p == 0):
            with pytest.raises(UnsupportedCase):
                closed_fn(a, b, mod)
            continue
        assert abs(closed_fn(a, b, mod).to_complex() - brute_fn(a, b, mod.q)) < 1e-9 * scale


def _dual_kernel_table_oracle(form, modulus, r):
    """(front, table) with F(p^r l) = front * table[A] at c = p^(m-r), A the
    dual value of l: the whole length-c kernel table, one np.add.at pass of
    the twisted root terms over the units u mod c, as the spectral count once
    built it."""
    p, m, n = modulus.p, modulus.m, form.n
    c = p ** (m - r)
    prod_lam = 1
    for lam in form.lambdas:
        prod_lam = (prod_lam * lam) % c
    eps = epsilon_c(c)
    front = eps**n * float(p) ** (n * (m + r) / 2.0) * jacobi_symbol(prod_lam, c)
    us = np.arange(c, dtype=np.int64)
    us = us[us % p != 0]
    root_terms = np.exp(1j * (TWO_PI * ((2 * us) % c) / c))
    lam_next = form.inhomogeneous_term % c
    scale = eps * math.sqrt(c)
    if n % 2 == 0:
        root_terms *= prime_tables(p).legendre[us % p] ** (m - r)  # (u/c) = (u/p)^(m-r)
    else:
        scale *= jacobi_symbol(-lam_next, c)
    root_sums = np.zeros(c, dtype=np.complex128)
    np.add.at(root_sums, (us * us) % c, root_terms)
    ab = (np.arange(c, dtype=np.int64) * (lam_next * invmod(4, c) % c)) % c
    return front, scale * root_sums[ab]


@pytest.mark.parametrize("c", [9, 27, 81, 25, 125, 49, 343])
@pytest.mark.parametrize("lams, lam_next", [((1, 2), 2), ((2, 1, 4), 11)])
def test_dual_kernel_table_matches_closed_forms(c, lams, lam_next):
    """The level sum against the table of closed kernels over A mod c."""
    p = next(q for q in (3, 5, 7) if c % q == 0)
    s = round(math.log(c, p))
    form = DiagonalForm(lams, lam_next)
    mod = PrimePowerModulus(p, s + 1)
    front = _dual_kernel_table_oracle(form, mod, 1)[0]
    wdist = np.random.default_rng(c + len(lams)).uniform(-1.0, 1.0, c)
    closed_fn = kloosterman_closed if form.n % 2 == 0 else salie_closed
    sub = PrimePowerModulus(p, s)
    inv4 = pow(4, -1, c)
    want = sum(wdist[A] * front * closed_fn(-A * inv4, -lam_next, sub).to_complex() for A in range(c))
    got = dual_kernel_level(form, mod, 1, wdist)
    assert abs(got - want) <= 1e-12 * math.sqrt(c) * np.abs(wdist).sum() * abs(front)


@st.composite
def _dual_kernel_args(draw):
    """(form, modulus, r, l): p in {3, 5, 7, 11, 13}, n = 1..7, p^m <= 3^7, any
    allowed level r and unit coefficients and frequencies."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    m = draw(st.integers(2, int(math.log(3**7, p) + 1e-9)))
    n = draw(st.integers(1, 7))
    unit = st.integers(-3 * p**m, 3 * p**m).filter(lambda x: x % p != 0)
    form = DiagonalForm(tuple(draw(unit) for _ in range(n)), draw(unit))
    l = tuple(draw(unit) for _ in range(n))
    return form, PrimePowerModulus(p, m), draw(st.integers(0, m - 2)), l


@settings(max_examples=300, deadline=None)
@given(_dual_kernel_args())
def test_F_closed_equals_the_table_oracle(args):
    form, mod, r, l = args
    front, table = _dual_kernel_table_oracle(form, mod, r)
    c = mod.p ** (mod.m - r)
    big_a = sum(invmod(lam % c, c) * lj * lj for lj, lam in zip(l, form.lambdas)) % c
    assert F_closed(r, l, form, mod) == complex(front * table[big_a])


def test_F_closed_allocates_nothing_of_length_c(traced_peak):
    form = DiagonalForm((1, 1, 1, 1, 1, 1), 2)
    mod = PrimePowerModulus(5, 8)
    l = (1, 2, 3, 4, 1, 2)
    want = F_closed(0, l, form, mod)  # warms the root and modulus caches
    got, mib = traced_peak(F_closed, 0, l, form, mod)
    assert got == want
    assert mib < 0.5


# Uncached closed forms as they stood before the per-(a, q) caches: the
# oracles the cached paths must reproduce field for field.


def _gauss_closed_reference(a, b, modulus):
    c = modulus.q
    a %= c
    b %= c
    if a == 0:
        if b == 0:
            return ExactCharSum(False, rational_factor=c)
        return ExactCharSum(is_zero=True)
    d = math.gcd(a, c)
    if b % d != 0:
        return ExactCharSum(is_zero=True)
    a1, b1, c1 = a // d, b // d, c // d
    phase = (-invmod(4 * a1, c1) * b1 * b1) % c1
    return ExactCharSum(
        False,
        rational_factor=d,
        sign=jacobi_symbol(a1, c1),
        eps=epsilon_c(c1),
        sqrt_arg=c1,
        phase_num=phase,
        phase_den=c1,
    )


def _kloosterman_salie_reference(a, b, modulus, twisted):
    p, c = modulus.p, modulus.q
    if modulus.m < 2:
        raise UnsupportedCase("needs m >= 2")
    a %= c
    b %= c
    pa, pb = a % p == 0, b % p == 0
    if pa and pb:
        raise UnsupportedCase("p divides both arguments")
    if pa or pb:
        return KloostermanClosedForm(is_zero=True)
    roots = sqrt_classes_mod_prime_power(a * b, modulus).members()
    if not roots:
        return KloostermanClosedForm(is_zero=True)
    v = roots[0]
    eps = epsilon_c(c)
    sign, flip = (jacobi_symbol(b, c), 1) if twisted else (jacobi_symbol(v, c), jacobi_symbol(-1, c))
    terms = ((sign * eps, (2 * v) % c), (sign * (eps * flip), (-2 * v) % c))
    return KloostermanClosedForm(False, p=p, s=modulus.m, terms=terms)


@st.composite
def _gauss_cache_args(draw):
    """(p, m1, m2, a, bs): two exponents of one prime and arguments in
    [-3q, 3q] for the larger q, multiples of p and a = 0 mod q included."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    m1, m2 = draw(st.lists(st.integers(1, 5), min_size=2, max_size=2, unique=True))
    q = p ** max(m1, m2)
    small = p ** min(m1, m2)
    arg = st.one_of(
        st.integers(-3 * q, 3 * q),
        st.integers(-3 * q // p, 3 * q // p).map(lambda x: p * x),
        st.integers(-3, 3).map(lambda x: small * x),
    )
    return p, m1, m2, draw(arg), draw(st.lists(arg, min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(_gauss_cache_args())
def test_cached_gauss_closed_matches_uncached_oracle(args):
    p, m1, m2, a, bs = args
    mod1, mod2 = PrimePowerModulus(p, m1), PrimePowerModulus(p, m2)
    # the same residue of a at both moduli, interleaved, so a key that
    # dropped the modulus would hand one modulus the other's entry
    shared = a % min(mod1.q, mod2.q)
    for b in bs:
        for a_arg, mod in ((a, mod1), (shared, mod2), (shared, mod1), (a, mod2)):
            got = gauss_sum_closed(a_arg, b, mod)
            want = _gauss_closed_reference(a_arg, b, mod)
            assert got == want and repr(got) == repr(want), (a_arg, b, mod)
            assert repr(got.to_complex()) == repr(_exact_to_complex_reference(want))


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 3), (7, 3)])
def test_cached_kloosterman_salie_roots_match_uncached_oracle(p, m):
    mod = PrimePowerModulus(p, m)
    c = mod.q
    for a in range(c):
        for b in range(c):
            if a % p == 0 and b % p == 0:
                continue
            if a % p and b % p:
                _assert_root_part_matches_the_root_classes(a * b % c, mod)
            for twisted, closed_fn in ((False, kloosterman_closed), (True, salie_closed)):
                got = closed_fn(a, b, mod)
                want = _kloosterman_salie_reference(a, b, mod, twisted)
                assert got == want and repr(got) == repr(want), (a, b, c, twisted)
    for closed_fn in (kloosterman_closed, salie_closed):
        with pytest.raises(UnsupportedCase):
            closed_fn(1, 1, PrimePowerModulus(p, 1))
        with pytest.raises(UnsupportedCase):
            closed_fn(p, 2 * p, mod)


def _assert_root_part_matches_the_root_classes(r, mod):
    """_root_part of the unit r holds the first root that sqrt_classes lists,
    and three slots, or is () exactly when r has no root; either is the entry
    that _roots keeps at q^2 + r."""
    members = sqrt_classes_mod_prime_power(r, mod).members()
    root = charsums._root_part(r, mod.p, mod.m)
    assert (root == ()) == (not members), (r, mod)
    if members:
        assert root[0] == members[0] and len(root[1]) == 3, (r, mod)
    assert charsums._roots.get(mod.q**2 + r) is root, (r, mod)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5, 7, 13]), st.integers(1, 8), st.data())
def test_root_part_matches_the_root_classes_above_the_shared_limit_too(p, m, data):
    mod = PrimePowerModulus(p, m)
    r = data.draw(st.integers(1, mod.q - 1).filter(lambda x: x % p), label="r")
    _assert_root_part_matches_the_root_classes(r, mod)


def test_closed_form_caches_stay_bounded(monkeypatch):
    big = PrimePowerModulus(3, 9)
    units = [x for x in range(1, big.q) if x % 3][: charsums._CACHE_SIZE + 100]
    for a in units:
        gauss_sum_closed(a, 1, big)
        kloosterman_closed(a, 1, big)
    for cache in _CLOSED_FORM_CACHES:
        assert 0 < len(cache) <= charsums._CACHE_SIZE
    value = charsums._gauss_parts[big.q**2 + units[-1]]
    assert charsums._gauss_unit_part(units[-1], big.q) is value  # a hit hands out the cached entry
    assert isinstance(value, tuple)
    # immutable all the way down, but for the unit part's phase table: a list
    # shared by every a of one (q, q', sign), filled in place
    hash(charsums._gauss_unit_part(units[-1], big.q)[:-1])
    # each cached root holds at most three K0/K1 values, whatever a and b give
    # it: K0, and K1 with either sign (b/c)
    for r in units[-60:]:
        for b in (1, 2, 4, 5):
            for closed_fn in (kloosterman_closed, salie_closed):
                closed_fn(r * invmod(b, big.q), b, big)
        root = charsums._root_part(r, big.p, big.m)
        if root:
            assert len(root[1]) == 3 and all(type(v) is charsums._SharedKloosterman for v in root[1])
    assert 0 < len(charsums._roots) <= charsums._CACHE_SIZE
    # 3^9 has more distinct Gauss values than the tables hold: no table, built
    # per call; a Kloosterman value lives with its root at every modulus
    assert big.q > charsums._SHARED_MAX_Q
    assert charsums._gauss_unit_part(units[-1], big.q)[-1] is None
    assert gauss_sum_closed(units[-1], 1, big) is not gauss_sum_closed(units[-1], 1, big)
    assert kloosterman_closed(1, 1, big) is kloosterman_closed(1, 1, big)
    # shared Gauss values past the cap: the tables are emptied, with the cache
    # that holds them, and never outgrown
    cap = 64
    monkeypatch.setattr(charsums, "_CACHE_SIZE", cap)
    monkeypatch.setattr(charsums, "_SHARED_MAX_Q", cap // 2)
    _clear_closed_form_caches()
    tables = charsums._gauss_tables
    gauss, drops, slots = set(), 0, 0
    for mod in (PrimePowerModulus(3, 3), PrimePowerModulus(31, 1), PrimePowerModulus(3, 2), PrimePowerModulus(5, 2)):
        for a in range(mod.q):
            gauss.add(repr(gauss_sum_closed(a, 1, mod)))
            now = sum(map(len, tables.values()))
            assert now <= cap and len(_shared_values(tables)) <= cap
            assert len(charsums._gauss_parts) <= cap
            drops += now < slots
            slots = now
    assert len(gauss) > cap and drops > 0
    # a table that would pass the cap empties the tables and the cache that
    # holds them, so no emptied table is handed out again
    assert charsums._gauss_parts
    charsums._phase_table(("probe",), cap)
    assert list(tables) == [("probe",)] and charsums._gauss_parts == {}
    assert gauss_sum_closed(2, 1, mod) is gauss_sum_closed(2, 1, mod)


def test_a_cached_entry_is_never_rebuilt(monkeypatch):
    """A warm call reads every part from its cache: with everything that builds a
    part made to raise, the same values come out, a non-residue's () included."""
    _clear_closed_form_caches()  # so that no cache is emptied between warming and reading
    mod = PrimePowerModulus(5, 3)
    c = mod.q
    args = [(a, b) for a in (1, 2, 3, 25) for b in (1, 2, 3, 4, 7)]
    want = {(fn, a, b): fn(a, b, mod) for a, b in args for fn in (gauss_sum_closed, kloosterman_closed, salie_closed)}
    non_residue = next(r for r in range(1, c) if prime_tables(5).root[r % 5] < 0)
    assert charsums._root_part(non_residue, 5, 3) == ()

    def refuse(*args, **kw):
        raise AssertionError("a cached part was built again")

    for name in ("prime_tables", "lift_sqrt_array", "jacobi_symbol", "epsilon_c", "invmod", "_phase_table"):
        monkeypatch.setattr(charsums, name, refuse)
    assert all(fn(a, b, mod) is value for (fn, a, b), value in want.items())
    assert charsums._root_part(non_residue, 5, 3) == ()
    assert salie_closed(non_residue, 1, mod).is_zero


_MIXED_MODULI = [PrimePowerModulus(p, m) for p, m in ((3, 1), (31, 1), (37, 1), (3, 2), (5, 2), (3, 3),
                                                      (7, 2), (3, 4), (11, 2), (5, 3))]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_MIXED_MODULI), st.integers(-250, 250), st.integers(-250, 250)),
                min_size=1, max_size=90))
def test_int_keyed_caches_under_a_small_cap_match_the_uncached_oracles(calls):
    """Moduli on both sides of _SHARED_MAX_Q, interleaved under a cap of 64, so
    that every cache is emptied mid-run and keys of different moduli meet in
    one dict: each value is the uncached oracle's, bit for bit, and no cache or
    table passes the cap."""
    cap = 64
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charsums, "_CACHE_SIZE", cap)
        mp.setattr(charsums, "_SHARED_MAX_Q", cap // 2)
        _clear_closed_form_caches()
        assert any(mod.q <= cap // 2 for mod in _MIXED_MODULI) and any(mod.q > cap // 2 for mod in _MIXED_MODULI)
        for mod, a, b in calls:
            got = gauss_sum_closed(a, b, mod)
            want = _gauss_closed_reference(a, b, mod)
            assert repr(got) == repr(want) and _field_types(got) == _field_types(want), (a, b, mod)
            assert repr(got.to_complex()) == repr(_exact_to_complex_reference(want)), (a, b, mod)
            if mod.m >= 2 and (a % mod.p or b % mod.p):
                for twisted, closed_fn in ((False, kloosterman_closed), (True, salie_closed)):
                    got = closed_fn(a, b, mod)
                    want = _kloosterman_salie_reference(a, b, mod, twisted)
                    assert repr(got) == repr(want) and _field_types(got) == _field_types(want), (a, b, mod)
                    assert repr(got.to_complex()) == repr(_kloosterman_to_complex_reference(want)), (a, b, mod)
            assert all(len(cache) <= cap for cache in _CLOSED_FORM_CACHES)
            assert sum(map(len, charsums._gauss_tables.values())) <= cap
    _clear_closed_form_caches()


def _shared_values(tables):
    """The values the Gauss phase tables hold."""
    return [value for table in tables.values() for value in table if value is not None]


_CLOSED_FORM_CACHES = (charsums._gauss_parts, charsums._roots, charsums._modulus_parts)


def _clear_closed_form_caches():
    for cache in _CLOSED_FORM_CACHES:
        cache.clear()
    charsums._gauss_tables.clear()
    modmath.unit_root.cache_clear()


def _field_types(value):
    return [type(f) for f in value] + [type(x) for term in getattr(value, "terms", ()) for x in term]


@pytest.mark.parametrize("np_int", [np.int64, np.int32])
def test_numpy_integer_arguments_match_python_ints(np_int):
    """Numpy integers enter as Python ints, on a cold cache as on a warm one."""
    for p, m in [(5, 2), (3, 3), (7, 2)]:
        mod = PrimePowerModulus(p, m)
        c = mod.q
        for a, b in [(3, 1), (1, 0), (p, 2 * p), (0, c), (-2, 7), (2 * p, 1), (c + 4, -3)]:
            for fn in (gauss_sum_closed, kloosterman_closed, salie_closed):
                _clear_closed_form_caches()
                try:
                    got = fn(np_int(a), np_int(b), mod)
                except UnsupportedCase:
                    with pytest.raises(UnsupportedCase):
                        fn(a, b, mod)
                    continue
                _clear_closed_form_caches()
                want = fn(a, b, mod)
                assert got == want and repr(got) == repr(want), (fn.__name__, a, b, c)
                assert _field_types(got) == _field_types(want)
                assert fn(a, np_int(b), mod) == fn(np_int(a), b, mod) == want


# The evaluators as they stood before the cached unit root: additive_character
# and the two to_complex bodies, copied verbatim.  The fast path must
# reproduce them bit for bit (compared by repr, which tells signed zeros apart).


def _additive_character_reference(a, q):
    if q < 1:
        raise ValidationError("q must be positive")
    t = a % q
    return cmath.exp(complex(0.0, TWO_PI * t / q))


def _exact_to_complex_reference(cs):
    is_zero, factor, sign, eps, sqrt_arg, phase_num, phase_den = cs
    if is_zero:
        return 0.0 + 0.0j
    return factor * sign * eps * math.sqrt(sqrt_arg) * _additive_character_reference(phase_num, phase_den)


def _kloosterman_to_complex_reference(kc):
    if kc.is_zero:
        return 0.0 + 0.0j
    c = kc.p**kc.s
    scale = math.sqrt(c)
    return scale * sum(coeff * _additive_character_reference(phase, c) for coeff, phase in kc.terms)


def _outcome(fn, *args):
    """repr of the value, or the type and message of the error raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return (type(exc), str(exc))


_SIGNED_UNITS = [complex(x, y) for x, y in ((1.0, 0.0), (1.0, -0.0), (-1.0, 0.0), (-1.0, -0.0),
                                            (0.0, 1.0), (-0.0, 1.0), (0.0, -1.0), (-0.0, -1.0))]
_DENOMINATORS = st.one_of(st.integers(1, 60), st.integers(4000, 70_000), st.sampled_from([3**9, 5**7, 7**5]))


@st.composite
def _exact_char_sums(draw):
    """ExactCharSum with any field values: phases negative or >= den, signed-zero eps."""
    den = draw(_DENOMINATORS)
    return ExactCharSum(
        draw(st.booleans()),
        draw(st.integers(-50, 50)),
        draw(st.sampled_from([-1, 0, 1])),
        draw(st.sampled_from(_SIGNED_UNITS)),
        draw(st.integers(0, 10**6)),
        draw(st.integers(-3 * den, 3 * den)),
        den,
    )


@settings(max_examples=400, deadline=None)
@given(_exact_char_sums())
def test_gauss_to_complex_matches_reference_bit_for_bit(cs):
    assert repr(cs.to_complex()) == repr(_exact_to_complex_reference(cs))


@settings(max_examples=400, deadline=None)
@given(st.integers(-10**9, 10**9), _DENOMINATORS)
def test_additive_character_matches_reference_bit_for_bit(a, q):
    assert repr(additive_character(a, q)) == repr(_additive_character_reference(a, q))


@st.composite
def _kloosterman_forms(draw):
    p = draw(st.sampled_from([3, 5, 7, 11]))
    s = draw(st.integers(1, 6))
    c = p**s
    term = st.tuples(
        st.builds(lambda u, sign: sign * u, st.sampled_from(_SIGNED_UNITS), st.sampled_from([-1, 0, 1])),
        st.integers(-3 * c, 3 * c),
    )
    return KloostermanClosedForm(draw(st.booleans()), p, s, tuple(draw(st.lists(term, max_size=3))))


@settings(max_examples=400, deadline=None)
@given(_kloosterman_forms())
def test_kloosterman_to_complex_matches_reference_bit_for_bit(kc):
    assert repr(kc.to_complex()) == repr(_kloosterman_to_complex_reference(kc))


@pytest.mark.parametrize("den", [0, -1, -7])
def test_nonpositive_phase_denominator_raises_the_reference_error(den):
    got = _outcome(ExactCharSum(False, 1, 1, 1j, 5, 3, den).to_complex)
    assert got == _outcome(_exact_to_complex_reference, ExactCharSum(False, 1, 1, 1j, 5, 3, den))
    assert got[0] is ValidationError
    assert _outcome(ExactCharSum(False, 1, 1, 1j, 5, 3, den).to_complex) == got  # raised again, never cached
    assert _outcome(additive_character, 3, den) == _outcome(_additive_character_reference, 3, den)
    for terms in ((), ((1j, 2),)):
        kc = KloostermanClosedForm(False, 0, 1, terms)  # c = 0
        assert _outcome(kc.to_complex) == _outcome(_kloosterman_to_complex_reference, kc)


def test_cold_closed_form_sweep_grows_the_caches_by_under_one_mib(traced_peak):
    mod = PrimePowerModulus(3, 6)
    c = mod.q

    def sweep():
        for a in range(c):
            for b in range(c):
                gauss_sum_closed(a, b, mod).to_complex()
        return len(_shared_values(charsums._gauss_tables))

    _clear_closed_form_caches()
    shared, mib = traced_peak(sweep)
    assert shared == 826  # the distinct nonzero values mod 3^6
    assert mib < 1.0


def test_a_row_above_the_shared_limit_keeps_no_phase_table():
    """Above _SHARED_MAX_Q every closed Gauss value is built per call: rows mod
    5^6 leave the phase tables empty, and every Gauss and K0/K1 value, shared
    with its root or not, is the uncached oracles' value."""
    mod = PrimePowerModulus(5, 6)
    c = mod.q
    assert c > charsums._SHARED_MAX_Q
    _clear_closed_form_caches()
    for a in (1, 7, 250):
        for b in range(c):
            got = gauss_sum_closed(a, b, mod)
            want = _gauss_closed_reference(a, b, mod)
            assert repr(got) == repr(want) and _field_types(got) == _field_types(want)
            assert repr(got.to_complex()) == repr(_exact_to_complex_reference(want))
        for b in [b for b in range(0, c, 7) if a % 5 or b % 5]:
            for twisted, closed_fn in ((False, kloosterman_closed), (True, salie_closed)):
                got = closed_fn(a, b, mod)
                want = _kloosterman_salie_reference(a, b, mod, twisted)
                assert repr(got) == repr(want) and _field_types(got) == _field_types(want)
                assert repr(got.to_complex()) == repr(_kloosterman_to_complex_reference(want))
    assert charsums._gauss_tables == {}


def test_a_warm_row_hands_out_shared_values():
    mod = PrimePowerModulus(5, 4)
    c = mod.q

    def row():
        return ([gauss_sum_closed(7, b, mod) for b in range(c)]
                + [closed_fn(7, b, mod) for b in range(1, c, 5) for closed_fn in (kloosterman_closed, salie_closed)])

    def cache_state():
        # a miss stores a new entry, so equal keys held by the same objects mean none
        entries = [[(key, id(entry)) for key, entry in cache.items()] for cache in _CLOSED_FORM_CACHES]
        return entries + [modmath.unit_root.cache_info().misses, len(_shared_values(charsums._gauss_tables))]

    _clear_closed_form_caches()
    first = row()
    values = [v.to_complex() for v in first]
    state = cache_state()
    again = row()
    assert all(x is y for x, y in zip(first, again))
    assert [v.to_complex() for v in again] == values
    assert cache_state() == state  # the second pass misses no cache and shares nothing new
    assert gauss_sum_closed(7, 1, mod) is gauss_sum_closed(7, c - 1, mod)  # b and -b: one phase, one object


def test_a_spectral_count_keeps_no_kloosterman_value_or_table():
    """The spectral gather reads only eps_c, the flip and the twist of each
    level: six squares mod 5^5 build no closed K0/K1 value and leave no
    Kloosterman table in any level's cached part."""
    _clear_closed_form_caches()
    mod = PrimePowerModulus(5, 5)
    count_weighted_spectral(DiagonalForm((1,) * 6, 1), mod, float(math.ceil(mod.q**0.55)), gaussian_weight())
    assert charsums._modulus_parts
    assert charsums._roots == {}
    for m in range(2, mod.m + 1):
        for twisted in (False, True):
            part = charsums._kloosterman_modulus_part(mod.p, m, twisted)
            assert not any(isinstance(field, list) for field in part), (m, twisted)


@st.composite
def _closed_value_args(draw):
    """(p, m, a, b): arguments in [-2q, 2q], multiples of p included."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    m = draw(st.integers(2, 4))
    q = p**m
    arg = st.one_of(st.integers(-2 * q, 2 * q), st.integers(-q, q).map(lambda x: p * x))
    return p, m, draw(arg), draw(arg)


@settings(max_examples=150, deadline=None)
@given(_closed_value_args(), st.booleans())
def test_shared_values_match_the_uncached_oracles_cold_and_warm(args, cold):
    p, m, a, b = args
    mod = PrimePowerModulus(p, m)
    if cold:
        _clear_closed_form_caches()
    for _ in range(2):  # the first call may build and share the value, the second reads it
        got = gauss_sum_closed(a, b, mod)
        want = _gauss_closed_reference(a, b, mod)
        assert repr(got) == repr(want) and _field_types(got) == _field_types(want)
        assert repr(got.to_complex()) == repr(_exact_to_complex_reference(want))
        if a % p == 0 and b % p == 0:
            continue
        for twisted, closed_fn in ((False, kloosterman_closed), (True, salie_closed)):
            got = closed_fn(a, b, mod)
            want = _kloosterman_salie_reference(a, b, mod, twisted)
            assert repr(got) == repr(want) and _field_types(got) == _field_types(want)
            assert repr(got.to_complex()) == repr(_kloosterman_to_complex_reference(want))


def _shared_args():
    """(p, m, a, b) of _closed_value_args with p^m <= _SHARED_MAX_Q, so that the
    closed values are shared."""
    return _closed_value_args().filter(lambda args: args[0] ** args[1] <= charsums._SHARED_MAX_Q)


@settings(max_examples=150, deadline=None)
@given(_shared_args(), st.integers(-10**6, 10**6))
def test_copies_pickles_and_replacements_of_shared_values_are_plain_tuples(args, shift):
    """A shared value carries its complex value; what is made from it is the
    plain NamedTuple, evaluated from its own fields."""
    p, m, a, b = args
    mod = PrimePowerModulus(p, m)
    shared = [(gauss_sum_closed(a, b, mod), _exact_to_complex_reference)]
    if a % p or b % p:
        shared += [(fn(a, b, mod), _kloosterman_to_complex_reference) for fn in (kloosterman_closed, salie_closed)]
    for value, reference in shared:
        assert isinstance(value, charsums._Shared)
        plain = type(value)._plain
        assert repr(value) == repr(tuple.__new__(plain, value)) and hash(value) == hash(tuple(value))
        if plain is ExactCharSum:
            moved = value._replace(phase_num=value.phase_num + shift)
        else:
            moved = value._replace(terms=tuple((coeff, t + shift) for coeff, t in value.terms))
        twins = [copy.copy(value), copy.deepcopy(value), value._replace(), moved]
        twins += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert type(twin) is plain
            assert _field_types(twin) == _field_types(value)
            assert repr(twin.to_complex()) == repr(reference(twin))
        assert all(twin == value and repr(twin) == repr(value) for twin in twins if twin is not moved)
        assert repr(value.to_complex()) == repr(reference(value))


_RETYPES = (int, float, complex, np.int64, np.float64, np.complex128)


def _retyped(x, kind, negate_zeros):
    """x as ``kind`` (a complex x only where its imaginary part is zero), its
    zero parts negated first if asked: equal to x, but not the same fields."""
    if isinstance(x, complex):
        if negate_zeros:
            x = complex(x.real or -0.0, x.imag or -0.0)
        if kind not in (complex, np.complex128):
            if x.imag:
                return x
            x = x.real
    return kind(x)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.lists(st.sampled_from(_RETYPES), min_size=4, max_size=4), st.booleans())
def test_equal_tuples_with_other_fields_never_read_a_shared_value(seed, kinds, negate_zeros):
    """A hand-built tuple equal to a shared value, with fields of other numeric
    types or signed zeros, is evaluated from its own fields by the parent's body."""
    p, m = ((3, 3), (5, 2), (7, 2))[seed % 3]
    mod = PrimePowerModulus(p, m)
    shared = gauss_sum_closed(seed // 3, seed // 7, mod)
    factor, sign, eps = (_retyped(x, kind, negate_zeros) for x, kind in zip(shared[1:4], kinds))
    phase = np.int64(shared.phase_num) if kinds[3] is np.int64 else shared.phase_num
    twin = ExactCharSum(shared.is_zero, factor, sign, eps, shared.sqrt_arg, phase, shared.phase_den)
    assert twin == shared
    assert repr(shared.to_complex()) == repr(_exact_to_complex_reference(shared))
    assert repr(twin.to_complex()) == repr(_exact_to_complex_reference(twin))
    if (seed // 3) % p and (seed // 7) % p:
        kc = kloosterman_closed(seed // 3, seed // 7, mod)
        terms = tuple((_retyped(coeff, kind, negate_zeros), type(phase)(t)) for (coeff, t), kind in zip(kc.terms, kinds))
        ktwin = KloostermanClosedForm(kc.is_zero, kc.p, kc.s, terms)
        assert ktwin == kc
        assert repr(kc.to_complex()) == repr(_kloosterman_to_complex_reference(kc))
        assert repr(ktwin.to_complex()) == repr(_kloosterman_to_complex_reference(ktwin))


@pytest.mark.parametrize("p,m", [(3, 1), (3, 4), (5, 3), (7, 2)])
def test_gauss_at_a_divisible_by_q_equals_the_linear_sum_case(p, m):
    mod = PrimePowerModulus(p, m)
    c = mod.q
    for a in (0, c, -2 * c):
        for b in (0, c, 3 * c, 1, p, -1, c - 1):
            got = gauss_sum_closed(a, b, mod)
            # the special case the general path replaced
            want = ExactCharSum(False, c) if b % c == 0 else charsums.ZERO_CHAR_SUM
            assert got == want and repr(got) == repr(want), (a, b, c)
            assert _field_types(got) == _field_types(want)
            assert repr(got.to_complex()) == repr(_exact_to_complex_reference(want))


def test_unit_root_cache_is_bounded_and_sweeps_past_it_match():
    assert modmath.unit_root.cache_info().maxsize == 4096
    for p, m in ((5, 6), (3, 8)):  # q > 4096: every sweep over b evicts entries
        mod = PrimePowerModulus(p, m)
        c = mod.q
        assert c > modmath.unit_root.cache_info().maxsize
        for a in (1, 2 * p + 1, p):
            for b in range(c):
                got = gauss_sum_closed(a, b, mod)
                assert repr(got.to_complex()) == repr(_exact_to_complex_reference(got)), (a, b, c)
            for b in range(1, c, p - 1):
                for closed_fn in (kloosterman_closed, salie_closed):
                    if a % p == 0 and b % p == 0:
                        continue
                    kc = closed_fn(a, b, mod)
                    assert repr(kc.to_complex()) == repr(_kloosterman_to_complex_reference(kc)), (a, b, c)
        info = modmath.unit_root.cache_info()
        assert info.currsize <= info.maxsize


def _python_calls(thunk):
    """Names of the Python frames entered while thunk runs, thunk's own first
    (C calls, such as a dict.get or tuple.__new__, raise no call event).  The
    collector is off meanwhile, so that no __del__ it runs adds a frame."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return names


@pytest.mark.parametrize("a,b", [(12, 345), (0, 0), (7, 14)])
def test_warm_gauss_call_enters_two_python_frames(a, b):
    """The thunk's frame and gauss_sum_closed's: the shared value's to_complex
    runs in C.  This holds up to _SHARED_MAX_Q; the per-call path above it is
    pinned by the next test."""
    mod = PrimePowerModulus(7, 3)
    assert mod.q <= charsums._SHARED_MAX_Q
    thunk = lambda: gauss_sum_closed(a, b, mod).to_complex()  # noqa: E731
    thunk()
    assert _python_calls(thunk) == ["<lambda>", "gauss_sum_closed"]


@pytest.mark.parametrize("a,b", [(12, 345), (0, 0), (7, 14)])
def test_warm_gauss_call_above_the_shared_limit_enters_three_python_frames(a, b):
    """Above _SHARED_MAX_Q the value is built per call with tuple.__new__, so
    no NamedTuple __new__ frame runs (its code object is also a "<lambda>"),
    a warm call enters no _gauss_unit_part, and to_complex is the plain method."""
    mod = PrimePowerModulus(7, 4)
    assert mod.q > charsums._SHARED_MAX_Q
    thunk = lambda: gauss_sum_closed(a, b, mod).to_complex()  # noqa: E731
    thunk()
    assert _python_calls(thunk) == ["<lambda>", "gauss_sum_closed", "to_complex"]


@pytest.mark.parametrize("closed_fn", [kloosterman_closed, salie_closed])
def test_warm_kloosterman_salie_call_enters_three_python_frames(closed_fn):
    """The thunk's frame and at most two more: the public name and the closed body."""
    mod = PrimePowerModulus(5, 3)
    thunk = lambda: closed_fn(2, 3, mod).to_complex()  # noqa: E731
    assert thunk() != 0
    calls = _python_calls(thunk)
    assert calls == ["<lambda>", closed_fn.__name__, "_closed_kloosterman_salie"]
    # a NamedTuple's generated __new__ is a code object named "<lambda>"
    assert not {"__new__", "to_complex", "__hash__", "additive_character"} & set(calls)
    assert calls.count("<lambda>") == 1
