"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is pinned against an independent oracle (term-by-term
summation, exhaustive enumeration, or an exact combinatorial identity); the
tolerances are fixed here and nowhere else.
"""

import math
import subprocess
import sys
import time

import numpy as np

from congruence_lab.charsums import (
    F_bruteforce,
    F_closed,
    gauss_sum_bruteforce,
    gauss_sum_closed,
    kloosterman_closed,
    salie_closed,
)
from congruence_lab.counting import (
    NOT_ALL_ZERO,
    UNIT_COORDS,
    bump_pair_weight,
    count_weighted_direct,
    count_weighted_spectral,
    gaussian_weight,
    poisson_identity_check,
)
from congruence_lab.densities import DiagonalForm, hensel_stability_report, ternary_C_p
from congruence_lab.modmath import PrimePowerModulus, jacobi_symbol
from congruence_lab.representations import (
    DualForm,
    quadruple_count,
    singular_coefficient,
    singular_coefficient_naive,
)
from congruence_lab.sqrt_expsums import bound_scan

RNG = np.random.default_rng(987654321)


def report(number: int, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {detail}")
    assert passed, detail


def test_criterion_01_gauss_closed_exhaustive():
    """Closed Gauss sums agree with brute force for all (a, b) mod p^m."""
    start = time.time()
    worst = 0.0
    cases = 0
    for p in (3, 5, 7):
        for m in range(1, 5):
            mod = PrimePowerModulus(p, m)
            c = mod.q
            ns = np.arange(c)
            for a in range(c):
                # one inverse DFT evaluates the full b-row of literal sums
                seq = np.exp(2j * np.pi * (a * ((ns * ns) % c)) / c)
                row = np.fft.ifft(seq) * c
                for b in range(c):
                    got = gauss_sum_closed(a, b, mod).to_complex()
                    gap = abs(got - row[b]) / max(1.0, math.sqrt(c))
                    if gap > worst:
                        worst = gap
                    cases += 1
            # tie the literal brute-force evaluator to the DFT table
            for a in RNG.integers(0, c, 8):
                b = int(RNG.integers(0, c))
                seq = np.exp(2j * np.pi * (int(a) * ((ns * ns) % c)) / c)
                assert abs(gauss_sum_bruteforce(int(a), b, c) - (np.fft.ifft(seq) * c)[b]) < 1e-8 * math.sqrt(c)
    elapsed = time.time() - start
    report(1, cases >= 3 * 10**5 and worst < 1e-8 and elapsed < 60,
           f"{cases} cases, worst scaled gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_kloosterman_salie_exhaustive():
    """Closed Kloosterman/Salie forms on every covered gcd pattern."""
    start = time.time()
    worst = 0.0
    zero_mismatch = 0
    for p, m in [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]:
        mod = PrimePowerModulus(p, m)
        c = mod.q
        inv = {n: pow(n, -1, c) for n in range(c) if n % p != 0}
        phases = np.exp(2j * np.pi * np.arange(c) / c)
        jac = [jacobi_symbol(n, c) for n in range(c)]
        for a in range(c):
            for b in range(c):
                if a % p == 0 and b % p == 0:
                    continue
                k0 = sum(phases[(a * nb + b * n) % c] for n, nb in inv.items())
                k1 = sum(jac[n] * phases[(a * nb + b * n) % c] for n, nb in inv.items())
                cf0 = kloosterman_closed(a, b, mod)
                cf1 = salie_closed(a, b, mod)
                worst = max(worst, abs(cf0.to_complex() - k0) / math.sqrt(c))
                worst = max(worst, abs(cf1.to_complex() - k1) / math.sqrt(c))
                want_zero = (a % p == 0) or (b % p == 0) or jacobi_symbol(a * b, p) == -1
                if cf0.is_zero != want_zero or (want_zero and abs(k0) > 1e-8):
                    zero_mismatch += 1
    elapsed = time.time() - start
    report(2, worst < 1e-8 and zero_mismatch == 0 and elapsed < 60,
           f"worst scaled gap {worst:.2e}, zero mismatches {zero_mismatch}, {elapsed:.1f}s")


def test_criterion_03_f_kernel_identity():
    """Closed dual kernel equals the literal triple sum on 200 random tuples."""
    start = time.time()
    worst = 0.0
    for _ in range(200):
        n = int(RNG.integers(2, 4))
        p, m = [(3, 2), (3, 3), (5, 2)][int(RNG.integers(0, 3))]
        mod = PrimePowerModulus(p, m)
        units = [x for x in range(1, 3 * p) if x % p != 0]
        form = DiagonalForm(
            tuple(int(RNG.choice(units)) for _ in range(n)), int(RNG.choice(units))
        )
        r = int(RNG.integers(0, m - 1))
        lvals = [x for x in range(-9, 10) if x % p != 0]
        l = tuple(int(RNG.choice(lvals)) for _ in range(n))
        bf = F_bruteforce(tuple(p**r * x for x in l), form, mod)
        cf = F_closed(r, l, form, mod)
        worst = max(worst, abs(bf - cf) / max(1.0, abs(bf)))
    elapsed = time.time() - start
    report(3, worst < 1e-6 and elapsed < 120,
           f"200 tuples, worst relative gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_hensel_stability():
    """Scaled solution counts are level-independent, as exact rationals."""
    start = time.time()
    checked = 0
    stable = True
    primes = [3, 5, 7]
    for i in range(20):
        p = primes[i % 3]
        n = int(RNG.integers(1, 4))
        form = DiagonalForm(
            tuple(int(RNG.integers(1, p)) for _ in range(n)), int(RNG.integers(1, p))
        )
        rep = hensel_stability_report(form, p, 3)
        stable = stable and len(set(rep)) == 1
        checked += 1
    elapsed = time.time() - start
    report(4, stable and checked == 20 and elapsed < 60,
           f"{checked} forms, all reports constant, {elapsed:.1f}s")


def test_criterion_05_ternary_constant():
    """(p - s_p)(p - 1) equals the exhaustive unit-solution count mod p."""
    start = time.time()
    bad = 0
    total = 0
    for p in (3, 5, 7, 11, 13):
        for _ in range(10):
            l1, l2, l3 = (int(RNG.integers(1, p)) for _ in range(3))
            count = sum(
                1
                for x in range(1, p)
                for y in range(1, p)
                for z in range(1, p)
                if (l1 * x * x + l2 * y * y + l3 * z * z) % p == 0
            )
            if ternary_C_p(l1, l2, l3, p) * p * p != count:
                bad += 1
            total += 1
    degenerate_ok = ternary_C_p(1, 1, 1, 5) == 0 and not any(
        (x * x + y * y + z * z) % 5 == 0
        for x in range(1, 5)
        for y in range(1, 5)
        for z in range(1, 5)
    )
    elapsed = time.time() - start
    report(5, bad == 0 and total == 50 and degenerate_ok and elapsed < 30,
           f"{total} random triples exact, degenerate C_5(1,1,1)=0, {elapsed:.1f}s")


def test_criterion_06_homogeneous_asymptotic():
    """Weighted count over main term tends to 1 for the four-square form mod 3^m."""
    start = time.time()
    form = DiagonalForm((1, 1, 1, 1))
    w = gaussian_weight()
    ratios = {}
    for m in range(3, 7):
        q = 3**m
        N = float(math.ceil(q**0.6))
        rep = count_weighted_direct(
            form, PrimePowerModulus(3, m), N, w, NOT_ALL_ZERO, strategy="histogram"
        )
        ratios[m] = rep.ratio
    elapsed = time.time() - start
    final_ok = abs(ratios[6] - 1.0) <= 0.15
    trending = abs(ratios[6] - 1.0) <= abs(ratios[3] - 1.0) + 1e-9
    detail = ", ".join(f"m={m}: {r:.4f}" for m, r in ratios.items())
    report(6, final_ok and trending and elapsed < 600, f"{detail}, {elapsed:.1f}s")


def test_criterion_07_inhomogeneous_asymptotic():
    """Six-square inhomogeneous count mod 5^m with a bump-transform weight.

    The weight's transform is supported on the unit interval (seed radius
    1/2), the natural normalization for a count at scale N.
    """
    start = time.time()
    form = DiagonalForm((1, 1, 1, 1, 1, 1), 1)
    w = bump_pair_weight(radius=0.5)
    ratios = {}
    for m in (2, 3):
        q = 5**m
        N = float(math.ceil(q**0.55))
        rep = count_weighted_direct(
            form, PrimePowerModulus(5, m), N, w, UNIT_COORDS, strategy="histogram"
        )
        ratios[m] = rep.ratio
    elapsed = time.time() - start
    ok = all(abs(r - 1.0) <= 0.25 for r in ratios.values())
    detail = ", ".join(f"m={m}: {r:.4f}" for m, r in ratios.items())
    report(7, ok and elapsed < 900, f"{detail}, {elapsed:.1f}s")


def test_six_square_asymptotic_to_5_6_at_default_budget(monkeypatch):
    """The six-square count mod 5^m, m = 4..6, direct and spectral with a
    Gaussian weight, runs under the default budget; T/T0 stays within 0.25
    and the two routes agree to 1e-9."""
    monkeypatch.delenv("CONGRUENCE_LAB_BUDGET", raising=False)
    start = time.time()
    form = DiagonalForm((1, 1, 1, 1, 1, 1), 1)
    w = gaussian_weight()
    rows = []
    for m in (4, 5, 6):
        mod = PrimePowerModulus(5, m)
        N = float(math.ceil(mod.q**0.55))
        rd = count_weighted_direct(form, mod, N, w, UNIT_COORDS)
        rs = count_weighted_spectral(form, mod, N, w)
        gap = abs(rs.T - rd.T) / rd.T
        rows.append((m, rd.ratio, rs.ratio, gap))
    elapsed = time.time() - start
    ok = all(abs(rd - 1.0) <= 0.25 and abs(rs - 1.0) <= 0.25 and gap <= 1e-9
             for _, rd, rs, gap in rows)
    detail = ", ".join(f"m={m}: {rd:.4f}/{rs:.4f} gap {gap:.1e}" for m, rd, rs, gap in rows)
    print(f"{'PASS' if ok else 'FAIL'} six squares at the default budget: {detail}, {elapsed:.1f}s")
    assert ok, detail


def test_criterion_08_spectral_direct_crosscheck():
    """Frequency-side and lattice-side counts agree within 1 percent."""
    start = time.time()
    configs = [
        ((1, 1), 2, 5, 2, 25.0),
        ((1, 1), 2, 5, 3, 45.0),
        ((1, 1), 2, 3, 4, 30.0),
        ((1, 1, 2), 1, 3, 3, 8.0),
        ((1, 1, 1), 1, 5, 2, 30.0),
        ((2, 1, 1), 1, 3, 4, 25.0),
        ((1, 1, 1, 1), 1, 3, 2, 6.0),
        ((1, 1), 1, 7, 2, 20.0),
        ((1, 3), 2, 7, 2, 30.0),
        ((1, 2, 2), 2, 3, 5, 60.0),
    ]
    worst = 0.0
    g = gaussian_weight()
    for lams, lnext, p, m, N in configs:
        form = DiagonalForm(lams, lnext)
        mod = PrimePowerModulus(p, m)
        rd = count_weighted_direct(form, mod, N, g, UNIT_COORDS)
        rs = count_weighted_spectral(form, mod, N, g)
        assert rd.T > 0, (lams, lnext, p, m)
        worst = max(worst, abs(rs.T - rd.T) / rd.T)
    elapsed = time.time() - start
    report(8, worst <= 0.01 and elapsed < 300,
           f"10 configurations, worst relative gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_09_root_sum_bound_scan():
    """Square-root exponential sums stay within 10 x p^(s/2) log p^s."""
    start = time.time()
    overall = 0.0
    for p in (3, 5, 7):
        rows = bound_scan(p, range(2, 11), 50, seed=20240817)
        overall = max(overall, max(r.normalized for r in rows))
    elapsed = time.time() - start
    report(9, overall < 10.0 and elapsed < 300,
           f"max normalized sum {overall:.4f} over 1350 rows, {elapsed:.1f}s")


def test_criterion_10_quadruple_count():
    """Bounded quadruple counts: ratio to M^2 bounded; exact vs exhaustive."""
    start = time.time()
    max_ratio = 0.0
    for M in range(5, 41):
        s = 1 + math.ceil(math.log(8 * M * M) / math.log(3))
        c = 3**s
        for _ in range(20):
            alphas = tuple(int(a) for a in RNG.integers(1, 50, 4) if True)
            if any(a % 3 == 0 for a in alphas):
                continue
            b = int(RNG.integers(0, c))
            count = quadruple_count(alphas, b, c, M, p=3)
            max_ratio = max(max_ratio, count / (M * M))
    exhaustive_ok = True
    for M in (5, 8, 12):
        s = 1 + math.ceil(math.log(8 * M * M) / math.log(3))
        c = 3**s
        for _ in range(5):
            alphas = tuple(int(a) for a in RNG.integers(1, 20, 4))
            if any(a % 3 == 0 for a in alphas):
                continue
            b = int(RNG.integers(0, c))
            got = quadruple_count(alphas, b, c, M, p=3)
            ls = np.arange(-M, M + 1)
            grids = np.meshgrid(*([ls] * 4), indexing="ij")
            vals = sum(a * g * g for a, g in zip(alphas, grids))
            exhaustive_ok = exhaustive_ok and got == int(((vals - b) % c == 0).sum())
    elapsed = time.time() - start
    report(10, max_ratio < 100.0 and exhaustive_ok and elapsed < 180,
           f"max count/M^2 = {max_ratio:.2f}, exhaustive agreement up to M=12, {elapsed:.1f}s")


def test_criterion_11_singular_series_decay():
    """|a_q(k)| q^(n/2-1) bounded; factorized form equals the naive double sum."""
    start = time.time()
    max_scaled = 0.0
    for n in (4, 6):
        for p in (3, 5):
            dual = DualForm((1,) * n)
            for q in range(1, 101):
                for k in (1, 7, 23, 50):
                    aq = singular_coefficient(q, k, dual, p)
                    max_scaled = max(max_scaled, abs(aq) * q ** (n / 2.0 - 1.0))
    naive_worst = 0.0
    for p, qs in [(3, (1, 2, 3, 4, 5)), (5, (1, 2, 3))]:
        dual = DualForm((1, 1, 1, 1))
        for q in qs:
            gap = abs(
                singular_coefficient(q, 1, dual, p) - singular_coefficient_naive(q, 1, dual, p)
            )
            naive_worst = max(naive_worst, gap)
    dual6 = DualForm((1,) * 6)
    for q in (1, 2):
        gap = abs(
            singular_coefficient(q, 1, dual6, 3) - singular_coefficient_naive(q, 1, dual6, 3)
        )
        naive_worst = max(naive_worst, gap)
    elapsed = time.time() - start
    report(11, max_scaled < 100.0 and naive_worst < 1e-9 and elapsed < 180,
           f"max |a_q| q^(n/2-1) = {max_scaled:.2f}, naive gap {naive_worst:.2e}, {elapsed:.1f}s")


def test_criterion_12_poisson_identity_grid():
    """Poisson summation over residue classes closes to 1e-8 on a 50-case grid."""
    start = time.time()
    g = gaussian_weight()
    worst = 0.0
    cases = 0
    for q in (1, 2, 3, 5, 7, 11, 25):
        for a in {0, 1, 2, q - 1, 3 * q // 2 + 1}:
            for N in (5.0, 17.3, 120.0):
                if cases >= 50:
                    break
                truncation = max(math.ceil(8 * N / q), math.ceil(4 * q / N), 4)
                chk = poisson_identity_check(g, q, a, N, truncation)
                worst = max(worst, chk.gap)
                cases += 1
    elapsed = time.time() - start
    report(12, cases >= 50 and worst < 1e-8 and elapsed < 10,
           f"{cases} cases, max gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_13_selftest_determinism():
    """selftest output is byte-identical across seeds-equal runs and thread counts."""
    start = time.time()
    base = [sys.executable, "-m", "congruence_lab.cli", "selftest", "--quick", "--seed", "5"]
    run1 = subprocess.run(base + ["--threads", "1"], capture_output=True)
    run2 = subprocess.run(base + ["--threads", "4"], capture_output=True)
    identical = run1.stdout == run2.stdout
    ok = run1.returncode == 0 and run2.returncode == 0 and identical
    elapsed = time.time() - start
    report(13, ok, f"byte-identical selftest reports across thread counts, {elapsed:.1f}s")
