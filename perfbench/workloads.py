"""The benchmark's four workloads: inputs from a seed, one timed pass, oracles.

Each workload is a closed loop with one client: every operation starts when
the previous one has returned.  ``run`` is the timed pass and returns the
outputs; ``check`` compares them with independent oracles afterwards, outside
the timed region.  Comparisons are numeric with a relative tolerance, never
byte-for-byte, so a change that moves a number by float noise still passes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import shlex
import sys
import time
import traceback
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

# Explicit budget passed to every budgeted call.  The default 1e8 refuses the
# 5^6 six-square jobs, whose charged estimate is n * q^2 ~ 1.46e9 ops; the
# traced run counts those refusals in errors.default_budget_refusals.
BUDGET = 4 * 10**9

# Relative errors below 1e-12 are float reassociation noise, not accuracy.
ACCURACY_CAP = 12.0

HERE = os.path.dirname(os.path.abspath(__file__))


def load_library() -> SimpleNamespace:
    import congruence_lab
    from congruence_lab import (
        charsums,
        counting,
        densities,
        errors,
        modmath,
        representations,
        sqrt_expsums,
    )

    return SimpleNamespace(
        package=congruence_lab,
        modmath=modmath,
        charsums=charsums,
        densities=densities,
        counting=counting,
        sqrt_expsums=sqrt_expsums,
        representations=representations,
        errors=errors,
    )


class Checks:
    """Attempted and failed operations plus the worst relative error seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.notes: list[str] = []
        self.stats: dict[str, float] = {}

    @contextlib.contextmanager
    def op(self):
        """One attempted operation: however many of its checks fail, it fails once."""
        self.attempted += 1
        before = self.failed
        yield
        self.failed = min(self.failed, before + 1)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(why)

    def compare(self, got, want, scale, tol: float, what: str) -> bool:
        """One output against its oracle: |got - want| / scale <= tol."""
        diff = abs(complex(got) - complex(want))
        rel = diff / scale if scale else (0.0 if diff == 0 else math.inf)
        if math.isfinite(rel):
            self.worst = max(self.worst, rel)
        if rel <= tol:
            return True
        self.fail(1, f"{what}: got {got!r}, want {want!r}")
        return False

    def compare_array(self, got: np.ndarray, want: np.ndarray, scale, tol: float, what: str) -> None:
        rel = np.abs(got - want) / scale
        finite = rel[np.isfinite(rel)]
        if finite.size:
            self.worst = max(self.worst, float(finite.max()))
        bad = int(np.count_nonzero(~(rel <= tol)))
        if bad:
            self.fail(bad, f"{what}: {bad} of {rel.size} values off")

    @property
    def digits(self) -> float:
        if self.worst <= 0.0:
            return ACCURACY_CAP
        return min(ACCURACY_CAP, -math.log10(self.worst))


def digest(value) -> str:
    """Hash of a pass's outputs, to show traced and untraced passes agree."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(v.tobytes())
        elif isinstance(v, dict):
            for k in sorted(v, key=repr):
                h.update(repr(k).encode())
                feed(v[k])
        elif isinstance(v, (list, tuple)):
            for item in v:
                feed(item)
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()[:16]


def _guard(errors: list, what: str, fn, *args, **kwargs):
    """Run one operation; an exception is recorded as its failure."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # the pass must go on; check() counts the failure
        traceback.print_exc()
        errors.append(what)
        return None


def _legendre(x: int, p: int) -> int:
    x %= p
    if x == 0:
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


class Workload:
    name = ""
    weight_kinds: tuple[str, ...] = ()
    sizes: dict[str, dict] = {}
    uses_children = False  # runs its operations in child processes via a Launcher

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.cfg = self.sizes[size]
        self.rng = random.Random(f"{self.name}:{seed}")
        self.stats: dict[str, float] = {}
        self.errors: list[str] = []
        self.lib: SimpleNamespace | None = None
        self.launcher = None  # the worker's Launcher, when uses_children

    def import_library(self) -> None:
        self.lib = load_library()

    def weights(self) -> dict:
        c = self.lib.counting
        made = {"gaussian": c.gaussian_weight(1.0), "bump": c.bump_pair_weight(0.5)}
        return {k: made[k] for k in self.weight_kinds}

    def setup(self) -> None:
        """First evaluation of each weight kind the workload uses."""
        c = self.lib.counting
        for w in self.weights().values():
            c.weight_eval(w, 0.25)
            c.weight_fourier(w, 0.25)

    def run(self, tracer):
        raise NotImplementedError

    def check(self, outputs) -> Checks:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# charsum-sweep


class CharsumSweep(Workload):
    """Millions of tiny scalar closed-form calls with b varying under fixed (a, q)."""

    name = "charsum-sweep"
    sizes = {
        "full": {"gauss": ((7, 3), (5, 4), (3, 6)), "kloosterman": ((3, 4), (5, 3), (7, 2)), "f_tuples": 200},
        "smoke": {"gauss": ((3, 2), (5, 1)), "kloosterman": ((3, 2),), "f_tuples": 4},
    }

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        rng = self.rng
        self.a_orders = {}
        for p, m in self.cfg["gauss"] + self.cfg["kloosterman"]:
            order = list(range(p**m))
            rng.shuffle(order)
            self.a_orders[(p, m)] = order
        self.f_inputs = []
        for _ in range(self.cfg["f_tuples"]):
            n = rng.randint(2, 3)
            p, m = rng.choice([(3, 2), (3, 3), (5, 2)])
            units = [x for x in range(1, 3 * p) if x % p]
            lams = tuple(rng.choice(units) for _ in range(n))
            lnext = rng.choice(units)
            r = rng.randint(0, m - 2)
            ls = tuple(rng.choice([x for x in range(-9, 10) if x % p]) for _ in range(n))
            self.f_inputs.append((lams, lnext, p, m, r, ls))

    def run(self, tracer):
        cs, PPM = self.lib.charsums, self.lib.modmath.PrimePowerModulus
        DiagonalForm = self.lib.densities.DiagonalForm
        gauss = {}
        for p, m in self.cfg["gauss"]:
            mod = PPM(p, m)
            c = mod.q
            vals = np.full((c, c), np.nan, dtype=complex)
            g = cs.gauss_sum_closed
            with tracer.span(f"gauss-sweep {p}^{m}"):
                for a in self.a_orders[(p, m)]:
                    row = _guard(self.errors, f"gauss a={a} mod {c}",
                                 lambda: [g(a, b, mod).to_complex() for b in range(c)])
                    if row is not None:
                        vals[a] = row
            gauss[(p, m)] = vals
        kloosterman = {}
        for p, m in self.cfg["kloosterman"]:
            mod = PPM(p, m)
            c = mod.q
            k0 = np.full((c, c), np.nan, dtype=complex)
            k1 = np.full((c, c), np.nan, dtype=complex)
            kc, sc = cs.kloosterman_closed, cs.salie_closed
            with tracer.span(f"kloosterman-salie-sweep {p}^{m}"):
                for a in self.a_orders[(p, m)]:
                    bs = [b for b in range(c) if a % p or b % p]
                    row0 = _guard(self.errors, f"kloosterman a={a} mod {c}",
                                  lambda: [kc(a, b, mod).to_complex() for b in bs])
                    row1 = _guard(self.errors, f"salie a={a} mod {c}",
                                  lambda: [sc(a, b, mod).to_complex() for b in bs])
                    if row0 is not None:
                        k0[a, bs] = row0
                    if row1 is not None:
                        k1[a, bs] = row1
            kloosterman[(p, m)] = (k0, k1)
        kernel = []
        with tracer.span("F-kernel-batch"):
            for lams, lnext, p, m, r, ls in self.f_inputs:
                form = DiagonalForm(lams, lnext)
                mod = PPM(p, m)
                k = tuple(p**r * x for x in ls)
                bf = _guard(self.errors, "F_bruteforce", cs.F_bruteforce, k, form, mod, budget=BUDGET)
                cf = _guard(self.errors, "F_closed", cs.F_closed, r, ls, form, mod)
                kernel.append((bf, cf))
        return {"gauss": gauss, "kloosterman": kloosterman, "kernel": kernel}

    def check(self, outputs) -> Checks:
        cs = self.lib.charsums
        chk = Checks()
        sample = random.Random(f"check:{self.name}:{self.seed}")
        for (p, m), vals in outputs["gauss"].items():
            c = p**m
            ns = np.arange(c, dtype=np.int64)
            a = ns[:, None]
            # one inverse DFT per a gives the whole b-row of literal sums
            want = np.fft.ifft(np.exp(2j * np.pi * ((a * (ns * ns % c)[None, :]) % c) / c), axis=1) * c
            chk.attempted += c * c
            chk.compare_array(vals, want, np.maximum(np.abs(want), math.sqrt(c)), 1e-8, f"gauss mod {c}")
            for _ in range(8):
                a0, b0 = sample.randrange(c), sample.randrange(c)
                brute = cs.gauss_sum_bruteforce(a0, b0, c)
                chk.compare(brute, want[a0, b0], math.sqrt(c), 1e-8, f"gauss brute ({a0},{b0}) mod {c}")
        for (p, m), (k0, k1) in outputs["kloosterman"].items():
            c = p**m
            units = [n for n in range(c) if n % p]
            inv = np.array([pow(n, -1, c) for n in units], dtype=np.int64)
            jac = np.array([_legendre(n, p) ** m for n in units], dtype=float)
            a = np.arange(c, dtype=np.int64)[:, None]
            s0 = np.zeros((c, c), dtype=complex)
            s0[:, units] = np.exp(2j * np.pi * ((a * inv[None, :]) % c) / c)
            s1 = np.zeros((c, c), dtype=complex)
            s1[:, units] = s0[:, units] * jac[None, :]
            want0 = np.fft.ifft(s0, axis=1) * c
            want1 = np.fft.ifft(s1, axis=1) * c
            admissible = (a % p != 0) | (np.arange(c)[None, :] % p != 0)
            chk.attempted += 2 * int(admissible.sum())
            scale = math.sqrt(c)
            chk.compare_array(k0[admissible], want0[admissible], scale, 1e-8, f"kloosterman mod {c}")
            chk.compare_array(k1[admissible], want1[admissible], scale, 1e-8, f"salie mod {c}")
            pairs = np.argwhere(admissible)
            for _ in range(8):
                a0, b0 = (int(x) for x in pairs[sample.randrange(len(pairs))])
                chk.compare(cs.kloosterman_bruteforce(a0, b0, c), want0[a0, b0], scale, 1e-8,
                            f"kloosterman brute ({a0},{b0}) mod {c}")
                chk.compare(cs.salie_bruteforce(a0, b0, c), want1[a0, b0], scale, 1e-8,
                            f"salie brute ({a0},{b0}) mod {c}")
        for bf, cf in outputs["kernel"]:
            chk.attempted += 1
            if bf is None or cf is None:
                chk.fail(1, "F kernel raised")
                continue
            chk.compare(cf, bf, max(1.0, abs(bf)), 1e-6, "F_closed vs F_bruteforce")
        return chk


# ---------------------------------------------------------------------------
# six-square-count


class SixSquareCount(Workload):
    """The paper's headline weighted counts, direct and spectral, up to 5^6."""

    name = "six-square-count"
    weight_kinds = ("gaussian", "bump")
    sizes = {
        "full": {"inhom_m": (3, 4, 5, 6), "hom_m": (3, 4, 5, 6, 7)},
        "smoke": {"inhom_m": (2, 3), "hom_m": (3, 4)},
    }
    THETA_INHOM = 0.55
    THETA_HOM = 0.6
    # acceptance tolerances: criterion 8 (gap), 7 (T/T0), and criterion 6's
    # 0.15 for the homogeneous count once q >= 3^6; below that, 0.25 as for 7
    GAP_TOL = 0.01
    RATIO_TOL = 0.25
    HOM_RATIO_TOL = 0.15
    HOM_TIGHT_FROM_M = 6

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        rng = self.rng
        self.lams6 = tuple(rng.choice((1, 2, 3, 4)) for _ in range(6))
        self.lnext = rng.choice((1, 2, 3, 4))
        self.lams4 = tuple(rng.choice((1, 2)) for _ in range(4))

    def run(self, tracer):
        c, PPM = self.lib.counting, self.lib.modmath.PrimePowerModulus
        DiagonalForm = self.lib.densities.DiagonalForm
        form6 = DiagonalForm(self.lams6, self.lnext)
        out = {}
        for wname, w in self.weights().items():
            for m in self.cfg["inhom_m"]:
                mod = PPM(5, m)
                N = float(math.ceil(mod.q**self.THETA_INHOM))
                with tracer.span(f"inhom {wname} 5^{m}"):
                    out[("direct", wname, m)] = _guard(
                        self.errors, "direct", c.count_weighted_direct,
                        form6, mod, N, w, c.UNIT_COORDS, budget=BUDGET)
                    out[("spectral", wname, m)] = _guard(
                        self.errors, "spectral", c.count_weighted_spectral,
                        form6, mod, N, w, budget=BUDGET)
        form4 = DiagonalForm(self.lams4)
        w = self.lib.counting.gaussian_weight(1.0)
        for m in self.cfg["hom_m"]:
            mod = PPM(3, m)
            N = float(math.ceil(mod.q**self.THETA_HOM))
            with tracer.span(f"hom 3^{m}"):
                out[("hom", "gaussian", m)] = _guard(
                    self.errors, "hom", c.count_weighted_direct,
                    form4, mod, N, w, c.NOT_ALL_ZERO, strategy="histogram", budget=BUDGET)
        return {k: None if r is None else (r.T, r.T0, r.ratio, dict(r.cost)) for k, r in out.items()}

    def check(self, outputs) -> Checks:
        chk = Checks()
        gap_max = imag_max = 0.0
        for key, rep in outputs.items():
            with chk.op():
                if rep is None:
                    chk.fail(1, f"{key} raised")
                    continue
                kind, wname, m = key
                T, T0, ratio, cost = rep
                tight = kind == "hom" and m >= self.HOM_TIGHT_FROM_M
                tol = self.HOM_RATIO_TOL if tight else self.RATIO_TOL
                if not abs(ratio - 1.0) <= tol:
                    chk.fail(1, f"{key}: T/T0 = {ratio} outside 1 +- {tol}")
                direct = outputs.get(("direct", wname, m))
                if kind == "spectral" and direct is not None:
                    imag_max = max(imag_max, cost.get("imag_residual", 0.0) / abs(T))
                    gap_max = max(gap_max, abs(T - direct[0]) / abs(direct[0]))
                    chk.compare(T, direct[0], abs(direct[0]), self.GAP_TOL, f"spectral vs direct {wname} 5^{m}")
        chk.stats = {"direct_spectral_gap": gap_max, "imag_residual": imag_max}
        return chk


# ---------------------------------------------------------------------------
# scan-and-series


class ScanAndSeries(Workload):
    """Pure-Python root-sum loops, the GIL-bound scan pool and the singular series."""

    name = "scan-and-series"
    weight_kinds = ("gaussian",)
    sizes = {
        "full": {"primes": (5, 7), "s": range(2, 11), "trials": 150, "k_cap": 1000,
                 "series": ((4, 3), (4, 5), (6, 3), (6, 5)), "ks": 4, "q_max": 100,
                 "tau_k": 12001, "quad_M": 300, "root_checks": 12},
        "smoke": {"primes": (5,), "s": range(2, 6), "trials": 3, "k_cap": 100,
                  "series": ((4, 3),), "ks": 1, "q_max": 10,
                  "tau_k": 301, "quad_M": 20, "root_checks": 3},
    }
    TAU_N = 2.0  # box scale of the tau_n call: keeps the Fourier weights O(1)

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        rng = self.rng
        cfg = self.cfg
        self.scan_seed = rng.randrange(2**31)
        self.ks = sorted(rng.sample(range(1, 60), cfg["ks"]))
        self.tau_k = cfg["tau_k"] + 3 * rng.randrange(100)  # k = 1 mod 3: unit coordinates
        # alphas >= 50 make a * l^2 wrap mod c for l near M, so the pair-sum
        # histograms touch all their pages and peak_rss_mb does not depend on the seed
        self.alphas = tuple(rng.choice([a for a in range(50, 100) if a % 3]) for _ in range(4))
        M = cfg["quad_M"]
        self.quad_c = 3 ** (1 + math.ceil(math.log(8 * M * M) / math.log(3)))
        self.quad_b = rng.randrange(self.quad_c)
        self.integral_k = rng.uniform(0.5, 2.0)

    def run(self, tracer):
        se, rp = self.lib.sqrt_expsums, self.lib.representations
        PPM = self.lib.modmath.PrimePowerModulus
        cfg = self.cfg
        err = self.errors
        threads = os.cpu_count() or 1
        scans = {}
        scan_s = {}
        for n_threads in (1, threads):
            t0 = time.perf_counter()
            for p in cfg["primes"]:
                with tracer.span(f"bound_scan p={p} threads={n_threads}"):
                    rows = _guard(err, "bound_scan", se.bound_scan, p, cfg["s"], cfg["trials"],
                                  self.scan_seed, k_cap=cfg["k_cap"], threads=n_threads, budget=BUDGET)
                scans[(p, n_threads)] = None if rows is None else [(r.params, r.value, r.normalized) for r in rows]
            scan_s[n_threads] = time.perf_counter() - t0
        self.stats["thread_speedup"] = scan_s[1] / scan_s[threads]
        series = {}
        with tracer.span("singular-series-grid"):
            for n, p in cfg["series"]:
                dual = rp.DualForm((1,) * n)
                for k in self.ks:
                    data = _guard(err, "singular_series", rp.singular_series, k, dual, p, cfg["q_max"], budget=BUDGET)
                    series[(n, p, k)] = None if data is None else (data.partial_sum, dict(data.coefficients))
        w = self.lib.counting.gaussian_weight(1.0)
        with tracer.span("tau-cone-descent"):
            tau = _guard(err, "tau_n", rp.tau_n, self.tau_k, rp.DualForm((1, 1, 1, 1)), 0, w,
                         PPM(3, 5), self.TAU_N, budget=BUDGET)
        with tracer.span("quadruple-count"):
            quad = _guard(err, "quadruple_count", rp.quadruple_count, self.alphas, self.quad_b,
                          self.quad_c, cfg["quad_M"], p=3, budget=BUDGET)
        with tracer.span("singular-integral"):
            integral = _guard(err, "singular_integral", rp.singular_integral, self.integral_k, 1.0,
                              rp.DualForm((1,) * 6), w)
        return {"scans": scans, "series": series, "tau": tau, "quad": quad, "integral": integral}

    def check(self, outputs) -> Checks:
        chk = Checks()
        lib = self.lib
        sample = random.Random(f"check:{self.name}:{self.seed}")
        threads = os.cpu_count() or 1
        for p in self.cfg["primes"]:
            rows = outputs["scans"][(p, 1)]
            with chk.op():
                if rows is None:
                    chk.fail(1, f"bound_scan p={p} threads=1 raised")
                else:
                    if not max(r[2] for r in rows) < 10.0:
                        chk.fail(1, f"bound_scan p={p}: normalized sum >= 10")
                    for _ in range(self.cfg["root_checks"]):
                        ps, value, _ = rows[sample.randrange(len(rows))]
                        want = _root_sum_oracle(ps, lib.modmath)
                        chk.compare(value, want, max(1.0, abs(want)), 1e-9, f"root sum {ps}")
            with chk.op():
                if rows is None or outputs["scans"][(p, threads)] != rows:
                    chk.fail(1, f"bound_scan p={p}: threads={threads} rows differ from threads=1")
        rp = lib.representations
        for (n, p, k), data in outputs["series"].items():
            with chk.op():
                if data is None:
                    chk.fail(1, f"singular_series n={n} p={p} k={k} raised")
                    continue
                partial, coeffs = data
                if not max(abs(a) * q ** (n / 2.0 - 1.0) for q, a in coeffs.items()) < 100.0:
                    chk.fail(1, f"singular series n={n} p={p} k={k}: |a_q| q^(n/2-1) >= 100")
                chk.compare(partial, math.fsum(coeffs.values()), 1.0, 1e-9, "partial sum")
                if k == self.ks[0]:
                    dual = rp.DualForm((1,) * n)
                    for q in (1, 2, 3):
                        if q in coeffs and (p * q) ** n * q <= 60_000:
                            chk.compare(coeffs[q], rp.singular_coefficient_naive(q, k, dual, p), 1.0, 1e-9,
                                        f"a_{q}({k}) n={n} p={p} vs naive")
        with chk.op():
            if outputs["tau"] is None:
                chk.fail(1, "tau_n raised")
            else:
                scale = self.TAU_N / 3**5
                want = _tau_oracle(self.tau_k, (1, 1, 1, 1), 3, lambda v: np.exp(-np.pi * (scale * v) ** 2))
                chk.compare(outputs["tau"], want, abs(want), 1e-9, f"tau_n({self.tau_k})")
        with chk.op():
            if outputs["quad"] is None:
                chk.fail(1, "quadruple_count raised")
            else:
                M = self.cfg["quad_M"]
                if not outputs["quad"] / (M * M) < 100.0:
                    chk.fail(1, "quadruple count / M^2 >= 100")
                for m_small in (5, 8, 12):
                    c = 3 ** (1 + math.ceil(math.log(8 * m_small * m_small) / math.log(3)))
                    b = self.quad_b % c
                    got = rp.quadruple_count(self.alphas, b, c, m_small, p=3)
                    chk.compare(got, _quad_oracle(self.alphas, b, c, m_small), 1.0, 0.0,
                                f"quadruple count M={m_small}")
        with chk.op():
            if outputs["integral"] is None:
                chk.fail(1, "singular_integral raised")
            else:
                t, n = self.integral_k, 6
                want = math.exp(-math.pi * t) * math.pi ** (n / 2) * t ** (n / 2 - 1) / math.gamma(n / 2)
                chk.compare(outputs["integral"], want, want, 1e-9, "singular integral")
        return chk


def _root_sum_oracle(ps, modmath) -> complex:
    """The root sum with every root taken from sqrt_classes_mod_prime_power."""
    p, s = ps.p, ps.s
    q = p**s
    mod = modmath.PrimePowerModulus(p, s)
    k0 = ps.b % ps.c or ps.c
    total = 0j
    for k in range(k0, ps.K + 1, ps.c):
        if k % p == 0:
            continue
        for u in modmath.sqrt_classes_mod_prime_power(k * ps.Lambda % q, mod).members():
            if ps.a is not None and u % p != ps.a % p:
                continue
            twist = _legendre(u, p) if (ps.mu == 1 and s % 2 == 1 and ps.a is None) else 1
            total += twist * complex(math.cos(2 * math.pi * u / q), math.sin(2 * math.pi * u / q))
    if ps.a is not None and ps.mu == 1 and s % 2 == 1:
        total *= _legendre(ps.a, p)
    return total


def _tau_oracle(k: int, deltas: tuple[int, ...], p: int, weight) -> float:
    """Weighted unit-coordinate representations of k, meet in the middle."""
    half = len(deltas) // 2

    def table(ds):
        sums = np.zeros(1, dtype=np.int64)
        wts = np.ones(1)
        for d in ds:
            vs = np.arange(1, math.isqrt(k // d) + 1, dtype=np.int64)
            vs = vs[vs % p != 0]
            sums = (sums[:, None] + d * vs[None, :] ** 2).ravel()
            wts = (wts[:, None] * 2.0 * weight(vs)[None, :]).ravel()
            keep = sums <= k
            sums, wts = sums[keep], wts[keep]
        return np.bincount(sums, weights=wts, minlength=k + 1)

    left, right = table(deltas[:half]), table(deltas[half:])
    return float(np.dot(left, right[::-1]))


def _quad_oracle(alphas, b: int, c: int, M: int) -> int:
    ls = np.arange(-M, M + 1, dtype=np.int64)
    grids = np.meshgrid(*([ls] * 4), indexing="ij")
    vals = sum(a * g * g for a, g in zip(alphas, grids))
    return int(((vals - b) % c == 0).sum())


# ---------------------------------------------------------------------------
# cli-readme

# The CLI examples of README.md, frozen so the workload only changes when the
# benchmark does; the smoke checks flag drift between the two.
README_LINES = (
    "congruence-lab eval-gauss 1 0 5 1 --format json",
    "congruence-lab eval-kloosterman 1 1 3 2 --salie",
    "congruence-lab density C --lambda 1 1 1 --p 5",
    "congruence-lab density B --lambda 1 1 2 --p 5",
    "congruence-lab count --mode inhom --lambda 1 1 2 --p 5 --m 2 --N 25",
    "congruence-lab count --mode hom --lambda 1 1 1 1 --p 3 --m 5 --theta 0.6",
    "congruence-lab count --mode inhom --lambda 1 1 2 --p 5 --m 2 --N 25 --method spectral",
    "congruence-lab verify-asymptotic --mode hom --lambda 1 1 1 1 --p 3 --m-range 3..6 --theta 0.6",
    "congruence-lab expsum-scan --p 3 --s-range 2..10 --trials 50 --seed 1 --format csv",
    "congruence-lab tau 2 --deltas 1 1 --p 3 --m 5 --N 10",
    "congruence-lab singular-series 1 --deltas 1 1 1 1 --p 3 --q-max 50",
    "congruence-lab quad-count --alphas 1 1 1 1 --b 4 --s 4 --M 1",
    "congruence-lab selftest --quick",
)
# README.md has no bump-weight example; without one the cold bump tables and
# the scalar enumerate path a CLI user pays for would go unmeasured.
EXTRA_LINES = ("congruence-lab count --mode inhom --lambda 1 1 2 --p 5 --m 2 --N 25 --weight bump --radius 0.5",)
SMOKE_LINES = (README_LINES[0], README_LINES[3], README_LINES[11])


class CliReadme(Workload):
    """Every README CLI example, each in a fresh interpreter, one at a time."""

    name = "cli-readme"
    weight_kinds = ("gaussian", "bump")
    sizes = {"full": {"lines": README_LINES + EXTRA_LINES}, "smoke": {"lines": SMOKE_LINES}}
    uses_children = True

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        self.lines = list(self.cfg["lines"])
        self.rng.shuffle(self.lines)

    def import_library(self) -> None:
        super().import_library()
        import congruence_lab.cli  # noqa: F401  (a CLI user's setup includes it)

    def run(self, tracer):
        traced = getattr(tracer, "spans_path", None) is not None
        results = []
        process_s = {}
        for i, line in enumerate(self.lines):
            argv = shlex.split(line)[1:]
            if traced:
                agg_path = os.path.join(os.path.dirname(tracer.spans_path), f"child-{os.getpid()}-{i}.json")
                cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), agg_path, tracer.spans_path, "--", *argv]
            else:
                cmd = [sys.executable, "-m", "congruence_lab.cli", *argv]
            rc, stdout, stderr, dt = self.launcher.run(cmd)
            process_s[argv[0]] = process_s.get(argv[0], 0.0) + dt
            results.append((line, rc, stdout, stderr))
            if traced and os.path.exists(agg_path):
                with open(agg_path) as fh:
                    child = json.load(fh)
                os.remove(agg_path)
                tracer.absorb(child["aggs"], child["counters"])
        self.stats["process_s"] = process_s
        return results

    def check(self, outputs) -> Checks:
        chk = Checks()
        for line, rc, stdout, stderr in outputs:
            with chk.op():
                if rc != 0 or "Traceback" in stderr:
                    chk.fail(1, f"{line}: exit {rc}: {stderr.strip()[-200:]}")
                    continue
                try:
                    _cli_oracle(self.lib, shlex.split(line)[1:], stdout, chk)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    chk.fail(1, f"{line}: unparsable report ({exc})")
        return chk


def _gaussian_count_oracle(lams, target: int, p: int, m: int, N: float, units_only: bool) -> tuple[float, float]:
    """(T, T0) for the Gaussian weight (sigma 1) by an FFT histogram convolution."""
    q = p**m
    X = math.ceil(7 * N)  # the weight is below e^-150 beyond 7N
    xs = np.arange(-X, X + 1, dtype=np.int64)
    w = np.exp(-np.pi * (xs / N) ** 2)

    def part(mask):
        spec = np.ones(q, dtype=complex)
        for lam in lams:
            hist = np.bincount((lam * (xs[mask] ** 2 % q)) % q, weights=w[mask], minlength=q)
            spec *= np.fft.fft(hist)
        return float(np.fft.ifft(spec).real[target % q])

    if units_only:
        T = part(xs % p != 0)
    else:
        T = part(np.ones(len(xs), dtype=bool)) - part(xs % p == 0)
    n = len(lams)
    residues = range(1, p) if units_only else range(p)
    count = sum(
        1 for x in itertools.product(residues, repeat=n)
        if sum(l * v * v for l, v in zip(lams, x)) % p == target % p
    )
    if not units_only and target % p == 0:
        count -= 1
    T0 = count / p ** (n - 1) * N**n / q
    return T, T0


def _cli_oracle(lib, argv: list[str], stdout: str, chk: Checks) -> None:
    """Compare one CLI report with an independent computation of its numbers."""
    verb = argv[0]
    opts = _options(argv)
    if verb == "selftest":
        lines = stdout.strip().splitlines()
        if not (lines and lines[-1].startswith("selftest: PASS") and all(l.startswith("ok ") for l in lines[:-1])):
            chk.fail(1, "selftest did not pass")
        return
    if verb == "expsum-scan":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        want = lib.sqrt_expsums.bound_scan(
            int(opts["p"]), _range(opts["s-range"]), int(opts["trials"]), int(opts["seed"]))
        if len(rows) != len(want):
            chk.fail(1, f"expsum-scan: {len(rows)} rows, want {len(want)}")
            return
        for row, ref in zip(rows, want):
            got = complex(float(row["re"]), float(row["im"]))
            chk.compare(got, ref.value, max(1.0, abs(ref.value)), 1e-9, "expsum-scan row")
        return
    report = json.loads(stdout)
    lam = [int(v) for v in opts.get("lambda", "").split()]
    if verb == "eval-gauss":
        a, b, p, m = (int(v) for v in argv[1:5])
        c = p**m
        n = np.arange(c)
        want = complex(np.exp(2j * np.pi * ((a * n * n + b * n) % c) / c).sum())
        chk.compare(complex(report["re"], report["im"]), want, math.sqrt(c), 1e-9, "eval-gauss")
    elif verb == "eval-kloosterman":
        a, b, p, m = (int(v) for v in argv[1:5])
        c = p**m
        want = sum(
            (_legendre(n, p) ** m if "salie" in opts else 1)
            * np.exp(2j * np.pi * ((a * pow(n, -1, c) + b * n) % c) / c)
            for n in range(c) if n % p
        )
        chk.compare(complex(report["re"], report["im"]), want, math.sqrt(c), 1e-9, "eval-kloosterman")
    elif verb == "density":
        p = int(opts["p"])
        which = argv[1]
        coeffs, target = (lam, 0) if which == "C" else (lam[:-1], lam[-1])
        count = sum(
            1 for x in itertools.product(range(1, p), repeat=len(coeffs))
            if (sum(l * v * v for l, v in zip(coeffs, x)) - target) % p == 0
        )
        want = Fraction(count, p * p) if which == "C" else Fraction(count, p ** (len(coeffs) - 1))
        got = Fraction(report["num"], report["den"])
        chk.compare(float(got), float(want), 1.0, 0.0, f"density {which}")
    elif verb == "count" and opts.get("weight", "gaussian") == "bump":
        c = lib.counting
        form = lib.densities.DiagonalForm(tuple(lam[:-1]), lam[-1])
        mod = lib.modmath.PrimePowerModulus(int(opts["p"]), int(opts["m"]))
        ref = c.count_weighted_direct(form, mod, float(opts["N"]), c.bump_pair_weight(float(opts["radius"])),
                                      c.UNIT_COORDS, strategy="histogram")
        chk.compare(report["T"], ref.T, abs(ref.T), 1e-9, "bump count T")
        chk.compare(report["T0"], ref.T0, abs(ref.T0), 1e-9, "bump count T0")
    elif verb in ("count", "verify-asymptotic"):
        p = int(opts["p"])
        inhom = opts["mode"] == "inhom"
        coeffs, target = (lam[:-1], lam[-1]) if inhom else (lam, 0)
        rows = report["rows"] if verb == "verify-asymptotic" else [report]
        ms = list(_range(opts["m-range"])) if verb == "verify-asymptotic" else [int(opts["m"])]
        for row, m in zip(rows, ms):
            N = float(opts["N"]) if "N" in opts else float(math.ceil((p**m) ** float(opts["theta"])))
            T, T0 = _gaussian_count_oracle(coeffs, target, p, m, N, units_only=inhom)
            tol = 1e-6 if opts.get("method") == "spectral" else 1e-9
            chk.compare(row["T"], T, abs(T), tol, f"{verb} m={m} T")
            chk.compare(row["T0"], T0, abs(T0), 1e-9, f"{verb} m={m} T0")
        if len(rows) != len(ms):
            chk.fail(1, f"{verb}: {len(rows)} rows, want {len(ms)}")
    elif verb == "tau":
        p, m, N = int(opts["p"]), int(opts["m"]), float(opts["N"])
        deltas = tuple(int(v) for v in opts["deltas"].split())
        scale = N / p**m
        want = _tau_oracle(int(argv[1]), deltas, p, lambda v: np.exp(-np.pi * (scale * v) ** 2))
        chk.compare(report["tau"], want, max(abs(want), 1e-300), 1e-9, "tau")
    elif verb == "singular-series":
        rp = lib.representations
        p = int(opts["p"])
        dual = rp.DualForm(tuple(int(v) for v in opts["deltas"].split()))
        k = int(argv[1])
        ref = rp.singular_series(k, dual, p, int(opts["q-max"]))
        chk.compare(report["partial_sum"], ref.partial_sum, 1.0, 1e-9, "singular-series partial sum")
        for q in (1, 2, 3):
            chk.compare(report["coefficients"][str(q)], rp.singular_coefficient_naive(q, k, dual, p), 1.0, 1e-9,
                        f"singular-series a_{q} vs naive")
    elif verb == "quad-count":
        alphas = tuple(int(v) for v in opts["alphas"].split())
        c = int(opts["p"]) ** int(opts["s"]) if "p" in opts else 3 ** int(opts["s"])
        want = _quad_oracle(alphas, int(opts["b"]), c, int(opts["M"]))
        chk.compare(report["count"], want, 1.0, 0.0, "quad-count")
    else:
        chk.fail(1, f"no oracle for verb {verb}")


def _options(argv: list[str]) -> dict[str, str]:
    """--key value [value ...] pairs of a CLI line; bare flags map to ''."""
    opts: dict[str, str] = {}
    key = None
    for tok in argv[1:]:
        if tok.startswith("--"):
            key = tok[2:]
            opts[key] = ""
        elif key is not None:
            opts[key] = f"{opts[key]} {tok}".strip()
    return opts


def _range(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi) + 1)


WORKLOADS = {cls.name: cls for cls in (CharsumSweep, SixSquareCount, ScanAndSeries, CliReadme)}
