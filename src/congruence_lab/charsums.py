"""Quadratic Gauss, Kloosterman and Salie sums modulo odd prime powers.

Each sum has a brute-force evaluator (the oracle: the literal finite sum)
and a closed form.  The closed forms factor out gcds, detect the vanishing
patterns, and express the remainder as sign * eps * sqrt(c) * root of unity,
so the two routes can be compared exactly in tests.

A closed value is one shared tuple that carries its complex value.  A Gauss
value, for moduli up to 2048, sits in a phase table, a list indexed by the one
field that b moves (see ``_phase_table``); a Kloosterman/Salie value sits with
the root of u^2 = ab that fixes it, at every modulus (see ``_root_part``).
What a closed form caches is found by one ``dict.get`` on an int key.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .densities import DiagonalForm
from .errors import UnsupportedCase, ValidationError, charge, require_int, resolve_budget
from .modmath import (
    PrimePowerModulus,
    Residue,
    TWO_PI,
    epsilon_c,
    invmod,
    jacobi_symbol,
    lift_sqrt_array,
    prime_tables,
    unit_root,
    valuation,
)


class ExactCharSum(NamedTuple):
    """Symbolic value rational_factor * sign * eps * sqrt(sqrt_arg) * e(phase).

    ``rational_factor`` is the integer pulled out by the gcd reduction,
    the factor (a, c).  A zero sum is flagged and every other field is
    ignored.
    """

    is_zero: bool
    rational_factor: int = 0
    sign: int = 1
    eps: complex = 1.0 + 0.0j
    sqrt_arg: int = 1
    phase_num: int = 0
    phase_den: int = 1

    def to_complex(self) -> complex:
        is_zero, factor, sign, eps, sqrt_arg, phase_num, phase_den = self
        if is_zero:
            return 0.0 + 0.0j
        if phase_den < 1:
            raise ValidationError("q must be positive")
        return factor * sign * eps * math.sqrt(sqrt_arg) * unit_root(phase_num % phase_den, phase_den)


class KloostermanClosedForm(NamedTuple):
    """Closed Kloosterman/Salie value p^(s/2) * sum of unit-coefficient terms.

    Each term is (coefficient, phase numerator), the coefficient a complex
    unit (+-1, +-i, possibly carrying a Jacobi sign and eps factor) and the
    phase evaluated as e(phase / p^s).  At most two terms occur.
    """

    is_zero: bool
    p: int = 3
    s: int = 1
    terms: tuple[tuple[complex, int], ...] = ()

    def to_complex(self) -> complex:
        is_zero, p, s, terms = self
        if is_zero:
            return 0.0 + 0.0j
        c = p**s
        scale = math.sqrt(c)
        if terms and c < 1:
            raise ValidationError("q must be positive")
        return scale * sum(coeff * unit_root(phase % c, c) for coeff, phase in terms)


class _Shared:
    """Mixin for a closed value built once to be shared: it carries its
    complex value, and its repr, copies, pickles and ``_make``/``_replace``
    results are those of the NamedTuple ``_plain`` it extends.

    Its ``to_complex`` is the instance attribute ``z.__pos__`` of its complex
    value z: unary plus hands back z itself, in C, so reading the value runs
    no Python frame.  The attribute shadows the plain class's method."""

    @classmethod
    def _build(cls, fields: tuple):
        value = tuple.__new__(cls, fields)
        value.to_complex = cls._plain.to_complex(value).__pos__
        return value

    @classmethod
    def _make(cls, iterable):
        return cls._plain._make(iterable)

    def __repr__(self) -> str:
        return repr(self._plain._make(self))

    def __reduce__(self):
        return self._plain, tuple(self)


_SharedCharSum = type("_SharedCharSum", (_Shared, ExactCharSum), {"_plain": ExactCharSum})
_SharedKloosterman = type("_SharedKloosterman", (_Shared, KloostermanClosedForm), {"_plain": KloostermanClosedForm})
ZERO_CHAR_SUM = ExactCharSum(is_zero=True)
ZERO_KLOOSTERMAN = KloostermanClosedForm(is_zero=True)
_SHARED_ZERO_CHAR_SUM = _SharedCharSum._build(ZERO_CHAR_SUM)
_SHARED_ZERO_KLOOSTERMAN = _SharedKloosterman._build(ZERO_KLOOSTERMAN)


def _phase_array(c: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(c) / c)


def _brute_args(a: int, b: int, c: int, odd: bool) -> tuple[int, int, int]:
    """(a mod c, b mod c, c) as Python ints, for a positive c, odd if asked."""
    a, b, c = require_int("a", a), require_int("b", b), require_int("c", c)
    if c < 1 or (odd and c % 2 == 0):
        raise ValidationError(f"modulus must be {'odd and ' if odd else ''}positive")
    return a % c, b % c, c


def gauss_sum_bruteforce(a: int, b: int, c: int) -> complex:
    """G(a, b, c) = sum over n mod c of e_c(a*n^2 + b*n), term by term."""
    a, b, c = _brute_args(a, b, c, odd=False)
    n = np.arange(c, dtype=np.int64)
    phases = (a * ((n * n) % c) + b * n) % c
    return complex(_phase_array(c)[phases].sum())


# Distinct keys seen per modulus are at most c, so every a mod p^m for
# p^m <= 4096 stays cached; the bound keeps memory fixed on wider sweeps.
_CACHE_SIZE = 4096


def _store(cache: dict, key: int, value):
    """cache[key] = value, the cache first emptied if it holds _CACHE_SIZE entries.
    No lock is taken: racing threads can pass the cap by one entry each, until
    the next emptying."""
    if len(cache) >= _CACHE_SIZE:
        cache.clear()
    cache[key] = value
    return value


# A modulus q has at most ~1.2 q distinct Gauss values (counted over full
# (a, b) grids up to 31^2), so up to _SHARED_MAX_Q each value is built once and
# kept in a phase table.  Larger moduli build their Gauss values per call:
# keeping them would empty the tables over and over (five rows mod 5^6 took
# 1.9x as long).
_SHARED_MAX_Q = _CACHE_SIZE // 2


def _phase_table(key: tuple, size: int) -> list:
    """The Gauss phase table for key, made with size empty slots on first use.
    The tables hold at most _CACHE_SIZE slots: a table that would pass that
    first empties them and ``_gauss_parts``, the cache that holds them, so
    a long-lived process keeps sharing the values of the moduli it sweeps now.
    No lock is taken: a race can only build two equal values, or leave the
    cache a table that the next emptying drops."""
    table = _gauss_tables.get(key)
    if table is None:
        if sum(map(len, _gauss_tables.values())) + size > _CACHE_SIZE:
            _gauss_tables.clear()
            _gauss_parts.clear()
        table = _gauss_tables.setdefault(key, [None] * size)
    return table


_gauss_tables: dict[tuple[int, int, int], list] = {}
# The closed-form caches, each keyed by one int that fixes its arguments.  A
# residue 0 <= r < c keys as c^2 + r: the keys of c lie in [c^2, c^2 + c),
# below (c + 1)^2, so no two moduli share one.
_gauss_parts: dict[int, tuple] = {}  # (a, c) at c^2 + a
_roots: dict[int, tuple] = {}  # (r, p^m) at c^2 + r
_modulus_parts: dict[int, tuple] = {}  # (p^m, twisted) at 2 c + twisted


def _gauss_unit_part(a: int, c: int) -> tuple[int, int, int, int, complex, list | None]:
    """(d, c', -(4a')^{-1} mod c', (a'/c'), eps_{c'}, values) for 0 <= a < c, where
    d = (a, c), a' = a/d and c' = c/d: everything in G(a, b, c) but b.
    At a = 0 this is (c, 1, 0, 1, 1, values), the linear sum's c * e(0).
    values is the phase table of (c, c', sign), None for c > _SHARED_MAX_Q.
    Kept in _gauss_parts, which ``gauss_sum_closed`` reads directly."""
    part = _gauss_parts.get(c * c + a)
    if part is None:
        d = math.gcd(a, c)
        a1, c1 = a // d, c // d
        sign = jacobi_symbol(a1, c1)
        values = _phase_table((c, c1, sign), c1) if c <= _SHARED_MAX_Q else None
        part = _store(_gauss_parts, c * c + a, (d, c1, -invmod(4 * a1, c1) % c1, sign, epsilon_c(c1), values))
    return part


def gauss_sum_closed(a: int, b: int, modulus: PrimePowerModulus) -> ExactCharSum:
    """Closed form of G(a, b, p^m) for odd prime powers.

    The gcd d = (a, c) is factored out first; the sum vanishes unless d | b,
    and otherwise equals d * (a'/c') * eps_{c'} * sqrt(c') * e(-(4a')^{-1} b'^2 / c').
    At c | a that is the linear sum, c when c | b.  The part that does not
    depend on b is cached per (a mod c, c), and for c <= 2048 equal values
    are one shared tuple, found by its phase.
    """
    if type(a) is not int or type(b) is not int:
        a, b = require_int("a", a), require_int("b", b)
    c = modulus.q
    a %= c
    d, c1, neg_inv, sign, eps, values = _gauss_parts.get(c * c + a) or _gauss_unit_part(a, c)
    if d != 1:
        b %= c
        if b % d:
            return _SHARED_ZERO_CHAR_SUM
        b //= d
    phase = neg_inv * b * b % c1
    if values is None:
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        return tuple.__new__(ExactCharSum, (False, d, sign, eps, c1, phase, c1))
    value = values[phase]
    if value is None:
        value = values[phase] = _SharedCharSum._build((False, d, sign, eps, c1, phase, c1))
    return value


def kloosterman_bruteforce(a: int, b: int, c: int) -> complex:
    """K0(a, b, c): sum over units n mod c of e_c(a*nbar + b*n)."""
    a, b, c = _brute_args(a, b, c, odd=True)
    total = 0.0 + 0.0j
    phases = _phase_array(c)
    for n in range(c):
        if math.gcd(n, c) != 1:
            continue
        total += phases[(a * pow(n, -1, c) + b * n) % c]
    return total


def salie_bruteforce(a: int, b: int, c: int) -> complex:
    """K1(a, b, c): the Kloosterman sum twisted by the Jacobi symbol (n/c)."""
    a, b, c = _brute_args(a, b, c, odd=True)
    total = 0.0 + 0.0j
    phases = _phase_array(c)
    for n in range(c):
        sign = jacobi_symbol(n, c)
        if sign == 0:
            continue
        total += sign * phases[(a * pow(n, -1, c) + b * n) % c]
    return total


def _root_part(r: int, p: int, m: int) -> tuple:
    """(v, values) for a unit 0 < r < p^m, () when r is a non-residue: v < p^m/2
    is the smaller root of u^2 = r, and values has three slots, K0, K1 with
    sign 1 and K1 with sign -1 of every (a, b) with ab = r, each filled on
    first use.  So K0/K1 values are shared at every modulus, at most three per
    cached root.  Kept in _roots, where a missing root reads None and a
    cached non-residue the falsy (), so that it never runs the lift again."""
    c = p**m
    part = _roots.get(c * c + r)
    if part is None:
        if prime_tables(p).root[r % p] < 0:
            part = ()
        else:
            v = int(lift_sqrt_array(np.array([r], dtype=object), None, p, m)[0])
            part = min(v, c - v), [None] * 3
        _store(_roots, c * c + r, part)
    return part


def _kloosterman_modulus_part(p: int, m: int, twisted: bool) -> tuple[complex, int, tuple[int, ...]]:
    """(eps_c, flip, ((x/c) = (x/p)^m for x mod p)) at c = p^m: the roots v, c - v
    of u^2 = ab add eps_c sign (e_c(2v) + flip e_c(-2v)) to the closed K0/K1
    body, with sign = (v/c), flip = (-1/c) for K0 and sign = (b/c), flip = 1 for K1.
    Kept in _modulus_parts."""
    c = p**m
    part = _modulus_parts.get(2 * c + twisted)
    if part is None:
        twist = tuple(int(sign) ** m for sign in prime_tables(p).legendre)
        part = _store(_modulus_parts, 2 * c + twisted, (epsilon_c(c), 1 if twisted else jacobi_symbol(-1, c), twist))
    return part


def _closed_kloosterman_salie(a: int, b: int, modulus: PrimePowerModulus, twisted: bool) -> KloostermanClosedForm:
    """Closed K0 (twisted=False) or K1 (twisted=True) at c = p^s, s >= 2.

    With p dividing neither a nor b, both are sums over the roots u of
    u^2 = ab mod c, empty when ab is a non-residue mod p:
    K0(a, b, c) = eps_c sqrt(c) sum_u (u/c) e_c(2u) and
    K1(a, b, c) = eps_c (b/c) sqrt(c) sum_u e_c(2u).
    """
    if type(a) is not int or type(b) is not int:
        a, b = require_int("a", a), require_int("b", b)
    p, m, c = modulus.p, modulus.m, modulus.q
    if m < 2:
        raise UnsupportedCase(f"closed {'Salie' if twisted else 'Kloosterman'} form needs exponent m >= 2")
    a %= c
    b %= c
    if a % p == 0 or b % p == 0:
        if a % p == 0 and b % p == 0:
            raise UnsupportedCase("p divides both arguments; use the brute-force sum")
        return _SHARED_ZERO_KLOOSTERMAN
    r = a * b % c
    root = _roots.get(c * c + r)
    if root is None:
        root = _root_part(r, p, m)
    if not root:
        return _SHARED_ZERO_KLOOSTERMAN
    v, values = root  # the roots are v < c/2 and c - v
    eps, flip, twist = _modulus_parts.get(2 * c + twisted) or _kloosterman_modulus_part(p, m, twisted)
    sign = twist[(b if twisted else v) % p]
    slot = sign if twisted else 0  # K0 in slot 0, K1 in slot 1 or -1 by its sign
    value = values[slot]
    if value is None:
        # grouping sign * (eps * flip) keeps the signed zeros of the reported coefficients
        terms = ((sign * eps, (2 * v) % c), (sign * (eps * flip), (-2 * v) % c))
        value = values[slot] = _SharedKloosterman._build((False, p, m, terms))
    return value


def kloosterman_closed(a: int, b: int, modulus: PrimePowerModulus) -> KloostermanClosedForm:
    """Closed K0(a, b, p^m) for m >= 2 and the gcd patterns with p | ab excluded
    on at most one side.

    Vanishes when ab is a non-residue mod p, and whenever exactly one of a, b
    is divisible by p.  Raises UnsupportedCase when p divides both.
    """
    return _closed_kloosterman_salie(a, b, modulus, twisted=False)


def salie_closed(a: int, b: int, modulus: PrimePowerModulus) -> KloostermanClosedForm:
    """Closed K1(a, b, p^m) for m >= 2, mirroring ``kloosterman_closed``."""
    return _closed_kloosterman_salie(a, b, modulus, twisted=True)


def restricted_sum_bruteforce(a: int, b: int, alpha: int, modulus: PrimePowerModulus) -> complex:
    """Sum of e_{p^n}(a/x + b*x) over x mod p^n restricted to x = alpha mod p."""
    p, c = modulus.p, modulus.q
    total = 0.0 + 0.0j
    phases = _phase_array(c)
    for x in range(alpha % p, c, p):
        if x % p == 0:
            continue
        total += phases[(a * pow(x, -1, c) + b * x) % c]
    return total


def cochrane_vanishes(a: int, b: int, alpha: Residue, modulus: PrimePowerModulus) -> bool:
    """True when the vanishing criterion for sums of e(f(x)/p^n), x = alpha mod p,
    applies to f(x) = a/x + b*x.

    Checks r = ord_p(f') <= n - 2 and that f'(alpha)/p^r is a unit mod p; a
    True return guarantees the restricted sum is exactly zero.  False means
    the criterion is inconclusive, not that the sum is nonzero.
    """
    p, n = modulus.p, modulus.m
    a, b = require_int("a", a), require_int("b", b)
    if alpha.modulus != p:
        raise ValidationError("alpha must be a residue mod p")
    if alpha.value % p == 0:
        raise ValidationError("alpha must be a unit mod p")
    if a == 0 and b == 0:
        return False
    # f'(x) = (b x^2 - a) / x^2, so ord_p(f') = min(v_p(a), v_p(b))
    vals = [valuation(x, p) for x in (a, b) if x != 0]
    r = min(vals)
    if r > n - 2:
        return False
    deriv_num = b * alpha.value * alpha.value - a
    if deriv_num == 0 or valuation(deriv_num, p) != r:
        return False
    return True


def F_bruteforce(
    k: tuple[int, ...],
    form: DiagonalForm,
    modulus: PrimePowerModulus,
    budget: int | None = None,
) -> complex:
    """Direct triple sum for the Poisson-dual kernel F(k).

    F(k) = sum over h mod q of e_q(-h * lam_{n+1}) times the product over j
    of the unit-restricted sums of e_q(h lam_j y^2 + k_j y).  Cost is
    O(q^2 * n); intended as an oracle for small moduli.
    """
    q, p = modulus.q, modulus.p
    n = form.n
    k = tuple(require_int("k_j", kj) for kj in k)
    if len(k) != n:
        raise ValidationError("frequency vector length must match the form")
    form.require_unit_coefficients(p)
    charge(q * q * n, resolve_budget(budget), "F brute force")
    phases = _phase_array(q)
    ys = np.array([y for y in range(q) if y % p != 0], dtype=np.int64)
    y2 = (ys * ys) % q
    hs = np.arange(q, dtype=np.int64)
    inner = np.empty((n, q), dtype=np.complex128)
    for j in range(n):
        lam = form.lambdas[j] % q
        kj = k[j] % q
        acc = np.zeros(q, dtype=np.complex128)
        for sq, y in zip(y2, ys):
            acc += phases[(hs * ((lam * sq) % q) + kj * y) % q]
        inner[j] = acc
    outer = phases[(-hs * (form.inhomogeneous_term % q)) % q]
    return complex((outer * inner.prod(axis=0)).sum())


def _dual_front(form: DiagonalForm, p: int, m: int, r: int) -> complex:
    """eps_c^n p^(n(m+r)/2) (lam_1...lam_n / c) at c = p^(m-r): the factor in
    front of the Kloosterman/Salie sum in F(p^r l) (see ``F_closed``)."""
    eps, _, twist = _kloosterman_modulus_part(p, m - r, form.n % 2 == 1)
    return eps**form.n * float(p) ** (form.n * (m + r) / 2.0) * twist[math.prod(form.lambdas) % p]


def dual_kernel_level(form: DiagonalForm, modulus: PrimePowerModulus, r: int, wdist: np.ndarray) -> float:
    """Sum over A mod c = p^(m-r) of wdist[A] * F(p^r l_A), l_A any unit vector
    of dual value A, for units lam_j and 0 <= r <= m - 2.

    F(p^r l_A) is the front times K(-A/4, -lam_{n+1}, c), whose roots u of
    u^2 = A lam_{n+1}/4 add eps_c sign e_c(2u) (see ``_kloosterman_modulus_part``).
    With k = 2u, wdist is gathered at k^2/lam_{n+1} over the units k, K0's sign is
    (2/c)(k/c), and k, c - k add to 2cos(2 pi k/c), or 2i sin(2 pi k/c) if flip = -1:
    one k < c/2 per pair keeps each angle below pi, and the front makes it real.
    """
    p, m, n = modulus.p, modulus.m, form.n
    c = p ** (m - r)
    eps, flip, twist = _kloosterman_modulus_part(p, m - r, n % 2 == 1)
    sine = flip == -1
    front = _dual_front(form, p, m, r) * eps * (2.0 * math.sqrt(c)) * (1j if sine else 1)
    ks = np.delete(np.arange(1, c // 2 + 1, dtype=np.int64), np.s_[p - 1::p])  # the units k < c/2
    squares = ks * ks % c * invmod(form.inhomogeneous_term % c, c) % c
    angles = TWO_PI * ks
    angles /= c
    pairs = (np.sin if sine else np.cos)(angles, out=angles)
    if n % 2:
        front *= twist[-form.inhomogeneous_term % p]  # (b/c) at b = -lam_{n+1}
    else:
        front *= twist[2 % p]  # (u/c) = (2/c)(k/c)
        pairs *= np.array(twist)[ks % p]
    pairs *= wdist[squares]
    return (front * float(pairs.sum())).real  # the front is real; pairwise: a BLAS dot lost ~3 digits at 5^9


def F_closed(
    r: int,
    l: tuple[int, ...],
    form: DiagonalForm,
    modulus: PrimePowerModulus,
) -> complex:
    """Closed form of F(p^r * l) for unit-coordinate l and 0 <= r <= m - 2.

    F(p^r l) = eps^n p^(n(m+r)/2) (lam_1...lam_n / c) K(-A/4, -lam_{n+1}, c) at
    c = p^(m-r) and A = sum of l_j^2 / lam_j, K the closed Kloosterman (n even)
    or Salie (n odd) sum: one root pair, no table.
    """
    p, m, n = modulus.p, modulus.m, form.n
    r, l = require_int("r", r), tuple(require_int("l_j", lj) for lj in l)
    if len(l) != n:
        raise ValidationError("frequency vector length must match the form")
    if not 0 <= r <= m - 2:
        raise ValidationError(f"r={r} must lie in 0..m-2")
    form.require_unit_coefficients(p, include_inhomogeneous=True)
    if any(lj % p == 0 for lj in l):
        raise ValidationError("all l_j must be units mod p")
    c = p ** (m - r)
    big_a = sum(invmod(lam % c, c) * lj * lj for lj, lam in zip(l, form.lambdas)) % c
    kernel = _closed_kloosterman_salie(-big_a * invmod(4, c), -form.inhomogeneous_term,
                                       PrimePowerModulus(p, m - r), twisted=n % 2 == 1)
    return _dual_front(form, p, m, r) * kernel.to_complex()
