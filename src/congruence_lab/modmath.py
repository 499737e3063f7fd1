"""Exact modular arithmetic for odd prime powers.

Primitives for residues (powers, inverses, Jacobi symbols, additive
characters) together with square roots modulo p, read from one cached table
of canonical roots, and their lifts to p^m.
Modular logic is exact integer arithmetic throughout; complex numbers
appear only at the character-evaluation boundary.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .errors import EvenModulus, NotInvertible, ValidationError, require_int

# numpy is imported inside the six array helpers below, so the scalar
# arithmetic, which is all the `density` verb runs, never loads it
if TYPE_CHECKING:
    import numpy as np

MAX_PRIME = 1 << 20
MAX_EXPONENT = 60
MAX_MODULUS = 1 << 128

TWO_PI = 2.0 * math.pi


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (n < 2^40 or so)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


@lru_cache(maxsize=1024)
def _small_prime(p: int) -> bool:
    """is_prime for p below MAX_PRIME, cached: every modulus, prime table and
    entry point that takes p validates it, mostly the same few p again."""
    return is_prime(p)


def require_odd_prime(p: int) -> None:
    """Raise ValidationError unless p is an integer, not a float equal to one, and
    an odd prime below MAX_PRIME (2^20): tables of length p stay small and trial
    division stays fast."""
    p = require_int("p", p)
    if p >= MAX_PRIME or p < 3 or p % 2 == 0 or not _small_prime(p):
        raise ValidationError(f"p={p} must be an odd prime below 2^20")


def valuation(x: int, p: int) -> int:
    """Largest e with p^e | x, for x != 0."""
    if x == 0:
        raise ValidationError("valuation of 0 is undefined")
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def invmod(a: int, m: int) -> int:
    """Inverse of a modulo m; raises NotInvertible when gcd(a, m) > 1."""
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise NotInvertible(f"{a} is not invertible mod {m}") from exc


@dataclass(frozen=True)
class PrimePowerModulus:
    """An odd prime power q = p^m with the base data validated once."""

    p: int
    m: int
    q: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # a numpy p would keep q as a wrapping np.int64
        object.__setattr__(self, "p", require_int("p", self.p))
        object.__setattr__(self, "m", require_int("m", self.m))
        require_odd_prime(self.p)
        if not (1 <= self.m <= MAX_EXPONENT):
            raise ValidationError(f"m={self.m} out of range 1..{MAX_EXPONENT}")
        q = self.p**self.m
        if q >= MAX_MODULUS:
            raise ValidationError(f"p^m = {q} does not fit 128 bits")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class Residue:
    """An integer reduced into [0, modulus)."""

    value: int
    modulus: int

    def __post_init__(self) -> None:
        modulus = require_int("modulus", self.modulus)
        if modulus < 1:
            raise ValidationError("modulus must be positive")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "value", require_int("value", self.value) % modulus)


def mod_pow(base: Residue, exp: int) -> Residue:
    """base^exp in the residue ring, without intermediate overflow."""
    if exp < 0:
        raise ValidationError("exponent must be non-negative")
    return Residue(pow(base.value, exp, base.modulus), base.modulus)


def mod_inverse(a: Residue) -> Residue:
    """Multiplicative inverse; raises NotInvertible when gcd > 1."""
    return Residue(invmod(a.value, a.modulus), a.modulus)


def jacobi_symbol(a: int, c: int) -> int:
    """Jacobi symbol (a/c) for odd c >= 1, by the binary reciprocity loop."""
    if c < 1 or c % 2 == 0:
        raise EvenModulus(f"Jacobi symbol needs an odd positive modulus, got {c}")
    a %= c
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if c % 8 in (3, 5):
                result = -result
        a, c = c, a
        if a % 4 == 3 and c % 4 == 3:
            result = -result
        a %= c
    return result if c == 1 else 0


def epsilon_c(c: int) -> complex:
    """1 for c = 1 mod 4, i for c = 3 mod 4 (c odd)."""
    if c % 2 == 0:
        raise EvenModulus(f"epsilon_c needs an odd modulus, got {c}")
    return 1.0 + 0.0j if c % 4 == 1 else 1.0j


def additive_character(a: int, q: int) -> complex:
    """exp(2*pi*i*a/q), with a reduced mod q exactly before evaluation."""
    if q < 1:
        raise ValidationError("q must be positive")
    return unit_root(a % q, q)


# Same bound as the closed-form caches in charsums: every t mod q for
# q <= 4096 stays cached, and wider sweeps keep memory fixed.
@lru_cache(maxsize=4096)
def unit_root(t: int, q: int) -> complex:
    """exp(2*pi*i*t/q) for 0 <= t < q and q >= 1, cached per (t, q).

    The one evaluation of e(t/q): ``additive_character`` and the closed
    character sums check q and reduce t, then read the value from here.
    """
    return cmath.exp(complex(0.0, TWO_PI * t / q))


def sqrt_mod_prime(a: Residue) -> Residue | None:
    """Square root of a mod p, the canonical root in [0, p/2], or None for a
    non-residue.  It reads ``prime_tables(p).root``, so p is validated as an
    odd prime below 2^20, as ``PrimePowerModulus`` validates it."""
    w = int(prime_tables(a.modulus).root[a.value])
    return None if w < 0 else Residue(w, a.modulus)


def residue_dtype(m: int) -> type:
    """Array dtype for residues mod m: int64 while a product of two residues
    fits (m^2 < 2^63), else object, holding exact Python ints."""
    import numpy as np

    return np.int64 if m * m < 1 << 63 else object


class PrimeTables(NamedTuple):
    """Read-only int64 tables over the residues x mod p.

    ``legendre[x]`` is (x/p) and ``root[x]`` the canonical square root in
    [0, p/2] (-1 for non-residues).
    """

    legendre: np.ndarray
    root: np.ndarray


@lru_cache(maxsize=8)
def prime_tables(p: int) -> PrimeTables:
    """Legendre and canonical-root tables mod the odd prime p."""
    import numpy as np

    require_odd_prime(p)
    half = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    root = np.full(p, -1, dtype=np.int64)
    root[0] = 0
    root[half * half % p] = half  # the squares of 1..(p-1)/2 are distinct
    legendre = np.where(root > 0, 1, -1)
    legendre[0] = 0
    for table in (legendre, root):
        table.flags.writeable = False
    return PrimeTables(legendre, root)


def _pow_array(x: np.ndarray, e: int, m: int) -> np.ndarray:
    """x^e mod m elementwise in int64, for m^2 < 2^63 and 0 <= x < m."""
    import numpy as np

    out = np.ones_like(x)
    while e:
        if e & 1:
            out = out * x % m
        x = x * x % m
        e >>= 1
    return out


# Newton's lift starts from a table of inverse square roots mod the largest
# p^t0 <= LIFT_SEED_LIMIT, which holds at most 2^14 int64 entries (128 KiB);
# once p^2 > LIFT_SEED_LIMIT the table is mod p itself (t0 = 1), up to 2^20
# entries (8 MiB) for the largest p below MAX_PRIME
LIFT_SEED_LIMIT = 1 << 14


@lru_cache(maxsize=8)
def _inverse_sqrt_seed(p: int) -> tuple[int, np.ndarray]:
    """(t0, table): p^t0 is the largest power of p up to LIFT_SEED_LIMIT, or
    p when p^2 exceeds it, and table[z] is one inverse square root of every
    unit square z mod p^t0 (0 elsewhere)."""
    import numpy as np

    t0 = 1
    while p ** (t0 + 1) <= LIFT_SEED_LIMIT:
        t0 += 1
    m = p**t0
    units = np.arange(1, m, dtype=np.int64)
    units = units[units % p != 0]
    table = np.zeros(m, dtype=np.int64)
    table[units * units % m] = _pow_array(units, m - m // p - 1, m)  # u^-1 is a root of 1/u^2
    table.flags.writeable = False
    return t0, table


def lift_sqrt_array(z: np.ndarray, w: np.ndarray | None, p: int, s: int) -> np.ndarray:
    """Roots u mod p^s with u^2 = z, elementwise: the one with u = w mod p,
    or either one where ``w`` is None.

    ``z`` holds units in [0, p^s) that are squares mod p and ``w`` their
    roots in [0, p).  Newton's inverse-square-root step
    y <- y (3 - z y^2) / 2 doubles the precision of y = 1/sqrt(z), and
    u = z y.  y starts mod p^t0 from the cached ``_inverse_sqrt_seed``
    table entry of z, negated unless y = w^{-1} mod p (for odd p a unit
    square mod p is a square mod every p^t, so the entry exists), and no
    step runs for s <= t0.  The arithmetic runs in ``residue_dtype(p^s)``,
    reducing after every product and halving mod the odd p^t by a shift:
    int64 while p^(2s) < 2^63, and the same steps on Python ints in an
    object array above that.
    """
    import numpy as np

    q = p**s
    z = np.asarray(z, dtype=residue_dtype(q))
    t, table = _inverse_sqrt_seed(p)
    y = table[(z % p**t).astype(np.int64, copy=False)]
    if w is not None:
        y = np.where(y * w % p == 1, y, p**t - y)
    y = y.astype(z.dtype, copy=False)
    while t < s:
        t = min(2 * t, s)
        m = p**t
        x = y * (3 - z * (y * y % m) % m) % m
        y = (x + (x & 1) * m) >> 1  # x / 2 mod m
    return z * y % q


@dataclass(frozen=True)
class RootClassSet:
    """Solutions of u^2 = r mod p^m as disjoint arithmetic progressions.

    Each progression (offset, step) with step | modulus stands for every
    u in [0, modulus) with u = offset mod step.
    """

    progressions: tuple[tuple[int, int], ...]
    modulus: int

    def __post_init__(self) -> None:
        for offset, step in self.progressions:
            if step < 1 or self.modulus % step != 0:
                raise ValidationError(f"step {step} does not divide {self.modulus}")
            if not 0 <= offset < step:
                raise ValidationError("offsets must be reduced mod step")

    def count(self) -> int:
        return sum(self.modulus // step for _, step in self.progressions)

    def members(self) -> list[int]:
        out: list[int] = []
        for offset, step in self.progressions:
            out.extend(range(offset, self.modulus, step))
        return sorted(out)

    def __contains__(self, u: int) -> bool:
        return any((u - offset) % step == 0 for offset, step in self.progressions)

    def integers_in(self, lo: int, hi: int) -> list[int]:
        """All integers x in [lo, hi] whose residue mod modulus is a root."""
        out: list[int] = []
        for offset, step in self.progressions:
            first = lo + (offset - lo) % step
            out.extend(range(first, hi + 1, step))
        return sorted(out)


def sqrt_classes_mod_prime_power(r: int, modulus: PrimePowerModulus) -> RootClassSet:
    """The complete solution set of u^2 = r mod p^m.

    For r = p^(2t) * r' with (r', p) = 1 and 2t < m the set is
    p^t * (+-v + p^(m-2t) Z); an odd power of p leaves no solutions, and
    r = 0 mod p^m gives the multiples of p^ceil(m/2).
    """
    import numpy as np

    p, m, q = modulus.p, modulus.m, modulus.q
    r0 = require_int("r", r) % q
    if r0 == 0:
        step = p ** ((m + 1) // 2)
        return RootClassSet(((0, step),), q)
    e = valuation(r0, p)
    if e % 2 == 1:
        return RootClassSet((), q)
    t = e // 2
    r1 = r0 // p**e
    s1 = m - e
    w0 = int(prime_tables(p).root[r1 % p])
    if w0 < 0:
        return RootClassSet((), q)
    w = int(lift_sqrt_array(np.array([r1], dtype=object), np.array([w0]), p, s1)[0])
    step = p ** (m - t)
    scale = p**t
    offsets = sorted({(scale * w) % step, (scale * (p**s1 - w)) % step})
    return RootClassSet(tuple((off, step) for off in offsets), q)
