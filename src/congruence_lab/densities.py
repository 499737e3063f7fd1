"""Solution densities of diagonal quadratic congruences.

Counts solutions of lam_1 x_1^2 + ... + lam_n x_n^2 = lam_{n+1} exactly,
under unit-coordinate or not-all-zero side conditions: mod p by the closed
Gauss-sum count (density A/B, the ternary constant and every main term),
mod p^m (count_B_m) by per-coordinate square-value histograms and exact
cyclic convolution.  Densities are exact rationals end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import NamedTuple

from .errors import (
    CoprimalityViolated,
    NotHomogeneous,
    ValidationError,
    charge,
    require_int,
    resolve_budget,
)
from .modmath import PrimePowerModulus, jacobi_symbol, require_odd_prime


@dataclass(frozen=True)
class DiagonalForm:
    """Coefficients of lam_1 x_1^2 + ... + lam_n x_n^2 - lam_{n+1}.

    ``inhomogeneous_term`` is lam_{n+1}; zero makes the form homogeneous.
    """

    lambdas: tuple[int, ...]
    inhomogeneous_term: int = 0

    def __post_init__(self) -> None:
        if len(self.lambdas) < 1:
            raise ValidationError("a form needs at least one coefficient")
        object.__setattr__(self, "lambdas", tuple(require_int("lambda", v) for v in self.lambdas))
        object.__setattr__(self, "inhomogeneous_term", require_int("lambda_{n+1}", self.inhomogeneous_term))

    @property
    def n(self) -> int:
        return len(self.lambdas)

    @property
    def is_homogeneous(self) -> bool:
        return self.inhomogeneous_term == 0

    def require_unit_coefficients(self, p: int, include_inhomogeneous: bool = False) -> None:
        if any(lam % p == 0 for lam in self.lambdas):
            raise CoprimalityViolated(f"coefficients {self.lambdas} not coprime to {p}")
        if include_inhomogeneous and self.inhomogeneous_term % p == 0:
            raise CoprimalityViolated(f"inhomogeneous term {self.inhomogeneous_term} divisible by {p}")


class DensityValue(NamedTuple):
    """A raw solution count over the normalizing power p^(n-1)."""

    numerator: int
    denominator: int

    @property
    def as_rational(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def cyclic_convolution_exact(a: list[int], b: list[int]) -> list[int]:
    """Exact cyclic convolution of equal-length integer vectors.

    Kronecker substitution: coefficients are packed into fixed-width bit
    slots of one big integer each, multiplied, and unpacked; slot width is
    chosen from sum(a) * sum(b) so no carry can cross slots.
    """
    length = len(a)
    if len(b) != length:
        raise ValidationError("convolution operands must have equal length")
    sa, sb = sum(a), sum(b)
    if sa == 0 or sb == 0:
        return [0] * length
    width = (sa * sb).bit_length() // 8 + 1  # slot width in bytes, no carries
    enc_a = b"".join(v.to_bytes(width, "little") for v in a)
    enc_b = b"".join(v.to_bytes(width, "little") for v in b)
    product = int.from_bytes(enc_a, "little") * int.from_bytes(enc_b, "little")
    raw = product.to_bytes(2 * length * width, "little")
    out = [0] * length
    for i in range(2 * length - 1):
        coeff = int.from_bytes(raw[i * width : (i + 1) * width], "little")
        out[i % length] += coeff
    return out


def square_value_histogram(coeff: int, q: int, p: int, units_only: bool) -> list[int]:
    """Histogram over residues t mod q of coeff * x^2 = t, x mod q."""
    hist = [0] * q
    coeff %= q
    for x in range(q):
        if units_only and x % p == 0:
            continue
        hist[(coeff * x * x) % q] += 1
    return hist


def _convolved_count(
    coeffs: tuple[int, ...], target: int, q: int, p: int, units_only: bool
) -> int:
    """Entry target of the cyclic convolution of the coefficients' square-value
    histograms: the first ceil(n/2) and the last floor(n/2) histograms are
    convolved exactly, and the two halves meet in one exact dot product."""
    hists = {coeff % q: square_value_histogram(coeff, q, p, units_only) for coeff in coeffs}
    half = (len(coeffs) + 1) // 2
    left = reduce(cyclic_convolution_exact, [hists[coeff % q] for coeff in coeffs[:half]])
    if half == len(coeffs):
        return left[target % q]
    right = reduce(cyclic_convolution_exact, [hists[coeff % q] for coeff in coeffs[half:]])
    return sum(map(mul, left, [right[(target - i) % q] for i in range(q)]))


def _convolved_count_cost(n: int, q: int, total: int) -> int:
    """Budget estimate of _convolved_count for n histograms of length q that each
    sum to total: q per histogram and per slot pass, plus digits^log2(3) for each
    Kronecker product of operands of that many 30-bit digits (CPython's
    Karatsuba multiplication)."""
    cost = n * q
    for size in ((n + 1) // 2, n // 2):
        for k in range(2, size + 1):
            width = (total**k).bit_length() // 8 + 1  # cyclic_convolution_exact's slot
            digits = q * width * 8 // 30 + 1
            cost += 2 * q + math.ceil(digits ** math.log2(3))
    return cost


def _count_mod_p(lambdas: tuple[int, ...], target: int, p: int, units_only: bool) -> int:
    """Solutions x mod p of sum lam_j x_j^2 = target, every lam_j a unit: unit
    coordinates, or (units_only False) every vector but the zero one.

    The Gauss-sum evaluation (Lidl & Niederreiter, Finite Fields, Thms
    6.26-6.27): with chi = (./p), g^2 = chi(-1) p, e_k the elementary symmetric
    polynomials of the chi(lam_j) and d = [units_only],
    p N = (p - d)^n + sum_k (-d)^(n-k) e_k G_k, where G_k = g^k (p [p | target] - 1)
    for even k and G_k = chi(-target) g^(k+1) for odd k.  O(n^2) exact integer
    steps, nothing of length p.
    """
    n, d, g2 = len(lambdas), int(units_only), jacobi_symbol(-1, p) * p
    hit = target % p == 0
    even, odd = p * hit - 1, jacobi_symbol(-target, p) * g2  # G_k / g2^(k // 2) by parity of k
    e = [1]
    for lam in lambdas:
        sign = jacobi_symbol(lam, p)
        e = [hi + sign * lo for hi, lo in zip(e + [0], [0] + e)]
    total = (p - d) ** n
    for k, ek in enumerate(e):
        total += (-d) ** (n - k) * ek * g2 ** (k // 2) * (odd if k % 2 else even)
    return total // p - (hit and not units_only)


def mod_p_density(form: DiagonalForm, p: int, units_only: bool) -> DensityValue:
    """Solution count of Q = lam_{n+1} mod p over p^(n-1): unit coordinates,
    or (units_only False) every vector but the zero one.  The count is the
    closed Gauss-sum form ``_count_mod_p``; every lam_j must be a unit mod p."""
    count = _count_mod_p(form.lambdas, form.inhomogeneous_term, p, units_only)
    return DensityValue(count, p ** (form.n - 1))


def density_B(form: DiagonalForm, p: int) -> DensityValue:
    """Unit-coordinate solution count of Q = 0 mod p over p^(n-1).

    All of lam_1..lam_{n+1} must be coprime to p.
    """
    require_odd_prime(p)
    form.require_unit_coefficients(p, include_inhomogeneous=True)
    return mod_p_density(form, p, units_only=True)


def density_A(form: DiagonalForm, p: int) -> DensityValue:
    """Nonzero-vector solution count of the homogeneous Q = 0 mod p over p^(n-1)."""
    require_odd_prime(p)
    if not form.is_homogeneous:
        raise NotHomogeneous("density_A needs a homogeneous form")
    form.require_unit_coefficients(p)
    return mod_p_density(form, p, units_only=False)


def ternary_C_p(l1: int, l2: int, l3: int, p: int) -> Fraction:
    """Unit-coordinate solutions of l1 x^2 + l2 y^2 + l3 z^2 = 0 mod p over p^2,
    which is (p - s_p)(p - 1)/p^2 with s_p = 2 + sum of (-li*lj / p) over pairs."""
    require_odd_prime(p)
    if (l1 * l2 * l3) % p == 0:
        raise CoprimalityViolated("ternary coefficients must be units mod p")
    return Fraction(_count_mod_p((l1, l2, l3), 0, p, True), p * p)


def count_B_m(form: DiagonalForm, modulus: PrimePowerModulus, budget: int | None = None) -> int:
    """Exact number of unit-coordinate solutions of Q = 0 mod p^m.

    Histogram convolution mod q = p^m instead of q^n enumeration, independent
    of the closed mod-p count (mod p it is that count's oracle): two exact
    half-chains of about n/2 Kronecker products each, on operands of about
    q * (n/2) * log2(q) bits, which Karatsuba multiplication takes in
    O(n * (n q log q)^log2(3)) digit operations, then one length-q dot product.
    """
    q, p = modulus.q, modulus.p
    form.require_unit_coefficients(p)
    charge(_convolved_count_cost(form.n, q, q - q // p), resolve_budget(budget),
           "count_B_m half-chains")
    return _convolved_count(form.lambdas, form.inhomogeneous_term, q, p, True)


def hensel_stability_report(
    form: DiagonalForm, p: int, m_max: int, budget: int | None = None
) -> list[Fraction]:
    """The sequence of counts of Q = 0 mod p^m over p^(m(n-1)), m = 1..m_max.

    Nonsingularity mod p makes every entry equal; any drift flags a bug.
    """
    require_odd_prime(p)
    if require_int("m_max", m_max) < 1:
        raise ValidationError("m_max must be at least 1")
    out = []
    for m in range(1, m_max + 1):
        count = count_B_m(form, PrimePowerModulus(p, m), budget=budget)
        out.append(Fraction(count, p ** (m * (form.n - 1))))
    return out
