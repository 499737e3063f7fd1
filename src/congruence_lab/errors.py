"""Exception types and the shared operation budget.

Every long-running enumeration in the library is gated by an explicit
budget (a rough count of inner-loop operations).  Exceeding it raises
``BudgetExceeded`` instead of silently truncating or running forever.
"""

from __future__ import annotations

import math
import operator
import os
from decimal import Decimal


class CongruenceLabError(Exception):
    """Base class for all library errors."""


class ValidationError(CongruenceLabError, ValueError):
    """An argument violates an operation's documented precondition."""


class EvenModulus(ValidationError):
    """An odd modulus was required."""


class NotInvertible(ValidationError):
    """gcd(a, modulus) > 1 where an inverse was required."""


class CoprimalityViolated(ValidationError):
    """Form coefficients share a factor with the prime."""


class NotHomogeneous(ValidationError):
    """A homogeneous form (zero inhomogeneous term) was required."""


class IndefiniteForm(ValidationError):
    """A positive definite form was required."""


class HypothesisViolated(ValidationError):
    """A counting bound's hypothesis (e.g. 8*M^2 < c) does not hold."""


class TruncationInsufficient(ValidationError):
    """A series truncation leaves tails above the accuracy target."""


class UnsupportedCase(CongruenceLabError):
    """The closed form is not defined for this parameter pattern."""


class BudgetExceeded(CongruenceLabError):
    """Estimated work exceeds the configured operation budget."""


DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "CONGRUENCE_LAB_BUDGET"


def resolve_budget(budget: int | None = None) -> int:
    """Explicit argument, else the environment override, else the default."""
    if budget is not None:
        budget = require_int("budget", budget)  # a nan budget would admit every cost
        if budget <= 0:
            raise ValidationError("budget must be positive")
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValidationError(f"bad {BUDGET_ENV_VAR}={env!r}") from exc
        if value <= 0:
            raise ValidationError(f"{BUDGET_ENV_VAR} must be positive")
        return value
    return DEFAULT_BUDGET


def require_finite_positive(name: str, value: float) -> None:
    """Raise ``ValidationError`` naming the parameter unless value is a real
    number, finite and > 0."""
    try:
        valid = math.isfinite(value) and value > 0
    except TypeError:  # None, a string, a complex number
        valid = False
    if not valid:
        raise ValidationError(f"{name} must be finite and positive, got {value!r}")


def require_int(name: str, value) -> int:
    """value as a Python int: numpy integers convert exactly, while a float, a
    string or anything else without ``__index__`` raises ``ValidationError``
    instead of being truncated."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from exc


def charge(cost: int, budget: int, what: str = "operation") -> None:
    """Raise ``BudgetExceeded`` when an estimated cost is over budget."""
    if cost > budget:
        # Decimal keeps an integer cost beyond float range formattable
        raise BudgetExceeded(f"{what} needs ~{Decimal(cost):.3g} ops, budget is {budget}")
