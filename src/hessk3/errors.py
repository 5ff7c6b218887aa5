"""Shared exception types and the two scalar guards, integer and rational.

ValueError is reserved for caller mistakes: malformed input or violated
preconditions.  A type mistake (a float, bool or string where an exact int
or rational belongs) raises InputTypeError, both a TypeError and a
ValueError.  InvariantViolation means the library itself derived something
inconsistent, i.e. a postcondition or a proof-backed shape assertion
failed, so the surrounding computation cannot be trusted.
"""

from __future__ import annotations

from fractions import Fraction


class InvariantViolation(AssertionError):
    """An internal consistency check failed."""


class InputTypeError(TypeError, ValueError):
    """A caller passed a value of the wrong type."""


def require(condition: bool, message: str) -> None:
    """Check an internal invariant; active regardless of python -O."""
    if not condition:
        raise InvariantViolation(message)


def integer(x, what: str) -> int:
    """x when it is an int other than a bool, else InputTypeError."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise InputTypeError(f"{what}: expected an integer, got {type(x).__name__}")


def rational(x, what: str) -> Fraction:
    """x as a Fraction when it is a Fraction or an int other than a bool."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise InputTypeError(f"{what}: expected an exact rational, got {type(x).__name__}")
