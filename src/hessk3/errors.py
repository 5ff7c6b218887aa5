"""Shared exception types and the input guards for exact integers and rationals.

ValueError is reserved for caller mistakes: malformed input or violated
preconditions.  InvariantViolation means the library itself derived
something inconsistent, i.e. a postcondition or a proof-backed shape
assertion failed, so the surrounding computation cannot be trusted.
"""

from __future__ import annotations

from fractions import Fraction


class InvariantViolation(AssertionError):
    """An internal consistency check failed."""


def require(condition: bool, message: str) -> None:
    """Check an internal invariant; active regardless of python -O."""
    if not condition:
        raise InvariantViolation(message)


def integer(x, what: str) -> int:
    """x itself when it is an int other than a bool, else TypeError naming
    what x was meant to be."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise TypeError(f"{what} must be an int, not {type(x).__name__}")


def rational(x) -> Fraction:
    """x as a Fraction; only an int or a Fraction is accepted, so a float
    never enters exact arithmetic."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, got {type(x).__name__}")
