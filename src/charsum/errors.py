"""Shared exception types, and the exact division that raises one."""

import numpy as np


class UnsupportedCharacterError(ValueError):
    """No multiplicative character of the requested order exists for the field."""


class IdentityViolation(ArithmeticError):
    """An exact identity that is guaranteed to hold failed to hold.

    Raised instead of silently truncating a division or swallowing a
    mismatch; seeing this exception means a bug (or a miscomputed input),
    never a rounding issue.
    """


def exact_div(value, k: int, what: str):
    """value // k for an int or an int array; a remainder raises, never truncates."""
    if np.any(value % k):
        raise IdentityViolation(f"{what}: not divisible by {k}")
    return value // k
