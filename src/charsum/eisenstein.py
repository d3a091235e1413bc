"""Exact arithmetic in Z[w], w a primitive cube root of unity (w^2 + w + 1 = 0).

Values are pairs (a, b) standing for a + b*w with arbitrary-precision
integer coordinates.  This ring is the exact home of every cubic
character sum in the package; floating point only appears when a value
is deliberately embedded into the complex plane (w -> exp(2*pi*i/3),
positive imaginary part).
"""

from __future__ import annotations

import cmath


class EisensteinInt:
    """a + b*w with integer a, b and w^2 = -1 - w."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        self.a = int(a)
        self.b = int(b)

    @staticmethod
    def _coerce(other):
        if isinstance(other, EisensteinInt):
            return other
        if isinstance(other, int):
            return EisensteinInt(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EisensteinInt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EisensteinInt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EisensteinInt(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EisensteinInt(self.a * o.a - self.b * o.b,
                             self.a * o.b + self.b * o.a - self.b * o.b)

    __rmul__ = __mul__

    def __neg__(self):
        return EisensteinInt(-self.a, -self.b)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):     # a rational value equals its int, so hashes as it
        return hash(self.a if self.b == 0 else (self.a, self.b))

    def conj(self) -> "EisensteinInt":
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def is_rational(self) -> bool:
        return self.b == 0

    def to_complex(self) -> complex:
        return self.a + self.b * OMEGA_COMPLEX

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b}

    def __repr__(self):
        if self.b == 0:
            return f"EisensteinInt({self.a})"
        return f"EisensteinInt({self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        sign = "+" if self.b >= 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}w"


ONE = EisensteinInt(1)
OMEGA = EisensteinInt(0, 1)
OMEGA_POWS = (ONE, OMEGA, EisensteinInt(-1, -1))
OMEGA_COMPLEX = cmath.exp(2j * cmath.pi / 3)


def omega_pow(k: int) -> EisensteinInt:
    """w**k for any integer k."""
    return OMEGA_POWS[k % 3]


def from_omega_counts(c0: int, c1: int, c2: int) -> EisensteinInt:
    """c0*w^0 + c1*w^1 + c2*w^2 collapsed to the (1, w) basis."""
    return EisensteinInt(c0 - c2, c1 - c2)
