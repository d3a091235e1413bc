"""The integral group algebra of the additive group of F_{p^m}.

An element is a dense length-q integer coefficient vector indexed by
field-element index; the monomial X^gamma is the unit vector at gamma and
multiplication is additive-group convolution, X^gamma * X^delta =
X^(gamma+delta).  Indexing by the additive group (Z_p)^m *is* the
quotient by the relations x_i^p = 1, so no polynomial reduction ever
happens: multivariate arithmetic collapses to exact integer convolution.

Coefficients are int64, the one representation: every value the paper
compares is a count or a sigma coefficient below 2 q^2 < 2^33.  A
coefficient outside int64 fails at construction (numpy's OverflowError),
and the product ``gr_mul`` goes through the exact convolution
``field.convolve``, which refuses operands above its a-priori bound with
ValueError, so nothing ever wraps.  Sums and scalings are numpy arithmetic
on ``.coeffs``; the element type carries no operators.

The all-ones element Phi (the product of p-th cyclotomic polynomials in
disguise) satisfies Phi * v = (sum of coefficients of v) * Phi; in
particular Phi^2 = q * Phi, which doubles as a convolution self-test.
"""

from __future__ import annotations

import numpy as np

from . import registry
from .characters import CosetPartition, memo
from .cyclotomic import jacobi_cubic
from .errors import exact_div
from .field import FieldTable, convolve


class GroupRingElement:
    """int64-coefficient element of the additive group algebra."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldTable, coeffs):
        self.field = field
        arr = np.asarray(coeffs, dtype=np.int64)
        if arr.shape != (field.q,):
            raise ValueError(f"coefficient vector must have length {field.q}")
        self.coeffs = arr

    def _check_same_field(self, other: "GroupRingElement") -> None:
        if self.field is not other.field and self.field.spec != other.field.spec:
            raise ValueError("elements live over different fields")

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return (self.field.spec == other.field.spec
                and bool(np.all(self.coeffs == other.coeffs)))

    def coeff_sum(self) -> int:
        return int(self.coeffs.sum())

    def to_json(self) -> dict:
        """Sparse JSON map {index: coefficient} of nonzero entries."""
        nz = np.flatnonzero(self.coeffs)
        return {str(int(i)): int(self.coeffs[i]) for i in nz}

    def __repr__(self):
        nz = np.flatnonzero(self.coeffs)
        if len(nz) > 8:
            return (f"GroupRingElement(F_{self.field.spec.label()}, "
                    f"{len(nz)} nonzero coeffs)")
        terms = " + ".join(f"{int(self.coeffs[i])}*X^{int(i)}" for i in nz)
        return f"GroupRingElement({terms or '0'})"


def monomial(field: FieldTable, gamma: int, coeff: int = 1) -> GroupRingElement:
    out = np.zeros(field.q, dtype=np.int64)
    out[gamma] = coeff
    return GroupRingElement(field, out)


@registry.op
def gr_mul(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Additive-group convolution out[g] = sum_d a[d] * b[g - d], exact."""
    a._check_same_field(b)
    return GroupRingElement(a.field, convolve(a.field, a.coeffs, b.coeffs))


@registry.op
def phi(field: FieldTable) -> GroupRingElement:
    """The all-ones element: sum of X^gamma over the whole field."""
    return GroupRingElement(field, np.ones(field.q, dtype=np.int64))


@registry.op
def characteristic_fn(field: FieldTable, part: CosetPartition,
                      j: int) -> GroupRingElement:
    """0/1 vector of coset j: the polynomial characteristic function f_j."""
    out = np.zeros(field.q, dtype=np.int64)
    out[part.cosets[j]] = 1
    return GroupRingElement(field, out)


@registry.op
def quadratic_sigma(field: FieldTable,
                    part: CosetPartition) -> tuple[GroupRingElement, GroupRingElement]:
    """Closed-form sum and product of the two quadratic characteristic functions.

    sigma1 = Phi - 1 and sigma2 = -(1/4) * [q*chi2(-1) - 1 - Phi*(q - 2 + chi2(-1))],
    which convolution confirms equal f_0 + f_1 and f_0 * f_1.
    """
    if part.n != 2:
        raise ValueError("quadratic partition expected")
    q = field.q
    chi_m1 = 1 if q % 4 == 1 else -1
    s1 = np.ones(q, dtype=np.int64)
    s1[0] = 0
    num = np.full(q, q - 2 + chi_m1, dtype=np.int64)
    num[0] += 1 - q * chi_m1
    s2 = GroupRingElement(field, exact_div(num, 4, "quadratic sigma2"))
    return GroupRingElement(field, s1), s2


@registry.op
def cubic_sigma(field: FieldTable, part: CosetPartition
                ) -> tuple[GroupRingElement, GroupRingElement, GroupRingElement]:
    """Closed-form elementary symmetric functions of the three cubic
    characteristic functions.

    sigma1 = Phi - 1,  sigma2 = (q-1)/3 * (Phi - 1),
    sigma3 = (1/27) * [(Phi - 1)^3 + (3 - 3*Phi + J + conj(J)) * (q - Phi)],
    which Phi^2 = q Phi reduces to (q-1)(q+1+t) at X^0 and q^2 - 3q - t
    elsewhere, t = J + conj(J), so no product is formed here.
    """
    if part.n != 3:
        raise ValueError("cubic partition expected")
    q = field.q
    jac = memo(part, jacobi_cubic)
    t = (jac + jac.conj()).a            # z + conj(z) = (2a - b) + 0 w, rational
    s1 = phi(field).coeffs              # a fresh array: Phi - 1 in place
    s1[0] -= 1
    s2 = (q - 1) // 3 * s1
    num = np.full(q, q * q - 3 * q - t, dtype=np.int64)
    num[0] = (q - 1) * (q + 1 + t)
    s3 = GroupRingElement(field, exact_div(num, 27, "cubic sigma3"))
    return GroupRingElement(field, s1), GroupRingElement(field, s2), s3
