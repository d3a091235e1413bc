"""The integral group algebra of the additive group of F_{p^m}.

An element is a dense length-q integer coefficient vector indexed by
field-element index; the monomial X^gamma is the unit vector at gamma and
multiplication is additive-group convolution, X^gamma * X^delta =
X^(gamma+delta).  Indexing by the additive group (Z_p)^m *is* the
quotient by the relations x_i^p = 1, so no polynomial reduction ever
happens: multivariate arithmetic collapses to exact integer convolution.

Coefficients are kept in int64.  Products go through the exact
convolution ``field.convolve``; it and the additive operations here switch
to Python-integer (object dtype) coefficients when an a-priori bound says
a result could leave int64, so nothing ever wraps and the common path
pays no bignum cost.

The all-ones element Phi (the product of p-th cyclotomic polynomials in
disguise) satisfies Phi * v = (sum of coefficients of v) * Phi; in
particular Phi^2 = q * Phi, which doubles as a convolution self-test.
"""

from __future__ import annotations

import numpy as np

from . import registry
from .characters import CosetPartition, memo
from .cyclotomic import jacobi_cubic
from .errors import IdentityViolation
from .field import INT64_MAX, FieldTable, convolve, max_abs


def _lift(bound: int, *arrays: np.ndarray) -> tuple:
    """As Python integers if a result bounded by ``bound`` could leave int64."""
    return arrays if bound <= INT64_MAX else tuple(a.astype(object) for a in arrays)


class GroupRingElement:
    """Integer-coefficient element of the additive group algebra."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldTable, coeffs):
        self.field = field
        arr = np.asarray(coeffs)
        if arr.shape != (field.q,):
            raise ValueError(f"coefficient vector must have length {field.q}")
        if arr.dtype != object:
            arr = arr.astype(np.int64)
        self.coeffs = arr

    def _check_same_field(self, other: "GroupRingElement") -> None:
        if self.field is not other.field and self.field.spec != other.field.spec:
            raise ValueError("elements live over different fields")

    def __add__(self, other):
        if isinstance(other, GroupRingElement):
            self._check_same_field(other)
            ca, cb = _lift(max_abs(self.coeffs) + max_abs(other.coeffs),
                           self.coeffs, other.coeffs)
            return GroupRingElement(self.field, ca + cb)
        if isinstance(other, int):
            out, = _lift(max_abs(self.coeffs) + abs(other), self.coeffs.copy())
            out[0] += other
            return GroupRingElement(self.field, out)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (GroupRingElement, int)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return (-self) + other
        return NotImplemented

    def __neg__(self):
        c, = _lift(max_abs(self.coeffs), self.coeffs)
        return GroupRingElement(self.field, -c)

    def __mul__(self, other):
        if isinstance(other, GroupRingElement):
            return gr_mul(self, other)
        if isinstance(other, int):
            c, = _lift(max_abs(self.coeffs) * abs(other), self.coeffs)
            return GroupRingElement(self.field, c * other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 1:
            raise ValueError("positive exponent expected")
        out = self
        for _ in range(e - 1):
            out = gr_mul(out, self)
        return out

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return (self.field.spec == other.field.spec
                and bool(np.all(self.coeffs == other.coeffs)))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

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


def scalar(field: FieldTable, c: int) -> GroupRingElement:
    """c * X^0 (scalars mean scalar multiples of the identity monomial)."""
    return monomial(field, 0, c)


def gr_mul(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Additive-group convolution out[g] = sum_d a[d] * b[g - d], exact."""
    registry.mark("gr_mul")
    a._check_same_field(b)
    return GroupRingElement(a.field, convolve(a.field, a.coeffs, b.coeffs))


def gr_mul_pairs(xs, ys) -> list[GroupRingElement]:
    """[gr_mul(x, y) for x, y in zip(xs, ys)] by one broadcast convolution
    over the stacked coefficient vectors, so the transforms run once."""
    registry.mark("gr_mul")
    for x, y in zip(xs, ys, strict=True):
        x._check_same_field(y)
    field = xs[0].field
    out = convolve(field, np.stack([x.coeffs for x in xs]),
                   np.stack([y.coeffs for y in ys]))
    return [GroupRingElement(field, row) for row in out]


def phi(field: FieldTable) -> GroupRingElement:
    """The all-ones element: sum of X^gamma over the whole field."""
    registry.mark("phi")
    return GroupRingElement(field, np.ones(field.q, dtype=np.int64))


def characteristic_fn(field: FieldTable, part: CosetPartition,
                      j: int) -> GroupRingElement:
    """0/1 vector of coset j: the polynomial characteristic function f_j."""
    registry.mark("characteristic_fn")
    out = np.zeros(field.q, dtype=np.int64)
    out[part.cosets[j]] = 1
    return GroupRingElement(field, out)


def _exact_div_vec(el: GroupRingElement, k: int, what: str) -> GroupRingElement:
    if np.any(el.coeffs % k):
        raise IdentityViolation(f"{what}: coefficients not divisible by {k}")
    return GroupRingElement(el.field, el.coeffs // k)


def quadratic_sigma(field: FieldTable,
                    part: CosetPartition) -> tuple[GroupRingElement, GroupRingElement]:
    """Closed-form sum and product of the two quadratic characteristic functions.

    sigma1 = Phi - 1 and sigma2 = -(1/4) * [q*chi2(-1) - 1 - Phi*(q - 2 + chi2(-1))],
    which convolution confirms equal f_0 + f_1 and f_0 * f_1.
    """
    registry.mark("quadratic_sigma")
    if part.n != 2:
        raise ValueError("quadratic partition expected")
    q = field.q
    chi_m1 = 1 if q % 4 == 1 else -1
    s1 = np.ones(q, dtype=np.int64)
    s1[0] = 0
    num = np.full(q, q - 2 + chi_m1, dtype=np.int64)
    num[0] += 1 - q * chi_m1
    s2 = _exact_div_vec(GroupRingElement(field, num), 4, "quadratic sigma2")
    return GroupRingElement(field, s1), s2


def cubic_sigma(field: FieldTable, part: CosetPartition
                ) -> tuple[GroupRingElement, GroupRingElement, GroupRingElement]:
    """Closed-form elementary symmetric functions of the three cubic
    characteristic functions.

    sigma1 = Phi - 1,  sigma2 = (q-1)/3 * (Phi - 1),
    sigma3 = (1/27) * [(Phi - 1)^3 + (3 - 3*Phi + J + conj(J)) * (q - Phi)].
    """
    registry.mark("cubic_sigma")
    if part.n != 3:
        raise ValueError("cubic partition expected")
    q = field.q
    jac = memo(part, jacobi_cubic)
    jj = jac + jac.conj()
    if not jj.is_rational():
        raise IdentityViolation("J + conj(J) is not a rational integer")
    t = jj.a
    s1 = phi(field) - 1
    s2 = ((q - 1) // 3) * s1
    q_minus_phi = scalar(field, q) - phi(field)
    inner = scalar(field, 3) - 3 * phi(field) + scalar(field, t)
    s3_num = s1 ** 3 + gr_mul(inner, q_minus_phi)
    s3 = _exact_div_vec(s3_num, 27, "cubic sigma3")
    return s1, s2, s3
