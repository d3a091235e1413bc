"""The integral group algebra of the additive group of F_{p^m}.

An element is a dense length-q int64 coefficient vector indexed by
field-element index; X^gamma is the unit vector at gamma and
multiplication is additive-group convolution, X^gamma * X^delta =
X^(gamma+delta).  Indexing by the additive group (Z_p)^m *is* the
quotient by the relations x_i^p = 1, so no polynomial reduction ever
happens: multivariate arithmetic collapses to exact integer convolution
(``field.convolve``, which refuses operands above its a-priori bound).

Values are plain int64 arrays: f_j is row j of ``part.indicators()``, the
unit 1 is the unit vector at 0, and Phi is ``np.ones(q)``, with Phi * v =
(sum of the coefficients of v) * Phi, so Phi^2 = q * Phi.  ``gr_mul`` and
its element type stay only because ``perfbench/tracer.py`` pins them: it
wraps ``gr_mul`` and reads ``result.coeffs.dtype``, and the benchmark
reports ``groupring.gr_mul.*``.  ROADMAP item 2, the benchmark contract
change, unpins them; until then ``checks.charpoly`` forms its two products
(Phi^2, and (f_0 f_1) f_2) through them, so ``gr_mul.calls`` keeps its count.

The f_j are the n roots of X^n - sigma1 X^(n-1) + ... = 0;
``closed_sigmas`` gives its coefficients in closed form, for either order.
"""

from __future__ import annotations

import numpy as np

from . import registry
from .characters import CosetPartition, memo
from .cyclotomic import jacobi_cubic
from .errors import exact_div
from .field import FieldTable, convolve


class GroupRingElement:
    """A field and its validated int64 coefficients; pinned by the tracer."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldTable, coeffs):
        self.field = field
        arr = np.asarray(coeffs, dtype=np.int64)    # OverflowError outside int64
        if arr.shape != (field.q,):
            raise ValueError(f"coefficient vector must have length {field.q}")
        self.coeffs = arr


@registry.op
def gr_mul(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Additive-group convolution out[g] = sum_d a[d] * b[g - d], exact."""
    if a.field is not b.field and a.field.spec != b.field.spec:
        raise ValueError("elements live over different fields")
    return GroupRingElement(a.field, convolve(a.field, a.coeffs, b.coeffs))


@registry.op
def closed_sigmas(field: FieldTable, part: CosetPartition) -> tuple[np.ndarray, ...]:
    """Closed-form elementary symmetric functions sigma_1 .. sigma_n of the
    n coset characteristic functions, which convolution confirms.

    sigma1 = Phi - 1 = f_0 + ... + f_{n-1}: 0 at X^0, 1 elsewhere.
    n = 2:  sigma2 = -(1/4) * [q*chi2(-1) - 1 - Phi*(q - 2 + chi2(-1))].
    n = 3:  sigma2 = (q-1)/3 * (Phi - 1),
            sigma3 = (1/27) * [(Phi - 1)^3 + (3 - 3*Phi + J + conj(J)) * (q - Phi)],
    which Phi^2 = q Phi reduces to (q-1)(q+1+t) at X^0 and q^2 - 3q - t
    elsewhere, t = J + conj(J), so no product is formed here.
    """
    q = field.q
    s1 = (np.arange(q) > 0).astype(np.int64)
    if part.n == 2:
        chi_m1 = (-1) ** part.label(field.neg(1))     # label 0: +1, label 1: -1
        num = np.full(q, q - 2 + chi_m1, dtype=np.int64)
        num[0] += 1 - q * chi_m1
        return s1, exact_div(num, 4, "quadratic sigma2")
    jac = memo(part, jacobi_cubic)
    t = (jac + jac.conj()).a            # z + conj(z) = (2a - b) + 0 w, rational
    num = np.full(q, q * q - 3 * q - t, dtype=np.int64)
    num[0] = (q - 1) * (q + 1 + t)
    return s1, (q - 1) // 3 * s1, exact_div(num, 27, "cubic sigma3")
