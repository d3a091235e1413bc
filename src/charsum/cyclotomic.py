"""Jacobi and Gauss sums for the quadratic and cubic characters.

Jacobi sums of the cubic character are computed directly in Z[w] by
counting label pairs, which keeps them exact.  ``gauss_sum`` is the Gauss
sum in floating point for every p, used purely as a cross-check against
the exact values; ``exact_gauss_sum`` is exact, in Z[w], only in
characteristic 2 (the additive character takes values +-1 there), since
for odd p the sum lives in a larger cyclotomic ring.

The canonical additive character is psi(x) = exp(2*pi*i*Tr(x)/p) with Tr
the absolute trace to Z_p.
"""

from __future__ import annotations

import numpy as np

from . import registry
from .characters import (CosetPartition, fold_pairs, label_pairs, memo,
                         pair_table)
from .eisenstein import (OMEGA_COMPLEX, EisensteinInt, from_omega_counts,
                         omega_pow)
from .errors import IdentityViolation
from .field import FieldTable


@registry.op
def jacobi_cubic(field: FieldTable, part: CosetPartition) -> EisensteinInt:
    """J(chi, chi) = sum over c1 + c2 = 1 of chi(c1)*chi(c2), exactly in Z[w]."""
    j = a_beta(field, part, 1)
    if j.norm() != field.q:
        raise IdentityViolation(
            f"norm(J) = {j.norm()} != q = {field.q} over F_{field.spec.label()}")
    return j


@registry.op
def a_beta(field: FieldTable, part: CosetPartition, beta: int) -> EisensteinInt:
    """A(beta) = sum_x chi(x)*chi(beta - x) = conj(chi)(beta) * J, the
    w**(a+b) fold of ``label_pairs``."""
    if beta == 0:
        raise ValueError("beta must be nonzero")
    if part.n != 3:
        raise ValueError("cubic partition expected")
    return from_omega_counts(*fold_pairs(label_pairs(field, part, beta), 1))


def a_beta_sweep(field: FieldTable,
                 part: CosetPartition) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) coordinates of A(beta) for every beta, vectorized; row 0 unused.

    A(beta) = N_0 + N_1 w + N_2 w^2 with N_k the pair counts
    sum over i + j = k (mod 3) of (f_i * f_j)(beta), so a = N_0 - N_2 and
    b = N_1 - N_2.
    """
    table = memo(part, pair_table)
    i = np.arange(3)
    k = (i[:, None] + i[None, :]) % 3
    n0, n1, n2 = (table[k == s].sum(axis=0) for s in range(3))
    a_out, b_out = n0 - n2, n1 - n2
    a_out[0] = b_out[0] = 0
    return a_out, b_out


@registry.op
def gauss_sum(field: FieldTable, part: CosetPartition) -> complex:
    """Gauss sum of the partition's character against the canonical psi,
    numerically, for every p."""
    w = OMEGA_COMPLEX
    values = (1.0, -1.0) if part.n == 2 else (1, w, w * w)
    return _numeric_gauss(field, part.labels, values)


def exact_gauss_sum(field: FieldTable, part: CosetPartition) -> EisensteinInt:
    """The Gauss sum exactly in Z[w]; characteristic 2 only, where
    psi(x) = (-1)**Tr(x)."""
    if field.p != 2:
        raise ValueError("exact Gauss sums require characteristic 2")
    nz = field._arange[1:]
    sign = 1 - 2 * field.trace_vec()[nz].astype(np.int64)      # (-1)**Tr(x)
    lab = part.labels[nz]
    return from_omega_counts(*(int(sign[lab == k].sum()) for k in range(3)))


def _numeric_gauss(field: FieldTable, labels: np.ndarray, values) -> complex:
    """sum over x != 0 of values[label(x)] * psi(x), in floating point."""
    nz = field._arange[1:]
    psi = np.exp(2j * np.pi * field.trace_vec()[nz] / field.p)
    return complex(np.sum(np.array(values)[labels[nz]] * psi))


@registry.op
def jacobi_from_gauss(field: FieldTable, part: CosetPartition) -> complex:
    """Numeric J(chi, chi) = G(chi)^2 / G(conj chi); cross-check path only."""
    if part.n != 3:
        raise ValueError("cubic partition expected")
    g = memo(part, gauss_sum)
    w = OMEGA_COMPLEX
    g_bar = _numeric_gauss(field, part.labels, (1, w * w, w))   # w <-> w^2
    return g * g / g_bar


def jacobi_char2_closed_form(m: int) -> EisensteinInt:
    """Closed form -(-2)**(m/2) of the cubic Jacobi/Gauss sum over F_{2^m}."""
    if m % 2:
        raise ValueError("m must be even in characteristic 2")
    return EisensteinInt(-((-2) ** (m // 2)))


def chi_bar_times(part: CosetPartition, beta: int,
                  j: EisensteinInt) -> EisensteinInt:
    """conj(chi)(beta) * j for nonzero beta (the class form of A(beta))."""
    lab = part.label(beta)
    if lab < 0:
        raise ValueError("beta must be nonzero")
    return omega_pow(-lab) * j
