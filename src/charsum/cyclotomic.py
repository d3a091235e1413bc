"""Jacobi and Gauss sums for the quadratic and cubic characters.

Jacobi sums of the cubic character are computed directly in Z[w] by
counting label pairs, which keeps them exact.  Gauss sums are exact only
in characteristic 2 (the additive character takes values +-1 there); for
odd p they live in a larger cyclotomic ring, so they are computed
numerically and used purely as cross-checks against the exact values.

The canonical additive character is psi(x) = exp(2*pi*i*Tr(x)/p) with Tr
the absolute trace to Z_p.
"""

from __future__ import annotations

import cmath

import numpy as np

from . import registry
from .characters import CosetPartition, memo, pair_table, partition
from .eisenstein import EisensteinInt, from_omega_counts, omega_pow
from .errors import IdentityViolation
from .field import FieldTable


def _chi_pair_sum(field: FieldTable, part: CosetPartition,
                  beta: int) -> EisensteinInt:
    """sum_x chi(x)*chi(beta - x), by folding label sums over all x."""
    if part.n != 3:
        raise ValueError("cubic partition expected")
    lab = part.labels.astype(np.int16)
    ly = lab[field.add_vec(beta, field.neg_vec(field._arange))]     # beta - x
    valid = (lab >= 0) & (ly >= 0)
    counts = np.bincount((lab[valid] + ly[valid]) % 3, minlength=3)
    return from_omega_counts(int(counts[0]), int(counts[1]), int(counts[2]))


def jacobi_cubic(field: FieldTable, part: CosetPartition) -> EisensteinInt:
    """J(chi, chi) = sum over c1 + c2 = 1 of chi(c1)*chi(c2), exactly in Z[w]."""
    registry.mark("jacobi_cubic")
    j = _chi_pair_sum(field, part, 1)
    if j.norm() != field.q:
        raise IdentityViolation(
            f"norm(J) = {j.norm()} != q = {field.q} over F_{field.spec.label()}")
    return j


def a_beta(field: FieldTable, part: CosetPartition, beta: int) -> EisensteinInt:
    """A(beta) = sum_x chi(x)*chi(beta - x); equals conj(chi)(beta) * J."""
    registry.mark("a_beta")
    if beta == 0:
        raise ValueError("beta must be nonzero")
    return _chi_pair_sum(field, part, beta)


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


def gauss_sum(field: FieldTable, part: CosetPartition, mode: str = "numeric"):
    """Gauss sum of the partition's character against the canonical psi.

    mode="exact" is only available for p = 2 (returns an EisensteinInt);
    mode="numeric" works for any p and returns a complex value.
    """
    registry.mark("gauss_sum")
    lab = part.labels
    tr = field.trace_vec()
    nz = field._arange[1:]
    if mode == "exact":
        if field.p != 2:
            raise ValueError("exact Gauss sums require characteristic 2")
        sign = 1 - 2 * tr[nz].astype(np.int64)      # (-1)**Tr(x)
        counts = [int(sign[lab[nz] == k].sum()) for k in range(3)]
        return from_omega_counts(*counts)
    if mode != "numeric":
        raise ValueError(f"unknown mode {mode!r}")
    psi = np.exp(2j * np.pi * tr[nz] / field.p)
    if part.n == 2:
        chi = 1.0 - 2.0 * lab[nz]
    else:
        w = cmath.exp(2j * cmath.pi / 3)
        chi = np.array([1, w, w * w])[lab[nz]]
    return complex(np.sum(chi * psi))


def jacobi_from_gauss(field: FieldTable, part: CosetPartition) -> complex:
    """Numeric J(chi, chi) = G(chi)^2 / G(conj chi); cross-check path only."""
    registry.mark("jacobi_from_gauss")
    if part.n != 3:
        raise ValueError("cubic partition expected")
    g = memo(part, gauss_sum)
    g_bar = gauss_sum(field, partition(field, 3, conjugate=not part.conjugate))
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
