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
from .characters import CosetPartition, partition, sweep_block
from .eisenstein import EisensteinInt, from_omega_counts, omega_pow
from .errors import IdentityViolation
from .field import FieldTable


def _omega_fold(k_valid: np.ndarray) -> EisensteinInt:
    counts = np.bincount(k_valid % 3, minlength=3)
    return from_omega_counts(int(counts[0]), int(counts[1]), int(counts[2]))


def jacobi_cubic(field: FieldTable, part: CosetPartition) -> EisensteinInt:
    """J(chi, chi) = sum over c1 + c2 = 1 of chi(c1)*chi(c2), exactly in Z[w]."""
    registry.mark("jacobi_cubic")
    if part.n != 3:
        raise ValueError("jacobi_cubic needs a cubic partition")
    lab = part.labels
    c1 = field._arange
    c2 = field.add_vec(1, field.neg_vec(c1))        # 1 - c1
    l1, l2 = lab[c1].astype(np.int16), lab[c2].astype(np.int16)
    valid = (l1 >= 0) & (l2 >= 0)
    j = _omega_fold((l1[valid] + l2[valid]))
    if j.norm() != field.q:
        raise IdentityViolation(
            f"norm(J) = {j.norm()} != q = {field.q} over F_{field.spec.label()}")
    return j


def a_beta(field: FieldTable, part: CosetPartition, beta: int) -> EisensteinInt:
    """A(beta) = sum_x chi(x)*chi(beta - x); equals conj(chi)(beta) * J."""
    registry.mark("a_beta")
    if part.n != 3:
        raise ValueError("a_beta needs a cubic partition")
    if beta == 0:
        raise ValueError("beta must be nonzero")
    lab = part.labels
    x = field._arange
    y = field.add_vec(beta, field.neg_vec(x))       # beta - x
    lx, ly = lab[x].astype(np.int16), lab[y].astype(np.int16)
    valid = (lx >= 0) & (ly >= 0)
    return _omega_fold(lx[valid] + ly[valid])


def a_beta_sweep(field: FieldTable,
                 part: CosetPartition) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) coordinates of A(beta) for every beta, vectorized; row 0 unused."""
    q = field.q
    lab16 = part.labels.astype(np.int16)
    neg_all = field.neg_vec(field._arange)
    a_out = np.zeros(q, dtype=np.int64)
    b_out = np.zeros(q, dtype=np.int64)
    block = sweep_block(field)
    for lo in range(1, q, block):
        betas = np.arange(lo, min(lo + block, q), dtype=np.int64)
        diffs = field.add_outer(betas, neg_all)     # rows: beta - x
        ly = lab16[diffs]
        valid = (lab16[None, :] >= 0) & (ly >= 0)
        k = np.where(valid, (lab16[None, :] + ly) % 3, 3)
        rows = np.repeat(np.arange(len(betas)), q)
        flat = np.bincount(rows * 4 + k.ravel(), minlength=len(betas) * 4)
        counts = flat.reshape(len(betas), 4)
        a_out[betas] = counts[:, 0] - counts[:, 2]
        b_out[betas] = counts[:, 1] - counts[:, 2]
    return a_out, b_out


def gauss_sum(field: FieldTable, n: int, mode: str = "numeric",
              conjugate: bool = False):
    """Gauss sum of the order-n character against the canonical psi.

    mode="exact" is only available for p = 2 (returns an EisensteinInt);
    mode="numeric" works for any p and returns a complex value.
    """
    registry.mark("gauss_sum")
    part = partition(field, n, conjugate=conjugate)
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
    if n == 2:
        chi = 1.0 - 2.0 * lab[nz]
    else:
        w = cmath.exp(2j * cmath.pi / 3)
        chi = np.array([1, w, w * w])[lab[nz]]
    return complex(np.sum(chi * psi))


def jacobi_from_gauss(field: FieldTable, conjugate: bool = False) -> complex:
    """Numeric J(chi, chi) = G(chi)^2 / G(conj chi); cross-check path only."""
    registry.mark("jacobi_from_gauss")
    g = gauss_sum(field, 3, mode="numeric", conjugate=conjugate)
    g_bar = gauss_sum(field, 3, mode="numeric", conjugate=not conjugate)
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
