"""Counts of ordered decompositions beta = x + y with x, y in given cosets.

R(beta, i, j) counts ordered pairs: x from coset j, y from coset i.
"Ordered" matters: the count enumerates field elements z = x with
y = beta - x determined, so (x, y) and (y, x) are distinct solutions when
i == j.  The brute-force routines here are the oracle every closed form
is checked against; they only ever enumerate pairs and never peek at the
formulas.

Closed forms:
  n = 2:  R = (q - 2 - chi2(beta)*((-1)^i + (-1)^j) - (-1)^(i+j)*chi2(-1)) / 4
  n = 3:  R = (q - 2 - K - conj(K)) / 9,
          K = chi3(beta)*(w^2i + w^2j) + w^(2i+j)
              - w^(2i+2j)*conj(chi3)(beta)*J(chi3, chi3)
Both divisions are exact whenever the inputs are valid; a nonzero
remainder raises IdentityViolation instead of truncating.

For beta = 0 the count is (q-1)/n when coset j and coset (j + dlog(-1))
coincide with coset i, else 0.  Note the value is (q-1)/n, not (p-1)/n:
brute force on F_9 gives 4 = (9-1)/2, which pins the m > 1 reading.
"""

from __future__ import annotations

import numpy as np

from . import registry
from .characters import CosetPartition, memo, pair_table
from .cyclotomic import jacobi_cubic
from .eisenstein import EisensteinInt, omega_pow
from .errors import IdentityViolation
from .field import FieldTable


def _exact_div(value: int, k: int, what: str) -> int:
    if value % k:
        raise IdentityViolation(f"{what}: {value} is not divisible by {k}")
    return value // k


def brute_rep_count(field: FieldTable, part: CosetPartition,
                    beta: int, i: int, j: int) -> int:
    """Oracle: enumerate x in coset j and test beta - x against coset i."""
    registry.mark("brute_rep_count")
    if beta == 0:
        raise ValueError("beta = 0 is handled by rep_count_zero")
    # labels[0] is -1, so y = 0 is never counted
    ys = field.add_vec(beta, field.neg_vec(part.cosets[j]))
    return int((part.labels[ys] == i).sum())


def rep_count_table(field: FieldTable, part: CosetPartition) -> np.ndarray:
    """Pair table f_i * f_j: out[i, j, beta] = #{(x, y) in C_j x C_i : x+y = beta}.
    brute_rep_count is its oracle at beta != 0; the beta = 0 column is
    unchecked (``zero_sum`` tests rep_count_zero against its brute force)."""
    return memo(part, pair_table)


def closed_rep_count_quadratic(field: FieldTable, part: CosetPartition,
                               beta: int, i: int, j: int) -> int:
    registry.mark("closed_rep_count_quadratic")
    if part.n != 2:
        raise ValueError("quadratic closed form needs a quadratic partition")
    if beta == 0:
        raise ValueError("beta = 0 is handled by rep_count_zero")
    chi_beta = (1, -1)[part.label(beta)]
    chi_m1 = 1 if field.q % 4 == 1 else -1
    val = (field.q - 2
           - chi_beta * ((-1) ** i + (-1) ** j)
           - (-1) ** (i + j) * chi_m1)
    return _exact_div(val, 4, "quadratic representation count")


def cubic_K(part: CosetPartition, beta: int, i: int, j: int,
            jac: EisensteinInt) -> EisensteinInt:
    """The K term of the cubic closed form, exactly in Z[w]."""
    lab = part.label(beta)
    if lab < 0:
        raise ValueError("beta must be nonzero")
    chi_b = omega_pow(lab)
    chi_b_bar = omega_pow(-lab)
    return (chi_b * (omega_pow(2 * i) + omega_pow(2 * j))
            + omega_pow(2 * i + j)
            - omega_pow(2 * i + 2 * j) * chi_b_bar * jac)


def closed_rep_count_cubic(field: FieldTable, part: CosetPartition,
                           beta: int, i: int, j: int) -> int:
    registry.mark("closed_rep_count_cubic")
    if part.n != 3:
        raise ValueError("cubic closed form needs a cubic partition")
    if beta == 0:
        raise ValueError("beta = 0 is handled by rep_count_zero")
    k = cubic_K(part, beta, i, j, memo(part, jacobi_cubic))
    k_plus_conj = k + k.conj()
    if not k_plus_conj.is_rational():
        raise IdentityViolation("K + conj(K) has a nonzero w coordinate")
    return _exact_div(field.q - 2 - k_plus_conj.a, 9,
                      "cubic representation count")


def rep_count_zero(field: FieldTable, part: CosetPartition,
                   i: int, j: int) -> int:
    """Decompositions of 0: (q-1)/n when -coset_j is coset_i, else 0."""
    registry.mark("rep_count_zero")
    n = part.n
    lab_m1 = part.label(field.neg(1))
    if (j + lab_m1) % n == i % n:
        return (field.q - 1) // n
    return 0


def rep_count_zero_brute(field: FieldTable, part: CosetPartition,
                         i: int, j: int) -> int:
    """Oracle for the zero-sum counts: enumerate x in coset j with -x in coset i."""
    return int((part.labels[field.neg_vec(part.cosets[j])] == i).sum())


def closed_rep_class_table(field: FieldTable, part: CosetPartition) -> np.ndarray:
    """Closed-form counts per class: out[label(beta), i, j]."""
    n = part.n
    reps = [int(part.cosets[c][0]) for c in range(n)]
    out = np.empty((n, n, n), dtype=np.int64)
    for c in range(n):
        for i in range(n):
            for j in range(n):
                if n == 2:
                    out[c, i, j] = closed_rep_count_quadratic(
                        field, part, reps[c], i, j)
                else:
                    out[c, i, j] = closed_rep_count_cubic(
                        field, part, reps[c], i, j)
    return out


def perron_table(field: FieldTable, part: CosetPartition) -> dict[str, int]:
    """The four prime-field decomposition counts by residuacity class.

    Keys: <class of beta>_as_two_<class of summands>; both diagonal cases
    equal floor((p+1)/4) - 1 and both mixed-class cases floor((p+1)/4).
    They are read off the closed-form class table, shared through ``memo``.
    """
    registry.mark("perron_table")
    if field.m != 1 or part.n != 2:
        raise ValueError("prime field and quadratic partition expected")
    table = memo(part, closed_rep_class_table)
    return {
        "qr_as_two_qr": int(table[0, 0, 0]),
        "qr_as_two_nonres": int(table[0, 1, 1]),
        "nonres_as_two_qr": int(table[1, 0, 0]),
        "nonres_as_two_nonres": int(table[1, 1, 1]),
    }
