"""Counts of ordered decompositions beta = x + y with x, y in given cosets.

R(beta, i, j) counts ordered pairs: x from coset j, y from coset i.
"Ordered" matters: the count enumerates field elements z = x with
y = beta - x determined, so (x, y) and (y, x) are distinct solutions when
i == j.  ``brute_rep_count`` is the oracle every closed form is checked
against, at every beta in [0, q), 0 included: a read of
``characters.label_pairs``, which enumerates pairs and never peeks at the
formulas or the pair table.  An element outside [0, q) is refused with
ValueError.

Closed forms:
  n = 2:  R = (q - 2 - chi2(beta)*((-1)^i + (-1)^j) - (-1)^(i+j)*chi2(-1)) / 4
  n = 3:  R = (q - 2 - K - conj(K)) / 9,
          K = chi3(beta)*(w^2i + w^2j) + w^(2i+j)
              - w^(2i+2j)*conj(chi3)(beta)*J(chi3, chi3)
Both depend on beta only through its class label(beta), so
``closed_rep_class_table`` evaluates them once per (class, i, j) cell, the
one place they are evaluated; the division by n^2 is exact whenever the
inputs are valid, and a nonzero remainder raises IdentityViolation instead
of truncating.

For beta = 0 the count is (q-1)/n when coset j and coset (j + dlog(-1))
coincide with coset i, else 0.  Note the value is (q-1)/n, not (p-1)/n:
brute force on F_9 gives 4 = (9-1)/2, which pins the m > 1 reading.
``closed_rep_count`` answers every beta, 0 included, from the two.  Every
count refuses a coset index outside [0, n) with ValueError.
"""

from __future__ import annotations

import numpy as np

from . import registry
from .characters import (CosetPartition, label_pairs, memo, pair_table,
                         require_coset_indices)
from .cyclotomic import jacobi_cubic
from .eisenstein import EisensteinInt, omega_pow
from .errors import exact_div
from .field import FieldTable


@registry.op
def brute_rep_count(field: FieldTable, part: CosetPartition,
                    beta: int, i: int, j: int) -> int:
    """Oracle for every beta in [0, q), 0 included: the x in coset j with
    beta - x in coset i, by ``label_pairs``."""
    require_coset_indices(part.n, i, j)
    return int(label_pairs(field, part, beta)[j, i])


def rep_count_table(field: FieldTable, part: CosetPartition) -> np.ndarray:
    """Pair table f_i * f_j: out[i, j, beta] = #{(x, y) in C_j x C_i : x+y = beta}.
    brute_rep_count spot-checks it at beta != 0; every column, beta = 0 too,
    equals ``label_pairs`` transposed in the tests, not in a runtime check."""
    return memo(part, pair_table)


def cubic_K(part: CosetPartition, beta: int, i: int, j: int,
            jac: EisensteinInt) -> EisensteinInt:
    """The K term of the cubic closed form, exactly in Z[w]."""
    require_coset_indices(part.n, i, j)
    lab = part.label(beta)
    if lab < 0:
        raise ValueError("beta must be nonzero")
    chi_b = omega_pow(lab)
    chi_b_bar = omega_pow(-lab)
    return (chi_b * (omega_pow(2 * i) + omega_pow(2 * j))
            + omega_pow(2 * i + j)
            - omega_pow(2 * i + 2 * j) * chi_b_bar * jac)


def closed_rep_class_table(field: FieldTable, part: CosetPartition) -> np.ndarray:
    """Closed-form counts per class: out[label(beta), i, j], beta != 0."""
    n, q = part.n, field.q
    if n == 2:
        c, i, j = np.indices((2, 2, 2))
        chi_m1 = (-1) ** part.label(field.neg(1))     # label 0: +1, label 1: -1
        num = (q - 2 - (-1) ** c * ((-1) ** i + (-1) ** j)
               - (-1) ** (i + j) * chi_m1)
    else:
        jac = memo(part, jacobi_cubic)
        ks = [cubic_K(part, int(part.cosets[c][0]), i, j, jac)
              for c, i, j in np.ndindex(3, 3, 3)]
        # z + conj(z) = (2a - b) + 0 w for every z, so its a coordinate is all of it
        num = np.array([q - 2 - (k + k.conj()).a for k in ks]).reshape(3, 3, 3)
    return exact_div(num, n * n, "representation count")


@registry.op
def closed_rep_count(field: FieldTable, part: CosetPartition,
                     beta: int, i: int, j: int) -> int:
    """R(beta, i, j) for every beta in [0, q): the class table at beta != 0,
    the (q-1)/n rule at beta = 0 (-coset_j is coset_i)."""
    require_coset_indices(part.n, i, j)
    c = part.label(beta)
    if c >= 0:
        return int(memo(part, closed_rep_class_table)[c, i, j])
    lab_m1 = part.label(field.neg(1))
    return (field.q - 1) // part.n if (j + lab_m1) % part.n == i else 0


@registry.op
def perron_table(field: FieldTable, part: CosetPartition) -> dict[str, int]:
    """The four prime-field decomposition counts by residuacity class.

    Keys: <class of beta>_as_two_<class of summands>; both diagonal cases
    equal floor((p+1)/4) - 1 and both mixed-class cases floor((p+1)/4).
    They are read off the closed-form class table, shared through ``memo``.
    """
    if field.m != 1 or part.n != 2:
        raise ValueError("prime field and quadratic partition expected")
    table = memo(part, closed_rep_class_table)
    return {
        "qr_as_two_qr": int(table[0, 0, 0]),
        "qr_as_two_nonres": int(table[0, 1, 1]),
        "nonres_as_two_qr": int(table[1, 0, 0]),
        "nonres_as_two_nonres": int(table[1, 1, 1]),
    }
