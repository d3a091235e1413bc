"""Quadratic and cubic multiplicative characters and their coset partitions.

A character of order n on F_q* is realized through its kernel cosets:
``labels[x] = dlog(x) mod n`` for x != 0 (sentinel -1 at 0), so coset 0
is the subgroup of n-th powers and coset j is alpha**j times it.  The
character value at x is (-1)**label (n = 2) or w**label (n = 3); all
character-sum machinery downstream works on the integer labels and never
touches floating point.  ``label_pairs`` counts label pairs by enumeration,
the oracle of the convolutions ``pair_table`` and ``winterhof_sweep``.

The character is pinned to the canonical alpha.  Every result verified
here is invariant under swapping a cubic character with its conjugate,
but concrete labels are not, so ``conjugate=True`` is available to build
the swapped partition for cross-checks.
"""

from __future__ import annotations

import numpy as np

from . import registry
from .eisenstein import from_omega_counts
from .errors import IdentityViolation, UnsupportedCharacterError
from .field import FieldTable, convolve


def character_exists(p: int, m: int, n: int) -> bool:
    """Existence of a nontrivial character of order n on F_{p^m}*."""
    if n == 2:
        return p != 2
    if n == 3:
        # equivalently: p == 2 with m even, p = 1 mod 6, or p = 5 mod 6
        # with m even
        return (p ** m - 1) % 3 == 0
    return False


def require_character(field: FieldTable, n: int) -> None:
    if n not in (2, 3):
        raise ValueError(f"character order must be 2 or 3, got {n}")
    if not character_exists(field.p, field.m, n):
        raise UnsupportedCharacterError(
            f"no character of order {n} exists over F_{field.spec.label()}"
            f" (q - 1 = {field.q - 1})")


def require_coset_indices(n: int, i: int, j: int) -> None:
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("coset indices must lie in [0, n)")


class CosetPartition:
    """Kernel-coset partition of F_q* under a character of order n."""

    __slots__ = ("field", "n", "conjugate", "labels", "cosets", "_memo")

    def __init__(self, field: FieldTable, n: int, conjugate: bool,
                 labels: np.ndarray, cosets: tuple):
        self.field = field
        self.n = n
        self.conjugate = conjugate
        self.labels = labels
        self.cosets = cosets
        self._memo = {}     # see ``memo``

    def label(self, x: int) -> int:
        """Coset index of x, or -1 for the zero element; x must lie in [0, q)."""
        return int(self.labels[self.field.require_element(x)])

    def indicators(self) -> np.ndarray:
        """Rows f_c = [x in C_c] of the coset characteristic functions, (n, q)."""
        return (self.labels == np.arange(self.n)[:, None]).astype(np.int64)

    def __repr__(self):
        tag = ", conjugate" if self.conjugate else ""
        return f"CosetPartition(F_{self.field.spec.label()}, n={self.n}{tag})"


@registry.op
def partition(field: FieldTable, n: int, conjugate: bool = False) -> CosetPartition:
    """Build the coset partition for the order-n character on the field."""
    require_character(field, n)
    # no np.where on the int32 logs: its int32 loop is code nothing else runs
    labels = (field.dlog_table % n).astype(np.int8)
    labels[field.dlog_table < 0] = -1
    if conjugate and n == 3:
        swap = labels > 0
        labels[swap] = 3 - labels[swap]
    cosets = tuple(np.flatnonzero(labels == j) for j in range(n))
    size = (field.q - 1) // n
    if any(len(c) != size for c in cosets):
        raise IdentityViolation("coset sizes are not (q-1)/n")
    lab_m1 = int(labels[field.neg(1)])
    expected = (0 if field.q % 4 == 1 else 1) if n == 2 else 0
    if lab_m1 != expected:
        raise IdentityViolation(
            f"label(-1) = {lab_m1}, expected {expected} for n={n}, q={field.q}")
    return CosetPartition(field, n, bool(conjugate), labels, cosets)


def memo(part: CosetPartition, compute):
    """``compute(part.field, part)``, computed once per partition and kept on it.

    The values several checks of one character read (``pair_table``, also
    ``charpoly``'s products; ``jacobi_cubic``, ``closed_rep_class_table``,
    ``triple_counts``, ``ratio_orbits``, the numeric ``gauss_sum``) are
    taken through here.
    An array comes back read-only, as every caller shares it; an exception
    is not kept, so the next call computes again.
    """
    if compute not in part._memo:
        value = compute(part.field, part)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        part._memo[compute] = value
    return part._memo[compute]


def label_pairs(field: FieldTable, part: CosetPartition, gamma: int,
                sign: int = -1) -> np.ndarray:
    """H[a, b] = #{x : label(x) = a, label(gamma + sign*x) = b}, shape (n, n),
    over the x with both elements nonzero.  sign -1 counts sums:
    H[j, i] = R(gamma, i, j), gamma = 0 included; sign +1 counts shifts.

    The one enumeration oracle behind R, R(0), J, A(beta), sigma and N(2).
    It reads only ``part.labels`` and index addition and negation, never
    ``pair_table``, ``convolve``, ``memo``, a closed form or the label(-1)
    relabelling of ``winterhof_sweep``, so it shares no code with the fast
    paths and closed forms it checks."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    lab, n = part.labels, part.n
    xs = field._arange if sign == 1 else field.neg_vec(field._arange)
    lab_y = lab[field.add_vec(field.require_element(gamma), xs)]
    # cell (label(x) + 1, label(y) + 1): row and column 0 take the zero elements
    cells = lab * (n + 1) + lab_y + (n + 2)
    return np.bincount(cells, minlength=(n + 1) ** 2).reshape(n + 1, -1)[1:, 1:]


def fold_pairs(h: np.ndarray, sign: int) -> list[int]:
    """Sums of h[a, b] over a + sign*b = k (mod n), for k = 0..n-1."""
    rows, n = h.tolist(), len(h)
    return [sum(rows[a][sign * (k - a) % n] for a in range(n)) for k in range(n)]


@registry.op
def char_sum_moment(field: FieldTable, part: CosetPartition, gamma=None):
    """First moment (gamma None) or shifted correlation sum of the character.

    Returns the exact value of sum_x chi(x) or sum_x chi(x)*conj(chi)(x+gamma):
    an integer for n = 2, an EisensteinInt for n = 3.  Both are theory-pinned
    (0 and -1 respectively); computing them is the point.
    """
    n = part.n
    if gamma is None:
        counts = np.bincount(part.labels[part.labels >= 0], minlength=n).tolist()
    else:
        if gamma == 0:
            raise ValueError("shifted moment requires gamma != 0")
        counts = fold_pairs(label_pairs(field, part, gamma, 1), -1)
    return counts[0] - counts[1] if n == 2 else from_omega_counts(*counts)


@registry.op
def winterhof_counts(field: FieldTable, part: CosetPartition,
                     x_j: int) -> tuple[int, ...]:
    """sigma_i = #{x : chi(x)*conj(chi)(x + x_j) = w**i} for a fixed x_j != 0.

    x running over elements where both arguments are nonzero; satisfies
    sigma_0 + 1 = sigma_1 = ... = sigma_{n-1} = (q-1)/n.
    """
    if x_j == 0:
        raise ValueError("x_j must be nonzero")
    return tuple(fold_pairs(label_pairs(field, part, x_j, 1), -1))


def pair_table(field: FieldTable, part: CosetPartition) -> np.ndarray:
    """out[i, j] = f_i * f_j for the coset characteristic functions, shape (n, n, q).

    out[i, j, beta] = #{(x, y) in C_j x C_i : x + y = beta}; the representation
    counts, the sigma chain and A(beta) are all folds of it."""
    f = part.indicators()
    return convolve(field, f[:, None], f[None, :])


def winterhof_sweep(field: FieldTable, part: CosetPartition) -> np.ndarray:
    """sigma vectors for every nonzero shift at once, shape (q, n); row 0 unused.

    sigma_k(gamma) counts x in C_i with x + gamma in C_(i-k), summed over i;
    as -x lies in C_(i + l(-1)), that is (f_(i + l(-1)) * f_(i-k))(gamma).
    """
    n = part.n
    table = memo(part, pair_table)
    i = np.arange(n)
    shift = part.label(field.neg(1))
    out = np.stack([table[(i + shift) % n, (i - k) % n].sum(axis=0)
                    for k in range(n)], axis=1)
    out[0] = 0
    return out
