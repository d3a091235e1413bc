"""Shift counts: how many beta move t fixed same-coset elements into one coset.

For a set S = {e_1, ..., e_t} of distinct nonzero elements sharing a
coset label, N(S) counts the beta for which all shifted values beta + e_i
are nonzero and share a single coset label.  A shifted value of 0 belongs
to no coset, so beta = -e_i is excluded automatically; beta = 0 itself is
admissible (it trivially keeps the common label) and is counted.

Maxima are searched over t-subsets of coset 0 only: rescaling a subset of
coset j by alpha^(-j) is a bijection beta -> beta * alpha^(-j) on the
solutions, so every coset attains the same maximum.

Every maximum comes from the affine reduction: x -> s*x + e maps
{0, 1, d1, ...} onto {e, e + s, e + s*d1, ...}, and scaling by s only
permutes coset labels, so N of that subset depends only on its ratios
d = (e_k - e)/s.  For t = 1 and t = 2 there is no ratio, so every subset
has the same N and the first elements of coset 0 are the witness:
N({e}) = q - 1, since the one condition is beta + e != 0, and a pair has
N = #{y : y and y + 1 nonzero in one coset}.  For t >= 3 the max is the
largest N({0, 1, d1, d2, ...}) over distinct ratios not in {0, 1}, found
by one descent over such prefixes (``_descend``) on rows of
``extension_counts``, the one kernel for N(P + {e}): the first row is
M(d) = N({0, 1, d}) (``triple_counts``), d1 runs over every ratio at
t = 3 and over the least of each S3 x Gal orbit above, the one table
``ratio_orbits`` keeps (``orbit_map`` finds the map from a ratio to it
again), and d2 < d3 < ... in index order.  The witness is the first subset
in lexicographic element order whose ratios attain the max, so it is
deterministic.

Every rule of a shift query lives here, each bound at its allocation:
``max_shift_count`` is the one entry point for max N(t) at every t, with
the size bound of t >= 5 (t = 3 and 4 need none below the field size
cap); ``reduced_counts`` is the one reader of N off the reduction, for the
witness walk and ``checks.reduction_matches_row_counts`` alike;
``closed_form_max3`` is None where no closed form is stated.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import registry
from .characters import CosetPartition, label_pairs, memo, require_character
from .errors import IdentityViolation
from .field import FieldTable, convolve

@registry.op
def shift_count(field: FieldTable, part: CosetPartition, elements) -> int:
    """N for an explicit subset; validates the subset invariants."""
    els = [int(e) for e in elements]
    if len(set(els)) != len(els):
        raise ValueError("elements must be distinct")
    if any(e == 0 for e in els):
        raise ValueError("elements must be nonzero")
    labs = {part.label(e) for e in els}
    if len(labs) != 1:
        raise ValueError("elements must share one coset label")
    rows = _label_rows(field, part, np.array(els))
    return int(((rows[0] >= 0) & (rows == rows[0]).all(axis=0)).sum())


def _label_rows(field: FieldTable, part: CosetPartition,
                elements: np.ndarray) -> np.ndarray:
    """Row per element e: label of (beta + e) for every beta (-1 at zero)."""
    return part.labels[field.add_outer(elements, field._arange)]


def extension_counts(field: FieldTable, part: CosetPartition,
                     *prefix) -> np.ndarray:
    """N(prefix + {e}) for every e, as a (k, q) array; a length-k vector
    entry stacks k prefixes, one per row (k = 1 for scalars only).

    With h_c(beta) the product of f_c(beta + x) over the prefix,
    N(prefix + {e}) = sum_c sum_beta h_c(beta) f_c(beta + e): one broadcast
    convolution of h_c(-beta) with f_c, summed over c."""
    f = part.indicators()
    neg = field.neg_vec(field._arange)
    h = 1
    for x in prefix:
        h = h * f[:, field.add_outer(np.atleast_1d(x), neg)]
    return convolve(field, h, f[:, None]).sum(axis=0)


def triple_counts(field: FieldTable, part: CosetPartition) -> np.ndarray:
    """M(d) = N({0, 1, d}) for every d: the y with y, y + 1 and y + d nonzero
    in one coset."""
    return extension_counts(field, part, 0, 1)[0]


def affine_ratios(field: FieldTable, a, b, xs) -> np.ndarray:
    """The ratios d = (x - a)/(b - a) of the affine reduction, per x, 0 at
    x = a; a, b and xs broadcast."""
    neg_a = field.neg_vec(a)
    num = field._add(xs, neg_a)
    log = np.subtract(field.dlog_table[num], field.dlog_table[field._add(b, neg_a)],
                      dtype=np.int64) % (field.q - 1)
    return np.where(num != 0, field.exp[log], np.int64(0))


_ORDERS = tuple(itertools.permutations(range(3)))   # (a, b, c) into (0, 1, d)


def ratio_orbits(field: FieldTable, part: CosetPartition) -> np.ndarray:
    """rep[d1], the least index in the S3 x Gal orbit of d1: the least image
    of c under the 6m maps Frob^k o (x -> (x - a)/(b - a)), (a, b, c) the
    orderings of (0, 1, d1), each of which takes {0, 1, d1} onto {0, 1, .}.

    Every x -> s*x^(p^k) + e permutes the cosets, so N({0, 1, d1} + X) =
    N({0, 1, rep[d1]} + g(X)) for every set X, with g the map ``orbit_map``
    finds; a running minimum over the images finds rep in O(q) memory."""
    rep = field._arange.copy()
    points = (0, 1, field._arange[2:])
    for a, b, c in _ORDERS:
        ratio = affine_ratios(field, points[a], points[b], points[c])
        for k in range(field.m):
            np.minimum(rep[2:], field.frobenius(ratio, k), out=rep[2:])
    return rep


def orbit_map(field: FieldTable, rep: np.ndarray, d1: int, xs) -> np.ndarray:
    """g(x) for every x of xs, with g the first map of ``ratio_orbits``'s
    scan that takes d1's third point c to rep[d1], so {0, 1, d1} onto
    {0, 1, rep[d1]}.  Raises IdentityViolation where none does: then
    rep[d1] is not in the orbit of d1."""
    points = (0, 1, int(d1))
    for a, b, c in _ORDERS:
        ratio = affine_ratios(field, points[a], points[b], points[c])
        for k in range(field.m):
            if field.frobenius(ratio, k) == rep[d1]:
                return field.frobenius(
                    affine_ratios(field, points[a], points[b], xs), k)
    raise IdentityViolation(f"ratio {rep[d1]} is not in the orbit of {d1}")


def reduced_counts(field: FieldTable, part: CosetPartition, prefix,
                   xs) -> np.ndarray:
    """N(prefix + {x}) for every x of xs, read off the partition's memo by
    the affine reduction, with d = (x - e1)/(e2 - e1): M(d) for a prefix
    (e1, e2) (``triple_counts``); M2(d3, d) = N({0, 1, d3, d}) for
    (e1, e2, e3), the row of rep[d3] counted again and read at g(d)
    (``ratio_orbits``, ``orbit_map``)."""
    e1, e2, *rest = (int(e) for e in prefix)
    ratios = affine_ratios(field, e1, e2, xs)
    if not rest:
        return memo(part, triple_counts)[ratios]
    rep = memo(part, ratio_orbits)
    d3 = int(affine_ratios(field, e1, e2, rest[0]))
    return extension_counts(field, part, 0, 1, int(rep[d3]))[0][
        orbit_map(field, rep, d3, ratios)]


def _descend(field: FieldTable, part: CosetPartition, t: int,
             xs: np.ndarray) -> np.ndarray:
    """Per d1 of xs, the max of N({0, 1, d1, d2, ..., d_(t-2)}) over
    d2 < ... < d_(t-2) not in {0, 1, d1}: exact where it reaches the max
    over all of xs, below that max elsewhere (-1 where pruned).

    The row of a prefix P holds N(P + {x}) for every x, and it bounds every
    set that extends P + {x}, as N only falls when elements join.  So the
    children x of P are taken in falling row order, their rows counted by
    stacked ``extension_counts`` calls in chunks of about 2^20 cells, and
    the scan of a level stops at the first row below the best set so far."""
    step = max(1, (1 << 20) // (part.n * field.q))
    pool = field._arange[2:]
    best = -1

    def level(prefix, row, xs):
        nonlocal best
        if len(prefix) == t - 1:
            found = row[xs]
            best = max(best, int(found.max(initial=-1)))
            return found
        found = np.full(len(xs), -1, dtype=np.int64)
        here = -1                   # below d1, only the level's max is read
        order = np.argsort(-row[xs], kind="stable")
        for lo in range(0, len(order), step):
            chunk = order[lo:lo + step]
            chunk = chunk[row[xs[chunk]] >= max(best, here + 1)]
            if not len(chunk):
                break
            rows = extension_counts(field, part, *prefix, xs[chunk])
            for i, child in zip(chunk.tolist(), rows):
                x = int(xs[i])
                if row[x] < max(best, here + 1):
                    return found
                later = pool[pool != x] if len(prefix) == 2 else xs[xs > x]
                found[i] = level(prefix + (x,), child, later).max(initial=-1)
                if len(prefix) > 2:
                    here = max(here, int(found[i]))
        return found

    return level((0, 1), memo(part, triple_counts), xs)


@registry.op
def max_shift_count(field: FieldTable, part: CosetPartition,
                    t: int) -> tuple[int, tuple[int, ...]]:
    """Maximum of N over t-subsets of coset 0, with witness.

    The witness is the lexicographically least maximizing subset in
    element-index order.  t = 1 and t = 2 are closed forms of the affine
    reduction; t >= 3 take the max from ``_descend``, in O(q) memory beside
    chunks of about 2^20 cells per level.  The witness walk takes the
    prefixes e_i < e_j of coset 0 in lex order; per prefix, each later e_k
    whose ratio (e_k - e_i)/(e_j - e_i) has a representative that reaches
    the max starts the lex-first extension by later elements: each step
    counts N(prefix + {x}) for every later x (``reduced_counts`` on a
    3-element prefix, ``extension_counts`` on a longer one) and drops the x
    whose N is below the max.
    Raises ValueError for t < 1, a coset smaller than t, or, at t >= 5,
    C(|C_0|, t) * q above 2e10."""
    if t < 1:
        raise ValueError("--t must be positive")
    coset0 = part.cosets[0]
    if len(coset0) < t:
        raise ValueError(f"coset size {len(coset0)} < t = {t}")
    if t == 1:
        return field.q - 1, (int(coset0[0]),)
    if t == 2:
        pairs = int(np.trace(label_pairs(field, part, 1, 1)))
        return pairs, (int(coset0[0]), int(coset0[1]))
    if t > 4 and math.comb(len(coset0), t) * field.q > 2e10:
        raise ValueError("subset search too large; reduce --t or the field")
    rep = field._arange if t == 3 else memo(part, ratio_orbits)
    xs = rep[2:] if t == 3 else np.unique(rep[2:])
    top = np.full(field.q, -1, dtype=np.int64)
    top[xs] = _descend(field, part, t, xs)
    best = int(top.max())
    live = top[rep] == best

    def extend(idx: list[int]) -> list[int] | None:
        if len(idx) == t:
            return idx
        # the next element leaves room for the t - len(idx) - 1 after it
        e, later = coset0[idx], coset0[idx[-1] + 1:len(coset0) - t + len(idx) + 1]
        if len(idx) == 2:
            ok = live[affine_ratios(field, int(e[0]), int(e[1]), later)]
        elif len(idx) == 3:
            ok = reduced_counts(field, part, e, later) >= best
        else:
            ok = extension_counts(field, part, *e)[0][later] >= best
        for r in np.flatnonzero(ok).tolist():
            if found := extend(idx + [idx[-1] + 1 + r]):
                return found
        return None

    for i, j in itertools.combinations(range(len(coset0)), 2):
        if found := extend([i, j]):
            return best, tuple(int(coset0[x]) for x in found)
    raise IdentityViolation("no same-coset subset attains the reduction's max")


@registry.op
def closed_form_max3(field: FieldTable, n: int) -> int | None:
    """Predicted value of 1 + max N(3) from the case closed forms.

    Quadratic: (q-1)/4 for p = 1 mod 4; (q+1)/4 for p = 3 mod 4, m odd;
    (q-1)/4 for p = 3 mod 4, m even.  Cubic: (q + 2^(m/2) - 2)/9 for m/2
    even, (q + 2^(m/2+1) + 1)/9 for m/2 odd, in characteristic 2; None in odd
    characteristic, where no closed form is stated.  A field without a
    character of order n is refused by ``require_character``.
    """
    require_character(field, n)
    q, p, m = field.q, field.p, field.m
    if n == 2:
        num = q - 1 if p % 4 == 1 or m % 2 == 0 else q + 1
        if num % 4:
            raise IdentityViolation("closed form is not an integer")
        return num // 4
    if p != 2:
        return None
    h = m // 2
    num = q + 2 ** h - 2 if h % 2 == 0 else q + 2 ** (h + 1) + 1
    if num % 9:
        raise IdentityViolation("closed form is not an integer")
    return num // 9

