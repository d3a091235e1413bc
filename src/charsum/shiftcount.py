"""Shift counts: how many beta move t fixed same-coset elements into one coset.

For a set S = {e_1, ..., e_t} of distinct nonzero elements sharing a
coset label, N(S) counts the beta for which all shifted values beta + e_i
are nonzero and share a single coset label.  A shifted value of 0 belongs
to no coset, so beta = -e_i is excluded automatically; beta = 0 itself is
admissible (it trivially keeps the common label) and is counted.

Maxima are searched over t-subsets of coset 0 only: rescaling a subset of
coset j by alpha^(-j) is a bijection beta -> beta * alpha^(-j) on the
solutions, so every coset attains the same maximum.

For t <= 4 the maximum comes from the affine reduction: x -> s*x + e maps
{0, 1, d1, ...} onto {e, e + s, e + s*d1, ...}, and scaling by s only
permutes coset labels, so N of that subset depends only on its ratios
d = (e_k - e)/s.  For t = 1 and t = 2 there is no ratio, so every subset
has the same N and the first elements of coset 0 are the witness:
N({e}) = q - 1, since the one condition is beta + e != 0, and a pair has
N = #{y : y and y + 1 nonzero in one coset}.  max N(3) is the largest
M(d) = N({0, 1, d}) and max N(4) the largest M2(d1, d2) = N({0, 1, d1, d2}),
both read off ``extension_counts``, the one kernel for N(P + {e}); the
witness is the first subset in lex order whose ratios attain it.  M2 is
counted on one row per S3 x Gal orbit of d1 (``quad_rows``), about q/(6m)
rows, never as a (q, q) table.  Larger t
run the exhaustive search, which keeps, per candidate prefix, the per-beta
"required label" row (or a dead marker), which makes the last level a
single vectorized comparison; subtrees that cannot beat the current best
are pruned.  Either way the first maximum in lexicographic element order is
kept, so the reported witness is deterministic.

Every rule of a shift query lives here, each bound at its allocation:
``max_shift_count`` is the one entry point for max N(t) at every t, with
the search bound of t >= 5 (t = 3 and 4 need none below the field size
cap); ``reduced_counts`` is the one reader of N off the reduction, for the
t = 4 witness walk and ``checks.reduction_matches_row_counts`` alike;
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

DEAD = -2  # rows carry labels 0..n-1, -1 at zero elements, DEAD when ruled out


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


def _scan_max(rows: np.ndarray, t: int) -> tuple[int, tuple[int, ...]]:
    """Max subset count over t-subsets of the row owners, lex-first witness."""
    k = rows.shape[0]
    best = -1
    best_wit: tuple[int, ...] = ()

    def extend(req: np.ndarray, live: int, chosen: list[int], lo: int) -> None:
        nonlocal best, best_wit
        depth = len(chosen)
        if depth == t:
            if live > best:
                best, best_wit = live, tuple(chosen)
            return
        last = k - (t - depth) + 1
        if depth == t - 1:
            cand = rows[lo:last]
            if len(cand) == 0:
                return
            counts = (cand == req).sum(axis=1)
            pos = int(np.argmax(counts))
            if counts[pos] > best:
                best, best_wit = int(counts[pos]), tuple(chosen) + (lo + pos,)
            return
        for e in range(lo, last):
            nreq = np.where(rows[e] == req, req, DEAD)
            nlive = int((nreq != DEAD).sum())
            if nlive > best:
                extend(nreq, nlive, chosen + [e], e + 1)

    for e0 in range(k - t + 1):
        req = np.where(rows[e0] >= 0, rows[e0], DEAD)
        live = int((req != DEAD).sum())
        if live > best:
            extend(req, live, [e0], e0 + 1)
    return best, best_wit


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


def affine_ratios(field: FieldTable, e1: int, e2: int, xs) -> np.ndarray:
    """The ratios d = (x - e1)/(e2 - e1) of the affine reduction, per x."""
    return field.mul_vec(field.inv(field.sub(e2, e1)),
                         field.add_vec(field.neg(e1), xs))


_ORDERS = tuple(itertools.permutations(range(3)))   # (a, b, c) into (0, 1, d)


def quad_rows(field: FieldTable, part: CosetPartition) -> tuple[np.ndarray, ...]:
    """(rep, how, rowmax) for M2(d1, d2) = N({0, 1, d1, d2}), one row per
    orbit of d1.

    Every x -> s*x^(p^k) + e permutes the cosets, so M2(d1, d2) =
    M2(rep[d1], g(d2)), rep[d1] the least index in the S3 x Gal orbit of d1
    and g = ``orbit_map(field, how, d1, .)``, which a running argmin over
    the 6m images finds in O(q) memory; rowmax[r] is the max of M2(r, d2)
    over d2 not in {0, 1, r}, counted in chunks of about 2^20 cells, and -1
    off the representatives.  No row is kept: on prime fields nearly every
    row attains the max."""
    q, p, m = field.q, field.p, field.m
    rep, how = field._arange.copy(), np.zeros(q, dtype=np.int64)
    points = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64),
              field._arange[2:])
    for o, (a, b, c) in enumerate(_ORDERS):
        neg_a = field.neg_vec(points[a])
        # the log of (c - a)/(b - a), in int64 as a log times p^k can pass 2^31
        log = np.subtract(field.dlog_table[field._add(points[c], neg_a)],
                          field.dlog_table[field._add(points[b], neg_a)],
                          dtype=np.int64) % (q - 1)
        for k in range(m):
            image = field.exp[log * pow(p, k, q - 1) % (q - 1)]
            better = image < rep[2:]
            rep[2:][better], how[2:][better] = image[better], o * m + k
    reps = np.unique(rep[2:])
    rowmax = np.full(q, -1, dtype=np.int64)
    step = max(1, (1 << 20) // (part.n * q))
    for lo in range(0, len(reps), step):
        chunk = reps[lo:lo + step]
        counts = extension_counts(field, part, 0, 1, chunk)
        counts[:, :2] = counts[np.arange(len(chunk)), chunk] = -1
        rowmax[chunk] = counts.max(axis=1)
    return rep, how, rowmax


def orbit_map(field: FieldTable, how: np.ndarray, d1: int, xs) -> np.ndarray:
    """g(x) for every x of xs: g = Frob^k o (x -> (x - a)/(b - a)), with
    (a, b, c) the o-th ordering of (0, 1, d1) and how[d1] = o * m + k, takes
    {0, 1, d1} onto {0, 1, rep[d1]} (``quad_rows``)."""
    o, k = divmod(int(how[d1]), field.m)
    a, b, _ = ((0, 1, int(d1))[i] for i in _ORDERS[o])
    ys = affine_ratios(field, a, b, xs)
    nonzero = ys != 0
    # Frob^k multiplies the log by p^k, formed in int64
    ys[nonzero] = field.exp[np.multiply(
        field.dlog_table[ys[nonzero]], pow(field.p, k, field.q - 1),
        dtype=np.int64) % (field.q - 1)]
    return ys


def reduced_counts(field: FieldTable, part: CosetPartition, prefix,
                   xs) -> np.ndarray:
    """N(prefix + {x}) for every x of xs, read off the partition's memo by
    the affine reduction, with d = (x - e1)/(e2 - e1): M(d) for a prefix
    (e1, e2) (``triple_counts``); M2(d3, d) for (e1, e2, e3), the row of
    rep[d3] counted again and read at g(d) (``quad_rows``, ``orbit_map``)."""
    e1, e2, *rest = (int(e) for e in prefix)
    ratios = affine_ratios(field, e1, e2, xs)
    if not rest:
        return memo(part, triple_counts)[ratios]
    rep, how, _ = memo(part, quad_rows)
    d3 = field.mul(field.sub(rest[0], e1), field.inv(field.sub(e2, e1)))
    return extension_counts(field, part, 0, 1, int(rep[d3]))[0][
        orbit_map(field, how, d3, ratios)]


@registry.op
def max_shift_count(field: FieldTable, part: CosetPartition,
                    t: int) -> tuple[int, tuple[int, ...]]:
    """Maximum of N over t-subsets of coset 0, with witness.

    The witness is the lexicographically least maximizing subset in
    element-index order.  t <= 4 take the affine reduction: t = 1 and t = 2
    in closed form; t = 3 and t = 4 as the max of M (``triple_counts``) or
    M2 (``quad_rows``) over distinct ratios not in {0, 1}, in O(q) memory
    beside chunks of about 2^20 cells.  Their witness walk takes the
    prefixes e_i < e_j of coset 0 in lex order; per prefix, d[x] =
    (e_x - e_i)/(e_j - e_i) for each later e_x, and the first increasing
    index tuple x with M or M2 at d[x] equal to the max gives the witness;
    rows d_l that hold no maximum are skipped, and M2(d_l, .) is read by
    ``reduced_counts``.  Larger t run the exhaustive search.
    Raises ValueError for t < 1, a coset smaller than t, or a search above
    its bound (2e10)."""
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
    if t > 4:
        if math.comb(len(coset0), t) * field.q > 2e10:
            raise ValueError("subset search too large; reduce --t or the field")
        best, wit = _scan_max(_label_rows(field, part, coset0), t)
        return best, tuple(int(coset0[w]) for w in wit)
    if t == 3:
        masked = np.array(memo(part, triple_counts))
        masked[:2] = -1                  # a ratio of 0 or 1
        best = int(masked.max())
        live = masked == best
    else:
        rep, _, rowmax = memo(part, quad_rows)
        best = int(rowmax.max())
        live = rowmax[rep] == best
    later = t - 3                        # elements after the row element
    for i, j in itertools.combinations(range(len(coset0) - later - 1), 2):
        d = affine_ratios(field, int(coset0[i]), int(coset0[j]), coset0[j + 1:])
        for l in np.flatnonzero(live[d[:len(d) - later]]).tolist():
            idx = [i, j, j + 1 + l]
            if later:                    # the first later e on a maximal cell
                counts = reduced_counts(field, part, coset0[idx], coset0[idx[2] + 1:])
                r = np.flatnonzero(counts == best)
                if not len(r):
                    continue
                idx.append(idx[2] + 1 + int(r[0]))
            return best, tuple(int(coset0[x]) for x in idx)
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

