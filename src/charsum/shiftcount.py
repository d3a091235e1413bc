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
witness is the first subset in lex order whose ratios attain it.  Larger t
run the exhaustive search, which keeps, per candidate prefix, the per-beta
"required label" row (or a dead marker), which makes the last level a
single vectorized comparison; subtrees that cannot beat the current best
are pruned.  Either way the first maximum in lexicographic element order is
kept, so the reported witness is deterministic.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import registry
from .characters import CosetPartition, memo
from .errors import IdentityViolation, UnsupportedCharacterError
from .field import FieldTable, convolve

DEAD = -2  # rows carry labels 0..n-1, -1 at zero elements, DEAD when ruled out


def shift_count(field: FieldTable, part: CosetPartition, elements) -> int:
    """N for an explicit subset; validates the subset invariants."""
    registry.mark("shift_count")
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


def max_shift_count(field: FieldTable, part: CosetPartition,
                    t: int) -> tuple[int, tuple[int, ...]]:
    """Maximum of N over t-subsets of coset 0, with witness.

    The witness is the lexicographically least maximizing subset in
    element-index order.  t <= 4 take the affine reduction: t = 1 and t = 2
    in closed form, t = 3 and t = 4 by ``affine_max_shift3`` and
    ``affine_max_shift4``; larger t run the exhaustive search.
    """
    registry.mark("max_shift_count")
    if t < 1:
        raise ValueError("t must be positive")
    coset0 = part.cosets[0]
    if len(coset0) < t:
        raise ValueError(
            f"coset size {len(coset0)} is too small for t = {t}")
    if t == 1:
        return field.q - 1, (int(coset0[0]),)
    if t == 2:
        lab = part.labels
        pairs = int(((lab >= 0) & (lab == lab[field.add_row(1)])).sum())
        return pairs, (int(coset0[0]), int(coset0[1]))
    if t == 3:
        return affine_max_shift3(field, part)
    if t == 4:
        return affine_max_shift4(field, part)
    rows = _label_rows(field, part, coset0)
    best, wit = _scan_max(rows, t)
    return best, tuple(int(coset0[w]) for w in wit)


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


def quad_counts(field: FieldTable, part: CosetPartition) -> np.ndarray:
    """M2(d1, d2) = N({0, 1, d1, d2}) for every d1, d2, as a (q, q) int32
    table (counts are below q): ``extension_counts`` with d1 stacked, chunked
    over d1 at about 2^20 cells per call."""
    q = field.q
    out = np.empty((q, q), dtype=np.int32)
    step = max(1, (1 << 20) // (part.n * q))
    for lo in range(0, q, step):
        out[lo:lo + step] = extension_counts(field, part, 0, 1,
                                             field._arange[lo:lo + step])
    return out


def _affine_walk(field: FieldTable, part: CosetPartition,
                 table: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Max of a reduction table over distinct ratios not in {0, 1}, and the
    lex-first subset of coset 0 whose ratios attain it.

    ``table`` is M(d) (t = 3) or M2(d1, d2) (t = 4).  The walk takes the
    prefixes e_i < e_j of coset 0 in lex order; per prefix, d[x] =
    (e_x - e_i)/(e_j - e_i) for each later e_x, and the first increasing
    index tuple x with table[d[x]] = max gives the witness.  Rows d_l that
    hold no maximum are skipped.
    """
    masked = np.array(table)
    masked[:2] = -1                      # a ratio of 0 or 1
    if masked.ndim == 2:
        masked[:, :2] = -1
        np.fill_diagonal(masked, -1)     # d1 = d2
    best = int(masked.max())
    top = masked == best
    live = top.reshape(field.q, -1).any(axis=1)
    later = top.ndim - 1                 # elements after the row element
    coset0 = part.cosets[0]
    for i, j in itertools.combinations(range(len(coset0) - later - 1), 2):
        e = int(coset0[i])
        d = field.mul_vec(field.inv(field.sub(int(coset0[j]), e)),
                          field.add_vec(field.neg(e), coset0[j + 1:]))
        for l in np.flatnonzero(live[d[:len(d) - later]]).tolist():
            xs = [l]
            if later:                    # the first r > l on a maximal cell
                r = np.flatnonzero(top[d[l], d[l + 1:]])
                if not len(r):
                    continue
                xs.append(l + 1 + int(r[0]))
            return best, tuple(int(coset0[x]) for x in (i, j, *(j + 1 + np.array(xs))))
    raise IdentityViolation("no same-coset subset attains the reduction's max")


def affine_max_shift3(field: FieldTable,
                      part: CosetPartition) -> tuple[int, tuple[int, ...]]:
    """max N(3) by the affine reduction, with the lex-first witness.

    x -> s*x + e maps {0, 1, d} onto the triple {e, e+s, e+s*d}, and scaling
    by s only permutes coset labels, so that triple has N = M(d)
    (``triple_counts``); M(d) >= 1 exactly when some same-coset triple
    realises d.  Hence max N(3) = max over d not in {0, 1} of M(d), and
    ``_affine_walk`` finds the witness.
    """
    registry.mark("affine_max_shift3")
    return _affine_walk(field, part, memo(part, triple_counts))


def affine_max_shift4(field: FieldTable,
                      part: CosetPartition) -> tuple[int, tuple[int, ...]]:
    """max N(4) by the affine reduction, with the lex-first witness.

    As for t = 3: {e, e+s, e+s*d1, e+s*d2} has N = M2(d1, d2)
    (``quad_counts``), so max N(4) = max over distinct d1, d2 not in {0, 1}
    of M2, and ``_affine_walk`` finds the witness.
    """
    return _affine_walk(field, part, memo(part, quad_counts))


def closed_form_max3(field: FieldTable, n: int) -> int:
    """Predicted value of 1 + max N(3) from the case closed forms.

    Quadratic: (q-1)/4 for p = 1 mod 4; (q+1)/4 for p = 3 mod 4, m odd;
    (q-1)/4 for p = 3 mod 4, m even.  Cubic (characteristic 2 only):
    (q + 2^(m/2) - 2)/9 for m/2 even, (q + 2^(m/2+1) + 1)/9 for m/2 odd.
    """
    registry.mark("closed_form_max3")
    q, p, m = field.q, field.p, field.m
    if n == 2:
        if p == 2:
            raise UnsupportedCharacterError("quadratic case needs odd p")
        if p % 4 == 1 or m % 2 == 0:
            num = q - 1
        else:
            num = q + 1
        if num % 4:
            raise IdentityViolation("closed form is not an integer")
        return num // 4
    if n == 3:
        if p != 2:
            raise ValueError(
                "the cubic closed form is stated for characteristic 2 only")
        if m % 2:
            raise UnsupportedCharacterError("cubic case needs even m")
        h = m // 2
        num = q + 2 ** h - 2 if h % 2 == 0 else q + 2 ** (h + 1) + 1
        if num % 9:
            raise IdentityViolation("closed form is not an integer")
        return num // 9
    raise ValueError("n must be 2 or 3")

