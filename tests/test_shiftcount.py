import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from charsum import checks, shiftcount
from charsum.characters import character_exists, partition
from charsum.errors import IdentityViolation
from charsum.field import prime_powers
from charsum.shiftcount import (_label_rows, _scan_max, affine_max_shift3,
                                affine_max_shift4, closed_form_max3,
                                extension_counts, max_shift_count, shift_count)
from conftest import get_field, get_partition


def triple_fields(q_max, t=3):
    """(p, m, n) with a character of order n and cosets of at least t elements."""
    return [(p, m, n) for p, m, q in prime_powers(q_max) for n in (2, 3)
            if character_exists(p, m, n) and (q - 1) // n >= t]


TRIPLE_FIELDS = triple_fields(125)
QUAD_FIELDS = triple_fields(125, 4)
MULTI_AXIS_FIELDS = [(p, m, n) for p, m, n in QUAD_FIELDS if m >= 2]


def searched_max(f, part, t=3):
    """The exhaustive search's max N(t) and lex-first witness, as elements."""
    coset0 = part.cosets[0]
    best, wit = _scan_max(_label_rows(f, part, coset0), t)
    return best, tuple(int(coset0[w]) for w in wit)


def scalar_shift_count(f, part, els):
    """N from the definition: one scalar field.add per (beta, e)."""
    count = 0
    for beta in range(f.q):
        labels = {part.label(f.add(beta, e)) for e in els}
        count += len(labels) == 1 and -1 not in labels
    return count


def test_single_element_subsets():
    f4, p4 = get_field(2, 2), get_partition(2, 2, 3)
    assert shift_count(f4, p4, [1]) == 3
    assert max_shift_count(f4, p4, 1) == (3, (1,))
    f7, p7 = get_field(7), get_partition(7, 1, 2)
    assert shift_count(f7, p7, [1]) == 6


def test_query_validation():
    f7, p7 = get_field(7), get_partition(7, 1, 2)
    with pytest.raises(ValueError):
        shift_count(f7, p7, [1, 1])            # duplicate
    with pytest.raises(ValueError):
        shift_count(f7, p7, [0, 1])            # zero element
    with pytest.raises(ValueError):
        shift_count(f7, p7, [1, 3])            # mixed labels
    with pytest.raises(ValueError):
        max_shift_count(f7, p7, 4)             # coset has only 3 elements
    with pytest.raises(ValueError):
        max_shift_count(f7, p7, 0)


def test_known_maxima():
    f9, p9 = get_field(3, 2), get_partition(3, 2, 2)
    assert max_shift_count(f9, p9, 3)[0] == 1
    f16, p16 = get_field(2, 4), get_partition(2, 4, 3)
    assert max_shift_count(f16, p16, 3)[0] == 1
    f64, p64 = get_field(2, 6), get_partition(2, 6, 3)
    assert max_shift_count(f64, p64, 3)[0] == 8
    f7, p7 = get_field(7), get_partition(7, 1, 2)
    assert max_shift_count(f7, p7, 3)[0] == 1


def test_closed_form_values():
    assert closed_form_max3(get_field(2, 4), 3) == 2
    assert closed_form_max3(get_field(2, 6), 3) == 9
    assert closed_form_max3(get_field(2, 8), 3) == 30
    assert closed_form_max3(get_field(7, 2), 2) == 12      # q = 49, p = 3 mod 4, m even
    assert closed_form_max3(get_field(13), 2) == 3         # p = 1 mod 4
    assert closed_form_max3(get_field(7), 2) == 2          # p = 3 mod 4, m odd
    with pytest.raises(ValueError):
        closed_form_max3(get_field(7), 3)                  # cubic form needs p = 2


def test_closed_form_that_is_no_integer_is_an_identity_violation():
    # q does not match p and m, so (q + 1)/4 is no integer; the CLI and the
    # sweeps report an IdentityViolation as a failed check
    with pytest.raises(IdentityViolation, match="not an integer"):
        closed_form_max3(SimpleNamespace(q=5, p=3, m=1), 2)


@given(st.sampled_from(TRIPLE_FIELDS))
@settings(max_examples=40, deadline=None)
def test_affine_max_matches_subset_search(case):
    p, m, n = case
    f, part = get_field(p, m), get_partition(p, m, n)
    assert affine_max_shift3(f, part) == searched_max(f, part)


@pytest.mark.parametrize("p,m,n", triple_fields(200))
def test_max3_matches_the_search_on_the_sweep_grid(p, m, n):
    # t = 1 and t = 2 are closed forms of the same affine reduction
    f, part = get_field(p, m), get_partition(p, m, n)
    for t in (1, 2, 3):
        assert max_shift_count(f, part, t) == searched_max(f, part, t), t


def test_max3_never_runs_the_subset_search(monkeypatch):
    calls = []
    real = shiftcount._scan_max
    monkeypatch.setattr(shiftcount, "_scan_max",
                        lambda *args: calls.append(args) or real(*args))
    for p, m, n in [(13, 1, 2), (2, 6, 3), (7, 3, 2), (7, 3, 3)]:
        for t in (1, 2, 3):
            max_shift_count(get_field(p, m), get_partition(p, m, n), t)
    assert calls == []
    max_shift_count(get_field(13), get_partition(13, 1, 2), 5)
    assert len(calls) == 1                  # t > 4 keeps the search


@pytest.mark.parametrize("p,m,n", [(2, 6, 3), (7, 2, 2), (101, 1, 2)])
def test_witness_walk_reaches_every_row(monkeypatch, p, m, n):
    # on real tables the first row holds the witness; a table whose only
    # maximum is one ratio d puts the lex-first triple of d at any row
    f = get_field(p, m)
    coset0 = [int(e) for e in get_partition(p, m, n).cosets[0]]
    first = {}
    for triple in itertools.combinations(coset0, 3):
        e1, e2, e3 = triple
        first.setdefault(f.mul(f.sub(e3, e1), f.inv(f.sub(e2, e1))), triple)
    for d, triple in first.items():
        table = np.zeros(f.q, dtype=np.int64)
        table[d] = 1
        monkeypatch.setattr(shiftcount, "triple_counts", lambda field, part: table)
        assert affine_max_shift3(f, partition(f, n)) == (1, triple)


@pytest.mark.parametrize("p,m,n", [(5, 2, 3), (17, 1, 2)])
def test_quad_witness_walk_reaches_every_prefix_and_row(monkeypatch, p, m, n):
    # a table whose only maximum is one ratio pair (d1, d2) puts the lex-first
    # 4-set of that pair under any prefix and at any row of it
    f = get_field(p, m)
    coset0 = [int(e) for e in get_partition(p, m, n).cosets[0]]
    first = {}
    for quad in itertools.combinations(coset0, 4):
        e1, e2, e3, e4 = quad
        scale = f.inv(f.sub(e2, e1))
        first.setdefault(tuple(f.mul(f.sub(e, e1), scale) for e in (e3, e4)), quad)
    # some witnesses lie past the first prefix, some past the first row
    assert any(quad[:2] != tuple(coset0[:2]) for quad in first.values())
    assert any(coset0.index(quad[2]) > coset0.index(quad[1]) + 1
               for quad in first.values())
    for (d1, d2), quad in first.items():
        table = np.zeros((f.q, f.q), dtype=np.int32)
        table[d1, d2] = 1
        monkeypatch.setattr(shiftcount, "quad_counts", lambda field, part: table)
        assert affine_max_shift4(f, partition(f, n)) == (1, quad)


@given(st.sampled_from(QUAD_FIELDS))
@settings(max_examples=15, deadline=None)   # the t = 4 search is the cost
def test_max4_matches_subset_search(case):
    p, m, n = case
    f, part = get_field(p, m), get_partition(p, m, n)
    assert max_shift_count(f, part, 4) == searched_max(f, part, 4)


# max N(4) and the lex-first witness, as _scan_max reports them (2^8 and
# 3^5 take it 2-7 s, so its results are written down here)
@pytest.mark.parametrize("p,m,n,expected", [
    (2, 8, 3, (16, (1, 7, 10, 176))), (2, 6, 3, (4, (1, 3, 13, 15))),
    (37, 1, 3, (3, (1, 6, 11, 14))), (5, 2, 3, (3, (1, 2, 5, 20))),
    (13, 1, 2, (1, (1, 3, 4, 9))), (7, 2, 2, (7, (1, 2, 13, 48))),
    (101, 1, 2, (14, (1, 4, 5, 56))), (3, 5, 2, (33, (1, 6, 7, 41)))])
def test_max4_matches_the_recorded_search(p, m, n, expected):
    f, part = get_field(p, m), get_partition(p, m, n)
    assert max_shift_count(f, part, 4) == expected


def test_max4_never_runs_the_subset_search(monkeypatch):
    calls = []
    real = shiftcount._scan_max
    monkeypatch.setattr(shiftcount, "_scan_max",
                        lambda *args: calls.append(args) or real(*args))
    for p, m, n in [(13, 1, 2), (2, 6, 3), (7, 3, 2), (7, 3, 3)]:
        max_shift_count(get_field(p, m), get_partition(p, m, n), 4)
    assert calls == []


@pytest.mark.parametrize("p,m,n,lengths", [
    (13, 1, 2, (1, 2, 3)), (2, 6, 3, (1, 2, 3)), (7, 2, 2, (1, 2, 3)),
    (3, 5, 2, (2,))])                       # q = 243: the loop is the cost
def test_extension_counts_match_the_scalar_loop(p, m, n, lengths):
    f, part = get_field(p, m), get_partition(p, m, n)
    coset0 = [int(x) for x in part.cosets[0]]
    for t in lengths:
        prefix = coset0[:t]
        counts = extension_counts(f, part, *prefix)
        assert counts.shape == (1, f.q)
        assert counts[0].tolist() == [scalar_shift_count(f, part, prefix + [e])
                                      for e in range(f.q)]
    if f.q > 64:
        return
    # a vector entry stacks one prefix per row: {c, x} for x in xs
    c, xs = coset0[0], coset0[1:4]
    counts = extension_counts(f, part, c, np.array(xs))
    assert counts.tolist() == [[scalar_shift_count(f, part, [c, x, e])
                                for e in range(f.q)] for x in xs]


@given(st.sampled_from(MULTI_AXIS_FIELDS), st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_shift_count_matches_scalar_loop(case, t, data):
    p, m, n = case
    f, part = get_field(p, m), get_partition(p, m, n)
    coset = part.cosets[data.draw(st.integers(0, n - 1))]
    els = data.draw(st.lists(st.sampled_from(coset.tolist()), min_size=t,
                             max_size=t, unique=True))
    assert shift_count(f, part, els) == scalar_shift_count(f, part, els)


@pytest.mark.parametrize("p,m,n,t", [(13, 1, 2, 3), (3, 2, 2, 3), (2, 4, 3, 3),
                                     (7, 1, 2, 3), (13, 1, 2, 2), (13, 1, 2, 4),
                                     (2, 4, 3, 2), (2, 4, 3, 4), (17, 1, 2, 4)])
def test_max_matches_direct_enumeration(p, m, n, t):
    # reference: enumerate every t-subset of coset 0 with the plain counter
    f = get_field(p, m)
    part = get_partition(p, m, n)
    coset0 = [int(x) for x in part.cosets[0]]
    best, best_wit = -1, None
    for combo in itertools.combinations(coset0, t):
        count = shift_count(f, part, combo)
        if count > best:
            best, best_wit = count, combo
    got, wit = max_shift_count(f, part, t)
    assert got == best
    assert wit == best_wit          # lexicographically least maximizer


def test_witness_reproduces_max():
    f, part = get_field(2, 6), get_partition(2, 6, 3)
    n, wit = max_shift_count(f, part, 3)
    assert shift_count(f, part, wit) == n
    assert len(wit) == 3 and len(set(wit)) == 3
    assert all(part.label(e) == 0 for e in wit)


@pytest.mark.parametrize("p,m,n", [(13, 1, 2), (3, 2, 2), (2, 4, 3), (13, 1, 3)])
def test_shift_count_independent_of_coset(p, m, n):
    f = get_field(p, m)
    part = get_partition(p, m, n)
    rng = np.random.default_rng(30)
    for j in range(1, n):
        coset = part.cosets[j]
        if len(coset) < 3:
            continue
        for _ in range(5):
            subset = rng.choice(coset, size=3, replace=False)
            back = [f.mul(int(e), f.pow_(f.alpha, -j)) for e in subset]
            assert all(part.label(e) == 0 for e in back)
            assert (shift_count(f, part, subset)
                    == shift_count(f, part, back))


@pytest.mark.parametrize("p,m,n", [(13, 1, 2), (17, 1, 2), (2, 4, 3)])
def test_monotone_in_subset_size(p, m, n):
    f = get_field(p, m)
    part = get_partition(p, m, n)
    rng = np.random.default_rng(31)
    coset0 = part.cosets[0]
    for _ in range(10):
        subset = list(rng.choice(coset0, size=4, replace=False))
        n4 = shift_count(f, part, subset)
        n3 = shift_count(f, part, subset[:3])
        n2 = shift_count(f, part, subset[:2])
        assert n4 <= n3 <= n2


def test_beta_zero_is_counted():
    # all elements of a one-element subset of coset 0 stay in coset 0 at beta=0
    f13, p13 = get_field(13), get_partition(13, 1, 2)
    subset = [int(x) for x in p13.cosets[0][:3]]
    lab_rows = [p13.label(e) for e in subset]
    assert all(c == 0 for c in lab_rows)        # beta = 0 keeps the label


def duality(p, m, n):
    """The duality family's results, checks and notes on F_{p^m}."""
    f = get_field(p, m)
    return checks.duality(f, partition(f, n))


def test_duality_reports():
    body, found, _ = duality(2, 4, 3)
    assert (body["max_R"], body["max_N3"], body["holds"]) == (2, 1, True)
    assert body["closed_form_prediction"] == 2
    assert all(c.passed for c in found)
    body, _, _ = duality(7, 1, 2)
    assert (body["max_R"], body["max_N3"], body["holds"]) == (2, 1, True)
    body, _, _ = duality(3, 2, 2)
    assert (body["max_R"], body["max_N3"], body["holds"]) == (2, 1, True)
    assert body["closed_form_prediction"] == 2


def test_duality_odd_cubic_has_no_prediction_but_holds():
    body, found, notes = duality(13, 1, 3)
    assert body["closed_form_prediction"] is None
    assert body["holds"]
    assert "closed_form_matches" not in [c.name for c in found]
    assert notes == ["no closed form stated for this case (exhaustive max N = 1)"]


def test_duality_requires_triples():
    for p, m, n in [(5, 1, 2), (2, 2, 3)]:       # coset sizes 2 and 1
        assert duality(p, m, n) == ({}, [], ["coset smaller than 3, skipped"])


def test_duality_json_shape():
    body, _, _ = duality(2, 4, 3)
    assert list(body) == ["field", "n", "max_R", "max_R_witness", "max_N3",
                          "max_N3_witness", "closed_form_prediction", "holds"]
    assert body["max_R"] == 2 and body["max_N3"] == 1 and body["holds"]
    assert body["field"] == {"p": 2, "m": 4, "q": 16}
    assert set(body["max_R_witness"]) == {"beta_label", "beta", "i", "j"}
