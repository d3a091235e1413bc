import re
import sys

import numpy as np
import pytest

from charsum import EisensteinInt, UnsupportedCharacterError, char_sum_moment
from charsum.characters import (character_exists, fold_pairs, label_pairs,
                                memo, pair_table, partition, winterhof_counts,
                                winterhof_sweep)
from charsum.cyclotomic import a_beta, chi_bar_times, jacobi_cubic
from charsum.repcount import (brute_rep_count, closed_rep_count_cubic,
                              closed_rep_count_quadratic, cubic_K)
from charsum.shiftcount import max_shift_count, shift_count
from conftest import get_field, get_partition


def test_character_existence_condition():
    # n = 2 needs odd p; n = 3 needs 3 | q - 1
    assert character_exists(7, 1, 2) and not character_exists(2, 2, 2)
    assert character_exists(2, 2, 3) and not character_exists(2, 3, 3)
    assert character_exists(7, 1, 3)          # p = 1 mod 6
    assert character_exists(5, 2, 3) and not character_exists(5, 1, 3)
    assert not character_exists(3, 4, 3)      # q = 0 mod 3
    # the congruence form of the condition agrees with 3 | q - 1
    for p, m in [(2, 2), (2, 3), (5, 1), (5, 2), (7, 1), (11, 2), (13, 1)]:
        cong = (p == 2 and m % 2 == 0) or p % 6 == 1 or (p % 6 == 5 and m % 2 == 0)
        assert character_exists(p, m, 3) == cong


def test_partition_unsupported_raises():
    with pytest.raises(UnsupportedCharacterError):
        partition(get_field(2, 3), 3)          # q = 8, 3 does not divide 7
    with pytest.raises(UnsupportedCharacterError):
        partition(get_field(2, 2), 2)
    with pytest.raises(ValueError):
        partition(get_field(7), 5)


def test_f7_partitions():
    p2 = get_partition(7, 1, 2)
    assert sorted(map(int, p2.cosets[0])) == [1, 2, 4]
    assert sorted(map(int, p2.cosets[1])) == [3, 5, 6]
    p3 = get_partition(7, 1, 3)
    assert sorted(map(int, p3.cosets[0])) == [1, 6]
    assert sorted(map(int, p3.cosets[1])) == [3, 4]
    assert sorted(map(int, p3.cosets[2])) == [2, 5]


def test_f4_cubic_partition_is_singletons():
    f = get_field(2, 2)
    p3 = get_partition(2, 2, 3)
    assert [list(map(int, c)) for c in p3.cosets] == [[1], [2], [3]]
    assert p3.label(0) == -1


@pytest.mark.parametrize("p,m,n", [(7, 1, 2), (7, 1, 3), (3, 2, 2),
                                   (2, 4, 3), (13, 1, 3), (5, 2, 2)])
def test_label_multiplicativity(p, m, n):
    f = get_field(p, m)
    part = get_partition(p, m, n)
    rng = np.random.default_rng(10)
    for _ in range(150):
        x, y = (int(v) for v in rng.integers(1, f.q, 2))
        assert part.label(f.mul(x, y)) == (part.label(x) + part.label(y)) % n


@pytest.mark.parametrize("p,m,n", [(7, 1, 2), (13, 1, 2), (3, 2, 2),
                                   (2, 2, 3), (2, 4, 3), (7, 1, 3)])
def test_cosets_are_alpha_shifts(p, m, n):
    f = get_field(p, m)
    part = get_partition(p, m, n)
    for j in range(1, n):
        scaled = np.sort(f.mul_vec(f.pow_(f.alpha, j), part.cosets[0]))
        assert np.array_equal(scaled, part.cosets[j])


def test_char_of_minus_one():
    # q = 1 mod 4 makes -1 a square; cubes always contain -1
    assert get_partition(13, 1, 2).label(get_field(13).neg(1)) == 0
    assert get_partition(7, 1, 2).label(get_field(7).neg(1)) == 1
    assert get_partition(3, 2, 2).label(get_field(3, 2).neg(1)) == 0
    for p, m in [(7, 1), (13, 1), (2, 4), (5, 2)]:
        assert get_partition(p, m, 3).label(get_field(p, m).neg(1)) == 0


# every public op that takes an element, called at x
ELEMENT_CALLS = {
    "brute_rep_count": lambda f, part, x: brute_rep_count(f, part, x, 0, 0),
    "closed_rep_count": lambda f, part, x: (
        closed_rep_count_quadratic if part.n == 2 else closed_rep_count_cubic)(
        f, part, x, 0, 0),
    "cubic_K": lambda f, part, x: cubic_K(part, x, 0, 0, EisensteinInt(1)),
    "chi_bar_times": lambda f, part, x: chi_bar_times(part, x, EisensteinInt(1)),
    "a_beta": lambda f, part, x: a_beta(f, part, x),
    "winterhof_counts": lambda f, part, x: winterhof_counts(f, part, x),
    "char_sum_moment": lambda f, part, x: char_sum_moment(f, part, x),
    "shift_count": lambda f, part, x: shift_count(f, part, [x]),
    "dlog": lambda f, part, x: f.dlog(x),
}


@pytest.mark.parametrize("p,m,n,name", [
    (p, m, n, name) for p, m, n in [(7, 1, 2), (7, 1, 3), (2, 4, 3)]
    for name in ELEMENT_CALLS if n == 3 or name not in ("cubic_K", "a_beta")])
def test_elements_outside_the_field_are_refused(p, m, n, name):
    # -1 and q used to index the tables as q - 1 and 0 (or raise a bare
    # IndexError); q - 1 is answered
    f, part = get_field(p, m), get_partition(p, m, n)
    call = ELEMENT_CALLS[name]
    call(f, part, f.q - 1)
    for x in (-1, f.q):
        with pytest.raises(ValueError, match=rf"element {x} is outside "
                                             rf"F_{re.escape(f.spec.label())} "):
            call(f, part, x)


def test_first_moment_examples():
    assert char_sum_moment(get_field(7), get_partition(7, 1, 2)) == 0
    v = char_sum_moment(get_field(2, 2), get_partition(2, 2, 3))
    assert v == EisensteinInt(0, 0)


def test_shifted_moment_examples():
    assert char_sum_moment(get_field(7), get_partition(7, 1, 2), 1) == -1
    v = char_sum_moment(get_field(2, 2), get_partition(2, 2, 3), 1)
    assert v == EisensteinInt(-1, 0)
    with pytest.raises(ValueError):
        char_sum_moment(get_field(7), get_partition(7, 1, 2), 0)


@pytest.mark.parametrize("p,m,n", [(7, 1, 2), (13, 1, 2), (3, 2, 2),
                                   (2, 2, 3), (2, 4, 3), (13, 1, 3)])
def test_shifted_moment_is_minus_one_everywhere(p, m, n):
    f = get_field(p, m)
    part = get_partition(p, m, n)
    minus1 = EisensteinInt(-1, 0) if n == 3 else -1
    for gamma in range(1, f.q):
        assert char_sum_moment(f, part, gamma) == minus1


def test_winterhof_examples():
    assert winterhof_counts(get_field(7), get_partition(7, 1, 2), 1) == (2, 3)
    assert winterhof_counts(get_field(2, 2), get_partition(2, 2, 3), 1) == (0, 1, 1)
    f9 = get_field(3, 2)
    p9 = get_partition(3, 2, 2)
    for xj in range(1, 9):
        assert winterhof_counts(f9, p9, xj) == (3, 4)
    with pytest.raises(ValueError):
        winterhof_counts(f9, p9, 0)


@pytest.mark.parametrize("p,m,n", [(7, 1, 2), (11, 1, 2), (3, 2, 2),
                                   (2, 4, 3), (7, 1, 3), (5, 2, 3),
                                   (7, 3, 3), (3, 6, 2)])   # 3 and 6 axes
def test_winterhof_chain_exhaustive(p, m, n):
    f = get_field(p, m)
    part = get_partition(p, m, n)
    size = (f.q - 1) // n
    rows = winterhof_sweep(f, part)
    for xj in range(1, f.q):
        sigma = tuple(int(c) for c in rows[xj])
        assert sigma[0] + 1 == size
        assert all(s == size for s in sigma[1:])
        if xj <= 3:
            assert sigma == winterhof_counts(f, part, xj)


def test_conjugate_partition_swaps_labels():
    part = get_partition(7, 1, 3)
    conj = get_partition(7, 1, 3, conjugate=True)
    assert np.array_equal(conj.cosets[0], part.cosets[0])
    assert np.array_equal(conj.cosets[1], part.cosets[2])
    assert np.array_equal(conj.cosets[2], part.cosets[1])


@pytest.mark.parametrize("p,m,n", [(13, 1, 2), (2, 4, 3), (7, 2, 2),
                                   (7, 2, 3), (3, 5, 2), (2, 8, 3)])
def test_label_pairs_match_the_convolutions(p, m, n):
    """Sign -1 is column beta of the pair table transposed, beta = 0 too;
    the sign +1 fold over a - b is the row of winterhof_sweep."""
    f, part = get_field(p, m), get_partition(p, m, n)
    table = memo(part, pair_table)
    rows = winterhof_sweep(f, part)
    for beta in range(f.q):
        assert np.array_equal(label_pairs(f, part, beta).T, table[:, :, beta])
        if beta:
            assert fold_pairs(label_pairs(f, part, beta, 1), -1) == rows[beta].tolist()


def test_label_pairs_rejects_other_signs():
    f, part = get_field(7), get_partition(7, 1, 2)
    for sign in (0, 2, -2):
        with pytest.raises(ValueError):
            label_pairs(f, part, 1, sign)


def _oracle_values(f, part):
    n, r = part.n, range(part.n)
    out = {"zero": [[brute_rep_count(f, part, 0, i, j) for j in r] for i in r],
           "moment": char_sum_moment(f, part),
           "n2": max_shift_count(f, part, 2)}
    for beta in range(1, f.q):
        out["rep", beta] = [[brute_rep_count(f, part, beta, i, j) for j in r]
                            for i in r]
        out["sigma", beta] = winterhof_counts(f, part, beta)
        out["shifted", beta] = char_sum_moment(f, part, beta)
        if n == 3:
            out["a", beta] = a_beta(f, part, beta)
    if n == 3:
        out["jacobi"] = jacobi_cubic(f, part)
    return out


@pytest.mark.parametrize("p,m,n,pinned", [
    (7, 2, 3, {"jacobi": EisensteinInt(5, -3), "n2": (15, (1, 6)),
               ("rep", 1): [[6, 4, 5], [4, 5, 7], [5, 7, 4]],
               ("a", 5): EisensteinInt(3, 8), ("sigma", 5): (15, 16, 16)}),
    (13, 1, 2, {"n2": (5, (1, 3)), ("rep", 5): [[3, 3], [3, 2]],
                "zero": [[6, 0], [0, 6]], ("sigma", 1): (5, 6)}),
])
def test_loop_oracles_never_reach_the_convolutions(monkeypatch, p, m, n, pinned):
    """With convolve and pair_table raising in every module that binds them,
    the loop oracles still give their values on fresh partitions."""
    f = get_field(p, m)
    expected = _oracle_values(f, partition(f, n))

    def boom(*args, **kwargs):
        raise AssertionError("a loop oracle reached a convolution")
    for mod in [v for k, v in sys.modules.items() if k.startswith("charsum")]:
        for name in ("convolve", "pair_table"):
            if callable(getattr(mod, name, None)):
                monkeypatch.setattr(mod, name, boom)
    got = _oracle_values(f, partition(f, n))
    assert got == expected
    assert {key: got[key] for key in pinned} == pinned
