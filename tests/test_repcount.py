import numpy as np
import pytest

from charsum import checks
from charsum.cyclotomic import jacobi_cubic
from charsum.eisenstein import EisensteinInt
from charsum.errors import IdentityViolation
from charsum.repcount import (brute_rep_count, closed_rep_class_table,
                              closed_rep_count_cubic,
                              closed_rep_count_quadratic, cubic_K,
                              perron_table, rep_count_table,
                              rep_count_zero, rep_count_zero_brute,
                              _exact_div)
from conftest import get_field, get_partition


def test_quadratic_examples():
    f13, p13 = get_field(13), get_partition(13, 1, 2)
    for beta in map(int, p13.cosets[0]):
        assert closed_rep_count_quadratic(f13, p13, beta, 0, 0) == 2
        assert brute_rep_count(f13, p13, beta, 0, 0) == 2
    f7, p7 = get_field(7), get_partition(7, 1, 2)
    nonres = int(p7.cosets[1][0])
    assert closed_rep_count_quadratic(f7, p7, nonres, 0, 1) == 1
    f3, p3 = get_field(3), get_partition(3, 1, 2)
    assert closed_rep_count_quadratic(f3, p3, 1, 0, 0) == 0
    assert brute_rep_count(f3, p3, 1, 0, 0) == 0


def test_cubic_examples_f4():
    f4, p4 = get_field(2, 2), get_partition(2, 2, 3)
    j = jacobi_cubic(f4, p4)
    assert brute_rep_count(f4, p4, 1, 1, 2) == 1     # alpha + alpha^2 = 1
    assert brute_rep_count(f4, p4, 1, 0, 0) == 0     # 1 + 1 = 0 in char 2
    k = cubic_K(p4, 1, 1, 2, j)
    assert k == EisensteinInt(-3, 1)                  # w - 3
    assert (k + k.conj()).a == -7
    assert closed_rep_count_cubic(f4, p4, 1, 1, 2) == 1
    assert cubic_K(p4, 1, 0, 0, j) == EisensteinInt(1)
    assert closed_rep_count_cubic(f4, p4, 1, 0, 0) == 0


def test_cubic_example_f7():
    f7, p7 = get_field(7), get_partition(7, 1, 3)
    j = jacobi_cubic(f7, p7)
    k = cubic_K(p7, 1, 0, 0, j)
    assert k == EisensteinInt(4, 3)
    assert (k + k.conj()).a == 5
    assert closed_rep_count_cubic(f7, p7, 1, 0, 0) == 0
    assert brute_rep_count(f7, p7, 1, 0, 0) == 0


def test_beta_zero_routing_and_errors():
    f7, p7 = get_field(7), get_partition(7, 1, 2)
    with pytest.raises(ValueError):
        brute_rep_count(f7, p7, 0, 0, 0)
    with pytest.raises(ValueError):
        closed_rep_count_quadratic(f7, p7, 0, 0, 0)
    results, _, _ = checks.rep_query(f7, p7, 0, 1, 0)
    assert results["query"]["count"] == rep_count_zero(f7, p7, 1, 0)


def test_zero_sum_examples():
    f13, p13 = get_field(13), get_partition(13, 1, 2)
    assert rep_count_zero(f13, p13, 0, 0) == 6
    assert rep_count_zero(f13, p13, 1, 1) == 6
    assert rep_count_zero(f13, p13, 0, 1) == 0
    f9, p9 = get_field(3, 2), get_partition(3, 2, 2)
    # (q-1)/2 = 4, not the prime-field-literal (p-1)/2 = 1
    assert rep_count_zero(f9, p9, 0, 0) == 4
    assert rep_count_zero_brute(f9, p9, 0, 0) == 4
    f7, p7 = get_field(7), get_partition(7, 1, 2)
    assert rep_count_zero(f7, p7, 0, 0) == 0         # q = 3 mod 4
    assert rep_count_zero(f7, p7, 0, 1) == 3
    f4, p4 = get_field(2, 2), get_partition(2, 2, 3)
    assert rep_count_zero(f4, p4, 0, 0) == 1
    assert rep_count_zero(f4, p4, 1, 2) == 0


@pytest.mark.parametrize("p,m,n", [(13, 1, 2), (3, 4, 2), (2, 6, 3), (7, 2, 3)])
def test_zero_sum_oracle_matches_a_scalar_loop(p, m, n):
    f, part = get_field(p, m), get_partition(p, m, n)
    for i in range(n):
        for j in range(n):
            loop = sum(part.label(f.neg(int(x))) == i for x in part.cosets[j])
            assert rep_count_zero_brute(f, part, i, j) == loop


@pytest.mark.parametrize("p,m,n", [(5, 1, 2), (13, 1, 2), (3, 2, 2), (7, 2, 2),
                                   (2, 2, 3), (2, 4, 3), (7, 1, 3), (13, 1, 3),
                                   (5, 2, 3)])
def test_closed_equals_brute_exhaustive(p, m, n):
    f = get_field(p, m)
    part = get_partition(p, m, n)
    table = rep_count_table(f, part)
    closed = closed_rep_class_table(f, part)
    lab = part.labels
    for i in range(n):
        for j in range(n):
            assert np.array_equal(closed[lab[1:], i, j], table[i, j, 1:])
            assert rep_count_zero(f, part, i, j) == table[i, j, 0]
            # honest loop oracle against the vectorized histogram
            for beta in (1, f.q // 2, f.q - 1):
                assert brute_rep_count(f, part, beta, i, j) == table[i, j, beta]


@pytest.mark.parametrize("p,m,n", [(13, 1, 2), (3, 2, 2), (2, 4, 3), (7, 1, 3)])
def test_table_symmetry_and_row_sums(p, m, n):
    f = get_field(p, m)
    table = rep_count_table(f, get_partition(p, m, n))
    assert np.array_equal(table, table.transpose(1, 0, 2))
    assert np.all(table[:, :, 1:].sum(axis=(0, 1)) == f.q - 2)
    assert table[:, :, 0].sum() == f.q - 1


@pytest.mark.parametrize("p,m", [(7, 1), (13, 1), (2, 4), (5, 2)])
def test_conjugation_invariance(p, m):
    f = get_field(p, m)
    part = get_partition(p, m, 3)
    conj = get_partition(p, m, 3, conjugate=True)
    table = rep_count_table(f, part)
    table_c = rep_count_table(f, conj)
    swap = [0, 2, 1]
    for i in range(3):
        for j in range(3):
            assert np.array_equal(table_c[i, j], table[swap[i], swap[j]])
    closed = closed_rep_class_table(f, part)
    closed_c = closed_rep_class_table(f, conj)
    assert sorted(closed.ravel()) == sorted(closed_c.ravel())


def test_perron_tables():
    def table(p):
        return perron_table(get_field(p), get_partition(p, 1, 2))

    assert table(13) == {"qr_as_two_qr": 2, "qr_as_two_nonres": 3,
                         "nonres_as_two_qr": 3, "nonres_as_two_nonres": 2}
    t7 = table(7)
    assert t7["qr_as_two_qr"] == 1 and t7["qr_as_two_nonres"] == 2
    assert table(3)["qr_as_two_qr"] == 0


@pytest.mark.parametrize("p,m,n", [(2, 2, 3), (3, 2, 2), (7, 1, 3)])
def test_perron_table_needs_a_prime_field_and_a_quadratic_partition(p, m, n):
    # F_4 has no quadratic character and F_9 is no prime field: the cases
    # p = 2 and p = 15 stood for when the table took p alone
    with pytest.raises(ValueError, match="prime field and quadratic partition"):
        perron_table(get_field(p, m), get_partition(p, m, n))


def test_rep_count_result_payload():
    f4, p4 = get_field(2, 2), get_partition(2, 2, 3)
    results, found, _ = checks.rep_query(f4, p4, 1, 1, 2)
    body = results["query"]
    assert body["count"] == 1 and body["K"] == {"a": -3, "b": 1}
    assert body["K_plus_conj"] == -7
    assert results["brute_force"] == 1 and found[0].passed


def test_exact_div_raises_on_remainder():
    assert _exact_div(12, 4, "x") == 3
    with pytest.raises(IdentityViolation):
        _exact_div(13, 4, "x")
