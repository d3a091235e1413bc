import re

import numpy as np
import pytest

from charsum import checks
from charsum.cli import main
from charsum.cyclotomic import jacobi_cubic
from charsum.eisenstein import EisensteinInt
from charsum.errors import IdentityViolation, exact_div
from charsum.repcount import (brute_rep_count, closed_rep_class_table,
                              closed_rep_count, cubic_K, perron_table,
                              rep_count_table)
from conftest import get_field, get_partition


def test_quadratic_examples():
    f13, p13 = get_field(13), get_partition(13, 1, 2)
    for beta in map(int, p13.cosets[0]):
        assert closed_rep_count(f13, p13, beta, 0, 0) == 2
        assert brute_rep_count(f13, p13, beta, 0, 0) == 2
    f7, p7 = get_field(7), get_partition(7, 1, 2)
    nonres = int(p7.cosets[1][0])
    assert closed_rep_count(f7, p7, nonres, 0, 1) == 1
    f3, p3 = get_field(3), get_partition(3, 1, 2)
    assert closed_rep_count(f3, p3, 1, 0, 0) == 0
    assert brute_rep_count(f3, p3, 1, 0, 0) == 0


def test_cubic_examples_f4():
    f4, p4 = get_field(2, 2), get_partition(2, 2, 3)
    j = jacobi_cubic(f4, p4)
    assert brute_rep_count(f4, p4, 1, 1, 2) == 1     # alpha + alpha^2 = 1
    assert brute_rep_count(f4, p4, 1, 0, 0) == 0     # 1 + 1 = 0 in char 2
    k = cubic_K(p4, 1, 1, 2, j)
    assert k == EisensteinInt(-3, 1)                  # w - 3
    assert (k + k.conj()).a == -7
    assert closed_rep_count(f4, p4, 1, 1, 2) == 1
    assert cubic_K(p4, 1, 0, 0, j) == EisensteinInt(1)
    assert closed_rep_count(f4, p4, 1, 0, 0) == 0


def test_cubic_example_f7():
    f7, p7 = get_field(7), get_partition(7, 1, 3)
    j = jacobi_cubic(f7, p7)
    k = cubic_K(p7, 1, 0, 0, j)
    assert k == EisensteinInt(4, 3)
    assert (k + k.conj()).a == 5
    assert closed_rep_count(f7, p7, 1, 0, 0) == 0
    assert brute_rep_count(f7, p7, 1, 0, 0) == 0


def test_beta_zero_routing_and_errors():
    # the one closed form answers beta = 0 too, by the (q-1)/n rule, and
    # refuses a beta outside the field
    f7, p7 = get_field(7), get_partition(7, 1, 2)
    assert brute_rep_count(f7, p7, 0, 1, 0) == closed_rep_count(f7, p7, 0, 1, 0) == 3
    assert closed_rep_count(f7, p7, 0, 0, 0) == brute_rep_count(f7, p7, 0, 0, 0) == 0
    with pytest.raises(ValueError, match="element 7 is outside F_7"):
        closed_rep_count(f7, p7, 7, 0, 0)
    results, _, _ = checks.rep_query(f7, p7, 0, 1, 0)
    assert results["query"]["count"] == closed_rep_count(f7, p7, 0, 1, 0)
    assert results["brute_force"] == brute_rep_count(f7, p7, 0, 1, 0)


# every count that takes coset indices, called at (i, j); the CLI's table
# mode reads none but refuses a bad one all the same
COSET_CALLS = {
    "brute_rep_count": lambda f, part, i, j: brute_rep_count(f, part, 1, i, j),
    "closed_rep_count": lambda f, part, i, j: closed_rep_count(f, part, 1, i, j),
    "closed_rep_count_at_zero":
        lambda f, part, i, j: closed_rep_count(f, part, 0, i, j),
    "cubic_K": lambda f, part, i, j: cubic_K(part, 1, i, j, EisensteinInt(1)),
    "table_mode": lambda f, part, i, j: main(
        ["repcount", "--field", f.spec.label(), "--n", str(part.n),
         "--i", str(i), "--j", str(j)]),
}


@pytest.mark.parametrize("p,m,n,name", [
    (p, m, n, name) for p, m, n in [(7, 1, 2), (7, 1, 3), (2, 4, 3)]
    for name in COSET_CALLS if n == 3 or name != "cubic_K"])
def test_coset_indices_outside_0_n_are_refused(capsys, p, m, n, name):
    # -1 and n used to be answered as other cosets (or raise a bare
    # IndexError); n - 1 is answered
    f, part, call = get_field(p, m), get_partition(p, m, n), COSET_CALLS[name]
    if name == "table_mode":
        assert call(f, part, n - 1, n - 1) == 0
        capsys.readouterr()
        for i, j in ((-1, 0), (n, 0), (0, -1), (0, n)):
            assert call(f, part, i, j) == 1
            out, err = capsys.readouterr()
            option = "--i" if i else "--j"          # the one out of range
            assert out == "" and f"{option} must lie in [0, {n}) for --n {n}" in err
        return
    call(f, part, n - 1, n - 1)
    for i, j in ((-1, 0), (n, 0), (0, -1), (0, n)):
        with pytest.raises(ValueError, match=re.escape("coset indices must lie in [0, n)")):
            call(f, part, i, j)


def test_zero_sum_examples():
    f13, p13 = get_field(13), get_partition(13, 1, 2)
    assert closed_rep_count(f13, p13, 0, 0, 0) == 6
    assert closed_rep_count(f13, p13, 0, 1, 1) == 6
    assert closed_rep_count(f13, p13, 0, 0, 1) == 0
    f9, p9 = get_field(3, 2), get_partition(3, 2, 2)
    # (q-1)/2 = 4, not the prime-field-literal (p-1)/2 = 1
    assert closed_rep_count(f9, p9, 0, 0, 0) == 4
    assert brute_rep_count(f9, p9, 0, 0, 0) == 4
    f7, p7 = get_field(7), get_partition(7, 1, 2)
    assert closed_rep_count(f7, p7, 0, 0, 0) == 0         # q = 3 mod 4
    assert closed_rep_count(f7, p7, 0, 0, 1) == 3
    f4, p4 = get_field(2, 2), get_partition(2, 2, 3)
    assert closed_rep_count(f4, p4, 0, 0, 0) == 1
    assert closed_rep_count(f4, p4, 0, 1, 2) == 0


@pytest.mark.parametrize("p,m,n", [(13, 1, 2), (3, 4, 2), (2, 6, 3), (7, 2, 3)])
def test_zero_sum_oracle_matches_a_scalar_loop(p, m, n):
    f, part = get_field(p, m), get_partition(p, m, n)
    for i in range(n):
        for j in range(n):
            loop = sum(part.label(f.neg(int(x))) == i for x in part.cosets[j])
            # the one oracle answers beta = 0 as the closed (q-1)/n rule does
            assert brute_rep_count(f, part, 0, i, j) == loop \
                == closed_rep_count(f, part, 0, i, j)


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
            assert closed_rep_count(f, part, 0, i, j) == table[i, j, 0]
            # honest loop oracle against the vectorized histogram
            for beta in (1, f.q // 2, f.q - 1):
                assert brute_rep_count(f, part, beta, i, j) == table[i, j, beta]
            # the one closed form against the one oracle, beta = 0 included
            for beta in range(f.q):
                assert (closed_rep_count(f, part, beta, i, j)
                        == brute_rep_count(f, part, beta, i, j)), (beta, i, j)


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
    # one helper for the closed-form counts (ints) and the sigma vectors (arrays)
    assert exact_div(12, 4, "x") == 3
    assert np.array_equal(exact_div(np.array([3, 6, 9]), 3, "x"), [1, 2, 3])
    for value in (13, np.array([4, 8, 13])):
        with pytest.raises(IdentityViolation, match="x: not divisible by 4"):
            exact_div(value, 4, "x")
