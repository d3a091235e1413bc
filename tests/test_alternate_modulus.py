"""The verified identities are basis-independent: a user-supplied modulus
changes the element encoding, the primitive element, and the concrete coset
labels, but every count and equation must still check out."""

import numpy as np
import pytest

from charsum import build_field, checks, jacobi_cubic, partition
from charsum.cyclotomic import a_beta, chi_bar_times
from charsum.groupring import GroupRingElement, closed_sigmas, gr_mul
from charsum.repcount import closed_rep_class_table, rep_count_table


@pytest.fixture(scope="module")
def f9_alt():
    return build_field(3, 2, modulus=(2, 2, 1))     # x^2 + 2x + 2


@pytest.fixture(scope="module")
def f25_alt():
    return build_field(5, 2, modulus=(3, 2, 1))     # x^2 + 2x + 3


def test_alt_modulus_changes_encoding(f9_alt):
    canonical = build_field(3, 2)
    assert canonical.spec.modulus == (1, 0, 1)
    assert f9_alt.spec.modulus == (2, 2, 1)
    assert not np.array_equal(canonical.dlog_table, f9_alt.dlog_table)


@pytest.mark.parametrize("fixture,n", [("f9_alt", 2), ("f25_alt", 2), ("f25_alt", 3)])
def test_counts_still_match(fixture, n, request):
    f = request.getfixturevalue(fixture)
    part = partition(f, n)
    table = rep_count_table(f, part)
    closed = closed_rep_class_table(f, part)
    lab = part.labels
    for i in range(n):
        for j in range(n):
            assert np.array_equal(closed[lab[1:], i, j], table[i, j, 1:])


def test_jacobi_and_sums_still_exact(f25_alt):
    part = partition(f25_alt, 3)
    j = jacobi_cubic(f25_alt, part)
    assert j.norm() == 25
    for beta in range(1, 25):
        assert a_beta(f25_alt, part, beta) == chi_bar_times(part, beta, j)


def test_equations_still_hold(f9_alt, f25_alt):
    def mul(f, a, b):
        return gr_mul(GroupRingElement(f, a), GroupRingElement(f, b)).coeffs

    part = partition(f9_alt, 2)
    f0, f1 = part.indicators()
    s1, s2 = closed_sigmas(f9_alt, part)
    assert np.array_equal(s1, f0 + f1) and np.array_equal(s2, mul(f9_alt, f0, f1))
    part3 = partition(f25_alt, 3)
    fs = part3.indicators()
    s1, s2, s3 = closed_sigmas(f25_alt, part3)
    assert np.array_equal(s3, mul(f25_alt, mul(f25_alt, fs[0], fs[1]), fs[2]))
    for root in fs:
        r2 = mul(f25_alt, root, root)
        assert not (mul(f25_alt, r2, root) - mul(f25_alt, s1, r2)
                    + mul(f25_alt, s2, root) - s3).any()


def test_duality_still_holds(f9_alt, f25_alt):
    body, _, _ = checks.duality(f9_alt, partition(f9_alt, 2))
    assert body["holds"] and body["closed_form_prediction"] == 1 + body["max_N3"] == 2
    body, _, _ = checks.duality(f25_alt, partition(f25_alt, 2))
    assert body["holds"] and body["closed_form_prediction"] == 1 + body["max_N3"]
    body, _, _ = checks.duality(f25_alt, partition(f25_alt, 3))
    assert body["holds"]
