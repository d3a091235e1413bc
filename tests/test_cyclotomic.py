import cmath
import operator

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from charsum.cyclotomic import (a_beta, a_beta_sweep, chi_bar_times,
                                exact_gauss_sum, gauss_sum,
                                jacobi_char2_closed_form, jacobi_cubic,
                                jacobi_from_gauss)
from charsum.eisenstein import (EisensteinInt, OMEGA, from_omega_counts,
                                omega_pow)
from conftest import get_field, get_partition

ints = st.integers(min_value=-10 ** 12, max_value=10 ** 12)


@given(ints, ints, ints, ints, ints, ints)
@settings(max_examples=200, deadline=None)
def test_eisenstein_ring_laws(a, b, c, d, e, f):
    x, y, z = EisensteinInt(a, b), EisensteinInt(c, d), EisensteinInt(e, f)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == EisensteinInt(0)
    assert x * 1 == x and x * 0 == EisensteinInt(0)


@given(ints, ints, ints, ints)
@settings(max_examples=200, deadline=None)
def test_eisenstein_conj_and_norm(a, b, c, d):
    x, y = EisensteinInt(a, b), EisensteinInt(c, d)
    assert x.conj().conj() == x
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()
    assert x.norm() == (x * x.conj()).a and (x * x.conj()).b == 0
    assert x.norm() >= 0
    assert (x * y).norm() == x.norm() * y.norm()


@given(ints, ints)
@settings(max_examples=200, deadline=None)
def test_eisenstein_plus_conj_is_rational(a, b):
    # conj(a + b w) = (a - b) - b w, so z + conj(z) = (2a - b) + 0 w: the
    # trace of a Jacobi sum or of K needs no rationality check
    z = EisensteinInt(a, b)
    assert (z + z.conj()).b == 0
    assert (z + z.conj()).a == 2 * a - b


def test_eisenstein_mixed_operands():
    z = EisensteinInt(2, -5)
    # an int on the left: 3 - z is not z - 3
    assert 3 - z == EisensteinInt(1, 5) and z - 3 == EisensteinInt(-1, -5)
    assert 4 + z == EisensteinInt(6, -5) and 3 * z == EisensteinInt(6, -15)
    assert -z == EisensteinInt(-2, 5)
    # no other operand type: Python raises TypeError, and == is False
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((z, 1.5), (1.5, z)):
            with pytest.raises(TypeError):
                op(left, right)
    assert (z == "x") is False and (z != "x") is True
    # equal values hash equal, the rational ones equal to their int too
    assert z == EisensteinInt(2, -5) and hash(z) == hash(EisensteinInt(2, -5))
    assert EisensteinInt(3) == 3 and hash(EisensteinInt(3)) == hash(3)
    assert len({z, EisensteinInt(2, -5), EisensteinInt(3), 3}) == 2


def test_eisenstein_formats():
    assert repr(EisensteinInt(3)) == "EisensteinInt(3)" and str(EisensteinInt(3)) == "3"
    assert repr(EisensteinInt(2, -5)) == "EisensteinInt(2, -5)"
    assert str(EisensteinInt(2, -5)) == "2 - 5w" and str(EisensteinInt(-2, 5)) == "-2 + 5w"


def test_omega_relations():
    assert OMEGA * OMEGA == omega_pow(2)
    assert OMEGA * OMEGA * OMEGA == EisensteinInt(1)
    assert omega_pow(2) == EisensteinInt(-1, -1)
    assert sum((omega_pow(k) for k in range(3)), EisensteinInt(0)) == EisensteinInt(0)
    assert from_omega_counts(2, 5, 3) == EisensteinInt(-1, 2)
    assert abs(OMEGA.to_complex() - cmath.exp(2j * cmath.pi / 3)) < 1e-15


def test_jacobi_known_values():
    assert jacobi_cubic(get_field(2, 2), get_partition(2, 2, 3)) == EisensteinInt(2)
    assert jacobi_cubic(get_field(2, 4), get_partition(2, 4, 3)) == EisensteinInt(-4)
    j7 = jacobi_cubic(get_field(7), get_partition(7, 1, 3))
    assert j7 == EisensteinInt(-1, -3)
    assert j7.norm() == 7


@pytest.mark.parametrize("p,m", [(2, 2), (2, 4), (7, 1), (13, 1), (5, 2), (7, 2)])
def test_jacobi_norm_is_q(p, m):
    j = jacobi_cubic(get_field(p, m), get_partition(p, m, 3))
    assert j.norm() == p ** m
    assert (j + j.conj()).is_rational()


def test_char2_closed_form():
    assert jacobi_char2_closed_form(2) == EisensteinInt(2)
    assert jacobi_char2_closed_form(4) == EisensteinInt(-4)
    assert jacobi_char2_closed_form(6) == EisensteinInt(8)
    assert jacobi_char2_closed_form(8) == EisensteinInt(-16)
    with pytest.raises(ValueError):
        jacobi_char2_closed_form(3)


def test_a_beta_examples():
    f7, p7 = get_field(7), get_partition(7, 1, 3)
    j7 = jacobi_cubic(f7, p7)
    assert a_beta(f7, p7, 1) == j7
    assert a_beta(f7, p7, 3) == EisensteinInt(-2, 1)
    f4, p4 = get_field(2, 2), get_partition(2, 2, 3)
    assert a_beta(f4, p4, f4.alpha) == EisensteinInt(-2, -2)
    with pytest.raises(ValueError):
        a_beta(f7, p7, 0)


@pytest.mark.parametrize("call,message", [
    (lambda: a_beta(get_field(7), get_partition(7, 1, 2), 1), "cubic partition expected"),
    (lambda: jacobi_from_gauss(get_field(7), get_partition(7, 1, 2)),
     "cubic partition expected"),
    (lambda: chi_bar_times(get_partition(7, 1, 3), 0, EisensteinInt(1)),
     "beta must be nonzero")])
def test_cubic_forms_refuse_what_they_do_not_define(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("p,m", [(2, 2), (2, 4), (7, 1), (13, 1), (5, 2),
                                 (7, 3)])              # 3 axes of length 7
def test_a_beta_identity_exhaustive(p, m):
    f = get_field(p, m)
    part = get_partition(p, m, 3)
    j = jacobi_cubic(f, part)
    a_arr, b_arr = a_beta_sweep(f, part)
    for beta in range(1, f.q):
        expected = chi_bar_times(part, beta, j)
        assert (int(a_arr[beta]), int(b_arr[beta])) == (expected.a, expected.b)
        if beta <= 3:
            assert a_beta(f, part, beta) == expected


def test_gauss_exact_char2():
    for m, g in ((2, 2), (4, -4), (6, 8)):
        assert exact_gauss_sum(get_field(2, m), get_partition(2, m, 3)) \
            == EisensteinInt(g)
    with pytest.raises(ValueError):
        exact_gauss_sum(get_field(5), get_partition(5, 1, 2))


def test_gauss_numeric_classical_values():
    g5 = gauss_sum(get_field(5), get_partition(5, 1, 2))
    assert abs(g5 - cmath.sqrt(5)) < 1e-9
    g7 = gauss_sum(get_field(7), get_partition(7, 1, 2))
    assert abs(g7 - 1j * cmath.sqrt(7)) < 1e-9


@pytest.mark.parametrize("p,m,n", [(5, 1, 2), (7, 1, 2), (3, 2, 2),
                                   (2, 2, 3), (7, 1, 3), (13, 1, 3), (5, 2, 3)])
def test_gauss_abs_square_is_q(p, m, n):
    g = gauss_sum(get_field(p, m), get_partition(p, m, n))
    assert abs(abs(g) ** 2 - p ** m) <= 1e-9 * p ** m


@pytest.mark.parametrize("p,m", [(2, 2), (2, 4), (7, 1), (13, 1), (5, 2)])
def test_jacobi_from_gauss_matches_exact(p, m):
    f = get_field(p, m)
    part = get_partition(p, m, 3)
    j = jacobi_cubic(f, part)
    assert abs(jacobi_from_gauss(f, part) - j.to_complex()) < 1e-6


@pytest.mark.parametrize("p,m", [(2, 2), (2, 6), (7, 1), (13, 1), (5, 2), (31, 1)])
def test_jacobi_from_gauss_reads_the_conjugate_off_the_labels(p, m):
    # G(conj chi) from the partition's own labels is the conjugate
    # partition's Gauss sum bit for bit, for either flag
    f = get_field(p, m)
    for conjugate in (False, True):
        g, g_bar = (gauss_sum(f, get_partition(p, m, 3, conjugate=c))
                    for c in (conjugate, not conjugate))
        assert jacobi_from_gauss(f, get_partition(p, m, 3, conjugate=conjugate)) \
            == g * g / g_bar


def test_jacobi_from_gauss_f7_embedding():
    val = jacobi_from_gauss(get_field(7), get_partition(7, 1, 3))
    assert abs(val - complex(0.5, -3 * cmath.sqrt(3).real / 2)) < 1e-6


def test_conjugate_flag_conjugates_sums():
    f = get_field(13)
    j = jacobi_cubic(f, get_partition(13, 1, 3))
    j_conj = jacobi_cubic(f, get_partition(13, 1, 3, conjugate=True))
    assert j_conj == j.conj()
    g = gauss_sum(f, get_partition(13, 1, 3))
    g_conj = gauss_sum(f, get_partition(13, 1, 3, conjugate=True))
    assert abs(g.conjugate() - g_conj) < 1e-9
