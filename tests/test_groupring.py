import numpy as np
import pytest

from charsum.characters import memo
from charsum.cyclotomic import jacobi_cubic
from charsum.errors import IdentityViolation
from charsum.groupring import (GroupRingElement, characteristic_fn,
                               cubic_sigma, gr_mul, monomial, phi,
                               quadratic_sigma, scalar, _exact_div_vec)
from conftest import count_calls, get_field, get_partition


def test_monomial_product_wraps_mod_p():
    f3 = get_field(3)
    assert gr_mul(monomial(f3, 1), monomial(f3, 2)) == monomial(f3, 0)


def test_square_of_sum_f3():
    f3 = get_field(3)
    el = monomial(f3, 1) + monomial(f3, 2)
    sq = gr_mul(el, el)
    assert sq.to_json() == {"0": 2, "1": 1, "2": 1}


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (2, 2), (3, 2), (7, 1)])
def test_phi_is_scaled_idempotent(p, m):
    f = get_field(p, m)
    ph = phi(f)
    assert gr_mul(ph, ph) == f.q * ph
    rng = np.random.default_rng(20)
    v = GroupRingElement(f, rng.integers(-5, 6, f.q))
    assert gr_mul(ph, v) == v.coeff_sum() * ph


def test_characteristic_fn_examples():
    f3 = get_field(3)
    assert characteristic_fn(f3, get_partition(3, 1, 2), 0) == monomial(f3, 1)
    f5 = get_field(5)
    f5_b1 = characteristic_fn(f5, get_partition(5, 1, 2), 1)
    assert f5_b1 == monomial(f5, 2) + monomial(f5, 3)
    f4 = get_field(2, 2)
    p4 = get_partition(2, 2, 3)
    alpha2 = f4.mul(f4.alpha, f4.alpha)
    assert characteristic_fn(f4, p4, 2) == monomial(f4, alpha2)


@pytest.mark.parametrize("p,m,n", [(3, 1, 2), (5, 1, 2), (3, 2, 2),
                                   (2, 2, 3), (7, 1, 3), (2, 4, 3)])
def test_partition_identity(p, m, n):
    f = get_field(p, m)
    part = get_partition(p, m, n)
    total = scalar(f, 1)
    for j in range(n):
        total = total + characteristic_fn(f, part, j)
    assert total == phi(f)


def test_quadratic_sigma_examples():
    f3 = get_field(3)
    s1, s2 = quadratic_sigma(f3, get_partition(3, 1, 2))
    assert s2 == monomial(f3, 0)
    f5 = get_field(5)
    s1, s2 = quadratic_sigma(f5, get_partition(5, 1, 2))
    assert s2 == phi(f5) - monomial(f5, 0)


def test_cubic_sigma_examples():
    f4 = get_field(2, 2)
    p4 = get_partition(2, 2, 3)
    s1, s2, s3 = cubic_sigma(f4, p4)
    assert s3 == monomial(f4, 0)
    assert s2 == phi(f4) - monomial(f4, 0)
    f7 = get_field(7)
    p7 = get_partition(7, 1, 3)
    s1, s2, s3 = cubic_sigma(f7, p7)
    assert s2 == 2 * (phi(f7) - monomial(f7, 0))


@pytest.mark.parametrize("p,m", [(2, 2), (7, 1), (2, 6), (13, 1), (7, 2), (2, 12)])
def test_cubic_sigma3_is_the_unreduced_product(monkeypatch, p, m):
    # 27 sigma3 = (Phi - 1)^3 + (3 + t - 3 Phi)(q - Phi), t = J + conj(J),
    # formed here by convolution; cubic_sigma forms no product
    f, part = get_field(p, m), get_partition(p, m, 3)
    jac = memo(part, jacobi_cubic)
    convolutions = count_calls(monkeypatch, "convolve")
    s1, _, s3 = cubic_sigma(f, part)
    assert convolutions == []
    ph, t = phi(f), (jac + jac.conj()).a
    assert 27 * s3 == s1 ** 3 + gr_mul(scalar(f, 3 + t) - 3 * ph, scalar(f, f.q) - ph)


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (5, 2)])
def test_quadratic_equation_holds(p, m):
    f = get_field(p, m)
    part = get_partition(p, m, 2)
    f0 = characteristic_fn(f, part, 0)
    f1 = characteristic_fn(f, part, 1)
    s1, s2 = quadratic_sigma(f, part)
    assert s1 == f0 + f1
    assert s2 == gr_mul(f0, f1)
    for root in (f0, f1):
        assert (gr_mul(root, root) - gr_mul(s1, root) + s2).is_zero()


@pytest.mark.parametrize("p,m", [(2, 2), (2, 4), (7, 1), (13, 1), (5, 2)])
def test_cubic_equation_holds(p, m):
    f = get_field(p, m)
    part = get_partition(p, m, 3)
    fs = [characteristic_fn(f, part, j) for j in range(3)]
    s1, s2, s3 = cubic_sigma(f, part)
    assert s1 == fs[0] + fs[1] + fs[2]
    assert s2 == (gr_mul(fs[0], fs[1]) + gr_mul(fs[1], fs[2])
                  + gr_mul(fs[2], fs[0]))
    assert s3 == gr_mul(gr_mul(fs[0], fs[1]), fs[2])
    for root in fs:
        r2 = gr_mul(root, root)
        res = gr_mul(r2, root) - gr_mul(s1, r2) + gr_mul(s2, root) - s3
        assert res.is_zero()


def test_ring_laws_random_elements():
    f = get_field(7)
    rng = np.random.default_rng(21)
    for _ in range(25):
        a = GroupRingElement(f, rng.integers(-4, 5, f.q))
        b = GroupRingElement(f, rng.integers(-4, 5, f.q))
        c = GroupRingElement(f, rng.integers(-4, 5, f.q))
        assert gr_mul(a, b) == gr_mul(b, a)
        assert gr_mul(gr_mul(a, b), c) == gr_mul(a, gr_mul(b, c))
        assert gr_mul(a, b + c) == gr_mul(a, b) + gr_mul(a, c)
        assert gr_mul(a, monomial(f, 0)) == a


def test_field_mismatch_rejected():
    a = monomial(get_field(3), 1)
    b = monomial(get_field(5), 1)
    with pytest.raises(ValueError):
        gr_mul(a, b)
    with pytest.raises(ValueError):
        a + b


def test_exact_div_vec_raises():
    f = get_field(3)
    el = GroupRingElement(f, [3, 6, 9])
    assert _exact_div_vec(el, 3, "x") == GroupRingElement(f, [1, 2, 3])
    with pytest.raises(IdentityViolation):
        _exact_div_vec(GroupRingElement(f, [3, 6, 10]), 3, "x")


def test_object_dtype_fallback_for_huge_coefficients():
    f = get_field(3)
    big = 2 ** 40
    a = GroupRingElement(f, [big, big, 0])
    sq = gr_mul(a, a)
    assert sq.coeffs.dtype == object
    # (big*X^0 + big*X^1)^2 = big^2*(X^0 + 2*X^1 + X^2)
    assert sq.to_json() == {"0": big * big, "1": 2 * big * big, "2": big * big}


def test_additive_operations_never_wrap_int64():
    f = get_field(3)
    a = GroupRingElement(f, [2 ** 62, 0, 0])
    assert (a + a).to_json() == {"0": 2 ** 63}
    assert (a - (-a)).to_json() == {"0": 2 ** 63}
    assert (a + 2 ** 62).to_json() == {"0": 2 ** 63}
    assert (4 * a).to_json() == {"0": 2 ** 64}
    assert (-a - a).to_json() == {"0": -2 ** 63}
    assert (a + 1).coeffs.dtype == np.int64       # no lift when it cannot wrap
    low = GroupRingElement(f, [-2 ** 63, 0, 0])
    assert (-low).to_json() == {"0": 2 ** 63}


def test_scalar_coefficients_multiply_monomial_at_zero():
    f = get_field(5)
    s = scalar(f, 7)
    assert s.to_json() == {"0": 7}
    assert (s + 3).to_json() == {"0": 10}
    assert (2 * s).to_json() == {"0": 14}
