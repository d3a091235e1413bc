import re

import numpy as np
import pytest

from charsum.characters import memo
from charsum.cyclotomic import jacobi_cubic
from charsum.errors import IdentityViolation
from charsum.groupring import (GroupRingElement, characteristic_fn,
                               cubic_sigma, gr_mul, monomial, phi,
                               quadratic_sigma, _exact_div_vec)
from conftest import count_calls, get_field, get_partition


def same(a, b) -> bool:
    """Coefficient equality of elements or int64 coefficient arrays."""
    return np.array_equal(getattr(a, "coeffs", a), getattr(b, "coeffs", b))


def unit(f) -> np.ndarray:
    """Coefficients of X^0, the identity of the group algebra."""
    return monomial(f, 0).coeffs


def test_monomial_product_wraps_mod_p():
    f3 = get_field(3)
    assert gr_mul(monomial(f3, 1), monomial(f3, 2)) == monomial(f3, 0)


def test_square_of_sum_f3():
    f3 = get_field(3)
    el = GroupRingElement(f3, monomial(f3, 1).coeffs + monomial(f3, 2).coeffs)
    sq = gr_mul(el, el)
    assert sq.to_json() == {"0": 2, "1": 1, "2": 1}


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (2, 2), (3, 2), (7, 1)])
def test_phi_is_scaled_idempotent(p, m):
    f = get_field(p, m)
    ph = phi(f)
    assert same(gr_mul(ph, ph), f.q * ph.coeffs)
    rng = np.random.default_rng(20)
    v = GroupRingElement(f, rng.integers(-5, 6, f.q))
    assert same(gr_mul(ph, v), v.coeff_sum() * ph.coeffs)


def test_characteristic_fn_examples():
    f3 = get_field(3)
    assert characteristic_fn(f3, get_partition(3, 1, 2), 0) == monomial(f3, 1)
    f5 = get_field(5)
    f5_b1 = characteristic_fn(f5, get_partition(5, 1, 2), 1)
    assert same(f5_b1, monomial(f5, 2).coeffs + monomial(f5, 3).coeffs)
    f4 = get_field(2, 2)
    p4 = get_partition(2, 2, 3)
    alpha2 = f4.mul(f4.alpha, f4.alpha)
    assert characteristic_fn(f4, p4, 2) == monomial(f4, alpha2)


@pytest.mark.parametrize("p,m,n", [(3, 1, 2), (5, 1, 2), (3, 2, 2),
                                   (2, 2, 3), (7, 1, 3), (2, 4, 3)])
def test_partition_identity(p, m, n):
    f = get_field(p, m)
    part = get_partition(p, m, n)
    total = unit(f)
    for j in range(n):
        total = total + characteristic_fn(f, part, j).coeffs
    assert same(total, phi(f))


def test_quadratic_sigma_examples():
    f3 = get_field(3)
    s1, s2 = quadratic_sigma(f3, get_partition(3, 1, 2))
    assert s2 == monomial(f3, 0)
    f5 = get_field(5)
    s1, s2 = quadratic_sigma(f5, get_partition(5, 1, 2))
    assert same(s2, phi(f5).coeffs - unit(f5))


def test_cubic_sigma_examples():
    f4 = get_field(2, 2)
    p4 = get_partition(2, 2, 3)
    s1, s2, s3 = cubic_sigma(f4, p4)
    assert s3 == monomial(f4, 0)
    assert same(s2, phi(f4).coeffs - unit(f4))
    f7 = get_field(7)
    p7 = get_partition(7, 1, 3)
    s1, s2, s3 = cubic_sigma(f7, p7)
    assert same(s2, 2 * (phi(f7).coeffs - unit(f7)))


@pytest.mark.parametrize("p,m", [(2, 2), (7, 1), (2, 6), (13, 1), (7, 2), (2, 12)])
def test_cubic_sigma3_is_the_unreduced_product(monkeypatch, p, m):
    # 27 sigma3 = (Phi - 1)^3 + (3 + t - 3 Phi)(q - Phi), t = J + conj(J),
    # formed here by convolution; cubic_sigma forms no product
    f, part = get_field(p, m), get_partition(p, m, 3)
    jac = memo(part, jacobi_cubic)
    convolutions = count_calls(monkeypatch, "convolve")
    s1, _, s3 = cubic_sigma(f, part)
    assert convolutions == []
    ph, t = phi(f).coeffs, (jac + jac.conj()).a
    cube = gr_mul(gr_mul(s1, s1), s1)
    tail = gr_mul(GroupRingElement(f, (3 + t) * unit(f) - 3 * ph),
                  GroupRingElement(f, f.q * unit(f) - ph))
    assert same(27 * s3.coeffs, cube.coeffs + tail.coeffs)


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (5, 2)])
def test_quadratic_equation_holds(p, m):
    f = get_field(p, m)
    part = get_partition(p, m, 2)
    f0 = characteristic_fn(f, part, 0)
    f1 = characteristic_fn(f, part, 1)
    s1, s2 = quadratic_sigma(f, part)
    assert same(s1, f0.coeffs + f1.coeffs)
    assert s2 == gr_mul(f0, f1)
    for root in (f0, f1):
        res = gr_mul(root, root).coeffs - gr_mul(s1, root).coeffs + s2.coeffs
        assert not res.any()


@pytest.mark.parametrize("p,m", [(2, 2), (2, 4), (7, 1), (13, 1), (5, 2)])
def test_cubic_equation_holds(p, m):
    f = get_field(p, m)
    part = get_partition(p, m, 3)
    fs = [characteristic_fn(f, part, j) for j in range(3)]
    s1, s2, s3 = cubic_sigma(f, part)
    assert same(s1, fs[0].coeffs + fs[1].coeffs + fs[2].coeffs)
    assert same(s2, gr_mul(fs[0], fs[1]).coeffs + gr_mul(fs[1], fs[2]).coeffs
                + gr_mul(fs[2], fs[0]).coeffs)
    assert s3 == gr_mul(gr_mul(fs[0], fs[1]), fs[2])
    for root in fs:
        r2 = gr_mul(root, root)
        res = (gr_mul(r2, root).coeffs - gr_mul(s1, r2).coeffs
               + gr_mul(s2, root).coeffs - s3.coeffs)
        assert not res.any()


def test_ring_laws_random_elements():
    f = get_field(7)
    rng = np.random.default_rng(21)
    for _ in range(25):
        a = GroupRingElement(f, rng.integers(-4, 5, f.q))
        b = GroupRingElement(f, rng.integers(-4, 5, f.q))
        c = GroupRingElement(f, rng.integers(-4, 5, f.q))
        assert gr_mul(a, b) == gr_mul(b, a)
        assert gr_mul(gr_mul(a, b), c) == gr_mul(a, gr_mul(b, c))
        assert same(gr_mul(a, GroupRingElement(f, b.coeffs + c.coeffs)),
                    gr_mul(a, b).coeffs + gr_mul(a, c).coeffs)
        assert gr_mul(a, monomial(f, 0)) == a


def test_field_mismatch_rejected():
    a = monomial(get_field(3), 1)
    b = monomial(get_field(5), 1)
    with pytest.raises(ValueError):
        gr_mul(a, b)
    with pytest.raises(ValueError):
        a._check_same_field(b)
    assert a != b


def test_exact_div_vec_raises():
    f = get_field(3)
    el = GroupRingElement(f, [3, 6, 9])
    assert _exact_div_vec(el, 3, "x") == GroupRingElement(f, [1, 2, 3])
    with pytest.raises(IdentityViolation):
        _exact_div_vec(GroupRingElement(f, [3, 6, 10]), 3, "x")


def test_coefficients_above_the_bound_are_refused():
    # int64 is the one representation: a product above convolve's bound
    # raises (FFT on F_3, Walsh-Hadamard on F_2^2), and a coefficient
    # outside int64 fails at construction
    for f in (get_field(3), get_field(2, 2)):
        big = GroupRingElement(f, [2 ** 40, 2 ** 40] + [0] * (f.q - 2))
        with pytest.raises(ValueError, match=re.escape(f"F_{f.spec.label()} ")):
            gr_mul(big, big)
        with pytest.raises(OverflowError):
            GroupRingElement(f, [2 ** 63] + [0] * (f.q - 1))
        shifted = gr_mul(big, monomial(f, 1))          # within the bound
        assert shifted.to_json() == {str(f.add(x, 1)): 2 ** 40 for x in (0, 1)}


def test_scalar_coefficients_multiply_monomial_at_zero():
    # a scalar c is c X^0, the monomial at the additive identity
    f = get_field(5)
    s = monomial(f, 0, 7)
    assert s.to_json() == {"0": 7}
    assert gr_mul(s, monomial(f, 3, 2)).to_json() == {"3": 14}
    assert same(gr_mul(s, phi(f)), 7 * phi(f).coeffs)
