import re

import numpy as np
import pytest

from charsum.characters import memo
from charsum.cyclotomic import jacobi_cubic
from charsum.errors import IdentityViolation, exact_div
from charsum.groupring import GroupRingElement, closed_sigmas, gr_mul
from conftest import count_calls, get_field, get_partition


def x(f, gamma: int, coeff: int = 1) -> np.ndarray:
    """coeff * X^gamma: the unit vector at gamma, scaled."""
    out = np.zeros(f.q, dtype=np.int64)
    out[gamma] = coeff
    return out


def ones(f) -> np.ndarray:
    """Phi, the all-ones element: the sum of X^gamma over the whole field."""
    return np.ones(f.q, dtype=np.int64)


def mul(f, a, b) -> np.ndarray:
    """The product of two coefficient arrays through ``gr_mul``."""
    return gr_mul(GroupRingElement(f, a), GroupRingElement(f, b)).coeffs


def test_unit_vector_product_wraps_mod_p():
    f3 = get_field(3)
    assert np.array_equal(mul(f3, x(f3, 1), x(f3, 2)), x(f3, 0))


def test_square_of_sum_f3():
    f3 = get_field(3)
    el = x(f3, 1) + x(f3, 2)
    assert mul(f3, el, el).tolist() == [2, 1, 1]


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (2, 2), (3, 2), (7, 1)])
def test_phi_is_scaled_idempotent(p, m):
    f = get_field(p, m)
    ph = ones(f)
    assert np.array_equal(mul(f, ph, ph), f.q * ph)
    v = np.random.default_rng(20).integers(-5, 6, f.q)
    assert np.array_equal(mul(f, ph, v), v.sum() * ph)


def test_indicator_rows_examples():
    # row j of part.indicators() is the characteristic function f_j
    f3 = get_field(3)
    assert np.array_equal(get_partition(3, 1, 2).indicators()[0], x(f3, 1))
    f5 = get_field(5)
    assert np.array_equal(get_partition(5, 1, 2).indicators()[1],
                          x(f5, 2) + x(f5, 3))
    f4 = get_field(2, 2)
    alpha2 = f4.mul(f4.alpha, f4.alpha)
    assert np.array_equal(get_partition(2, 2, 3).indicators()[2], x(f4, alpha2))


@pytest.mark.parametrize("p,m,n", [(3, 1, 2), (5, 1, 2), (3, 2, 2),
                                   (2, 2, 3), (7, 1, 3), (2, 4, 3)])
def test_partition_identity(p, m, n):
    f = get_field(p, m)
    fs = get_partition(p, m, n).indicators()
    assert fs.shape == (n, f.q)
    assert np.array_equal(x(f, 0) + fs.sum(axis=0), ones(f))


def test_quadratic_sigma_examples():
    f3 = get_field(3)
    s1, s2 = closed_sigmas(f3, get_partition(3, 1, 2))
    assert np.array_equal(s2, x(f3, 0))
    f5 = get_field(5)
    s1, s2 = closed_sigmas(f5, get_partition(5, 1, 2))
    assert np.array_equal(s2, ones(f5) - x(f5, 0))
    assert s1.dtype == s2.dtype == np.int64


def test_cubic_sigma_examples():
    f4 = get_field(2, 2)
    s1, s2, s3 = closed_sigmas(f4, get_partition(2, 2, 3))
    assert np.array_equal(s3, x(f4, 0))
    assert np.array_equal(s2, ones(f4) - x(f4, 0))
    f7 = get_field(7)
    s1, s2, s3 = closed_sigmas(f7, get_partition(7, 1, 3))
    assert np.array_equal(s2, 2 * (ones(f7) - x(f7, 0)))
    assert s1.dtype == s2.dtype == s3.dtype == np.int64


@pytest.mark.parametrize("p,m", [(2, 2), (7, 1), (2, 6), (13, 1), (7, 2), (2, 12)])
def test_cubic_sigma3_is_the_unreduced_product(monkeypatch, p, m):
    # 27 sigma3 = (Phi - 1)^3 + (3 + t - 3 Phi)(q - Phi), t = J + conj(J),
    # formed here by convolution; closed_sigmas forms no product
    f, part = get_field(p, m), get_partition(p, m, 3)
    jac = memo(part, jacobi_cubic)
    convolutions = count_calls(monkeypatch, "convolve")
    s1, _, s3 = closed_sigmas(f, part)
    assert convolutions == []
    ph, t, one = ones(f), (jac + jac.conj()).a, x(f, 0)
    cube = mul(f, mul(f, s1, s1), s1)
    tail = mul(f, (3 + t) * one - 3 * ph, f.q * one - ph)
    assert np.array_equal(27 * s3, cube + tail)


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (5, 2)])
def test_quadratic_equation_holds(p, m):
    f = get_field(p, m)
    part = get_partition(p, m, 2)
    f0, f1 = part.indicators()
    s1, s2 = closed_sigmas(f, part)
    assert np.array_equal(s1, f0 + f1)
    assert np.array_equal(s2, mul(f, f0, f1))
    for root in (f0, f1):
        assert not (mul(f, root, root) - mul(f, s1, root) + s2).any()


@pytest.mark.parametrize("p,m", [(2, 2), (2, 4), (7, 1), (13, 1), (5, 2)])
def test_cubic_equation_holds(p, m):
    f = get_field(p, m)
    part = get_partition(p, m, 3)
    fs = part.indicators()
    s1, s2, s3 = closed_sigmas(f, part)
    assert np.array_equal(s1, fs.sum(axis=0))
    assert np.array_equal(s2, mul(f, fs[0], fs[1]) + mul(f, fs[1], fs[2])
                          + mul(f, fs[2], fs[0]))
    assert np.array_equal(s3, mul(f, mul(f, fs[0], fs[1]), fs[2]))
    for root in fs:
        r2 = mul(f, root, root)
        assert not (mul(f, r2, root) - mul(f, s1, r2) + mul(f, s2, root) - s3).any()


def test_ring_laws_random_elements():
    f = get_field(7)
    rng = np.random.default_rng(21)
    for _ in range(25):
        a, b, c = (rng.integers(-4, 5, f.q) for _ in range(3))
        assert np.array_equal(mul(f, a, b), mul(f, b, a))
        assert np.array_equal(mul(f, mul(f, a, b), c), mul(f, a, mul(f, b, c)))
        assert np.array_equal(mul(f, a, b + c), mul(f, a, b) + mul(f, a, c))
        assert np.array_equal(mul(f, a, x(f, 0)), a)


def test_field_mismatch_rejected():
    f3, f5 = get_field(3), get_field(5)
    with pytest.raises(ValueError, match="different fields"):
        gr_mul(GroupRingElement(f3, x(f3, 1)), GroupRingElement(f5, x(f5, 1)))
    with pytest.raises(ValueError, match="length 3"):
        GroupRingElement(f3, x(f5, 1))


def test_exact_div_vec_raises():
    # the sigma vectors are divided exactly on their int64 coefficients
    assert exact_div(np.array([3, 6, 9]), 3, "x").tolist() == [1, 2, 3]
    with pytest.raises(IdentityViolation):
        exact_div(np.array([3, 6, 10]), 3, "x")


def test_coefficients_above_the_bound_are_refused():
    # int64 is the one representation: a product above convolve's bound
    # raises (FFT on F_3, Walsh-Hadamard on F_2^2), and a coefficient
    # outside int64 fails at construction
    for f in (get_field(3), get_field(2, 2)):
        big = x(f, 0, 2 ** 40) + x(f, 1, 2 ** 40)
        with pytest.raises(ValueError, match=re.escape(f"F_{f.spec.label()} ")):
            mul(f, big, big)
        with pytest.raises(OverflowError):
            GroupRingElement(f, [2 ** 63] + [0] * (f.q - 1))
        shifted = mul(f, big, x(f, 1))                  # within the bound
        assert np.array_equal(shifted, x(f, f.add(0, 1), 2 ** 40)
                              + x(f, f.add(1, 1), 2 ** 40))


def test_scalar_coefficients_multiply_unit_vector_at_zero():
    # a scalar c is c X^0, the unit vector at the additive identity
    f = get_field(5)
    s = x(f, 0, 7)
    assert np.array_equal(mul(f, s, x(f, 3, 2)), x(f, 3, 14))
    assert np.array_equal(mul(f, s, ones(f)), 7 * ones(f))
