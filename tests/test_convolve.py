from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from charsum import field as field_mod
from charsum.cli import main
from charsum.errors import IdentityViolation
from charsum.field import _fft_error_bound, convolve, prime_powers
from charsum.groupring import characteristic_fn, gr_mul, phi
from conftest import get_field, get_partition

SMALL_FIELDS = [(p, m) for p, m, _ in prime_powers(81)]


def dense_reference(field, a, b):
    """The definition, in Python integers: out[x + y] += a[x] * b[y]."""
    out = [0] * field.q
    for x in range(field.q):
        for y in range(field.q):
            out[field.add(x, y)] += int(a[x]) * int(b[y])
    return out


@st.composite
def operands(draw):
    p, m = draw(st.sampled_from(SMALL_FIELDS))
    # scale 1 stays far inside the FFT bound, 2^40 far outside it, and 2^20
    # lands on either side depending on the coefficients
    scale = draw(st.sampled_from([1, 2 ** 20, 2 ** 40]))
    coeffs = st.lists(st.integers(-9, 9), min_size=p ** m, max_size=p ** m)
    a = np.array(draw(coeffs), dtype=np.int64) * scale
    b = np.array(draw(coeffs), dtype=np.int64) * scale
    return get_field(p, m), scale, a, b


def spy(name):
    return mock.patch.object(field_mod, name, wraps=getattr(field_mod, name))


@given(operands())
@settings(max_examples=80, deadline=None)
def test_convolve_matches_dense_reference(args):
    field, scale, a, b = args
    with spy("_wht_convolve") as wht, spy("_fft_convolve") as fft:
        out = convolve(field, a, b)
    assert [int(v) for v in out] == dense_reference(field, a, b)
    zero = not (a.any() and b.any())
    if field.p == 2:
        # q |a|_2 |b|_2 < 2^62 holds at scale 2^20 too (q <= 64, |coeff| <= 9)
        assert not fft.called
        assert wht.called == (scale != 2 ** 40 or zero)
        transform = wht.called
    else:
        bound = _fft_error_bound(field, np.linalg.norm(a), np.linalg.norm(b)) < 1 / 8
        assert not wht.called and fft.called == bound
        if scale != 2 ** 20:
            assert bound == (scale == 1 or zero)
        transform = fft.called
    # the dense path keeps int64 unless q * max|a| * max|b| could leave it
    big = field.q * int(np.abs(a).max()) * int(np.abs(b).max()) >= 2 ** 63
    assert out.dtype == (object if big and not transform else np.int64)


@pytest.mark.parametrize("scale", [1, 2 ** 40])      # transform and dense path
def test_broadcast_stack_matches_pairwise_calls(scale):
    field = get_field(5, 2)
    rng = np.random.default_rng(3)
    f = rng.integers(-3, 4, (3, field.q)) * scale
    table = convolve(field, f[:, None], f[None, :])
    assert table.shape == (3, 3, field.q)
    for i in range(3):
        for j in range(3):
            assert np.array_equal(table[i, j], convolve(field, f[i], f[j]))


@pytest.mark.parametrize("shift", [0.4, 1.0])
def test_perturbed_inverse_transform_raises(monkeypatch, shift):
    # 0.4 is caught by the distance to the nearest integer, 1.0 only by the
    # coefficient-sum identity
    field = get_field(3, 2)
    real = np.fft.irfftn

    def perturbed(*args, **kwargs):
        x = real(*args, **kwargs)
        x.reshape(-1)[0] += shift
        return x

    monkeypatch.setattr(np.fft, "irfftn", perturbed)
    a = np.arange(field.q)
    with pytest.raises(IdentityViolation):
        convolve(field, a, a)


@pytest.mark.parametrize("shift,certificate", [(1, "low bits"), (16, "coefficient sums")])
def test_perturbed_walsh_hadamard_output_raises(monkeypatch, shift, certificate):
    # +1 leaves an entry that q = 16 does not divide; +q passes that check
    # and is caught only by the coefficient-sum identity
    field = get_field(2, 4)
    real, calls = field_mod._wht, []

    def perturbed(v, m):
        out = real(v, m)
        calls.append(m)
        if len(calls) == 3:                 # the inverse transform
            out[..., 0] += shift
        return out

    monkeypatch.setattr(field_mod, "_wht", perturbed)
    a = np.arange(field.q)
    with pytest.raises(IdentityViolation, match=certificate):
        convolve(field, a, a)
    assert len(calls) == 3


def test_characteristic_two_never_calls_the_fft(monkeypatch, capsys):
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("rfftn called over characteristic 2")

    monkeypatch.setattr(np.fft, "rfftn", refuse)
    rng = np.random.default_rng(5)
    for m in range(1, 11):
        field = get_field(2, m)
        a, b = rng.integers(-9, 10, (2, 1, field.q)), rng.integers(-9, 10, (3, field.q))
        out = convolve(field, a, b)
        assert out.shape == (2, 3, field.q) and out.dtype == np.int64
        assert np.array_equal(out.sum(-1), a.sum(-1) * b.sum(-1))
    # every caller of convolve: pair tables, sigma chains, Jacobi sums, the
    # group-ring products and the triple and quad shift-count tables
    for argv in (["repcount", "--field", "2^6", "--n", "3"], ["jacobi", "--field", "2^6"],
                 ["charpoly", "--field", "2^6", "--n", "3"],
                 ["duality", "--field", "2^6", "--n", "3"],
                 ["shift", "--field", "2^6", "--n", "3", "--t", "4"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert calls == []


def test_cubic_products_at_the_size_cap_take_the_exact_transform(monkeypatch):
    # (Phi - 1)^3, the product cubic_sigma's closed form reduces, has
    # q |a|_1 |b|_1 = q^4 > 2^62 and falls to the dense row loop, minutes at
    # 2^16, under an l1 bound; the l2 bound keeps it and the three-fold coset
    # product on the int64 transform
    field, part = get_field(2, 16), get_partition(2, 16, 3)
    f0, f1, f2 = (characteristic_fn(field, part, j) for j in range(3))
    s1 = phi(field) - 1

    def refuse(v):
        raise AssertionError("dense convolution at the size cap")

    monkeypatch.setattr(field_mod, "max_abs", refuse)   # the dense path's first step
    triple = gr_mul(gr_mul(f0, f1), f2)
    square = s1 ** 2
    cube = gr_mul(square, s1)
    assert triple.coeffs.dtype == cube.coeffs.dtype == np.int64
    assert field.q * int(np.abs(square.coeffs).sum()) * (field.q - 1) > 2 ** 62
    assert triple.coeff_sum() == (field.q - 1) ** 3 // 27
    assert cube.coeff_sum() == (field.q - 1) ** 3
