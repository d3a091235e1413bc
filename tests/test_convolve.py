import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from charsum.errors import IdentityViolation
from charsum.field import _fft_error_bound, convolve, prime_powers
from conftest import get_field

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


@given(operands())
@settings(max_examples=80, deadline=None)
def test_convolve_matches_dense_reference(args):
    field, scale, a, b = args
    out = convolve(field, a, b)
    assert [int(v) for v in out] == dense_reference(field, a, b)
    fft = _fft_error_bound(field, np.linalg.norm(a), np.linalg.norm(b)) < 1 / 8
    if scale != 2 ** 20:
        assert fft == (scale == 1 or not (a.any() and b.any()))
    # the dense path keeps int64 unless q * max|a| * max|b| could leave it
    big = field.q * int(np.abs(a).max()) * int(np.abs(b).max()) >= 2 ** 63
    assert out.dtype == (object if big and not fft else np.int64)


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
