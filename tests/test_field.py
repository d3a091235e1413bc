import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from charsum.errors import IdentityViolation
from charsum.field import (FieldSpec, FieldTable, build_field, find_irreducible,
                           is_irreducible, is_prime, parse_field_spec,
                           prime_factors, prime_powers)
from conftest import get_field


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    assert {n for n in range(25) if is_prime(n)} == primes


def test_prime_powers_sorted_and_complete():
    pps = prime_powers(32)
    qs = [q for _, _, q in pps]
    assert qs == sorted(qs)
    assert (2, 5, 32) in pps and (3, 3, 27) in pps and (31, 1, 31) in pps
    assert all(is_prime(p) for p, _, _ in pps)


def test_find_irreducible_known_values():
    assert find_irreducible(2, 2) == (1, 1, 1)          # x^2 + x + 1
    assert find_irreducible(3, 2) == (1, 0, 1)          # x^2 + 1
    assert find_irreducible(2, 4) == (1, 1, 0, 0, 1)    # x^4 + x + 1
    assert find_irreducible(5, 1) == (0, 1)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 3), (5, 2), (7, 2), (2, 6)])
def test_find_irreducible_is_minimal(p, m):
    f = find_irreducible(p, m)
    assert is_irreducible(list(f), p)
    # nothing smaller in the leading-side lexicographic order is irreducible
    k = sum(c * p ** i for i, c in enumerate(f[:m]))
    for smaller in range(k):
        cand = [(smaller // p ** i) % p for i in range(m)] + [1]
        assert not is_irreducible(cand, p)


def test_parse_field_spec():
    assert parse_field_spec("13") == (13, 1, None)
    assert parse_field_spec("2^4") == (2, 4, None)
    assert parse_field_spec("2^2:1,1,1") == (2, 2, (1, 1, 1))


def test_fieldspec_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FieldSpec(4, 1, (0, 1))                 # not prime
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (0, 0, 1))              # x^2 reducible
    with pytest.raises(ValueError):
        FieldSpec(3, 2, (1, 0, 2))              # not monic
    with pytest.raises(ValueError):
        build_field(2, 8, size_cap=100)          # over cap


def test_alpha_canonical_values():
    assert get_field(3).alpha == 2
    assert get_field(7).alpha == 3
    assert get_field(2, 2).alpha == 2           # eta


def test_prime_field_alpha_matches_the_polynomial_search():
    # prime fields search with pow(g, e, p); the polynomial _raw_pow is the
    # reference, the least g of order p - 1 either way
    for p in filter(is_prime, range(3, 2000)):
        f = build_field(p)
        cofactors = [(p - 1) // ell for ell in prime_factors(p - 1)]
        alpha = next(g for g in range(2, p)
                     if all(f._raw_pow(g, e) != 1 for e in cofactors))
        assert f.alpha == alpha, p


def test_f4_dlog_table():
    f4 = get_field(2, 2)
    assert f4.spec.modulus == (1, 1, 1)
    assert {x: f4.dlog(x) for x in (1, 2, 3)} == {1: 0, 2: 1, 3: 2}


def test_dlog_examples():
    f7 = get_field(7)
    assert f7.dlog(1) == 0
    assert f7.dlog(6) == 3          # 3^3 = 27 = 6 mod 7
    with pytest.raises(ValueError):
        f7.dlog(0)


@pytest.mark.parametrize("p,m", [(7, 1), (3, 2), (2, 4), (5, 2)])
def test_dlog_is_homomorphism(p, m):
    f = get_field(p, m)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, y = (int(v) for v in rng.integers(1, f.q, 2))
        assert (f.dlog(f.mul(x, y))
                == (f.dlog(x) + f.dlog(y)) % (f.q - 1))


@pytest.mark.parametrize("p,m", [(5, 1), (3, 3), (2, 4), (7, 2)])
def test_field_axioms_random_triples(p, m):
    f = get_field(p, m)
    rng = np.random.default_rng(2)
    for _ in range(200):
        x, y, z = (int(v) for v in rng.integers(0, f.q, 3))
        assert f.add(x, y) == f.add(y, x)
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
        assert f.add(x, f.neg(x)) == 0
        if x:
            assert f.mul(x, f.inv(x)) == 1


@pytest.mark.parametrize("p,m", [(3, 2), (2, 4), (5, 2), (7, 1)])
def test_frobenius_is_additive(p, m):
    f = get_field(p, m)
    rng = np.random.default_rng(3)
    for _ in range(200):
        x, y = (int(v) for v in rng.integers(0, f.q, 2))
        s = f.add(x, y)
        lhs = f.pow_(s, f.p) if s else 0
        rhs = f.add(f.pow_(x, f.p) if x else 0, f.pow_(y, f.p) if y else 0)
        assert lhs == rhs


def test_build_is_deterministic():
    a = build_field(3, 4)
    b = build_field(3, 4)
    assert a.spec == b.spec and a.alpha == b.alpha
    assert np.array_equal(a.exp, b.exp)
    assert np.array_equal(a.dlog_table, b.dlog_table)


@pytest.mark.parametrize("p,m", [(7, 1), (3, 2), (2, 4), (13, 1)])
def test_dlog_exp_are_inverse_bijections(p, m):
    f = get_field(p, m)
    assert np.array_equal(f.dlog_table[f.exp], np.arange(f.q - 1))
    assert sorted(map(int, f.exp)) == list(range(1, f.q))
    assert f.dlog_table[0] == -1
    # alpha has order exactly q - 1
    assert f.pow_(f.alpha, f.q - 1) == 1
    assert all(f.pow_(f.alpha, k) != 1 for k in range(1, f.q - 1))


@pytest.mark.parametrize("p,m", [(2, 2), (2, 12), (3, 7), (5, 4), (97, 2)])
def test_exp_table_matches_polynomial_powers(p, m):
    # the table is built by doubling; check it against square-and-multiply
    f = get_field(p, m)
    hs = np.random.default_rng(p * m).integers(0, f.q - 1, 40).tolist()
    for h in [0, 1, f.q - 2] + hs:
        assert f.exp[h] == f._raw_pow(f.alpha, h)


def test_index_coeffs_bijection():
    f = get_field(3, 3)
    for x in range(f.q):
        assert f.index(f.coeffs(x)) == x


def test_trace_lands_in_prime_field():
    f = get_field(2, 4)
    tr = f.trace_vec()
    assert set(np.unique(tr)) <= {0, 1}
    assert tr[0] == 0
    # trace is additive
    rng = np.random.default_rng(4)
    for _ in range(50):
        x, y = (int(v) for v in rng.integers(0, f.q, 2))
        assert (f.trace(x) + f.trace(y)) % f.p == f.trace(f.add(x, y))


def frobenius_trace(f):
    """Oracle: Tr x = x + x^p + ... + x^(p^(m-1)) for every element at once,
    by m - 1 Frobenius passes through the log tables, summed in coordinates."""
    digits = np.arange(f.q)[:, None] // f.p ** np.arange(f.m) % f.p
    acc, cur = digits.copy(), np.arange(f.q)
    for _ in range(1, f.m):
        nxt = np.zeros(f.q, dtype=np.int64)
        nz = cur != 0
        nxt[nz] = f.exp[f.dlog_table[cur[nz]] * f.p % (f.q - 1)]
        cur = nxt
        acc += digits[cur]
    acc %= f.p
    assert not acc[:, 1:].any()
    return acc[:, 0]


@pytest.mark.parametrize("p,m", [(p, m) for p, m, _ in prime_powers(729)])
def test_trace_vec_matches_frobenius_oracle(p, m):
    f = get_field(p, m)
    assert np.array_equal(f.trace_vec(), frobenius_trace(f))


def test_trace_certificate_rejects_a_zero_functional(monkeypatch):
    f = build_field(2, 4)
    # x^p taken as x makes Tr(eta^i) = 4 eta^i = 0 on every basis element
    monkeypatch.setattr(FieldTable, "pow_", lambda self, x, e: x)
    with pytest.raises(IdentityViolation, match="equidistributed"):
        f.trace_vec()


@given(st.integers(min_value=0, max_value=48), st.integers(min_value=0, max_value=48))
@settings(max_examples=50, deadline=None)
def test_add_matches_vectorized(x, y):
    f = get_field(7, 2)
    ys = np.arange(f.q)
    assert f.add(x, y) == int(f.add_vec(x, ys)[y])
    assert f.add(x, y) == int(f.add_outer(np.array([x]), np.array([y]))[0, 0])


def test_user_modulus_accepted_and_verified():
    f = build_field(3, 2, modulus=(2, 2, 1))    # x^2 + 2x + 2, irreducible
    assert f.q == 9
    with pytest.raises(ValueError):
        build_field(3, 2, modulus=(0, 0, 1))    # x^2 is reducible


def test_mul_agrees_with_polynomial_route():
    f = get_field(2, 4)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x, y = (int(v) for v in rng.integers(0, f.q, 2))
        assert f.mul(x, y) == f._raw_mul(x, y)
