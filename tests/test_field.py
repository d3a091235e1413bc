import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from charsum import field as field_mod
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


def unfiltered_lex_search(p, m):
    """The modulus search without the root pre-filter: every candidate in
    lex order goes to the irreducibility test."""
    for k in range(p ** m):
        f = [(k // p ** i) % p for i in range(m)] + [1]
        if is_irreducible(f, p):
            return tuple(f)


def test_find_irreducible_matches_the_unfiltered_search():
    for p, m, _ in prime_powers(1 << 12):
        assert find_irreducible(p, m) == unfiltered_lex_search(p, m), (p, m)


def test_root_filter_leaves_a_quarter_of_the_tests_at_the_size_cap(monkeypatch):
    tested = []
    monkeypatch.setattr(field_mod, "is_irreducible",
                        lambda f, p: tested.append(f) or is_irreducible(f, p))
    modulus = find_irreducible(2, 16)
    assert modulus == (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,)
    # 44 candidates come before x^16 + x^5 + x^3 + x + 1; 33 of them have a root
    assert len(tested) == 11
    assert all(f[0] and sum(f) % 2 for f in tested)


RECORDED_FIELDS = json.loads(
    (Path(__file__).parent / "data" / "recorded_fields.json").read_text())


def test_modulus_and_alpha_match_the_recording():
    # recorded at commit e1e035b, before p = 2 became bit arithmetic and the
    # modulus search skipped candidates with a root; alpha comes from the
    # search FieldTable runs first, here without building the tables
    def alpha_search(spec):
        stub = FieldTable.__new__(FieldTable)
        stub.spec, stub.p, stub.m, stub.q = spec, spec.p, spec.m, spec.q
        return stub._find_alpha()

    primes = [p for p, m, _ in prime_powers(1 << 16) if m == 1]
    alphas = zip(primes, RECORDED_FIELDS["prime_alpha"], strict=True)
    recorded = ([(p, 1, (0, 1), alpha) for p, alpha in alphas]
                + [(p, m, tuple(f), alpha)
                   for p, m, f, alpha in RECORDED_FIELDS["extension"]])
    assert len(recorded) == len(prime_powers(1 << 16))
    for p, m, modulus, alpha in recorded:
        spec = FieldSpec(p, m, find_irreducible(p, m))
        assert (spec.modulus, alpha_search(spec)) == (modulus, alpha), (p, m)


def test_parse_field_spec():
    assert parse_field_spec("13") == (13, 1, None)
    assert parse_field_spec("2^4") == (2, 4, None)
    assert parse_field_spec("2^2:1,1,1") == (2, 2, (1, 1, 1))


def test_fieldspec_rejects_bad_inputs(monkeypatch):
    with pytest.raises(ValueError):
        FieldSpec(4, 1, (0, 1))                 # not prime
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (0, 0, 1))              # x^2 reducible
    with pytest.raises(ValueError):
        FieldSpec(3, 2, (1, 0, 2))              # not monic
    monkeypatch.setenv("CHARSUM_SIZE_CAP", "100")
    with pytest.raises(ValueError):
        build_field(2, 8)                       # over cap


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


# ---------------------------------------------------------------------------
# The digit path, from before p = 2 became bit operations and every p read its
# coordinates off the index, kept as the oracle: a sum gathers coordinate rows
# of a (q, m) table and adds them mod p, the negation is digit-wise, and the
# exp table doubles coordinate rows by integer matrix products, the columns of
# A being alpha * eta^i by polynomial product.

@functools.lru_cache(maxsize=None)
def digit_table(p, m):
    return np.arange(p ** m)[:, None] // p ** np.arange(m) % p


def digit_add(f, xs, ys):
    d = digit_table(f.p, f.m)
    return (d[xs] + d[ys]) % f.p @ f.p ** np.arange(f.m)


def digit_neg(f):
    return -digit_table(f.p, f.m) % f.p @ f.p ** np.arange(f.m)


def matmul_exp(f):
    d, place = digit_table(f.p, f.m), f.p ** np.arange(f.m)
    mat = np.stack([d[f._raw_mul(f.alpha, f.p ** i)] for i in range(f.m)], axis=1)
    rows = np.zeros((f.q - 1, f.m), dtype=np.int64)
    rows[0, 0] = 1
    power, k = mat, 1
    while k < len(rows):
        step = min(k, len(rows) - k)
        rows[k:k + step] = rows[:step] @ power.T % f.p
        power = power @ power % f.p
        k += step
    return rows @ place


@pytest.mark.parametrize("m", range(1, 11))
def test_characteristic_two_matches_the_digit_oracle(m):
    f = get_field(2, m)
    xs = np.arange(f.q)
    rows = np.unique(np.r_[0, 1, f.q - 1, np.random.default_rng(m).integers(0, f.q, 64)])
    assert np.array_equal(f.add_outer(rows, xs), digit_add(f, rows[:, None], xs))
    for x, y in zip(rows.tolist(), rows[::-1].tolist()):
        assert np.array_equal(f.add_row(x), digit_add(f, x, xs))
        assert np.array_equal(f.add_vec(x, xs[::-1]), digit_add(f, x, xs[::-1]))
        assert f.add(x, y) == digit_add(f, x, y)
    assert np.array_equal(f.neg_vec(xs), digit_neg(f))
    assert np.array_equal(f.exp, matmul_exp(f))
    assert np.array_equal(f.trace_vec(), frobenius_trace(f))


def test_characteristic_two_index_operations_read_no_digits(monkeypatch):
    def unreadable(self, digit):
        raise AssertionError("digits read place by place")

    f = build_field(2, 8)
    monkeypatch.setattr(FieldTable, "_by_place", unreadable)
    xs = np.arange(f.q)
    assert f.add(5, 9) == 12 and f.sub(5, 9) == 12 and f.neg(7) == 7
    assert np.array_equal(f.add_vec(3, xs), xs ^ 3)
    assert np.array_equal(f.add_row(3), xs ^ 3)
    assert np.array_equal(f.add_outer(xs[:4], xs), xs[:4, None] ^ xs)
    assert np.array_equal(f.neg_vec(xs), xs)
    assert np.bincount(f.trace_vec()).tolist() == [f.q // 2] * 2


@pytest.mark.parametrize("p,m", [(13, 1), (65521, 1), (7, 2), (251, 2), (5, 6), (3, 10)])
def test_index_arithmetic_matches_the_digit_oracle(p, m):
    f = get_field(p, m)
    xs = np.arange(f.q)
    rows = np.unique(np.r_[0, 1, f.q - 1, np.random.default_rng(f.q).integers(0, f.q, 5)])
    assert np.array_equal(f.add_outer(rows[:4], xs), digit_add(f, rows[:4, None], xs))
    for x, y in zip(rows.tolist(), rows[::-1].tolist()):
        assert np.array_equal(f.add_vec(x, xs[::-1]), digit_add(f, x, xs[::-1]))
        assert f.add(x, y) == digit_add(f, x, y)
        assert f.coeffs(x) == tuple(digit_table(p, m)[x].tolist())
        assert f.index(f.coeffs(x)) == x
    assert np.array_equal(f.neg_vec(xs), digit_neg(f))


@pytest.mark.parametrize("p,m", [(2, 16), (3, 10), (251, 2)])
def test_no_table_outgrows_the_field(p, m):
    f = get_field(p, m)
    f.trace_vec()
    sizes = {name: getattr(f, name).size for name in FieldTable.__slots__
             if isinstance(getattr(f, name), np.ndarray)}
    assert {"exp", "dlog_table", "_trace"} <= set(sizes)
    assert max(sizes.values()) <= f.q, sizes


def test_chunked_digit_addition_matches_the_oracle():
    f = get_field(3, 9)
    xs = np.arange(f.q)
    rows = np.random.default_rng(9).integers(0, f.q, 100)
    expected = np.concatenate([digit_add(f, rows[lo:lo + 16, None], xs)
                               for lo in range(0, len(rows), 16)])
    assert np.array_equal(f.add_outer(rows, xs), expected)
    assert np.array_equal(f.neg_vec(xs), digit_neg(f))
