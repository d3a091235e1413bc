"""Finite field construction and arithmetic for F_{p^m} at desk scale.

Elements are identified with their integer index: the element with
coordinates (g0, g1, ..., g_{m-1}) in the polynomial basis
{1, eta, ..., eta^{m-1}} has index g0 + g1*p + ... + g_{m-1}*p^{m-1}.
Index 0 is the zero element, index 1 the multiplicative identity.  All
derived tables (discrete logs, coset labels, group-ring coefficient
vectors) are dense arrays addressed by this index.

Two canonical choices make every output reproducible across runs:

* the default modulus is the lexicographically smallest monic
  irreducible polynomial of degree m, comparing coefficient tuples from
  the leading coefficient down to the constant term (a user-supplied
  modulus is accepted and verified for cross-checks against other
  systems);
* the primitive element ``alpha`` is the generator with the smallest
  index.  Indices are tried in order from 2 on a prime field and from p
  on an extension field, whose indices below p are the prime subfield:
  their orders divide p - 1 < q - 1.

Everything here is exhaustive-by-design, so field sizes are capped: every
``build_field`` call checks 2**16, or the CHARSUM_SIZE_CAP environment
variable if set.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import registry
from .errors import IdentityViolation

DEFAULT_SIZE_CAP = 1 << 16
INT64_MAX = 2 ** 63 - 1


def env_size_cap() -> int:
    """The cap every field is built under: CHARSUM_SIZE_CAP if set."""
    return int(os.environ.get("CHARSUM_SIZE_CAP", DEFAULT_SIZE_CAP))


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test; fields here are desk-scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def prime_powers(limit: int, minimum: int = 2) -> list[tuple[int, int, int]]:
    """All (p, m, q = p**m) with minimum <= q <= limit, sorted by q."""
    out = []
    for p in range(2, limit + 1):
        if not is_prime(p):
            continue
        q, m = p, 1
        while q <= limit:
            if q >= minimum:
                out.append((p, m, q))
            q *= p
            m += 1
    out.sort(key=lambda t: t[2])
    return out


# ---------------------------------------------------------------------------
# Polynomial arithmetic over Z_p.  Coefficient lists, constant term first,
# trailing zeros trimmed.  Only used during field construction.

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    # f monic
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - df
            for i, fi in enumerate(f):
                a[shift + i] = (a[shift + i] - c * fi) % p
        a.pop()
    return _ptrim(a)


def _pmulmod(a, b, f, p):
    return _pmod(_pmul(a, b, p), f, p)


def _xpowmod(e: int, f: list[int], p: int) -> list[int]:
    """x**e mod f by square and multiply."""
    result = [1]
    base = _pmod([0, 1], f, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, p)
        bm = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, bm, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def is_irreducible(f: list[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over Z_p.

    Certified by x**(p**m) == x (mod f) together with
    gcd(x**(p**(m/l)) - x, f) == 1 for every prime l dividing m.
    """
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        raise ValueError("monic polynomial of positive degree expected")
    if m == 1:
        return True

    def xpow_minus_x(k: int) -> list[int]:
        diff = _xpowmod(p ** k, f, p)
        diff += [0] * (2 - len(diff))
        diff[1] = (diff[1] - 1) % p
        return _ptrim(diff)

    if xpow_minus_x(m):
        return False
    for ell in prime_factors(m):
        if len(_pgcd(f, xpow_minus_x(m // ell), p)) != 1:
            return False
    return True


def find_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over Z_p.

    Candidate tuples are compared leading-coefficient side first, constant
    term last.  For m == 1 the convention is the identity modulus x.  For
    m >= 2 a root means a linear factor, so candidates with f(0) = 0 or
    f(1) = 0 are skipped before the irreducibility test.
    """
    registry.mark("find_irreducible")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return (0, 1)
    for k in range(p ** m):
        low = [(k // p ** i) % p for i in range(m)]
        f = low + [1]
        if low[0] and sum(f) % p and is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError(f"no irreducible of degree {m} over Z_{p}")  # unreachable


@dataclass(frozen=True)
class FieldSpec:
    """Validated description of F_{p^m}: characteristic, degree, modulus.

    The modulus is a length-(m+1) coefficient tuple, constant term first,
    leading coefficient 1, irreducible over Z_p.
    """

    p: int
    m: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.m < 1:
            raise ValueError("m must be positive")
        mod = tuple(int(c) for c in self.modulus)
        object.__setattr__(self, "modulus", mod)
        if len(mod) != self.m + 1 or mod[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {self.m}")
        if any(not 0 <= c < self.p for c in mod):
            raise ValueError("modulus coefficients out of range")
        if self.m > 1 and not is_irreducible(list(mod), self.p):
            raise ValueError(f"modulus {mod} is reducible over Z_{self.p}")

    @property
    def q(self) -> int:
        return self.p ** self.m

    def label(self) -> str:
        return str(self.p) if self.m == 1 else f"{self.p}^{self.m}"


def parse_field_spec(text: str) -> tuple[int, int, tuple[int, ...] | None]:
    """Parse 'p', 'p^m' or 'p^m:c0,c1,...,cm' into (p, m, modulus-or-None)."""
    text = text.strip()
    modulus = None
    if ":" in text:
        base, coeffs = text.split(":", 1)
        modulus = tuple(int(c) for c in coeffs.split(","))
    else:
        base = text
    if "^" in base:
        ps, ms = base.split("^", 1)
        p, m = int(ps), int(ms)
    else:
        p, m = int(base), 1
    return p, m, modulus


class FieldTable:
    """Complete arithmetic model of F_{p^m}, dense tables indexed 0..q-1."""

    # every held array has at most q entries: an element's coordinates are
    # read off its index, digit i of x being x // p^i % p, never stored
    __slots__ = ("spec", "p", "m", "q", "alpha", "exp", "dlog_table",
                 "_pplace", "_neg", "_arange", "_trace")

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p, self.m, self.q = spec.p, spec.m, spec.q
        self._pplace = self.p ** np.arange(self.m, dtype=np.int64)
        self._arange = np.arange(self.q, dtype=np.int64)
        # -x negates each digit; for p = 2, -x = x and there is no table
        self._neg = None if self.p == 2 else self._by_place(
            lambda place: -(self._arange // place) % self.p)
        self._trace = None
        self.alpha = self._find_alpha()
        self.exp = self._build_exp()
        self.dlog_table = np.full(self.q, -1, dtype=np.int64)
        self.dlog_table[self.exp] = np.arange(self.q - 1, dtype=np.int64)

    # -- construction helpers (polynomial arithmetic, no tables yet) --

    def _idx_to_poly(self, x: int) -> list[int]:
        return _ptrim([(x // self.p ** i) % self.p for i in range(self.m)])

    def _poly_to_idx(self, poly: list[int]) -> int:
        return sum(c * self.p ** i for i, c in enumerate(poly))

    def _raw_mul(self, x: int, y: int) -> int:
        f = list(self.spec.modulus)
        return self._poly_to_idx(
            _pmulmod(self._idx_to_poly(x), self._idx_to_poly(y), f, self.p))

    def _raw_pow(self, x: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._raw_mul(r, x)
            x = self._raw_mul(x, x)
            e >>= 1
        return r

    def _find_alpha(self) -> int:
        if self.q == 2:
            return 1
        cofactors = [(self.q - 1) // ell for ell in prime_factors(self.q - 1)]
        # on a prime field the index is the residue, so Python's pow applies
        power = (lambda g, e: pow(g, e, self.p)) if self.m == 1 else self._raw_pow
        # indices below p are the prime subfield, too small to generate
        # F_q* when m > 1
        for g in range(2 if self.m == 1 else self.p, self.q):
            if all(power(g, e) != 1 for e in cofactors):
                return g
        raise RuntimeError("no primitive element found")

    def _build_exp(self) -> np.ndarray:
        q, p, m = self.q, self.p, self.m
        # multiplication by alpha is linear with matrix A; by doubling, the
        # coordinate rows of alpha**0 .. alpha**(k-1) times (A**k)^T are
        # those of alpha**k .. alpha**(2k-1), so O(log q) products suffice
        f = list(self.spec.modulus)
        apoly = self._idx_to_poly(self.alpha)
        # a product entry sums m terms below p^2, an index is below q: int32
        # halves the rows wherever both fit
        dtype = np.int32 if max(m * (p - 1) ** 2, q) < 2 ** 31 else np.int64
        mat = np.zeros((m, m), dtype=dtype)
        for i in range(m):
            col = _pmulmod(apoly, [0] * i + [1], f, p)
            for r, c in enumerate(col):
                mat[r, i] = c
        if p == 2:
            return self._build_exp_bits(mat)
        rows = np.zeros((max(q - 1, 1), m), dtype=dtype)
        rows[0, 0] = 1
        power, k = mat, 1
        while k < len(rows):
            step = min(k, len(rows) - k)
            np.matmul(rows[:step], power.T, out=rows[k:k + step])
            rows[k:k + step] %= p
            power = power @ power % p
            k += step
        e = (rows @ self._pplace.astype(dtype)).astype(np.int64)
        if e[0] != 1 or (mat @ rows[-1]) % p @ self._pplace != 1:
            raise RuntimeError("alpha does not have order q-1")
        return e

    def _build_exp_bits(self, mat: np.ndarray) -> np.ndarray:
        """The doubling of ``_build_exp`` for p = 2 on indices: an index is
        its coordinate vector, so its image under a matrix B is the XOR of
        B's columns, read as indices, over its set bits."""
        def image(b, xs):
            out = np.zeros_like(xs)
            for i, col in enumerate((b.T @ self._pplace).tolist()):
                out ^= -(xs >> i & 1) & col
            return out

        e = np.empty(self.q - 1, dtype=np.int64)
        e[0] = 1
        power, k = mat, 1
        while k < len(e):
            step = min(k, len(e) - k)
            e[k:k + step] = image(power, e[:step])
            power = power @ power % 2
            k += step
        if e[0] != 1 or image(mat, e[-1:])[0] != 1:
            raise RuntimeError("alpha does not have order q-1")
        return e

    # -- scalar element operations --

    def add(self, x: int, y: int) -> int:
        return int(self._add(x, y))

    def neg(self, x: int) -> int:
        return int(x) if self.p == 2 else int(self._neg[x])

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return int(self.exp[(self.dlog_table[x] + self.dlog_table[y])
                            % (self.q - 1)])

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.exp[(-self.dlog_table[x]) % (self.q - 1)])

    def pow_(self, x: int, e: int) -> int:
        if x == 0:
            if e <= 0:
                raise ZeroDivisionError("0 cannot be raised to a non-positive power")
            return 0
        return int(self.exp[(int(self.dlog_table[x]) * e) % (self.q - 1)])

    def dlog(self, x: int) -> int:
        """Exponent h with alpha**h == x; x == 0 is a domain error."""
        registry.mark("dlog")
        if x == 0:
            raise ValueError("discrete log of zero is undefined")
        return int(self.dlog_table[x])

    def trace(self, x: int) -> int:
        """Absolute trace to Z_p, returned as an integer in [0, p)."""
        return int(self.trace_vec()[x])

    def coeffs(self, x: int) -> tuple[int, ...]:
        x = int(x)
        return tuple(x // place % self.p for place in self._pplace.tolist())

    def index(self, coeffs) -> int:
        cs = list(coeffs)
        if len(cs) != self.m or any(not 0 <= c < self.p for c in cs):
            raise ValueError("bad coordinate vector")
        return sum(c * self.p ** i for i, c in enumerate(cs))

    # -- vectorized helpers (hot paths) --

    def _by_place(self, digit) -> np.ndarray:
        """The index sum_i digit(p^i) * p^i, one place at a time, where
        ``digit(place)`` gives the residues mod p of digit i."""
        out = np.int64(0)
        for place in self._pplace.tolist():
            out = out + digit(place) * place
        return out

    def _add(self, xs, ys) -> np.ndarray:
        """Indices of xs + ys, elementwise under numpy broadcasting: the one
        addition behind add, add_vec, add_outer and add_row.  For p = 2 the
        index bits are the coordinates, so the sum is the XOR; for m = 1 it
        is the residue sum; otherwise digit i of the sum is
        (x // p^i + y // p^i) mod p, place by place."""
        if self.p == 2:
            return np.bitwise_xor(xs, ys, dtype=np.int64)
        if self.m == 1:
            return (xs + ys) % self.p
        return self._by_place(lambda place: (xs // place + ys // place) % self.p)

    def add_vec(self, x: int, ys: np.ndarray) -> np.ndarray:
        return self._add(x, ys)

    def add_outer(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Matrix of sums xs[i] + ys[j]."""
        return self._add(np.asarray(xs, dtype=np.int64)[:, None], ys)

    def neg_vec(self, ys: np.ndarray) -> np.ndarray:
        return np.array(ys, dtype=np.int64) if self.p == 2 else self._neg[ys]

    def mul_vec(self, x: int, ys: np.ndarray) -> np.ndarray:
        out = np.zeros(len(ys), dtype=np.int64)
        if x == 0:
            return out
        mask = ys != 0
        out[mask] = self.exp[(self.dlog_table[x] + self.dlog_table[ys[mask]])
                             % (self.q - 1)]
        return out

    def add_row(self, x: int) -> np.ndarray:
        """The permutation y -> x + y as an index vector."""
        return self._add(x, self._arange)

    def trace_vec(self) -> np.ndarray:
        """Absolute traces of all elements as integers in [0, p).

        Tr is F_p-linear, so Tr(eta^i) on the basis, each taken from the
        definition sum_j (eta^i)^(p^j), fixes it: Tr(x) = sum_i (x // p^i) *
        Tr(eta^i) mod p, as x // p^i is digit i mod p.  A nonzero linear
        functional takes every residue exactly q/p times, which certifies the
        table."""
        if self._trace is None:
            tr = np.zeros(self.q, dtype=np.int64)
            for place in self._pplace.tolist():
                acc, cur = 0, place                 # the index of eta^i
                for _ in range(self.m):
                    acc, cur = self.add(acc, cur), self.pow_(cur, self.p)
                if acc >= self.p:
                    raise RuntimeError("trace left the prime subfield")
                if acc:
                    tr += self._arange // place * acc
            tr %= self.p
            if np.any(np.bincount(tr, minlength=self.p) != self.q // self.p):
                raise IdentityViolation(
                    f"trace over F_{self.spec.label()} is not equidistributed")
            self._trace = tr
        return self._trace

    def poly_str(self, x: int) -> str:
        """Readable form of an element in the eta basis."""
        cs = self.coeffs(x)
        terms = []
        for i in range(self.m - 1, -1, -1):
            c = cs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "eta" if i == 1 else f"eta^{i}"
                terms.append(var if c == 1 else f"{c}*{var}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"FieldTable(F_{self.spec.label()}, alpha={self.alpha})"


def build_field(p: int, m: int = 1, modulus=None) -> FieldTable:
    """Construct F_{p^m} with the canonical (or a supplied) modulus.

    The size cap (``env_size_cap``) is checked first, without forming a
    power far above it, so an oversized p or m never reaches the primality
    test or the modulus search; an invalid p or m is left to those."""
    registry.mark("build_field")
    cap = env_size_cap()
    if p >= 2 and m >= 1 and (p > cap or m >= cap.bit_length() or p ** m > cap):
        q = p if m == 1 else f"{p}^{m}"
        raise ValueError(f"q = {q} exceeds the size cap {cap}")
    if modulus is None:
        modulus = find_irreducible(p, m)
    return FieldTable(FieldSpec(p, m, tuple(modulus)))


# ---------------------------------------------------------------------------
# Exact convolution over (Z_p)^m: the index encoding makes v.reshape((p,)*m)
# that group as a tensor.  The path is chosen by p alone.
#
# p = 2: the group is (Z_2)^m, the index bits are the coordinates and the
# convolution is a Walsh-Hadamard one, H(Ha * Hb) = q (a * b) with H the
# +-1 Sylvester matrix, run as m butterfly passes in int64 and an exact
# right shift by m.  Overflow: a forward partial sum is bounded by |a|_1 <=
# sqrt(q) |a|_2; each product |Ha_k Hb_k|, and by Cauchy-Schwarz and
# Parseval (|Ha|_2 = sqrt(q) |a|_2) each inverse partial sum, is at most
# |Ha|_2 |Hb|_2 = q |a|_2 |b|_2.  So q |a|_2 |b|_2 < 2^62 keeps every
# intermediate inside int64 with a factor of two to spare for the float
# norms; a zero operand gives 0 even if the other one's transform wraps.
# Certificate: the low m bits of every entry are zero before the shift, and
# sum(a * b) = sum(a) * sum(b).
#
# Odd p: irfftn(rfftn * rfftn).  Round-off: a radix-2 FFT of length N has
# relative 2-norm error at most log2(N) * eta, eta ~ (1 + 4 sqrt(2)) u
# (Higham 2002, Accuracy and Stability of Numerical Algorithms, Sec. 24.1,
# Thm 24.2).  Two forward transforms, one inverse and Cauchy-Schwarz on its
# sums give max |error| <= 3 log2(N) eta |a|_2 |b|_2 (the form of Percival
# 2003, Math. Comp. 72, Thm 5.1); 20 is rounded up to c = 32.  pocketfft runs
# an axis shorter than 50 as radix passes, generic ones being length-p sums:
# charged p levels.  A longer prime axis runs Bluestein, a convolution of
# length < 4p: 3 log2(4p) levels.


def _fft_error_bound(field: FieldTable, norm_a: float, norm_b: float) -> float:
    """Bound on max |FFT convolution - exact| for operands of these 2-norms."""
    p = field.p
    levels = field.m * (p if p < 50 else 3 * math.log2(4 * p))
    return 32 * 2.0 ** -53 * levels * norm_a * norm_b


def max_abs(v: np.ndarray) -> int:
    """Largest absolute entry as a Python integer (no int64 wrap at -2^63)."""
    return max(int(v.max()), -int(v.min())) if v.size else 0


def convolve(field: FieldTable, a, b) -> np.ndarray:
    """Exact additive convolution out[..., g] = sum_d a[..., d] * b[..., g - d].

    Last axes have length q, leading axes broadcast.  Integer operands within
    the a-priori bound take the transform path: for p = 2 an int64
    Walsh-Hadamard transform, q |a|_2 |b|_2 < 2^62, certified by q dividing
    every entry before the final shift; for odd p the FFT, within the
    round-off bound, certified by max |x - rint(x)| < 1/4.  Both also check
    sum(a * b) = sum(a) * sum(b) and raise IdentityViolation on a failed
    certificate.  Object operands, or any above the bound, run one dense row
    loop in Python integers, kept as int64 unless it could wrap."""
    a, b = np.asarray(a), np.asarray(b)
    wide = object in (a.dtype, b.dtype)
    if not wide:
        a, b = a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
        norm_a, norm_b = (np.linalg.norm(v, axis=-1).max() for v in (a, b))
        if field.p == 2:
            if field.q * norm_a * norm_b < 2.0 ** 62:
                return _wht_convolve(field, a, b)
        elif _fft_error_bound(field, norm_a, norm_b) < 1 / 8:
            return _fft_convolve(field, a, b)
    shape = np.broadcast_shapes(a.shape, b.shape)
    wide = wide or field.q * max_abs(a) * max_abs(b) > INT64_MAX
    a = np.broadcast_to(a, shape).astype(object)
    b = np.broadcast_to(b, shape).astype(object)
    out = np.zeros(shape, dtype=object)
    for x in np.flatnonzero(a.reshape(-1, field.q).any(axis=0)):
        # y -> x + y is a bijection, so the fancy index is collision-free
        out[..., field.add_row(int(x))] += a[..., x, None] * b
    return out if wide else out.astype(np.int64)


def _wht(v: np.ndarray, m: int) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform over the last axis (length 2^m).

    Each pass butterflies the lowest index bit and rotates it to the top
    (constant geometry: every read and write runs along the whole axis), so
    after m passes the bits are back in order.  v, an int64 array the caller
    owns, is overwritten as the second buffer."""
    half = v.shape[-1] // 2
    out = np.empty_like(v)
    for _ in range(m):
        lo, hi = v[..., 0::2], v[..., 1::2]
        np.add(lo, hi, out=out[..., :half])
        np.subtract(lo, hi, out=out[..., half:])
        v, out = out, v
    return v


def _wht_convolve(field: FieldTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Certified p = 2 path; q |a|_2 |b|_2 < 2^62 keeps every sum in int64."""
    m = field.m
    out = _wht(_wht(a.copy(), m) * _wht(b.copy(), m), m)
    if np.any(out & (field.q - 1)):
        raise IdentityViolation(
            f"Walsh-Hadamard convolution over F_{field.spec.label()} failed its"
            " certificate (low bits: an entry is not a multiple of q)")
    out >>= m
    if np.any(out.sum(-1) != a.sum(-1) * b.sum(-1)):
        raise IdentityViolation(
            f"Walsh-Hadamard convolution over F_{field.spec.label()} failed its"
            " certificate (coefficient sums differ)")
    return out


def _fft_convolve(field: FieldTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Certified transform path; |a|_2 |b|_2 < 2^44 keeps its int64 sums exact."""
    grid, axes = (field.p,) * field.m, tuple(range(-field.m, 0))
    fa = np.fft.rfftn(a.reshape(a.shape[:-1] + grid), axes=axes)
    fb = np.fft.rfftn(b.reshape(b.shape[:-1] + grid), axes=axes)
    x = np.fft.irfftn(fa * fb, s=grid, axes=axes).reshape(
        np.broadcast_shapes(a.shape, b.shape))
    out = np.rint(x)
    drift = float(np.abs(x - out).max())
    out = out.astype(np.int64)
    if drift >= 1 / 4 or np.any(out.sum(-1) != a.sum(-1) * b.sum(-1)):
        raise IdentityViolation(
            f"FFT convolution over F_{field.spec.label()} failed its certificate"
            f" (max distance to an integer {drift:.3g}, or coefficient sums differ)")
    return out
