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
  index.  Indices are tried in order from 1 on a prime field (1
  generates only F_2*) and from p on an extension field, whose indices
  below p are the prime subfield: their orders divide p - 1 < q - 1.

Construction computes in Z_p[x]/(f) only by products and powers of int64
matrices, through the companion matrix of the modulus f; m (p - 1)^2 >=
2^63 is refused.

Everything here is exhaustive-by-design, so field sizes are capped: every
``build_field`` call refuses q above ``SIZE_CAP`` = 2**16.

The value tables a field holds are stored in the narrowest integer type
that is exact for them.  ``exp`` holds element indices below q and
``dlog_table`` logs below q - 1 (and -1 at 0), so with q <= ``SIZE_CAP``
both are int32; the trace table holds residues below p, in the smallest
signed type that holds p - 1 (int8 for p < 128, int16 for p < 2^15, int32
above).  A product of two such values can pass 2^31 (a log times p does at
p = 65521), so every such product is formed in int64: the one vector
product of a log, by p^k, is ``FieldTable.frobenius``.  A sum of two logs
stays below 2^17.  The index vectors numpy gathers with (``_arange``,
``_neg``, the coset arrays) stay int64: numpy converts a narrower index
array to intp, a new array, on every gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import registry
from .errors import IdentityViolation

SIZE_CAP = 1 << 16


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
# Arithmetic in Z_p[x]/(f) for field construction, on matrices.  With C the
# companion matrix of a monic f of degree m, g -> g(C) is an injective ring
# map of Z_p[x]/(f) into the m x m matrices over Z_p (Lidl and Niederreiter,
# Finite Fields, ch. 2): g(C) = 0 exactly when f | g, and g(C) is invertible
# exactly when gcd(g, f) = 1.  g(C) is also the matrix of y -> g y in the
# basis 1, x, ..., x^(m-1), column i holding the coordinates of g x^i.
# Every question construction asks (Rabin's test, the order of a candidate
# alpha) is answered by matrix products and powers alone, ``_matpow``.
# Products run in int64, where an entry sums m terms below p^2, so every
# entry point refuses m (p - 1)^2 >= 2^63 before forming one.

def _check_pm(p: int, m: int = 1) -> None:
    """Refuse a p that is not prime, then an m below 1.  ``is_irreducible``,
    which reads m off f and words its own degree refusal, checks p alone."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if m < 1:
        raise ValueError("m must be positive")


def _check_int64(p: int, m: int) -> None:
    if m * (p - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"m (p - 1)^2 >= 2^63 for p = {p}, m = {m}: int64 would wrap")


def _companion(f, p: int) -> np.ndarray:
    """C = x(C): ones below the diagonal, -f_0 .. -f_{m-1} in the last column."""
    c = np.eye(len(f) - 1, k=-1, dtype=np.int64)
    c[:, -1] = [-a % p for a in f[:-1]]
    return c


def _matpow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a**e mod p for e >= 1, by square and multiply from the top bit down."""
    out = a
    for bit in bin(e)[3:]:
        out = out @ out % p
        if bit == "1":
            out = out @ a % p
    return out


def is_irreducible(f: list[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over Z_p (Rabin's test).

    With C the companion matrix of f, certified by C**(p**m) == C, that is
    x**(p**m) == x (mod f), together with A**(p**m - 1) == I for
    A = C**(p**(m/l)) - C, that is gcd(x**(p**(m/l)) - x, f) == 1, for every
    prime l dividing m.

    The power decides the gcd exactly once C**(p**m) == C: then f divides
    x**(p**m) - x, which is squarefree, so Z_p[x]/(f) is a product of fields
    F_{p^d} with d | m (Lidl and Niederreiter, ch. 2 and 3).  In each factor
    a nonzero y has y**(p**m - 1) = 1 and a zero component stays 0, so h(C)
    is invertible, that is gcd(h, f) = 1, exactly when h(C)**(p**m - 1) = I.
    Raises ValueError where p is not prime or m (p - 1)^2 >= 2^63.
    """
    _check_pm(p)
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        raise ValueError("monic polynomial of positive degree expected")
    _check_int64(p, m)
    c = _companion(f, p)
    frobenius = [c]                     # C**(p**k) for k = 0 .. m
    for _ in range(m):
        frobenius.append(_matpow(frobenius[-1], p, p))
    one = np.eye(m, dtype=np.int64)
    return (np.array_equal(frobenius[m], c)
            and all(np.array_equal(_matpow((frobenius[m // ell] - c) % p,
                                           p ** m - 1, p), one)
                    for ell in prime_factors(m)))


@registry.op
def find_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over Z_p.

    Candidate tuples are compared leading-coefficient side first, constant
    term last.  For m == 1 the convention is the identity modulus x.  For
    m >= 2 a root means a linear factor, so candidates with f(0) = 0 or
    f(1) = 0 are skipped before the irreducibility test.
    """
    _check_pm(p, m)
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
    leading coefficient 1, irreducible over Z_p; m (p - 1)^2 < 2^63.
    """

    p: int
    m: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        _check_pm(self.p, self.m)
        _check_int64(self.p, self.m)
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
        return field_label(self.p, self.m)


def field_label(p: int, m: int) -> str:
    """The name of F_{p^m} in reports and messages: "p", or "p^m" for m > 1."""
    return str(p) if m == 1 else f"{p}^{m}"


def parse_field_spec(text: str) -> tuple[int, int, tuple[int, ...] | None]:
    """Parse 'p', 'p^m' or 'p^m:c0,c1,...,cm' into (p, m, modulus-or-None);
    any other form raises ValueError quoting the spec."""
    base, colon, coeffs = text.strip().partition(":")
    ps, caret, ms = base.partition("^")
    try:
        return (int(ps), int(ms) if caret else 1,
                tuple(int(c) for c in coeffs.split(",")) if colon else None)
    except ValueError:
        raise ValueError(f"field spec {text!r} is not p, p^m or"
                         " p^m:c0,c1,...,cm") from None


def _mul_matrix(spec: FieldSpec, g: int) -> np.ndarray:
    """M_g = g(C), the matrix of y -> g y: column i holds the coordinates
    of g eta^i, which is C times column i - 1."""
    p, m = spec.p, spec.m
    out = np.empty((m, m), dtype=np.int64)
    out[:, 0] = [g // p ** i % p for i in range(m)]
    c = _companion(spec.modulus, p)
    for i in range(1, m):
        out[:, i] = c @ out[:, i - 1] % p
    return out


def _find_alpha(spec: FieldSpec) -> int:
    """The generator of F_q* of least index, found on matrices alone."""
    p, m, q = spec.p, spec.m, spec.q
    place = p ** np.arange(m, dtype=np.int64)
    cofactors = [(q - 1) // ell for ell in prime_factors(q - 1)]
    # on a prime field the index is the residue, so Python's pow applies;
    # otherwise column 0 of M_g**e = M_(g**e) holds the coordinates of g**e
    power = ((lambda g, e: pow(g, e, p)) if m == 1 else
             lambda g, e: _matpow(_mul_matrix(spec, g), e, p)[:, 0] @ place)
    # indices below p are the prime subfield, too small to generate
    # F_q* when m > 1; on a prime field 1 generates only F_2*
    for g in range(1 if m == 1 else p, q):
        if all(power(g, e) != 1 for e in cofactors):
            return g
    raise RuntimeError("no primitive element found")


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
        # shared read-only: neg_vec returns it as is for p = 2
        self._arange.flags.writeable = False
        # -x negates each digit; for p = 2, -x = x and there is no table
        self._neg = None if self.p == 2 else self._by_place(
            lambda place: -(self._arange // place) % self.p)
        self._trace = None
        self.alpha = _find_alpha(spec)
        self.exp = self._build_exp()
        self.dlog_table = np.full(self.q, -1, dtype=np.int32)
        self.dlog_table[self.exp] = np.arange(self.q - 1, dtype=np.int32)

    def _build_exp(self) -> np.ndarray:
        q, p, m = self.q, self.p, self.m
        # multiplication by alpha has matrix A = M_alpha; by doubling, the
        # images of alpha**0 .. alpha**(k-1) under A**k are alpha**k ..
        # alpha**(2k-1), so O(log q) products suffice.  For p = 2 an index is
        # its coordinate vector, so the powers stay indices and the image
        # under B is the XOR of B's columns, read as indices, over the set
        # bits; for odd p the powers are coordinate rows, times B^T mod p
        # a product entry sums m terms below p^2, an index is below q: int32
        # halves the rows wherever both fit
        dtype = np.int32 if max(m * (p - 1) ** 2, q) < 2 ** 31 else np.int64
        # alpha**0 .. alpha**(q-1), zero until written; the last must be 1
        powers = (np.zeros(q, dtype=np.int64) if p == 2
                  else np.zeros((q, m), dtype=dtype))
        powers.flat[0] = 1                  # index 1, coordinates (1, 0, ..)
        power, k = _mul_matrix(self.spec, self.alpha).astype(dtype), 1
        while k < q:
            step = min(k, q - k)
            xs, out = powers[:step], powers[k:k + step]
            if p == 2:
                for i, col in enumerate((power.T @ self._pplace).tolist()):
                    out ^= -(xs >> i & 1) & col
            else:
                np.matmul(xs, power.T, out=out)
                out %= p
            power = power @ power % p
            k += step
        if p > 2:
            powers = powers @ self._pplace.astype(dtype)
        if powers[0] != 1 or powers[-1] != 1:
            raise RuntimeError("alpha does not have order q-1")
        return powers[:-1].astype(np.int32)

    # -- scalar element operations --

    def require_element(self, x: int) -> int:
        """x, if it is an element index in [0, q); a ValueError otherwise."""
        if not 0 <= x < self.q:
            raise ValueError(f"element {x} is outside F_{self.spec.label()} = [0, {self.q})")
        return x

    def add(self, x: int, y: int) -> int:
        return int(self._add(self.require_element(x), self.require_element(y)))

    def neg(self, x: int) -> int:
        x = self.require_element(x)
        return int(x) if self.p == 2 else int(self._neg[x])

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if 0 in (self.require_element(x), self.require_element(y)):
            return 0
        return int(self.exp[(self.dlog_table[x] + self.dlog_table[y])
                            % (self.q - 1)])

    def inv(self, x: int) -> int:
        if self.require_element(x) == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.exp[(-self.dlog_table[x]) % (self.q - 1)])

    def pow_(self, x: int, e: int) -> int:
        if self.require_element(x) == 0:
            if e <= 0:
                raise ZeroDivisionError("0 cannot be raised to a non-positive power")
            return 0
        return int(self.exp[(int(self.dlog_table[x]) * e) % (self.q - 1)])

    @registry.op
    def dlog(self, x: int) -> int:
        """Exponent h with alpha**h == x; x == 0 is a domain error."""
        if x == 0:
            raise ValueError("discrete log of zero is undefined")
        return int(self.dlog_table[self.require_element(x)])

    def trace(self, x: int) -> int:
        """Absolute trace to Z_p, returned as an integer in [0, p)."""
        return int(self.trace_vec()[self.require_element(x)])

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
        return np.asarray(ys, dtype=np.int64) if self.p == 2 else self._neg[ys]

    def mul_vec(self, x: int, ys: np.ndarray) -> np.ndarray:
        out = np.zeros(len(ys), dtype=np.int64)
        if x == 0:
            return out
        mask = ys != 0
        # summed in int64: numpy's int32 add is loop code that nothing else
        # runs, 64 KB of RSS once touched
        logs = np.add(self.dlog_table[ys[mask]], self.dlog_table[x], dtype=np.int64)
        out[mask] = self.exp[logs % (self.q - 1)]
        return out

    def frobenius(self, xs, k: int = 1) -> np.ndarray:
        """x^(p^k) for every x of xs, 0 at 0: the one product of a log with
        p^k, formed in int64, as it passes 2^31 at p = 65521."""
        xs = np.asarray(xs)
        logs = np.multiply(self.dlog_table[xs], self.p ** k, dtype=np.int64)
        return np.where(xs != 0, self.exp[logs % (self.q - 1)], np.int64(0))

    def add_row(self, x: int) -> np.ndarray:
        """The permutation y -> x + y as an index vector."""
        return self._add(x, self._arange)

    def trace_vec(self) -> np.ndarray:
        """Absolute traces of all elements as integers in [0, p), in the
        smallest signed type that holds p - 1.

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
            self._trace = tr.astype(next(t for t in (np.int8, np.int16, np.int32)
                                         if self.p - 1 <= np.iinfo(t).max))
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


def field_order(p: int, m: int) -> int:
    """q = p**m, if ``build_field`` can build F_{p^m}; a ValueError otherwise.

    ``SIZE_CAP`` is checked first, without forming a power far above it, so
    an oversized p or m never reaches the primality test."""
    if p >= 2 and m >= 1 and (p > SIZE_CAP or m >= SIZE_CAP.bit_length()
                              or p ** m > SIZE_CAP):
        raise ValueError(f"q = {field_label(p, m)} exceeds the size cap {SIZE_CAP}")
    _check_pm(p, m)
    return p ** m


@registry.op
def build_field(p: int, m: int = 1, modulus=None) -> FieldTable:
    """Construct F_{p^m} with the canonical (or a supplied) modulus, after
    ``field_order`` has accepted p and m."""
    field_order(p, m)
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
# Certificate: the low m bits of every entry are zero before the shift.
#
# Odd p: irfftn(rfftn * rfftn).  Round-off: a radix-2 FFT of length N has
# relative 2-norm error at most log2(N) * eta, eta ~ (1 + 4 sqrt(2)) u
# (Higham 2002, Accuracy and Stability of Numerical Algorithms, Sec. 24.1,
# Thm 24.2).  Two forward transforms, one inverse and Cauchy-Schwarz on its
# sums give max |error| <= 3 log2(N) eta |a|_2 |b|_2 (the form of Percival
# 2003, Math. Comp. 72, Thm 5.1); 20 is rounded up to c = 32.  pocketfft runs
# an axis shorter than 50 as radix passes, generic ones being length-p sums:
# charged p levels.  A longer prime axis runs Bluestein, a convolution of
# length < 4p: 3 log2(4p) levels.  Certificate: max |x - rint(x)| < 1/4.


def _fft_error_bound(field: FieldTable, norm_a: float, norm_b: float) -> float:
    """Bound on max |FFT convolution - exact| for operands of these 2-norms."""
    p = field.p
    levels = field.m * (p if p < 50 else 3 * math.log2(4 * p))
    return 32 * 2.0 ** -53 * levels * norm_a * norm_b


def convolve(field: FieldTable, a, b) -> np.ndarray:
    """Exact additive convolution out[..., g] = sum_d a[..., d] * b[..., g - d].

    Last axes have length q, leading axes broadcast; both operands are cast
    to int64.  Operands within the a-priori bound take the transform path:
    for p = 2 an int64 Walsh-Hadamard transform, q |a|_2 |b|_2 < 2^62,
    certified by q dividing every entry before the final shift; for odd p
    the FFT, within the round-off bound, certified by max |x - rint(x)| <
    1/4.  Either result must also satisfy sum(a * b) = sum(a) * sum(b); a
    failed certificate raises IdentityViolation.  Operands above the bound
    raise ValueError: nothing is ever computed that could wrap."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    norm_a, norm_b = (np.linalg.norm(v, axis=-1).max() for v in (a, b))
    if field.p == 2 and field.q * norm_a * norm_b < 2.0 ** 62:
        out = _wht_convolve(field, a, b)
    elif field.p > 2 and _fft_error_bound(field, norm_a, norm_b) < 1 / 8:
        out = _fft_convolve(field, a, b)
    else:
        raise ValueError(
            f"convolution over F_{field.spec.label()} exceeds the exact int64 bound"
            f" (operand 2-norms {norm_a:.3g} and {norm_b:.3g})")
    if np.any(out.sum(-1) != a.sum(-1) * b.sum(-1)):
        raise IdentityViolation(
            f"convolution over F_{field.spec.label()} failed its certificate"
            " (coefficient sums differ)")
    return out


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
    if drift >= 1 / 4:
        raise IdentityViolation(
            f"FFT convolution over F_{field.spec.label()} failed its certificate"
            f" (max distance to an integer {drift:.3g})")
    return out
