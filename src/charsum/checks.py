"""Per-field identity checks: every CLI verb but ``verify``, and the sweeps.

A family takes a built field and its coset partition and returns
``(results, checks, notes)``: the values it computed, as the JSON its verb
reports, a list of ``Check`` records, and remarks on what it could not
check.  A verb renders the results and the checks; a sweep worker adds up
``count`` into its assertion total, turns each failed check into a failure
line naming the field and keeps the notes.  A family whose verb takes more
arguments (``rep_query``, ``shift``) takes them after the partition, and
raises ``ValueError`` on a value it cannot check.

Besides its exhaustive checks, ``rep_table``, ``sigma_chain`` and ``jacobi``
each make two spot checks against the enumeration oracle, at points that
``spot_draws`` takes from ``random.Random(seed).random()`` with a seed of q,
q + 1 and q + 2: the same points, and so the same check names, on every
Python and numpy version.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import registry
from .characters import (char_sum_moment, label_pairs, memo, pair_table,
                         winterhof_counts, winterhof_sweep)
from .cyclotomic import (a_beta, a_beta_sweep, chi_bar_times, exact_gauss_sum,
                         gauss_sum, jacobi_char2_closed_form, jacobi_cubic,
                         jacobi_from_gauss)
from .eisenstein import EisensteinInt
from .field import convolve, prime_factors
from .groupring import GroupRingElement, closed_sigmas, gr_mul
from .repcount import (brute_rep_count, closed_rep_class_table, closed_rep_count,
                       cubic_K, perron_table, rep_count_table)
from .shiftcount import (closed_form_max3, extension_counts, max_shift_count,
                         reduced_counts, shift_count)

GAUSS_ABS_REL_TOL = 1e-9    # | |G|^2 - q | <= tol * q
JACOBI_NUM_TOL = 1e-6       # | G^2/conj(G) - J | absolute


@dataclass(frozen=True)
class Check:
    name: str
    expected: object
    actual: object
    passed: bool
    count: int = 1          # exact assertions this record stands for

    def to_json(self) -> dict:
        def plain(v):
            return v.to_json() if isinstance(v, EisensteinInt) else v
        return {"name": self.name, "expected": plain(self.expected),
                "actual": plain(self.actual), "pass": self.passed}


def equal(name: str, expected, actual, count: int = 1) -> Check:
    return Check(name, expected, actual, bool(expected == actual), count)


def holds(name: str, ok, detail: str = "", count: int = 1) -> Check:
    """A yes/no check; ``detail`` replaces the plain pass/fail as its actual."""
    return Check(name, "pass", detail or ("pass" if ok else "fail"), bool(ok), count)


def violation(exc: Exception) -> Check:
    """An exception that cut a field's checks short, as one failed check."""
    return Check(type(exc).__name__, "no error", str(exc), False)


def _mismatches(bad: np.ndarray, where) -> str:
    """Empty when ``bad`` is empty, else how many and where the first one is."""
    return f"{len(bad)} mismatches, first at {where(bad[0])}" if len(bad) else ""


def spot_draws(seed: int, *ranges: range) -> list[tuple[int, ...]]:
    """Two spot points, each one value ``r[int(u * len(r))]`` from every
    range r, where u runs through ``random.Random(seed).random()``: the one
    method whose sequence Python keeps the same across versions."""
    u = random.Random(seed).random
    return [tuple(r[int(u() * len(r))] for r in ranges) for _ in range(2)]


def complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _sigma_json(coeffs: np.ndarray) -> dict:
    """Compact form: every sigma here is uniform away from the origin."""
    body = {"coeff_at_zero": int(coeffs[0])}
    rest = coeffs[1:]
    if len(rest) and np.all(rest == rest[0]):
        body["coeff_elsewhere"] = int(rest[0])
    if len(coeffs) <= 64:                               # sparse {index: coeff}
        body["coeffs"] = {str(int(i)): int(coeffs[i]) for i in np.flatnonzero(coeffs)}
    return body


# ---------------------------------------------------------------------------
# the field and its cosets

def field_tables(field, part):
    """alpha generates F_q*, dlog is a bijection, x -> x^p is additive on
    every pair; ``part`` is unused (the verb builds none).  Additivity is
    checked as F(x + eta^i) = F(x) + F(eta^i) for every x and basis element
    eta^i: with F(0) = 0, induction over the digits of y gives F(x + y) =
    F(x) + F(y) for all x, y."""
    order_ok = (field.pow_(field.alpha, field.q - 1) == 1
                and all(field.pow_(field.alpha, (field.q - 1) // ell) != 1
                        for ell in prime_factors(field.q - 1)))
    dlog = field.dlog_table
    found = [holds("alpha_order_q_minus_1", order_ok),
             equal("dlog_bijection", field.q - 1,          # distinct logs
                   int(np.count_nonzero(np.bincount(dlog[dlog >= 0]))))]
    frob = field.frobenius(field._arange)                   # F(x) = x^p
    found.append(holds("frobenius_additive", all(
        np.array_equal(frob[field.add_row(field.p ** i)],
                       field.add_vec(int(frob[field.p ** i]), frob))
        for i in range(field.m))))
    return {"element_count": field.q}, found, []


def cosets(field, part):
    """Every coset has (q-1)/n elements and coset_j = alpha^j coset_0
    (alpha^-j for the conjugate character)."""
    n = part.n
    found = [equal(f"coset_{j}_size", (field.q - 1) // n, int(len(part.cosets[j])))
             for j in range(n)]
    for j in range(1, n):
        scale = field.pow_(field.alpha, -j if part.conjugate else j)
        mapped = np.sort(field.mul_vec(scale, part.cosets[0]))
        found.append(holds(f"coset_{j}_is_alpha^{j}_coset_0",
                           np.array_equal(mapped, part.cosets[j])))
    results = {"n": n, "conjugate": part.conjugate,
               "cosets": [[int(x) for x in c] for c in part.cosets]
               if field.q <= 512 else {"sizes": [int(len(c)) for c in part.cosets]}}
    return results, found, []


# ---------------------------------------------------------------------------
# representation counts

def rep_table(field, part):
    """Closed form == pair histogram for every beta != 0 and every (i, j)."""
    n, q = part.n, field.q
    brute = rep_count_table(field, part)
    table = memo(part, closed_rep_class_table)
    results = {"classes": [
        {"beta_label": c, "i": i, "j": j, "count": int(table[c, i, j])}
        for c in range(n) for i in range(n) for j in range(n)]}
    bad = np.argwhere(table[part.labels[1:]] != brute[:, :, 1:].transpose(2, 0, 1))
    found = [holds("closed_equals_brute_all_beta", not len(bad),
                   _mismatches(bad, lambda b: f"beta={b[0] + 1} i={b[1]} j={b[2]}"),
                   count=n * n * (q - 1))]
    # the table is the vectorized twin of the loop oracle; tie them together
    for beta, i, j in spot_draws(q, range(1, q), range(n), range(n)):
        found.append(equal(f"loop_oracle_at_beta_{beta}_i{i}_j{j}",
                           brute_rep_count(field, part, beta, i, j),
                           int(brute[i, j, beta])))
    found.append(holds("table_symmetric_in_i_j",
                       np.array_equal(brute, brute.transpose(1, 0, 2))))
    found.append(holds("counts_sum_to_q_minus_2",
                       np.all(brute[:, :, 1:].sum(axis=(0, 1)) == q - 2)))
    return results, found, []


def zero_sum(field, part):
    """Zero-sum counts: closed (q-1)/n rule == enumeration, all (i, j)."""
    n, q, p = part.n, field.q, field.p
    h = label_pairs(field, part, 0)
    found = [equal(f"zero_sum_count_i{i}_j{j}", int(h[j, i]),
                   closed_rep_count(field, part, 0, i, j))
             for i in range(n) for j in range(n)]
    note = (f"nonzero cells are (q-1)/{n} = {(q - 1) // n}, "
            f"not the prime-field-literal (p-1)/{n} = {(p - 1) // n}")
    return {}, found, [note] if field.m > 1 else []


def perron(field, part):
    """Prime-field counts against the floor((p+1)/4) pattern, plus brute force;
    nothing to check unless the field is prime and n = 2."""
    if field.m > 1 or part.n != 2:
        return {}, [], []
    table = perron_table(field, part)
    floor = (field.p + 1) // 4
    qr, nr = int(part.cosets[0][0]), int(part.cosets[1][0])
    cases = (("qr_as_two_qr", floor - 1, qr, 0),
             ("qr_as_two_nonres", floor, qr, 1),
             ("nonres_as_two_nonres", floor - 1, nr, 1),
             ("nonres_as_two_qr", floor, nr, 0))
    return table, ([equal(key, want, table[key]) for key, want, _, _ in cases]
                   + [equal(f"{key}_matches_brute",
                            brute_rep_count(field, part, beta, ij, ij), table[key])
                      for key, _, beta, ij in cases]), []


def rep_query(field, part, beta, i, j):
    """One count R(beta, i, j) by its closed form, the (q-1)/n rule at
    beta = 0, against enumeration."""
    n = part.n
    closed = closed_rep_count(field, part, beta, i, j)
    brute = brute_rep_count(field, part, beta, i, j)
    query = {"n": n, "beta": beta, "i": i, "j": j, "count": closed,
             "method": "closed-form"}
    if n == 3 and beta:
        k = cubic_K(part, beta, i, j, memo(part, jacobi_cubic))
        query["K"] = k.to_json()
        query["K_plus_conj"] = (k + k.conj()).a
    return ({"query": query, "brute_force": brute},
            [equal("closed_equals_brute", brute, closed)], [])


# ---------------------------------------------------------------------------
# character sums

def sigma_chain(field, part):
    """First moment 0, shifted correlation -1, sigma chain, all exhaustive."""
    n, q = part.n, field.q
    found = [equal("coset_0_dlog_mod_n", 0, field.dlog(int(part.cosets[0][0])) % n),
             equal("first_moment", 0, char_sum_moment(field, part))]
    rows = winterhof_sweep(field, part)[1:]
    expected = np.full(n, (q - 1) // n, dtype=np.int64)
    expected[0] -= 1
    bad = np.flatnonzero(np.any(rows != expected, axis=1))
    found.append(holds(
        "sigma_chain_all_shifts", not len(bad),
        _mismatches(bad, lambda b: f"sigma({b + 1}) = {rows[b].tolist()}"),
        count=q - 1))
    # the sigma chain implies every shifted correlation equals -1; the two
    # spot calls below also cover the vectorized sweep itself
    for g, in spot_draws(q + 1, range(1, q)):
        found.append(equal(f"winterhof_counts_at_{g}",
                           tuple(int(c) for c in rows[g - 1]),
                           winterhof_counts(field, part, g)))
        found.append(equal(f"shifted_moment_at_{g}", -1,
                           char_sum_moment(field, part, g)))
    return {}, found, []


def jacobi(field, part):
    """Exact Jacobi identities plus numeric Gauss-sum cross-checks (cubic)."""
    q = field.q
    jac = memo(part, jacobi_cubic)            # raises unless norm == q
    trace = jac + jac.conj()
    quotient = jacobi_from_gauss(field, part)
    results = {"jacobi": jac.to_json(), "jacobi_plus_conj": trace.a,
               "gauss_quotient_numeric": complex_json(quotient)}
    found = [equal("norm_equals_q", q, jac.norm()),
             holds("j_plus_conj_rational", trace.is_rational())]
    if field.p == 2:
        closed = jacobi_char2_closed_form(field.m)
        found.append(equal("char2_closed_form", closed, jac))
        found.append(equal("exact_gauss_equals_closed_form", closed,
                           exact_gauss_sum(field, part)))
    delta = abs(quotient - jac.to_complex())
    found.append(holds("matches_gauss_quotient", delta < JACOBI_NUM_TOL,
                       f"|delta| = {delta:.3e}"))
    g2 = abs(memo(part, gauss_sum)) ** 2
    found.append(holds("gauss_abs_square_equals_q", abs(g2 - q) <= GAUSS_ABS_REL_TOL * q,
                       f"|G|^2 = {g2:.12g}"))
    a_arr, b_arr = a_beta_sweep(field, part)
    pred = [chi_bar_times(part, int(part.cosets[c][0]), jac) for c in range(3)]
    lab = part.labels[1:]
    bad = np.flatnonzero((a_arr[1:] != np.array([z.a for z in pred])[lab])
                         | (b_arr[1:] != np.array([z.b for z in pred])[lab]))
    found.append(holds(
        "a_beta_identity_all_beta", not len(bad),
        _mismatches(bad, lambda b: f"A({b + 1}) = ({a_arr[b + 1]}, {b_arr[b + 1]}w)"),
        count=q - 1))
    for beta, in spot_draws(q + 2, range(1, q)):
        found.append(equal(f"a_beta_at_{beta}", chi_bar_times(part, beta, jac),
                           a_beta(field, part, beta)))
    return results, found, []


def gauss(field, part):
    """|G|^2 = q numerically; in characteristic 2 also the exact sum in Z[w]."""
    g_num = gauss_sum(field, part)
    found = [holds("abs_square_equals_q",
                   abs(abs(g_num) ** 2 - field.q) <= GAUSS_ABS_REL_TOL * field.q,
                   f"|G|^2 = {abs(g_num) ** 2:.12g}")]
    results = {"n": part.n, "numeric": complex_json(g_num)}
    if field.p == 2:
        g_exact = exact_gauss_sum(field, part)
        results["exact"] = g_exact.to_json()
        found.append(holds("exact_matches_numeric",
                           abs(g_exact.to_complex() - g_num) < 1e-6))
    return results, found, []


# ---------------------------------------------------------------------------
# characteristic-function equations

def charpoly(field, part):
    """The coset characteristic functions are the roots of their equation
    X^n - sigma1 X^(n-1) + ... = 0, with closed-form coefficients; the
    products f_i f_j are read off the pair table."""
    f = part.indicators()                               # row j is f_j
    ph, total = np.ones(field.q, dtype=np.int64), f.sum(axis=0)
    pairs = memo(part, pair_table)                      # pairs[i, j] = f_i f_j
    el = partial(GroupRingElement, field)       # gr_mul's operands: see groupring
    found = [holds("partition_identity",                # sum f_j = Phi - X^0
                   np.array_equal(total, ph - (np.arange(field.q) == 0)))]
    sigmas = closed_sigmas(field, part)
    if part.n == 2:
        found.append(holds("phi_squared_equals_q_phi", np.array_equal(
            gr_mul(el(ph), el(ph)).coeffs, field.q * ph)))
        products = {"sigma1_matches_sum": total, "sigma2_matches_product": pairs[0, 1]}
    else:
        products = {"sigma1_matches_sum": total,
                    "sigma2_matches_pair_sum": pairs[0, 1] + pairs[1, 2] + pairs[2, 0],
                    "sigma3_matches_product": gr_mul(el(pairs[0, 1]), el(f[2])).coeffs}
    found += [holds(name, np.array_equal(s, prod))
              for (name, prod), s in zip(products.items(), sigmas)]
    # Horner at every root at once: ((f - s1) f + s2) f - s3 on the (n, q)
    # stack, in int64: |f - s1| <= 1 and each step convolves with f (sum
    # < q) and adds a sigma below q^2, so entries stay below 2 q^2 < 2^33.
    residuals = f - sigmas[0]
    for k, s in enumerate(sigmas[1:], 2):
        residuals = convolve(field, residuals, f) + (-1) ** k * s
    found += [holds(f"residual_zero_at_f{j}", not r.any())
              for j, r in enumerate(residuals)]
    results = {"n": part.n,
               **{f"sigma{k}": _sigma_json(s) for k, s in enumerate(sigmas, 1)}}
    if part.n == 3:
        results["jacobi"] = memo(part, jacobi_cubic).to_json()
    return results, found, []


# ---------------------------------------------------------------------------
# shift-count duality

@registry.op
def duality(field, part):
    """max R == 1 + max N(3), max N(3) against its witness and the closed form,
    and the reduction behind it against the definition; nothing to check below
    3-element cosets.  max R sweeps the closed-form class table over
    (beta != 0, i, j); the closed form is predicted where its case analysis
    applies (always for n = 2, characteristic 2 for n = 3)."""
    if len(part.cosets[0]) < 3:
        return {}, [], ["coset smaller than 3, skipped"]
    table = memo(part, closed_rep_class_table)
    c, i, j = (int(x) for x in np.unravel_index(np.argmax(table), table.shape))
    max_r = int(table[c, i, j])
    max_n3, witness = max_shift_count(field, part, 3)
    closed = closed_form_max3(field, part.n)
    results = {"field": {"p": field.p, "m": field.m, "q": field.q}, "n": part.n,
               "max_R": max_r,
               "max_R_witness": {"beta_label": c, "beta": int(part.cosets[c][0]),
                                 "i": i, "j": j},
               "max_N3": max_n3, "max_N3_witness": list(witness),
               "closed_form_prediction": closed, "holds": max_r == 1 + max_n3}
    found = [equal("witness_reproduces_max", max_n3,
                   shift_count(field, part, witness)),
             reduction_matches_row_counts(field, part, witness[:2]),
             holds("duality_holds", results["holds"],
                   f"max_R = {max_r}, 1 + max_N3 = {1 + max_n3}")]
    notes = []
    if closed is None:
        notes.append(f"no closed form stated for this case (exhaustive max N = {max_n3})")
    else:
        found.append(equal("closed_form_matches", closed, 1 + max_n3))
    return results, found, notes


def shift(field, part, t):
    """max N(t) over t-subsets of coset 0 against its witness's shift count;
    at t = 3 against the closed form where one is stated, at t >= 4 the
    reduction against shift counts from the definition."""
    max_n, witness = max_shift_count(field, part, t)
    found = [equal("witness_reproduces_max", max_n,
                   shift_count(field, part, witness))]
    if t >= 4:
        found.append(reduction_matches_row_counts(field, part, witness[:3]))
    results = {"n": part.n, "t": t, "max_N": max_n,
               "witness": [int(e) for e in witness]}
    if t == 3:
        closed = closed_form_max3(field, part.n)
        results["closed_form_1_plus_max"] = closed
        if closed is not None:
            found.append(equal("closed_form_matches", closed, 1 + max_n))
    return results, found, []


def reduction_matches_row_counts(field, part, prefix) -> Check:
    """N(prefix + {e}) for every other e in C_0, counted at the prefix's own
    elements by ``extension_counts``, against the affine reduction's counts
    that ``reduced_counts`` reads off the memo: M at the ratios d of e for a
    prefix (e1, e2), M2(d3, d) for (e1, e2, e3).  The reduction reads its
    counts at the normalised (0, 1[, d3]), so the check tests the reduction
    itself."""
    rows = extension_counts(field, part, *prefix)[0]
    others = part.cosets[0][~np.isin(part.cosets[0], prefix)]
    reduced = reduced_counts(field, part, prefix, others)
    bad = np.flatnonzero(rows[others] != reduced)
    return holds("reduction_matches_row_counts", not len(bad),
                 _mismatches(bad, lambda b: f"e={others[b]}: N = "
                             f"{rows[others[b]]}, reduced = {reduced[b]}"))
