"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines even
when everything passes).  Every identity is exact; the only tolerances are
the two numeric Gauss-sum cross-checks, pinned below via charsum.checks.
"""

import time

import pytest

import charsum.verify as v
from charsum import checks
from charsum.checks import GAUSS_ABS_REL_TOL, JACOBI_NUM_TOL
from charsum.errors import IdentityViolation
from charsum.field import prime_powers
from charsum.repcount import rep_count_zero, rep_count_zero_brute
from charsum.verify import cached_field
from charsum.characters import partition

Q_MAX = 2000


def _sweep(name, items=None):
    """One sweep of ``verify.SWEEPS``, over its own fields up to ``Q_MAX``
    or over ``items``."""
    return v.run_sweeps({name: v.SWEEPS[name].fields(Q_MAX) if items is None
                         else items})[0]


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def _finish(num, name, sweep, elapsed, limit_s=None, extra=""):
    detail = (f"{sweep.fields} fields, {sweep.assertions} exact assertions, "
              f"{len(sweep.failures)} failures, {elapsed:.1f}s")
    if extra:
        detail += f"; {extra}"
    ok = sweep.ok and (limit_s is None or elapsed < limit_s)
    _line(num, name, ok, detail)
    assert sweep.ok, sweep.failures[:5]
    if limit_s is not None:
        assert elapsed < limit_s, f"runtime {elapsed:.1f}s over {limit_s}s target"


def test_criterion_1_quadratic_rep_counts():
    t0 = time.perf_counter()
    sweep = _sweep("quadratic_rep_counts")
    elapsed = time.perf_counter() - t0
    expected_fields = len([p for p, m, q in prime_powers(Q_MAX, 3) if p != 2])
    assert sweep.fields == expected_fields
    _finish(1, f"quadratic closed form == brute force, odd q <= {Q_MAX}",
            sweep, elapsed, limit_s=120)


def test_criterion_2_cubic_rep_counts():
    t0 = time.perf_counter()
    sweep = _sweep("cubic_rep_counts")
    elapsed = time.perf_counter() - t0
    fields = v.SWEEPS["cubic_rep_counts"].fields(Q_MAX)
    for pm in [(2, 2), (2, 4), (2, 6), (2, 8), (2, 10)]:
        assert (*pm, 3) in fields               # q = 4, 16, 64, 256, 1024
    assert all((p ** m - 1) % 3 == 0 for p, m, n in fields)
    _finish(2, f"cubic closed form == brute force, 3 | q - 1, q <= {Q_MAX}",
            sweep, elapsed, limit_s=180)


def test_criterion_3_prime_field_floors():
    t0 = time.perf_counter()
    sweep = _sweep("prime_field_counts")
    elapsed = time.perf_counter() - t0
    # the sweep itself stops at p = 200
    assert sweep.fields == len([p for p, m, q in prime_powers(200, 3)
                                if m == 1 and p != 2])
    _finish(3, "prime-field counts match floor((p+1)/4) pattern, p <= 200",
            sweep, elapsed)


def test_criterion_4_zero_sum_counts():
    t0 = time.perf_counter()
    sweep = _sweep("zero_sum_counts")
    elapsed = time.perf_counter() - t0
    f9 = cached_field(3, 2)
    p9 = partition(f9, 2)
    val = rep_count_zero(f9, p9, 0, 0)
    assert val == 4 == rep_count_zero_brute(f9, p9, 0, 0)
    assert val != (3 - 1) // 2                  # not the literal prime-field value
    documented = any("F_3^2" in note and "4" in note for note in sweep.notes)
    assert documented, "F_9 discrepancy note missing from the report"
    _finish(4, "zero-sum counts use (q-1)/n; F_9 gives 4 and is documented",
            sweep, elapsed, extra=f"{len(sweep.notes)} discrepancy notes")


def test_criterion_5_sigma_chain():
    t0 = time.perf_counter()
    sweep = _sweep("character_sums")
    elapsed = time.perf_counter() - t0
    _finish(5, "sigma_0 + 1 = sigma_1 = ... = (q-1)/n for every shift",
            sweep, elapsed)


def test_criterion_6_jacobi_gauss():
    t0 = time.perf_counter()
    sweep = _sweep("jacobi_gauss")
    elapsed = time.perf_counter() - t0
    extra = (f"norm(J)=q everywhere; char-2 closed forms exact; "
             f"|G|^2 within {GAUSS_ABS_REL_TOL} rel and G^2/conj(G) "
             f"within {JACOBI_NUM_TOL} of J for every q")
    _finish(6, "Jacobi/Gauss identities", sweep, elapsed, extra=extra)


def test_criterion_7_quadratic_charpoly():
    t0 = time.perf_counter()
    sweep = _sweep("quadratic_charpoly")
    elapsed = time.perf_counter() - t0
    _finish(7, f"quadratic equation of characteristic functions, odd q <= {Q_MAX}",
            sweep, elapsed, limit_s=60)


def test_criterion_8_cubic_charpoly():
    t0 = time.perf_counter()
    sweep = _sweep("cubic_charpoly")
    elapsed = time.perf_counter() - t0
    _finish(8, f"cubic equation of characteristic functions, 3 | q - 1, q <= {Q_MAX}",
            sweep, elapsed)


@pytest.fixture(scope="module")
def duality_sweep():
    t0 = time.perf_counter()
    sweep = _sweep("shift_duality")
    return sweep, time.perf_counter() - t0


def test_criterion_9_shift_closed_forms(duality_sweep):
    sweep, elapsed = duality_sweep
    closed_failures = [f for f in sweep.failures if "closed_form" in f]
    detail = (f"{sweep.fields} fields, {len(closed_failures)} closed-form "
              f"mismatches, {elapsed:.1f}s")
    ok = not closed_failures and elapsed < 300
    _line(9, "max shift count + 1 == case closed forms", ok, detail)
    assert not closed_failures, closed_failures[:5]
    assert elapsed < 300


def test_criterion_10_quasi_duality(duality_sweep):
    sweep, elapsed = duality_sweep
    # every failure criterion 9 does not claim: duality, witness and any
    # IdentityViolation raised while checking a field
    duality_failures = [f for f in sweep.failures if "closed_form" not in f]
    detail = f"{sweep.fields} fields checked, {len(duality_failures)} failures"
    _line(10, "max R == 1 + max N(3), both orders where defined",
          not duality_failures, detail)
    assert not duality_failures, duality_failures[:5]
    assert sweep.ok, sweep.failures[:5]


def test_criterion_10_fails_on_an_identity_violation(monkeypatch, capsys):
    def broken(fld, part):
        raise IdentityViolation("injected")

    monkeypatch.setattr(checks, "duality", broken)
    sweep = _sweep("shift_duality", items=[(3, 2, 2)])
    assert sweep.failures == [
        "F_3^2 n=2: IdentityViolation: expected no error, got injected"]
    with pytest.raises(AssertionError, match="injected"):
        test_criterion_10_quasi_duality((sweep, 0.0))
    assert "[criterion 10] FAIL" in capsys.readouterr().out
