import concurrent.futures
import json
import os
import sys

import numpy as np
import pytest

from charsum import checks, shiftcount, verify
from charsum.characters import memo, pair_table, partition
from charsum.cli import main
from charsum.cyclotomic import jacobi_cubic
from charsum.errors import IdentityViolation
from charsum.repcount import closed_rep_class_table
from charsum.shiftcount import quad_counts, triple_counts
from charsum.verify import SWEEPS, cached_field, run_sweeps
from conftest import count_calls, get_field, get_partition


def test_jacobi_sweep_checks_every_beta_above_conv_cap():
    # F_4099 is a cubic prime field above 4096: the all-beta A(beta)
    # identity counts q - 1 assertions there too
    q = 4099
    sweep, = run_sweeps({"jacobi_gauss": [(q, 1, 3)]})
    assert sweep.failures == []
    # norm, J + conj(J), Gauss quotient, |G|^2, two spot A(beta), all beta
    assert sweep.assertions == 6 + (q - 1)


def test_sweep_fields_obey_the_size_cap_env(monkeypatch):
    monkeypatch.setenv("CHARSUM_SIZE_CAP", "70000")
    cached_field.cache_clear()
    try:
        assert cached_field(65537, 1).q == 65537
    finally:
        cached_field.cache_clear()


def test_duality_sweep_runs_the_search_once_per_field(monkeypatch):
    calls = count_calls(monkeypatch, "max_shift_count")
    tables = count_calls(monkeypatch, "triple_counts")      # its M(d) table too
    sweep, = run_sweeps({"shift_duality": SWEEPS["shift_duality"].fields(60)})
    skipped = sum("skipped" in note for note in sweep.notes)
    assert sweep.ok and len(calls) == len(tables) == sweep.fields - skipped > 0


def test_duality_sweep_reports_a_search_off_by_one(monkeypatch):
    real = shiftcount.max_shift_count

    def one_too_many(field, part, t):
        best, witness = real(field, part, t)
        return best + 1, witness

    monkeypatch.setattr(checks, "max_shift_count", one_too_many)
    sweep, = run_sweeps({"shift_duality": [(13, 1, 2)]})
    assert "F_13 n=2: witness_reproduces_max: expected 3, got 2" in sweep.failures


def test_reduction_check_fails_on_a_perturbed_reduction():
    field, part = get_field(13), get_partition(13, 1, 2)
    _, witness = shiftcount.max_shift_count(field, part, 3)
    e1, e2, e3 = witness
    d = field.mul(field.sub(e3, e1), field.inv(field.sub(e2, e1)))
    counts = memo(part, triple_counts)
    assert checks.reduction_matches_row_counts(field, part, witness[:2], counts).passed
    perturbed = counts.copy()
    perturbed[d] += 1
    check = checks.reduction_matches_row_counts(field, part, witness[:2], perturbed)
    assert not check.passed
    assert check.actual.startswith(f"1 mismatches, first at e={e3}:"), check.actual


def test_reduction_check_fails_on_a_perturbed_table_at_t4():
    field, part = get_field(7, 2), get_partition(7, 2, 2)
    _, witness = shiftcount.max_shift_count(field, part, 4)
    e1, e2, e3, e4 = witness
    scale = field.inv(field.sub(e2, e1))
    d1, d2 = (field.mul(field.sub(e, e1), scale) for e in (e3, e4))
    counts = memo(part, quad_counts)
    assert checks.reduction_matches_row_counts(field, part, witness[:3], counts).passed
    perturbed = counts.copy()
    perturbed[d1, d2] += 1
    check = checks.reduction_matches_row_counts(field, part, witness[:3], perturbed)
    assert not check.passed
    assert check.actual.startswith(f"1 mismatches, first at e={e4}:"), check.actual


# ---------------------------------------------------------------------------
# field-major sweeps and the per-partition memo

def test_scope_all_builds_each_field_partition_and_table_once(capsys, monkeypatch):
    builds = count_calls(monkeypatch, "build_field")
    parts = count_calls(monkeypatch, "partition")
    tables = {name: count_calls(monkeypatch, name) for name in
              ("pair_table", "jacobi_cubic", "closed_rep_class_table",
               "triple_counts")}
    assert main(["verify", "--scope", "all", "--q-max", "60", "--threads", "1"]) == 0
    capsys.readouterr()
    jobs = sorted({(p, m, n) for sw in SWEEPS.values() for p, m, n in sw.fields(60)})
    cubic = [(p, m, 3) for p, m, n in jobs if n == 3]
    assert sorted(args[:2] for args in builds) == sorted({(p, m) for p, m, _ in jobs})
    # one per (field, n), and the conjugate one jacobi_from_gauss builds
    assert sorted((f.p, f.m, n) for f, n in parts) == sorted(jobs + cubic)
    made = {name: sorted((part.field.p, part.field.m, part.n) for _, part in calls)
            for name, calls in tables.items()}
    assert made["pair_table"] == made["closed_rep_class_table"] == jobs
    assert made["jacobi_cubic"] == cubic
    # the duality family skips fields whose cosets hold fewer than 3 elements
    assert made["triple_counts"] == [(p, m, n) for p, m, n in jobs
                                     if (p ** m - 1) // n >= 3]


@pytest.mark.parametrize("p,m,n", [(13, 1, 3), (3, 3, 2), (2, 4, 3)])
def test_memo_computes_each_table_once_and_shares_it_read_only(monkeypatch, p, m, n):
    field = get_field(p, m)
    part = partition(field, n)          # a fresh partition holds no tables yet
    computes = ([pair_table, closed_rep_class_table, triple_counts, quad_counts]
                + [jacobi_cubic] * (n == 3))
    counted = {fn: count_calls(monkeypatch, fn.__name__) for fn in computes}
    for family in (checks.rep_table, checks.sigma_chain, checks.charpoly,
                   checks.duality) + ((checks.jacobi,) if n == 3 else ()):
        family(field, part)
    shiftcount.max_shift_count(field, part, 4)
    for fn, calls in counted.items():
        # the counting wrapper every charsum module now calls
        table = memo(part, getattr(sys.modules[fn.__module__], fn.__name__))
        assert len(calls) == 1 and calls[0][1] is part, fn.__name__
        if fn is not jacobi_cubic:
            assert np.array_equal(table, fn(field, part))
            with pytest.raises(ValueError, match="read-only"):
                table.flat[0] += 1


def test_memo_keeps_no_exception():
    part = get_partition(7, 1, 2)
    raised = []

    def fails_once(field, part):
        if not raised:
            raised.append(field)
            raise IdentityViolation("first call")
        return 5

    with pytest.raises(IdentityViolation):
        memo(part, fails_once)
    assert memo(part, fails_once) == 5 and memo(part, fails_once) == 5
    assert raised == [part.field]


def test_a_violation_in_one_job_stays_in_its_sweep_and_field(capsys, monkeypatch):
    def report():
        code = main(["verify", "--scope", "all", "--q-max", "31", "--threads", "1"])
        return code, json.loads(capsys.readouterr().out)

    clean_code, clean = report()
    real = checks.rep_table

    def broken_at_f13(field, part):
        if field.q == 13 and part.n == 3:
            raise IdentityViolation("injected")
        return real(field, part)

    monkeypatch.setattr(checks, "rep_table", broken_at_f13)
    code, broken = report()
    assert (clean_code, code) == (0, 2)
    for before, after in zip(clean["results"]["sweeps"], broken["results"]["sweeps"]):
        if after["name"] == "cubic_rep_counts":
            assert after["failures"] == [
                "F_13 n=3: IdentityViolation: expected no error, got injected"]
            assert after["fields"] == before["fields"]
        else:
            assert after == before


@pytest.mark.parametrize("p,m,n,calls", [(13, 1, 3, 4), (2, 4, 3, 4), (13, 1, 2, 3),
                                         (3, 3, 2, 3)])
def test_charpoly_stacks_its_products(monkeypatch, p, m, n, calls):
    # n = 3: the pair table, f0 f1 times f2 and one call per Horner step,
    # cubic_sigma being closed-form; n = 2: Phi^2, the pair table and one
    # Horner step.  A pair table already in the memo saves its call.
    field = get_field(p, m)
    for shared in (False, True):
        part = partition(field, n)
        if n == 3:
            memo(part, jacobi_cubic)
        if shared:
            memo(part, pair_table)
        convolutions = count_calls(monkeypatch, "convolve")
        _, found, _ = checks.charpoly(field, part)
        assert len(convolutions) == calls - shared
        assert all(c.passed for c in found)
        assert [c.name for c in found][-n:] == [f"residual_zero_at_f{j}"
                                                for j in range(n)]


# ---------------------------------------------------------------------------
# the worker pool

class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, starts nothing."""
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pool_is_capped_by_fields_and_cpus(monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    items = list(range(10))
    assert verify._pmap(str, items, 100000) == verify._pmap(str, items, 1)
    assert verify._pmap(str, items[:3], 100000) == ["0", "1", "2"]
    assert verify._pmap(str, items[:1], 100000) == ["0"]      # no pool for one
    assert RecordingPool.sizes == [4, 3]
    # through the CLI: five fields q <= 7 with --threads far above both caps
    argv = ["verify", "--scope", "sums", "--q-max", "7"]
    assert main(argv + ["--threads", "100000"]) == 0
    pooled = json.loads(capsys.readouterr().out)
    assert RecordingPool.sizes == [4, 3, 4]
    assert main(argv + ["--threads", "1"]) == 0
    serial = json.loads(capsys.readouterr().out)
    assert (pooled["results"], pooled["checks"]) == (serial["results"], serial["checks"])
