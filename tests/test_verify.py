from charsum import checks, shiftcount
from charsum.verify import (_family_worker, cached_field, cubic_fields,
                            quadratic_fields, sweep_duality)
from conftest import count_calls, get_field, get_partition


def test_jacobi_sweep_checks_every_beta_above_conv_cap():
    # F_4099 is a cubic prime field above 4096: the all-beta A(beta)
    # identity counts q - 1 assertions there too
    q = 4099
    outcome = _family_worker((checks.jacobi, q, 1, 3))
    assert outcome["failures"] == []
    # norm, J + conj(J), Gauss quotient, |G|^2, two spot A(beta), all beta
    assert outcome["assertions"] == 6 + (q - 1)


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
    sweep = sweep_duality(quadratic_fields(60), cubic_fields(60))
    skipped = sum("skipped" in note for note in sweep.notes)
    assert sweep.ok and len(calls) == len(tables) == sweep.fields - skipped > 0


def test_duality_sweep_reports_a_search_off_by_one(monkeypatch):
    real = shiftcount.max_shift_count

    def one_too_many(field, part, t, counts=None):
        best, witness = real(field, part, t, counts)
        return best + 1, witness

    monkeypatch.setattr(shiftcount, "max_shift_count", one_too_many)
    sweep = sweep_duality([(13, 1)], [])
    assert "F_13 n=2: witness_reproduces_max: expected 3, got 2" in sweep.failures


def test_reduction_check_fails_on_a_perturbed_reduction():
    field, part = get_field(13), get_partition(13, 1, 2)
    counts = shiftcount.triple_counts(field, part)
    _, witness = shiftcount.max_shift_count(field, part, 3, counts)
    e1, e2, e3 = witness
    d = field.mul(field.sub(e3, e1), field.inv(field.sub(e2, e1)))
    assert checks.reduction_matches_row_counts(field, part, witness[:2], counts).passed
    counts[d] += 1
    check = checks.reduction_matches_row_counts(field, part, witness[:2], counts)
    assert not check.passed
    assert check.actual.startswith(f"1 mismatches, first at e={e3}:"), check.actual


def test_reduction_check_fails_on_a_perturbed_table_at_t4():
    field, part = get_field(7, 2), get_partition(7, 2, 2)
    counts = shiftcount.quad_counts(field, part)
    _, witness = shiftcount.max_shift_count(field, part, 4, counts)
    e1, e2, e3, e4 = witness
    scale = field.inv(field.sub(e2, e1))
    d1, d2 = (field.mul(field.sub(e, e1), scale) for e in (e3, e4))
    assert checks.reduction_matches_row_counts(field, part, witness[:3], counts).passed
    counts[d1, d2] += 1
    check = checks.reduction_matches_row_counts(field, part, witness[:3], counts)
    assert not check.passed
    assert check.actual.startswith(f"1 mismatches, first at e={e4}:"), check.actual
