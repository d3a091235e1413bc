import io
import json
import os
import subprocess
import sys
from pathlib import Path

from charsum import checks
from charsum.characters import CosetPartition
from charsum.cli import VERBS, _build_parser, main
from charsum.errors import IdentityViolation
from charsum.field import build_field
from conftest import count_calls, get_field, get_partition


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_quietly(monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["field-info", "--field", "7"]) == 0
    assert main(["repcount", "--field", "7", "--csv"]) == 0


def test_field_info(capsys):
    code, report, _ = run_json(capsys, "field-info", "--field", "2^4")
    assert code == 0
    assert report["field"]["q"] == 16
    assert report["field"]["modulus"] == [1, 1, 0, 0, 1]
    assert report["field"]["alpha"] == 2
    assert all(c["pass"] for c in report["checks"])


def test_field_info_imports_no_random_generator():
    # the Frobenius check is exhaustive, so the verb draws no samples
    root = Path(__file__).resolve().parent.parent
    code = ("import sys; from charsum.cli import main; "
            "main(['field-info', '--field', '3^4']); "
            "print('numpy.random' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False"


def test_field_tables_catch_a_frobenius_that_is_not_additive():
    # alpha^3 and alpha^4 trade places: exp and dlog stay inverse bijections,
    # alpha still has order q - 1, but x -> x^2 moves two images
    field = build_field(2, 10)
    field.exp[[3, 4]] = field.exp[[4, 3]]
    field.dlog_table[field.exp[[3, 4]]] = [3, 4]
    _, found, _ = checks.field_tables(field, None)
    assert [(c.name, c.passed) for c in found] == [
        ("alpha_order_q_minus_1", True), ("dlog_bijection", True),
        ("frobenius_additive", False)]


def test_partition_verb(capsys):
    code, report, _ = run_json(capsys, "partition", "--field", "7", "--n", "3")
    assert code == 0
    assert report["results"]["cosets"] == [[1, 6], [3, 4], [2, 5]]


def test_repcount_prime_field_table(capsys):
    code, report, _ = run_json(capsys, "repcount", "--field", "13", "--n", "2")
    assert code == 0
    assert report["results"]["qr_as_two_qr"] == 2
    assert report["results"]["qr_as_two_nonres"] == 3
    assert any(c["name"] == "closed_equals_brute_all_beta" and c["pass"]
               for c in report["checks"])


def test_repcount_single_query_with_diagnostics(capsys):
    code, report, _ = run_json(capsys, "repcount", "--field", "2^2",
                               "--n", "3", "--beta", "1", "--i", "1", "--j", "2")
    assert code == 0
    assert report["results"]["query"]["count"] == 1
    assert report["results"]["query"]["K"] == {"a": -3, "b": 1}


def test_repcount_csv(capsys):
    code, out, _ = run_cli(capsys, "repcount", "--field", "13", "--n", "2", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta_label,i,j,count"
    assert "qr_as_two_qr,,,2" in lines


def test_jacobi_verb(capsys):
    code, report, _ = run_json(capsys, "jacobi", "--field", "7")
    assert code == 0
    assert report["results"]["jacobi"] == {"a": -1, "b": -3}
    assert all(c["pass"] for c in report["checks"])


def test_gauss_verb_exact_char2(capsys):
    code, report, _ = run_json(capsys, "gauss", "--field", "2^4", "--n", "3")
    assert code == 0
    assert report["results"]["exact"] == {"a": -4, "b": 0}


def test_charpoly_verb_f3(capsys):
    code, report, _ = run_json(capsys, "charpoly", "--field", "3", "--n", "2")
    assert code == 0
    assert report["results"]["sigma2"]["coeffs"] == {"0": 1}
    assert any(c["name"] == "sigma2_matches_product" and c["pass"]
               for c in report["checks"])


def test_shift_verb(capsys):
    code, report, _ = run_json(capsys, "shift", "--field", "2^6", "--n", "3")
    assert code == 0
    assert report["results"]["max_N"] == 8
    assert report["results"]["closed_form_1_plus_max"] == 9


def test_shift_verb_at_t3_has_no_search_bound(capsys):
    # C(1365, 3) * 4096 > 2e10 bounds the exhaustive search; t = 3 does not run it
    code, report, _ = run_json(capsys, "shift", "--field", "2^12", "--n", "3")
    assert code == 0
    assert {c["name"]: c["pass"] for c in report["checks"]} == {
        "witness_reproduces_max": True, "closed_form_matches": True}
    code, _, err = run_cli(capsys, "shift", "--field", "2^12", "--n", "3", "--t", "4")
    assert code == 1 and "subset search too large" in err


def test_shift_verb_at_t4_bounds_the_table_instead(capsys):
    # C(312, 4) * 625 > 2e10 bounded the exhaustive search; t = 4 takes the
    # affine reduction, whose (q, q) table is bounded to q <= 2048
    code, report, _ = run_json(capsys, "shift", "--field", "5^4", "--n", "2",
                               "--t", "4")
    assert code == 0
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [
        ("witness_reproduces_max", True), ("reduction_matches_row_counts", True)]
    code, _, err = run_cli(capsys, "shift", "--field", "3^7", "--n", "2", "--t", "4")
    assert code == 1 and "subset search too large" in err


def test_shift_verb_at_t2_has_no_search_bound(capsys):
    # C(21845, 2) * 2^16 > 2e10 bounded the exhaustive search; every pair
    # has the same N, so t = 2 runs none
    code, report, _ = run_json(capsys, "shift", "--field", "2^16", "--n", "3",
                               "--t", "2")
    assert code == 0
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [
        ("witness_reproduces_max", True)]


def test_shift_verb_at_t1_builds_no_label_matrix(capsys):
    # every N({e}) is q - 1; the (q-1)/n x q label matrix of coset 0 is
    # never formed
    code, report, _ = run_json(capsys, "shift", "--field", "2^16", "--n", "3",
                               "--t", "1")
    assert code == 0 and report["results"]["max_N"] == 2 ** 16 - 1
    assert all(c["pass"] for c in report["checks"])


def test_duality_verb_at_the_size_cap(capsys):
    code, report, _ = run_json(capsys, "duality", "--field", "2^16", "--n", "3")
    assert code == 0 and all(c["pass"] for c in report["checks"])
    assert report["results"]["max_R"] == 1 + report["results"]["max_N3"] == 7310


def test_duality_verb(capsys):
    code, report, _ = run_json(capsys, "duality", "--field", "2^4", "--n", "3")
    assert code == 0
    assert report["results"]["max_R"] == 2
    assert report["results"]["max_N3"] == 1
    assert report["results"]["holds"] is True


def test_verify_verb(capsys):
    code, report, _ = run_json(capsys, "verify", "--scope", "repcount",
                               "--q-max", "60", "--threads", "1")
    assert code == 0
    assert report["results"]["fields_checked"] > 40
    assert all(c["pass"] for c in report["checks"])


def test_verify_scope_all_covers_every_op(capsys):
    code, report, _ = run_json(capsys, "verify", "--scope", "all",
                               "--q-max", "30", "--threads", "1")
    assert code == 0
    cov = [c for c in report["checks"] if c["name"] == "op_coverage"]
    assert cov and cov[0]["pass"]


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys, "repcount")[0] == 1                  # missing --field
    assert run_cli(capsys, "repcount", "--field", "8")[0] == 1  # 8 not prime
    assert run_cli(capsys, "repcount", "--field", "3^2:1,1")[0] == 1
    code, _, err = run_cli(capsys, "shift", "--field", "5", "--n", "2", "--t", "3")
    assert code == 1 and "coset size" in err
    code, out, err = run_cli(capsys, "duality", "--field", "5", "--n", "2")
    assert code == 1 and "coset smaller than 3" in err and out == ""
    code, out, err = run_cli(capsys, "verify", "--scope", "repcount", "--q-max", "1")
    assert code == 1 and "--q-max" in err and out == ""
    # the cap comes before the modulus search and the primality test, and
    # takes no unbounded power
    for spec in ("2^400", "170141183460469231731687303715884105727",
                 "2^99999999999"):
        code, out, err = run_cli(capsys, "field-info", "--field", spec)
        assert code == 1 and "exceeds the size cap" in err and out == ""
    # the query arguments of repcount --beta and shift
    for argv, message in (
            (("repcount", "--field", "7", "--beta", "7"), "--beta must lie in [0, 7)"),
            (("repcount", "--field", "7", "--beta", "-1"), "--beta must lie in [0, 7)"),
            (("repcount", "--field", "7", "--beta", "1", "--i", "2"),
             "coset indices must lie in [0, n)"),
            (("repcount", "--field", "7", "--n", "3", "--beta", "1", "--j", "-1"),
             "coset indices must lie in [0, n)"),
            (("shift", "--field", "13", "--t", "0"), "--t must be positive")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and f"usage error: {message}" in err


def test_cosets_family_catches_swapped_cosets():
    fld, part = get_field(7), get_partition(7, 1, 3)
    c0, c1, c2 = part.cosets
    swapped = CosetPartition(fld, 3, False, part.labels, (c0, c2, c1))
    _, found, _ = checks.cosets(fld, swapped)
    passed = {c.name: c.passed for c in found}
    assert passed["coset_1_size"] and not passed["coset_1_is_alpha^1_coset_0"]
    assert all(c.passed for c in checks.cosets(fld, part)[1])


def test_every_verb_but_verify_runs_from_the_verbs_table():
    parser = _build_parser()
    sub = next(a for a in parser._actions if a.dest == "verb")
    assert set(sub.choices) - {"verify"} == set(VERBS)


def test_family_verbs_compute_each_value_once(capsys, monkeypatch):
    jacobi, quotient, perron = (count_calls(monkeypatch, name) for name in
                                ("jacobi_cubic", "jacobi_from_gauss", "perron_table"))
    assert run_cli(capsys, "jacobi", "--field", "7")[0] == 0
    assert (len(jacobi), len(quotient)) == (1, 1)
    assert run_cli(capsys, "repcount", "--field", "13", "--n", "2")[0] == 0
    assert len(perron) == 1


def test_jacobi_computes_each_gauss_sum_once(capsys, monkeypatch):
    # G(chi) feeds the quotient and the |G|^2 check, G(conj chi) the quotient
    gauss = count_calls(monkeypatch, "gauss_sum")
    assert run_cli(capsys, "jacobi", "--field", "7")[0] == 0
    assert sorted(args[1].conjugate for args in gauss) == [False, True]


def test_tables_and_charpoly_run_above_4096(capsys):
    for argv in (("repcount", "--field", "4099", "--n", "3"),
                 ("charpoly", "--field", "4099", "--n", "3")):
        code, report, _ = run_json(capsys, *argv)
        assert code == 0 and all(c["pass"] for c in report["checks"])


def test_character_nonexistence_exits_2(capsys):
    code, report, _ = run_json(capsys, "jacobi", "--field", "2^3")
    assert code == 2
    assert not report["checks"][0]["pass"]
    code, _, _ = run_json(capsys, "repcount", "--field", "2^2", "--n", "2")
    assert code == 2


def test_size_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("CHARSUM_SIZE_CAP", "100")
    assert run_cli(capsys, "field-info", "--field", "11^2")[0] == 1
    code, out, _ = run_cli(capsys, "verify", "--scope", "repcount", "--q-max", "200")
    assert code == 1 and out == ""
    monkeypatch.setenv("CHARSUM_SIZE_CAP", "200")
    assert run_cli(capsys, "field-info", "--field", "11^2")[0] == 0


def test_verify_reports_a_failing_field_and_carries_on(capsys, monkeypatch):
    argv = ("verify", "--scope", "sums", "--q-max", "40", "--threads", "1")
    _, clean, _ = run_json(capsys, *argv)
    real = checks.jacobi

    def broken_at_f13(field, part):
        if field.q == 13:
            raise IdentityViolation("injected")
        return real(field, part)

    monkeypatch.setattr(checks, "jacobi", broken_at_f13)
    code, report, _ = run_json(capsys, *argv)
    assert code == 2
    assert report["results"]["fields_checked"] == clean["results"]["fields_checked"]
    sums, jac = report["results"]["sweeps"]
    assert sums == clean["results"]["sweeps"][0]
    assert jac["fields"] == clean["results"]["sweeps"][1]["fields"]
    assert jac["failures"] == [
        "F_13 n=3: IdentityViolation: expected no error, got injected"]
    assert [c["pass"] for c in report["checks"]] == [True, False]


def test_output_is_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "duality", "--field", "3^2", "--n", "2")
    _, out2, _ = run_cli(capsys, "duality", "--field", "3^2", "--n", "2")
    assert out1 == out2
    _, out1, _ = run_cli(capsys, "verify", "--scope", "sums", "--q-max", "40",
                         "--threads", "1")
    _, out2, _ = run_cli(capsys, "verify", "--scope", "sums", "--q-max", "40",
                         "--threads", "1")
    assert out1 == out2


def test_verify_output_independent_of_threads(capsys):
    _, r1, _ = run_json(capsys, "verify", "--scope", "repcount", "--q-max", "40",
                        "--threads", "1")
    _, r2, _ = run_json(capsys, "verify", "--scope", "repcount", "--q-max", "40",
                        "--threads", "2")
    assert r1["results"] == r2["results"]
    assert r1["checks"] == r2["checks"]


def test_conjugate_flag_flips_jacobi(capsys):
    _, plain, _ = run_json(capsys, "jacobi", "--field", "13")
    _, swapped, _ = run_json(capsys, "jacobi", "--field", "13", "--conjugate")
    a, b = plain["results"]["jacobi"]["a"], plain["results"]["jacobi"]["b"]
    assert swapped["results"]["jacobi"] == {"a": a - b, "b": -b}
    _, plain_counts, _ = run_json(capsys, "repcount", "--field", "13", "--n", "3")
    _, swapped_counts, _ = run_json(capsys, "repcount", "--field", "13", "--n", "3",
                                    "--conjugate")
    multiset = sorted(r["count"] for r in plain_counts["results"]["classes"])
    multiset_swapped = sorted(r["count"] for r in swapped_counts["results"]["classes"])
    assert multiset == multiset_swapped


def test_elapsed_goes_to_stderr(capsys):
    _, out, err = run_cli(capsys, "field-info", "--field", "7")
    assert "elapsed_ms=" in err and "elapsed_ms" not in out
