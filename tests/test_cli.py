import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from charsum import (characters, checks, cli, groupring, registry, repcount,
                     shiftcount)
from charsum.characters import CosetPartition, label_pairs, pair_table, partition
from charsum.cli import VERBS, _build_parser, main
from charsum.cyclotomic import a_beta
from charsum.errors import IdentityViolation, exact_div
from charsum.field import FieldTable, build_field, convolve, parse_field_spec
from charsum.repcount import brute_rep_count
from charsum.shiftcount import orbit_map
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


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
def test_import_starts_no_blas_worker_threads():
    # charsum makes no BLAS call, so the package pins OpenBLAS to the one
    # calling thread unless the caller set its own value
    root = Path(__file__).resolve().parent.parent
    code = ("import os; import charsum.cli; "
            "print(len(os.listdir('/proc/self/task')) == 1, "
            "os.environ.get('OPENBLAS_NUM_THREADS'))")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("OPENBLAS_NUM_THREADS", None)

    def child(env):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    assert child(env) == ["True", "1"]
    assert child(dict(env, OPENBLAS_NUM_THREADS="2"))[1] == "2"


def test_no_verb_imports_numpy_random():
    # the spot checks draw from the standard library's random, so no verb
    # and no sweep pays for loading numpy.random
    root = Path(__file__).resolve().parent.parent
    code = ("import sys\n"
            "from charsum.cli import VERBS, main\n"
            "codes = [main([verb, '--field', '13']) for verb in VERBS]\n"
            "codes.append(main(['verify', '--scope', 'all', '--q-max', '31',"
            " '--threads', '1']))\n"
            "print(codes, 'numpy.random' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"{[0] * (len(VERBS) + 1)} False"


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
    # a query has no class table: its CSV is the check rows
    code, out, _ = run_cli(capsys, "repcount", "--field", "7", "--n", "3",
                           "--beta", "3", "--i", "2", "--j", "1", "--csv")
    assert code == 0
    assert out.splitlines() == ["name,expected,actual,pass",
                                "closed_equals_brute,0,0,True"]


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
    # nor does t = 4, which reads one M2 row per ratio orbit
    code, report, _ = run_json(capsys, "shift", "--field", "2^12", "--n", "3",
                               "--t", "4")
    assert code == 0
    assert all(c["pass"] for c in report["checks"])


def test_shift_verb_at_t4_has_no_table_bound(capsys):
    # C(312, 4) * 625 > 2e10 bounded the exhaustive search; t = 4 takes the
    # affine reduction, which tabulates no (q, q) M2 and has no bound of its
    # own below the size cap: 3^7 has q^2 > 2^22
    for spec in ("5^4", "3^7"):
        code, report, _ = run_json(capsys, "shift", "--field", spec, "--n", "2",
                                   "--t", "4")
        assert code == 0
        assert [(c["name"], c["pass"]) for c in report["checks"]] == [
            ("witness_reproduces_max", True), ("reduction_matches_row_counts", True)]


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


def test_a_declared_op_never_invoked_fails_coverage(capsys, monkeypatch):
    monkeypatch.setattr(registry, "ALL_OPS", set(registry.ALL_OPS))

    @registry.op
    def throwaway():
        pass

    code, report, _ = run_json(capsys, "verify", "--scope", "all",
                               "--q-max", "31", "--threads", "1")
    assert code == 2
    assert [c for c in report["checks"] if not c["pass"]] == [
        {"name": "op_coverage", "expected": "21 ops invoked",
         "actual": "20 ops invoked, missing: ['throwaway']", "pass": False}]


def test_verify_scope_all_needs_a_q_max_that_reaches_every_op(capsys):
    # below F_7 no coset has 3 elements, so the shift-count ops never run
    code, out, err = run_cli(capsys, "verify", "--scope", "all", "--q-max", "6")
    assert code == 1 and out == "" and "--q-max must lie in [7, " in err
    code, report, _ = run_json(capsys, "verify", "--scope", "all",
                               "--q-max", "7", "--threads", "1")
    assert code == 0
    assert [c["pass"] for c in report["checks"] if c["name"] == "op_coverage"] == [True]
    assert run_cli(capsys, "verify", "--scope", "duality", "--q-max", "3")[0] == 0


def test_an_op_that_raises_is_recorded(monkeypatch):
    field, part = get_field(7), get_partition(7, 1, 3)
    monkeypatch.setattr(registry, "_called", set())
    with pytest.raises(ValueError, match="beta must be nonzero"):
        a_beta(field, part, 0)
    assert registry.called() == {"a_beta"}


def test_ops_keep_their_name_and_module():
    # perfbench/tracer.py wraps a module's functions whose __module__ is that
    # module, and reports them by module and name
    declared = []
    for mod in [m for k, m in sys.modules.items() if k.startswith("charsum.")]:
        owners = [mod] + [c for c in vars(mod).values()
                          if isinstance(c, type) and c.__module__ == mod.__name__]
        for owner in owners:
            for attr, obj in vars(owner).items():
                if (attr in registry.ALL_OPS
                        and getattr(obj, "__module__", None) == mod.__name__):
                    assert obj.__name__ == obj.__wrapped__.__name__ == attr
                    declared.append(attr)
    assert sorted(declared) == sorted(registry.ALL_OPS) and len(declared) == 20


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "nonsense")[0] == 1
    code, out, err = run_cli(capsys)                            # no verb
    assert code == 1 and out == "" and err.startswith("usage: charsum")
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
    # out-of-range arguments of repcount, shift and verify --threads
    for argv, message in (
            (("repcount", "--field", "7", "--beta", "7"),
             "--beta must lie in [0, 7) for F_7"),
            (("repcount", "--field", "7", "--beta", "-1"),
             "--beta must lie in [0, 7) for F_7"),
            (("repcount", "--field", "3^2:2,2,1", "--beta", "9"),
             "--beta must lie in [0, 9) for F_3^2"),
            (("repcount", "--field", "7", "--beta", "1", "--i", "2"),
             "--i must lie in [0, 2) for --n 2"),
            (("repcount", "--field", "7", "--n", "3", "--beta", "1", "--j", "-1"),
             "--j must lie in [0, 3) for --n 3"),
            # the table reads no index, but refuses a bad one as --beta does
            (("repcount", "--field", "7", "--i", "5"), "--i must lie in [0, 2) for --n 2"),
            (("repcount", "--field", "7", "--n", "3", "--j", "-1"),
             "--j must lie in [0, 3) for --n 3"),
            # a field that cannot be built is refused as such, whatever --beta
            (("repcount", "--field", "8", "--beta", "99"), "p = 8 is not prime"),
            (("field-info", "--field", "3^0"), "m must be positive"),
            (("repcount", "--field", "2^99999999999", "--beta", "1"),
             "q = 2^99999999999 exceeds the size cap 65536"),
            (("verify", "--threads", "-1"), "--threads must be 0 (the CPU count) or more"),
            (("shift", "--field", "13", "--t", "0"), "--t must be positive")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and f"usage error: {message}" in err


def test_identity_violation_in_a_verb_exits_2(capsys, monkeypatch):
    # a violated identity is a failed check, not a usage error: the report
    # has no field and no results, and the one check names the exception
    def violated(field, part):
        raise IdentityViolation("injected")

    monkeypatch.setattr(checks, "jacobi_cubic", violated)
    code, report, _ = run_json(capsys, "jacobi", "--field", "7")
    assert code == 2
    assert (report["field"], report["results"]) == (None, {})
    assert report["checks"] == [{"name": "IdentityViolation", "expected": "no error",
                                 "actual": "injected", "pass": False}]


def test_cosets_family_catches_swapped_cosets():
    fld, part = get_field(7), get_partition(7, 1, 3)
    c0, c1, c2 = part.cosets
    swapped = CosetPartition(fld, 3, False, part.labels, (c0, c2, c1))
    _, found, _ = checks.cosets(fld, swapped)
    passed = {c.name: c.passed for c in found}
    assert passed["coset_1_size"] and not passed["coset_1_is_alpha^1_coset_0"]
    assert all(c.passed for c in checks.cosets(fld, part)[1])


def unlabelled_one(fld, n):
    """A fresh partition with the element 1 relabelled -1, so no f_j and no
    coset holds it."""
    part = partition(fld, n)
    labels = part.labels.copy()
    labels[1] = -1
    cosets = (part.cosets[0][part.cosets[0] != 1], *part.cosets[1:])
    return CosetPartition(fld, n, False, labels, cosets)


@pytest.mark.parametrize("n", [2, 3])
def test_charpoly_family_catches_each_fault(monkeypatch, n):
    # every check name charpoly prints is turned false by one of four faults
    fld = get_field(13)
    x0 = np.eye(1, fld.q, dtype=np.int64)[0]

    def failing(part=None):
        # a fresh partition each time, so no memo carries a fault over
        _, found, _ = checks.charpoly(fld, part or partition(fld, n))
        return {c.name for c in found if not c.passed}

    names = {c.name for c in checks.charpoly(fld, partition(fld, n))[1]}
    assert failing() == set()
    caught = {}
    # the element 1 relabelled -1, so the f_j miss it; J reads no pair
    # through 1 (its partner would be 0), so closed_sigmas still computes
    caught["relabel"] = failing(unlabelled_one(fld, n))
    # a closed-form sigma (sigma2 for n = 2, sigma3 for n = 3) plus X^0
    with monkeypatch.context() as mp:
        mp.setattr(groupring, "exact_div", lambda v, k, what: exact_div(v, k, what) + x0)
        caught["sigma"] = failing()
    # f_0 f_1 off the pair table plus X^0
    with monkeypatch.context() as mp:
        def perturbed_pairs(field, part):
            table = pair_table(field, part).copy()
            table[0, 1] += x0
            return table
        mp.setattr(checks, "pair_table", perturbed_pairs)
        caught["pairs"] = failing()
    # a gr_mul product (Phi^2 for n = 2, (f_0 f_1) f_2 for n = 3) plus X^0
    with monkeypatch.context() as mp:
        def perturbed_product(a, b):
            out = groupring.gr_mul(a, b)
            out.coeffs[0] += 1
            return out
        mp.setattr(checks, "gr_mul", perturbed_product)
        caught["gr_mul"] = failing()
    last_sigma, sigma2, product = (
        ("sigma2_matches_product", "sigma2_matches_product", "phi_squared_equals_q_phi")
        if n == 2 else
        ("sigma3_matches_product", "sigma2_matches_pair_sum", "sigma3_matches_product"))
    expected = {"relabel": {"partition_identity", "sigma1_matches_sum"},
                "sigma": {last_sigma, *(f"residual_zero_at_f{j}" for j in range(n))},
                "pairs": {sigma2}, "gr_mul": {product}}
    for fault, turned in expected.items():
        assert turned <= caught[fault], fault
    assert set().union(*caught.values()) == names


# check names of the families that read the pair table that no fault can
# turn false, with the reason
UNREACHABLE = {
    "jacobi": {
        "norm_equals_q": "jacobi_cubic raises IdentityViolation on a norm"
                         " other than q before the family compares it",
        "j_plus_conj_rational": "z + conj z is rational for every z in Z[w]",
    },
}


def spot(name):
    """A spot check's name up to its sampled arguments: a_beta_at_{beta}
    and loop_oracle_at_beta_{beta}_i{i}_j{j} read a_beta_at_ and
    loop_oracle_at_; other names are left as they are."""
    return re.sub(r"_at_.*", "_at_", name)


def test_spot_checks_draw_pinned_points():
    # spot_draws reads only random.Random(seed).random(), whose sequence
    # Python keeps across versions; a change to the helper fails here
    # instead of silently renaming spot checks in the reports
    def spots(family, p, m, n):
        _, found, _ = getattr(checks, family)(get_field(p, m), get_partition(p, m, n))
        return [c.name for c in found if c.name != spot(c.name)]

    assert spots("rep_table", 13, 1, 2) == ["loop_oracle_at_beta_4_i1_j1",
                                            "loop_oracle_at_beta_11_i0_j0"]
    assert spots("sigma_chain", 13, 1, 2) == [
        "winterhof_counts_at_2", "shifted_moment_at_2",
        "winterhof_counts_at_9", "shifted_moment_at_9"]
    assert spots("jacobi", 2, 12, 3) == ["a_beta_at_1848", "a_beta_at_234"]
    # beta = 1 is a draw: the spot range starts at 1
    assert spots("rep_table", 31, 1, 2) == ["loop_oracle_at_beta_1_i0_j0",
                                            "loop_oracle_at_beta_21_i0_j0"]


@pytest.mark.parametrize("family,n,p,m", [
    ("rep_table", 2, 13, 1), ("rep_table", 3, 13, 1), ("sigma_chain", 2, 13, 1),
    ("sigma_chain", 3, 13, 1), ("jacobi", 3, 13, 1), ("jacobi", 3, 2, 4)])
def test_pair_table_families_catch_each_fault(monkeypatch, family, n, p, m):
    # every check name rep_table, sigma_chain and jacobi print is turned
    # false by one injected fault, or listed in UNREACHABLE
    fld, run = get_field(p, m), getattr(checks, family)

    def failing(part=None):
        # a fresh partition each time, so no memo carries a fault over
        _, found, _ = run(fld, part or partition(fld, n))
        return {spot(c.name) for c in found if not c.passed}

    def pairs_off_by_one(field, a, b):      # f_0 f_1 one too many everywhere
        out = convolve(field, a, b)
        out[0, 1] += 1
        return out

    def one_pair_too_many(field, part, gamma, sign=-1):
        h = label_pairs(field, part, gamma, sign)
        h[0, 0] += 1
        return h

    real_trace = FieldTable.trace_vec

    def trace_off_at_one(self):
        tr = real_trace(self).copy()
        tr[1] = (tr[1] + 1) % self.p
        return tr

    def swapped_cosets(mp):
        part = partition(fld, n)
        c0, c1, *rest = part.cosets
        return CosetPartition(fld, n, False, part.labels, (c1, c0, *rest))

    # each fault patches through mp, and may hand the family a partition
    faults = {
        # pair_table is the one caller of characters.convolve
        "pairs": lambda mp: mp.setattr(characters, "convolve", pairs_off_by_one),
        "loop_oracle": lambda mp: mp.setattr(
            checks, "brute_rep_count", lambda *args: brute_rep_count(*args) + 1),
        "swapped": swapped_cosets,
        "unlabelled_one": lambda mp: unlabelled_one(fld, n),
        # the enumeration behind char_sum_moment and winterhof_counts
        "label_pairs": lambda mp: mp.setattr(characters, "label_pairs",
                                             one_pair_too_many),
        # A(alpha) = conj(chi)(alpha) J: a unit times J, so its norm is still q
        "j_at_alpha": lambda mp: mp.setattr(
            checks, "jacobi_cubic", lambda field, part: a_beta(field, part, field.alpha)),
        "trace": lambda mp: mp.setattr(FieldTable, "trace_vec", trace_off_at_one),
    }
    char2 = fld.p == 2
    expected = {
        "rep_table": {
            "pairs": {"closed_equals_brute_all_beta", "table_symmetric_in_i_j",
                      "counts_sum_to_q_minus_2"},
            "loop_oracle": {"loop_oracle_at_"}},
        "sigma_chain": {
            "swapped": {"coset_0_dlog_mod_n"},
            "unlabelled_one": {"first_moment"},
            "pairs": {"sigma_chain_all_shifts", "winterhof_counts_at_"},
            "label_pairs": {"winterhof_counts_at_", "shifted_moment_at_"}},
        "jacobi": {
            "pairs": {"a_beta_identity_all_beta"},
            "j_at_alpha": {"matches_gauss_quotient", "a_beta_identity_all_beta",
                           "a_beta_at_", *(["char2_closed_form"] if char2 else [])},
            "trace": {"matches_gauss_quotient", "gauss_abs_square_equals_q",
                      *(["exact_gauss_equals_closed_form"] if char2 else [])}},
    }[family]
    names = {spot(c.name) for c in run(fld, partition(fld, n))[1]}
    assert failing() == set()
    caught = {}
    for fault, turned in expected.items():
        with monkeypatch.context() as mp:
            caught[fault] = failing(faults[fault](mp))
        assert turned <= caught[fault], fault
    unreachable = set(UNREACHABLE.get(family, {}))
    assert set().union(*caught.values()) == names - unreachable
    assert unreachable <= names


def off_by_one(module, name):
    """A fault: ``module.name`` answers one more than it should."""
    real = getattr(module, name)
    return lambda mp: mp.setattr(module, name, lambda *args: real(*args) + 1)


def field_fault(mutate):
    """A fault: the verb's field, freshly built, changed by ``mutate``."""
    def install(mp):
        def built(*args, **kwargs):
            fld = build_field(*args, **kwargs)
            mutate(fld)
            return fld
        mp.setattr(cli, "build_field", built)
    return install


def _alpha_one(fld):        # 1 generates only {1}
    fld.alpha = 1


def _dlog_repeated(fld):    # alpha^2 takes alpha's log: dlog is no bijection
    fld.dlog_table[fld.exp[2]] = 1


def _exp_swapped(fld):      # see test_field_tables_catch_a_frobenius_...
    fld.exp[[3, 4]] = fld.exp[[4, 3]]
    fld.dlog_table[fld.exp[[3, 4]]] = [3, 4]


def moved_to_coset_0(src):
    """A fault: the verb's partition built directly, with the first element
    of coset ``src`` moved to coset 0, in its labels and its cosets."""
    def install(mp):
        def built(fld, n, conjugate=False):
            part = partition(fld, n, conjugate)
            x, cosets, labels = part.cosets[src][0], list(part.cosets), part.labels.copy()
            labels[x] = 0
            cosets[0], cosets[src] = np.sort(np.append(cosets[0], x)), cosets[src][1:]
            return CosetPartition(fld, n, conjugate, labels, tuple(cosets))
        mp.setattr(cli, "partition", built)
    return install


def _gauss_scaled(mp):      # the numeric G off by a factor 1.001
    real = checks.gauss_sum
    mp.setattr(checks, "gauss_sum", lambda field, part: 1.001 * real(field, part))


# family, its keyword arguments, the verb that prints it, and for each fault
# the check names it turns false
FAMILY_FAULTS = {
    "field_tables-13": ("field_tables", {}, ["field-info", "--field", "13"], {
        "alpha": {"alpha_order_q_minus_1"},
        "dlog": {"dlog_bijection", "frobenius_additive"}}),
    "field_tables-2^4": ("field_tables", {}, ["field-info", "--field", "2^4"], {
        "alpha": {"alpha_order_q_minus_1"}, "dlog": {"dlog_bijection"},
        "exp": {"frobenius_additive"}}),
    "cosets-13": ("cosets", {}, ["partition", "--field", "13"], {
        "moved_1": {"coset_0_size", "coset_1_size", "coset_1_is_alpha^1_coset_0"}}),
    "cosets-13-n3": ("cosets", {}, ["partition", "--field", "13", "--n", "3"], {
        "moved_1": {"coset_0_size", "coset_1_size", "coset_1_is_alpha^1_coset_0",
                    "coset_2_is_alpha^2_coset_0"},
        "moved_2": {"coset_2_size"}}),
    "zero_sum-13": ("zero_sum", {}, ["repcount", "--field", "13"], {
        "closed": {f"zero_sum_count_i{i}_j{j}" for i in range(2) for j in range(2)}}),
    "zero_sum-7^2": ("zero_sum", {}, ["repcount", "--field", "7^2", "--n", "3"], {
        "closed": {f"zero_sum_count_i{i}_j{j}" for i in range(3) for j in range(3)}}),
    "perron-13": ("perron", {}, ["repcount", "--field", "13"], {
        "class_table": {"qr_as_two_qr", "qr_as_two_nonres", "nonres_as_two_nonres",
                        "nonres_as_two_qr"},
        "loop_oracle": {"qr_as_two_qr_matches_brute", "qr_as_two_nonres_matches_brute",
                        "nonres_as_two_nonres_matches_brute",
                        "nonres_as_two_qr_matches_brute"}}),
    "rep_query-beta-0": (
        "rep_query", {"beta": 0, "i": 1, "j": 1},
        ["repcount", "--field", "3^2", "--beta", "0", "--i", "1", "--j", "1"], {
            "loop_oracle": {"closed_equals_brute"},
            "closed": {"closed_equals_brute"}}),
    "rep_query-beta-5": (
        "rep_query", {"beta": 5, "i": 1, "j": 2},
        ["repcount", "--field", "13", "--n", "3", "--beta", "5", "--i", "1",
         "--j", "2"], {
            "loop_oracle": {"closed_equals_brute"},
            "closed": {"closed_equals_brute"}}),
    "gauss-2^4": ("gauss", {}, ["gauss", "--field", "2^4", "--n", "3"], {
        "gauss_scaled": {"abs_square_equals_q", "exact_matches_numeric"},
        "exact_gauss": {"exact_matches_numeric"}}),
    "gauss-13": ("gauss", {}, ["gauss", "--field", "13"], {
        "gauss_scaled": {"abs_square_equals_q"}}),
    "duality-13": ("duality", {}, ["duality", "--field", "13"], {
        "shift_count": {"witness_reproduces_max"},
        "triple_counts": {"reduction_matches_row_counts"},
        "class_table_max": {"duality_holds"},
        "closed_form": {"closed_form_matches"}}),
    "shift-t3": ("shift", {"t": 3}, ["shift", "--field", "13", "--t", "3"], {
        "shift_count": {"witness_reproduces_max"},
        "closed_form": {"closed_form_matches"}}),
    "shift-t4": ("shift", {"t": 4}, ["shift", "--field", "13", "--t", "4"], {
        "shift_count": {"witness_reproduces_max"},
        "orbit_map": {"reduction_matches_row_counts"}}),
}


@pytest.mark.parametrize("case", sorted(FAMILY_FAULTS))
def test_families_catch_each_fault_through_main(capsys, monkeypatch, case):
    # every check name field_tables, cosets, zero_sum, perron, rep_query,
    # gauss, duality and shift print is turned false by one injected fault, with
    # exit 2 from main, or listed in UNREACHABLE
    family, kwargs, argv, expected = FAMILY_FAULTS[case]
    faults = {
        "alpha": field_fault(_alpha_one), "dlog": field_fault(_dlog_repeated),
        "exp": field_fault(_exp_swapped),
        "moved_1": moved_to_coset_0(1), "moved_2": moved_to_coset_0(2),
        # the closed form and the enumeration oracle, at every beta, 0 included
        "closed": off_by_one(checks, "closed_rep_count"),
        "loop_oracle": off_by_one(checks, "brute_rep_count"),
        # the class table perron_table reads, and the one max R reads
        "class_table": off_by_one(repcount, "closed_rep_class_table"),
        "class_table_max": off_by_one(checks, "closed_rep_class_table"),
        "gauss_scaled": _gauss_scaled,
        "exact_gauss": off_by_one(checks, "exact_gauss_sum"),
        "shift_count": off_by_one(checks, "shift_count"),
        "triple_counts": off_by_one(shiftcount, "triple_counts"),
        # the map M2(d3, .) is read through: g(x) + 1 for g(x)
        "orbit_map": lambda mp: mp.setattr(
            shiftcount, "orbit_map",
            lambda field, *args: field.add_vec(1, orbit_map(field, *args))),
        "closed_form": off_by_one(checks, "closed_form_max3"),
    }
    spec, n = argv[2], (int(argv[argv.index("--n") + 1]) if "--n" in argv else 2)
    fld = build_field(*parse_field_spec(spec)[:2])
    part = None if family == "field_tables" else partition(fld, n)
    names = {spot(c.name) for c in getattr(checks, family)(fld, part, **kwargs)[1]}

    def failing():
        code, report, _ = run_json(capsys, *argv)
        return code, {spot(c["name"]) for c in report["checks"] if not c["pass"]}

    assert failing() == (0, set())
    caught = set()
    for fault, turned in expected.items():
        with monkeypatch.context() as mp:
            faults[fault](mp)
            code, failed = failing()
        assert code == 2 and turned <= failed, fault
        caught |= failed & names
    unreachable = set(UNREACHABLE.get(family, {}))
    assert caught == names - unreachable
    assert unreachable <= names


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
    # G(chi) feeds the quotient and the |G|^2 check; G(conj chi) reads the
    # same partition's labels and calls no gauss_sum
    gauss = count_calls(monkeypatch, "gauss_sum")
    assert run_cli(capsys, "jacobi", "--field", "7")[0] == 0
    assert [args[1].conjugate for args in gauss] == [False]


def test_tables_and_charpoly_run_above_4096(capsys):
    for argv in (("repcount", "--field", "4099", "--n", "3"),
                 ("charpoly", "--field", "4099", "--n", "3")):
        code, report, _ = run_json(capsys, *argv)
        assert code == 0 and all(c["pass"] for c in report["checks"])


def test_field_without_the_character_is_a_usage_error(capsys):
    # no character of the order asked for is bad input, not a failed check
    for argv, message in (
            (("jacobi", "--field", "2^3"),
             "no character of order 3 exists over F_2^3 (q - 1 = 7)"),
            (("partition", "--field", "2^4", "--n", "2"),
             "no character of order 2 exists over F_2^4 (q - 1 = 15)"),
            (("repcount", "--field", "2^2", "--n", "2"),
             "no character of order 2 exists over F_2^2 (q - 1 = 3)")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert f"usage error: {message}" in err


def test_size_cap_env(capsys, monkeypatch):
    # the cap is field.SIZE_CAP: the environment does not move it
    monkeypatch.delenv("CHARSUM_SIZE_CAP", raising=False)
    calls = (("field-info", "--field", "11^2"),
             ("verify", "--scope", "all", "--q-max", "7", "--threads", "1"))
    clean = [run_cli(capsys, *argv)[:2] for argv in calls]
    assert [code for code, _ in clean] == [0, 0]
    for value in ("70000", "100", "5", "abc"):
        monkeypatch.setenv("CHARSUM_SIZE_CAP", value)
        code, out, err = run_cli(capsys, "field-info", "--field", "65537")
        assert (code, out) == (1, ""), value
        assert "usage error: q = 65537 exceeds the size cap 65536" in err
        assert [run_cli(capsys, *argv)[:2] for argv in calls] == clean, value
        code, out, err = run_cli(capsys, "verify", "--q-max", "65537")
        assert (code, out) == (1, ""), value
        assert "usage error: --q-max must lie in [7, 65536] for --scope all" in err


@pytest.mark.parametrize("spec", ["abc", "2^", "7:1,x", "^3", "2^3^4", "3^2:", ""])
def test_bad_field_spec_is_named(capsys, spec):
    code, out, err = run_cli(capsys, "field-info", "--field", spec)
    assert code == 1 and out == ""
    assert (f"usage error: field spec {spec!r} is not p, p^m or"
            " p^m:c0,c1,...,cm") in err


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
