"""Command-line front end.

Verbs: field-info, partition, repcount, jacobi, gauss, charpoly, shift,
duality, verify.  Output is a JSON report on stdout (CSV for flat tables
with --csv); elapsed time goes to stderr so stdout stays byte-identical
across runs.  Exit codes: 0 all checks pass, 1 usage error, 2 at least
one failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import checks, registry
from .characters import partition
from .checks import GAUSS_ABS_REL_TOL, equal, holds
from .cyclotomic import gauss_sum, jacobi_cubic, jacobi_from_gauss
from .errors import IdentityViolation, UnsupportedCharacterError
from .field import (DEFAULT_SIZE_CAP, FieldTable, build_field,
                    parse_field_spec, prime_factors)
from .groupring import cubic_sigma, quadratic_sigma
from .repcount import closed_rep_class_table, perron_table, rep_count
from .shiftcount import closed_form_max3, max_shift_count, shift_count, verify_duality
from . import verify as verify_mod

SCOPES = ("all", "repcount", "charpoly", "sums", "duality")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="charsum", description=__doc__)
    sub = parser.add_subparsers(dest="verb", metavar="verb")

    def add(name, help_, field=True, n=False, conjugate=False):
        sp = sub.add_parser(name, help=help_)
        if field:
            sp.add_argument("--field", required=True,
                            help="field spec: p, p^m, or p^m:c0,c1,...,cm")
        if n:
            sp.add_argument("--n", type=int, choices=(2, 3), default=2,
                            help="character order (default 2)")
        if conjugate:
            sp.add_argument("--conjugate", action="store_true",
                            help="use the conjugate cubic character")
        return sp

    add("field-info", "construct a field and report its canonical tables")
    add("partition", "coset partition of the multiplicative group",
        n=True, conjugate=True)
    sp = add("repcount", "representation counts by coset pair",
             n=True, conjugate=True)
    sp.add_argument("--beta", type=int, help="target element index")
    sp.add_argument("--i", type=int, default=0, help="coset of the second summand")
    sp.add_argument("--j", type=int, default=0, help="coset of the first summand")
    sp.add_argument("--csv", action="store_true", help="flat CSV instead of JSON")
    add("jacobi", "exact cubic Jacobi sum and its identities", conjugate=True)
    add("gauss", "Gauss sums (exact in characteristic 2, numeric otherwise)",
        n=True, conjugate=True)
    add("charpoly", "characteristic-function equation coefficients",
        n=True, conjugate=True)
    sp = add("shift", "maximal shift count over same-coset subsets",
             n=True, conjugate=True)
    sp.add_argument("--t", type=int, default=3, help="subset size (default 3)")
    add("duality", "max representation count vs 1 + max shift count",
        n=True, conjugate=True)
    sp = sub.add_parser("verify", help="exhaustive identity sweeps")
    sp.add_argument("--scope", choices=SCOPES, default="all")
    sp.add_argument("--q-max", type=int, default=200, dest="q_max")
    sp.add_argument("--threads", type=int, default=0,
                    help="parallel workers (default: CPU count)")
    return parser


def _size_cap() -> int:
    return int(os.environ.get("CHARSUM_SIZE_CAP", DEFAULT_SIZE_CAP))


def _get_field(args) -> FieldTable:
    p, m, modulus = parse_field_spec(args.field)
    return build_field(p, m, modulus=modulus, size_cap=_size_cap())


def _field_part(args, n):
    fld = _get_field(args)
    return fld, partition(fld, n, conjugate=args.conjugate)


def _field_meta(field: FieldTable) -> dict:
    return {
        "p": field.p,
        "m": field.m,
        "q": field.q,
        "modulus": list(field.spec.modulus),
        "alpha": field.alpha,
        "alpha_poly": field.poly_str(field.alpha),
    }


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _sigma_json(sig) -> dict:
    """Compact form: every sigma here is uniform away from the origin."""
    coeffs = sig.coeffs
    body = {"coeff_at_zero": int(coeffs[0])}
    rest = coeffs[1:]
    if sig.field.q > 1 and np.all(rest == rest[0]):
        body["coeff_elsewhere"] = int(rest[0])
    if sig.field.q <= 64:
        body["coeffs"] = sig.to_json()
    return body


# ---------------------------------------------------------------------------
# verb runners: each returns (results_dict, list[Check], field_or_None)

def _run_field_info(args):
    fld = _get_field(args)
    order_ok = fld.q == 2 or (
        fld.pow_(fld.alpha, fld.q - 1) == 1
        and all(fld.pow_(fld.alpha, (fld.q - 1) // ell) != 1
                for ell in prime_factors(fld.q - 1)))
    found = [
        holds("alpha_order_q_minus_1", order_ok),
        equal("dlog_bijection", fld.q - 1,
              len(set(int(h) for h in fld.dlog_table if h >= 0))),
    ]
    rng = np.random.default_rng(0)
    frob_ok = True
    for _ in range(50):
        x, y = (int(v) for v in rng.integers(0, fld.q, 2))
        lhs = fld.pow_(fld.add(x, y), fld.p) if fld.add(x, y) else 0
        rhs = fld.add(fld.pow_(x, fld.p) if x else 0,
                      fld.pow_(y, fld.p) if y else 0)
        frob_ok = frob_ok and lhs == rhs
    found.append(holds("frobenius_additive", frob_ok))
    return {"element_count": fld.q}, found, fld


def _run_partition(args):
    fld, part = _field_part(args, args.n)
    size = (fld.q - 1) // args.n
    found = [equal(f"coset_{j}_size", size, int(len(part.cosets[j])))
             for j in range(args.n)]
    # coset_j must be alpha^j * coset_0 elementwise
    base = part.cosets[0]
    for j in range(1, args.n):
        scale = fld.pow_(fld.alpha, j if not part.conjugate else -j)
        mapped = np.sort(fld.mul_vec(scale, base))
        found.append(holds(f"coset_{j}_is_alpha^{j}_coset_0",
                           np.array_equal(mapped, part.cosets[j])))
    results = {"n": args.n, "conjugate": args.conjugate,
               "cosets": [[int(x) for x in part.cosets[j]]
                          for j in range(args.n)] if fld.q <= 512 else
               {"sizes": [int(len(c)) for c in part.cosets]}}
    return results, found, fld


def _run_repcount(args):
    fld, part = _field_part(args, args.n)
    if args.beta is not None:
        if not 0 <= args.beta < fld.q:
            raise _UsageError(f"--beta must lie in [0, {fld.q})")
        if not (0 <= args.i < args.n and 0 <= args.j < args.n):
            raise _UsageError("coset indices must lie in [0, n)")
        closed = rep_count(fld, part, args.beta, args.i, args.j, "closed-form")
        brute = rep_count(fld, part, args.beta, args.i, args.j, "brute-force")
        results = {"query": closed.to_json(), "brute_force": brute.count}
        return results, [equal("closed_equals_brute", brute.count, closed.count)], fld
    closed = closed_rep_class_table(fld, part)
    results = {"classes": [
        {"beta_label": c, "i": i, "j": j, "count": int(closed[c, i, j])}
        for c in range(args.n) for i in range(args.n) for j in range(args.n)]}
    found = checks.rep_table(fld, part) + checks.zero_sum(fld, part)
    if args.n == 2 and fld.m == 1:
        results.update(perron_table(fld.p))
        found += checks.perron(fld, part)
    return results, found, fld


def _run_jacobi(args):
    fld, part = _field_part(args, 3)
    jac = jacobi_cubic(fld, part)
    results = {"jacobi": jac.to_json(),
               "jacobi_plus_conj": (jac + jac.conj()).a,
               "gauss_quotient_numeric": _complex_json(
                   jacobi_from_gauss(fld, conjugate=args.conjugate))}
    return results, checks.jacobi(fld, part), fld


def _run_gauss(args):
    fld = _get_field(args)
    g_num = gauss_sum(fld, args.n, mode="numeric", conjugate=args.conjugate)
    found = [holds("abs_square_equals_q",
                   abs(abs(g_num) ** 2 - fld.q) <= GAUSS_ABS_REL_TOL * fld.q,
                   f"|G|^2 = {abs(g_num) ** 2:.12g}")]
    results = {"n": args.n, "numeric": _complex_json(g_num)}
    if fld.p == 2:
        g_exact = gauss_sum(fld, args.n, mode="exact", conjugate=args.conjugate)
        results["exact"] = g_exact.to_json()
        found.append(holds("exact_matches_numeric",
                           abs(g_exact.to_complex() - g_num) < 1e-6))
    return results, found, fld


def _run_charpoly(args):
    fld, part = _field_part(args, args.n)
    jac = jacobi_cubic(fld, part) if args.n == 3 else None
    sigmas = quadratic_sigma(fld, part) if jac is None else cubic_sigma(fld, part, jac)
    results = {"n": args.n,
               **{f"sigma{k}": _sigma_json(s) for k, s in enumerate(sigmas, 1)}}
    if jac is not None:
        results["jacobi"] = jac.to_json()
    return results, checks.charpoly(fld, part), fld


def _run_shift(args):
    fld, part = _field_part(args, args.n)
    coset_size = (fld.q - 1) // args.n
    if args.t < 1:
        raise _UsageError("--t must be positive")
    if coset_size < args.t:
        raise _UsageError(f"coset size {coset_size} < t = {args.t}")
    if math.comb(coset_size, args.t) * fld.q > 2e10:
        raise _UsageError("subset search too large; reduce --t or the field")
    max_n, witness = max_shift_count(fld, part, args.t)
    found = [equal("witness_reproduces_max", max_n,
                   shift_count(fld, part, witness))]
    results = {"n": args.n, "t": args.t, "max_N": max_n,
               "witness": [int(e) for e in witness]}
    if args.t == 3:
        try:
            closed = closed_form_max3(fld, args.n)
            results["closed_form_1_plus_max"] = closed
            found.append(equal("closed_form_matches", closed, 1 + max_n))
        except ValueError:
            results["closed_form_1_plus_max"] = None
    return results, found, fld


def _run_duality(args):
    fld, part = _field_part(args, args.n)
    report = verify_duality(fld, args.n, part)
    found = [holds("duality_holds", report.holds,
                   f"max_R = {report.max_rep}, "
                   f"1 + max_N3 = {1 + report.max_shift3}")]
    if report.closed_form is not None:
        found.append(equal("closed_form_matches", report.closed_form,
                           1 + report.max_shift3))
    return report.to_json(), found, fld


def _run_verify(args):
    cap = _size_cap()
    if not 3 <= args.q_max <= cap:
        raise _UsageError(f"--q-max must lie in [3, {cap}]")
    threads = args.threads if args.threads > 0 else (os.cpu_count() or 1)
    registry.reset()
    verify_mod.cached_field.cache_clear()
    registry.mark("run")
    registry.mark("verify_suite")
    sweeps = verify_mod.run_scope(args.scope, args.q_max, threads)
    found = [equal(f"{sw.name}_failures", 0, len(sw.failures)) for sw in sweeps]
    if args.scope == "all":
        missing = sorted(registry.missing())
        found.append(equal("op_coverage",
                           f"{len(registry.ALL_OPS)} ops invoked",
                           f"{len(registry.ALL_OPS) - len(missing)} ops invoked"
                           + (f", missing: {missing}" if missing else "")))
    results = {
        "scope": args.scope,
        "q_max": args.q_max,
        "fields_checked": sum(sw.fields for sw in sweeps),
        "assertions": sum(sw.assertions for sw in sweeps),
        "sweeps": [sw.to_json() for sw in sweeps],
    }
    return results, found, None


_RUNNERS = {
    "field-info": _run_field_info,
    "partition": _run_partition,
    "repcount": _run_repcount,
    "jacobi": _run_jacobi,
    "gauss": _run_gauss,
    "charpoly": _run_charpoly,
    "shift": _run_shift,
    "duality": _run_duality,
    "verify": _run_verify,
}


def _emit_csv(args, results, rendered) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    if args.verb == "repcount" and "classes" in results:
        writer.writerow(["beta_label", "i", "j", "count"])
        for row in results["classes"]:
            writer.writerow([row["beta_label"], row["i"], row["j"], row["count"]])
        for key in ("qr_as_two_qr", "qr_as_two_nonres",
                    "nonres_as_two_qr", "nonres_as_two_nonres"):
            if key in results:
                writer.writerow([key, "", "", results[key]])
    else:
        writer.writerow(["name", "expected", "actual", "pass"])
        writer.writerows(c.values() for c in rendered)
    return buf.getvalue()


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if args.verb is None:
        parser.print_usage(sys.stderr)
        return 1
    start = time.perf_counter()
    registry.mark("run")
    try:
        results, found, fld = _RUNNERS[args.verb](args)
    except (UnsupportedCharacterError, IdentityViolation) as exc:
        results, found, fld = {}, [checks.violation(exc)], None
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    rendered = [c.to_json() for c in found]
    if getattr(args, "csv", False) and results:     # error reports stay JSON
        text = _emit_csv(args, results, rendered)
    else:
        text = json.dumps({
            "command": {"verb": args.verb, **_command_echo(args)},
            "field": _field_meta(fld) if fld is not None else None,
            "results": results,
            "checks": rendered,
        }, indent=2) + "\n"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:     # the reader left early (``| head``): send the
        with contextlib.suppress(OSError, ValueError):    # exit flush nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print(f"elapsed_ms={int((time.perf_counter() - start) * 1000)}",
          file=sys.stderr)
    return 0 if all(c.passed for c in found) else 2


def _command_echo(args) -> dict:
    skip = {"verb"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


if __name__ == "__main__":
    sys.exit(main())
