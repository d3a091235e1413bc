"""Command-line front end.

Verbs: field-info, partition, repcount, jacobi, gauss, charpoly, shift,
duality, verify.  Every verb but verify runs check families of
``checks.py`` on one field, as its row of ``VERBS`` names them; verify
runs the sweeps of ``verify.py``.  Output is a JSON report on stdout (CSV
for flat tables with --csv); elapsed time goes to stderr so stdout stays
byte-identical across runs.  Exit codes: 0 all checks pass, 1 usage
error, 2 at least one failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import time
from functools import partial

from . import checks, registry
from .characters import partition
from .checks import equal
from .errors import IdentityViolation
from .field import (SIZE_CAP, FieldTable, build_field, field_label,
                    field_order, parse_field_spec)
from . import verify as verify_mod

SCOPES = ("all", *dict.fromkeys(sw.scope for sw in verify_mod.SWEEPS.values()))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="charsum", description=__doc__)
    sub = parser.add_subparsers(dest="verb", metavar="verb")

    def add(name, help_, n=False, conjugate=False):
        sp = sub.add_parser(name, help=help_)
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


def _field_meta(field: FieldTable) -> dict:
    return {
        "p": field.p,
        "m": field.m,
        "q": field.q,
        "modulus": list(field.spec.modulus),
        "alpha": field.alpha,
        "alpha_poly": field.poly_str(field.alpha),
    }


def _repcount(a):
    """The query --beta names, else the table.  Both refuse a coset index
    outside [0, n), and the query a --beta outside the field, before the
    field is built."""
    for name in ("i", "j"):
        if not 0 <= getattr(a, name) < a.n:
            raise _UsageError(f"--{name} must lie in [0, {a.n}) for --n {a.n}")
    if a.beta is None:
        return a.n, [checks.rep_table, checks.zero_sum, checks.perron]
    p, m, _ = parse_field_spec(a.field)
    q = field_order(p, m)
    if not 0 <= a.beta < q:
        raise _UsageError(f"--beta must lie in [0, {q}) for F_{field_label(p, m)}")
    return a.n, [partial(checks.rep_query, beta=a.beta, i=a.i, j=a.j)]


# verb -> (the character order of its partition, None for none; the check
# families that make its report), from the parsed arguments
VERBS = {
    "field-info": lambda a: (None, [checks.field_tables]),
    "partition": lambda a: (a.n, [checks.cosets]),
    "repcount": _repcount,
    "jacobi": lambda a: (3, [checks.jacobi]),
    "gauss": lambda a: (a.n, [checks.gauss]),
    "charpoly": lambda a: (a.n, [checks.charpoly]),
    "shift": lambda a: (a.n, [partial(checks.shift, t=a.t)]),
    "duality": lambda a: (a.n, [checks.duality]),
}


def _run_families(args):
    """Call each family of the verb once on the field and partition; their
    results and checks make the report.  A field none of them can check is a
    usage error."""
    n, families = VERBS[args.verb](args)
    p, m, modulus = parse_field_spec(args.field)
    fld = build_field(p, m, modulus=modulus)
    part = partition(fld, n, conjugate=args.conjugate) if n else None
    results, found, notes = {}, [], []
    for family in families:
        res, chk, note = family(fld, part)
        results.update(res)
        found += chk
        notes += note
    if not found:
        raise _UsageError("nothing to check: " + "; ".join(notes))
    return results, found, fld


@registry.op
def run(args):
    # --scope all must reach every op (op_coverage), and the shift-count
    # ops need a 3-element coset: F_7 has the first
    low = 7 if args.scope == "all" else 3
    if not low <= args.q_max <= SIZE_CAP:
        raise _UsageError(f"--q-max must lie in [{low}, {SIZE_CAP}]"
                          f" for --scope {args.scope}")
    if args.threads < 0:
        raise _UsageError("--threads must be 0 (the CPU count) or more")
    threads = args.threads or os.cpu_count() or 1
    verify_mod.cached_field.cache_clear()
    sweeps = verify_mod.run_scope(args.scope, args.q_max, threads)
    found = [equal(f"{sw.name}_failures", 0, len(sw.failures)) for sw in sweeps]
    if args.scope == "all":
        missing = sorted(registry.ALL_OPS - registry.called())
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


def _emit_csv(args, results, rendered) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    if "classes" in results:
        writer.writerow(["beta_label", "i", "j", "count"])
        for row in results["classes"]:
            writer.writerow([row["beta_label"], row["i"], row["j"], row["count"]])
        writer.writerows([key, "", "", value]
                         for key, value in results.items() if key != "classes")
    else:
        writer.writerow(["name", "expected", "actual", "pass"])
        writer.writerows(c.values() for c in rendered)
    return buf.getvalue()


def main(argv=None) -> int:
    registry.reset()
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
    try:
        results, found, fld = (run if args.verb == "verify"
                               else _run_families)(args)
    except IdentityViolation as exc:
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
