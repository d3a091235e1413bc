"""Exhaustive verification sweeps over ranges of prime powers.

Each sweep iterates every valid field in its scope, runs one family of
checks from ``charsum.checks`` on it, and aggregates failures.  The per
field workers are top-level functions taking one tuple argument so the
CLI can fan them out over a process pool; results merge by input order,
which keeps reports byte-identical regardless of worker count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

from . import checks, registry
from .characters import character_exists, partition
from .checks import Check, equal, holds, violation
from .errors import IdentityViolation
from .field import build_field, prime_powers
from .shiftcount import closed_form_max3, max_shift_count, shift_count, verify_duality


@functools.lru_cache(maxsize=24)
def cached_field(p: int, m: int):
    return build_field(p, m)


@dataclass
class SweepResult:
    name: str
    fields: int = 0
    assertions: int = 0
    failures: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"name": self.name, "fields": self.fields,
                "assertions": self.assertions,
                "failures": self.failures[:50],
                "failure_count": len(self.failures),
                "notes": self.notes}


def quadratic_fields(q_max: int, q_min: int = 3) -> list[tuple[int, int]]:
    return [(p, m) for p, m, q in prime_powers(q_max, q_min) if p != 2]


def cubic_fields(q_max: int, q_min: int = 4) -> list[tuple[int, int]]:
    return [(p, m) for p, m, q in prime_powers(q_max, q_min)
            if character_exists(p, m, 3)]


def _both_orders(n2_fields, n3_fields) -> list[tuple[int, int, int]]:
    """(p, m, n) for both character orders, ordered by q, then n."""
    items = [(p, m, 2) for p, m in n2_fields] + [(p, m, 3) for p, m in n3_fields]
    return sorted(items, key=lambda t: (t[0] ** t[1], t[2]))


def _tag(p, m, n) -> str:
    return (f"F_{p}" if m == 1 else f"F_{p}^{m}") + f" n={n}"


# ---------------------------------------------------------------------------
# per-field workers

def _tally(p, m, n, found: list[Check], notes=()) -> dict:
    """One field's checks as assertions, failure lines and notes."""
    tag = _tag(p, m, n)
    return {"assertions": sum(c.count for c in found),
            "failures": [f"{tag}: {c.name}: expected {c.expected}, got {c.actual}"
                         for c in found if not c.passed],
            "notes": [f"{tag}: {note}" for note in notes],
            "ops": registry.called()}


def _family_worker(args):
    """One family's checks on one field.  An IdentityViolation becomes a
    failed check of this field, so the rest of the sweep is still reported."""
    family, p, m, n = args
    fld = cached_field(p, m)
    try:
        found = family(fld, partition(fld, n))
    except IdentityViolation as exc:
        found = [violation(exc)]
    return _tally(p, m, n, found)


def _duality_checks(fld, part) -> tuple[list[Check], list[str]]:
    """Exhaustive max N(3) against its witness, its closed form and the
    duality, plus notes on what could not be checked."""
    if len(part.cosets[0]) < 3:
        return [], ["coset smaller than 3, skipped"]
    max_n3, witness = max_shift_count(fld, part, 3)
    found = [equal("witness_reproduces_max", max_n3, shift_count(fld, part, witness))]
    notes = []
    try:
        found.append(equal("closed_form_matches", closed_form_max3(fld, part.n),
                           1 + max_n3))
    except ValueError:
        notes.append(f"no closed form stated for this case (exhaustive max N = {max_n3})")
    report = verify_duality(fld, part.n, part)
    found.append(equal("duality_recomputes_max_N3", max_n3, report.max_shift3))
    found.append(holds("duality_holds", report.holds,
                       f"max_R = {report.max_rep}, 1 + max_N3 = {1 + report.max_shift3}"))
    return found, notes


def _duality_worker(args):
    p, m, n = args
    fld = cached_field(p, m)
    try:
        found, notes = _duality_checks(fld, partition(fld, n))
    except IdentityViolation as exc:
        found, notes = [violation(exc)], []
    return _tally(p, m, n, found, notes)


# ---------------------------------------------------------------------------
# sweep drivers

def _pmap(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


def _aggregate(name: str, outcomes) -> SweepResult:
    res = SweepResult(name)
    for oc in outcomes:
        res.fields += 1
        res.assertions += oc["assertions"]
        res.failures.extend(oc["failures"])
        res.notes.extend(oc["notes"])
        registry.merge(oc.get("ops", ()))
    return res


def _sweep(name: str, family, items, threads: int) -> SweepResult:
    return _aggregate(name, _pmap(_family_worker,
                                  [(family, *it) for it in items], threads))


def sweep_quadratic_counts(q_max: int, threads: int = 1) -> SweepResult:
    return _sweep("quadratic_rep_counts", checks.rep_table,
                  [(p, m, 2) for p, m in quadratic_fields(q_max)], threads)


def sweep_cubic_counts(q_max: int, threads: int = 1) -> SweepResult:
    return _sweep("cubic_rep_counts", checks.rep_table,
                  [(p, m, 3) for p, m in cubic_fields(q_max)], threads)


def sweep_perron(p_max: int, threads: int = 1) -> SweepResult:
    items = [(p, 1, 2) for p, m, q in prime_powers(p_max, 3) if m == 1 and p != 2]
    return _sweep("prime_field_counts", checks.perron, items, threads)


def sweep_zero_sums(q_max: int, threads: int = 1) -> SweepResult:
    items = _both_orders(quadratic_fields(q_max), cubic_fields(q_max))
    res = _sweep("zero_sum_counts", checks.zero_sum, items, threads)
    res.notes = [f"{_tag(p, m, n)}: nonzero cells are (q-1)/{n} = {(p ** m - 1) // n}, "
                 f"not the prime-field-literal (p-1)/{n} = {(p - 1) // n}"
                 for p, m, n in items if m > 1]
    return res


def sweep_winterhof(q_max: int, threads: int = 1) -> SweepResult:
    return _sweep("character_sums", checks.sigma_chain,
                  _both_orders(quadratic_fields(q_max), cubic_fields(q_max)), threads)


def sweep_jacobi_gauss(q_max: int, threads: int = 1) -> SweepResult:
    return _sweep("jacobi_gauss", checks.jacobi,
                  [(p, m, 3) for p, m in cubic_fields(q_max)], threads)


def sweep_quadratic_charpoly(q_max: int, threads: int = 1) -> SweepResult:
    return _sweep("quadratic_charpoly", checks.charpoly,
                  [(p, m, 2) for p, m in quadratic_fields(q_max)], threads)


def sweep_cubic_charpoly(q_max: int, threads: int = 1) -> SweepResult:
    return _sweep("cubic_charpoly", checks.charpoly,
                  [(p, m, 3) for p, m in cubic_fields(q_max)], threads)


def sweep_duality(n2_fields, n3_fields, threads: int = 1) -> SweepResult:
    return _aggregate("shift_duality", _pmap(
        _duality_worker, _both_orders(n2_fields, n3_fields), threads))


# scope -> sweeps, with the ceilings used by `--scope all`
HEAVY_Q_CEILING = 343


def run_scope(scope: str, q_max: int, threads: int = 1) -> list[SweepResult]:
    heavy = min(q_max, HEAVY_Q_CEILING) if scope == "all" else q_max
    results = []
    if scope in ("repcount", "all"):
        results.append(sweep_quadratic_counts(q_max, threads))
        results.append(sweep_cubic_counts(q_max, threads))
        results.append(sweep_zero_sums(q_max, threads))
        results.append(sweep_perron(min(q_max, 200), threads))
    if scope in ("sums", "all"):
        results.append(sweep_winterhof(q_max, threads))
        results.append(sweep_jacobi_gauss(q_max, threads))
    if scope in ("charpoly", "all"):
        results.append(sweep_quadratic_charpoly(heavy, threads))
        results.append(sweep_cubic_charpoly(heavy, threads))
    if scope in ("duality", "all"):
        # fields whose cosets are smaller than 3 stay in: the worker
        # reports them as explicit skips instead of silently dropping them
        results.append(sweep_duality(quadratic_fields(heavy), cubic_fields(heavy),
                                     threads))
    if not results:
        raise ValueError(f"unknown scope {scope!r}")
    return results
