"""Exhaustive verification sweeps over ranges of prime powers.

A sweep runs one family of checks from ``charsum.checks`` on every field
of its range; ``SWEEPS`` names each sweep's family and fields.  Sweeps run
field-major: one worker per distinct field builds it once, builds one
partition per character order and runs every (sweep, n) job on it, so the
tables several families read are computed once per partition
(``characters.memo``).  The worker is a top-level function taking one
tuple argument so the CLI can fan it out over a process pool; the parent
regroups the outcomes per sweep in input order, which keeps reports
byte-identical regardless of worker count.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple

from . import checks, registry
from .characters import character_exists, partition
from .checks import violation
from .errors import IdentityViolation
from .field import build_field, prime_powers


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


def character_fields(q_max: int, orders=(2, 3)) -> list[tuple[int, int, int]]:
    """(p, m, n) for each 3 <= q = p^m <= q_max and each order n of a
    character on F_q, ordered by q, then n."""
    return [(p, m, n) for p, m, _ in prime_powers(q_max, 3) for n in orders
            if character_exists(p, m, n)]


def _tag(p, m, n) -> str:
    return (f"F_{p}" if m == 1 else f"F_{p}^{m}") + f" n={n}"


# ---------------------------------------------------------------------------
# the sweeps

class Sweep(NamedTuple):
    scope: str
    family: str         # a family of charsum.checks, looked up per job
    fields: Callable    # q_max -> its (p, m, n) items, in report order


SWEEPS = {
    "quadratic_rep_counts": Sweep("repcount", "rep_table",
                                  lambda q: character_fields(q, (2,))),
    "cubic_rep_counts": Sweep("repcount", "rep_table",
                              lambda q: character_fields(q, (3,))),
    "zero_sum_counts": Sweep("repcount", "zero_sum", character_fields),
    "prime_field_counts": Sweep("repcount", "perron", lambda q: [
        (p, m, n) for p, m, n in character_fields(min(q, 200), (2,)) if m == 1]),
    "character_sums": Sweep("sums", "sigma_chain", character_fields),
    "jacobi_gauss": Sweep("sums", "jacobi", lambda q: character_fields(q, (3,))),
    "quadratic_charpoly": Sweep("charpoly", "charpoly",
                                lambda q: character_fields(q, (2,))),
    "cubic_charpoly": Sweep("charpoly", "charpoly",
                            lambda q: character_fields(q, (3,))),
    # fields whose cosets are smaller than 3 stay in: the family reports
    # them as explicit skips instead of silently dropping them
    "shift_duality": Sweep("duality", "duality", character_fields),
}


# ---------------------------------------------------------------------------
# the per-field worker

def _field_worker(args):
    """Every (sweep, n) job of one field as assertions, failure lines and
    notes.  An IdentityViolation becomes a failed check of that job alone,
    so the field's other jobs and the rest of the sweep are still reported."""
    p, m, jobs = args
    fld = cached_field(p, m)
    parts, out = {}, []
    for name, n in jobs:
        try:
            if n not in parts:
                parts[n] = partition(fld, n)
            _, found, notes = getattr(checks, SWEEPS[name].family)(fld, parts[n])
        except IdentityViolation as exc:
            found, notes = [violation(exc)], []
        tag = _tag(p, m, n)
        out.append({"assertions": sum(c.count for c in found),
                    "failures": [f"{tag}: {c.name}: expected {c.expected}, "
                                 f"got {c.actual}" for c in found if not c.passed],
                    "notes": [f"{tag}: {note}" for note in notes]})
    return {"jobs": out, "ops": registry.called()}


# ---------------------------------------------------------------------------
# sweep drivers

def _pmap(fn, items, threads: int):
    # a fork-started pool launches all of its workers at the first submit, so
    # more than there are items or CPUs would only be processes left idle
    workers = min(threads, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def run_sweeps(jobs: dict, threads: int = 1) -> list[SweepResult]:
    """One result per sweep of ``jobs`` ({sweep name: (p, m, n) items}),
    in that order, each field in its sweep's item order.  One worker per
    distinct field, in q order, runs all of that field's jobs."""
    per_field: dict = {}
    for name, items in jobs.items():
        for p, m, n in items:
            per_field.setdefault((p, m), []).append((name, n))
    fields = sorted(per_field, key=lambda pm: pm[0] ** pm[1])
    done = {}
    for (p, m), oc in zip(fields, _pmap(
            _field_worker, [(p, m, per_field[p, m]) for p, m in fields], threads)):
        registry.merge(oc["ops"])
        for (name, n), job in zip(per_field[p, m], oc["jobs"]):
            done[name, p, m, n] = job
    results = []
    for name, items in jobs.items():
        res = SweepResult(name, fields=len(items))
        for p, m, n in items:
            job = done[name, p, m, n]
            res.assertions += job["assertions"]
            res.failures.extend(job["failures"])
            res.notes.extend(job["notes"])
        results.append(res)
    return results


def run_scope(scope: str, q_max: int, threads: int = 1) -> list[SweepResult]:
    """Every sweep of ``scope``, each over its fields up to ``q_max``."""
    jobs = {name: sw.fields(q_max)
            for name, sw in SWEEPS.items() if scope in ("all", sw.scope)}
    if not jobs:
        raise ValueError(f"unknown scope {scope!r}")
    return run_sweeps(jobs, threads)
