"""Exhaustive verification sweeps over ranges of prime powers.

Each sweep iterates every valid field in its scope, runs one family of
checks from ``charsum.checks`` on it, and aggregates failures and notes.
The per-field worker is a top-level function taking one tuple argument so
the CLI can fan it out over a process pool; results merge by input order,
which keeps reports byte-identical regardless of worker count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

from . import checks, registry
from .characters import character_exists, partition
from .checks import violation
from .errors import IdentityViolation
from .field import build_field, env_size_cap, prime_powers


@functools.lru_cache(maxsize=24)
def cached_field(p: int, m: int):
    return build_field(p, m, size_cap=env_size_cap())


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
# the per-field worker

def _family_worker(args):
    """One family's checks on one field as assertions, failure lines and
    notes.  An IdentityViolation becomes a failed check of this field, so
    the rest of the sweep is still reported."""
    family, p, m, n = args
    fld = cached_field(p, m)
    try:
        _, found, notes = family(fld, partition(fld, n))
    except IdentityViolation as exc:
        found, notes = [violation(exc)], []
    tag = _tag(p, m, n)
    return {"assertions": sum(c.count for c in found),
            "failures": [f"{tag}: {c.name}: expected {c.expected}, got {c.actual}"
                         for c in found if not c.passed],
            "notes": [f"{tag}: {note}" for note in notes],
            "ops": registry.called()}


# ---------------------------------------------------------------------------
# sweep drivers

def _pmap(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


def _sweep(name: str, family, items, threads: int) -> SweepResult:
    res = SweepResult(name)
    for oc in _pmap(_family_worker, [(family, *it) for it in items], threads):
        res.fields += 1
        res.assertions += oc["assertions"]
        res.failures.extend(oc["failures"])
        res.notes.extend(oc["notes"])
        registry.merge(oc["ops"])
    return res


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
    return _sweep("zero_sum_counts", checks.zero_sum,
                  _both_orders(quadratic_fields(q_max), cubic_fields(q_max)), threads)


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
    return _sweep("shift_duality", checks.duality,
                  _both_orders(n2_fields, n3_fields), threads)


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
