"""Exhaustive verification sweeps over ranges of prime powers.

A sweep runs one family of checks from ``charsum.checks`` on every field
of its range; ``SWEEPS`` names each sweep's family and fields.  Sweeps run
field-major: one worker per distinct field builds it once, builds one
partition per character order and runs every (sweep, n) job on it, so the
tables several families read are computed once per partition
(``characters.memo``).  ``_pmap`` maps the worker over the fields, in
the parent alone or with forked children that inherit it, so it need not
be picklable; the parent regroups the outcomes per sweep in input order,
which keeps reports byte-identical regardless of worker count.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple

from . import checks, registry
from .characters import character_exists, partition
from .checks import violation
from .field import build_field, field_label, prime_powers


# a worker runs each field's jobs back to back, so one entry gets every hit
# and no finished field stays alive
@functools.lru_cache(maxsize=1)
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
    notes.  An exception raised in one job, the field's build included,
    becomes a failed check of that job alone, so the field's other jobs and
    the rest of the sweep are still reported."""
    p, m, jobs = args
    parts, out = {}, []
    for name, n in jobs:
        try:
            fld = cached_field(p, m)        # caches a build that succeeds
            if n not in parts:
                parts[n] = partition(fld, n)
            _, found, notes = getattr(checks, SWEEPS[name].family)(fld, parts[n])
        except Exception as exc:
            found, notes = [violation(exc)], []
        tag = f"F_{field_label(p, m)} n={n}"
        out.append({"assertions": sum(c.count for c in found),
                    "failures": [f"{tag}: {c.name}: expected {c.expected}, "
                                 f"got {c.actual}" for c in found if not c.passed],
                    "notes": [f"{tag}: {note}" for note in notes]})
    return out


# ---------------------------------------------------------------------------
# sweep drivers

# 4-byte tickets; 1024 of them fill 4 KiB, which every pipe buffers, so the
# parent writes them all before it forks and never blocks on the write
_TICKETS = 1024


def _pmap(fn, items, threads: int):
    """[fn(it) for it in items], on min(threads, items, CPUs) processes: the
    parent forks one child per extra worker and then works too.  Every
    process takes tickets, the last (largest) items first, from one pipe
    until it is empty, so the load stays balanced however the costs grow;
    a ticket stands for one item, or for a run of neighbours when there are
    more items than tickets.  A child sends its (index, result) pairs and
    the ops it called back pickled once through its own pipe, and the
    parent merges those ops into its own (``registry``).  An exception in a
    child is raised again in the parent, a child that leaves without its
    results raises RuntimeError, and every child is reaped before ``_pmap``
    returns or raises."""
    workers = min(threads, len(items), os.cpu_count() or 1)
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(it) for it in items]
    size = -(-len(items) // _TICKETS)            # items per ticket
    tickets_r, tickets_w = os.pipe()
    os.write(tickets_w, b"".join(k.to_bytes(4, "little")
                                 for k in reversed(range(0, len(items), size))))
    os.close(tickets_w)

    def work():
        # the pipe holds whole tickets and nothing writes to it any more,
        # so each read returns one ticket (its first item) or, once the
        # pipe is empty, b""
        done = []
        while ticket := os.read(tickets_r, 4):
            k = int.from_bytes(ticket, "little")
            done.extend((i, fn(items[i]))
                        for i in reversed(range(k, min(k + size, len(items)))))
        return done

    children, replies = [], []                   # (pid, read end), its bytes
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    try:
                        reply = (True, (work(), registry.called()))
                    except Exception as exc:
                        reply = (False, exc)
                    with open(w, "wb") as out:
                        pickle.dump(reply, out)
                    status = 0
                finally:
                    os._exit(status)             # never back into the caller
            os.close(w)
            children.append((pid, r))
        done = work()
        for _, r in children:
            with open(r, "rb", closefd=False) as f:
                replies.append(f.read())
    finally:
        os.close(tickets_r)
        for pid, r in children:
            os.close(r)
            if len(replies) < len(children):     # leaving on an exception
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    for pid, _ in children]
    for (pid, _), data, status in zip(children, replies, statuses):
        if status != 0:
            raise RuntimeError(f"pool worker {pid} exited with status {status} "
                               f"before sending its results")
        ok, reply = pickle.loads(data)
        if not ok:
            raise reply
        results, ops = reply
        registry.merge(ops)
        done.extend(results)
    out = [None] * len(items)
    for i, res in done:
        out[i] = res
    return out


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
    for (p, m), outcomes in zip(fields, _pmap(
            _field_worker, [(p, m, per_field[p, m]) for p, m in fields], threads)):
        for (name, n), job in zip(per_field[p, m], outcomes):
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
