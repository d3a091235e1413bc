"""charsum benchmark: fixed workloads of CLI calls, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-conv --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40      # every metric, every workload
    python3 perfbench/run.py --workload all --smoke --seconds 1

With ``--trace 0`` every CLI call runs in a fresh ``python -m charsum.cli``
process, tracing off, and the run reports the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` the run also repeats one pass under
``tracer.py`` and reports the per-layer metrics.  Every call's stdout is
checked (see ``gate``); a call that fails the check counts in ``failed``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is the full
report: environment, argv of every call, sample counts, tail percentiles
and every per-layer metric.  Spans of a traced run are written to
``perfbench/traces/<workload>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
CLI_FILE = ROOT / "src" / "charsum" / "cli.py"
TRACE_DIR = BENCH / "traces"
SETUP_SAMPLES = 12       # fresh ``import charsum.cli`` timings per run, at least
TRACE_RESERVE = 3.0      # passes' worth of --seconds kept for the traced pass

# ---------------------------------------------------------------------------
# workloads: fixed field grids; the seed only picks the verbs-cap repcount
# --beta and the order of the verbs-cap calls


def _sweep(scope: str, q_max: int, threads: int) -> list[str]:
    return ["verify", "--scope", scope, "--q-max", str(q_max),
            "--threads", str(threads)]


# (verb, field at the size cap, field in smoke mode, options)
VERBS_CAP = (
    ("field-info", "2^16", "2^4", ()),
    ("gauss", "2^16", "2^4", ("--n", "3")),
    ("repcount", "2^16", "2^4", ("--n", "3", "--beta", None)),
    ("jacobi", "2^12", "2^4", ()),
    ("charpoly", "3^7", "3^3", ("--n", "2")),
    ("repcount", "4093", "29", ("--n", "2")),
    ("shift", "2^8", "2^4", ("--n", "3", "--t", "4")),
)


def _order(spec: str) -> int:
    p, _, m = spec.partition("^")
    return int(p) ** int(m or 1)


def _verbs_cap(rng: random.Random, smoke: bool) -> list[list[str]]:
    calls = []
    for verb, cap_field, smoke_field, opts in VERBS_CAP:
        spec = smoke_field if smoke else cap_field
        opts = [str(rng.randrange(1, _order(spec))) if o is None else o
                for o in opts]
        calls.append([verb, "--field", spec, *opts])
    rng.shuffle(calls)
    return calls


WORKLOADS = {
    "sweep-conv": lambda rng, smoke: [
        _sweep("repcount", 31 if smoke else 512, 1),
        _sweep("sums", 31 if smoke else 512, 1),
        _sweep("charpoly", 31 if smoke else 343, 1)],
    "sweep-duality": lambda rng, smoke: [
        _sweep("duality", 31 if smoke else 200, 2)],
    "verbs-cap": _verbs_cap,
}


def workload_calls(name: str, seed: int, smoke: bool) -> list[list[str]]:
    return WORKLOADS[name](random.Random(seed), smoke)


# ---------------------------------------------------------------------------
# correctness gate


def _prime_powers(limit: int) -> list[tuple[int, int]]:
    """(p, m) with 2 <= p**m <= limit; the harness's own sieve."""
    out = []
    for p in range(2, limit + 1):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            m = 1
            while p ** m <= limit:
                out.append((p, m))
                m += 1
    return out


def expected_fields(scope: str, q_max: int) -> int:
    """Fields a ``verify --scope`` sweep must check, summed over its sweeps."""
    pp = _prime_powers(q_max)
    quadratic = sum(1 for p, m in pp if p != 2)
    cubic = sum(1 for p, m in pp if p ** m >= 4 and (p ** m - 1) % 3 == 0)
    primes = sum(1 for p, m in _prime_powers(min(q_max, 200))
                 if m == 1 and p != 2)
    return {"repcount": 2 * (quadratic + cubic) + primes,
            "sums": quadratic + 2 * cubic,
            "charpoly": quadratic + cubic,
            "duality": quadratic + cubic}[scope]


def gate(argv: list[str], code: int, stdout: bytes) -> tuple[str, int]:
    """('' or the reason the call failed, assertions the report made)."""
    if code != 0:
        return f"exit code {code}", 0
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON object", 0
    checks = report.get("checks") or []
    if not checks:
        return "report has no checks", 0
    bad = [c.get("name") for c in checks if c.get("pass") is not True]
    if bad:
        return f"failed checks {bad}", 0
    results = report["results"]
    if argv[0] == "verify":
        scope, q_max = argv[argv.index("--scope") + 1], int(argv[argv.index("--q-max") + 1])
        want = expected_fields(scope, q_max)
        if results["fields_checked"] != want:
            return f"fields_checked {results['fields_checked']} != {want}", 0
        if sum(sw["fields"] for sw in results["sweeps"]) != want:
            return "sweep field counts do not add up", 0
        return "", results["assertions"]
    q = _order(argv[argv.index("--field") + 1])
    if report["field"]["q"] != q:
        return f"report is for q = {report['field']['q']}, not {q}", 0
    if argv[0] == "jacobi":
        a, b = results["jacobi"]["a"], results["jacobi"]["b"]
        if a * a - a * b + b * b != q:
            return f"norm of J = {a} + {b}w is not {q}", 0
    if argv[0] == "repcount" and "query" in results:
        if results["query"]["count"] != results["brute_force"]:
            return "closed-form count differs from brute force", 0
    return "", len(checks)


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


ENV = _child_env()


def spawn(args: list[str]) -> Sample:
    """Run one child to completion: wall time, CPU and max RSS of it and
    every descendant it waited for (the verify pool's workers)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list[bytes] = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    try:
        out = proc.stdout.read()
    finally:
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  proc.returncode, out, err[0])


def setup_sample() -> float:
    s = spawn(["-c", "import charsum.cli"])
    if s.code != 0:
        raise RuntimeError(f"import charsum.cli failed: {s.stderr.decode()[-400:]}")
    return s.wall


# ---------------------------------------------------------------------------
# one run


@dataclass
class Run:
    calls: list[list[str]]
    samples: list[list[Sample]] = field(init=False)              # [call][pass]
    passes: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    assertions: list[int] = field(default_factory=list)          # per call
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.samples = [[] for _ in self.calls]

    def fail(self, argv, reason: str) -> None:
        self.failures.append(f"{' '.join(argv)}: {reason}")

    def one_pass(self) -> None:
        start = time.perf_counter()
        for i, argv in enumerate(self.calls):
            s = spawn(["-m", "charsum.cli", *argv])
            self.attempted += 1
            reason, assertions = gate(argv, s.code, s.stdout)
            if not reason and self.samples[i] and s.stdout != self.samples[i][0].stdout:
                reason = "stdout differs from the first pass"
            if not reason and len(self.assertions) > i and assertions != self.assertions[i]:
                reason = "assertion count differs from the first pass"
            if reason:
                self.fail(argv, reason + "; stderr: " + s.stderr.decode()[-300:])
            if len(self.assertions) == i:
                self.assertions.append(assertions)
            self.samples[i].append(s)
        self.passes.append(time.perf_counter() - start)

    def measure(self, seconds: float, reserve: float = 0.0) -> None:
        """Passes until the next one would end past ``seconds``, reserving
        ``reserve`` passes' worth of time; at least one pass."""
        start = time.perf_counter()
        while True:
            self.setups += [setup_sample(), setup_sample()]
            self.one_pass()
            typical = statistics.median(self.passes)
            if time.perf_counter() - start + typical * (1 + reserve) > seconds:
                break
        while len(self.setups) < SETUP_SAMPLES:
            self.setups.append(setup_sample())

    def per_call(self, attr: str) -> list[float]:
        return [statistics.median(getattr(s, attr) for s in col)
                for col in self.samples]

    def threads(self) -> int:
        return max([int(a[a.index("--threads") + 1]) for a in self.calls
                    if "--threads" in a] or [1])

    def end_to_end(self) -> dict:
        """The six end-to-end metrics: {name: (value, unit, samples)}."""
        pass_cpu = [sum(col[k].cpu for col in self.samples)
                    for k in range(len(self.passes))]
        rss = [max(col[k].rss_mb for col in self.samples)
               for k in range(len(self.passes))]
        return {
            # a pass's time built from each call's median over the passes
            "wall_s": (sum(self.per_call("wall")), "s", self.passes),
            "cpu_s": (sum(self.per_call("cpu")), "s", pass_cpu),
            "peak_rss_mb": (max(self.per_call("rss_mb")), "MB", rss),
            "setup_s": (statistics.median(self.setups), "s", self.setups),
            "assertions": (sum(self.assertions), "count", None),
            "error_rate": (len(self.failures) / self.attempted, "fraction", None),
        }


def tail(samples: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n <= 10:
        return None
    return {"pct": 100 * (n - 10) // n, "value": sorted(samples)[n - 11]}


# ---------------------------------------------------------------------------
# traced pass

SWEEPS = ("quadratic_rep_counts", "cubic_rep_counts", "zero_sum_counts",
          "prime_field_counts", "character_sums", "jacobi_gauss",
          "quadratic_charpoly", "cubic_charpoly", "shift_duality")
# reported by every traced run, zero where a workload never calls the function
LAYER_METRICS = [f"{fn}.{stat}" for fn, stats in (
    ("field.build_field", "calls self_s"),
    ("field.add_outer", "calls self_s cells"),
    ("field.add_row", "calls self_s"),
    ("field.add_vec", "calls self_s"),
    ("field.trace_vec", "self_s"),
    ("characters.partition", "calls self_s"),
    ("characters.winterhof_sweep", "calls self_s"),
    ("cyclotomic.jacobi_cubic", "self_s"),
    ("cyclotomic.a_beta", "calls self_s"),
    ("cyclotomic.a_beta_sweep", "calls self_s"),
    ("cyclotomic.gauss_sum", "self_s"),
    ("repcount.rep_count_table", "calls self_s"),
    ("repcount.brute_rep_count", "calls self_s"),
    ("repcount.rep_count_zero_brute", "self_s"),
    ("repcount.closed_rep_class_table", "self_s"),
    ("groupring.gr_mul", "calls self_s object_calls"),
    ("shiftcount.max_shift_count", "calls self_s"),
    ("shiftcount.shift_count", "calls self_s"),
    ("shiftcount.verify_duality", "self_s"),
    ("verify.workers", "calls self_s"),
    ("verify.cached_field", "hit_ratio"),
    ("cli.main", "self_s"),
) for stat in stats.split()] + [f"verify.{s}.wall_s" for s in SWEEPS] + [
    "verify.pool_efficiency", "trace.overhead_s"]


def unit(metric: str) -> str:
    if metric.endswith(("calls", "cells")):
        return "count"
    if metric.endswith(("hit_ratio", "efficiency")):
        return "fraction"
    return "s"


def _layers(names: list[str], spans: list[list[int]], acc: dict) -> None:
    """Add calls and self time per span name."""
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    for i, (nid, start, end, _) in enumerate(spans):
        name = names[nid]
        acc[name + ".calls"] = acc.get(name + ".calls", 0) + 1
        acc[name + ".self_s"] = (acc.get(name + ".self_s", 0.0)
                                 + (end - start - covered[i]) / 1e9)


def traced_pass(run: Run, e2e: dict, workload: str) -> dict:
    """One pass under tracer.py; returns every per-layer metric by name."""
    acc: dict = dict.fromkeys(LAYER_METRICS, 0)
    hits = misses = 0
    wall = 0.0
    dump = []
    for i, argv in enumerate(run.calls):
        s = spawn([str(BENCH / "tracer.py"), *argv])
        run.attempted += 1
        wall += s.wall
        try:
            t = json.loads(s.stdout)
        except ValueError:
            run.fail(argv, "traced call printed no result; stderr: "
                     + s.stderr.decode()[-300:])
            continue
        if t["stdout"].encode() != run.samples[i][0].stdout or t["exit"] != run.samples[i][0].code:
            run.fail(argv, "traced stdout or exit code differs from the untraced call")
        _layers(t["names"], t["spans"], acc)
        for k, v in t["counters"].items():
            acc[k] = acc.get(k, 0) + v
        hits += t["cache"]["hits"]
        misses += t["cache"]["misses"]
        dump.append({"argv": argv, "names": t["names"], "spans": t["spans"]})
    acc["verify.cached_field.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    acc["verify.pool_efficiency"] = e2e["cpu_s"][0] / (run.threads() * e2e["wall_s"][0])
    for argv, t in zip(run.calls, run.per_call("wall")):
        if argv[0] != "verify":
            acc[f"cli.{argv[0]}.q{_order(argv[argv.index('--field') + 1])}.wall_s"] = t
    acc["trace.overhead_s"] = wall - e2e["wall_s"][0]
    TRACE_DIR.mkdir(exist_ok=True)
    (TRACE_DIR / f"{workload}.json").write_text(
        json.dumps({"workload": workload, "calls": dump}, separators=(",", ":")))
    return acc


# ---------------------------------------------------------------------------
# reporting


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git``; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"git_sha": _git_sha(), "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    run = Run(workload_calls(name, seed, smoke))
    run.measure(seconds, TRACE_RESERVE if trace else 0.0)
    e2e = run.end_to_end()
    layers = traced_pass(run, e2e, name) if trace else {}
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "env": environment(), "calls": run.calls,
        "passes": len(run.passes), "attempted": run.attempted,
        "call_wall_s": [[s.wall for s in col] for col in run.samples],
        "failures": run.failures,
        "end_to_end": {k: {"value": v, "unit": u, "n": len(s) if s else None,
                           "tail": tail(s) if s else None, "samples": s}
                       for k, (v, u, s) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": unit(k)} for k, v in layers.items()},
    }
    return run, e2e, layers, report


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in json.loads(SPEC_FILE.read_text())[section]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids (q <= 31) that finish in seconds")
    args = ap.parse_args(argv)
    if not CLI_FILE.is_file():
        print(f"no charsum sources at {CLI_FILE.relative_to(ROOT)}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    both = args.workload == "all"
    e2e_units, layer_units = _units("end_to_end"), _units("per_layer")
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        run, e2e, layers, report = run_workload(
            name, args.seed, args.seconds, both or args.trace == 1, args.smoke)
        attempted += run.attempted
        failed += len(run.failures)
        for f in run.failures:
            print(f"FAILED {name}: {f}", file=sys.stderr)
        for k, v in report["end_to_end"].items():
            t = v["tail"]
            print(f"{name:14s} {k:14s} {v['value']:.6g} {v['unit']}"
                  + (f"  (n={v['n']}" if v["n"] else "")
                  + (f", p{t['pct']} = {t['value']:.6g})" if t else ")" if v["n"] else ""))
        for k in sorted(layers):
            print(f"{name:14s} {k} {layers[k]:.6g} {unit(k)}")
        print(json.dumps(report, separators=(",", ":")))
        prefix = f"{name}." if both else ""
        if both or args.trace == 0:
            metrics.update({prefix + k: {"value": e2e[k][0], "unit": u}
                            for k, u in e2e_units.items()})
        if both or args.trace == 1:
            metrics.update({prefix + k: {"value": layers[k], "unit": u}
                            for k, u in layer_units.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
