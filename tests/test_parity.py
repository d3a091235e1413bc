"""CLI reports against recorded stdout.

``data/recorded_stdout.json`` holds the stdout and exit code of each call
at commit 79c4ffe, before the verbs and the verify sweeps shared one set
of check families.  Since then a verb runs every check its sweep runs on
one field, so its check list may have grown; everything else must match:

* the verbs whose check list never grew (``field-info``, ``partition``,
  ``gauss``, ``shift``), ``repcount --beta``, CSV output, error reports
  and ``verify``: stdout byte for byte;
* the other verbs: ``command``, ``field`` and ``results`` equal, and every
  recorded check present with the same value, in the same order.

Two cases were re-recorded later: ``jacobi --field 2^3`` now exits 1 with
empty stdout, because a field without the requested character is a usage
error; ``verify --scope all --q-max 60`` reads "20 ops invoked" in its
``op_coverage`` check, where it read 21 while ``affine_max_shift`` was an
op of its own.

Two cases were recorded at commit dd1cbbb, while t >= 5 ran the label-row
subset search: ``shift --field 101 --n 2 --t 5`` and ``shift --field 2^6
--n 3 --t 5``.  They were re-recorded when that max moved onto the orbit
reduction and ``shift`` began checking the reduction at every t >= 4:
the one difference is an added passing ``reduction_matches_row_counts``
check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from charsum.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "recorded_stdout.json").read_text())
FAMILY_VERBS = {"repcount", "jacobi", "charpoly", "duality"}


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]))
def test_stdout_matches_recording(capsys, case):
    argv = case["argv"]
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == case["exit"]
    if (argv[0] not in FAMILY_VERBS or "--beta" in argv or "--csv" in argv
            or case["exit"] != 0):
        assert out == case["stdout"]
        return
    old, new = json.loads(case["stdout"]), json.loads(out)
    for key in ("command", "field", "results"):
        assert new[key] == old[key], key
    remaining = iter(new["checks"])
    for check in old["checks"]:
        assert check in remaining, f"{check['name']} missing or out of order"
    assert all(c["pass"] for c in new["checks"])


# ``data/recorded_sweeps.json``: the stdout and exit code of the benchmark's
# four verify calls at commit 5273746, before the sweeps ran field-major;
# ``data/recorded_cap.json``: five characteristic-2 verbs from 2^8 to the
# 2^16 size cap at commit 705b425, before convolve took the Walsh-Hadamard
# path for p = 2, two `shift` calls at t = 1 and t = 2 at commit 65e0c6d,
# before those t skipped the subset search, and `field-info`, `gauss --n 3`
# and `charpoly --n 2` at p = 65521 at commit e599e2a, before the field's
# logs and powers became int32 (a log times 65521 passes 2^31, so
# `field-info` fails if that product is not widened), and `shift --t 4` at
# 2039 (n = 2) and 7^3 (n = 3, whose ratio orbits take Frobenius) at commit
# cef478b, before max N(4) read one M2 row per ratio orbit instead of the
# (q, q) table.  Both must match byte for byte
SWEEP_CASES = [case for name in ("recorded_sweeps.json", "recorded_cap.json")
               for case in json.loads((Path(__file__).parent / "data" / name).read_text())]


@pytest.mark.parametrize("case", SWEEP_CASES, ids=lambda c: " ".join(c["argv"]))
def test_sweep_stdout_matches_recording(capsys, case):
    code = main(list(case["argv"]))
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


# perfbench/tracer.py wraps charsum's functions from outside the package and
# must print the CLI's own stdout; the benchmark's traced pass relies on it
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["verify", "--scope", "all", "--q-max", "31", "--threads", "1"],
    ["shift", "--field", "2^4", "--n", "3", "--t", "4"]], ids=" ".join)
def test_traced_stdout_matches_the_cli(capsys, argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    code = main(list(argv))
    assert traced["exit"] == code == 0
    assert traced["stdout"] == capsys.readouterr().out
