"""CLI reports against stdout recorded before the shared check layer.

``data/recorded_stdout.json`` holds the stdout and exit code of each call
at commit 79c4ffe, before the verbs and the verify sweeps shared one set
of check families.  Since then a verb runs every check its sweep runs on
one field, so its check list may have grown; everything else must match:

* verbs without a shared family, ``repcount --beta``, CSV output, error
  reports and ``verify``: stdout byte for byte;
* the other verbs: ``command``, ``field`` and ``results`` equal, and every
  recorded check present with the same value, in the same order.
"""

import json
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
