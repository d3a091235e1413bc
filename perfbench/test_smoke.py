"""Self-test of the benchmark harness on tiny grids (every q <= 31).

    python3 -m pytest perfbench/test_smoke.py

Runs ``run.py --workload all --smoke``: every workload untraced and traced,
in a few seconds.  Checks that every metric is printed with its unit, that
no call failed, and that the result line matches BENCHMARK.json.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
              "assertions": "count", "error_rate": "fraction"}


@pytest.fixture(scope="module")
def smoke():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "1"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    reports = [json.loads(ln) for ln in lines if ln.startswith('{"workload"')]
    return reports, json.loads(lines[-1])


def test_result_line_is_correct_and_complete(smoke):
    _, result = smoke
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        for m in spec["end_to_end"] + spec["per_layer"]:
            got = result["metrics"][f"{wl['name']}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))


def test_every_workload_reports_every_metric(smoke):
    reports, _ = smoke
    assert [r["workload"] for r in reports] == list(run.WORKLOADS)
    for r in reports:
        assert {k: v["unit"] for k, v in r["end_to_end"].items()} == END_TO_END
        assert r["end_to_end"]["error_rate"]["value"] == 0
        assert r["end_to_end"]["assertions"]["value"] > 0
        assert r["failures"] == []
        layers = r["per_layer"]
        for name in run.LAYER_METRICS:
            assert layers[name]["unit"] == run.unit(name)
        cli_calls = [c for c in r["calls"] if c[0] != "verify"]
        assert len([k for k in layers if k.startswith("cli.") and k.endswith(".wall_s")]) \
            == len({(c[0], c[2]) for c in cli_calls})
        assert set(r["env"]) == {"git_sha", "nproc", "cpu_model", "python", "numpy"}


def test_expected_field_counts():
    # hand count for q <= 31: odd prime powers 3 5 7 9 11 13 17 19 23 25 27 29 31
    # (13 fields); cubic 4 7 13 16 19 25 31 (7 fields); odd primes 10
    assert run.expected_fields("duality", 31) == 13 + 7
    assert run.expected_fields("sums", 31) == 13 + 2 * 7
    assert run.expected_fields("repcount", 31) == 2 * (13 + 7) + 10


def test_seed_moves_only_beta_and_order():
    a = run.workload_calls("verbs-cap", 1, smoke=False)
    b = run.workload_calls("verbs-cap", 2, smoke=False)
    assert sorted(c[:3] for c in a) == sorted(c[:3] for c in b)
    assert run.workload_calls("verbs-cap", 1, smoke=False) == a
    assert run.workload_calls("sweep-conv", 1, False) == run.workload_calls("sweep-conv", 2, False)


def test_gate_rejects_bad_reports():
    argv = ["verify", "--scope", "duality", "--q-max", "31", "--threads", "2"]
    good = {"results": {"fields_checked": 20, "assertions": 5,
                        "sweeps": [{"fields": 20}]},
            "checks": [{"name": "x", "pass": True}]}
    assert run.gate(argv, 0, json.dumps(good).encode()) == ("", 5)
    assert run.gate(argv, 2, json.dumps(good).encode())[0]
    short = json.loads(json.dumps(good))
    short["results"]["fields_checked"] = 19
    assert "fields_checked" in run.gate(argv, 0, json.dumps(short).encode())[0]
    failing = json.loads(json.dumps(good))
    failing["checks"][0]["pass"] = False
    assert run.gate(argv, 0, json.dumps(failing).encode())[0]
    assert run.gate(argv, 0, b"not json")[0]
