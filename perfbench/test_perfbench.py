"""Self-check of the benchmark at tiny Monte Carlo sizes.

Every workload, untraced and traced, must print each metric that
BENCHMARK.json names, with its unit, and fail no iteration.  Run from the
root of a checkout:

    python3 -m pytest -q perfbench
"""

import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls", ".symbols", ".samples", ".unique_ratio", ".chain_evals",
                  ".frames", ".bytes")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@functools.lru_cache(maxsize=None)
def _tiny(workload: str, trace: int) -> tuple[str, dict]:
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_nothing_fails(workload, trace):
    stdout, result = _tiny(workload, trace)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$",
                         stdout, re.M), m["name"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert re.search(r"^\s+fail_ratio\s+0 ratio", stdout, re.M)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_shares_match_the_profile():
    share = {w: {k[:-len(".share")]: v["value"] for k, v in _tiny(w, 1)[1]["metrics"].items()
                 if k.endswith(".share")} for w in WORKLOADS}
    assert max(share["e2e"], key=share["e2e"].get) == "dpd"
    mu = share["mu_sweep"]
    assert mu["ofdm"] + mu["companding"] > 0.5
    assert share["ber_threads"]["dpd"] == 0.0
    assert share["ber_threads"]["harvester"] < 0.01


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first = _tiny(workload, 1)[1]["metrics"]
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny")
    again = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    counts = [k for k in first if k.endswith(COUNT_SUFFIXES)]
    assert counts
    assert {k: first[k] for k in counts} == {k: again[k] for k in counts}


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
