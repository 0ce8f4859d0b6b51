"""The benchmark's child runner (perfbench/child.py) drives the package
through cli.load_config, cli.build_scenario(cfg, seed, None) and cli.main;
this runs it once, untraced, on a tiny mu-sweep so that a change to those
entry points shows here and not only in a benchmark run."""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_child_runs_a_tiny_mu_sweep(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ofdm": {"n_subcarriers": 64, "oversampling_factor": 2},
                               "mu_sweep": {"mu_grid": [1.0, 1.25], "papr_trials": 16}}))
    out = tmp_path / "out"
    spec = {
        "src": str(ROOT / "src"),
        "config": str(cfg),
        "seed": 3,
        "argv": ["mu-sweep", "--config", str(cfg), "--seed", "3", "--out", str(out)],
        "trace": False,
        "spans": str(out / "spans.json"),
        "result": str(tmp_path / "result.json"),
        "t_spawn": time.monotonic(),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                           str(spec_path)], capture_output=True, text=True, timeout=120,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["exit_code"] == 0
    assert {"wall_s", "setup_s", "rss_mb"} <= result.keys()
    assert (out / "mu_sweep.csv").is_file()
