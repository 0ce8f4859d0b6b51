"""The benchmark's child runner (perfbench/child.py) drives the package
through cli.load_config, cli.build_scenario(cfg, seed, None) and cli.main;
this runs it once, untraced, on each benchmark workload's tiny config and
command line, and applies the workload's own output check, so that a
change to those entry points or to a workload's path shows here and not
only in a benchmark run.  It also checks that the benchmark's span
tracer (perfbench/tracer.py) still finds the bindings of the PAPR sampler
and of the Monte Carlo jobs' transmit and receive stages."""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# perfbench/run.py, which is no package module, loaded by its path
_spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
perfbench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = perfbench  # its dataclass resolves its module by name
_spec.loader.exec_module(perfbench)


@pytest.mark.parametrize("name", list(perfbench.WORKLOADS))
def test_benchmark_child_runs_each_workload(tmp_path, name):
    workload = perfbench.WORKLOADS[name]
    cfg = workload.config(True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    spec = {
        "src": str(ROOT / "src"),
        "config": str(cfg_path),
        "seed": 1,
        "argv": [*workload.command, "--config", str(cfg_path), "--seed", "1",
                 "--out", str(out)],
        "trace": False,
        "spans": str(out / "spans.json"),
        "result": str(tmp_path / "result.json"),
        "t_spawn": time.monotonic(),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                           str(spec_path)], capture_output=True, text=True, timeout=300,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["exit_code"] == 0
    assert {"wall_s", "setup_s", "rss_mb"} <= result.keys()
    for output in workload.outputs:
        assert (out / output).is_file(), output
    workload.check(out, cfg)


def _missing_bindings() -> set[str]:
    """The bindings that perfbench/tracer.py's Tracer().install() reports
    missing.  The tracer wraps functions by their module bindings and skips
    a binding that is gone, which would leave its stage untimed; install()
    patches the package, so it runs in a process of its own."""
    code = (
        "import importlib.util, json, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "spec = importlib.util.spec_from_file_location("
        f"'perfbench_tracer', {str(ROOT / 'perfbench' / 'tracer.py')!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "print(json.dumps(tracer.Tracer().install()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_tracer_binds_the_papr_sampler():
    assert not {"companding:papr_samples", "cli:papr_samples"} & _missing_bindings()


def test_tracer_binds_the_receive_spans():
    # the receive job's demodulation, expander, zero-forcing gains and
    # rectenna lookup
    receive = {"link:demodulate_and_ber", "experiments:demodulate_and_ber",
               "link:expand_waveform", "channel:subcarrier_gains",
               "experiments:eh_curve_eta3"}
    assert not receive & _missing_bindings()


def test_tracer_binds_the_transmit_spans():
    # the bit map, synthesis, compressor and channel with which each Monte
    # Carlo job builds its block's frames, in both passes
    transmit = {"experiments:map_bits", "experiments:synthesize_waveforms",
                "experiments:compress_waveform", "experiments:apply_channel"}
    assert not transmit & _missing_bindings()
