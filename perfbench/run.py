#!/usr/bin/env python3
"""swiptsim benchmark: closed-loop batch runs of the ``swiptsim`` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {mu_sweep,e2e,ber_threads,all}
                             --seed N --seconds S --trace {0,1} [--tiny]

Each iteration is one ``swiptsim`` command in a fresh interpreter (see
``child.py``); the next starts only after the previous one has finished,
and no iteration is started that would not end within ``--seconds``
(at least two always run).  Every iteration of a run uses the same seed,
passed on as the CLI ``--seed``, so their CSV files must be byte-identical.

``--trace 0`` reports the end-to-end metrics of untraced iterations.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones (see ``tracer.py``), the tracing
overhead against the untraced ones, and their CPU time.  ``--tiny``
shrinks the Monte Carlo sizes for a quick self-check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An iteration fails
when the CLI exits non-zero, raises, times out, writes output outside its
check, or writes CSV bytes that differ from the run's first iteration.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # the whole run, all children included, ends within this

MU_GRID = [0.25 * k for k in range(1, 17)]
TECHNIQUES = ("baseline", "dpd", "companding", "dpd_companding")
CHANNELS = ("awgn", "rice_flat", "rayleigh_flat", "rayleigh_multitap")
OFDM = {"n_subcarriers": 512, "oversampling_factor": 4}

# acceptance criterion 6 of the package: eta1 targets (percent, +-1.5)
# and the baseline rectifier efficiency (percent, +-0.5)
ETA1_TARGETS = (19.9, 26.7, 23.3, 31.8)
ETA3_BASELINE = 43.4
MU_STAR = (1.25, 0.15)


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    """(comment lines, rows keyed by column) of a swiptsim CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [ln[1:].strip() for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return comments, list(csv.DictReader(body))


def _num(row: dict[str, str], key: str) -> float:
    v = float(row[key])
    _require(math.isfinite(v), f"{key}={row[key]} is not finite")
    return v


def check_mu_sweep(out: Path, cfg: dict) -> None:
    comments, rows = read_csv(out / "mu_sweep.csv")
    grid = cfg["mu_sweep"]["mu_grid"]
    _require([float(r["mu"]) for r in rows] == grid, "mu column differs from the grid")
    found = [re.search(r"mu_star=([0-9.eE+-]+)", c) for c in comments]
    stars = [float(m.group(1)) for m in found if m]
    _require(len(stars) == 1, "no mu_star comment")
    _require(abs(stars[0] - MU_STAR[0]) <= MU_STAR[1],
             f"mu_star={stars[0]} outside {MU_STAR[0]} +- {MU_STAR[1]}")
    red = [_num(r, "papr_reduction_db") for r in rows]
    for r in rows:
        _num(r, "snr_db")
    _require(all(v > 0 for v in red), "papr_reduction_db not positive")
    _require(all(b >= a for a, b in zip(red, red[1:])),
             "papr_reduction_db decreases with mu")


def check_e2e(out: Path, cfg: dict) -> None:
    _, rows = read_csv(out / "technique_table.csv")
    _require([r["technique"] for r in rows] == list(TECHNIQUES), "technique rows")
    eta1 = [100.0 * _num(r, "eta1") for r in rows]
    eta3 = [100.0 * _num(r, "eta3") for r in rows]
    e2e = [100.0 * _num(r, "eta1_eta3") for r in rows]
    for t, v, target in zip(TECHNIQUES, eta1, ETA1_TARGETS):
        _require(abs(v - target) <= 1.5, f"eta1[{t}]={v:.3f} outside {target} +- 1.5")
    _require(abs(eta3[0] - ETA3_BASELINE) <= 0.5,
             f"eta3[baseline]={eta3[0]:.3f} outside {ETA3_BASELINE} +- 0.5")
    _require(eta3[2] > eta3[0] and eta3[3] > eta3[1], "companding does not raise eta3")
    _require(e2e[3] > e2e[1] > e2e[2] > e2e[0], "eta1*eta3 ordering")
    _, chan = read_csv(out / "channel_metrics.csv")
    _require(len(chan) == len(CHANNELS) * len(TECHNIQUES), "channel_metrics row count")
    for r in chan:
        for key in ("eta1", "eta3", "eta1_eta3", "ber"):
            _require(0.0 <= _num(r, key) <= 1.0, f"{key} outside [0, 1]")


def check_ber(out: Path, cfg: dict) -> None:
    """BER in [0, 0.5] and non-increasing in Eb/N0 per (channel, technique).

    Sweep points draw independent fading, so a rise smaller than the two
    points' reported 95% half-widths combined is not counted as a rise.
    """
    _, rows = read_csv(out / "ber_curves.csv")
    sec = cfg["ber"]
    _require(len(rows) == len(sec["channels"]) * len(sec["techniques"]) * len(sec["ebn0_db"]),
             "ber_curves row count")
    curves: dict[tuple[str, str], list[tuple[float, float, float]]] = {}
    for r in rows:
        ber = _num(r, "ber")
        _require(0.0 <= ber <= 0.5, f"ber={ber} outside [0, 0.5]")
        ci = float(r["ber_ci"])
        curves.setdefault((r["channel"], r["technique"]), []).append(
            (_num(r, "ebn0_db"), ber, ci if math.isfinite(ci) else 0.0))
    for key, pts in curves.items():
        pts.sort()
        for (_, b0, c0), (_, b1, c1) in zip(pts, pts[1:]):
            _require(b1 <= b0 + math.hypot(c0, c1), f"BER rises with Eb/N0 on {key}")


@dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]
    config: Callable[[bool], dict]
    outputs: tuple[str, ...]
    symbols: Callable[[dict], int]
    check: Callable[[Path, dict], None]


def _mu_sweep_config(tiny: bool) -> dict:
    return {"ofdm": OFDM, "mu_sweep": {"mu_grid": MU_GRID, "papr_trials": 256 if tiny else 2048}}


def _scenario_config(tiny: bool) -> dict:
    return {"ofdm": OFDM, "scenario": {"trials": 10 if tiny else 50, "frame_symbols": 4}}


def _ber_config(tiny: bool) -> dict:
    return {**_scenario_config(tiny),
            "ber": {"ebn0_db": [0.0, 4.0, 8.0], "techniques": ["baseline", "companding"],
                    "channels": list(CHANNELS)}}


def _frames(cfg: dict) -> int:
    return cfg["scenario"]["trials"] * cfg["scenario"]["frame_symbols"]


WORKLOADS = {
    "mu_sweep": Workload(
        ("mu-sweep",), _mu_sweep_config, ("mu_sweep.csv",),
        lambda c: len(c["mu_sweep"]["mu_grid"]) * c["mu_sweep"]["papr_trials"],
        check_mu_sweep),
    # table rows (4 techniques on AWGN) plus 4 channels x 4 techniques
    "e2e": Workload(
        ("e2e",), _scenario_config, ("technique_table.csv", "channel_metrics.csv"),
        lambda c: (len(TECHNIQUES) + len(CHANNELS) * len(TECHNIQUES)) * _frames(c),
        check_e2e),
    "ber_threads": Workload(
        ("ber", "--threads", str(len(os.sched_getaffinity(0)))), _ber_config,
        ("ber_curves.csv",),
        lambda c: (len(c["ber"]["channels"]) * len(c["ber"]["techniques"])
                   * len(c["ber"]["ebn0_db"]) * _frames(c)),
        check_ber),
}


class SetupError(RuntimeError):
    """The program cannot be run at all; no result is printed."""


def run_child(work: Path, i: int, cfg: dict, cfg_path: Path, seed: int, wl: Workload,
              trace: bool, timeout: float) -> tuple[dict | None, str]:
    """(timings or None if the command did not complete, error or "")."""
    out = work / f"iter{i}"
    out.mkdir()
    spec = {
        "src": str(SRC),
        "config": str(cfg_path),
        "seed": seed,
        "argv": [*wl.command, "--config", str(cfg_path), "--seed", str(seed), "--out", str(out)],
        "trace": trace,
        "spans": str(out / "spans.json"),
        "result": str(work / f"result{i}.json"),
    }
    spec_path = work / f"spec{i}.json"
    spec["t_spawn"] = time.monotonic()
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                              capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"iteration {i} timed out after {timeout:.0f} s"
    if proc.returncode == 4:
        raise SetupError(proc.stderr.strip())
    if proc.returncode != 0:
        return None, f"iteration {i} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    try:
        wl.check(out, cfg)
    except (CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
        return result, f"iteration {i}: output check failed: {exc}"
    return result, ""


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 deadline: float) -> dict:
    wl = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = wl.config(tiny)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    # (traced, timings of a completed command or None, failed)
    iters: list[tuple[bool, dict | None, bool]] = []
    reference: dict[str, bytes] = {}
    durations: list[float] = []
    start = time.monotonic()
    while True:
        i = len(iters)
        traced = trace and i % 2 == 1
        t0 = time.monotonic()
        result, error = run_child(work, i, cfg, cfg_path, seed, wl, traced,
                                  timeout=max(deadline - t0, 1.0))
        durations.append(time.monotonic() - t0)
        if not error:
            produced = {f: (work / f"iter{i}" / f).read_bytes() for f in wl.outputs}
            reference = reference or produced
            if produced != reference:
                error = f"iteration {i}: CSV bytes differ from the first iteration"
        if error:
            print(error, file=sys.stderr)
        iters.append((traced, result, bool(error)))
        now = time.monotonic()
        expected = statistics.median(durations)
        if now + expected > deadline or (i >= 1 and now - start + expected > seconds):
            break
    if all(r is None for _, r, _ in iters):
        raise SetupError(f"{name}: no iteration completed")
    return {
        "name": name, "seed": seed, "symbols": wl.symbols(cfg),
        "attempted": len(iters), "failed": sum(f for _, _, f in iters),
        "untraced": [r for t, r, _ in iters if r is not None and not t],
        "traced": [r for t, r, _ in iters if r is not None and t],
        "run_s": time.monotonic() - start,
    }


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(run: dict) -> dict[str, tuple[float, str]]:
    runs = run["untraced"]
    wall = _median([r["wall_s"] for r in runs])
    return {
        "wall_s": (wall, "s"),
        "symbols_per_s": (run["symbols"] / wall if wall > 0 else 0.0, "1/s"),
        "setup_s": (_median([r["setup_s"] for r in runs]), "s"),
        "peak_rss_mb": (_median([r["rss_mb"] for r in runs]), "MB"),
    }


def per_layer(run: dict, units: dict[str, str]) -> dict[str, tuple[float, str]]:
    traced = run["traced"]
    names = [n for n in units if n not in ("setup.import_s", "proc.cpu_s", "trace.overhead")]
    out = {n: (_median([r["layers"].get(n, 0.0) for r in traced]), units[n]) for n in names}
    out["setup.import_s"] = (_median([r["import_s"] for r in traced]), "s")
    out["proc.cpu_s"] = (_median([r["cpu_s"] for r in run["untraced"]]), "s")
    plain = _median([r["wall_s"] for r in run["untraced"]])
    with_trace = _median([r["layers"]["trace.wall_s"] for r in traced])
    out["trace.overhead"] = (with_trace / plain - 1.0 if plain > 0 else 0.0, "ratio")
    for r in traced:
        if r.get("missing_bindings") or r.get("attr_errors"):
            print(f"tracer: missing bindings {r['missing_bindings']}, "
                  f"{r['attr_errors']} attribute errors", file=sys.stderr)
            break
    return out


def report(run: dict, metrics: dict[str, tuple[float, str]]) -> None:
    n_plain, n_traced = len(run["untraced"]), len(run["traced"])
    print(f"workload {run['name']} seed {run['seed']}: {run['attempted']} iterations "
          f"({n_plain} untraced and {n_traced} traced completed, {run['failed']} failed) "
          f"in {run['run_s']:.1f} s; medians over iterations")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':42s} {run['failed'] / run['attempted']:14.6g} ratio "
          f"({run['failed']}/{run['attempted']})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small Monte Carlo sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "swiptsim" / "cli.py").is_file():
        print(f"error: no swiptsim package under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    combined: dict[str, dict] = {}
    attempted = failed = 0
    try:
        for i, name in enumerate(names):
            run = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny,
                               deadline=deadline - RUN_LIMIT_S * (len(names) - 1 - i))
            metrics = per_layer(run, units) if args.trace else end_to_end(run)
            report(run, metrics)
            attempted += run["attempted"]
            failed += run["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            combined.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
