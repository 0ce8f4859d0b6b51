"""Batch command-line front end.

Subcommands
-----------
papr         PAPR CCDF curves for a grid of compression strengths.
dpd-design   Predistorter design: fit file plus an EVM/efficiency table.
mu-sweep     Post-expansion SNR and PAPR reduction vs mu, plus mu*.
e2e          Four-technique efficiency table plus per-channel metrics.
ber          BER vs Eb/N0 per technique and channel.
rate-energy  Measured rate and H_P/E vs splitting ratio.

Configuration is a JSON object; every key is optional and unknown keys
are rejected with their location.  Schema (defaults in parentheses):

  ofdm:        n_subcarriers (512), oversampling_factor (4), cp_length (0),
               all integers
  pa:          kind ("sspa" | "soft_limiter" | "polynomial"), a_sat (1.0),
               smoothness (1.2; sspa only), coeffs (polynomial only: a
               non-empty list of finite numbers), ibo_db (8.0, >= 0); finite
  split:       rho (1 - 1e-6), sigma_a2 (1e-3), sigma_p2 (1e-3); finite;
               the noise powers are relative to the nominal transmit power
               (the baseline amplifier's mean output)
  channel:     kind ("awgn"), rice_k_db (20), pdp_db ([0,-10,-20]; a list
               of finite numbers starting at 0)
  scenario:    mu (1.25, finite and > 0),
               trials (50), frame_symbols (4) (integers >= 1)
  eh:          kind ("curve" | "linear"), eta3_linear (0.5; linear only),
               calibration (curve only: the path of a CSV file, default:
               packaged rectenna; its rows enter the config hash)
  papr:        mu_grid ([0, 1.25, 255]; non-empty, mu >= 0, 0 = uncompressed),
               n_trials (20000, integer >= 1),
               thresholds_db ([-1, 14, 0.05] as min/max/step)
  dpd:         inverse_order (7) (integer >= 1),
               reduction_grid_db ([0, 4, 0.25] as min/max/step; no
               reduction above pa.ibo_db)
  mu_sweep:    mu_grid ([0.25 .. 4.0 step 0.25]; non-empty, mu > 0),
               papr_trials (4000, integer >= 1)
  ber:         ebn0_db ([0, 4, 8]; non-empty, finite), techniques
               (["baseline","companding"]), channels (all four); the lists
               are non-empty and without repeats.  ber replaces the whole
               split section (rho 0, sigma_p2 0, sigma_a2 from each Eb/N0
               point) and channel.kind (each listed channel), and reads no
               eh key
  rate_energy: rho_grid (0..0.9 plus 1-10^-k tail; non-empty, in [0, 1]),
               techniques (["baseline","companding"]; non-empty, without
               repeats, from "linear", "baseline", "dpd", "companding",
               "dpd_companding").  rate-energy replaces split.rho with
               each grid point and does not check it
  seed:        integer (0); --seed wins over the file
  svg:         false — also emit minimal SVG line charts

A grid (thresholds_db, reduction_grid_db) is a non-empty list of finite
numbers; three values whose third is below the second are [min, max,
step] and need min <= max and a positive step.  A boolean is not a
number anywhere: true is not 1.  A key that the section's kind does not
read (pa.smoothness, pa.coeffs, eh.eta3_linear, eh.calibration) is an
error, not a silently dropped value.

Flags: --config, --seed, --out, --trials and --threads.  --trials
replaces the Monte Carlo count of papr, mu-sweep, e2e, ber and
rate-energy, which is then neither read nor checked; dpd-design has none
and rejects it.  Those five commands read --threads (worker threads for
the PAPR batches and for the Monte Carlo trial blocks; default every
core this process may use); their output does not depend on it.  papr
and mu-sweep draw one set of symbols and measure the PAPR of every grid
mu on it (companding.papr_samples), on the compressed envelope: no
companded waveform is built.  e2e, ber and rate-energy each make one
Monte Carlo pass (experiments.run_techniques), on no more threads than
it has trial blocks, over a grid of channels and splitters:
every channel kind and the configured splitter in e2e, the listed
channels and one splitter per Eb/N0 point in ber, and the configured
channel and one splitter per splitting ratio in rate-energy.  Every
channel and splitter shares the pass's bits, transmit frames and noise
draws, and every splitter on a channel its taps.  Each job being
processed holds its block's frames and noise draws, so memory grows with
--threads, not with --trials: ber at its defaults peaked at 47, 53 and
108 MB of RSS at 1, 2 and 12 threads.  dpd-design runs serially and
rejects it.

dpd-design measures its EVM table (dpd_evm.csv) on the probe its design
searched, which carries no cyclic prefix, so it neither checks nor
reads ofdm.cp_length.  e2e, ber and rate-energy design their
predistorter on the seed-0 probe with order 7 whatever --seed and
dpd.inverse_order say: their dpd ibo_reduction_db is that of dpd-design
--seed 0 at the default order.

Every CSV and dpd_design.txt starts with "# config_hash=<h> seed=<seed>".
h is config_hash: the first 12 hex digits of a SHA-256 over the package
version, the seed and the resolved values the command runs on, each
once (the scenario with its rectenna rows, the channels and splitters
of a Monte Carlo pass or the configured ones they are made from, grids
and counts after --trials, the numerology without a prefix in
dpd-design), so a key that a command does not read moves neither its
output nor its hash.  Such a key is not
checked either: mu-sweep reads only pa.ibo_db and split.sigma_a2 of
those two sections, so it runs on {"pa": {"kind": "valve"}} or
{"split": {"rho": 2}}.

A command writes its files together: into a staging directory inside
--out, from which they are moved into place once the command has
returned, so a run that fails leaves --out as it was.  The summary line
of dpd-design and mu-sweep is printed only once the files are in place.
A file name taken by a directory in --out is a runtime error before any
file is moved.  Each move is atomic on its own, not the set: another
failure part-way (a full disk, a permission change) can still leave a
partial set.

The rate_bps_hz and h_p_norm columns of e2e and rate-energy come from the
Monte Carlo pass, so a rate-energy row equals the technique_table.csv row
of the same technique at the same rho.  rate_bps_hz is the mean over
trials of log2(1 + K^2 / sigma_d^2), the Bussgang decomposition of the
zero-forced grid against the sent symbols, after the expander for a
companded technique: amplifier distortion, fading, split.sigma_a2 and
split.sigma_p2 enter.  h_p_norm is eta3 * rho * (P_rx + sigma_a2), with
P_rx the mean received power over the nominal transmit power; sigma_p2
is not harvested.  A noise-free, distortion-free link has an infinite
rate and an all-zero information branch a rate of 0; both warn.  A
derived back-off reduction above pa.ibo_db is a configuration error in
e2e, ber and rate-energy, found before any work.

Exit codes: 0 success, 2 configuration error (an unknown key, a key the
section's kind does not read, or a malformed or out-of-range value), 3
runtime or I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np

import swiptsim

from . import harvester
from .channel import CHANNEL_KINDS, ChannelSpec
from .companding import (
    MU_GRID,
    analytic_companded_bussgang,
    companded_papr_reductions,
    companded_snr,
    optimize_mu,
    papr_samples,
)
from .dpd import design_from_scratch, save_design
from .experiments import (
    TABLE_TECHNIQUES,
    TECHNIQUES,
    ConfigError,
    Scenario,
    noise_for_ebn0,
    run_techniques,
    write_csv,
)
from .link import SplitConfig
from .ofdm import OfdmConfig, ccdf_from_samples
from .pa import PaModel, efficiency_at_backoff

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


_SCHEMA: dict[str, set[str] | type] = {
    "ofdm": {"n_subcarriers", "oversampling_factor", "cp_length"},
    "pa": {"kind", "a_sat", "smoothness", "coeffs", "ibo_db"},
    "split": {"rho", "sigma_a2", "sigma_p2"},
    "channel": {"kind", "rice_k_db", "pdp_db"},
    "scenario": {"mu", "trials", "frame_symbols"},
    "eh": {"kind", "eta3_linear", "calibration"},
    "papr": {"mu_grid", "n_trials", "thresholds_db"},
    "dpd": {"inverse_order", "reduction_grid_db"},
    "mu_sweep": {"mu_grid", "papr_trials"},
    "ber": {"ebn0_db", "techniques", "channels"},
    "rate_energy": {"rho_grid", "techniques"},
    "seed": int,
    "svg": bool,
}


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if not text.strip():
        raise ConfigError(f"{path}: config file is empty")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    validate_config(cfg, where=path)
    return cfg


def validate_config(cfg: object, where: str = "config") -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: top level must be a JSON object")
    for key, val in cfg.items():
        if key not in _SCHEMA:
            raise ConfigError(f"{where}: unknown key '{key}'")
        allowed = _SCHEMA[key]
        if isinstance(allowed, set):
            if not isinstance(val, dict):
                raise ConfigError(f"{where}: '{key}' must be an object")
            for sub in val:
                if sub not in allowed:
                    raise ConfigError(f"{where}: unknown key '{key}.{sub}'")
        elif allowed is bool and not isinstance(val, bool):
            raise ConfigError(f"{where}: '{key}' must be a boolean")
        elif allowed is int and (isinstance(val, bool) or not isinstance(val, int)):
            raise ConfigError(f"{where}: '{key}' must be an integer")


def _build(factory, section: str, kwargs: dict):
    for key, value in kwargs.items():
        if isinstance(value, bool):
            raise ConfigError(f"config section '{section}.{key}': must not be a boolean")
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config section '{section}': {exc}") from exc


def build_ofdm(cfg: dict) -> OfdmConfig:
    return _build(OfdmConfig, "ofdm", cfg.get("ofdm", {}))


def _check_kind_keys(section: dict, kind: str, owners: dict[str, str], where: str) -> None:
    """Reject a key that the chosen kind does not read; owners maps each
    kind-specific key to the one kind that reads it."""
    for key, owner in owners.items():
        if key in section and kind != owner:
            raise ConfigError(f"config section '{where}.{key}': only {where}.kind "
                              f"'{owner}' reads it, not {kind!r}")


def build_pa(cfg: dict) -> tuple[PaModel, float]:
    """The amplifier and its nominal input back-off in dB."""
    section = dict(cfg.get("pa", {}))
    ibo = section.pop("ibo_db", 8.0)
    if isinstance(ibo, bool) or not isinstance(ibo, (int, float)) or not 0.0 <= ibo < np.inf:
        raise ConfigError(f"config section 'pa.ibo_db': must be a finite non-negative "
                          f"number, got {ibo!r}")
    section.setdefault("kind", "sspa")
    _check_kind_keys(section, section["kind"],
                     {"coeffs": "polynomial", "smoothness": "sspa"}, "pa")
    if "coeffs" in section:
        section["coeffs"] = tuple(_floats(section, "coeffs", None, "pa"))
    return _build(PaModel, "pa", section), ibo


def build_split(cfg: dict) -> SplitConfig:
    return _build(SplitConfig, "split", cfg.get("split", {}))


def _only(cfg: dict, **reads: tuple[str, ...]) -> dict:
    """cfg with each named section cut to the keys that a command reads (an
    empty tuple: the section's defaults), so no other key is checked."""
    return {**cfg, **{section: {k: v for k, v in cfg.get(section, {}).items() if k in keys}
                      for section, keys in reads.items()}}


def build_channel(cfg: dict) -> ChannelSpec:
    section = dict(cfg.get("channel", {}))
    if "pdp_db" in section:
        section["pdp_db"] = tuple(_floats(section, "pdp_db", None, "channel"))
    return _build(ChannelSpec, "channel", section)


def build_eh(cfg: dict) -> harvester.RectennaCurve | float:
    """The harvester: the rectenna curve, or the linear benchmark's eta3_linear."""
    section = dict(cfg.get("eh", {}))
    kind = section.get("kind", "curve")
    if kind not in ("linear", "curve"):
        raise ConfigError(f"config section 'eh': unknown kind '{kind}'")
    _check_kind_keys(section, kind, {"eta3_linear": "linear", "calibration": "curve"}, "eh")
    if kind == "linear":
        eta = section.get("eta3_linear", 0.5)
        if isinstance(eta, bool) or not isinstance(eta, (int, float)) or not 0.0 <= eta <= 1.0:
            raise ConfigError(f"config section 'eh.eta3_linear': must be a number in [0, 1], "
                              f"got {eta!r}")
        return float(eta)
    path = section.get("calibration")
    if path is None:
        # looked up in the module at call time, so a replaced default is seen
        return harvester.default_rectenna()
    if not isinstance(path, str):
        raise ConfigError("config section 'eh.calibration': must be a path string")
    try:
        return harvester.load_calibration(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config section 'eh.calibration': {exc}") from exc


def build_scenario(cfg: dict, seed: int, trials: int | None) -> Scenario:
    section = dict(cfg.get("scenario", {}))
    if trials is not None:
        section["trials"] = trials
    pa, ibo_db = build_pa(cfg)
    return _build(Scenario, "scenario", dict(ofdm=build_ofdm(cfg), pa=pa, ibo_db=ibo_db,
                                             eh=build_eh(cfg), seed=seed, **section))


def _grid(section: dict, key: str, default, where: str) -> np.ndarray:
    """The section's grid: a [min, max, step] triple (three values whose
    third is below the second) needs min <= max and a positive step; any
    other non-empty list of finite numbers is a literal grid."""
    spec = _floats(section, key, default, where)
    if len(spec) == 3 and spec[2] < spec[1]:
        lo, hi, step = spec
        if step <= 0 or lo > hi:
            raise ConfigError(f"config section '{where}.{key}': a [min, max, step] grid "
                              f"needs min <= max and a positive step, got {spec}")
        return np.arange(lo, hi + step / 2, step)
    return np.asarray(spec)


def _svg_chart(path: Path, series: dict[str, list[tuple[float, float]]],
               x_label: str, y_label: str, log_y: bool = False) -> None:
    """Minimal multi-series SVG line chart, no third-party plotting."""
    w, h, pad = 640, 420, 50
    pts = [p for s in series.values() for p in s if np.isfinite(p[1])]
    if log_y:
        pts = [(x, y) for x, y in pts if y > 0]
    if not pts:
        return
    xs = [p[0] for p in pts]
    ys = [np.log10(p[1]) if log_y else p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    x1 = x1 if x1 > x0 else x0 + 1
    y1 = y1 if y1 > y0 else y0 + 1
    sx = lambda x: pad + (x - x0) / (x1 - x0) * (w - 2 * pad)
    sy = lambda y: h - pad - (y - y0) / (y1 - y0) * (h - 2 * pad)
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{pad}" y1="{h-pad}" x2="{w-pad}" y2="{h-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h-pad}" stroke="black"/>',
        f'<text x="{w//2}" y="{h-10}" text-anchor="middle" font-size="13">{x_label}</text>',
        f'<text x="14" y="{h//2}" font-size="13" transform="rotate(-90 14 {h//2})" '
        f'text-anchor="middle">{y_label}{" (log10)" if log_y else ""}</text>',
    ]
    for i, (name, data) in enumerate(series.items()):
        data = [(x, np.log10(y) if log_y else y) for x, y in data
                if np.isfinite(y) and (not log_y or y > 0)]
        if not data:
            continue
        path_d = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in data)
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{path_d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{w-pad+4}" y="{pad+14*i}" font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts), encoding="utf-8")


def config_hash(seed: int, *inputs) -> str:
    """The provenance hash of a command's outputs: the package version, the
    seed and the resolved values the command runs on, in the order given.
    A dataclass enters as its fields and an array as its list of values,
    so the hash is the same in every interpreter."""
    blob = json.dumps([swiptsim.__version__, seed, *inputs], default=_plain)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _plain(value):
    """value as JSON data: a dataclass as its fields, an array as a list."""
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"config_hash cannot serialize {type(value).__name__}")


def _count(section: dict, key: str, default: int, where: str) -> int:
    """The section's count: an integer of at least 1 (a bool is not one)."""
    n = section.get(key, default)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigError(f"config section '{where}.{key}': must be an integer of at least 1, "
                          f"got {n!r}")
    return n


def _trial_count(section: dict, key: str, default: int, where: str,
                 trials: int | None) -> int:
    """--trials when given, which replaces the section's Monte Carlo count
    unread, else that count."""
    return trials if trials is not None else _count(section, key, default, where)


def _mu_grid(section: dict, default, where: str, allow_zero: bool) -> list[float]:
    """The section's non-empty mu grid; mu must be finite and positive (or
    zero, meaning no compression, where allow_zero)."""
    grid = _floats(section, "mu_grid", default, where)
    for mu in grid:
        if mu < 0 or (mu == 0 and not allow_zero):
            need = "non-negative" if allow_zero else "positive"
            raise ConfigError(f"config section '{where}.mu_grid': mu must be {need}, "
                              f"got {mu:g}")
    return grid


def _floats(section: dict, key: str, default, where: str) -> list[float]:
    """The section's non-empty list of finite numbers."""
    raw = section.get(key, default)
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"config section '{where}.{key}': must be a non-empty list")
    if any(isinstance(v, bool) for v in raw):
        raise ConfigError(f"config section '{where}.{key}': must not hold a boolean")
    try:
        values = [float(v) for v in raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config section '{where}.{key}': {exc}") from exc
    for v in values:
        if not np.isfinite(v):
            raise ConfigError(f"config section '{where}.{key}': values must be finite, got {v:g}")
    return values


def _names(section: dict, key: str, default, allowed, where: str, what: str) -> tuple[str, ...]:
    """The section's non-empty list of distinct names from allowed."""
    names = section.get(key, default)
    if not isinstance(names, (list, tuple)) or not names:
        raise ConfigError(f"config section '{where}.{key}': must be a non-empty list")
    for name in names:
        if name not in allowed:
            raise ConfigError(f"config section '{where}.{key}': unknown {what} '{name}'")
    if len(set(names)) != len(names):
        raise ConfigError(f"config section '{where}.{key}': each {what} may appear once")
    return tuple(names)


# what each column of technique_table.csv, rate_energy.csv and mu_sweep.csv
# measures (mu* is the mu_star comment of mu_sweep.csv)
_COLUMNS = {
    "eta1": "PA efficiency 0.5*10^(-IBO/20) at the technique's back-off",
    "eta3": "Monte Carlo rectenna efficiency, EH input pinned to 0 dBm mean, no noise",
    "eta1_eta3": "eta1*eta3",
    "ibo_reduction_db": "back-off reclaimed by DPD and companding",
    "rate_bps_hz": "Monte Carlo mean of log2(1+K^2/sigma_d^2) of the zero-forced grid "
                   "(distortion, fading, sigma_a2 and sigma_p2 enter)",
    "h_p_norm": "eta3*rho*(P_rx+sigma_a2) over the nominal transmit power "
                "(sigma_p2 is not harvested)",
    "ber": "Monte Carlo BER of the information branch (sigma_a2 and sigma_p2 enter), which "
           "gets 1-rho of the received power: 1e-6 at the default rho, where BER reads near "
           "0.5 (swiptsim ber gives BER vs Eb/N0)",
    "snr_db": "post-expansion subcarrier SNR",
    "papr_reduction_db": "PAPR reduction at 1e-3 CCDF, measured on the seeded symbols",
    "k_l_c": "Bussgang gain of the companded drive",
    "sigma_d_c2": "its distortion power",
    "mu*": f"the mu in [{MU_GRID[0]:g}, {MU_GRID[-1]:g}] maximizing snr_db, searched there "
           "whatever mu_grid holds (snr_db, k_l_c, sigma_d_c2 and mu* are the "
           "soft-limiter closed form at the companded back-off with the first-order "
           "expander noise factor, and do not depend on pa.kind, pa.a_sat or pa.smoothness)",
}


def _column_notes(columns, channel: str | None = None) -> str:
    """One comment line: the channel, if given, then what each column is."""
    notes = [f"{c}: {_COLUMNS[c]}" for c in columns if c in _COLUMNS]
    return "; ".join(notes if channel is None else [f"channel={channel}", *notes])


def cmd_papr(cfg: dict, seed: int, out: Path, trials: int | None, threads: int, svg: bool) -> str | None:
    section = cfg.get("papr", {})
    mu_grid = _mu_grid(section, (0.0, 1.25, 255.0), "papr", allow_zero=True)
    n_trials = _trial_count(section, "n_trials", 20000, "papr", trials)
    thresholds = _grid(section, "thresholds_db", (-1.0, 14.0, 0.05), "papr")
    ofdm = build_ofdm(cfg)
    h = config_hash(seed, ofdm, mu_grid, n_trials, thresholds)
    # mu = 0 is the uncompressed curve; every curve shares one set of symbols
    curves = papr_samples(ofdm, n_trials, seed, mu_grid, threads=threads)
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for mu, samples in zip(mu_grid, curves):
        ccdf = ccdf_from_samples(samples, thresholds)
        rows += [(mu, t, c) for t, c in zip(thresholds, ccdf)]
        series[f"mu={mu:g}"] = list(zip(thresholds, ccdf))
    write_csv(out / "papr_ccdf.csv", ("mu", "threshold_db", "ccdf"), rows, h, seed,
              comments=(f"n_trials={n_trials} n={ofdm.n_subcarriers} l={ofdm.oversampling_factor}",))
    if svg:
        _svg_chart(out / "papr_ccdf.svg", series, "PAPR threshold (dB)", "CCDF", log_y=True)


def cmd_dpd_design(cfg: dict, seed: int, out: Path, trials: int | None, threads: int, svg: bool) -> str | None:
    section = cfg.get("dpd", {})
    # the design, and so its table, runs on the numerology without a prefix
    ofdm = build_ofdm(_only(cfg, ofdm=("n_subcarriers", "oversampling_factor")))
    pa, ibo_db = build_pa(cfg)
    inverse_order = _count(section, "inverse_order", 7, "dpd")
    grid = _grid(section, "reduction_grid_db", (0.0, 4.0, 0.25), "dpd")
    if grid.max() > ibo_db:
        raise ConfigError(f"config section 'dpd.reduction_grid_db': a reduction of "
                          f"{grid.max():g} dB runs past pa.ibo_db = {ibo_db:g} dB")
    h = config_hash(seed, ofdm, pa, ibo_db, inverse_order, grid)
    design, design_evm = design_from_scratch(
        pa, ofdm, baseline_ibo_db=ibo_db, inverse_order=inverse_order, seed=seed,
    )
    save_design(design, str(out / "dpd_design.txt"),
                header=(f"config_hash={h} seed={seed}",))
    rows = []
    series = {"evm": [], "eta1": []}
    for r in grid:
        e = design_evm(ibo_db - r, design.inverse_fit)
        eta1 = efficiency_at_backoff(ibo_db - r)
        rows.append((float(r), e, eta1, 100.0 * (eta1 - efficiency_at_backoff(ibo_db))))
        series["evm"].append((float(r), e))
        series["eta1"].append((float(r), eta1))
    write_csv(out / "dpd_evm.csv",
              ("ibo_reduction_db", "evm", "eta1", "eta1_gain_pts"), rows, h, seed)
    if svg:
        _svg_chart(out / "dpd_evm.svg", series, "IBO reduction (dB)", "EVM / eta1")
    flag = " (degenerate)" if design.degenerate else ""
    return (f"dpd-design: reduction {design.ibo_reduction_db:.3f} dB{flag}, "
            f"EVM {design.evm_baseline:.4f} -> {design.evm_with_dpd:.4f}")


def cmd_mu_sweep(cfg: dict, seed: int, out: Path, trials: int | None, threads: int, svg: bool) -> str | None:
    section = cfg.get("mu_sweep", {})
    mu_grid = _mu_grid(section, MU_GRID, "mu_sweep", allow_zero=False)
    papr_trials = _trial_count(section, "papr_trials", 4000, "mu_sweep", trials)
    ofdm = build_ofdm(cfg)
    _, ibo_db = build_pa(_only(cfg, pa=("ibo_db",)))
    sigma_a2 = build_split(_only(cfg, split=("sigma_a2",))).sigma_a2
    h = config_hash(seed, ofdm, mu_grid, papr_trials, ibo_db, sigma_a2)
    reductions = companded_papr_reductions(ofdm, mu_grid, n_trials=papr_trials, seed=seed,
                                           threads=threads)
    rows = []
    series = {"snr_db": []}
    for mu, reduction_db in zip(mu_grid, reductions):
        bp = analytic_companded_bussgang(mu, ibo_db)
        snr = companded_snr(mu, ofdm.n_subcarriers, sigma_a2, bp.sigma_d2)
        snr_db = 10.0 * np.log10(snr)
        rows.append((mu, snr_db, reduction_db, bp.k_l, bp.sigma_d2))
        series["snr_db"].append((mu, snr_db))
    design = optimize_mu(ofdm.n_subcarriers, ibo_db, sigma_a2)
    columns = ("mu", "snr_db", "papr_reduction_db", "k_l_c", "sigma_d_c2")
    write_csv(out / "mu_sweep.csv", columns, rows, h, seed,
              comments=(f"mu_star={design.mu_star:.4f} at ibo_db={ibo_db:g} "
                        f"(unimodal={int(design.unimodal)})",
                        _column_notes((*columns, "mu*"))))
    if svg:
        _svg_chart(out / "mu_sweep.svg", series, "mu", "post-expansion SNR (dB)")
    return f"mu-sweep: mu* = {design.mu_star:.4f}"


def cmd_e2e(cfg: dict, seed: int, out: Path, trials: int | None, threads: int, svg: bool) -> str | None:
    s = build_scenario(cfg, seed, trials)
    channel, split = build_channel(cfg), build_split(cfg)
    h = config_hash(seed, s, channel, split)
    # one pass for every channel; the table is the configured channel's rows
    results = run_techniques(s, TABLE_TECHNIQUES,
                             [replace(channel, kind=kind) for kind in CHANNEL_KINDS], [split],
                             threads)
    (table,) = results[CHANNEL_KINDS.index(channel.kind)]
    rows = [(tech, m.eta1, m.eta3, m.eta_e2e, m.ibo_reduction_db, m.rate_bps_hz,
             m.harvested_norm, m.ber) for tech, m in zip(TABLE_TECHNIQUES, table)]
    columns = ("technique", "eta1", "eta3", "eta1_eta3", "ibo_reduction_db",
               "rate_bps_hz", "h_p_norm", "ber")
    chan_rows = [(kind, tech, m.eta1, m.eta3, m.eta_e2e, m.eta3_ci, m.ber)
                 for kind, (res,) in zip(CHANNEL_KINDS, results)
                 for tech, m in zip(TABLE_TECHNIQUES, res)]
    write_csv(out / "technique_table.csv", columns, rows, h, seed,
              comments=(_column_notes(columns, channel.kind),))
    write_csv(out / "channel_metrics.csv",
              ("channel", "technique", "eta1", "eta3", "eta1_eta3", "eta3_ci", "ber"),
              chan_rows, h, seed)


def cmd_ber(cfg: dict, seed: int, out: Path, trials: int | None, threads: int, svg: bool) -> str | None:
    section = cfg.get("ber", {})
    ebn0 = _floats(section, "ebn0_db", (0.0, 4.0, 8.0), "ber")
    techniques = _names(section, "techniques", ("baseline", "companding"), TECHNIQUES,
                        "ber", "technique")
    channels = _names(section, "channels", CHANNEL_KINDS, CHANNEL_KINDS, "ber", "channel")
    # one splitter per Eb/N0 point, which replaces the whole split section:
    # no harvesting and no processing noise, so no split or eh key; and each
    # listed kind replaces channel.kind
    s = build_scenario(_only(cfg, eh=()), seed, trials)
    channel = build_channel(_only(cfg, channel=("rice_k_db", "pdp_db")))
    specs = [replace(channel, kind=kind) for kind in channels]
    h = config_hash(seed, s, techniques, ebn0, specs)
    splits = [SplitConfig(rho=0.0, sigma_a2=noise_for_ebn0(v, s.ofdm), sigma_p2=0.0)
              for v in ebn0]
    results = run_techniques(s, techniques, specs, splits, threads)
    n_bits = 2 * s.ofdm.n_subcarriers * s.frame_symbols * s.trials
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for kind, points in zip(channels, results):
        for k, tech in enumerate(techniques):
            rows += [(kind, tech, v, res[k].ber, res[k].ber_ci, n_bits)
                     for v, res in zip(ebn0, points)]
            series[f"{kind}/{tech}"] = [(v, res[k].ber) for v, res in zip(ebn0, points)]
    write_csv(out / "ber_curves.csv",
              ("channel", "technique", "ebn0_db", "ber", "ber_ci", "n_bits"),
              rows, h, seed)
    if svg:
        _svg_chart(out / "ber_curves.svg", series, "Eb/N0 (dB)", "BER", log_y=True)


def cmd_rate_energy(cfg: dict, seed: int, out: Path, trials: int | None, threads: int, svg: bool) -> str | None:
    section = cfg.get("rate_energy", {})
    default_grid = list(np.linspace(0.0, 0.9, 10)) + [1 - 10.0 ** (-k) for k in range(2, 7)]
    rho_grid = _floats(section, "rho_grid", default_grid, "rate_energy")
    if not all(0.0 <= rho <= 1.0 for rho in rho_grid):
        raise ConfigError("config section 'rate_energy.rho_grid': rho must lie in [0, 1]")
    techniques = _names(section, "techniques", ("baseline", "companding"), TECHNIQUES,
                        "rate_energy", "technique")
    # one pass: every rho is a splitter on the configured channel's draws
    s = build_scenario(cfg, seed, trials)
    channel = build_channel(cfg)
    split = build_split(_only(cfg, split=("sigma_a2", "sigma_p2")))
    splits = [replace(split, rho=rho) for rho in rho_grid]
    h = config_hash(seed, s, techniques, channel, splits)
    (results,) = run_techniques(s, techniques, [channel], splits, threads)
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for k, tech in enumerate(techniques):
        points = [(rho, res[k]) for rho, res in zip(rho_grid, results)]
        rows += [(rho, tech, m.rate_bps_hz, m.harvested_norm) for rho, m in points]
        series[f"rate/{tech}"] = [(rho, m.rate_bps_hz) for rho, m in points]
        series[f"h_p/{tech}"] = [(rho, m.harvested_norm) for rho, m in points]
    columns = ("rho", "technique", "rate_bps_hz", "h_p_norm")
    write_csv(out / "rate_energy.csv", columns, rows, h, seed,
              comments=(_column_notes(columns, channel.kind),))
    if svg:
        _svg_chart(out / "rate_energy.svg", series, "rho", "rate / harvested")


_COMMANDS = {
    "papr": cmd_papr,
    "dpd-design": cmd_dpd_design,
    "mu-sweep": cmd_mu_sweep,
    "e2e": cmd_e2e,
    "ber": cmd_ber,
    "rate-energy": cmd_rate_energy,
}


# the subcommands without Monte Carlo: they have no trial count and run on
# the calling thread alone
_SERIAL = ("dpd-design",)


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="swiptsim",
        description="Link-level simulator for simultaneous wireless information "
                    "and power transfer with PA back-off reduction techniques.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--trials", type=int, default=None,
                        help="override the Monte Carlo count of every command but dpd-design")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads of every command but dpd-design (default: "
                             "every usable core); the output does not depend on it")
    args = parser.parse_args(argv)

    try:
        if args.trials is not None:
            if args.trials < 1:
                raise ConfigError("--trials must be at least 1")
            if args.command in _SERIAL:
                raise ConfigError(f"--trials: {args.command} has no Monte Carlo count")
        threads = args.threads
        if threads is not None:
            if threads < 1:
                raise ConfigError("--threads must be at least 1")
            if args.command in _SERIAL:
                raise ConfigError(f"--threads: {args.command} runs serially and takes no "
                                  "thread count")
        else:
            threads = _usable_cores()
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        if seed < 0:
            raise ConfigError("seed must be non-negative")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        svg = bool(cfg.get("svg", False))
        # a command that fails leaves out as it was: it writes into a staging
        # directory, whose files are moved into place once it has returned
        with tempfile.TemporaryDirectory(prefix=".staging-", dir=out) as stage:
            summary = _COMMANDS[args.command](cfg, seed, Path(stage), args.trials, threads, svg)
            names = sorted(os.listdir(stage))
            for name in names:
                if (out / name).is_dir():
                    raise IsADirectoryError(f"{out / name} is a directory: no file was placed")
            for name in names:
                os.replace(os.path.join(stage, name), out / name)
        # a command's summary is printed only once its files are in place
        if summary is not None:
            print(summary)
        print(f"{args.command}: wrote {', '.join(str(out / name) for name in names)}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError, OSError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
