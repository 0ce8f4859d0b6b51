#!/usr/bin/env python3
"""Regenerate src/swiptsim/data/rectenna_default.csv and its fitted curve.

The default rectenna curve is a logistic rise times a logistic fall,

    eta3(p) = SCALE * sig((p - RISE_C) / RISE_W) * (1 - sig((p - FALL_C) / FALL_W))

with a hard zero below the sensitivity floor.  SCALE and RISE_C were
solved (see --resolve) so that the curve passes through eta3 = 0.434 at
0 dBm both pointwise and as the power-weighted average over a clipped
OFDM envelope whose mean power is normalized to 0 dBm.  The fall side is
shaped to put the peak near +3.5 dBm with a breakdown-like decline.

Every run also fits the written CSV (the same spline fit as any
calibration file, which needs scipy) and writes the knots and segments as
repr floats to src/swiptsim/_rectenna_default.py; the package reads the
default curve from that module, so the two files are always regenerated
together.

Run from the repo root:

    python3 scripts/build_rectenna_calibration.py
"""

import argparse
import pathlib
import sys

import numpy as np

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "swiptsim"
sys.path.insert(0, str(PACKAGE.parent))
CSV_PATH = PACKAGE / "data" / "rectenna_default.csv"
MODULE_PATH = PACKAGE / "_rectenna_default.py"

RISE_C = 1.290
RISE_W = 5.0
FALL_C = 6.0
FALL_W = 2.2
SCALE = 1.0609
SENSITIVITY_DBM = -35.0
GRID_DBM = np.arange(-35.0, 25.0 + 0.5, 1.0)
INTERIOR_KNOTS = [-30, -25, -20, -15, -10, -7, -4, -2, 0, 2, 4, 6, 8, 10, 13, 16, 20]

TARGET_ETA3_AT_0DBM = 0.434


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def shape(p_dbm, rise_c=RISE_C):
    return _sig((p_dbm - rise_c) / RISE_W) * (1.0 - _sig((p_dbm - FALL_C) / FALL_W))


def eta3_analytic(p_dbm, scale=SCALE, rise_c=RISE_C):
    return scale * shape(p_dbm, rise_c)


def resolve_anchors(seed=0, n_symbols=400):
    """Re-derive (SCALE, RISE_C) from the dual 0.434 anchor and report drift."""
    from scipy.optimize import brentq

    from swiptsim.ofdm import OfdmConfig, random_frames
    from swiptsim.pa import PaModel, amplify

    _, x = random_frames(OfdmConfig(), n_symbols, np.random.default_rng(seed))
    y = amplify(x, PaModel.sspa(smoothness=1.2), 8.0)
    p = np.abs(y) ** 2
    p *= 1.0 / p.mean()  # 0 dBm mean, watts scaled to mW
    p_dbm = 10.0 * np.log10(np.maximum(p, 1e-15))

    def weighted_gap(rise_c):
        sc = TARGET_ETA3_AT_0DBM / shape(0.0, rise_c)
        eta = sc * shape(p_dbm, rise_c)
        return np.sum(eta * p) / np.sum(p) - TARGET_ETA3_AT_0DBM

    rise_c = brentq(weighted_gap, -5.0, 5.0, xtol=1e-6)
    sc = TARGET_ETA3_AT_0DBM / shape(0.0, rise_c)
    print(f"resolved rise_c = {rise_c:.6f}   (frozen {RISE_C})")
    print(f"resolved scale  = {sc:.6f}   (frozen {SCALE})")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolve", action="store_true",
                    help="re-run the 0.434 anchor solve and print drift")
    args = ap.parse_args()

    if args.resolve:
        resolve_anchors()

    eta = eta3_analytic(GRID_DBM)
    lines = [
        "# default rectenna calibration: logistic rise x logistic fall",
        f"# rise_c={RISE_C} rise_w={RISE_W} fall_c={FALL_C} fall_w={FALL_W} "
        f"scale={SCALE} sensitivity_dbm={SENSITIVITY_DBM}",
        "# anchored so eta3(0 dBm) = 0.434 pointwise and power-weighted over",
        "# a clipped OFDM envelope at 0 dBm mean",
        "# knots: " + ",".join(str(k) for k in INTERIOR_KNOTS),
        "p_in_dbm,eta3",
    ]
    for p, e in zip(GRID_DBM, eta):
        lines.append(f"{p:.1f},{e:.8f}")
    CSV_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {CSV_PATH} ({len(GRID_DBM)} rows)")
    MODULE_PATH.write_text(frozen_module(CSV_PATH), encoding="utf-8")
    print(f"wrote {MODULE_PATH}")


def frozen_module(csv_path: pathlib.Path) -> str:
    """Source of the module holding the fitted curve of csv_path."""
    from swiptsim.harvester import load_calibration

    curve = load_calibration(csv_path)
    lines = [
        '"""The default rectenna curve: the fit of data/rectenna_default.csv.',
        "",
        "Generated by scripts/build_rectenna_calibration.py together with the CSV;",
        "do not edit.  Each segment is (c3, c2, c1, c0) in powers of p - knot.",
        '"""',
        "",
        "KNOTS = (",
        *(f"    {k!r}," for k in curve.knots),
        ")",
        "SEGMENTS = (",
        *(f"    ({', '.join(repr(c) for c in seg)})," for seg in curve.segments),
        ")",
        f"SENSITIVITY_DBM = {curve.sensitivity_dbm!r}",
    ]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    main()
