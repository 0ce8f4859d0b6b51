#!/usr/bin/env python3
"""Monte Carlo rate / harvested-power trade-off over the splitting ratio.

Sweeps the power-splitting ratio rho for one technique and channel,
writes the per-point metrics (with confidence intervals) to CSV, and
appends a provenance line to a JSON-lines manifest so the run can be
reproduced later.  Both carry the command line's provenance hash
(swiptsim.cli.config_hash) of the technique, channel, rho grid, seed and
trial count; --threads changes no output.

Run from the repo root:

    python3 scripts/run_rate_energy_sweep.py --technique companding \\
        --channel rayleigh_flat --trials 40 --out out/
"""

import argparse
import pathlib
import sys
from dataclasses import replace

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from swiptsim.channel import CHANNEL_KINDS, ChannelSpec  # noqa: E402
from swiptsim.cli import config_hash  # noqa: E402
from swiptsim.experiments import (  # noqa: E402
    TECHNIQUES,
    Scenario,
    append_manifest,
    metrics_to_csv,
    run_techniques,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--technique", choices=TECHNIQUES, default="companding")
    ap.add_argument("--channel", choices=CHANNEL_KINDS, default="awgn")
    ap.add_argument("--trials", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--rho", type=float, nargs="+",
                    default=list(np.round(np.linspace(0.1, 0.9, 9), 3)))
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("out"))
    args = ap.parse_args()
    for flag in ("trials", "threads"):
        if getattr(args, flag) < 1:
            ap.error(f"--{flag} must be at least 1")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not all(0.0 <= rho <= 1.0 for rho in args.rho):
        ap.error("--rho must lie in [0, 1]")

    channel = ChannelSpec(kind=args.channel)
    base = Scenario(channel=channel, trials=args.trials, seed=args.seed)
    h = config_hash({"technique": args.technique, "channel": args.channel,
                     "rho": [float(rho) for rho in args.rho]}, args.seed, args.trials)
    # one pass: every rho is a receiver on the same draws, and a
    # frequency-selective channel gets a cyclic prefix
    receivers = [(channel, replace(base.split, rho=rho)) for rho in args.rho]
    rows = [res[0] for res in run_techniques(base, (args.technique,), receivers,
                                             threads=args.threads)]

    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / f"rate_energy_{args.technique}_{args.channel}.csv"
    metrics_to_csv(csv_path, "rho", args.rho, rows, h, args.seed,
                   comments=(f"technique={args.technique} channel={args.channel} "
                             f"trials={args.trials}",))
    append_manifest(args.out / "manifest.jsonl", h, args.seed, "rho", len(rows),
                    args.trials, args.technique, args.channel)

    print(f"{'rho':>6}{'rate b/s/Hz':>13}{'H_P/E':>10}{'eta3':>8}{'+-':>8}")
    for rho, m in zip(args.rho, rows):
        print(f"{rho:>6.2f}{m.rate_bps_hz:>13.3f}"
              f"{m.harvested_norm:>10.4f}{m.eta3:>8.4f}{m.eta3_ci:>8.4f}")
    print(f"\nwrote {csv_path} and appended to {args.out / 'manifest.jsonl'}")


if __name__ == "__main__":
    main()
