"""Flat and multi-tap fading draws.

Fading is quasi-static: one realization holds for a whole OFDM symbol
and taps sit one sample apart at the working rate.  All realizations are
normalized to unit average power gain; there is no path loss, because
every technique is compared at equal average transmit power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ofdm import OfdmConfig, active_tones

CHANNEL_KINDS = ("awgn", "rice_flat", "rayleigh_flat", "rayleigh_multitap")


@dataclass(frozen=True)
class ChannelSpec:
    kind: str = "awgn"
    rice_k_db: float = 20.0
    pdp_db: tuple[float, ...] = (0.0, -10.0, -20.0)

    def __post_init__(self) -> None:
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not math.isfinite(self.rice_k_db):
            raise ValueError("Rice K must be finite")
        if not self.pdp_db or self.pdp_db[0] != 0.0:
            raise ValueError("power delay profile must start with a 0 dB tap")
        if not all(math.isfinite(p) for p in self.pdp_db):
            raise ValueError(f"power delay profile must be finite, got {self.pdp_db!r}")

    @property
    def n_taps(self) -> int:
        return len(self.pdp_db) if self.kind == "rayleigh_multitap" else 1


def _cn(rng: np.random.Generator, size=None) -> np.ndarray:
    """Unit-variance circular complex Gaussian draws."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)


def sample_channel(spec: ChannelSpec, rng: np.random.Generator) -> tuple[complex, ...]:
    """One realization: the complex taps, of unit average total power."""
    if spec.kind == "awgn":
        return (1.0 + 0.0j,)
    if spec.kind == "rayleigh_flat":
        return (complex(_cn(rng)),)
    if spec.kind == "rice_flat":
        k = 10.0 ** (spec.rice_k_db / 10.0)
        los = math.sqrt(k / (k + 1.0))
        scatter = math.sqrt(1.0 / (k + 1.0))
        return (complex(los + scatter * _cn(rng)),)
    powers = 10.0 ** (np.asarray(spec.pdp_db) / 10.0)
    powers = powers / powers.sum()
    draws = np.sqrt(powers) * _cn(rng, powers.size)
    return tuple(complex(t) for t in draws)


def apply_channel(x: np.ndarray, taps, cp_length: int | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Convolve samples with channel taps, into a new array of x's length,
    or into ``out``, which must not share memory with x: a one-dimensional
    x with one realization, or each row of x (..., n) with its own row of
    taps (..., n_taps).

    When ``cp_length`` is given it must cover the channel memory, since the
    receiver relies on the prefix to keep subcarriers separable.  Antenna
    noise is added at the receiver (see link.info_branch).
    """
    h = np.asarray(taps)
    if cp_length is not None and h.shape[-1] - 1 > cp_length:
        raise ValueError(
            f"cyclic prefix of {cp_length} samples cannot absorb a "
            f"{h.shape[-1]}-tap channel"
        )
    out = np.multiply(x, h[..., :1], out=out)
    for lag in range(1, h.shape[-1]):
        out[..., lag:] += x[..., :-lag] * h[..., lag:lag + 1]
    return out


def subcarrier_gains(taps, cfg: OfdmConfig) -> np.ndarray:
    """Per-subcarrier complex gains, ordered like the modulator's grid, of
    one realization or of each row of taps with shape (..., n_taps)."""
    return active_tones(np.fft.fft(np.asarray(taps), cfg.n_samples), cfg)
