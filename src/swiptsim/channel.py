"""Free-space path loss, flat and multi-tap fading draws, and AWGN.

Fading is quasi-static: one realization holds for a whole OFDM symbol
and taps sit one sample apart at the working rate.  All realizations are
normalized to unit average power gain before path loss is applied.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ofdm import OfdmConfig

SPEED_OF_LIGHT = 2.998e8

CHANNEL_KINDS = ("awgn", "rice_flat", "rayleigh_flat", "rayleigh_multitap")


@dataclass(frozen=True)
class ChannelSpec:
    kind: str = "awgn"
    rice_k_db: float = 20.0
    pdp_db: tuple[float, ...] = (0.0, -10.0, -20.0)
    carrier_hz: float = 915e6
    distance_m: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not math.isfinite(self.rice_k_db):
            raise ValueError("Rice K must be finite")
        if not self.pdp_db or self.pdp_db[0] != 0.0:
            raise ValueError("power delay profile must start with a 0 dB tap")
        if not self.carrier_hz > 0.0 or not self.distance_m > 0.0:
            raise ValueError("carrier and distance must be positive")

    @property
    def n_taps(self) -> int:
        return len(self.pdp_db) if self.kind == "rayleigh_multitap" else 1


@dataclass(frozen=True)
class ChannelRealization:
    taps: tuple[complex, ...]
    path_loss_db: float

    @property
    def gain2(self) -> float:
        """Total tap power |h|^2 for this draw (excludes path loss)."""
        return float(sum(abs(t) ** 2 for t in self.taps))


def path_loss_db(carrier_hz: float, distance_m: float) -> float:
    """Free-space loss 20 log10(lambda / (4 pi d))."""
    if carrier_hz <= 0.0 or distance_m <= 0.0:
        raise ValueError("carrier and distance must be positive")
    lam = SPEED_OF_LIGHT / carrier_hz
    if distance_m < lam:
        warnings.warn(
            f"distance {distance_m:.3g} m is inside one wavelength "
            f"({lam:.3g} m); free-space loss is not meaningful there",
            RuntimeWarning,
            stacklevel=2,
        )
    return 20.0 * math.log10(lam / (4.0 * math.pi * distance_m))


def _cn(rng: np.random.Generator, size=None) -> np.ndarray:
    """Unit-variance circular complex Gaussian draws."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)


def sample_channel(spec: ChannelSpec, rng: np.random.Generator) -> ChannelRealization:
    pl = path_loss_db(spec.carrier_hz, spec.distance_m)
    if spec.kind == "awgn":
        taps = (1.0 + 0.0j,)
    elif spec.kind == "rayleigh_flat":
        taps = (complex(_cn(rng)),)
    elif spec.kind == "rice_flat":
        k = 10.0 ** (spec.rice_k_db / 10.0)
        los = math.sqrt(k / (k + 1.0))
        scatter = math.sqrt(1.0 / (k + 1.0))
        taps = (complex(los + scatter * _cn(rng)),)
    else:
        powers = 10.0 ** (np.asarray(spec.pdp_db) / 10.0)
        powers = powers / powers.sum()
        draws = np.sqrt(powers) * _cn(rng, powers.size)
        taps = tuple(complex(t) for t in draws)
    return ChannelRealization(taps=taps, path_loss_db=pl)


def apply_channel(
    x: np.ndarray,
    realization: ChannelRealization,
    sigma_a2: float,
    rng: np.random.Generator,
    cp_length: int | None = None,
) -> np.ndarray:
    """Convolve a one-dimensional sample array with the taps, apply path
    loss, add antenna noise.

    When ``cp_length`` is given it must cover the channel memory, since the
    receiver relies on the prefix to keep subcarriers separable.
    """
    if sigma_a2 < 0.0:
        raise ValueError("noise variance must be non-negative")
    taps = np.asarray(realization.taps)
    if cp_length is not None and taps.size - 1 > cp_length:
        raise ValueError(
            f"cyclic prefix of {cp_length} samples cannot absorb a "
            f"{taps.size}-tap channel"
        )
    y = np.convolve(x, taps)[: x.size] if taps.size > 1 else x * taps[0]
    y = y * 10.0 ** (realization.path_loss_db / 20.0)
    if sigma_a2 > 0.0:
        y = y + math.sqrt(sigma_a2) * _cn(rng, y.shape)
    return y


def subcarrier_gains(realization: ChannelRealization, cfg: OfdmConfig) -> np.ndarray:
    """Per-subcarrier complex gains, ordered like the modulator's grid."""
    taps = np.asarray(realization.taps)
    spectrum = np.fft.fft(taps, cfg.n_samples)
    n, l = cfg.n_subcarriers, cfg.oversampling_factor
    return np.concatenate([spectrum[: n // 2], spectrum[n * l - n // 2:]])
