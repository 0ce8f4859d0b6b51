"""OFDM baseband synthesis, demodulation and PAPR statistics.

Every signal in the package is a plain complex128 array of baseband
samples, one OFDM symbol per row where a function takes a batch; the
numerology that gives it meaning (subcarriers, oversampling, prefix,
sample rate) travels separately as an OfdmConfig.
"""

from __future__ import annotations

import numbers
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
# numpy loads these on first use (numpy.ma through np.unique and
# np.quantile); every run uses them, so they load with the package and
# their cost (about 20 ms) falls in set-up, not in the first simulated block
import numpy.fft
import numpy.ma
import numpy.random

_QPSK_SCALE = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class OfdmConfig:
    """OFDM numerology.

    Defaults (N=512 QPSK subcarriers, 4x oversampling) match the link
    evaluation setup used throughout the package.  Everything runs in
    samples, so no subcarrier spacing or sample rate is needed.
    """

    n_subcarriers: int = 512
    oversampling_factor: int = 4
    cp_length: int = 0

    def __post_init__(self):
        for name in ("n_subcarriers", "oversampling_factor", "cp_length"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        n = self.n_subcarriers
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError("n_subcarriers must be a power of two >= 2")
        if self.oversampling_factor < 1:
            raise ValueError("oversampling_factor must be >= 1")
        if not 0 <= self.cp_length < n * self.oversampling_factor:
            raise ValueError("cp_length must lie in [0, N*L)")

    @property
    def n_samples(self) -> int:
        """Samples per symbol body (CP excluded)."""
        return self.n_subcarriers * self.oversampling_factor


def map_bits(bits: np.ndarray) -> np.ndarray:
    """Gray-map the 0/1 bit pairs along the last axis onto unit-energy QPSK
    symbols, unchecked.

    The first bit of each pair selects the sign of the real part, the second
    the sign of the imaginary part, 0 mapping to +: 00 -> (1+1j)/sqrt(2).
    """
    return _QPSK_SCALE * ((1.0 - 2.0 * bits[..., 0::2]) + 1j * (1.0 - 2.0 * bits[..., 1::2]))


def demap_symbols(symbols: np.ndarray) -> np.ndarray:
    """Hard-decision inverse of :func:`map_bits` along the last axis: the
    bits of symbols (..., n) as booleans (..., 2 n), each True where its
    part is negative."""
    return np.ascontiguousarray(symbols, dtype=np.complex128).view(np.float64) < 0


def random_frames(
    cfg: OfdmConfig, n_symbols: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """n_symbols random QPSK grids, shape (n_symbols, N), and their
    synthesized symbols as one flat waveform scaled to unit mean power.
    """
    grids = map_bits(rng.integers(0, 2, size=(n_symbols, 2 * cfg.n_subcarriers)))
    x = synthesize_waveforms(grids, cfg).ravel()
    return grids, x / np.sqrt(np.mean(np.abs(x) ** 2))


def _pack_spectrum(grids: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    # Oversampling by zero-padding the spectrum centre: the first N/2 grid
    # entries are the non-negative tones, the last N/2 the negative ones.
    n, l = cfg.n_subcarriers, cfg.oversampling_factor
    padded = np.zeros(grids.shape[:-1] + (n * l,), dtype=np.complex128)
    padded[..., : n // 2] = grids[..., : n // 2]
    padded[..., n * l - n // 2:] = grids[..., n // 2:]
    return padded


def synthesize_waveforms(grids: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """IDFT synthesis of one grid (1-D) or a batch of grids (2-D).

    Scaled so that x(n) = (1/sqrt(N)) sum_k X_k exp(j 2 pi k n / (N L)):
    a unit-mean-power grid yields a unit-mean-power waveform for any L.
    """
    grids = np.asarray(grids, dtype=np.complex128)
    if grids.shape[-1] != cfg.n_subcarriers:
        raise ValueError("grid length must equal n_subcarriers")
    padded = _pack_spectrum(grids, cfg)
    x = np.fft.ifft(padded, norm="ortho")
    x *= np.sqrt(cfg.oversampling_factor)
    return with_prefix(x, cfg)


def with_prefix(x: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """Frames of whole symbols (..., symbols * N*L), each symbol with the
    numerology's cyclic prefix."""
    if not cfg.cp_length:
        return x
    sym = x.reshape(x.shape[:-1] + (-1, cfg.n_samples))
    return np.concatenate([sym[..., -cfg.cp_length:], sym], axis=-1).reshape(x.shape[:-1] + (-1,))


def active_tones(spectrum: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """The N active tones of N*L-point spectra (last axis), in grid order."""
    n = cfg.n_subcarriers
    return np.concatenate([spectrum[..., : n // 2], spectrum[..., cfg.n_samples - n // 2:]], axis=-1)


def ofdm_demodulate(x: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """Recover the subcarrier grid of each time-domain symbol (last axis);
    inverse of :func:`synthesize_waveforms` up to numerical precision."""
    if cfg.cp_length:
        x = x[..., cfg.cp_length:]
    if x.shape[-1] != cfg.n_samples:
        raise ValueError("sample count does not match the configuration")
    grid = active_tones(np.fft.fft(x, norm="ortho"), cfg)
    grid /= np.sqrt(cfg.oversampling_factor)
    return grid


def papr_db(x: np.ndarray) -> float:
    """Peak-to-average power ratio, 10*log10(max|x|^2 / mean|x|^2)."""
    p = np.abs(x) ** 2
    mean = p.mean()
    if mean <= 0:
        raise ValueError("signal power is zero")
    return float(10.0 * np.log10(p.max() / mean))


def run_bounded(work: Callable, jobs: Iterable[tuple], threads: int) -> None:
    """Call work(*job) for every job on a pool of ``threads`` worker threads,
    with at most 2 * threads jobs in flight; with one thread, on the calling
    thread, one job after the other, and no pool is started.

    ``jobs`` is iterated on the calling thread, and the next job only once
    the oldest in flight is done when the window is full: jobs drawn from a
    random stream are drawn in order and held in bounded memory.  Each job
    must write its results where no other job writes.  The first exception
    a job raises, in job order, is re-raised.
    """
    if threads == 1:
        for job in jobs:
            work(*job)
        return
    pending = deque()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for job in jobs:
            pending.append(pool.submit(work, *job))
            if len(pending) == 2 * threads:
                pending.popleft().result()
        for future in pending:
            future.result()


def ccdf_from_samples(
    papr_db_samples: np.ndarray, thresholds_db: np.ndarray
) -> np.ndarray:
    """Empirical P(PAPR > threshold) for each threshold."""
    ordered = np.sort(np.asarray(papr_db_samples))
    above = ordered.size - np.searchsorted(ordered, thresholds_db, side="right")
    return above / ordered.size


def papr_quantile_db(papr_db_samples: np.ndarray, exceedance: float) -> float:
    """PAPR level exceeded with the given probability (CCDF quantile)."""
    if not 0.0 < exceedance < 1.0:
        raise ValueError("exceedance must lie in (0, 1)")
    return float(np.quantile(np.asarray(papr_db_samples), 1.0 - exceedance))
