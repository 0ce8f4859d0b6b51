"""Mu-law companding of OFDM envelopes and the companded-chain noise model.

The compander is mu-law companding (Wang, Tjhung & Ng, 1999) with strength
mu and the fixed peak magnitude PEAK: every function takes the compander
as its mu.  Compression acts on the complex envelope of a sample array:
compress_waveform and expand_waveform map each magnitude through the
mu-law characteristic and its inverse and keep the phase.
"""

from __future__ import annotations

import logging
import math
import threading
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import ofdm
from .ofdm import OfdmConfig, papr_quantile_db, run_bounded
from .pa import BussgangParams, bussgang_analytic_sl, scale_envelope

log = logging.getLogger(__name__)

# the CCDF exceedance of the peak and of the reported PAPR
EXCEEDANCE = 1e-3
# The compander's peak amplitude A for unit-power OFDM envelopes.  The
# envelope of a long unit-power OFDM waveform is Rayleigh to a very good
# approximation, so the amplitude exceeded by a fraction EXCEEDANCE of
# samples is sqrt(-ln(EXCEEDANCE)).  A fixed ensemble value instead of the
# per-symbol maximum means the receiver needs no side information to expand.
PEAK = math.sqrt(-math.log(EXCEEDANCE))
# the grid optimize_mu searches before its golden-section refinement
MU_GRID = tuple(float(m) for m in np.arange(0.25, 4.01, 0.25))


def compress_magnitude(magnitude: np.ndarray, mu: float) -> np.ndarray:
    m = np.asarray(magnitude, dtype=float)
    return PEAK * np.log1p(mu * m / PEAK) / math.log1p(mu)


def expand_magnitude(magnitude: np.ndarray, mu: float, out: np.ndarray | None = None) -> np.ndarray:
    """(PEAK / mu) * expm1(m * log1p(mu) / PEAK), into ``out`` if given."""
    m = np.asarray(magnitude, dtype=float)
    out = np.multiply(m, math.log1p(mu), out=out)
    out = np.divide(out, PEAK, out=out)
    out = np.expm1(out, out=out)
    return np.multiply(out, PEAK / mu, out=out)


def mu_law_noise_factor(mu: float) -> float:
    """Gain applied by the expander to additive noise and distortion.

    (ln(1+mu)/mu)^2 + (ln(1+mu)/A)^2, from a first-order expansion of the
    expander around the compressed signal.
    """
    t = math.log1p(mu)
    return (t / mu) ** 2 + (t / PEAK) ** 2


def companded_snr(mu: float, n: int, sigma_a2: float, sigma_d_c2: float) -> float:
    """Post-expansion subcarrier SNR: 1 / (N (sigma_a2 + sigma_dc2) factor)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if sigma_a2 < 0.0 or sigma_d_c2 < 0.0:
        raise ValueError("variances must be non-negative")
    denom = n * (sigma_a2 + sigma_d_c2) * mu_law_noise_factor(mu)
    if denom == 0.0:
        warnings.warn("zero noise and distortion: SNR is unbounded", RuntimeWarning,
                      stacklevel=2)
        return math.inf
    return 1.0 / denom


def _gauss_legendre_panels(edges: Sequence[float], order: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = np.polynomial.legendre.leggauss(order)
    half = np.diff(edges) / 2.0
    mid = (np.asarray(edges[:-1]) + np.asarray(edges[1:])) / 2.0
    return (np.concatenate([h * t + m for h, m in zip(half, mid)]),
            np.concatenate([h * w for h in half]))


# 32-node Gauss-Legendre rules on panels that crowd toward r = 0, where the
# mu-law curve bends most; a single 100-node rule on [0, 10] is off by 4e-9
_R_NODES, _R_WEIGHTS = _gauss_legendre_panels((0.0, 0.01, 0.1, 1.0, 4.0, 10.0), 32)


def compressed_power_gain(mu: float) -> float:
    """Mean-power gain s^2 = E[F_C(m)^2] of compression on a unit-power envelope.

    Evaluated by quadrature over the Rayleigh envelope density 2 r exp(-r^2)
    on [0, 10], so the result is deterministic: a composite 32-node
    Gauss-Legendre rule on the panels [0, 0.01, 0.1, 1, 4, 10].  For mu from
    1e-3 to 255 it is within 1.1e-15 relative of scipy's adaptive quad run
    at epsrel 1e-13 (quad at its default tolerance errs by up to 2e-7,
    near mu = 78.6, but agrees within 1.1e-15 on the mu grid 0.25..4).
    Compression lifts the body of the envelope distribution toward the
    peak, raising average power while the peak stays put; this is what lets
    the amplifier run closer to saturation at an unchanged clipping level.
    """
    r = _R_NODES
    fc2 = compress_magnitude(r, mu) ** 2 * 2.0 * r * np.exp(-r * r)
    return float(np.sum(_R_WEIGHTS * fc2))


def companding_ibo_reduction_db(mu: float) -> float:
    """Effective input back-off reduction bought by compression, in dB.

    At a fixed clipping level the amplifier sees the compressed signal's
    average power, which is s^2 times the uncompressed one, so the
    operating back-off shrinks by 10 log10(s^2).
    """
    return 10.0 * math.log10(compressed_power_gain(mu))


_BATCH_BYTES = 1 << 20


def papr_samples(
    cfg: OfdmConfig,
    n_trials: int,
    seed: int,
    mus: Sequence[float],
    threads: int = 1,
) -> np.ndarray:
    """Per-symbol PAPR (dB) of one set of random QPSK OFDM symbols after
    mu-law compression with each mu, shape ``(len(mus), n_trials)``; mu = 0
    is the raw envelope.

    Compression keeps the phase, so a PAPR depends on the compressed
    envelope alone and no waveform is built.  PAPR is scale-free and the
    mu-law map is increasing, so row mu is measured on log1p(mu m / PEAK)
    of the sample magnitudes m, without the map's PEAK / log1p(mu) factor,
    and its peak is the map of the symbol's peak magnitude.  The raw row is
    max(m)^2 over the mean of m^2.

    One seeded draw serves every mu: each batch of symbols, as many as fit
    in 1 MiB of complex128 waveform, prefix included, is drawn, synthesized
    and reduced to its sample magnitudes and their peak once, then every
    row is measured in one buffer of the batch's size.  ``threads``
    workers synthesize and measure the batches (see run_bounded), with at
    most 2 * threads of them in flight; the bits are still drawn in order
    on the calling thread and each batch fills its own columns.  So row i
    depends neither on the other mus nor on the thread count: it equals the
    one row of a call with ``(mus[i],)`` at any ``threads``.  Memory grows
    with ``threads``: each worker holds its batch, its last waveform, its
    magnitudes and the buffer, which is made per batch and not kept
    between batches (peak RSS of mu-sweep at its defaults, N=512, L=4 and
    16 mus, rose by about 4 MB per thread, from 48 MB at 2 threads to
    108 MB at 16, on a 2-core machine).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if not all(0.0 <= mu < math.inf for mu in mus):
        raise ValueError(f"every mu must be finite and >= 0, got {list(mus)}")
    n = cfg.n_samples + cfg.cp_length
    batch = max(1, _BATCH_BYTES // (16 * n))
    rng = np.random.default_rng(seed)
    out = np.empty((len(mus), n_trials))

    def draw(start: int) -> np.ndarray:
        # not random_frames: the compander depends on level, so no normalizing
        m = min(batch, n_trials - start)
        return rng.integers(0, 2, size=(m, 2 * cfg.n_subcarriers))

    # each worker holds its last waveform until its next one is made: this
    # keeps the allocator from returning the top of the heap to the system
    # and faulting it back in every batch (about 50 page faults per symbol
    # at N=1024, L=4 without it)
    held = threading.local()

    def measure(start: int, bits: np.ndarray) -> None:
        # looked up on ofdm, so that a wrap of its bindings (the benchmark's
        # span tracer, a test's counter) sees the synthesis
        held.x = ofdm.synthesize_waveforms(ofdm.map_bits(bits), cfg)
        m = np.abs(held.x)
        peak = m.max(axis=-1)
        buf = np.empty_like(m)
        cols = slice(start, start + len(bits))
        for row, mu in zip(out, mus):
            if mu == 0.0:
                # max(m)^2 is max(m^2) and sum / n numpy's mean, bit for bit
                top = np.square(peak)
                np.square(m, out=buf)
            else:
                c = mu / PEAK
                top = np.square(np.log1p(peak * c))
                np.multiply(m, c, out=buf)
                np.log1p(buf, out=buf)
                np.square(buf, out=buf)
            row[cols] = 10.0 * np.log10(top / (buf.sum(axis=-1) / n))

    run_bounded(measure, ((start, draw(start)) for start in range(0, n_trials, batch)),
                threads)
    return out


def companded_papr_reductions(
    cfg: OfdmConfig,
    mus: Sequence[float],
    n_trials: int = 20000,
    seed: int = 0,
    threads: int = 1,
) -> list[float]:
    """PAPR reduction in dB at the CCDF exceedance EXCEEDANCE, before minus
    after compression with each mu, from one seeded set of symbols.

    One :func:`papr_samples` call measures the raw envelope and every mu on
    the same waveforms, so the "before" PAPR is measured once and shared.
    Entry i equals
    ``companded_papr_reductions(cfg, [mus[i]], n_trials, seed)[0]``
    for any ``threads``.
    """
    samples = papr_samples(cfg, n_trials, seed, (0.0, *mus), threads=threads)
    before = papr_quantile_db(samples[0], EXCEEDANCE)
    return [before - papr_quantile_db(after, EXCEEDANCE) for after in samples[1:]]


def compress_waveform(waveform: np.ndarray, mu: float) -> np.ndarray:
    """Mu-law compression of every sample magnitude, phase kept."""
    return scale_envelope(waveform, partial(compress_magnitude, mu=mu))


def expand_waveform(waveform: np.ndarray, mu: float, magnitude: np.ndarray | None = None,
                    gain: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`compress_waveform`, into a new array.

    Given ``magnitude``, |waveform|, and ``gain``, a float array of the
    same shape, it runs in place instead: the gain expand_magnitude(m) / m
    (0 where m = 0) is evaluated in ``gain``, and waveform is multiplied by
    it and returned, bit for bit the new array's values.
    """
    if magnitude is None:
        waveform = np.array(waveform)
        magnitude = np.abs(waveform)
    gain = expand_magnitude(magnitude, mu, gain)
    np.divide(gain, magnitude, out=gain, where=magnitude > 0)
    waveform *= gain
    return waveform


def analytic_companded_bussgang(mu: float, ibo_db: float) -> BussgangParams:
    """Linear gain and clipping distortion of the companded drive, from the
    soft-limiter closed form.

    The compressed signal runs s^2 hotter than the nominal back-off assumes,
    so the limiter formulas are evaluated at the shifted operating point.
    """
    eff_ibo = ibo_db - companding_ibo_reduction_db(mu)
    return bussgang_analytic_sl(eff_ibo)


@dataclass(frozen=True)
class MuDesign:
    mu_star: float
    unimodal: bool


def optimize_mu(n_subcarriers: int, ibo_db: float, sigma_a2: float) -> MuDesign:
    """Pick mu maximizing the post-expansion SNR at one IBO.

    The distortion is the soft-limiter closed form at the companded
    operating point (analytic_companded_bussgang), with the fixed PEAK,
    so the search is deterministic.  A search of MU_GRID brackets the
    maximum and golden-section refines it to 1e-3.
    """
    def snr_at(mu: float) -> float:
        sd2 = analytic_companded_bussgang(mu, ibo_db).sigma_d2
        return companded_snr(mu, n_subcarriers, sigma_a2, sd2)

    vals = [snr_at(mu) for mu in MU_GRID]
    rises = np.diff(vals) > 0
    unimodal = not (rises.size > 1 and np.any(np.diff(rises.astype(int)) > 0))
    if not unimodal:
        log.warning("SNR(mu) not unimodal on the search grid at IBO=%.2f dB", ibo_db)
    i = int(np.argmax(vals))
    lo = MU_GRID[max(i - 1, 0)]
    hi = MU_GRID[min(i + 1, len(MU_GRID) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = snr_at(c), snr_at(d)
    while hi - lo > 1e-3:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = snr_at(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = snr_at(d)
    return MuDesign(mu_star=float(0.5 * (lo + hi)), unimodal=unimodal)
