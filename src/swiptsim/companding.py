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
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .ofdm import OfdmConfig, papr_quantile_db, papr_samples_many
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


def expand_magnitude(magnitude: np.ndarray, mu: float) -> np.ndarray:
    m = np.asarray(magnitude, dtype=float)
    return (PEAK / mu) * np.expm1(m * math.log1p(mu) / PEAK)


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


def companded_papr_reductions(
    cfg: OfdmConfig,
    mus: Sequence[float],
    n_trials: int = 20000,
    seed: int = 0,
    threads: int = 1,
) -> list[float]:
    """PAPR reduction in dB at the CCDF exceedance EXCEEDANCE, before minus
    after compression with each mu, from one seeded set of symbols.

    Every entry is compressed from the same waveforms, so the "before"
    PAPR is measured once and shared.  Compression keeps the phase, so the
    PAPR is measured on the compressed envelope, with no compressed
    waveform built.  Entry i equals
    ``companded_papr_reductions(cfg, [mus[i]], n_trials, seed)[0]``
    for any ``threads`` (see :func:`papr_samples_many`).
    """
    samples = papr_samples_many(
        cfg, n_trials, seed,
        (None, *(partial(compress_magnitude, mu=mu) for mu in mus)),
        threads=threads,
    )
    before = papr_quantile_db(samples[0], EXCEEDANCE)
    return [before - papr_quantile_db(after, EXCEEDANCE) for after in samples[1:]]


def compress_waveform(waveform: np.ndarray, mu: float) -> np.ndarray:
    """Mu-law compression of every sample magnitude, phase kept."""
    return scale_envelope(waveform, partial(compress_magnitude, mu=mu))


def expand_waveform(waveform: np.ndarray, mu: float) -> np.ndarray:
    """Inverse of :func:`compress_waveform`."""
    return scale_envelope(waveform, partial(expand_magnitude, mu=mu))


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
