"""Power-splitting receiver and the rate / harvested-energy metrics.

The receiver taps the incoming waveform into an energy-harvesting branch
(fraction rho of the power) and an information branch (fraction 1 - rho).
Antenna noise is picked up before the splitter and therefore appears,
scaled, in both branches; processing noise is injected per branch.

The closed-form metrics (sinr, harvested) model every transmit
nonlinearity through its linear (Bussgang) gain K_L and additive
distortion power sigma_d^2, with no fading by default.  The rate_bps_hz
and h_p_norm columns come from experiments.closed_form, which feeds them
the soft-limiter Bussgang model at the technique's back-off, a linear
0.5 harvester, and, for a companded technique, the antenna noise and
distortion scaled by the expander's noise factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import subcarrier_gains
from .companding import PEAK, expand_waveform
from .harvester import EhModel, eta3, watts_to_dbm
from .ofdm import OfdmConfig, demap_symbols, ofdm_demodulate


@dataclass(frozen=True)
class SplitConfig:
    """Power-splitting ratio and receiver noise variances.

    rho is the share of received power routed to the energy harvester;
    the information branch gets the remaining 1 - rho.  The default keeps
    one part per million for the information receiver, which is enough
    given the roughly 60 dB sensitivity gap between the two circuits.
    """

    rho: float = 1.0 - 1e-6
    sigma_a2: float = 1e-3
    sigma_p2: float = 1e-3

    def __post_init__(self) -> None:
        for name in ("rho", "sigma_a2", "sigma_p2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if self.sigma_a2 < 0.0 or self.sigma_p2 < 0.0:
            raise ValueError("noise variances must be non-negative")

    def gamma_eh(self, p_rf_tx: float) -> float:
        return self.rho * p_rf_tx

    def gamma_info(self, p_rf_tx: float) -> float:
        return (1.0 - self.rho) * p_rf_tx


@dataclass(frozen=True)
class LinkMetrics:
    """One technique's link metrics at its back-off reduction; the CIs are
    95% half-widths of eta3 and BER, NaN below two trials."""

    rate_bps_hz: float
    harvested_norm: float
    ber: float
    eta1: float
    eta3: float
    eta_e2e: float
    ibo_reduction_db: float
    eta3_ci: float
    ber_ci: float

    def __post_init__(self) -> None:
        if self.rate_bps_hz < 0.0:
            raise ValueError("rate must be non-negative")
        for name in ("ber", "eta1", "eta3", "eta_e2e"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")


def split_noise(split: SplitConfig, z: np.ndarray) -> np.ndarray:
    """The antenna and information-branch noise of shape (..., 2, n), from
    unit normal draws z of shape (..., 2, 2, n): for the antenna and then
    the branch, the real and then the imaginary parts.

    Every receiver that shares z scales the same draws by its own
    variances; a variance of 0 gives zero noise.
    """
    noise = np.zeros(z.shape[:-3] + (2, z.shape[-1]), dtype=np.complex128)
    for row, v in enumerate((split.sigma_a2, split.sigma_p2)):
        if v != 0.0:
            scale = np.sqrt(v / 2.0)
            # the parts written in place equal scale * (re + 1j*im) bit for
            # bit: the complex product's 0 * x terms add nothing
            np.multiply(scale, z[..., row, 0, :], out=noise.real[..., row, :])
            np.multiply(scale, z[..., row, 1, :], out=noise.imag[..., row, :])
    return noise


def info_branch(y: np.ndarray, split: SplitConfig, noise: np.ndarray) -> np.ndarray:
    """The information branch of the received samples y (..., n), built in
    y's own memory (y is overwritten and returned), for noise from
    split_noise.

    The antenna noise rides the signal into the splitter, which passes a
    1 - rho share of the power; the branch then adds its processing noise.
    The noise broadcasts against y: the noise of receptions of shape
    trials + (2, n) for y of shape trials + (n,), or one reception's
    (2, n) shared by every row of y (alternative transmit waveforms
    received through one noise realization).
    """
    y += noise[..., 0, :]
    y *= np.sqrt(1.0 - split.rho)
    y += noise[..., 1, :]
    return y


def sinr(
    split: SplitConfig,
    k_l: float,
    sigma_d2: float,
    h_gain2: float = 1.0,
    p_rf_tx: float = 1.0,
) -> float:
    """Post-split SINR of the information branch, distortion counted as noise."""
    gamma_i = split.gamma_info(p_rf_tx)
    num = h_gain2 * gamma_i * k_l**2
    den = h_gain2 * gamma_i * sigma_d2 + (1.0 - split.rho) * split.sigma_a2 + split.sigma_p2
    if den == 0.0:
        warnings.warn("noise-free and distortion-free link, SINR diverges",
                      RuntimeWarning, stacklevel=2)
        return np.inf if num > 0 else 0.0
    return num / den


def achievable_rate(sinr_value: float) -> float:
    """Shannon rate in bits/s/Hz for the given SINR."""
    if sinr_value < 0.0:
        raise ValueError("SINR must be non-negative")
    return float(np.log2(1.0 + sinr_value))


@dataclass(frozen=True)
class HarvestedEnergy:
    h_p: float
    h_p_norm: float


def harvested(
    split: SplitConfig,
    k_l: float,
    sigma_d2: float,
    h_gain2: float = 1.0,
    p_rf_tx: float = 1.0,
    eh: EhModel | None = None,
) -> HarvestedEnergy:
    """DC power h_p collected by the EH branch.

    Signal, distortion, and noise all carry power into the rectifier, so
    every term contributes.  h_p_norm divides by the transmit power p_rf_tx
    to give the dimensionless H_P/E.

    In curve mode the conversion efficiency is read at the total branch
    power, taken in watts; closed-form sweeps normally use linear mode.
    """
    eh = eh if eh is not None else EhModel.linear()
    p_in = (
        h_gain2 * split.gamma_eh(p_rf_tx) * (k_l**2 + sigma_d2)
        + split.rho * split.sigma_a2
        + split.sigma_p2
    )
    h_p = float(eta3(eh, watts_to_dbm(p_in))) * p_in
    return HarvestedEnergy(h_p=h_p, h_p_norm=h_p / p_rf_tx)


def demodulate_and_ber(
    info_branch: np.ndarray,
    taps,
    cfg: OfdmConfig,
    truth_bits: np.ndarray,
    expander: float | None = None,
    expander_scale=None,
):
    """Demodulate the information branch and count bit errors.

    Takes one frame, or a block of frames along the leading axes of
    info_branch (..., samples), with their taps (..., n_taps), truth bits
    (..., bits) and expander scales (...); returns the bit error rate of
    each frame, a float for a single frame.  Mu-law expansion with mu =
    ``expander`` and the fixed companding.PEAK runs first, unless expander
    is None; ``expander_scale`` is the known amplitude gain between the
    transmitted compressed waveform and this branch, so the expander
    operates in the domain it was designed for.  Then per symbol: CP
    removal, DFT, single-tap zero-forcing with the true subcarrier gains,
    and a hard QPSK decision.
    """
    y = np.asarray(info_branch)
    lead = y.shape[:-1]
    if expander is not None:
        scale = np.broadcast_to(1.0 if expander_scale is None else expander_scale, lead)
        if np.any(scale <= 0.0):
            raise ValueError("expander_scale must be positive")
        scale = scale[..., None]
        yn = y / scale
        # noise can push samples far past the compressor's output range,
        # where the expander grows exponentially; saturate well above the
        # legitimate domain so such samples stay finite.  Only the frames
        # with such a sample are rescaled: (yn * m) / m is not always yn
        m = np.abs(yn)
        cap = 64.0 * PEAK
        over = np.any(m > cap, axis=-1)
        if np.any(over):
            m = m[over]
            yn[over] = yn[over] * np.minimum(m, cap) / np.where(m > 0, m, 1.0)
        y = expand_waveform(yn, expander) * scale
    sym_len = cfg.n_samples + cfg.cp_length
    if y.shape[-1] % sym_len:
        raise ValueError(
            f"branch length {y.shape[-1]} is not a whole number of "
            f"{sym_len}-sample symbols"
        )
    grid_hat = ofdm_demodulate(y.reshape(lead + (-1, sym_len)), cfg)
    h_k = subcarrier_gains(np.asarray(taps).reshape(lead + (-1,)), cfg)
    if np.any(np.abs(h_k) == 0.0):
        raise ValueError("channel nulls a subcarrier, zero-forcing undefined")
    bits_hat = demap_symbols((grid_hat / h_k[..., None, :]).ravel()).reshape(lead + (-1,))
    truth = np.asarray(truth_bits).reshape(lead + (-1,))
    if truth.shape != bits_hat.shape:
        raise ValueError("truth bit count does not match the demodulated grid")
    ber = np.mean(bits_hat != truth, axis=-1)
    return float(ber) if not lead else ber
