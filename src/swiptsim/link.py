"""Power-splitting receiver and its demodulator.

The receiver taps the incoming waveform into an energy-harvesting branch
(fraction rho of the power) and an information branch (fraction 1 - rho).
Antenna noise is picked up before the splitter and therefore appears,
scaled, in both branches; processing noise is injected into the
information branch only.

The demodulator measures each frame's bit error rate and its rate,
log2(1 + K^2 / sigma_d^2), from the Bussgang decomposition of the
zero-forced subcarrier grid against the transmitted QPSK symbols
(Dardari, Tralli & Vaccari, IEEE Trans. Commun. 2000): amplifier and
compander distortion, fading and both noise terms enter as measured on
the simulated chain.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .companding import PEAK, expand_waveform
from .ofdm import OfdmConfig, demap_symbols, ofdm_demodulate
from .pa import BussgangParams, bussgang_estimate


@dataclass(frozen=True)
class SplitConfig:
    """Power-splitting ratio and receiver noise variances.

    rho is the share of received power routed to the energy harvester;
    the information branch gets the remaining 1 - rho.  The default keeps
    one part per million for the information receiver, which is enough
    given the roughly 60 dB sensitivity gap between the two circuits.
    sigma_a2 (antenna) and sigma_p2 (processing) are noise powers relative
    to the nominal transmit power, the baseline amplifier's mean output.
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


@dataclass(frozen=True)
class LinkMetrics:
    """One technique's link metrics at its back-off reduction.

    rate_bps_hz is the mean over trials of each frame's measured rate (see
    demodulate_and_ber); harvested_norm (H_P/E) is eta3 * rho * (P_rx +
    sigma_a2), the rectified power over the nominal transmit power, with
    P_rx the technique's mean received power; the CIs are 95% half-widths
    of eta3 and BER, NaN below two trials.
    """

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
        # written so that NaN fails too; an infinite rate is legal
        if not self.rate_bps_hz >= 0.0:
            raise ValueError(f"rate must be non-negative, got {self.rate_bps_hz}")
        if not self.harvested_norm >= 0.0:
            raise ValueError(f"harvested_norm must be non-negative, got {self.harvested_norm}")
        for name in ("ber", "eta1", "eta3", "eta_e2e"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")


def info_branch(y: np.ndarray, split: SplitConfig, antenna: np.ndarray,
                branch: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """The information branch of the received samples y (..., n), built in
    y's own memory (y is overwritten and returned).

    antenna and branch are unit normal draws viewed as complex, real and
    imaginary parts each of unit variance, scaled here by sqrt(sigma_a2 / 2)
    and sqrt(sigma_p2 / 2): the antenna noise rides the signal into the
    splitter, which passes a 1 - rho share of the power, and the branch
    then adds its processing noise.  A variance of 0 adds nothing, and
    branch may then be None.  The draws broadcast against y: the draws of
    receptions of shape trials + (n,) for y of the same shape, or one
    reception's (n,) shared by every row of y (alternative transmit
    waveforms received through one noise realization).  The scaled draws
    are formed in ``scratch``, a complex array of the draws' shape that
    does not share memory with y, if given, and in new arrays if not.
    """
    if split.sigma_p2 != 0.0 and branch is None:
        raise ValueError("sigma_p2 > 0 needs the branch's noise draws")

    def scaled(variance: float, draws: np.ndarray) -> np.ndarray:
        return np.multiply(np.sqrt(variance / 2.0), draws, out=scratch)

    if split.sigma_a2 != 0.0:
        y += scaled(split.sigma_a2, antenna)
    y *= np.sqrt(1.0 - split.rho)
    if split.sigma_p2 != 0.0:
        y += scaled(split.sigma_p2, branch)
    return y


def _rate(bp: BussgangParams):
    """log2(1 + K^2 / sigma_d^2) of each frame.  A frame with neither noise
    nor distortion has an infinite rate, or 0 if it carries no signal
    either (an all-zero branch); both cases warn."""
    k2 = np.square(bp.k_l)
    quiet = np.asarray(bp.sigma_d2) == 0.0
    if np.any(quiet):
        warnings.warn("noise-free and distortion-free link, SINR diverges",
                      RuntimeWarning, stacklevel=3)
    sinr = np.divide(k2, bp.sigma_d2, out=np.where(k2 > 0.0, np.inf, 0.0), where=~quiet)
    return np.log2(1.0 + sinr)


def _head(buf: np.ndarray, shape: tuple[int, ...], dtype=np.complex128) -> np.ndarray:
    """The first prod(shape) elements of buf's memory, viewed as dtype in
    shape."""
    flat = buf.reshape(-1).view(dtype)
    return flat[:math.prod(shape)].reshape(shape)


def demodulate_and_ber(
    info_branch: np.ndarray,
    gains: np.ndarray,
    cfg: OfdmConfig,
    sent: np.ndarray,
    sent_bits: np.ndarray,
    expander: float | None = None,
    expander_scale=None,
    scratch: np.ndarray | None = None,
):
    """Demodulate the information branch; (bit error rate, rate in
    bits/s/Hz) of each frame.

    Takes one frame, or a block of frames along the leading axes of
    info_branch (..., samples), with their channels' subcarrier gains
    (..., N, from channel.subcarrier_gains), sent QPSK symbols (...,
    symbols x N, as ofdm.map_bits gives them), the bits those symbols
    carry (..., 2 x symbols x N, 0/1 or bool, as map_bits took them) and
    expander scales (...); returns floats for a single frame and arrays of shape
    (...) for a block.  The gains and bits are inputs so that a receiver
    computes them once per block and channel, not once per call; only
    their shapes and the gains' zeros are checked, so bits that are not
    those of ``sent`` give a wrong BER and no error.

    Mu-law expansion with mu = ``expander`` and the fixed companding.PEAK
    runs first, unless expander is None; ``expander_scale`` is the known
    amplitude gain between the transmitted compressed waveform and this
    branch, so the expander operates in the domain it was designed for.
    Then per symbol: CP removal, DFT and single-tap zero-forcing with the
    true subcarrier gains.  The BER counts the hard QPSK decisions on that
    grid (ofdm.demap_symbols) that differ from the sent bits; the rate is
    log2(1 + K^2 / sigma_d^2) of the grid's Bussgang decomposition against
    the sent symbols (pa.bussgang_estimate), so distortion, noise and any
    expander noise gain count as noise.

    The branch is demodulated in its own memory, expander and grid: a
    C-contiguous complex128 info_branch is overwritten, as info_branch
    builds the branch in y's, and any other is copied first.  The
    expander's magnitudes and gains and the DFT are formed in ``scratch``,
    a complex128 array of info_branch's size that does not share memory
    with it, if given, and in a new one if not.
    """
    y = np.ascontiguousarray(info_branch, dtype=np.complex128)
    lead = y.shape[:-1]
    gains = np.asarray(gains)
    if np.any(gains == 0.0):
        raise ValueError("channel nulls a subcarrier, zero-forcing undefined")
    sym_len = cfg.n_samples + cfg.cp_length
    if y.shape[-1] % sym_len:
        raise ValueError(
            f"branch length {y.shape[-1]} is not a whole number of "
            f"{sym_len}-sample symbols"
        )
    n_grid = y.shape[-1] // sym_len * cfg.n_subcarriers
    sent = np.asarray(sent).reshape(lead + (-1,))
    sent_bits = np.asarray(sent_bits).reshape(lead + (-1,))
    if sent.shape[-1] != n_grid or sent_bits.shape[-1] != 2 * n_grid:
        raise ValueError("sent symbol count does not match the demodulated grid")
    if scratch is None:
        scratch = np.empty_like(y)
    if expander is not None:
        scale = np.broadcast_to(1.0 if expander_scale is None else expander_scale, lead)
        # written so that NaN fails too
        if not np.all(scale > 0.0):
            raise ValueError("expander_scale must be positive")
        scale = scale[..., None]
        y /= scale
        # the magnitudes and the gains: two float arrays in scratch's memory
        m, gain = _head(scratch, (2,) + y.shape, np.float64)
        np.abs(y, out=m)
        # noise can push samples far past the compressor's output range,
        # where the expander grows exponentially; saturate well above the
        # legitimate domain so such samples stay finite.  Only the frames
        # with such a sample are rescaled: (y * m) / m is not always y
        cap = 64.0 * PEAK
        over = np.any(m > cap, axis=-1)
        if np.any(over):
            m_over = m[over]
            y[over] = y[over] * np.minimum(m_over, cap) / np.where(m_over > 0, m_over, 1.0)
            m[over] = np.abs(y[over])
        expand_waveform(y, expander, m, gain)
        y *= scale
    symbols = y.reshape(lead + (-1, sym_len))
    grid = ofdm_demodulate(symbols, cfg,
                           out=_head(y, symbols.shape[:-1] + (cfg.n_subcarriers,)),
                           spectrum=_head(scratch, symbols.shape[:-1] + (cfg.n_samples,)))
    grid /= gains[..., None, :]
    grid = grid.reshape(lead + (-1,))
    ber = np.mean(demap_symbols(grid) != sent_bits, axis=-1)
    rate = _rate(bussgang_estimate(sent, grid))
    if not lead:
        return float(ber), float(rate)
    return ber, rate
