"""Power-splitting receiver and its demodulator.

The receiver taps the incoming waveform into an energy-harvesting branch
(fraction rho of the power) and an information branch (fraction 1 - rho).
Antenna noise is picked up before the splitter and therefore appears,
scaled, in both branches; processing noise is injected into the
information branch only.

The demodulator measures each frame's bit error rate and its rate,
log2(1 + K^2 / sigma_d^2), from the Bussgang decomposition of the
zero-forced subcarrier grid against the transmitted QPSK symbols
(Dardari, Tralli & Vaccari, IEEE Trans. Commun. 2000; score_grid):
amplifier and compander distortion, fading and both noise terms enter as
measured on the simulated chain.  Two receivers form that grid.  The
time-domain one (demodulate_and_ber, receive_companded) takes the DFT of
each information branch, after the expander of a companded technique.
Without an expander the receiver is linear, and the cyclic prefix makes
the channel one gain per tone, so the grid is a sum of tones (info_grids,
receive_linear): the transmit frames' and each noise draw's, which a
receiver computes once and shares between channels and splitters.
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


def symbol_tones(frames: np.ndarray, cfg: OfdmConfig, out: np.ndarray | None = None,
                 spectrum: np.ndarray | None = None) -> np.ndarray:
    """The N active tones of each symbol of frames (..., symbols x (N*L +
    prefix)), shape (..., symbols, N): per symbol CP removal and DFT
    (ofdm.ofdm_demodulate).

    The tones are formed in the first elements of ``out``'s memory and the
    DFT in those of ``spectrum``'s, complex128 arrays large enough, if
    given, and in new arrays if not; out may share memory with frames.
    """
    sym_len = cfg.n_samples + cfg.cp_length
    if frames.shape[-1] % sym_len:
        raise ValueError(
            f"branch length {frames.shape[-1]} is not a whole number of "
            f"{sym_len}-sample symbols"
        )
    symbols = frames.reshape(frames.shape[:-1] + (-1, sym_len))
    if out is not None:
        out = _head(out, symbols.shape[:-1] + (cfg.n_subcarriers,))
    if spectrum is not None:
        spectrum = _head(spectrum, symbols.shape[:-1] + (cfg.n_samples,))
    return ofdm_demodulate(symbols, cfg, out=out, spectrum=spectrum)


def zero_force(tones: np.ndarray, gains, out: np.ndarray | None = None) -> np.ndarray:
    """Single-tap zero-forcing: the tones of each symbol (..., symbols, N)
    over their channel's subcarrier gains (..., N, from
    channel.subcarrier_gains), into ``out`` if given, which may be tones.
    A channel that nulls a subcarrier is a ValueError."""
    gains = np.asarray(gains)
    if np.any(gains == 0.0):
        raise ValueError("channel nulls a subcarrier, zero-forcing undefined")
    return np.divide(tones, gains[..., None, :], out=out)


def score_grid(grid: np.ndarray, sent, sent_bits):
    """(bit error rate, rate in bits/s/Hz) of each zero-forced grid.

    grid (..., n) is scored against the sent QPSK symbols (..., n, as
    ofdm.map_bits gives them) and the bits those symbols carry (..., 2 n,
    0/1 or bool), which broadcast against it, so that one block's symbols
    serve a stack of its grids.  The BER counts the hard QPSK decisions on
    the grid (ofdm.demap_symbols) that differ from the sent bits, and the
    rate is log2(1 + K^2 / sigma_d^2) of the grid's Bussgang decomposition
    against the sent symbols (pa.bussgang_estimate), so distortion, noise
    and any expander noise gain count as noise.  Floats for one grid,
    arrays of shape (...) for a block.  Only the shapes are checked, so
    bits that are not those of ``sent`` give a wrong BER and no error.
    """
    sent, sent_bits = np.asarray(sent), np.asarray(sent_bits)
    if sent.shape[-1] != grid.shape[-1] or sent_bits.shape[-1] != 2 * grid.shape[-1]:
        raise ValueError("sent symbol count does not match the demodulated grid")
    ber = np.mean(demap_symbols(grid) != sent_bits, axis=-1)
    rate = _rate(bussgang_estimate(sent, grid))
    if grid.ndim == 1:
        return float(ber), float(rate)
    return ber, rate


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
    """Demodulate the information branch in the time domain; (bit error
    rate, rate in bits/s/Hz) of each frame.

    Takes one frame, or a block of frames along the leading axes of
    info_branch (..., samples), with their channels' subcarrier gains
    (..., N, from channel.subcarrier_gains), sent QPSK symbols (...,
    symbols x N, as ofdm.map_bits gives them), the bits those symbols
    carry (..., 2 x symbols x N, 0/1 or bool, as map_bits took them) and
    expander scales (...); returns floats for a single frame and arrays of
    shape (...) for a block.  The gains and bits are inputs so that a
    receiver computes them once per block and channel, not once per call.

    Mu-law expansion with mu = ``expander`` and the fixed companding.PEAK
    runs first, unless expander is None; ``expander_scale`` is the known
    amplitude gain between the transmitted compressed waveform and this
    branch, so the expander operates in the domain it was designed for.
    Then per symbol: CP removal, DFT (symbol_tones) and single-tap
    zero-forcing with the true subcarrier gains (zero_force), and the grid
    is scored by score_grid.  Without an expander the receiver is linear,
    and link.info_grids gives the same grids from the tones.

    The branch is demodulated in its own memory, expander and grid: a
    C-contiguous complex128 info_branch is overwritten, as info_branch
    builds the branch in y's, and any other is copied first.  The
    expander's magnitudes and gains and the DFT are formed in ``scratch``,
    a complex128 array of info_branch's size that does not share memory
    with it, if given, and in a new one if not.
    """
    y = np.ascontiguousarray(info_branch, dtype=np.complex128)
    lead = y.shape[:-1]
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
    grid = zero_force(symbol_tones(y, cfg, out=y, spectrum=scratch), gains)
    return score_grid(grid.reshape(lead + (-1,)), np.asarray(sent).reshape(lead + (-1,)),
                      np.asarray(sent_bits).reshape(lead + (-1,)))


def info_grids(tones: np.ndarray, splits, antenna: np.ndarray,
               branch: np.ndarray | None = None, out: np.ndarray | None = None,
               scratch: np.ndarray | None = None) -> np.ndarray:
    """The zero-forced grids of a linear receiver's information branches,
    one per splitter of ``splits``, stacked along a new first axis.

    Without a nonlinearity between the splitter and the DFT the grid is a
    sum of tones: the cyclic prefix makes the channel one gain per tone,
    which zero-forcing divides back out, so the signal arrives as sent and
    each noise draw over the channel's gains.  tones (..., symbols, N) are
    the transmit frames' active tones at the receiver's level, and antenna
    and branch the zero-forced tones of the unit noise draws
    (zero_force(symbol_tones(draws))), of tones' shape; splitter p's grid
    is sqrt(1 - rho) (tones + sqrt(sigma_a2 / 2) antenna) + sqrt(sigma_p2 /
    2) branch, info_branch's order of operations, and matches the grid of
    demodulate_and_ber without an expander up to rounding.  branch may be
    None when no splitter adds processing noise.  The grids are formed in
    ``out``, a complex128 array of shape (len(splits),) + tones.shape, and
    the scaled processing noise in ``scratch``, of tones' shape and not
    sharing memory with out, if given, and in new arrays if not.
    """
    if branch is None and any(split.sigma_p2 != 0.0 for split in splits):
        raise ValueError("sigma_p2 > 0 needs the branch's noise draws")
    per_split = (-1,) + (1,) * tones.ndim
    sigma_a2 = np.array([split.sigma_a2 for split in splits])
    grids = np.multiply(np.sqrt(sigma_a2 / 2.0).reshape(per_split), antenna, out=out)
    grids += tones
    grids *= np.sqrt(1.0 - np.array([split.rho for split in splits])).reshape(per_split)
    for grid, split in zip(grids, splits):
        if split.sigma_p2 != 0.0:
            grid += np.multiply(np.sqrt(split.sigma_p2 / 2.0), branch, out=scratch)
    return grids


def receive_linear(tones: np.ndarray, splits, noise: np.ndarray, sent, sent_bits,
                   slots: np.ndarray):
    """(bit error rate, rate) of every splitter's information branch in a
    linear receiver, arrays of shape (len(splits),) + tones.shape[:-2].

    noise holds the zero-forced tones of the antenna's unit draws and, when
    some splitter adds processing noise, of the branch's, (1 or 2,) +
    tones.shape.  The grids of info_grids are scored by score_grid against
    the block's sent symbols and bits (..., symbols x N and ..., 2 x
    symbols x N), as many splitters at a time as ``slots``, a complex128
    array of shape (m,) + tones.shape, holds: m, or m - 1 with the
    branch's draws, whose scaled draw takes the last slot.
    """
    antenna, branch = noise[0], (noise[1] if len(noise) > 1 else None)
    per = len(slots) - (branch is not None)
    ber = np.empty((len(splits),) + tones.shape[:-2])
    rate = np.empty_like(ber)
    for start in range(0, len(splits), per):
        chunk = slice(start, min(start + per, len(splits)))
        grids = info_grids(tones, splits[chunk], antenna, branch, out=slots[:chunk.stop - start],
                           scratch=slots[-1] if branch is not None else None)
        ber[chunk], rate[chunk] = score_grid(grids.reshape(grids.shape[:-2] + (-1,)),
                                             sent, sent_bits)
    return ber, rate


def receive_companded(y: np.ndarray, splits, noise: np.ndarray, gains, cfg: OfdmConfig,
                      sent, sent_bits, mu: float, drive_rms, copy: np.ndarray,
                      power: np.ndarray, scratch: np.ndarray):
    """(bit error rate, rate) of every splitter's information branch in the
    time-domain receiver of a companded technique, arrays of shape
    (len(splits),) + y.shape[:-1].

    y (..., samples) is the noiseless received signal at the demodulator's
    level, through one channel with subcarrier gains ``gains`` and
    numerology cfg, and noise the antenna's unit draws and, when some
    splitter adds processing noise, the branch's, (1 or 2,) + y.shape (see
    info_branch).  Each splitter's branch is built in ``copy``, the last
    one's in y, and demodulated by demodulate_and_ber with the expander
    mu, at the scale sqrt((1 - rho) P) / drive_rms: the known amplitude
    gain from the compressed transmit frames, of rms drive_rms (...), to
    the noiseless branch, P being each frame's mean power, so that the
    expander operates in its design domain.  copy, power (float64) and
    scratch are arrays of y's shape that share no memory.
    """
    antenna, branch = noise[0], (noise[1] if len(noise) > 1 else None)
    p_info = np.abs(y, out=power)
    p_info **= 2
    p_info = np.mean(p_info, axis=-1)
    ber = np.empty((len(splits),) + y.shape[:-1])
    rate = np.empty_like(ber)
    for p, split in enumerate(splits):
        info = y
        if p < len(splits) - 1:
            info = copy
            np.copyto(info, y)
        rms_rx = np.sqrt((1.0 - split.rho) * p_info)
        scale = np.ones_like(rms_rx)
        np.divide(rms_rx, drive_rms, out=scale, where=np.minimum(drive_rms, rms_rx) > 0)
        info_branch(info, split, antenna, branch, scratch)
        ber[p], rate[p] = demodulate_and_ber(info, gains, cfg, sent, sent_bits, mu, scale,
                                             scratch)
    return ber, rate
