"""Scenario definitions, the Monte Carlo runner, and CSV output.

A Scenario bundles the transmitter, the amplifier's operating point,
the rectenna and the Monte Carlo sizes; run_techniques turns it into one
LinkMetrics per channel, splitter and technique, with batch-means
confidence intervals, over one set of random draws (TABLE_TECHNIQUES
gives the four-technique efficiency comparison).  A sweep over the
splitting ratio or Eb/N0 is one pass with one splitter per point.

Measurement conventions, used consistently everywhere:

* PA efficiency eta1 is evaluated at the back-off the technique actually
  needs: the nominal IBO minus the technique's IBO reduction.
* Rectifier efficiency eta3 is measured on the waveform entering the EH
  branch, with the ensemble mean power pinned to 0 dBm so the working
  point matches the rectenna calibration anchor.
* BER is measured at equal average transmit power (PA output normalized
  over the run) through a unit-mean-gain channel, so the noise variance
  alone sets the operating SNR.
* Rate is measured in the same pass as BER: the mean over trials of
  log2(1 + K^2 / sigma_d^2), the Bussgang decomposition of each frame's
  zero-forced grid against its transmitted symbols (link.score_grid).  A
  companded technique's grid is demodulated in the time domain after the
  expander (link.demodulate_and_ber); every other technique's receiver is
  linear, and its grid is formed on the tones (link.info_grids), equal to
  the time-domain grid up to rounding.  Amplifier distortion, fading, the
  antenna noise and the processing noise enter.
* H_P/E is eta3 * rho * (P_rx + sigma_a2): the Monte Carlo rectifier
  efficiency times the EH branch's input, the technique's mean received
  power P_rx plus the antenna noise, over the nominal transmit power
  (Zhou, Zhang & Ho, IEEE Trans. Commun. 2013).  The processing noise
  sigma_p2 is the information branch's and is not harvested.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import channel
from .channel import CHANNEL_KINDS, ChannelSpec, apply_channel, sample_channel
from .companding import companding_ibo_reduction_db, compress_waveform
from .dpd import PolyFit, design_from_scratch
from .harvester import RectennaCurve, default_rectenna, eta3 as eh_curve_eta3, watts_to_dbm
from .link import LinkMetrics, receive_companded, receive_linear, symbol_tones, zero_force
from .ofdm import OfdmConfig, map_bits, run_bounded, synthesize_waveforms, with_prefix
from .pa import PaModel, amplify, efficiency_at_backoff

TECHNIQUES = ("linear", "baseline", "dpd", "companding", "dpd_companding")
TABLE_TECHNIQUES = ("baseline", "dpd", "companding", "dpd_companding")
N_CI_BATCHES = 20
# Student-t 97.5% quantiles for 1..N_CI_BATCHES - 1 degrees of freedom,
# scipy.special.stdtrit(d, 0.975) as repr floats
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087,
)


class ConfigError(ValueError):
    """Configuration problem; reported with its location, exits with 2."""


@dataclass(frozen=True)
class Scenario:
    """The transmitter and harvester that the techniques are compared with;
    ibo_db is the amplifier's nominal input back-off, which DPD and
    companding reduce, and eh the harvester: a rectenna curve, or one
    efficiency in [0, 1] for the linear benchmark.  The channels and
    splitters are run_techniques's."""

    ofdm: OfdmConfig = OfdmConfig()
    pa: PaModel = PaModel.sspa(smoothness=1.2)
    ibo_db: float = 8.0
    eh: RectennaCurve | float = field(default_factory=default_rectenna)
    trials: int = 50
    seed: int = 0
    mu: float = 1.25
    frame_symbols: int = 4

    def __post_init__(self) -> None:
        for name in ("trials", "frame_symbols"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {n!r}")
        for name in ("ibo_db", "mu"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        if self.ibo_db < 0.0:
            raise ValueError(f"ibo_db must be non-negative, got {self.ibo_db!r}")
        if not self.mu > 0.0:
            raise ValueError("mu must be positive")
        eh = self.eh
        if not isinstance(eh, RectennaCurve) and (
                isinstance(eh, bool) or not isinstance(eh, numbers.Real) or not 0.0 <= eh <= 1.0):
            raise ValueError(f"eh must be a RectennaCurve or an efficiency in [0, 1], got {eh!r}")


def _uses_dpd(technique: str) -> bool:
    return technique in ("dpd", "dpd_companding")


def _uses_companding(technique: str) -> bool:
    return technique in ("companding", "dpd_companding")


def _saturating(pa: PaModel) -> bool:
    return pa.kind in ("sspa", "soft_limiter")


def technique_reductions(s: Scenario, techniques) -> list[tuple[float, float, PolyFit | None]]:
    """(DPD reduction in dB, companding reduction in dB, predistorter) of
    each technique on the scenario's link; the predistorter is the inverse
    fit that the transmit chain (pa.amplify) applies, None for a technique
    without DPD and for a degenerate design.

    Each reduction is derived from the technique's own design: DPD's from
    the predistorter design, companding's from the compression power gain
    of s.mu; a total above ibo_db is a ConfigError, found before the
    predistorter is designed when companding's share alone runs past it.
    A non-saturating amplifier has nothing to back off from, so reductions
    are zero there; a degenerate DPD design likewise contributes zero.  The
    predistorter is designed once, when some technique uses DPD, and shared
    by every technique, channel and splitter: it does not depend on the
    cyclic prefix, and its back-off search takes the first EVM crossing it
    scans (see design_ibo_reduction).  An unknown technique is a
    ValueError.
    """
    techniques = tuple(techniques)
    for technique in techniques:
        if technique not in TECHNIQUES:
            raise ValueError(f"technique must be one of {TECHNIQUES}, got {technique!r}")
    saturating = _saturating(s.pa)

    def check(technique: str, total_db: float) -> None:
        if saturating and total_db > s.ibo_db:
            raise ConfigError(f"the {technique} technique's back-off reduction of "
                              f"{total_db:g} dB runs past ibo_db = {s.ibo_db:g} dB")

    r_comps = [companding_ibo_reduction_db(s.mu) if _uses_companding(t) else 0.0
               for t in techniques]
    # a DPD reduction is never negative, so this total can only grow
    for technique, r_comp in zip(techniques, r_comps):
        check(technique, r_comp)
    dpd = (0.0, None)
    if any(_uses_dpd(t) for t in techniques):
        design = design_from_scratch(s.pa, s.ofdm, baseline_ibo_db=s.ibo_db)[0]
        if not design.degenerate:
            dpd = (design.ibo_reduction_db, design.inverse_fit)
    reductions = []
    for technique, r_comp in zip(techniques, r_comps):
        r_dpd, fit = dpd if _uses_dpd(technique) else (0.0, None)
        check(technique, r_dpd + r_comp)
        reductions.append((r_dpd, r_comp, fit) if saturating else (0.0, 0.0, fit))
    return reductions


def _batch_ci(samples: np.ndarray):
    """95% half-widths via batch means over the last axis, NaN below two
    samples: a float for one-dimensional samples, and for samples (..., n)
    an array (...), each entry bit-identical to the one-dimensional call."""
    b = min(N_CI_BATCHES, samples.shape[-1])
    if b < 2:
        ci = np.full(samples.shape[:-1], np.nan)
    else:
        means = np.stack([chunk.mean(axis=-1)
                          for chunk in np.array_split(samples, b, axis=-1)], axis=-1)
        ci = _T975[b - 2] * means.std(axis=-1, ddof=1) / np.sqrt(b)
    return float(ci) if samples.ndim == 1 else ci


def channel_ofdm(ofdm: OfdmConfig, spec: ChannelSpec) -> OfdmConfig:
    """The numerology with a cyclic prefix long enough for the channel;
    a ConfigError naming the channel if that prefix does not fit in the
    symbol."""
    if spec.kind == "rayleigh_multitap" and ofdm.cp_length < spec.n_taps - 1:
        cp = 2 ** int(np.ceil(np.log2(spec.n_taps)))
        try:
            return replace(ofdm, cp_length=cp)
        except ValueError as exc:
            raise ConfigError(f"channel '{spec.kind}' needs a cyclic prefix of {cp} "
                              f"samples: {exc}") from exc
    return ofdm


def noise_for_ebn0(ebn0_db: float, cfg: OfdmConfig) -> float:
    """Antenna-noise variance giving the target Eb/N0 for a unit-power
    QPSK transmit waveform (oversampling discards out-of-band noise)."""
    return cfg.oversampling_factor / (2.0 * 10.0 ** (ebn0_db / 10.0))


# the first stream key of the receiver noise, after the bits' and the
# channel kinds' keys
_NOISE = 1 + len(CHANNEL_KINDS)


def _stream(seed: int, *key: int) -> np.random.Generator:
    # one independent stream of the run's seed per key: (0,) the bits,
    # (1 + i, 0) the taps of channel kind i, and (_NOISE, t, 0) and
    # (_NOISE, t, 1) the unit antenna and information-branch noise of trial
    # t, which every channel shares
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# run_techniques works on blocks of trials of about this many bytes of
# complex128 frame, 4 frames of 4 symbols at N*L = 2048: on 2 cores a numpy
# call on one or two frames gains nothing from a second thread, and one on
# four or more does.  e2e at N*L = 2048, 50 trials, two threads on a 2-core
# VM: the Monte Carlo took 0.79 s with 2 frames per block, 0.64 s with 4
# and 0.63 s with 8 (medians of 5 runs), at a peak RSS of 73.8, 78.5 and
# 88.9 MB
_BLOCK_BYTES = 1 << 19


class _Workspace:
    """Named arrays that one Monte Carlo job reuses from block to block, so
    that a pass takes no new frame-size memory per block.

    ``take(name, shape, dtype)`` returns a view of the named buffer's
    bytes, which grow to the largest size asked for and are otherwise
    kept, so one buffer may hold values of different types in turn.  Only
    run_techniques names buffers; the library functions it calls get them
    as explicit ``out``/``scratch`` arrays.  A workspace serves one job at
    a time; it is not locked.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.complex128) -> np.ndarray:
        size = math.prod(shape) * np.dtype(dtype).itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, np.uint8)
        return buf[:size].view(dtype).reshape(shape)


def _mean_power(y: np.ndarray, work: _Workspace) -> np.ndarray:
    """mean(|y|^2) over the last axis, |y|^2 in the "power" buffer."""
    p = np.abs(y, out=work.take("power", y.shape, np.float64))
    p **= 2
    return np.mean(p, axis=-1)


def run_techniques(
    s: Scenario, techniques, channels, splits, threads: int = 1
) -> tuple[tuple[tuple[LinkMetrics, ...], ...], ...]:
    """Monte Carlo evaluation of several techniques through several
    channels into several power splitters over one set of draws:
    results[c][p][k] is the LinkMetrics of technique k through channel c
    into splitter p, deterministic for a fixed seed.

    channels are ChannelSpecs and splits SplitConfigs, at least one of
    each.  Each channel's numerology is s.ofdm with a prefix long enough
    for it (see channel_ofdm).  Result [c][p][k] is bit-identical to
    run_techniques(s, (techniques[k],), (channels[c],), (splits[p],))[0][0][0]:
    no result depends on the other techniques, channels or splitters of
    the pass, on the block size or on the thread count.

    The pass is checked before any draw: a channel whose prefix does not
    fit in the symbol, then a technique whose back-off reduction runs past
    s.ibo_db, is a ConfigError.  The predistorter is designed once per
    call, in technique_reductions, and serves every technique, channel and
    splitter.

    Common random numbers: the bits come from one stream of the seed and
    are drawn once; each channel's taps come from a stream keyed on (seed,
    channel kind).  The unit-variance antenna and information-branch noise
    of a trial come from two streams keyed on (seed, trial) alone, each
    drawn once as (n, 2) normals viewed as n complex samples, n the
    longest frame of the pass; every channel reads the first samples of
    its frame's length, and every splitter scales the same draws by its
    own variances.  The branch's stream is drawn only when some splitter
    has sigma_p2 > 0.  Each technique's transmit frames are built without
    a cyclic prefix: the chain acts per sample, so each channel adds its
    own prefix after the amplifier.  Linear's power reference is its own
    frames, every other technique's the baseline amplifier output of the
    uncompressed frames: the baseline's transmit waveform, or, without a
    baseline in the pass or a harvesting splitter, an amplification made
    for the reference alone.

    The trials run in blocks of about _BLOCK_BYTES of frame samples, in
    two passes of one job per block, and each job builds its block's
    frames from the block's bits: the uncompressed frames, the compressed
    ones once for the companded techniques, and one technique's transmit
    frames at a time.  The power job keeps only what the normalizations
    need: the reference powers and, when some splitter harvests, every
    technique's received power through every channel; with no harvesting
    splitter it builds only the uncompressed frames and the reference
    amplification.  Once the ensemble powers are known, the receive job
    builds the frames again, draws the block's noise and receives each
    technique with one of link's two receivers.  A companded technique's
    expander is a nonlinearity between the channel and the DFT, so it is
    received in the time domain (link.receive_companded): channel by
    channel its frames get the channel's prefix and taps, and every
    splitter's branch is built, expanded and demodulated.  Every other
    technique's receiver is linear, and the prefix makes each channel one
    gain per tone, so its zero-forced grid is a sum of tones
    (link.info_grids): its transmit frames' tones, taken once per block at
    the demodulator's level, plus each noise draw's tones over the
    channel's gains, taken once per block and prefix length, divided once
    per channel and shared by every linear technique.  link.receive_linear
    forms the splitters' grids as many at a time as a frame's room holds
    and scores them.  Faded frames are built only for the rectifier, when
    some splitter harvests, and for the expander.  Each quantity is
    computed at the level it depends on: the sent symbols (those the
    frames are built from) and bits once per block, the zero-forcing gains
    once per block and channel (channel.subcarrier_gains), and the
    compressed frames' rms once per block and prefix length, not per
    channel.  A pool of min(threads, blocks) workers processes the jobs,
    at most 2 * threads in flight, and with one worker the calling thread
    does (see ofdm.run_bounded).  Blocks are not split to feed more
    workers, since smaller ones gain nothing from a second thread (see
    _BLOCK_BYTES), so a pass of one block starts no pool.

    Memory: no frame outlives its job, so a pass holds per trial only its
    bits (2 N x frame_symbols int8), every channel's taps and the
    per-frame results, and its peak barely grows with the trial count.
    The price is that each frame is built twice, once per pass.  A job
    being processed works in a workspace (_Workspace) of block-sized
    buffers, which it takes from the jobs that are done, so at most one
    per worker exists and both passes reuse the same memory from block to
    block instead of allocating and returning frame-size temporaries.
    Each buffer holds one value at a time, in this order: "tx", one
    technique's transmit frames (or the reference amplification), then the
    noise draws' tones and their zero-forced copies; "tones", the linear
    techniques' transmit tones, 1/L of a frame each; "draws", the block's
    unit noise (one complex frame per trial, two with processing noise);
    "faded", the faded frames; "copy", the prefixed frames, then the
    rectenna's y * pin and then its float eta3 frames, then a splitter's
    copy of the faded frames; "power", the float |x|^2 of a power or an
    rms, then the rectenna's float |y|^2; and "scratch", the later taps'
    products of channel.apply_channel, the scaled noise of
    link.info_branch and then the expander's magnitudes and gains and the
    DFT of link.demodulate_and_ber, which builds the grid in the branch it
    demodulates, then the DFT of each tone taken and the linear receiver's
    grids.  The block's uncompressed and compressed frames are allocated
    once per job, and only temporaries of at most a frame's size (the
    Bussgang sums' and the bit decisions' of a stack of grids) per call.
    With a 4-trial block of 4 symbols at N*L = 2048, each worker's
    workspace takes about 3.25 MB with processing noise and 2.75 MB
    without, plus 0.125 MB per linear technique, which it keeps for the
    whole pass, and a job being processed 1 MB more for its block's
    frames.

    The rectifier works on the faded frames with their ensemble mean
    pinned to 0 dBm, which removes rho, so every splitter with rho > 0
    reports its channel's and technique's eta3; H_P/E scales it by the EH
    branch's input, rho * (P_rx + sigma_a2) in units of the nominal
    transmit power.  The demodulator works on the information branch at
    equal average transmit power through the faded channel, and measures
    each trial's BER and rate there.
    """
    techniques, channels, splits = tuple(techniques), tuple(channels), tuple(splits)
    if not techniques:
        raise ValueError("run_techniques needs at least one technique")
    if len(set(techniques)) != len(techniques):
        raise ValueError(f"techniques must not repeat, got {techniques}")
    if not channels or not splits:
        raise ValueError("run_techniques needs at least one channel and one splitter")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    chan_cfg = [channel_ofdm(s.ofdm, spec) for spec in channels]
    reductions = technique_reductions(s, techniques)
    n_tech = len(techniques)
    harvests = any(split.rho > 0.0 for split in splits)

    # the frames carry no prefix: each channel adds its own
    cfg = replace(s.ofdm, cp_length=0)
    trials = s.trials
    frame_len = s.frame_symbols * cfg.n_samples
    block = max(1, _BLOCK_BYTES // (16 * frame_len))
    blocks = [slice(i, min(i + block, trials)) for i in range(0, trials, block)]
    threads = min(threads, len(blocks))
    companded = [_uses_companding(t) for t in techniques]
    base = techniques.index("baseline") if "baseline" in techniques else None

    bits = _stream(s.seed, 0).integers(
        0, 2, size=(trials, 2 * cfg.n_subcarriers * s.frame_symbols), dtype=np.int8)
    taps = []
    for spec in channels:
        rng = _stream(s.seed, 1 + CHANNEL_KINDS.index(spec.kind), 0)
        taps.append(np.array([sample_channel(spec, rng) for _ in range(trials)]))
    # each trial's reference power: [0] the baseline amplifier output of
    # the uncompressed frames, every technique's but linear's, and [1] the
    # frames themselves, linear's
    ref_p = np.zeros((2, trials))
    # the received powers set the rectifier's level and H_P/E's P_rx
    rx_p = np.empty((len(channels), n_tech, trials))
    # a received frame's length on each channel; each channel reads the
    # first rx_len[c] samples of a trial's noise
    rx_len = [s.frame_symbols * (cfg_c.n_samples + cfg_c.cp_length) for cfg_c in chan_cfg]
    prefix_cfg = {cfg_c.cp_length: cfg_c for cfg_c in chan_cfg}

    # the workspaces of the jobs that are done, which the next jobs reuse
    # (a deque's append and pop are atomic)
    spare: deque[_Workspace] = deque()

    def pooled(job):
        # job(rows, work) in a spare workspace, or a new one if none is free
        def run(rows: slice) -> None:
            try:
                work = spare.pop()
            except IndexError:
                work = _Workspace()
            try:
                job(rows, work)
            finally:
                spare.append(work)
        return run

    def source(rows: slice, compress: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        # the sent symbols of the trials in rows, their uncompressed frames
        # and, if compress, their compressed frames
        sent = map_bits(bits[rows])
        grids = sent.reshape(-1, s.frame_symbols, cfg.n_subcarriers)
        x = synthesize_waveforms(grids, cfg).reshape(-1, frame_len)
        return sent, x, compress_waveform(x, s.mu) if compress else None

    def transmitted(k: int, x: np.ndarray, compressed: np.ndarray | None,
                    out: np.ndarray) -> np.ndarray:
        # technique k's transmit frames, into out: the companded chain
        # drives the amplifier with the compressed frames at their natural
        # (hotter) level, since the compression power gain is exactly the
        # back-off reduction the technique claims
        frames = compressed if companded[k] else x
        if techniques[k] == "linear":
            np.copyto(out, frames)
            return out
        r_dpd, _, fit = reductions[k]
        return amplify(frames, s.pa, s.ibo_db - r_dpd, fit, out)

    def faded(frames: np.ndarray, c: int, rows: slice, work: _Workspace) -> np.ndarray:
        # the frames of the trials in rows, prefixed (in "copy"), through
        # channel c (into "faded", each later tap's product in "scratch")
        shape = (rows.stop - rows.start, rx_len[c])
        x = with_prefix(frames, chan_cfg[c], work.take("copy", shape))
        scratch = work.take("scratch", shape) if channels[c].n_taps > 1 else None
        return apply_channel(x, taps[c][rows], chan_cfg[c].cp_length, work.take("faded", shape),
                             scratch)

    def powers(rows: slice, work: _Workspace) -> None:
        # the block's reference powers, and its received powers when some
        # splitter harvests; the frames are built again in receive
        _, x, compressed = source(rows, harvests and any(companded))
        tx = work.take("tx", x.shape)
        if harvests:
            for k in range(n_tech):
                y = transmitted(k, x, compressed, tx)
                if k == base:
                    ref_p[0, rows] = _mean_power(y, work)
                for c in range(len(channels)):
                    rx_p[c, k, rows] = _mean_power(faded(y, c, rows, work), work)
        # the reference amplification, unless the baseline's frames were it
        if techniques != ("linear",) and not (harvests and base is not None):
            ref = amplify(x, s.pa, s.ibo_db, out=tx)
            ref_p[0, rows] = _mean_power(ref, work)
        if "linear" in techniques:
            ref_p[1, rows] = _mean_power(x, work)

    run_bounded(pooled(powers), ((rows,) for rows in blocks), threads)

    # a sequential sum in trial order, as the reference powers always were
    ref_power = np.cumsum(ref_p, axis=1)[:, -1]
    # two measurement scales, both deterministic given the seed: the
    # demodulator lives in a world normalized by the nominal (baseline)
    # amplifier output power, so a technique that reclaims back-off
    # radiates its extra power rather than having it scaled away; the
    # rectifier sees its branch pinned to 1 mW ensemble mean, where the
    # thermal noise floor is irrelevant and therefore omitted
    norm = [np.sqrt(1.0 / (ref_power[int(t == "linear")] / trials)) for t in techniques]
    eh_pin = np.sqrt(1e-3 / np.mean(rx_p, axis=-1)) if harvests else None

    # the rectifier's sums, written when some splitter harvests
    eta3_num = np.empty((len(channels), n_tech, trials))
    eta3_den = np.empty_like(eta3_num)
    ber = np.empty((len(channels), len(splits), n_tech, trials))
    rates = np.empty_like(ber)

    # the antenna's draws, and the branch's if some splitter adds processing noise
    n_draws = 2 if any(split.sigma_p2 > 0.0 for split in splits) else 1
    # the techniques with no expander before the DFT, received on the tones
    linear = [k for k in range(n_tech) if not companded[k]]
    # the splitter grids a frame's room holds at a time in the linear
    # receiver, one fewer with processing noise, whose scaled draw takes one
    n_slots = max(cfg.oversampling_factor, n_draws)

    def receive(rows: slice, work: _Workspace) -> None:
        # the block's frames, built again from the same bits
        sent, x, compressed = source(rows, any(companded))
        n_rows = rows.stop - rows.start
        # the compressed frames' rms, once per prefix length the channels need
        rms_tx = {}
        if compressed is not None:
            power = np.abs(compressed, out=work.take("power", x.shape, np.float64))
            power **= 2
            rms_tx = {cp: np.sqrt(np.mean(with_prefix(power, cfg_c), axis=-1))
                      for cp, cfg_c in prefix_cfg.items()}
        # each trial's unit noise, (n, 2) normals from the trial's own
        # streams viewed as n complex samples
        draws = work.take("draws", (n_draws, n_rows, max(rx_len)))
        for d, z in enumerate(draws):
            for i, row in enumerate(z, rows.start):
                _stream(s.seed, _NOISE, i, d).standard_normal(out=row.view(np.float64))
        sent_bits = bits[rows].astype(bool)
        gains = [channel.subcarrier_gains(taps[c][rows], chan_cfg[c])
                 for c in range(len(channels))]
        tone_shape = (n_rows, s.frame_symbols, cfg.n_subcarriers)
        tones = work.take("tones", (len(linear),) + tone_shape)
        for k in range(n_tech):
            # one technique's transmit frames at a time
            tx = transmitted(k, x, compressed, work.take("tx", x.shape))
            # faded frames only for the rectenna and the expander
            for c in range(len(channels) if harvests or companded[k] else 0):
                shape = (n_rows, rx_len[c])
                y = faded(tx, c, rows, work)
                if harvests:
                    p_w = np.multiply(y, eh_pin[c, k], out=work.take("copy", shape))
                    p_w = np.abs(p_w, out=work.take("power", shape, np.float64))
                    p_w **= 2
                    eff = watts_to_dbm(p_w, out=work.take("copy", shape, np.float64))
                    eff = eh_curve_eta3(s.eh, eff, out=eff)
                    eff *= p_w
                    eta3_num[c, k, rows] = np.sum(eff, axis=-1)
                    eta3_den[c, k, rows] = np.sum(p_w, axis=-1)
                if companded[k]:
                    y *= norm[k]
                    ber[c, :, k, rows], rates[c, :, k, rows] = receive_companded(
                        y, splits, draws[..., :rx_len[c]], gains[c], chan_cfg[c], sent,
                        sent_bits, s.mu, rms_tx[chan_cfg[c].cp_length],
                        work.take("copy", shape), work.take("power", shape, np.float64),
                        work.take("scratch", shape))
            if not companded[k]:
                # the transmit frames' tones at the demodulator's level
                tx *= norm[k]
                symbol_tones(tx, cfg, out=tones[linear.index(k)],
                             spectrum=work.take("scratch", x.shape))
        if not linear:
            return
        # each noise draw's tones once per prefix length, zero-forced once
        # per channel, shared by every linear technique and splitter
        # (in the transmit frames' buffer, free once every tone is taken)
        noise, zf = work.take("tx", (2, n_draws) + tone_shape)
        for cp, cfg_c in prefix_cfg.items():
            length = s.frame_symbols * (cfg_c.n_samples + cp)
            for d in range(n_draws):
                symbol_tones(draws[d, :, :length], cfg_c, out=noise[d],
                             spectrum=work.take("scratch", (n_rows, length)))
            for c in (c for c in range(len(channels)) if chan_cfg[c].cp_length == cp):
                zero_force(noise, gains[c], out=zf)
                slots = work.take("scratch", (n_slots,) + tone_shape)
                for i, k in enumerate(linear):
                    ber[c, :, k, rows], rates[c, :, k, rows] = receive_linear(
                        tones[i], splits, zf, sent, sent_bits, slots)

    run_bounded(pooled(receive), ((rows,) for rows in blocks), threads)

    eta1 = [efficiency_at_backoff(s.ibo_db - r_dpd - r_comp) if _saturating(s.pa) else 0.5
            for r_dpd, r_comp, _ in reductions]

    # the confidence intervals of every result at once
    ber_ci = _batch_ci(ber)
    eta3_ci = _batch_ci(eta3_num / eta3_den) if harvests else None
    no_eta3_ci = _batch_ci(np.zeros(trials))

    def metrics(c: int, p: int, k: int) -> LinkMetrics:
        split = splits[p]
        if split.rho > 0.0:
            eta3_mc = float(eta3_num[c, k].sum() / eta3_den[c, k].sum())
            # the EH branch's input in nominal-transmit units
            p_rx = float(np.mean(rx_p[c, k]) * norm[k] ** 2)
            h_p_norm = eta3_mc * split.rho * (p_rx + split.sigma_a2)
        else:
            eta3_mc = h_p_norm = 0.0
        return LinkMetrics(
            rate_bps_hz=float(rates[c, p, k].mean()), harvested_norm=h_p_norm,
            ber=float(ber[c, p, k].mean()),
            eta1=eta1[k], eta3=eta3_mc, eta_e2e=eta1[k] * eta3_mc,
            ibo_reduction_db=reductions[k][0] + reductions[k][1],
            eta3_ci=float(eta3_ci[c, k]) if split.rho > 0.0 else no_eta3_ci,
            ber_ci=float(ber_ci[c, p, k]),
        )

    return tuple(tuple(tuple(metrics(c, p, k) for k in range(n_tech))
                       for p in range(len(splits)))
                 for c in range(len(channels)))


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


def write_csv(
    path, columns, rows, cfg_hash: str, seed: int, comments=()
) -> None:
    """CSV with a provenance header; byte-identical for identical inputs."""
    lines = [f"# config_hash={cfg_hash} seed={seed}"]
    lines += [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
