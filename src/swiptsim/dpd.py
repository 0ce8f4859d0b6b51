"""Polynomial predistortion: inverse fitting and the back-off reduction
design loop.

Everything works on AM/AM curves (real amplitude polynomials).  The design
loop finds the largest input back-off reduction whose error vector
magnitude, with predistortion, still matches the uncorrected chain at the
original operating point.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .ofdm import OfdmConfig, ofdm_demodulate, random_frames
from .pa import PaModel, amplify, polyval

log = logging.getLogger(__name__)

EVM_MATCH_TOLERANCE = 0.01
# below this EVM a chain counts as distortion-free
DISTORTION_FREE_EVM = 1e-9
# the back-off reduction search: a coarse scan, a fine scan inside the
# first coarse step that crosses, the width below which the refinement of
# the fine step that crosses stops, and the upper bound; then the probe's
# length in symbols, and the training ramp's points and reach in units of
# a_sat
COARSE_STEP_DB = 0.5
SCAN_STEP_DB = 0.1
REFINE_TOL_DB = 1e-4
MAX_REDUCTION_DB = 8.0
PROBE_SYMBOLS = 64
RAMP_POINTS = 4096
RAMP_OVERDRIVE = 1.2


@dataclass(frozen=True)
class PolyFit:
    """Least-squares amplitude polynomial, valid on [0, domain_max]."""

    order: int
    coeffs: tuple[float, ...]
    domain_max: float
    residual_rms: float

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count must equal order + 1")

    def __call__(self, amplitude: np.ndarray) -> np.ndarray:
        return polyval(amplitude, self.coeffs)


def fit_inverse_polynomial(train_out: np.ndarray, train_in: np.ndarray, order: int = 7) -> PolyFit:
    """Fit the pre-inverse: required drive amplitude as a polynomial of the
    wanted output amplitude.  Fitted directly on the swapped data rather
    than by composing coefficient vectors."""
    x = np.asarray(train_out, dtype=float)
    y = np.asarray(train_in, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("training vectors must be equal-length 1-D arrays")
    if np.unique(np.round(x, 12)).size <= order:
        raise ValueError(
            f"need more than {order} distinct amplitudes to fit order {order}"
        )
    vand = np.vander(x, order + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(vand, y, rcond=None)
    resid = float(np.sqrt(np.mean((vand @ coeffs - y) ** 2)))
    return PolyFit(
        order=order,
        coeffs=tuple(float(c) for c in coeffs),
        domain_max=float(x.max()),
        residual_rms=resid,
    )


def make_training_set(
    pa_model: PaModel, cfg: OfdmConfig, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude training data: a deterministic ramp plus one modulated frame.

    The ramp of RAMP_POINTS spans [0, RAMP_OVERDRIVE * a_sat] so the fit
    sees the full compression knee.  The modulated frame is kept at its
    natural unit-power scale; its peaks push the observed output range up
    to the saturation ceiling, which sets how far the inverse fit can reach.
    """
    ramp = np.linspace(0.0, RAMP_OVERDRIVE * pa_model.a_sat, RAMP_POINTS)
    _, frame = random_frames(cfg, 1, np.random.default_rng(seed))
    amp_in = np.concatenate([ramp, np.abs(frame)])
    return amp_in, pa_model.am_am(amp_in)


def evm(reference: np.ndarray, measured: np.ndarray) -> float:
    """RMS error after removing the least-squares complex bulk gain.

    The inner products are pairwise np.sum forms, not np.vdot: BLAS
    threads a long dot product, and its partial sums, and so the last
    digits, would depend on the core count.
    """
    ref = np.asarray(reference).ravel()
    mea = np.asarray(measured).ravel()
    if ref.shape != mea.shape:
        raise ValueError("reference and measured lengths differ")
    ref_power = np.sum(np.abs(ref) ** 2)
    if ref_power <= 0.0:
        raise ValueError("reference power must be positive")
    alpha = np.sum(np.conj(ref) * mea) / ref_power
    err = mea - alpha * ref
    return float(np.sqrt(np.sum(np.abs(err) ** 2) / ref_power))


@dataclass(frozen=True)
class DpdDesign:
    inverse_fit: PolyFit
    ibo_reduction_db: float
    evm_baseline: float
    evm_with_dpd: float
    baseline_ibo_db: float
    degenerate: bool = False
    notes: tuple[str, ...] = field(default=())


# the probe's amplifier and demodulator run over blocks of about this many
# bytes of complex128 waveform: 8 symbols at N*L = 2048 measured fastest,
# and the whole 64-symbol probe at once faulted in fresh pages every call
_BLOCK_BYTES = 1 << 18


def probe_evm(pa_model: PaModel, cfg: OfdmConfig, seed: int = 0):
    """EVM of the demodulated constellation through amplify() on one
    noise-free random probe of PROBE_SYMBOLS symbols, drawn and synthesized
    once: returns evaluate(ibo_db, inverse_fit=None) -> EVM.

    Each evaluation amplifies and demodulates the probe in blocks of
    symbols (see _BLOCK_BYTES) into one preallocated grid, so evaluate is
    not thread-safe, and measures the EVM on the whole grid; both steps act
    per sample or per symbol, so the result does not depend on the block
    size.
    """
    grids, x = random_frames(cfg, PROBE_SYMBOLS, np.random.default_rng(seed))
    symbols = x.reshape(PROBE_SYMBOLS, -1)
    block = max(1, _BLOCK_BYTES // symbols[0].nbytes)
    rx = np.empty_like(grids)

    def evaluate(ibo_db: float, inverse_fit: PolyFit | None = None) -> float:
        for start in range(0, PROBE_SYMBOLS, block):
            y = amplify(symbols[start:start + block], pa_model, ibo_db, inverse_fit)
            rx[start:start + block] = ofdm_demodulate(y, cfg)
        return evm(grids, rx)

    return evaluate


def design_ibo_reduction(
    inverse_fit: PolyFit, baseline_ibo_db: float, chain_evm
) -> DpdDesign:
    """Largest back-off reduction whose predistorted EVM still matches the
    uncorrected chain at the baseline operating point, within a relative
    EVM_MATCH_TOLERANCE.

    chain_evm is an evaluator of :func:`probe_evm`: every candidate is
    measured on its one probe, so the comparison is noise-free.

    EVM is measured on demodulated constellation points, so distortion
    that lands out of band does not count against either chain.  A point
    crosses when its EVM exceeds the target.  The search takes the first
    crossing among the points it scans:

    1. the COARSE_STEP_DB grid from 0 up to MAX_REDUCTION_DB, upward, up to
       its first crossing;
    2. the SCAN_STEP_DB grid inside that coarse bracket, upward, up to its
       first crossing (or the coarse crossing itself);
    3. Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on that
       SCAN_STEP_DB bracket, until it is narrower than REFINE_TOL_DB; the
       feasible end is the result.

    So a crossing that lies between two feasible coarse points, and turns
    back below the target before the next one, is not seen.  A
    non-monotone note covers the scanned points sorted by reduction.  Each
    refinement point is held at least REFINE_TOL_DB / 4 inside the bracket,
    so every step shrinks it by that much and the loop ends.  A design
    makes one baseline evaluation, one per coarse point up to the crossing,
    at most 4 fine ones and the refinement steps: a few on a smooth EVM
    curve, tens on one that jumps far above the target.  The default design
    (N=512, L=4, SSPA p=1.2, 8 dB) makes 14: the baseline, 6 coarse points,
    4 fine ones and 3 refinement steps.

    Every chain without a crossing is scanned to MAX_REDUCTION_DB: it
    stops there, or is distortion-free when every scanned EVM is below
    DISTORTION_FREE_EVM.  A baseline EVM below DISTORTION_FREE_EVM is
    round-off, not distortion: the design is degenerate at the upper bound
    without a scan.
    """
    evm_base = chain_evm(baseline_ibo_db)
    target = evm_base * (1.0 + EVM_MATCH_TOLERANCE)
    notes: list[str] = []

    evm_dpd = lambda r: chain_evm(baseline_ibo_db - r, inverse_fit)

    def design(reduction: float, evm_with_dpd: float, degenerate: bool = False) -> DpdDesign:
        return DpdDesign(
            inverse_fit=inverse_fit,
            ibo_reduction_db=reduction,
            evm_baseline=evm_base,
            evm_with_dpd=evm_with_dpd,
            baseline_ibo_db=baseline_ibo_db,
            degenerate=degenerate,
            notes=tuple(notes),
        )

    if evm_base < DISTORTION_FREE_EVM:
        # a linear amplifier leaves only round-off, which no predistorted
        # chain can match: there is no distortion to trade for back-off
        notes.append("distortion-free baseline: reduction set to the search's upper bound")
        log.info("degenerate design: EVM is zero at the baseline")
        return design(MAX_REDUCTION_DB, evm_dpd(MAX_REDUCTION_DB), degenerate=True)

    # the target exceeds DISTORTION_FREE_EVM here, so a crossing is never round-off
    scanned: dict[float, float] = {}

    def first_crossing(grid: np.ndarray) -> float | None:
        for r in grid.tolist():
            scanned[r] = evm_dpd(r)
            if scanned[r] > target:
                return r
        return None

    hi = first_crossing(np.arange(0.0, MAX_REDUCTION_DB + 1e-9, COARSE_STEP_DB))
    if hi is not None and hi > 0.0:
        # the fine points strictly inside the coarse bracket
        fine = first_crossing(
            np.arange(hi - COARSE_STEP_DB + SCAN_STEP_DB, hi - 1e-9, SCAN_STEP_DB))
        hi = hi if fine is None else fine
    reductions = np.array(sorted(scanned))
    evms = np.array([scanned[r] for r in reductions])

    if np.all(evms < DISTORTION_FREE_EVM):
        notes.append("distortion-free chain: search hit its upper bound")
        log.info("degenerate design: EVM is zero over the whole search range")
        return design(MAX_REDUCTION_DB, float(evms[-1]), degenerate=True)

    non_monotone = np.flatnonzero(np.diff(evms) < -1e-12)
    if non_monotone.size:
        msg = (f"EVM not monotone in reduction near "
               f"{reductions[non_monotone[0]]:.1f} dB")
        notes.append(msg)
        log.warning(msg)

    if hi == 0.0:
        notes.append(
            f"no feasible reduction: EVM with predistortion at the baseline "
            f"({evms[0]:.4f}) already exceeds {target:.4f}"
        )
        log.warning(notes[-1])
        return design(0.0, float(evms[0]))

    if hi is None:
        notes.append("search hit its upper bound; reduction may extend further")
        return design(MAX_REDUCTION_DB, float(evms[-1]))

    lo = float(reductions[reductions < hi][-1])
    evm_lo = scanned[lo]
    g_lo, g_hi = evm_lo - target, scanned[hi] - target
    moved = None  # the end the last step moved
    while hi - lo >= REFINE_TOL_DB:
        # the false-position point, held REFINE_TOL_DB / 4 inside the bracket
        r = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        r = min(max(r, lo + REFINE_TOL_DB / 4), hi - REFINE_TOL_DB / 4)
        e = evm_dpd(r)
        # Illinois: an end kept twice in a row has its EVM gap halved
        if e > target:
            if moved == "hi":
                g_lo *= 0.5
            hi, g_hi, moved = r, e - target, "hi"
        else:
            if moved == "lo":
                g_hi *= 0.5
            lo, evm_lo, g_lo, moved = r, e, e - target, "lo"
    return design(lo, evm_lo)


def design_from_scratch(
    pa_model: PaModel,
    cfg: OfdmConfig,
    baseline_ibo_db: float = 8.0,
    inverse_order: int = 7,
    seed: int = 0,
):
    """Build the training data, fit the predistorter and run the reduction
    search: returns (design, evaluate), evaluate being the evaluator the
    search ran on, that of probe_evm(pa_model, cfg without its prefix,
    seed + 1).  The evaluator writes into one preallocated grid, so it must
    not be shared between threads.

    The design is a property of the amplifier operating point, so it is
    computed on the numerology without a cyclic prefix: one design serves
    every channel, whatever prefix a frequency-selective one needs.
    """
    cfg = replace(cfg, cp_length=0)
    amp_in, amp_out = make_training_set(pa_model, cfg, seed=seed)
    inverse_fit = fit_inverse_polynomial(amp_out, amp_in, inverse_order)
    chain_evm = probe_evm(pa_model, cfg, seed=seed + 1)
    return design_ibo_reduction(inverse_fit, baseline_ibo_db, chain_evm), chain_evm


def save_design(design: DpdDesign, path: str, header: tuple[str, ...] = ()) -> None:
    """Plain-text key=value serialization, one key per line; ``header``
    lines are written as leading comments."""
    lines = [f"# {h}" for h in header]
    lines += [
        f"baseline_ibo_db={design.baseline_ibo_db!r}",
        f"ibo_reduction_db={design.ibo_reduction_db!r}",
        f"evm_baseline={design.evm_baseline!r}",
        f"evm_with_dpd={design.evm_with_dpd!r}",
        f"degenerate={int(design.degenerate)}",
        f"inverse_order={design.inverse_fit.order}",
        "inverse_coeffs=" + ",".join(repr(c) for c in design.inverse_fit.coeffs),
        f"inverse_domain_max={design.inverse_fit.domain_max!r}",
        f"inverse_residual_rms={design.inverse_fit.residual_rms!r}",
    ]
    for note in design.notes:
        lines.append(f"note={note}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

