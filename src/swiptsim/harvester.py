"""RF-to-DC harvester models.

A harvester is its efficiency: one number in [0, 1] for the
constant-efficiency linear benchmark, or a RectennaCurve, a measured-curve
rectenna whose conversion efficiency depends on instantaneous input power.
The curve is its calibration table, ``p_in_dbm,eta3`` rows used as given
and interpolated linearly in dBm: zero below the first row (the
sensitivity), flat past the last.  A default calibration shaped like a
single-diode rectifier (sensitivity floor, rising efficiency, peak, then
breakdown decline) ships with the package as ``data/rectenna_default.csv``,
written by ``scripts/build_rectenna_calibration.py``.  load_calibration
reads such a CSV file; parse_calibration parses its text.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

_WATT_FLOOR = 1e-15
_DEFAULT_CALIBRATION = Path(__file__).parent / "data" / "rectenna_default.csv"


@dataclass(frozen=True)
class RectennaCurve:
    """Efficiency eta3(P_in_dBm): calibration rows, linear in dBm between them."""

    p_in_dbm: tuple[float, ...]
    efficiency: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.efficiency) != len(self.p_in_dbm):
            raise ValueError("need one efficiency per power row")
        if len(self.p_in_dbm) < 2:
            raise ValueError("need at least two calibration points")
        if not all(a < b for a, b in zip(self.p_in_dbm, self.p_in_dbm[1:])):
            raise ValueError("power column must be strictly ascending")
        # the lookup (eta3) equals np.interp on rows with finite values and
        # slopes; a row at inf, or two rows a subnormal step apart, would
        # break its cells
        with np.errstate(over="ignore", invalid="ignore"):
            slopes = np.diff(self.efficiency) / np.diff(self.p_in_dbm)
        if not (np.all(np.isfinite(self.p_in_dbm)) and np.all(np.isfinite(slopes))):
            raise ValueError("calibration rows need finite values and finite slopes")
        if not all(0.0 <= e <= 1.0 for e in self.efficiency):
            raise ValueError("every efficiency must lie in [0, 1]")

    @property
    def sensitivity_dbm(self) -> float:
        return self.p_in_dbm[0]

    @cached_property
    def _cells(self) -> tuple[np.ndarray, ...]:
        """The lookup table, one entry per cell [x[j], x_next[j]) with
        slope[j] from value f[j]: cell 0 holds the inputs below the first
        calibration row and the last cell those at or past the last, both
        at slope 0.  Then the coefficients of a first guess of an input's
        cell, from the mean row spacing."""
        xp = np.asarray(self.p_in_dbm)
        fp = np.asarray(self.efficiency)
        x = np.concatenate(([np.nextafter(xp[0], -np.inf)], xp))
        slope = np.concatenate(([0.0], np.diff(fp) / np.diff(xp), [0.0]))
        inv_step = (xp.size - 1) / (xp[-1] - xp[0])
        return (x, np.append(xp, np.inf), slope, np.concatenate(([0.0], fp)),
                inv_step, 1.0 - xp[0] * inv_step)

    def eta3(self, p_in_dbm, out: np.ndarray | None = None) -> np.ndarray:
        """Efficiency at the given input power(s); zero below sensitivity,
        flat extrapolation past the last row.  Equal to np.interp(p,
        p_in_dbm, efficiency, left=0.0) bit for bit, without its binary
        search.  Computed in ``out`` if given, which may be the input."""
        p = np.asarray(p_in_dbm, dtype=float)
        hi = self.p_in_dbm[-1]
        if np.any(p > hi):
            warnings.warn(
                f"input power beyond the calibrated range (> {hi:g} dBm); "
                "extrapolating flat",
                RuntimeWarning,
                stacklevel=2,
            )
        x, x_next, slope, f, inv_step, offset = self._cells
        # clipped into the end cells, so that their 0 slopes meet finite
        # offsets; a NaN stays NaN, and the takes clip its guess (the cast
        # of a NaN) to cell 0
        p = np.clip(p, x[0], hi, out=out)
        j = p * inv_step
        j += offset
        with np.errstate(invalid="ignore"):
            j = j.astype(np.intp)
        # the guess is a cell or so off on a uniform table: move it until
        # x[j] <= p < x_next[j]
        while True:
            x_j = x.take(j, mode="clip")
            low = p < x_j
            high = p >= x_next.take(j, mode="clip")
            if not (low.any() or high.any()):
                break
            j += high
            j -= low
        p -= x_j
        p *= slope.take(j, mode="clip")
        p += f.take(j, mode="clip")
        return p


def eta3(model: RectennaCurve | float, p_in_dbm, out: np.ndarray | None = None) -> np.ndarray:
    """Efficiency at the input power(s): the curve's, or the linear
    benchmark's; in ``out`` if given, which may be the input."""
    if isinstance(model, RectennaCurve):
        return model.eta3(p_in_dbm, out)
    if out is None:
        return np.full_like(np.asarray(p_in_dbm, dtype=float), model)
    out.fill(model)
    return out


def watts_to_dbm(p_w, out: np.ndarray | None = None) -> np.ndarray:
    """10 log10(1e3 p_w), p_w floored at _WATT_FLOOR; in ``out`` if given,
    which may be the input."""
    p = np.maximum(np.asarray(p_w, dtype=float), _WATT_FLOOR, out=out)
    p = np.multiply(p, 1e3, out=out)
    p = np.log10(p, out=out)
    return np.multiply(p, 10.0, out=out)


def parse_calibration(text: str, where: str) -> RectennaCurve:
    """A RectennaCurve from calibration CSV text; ``where`` names the
    source in every error.

    Format: a ``p_in_dbm,eta3[,p_dc_dbm]`` header, then rows of ascending
    power; lines starting with ``#`` are comments.  The rows are the curve
    as given, with no smoothing; sensitivity is the first power row.
    Raises with line context on a malformed row, and on a curve that breaks
    the invariants of RectennaCurve or, from four rows up, is not
    single-peaked inside its range (a shorter table is taken as given).
    """
    powers: list[float] = []
    effs: list[float] = []
    header: list[str] | None = None
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row or row[0].strip().startswith("#"):
            continue
        if header is None:
            header = [c.strip() for c in row]
            if header[:2] != ["p_in_dbm", "eta3"]:
                raise ValueError(
                    f"{where}:{lineno}: header must start with p_in_dbm,eta3"
                )
            continue
        try:
            p = float(row[0])
            e = float(row[1])
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{where}:{lineno}: bad row {row!r}") from exc
        if not (math.isfinite(p) and math.isfinite(e)):
            raise ValueError(f"{where}:{lineno}: non-finite value in row {row!r}")
        if not 0.0 <= e <= 1.0:
            raise ValueError(
                f"{where}:{lineno}: efficiency {e} outside [0, 1]"
            )
        powers.append(p)
        effs.append(e)
    try:
        curve = RectennaCurve(p_in_dbm=tuple(powers), efficiency=tuple(effs))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if len(effs) < 4:
        return curve
    eta = np.asarray(effs)
    peak = int(np.argmax(eta))
    if peak == 0 or peak == eta.size - 1:
        raise ValueError(f"{where}: efficiency has no interior maximum")
    if np.any(np.diff(eta[peak:]) > 1e-6):
        raise ValueError(f"{where}: efficiency rises again past its maximum")
    if np.any(np.diff(eta[: peak + 1]) < -1e-3):
        raise ValueError(f"{where}: efficiency is not single-peaked")
    return curve


def load_calibration(path) -> RectennaCurve:
    """The RectennaCurve of the calibration CSV file at ``path`` (a str or
    a Path); see parse_calibration for the format.  Errors name the file."""
    return parse_calibration(Path(path).read_text(encoding="utf-8"), str(path))


@lru_cache(maxsize=1)
def default_rectenna() -> RectennaCurve:
    """The packaged default curve, data/rectenna_default.csv."""
    return load_calibration(_DEFAULT_CALIBRATION)
