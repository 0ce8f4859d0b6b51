"""RF-to-DC harvester models.

Two flavors: a constant-efficiency linear benchmark, and a measured-curve
rectenna whose conversion efficiency depends on instantaneous input power.
The curve is a least-squares piecewise cubic over user-marked knots,
loaded from a calibration CSV.  A default calibration shaped like a
single-diode rectifier (sensitivity floor, rising efficiency, peak, then
breakdown decline) ships with the package as ``data/rectenna_default.csv``.
Its fitted knots and segments are frozen in the generated module
``_rectenna_default.py`` (both written by
``scripts/build_rectenna_calibration.py``), so the default curve needs no
spline fit and no scipy at run time; a user calibration file is fitted
with scipy when it is loaded.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

_WATT_FLOOR = 1e-15


@dataclass(frozen=True)
class RectennaCurve:
    """Piecewise-cubic efficiency curve eta3(P_in_dBm)."""

    knots: tuple[float, ...]
    segments: tuple[tuple[float, float, float, float], ...]
    sensitivity_dbm: float

    def __post_init__(self) -> None:
        if len(self.segments) != len(self.knots) - 1:
            raise ValueError("need one cubic segment per knot interval")
        if any(b <= a for a, b in zip(self.knots, self.knots[1:])):
            raise ValueError("knots must be strictly ascending")

    @cached_property
    def _cubic(self) -> _PiecewiseCubic:
        """The raw piecewise cubic, clipped to the knot range."""
        return _PiecewiseCubic(self.knots, self.segments)

    def eta3(self, p_in_dbm) -> np.ndarray:
        """Efficiency at the given input power(s); zero below sensitivity,
        flat extrapolation past the last knot."""
        p = np.asarray(p_in_dbm, dtype=float)
        hi = self.knots[-1]
        if np.any(p > hi):
            warnings.warn(
                f"input power beyond the calibrated range (> {hi:g} dBm); "
                "extrapolating flat",
                RuntimeWarning,
                stacklevel=2,
            )
        # the cubic's own array (0-d for a scalar p, so that it can be written)
        val = np.asarray(self._cubic(p))
        val[p < self.sensitivity_dbm] = 0.0
        return np.clip(val, 0.0, 1.0, out=val)


class _PiecewiseCubic:
    """A piecewise cubic evaluated at x clipped to its knot range, bit for
    bit as scipy's PPoly evaluates it: intervals closed on the left (the
    last also on the right), and the powers summed from the constant term
    up; Horner's rule rounds differently.  A segment is (c3, c2, c1, c0),
    highest power first.

    The interval search starts from a uniform grid of cells over the knot
    range (at most MAX_CELLS), and refines by comparing with the knots: a
    few passes over the samples where a binary search branches on each.
    """

    MAX_CELLS = 4096

    def __init__(self, knots, segments):
        k = np.asarray(knots, dtype=float)
        c = np.asarray(segments, dtype=float)
        self.lo, self.hi = k[0], k[-1]
        # cells a quarter of the narrowest knot gap need one refinement step
        self.cells = int(min(self.MAX_CELLS, np.ceil(4.0 * (self.hi - self.lo)
                                                     / np.diff(k).min())))
        h = (self.hi - self.lo) / self.cells
        self.inv_h = 1.0 / h
        # the interior knots at or below the cell edges e[-1] .. e[cells + 1];
        # a sample in cell j lies in (e[j - 1], e[j + 2]] despite round-off,
        # so it is at most `steps` knots past the count at e[j - 1]
        below = np.searchsorted(k[1:-1], self.lo + np.arange(-1, self.cells + 2) * h,
                                side="right")
        self.first = below[:self.cells].copy()
        self.steps = int(np.max(below[3:] - below[:self.cells]))
        self.bounds = np.append(k[1:-1], np.inf)
        self.starts = k[:-1].copy()
        self.c0, self.c1, self.c2, self.c3 = (np.ascontiguousarray(c[:, 3 - j])
                                              for j in range(4))

    def __call__(self, x) -> np.ndarray:
        x = np.clip(np.asarray(x, dtype=float), self.lo, self.hi)
        # fmin also sends NaN, whose result is NaN in any cell, to the last cell
        i = self.first[np.fmin((x - self.lo) * self.inv_h, self.cells - 1).astype(np.intp)]
        for _ in range(self.steps):
            i += x >= self.bounds[i]
        d = x - self.starts[i]
        res = self.c0[i]
        res += self.c1[i] * d
        z = d * d
        res += self.c2[i] * z
        z *= d
        res += self.c3[i] * z
        return res


def _validate_curve(curve: RectennaCurve, where: str) -> None:
    lo, hi = curve.knots[0], curve.knots[-1]
    grid = np.linspace(lo, hi, 4001)
    vals = curve._cubic(grid)
    if vals.min() < -1e-6 or vals.max() > 1.0 + 1e-6:
        raise ValueError(
            f"{where}: fitted efficiency leaves [0, 1] "
            f"(range {vals.min():.4g}..{vals.max():.4g})"
        )
    peak = int(np.argmax(vals))
    if peak == 0 or peak == len(grid) - 1:
        raise ValueError(f"{where}: efficiency has no interior maximum")
    after = vals[peak:]
    if np.any(np.diff(after) > 1e-6):
        raise ValueError(f"{where}: efficiency rises again past its maximum")
    before = vals[: peak + 1]
    if np.any(np.diff(before) < -1e-3):
        raise ValueError(f"{where}: efficiency is not single-peaked")
    # segment continuity at the interior breakpoints
    for k in curve.knots[1:-1]:
        left = curve._cubic(k - 1e-9)
        right = curve._cubic(k + 1e-9)
        if abs(left - right) > 1e-6:
            raise ValueError(f"{where}: discontinuity at knot {k:g} dBm")


@dataclass(frozen=True)
class EhModel:
    """Harvester model: constant linear benchmark or rectenna curve."""

    kind: str = "curve"
    eta3_linear: float = 0.5
    curve: RectennaCurve | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "curve"):
            raise ValueError(f"unknown harvester kind {self.kind!r}")
        if not 0.0 <= self.eta3_linear <= 1.0:
            raise ValueError("eta3_linear must lie in [0, 1]")
        if self.kind == "curve" and self.curve is None:
            raise ValueError("curve mode needs a RectennaCurve")

    @classmethod
    def linear(cls, eta3: float = 0.5) -> "EhModel":
        return cls(kind="linear", eta3_linear=eta3, curve=None)

    @classmethod
    def default(cls) -> "EhModel":
        return cls(kind="curve", curve=default_rectenna())


def eta3(model: EhModel, p_in_dbm) -> np.ndarray:
    if model.kind == "linear":
        return np.full_like(np.asarray(p_in_dbm, dtype=float), model.eta3_linear)
    return model.curve.eta3(p_in_dbm)


def watts_to_dbm(p_w) -> np.ndarray:
    return 10.0 * np.log10(np.maximum(np.asarray(p_w, dtype=float), _WATT_FLOOR) * 1e3)


def _parse_calibration(text: str, where: str):
    knots_directive: list[float] | None = None
    rows: list[tuple[float, float]] = []
    reader = csv.reader(io.StringIO(text))
    header: list[str] | None = None
    for lineno, row in enumerate(reader, start=1):
        if not row:
            continue
        first = row[0].strip()
        if first.startswith("#"):
            body = ",".join(row).lstrip("#").strip()
            if body.lower().startswith("knots:"):
                knots_directive = [float(v) for v in body[6:].split(",") if v.strip()]
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
        if not 0.0 <= e <= 1.0:
            raise ValueError(
                f"{where}:{lineno}: efficiency {e} outside [0, 1]"
            )
        rows.append((p, e))
    if len(rows) < 2:
        raise ValueError(f"{where}: need at least two calibration points")
    powers = np.array([r[0] for r in rows])
    effs = np.array([r[1] for r in rows])
    if np.any(np.diff(powers) <= 0):
        raise ValueError(f"{where}: power column must be strictly ascending")
    return powers, effs, knots_directive


def load_calibration(path_or_text, where: str = "calibration") -> RectennaCurve:
    """Build a RectennaCurve from a calibration CSV.

    Format: optional ``# knots: p1,p2,...`` comment marking interior fit
    knots, a ``p_in_dbm,eta3[,p_dc_dbm]`` header, then ascending rows.
    Sensitivity is the first power row.  Raises with file/line context on
    anything that violates the curve invariants.
    """
    try:
        text = path_or_text.read_text(encoding="utf-8")
        where = str(path_or_text)
    except AttributeError:
        # a multi-line string is inline CSV; anything else is a file path
        if "\n" in str(path_or_text):
            text = str(path_or_text)
        else:
            with open(path_or_text, "r", encoding="utf-8") as fh:
                text = fh.read()
            where = str(path_or_text)

    powers, effs, interior = _parse_calibration(text, where)

    if powers.size < 4:
        coeffs = np.polyfit(powers - powers[0], effs, deg=powers.size - 1)
        seg = np.zeros(4)
        seg[4 - coeffs.size:] = coeffs
        return RectennaCurve(knots=(float(powers[0]), float(powers[-1])),
                             segments=(tuple(seg),), sensitivity_dbm=float(powers[0]))

    if interior is None:
        interior = list(np.linspace(powers[0], powers[-1], 10)[1:-1])
    bad = [k for k in interior if not powers[0] < k < powers[-1]]
    if bad:
        raise ValueError(f"{where}: knots {bad} outside the data range")

    from scipy.interpolate import LSQUnivariateSpline, PPoly

    spline = LSQUnivariateSpline(powers, effs, t=interior, k=3)
    pp = PPoly.from_spline(spline._eval_args)
    # PPoly.from_spline repeats boundary breakpoints; keep unique intervals
    keep = np.flatnonzero(np.diff(pp.x) > 0)
    knots = tuple(float(v) for v in np.append(pp.x[keep], pp.x[keep[-1] + 1]))
    segments = tuple(tuple(float(c) for c in pp.c[:, j]) for j in keep)
    curve = RectennaCurve(knots=knots, segments=segments, sensitivity_dbm=float(powers[0]))
    _validate_curve(curve, where)
    return curve


@lru_cache(maxsize=1)
def default_rectenna() -> RectennaCurve:
    """The packaged default curve: the fit of data/rectenna_default.csv,
    read from its frozen copy and validated like any other fit."""
    from . import _rectenna_default

    curve = RectennaCurve(
        knots=_rectenna_default.KNOTS,
        segments=_rectenna_default.SEGMENTS,
        sensitivity_dbm=_rectenna_default.SENSITIVITY_DBM,
    )
    _validate_curve(curve, "default rectenna")
    return curve
