"""Memoryless power-amplifier models, the transmit amplifier chain, and
Bussgang linearization.

AM/AM-only models (AM/PM conversion is neglected): the solid-state amplifier
with a smooth saturation knee, the hard-clipping soft limiter, and a fitted
polynomial transfer used by the predistorter module.  Every nonlinearity in
the package acts on the envelope and keeps the phase, through
:func:`scale_envelope`.  :func:`amplify` is the one transmit chain: a
single envelope map, back-off, then the optional predistorter, then the
AM/AM curve, that every amplified technique and the predistorter design
run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

MAX_CLASS_A_EFFICIENCY = 0.5

_PA_KINDS = ("sspa", "soft_limiter", "polynomial")


@dataclass(frozen=True)
class PaModel:
    """Amplifier transfer description.

    a_sat is the saturation output amplitude, smoothness the knee parameter p
    of the sspa model (large p approaches the soft limiter). For the
    polynomial kind, coeffs are ascending-power AM/AM coefficients.
    """

    kind: str
    a_sat: float = 1.0
    smoothness: float = 1.2
    coeffs: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind not in _PA_KINDS:
            raise ValueError(f"kind must be one of {_PA_KINDS}")
        for name in ("a_sat", "smoothness"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.a_sat <= 0:
            raise ValueError("a_sat must be positive")
        if self.kind == "sspa" and self.smoothness <= 0:
            raise ValueError("smoothness must be positive")
        if self.kind == "polynomial" and not self.coeffs:
            raise ValueError("polynomial model needs coefficients")
        if self.coeffs is not None and not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError(f"coeffs must be finite, got {self.coeffs!r}")

    @classmethod
    def sspa(cls, a_sat: float = 1.0, smoothness: float = 1.2) -> "PaModel":
        return cls("sspa", a_sat=a_sat, smoothness=smoothness)

    @classmethod
    def soft_limiter_model(cls, a_sat: float = 1.0) -> "PaModel":
        return cls("soft_limiter", a_sat=a_sat)

    @classmethod
    def polynomial(cls, coeffs) -> "PaModel":
        return cls("polynomial", coeffs=tuple(float(c) for c in coeffs))

    def am_am(self, magnitude):
        """Output amplitude for a given input amplitude (unit linear gain).

        The sspa curve is the smooth saturation m / (1 + (m/A_s)^(2p))^(1/(2p))
        (Rapp 1991), the soft limiter min(m, A_s).  A polynomial whose output
        is negative at some input is a ValueError naming that input.
        """
        m = np.asarray(magnitude, dtype=float)
        if np.any(m < 0):
            raise ValueError("magnitude must be non-negative")
        if self.kind == "soft_limiter":
            return np.minimum(m, self.a_sat)
        if self.kind == "polynomial":
            out = polyval(m, self.coeffs)
            if np.any(out < 0):
                # an amplitude, not a phase flip through scale_envelope
                raise ValueError(f"polynomial AM/AM output is negative at input "
                                 f"amplitude {np.min(m[out < 0]):.6g}")
            return out
        two_p = 2.0 * self.smoothness
        # the denominator, in the formula's order, in one array (a scalar for a
        # 0-d m), which then takes the result
        d = m / self.a_sat
        d **= two_p
        d += 1.0
        d **= 1.0 / two_p
        return np.divide(m, d, out=d if d.ndim else None)


def polyval(x, coeffs) -> np.ndarray:
    """The polynomial of ascending coefficients at x, by numpy's polyval
    recurrence, c[-1] + x*0 then c[i] + y*x, in one array: the same bits."""
    x = np.asarray(x, dtype=float)
    y = x * 0.0
    y += coeffs[-1]
    for c in coeffs[-2::-1]:
        y *= x
        y += c
    return y


def scale_envelope(x: np.ndarray, f, out: np.ndarray | None = None) -> np.ndarray:
    """x with every sample magnitude m mapped to f(m) and its phase kept,
    into ``out`` if given; zero samples stay zero."""
    # the magnitudes (0-d for a scalar x, so that they can be written) are
    # overwritten with the gains f(m) / m; a zero magnitude keeps gain 0
    m = np.asarray(np.abs(x))
    np.divide(f(m), m, out=m, where=m > 0)
    return np.multiply(x, m, out=out)


def amplify(x: np.ndarray, pa: PaModel, ibo_db: float, inverse_fit=None,
            out: np.ndarray | None = None) -> np.ndarray:
    """The transmit chain on a waveform of any shape: back-off, optional
    predistortion and the AM/AM characteristic, with the back-off gain
    divided out again, as one envelope map, into ``out`` if given.

    With g = 10^(-ibo_db/20) each magnitude m maps to am_am(pd(m g)) / g.
    pd is the identity, or, given inverse_fit, a predistorter polynomial
    (see :mod:`swiptsim.dpd`) that maps each backed-off magnitude, clamped
    to the fit's domain, to the drive that should reach it, clamped at zero.
    """
    g = 10.0 ** (-ibo_db / 20.0)

    def envelope(m):
        u = m * g
        if inverse_fit is not None:
            u = np.clip(inverse_fit(np.minimum(u, inverse_fit.domain_max)), 0.0, None)
        return pa.am_am(u) / g

    return scale_envelope(x, envelope, out)


def class_a_efficiency(papr_db: float) -> float:
    """Average class-A PA efficiency at a given PAPR: 0.5 / PAPR(linear)."""
    if papr_db < 0:
        raise ValueError("papr_db must be non-negative")
    return MAX_CLASS_A_EFFICIENCY / 10.0 ** (papr_db / 10.0)


def efficiency_at_backoff(ibo_db: float) -> float:
    """Average efficiency at an operating input back-off,
    eta_max * 10^(-ibo_db/20).

    Backing the drive off by ibo_db leaves the amplitude headroom
    nu = 10^(ibo_db/20), and the efficiency is taken as eta_max / nu: an
    amplitude (class-B-like) law, unlike class_a_efficiency's power law
    eta_max / PAPR. This is the efficiency bookkeeping used for the
    technique comparison tables.
    """
    if ibo_db < 0:
        raise ValueError("ibo_db must be non-negative")
    return MAX_CLASS_A_EFFICIENCY * 10.0 ** (-ibo_db / 20.0)


# the floating-point noise of E{|y|^2} - |K_L|^2 E{|x|^2}, relative to
# E{|y|^2}: on noise-free zero-forced OFDM grids of 16 to 512 subcarriers,
# through AWGN and the multipath channel, whose exact residuals are about
# 4e-32, the difference read between -2.5 and 1.0 eps
_ROUNDING = 16.0 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class BussgangParams:
    """Linearized-model parameters: gain k_l and distortion variance
    sigma_d2, floats or arrays of per-row values (see bussgang_estimate)."""

    k_l: float
    sigma_d2: float


def bussgang_estimate(reference, output) -> BussgangParams:
    """Empirical Bussgang decomposition of output against reference, over
    the last axis: floats for one-dimensional inputs, and for inputs of
    shape (..., n) arrays of shape (...), each row bit-identical to the
    one-dimensional call on that row.

    K_L = E{x* g[x]} / E{|x|^2} and sigma_d^2 = E{|g[x]|^2} - |K_L|^2 E{|x|^2}
    with sample-mean estimators.  sigma_d^2 within _ROUNDING of E{|g[x]|^2}
    of zero reads as zero: the difference of the two power terms carries
    that much floating-point noise, of either sign, even when g is exactly
    linear.  The sums are pairwise np.sum, not np.vdot, whose BLAS
    threading would make the last digits depend on the core count; a
    power is the sum of the squared real and imaginary parts.
    """
    x = np.ascontiguousarray(reference, dtype=np.complex128)
    y = np.ascontiguousarray(output, dtype=np.complex128)
    if x.shape != y.shape:
        raise ValueError("reference and output shapes differ")
    n = x.shape[-1]
    p_in = np.sum(np.square(x.view(np.float64)), axis=-1) / n
    if np.any(p_in <= 0):
        raise ValueError("reference power is zero")
    k = np.sum(np.conj(x) * y, axis=-1) / (n * p_in)
    p_out = np.sum(np.square(y.view(np.float64)), axis=-1) / n
    sigma_d2 = p_out - np.abs(k) ** 2 * p_in
    sigma_d2 = np.where(sigma_d2 > _ROUNDING * p_out, sigma_d2, 0.0)
    if x.ndim == 1:
        return BussgangParams(float(k.real), float(sigma_d2))
    return BussgangParams(k.real, sigma_d2)


def bussgang_analytic_sl(ibo_db: float) -> BussgangParams:
    """Closed-form Bussgang parameters of the clipped (soft-limiter) chain
    driven by a unit-power circular Gaussian input at an input back-off of
    ibo_db, nu = 10^(ibo_db/20).

    K_L(nu) = (A_c/nu) (1 - exp(-nu^2) + (sqrt(pi) nu / 2) erfc(nu)) and
    sigma_d^2 = (A_c/nu)^2 (1 - exp(-nu^2)) - K_L^2, with the clipping level
    A_c = 1 of unit-power drive into unit saturation.  This distortion power
    matches the second moment of the clipped chain and the empirical
    estimator; the printed form, with an unsquared A_c/nu prefactor against
    the power-like K_L^2 term, is dimensionally inconsistent.
    """
    nu = 10.0 ** (ibo_db / 20.0)
    if nu <= 0:
        raise ValueError("nu must be positive")
    a_c = 1.0
    bracket = 1.0 - np.exp(-(nu**2)) + (np.sqrt(np.pi) * nu / 2.0) * math.erfc(nu)
    k_l = (a_c / nu) * bracket
    sigma_d2 = (a_c / nu) ** 2 * (1.0 - np.exp(-(nu**2))) - k_l**2
    return BussgangParams(float(k_l), max(float(sigma_d2), 0.0))
