import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiptsim.pa import (
    BussgangParams,
    PaModel,
    amplify,
    bussgang_analytic_sl,
    bussgang_estimate,
    class_a_efficiency,
    efficiency_at_backoff,
    scale_envelope,
)
from swiptsim.dpd import PolyFit


def _gaussian_block(n=2**18, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)


def test_sspa_half_power_point():
    pa = PaModel.sspa(smoothness=1.2)
    # at m = a_sat the knee formula gives m / 2^(1/2p)
    assert float(pa.am_am(1.0)) == pytest.approx(2 ** (-1 / 2.4), abs=1e-12)


def test_sspa_saturates_and_limiter_clips():
    pa = PaModel.sspa(a_sat=0.8, smoothness=2.0)
    assert float(pa.am_am(50.0)) == pytest.approx(0.8, rel=1e-3)
    sl = PaModel.soft_limiter_model(a_sat=0.8)
    np.testing.assert_allclose(sl.am_am(np.array([0.2, 0.8, 5.0])), [0.2, 0.8, 0.8])


def test_sspa_large_smoothness_approaches_limiter():
    pa = PaModel.sspa(smoothness=50.0)
    m = np.linspace(0, 3, 301)
    np.testing.assert_allclose(pa.am_am(m), np.minimum(m, 1.0), atol=2e-2)


def test_polynomial_model():
    pa = PaModel.polynomial((0.0, 1.0, -0.1))
    assert float(pa.am_am(0.5)) == pytest.approx(0.5 - 0.1 * 0.25)
    with pytest.raises(ValueError):
        PaModel.polynomial(())


def test_polynomial_negative_output_is_an_error():
    # a negative AM/AM amplitude would come out of the chain as a phase flip
    # (-6+0j here), so it is rejected, naming the input amplitude
    pa = PaModel.polynomial((0, 1, -1))
    with pytest.raises(ValueError, match="negative at input amplitude 3"):
        amplify(np.array([3 + 0j]), pa, 0.0)
    with pytest.raises(ValueError, match="negative at input amplitude 1.5"):
        pa.am_am(np.array([0.5, 1.5, 2.0]))
    assert float(pa.am_am(1.0)) == 0.0


def test_model_validation():
    with pytest.raises(ValueError):
        PaModel("valve")
    with pytest.raises(ValueError):
        PaModel.sspa(a_sat=0.0)
    with pytest.raises(ValueError):
        PaModel.sspa(smoothness=-1.0)


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_polynomial_rejects_a_non_finite_coefficient(bad):
    # caught where the model is made, not as a NaN efficiency after a whole pass
    with pytest.raises(ValueError, match="coeffs must be finite"):
        PaModel.polynomial([0.0, 1.0, bad])


@given(st.lists(st.floats(0, 10, allow_nan=False), min_size=2, max_size=32))
@settings(max_examples=60, deadline=None)
def test_am_am_monotone(mags):
    m = np.sort(np.asarray(mags))
    for pa in (PaModel.sspa(smoothness=1.2), PaModel.soft_limiter_model()):
        out = pa.am_am(m)
        assert np.all(np.diff(out) >= -1e-12)


# a predistorter-shaped fit: negative at zero, so the drive clamps there
_FIT = PolyFit(order=3, coeffs=(-0.01, 1.1, 0.3, -0.2), domain_max=1.2, residual_rms=0.0)


@given(st.lists(st.complex_numbers(min_magnitude=1e-6, max_magnitude=8.0), min_size=1,
                max_size=64),
       st.floats(0.0, 12.0),
       st.sampled_from([PaModel.sspa(smoothness=1.2), PaModel.sspa(a_sat=0.8, smoothness=3.0),
                        PaModel.soft_limiter_model()]))
@settings(max_examples=60, deadline=None)
def test_amplify_with_fit_is_the_composed_envelope_map(samples, ibo_db, pa):
    # back-off, the clamped predistorter and the AM/AM curve, one map of
    # the magnitude; the phase is kept and a zero sample stays zero
    x = np.array([0j] + samples)
    g = 10.0 ** (-ibo_db / 20.0)
    m = np.abs(x)
    drive = np.clip(_FIT(np.minimum(m * g, _FIT.domain_max)), 0.0, None)
    expected = np.zeros_like(x)
    expected[1:] = x[1:] / m[1:] * (pa.am_am(drive[1:]) / g)
    y = amplify(x, pa, ibo_db, _FIT)
    assert y[0] == 0
    np.testing.assert_allclose(y, expected, rtol=1e-12, atol=0.0)


def test_apply_pa_phase_preserved():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    y = amplify(x, PaModel.sspa(), 3.0)
    mask = np.abs(x) > 0
    np.testing.assert_allclose(
        np.angle(y[mask]), np.angle(x[mask]), atol=1e-12
    )


def test_apply_pa_linear_region():
    # far below saturation the back-off pre-gain is all the amplifier does,
    # and amplify divides it out again
    x = _gaussian_block(4096, seed=2) * 1e-3
    y = amplify(x, PaModel.sspa(), 6.0)
    np.testing.assert_allclose(y, x, rtol=1e-6)


def test_scale_envelope_keeps_phase_and_zero():
    x = np.array([0j, 3 + 4j, -2j, -0.5 + 0j])
    y = scale_envelope(x, lambda m: 2.0 * m + 1.0)
    assert y[0] == 0
    np.testing.assert_allclose(np.abs(y[1:]), 2.0 * np.abs(x[1:]) + 1.0, atol=1e-12)
    np.testing.assert_allclose(np.angle(y[1:]), np.angle(x[1:]), atol=1e-12)
    # any shape: a 2-D block maps like its flattened samples
    block = _gaussian_block(64, seed=5).reshape(4, 16)
    f = lambda m: np.sqrt(m)
    np.testing.assert_array_equal(scale_envelope(block, f).ravel(),
                                  scale_envelope(block.ravel(), f))
    # and a scalar
    assert scale_envelope(3 + 4j, lambda m: 2.0 * m + 1.0) == pytest.approx(2.2 * (3 + 4j))
    assert scale_envelope(0j, lambda m: m + 1.0) == 0


@pytest.mark.parametrize("smoothness", [0.25, 1.0, 1.2, 3.0])
def test_in_place_kernels_match_their_formulas(smoothness):
    # the kernels compute in their own arrays; the formulas as written
    # before, one temporary per operation, must give the same bits
    pa = PaModel.sspa(a_sat=0.8, smoothness=smoothness)
    m = np.abs(_gaussian_block(4096, seed=9)) * 2.0
    m[7] = 0.0
    two_p = 2.0 * smoothness
    formula = m / (1.0 + (m / pa.a_sat) ** two_p) ** (1.0 / two_p)
    assert pa.am_am(m).tobytes() == formula.tobytes()
    x = _gaussian_block(4096, seed=10)
    x[3] = 0.0
    mag = np.abs(x)
    ref = x * np.divide(pa.am_am(mag), mag, out=np.zeros_like(mag), where=mag > 0)
    assert scale_envelope(x, pa.am_am).tobytes() == ref.tobytes()
    # the transmit chain writes the same bits into a given array
    out = np.empty_like(x)
    assert amplify(x, pa, 3.0, out=out) is out
    assert out.tobytes() == amplify(x, pa, 3.0).tobytes()


def test_soft_limiter_two_branch():
    # below the clip threshold the chain is transparent; above it the
    # backed-off drive is pinned at a_sat, which the back-off gain scales
    # back up to nu
    pa = PaModel.soft_limiter_model()
    x = np.array([0.1 + 0j, 10.0 + 0j])
    y = amplify(x, pa, 6.0)
    assert abs(y[0]) == pytest.approx(0.1)
    assert abs(y[1]) == pytest.approx(10 ** 0.3)


def test_clip_probability_matches_rayleigh_tail():
    nu = 10 ** (6.0 / 20)
    x = _gaussian_block(seed=0)
    frac = float(np.mean(np.abs(x / nu) > 1.0))
    assert frac == pytest.approx(np.exp(-nu**2), rel=0.05)


def test_class_a_efficiency():
    assert class_a_efficiency(0.0) == 0.5
    assert class_a_efficiency(12.0) == pytest.approx(0.031547867224009665, abs=1e-15)
    papr = np.linspace(0, 14, 20)
    eff = np.array([class_a_efficiency(p) for p in papr])
    assert np.all(np.diff(eff) < 0)
    with pytest.raises(ValueError):
        class_a_efficiency(-1.0)


def test_efficiency_at_backoff():
    assert efficiency_at_backoff(0.0) == 0.5
    assert efficiency_at_backoff(8.0) == pytest.approx(0.5 * 10 ** (-0.4), abs=1e-15)
    with pytest.raises(ValueError):
        efficiency_at_backoff(-0.1)


def test_bussgang_analytic_goldens():
    bp0 = bussgang_analytic_sl(0.0)
    assert bp0.k_l == pytest.approx(0.7715233514688886, abs=1e-12)
    assert bp0.sigma_d2 == pytest.approx(0.03687227696677142, abs=1e-12)
    bp6 = bussgang_analytic_sl(6.0)
    assert bp6.k_l == pytest.approx(0.4960653960811059, abs=1e-12)
    assert bp6.sigma_d2 == pytest.approx(0.0004191730546804773, abs=1e-12)


def test_bussgang_empirical_matches_analytic():
    x = _gaussian_block(seed=0)
    # the closed form keeps the back-off gain that amplify divides out
    y = amplify(x, PaModel.soft_limiter_model(), 6.0) * 10 ** (-6.0 / 20)
    est = bussgang_estimate(x, y)
    ana = bussgang_analytic_sl(6.0)
    assert est.k_l == pytest.approx(ana.k_l, abs=2e-3)
    assert est.sigma_d2 == pytest.approx(ana.sigma_d2, rel=0.15)


def test_bussgang_residual_orthogonality():
    x = _gaussian_block(seed=3)
    y = amplify(x, PaModel.sspa(), 4.0)
    est = bussgang_estimate(x, y)
    d = y - est.k_l * x
    rel = abs(np.vdot(x, d) / x.size) / np.sqrt(
        np.mean(np.abs(x) ** 2) * np.mean(np.abs(d) ** 2)
    )
    assert rel < 1e-8


def test_bussgang_estimate_rows_match_one_dimensional_calls():
    # one K_L and sigma_d^2 per row of the last axis, each bit-identical to
    # the one-dimensional call on that row, for any leading shape
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3, 64)) + 1j * rng.standard_normal((2, 3, 64))
    y = amplify(x, PaModel.sspa(), 2.0) + 0.01 * rng.standard_normal(x.shape)
    y[1, 2] = 0.5 * x[1, 2]  # a distortion-free row reads sigma_d^2 = 0
    est = bussgang_estimate(x, y)
    assert est.k_l.shape == est.sigma_d2.shape == (2, 3)
    for i in np.ndindex(2, 3):
        row = bussgang_estimate(x[i], y[i])
        assert isinstance(row.k_l, float) and isinstance(row.sigma_d2, float)
        assert (est.k_l[i], est.sigma_d2[i]) == (row.k_l, row.sigma_d2), i
    assert est.sigma_d2[1, 2] == 0.0 and est.sigma_d2[0, 0] > 0.0


def test_bussgang_estimate_validation():
    with pytest.raises(ValueError):
        bussgang_estimate(np.ones(4, complex), np.ones(5, complex))
    with pytest.raises(ValueError):
        bussgang_estimate(np.zeros(4, complex), np.zeros(4, complex))
    # sigma_d2 never goes negative on a clean linear chain
    x = _gaussian_block(256, seed=4)
    est = bussgang_estimate(x, 2.0 * x)
    assert est == BussgangParams(k_l=pytest.approx(2.0), sigma_d2=0.0)
