import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiptsim.companding import (
    CompanderParams,
    MuDesign,
    analytic_companded_bussgang,
    companded_papr_reductions,
    companded_snr,
    companding_ibo_reduction_db,
    compress_magnitude,
    compress_waveform,
    compressed_power_gain,
    ensemble_peak,
    expand_magnitude,
    expand_waveform,
    mu_law_noise_factor,
    optimize_mu,
)
from swiptsim.ofdm import OfdmConfig, random_frames
from swiptsim.pa import PaModel, amplify, bussgang_estimate

CFG = OfdmConfig()
PA = PaModel.sspa(smoothness=1.2)


def test_ensemble_peak_value():
    assert ensemble_peak() == pytest.approx(math.sqrt(-math.log(1e-3)), abs=1e-15)
    assert ensemble_peak() == pytest.approx(2.628260884878466, abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        CompanderParams(mu=0.0, peak=1.0)
    with pytest.raises(ValueError):
        CompanderParams(mu=1.0, peak=0.0)
    assert CompanderParams.default().mu == 1.25


@given(
    mu=st.floats(1e-3, 255.0, allow_nan=False),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_identity(mu, seed):
    params = CompanderParams(mu=mu, peak=ensemble_peak())
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    # keep magnitudes inside the design peak
    x = x / np.max(np.abs(x)) * params.peak * 0.999
    back = expand_waveform(compress_waveform(x, params), params)
    assert np.max(np.abs(back - x)) < 1e-10


def test_roundtrip_signal_objects():
    params = CompanderParams.default()
    rng = np.random.default_rng(0)
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    x = x / np.max(np.abs(x)) * params.peak
    back = expand_waveform(compress_waveform(x, params), params)
    assert np.max(np.abs(back - x)) < 1e-10


def test_compress_monotone_and_phase_preserving():
    params = CompanderParams.default()
    m = np.linspace(0, params.peak, 200)
    cm = compress_magnitude(m, params)
    assert np.all(np.diff(cm) > 0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    y = compress_waveform(x, params)
    np.testing.assert_allclose(np.angle(y), np.angle(x), atol=1e-12)


def test_compression_lifts_small_amplitudes():
    params = CompanderParams.default(mu=1.25)
    m = np.array([0.1, 0.5, 1.0, 2.0])
    assert np.all(compress_magnitude(m, params) > m)
    # the design peak is the fixed point
    assert float(compress_magnitude(np.array([params.peak]), params)[0]) == pytest.approx(
        params.peak, abs=1e-12
    )


def test_noise_factor_goldens():
    assert mu_law_noise_factor(CompanderParams(mu=1.25, peak=1.0)) == pytest.approx(
        1.078476817539165, abs=1e-12
    )
    assert mu_law_noise_factor(CompanderParams.default(mu=1.25)) == pytest.approx(
        0.5160674838197229, abs=1e-12
    )


def test_companded_snr_decomposition():
    params = CompanderParams.default(mu=1.25)
    sa2, sd2 = 1e-3, 2e-4
    snr = companded_snr(params, CFG.n_subcarriers, sa2, sd2)
    denom = CFG.n_subcarriers * (sa2 + sd2) * mu_law_noise_factor(params)
    assert abs(snr - 1.0 / denom) < 1e-12
    with pytest.warns(RuntimeWarning):
        assert companded_snr(params, 8, 0.0, 0.0) == math.inf


def test_compressed_power_gain_golden():
    params = CompanderParams.default(mu=1.25)
    assert compressed_power_gain(params) == pytest.approx(1.4561969777842274, rel=1e-9)
    assert companding_ibo_reduction_db(params) == pytest.approx(
        1.6322012537441974, abs=1e-9
    )


def test_compressed_power_gain_matches_adaptive_quadrature():
    from scipy.integrate import quad

    def by_quad(params, **tol):
        fc2 = lambda r: compress_magnitude(r, params) ** 2 * 2.0 * r * math.exp(-r * r)
        return quad(fc2, 0.0, 10.0, **tol)[0]

    a = ensemble_peak()
    # the mu-sweep grid, against quad at its default tolerance
    for mu in np.arange(0.25, 4.01, 0.25):
        params = CompanderParams(mu=float(mu), peak=a)
        assert compressed_power_gain(params) == pytest.approx(by_quad(params), rel=1e-14)
    # up to mu = 255 against a tight quad: at its default tolerance quad
    # itself is off by up to 2e-7 (near mu = 78.6)
    for mu in np.geomspace(1e-3, 255.0, 40):
        params = CompanderParams(mu=float(mu), peak=a)
        tight = by_quad(params, epsabs=0.0, epsrel=1e-13, limit=200)
        assert compressed_power_gain(params) == pytest.approx(tight, rel=1e-14), mu


def test_power_gain_increasing_in_mu():
    gains = [
        compressed_power_gain(CompanderParams(mu=m, peak=ensemble_peak()))
        for m in (0.25, 1.0, 4.0, 16.0)
    ]
    assert np.all(np.diff(gains) > 0)
    assert gains[0] > 1.0  # any compression runs the chain hotter


def test_analytic_companded_bussgang_golden():
    bp = analytic_companded_bussgang(CompanderParams.default(mu=1.25), 8.0)
    assert bp.k_l == pytest.approx(0.47697385864156155, abs=1e-12)
    assert bp.sigma_d2 == pytest.approx(0.0002574823827539985, abs=1e-12)


def _cascade_bussgang(params, ibo_db):
    """Empirical Bussgang parameters of the compress -> back-off -> PA
    cascade against the uncompressed waveform, the compressed signal
    driving the amplifier at its natural (hotter) power."""
    _, x = random_frames(CFG, 64, np.random.default_rng(0))
    return bussgang_estimate(x, amplify(compress_waveform(x, params), PA, ibo_db))


def test_companded_bussgang_empirical_goldens():
    params = CompanderParams.default(mu=1.25)
    k_by_ibo = []
    for ibo in (2.0, 4.0, 6.0, 8.0):
        bp = _cascade_bussgang(params, ibo)
        k_by_ibo.append(bp.k_l)
    np.testing.assert_allclose(
        k_by_ibo,
        [0.8233663850843057, 0.9222177385072318, 1.0064550822155, 1.0724012798074667],
        atol=1e-9,
    )
    assert np.all(np.diff(k_by_ibo) > 0)
    bp6 = _cascade_bussgang(params, 6.0)
    assert bp6.sigma_d2 == pytest.approx(0.02926637147850153, abs=1e-9)


def test_papr_reduction_goldens():
    r, r255 = companded_papr_reductions(
        CFG, [CompanderParams.default(mu=1.25), CompanderParams.default(mu=255.0)],
        n_trials=4000, seed=0,
    )
    assert r.papr_before_db == pytest.approx(11.344707240183373, abs=1e-9)
    assert r.reduction_db == pytest.approx(2.6296297317342265, abs=1e-9)
    assert r255.reduction_db == pytest.approx(8.710256614734073, abs=1e-9)
    assert r255.reduction_db > r.reduction_db


def test_papr_reductions_share_one_draw():
    cfg = OfdmConfig(n_subcarriers=64, oversampling_factor=2)
    grid = [CompanderParams.default(mu=mu) for mu in (0.5, 1.25, 4.0, 255.0)]
    many = companded_papr_reductions(cfg, grid, n_trials=300, seed=3)
    single = [companded_papr_reductions(cfg, [p], n_trials=300, seed=3)[0]
              for p in grid]
    assert many == single
    assert len({r.papr_before_db for r in many}) == 1
    assert companded_papr_reductions(cfg, [], n_trials=10) == []


def test_optimize_mu_design_point():
    design = optimize_mu(CFG.n_subcarriers, 8.0, 1e-3)
    assert isinstance(design, MuDesign)
    assert design.mu_star == pytest.approx(1.1908697296616064, abs=2e-3)
    assert design.unimodal
