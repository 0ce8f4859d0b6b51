import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiptsim.cli import ConfigError, _mu_grid
from swiptsim.companding import (
    EXCEEDANCE,
    MU_GRID,
    PEAK,
    MuDesign,
    analytic_companded_bussgang,
    companded_papr_reductions,
    companded_snr,
    companding_ibo_reduction_db,
    compress_magnitude,
    compress_waveform,
    compressed_power_gain,
    expand_magnitude,
    expand_waveform,
    mu_law_noise_factor,
    optimize_mu,
    papr_samples,
)
from swiptsim.experiments import Scenario
from swiptsim.ofdm import OfdmConfig, papr_quantile_db, random_frames
from swiptsim.pa import PaModel, amplify, bussgang_estimate

CFG = OfdmConfig()
PA = PaModel.sspa(smoothness=1.2)


def test_ensemble_peak_value():
    assert PEAK == pytest.approx(math.sqrt(-math.log(1e-3)), abs=1e-15)
    assert PEAK == pytest.approx(2.628260884878466, abs=1e-12)


def test_params_validation():
    # the compander is its mu; mu > 0 is checked where it enters
    for mu in (0.0, -1.0):
        with pytest.raises(ValueError, match="mu must be positive"):
            Scenario(mu=mu)
    with pytest.raises(ConfigError, match="mu must be positive"):
        _mu_grid({"mu_grid": [1.0, 0.0]}, MU_GRID, "mu_sweep", allow_zero=False)
    with pytest.raises(ConfigError, match="mu must be non-negative"):
        _mu_grid({"mu_grid": [-1.0]}, MU_GRID, "papr", allow_zero=True)
    assert Scenario().mu == 1.25


@given(
    mu=st.floats(1e-3, 255.0, allow_nan=False),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_identity(mu, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    # keep magnitudes inside the design peak
    x = x / np.max(np.abs(x)) * PEAK * 0.999
    back = expand_waveform(compress_waveform(x, mu), mu)
    assert np.max(np.abs(back - x)) < 1e-10


def test_roundtrip_signal_objects():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    x = x / np.max(np.abs(x)) * PEAK
    back = expand_waveform(compress_waveform(x, 1.25), 1.25)
    assert np.max(np.abs(back - x)) < 1e-10


def test_compress_monotone_and_phase_preserving():
    m = np.linspace(0, PEAK, 200)
    cm = compress_magnitude(m, 1.25)
    assert np.all(np.diff(cm) > 0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    y = compress_waveform(x, 1.25)
    np.testing.assert_allclose(np.angle(y), np.angle(x), atol=1e-12)


def test_compression_lifts_small_amplitudes():
    m = np.array([0.1, 0.5, 1.0, 2.0])
    assert np.all(compress_magnitude(m, 1.25) > m)
    # the design peak is the fixed point
    assert float(compress_magnitude(np.array([PEAK]), 1.25)[0]) == pytest.approx(PEAK, abs=1e-12)


def test_noise_factor_goldens():
    assert mu_law_noise_factor(1.25) == pytest.approx(0.5160674838197229, abs=1e-12)


def test_companded_snr_decomposition():
    sa2, sd2 = 1e-3, 2e-4
    snr = companded_snr(1.25, CFG.n_subcarriers, sa2, sd2)
    denom = CFG.n_subcarriers * (sa2 + sd2) * mu_law_noise_factor(1.25)
    assert abs(snr - 1.0 / denom) < 1e-12
    with pytest.warns(RuntimeWarning):
        assert companded_snr(1.25, 8, 0.0, 0.0) == math.inf


def test_compressed_power_gain_golden():
    assert compressed_power_gain(1.25) == pytest.approx(1.4561969777842274, rel=1e-9)
    assert companding_ibo_reduction_db(1.25) == pytest.approx(
        1.6322012537441974, abs=1e-9
    )


def test_compressed_power_gain_matches_adaptive_quadrature():
    from scipy.integrate import quad

    def by_quad(mu, **tol):
        fc2 = lambda r: compress_magnitude(r, mu) ** 2 * 2.0 * r * math.exp(-r * r)
        return quad(fc2, 0.0, 10.0, **tol)[0]

    # the mu-sweep grid, against quad at its default tolerance
    for mu in map(float, np.arange(0.25, 4.01, 0.25)):
        assert compressed_power_gain(mu) == pytest.approx(by_quad(mu), rel=1e-14)
    # up to mu = 255 against a tight quad: at its default tolerance quad
    # itself is off by up to 2e-7 (near mu = 78.6)
    for mu in map(float, np.geomspace(1e-3, 255.0, 40)):
        tight = by_quad(mu, epsabs=0.0, epsrel=1e-13, limit=200)
        assert compressed_power_gain(mu) == pytest.approx(tight, rel=1e-14), mu


def test_power_gain_increasing_in_mu():
    gains = [compressed_power_gain(m) for m in (0.25, 1.0, 4.0, 16.0)]
    assert np.all(np.diff(gains) > 0)
    assert gains[0] > 1.0  # any compression runs the chain hotter


def test_analytic_companded_bussgang_golden():
    bp = analytic_companded_bussgang(1.25, 8.0)
    assert bp.k_l == pytest.approx(0.47697385864156155, abs=1e-12)
    assert bp.sigma_d2 == pytest.approx(0.0002574823827539985, abs=1e-12)


def _cascade_bussgang(mu, ibo_db):
    """Empirical Bussgang parameters of the compress -> back-off -> PA
    cascade against the uncompressed waveform, the compressed signal
    driving the amplifier at its natural (hotter) power."""
    _, x = random_frames(CFG, 64, np.random.default_rng(0))
    return bussgang_estimate(x, amplify(compress_waveform(x, mu), PA, ibo_db))


def test_companded_bussgang_empirical_goldens():
    k_by_ibo = []
    for ibo in (2.0, 4.0, 6.0, 8.0):
        bp = _cascade_bussgang(1.25, ibo)
        k_by_ibo.append(bp.k_l)
    np.testing.assert_allclose(
        k_by_ibo,
        [0.8233663850843057, 0.9222177385072318, 1.0064550822155, 1.0724012798074667],
        atol=1e-9,
    )
    assert np.all(np.diff(k_by_ibo) > 0)
    bp6 = _cascade_bussgang(1.25, 6.0)
    assert bp6.sigma_d2 == pytest.approx(0.02926637147850153, abs=1e-9)


def test_papr_reduction_goldens():
    r, r255 = companded_papr_reductions(CFG, [1.25, 255.0], n_trials=4000, seed=0)
    before = papr_quantile_db(papr_samples(CFG, 4000, 0, (0.0,))[0], EXCEEDANCE)
    assert before == pytest.approx(11.344707240183373, abs=1e-9)
    assert r == pytest.approx(2.6296297317342265, abs=1e-9)
    assert r255 == pytest.approx(8.710256614734073, abs=1e-9)
    assert r255 > r


def test_papr_reductions_share_one_draw():
    cfg = OfdmConfig(n_subcarriers=64, oversampling_factor=2)
    grid = (0.5, 1.25, 4.0, 255.0)
    many = companded_papr_reductions(cfg, grid, n_trials=300, seed=3)
    single = [companded_papr_reductions(cfg, [mu], n_trials=300, seed=3)[0] for mu in grid]
    assert many == single
    # each entry is the shared "before" minus its own "after"
    before = papr_quantile_db(papr_samples(cfg, 300, 3, (0.0,))[0], EXCEEDANCE)
    assert many == [before - papr_quantile_db(
        papr_samples(cfg, 300, 3, (mu,))[0], EXCEEDANCE)
        for mu in grid]
    assert companded_papr_reductions(cfg, [], n_trials=10) == []


def test_optimize_mu_design_point():
    design = optimize_mu(CFG.n_subcarriers, 8.0, 1e-3)
    assert isinstance(design, MuDesign)
    assert design.mu_star == pytest.approx(1.1908697296616064, abs=2e-3)
    assert design.unimodal
