import dataclasses

import numpy as np
import pytest

from swiptsim import link
from swiptsim.channel import ChannelSpec, apply_channel, sample_channel
from swiptsim.companding import PEAK, mu_law_noise_factor
from swiptsim.experiments import Scenario, closed_form
from swiptsim.harvester import EhModel, eta3, watts_to_dbm
from swiptsim.link import (
    LinkMetrics,
    SplitConfig,
    achievable_rate,
    demodulate_and_ber,
    harvested,
    info_branch,
    sinr,
    split_noise,
)
from swiptsim.ofdm import OfdmConfig, map_bits, synthesize_waveforms
from swiptsim.pa import PaModel


def test_split_config_validation():
    with pytest.raises(ValueError):
        SplitConfig(rho=1.5)
    with pytest.raises(ValueError):
        SplitConfig(rho=-0.1)
    with pytest.raises(ValueError):
        SplitConfig(sigma_a2=-1e-3)
    cfg = SplitConfig(rho=0.25)
    assert cfg.gamma_eh(2.0) == 0.5
    assert cfg.gamma_info(2.0) == 1.5
    assert SplitConfig().rho == pytest.approx(1.0 - 1e-6)


def test_link_metrics_validation():
    # a confidence interval is NaN below two trials
    ok = dict(rate_bps_hz=1.0, harvested_norm=0.0, ber=0.0, eta1=0.5, eta3=0.5,
              eta_e2e=0.25, ibo_reduction_db=0.0, eta3_ci=float("nan"), ber_ci=float("nan"))
    assert LinkMetrics(**ok).ibo_reduction_db == 0.0
    with pytest.raises(ValueError):
        LinkMetrics(**{**ok, "rate_bps_hz": -1.0})
    with pytest.raises(ValueError):
        LinkMetrics(**{**ok, "ber": 1.5})
    with pytest.raises(ValueError):
        LinkMetrics(**{**ok, "eta1": -0.1})


def _power(x):
    return np.mean(np.abs(x) ** 2)


def test_power_split_bookkeeping():
    # unit-power signal, antenna noise scaled with it by the splitter,
    # then the branch's own processing noise
    rng = np.random.default_rng(3)
    n = 200_000
    x = np.exp(2j * np.pi * rng.random(n))
    split = SplitConfig(rho=0.6, sigma_a2=0.02, sigma_p2=0.01)
    noise = split_noise(split, rng.standard_normal((2, 2, n)))
    info = info_branch(x.copy(), split, noise)
    assert _power(info) == pytest.approx(0.4 * 1.02 + 0.01, rel=0.01)
    # the antenna-noise realization reaches the branch at its amplitude share
    res_info = info - np.sqrt(0.4) * x
    cov = np.mean(res_info * np.conj(noise[0])).real
    assert cov == pytest.approx(np.sqrt(0.4) * 0.02, rel=0.05)


def test_power_split_extreme_ratios():
    rng = np.random.default_rng(5)
    x = np.ones(50_000, dtype=complex)
    for rho, expected in ((0.0, 1.04), (1.0, 0.04)):  # all signal, noise only
        split = SplitConfig(rho=rho, sigma_a2=0.0, sigma_p2=0.04)
        info = info_branch(x.copy(), split, split_noise(split, rng.standard_normal((2, 2, x.size))))
        assert _power(info) == pytest.approx(expected, rel=0.02)


def test_info_branch_broadcasts_one_draw():
    # the rows of a 2-D input share one reception's noise: each row gets
    # exactly what a 1-D call gives that row alone from the same draws
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    split = SplitConfig(rho=0.3, sigma_a2=0.02, sigma_p2=0.01)
    noise = split_noise(split, np.random.default_rng(7).standard_normal((2, 2, 64)))
    info = info_branch(rows.copy(), split, noise)
    for k, row in enumerate(rows):
        np.testing.assert_array_equal(info[k], info_branch(row.copy(), split, noise))


@pytest.mark.parametrize("sigma_a2, sigma_p2",
                         [(1e-3, 1e-3), (0.0, 0.02), (0.5, 0.0), (0.0, 0.0)])
@pytest.mark.parametrize("trials", [(), (3,), (2, 4)])
def test_split_noise_matches_complex_form(sigma_a2, sigma_p2, trials):
    # the real and imaginary parts written in place are the complex
    # product sqrt(v/2) * (re + 1j*im) of the unit draws bit for bit, and a
    # variance of 0 gives zeros
    split = SplitConfig(rho=0.3, sigma_a2=sigma_a2, sigma_p2=sigma_p2)
    z = np.random.default_rng(11).standard_normal(tuple(trials) + (2, 2, 64))
    noise = split_noise(split, z)
    ref = np.zeros(tuple(trials) + (2, 64), dtype=np.complex128)
    for row, v in enumerate((sigma_a2, sigma_p2)):
        if v != 0.0:
            ref[..., row, :] = np.sqrt(v / 2.0) * (z[..., row, 0, :] + 1j * z[..., row, 1, :])
    assert noise.shape == ref.shape
    assert noise.tobytes() == ref.tobytes()


def test_sinr_goldens():
    split = SplitConfig(rho=0.5, sigma_a2=1e-3, sigma_p2=0.0)
    s = sinr(split, k_l=1.0, sigma_d2=0.0)
    assert s == pytest.approx(1000.0, rel=1e-12)
    assert achievable_rate(s) == pytest.approx(9.967226258835993, abs=1e-12)

    split2 = SplitConfig(rho=0.5, sigma_a2=1e-3, sigma_p2=1e-3)
    s2 = sinr(split2, k_l=1.0, sigma_d2=0.0)
    assert s2 == pytest.approx(1000.0 / 3.0, rel=1e-12)
    assert achievable_rate(s2) == pytest.approx(8.385143389891024, abs=1e-12)


def test_sinr_degenerate_cases():
    clean = SplitConfig(rho=0.5, sigma_a2=0.0, sigma_p2=0.0)
    with pytest.warns(RuntimeWarning, match="diverges"):
        assert sinr(clean, k_l=1.0, sigma_d2=0.0) == np.inf
    with pytest.warns(RuntimeWarning):
        assert sinr(clean, k_l=0.0, sigma_d2=0.0) == 0.0
    # distortion alone keeps the ratio finite
    assert np.isfinite(sinr(clean, k_l=1.0, sigma_d2=0.01))


def _companded(split):
    """The closed form of the companded technique on an amplifier that does
    not saturate, so that K_L = 1 and there is no distortion."""
    return closed_form(Scenario(pa=PaModel.polynomial((0.0, 1.0))), "companding", split,
                       0.0, 0.0)


def test_companded_sinr_golden_and_noise_inflation():
    split = SplitConfig(rho=0.5, sigma_a2=1e-3, sigma_p2=1e-3)
    rate, _ = _companded(split)
    s = 2.0**rate - 1.0
    assert s == pytest.approx(397.44561957530163, rel=1e-12)
    # expansion scales antenna noise and distortion but not the
    # post-expander processing noise
    f = mu_law_noise_factor(1.25)
    manual = 0.5 / (0.5 * 1e-3 * f + 1e-3)
    assert s == pytest.approx(manual, rel=1e-12)
    inflated = dataclasses.replace(split, sigma_a2=1e-3 * f)
    assert rate == achievable_rate(sinr(inflated, k_l=1.0, sigma_d2=0.0))


def test_achievable_rate_basics():
    assert achievable_rate(0.0) == 0.0
    assert achievable_rate(1.0) == 1.0
    assert achievable_rate(3.0) == 2.0
    with pytest.raises(ValueError):
        achievable_rate(-0.5)


def test_harvested_additivity():
    split = SplitConfig(rho=0.7, sigma_a2=2e-3, sigma_p2=5e-4)
    kwargs = dict(h_gain2=1.3, p_rf_tx=2.0, eh=EhModel.linear(0.5))
    full = harvested(split, k_l=0.8, sigma_d2=0.05, **kwargs)
    quiet = dataclasses.replace(split, sigma_a2=0.0, sigma_p2=0.0)
    sig_only = harvested(quiet, k_l=0.8, sigma_d2=0.0, **kwargs)
    dist_only = harvested(quiet, k_l=0.0, sigma_d2=0.05, **kwargs)
    noise_only = harvested(split, k_l=0.0, sigma_d2=0.0, **kwargs)
    total = sig_only.h_p + dist_only.h_p + noise_only.h_p
    assert full.h_p == pytest.approx(total, rel=1e-12)


def test_harvested_goldens_and_limits():
    split = SplitConfig(rho=0.5, sigma_a2=1e-3, sigma_p2=1e-3)
    plain = harvested(split, k_l=1.0, sigma_d2=0.0)
    assert plain.h_p_norm == pytest.approx(0.25075, rel=1e-12)
    _, comp = _companded(split)
    assert comp == pytest.approx(0.25062901687095496, rel=1e-12)

    ideal = harvested(SplitConfig(rho=1.0, sigma_a2=0.0, sigma_p2=0.0),
                      k_l=1.0, sigma_d2=0.0)
    assert ideal.h_p_norm == pytest.approx(0.5, rel=1e-12)


def test_harvested_never_exceeds_input():
    split = SplitConfig(rho=0.9, sigma_a2=1e-3, sigma_p2=1e-3)
    for eh in (EhModel.linear(0.5), EhModel.default()):
        he = harvested(split, k_l=1.0, sigma_d2=0.02, p_rf_tx=1e-3, eh=eh)
        p_in = 0.9 * 1e-3 * 1.02 + 0.9 * 1e-3 + 1e-3
        assert he.h_p <= p_in


def test_constant_envelope_harvest_matches_closed_form():
    # with a flat envelope the Monte Carlo pass's per-sample rectenna lookup
    # and the closed form's lookup at the mean power coincide
    eh = EhModel.default()
    p_w = np.full(64, 1e-3)
    per_sample = float(np.sum(eta3(eh, watts_to_dbm(p_w)) * p_w)) / p_w.size
    quiet = SplitConfig(rho=1.0, sigma_a2=0.0, sigma_p2=0.0)
    closed = harvested(quiet, k_l=1.0, sigma_d2=0.0, p_rf_tx=1e-3, eh=eh)
    assert per_sample == pytest.approx(closed.h_p, rel=1e-12)


def test_rate_energy_tradeoff_monotone_in_rho():
    rhos = np.linspace(0.0, 1.0, 21)
    split0 = SplitConfig(rho=0.5, sigma_a2=1e-3, sigma_p2=1e-3)
    rates, energies = [], []
    for rho in rhos:
        split = dataclasses.replace(split0, rho=float(rho))
        rates.append(achievable_rate(sinr(split, 1.0, 0.0)))
        energies.append(harvested(split, 1.0, 0.0).h_p_norm)
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert all(a <= b for a, b in zip(energies, energies[1:]))
    assert rates[-1] == 0.0  # everything to the harvester


def _build_frame(cfg, rng, n_symbols):
    bits = rng.integers(0, 2, size=2 * cfg.n_subcarriers * n_symbols)
    grid = map_bits(bits).reshape(n_symbols, cfg.n_subcarriers)
    x = synthesize_waveforms(grid, cfg).ravel()
    return bits, x


def test_noiseless_ber_is_zero_through_fading():
    cfg = OfdmConfig(n_subcarriers=64, oversampling_factor=2, cp_length=8)
    rng = np.random.default_rng(11)
    bits, sig = _build_frame(cfg, rng, 4)
    taps = sample_channel(ChannelSpec(kind="rayleigh_multitap"), rng)
    rx = apply_channel(sig, taps, cp_length=cfg.cp_length)
    assert demodulate_and_ber(rx, taps, cfg, bits) == 0.0


def test_tiny_mu_expander_matches_plain_receiver():
    # with mu -> 0 the expander is the identity, so a noisy branch must
    # produce the same (non-zero) error rate either way
    cfg = OfdmConfig(n_subcarriers=64, oversampling_factor=2)
    rng = np.random.default_rng(13)
    bits, sig = _build_frame(cfg, rng, 4)
    taps = (1.0 + 0j,)
    split = SplitConfig(rho=0.0, sigma_a2=0.5, sigma_p2=0.0)
    rx = info_branch(sig, split, split_noise(split, rng.standard_normal((2, 2, sig.size))))
    plain = demodulate_and_ber(rx, taps, cfg, bits)
    expanded = demodulate_and_ber(rx, taps, cfg, bits, expander=1e-9, expander_scale=1.0)
    assert plain > 0.0
    assert expanded == plain


def test_demodulate_block_caps_the_expander_row_by_row(monkeypatch):
    # a block of frames demodulates exactly as each frame alone, and the
    # expander cap rescales only the frames with a sample beyond it
    cfg = OfdmConfig(n_subcarriers=64, oversampling_factor=2, cp_length=4)
    rng = np.random.default_rng(19)
    frames = [_build_frame(cfg, rng, 2) for _ in range(3)]
    bits = np.stack([b for b, _ in frames])
    rx = np.stack([x for _, x in frames])
    taps = np.array([sample_channel(ChannelSpec(kind="rayleigh_multitap"), rng)
                     for _ in range(3)])
    rx = np.stack([apply_channel(x, t, cfg.cp_length) for x, t in zip(rx, taps)])
    rx = rx + 0.05 * (rng.standard_normal(rx.shape) + 1j * rng.standard_normal(rx.shape))
    scale = np.array([0.7, 1.0, 1.3])
    rx[1, 10] = 100.0 * PEAK  # beyond the cap of 64 x peak
    expanded = []
    real_expand = link.expand_waveform

    def recording_expand(waveform, mu):
        expanded.append(waveform.copy())
        return real_expand(waveform, mu)

    monkeypatch.setattr(link, "expand_waveform", recording_expand)
    block = demodulate_and_ber(rx, taps, cfg, bits, 1.25, scale)
    alone = [demodulate_and_ber(rx[i], tuple(taps[i]), cfg, bits[i], 1.25, float(scale[i]))
             for i in range(3)]
    np.testing.assert_array_equal(block, alone)
    np.testing.assert_array_equal(expanded[0], np.stack(expanded[1:]))
    capped = np.abs(expanded[0]) > 64.0 * PEAK * (1 - 1e-12)
    assert capped.any(axis=-1).tolist() == [False, True, False]
    assert np.isfinite(block).all()


def test_demodulate_rejections():
    cfg = OfdmConfig(n_subcarriers=64, oversampling_factor=2)
    rng = np.random.default_rng(17)
    bits, sig = _build_frame(cfg, rng, 2)
    taps = (1.0 + 0j,)

    with pytest.raises(ValueError, match="nulls"):
        demodulate_and_ber(sig, (0.0 + 0j,), cfg, bits)
    short = sig[:-1]
    with pytest.raises(ValueError, match="whole number"):
        demodulate_and_ber(short, taps, cfg, bits)
    with pytest.raises(ValueError, match="truth bit count"):
        demodulate_and_ber(sig, taps, cfg, bits[:-2])
    with pytest.raises(ValueError, match="positive"):
        demodulate_and_ber(sig, taps, cfg, bits, expander=1.25, expander_scale=0.0)
