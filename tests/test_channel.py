import numpy as np
import pytest

from swiptsim.channel import (
    CHANNEL_KINDS,
    ChannelRealization,
    ChannelSpec,
    apply_channel,
    path_loss_db,
    sample_channel,
    subcarrier_gains,
)
from swiptsim.ofdm import OfdmConfig, ofdm_demodulate, random_qpsk_grid, synthesize_waveforms


def test_path_loss_goldens():
    assert path_loss_db(915e6, 1.0) == pytest.approx(-31.675986591525675, abs=1e-9)
    # every doubling of distance costs the same 6.02 dB
    assert path_loss_db(915e6, 2.0) - path_loss_db(915e6, 1.0) == pytest.approx(
        -20 * np.log10(2), abs=1e-12
    )


def test_path_loss_zero_at_reference_radius():
    lam = 2.998e8 / 915e6
    with pytest.warns(RuntimeWarning):
        # lambda/4pi sits inside one wavelength, hence the warning
        assert path_loss_db(915e6, lam / (4 * np.pi)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        path_loss_db(-1.0, 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(kind="underwater")
    with pytest.raises(ValueError):
        ChannelSpec(pdp_db=(-3.0, -10.0))  # must start at 0 dB
    with pytest.raises(ValueError):
        ChannelSpec(distance_m=0.0)
    assert ChannelSpec(kind="rayleigh_multitap").n_taps == 3
    assert ChannelSpec(kind="awgn").n_taps == 1


def test_awgn_taps_are_unity():
    real = sample_channel(ChannelSpec(kind="awgn"), np.random.default_rng(0))
    assert real.taps == (1.0 + 0.0j,)
    assert real.gain2 == 1.0


@pytest.mark.parametrize("kind", ("rayleigh_flat", "rice_flat", "rayleigh_multitap"))
def test_fading_unit_mean_power(kind):
    rng = np.random.default_rng(0)
    spec = ChannelSpec(kind=kind)
    gains = [sample_channel(spec, rng).gain2 for _ in range(100_000)]
    assert np.mean(gains) == pytest.approx(1.0, rel=0.01)


def test_rice_k_factor_statistics():
    rng = np.random.default_rng(1)
    spec = ChannelSpec(kind="rice_flat", rice_k_db=20.0)
    taps = np.array([sample_channel(spec, rng).taps[0] for _ in range(20_000)])
    k = 100.0
    assert np.mean(taps).real == pytest.approx(np.sqrt(k / (k + 1)), rel=0.01)
    assert np.var(taps) == pytest.approx(1 / (k + 1), rel=0.05)


def test_multitap_power_delay_profile():
    rng = np.random.default_rng(2)
    spec = ChannelSpec(kind="rayleigh_multitap", pdp_db=(0.0, -10.0, -20.0))
    draws = np.array([sample_channel(spec, rng).taps for _ in range(50_000)])
    powers = np.mean(np.abs(draws) ** 2, axis=0)
    expected = 10 ** (np.array([0.0, -10.0, -20.0]) / 10)
    expected /= expected.sum()
    np.testing.assert_allclose(powers, expected, rtol=0.03)


def test_sampling_deterministic():
    spec = ChannelSpec(kind="rayleigh_multitap")
    a = sample_channel(spec, np.random.default_rng(7))
    b = sample_channel(spec, np.random.default_rng(7))
    assert a.taps == b.taps


def test_apply_channel_noise_variance():
    rng = np.random.default_rng(3)
    real = ChannelRealization(taps=(1.0 + 0j,), path_loss_db=0.0)
    out = apply_channel(np.zeros(100_000, dtype=complex), real, 0.1, rng)
    assert np.mean(np.abs(out) ** 2) == pytest.approx(0.1, rel=0.01)


def test_apply_channel_is_linear_convolution():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    taps = (0.8 + 0.1j, 0.2 - 0.3j)
    real = ChannelRealization(taps=taps, path_loss_db=0.0)
    out = apply_channel(x, real, 0.0, rng)
    np.testing.assert_allclose(out, np.convolve(x, taps)[: x.size], atol=1e-12)


def test_apply_channel_applies_path_loss():
    rng = np.random.default_rng(5)
    x = np.ones(16, dtype=complex)
    real = ChannelRealization(taps=(1.0 + 0j,), path_loss_db=-20.0)
    out = apply_channel(x, real, 0.0, rng)
    np.testing.assert_allclose(np.abs(out), 0.1, atol=1e-12)


def test_apply_channel_rejects_short_prefix():
    rng = np.random.default_rng(6)
    real = ChannelRealization(taps=(1.0 + 0j, 0.1 + 0j, 0.05 + 0j), path_loss_db=0.0)
    sig = np.ones(32, dtype=complex)
    with pytest.raises(ValueError):
        apply_channel(sig, real, 0.0, rng, cp_length=1)
    apply_channel(sig, real, 0.0, rng, cp_length=2)  # exactly enough


def test_subcarrier_gains_dft_oracle():
    cfg = OfdmConfig(n_subcarriers=16, oversampling_factor=2)
    taps = (0.9 + 0.2j, -0.1 + 0.4j, 0.05 - 0.02j)
    real = ChannelRealization(taps=taps, path_loss_db=0.0)
    gains = subcarrier_gains(real, cfg)
    nl = cfg.n_samples
    bins = list(range(8)) + list(range(nl - 8, nl))
    manual = [
        sum(t * np.exp(-2j * np.pi * k * l / nl) for l, t in enumerate(taps))
        for k in bins
    ]
    np.testing.assert_allclose(gains, manual, atol=1e-12)


def test_prefix_makes_convolution_circular():
    # with enough CP the per-symbol demod sees exactly grid * H_k, which is
    # what the one-tap equalizer in the receiver relies on
    cfg = OfdmConfig(n_subcarriers=64, oversampling_factor=2, cp_length=8)
    rng = np.random.default_rng(8)
    grid = random_qpsk_grid(cfg, rng)
    x = synthesize_waveforms(grid, cfg)
    real = sample_channel(ChannelSpec(kind="rayleigh_multitap"), rng)
    real = ChannelRealization(taps=real.taps, path_loss_db=0.0)
    y = apply_channel(x, real, 0.0, rng, cp_length=cfg.cp_length)
    rx = ofdm_demodulate(y, cfg)
    np.testing.assert_allclose(rx, grid * subcarrier_gains(real, cfg), atol=1e-10)


def test_channel_kinds_catalogue():
    assert CHANNEL_KINDS == ("awgn", "rice_flat", "rayleigh_flat", "rayleigh_multitap")
    rng = np.random.default_rng(9)
    for kind in CHANNEL_KINDS:
        real = sample_channel(ChannelSpec(kind=kind), rng)
        assert len(real.taps) == ChannelSpec(kind=kind).n_taps
