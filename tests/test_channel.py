import numpy as np
import pytest

from swiptsim.channel import (
    CHANNEL_KINDS,
    ChannelSpec,
    apply_channel,
    sample_channel,
    subcarrier_gains,
)
from swiptsim.ofdm import OfdmConfig, map_bits, ofdm_demodulate, synthesize_waveforms


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(kind="underwater")
    with pytest.raises(ValueError):
        ChannelSpec(pdp_db=(-3.0, -10.0))  # must start at 0 dB
    with pytest.raises(ValueError):
        ChannelSpec(pdp_db=())
    assert ChannelSpec(kind="rayleigh_multitap").n_taps == 3
    assert ChannelSpec(kind="awgn").n_taps == 1


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_spec_rejects_a_non_finite_tap(bad):
    # caught where the spec is made, not as a NaN efficiency after a whole pass
    with pytest.raises(ValueError, match="power delay profile must be finite"):
        ChannelSpec(kind="rayleigh_multitap", pdp_db=(0.0, bad))


def test_awgn_taps_are_unity():
    assert sample_channel(ChannelSpec(kind="awgn"), np.random.default_rng(0)) == (1.0 + 0.0j,)


@pytest.mark.parametrize("kind", ("rayleigh_flat", "rice_flat", "rayleigh_multitap"))
def test_fading_unit_mean_power(kind):
    rng = np.random.default_rng(0)
    spec = ChannelSpec(kind=kind)
    gains = [sum(abs(t) ** 2 for t in sample_channel(spec, rng)) for _ in range(100_000)]
    assert np.mean(gains) == pytest.approx(1.0, rel=0.01)


def test_rice_k_factor_statistics():
    rng = np.random.default_rng(1)
    spec = ChannelSpec(kind="rice_flat", rice_k_db=20.0)
    taps = np.array([sample_channel(spec, rng)[0] for _ in range(20_000)])
    k = 100.0
    assert np.mean(taps).real == pytest.approx(np.sqrt(k / (k + 1)), rel=0.01)
    assert np.var(taps) == pytest.approx(1 / (k + 1), rel=0.05)


def test_multitap_power_delay_profile():
    rng = np.random.default_rng(2)
    spec = ChannelSpec(kind="rayleigh_multitap", pdp_db=(0.0, -10.0, -20.0))
    draws = np.array([sample_channel(spec, rng) for _ in range(50_000)])
    powers = np.mean(np.abs(draws) ** 2, axis=0)
    expected = 10 ** (np.array([0.0, -10.0, -20.0]) / 10)
    expected /= expected.sum()
    np.testing.assert_allclose(powers, expected, rtol=0.03)


def test_sampling_deterministic():
    spec = ChannelSpec(kind="rayleigh_multitap")
    a = sample_channel(spec, np.random.default_rng(7))
    b = sample_channel(spec, np.random.default_rng(7))
    assert a == b


def test_apply_channel_is_linear_convolution():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    taps = (0.8 + 0.1j, 0.2 - 0.3j)
    out = apply_channel(x, taps)
    np.testing.assert_allclose(out, np.convolve(x, taps)[: x.size], atol=1e-12)
    # a block of frames, each through its own taps, row by row
    rows = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    row_taps = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    out = apply_channel(rows, row_taps)
    for y, x_row, h in zip(out, rows, row_taps):
        np.testing.assert_allclose(y, np.convolve(x_row, h)[: x_row.size], atol=1e-12)


def test_apply_channel_scratch_is_bit_identical():
    # each later tap's product formed in a caller's scratch array gives the
    # new-array result bit for bit, and leaves x as it was
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    before = rows.copy()
    for n_taps in (1, 2, 4):
        row_taps = rng.standard_normal((3, n_taps)) + 1j * rng.standard_normal((3, n_taps))
        out, scratch = np.empty_like(rows), np.empty_like(rows)
        got = apply_channel(rows, row_taps, out=out, scratch=scratch)
        assert got is out
        assert got.tobytes() == apply_channel(rows, row_taps).tobytes()
    assert rows.tobytes() == before.tobytes()


def test_apply_channel_rejects_short_prefix():
    taps = (1.0 + 0j, 0.1 + 0j, 0.05 + 0j)
    sig = np.ones(32, dtype=complex)
    with pytest.raises(ValueError):
        apply_channel(sig, taps, cp_length=1)
    apply_channel(sig, taps, cp_length=2)  # exactly enough


def test_subcarrier_gains_dft_oracle():
    cfg = OfdmConfig(n_subcarriers=16, oversampling_factor=2)
    taps = (0.9 + 0.2j, -0.1 + 0.4j, 0.05 - 0.02j)
    gains = subcarrier_gains(taps, cfg)
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
    grid = map_bits(rng.integers(0, 2, size=2 * cfg.n_subcarriers))
    x = synthesize_waveforms(grid, cfg)
    taps = sample_channel(ChannelSpec(kind="rayleigh_multitap"), rng)
    y = apply_channel(x, taps, cp_length=cfg.cp_length)
    rx = ofdm_demodulate(y, cfg)
    np.testing.assert_allclose(rx, grid * subcarrier_gains(taps, cfg), atol=1e-10)


def test_channel_kinds_catalogue():
    assert CHANNEL_KINDS == ("awgn", "rice_flat", "rayleigh_flat", "rayleigh_multitap")
    rng = np.random.default_rng(9)
    for kind in CHANNEL_KINDS:
        spec = ChannelSpec(kind=kind)
        assert len(sample_channel(spec, rng)) == spec.n_taps
