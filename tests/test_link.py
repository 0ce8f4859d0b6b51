import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiptsim import link
from swiptsim.channel import ChannelSpec, apply_channel, sample_channel, subcarrier_gains
from swiptsim.companding import PEAK, companding_ibo_reduction_db
from swiptsim.experiments import Scenario, run_techniques
from swiptsim.harvester import default_rectenna, eta3, watts_to_dbm
from swiptsim.link import (
    LinkMetrics,
    SplitConfig,
    demodulate_and_ber,
    info_branch,
)
from swiptsim.ofdm import (
    OfdmConfig,
    demap_symbols,
    map_bits,
    ofdm_demodulate,
    synthesize_waveforms,
)
from swiptsim.pa import PaModel, bussgang_estimate, scale_envelope

SMALL = OfdmConfig(n_subcarriers=64, oversampling_factor=2)


def test_split_config_validation():
    with pytest.raises(ValueError):
        SplitConfig(rho=1.5)
    with pytest.raises(ValueError):
        SplitConfig(rho=-0.1)
    with pytest.raises(ValueError):
        SplitConfig(sigma_a2=-1e-3)
    assert SplitConfig(rho=0.25).rho == 0.25
    assert SplitConfig().rho == pytest.approx(1.0 - 1e-6)


def test_link_metrics_validation():
    # a confidence interval is NaN below two trials
    ok = dict(rate_bps_hz=1.0, harvested_norm=0.0, ber=0.0, eta1=0.5, eta3=0.5,
              eta_e2e=0.25, ibo_reduction_db=0.0, eta3_ci=float("nan"), ber_ci=float("nan"))
    assert LinkMetrics(**ok).ibo_reduction_db == 0.0
    # an infinite rate (a noise-free link) is legal, NaN is not
    assert LinkMetrics(**{**ok, "rate_bps_hz": float("inf")}).rate_bps_hz == float("inf")
    for name in ("rate_bps_hz", "harvested_norm"):
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError, match=name.split("_")[0]):
                LinkMetrics(**{**ok, name: bad})
    with pytest.raises(ValueError):
        LinkMetrics(**{**ok, "ber": 1.5})
    with pytest.raises(ValueError):
        LinkMetrics(**{**ok, "eta1": -0.1})


def _power(x):
    return np.mean(np.abs(x) ** 2)


def _unit_draws(rng, shape):
    """Unit normal draws of shape + (2,) viewed as complex samples of
    shape shape, as the Monte Carlo pass draws a trial's noise."""
    return rng.standard_normal(tuple(shape) + (2,)).view(np.complex128)[..., 0]


def test_power_split_bookkeeping():
    # unit-power signal, antenna noise scaled with it by the splitter,
    # then the branch's own processing noise
    rng = np.random.default_rng(3)
    n = 200_000
    x = np.exp(2j * np.pi * rng.random(n))
    split = SplitConfig(rho=0.6, sigma_a2=0.02, sigma_p2=0.01)
    antenna, branch = _unit_draws(rng, (2, n))
    info = info_branch(x.copy(), split, antenna, branch)
    assert _power(info) == pytest.approx(0.4 * 1.02 + 0.01, rel=0.01)
    # the antenna-noise realization reaches the branch at its amplitude share
    res_info = info - np.sqrt(0.4) * x
    cov = np.mean(res_info * np.conj(np.sqrt(0.02 / 2.0) * antenna)).real
    assert cov == pytest.approx(np.sqrt(0.4) * 0.02, rel=0.05)


def test_power_split_extreme_ratios():
    rng = np.random.default_rng(5)
    x = np.ones(50_000, dtype=complex)
    for rho, expected in ((0.0, 1.04), (1.0, 0.04)):  # all signal, noise only
        split = SplitConfig(rho=rho, sigma_a2=0.0, sigma_p2=0.04)
        info = info_branch(x.copy(), split, *_unit_draws(rng, (2, x.size)))
        assert _power(info) == pytest.approx(expected, rel=0.02)


def test_info_branch_broadcasts_one_draw():
    # the rows of a 2-D input share one reception's noise: each row gets
    # exactly what a 1-D call gives that row alone from the same draws
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    split = SplitConfig(rho=0.3, sigma_a2=0.02, sigma_p2=0.01)
    noise = _unit_draws(np.random.default_rng(7), (2, 64))
    info = info_branch(rows.copy(), split, *noise)
    for k, row in enumerate(rows):
        np.testing.assert_array_equal(info[k], info_branch(row.copy(), split, *noise))


@pytest.mark.parametrize("sigma_a2, sigma_p2",
                         [(1e-3, 1e-3), (0.0, 0.02), (0.5, 0.0), (0.0, 0.0)])
@pytest.mark.parametrize("trials", [(), (3,), (2, 4)])
def test_split_noise_matches_complex_form(sigma_a2, sigma_p2, trials):
    # the splitter's noise is sqrt(v/2) * (re + 1j*im) of (n, 2) unit
    # draws viewed as complex, bit for bit, in a block of any shape; a
    # variance of 0 adds nothing, and with sigma_p2 = 0 the branch's draws
    # may be left out
    split = SplitConfig(rho=0.3, sigma_a2=sigma_a2, sigma_p2=sigma_p2)
    rng = np.random.default_rng(11)
    y = _unit_draws(rng, tuple(trials) + (64,))
    z = rng.standard_normal((2,) + tuple(trials) + (64, 2))
    ref = y.copy()
    if sigma_a2 != 0.0:
        ref = ref + np.sqrt(sigma_a2 / 2.0) * (z[0, ..., 0] + 1j * z[0, ..., 1])
    ref = ref * np.sqrt(0.7)
    if sigma_p2 != 0.0:
        ref = ref + np.sqrt(sigma_p2 / 2.0) * (z[1, ..., 0] + 1j * z[1, ..., 1])
    antenna, branch = z.view(np.complex128)[..., 0]
    info = info_branch(y.copy(), split, antenna, branch)
    assert info.shape == ref.shape
    assert info.tobytes() == ref.tobytes()
    if sigma_p2 == 0.0:
        assert info_branch(y.copy(), split, antenna).tobytes() == ref.tobytes()
    else:
        with pytest.raises(ValueError, match="branch's noise draws"):
            info_branch(y.copy(), split, antenna)


def _through(s, techniques, splits, channel=ChannelSpec()):
    """results[p][k] of the pass through one channel into each splitter."""
    (points,) = run_techniques(s, techniques, [channel], splits)
    return points


def test_sinr_goldens():
    # the measured SINR of an ideal link is L (1 - rho) / ((1 - rho) sigma_a2
    # + sigma_p2), within the Monte Carlo's spread: the demodulator keeps
    # the in-band 1/L of each noise power
    s = Scenario(ofdm=OfdmConfig(n_subcarriers=64, oversampling_factor=4), trials=40, seed=2)
    splits = (SplitConfig(rho=0.5, sigma_a2=1e-3, sigma_p2=0.0),
              SplitConfig(rho=0.5, sigma_a2=1e-3, sigma_p2=1e-3))
    res = _through(s, ("linear",), splits)
    for (m,), expected in zip(res, (4000.0, 4000.0 / 3.0)):
        assert 2.0 ** m.rate_bps_hz - 1.0 == pytest.approx(expected, rel=0.05)


def test_sinr_degenerate_cases():
    # a frame with neither noise nor distortion has an infinite rate and an
    # all-zero branch a rate of 0, and both warn; noise keeps it finite
    rng = np.random.default_rng(23)
    sent, sig = _build_frame(SMALL, rng, 2)
    known = (subcarrier_gains((1.0 + 0j,), SMALL), SMALL, sent, demap_symbols(sent))
    with pytest.warns(RuntimeWarning, match="diverges"):
        assert demodulate_and_ber(sig.copy(), *known) == (0.0, np.inf)
    with pytest.warns(RuntimeWarning, match="diverges"):
        assert demodulate_and_ber(np.zeros_like(sig), *known)[1] == 0.0
    noisy = sig + 1e-3 * rng.standard_normal(sig.size)
    assert np.isfinite(demodulate_and_ber(noisy, *known)[1])


def test_companded_sinr_golden_and_noise_inflation():
    # on an amplifier that does not saturate, the compressed frames radiate
    # 10^(r/10) times the baseline's power, r the compression's back-off
    # reduction; the companded rate is measured after the expander, which
    # amplifies the noise riding the compressed signal, so its SINR gains
    # less than that over the baseline's on the same draws
    s = Scenario(pa=PaModel.polynomial((0.0, 1.0)), ofdm=SMALL, trials=10, seed=4)
    ((base, comp),) = _through(s, ("baseline", "companding"),
                               [SplitConfig(rho=0.5, sigma_a2=1e-3, sigma_p2=1e-3)])
    gain = (2.0 ** comp.rate_bps_hz - 1.0) / (2.0 ** base.rate_bps_hz - 1.0)
    assert 1.0 < gain < 10.0 ** (companding_ibo_reduction_db(s.mu) / 10.0)
    assert (base.rate_bps_hz, comp.rate_bps_hz) == pytest.approx(
        (9.38653619144317, 9.816956680595696), abs=1e-9)


def test_achievable_rate_basics():
    # each frame's rate is log2(1 + K^2 / sigma_d^2) of the Bussgang
    # decomposition of its zero-forced grid against the sent symbols, and a
    # block of frames gives each frame its own
    cfg = dataclasses.replace(SMALL, cp_length=4)
    rng = np.random.default_rng(29)
    frames = [_build_frame(cfg, rng, 2) for _ in range(3)]
    sent = np.stack([b for b, _ in frames])
    taps = np.array([sample_channel(ChannelSpec(kind="rayleigh_multitap"), rng)
                     for _ in range(3)])
    rx = np.stack([apply_channel(x, t, cfg.cp_length) for (_, x), t in zip(frames, taps)])
    rx = rx + 0.05 * (rng.standard_normal(rx.shape) + 1j * rng.standard_normal(rx.shape))
    _, rates = demodulate_and_ber(rx.copy(), subcarrier_gains(taps, cfg), cfg, sent,
                                  demap_symbols(sent))
    for i in range(3):
        grid = ofdm_demodulate(rx[i].reshape(2, -1), cfg) / subcarrier_gains(taps[i], cfg)
        bp = bussgang_estimate(sent[i], grid.ravel())
        assert rates[i] == pytest.approx(np.log2(1.0 + bp.k_l ** 2 / bp.sigma_d2), rel=1e-12)
        alone = demodulate_and_ber(rx[i].copy(), subcarrier_gains(tuple(taps[i]), cfg), cfg,
                                   sent[i], demap_symbols(sent[i]))
        assert alone[1] == rates[i]
    assert 0.0 < rates.min()


def test_harvested_additivity():
    # H_P/E is eta3 * rho * (P_rx + sigma_a2): the antenna noise adds its
    # share, and the processing noise, the information branch's, adds nothing
    s = Scenario(ofdm=SMALL, trials=3, seed=6)
    splits = (SplitConfig(rho=0.7, sigma_a2=2e-3, sigma_p2=5e-4),
              SplitConfig(rho=0.7, sigma_a2=0.0, sigma_p2=5e-4),
              SplitConfig(rho=0.7, sigma_a2=0.0, sigma_p2=0.0))
    (full,), (signal,), (quiet,) = _through(s, ("companding",), splits,
                                            ChannelSpec(kind="rayleigh_flat"))
    assert signal.harvested_norm == quiet.harvested_norm > 0.0
    assert full.harvested_norm == pytest.approx(
        quiet.harvested_norm + full.eta3 * 0.7 * 2e-3, rel=1e-12)


def test_harvested_goldens_and_limits():
    # a linear amplifier through AWGN delivers the nominal transmit power,
    # P_rx = 1, to a linear 0.5 harvester; rho = 0 harvests nothing
    s = Scenario(pa=PaModel.polynomial((0.0, 1.0)), eh=0.5, ofdm=SMALL,
                 trials=3, seed=1)
    splits = (SplitConfig(rho=1.0, sigma_a2=0.0), SplitConfig(rho=0.5), SplitConfig(rho=0.0))
    (ideal,), (plain,), (none,) = _through(s, ("baseline",), splits)
    assert ideal.harvested_norm == pytest.approx(0.5, rel=1e-12)
    assert plain.harvested_norm == pytest.approx(0.5 * 0.5 * (1.0 + 1e-3), rel=1e-12)
    assert none.harvested_norm == 0.0


def test_harvested_never_exceeds_input():
    # the rectified power stays below the EH branch's input, rho (P_rx +
    # sigma_a2), on a linear harvester and on the packaged curve; the linear
    # and baseline techniques receive P_rx = 1 through AWGN
    splits = [SplitConfig(rho=rho, sigma_a2=1e-3) for rho in (0.1, 0.5, 0.9, 1.0)]
    for eh in (0.5, default_rectenna()):
        s = Scenario(ofdm=SMALL, eh=eh, trials=3, seed=7)
        res = _through(s, ("linear", "baseline"), splits)
        for split, row in zip(splits, res):
            for m in row:
                assert 0.0 < m.harvested_norm <= split.rho * (1.0 + split.sigma_a2) * (1 + 1e-12)


def test_constant_envelope_harvest_matches_closed_form():
    # with a flat envelope the Monte Carlo pass's per-sample rectenna lookup
    # and a lookup at the mean power coincide
    eh = default_rectenna()
    p_w = np.full(64, 1e-3)
    per_sample = float(np.sum(eta3(eh, watts_to_dbm(p_w)) * p_w)) / p_w.size
    assert per_sample == pytest.approx(float(eta3(eh, watts_to_dbm(1e-3))) * 1e-3, rel=1e-12)


def test_rate_energy_tradeoff_monotone_in_rho():
    # one pass over the splitting ratio: the measured rate falls and H_P/E
    # rises with rho
    rhos = np.linspace(0.0, 1.0, 21)
    s = Scenario(ofdm=SMALL, trials=4, seed=3)
    res = _through(s, ("baseline",), [SplitConfig(rho=float(rho)) for rho in rhos])
    rates = [m.rate_bps_hz for (m,) in res]
    energies = [m.harvested_norm for (m,) in res]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    assert all(a < b for a, b in zip(energies, energies[1:]))
    # everything to the harvester: the branch holds processing noise only
    assert energies[0] == 0.0
    assert rates[-1] < 0.05


def _build_frame(cfg, rng, n_symbols):
    """(sent QPSK symbols, time-domain frame) of n_symbols random symbols."""
    sent = map_bits(rng.integers(0, 2, size=2 * cfg.n_subcarriers * n_symbols))
    x = synthesize_waveforms(sent.reshape(n_symbols, cfg.n_subcarriers), cfg).ravel()
    return sent, x


def test_noiseless_ber_is_zero_through_fading():
    cfg = OfdmConfig(n_subcarriers=64, oversampling_factor=2, cp_length=8)
    rng = np.random.default_rng(11)
    sent, sig = _build_frame(cfg, rng, 4)
    taps = sample_channel(ChannelSpec(kind="rayleigh_multitap"), rng)
    rx = apply_channel(sig, taps, cp_length=cfg.cp_length)
    # a noiseless frame through fading decodes without error, and, with
    # neither noise nor distortion, at an infinite rate
    with pytest.warns(RuntimeWarning, match="diverges"):
        assert demodulate_and_ber(rx, subcarrier_gains(taps, cfg), cfg, sent,
                                  demap_symbols(sent)) == (0.0, np.inf)


def test_tiny_mu_expander_matches_plain_receiver():
    # with mu -> 0 the expander is the identity, so a noisy branch must
    # produce the same (non-zero) error rate either way
    cfg = OfdmConfig(n_subcarriers=64, oversampling_factor=2)
    rng = np.random.default_rng(13)
    sent, sig = _build_frame(cfg, rng, 4)
    taps = (1.0 + 0j,)
    split = SplitConfig(rho=0.0, sigma_a2=0.5, sigma_p2=0.0)
    rx = info_branch(sig, split, _unit_draws(rng, (sig.size,)))
    known = (subcarrier_gains(taps, cfg), cfg, sent, demap_symbols(sent))
    plain, _ = demodulate_and_ber(rx.copy(), *known)
    expanded, _ = demodulate_and_ber(rx.copy(), *known, expander=1e-9, expander_scale=1.0)
    assert plain > 0.0
    assert expanded == plain


def test_demodulate_block_caps_the_expander_row_by_row(monkeypatch):
    # a block of frames demodulates exactly as each frame alone, BER and
    # rate, and the expander cap rescales only the frames with a sample
    # beyond it: the expander sees the capped waveform, whatever buffers
    # it is handed
    cfg = OfdmConfig(n_subcarriers=64, oversampling_factor=2, cp_length=4)
    rng = np.random.default_rng(19)
    frames = [_build_frame(cfg, rng, 2) for _ in range(3)]
    sent = np.stack([b for b, _ in frames])
    rx = np.stack([x for _, x in frames])
    taps = np.array([sample_channel(ChannelSpec(kind="rayleigh_multitap"), rng)
                     for _ in range(3)])
    rx = np.stack([apply_channel(x, t, cfg.cp_length) for x, t in zip(rx, taps)])
    rx = rx + 0.05 * (rng.standard_normal(rx.shape) + 1j * rng.standard_normal(rx.shape))
    scale = np.array([0.7, 1.0, 1.3])
    rx[1, 10] = 100.0 * PEAK  # beyond the cap of 64 x peak
    expanded = []
    real_expand = link.expand_waveform

    def recording_expand(waveform, mu, *buffers):
        expanded.append(waveform.copy())
        return real_expand(waveform, mu, *buffers)

    monkeypatch.setattr(link, "expand_waveform", recording_expand)
    block = demodulate_and_ber(rx.copy(), subcarrier_gains(taps, cfg), cfg, sent,
                               demap_symbols(sent), 1.25, scale)
    alone = [demodulate_and_ber(rx[i].copy(), subcarrier_gains(tuple(taps[i]), cfg), cfg,
                                sent[i], demap_symbols(sent[i]), 1.25, float(scale[i]))
             for i in range(3)]
    np.testing.assert_array_equal(np.transpose(block), alone)
    np.testing.assert_array_equal(expanded[0], np.stack(expanded[1:]))
    capped = np.abs(expanded[0]) > 64.0 * PEAK * (1 - 1e-12)
    assert capped.any(axis=-1).tolist() == [False, True, False]
    assert np.isfinite(block).all()


def test_demodulate_rejections():
    cfg = OfdmConfig(n_subcarriers=64, oversampling_factor=2)
    rng = np.random.default_rng(17)
    sent, sig = _build_frame(cfg, rng, 2)
    gains, bits = subcarrier_gains((1.0 + 0j,), cfg), demap_symbols(sent)

    with pytest.raises(ValueError, match="nulls"):
        demodulate_and_ber(sig, subcarrier_gains((0.0 + 0j,), cfg), cfg, sent, bits)
    short = sig[:-1]
    with pytest.raises(ValueError, match="whole number"):
        demodulate_and_ber(short, gains, cfg, sent, bits)
    with pytest.raises(ValueError, match="sent symbol count"):
        demodulate_and_ber(sig, gains, cfg, sent[:-2], bits)
    with pytest.raises(ValueError, match="sent symbol count"):
        demodulate_and_ber(sig, gains, cfg, sent, bits[:-4])
    # NaN fails the sign check too, instead of passing as a scale
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            demodulate_and_ber(sig.copy(), gains, cfg, sent, bits, expander=1.25,
                               expander_scale=bad)


def _reference_demodulate(y, taps, cfg, sent, expander=None, expander_scale=None):
    """The demodulator's arithmetic in new arrays, with the gains and the
    sent bits derived in the call: the expander as the envelope map of
    (PEAK / mu) expm1(m log1p(mu) / PEAK), then DFT, zero-forcing, BER
    and rate."""
    lead = y.shape[:-1]
    if expander is not None:
        scale = np.broadcast_to(1.0 if expander_scale is None else expander_scale, lead)
        scale = scale[..., None]
        yn = y / scale
        m = np.abs(yn)
        cap = 64.0 * PEAK
        over = np.any(m > cap, axis=-1)
        if np.any(over):
            m = m[over]
            yn[over] = yn[over] * np.minimum(m, cap) / np.where(m > 0, m, 1.0)
        y = scale_envelope(
            yn, lambda m: (PEAK / expander) * np.expm1(m * math.log1p(expander) / PEAK)) * scale
    symbols = y.reshape(lead + (-1, cfg.n_samples + cfg.cp_length))[..., cfg.cp_length:]
    spectrum = np.fft.fft(symbols, norm="ortho")
    n = cfg.n_subcarriers
    grid = np.concatenate([spectrum[..., : n // 2], spectrum[..., cfg.n_samples - n // 2:]],
                          axis=-1)
    grid /= np.sqrt(cfg.oversampling_factor)
    h_k = subcarrier_gains(np.asarray(taps).reshape(lead + (-1,)), cfg)
    grid = (grid / h_k[..., None, :]).reshape(lead + (-1,))
    sent = sent.reshape(lead + (-1,))
    ber = np.mean(demap_symbols(grid) != demap_symbols(sent), axis=-1)
    bp = bussgang_estimate(sent, grid)
    return ber, np.log2(1.0 + np.square(bp.k_l) / bp.sigma_d2)


@given(seed=st.integers(0, 2 ** 32 - 1), frames=st.integers(1, 3), n_splits=st.integers(1, 3),
       multitap=st.booleans(), companded=st.booleans(), capped=st.booleans())
@settings(max_examples=40, deadline=None)
def test_receive_kernel_is_bit_identical(seed, frames, n_splits, multitap, companded, capped):
    # the receive job's kernel: each splitter's branch built in a copy of
    # the faded frames and demodulated with the block's gains and sent bits,
    # one copy and one scratch array reused across the splitters, gives
    # every BER and rate of the new-array arithmetic bit for bit
    cfg = OfdmConfig(n_subcarriers=16, oversampling_factor=2, cp_length=4 if multitap else 0)
    rng = np.random.default_rng(seed)
    built = [_build_frame(cfg, rng, 2) for _ in range(frames)]
    sent = np.stack([b for b, _ in built])
    spec = ChannelSpec(kind="rayleigh_multitap" if multitap else "rayleigh_flat")
    taps = np.array([sample_channel(spec, rng) for _ in range(frames)])
    rx = np.stack([apply_channel(x, t, cfg.cp_length) for (_, x), t in zip(built, taps)])
    scale = rng.uniform(0.5, 2.0, frames)
    if capped:
        rx[-1, 3] = 100.0 * PEAK * scale[-1]  # beyond the expander's cap
    antenna, branch = _unit_draws(rng, (2,) + rx.shape)
    splits = [SplitConfig(rho=float(rho), sigma_a2=float(a), sigma_p2=float(p))
              for rho, a, p in rng.uniform(0.0, 0.05, (n_splits, 3))]
    mu = 1.25 if companded else None
    info, scratch = np.empty_like(rx), np.empty_like(rx)
    gains, bits = subcarrier_gains(taps, cfg), demap_symbols(sent)
    for split in splits:
        np.copyto(info, rx)
        info_branch(info, split, antenna, branch, scratch)
        got = demodulate_and_ber(info, gains, cfg, sent, bits, mu, scale, scratch)
        ref_info = (rx + np.sqrt(split.sigma_a2 / 2.0) * antenna) * np.sqrt(1.0 - split.rho)
        ref_info = ref_info + np.sqrt(split.sigma_p2 / 2.0) * branch
        ref = _reference_demodulate(ref_info, taps, cfg, sent, mu, scale)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]


@pytest.mark.parametrize("expander", [None, 1.25])
def test_demodulate_overwrites_only_a_complex128_branch(expander):
    # a C-contiguous complex128 branch is demodulated in its own memory, so
    # it is overwritten; any other branch (complex64, strided, real) is
    # copied first and left as it was
    cfg = OfdmConfig(n_subcarriers=64, oversampling_factor=2, cp_length=4)
    rng = np.random.default_rng(31)
    sent, sig = _build_frame(cfg, rng, 2)
    known = (subcarrier_gains((1.0 + 0j,), cfg), cfg, sent, demap_symbols(sent),
             expander, 1.5)
    rx = (sig + 0.05 * rng.standard_normal(sig.size)).astype(np.complex64)
    wide = rx.astype(np.complex128)
    expected = demodulate_and_ber(wide.copy(), *known)

    assert demodulate_and_ber(wide, *known) == expected
    assert wide.tobytes() != rx.astype(np.complex128).tobytes()
    strided = np.repeat(rx.astype(np.complex128), 2)[::2]
    for kept in (rx, strided):
        before = kept.copy()
        assert demodulate_and_ber(kept, *known) == expected
        assert kept.tobytes() == before.tobytes()
    real = rx.real.copy()
    demodulate_and_ber(real, *known)
    assert real.tobytes() == rx.real.tobytes()
