import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiptsim import ofdm
from swiptsim.companding import PEAK, compress_waveform, papr_samples
from swiptsim.ofdm import (
    OfdmConfig,
    ccdf_from_samples,
    demap_symbols,
    map_bits,
    ofdm_demodulate,
    papr_db,
    papr_quantile_db,
    random_frames,
    run_bounded,
    synthesize_waveforms,
)

CFG = OfdmConfig()  # N=512, 15 kHz, L=4


def test_map_bits_gray_corners():
    s = map_bits(np.array([0, 0, 0, 1, 1, 0, 1, 1]))
    r = 1 / np.sqrt(2)
    np.testing.assert_allclose(
        s, [r + 1j * r, r - 1j * r, -r + 1j * r, -r - 1j * r], atol=1e-15
    )
    np.testing.assert_allclose(np.abs(s), 1.0, atol=1e-15)


def test_map_demap_roundtrip():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=2048)
    assert np.array_equal(demap_symbols(map_bits(bits)), bits)


def test_single_tone_is_constant_envelope():
    grid = np.zeros(CFG.n_subcarriers, dtype=complex)
    grid[0] = 1.0
    x = synthesize_waveforms(grid, CFG)
    np.testing.assert_allclose(x, 1 / np.sqrt(CFG.n_subcarriers), atol=1e-12)
    assert papr_db(x) == pytest.approx(0.0, abs=1e-10)


def test_two_tone_papr():
    grid = np.zeros(CFG.n_subcarriers, dtype=complex)
    grid[1] = grid[2] = 1.0
    # equal tones beat: peak power (2a)^2 against mean 2a^2
    assert papr_db(synthesize_waveforms(grid, CFG)) == pytest.approx(
        10 * np.log10(2), abs=1e-9
    )


def test_qpsk_waveform_unit_power_exact():
    rng = np.random.default_rng(1)
    for l in (1, 2, 4):
        cfg = OfdmConfig(oversampling_factor=l)
        grid = map_bits(rng.integers(0, 2, size=2 * cfg.n_subcarriers))
        x = synthesize_waveforms(grid, cfg)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_modulate_demodulate_roundtrip():
    rng = np.random.default_rng(2)
    grid = map_bits(rng.integers(0, 2, size=2 * CFG.n_subcarriers))
    x = synthesize_waveforms(grid, CFG)
    np.testing.assert_allclose(ofdm_demodulate(x, CFG), grid, atol=1e-12)


def test_parseval():
    rng = np.random.default_rng(3)
    grid = map_bits(rng.integers(0, 2, size=2 * CFG.n_subcarriers))
    x = synthesize_waveforms(grid, CFG)
    # grid energy N maps to waveform energy N*L under the sqrt(L) convention
    e_grid = np.sum(np.abs(grid) ** 2)
    e_time = np.sum(np.abs(x) ** 2) / CFG.oversampling_factor
    assert abs(e_grid - e_time) < 1e-10
    rt = ofdm_demodulate(x, CFG)
    assert abs(np.sum(np.abs(rt) ** 2) - e_grid) < 1e-10


def test_cyclic_prefix_is_a_copy_of_the_tail():
    cfg = OfdmConfig(cp_length=32)
    rng = np.random.default_rng(4)
    x = synthesize_waveforms(map_bits(rng.integers(0, 2, size=2 * cfg.n_subcarriers)),
                             cfg)
    assert x.size == cfg.n_samples + 32
    np.testing.assert_array_equal(x[:32], x[-32:])
    grid = map_bits(rng.integers(0, 2, size=2 * cfg.n_subcarriers))
    np.testing.assert_allclose(
        ofdm_demodulate(synthesize_waveforms(grid, cfg), cfg), grid, atol=1e-12
    )


@given(
    re=st.floats(-4, 4, allow_nan=False),
    im=st.floats(-4, 4, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_papr_scale_invariance(re, im):
    c = complex(re, im)
    if abs(c) < 1e-6:
        return
    rng = np.random.default_rng(5)
    x = synthesize_waveforms(map_bits(rng.integers(0, 2, size=2 * CFG.n_subcarriers)),
                             CFG)
    assert abs(papr_db(c * x) - papr_db(x)) < 1e-10


def test_papr_rejects_zero_signal():
    with pytest.raises(ValueError):
        papr_db(np.zeros(16, dtype=complex))


def test_papr_samples_deterministic():
    a = papr_samples(CFG, 64, 42, (0.0,))[0]
    b = papr_samples(CFG, 64, 42, (0.0,))[0]
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, papr_samples(CFG, 64, 43, (0.0,))[0])


def _papr_rows(m):
    # per-row PAPR (dB) of sample magnitudes, as max over mean of their squares
    p = m ** 2
    return 10.0 * np.log10(p.max(axis=-1) / p.mean(axis=-1))


SMALL = OfdmConfig(n_subcarriers=16, oversampling_factor=2)
# 16384-sample symbols: a 1 MiB batch holds 4 of them
WIDE = OfdmConfig(n_subcarriers=256, oversampling_factor=64)


@given(n=st.integers(9, 40), seed=st.integers(0, 2**16),
       threads=st.sampled_from((1, 2, 3, 8)),
       mus=st.lists(st.sampled_from((0.0, 0.01, 1.25, 255.0)), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_papr_samples_many_matches_single_calls(n, seed, threads, mus):
    # batches of 4 symbols, at least 3 of them, drawn in order on the
    # calling thread and measured in a pool, with more workers than cores
    # and rapid thread switching, give the rows of one-mu serial calls and
    # of all n symbols drawn and measured at once bit for bit; a batch
    # written to the wrong columns or lost would change them
    assert (1 << 20) // (16 * WIDE.n_samples) == 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = papr_samples(WIDE, n, seed, mus, threads=threads)
    finally:
        sys.setswitchinterval(interval)
    assert many.shape == (len(mus), n)
    bits = np.random.default_rng(seed).integers(0, 2, size=(n, 2 * WIDE.n_subcarriers))
    m = np.abs(synthesize_waveforms(map_bits(bits), WIDE))
    for row, mu in zip(many, mus):
        np.testing.assert_array_equal(row, papr_samples(WIDE, n, seed, (mu,))[0])
        # the raw row; a companded row on the mu-law map without its
        # PEAK / log1p(mu) factor, its peak the maximum over the mapped row
        np.testing.assert_array_equal(row, _papr_rows(m if mu == 0 else np.log1p(m * (mu / PEAK))))


@given(m=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=64),
       mu=st.floats(1e-3, 1e3))
def test_mu_law_map_keeps_the_peak(m, mu):
    # the map of the peak magnitude is the peak of the mapped magnitudes,
    # bit for bit, so the sampler maps one peak per symbol instead of
    # taking a maximum over the mapped row
    m, c = np.array([m, m[::-1]]), mu / PEAK
    np.testing.assert_array_equal(np.log1p(m.max(axis=-1) * c), np.log1p(m * c).max(axis=-1))


@given(seed=st.integers(0, 2**16), n=st.integers(1, 24),
       l=st.sampled_from((1, 2, 4)), cp=st.sampled_from((0, 3)),
       mus=st.lists(st.floats(0.01, 255.0), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_envelope_papr_matches_waveform_definition(seed, n, l, cp, mus):
    # the PAPR is measured on the scale-free envelope map; the definition
    # compresses the complex waveform and takes its magnitude, which differs
    # only by the rounding of the map's factor and of the complex multiply
    cfg = OfdmConfig(n_subcarriers=16, oversampling_factor=l, cp_length=cp)
    many = papr_samples(cfg, n, seed, (0.0, *mus))
    bits = np.random.default_rng(seed).integers(0, 2, size=(n, 2 * cfg.n_subcarriers))
    x = synthesize_waveforms(map_bits(bits), cfg)
    # the raw row is the complex-abs form bit for bit
    p = np.abs(x) ** 2
    np.testing.assert_array_equal(many[0], 10.0 * np.log10(p.max(axis=-1) / p.mean(axis=-1)))
    for row, mu in zip(many[1:], mus):
        np.testing.assert_allclose(row, _papr_rows(np.abs(compress_waveform(x, mu))),
                                   rtol=0, atol=1e-12)


def test_papr_samples_many_validation():
    with pytest.raises(ValueError, match="n_trials"):
        papr_samples(SMALL, 0, 0, (0.0,))
    for threads in (0, -1):
        with pytest.raises(ValueError, match="threads"):
            papr_samples(SMALL, 10, 0, (0.0,), threads=threads)
    for mu in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="mu"):
            papr_samples(SMALL, 10, 0, (1.25, mu))


def test_run_bounded_one_thread_runs_on_the_calling_thread(monkeypatch):
    # at one thread every job runs on the caller, in order, and no pool is
    # started; with more, the jobs run on the pool's workers
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started at one thread")

    ran = []
    work = lambda i: ran.append((i, threading.get_ident()))
    with monkeypatch.context() as mp:
        mp.setattr(ofdm, "ThreadPoolExecutor", no_pool)
        run_bounded(work, ((i,) for i in range(5)), 1)
        papr_samples(WIDE, 10, 0, (0.0,), threads=1)
    assert ran == [(i, threading.get_ident()) for i in range(5)]
    ran.clear()
    run_bounded(work, ((i,) for i in range(5)), 2)
    assert sorted(i for i, _ in ran) == list(range(5))
    assert threading.get_ident() not in {t for _, t in ran}


def test_papr_quantiles_frozen():
    s = papr_samples(CFG, 20000, 0, (0.0,))[0]
    assert papr_quantile_db(s, 1e-3) == pytest.approx(11.410840240811794, abs=1e-9)
    assert papr_quantile_db(s, 1e-4) == pytest.approx(11.892132542189115, abs=1e-9)
    assert float(ccdf_from_samples(s, np.array([9.0]))[0]) == pytest.approx(
        0.3752, abs=1e-12
    )


def test_ccdf_nonincreasing_and_bounded():
    ccdf = ccdf_from_samples(papr_samples(CFG, 2000, 7, (0.0,))[0], np.arange(-1.0, 14.01, 0.05))
    assert np.all(np.diff(ccdf) <= 0)
    assert ccdf[0] <= 1.0 and ccdf[-1] >= 0.0


def test_papr_quantile_validates_exceedance():
    s = papr_samples(CFG, 100, 0, (0.0,))[0]
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            papr_quantile_db(s, bad)


@given(
    log2_n=st.integers(1, 6),
    l=st.integers(1, 4),
    n_symbols=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_random_frames_matches_sequential_draws(log2_n, l, n_symbols, seed):
    # one draw for the whole block equals n_symbols single-grid draws, and
    # the generator ends in the same state
    cfg = OfdmConfig(n_subcarriers=2 ** log2_n, oversampling_factor=l)
    block, alone = np.random.default_rng(seed), np.random.default_rng(seed)
    grids, x = random_frames(cfg, n_symbols, block)
    expected = np.stack([map_bits(alone.integers(0, 2, size=2 * cfg.n_subcarriers))
                         for _ in range(n_symbols)])
    np.testing.assert_array_equal(grids, expected)
    assert block.bit_generator.state == alone.bit_generator.state
    # the waveform scaled to unit mean power
    wave = synthesize_waveforms(expected, cfg).ravel()
    np.testing.assert_array_equal(x, wave / np.sqrt(np.mean(np.abs(wave) ** 2)))
    assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        OfdmConfig(n_subcarriers=500)  # not a power of two
    with pytest.raises(ValueError):
        OfdmConfig(oversampling_factor=0)
    with pytest.raises(ValueError):
        OfdmConfig(cp_length=512 * 4)
    assert OfdmConfig(n_subcarriers=64, oversampling_factor=2).n_samples == 128
