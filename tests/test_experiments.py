import sys
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiptsim import experiments
from swiptsim.channel import CHANNEL_KINDS, ChannelSpec
from swiptsim.companding import compress_waveform
from swiptsim.dpd import design_from_scratch
from swiptsim.experiments import (
    TABLE_TECHNIQUES,
    TECHNIQUES,
    ConfigError,
    Scenario,
    _batch_ci,
    channel_ofdm,
    noise_for_ebn0,
    run_techniques,
    technique_reductions,
    write_csv,
)
from swiptsim.link import LinkMetrics, SplitConfig
from swiptsim.ofdm import OfdmConfig, map_bits, run_bounded, synthesize_waveforms
from swiptsim.pa import PaModel, amplify

# a pass's channels or splitters: AWGN, the default splitter, flat Rayleigh
AWGN = (ChannelSpec(),)
SPLIT = (SplitConfig(),)
RAYLEIGH = ChannelSpec(kind="rayleigh_flat")


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(trials=0)
    with pytest.raises(ValueError):
        Scenario(frame_symbols=0)
    with pytest.raises(ValueError, match="ibo_db must be a finite"):
        Scenario(ibo_db=np.inf)
    # a negative back-off is rejected where it is set, not later as a
    # reduction that runs past it (or, with a polynomial PA, not at all)
    for pa in (PaModel.sspa(smoothness=1.2), PaModel.polynomial((0.0, 1.0))):
        with pytest.raises(ValueError, match="ibo_db must be non-negative, got -1"):
            Scenario(pa=pa, ibo_db=-1)
    assert Scenario(ibo_db=0.0).ibo_db == 0.0
    # the pass works in units of the nominal transmit power: there is no
    # absolute one
    with pytest.raises(TypeError, match="p_rf_tx_dbm"):
        Scenario(p_rf_tx_dbm=27.0)
    # each technique's back-off reduction comes from its own design: there
    # is no override of it
    with pytest.raises(TypeError, match="ibo_reduction_db"):
        Scenario(ibo_reduction_db=1.0)
    # the channels and splitters are the pass's arguments, not the link's
    for name, value in (("channel", ChannelSpec()), ("split", SplitConfig())):
        with pytest.raises(TypeError, match=name):
            Scenario(**{name: value})
    assert Scenario().eh is not None  # default rectenna filled in


def test_noise_for_ebn0():
    cfg = OfdmConfig()
    assert noise_for_ebn0(0.0, cfg) == pytest.approx(2.0)  # L=4
    assert noise_for_ebn0(10.0, cfg) == pytest.approx(0.2)
    nyquist = OfdmConfig(oversampling_factor=1)
    assert noise_for_ebn0(0.0, nyquist) == pytest.approx(0.5)


def test_channel_ofdm_lengthens_the_prefix_for_multitap_only():
    cfg = OfdmConfig(n_subcarriers=16, oversampling_factor=2)
    assert channel_ofdm(cfg, ChannelSpec(kind="rayleigh_flat")) == cfg
    assert channel_ofdm(cfg, ChannelSpec(kind="rayleigh_multitap")).cp_length == 4
    long_cp = replace(cfg, cp_length=8)
    assert channel_ofdm(long_cp, ChannelSpec(kind="rayleigh_multitap")) == long_cp
    with pytest.raises(ValueError, match="'rayleigh_multitap' needs a cyclic prefix of 4"):
        channel_ofdm(OfdmConfig(n_subcarriers=2, oversampling_factor=1),
                     ChannelSpec(kind="rayleigh_multitap"))


def test_technique_reductions(design_calls):
    s = Scenario(mu=1.25)
    ref = design_from_scratch(s.pa, s.ofdm, baseline_ibo_db=8.0)[0]
    linear, baseline, dpd, companding, dpd_companding = technique_reductions(s, TECHNIQUES)
    # one design serves both DPD techniques
    assert len(design_calls) == 1
    assert linear == baseline == (0.0, 0.0, None)

    r_dpd, r_comp, fit = dpd
    assert r_dpd == pytest.approx(ref.ibo_reduction_db, abs=1e-9)
    assert r_dpd == pytest.approx(2.477963727712632, abs=1e-6)
    assert r_comp == 0.0
    # the chain applies the design's inverse fit
    assert fit == ref.inverse_fit

    r_dpd, r_comp, fit = companding
    assert r_dpd == 0.0
    assert r_comp == pytest.approx(1.6322012537441974, abs=1e-9)
    assert fit is None

    assert dpd_companding == (dpd[0], companding[1], ref.inverse_fit)

    # a pass without DPD designs nothing
    assert technique_reductions(s, ("companding", "baseline")) == [companding, baseline]
    assert len(design_calls) == 1

    with pytest.raises(ValueError, match="technique must be one of"):
        technique_reductions(s, ("baseline", "beamforming"))


def test_degenerate_design_has_no_predistorter():
    # a linear amplifier leaves nothing to predistort: the design is
    # degenerate, so the chain runs without a fit and claims no reduction
    linear_pa = PaModel.polynomial((0.0, 1.0))
    s = Scenario(pa=linear_pa, ofdm=OfdmConfig(n_subcarriers=64, oversampling_factor=2))
    assert design_from_scratch(linear_pa, s.ofdm, baseline_ibo_db=s.ibo_db)[0].degenerate
    assert technique_reductions(s, ("dpd",)) == [(0.0, 0.0, None)]


def test_non_saturating_pa_has_no_reduction():
    s = Scenario(pa=PaModel.polynomial((0.0, 1.0)))
    assert technique_reductions(s, ("companding",)) == [(0.0, 0.0, None)]


def test_run_techniques_checks_its_inputs_before_any_draw(monkeypatch):
    # a prefix that does not fit and a reduction past ibo_db are config
    # errors found before the first random draw; the channel's comes first
    def no_draw(*args):
        raise AssertionError("run_techniques drew before checking its inputs")

    monkeypatch.setattr(experiments, "_stream", no_draw)
    tiny = OfdmConfig(n_subcarriers=2, oversampling_factor=1)
    multitap = [ChannelSpec(kind="rayleigh_multitap")]
    with pytest.raises(ConfigError, match="'rayleigh_multitap' needs a cyclic prefix of 4"):
        run_techniques(Scenario(ofdm=tiny), ("baseline",), multitap, SPLIT)
    with pytest.raises(ConfigError, match="runs past ibo_db = 1 dB"):
        run_techniques(Scenario(ofdm=tiny, ibo_db=1.0), ("baseline", "companding"), AWGN, SPLIT)
    with pytest.raises(ConfigError, match="needs a cyclic prefix"):
        run_techniques(Scenario(ofdm=tiny, ibo_db=1.0), ("companding",), multitap, SPLIT)


def test_linear_technique_radiates_the_frames(monkeypatch):
    # the ideal amplifier passes the synthesized frames through untouched:
    # no amplify call, and the channel sees exactly the frames of the bits
    s = Scenario(ofdm=OfdmConfig(n_subcarriers=64, oversampling_factor=2), trials=2,
                 frame_symbols=2)
    seen = []
    real_apply = experiments.apply_channel

    def recording(x, *args):
        seen.append(x.copy())
        return real_apply(x, *args)

    def no_amplifier(*args):
        raise AssertionError("the linear technique reached the amplifier")

    monkeypatch.setattr(experiments, "apply_channel", recording)
    monkeypatch.setattr(experiments, "amplify", no_amplifier)
    run_techniques(s, ("linear",), AWGN, SPLIT)
    bits = experiments._stream(s.seed, 0).integers(
        0, 2, size=(s.trials, 2 * 64 * s.frame_symbols), dtype=np.int8)
    frames = synthesize_waveforms(map_bits(bits).reshape(-1, s.frame_symbols, 64), s.ofdm)
    np.testing.assert_array_equal(seen[0], frames.reshape(s.trials, -1))


def test_companded_drive_radiates_hotter():
    # the compressed frames drive the amplifier at their natural level, so
    # at the nominal back-off the companded chain radiates more power
    s = Scenario()
    cfg = OfdmConfig(n_subcarriers=64, oversampling_factor=2)
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, size=2 * 64 * 4)
    x = synthesize_waveforms(map_bits(bits).reshape(4, 64), cfg)
    drive = compress_waveform(x, 1.25)
    p_base = np.mean(np.abs(amplify(x, s.pa, s.ibo_db)) ** 2)
    p_comp = np.mean(np.abs(amplify(drive, s.pa, s.ibo_db)) ** 2)
    assert p_comp > 1.2 * p_base


def test_run_scenario_deterministic():
    s = Scenario(trials=5, seed=42)
    (((a,),),) = run_techniques(s, ("companding",), [RAYLEIGH], SPLIT)
    (((b,),),) = run_techniques(s, ("companding",), [RAYLEIGH], SPLIT)
    assert a == b


def test_run_scenario_rho_zero_harvests_nothing():
    s = Scenario(trials=2)
    (((m,),),) = run_techniques(s, ("baseline",), AWGN,
                                [SplitConfig(rho=0.0, sigma_a2=1e-3, sigma_p2=0.0)])
    assert m.eta3 == 0.0
    assert m.eta_e2e == 0.0


def test_identity_chain_has_textbook_efficiencies():
    # a perfectly linear amplifier and a constant-efficiency harvester make
    # every technique equivalent: eta1 stays at the class-A ceiling and
    # eta3 at the configured constant
    base = Scenario(pa=PaModel.polynomial((0.0, 1.0)), eh=0.5)
    for m in run_techniques(replace(base, seed=2, trials=5), TABLE_TECHNIQUES, AWGN,
                            SPLIT)[0][0]:
        assert m.eta1 == 0.5
        assert m.eta3 == 0.5
        assert m.eta_e2e == 0.25
        assert m.ibo_reduction_db == 0.0


def test_table_pipeline_order_and_shape():
    base = Scenario(pa=PaModel.polynomial((0.0, 1.0)), eh=0.5)
    ((results,),) = run_techniques(replace(base, seed=0, trials=2), TABLE_TECHNIQUES, AWGN,
                                   [SplitConfig(rho=0.5)])
    assert TABLE_TECHNIQUES == ("baseline", "dpd", "companding", "dpd_companding")
    assert len(results) == len(TABLE_TECHNIQUES)


def test_sweep_validation():
    s = Scenario(trials=1)
    for channels, splits in (((), SPLIT), (AWGN, ()), ((), ())):
        with pytest.raises(ValueError, match="at least one channel and one splitter"):
            run_techniques(s, ("baseline",), channels, splits)
    with pytest.raises(ValueError, match="threads"):
        run_techniques(s, ("baseline",), AWGN, SPLIT, threads=0)


def _rho_sweep(base, rhos, threads=1):
    # the baseline along rho: one splitter per point through Rayleigh fading
    splits = [SplitConfig(rho=rho) for rho in rhos]
    (points,) = run_techniques(base, ("baseline",), [RAYLEIGH], splits, threads)
    return [res[0] for res in points]


def test_sweep_rows_follow_axis_order():
    base = Scenario(trials=2, seed=9)
    rows = _rho_sweep(base, (0.2, 0.5, 0.8))
    assert len(rows) == 3
    # the measured rate falls as the information branch's share does
    rates = [r.rate_bps_hz for r in rows]
    assert rates[0] > rates[1] > rates[2]
    # the pin to 0 dBm removes rho from the rectifier's input
    assert rows[0].eta3 == rows[1].eta3 == rows[2].eta3 > 0.0


def test_sweep_threads_match_serial():
    base = Scenario(trials=3, seed=9)
    serial = _rho_sweep(base, (0.2, 0.5, 0.8), threads=1)
    pooled = _rho_sweep(base, (0.2, 0.5, 0.8), threads=3)
    assert serial == pooled


def test_sweep_csv_byte_identical(tmp_path):
    # every LinkMetrics field of a rho sweep, through write_csv
    base = Scenario(trials=3, seed=9)
    rhos = (0.2, 0.5, 0.8)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (p1, p2):
        rows = [(rho, *astuple(m)) for rho, m in zip(rhos, _rho_sweep(base, rhos))]
        write_csv(path, ("rho", *LinkMetrics.__dataclass_fields__), rows,
                  "0123456789ab", base.seed)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()
    assert header[0] == "# config_hash=0123456789ab seed=9"
    assert header[1].split(",")[0] == "rho"
    assert len(header) == 2 + 3


def test_ci_shrinks_with_trials():
    # quadrupling the trials should halve the batch-means interval, give
    # or take estimator noise; geometric mean over three seeds
    ratios = []
    for seed in (11, 12, 13):
        base = Scenario(seed=seed)
        small, big = (run_techniques(replace(base, trials=n), ("baseline",), [RAYLEIGH],
                                     SPLIT)[0][0][0].eta3_ci for n in (40, 160))
        ratios.append(small / big)
    geomean = float(np.exp(np.mean(np.log(ratios))))
    assert geomean == pytest.approx(1.7997888575199306, rel=1e-9)
    assert 1.5 < geomean < 2.8


def test_write_csv_provenance(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("x", "y"), [(1, 2.5), (3, 4.0)], "abc123", 7,
              comments=("unit test",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=abc123 seed=7"
    assert lines[1] == "# unit test"
    assert lines[2] == "x,y"
    assert lines[3] == "1,2.5"


def _assert_same_metrics(a, b):
    """LinkMetrics equal field by field, NaN confidence intervals included."""
    np.testing.assert_array_equal(astuple(a), astuple(b))


TINY = OfdmConfig(n_subcarriers=16, oversampling_factor=2)
# any non-empty ordered subset of the techniques
technique_subsets = st.permutations(TECHNIQUES).flatmap(
    lambda order: st.integers(1, len(order)).map(lambda n: tuple(order[:n])))


def _tiny_scenario(kind, trials, seed):
    cp = 4 if kind == "rayleigh_multitap" else 0
    return Scenario(ofdm=replace(TINY, cp_length=cp), trials=trials, seed=seed,
                    frame_symbols=2)


def _tiny_split(rho_zero, sigma_p2):
    return SplitConfig(rho=0.0 if rho_zero else SplitConfig().rho, sigma_p2=sigma_p2)


def _one_receiver(s, techniques, kind, split, threads=1):
    """Each technique's metrics through one channel into one splitter."""
    (((*res,),),) = run_techniques(s, techniques, [ChannelSpec(kind=kind)], [split], threads)
    return res


@given(techniques=technique_subsets, kind=st.sampled_from(CHANNEL_KINDS),
       rho_zero=st.booleans(), sigma_p2=st.sampled_from((0.0, 1e-3)),
       trials=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_run_techniques_matches_single_runs(techniques, kind, rho_zero, sigma_p2,
                                            trials, seed):
    # one shared pass gives every technique exactly its own run's result
    s, split = _tiny_scenario(kind, trials, seed), _tiny_split(rho_zero, sigma_p2)
    shared = _one_receiver(s, techniques, kind, split)
    assert len(shared) == len(techniques)
    for tech, m in zip(techniques, shared):
        _assert_same_metrics(m, _one_receiver(s, (tech,), kind, split)[0])


@given(techniques=technique_subsets, kind=st.sampled_from(CHANNEL_KINDS),
       rho_zero=st.booleans(), sigma_p2=st.sampled_from((0.0, 1e-3)),
       trials=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_run_techniques_blocks_and_threads_bit_identical(techniques, kind, rho_zero,
                                                         sigma_p2, trials, seed):
    # neither the trials per block nor the worker count touches a result
    s, split = _tiny_scenario(kind, trials, seed), _tiny_split(rho_zero, sigma_p2)
    frame_bytes = 16 * s.frame_symbols * (s.ofdm.n_samples + s.ofdm.cp_length)
    reference = _one_receiver(s, techniques, kind, split)
    for per_block in (1, 2, 3, 4, trials):
        for threads in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(experiments, "_BLOCK_BYTES", per_block * frame_bytes)
                blocked = _one_receiver(s, techniques, kind, split, threads)
            for a, b in zip(blocked, reference):
                _assert_same_metrics(a, b)


def test_run_techniques_pool_stress(monkeypatch):
    # more workers than cores, one trial per block and a short switch
    # interval: every block's slice of the shared result arrays arrives
    s = _tiny_scenario("rayleigh_multitap", 24, 11)
    channels = [ChannelSpec(kind=kind) for kind in CHANNEL_KINDS]
    splits = [_tiny_split(False, 1e-3)]
    reference = run_techniques(s, TECHNIQUES, channels, splits)
    monkeypatch.setattr(experiments, "_BLOCK_BYTES", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stressed = run_techniques(s, TECHNIQUES, channels, splits, threads=8)
    finally:
        sys.setswitchinterval(interval)
    for (res_a,), (res_b,) in zip(stressed, reference):
        for a, b in zip(res_a, res_b):
            _assert_same_metrics(a, b)


def test_a_small_pass_starts_no_more_workers_than_blocks(monkeypatch):
    # a block holds 4 trials at N=512, L=4 and 4 symbols whatever the
    # thread count: 4 trials make one block, run without a pool on 2
    # threads, while 50 trials keep their 13 blocks on both workers
    jobs = []

    def recording(work, blocks, threads):
        blocks = [rows for (rows,) in blocks]
        jobs.append(([rows.stop - rows.start for rows in blocks], threads))
        run_bounded(work, ((rows,) for rows in blocks), threads)

    monkeypatch.setattr(experiments, "run_bounded", recording)
    split = [SplitConfig(rho=0.0, sigma_a2=1e-3, sigma_p2=0.0)]
    for trials, threads, sizes, workers in ((4, 1, [4], 1), (4, 2, [4], 1),
                                            (50, 2, [4] * 12 + [2], 2)):
        jobs.clear()
        run_techniques(Scenario(trials=trials), ("baseline",), AWGN, split, threads)
        # the transmit pass, then the receive pass
        assert jobs == [(sizes, workers), (sizes, workers)]


def test_run_techniques_reference_without_baseline():
    # the power reference of every technique but linear is the baseline
    # amplifier output: the baseline's own waveform when it shares the
    # pass, computed apart when it does not, bit-identical either way
    s, split = _tiny_scenario("rayleigh_flat", 3, 5), _tiny_split(False, 1e-3)

    def run(techniques):
        return _one_receiver(s, techniques, "rayleigh_flat", split)

    for tech in [t for t in TECHNIQUES if t != "baseline"]:
        (alone,) = run((tech,))
        _assert_same_metrics(run((tech, "baseline"))[0], alone)
        _assert_same_metrics(run(("baseline", tech))[1], alone)
    # linear's reference is its own frames, with or without another's
    for m, tech in zip(run(("linear", "dpd")), ("linear", "dpd")):
        _assert_same_metrics(m, run((tech,))[0])


def test_run_techniques_validation():
    s = Scenario(trials=1)
    with pytest.raises(ValueError, match="at least one"):
        run_techniques(s, (), AWGN, SPLIT)
    with pytest.raises(ValueError, match="repeat"):
        run_techniques(s, ("baseline", "baseline"), AWGN, SPLIT)
    with pytest.raises(ValueError, match="technique"):
        run_techniques(s, ("beamforming",), AWGN, SPLIT)
    with pytest.raises(ValueError, match="threads"):
        run_techniques(s, ("baseline",), AWGN, SPLIT, threads=0)
    with pytest.raises(ValueError, match="at least one channel and one splitter"):
        run_techniques(s, ("baseline",), (), SPLIT)


@given(techniques=technique_subsets,
       kinds=st.lists(st.sampled_from(CHANNEL_KINDS), min_size=1, max_size=3),
       splits=st.lists(
           st.tuples(st.sampled_from((0.0, 0.3, 0.9)), st.sampled_from((0.0, 4.0, 12.0)),
                     st.sampled_from((0.0, 1e-3))),
           min_size=1, max_size=3),
       per_block=st.integers(1, 4), threads=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_receivers_match_single_receiver_runs(techniques, kinds, splits, per_block, threads,
                                              seed):
    # every channel and splitter of a pass gets exactly what a pass of its
    # own gives it, whatever else shares the draws, the block size and the
    # worker count
    s = _tiny_scenario("awgn", 3, seed)
    splits = [SplitConfig(rho=rho, sigma_a2=noise_for_ebn0(ebn0, s.ofdm), sigma_p2=sp2)
              for rho, ebn0, sp2 in splits]
    frame_bytes = 16 * s.frame_symbols * s.ofdm.n_samples
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_BLOCK_BYTES", per_block * frame_bytes)
        shared = run_techniques(s, techniques, [ChannelSpec(kind=k) for k in kinds], splits,
                                threads)
    assert len(shared) == len(kinds)
    for kind, points in zip(kinds, shared):
        assert len(points) == len(splits)
        for split, res in zip(splits, points):
            assert len(res) == len(techniques)
            for tech, m in zip(techniques, res):
                _assert_same_metrics(m, _one_receiver(s, (tech,), kind, split)[0])


def test_noise_is_keyed_by_the_trial_alone():
    # common random numbers: every channel reads the first samples of its
    # trial's own noise, so a channel's rows do not depend on a channel with
    # a longer cyclic prefix sharing the pass, and the antenna noise of a
    # receiver does not depend on whether another one adds processing noise
    s = _tiny_scenario("awgn", 3, 21)
    split = _tiny_split(False, 1e-3)
    multitap = ChannelSpec(kind="rayleigh_multitap")
    assert channel_ofdm(s.ofdm, multitap).cp_length > s.ofdm.cp_length
    ((alone,),) = run_techniques(s, TECHNIQUES, AWGN, [split])
    (together,), _ = run_techniques(s, TECHNIQUES, [ChannelSpec(), multitap], [split])
    for a, b in zip(alone, together):
        _assert_same_metrics(a, b)
    first = SplitConfig(rho=0.5, sigma_a2=1e-2, sigma_p2=0.0)
    passes = [run_techniques(s, TECHNIQUES, AWGN, [first, SplitConfig(sigma_p2=sp2)])[0]
              for sp2 in (1e-3, 0.0)]
    for a, b in zip(passes[0][0], passes[1][0]):
        _assert_same_metrics(a, b)
    assert [m.ber for m in passes[0][1]] != [m.ber for m in passes[1][1]]


def test_table_pipeline_matches_per_technique_runs():
    # the table is the four single-technique runs it always was
    s, split = Scenario(ofdm=TINY, trials=3, seed=3), SplitConfig(rho=0.5)
    table = _one_receiver(s, TABLE_TECHNIQUES, "rice_flat", split)
    for tech, m in zip(TABLE_TECHNIQUES, table):
        _assert_same_metrics(m, _one_receiver(s, (tech,), "rice_flat", split)[0])
    # the eta3 values of the common-random-number stream layout (the two
    # DPD values as of the design searched to 1e-4 dB)
    assert [m.eta3 for m in table] == [
        0.439351760961454, 0.4357403586239842, 0.4446041341010528, 0.4455915682116044]


def test_t_table_matches_scipy_stdtrit():
    from scipy.special import stdtrit

    assert len(experiments._T975) == experiments.N_CI_BATCHES - 1
    for d, q in enumerate(experiments._T975, start=1):
        assert q == float(stdtrit(d, 0.975)), d


def test_batch_ci_matches_student_t_quantile():
    # scipy.special.stdtrit stands in for scipy.stats.t.ppf, which costs a
    # slow import; the half-widths are bit-identical for every batch count
    from scipy import stats

    rng = np.random.default_rng(0)
    for n in range(2, 41):
        samples = rng.random(n)
        b = min(20, n)
        means = np.array([c.mean() for c in np.array_split(samples, b)])
        expected = float(stats.t.ppf(0.975, b - 1) * means.std(ddof=1) / np.sqrt(b))
        assert _batch_ci(samples) == expected
    assert np.isnan(_batch_ci(np.ones(1)))
