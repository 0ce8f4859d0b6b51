"""End-to-end acceptance checks for the shipped feature set.

Each test covers one headline number or qualitative claim of the
simulator and prints a single PASS/FAIL line, so running this file with
``pytest -s tests/test_acceptance.py`` reads as a checklist.  Tolerances
are stated next to each assertion; everything is seeded and deterministic.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from scipy import stats

from swiptsim.channel import ChannelSpec, sample_channel
from swiptsim.companding import (
    PEAK,
    companding_ibo_reduction_db,
    compress_waveform,
    expand_waveform,
    optimize_mu,
)
from swiptsim.dpd import design_from_scratch
from swiptsim.experiments import (
    TABLE_TECHNIQUES,
    Scenario,
    noise_for_ebn0,
    run_techniques,
    write_csv,
)
from swiptsim.link import SplitConfig
from swiptsim.ofdm import (
    OfdmConfig,
    map_bits,
    papr_quantile_db,
    papr_samples_many,
    synthesize_waveforms,
)
from swiptsim.pa import (
    PaModel,
    amplify,
    bussgang_estimate,
    class_a_efficiency,
    efficiency_at_backoff,
)

IBO_NOMINAL_DB = 8.0


def _report(n: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {n} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")


@lru_cache(maxsize=1)
def _dpd_design():
    return design_from_scratch(PaModel.sspa(smoothness=1.2), OfdmConfig(),
                               baseline_ibo_db=IBO_NOMINAL_DB)[0]


@lru_cache(maxsize=1)
def _mu_star() -> float:
    return optimize_mu(OfdmConfig().n_subcarriers, IBO_NOMINAL_DB, SplitConfig().sigma_a2).mu_star


def _gain_pts(reduction_db: float) -> float:
    return 100.0 * (efficiency_at_backoff(IBO_NOMINAL_DB - reduction_db)
                    - efficiency_at_backoff(IBO_NOMINAL_DB))


def test_criterion_1_class_a_efficiency():
    at_zero = class_a_efficiency(0.0)
    at_twelve = class_a_efficiency(12.0)
    ok = at_zero == 0.5 and abs(at_twelve - 0.0315) < 5e-4
    _report(1, "class-A efficiency", ok,
            f"eta1(0 dB)={at_zero:.4f}, eta1(12 dB)={at_twelve:.4f}")
    assert at_zero == 0.5
    assert at_twelve == pytest.approx(0.0315, abs=5e-4)


def test_criterion_2_papr_ccdf_quantile():
    cfg = OfdmConfig(n_subcarriers=1024)
    # the batches of one seed-0 draw on two threads, bit-identical to one
    # thread: 12.449 dB
    samples = papr_samples_many(cfg, 100_000, 0, (None,), threads=2)[0]
    q = papr_quantile_db(samples, 1e-4)
    ok = abs(q - 12.0) < 0.5
    _report(2, "PAPR at 1e-4 exceedance, N=1024", ok, f"{q:.3f} dB vs 12 +- 0.5 dB")
    assert q == pytest.approx(12.0, abs=0.5)


def test_criterion_3_dpd_design_point():
    design = _dpd_design()
    r = design.ibo_reduction_db
    gain = _gain_pts(r)
    ok = abs(r - 2.7) < 0.3 and abs(gain - 6.8) < 1.0
    _report(3, "DPD back-off reduction", ok,
            f"reduction={r:.3f} dB vs 2.7 +- 0.3, gain={gain:.2f} pts vs 6.8 +- 1")
    assert r == pytest.approx(2.7, abs=0.3)
    assert gain == pytest.approx(6.8, abs=1.0)


def test_criterion_4_companding_design_point():
    mu = _mu_star()
    r = companding_ibo_reduction_db(mu)
    gain = _gain_pts(r)
    ok = abs(mu - 1.25) < 0.15 and abs(r - 1.4) < 0.3 and abs(gain - 3.4) < 1.0
    _report(4, "companding design point", ok,
            f"mu*={mu:.4f} vs 1.25 +- 0.15, reduction={r:.3f} dB vs 1.4 +- 0.3, "
            f"gain={gain:.2f} pts vs 3.4 +- 1")
    assert mu == pytest.approx(1.25, abs=0.15)
    assert r == pytest.approx(1.4, abs=0.3)
    assert gain == pytest.approx(3.4, abs=1.0)


def test_criterion_5_combined_technique():
    r_total = _dpd_design().ibo_reduction_db + companding_ibo_reduction_db(1.25)
    gain = _gain_pts(r_total)
    ok = abs(r_total - 4.0) < 0.4 and abs(gain - 11.9) < 1.5
    _report(5, "DPD + companding combined", ok,
            f"reduction={r_total:.3f} dB vs 4.0 +- 0.4, gain={gain:.2f} pts vs 11.9 +- 1.5")
    assert r_total == pytest.approx(4.0, abs=0.4)
    assert gain == pytest.approx(11.9, abs=1.5)


def test_criterion_6_efficiency_table():
    ((results,),) = run_techniques(Scenario(seed=1, trials=50), TABLE_TECHNIQUES,
                                   [ChannelSpec()], [SplitConfig()])
    rows = dict(zip(TABLE_TECHNIQUES, results))
    order = ("baseline", "dpd", "companding", "dpd_companding")
    eta1 = [100.0 * rows[t].eta1 for t in order]
    eta3 = [100.0 * rows[t].eta3 for t in order]
    e2e = [100.0 * rows[t].eta_e2e for t in order]
    targets1 = (19.9, 26.7, 23.3, 31.8)

    ok1 = all(abs(m - t) < 1.5 for m, t in zip(eta1, targets1))
    ok3 = (abs(eta3[0] - 43.4) < 0.5
           and eta3[2] > eta3[0] and eta3[3] > eta3[1])
    ok_e2e = e2e[3] > e2e[1] > e2e[2] > e2e[0]
    ok = ok1 and ok3 and ok_e2e
    _report(6, "four-technique efficiency table", ok,
            "eta1=" + "/".join(f"{v:.2f}" for v in eta1)
            + " vs " + "/".join(f"{t:g}" for t in targets1)
            + " +- 1.5; eta3=" + "/".join(f"{v:.2f}" for v in eta3)
            + "; eta1*eta3=" + "/".join(f"{v:.2f}" for v in e2e))
    for m, t in zip(eta1, targets1):
        assert m == pytest.approx(t, abs=1.5)
    assert eta3[0] == pytest.approx(43.4, abs=0.5)
    assert eta3[2] > eta3[0]          # companding boosts the rectifier
    assert eta3[3] > eta3[1]
    assert e2e[3] > e2e[1] > e2e[2] > e2e[0]


def test_criterion_7_qpsk_awgn_ber_oracle():
    s = Scenario(trials=245, seed=7)
    points = (0.0, 4.0, 8.0)
    (res,) = run_techniques(s, ("linear",), [ChannelSpec(kind="awgn")],
                            _ebn0_splits(s, points, rho=0.0, sigma_p2=0.0))
    n_bits = 2 * s.ofdm.n_subcarriers * s.frame_symbols * s.trials
    assert n_bits >= 1_000_000
    devs = []
    for (point,), ebn0 in zip(res, points):
        p_theory = stats.norm.sf(np.sqrt(2.0 * 10.0 ** (ebn0 / 10.0)))
        sigma = np.sqrt(p_theory * (1.0 - p_theory) / n_bits)
        devs.append(abs(point.ber - p_theory) / sigma)
    ok = all(d < 3.0 for d in devs)
    _report(7, "uncoded QPSK vs closed form", ok,
            f"{n_bits} bits/point, deviations "
            + "/".join(f"{d:.2f}" for d in devs) + " sigma (< 3)")
    assert all(d < 3.0 for d in devs)


def test_criterion_8_property_suite_spot_checks():
    rng = np.random.default_rng(0)
    checks = {}

    mags = rng.random(4096) * PEAK
    x = mags * np.exp(2j * np.pi * rng.random(4096))
    checks["mu-law roundtrip"] = float(
        np.max(np.abs(expand_waveform(compress_waveform(x, 87.6), 87.6) - x))
    ) <= 1e-10

    cfg = OfdmConfig(n_subcarriers=256, oversampling_factor=2)
    grid = map_bits(rng.integers(0, 2, size=2 * 256))
    wave = synthesize_waveforms(grid, cfg)
    e_time = np.sum(np.abs(wave) ** 2) / cfg.oversampling_factor
    checks["Parseval"] = abs(e_time - np.sum(np.abs(grid) ** 2)) <= 1e-10

    n = 2 ** 16
    gauss = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    out = amplify(gauss, PaModel.soft_limiter_model(), 6.0)
    bp = bussgang_estimate(gauss, out)
    resid = out - bp.k_l * gauss
    ortho = abs(np.mean(resid * np.conj(gauss))) / np.mean(np.abs(gauss) ** 2)
    checks["Bussgang orthogonality"] = ortho <= 1e-8

    gains = [abs(sample_channel(ChannelSpec(kind="rayleigh_flat"), rng)[0]) ** 2
             for _ in range(100_000)]
    checks["channel normalization"] = abs(np.mean(gains) - 1.0) <= 0.01

    # the measured rate-energy path, one pass over a rho grid: through AWGN
    # a linear harvester of efficiency 1 reads each technique's EH input
    # rho (P_rx + sigma_a2), P_rx at rho = 1 without antenna noise
    small = Scenario(ofdm=OfdmConfig(n_subcarriers=64, oversampling_factor=2), trials=3, seed=8)
    techniques = ("linear", "baseline", "companding")
    (((*p_rx,),),) = run_techniques(
        dataclasses.replace(small, eh=1.0), techniques, [ChannelSpec()],
        [SplitConfig(rho=1.0, sigma_a2=0.0)])
    splits = [SplitConfig(rho=float(rng.uniform(0, 1)), sigma_a2=float(rng.uniform(0, 1e-2)),
                          sigma_p2=float(rng.uniform(0, 1e-2))) for _ in range(20)]
    (res,) = run_techniques(small, techniques, [ChannelSpec()], splits)
    checks["harvested <= input"] = all(
        m.harvested_norm <= split.rho * (p.harvested_norm + split.sigma_a2) * (1.0 + 1e-12)
        for split, row in zip(splits, res) for m, p in zip(row, p_rx))

    rhos = np.linspace(0.0, 1.0, 11)
    (sweep,) = run_techniques(small, techniques, [ChannelSpec()], [
        SplitConfig(rho=float(rho), sigma_a2=1e-3, sigma_p2=1e-3) for rho in rhos])
    rates = [[row[k].rate_bps_hz for row in sweep] for k in range(len(techniques))]
    hps = [[row[k].harvested_norm for row in sweep] for k in range(len(techniques))]
    checks["rate/energy monotone in rho"] = all(
        all(a >= b for a, b in zip(r, r[1:])) and all(a <= b for a, b in zip(h, h[1:]))
        for r, h in zip(rates, hps))

    base = Scenario(trials=3, seed=9)

    def csv_bytes():
        import tempfile
        from pathlib import Path

        rhos = (0.2, 0.5, 0.8)
        (points,) = run_techniques(base, ("baseline",), [ChannelSpec(kind="rayleigh_flat")],
                                   [SplitConfig(rho=rho) for rho in rhos])
        rows = [(rho, m.rate_bps_hz, m.harvested_norm, m.eta3, m.ber)
                for rho, (m,) in zip(rhos, points)]
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "sweep.csv"
            write_csv(path, ("rho", "rate_bps_hz", "h_p_norm", "eta3", "ber"), rows,
                      "0123456789ab", base.seed)
            return path.read_bytes()

    checks["byte-identical CSV"] = csv_bytes() == csv_bytes()

    ok = all(checks.values())
    _report(8, "property suite", ok,
            ", ".join(f"{k}:{'ok' if v else 'FAIL'}" for k, v in checks.items()))
    assert all(checks.values()), checks


def _ebn0_splits(s: Scenario, points, **split):
    # one splitter per Eb/N0 point, each with the given splitting ratio and
    # processing noise
    return [SplitConfig(sigma_a2=noise_for_ebn0(v, s.ofdm), **split) for v in points]


_KINDS = ("awgn", "rice_flat", "rayleigh_flat", "rayleigh_multitap")
_CHANNELS = [ChannelSpec(kind=kind) for kind in _KINDS]


def _eta3_by_channel(mu: float):
    s = Scenario(mu=mu, trials=50, seed=3)
    res = run_techniques(s, ("companding",), _CHANNELS, _ebn0_splits(s, (0.0, 4.0, 8.0)))
    return {kind: [m.eta3 for (m,) in points] for kind, points in zip(_KINDS, res)}


def _ber_by_channel(mu: float):
    techniques = ("baseline", "companding")
    s = Scenario(mu=mu, trials=60, seed=5)
    res = run_techniques(s, techniques, _CHANNELS,
                         _ebn0_splits(s, (0.0, 4.0, 8.0), rho=0.0, sigma_p2=0.0))
    return {(kind, tech): [r[k].ber for r in points]
            for kind, points in zip(_KINDS, res) for k, tech in enumerate(techniques)}


def test_criterion_9_fading_channel_trends():
    mu = _mu_star()
    eta3 = _eta3_by_channel(mu)
    pairs_close = all(
        abs(a - r) <= 0.01 for a, r in zip(eta3["awgn"], eta3["rice_flat"])
    )
    chain_ok = all(
        min(a, r) >= flat >= multi
        for a, r, flat, multi in zip(eta3["awgn"], eta3["rice_flat"],
                                     eta3["rayleigh_flat"],
                                     eta3["rayleigh_multitap"])
    )

    ber = _ber_by_channel(mu)
    ber_ok = all(
        c <= b
        for kind in _KINDS
        for c, b in zip(ber[(kind, "companding")], ber[(kind, "baseline")])
    )
    ok = pairs_close and chain_ok and ber_ok
    _report(9, "fading-channel trends", ok,
            f"awgn~rice gap max {max(abs(a - r) for a, r in zip(eta3['awgn'], eta3['rice_flat'])):.4f}, "
            f"eta3 chain ordering {'holds' if chain_ok else 'broken'}, "
            f"companded BER never above baseline: {ber_ok}")
    assert pairs_close
    assert chain_ok
    assert ber_ok
