import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import swiptsim
from swiptsim import dpd
from swiptsim.dpd import (
    EVM_MATCH_TOLERANCE,
    PolyFit,
    design_from_scratch,
    design_ibo_reduction,
    evm,
    fit_inverse_polynomial,
    make_training_set,
    probe_evm,
    save_design,
)
from swiptsim.ofdm import OfdmConfig, ofdm_demodulate, random_frames
from swiptsim.pa import PaModel, amplify

CFG = OfdmConfig()
PA = PaModel.sspa(smoothness=1.2)


def test_fit_recovers_linear_transfer():
    # an amplifier of gain 0.7 is inverted by the drive out / 0.7, valid up
    # to the largest output seen
    x = np.linspace(0, 2, 500)
    fit = fit_inverse_polynomial(0.7 * x, x, order=3)
    np.testing.assert_allclose(fit.coeffs, [0, 1 / 0.7, 0, 0], atol=1e-10)
    assert fit.residual_rms < 1e-12
    assert fit.domain_max == 0.7 * 2.0


def test_fit_evaluates_as_polyval():
    # PolyFit runs numpy's polyval recurrence in one array: same bits
    from numpy.polynomial import polynomial as npoly

    amp_in, amp_out = make_training_set(PA, CFG, seed=0)
    fit = fit_inverse_polynomial(amp_out, amp_in, 7)
    x = np.linspace(0.0, 1.5, 1001)
    assert fit(x).tobytes() == npoly.polyval(x, np.asarray(fit.coeffs)).tobytes()
    assert fit(0.3) == npoly.polyval(0.3, np.asarray(fit.coeffs))


def test_fit_rejects_degenerate_training():
    with pytest.raises(ValueError):
        fit_inverse_polynomial(np.ones(10), np.ones(10), order=2)
    with pytest.raises(ValueError):
        fit_inverse_polynomial(np.ones(5), np.ones(6), order=1)


def test_ls_optimality():
    amp_in, amp_out = make_training_set(PA, CFG, seed=0)
    fit = fit_inverse_polynomial(amp_out, amp_in, order=7)

    def residual(coeffs):
        v = np.vander(amp_out, 8, increasing=True)
        return np.sqrt(np.mean((v @ coeffs - amp_in) ** 2))

    base = residual(np.array(fit.coeffs))
    assert base == pytest.approx(fit.residual_rms, rel=1e-9)
    for i in range(8):
        for delta in (1e-3, -1e-3):
            c = np.array(fit.coeffs)
            c[i] += delta
            assert residual(c) >= base


def test_inverse_composition_error():
    amp_in, amp_out = make_training_set(PA, CFG, seed=0)
    inv = fit_inverse_polynomial(amp_out, amp_in, order=7)
    targets = np.linspace(0.05, 0.95 * inv.domain_max, 40)
    reached = PA.am_am(np.clip(inv(targets), 0.0, None))
    assert np.max(np.abs(reached - targets)) < 2e-2


def test_low_order_inverse_is_much_worse():
    amp_in, amp_out = make_training_set(PA, CFG, seed=0)
    inv7 = fit_inverse_polynomial(amp_out, amp_in, order=7)
    inv1 = fit_inverse_polynomial(amp_out, amp_in, order=1)
    targets = np.linspace(0.05, 0.95 * inv7.domain_max, 40)
    err7 = np.max(np.abs(PA.am_am(np.clip(inv7(targets), 0, None)) - targets))
    err1 = np.max(np.abs(PA.am_am(np.clip(inv1(targets), 0, None)) - targets))
    assert err1 > 5 * err7


def test_predistort_phase_preserved_and_clamps():
    amp_in, amp_out = make_training_set(PA, CFG, seed=0)
    inv = fit_inverse_polynomial(amp_out, amp_in, order=7)
    # a unit-gain linear amplifier at 0 dB back-off leaves the predistorter
    # output as the chain output
    identity = PaModel.polynomial((0.0, 1.0))
    rng = np.random.default_rng(1)
    # scaled to stay inside the fitted domain, so no clamping here
    x = 0.25 * (rng.standard_normal(256) + 1j * rng.standard_normal(256))
    y = amplify(x, identity, 0.0, inv)
    mask = np.abs(x) > 0
    np.testing.assert_allclose(np.angle(y[mask]), np.angle(x[mask]), atol=1e-12)
    # way past the reachable output ceiling: clamped to the fit's domain
    out = amplify(np.array([10.0 + 0j]), identity, 0.0, inv)
    assert abs(out[0]) <= inv(np.array([inv.domain_max]))[0] + 1e-9


def test_evm_basics():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    # bulk complex gain is removed before the error is measured
    assert evm(x, (0.3 - 1.8j) * x) < 1e-12
    assert evm(x, x + 0.1 * np.roll(x, 1)) > 0
    with pytest.raises(ValueError):
        evm(x, x[:-1])
    with pytest.raises(ValueError):
        evm(np.zeros(4, complex), np.ones(4, complex))


def test_design_point_frozen():
    design, evaluate = design_from_scratch(PA, CFG, baseline_ibo_db=8.0, seed=0)
    assert design.ibo_reduction_db == pytest.approx(2.477963434417493, abs=1e-9)
    assert design.evm_baseline == pytest.approx(0.048815681574043805, abs=1e-12)
    assert design.evm_with_dpd <= design.evm_baseline * 1.01 + 1e-12
    assert not design.degenerate
    assert design.baseline_ibo_db == 8.0
    # the evaluator returned is the one the search ran on
    assert evaluate(8.0) == design.evm_baseline
    assert evaluate(8.0 - design.ibo_reduction_db, design.inverse_fit) == design.evm_with_dpd


def test_design_ignores_cyclic_prefix():
    with_cp = design_from_scratch(PA, replace(CFG, cp_length=4), seed=0)[0]
    assert with_cp == design_from_scratch(PA, CFG, seed=0)[0]


def test_search_stops_at_first_crossing(monkeypatch):
    # one EVM per chain evaluation; the chain amplifies its probe in blocks
    calls = 0

    def counting_chain(*args, **kwargs):
        nonlocal calls
        calls += 1
        return evm(*args, **kwargs)

    monkeypatch.setattr(dpd, "evm", counting_chain)
    design = design_from_scratch(PA, CFG, baseline_ibo_db=8.0, seed=0)[0]
    assert design.ibo_reduction_db == pytest.approx(2.477963434417493, abs=1e-9)
    # baseline, coarse grid 0..2.5 dB, fine grid 2.1..2.4 dB, 3 Illinois steps
    assert calls == 14


def test_probe_evm_blocks_bit_identical(monkeypatch):
    # the probe is amplified and demodulated in blocks of symbols; any
    # block size gives the EVM of the whole probe in one piece
    design = design_from_scratch(PA, CFG, seed=0)[0]
    grids, x = random_frames(CFG, 64, np.random.default_rng(5))
    expected = []
    for ibo, fit in ((8.0, None), (5.5, design.inverse_fit)):
        y = amplify(x, PA, ibo, fit)
        expected.append(evm(grids, ofdm_demodulate(y.reshape(64, -1), CFG)))
    symbol_bytes = 16 * CFG.n_samples
    for symbols in (1, 3, 8, 64, 100):
        monkeypatch.setattr(dpd, "_BLOCK_BYTES", symbols * symbol_bytes)
        chain_evm = probe_evm(PA, CFG, seed=5)
        assert [chain_evm(8.0), chain_evm(5.5, design.inverse_fit)] == expected, symbols


def test_design_does_not_depend_on_blas_threads():
    # BLAS threads long dot products, so np.vdot's last digits followed the
    # core count; the pairwise sums of evm and bussgang_estimate do not
    code = (
        "import numpy as np\n"
        "from swiptsim.dpd import design_from_scratch\n"
        "from swiptsim.ofdm import OfdmConfig\n"
        "from swiptsim.pa import PaModel, amplify, bussgang_estimate\n"
        "pa = PaModel.sspa(smoothness=1.2)\n"
        "d, _ = design_from_scratch(pa, OfdmConfig(), 8.0, seed=0)\n"
        "x = np.random.default_rng(0).standard_normal(1 << 17) + 0j\n"
        "b = bussgang_estimate(x, amplify(x, pa, 4.0))\n"
        "print(repr((d.ibo_reduction_db, d.evm_baseline, d.evm_with_dpd, b.k_l, b.sigma_d2)))\n"
    )
    outputs = set()
    for blas_threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
               "PYTHONPATH": str(Path(swiptsim.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs


def test_chain_evm_monotone_in_reduction():
    design = design_from_scratch(PA, CFG, seed=0)[0]
    chain_evm = probe_evm(PA, CFG, seed=3)
    evms = [chain_evm(8.0 - r, design.inverse_fit) for r in (0.0, 1.0, 2.0, 3.0)]
    assert np.all(np.diff(evms) > 0)


def test_dpd_beats_no_dpd_at_reduced_backoff():
    design = design_from_scratch(PA, CFG, seed=0)[0]
    ibo = 8.0 - design.ibo_reduction_db
    chain_evm = probe_evm(PA, CFG, seed=4)
    with_dpd = chain_evm(ibo, design.inverse_fit)
    without = chain_evm(ibo, None)
    assert with_dpd < without


def test_degenerate_design_flagged():
    # a limiter whose knee is far beyond any sample never distorts
    pa = PaModel.soft_limiter_model(a_sat=1e6)
    design = design_from_scratch(pa, CFG)[0]
    assert design.degenerate
    assert design.ibo_reduction_db == 8.0
    assert design.evm_baseline < 1e-12
    assert any("upper bound" in n for n in design.notes)


def test_linear_amplifier_design_is_degenerate():
    # the baseline EVM of a linear amplifier is round-off, which the
    # predistorted chain's own round-off cannot match
    design = design_from_scratch(PaModel.polynomial([0.0, 1.0]), CFG)[0]
    assert design.evm_baseline < 1e-12
    assert design.degenerate
    assert design.ibo_reduction_db == 8.0
    assert not any("already exceeds" in n for n in design.notes)
    assert any("upper bound" in n for n in design.notes)


def test_infeasible_inverse_returns_zero():
    hard = PaModel.sspa(smoothness=3.0)
    amp_in, amp_out = make_training_set(hard, CFG, seed=0)
    bad_inv = fit_inverse_polynomial(amp_out, amp_in, 1)
    design = design_ibo_reduction(bad_inv, 0.0, probe_evm(hard, CFG, seed=1))
    assert design.ibo_reduction_db == 0.0
    assert any("no feasible reduction" in n for n in design.notes)


# design_ibo_reduction on scripted chains: EVM _BASE at the 8 dB baseline
# and curve(reduction) with the predistorter, so every branch of the search
# runs with a known answer and a known number of chain evaluations
_BASE = 0.05
_TARGET = _BASE * (1.0 + EVM_MATCH_TOLERANCE)
_IDENTITY = PolyFit(order=1, coeffs=(0.0, 1.0), domain_max=1.0, residual_rms=0.0)


def _scripted_design(curve, evm_base=_BASE):
    calls = []

    def chain_evm(ibo_db, inverse_fit=None):
        calls.append(ibo_db)
        return evm_base if inverse_fit is None else curve(8.0 - ibo_db)

    return design_ibo_reduction(_IDENTITY, 8.0, chain_evm), len(calls)


@pytest.mark.parametrize("a, b, calls", [
    # crossing at 3.087 dB: baseline, coarse 0..3.5, fine 3.1, 5 steps
    (0.02, 0.3, 13),
    # crossing at 0.231 dB, inside the first coarse step: baseline, coarse
    # 0 and 0.5, fine 0.1..0.3, 3 steps
    (0.045, 0.5, 9),
])
def test_search_refines_a_smooth_crossing(a, b, calls):
    curve = lambda r: a * np.exp(b * r)
    design, n = _scripted_design(curve)
    r = design.ibo_reduction_db
    # the chain sees 8 - (8 - r), which rounds: the design's EVM is its own
    assert design.evm_with_dpd <= _TARGET < curve(r + 1e-4)
    assert design.evm_with_dpd == pytest.approx(curve(r), rel=1e-12)
    assert abs(r - np.log(_TARGET / a) / b) < 1e-4
    assert design.notes == () and not design.degenerate
    assert n == calls


def test_search_keeps_a_crossing_on_a_coarse_point():
    # EVM reaches the target exactly at 1.5 dB, which stays feasible: the
    # fine point 1.6 dB crosses, and one step 2.5e-5 dB above 1.5 closes
    # the bracket
    design, n = _scripted_design(lambda r: _TARGET + 0.01 * (r - 1.5))
    assert design.ibo_reduction_db == 1.5
    assert design.notes == ()
    assert n == 1 + 5 + 1 + 1


def test_search_takes_the_first_crossing_it_scans():
    # a bump above the target at 1.2 dB lies between the feasible coarse
    # points 1.0 and 1.5 dB, so the search does not see it and refines the
    # next crossing, at 2.5556 dB; the dip from 1.0 to 1.5 dB is noted
    knots = [0.0, 1.0, 1.2, 1.4, 1.5, 2.0, 3.0, 8.0]
    values = _TARGET * np.array([0.5, 0.8, 1.5, 0.8, 0.7, 0.75, 1.2, 2.0])
    curve = lambda r: float(np.interp(r, knots, values))
    assert curve(1.2) > _TARGET
    design, n = _scripted_design(curve)
    assert abs(design.ibo_reduction_db - (2.0 + 0.25 / 0.45)) < 1e-4
    assert design.evm_with_dpd <= _TARGET
    assert design.notes == ("EVM not monotone in reduction near 1.0 dB",)
    assert n == 11


@pytest.mark.parametrize("low, high, calls", [
    # EVM jumps from half to twice the baseline's at 0.337 dB
    (0.5 * _BASE, 2.0 * _BASE, 19),
    # a jump from just below the target to 4 times the baseline's EVM takes
    # more steps: Illinois halves the far end's gap once per step until
    # the false-position point leaves the near end
    (0.99 * _TARGET, 4.0 * _BASE, 36),
])
def test_search_ends_on_a_step(low, high, calls):
    design, n = _scripted_design(lambda r: low if r < 0.337 else high)
    assert 0.337 - 1e-4 < design.ibo_reduction_db < 0.337
    assert design.evm_with_dpd == low
    assert n == calls


@pytest.mark.parametrize("curve, evm_base, reduction, degenerate, note, calls", [
    # never crosses: baseline and the 17 coarse points
    (lambda r: 0.5 * _BASE, _BASE, 8.0, False, "search hit its upper bound", 18),
    (lambda r: 0.0, _BASE, 8.0, True, "distortion-free chain", 18),
    # crosses at 0 dB: baseline and one coarse point
    (lambda r: 2.0 * _BASE, _BASE, 0.0, False, "no feasible reduction", 2),
    # round-off at the baseline: baseline and the upper bound, no scan
    (lambda r: 0.0, 0.0, 8.0, True, "distortion-free baseline", 2),
])
def test_search_branches(curve, evm_base, reduction, degenerate, note, calls):
    design, n = _scripted_design(curve, evm_base)
    assert design.ibo_reduction_db == reduction
    assert design.degenerate == degenerate
    assert len(design.notes) == 1 and design.notes[0].startswith(note)
    assert n == calls


def test_save_design_writes_header(tmp_path):
    design = design_from_scratch(PA, CFG, seed=0)[0]
    path = tmp_path / "design.txt"
    save_design(design, str(path), header=("written by the test suite",))
    assert path.read_text().startswith("# written by the test suite\n")


def test_training_set_covers_overdrive():
    # a ramp to 1.2 a_sat, then one modulated frame
    amp_in, amp_out = make_training_set(PA, CFG, seed=0)
    np.testing.assert_array_equal(amp_in[:4096], np.linspace(0.0, 1.2 * PA.a_sat, 4096))
    assert amp_in.size == 4096 + CFG.n_samples
    assert amp_in.size == amp_out.size
    np.testing.assert_allclose(amp_out, PA.am_am(amp_in))
