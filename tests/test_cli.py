import copy
import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import swiptsim
from swiptsim import cli, dpd, experiments, harvester, ofdm, pa
from swiptsim.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    ConfigError,
    _SCHEMA,
    _grid,
    build_channel,
    build_eh,
    build_ofdm,
    build_pa,
    build_scenario,
    build_split,
    cmd_papr,
    config_hash,
    load_config,
    main,
    validate_config,
)
from swiptsim.channel import CHANNEL_KINDS, ChannelSpec
from swiptsim.link import SplitConfig

SMALL_OFDM = {"n_subcarriers": 64, "oversampling_factor": 2}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_validate_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key 'ofdm.bogus'"):
        validate_config({"ofdm": {"bogus": 1}})
    with pytest.raises(ConfigError, match="unknown key 'turbo'"):
        validate_config({"turbo": {}})
    with pytest.raises(ConfigError, match="must be an object"):
        validate_config({"ofdm": 7})
    with pytest.raises(ConfigError, match="must be an integer"):
        validate_config({"seed": "zero"})
    with pytest.raises(ConfigError, match="must be a boolean"):
        validate_config({"svg": "yes"})
    validate_config({"ofdm": SMALL_OFDM, "seed": 3, "svg": True})


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    empty = tmp_path / "empty.json"
    empty.write_text("   \n")
    with pytest.raises(ConfigError, match="empty"):
        load_config(str(empty))
    bad = tmp_path / "bad.json"
    bad.write_text('{"ofdm": }')
    with pytest.raises(ConfigError, match="bad.json:1"):
        load_config(str(bad))
    with pytest.raises(ConfigError, match="top level"):
        load_config(write_cfg(tmp_path, [1, 2, 3], "list.json"))
    assert load_config(None) == {}


def test_build_helpers():
    pa, ibo_db = build_pa({"pa": {"kind": "soft_limiter", "ibo_db": 6.0}})
    assert pa.kind == "soft_limiter"
    assert ibo_db == 6.0
    pa, ibo_db = build_pa({})
    assert pa.kind == "sspa"
    assert ibo_db == 8.0
    with pytest.raises(ConfigError, match="'pa'"):
        build_pa({"pa": {"kind": "valve"}})

    assert build_eh({"eh": {"kind": "linear", "eta3_linear": 0.4}}) == 0.4
    assert build_eh({"eh": {"kind": "linear"}}) == 0.5
    assert build_eh({}) == harvester.default_rectenna()
    with pytest.raises(ConfigError, match="unknown kind"):
        build_eh({"eh": {"kind": "diode"}})
    with pytest.raises(ConfigError, match="eh.calibration"):
        build_eh({"eh": {"calibration": "/does/not/exist.csv"}})
    with pytest.raises(ConfigError, match="path string"):
        build_eh({"eh": {"calibration": 5}})

    s = build_scenario({"scenario": {"mu": 2.0, "trials": 7}}, seed=5, trials=None)
    assert s.mu == 2.0
    assert s.trials == 7
    assert s.seed == 5
    assert build_scenario({}, seed=0, trials=3).trials == 3


def test_main_exit_codes(tmp_path, capsys):
    ok_cfg = write_cfg(tmp_path, {"ofdm": SMALL_OFDM})
    assert main(["papr", "--config", ok_cfg, "--out", str(tmp_path / "o"),
                 "--trials", "50"]) == EXIT_OK

    # bogus keys and the keys that no output depended on (the Monte Carlo
    # works in units of the nominal transmit power, so scenario.p_rf_tx_dbm
    # has none to set; the predistorter is fitted as an inverse directly,
    # so no forward amplifier fit has an order to set)
    for section, key in (("ofdm", "bogus"), ("ofdm", "subcarrier_spacing_hz"),
                         ("channel", "carrier_hz"), ("channel", "distance_m"),
                         ("scenario", "technique"), ("scenario", "p_rf_tx_dbm"),
                         ("dpd", "pa_order")):
        bad_key = write_cfg(tmp_path, {section: {key: 1}}, "bad_key.json")
        assert main(["papr", "--config", bad_key, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert f"unknown key '{section}.{key}'" in capsys.readouterr().err

    assert main(["papr", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == EXIT_CONFIG

    assert main(["papr", "--config", ok_cfg, "--seed", "-1",
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err

    # bool is an int subclass, but not a seed
    bool_seed = write_cfg(tmp_path, {"ofdm": SMALL_OFDM, "seed": True}, "bool_seed.json")
    assert main(["papr", "--config", bool_seed, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "'seed' must be an integer" in capsys.readouterr().err

    for threads in ("0", "-3"):
        assert main(["ber", "--config", ok_cfg, "--threads", threads,
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "--threads" in capsys.readouterr().err

    # the serial subcommand rejects a thread count instead of dropping it
    for command in ("dpd-design",):
        for threads in ("1", "2"):
            out = tmp_path / f"serial_{command}_{threads}"
            assert main([command, "--config", ok_cfg, "--threads", threads,
                         "--out", str(out)]) == EXIT_CONFIG, command
            assert "--threads" in capsys.readouterr().err
            assert not out.exists(), command

    for command in ("papr", "dpd-design", "mu-sweep", "e2e", "ber", "rate-energy"):
        assert main([command, "--config", ok_cfg, "--trials", "0",
                     "--out", str(tmp_path)]) == EXIT_CONFIG, command
        assert "--trials" in capsys.readouterr().err

    # a trial count given to a subcommand without Monte Carlo is an error,
    # not a silent change of the provenance hash
    for command in ("dpd-design",):
        out = tmp_path / f"no_trials_{command}"
        assert main([command, "--config", ok_cfg, "--trials", "5",
                     "--out", str(out)]) == EXIT_CONFIG, command
        assert "--trials" in capsys.readouterr().err
        assert not out.exists(), command

    nan_cal = tmp_path / "nan.csv"
    nan_cal.write_text("p_in_dbm,eta3\n-10,0.1\nnan,0.2\n10,0.3\n")

    # PAPR, DPD and rate-energy inputs are rejected before any work; mu = 0
    # in papr means "no compression", mu-sweep needs mu > 0; a grid is a
    # list of numbers, and a [min, max, step] triple needs min <= max and a
    # positive step; counts and DPD orders are integers of at least 1;
    # rate-energy takes rho in [0, 1] and known techniques, once each; a
    # kind-specific key needs its kind, and scenario and channel values
    # must have the right type and range
    bad_papr = [
        ("papr", {"papr": {"thresholds_db": 3}}, "papr.thresholds_db"),
        ("papr", {"papr": {"thresholds_db": ["a", 1, 2]}}, "papr.thresholds_db"),
        ("papr", {"papr": {"thresholds_db": [0, 1, 0]}}, "papr.thresholds_db"),
        ("papr", {"papr": {"thresholds_db": [0, 4, -1]}}, "papr.thresholds_db"),
        ("papr", {"papr": {"thresholds_db": [5, 4, 1]}}, "papr.thresholds_db"),
        ("dpd-design", {"dpd": {"reduction_grid_db": 3}}, "dpd.reduction_grid_db"),
        ("dpd-design", {"dpd": {"reduction_grid_db": ["a", 1, 2]}}, "dpd.reduction_grid_db"),
        ("dpd-design", {"dpd": {"reduction_grid_db": [0, 1, 0]}}, "dpd.reduction_grid_db"),
        ("dpd-design", {"dpd": {"reduction_grid_db": [0, 4, -1]}}, "dpd.reduction_grid_db"),
        ("dpd-design", {"dpd": {"inverse_order": "x"}}, "dpd.inverse_order"),
        ("dpd-design", {"dpd": {"inverse_order": 2.7}}, "dpd.inverse_order"),
        ("dpd-design", {"dpd": {"inverse_order": True}}, "dpd.inverse_order"),
        ("dpd-design", {"dpd": {"inverse_order": 0}}, "dpd.inverse_order"),
        # a reduction grid that runs past the back-off
        ("dpd-design", {"pa": {"ibo_db": 1.0}}, "dpd.reduction_grid_db"),
        ("dpd-design", {"pa": {"ibo_db": 3.0}, "dpd": {"reduction_grid_db": [0, 3.5]}},
         "dpd.reduction_grid_db"),
        # a negative back-off, even with a grid that stays below it
        ("dpd-design", {"pa": {"ibo_db": -1.0}, "dpd": {"reduction_grid_db": [-2.0]}},
         "pa.ibo_db"),
        ("e2e", {"pa": {"ibo_db": -1.0}}, "pa.ibo_db"),
        ("rate-energy", {"pa": {"ibo_db": -1.0}}, "pa.ibo_db"),
        # a back-off that is not a finite number: a bool is not 1 dB
        ("dpd-design", {"pa": {"ibo_db": True}}, "pa.ibo_db"),
        ("rate-energy", {"pa": {"ibo_db": True}}, "pa.ibo_db"),
        ("rate-energy", {"pa": {"ibo_db": "8"}}, "pa.ibo_db"),
        ("mu-sweep", {"pa": {"ibo_db": float("inf")}}, "pa.ibo_db"),
        ("dpd-design", {"pa": {"ibo_db": float("nan")}}, "pa.ibo_db"),
        # a derived back-off reduction (companding: about 1.63 dB) that runs
        # past the back-off: found before the Monte Carlo
        ("e2e", {"pa": {"ibo_db": 1.0}, "scenario": {"trials": 2, "frame_symbols": 1}},
         "runs past ibo_db = 1 dB"),
        ("ber", {"pa": {"ibo_db": 1.0}, "scenario": {"trials": 2, "frame_symbols": 1}},
         "runs past ibo_db = 1 dB"),
        ("rate-energy", {"pa": {"ibo_db": 1.0}, "scenario": {"trials": 2, "frame_symbols": 1}},
         "runs past ibo_db = 1 dB"),
        # N*L = 2 cannot hold the 4-sample prefix of the 3-tap channel
        ("e2e", {"ofdm": {"n_subcarriers": 2, "oversampling_factor": 1}},
         "'rayleigh_multitap' needs a cyclic prefix of 4"),
        ("ber", {"ofdm": {"n_subcarriers": 2, "oversampling_factor": 1}},
         "'rayleigh_multitap' needs a cyclic prefix of 4"),
        ("rate-energy", {"ofdm": {"n_subcarriers": 2, "oversampling_factor": 1},
                         "channel": {"kind": "rayleigh_multitap"}},
         "'rayleigh_multitap' needs a cyclic prefix of 4"),
        ("papr", {"papr": {"mu_grid": [-1.0, 1.25]}}, "papr.mu_grid"),
        ("papr", {"papr": {"mu_grid": []}}, "papr.mu_grid"),
        ("papr", {"papr": {"n_trials": 0}}, "papr.n_trials"),
        ("papr", {"papr": {"n_trials": 2.7}}, "papr.n_trials"),
        ("mu-sweep", {"mu_sweep": {"mu_grid": [0.0, 1.0]}}, "mu_sweep.mu_grid"),
        ("mu-sweep", {"mu_sweep": {"mu_grid": []}}, "mu_sweep.mu_grid"),
        ("mu-sweep", {"mu_sweep": {"papr_trials": 0}}, "mu_sweep.papr_trials"),
        ("rate-energy", {"rate_energy": {"rho_grid": []}}, "rate_energy.rho_grid"),
        ("rate-energy", {"rate_energy": {"rho_grid": ["x"]}}, "rate_energy.rho_grid"),
        ("rate-energy", {"rate_energy": {"rho_grid": [0.5, 1.5]}}, "rate_energy.rho_grid"),
        ("rate-energy", {"rate_energy": {"rho_grid": [-0.1]}}, "rate_energy.rho_grid"),
        ("rate-energy", {"rate_energy": {"techniques": []}}, "rate_energy.techniques"),
        ("rate-energy", {"rate_energy": {"techniques": ["baseline", "baseline"]}},
         "rate_energy.techniques"),
        ("rate-energy", {"rate_energy": {"techniques": ["mimo"]}}, "rate_energy.techniques"),
        # a key that the chosen kind does not read
        ("rate-energy", {"eh": {"eta3_linear": 2}}, "eh.eta3_linear"),
        ("rate-energy", {"eh": {"kind": "linear", "calibration": "cal.csv"}}, "eh.calibration"),
        # a non-finite calibration power, named by file and line
        ("rate-energy", {"eh": {"calibration": str(nan_cal)}}, "nan.csv:3: non-finite"),
        # calibration is always a path: CSV text names no file
        ("rate-energy", {"eh": {"calibration": nan_cal.read_text()}}, "eh.calibration"),
        ("rate-energy", {"pa": {"coeffs": [1]}}, "pa.coeffs"),
        ("rate-energy", {"pa": {"kind": "soft_limiter", "smoothness": 2.0}}, "pa.smoothness"),
        ("rate-energy", {"pa": {"kind": "polynomial", "coeffs": [0, 1], "smoothness": 2.0}},
         "pa.smoothness"),
        ("rate-energy", {"pa": {"kind": "polynomial", "coeffs": 5}}, "pa.coeffs"),
        # malformed scenario and channel values
        ("rate-energy", {"scenario": {"trials": 2.5}}, "trials must be an integer"),
        ("rate-energy", {"scenario": {"frame_symbols": 1.5}}, "frame_symbols must be an integer"),
        ("rate-energy", {"scenario": {"mu": 0}}, "mu must be positive"),
        ("rate-energy", {"scenario": {"mu": -1}}, "mu must be positive"),
        ("rate-energy", {"channel": {"pdp_db": 5}}, "channel.pdp_db"),
        ("rate-energy", {"channel": {"pdp_db": [0, "a"]}}, "channel.pdp_db"),
        # non-integer numerology and non-finite splitter and amplifier numbers
        ("e2e", {"ofdm": {**SMALL_OFDM, "oversampling_factor": 2.5}},
         "oversampling_factor must be an integer"),
        ("e2e", {"ofdm": {**SMALL_OFDM, "cp_length": 1.5}}, "cp_length must be an integer"),
        ("e2e", {"split": {"sigma_a2": float("nan")}}, "sigma_a2 must be finite"),
        ("e2e", {"split": {"sigma_p2": float("inf")}}, "sigma_p2 must be finite"),
        ("e2e", {"pa": {"a_sat": float("nan")}}, "a_sat must be finite"),
        ("e2e", {"pa": {"smoothness": float("inf")}}, "smoothness must be finite"),
        # a boolean is not a number: true is not rho = 1, a_sat = 1 or K = 1 dB
        ("e2e", {"split": {"rho": True}}, "split.rho"),
        ("rate-energy", {"pa": {"a_sat": True}}, "pa.a_sat"),
        ("rate-energy", {"eh": {"kind": "linear", "eta3_linear": True}}, "eh.eta3_linear"),
        ("rate-energy", {"channel": {"kind": "rice_flat", "rice_k_db": True}},
         "channel.rice_k_db"),
        ("rate-energy", {"channel": {"pdp_db": [0, True]}}, "channel.pdp_db"),
    ]
    for i, (command, section, where) in enumerate(bad_papr):
        path = write_cfg(tmp_path, {"ofdm": SMALL_OFDM, **section}, f"bad_papr{i}.json")
        out = tmp_path / f"bad_papr{i}"
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_CONFIG, where
        assert where in capsys.readouterr().err
        assert not any(out.iterdir()), where

    # BER sweep inputs: an empty, non-numeric or non-finite Eb/N0 grid, and
    # empty or repeated technique and channel lists
    bad_ber = [
        ({"ebn0_db": []}, "ber.ebn0_db"),
        ({"ebn0_db": ["x"]}, "ber.ebn0_db"),
        ({"ebn0_db": [float("nan")]}, "ber.ebn0_db"),
        ({"ebn0_db": 4.0}, "ber.ebn0_db"),
        ({"ebn0_db": "48"}, "ber.ebn0_db"),
        ({"ebn0_db": [True, 4]}, "ber.ebn0_db"),
        ({"techniques": []}, "ber.techniques"),
        ({"techniques": "baseline"}, "ber.techniques"),
        ({"techniques": ["baseline", "baseline"]}, "ber.techniques"),
        ({"channels": []}, "ber.channels"),
        ({"channels": ["awgn", "awgn"]}, "ber.channels"),
    ]
    for i, (section, where) in enumerate(bad_ber):
        path = write_cfg(tmp_path, {"ofdm": SMALL_OFDM, "ber": section}, f"bad_ber{i}.json")
        out = tmp_path / f"bad_ber{i}"
        assert main(["ber", "--config", path, "--out", str(out)]) == EXIT_CONFIG, section
        assert where in capsys.readouterr().err
        assert not any(out.iterdir()), section

    # each technique's back-off reduction comes from its own design: there
    # is no override to set
    path = write_cfg(tmp_path, {"scenario": {"ibo_reduction_db": 2.0}}, "override.json")
    out = tmp_path / "override"
    assert main(["e2e", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert "unknown key 'scenario.ibo_reduction_db'" in capsys.readouterr().err
    assert not out.exists()


def test_main_runtime_error_when_out_is_a_file(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cfg = write_cfg(tmp_path, {"ofdm": SMALL_OFDM})
    assert main(["papr", "--config", cfg, "--out", str(blocker),
                 "--trials", "10"]) == EXIT_RUNTIME


def test_papr_outputs_and_rerun_identical(tmp_path):
    cfg = write_cfg(tmp_path, {
        "ofdm": SMALL_OFDM,
        "papr": {"mu_grid": [0.0, 1.25], "thresholds_db": [4.0, 10.0, 2.0]},
    })
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["papr", "--config", cfg, "--out", str(out1), "--trials", "100"]) == EXIT_OK
    assert main(["papr", "--config", cfg, "--out", str(out2), "--trials", "100"]) == EXIT_OK
    b1 = (out1 / "papr_ccdf.csv").read_bytes()
    assert b1 == (out2 / "papr_ccdf.csv").read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[0].endswith("seed=0")
    assert "mu,threshold_db,ccdf" in lines
    # mu grid x 4 thresholds
    assert sum(1 for ln in lines if not ln.startswith("#")) == 1 + 2 * 4


def test_config_hash_covers_trials_override(tmp_path):
    cfg = write_cfg(tmp_path, {
        "ofdm": SMALL_OFDM,
        "papr": {"mu_grid": [0.0], "thresholds_db": [4.0, 10.0, 2.0]},
    })
    firsts = []
    for trials in ("300", "500"):
        out = tmp_path / trials
        assert main(["papr", "--config", cfg, "--out", str(out),
                     "--trials", trials]) == EXIT_OK
        firsts.append((out / "papr_ccdf.csv").read_text().splitlines()[0])
    assert firsts[0] != firsts[1]


def test_config_hash_covers_calibration_bytes(tmp_path):
    cal = tmp_path / "cal.csv"
    cfg = write_cfg(tmp_path, {"eh": {"calibration": str(cal)},
                               "rate_energy": {"rho_grid": [0.5]}})
    firsts = []
    for text in ("p_in_dbm,eta3\n-10.0,0.1\n10.0,0.3\n",
                 "p_in_dbm,eta3\n-10.0,0.1\n10.0,0.4\n"):
        cal.write_text(text)
        out = tmp_path / str(len(firsts))
        assert main(["rate-energy", "--config", cfg, "--out", str(out)]) == EXIT_OK
        firsts.append((out / "rate_energy.csv").read_text().splitlines()[0])
    assert firsts[0] != firsts[1]
    # a file that a command's harvester cannot read is a config error
    cal.unlink()
    assert main(["rate-energy", "--config", cfg, "--out", str(tmp_path / "p"),
                 "--trials", "10"]) == EXIT_CONFIG
    # the serialization of the resolved values is pinned
    assert config_hash(3, ofdm.OfdmConfig(**SMALL_OFDM)) == "3cfb074e0f05"
    assert config_hash(0, experiments.Scenario(eh=0.5, trials=50)) == (
        "b39d564abf0a")


def test_config_hash_sensitivity():
    # the hash moves with any resolved value, the package version and the
    # seed; a dataclass enters by its fields and an array by its values
    a = config_hash(0, experiments.Scenario(mu=1.25))
    assert a != config_hash(0, experiments.Scenario(mu=1.3))
    assert a != config_hash(1, experiments.Scenario(mu=1.25))
    assert len(a) == 12
    assert config_hash(0, np.arange(3.0)) == config_hash(0, [0.0, 1.0, 2.0])
    assert config_hash(0, np.int64(7)) == config_hash(0, 7)
    with pytest.raises(TypeError, match="cannot serialize set"):
        config_hash(0, {1, 2})


def test_papr_svg_emission(tmp_path):
    cfg = write_cfg(tmp_path, {
        "ofdm": SMALL_OFDM, "svg": True,
        "papr": {"mu_grid": [0.0], "thresholds_db": [4.0, 10.0, 2.0]},
    })
    out = tmp_path / "o"
    assert main(["papr", "--config", cfg, "--out", str(out), "--trials", "50"]) == EXIT_OK
    svg = (out / "papr_ccdf.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_handlers_do_not_mutate_config(tmp_path):
    cfg = {"ofdm": dict(SMALL_OFDM), "pa": {"kind": "sspa", "ibo_db": 8.0},
           "papr": {"mu_grid": [0.0], "thresholds_db": [4.0, 10.0, 2.0]}}
    snapshot = copy.deepcopy(cfg)
    assert cmd_papr(cfg, 0, tmp_path, 50, 1, False) is None
    assert cfg == snapshot


def _count_synthesis(monkeypatch):
    calls = []
    real = ofdm.synthesize_waveforms

    def counting(grids, cfg):
        calls.append(len(grids))
        return real(grids, cfg)

    monkeypatch.setattr(ofdm, "synthesize_waveforms", counting)
    return calls


def test_papr_curves_share_one_synthesis(tmp_path, monkeypatch):
    # each 512-symbol chunk (1 MiB of 128-sample symbols) is synthesized
    # once for all mu values, not once per mu and again for the
    # uncompressed reference; the pool may finish the chunks in any order
    n = 1100
    calls = _count_synthesis(monkeypatch)
    cfg = write_cfg(tmp_path, {"ofdm": SMALL_OFDM,
                               "mu_sweep": {"mu_grid": [0.5, 1.25, 4.0], "papr_trials": n}})
    assert main(["mu-sweep", "--config", cfg, "--out", str(tmp_path / "m")]) == EXIT_OK
    assert sorted(calls, reverse=True) == [512, 512, 76]

    calls.clear()
    cfg = write_cfg(tmp_path, {"ofdm": SMALL_OFDM, "papr": {"mu_grid": [0.0, 1.25, 255.0]}},
                    "papr.json")
    assert main(["papr", "--config", cfg, "--out", str(tmp_path / "p"),
                 "--trials", str(n)]) == EXIT_OK
    assert sorted(calls, reverse=True) == [512, 512, 76]


@pytest.mark.parametrize("ofdm_cfg", [{"n_subcarriers": 512, "oversampling_factor": 4},
                                      {"n_subcarriers": 512, "oversampling_factor": 4,
                                       "cp_length": 16},
                                      {"n_subcarriers": 1024, "oversampling_factor": 4}])
def test_default_papr_chunk_fits_one_mib(tmp_path, monkeypatch, ofdm_cfg):
    # the default chunk holds as many symbols as fit in 1 MiB of complex128
    # waveform, prefix included, and the chunks cover every trial once
    n = 100
    calls = _count_synthesis(monkeypatch)
    cfg = write_cfg(tmp_path, {"ofdm": ofdm_cfg,
                               "mu_sweep": {"mu_grid": [1.25], "papr_trials": n}})
    assert main(["mu-sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    symbol_bytes = 16 * (ofdm_cfg["n_subcarriers"] * ofdm_cfg["oversampling_factor"]
                         + ofdm_cfg.get("cp_length", 0))
    assert sum(calls) == n
    assert max(calls) == (1 << 20) // symbol_bytes


def test_papr_outputs_do_not_depend_on_threads(tmp_path):
    # several chunks (64 symbols of 1024 samples each) in flight at once
    cfg = write_cfg(tmp_path, {
        "ofdm": {"n_subcarriers": 256, "oversampling_factor": 4},
        "papr": {"mu_grid": [0.0, 1.25, 255.0], "n_trials": 300},
        "mu_sweep": {"mu_grid": [0.5, 1.25, 4.0], "papr_trials": 300},
    })
    for command, name in (("papr", "papr_ccdf.csv"), ("mu-sweep", "mu_sweep.csv")):
        outputs = set()
        for i, flag in enumerate((["--threads", "1"], ["--threads", "2"], [])):
            out = tmp_path / f"{command}{i}"
            assert main([command, "--config", cfg, "--out", str(out), *flag]) == EXIT_OK
            outputs.add((out / name).read_bytes())
        assert len(outputs) == 1, command


# sha256 of each CSV at seed 0 on _DIGEST_CFG, recorded before the PAPR
# path moved from complex waveforms to envelopes (dpd_evm.csv when its
# table came to be measured on the design's probe whatever the prefix,
# mu_sweep.csv when a comment line came to say what its columns are and
# again when it came to say where mu* is searched, and every file when the
# config hash came to cover the resolved inputs); a change that moves a
# byte of these files updates the digests and says so
_DIGEST_CFG = {
    "ofdm": {"n_subcarriers": 64, "oversampling_factor": 4, "cp_length": 8},
    "papr": {"mu_grid": [0.0, 1.25, 255.0], "n_trials": 2000},
    "mu_sweep": {"mu_grid": [0.5, 1.25, 4.0, 255.0], "papr_trials": 2000},
}
_CSV_SHA256 = {
    "papr_ccdf.csv": "2c711c12b558bdb98650dd6ee9f23e55822d1e2e2a89142bddfd52d653cb5d1b",
    "mu_sweep.csv": "e6c270d3599cc6df38d26f1d3d1a5cb97bd40a0fb61af3006572773f65d669cb",
    "dpd_evm.csv": "8b65cc72d3ddd79e3cf7c4ed985c55e7c341a28256218514e4c17d9f5692777f",
}


# the Monte Carlo commands on a config of their own: a cyclic prefix,
# which the multipath channel lengthens, and rho = 0.5, so that the
# rectenna runs; recorded when one pass of common random numbers came to
# serve every channel and Eb/N0 point (the two e2e files when the DPD
# search came to refine its crossing to 1e-4 dB, technique_table.csv again
# when its ber note came to state the information branch's share, all four
# when the config hash came to cover the resolved inputs, the three with a
# ber or rate column when a trial's noise came to be shared by every
# channel, all four when the scenario lost its back-off override and again
# when it lost its channel and splitter to the pass's grid, and all four
# when its harvester came to be the curve or the efficiency itself, each of
# which moved only the config_hash line), and checked at 1, 2 and 3 threads,
# which must not move a byte
_MC_DIGEST_CFG = {
    "ofdm": {"n_subcarriers": 64, "oversampling_factor": 2, "cp_length": 4},
    "split": {"rho": 0.5},
    "scenario": {"trials": 4, "frame_symbols": 2},
    "ber": {"ebn0_db": [0.0, 6.0], "techniques": ["baseline", "companding", "dpd"]},
}
_MC_CSV_SHA256 = {
    "ber_curves.csv": "7b9962639661d52ffbe1867b190d7318f5df5f0dee9e871f5c13f89f24c92af7",
    "technique_table.csv": "8da8b77fcf2f5a35f66af7b6a210a851f515357303c959d4a971e1dbadf8f6f4",
    "channel_metrics.csv": "0b477e2b0ee2bee915c882044d54efb8566a81c8bcfc911b433a300229ff5647",
    "rate_energy.csv": "89979aad4c26417fb077c52342b4233120a3b8d5955c4286c3adad94d7e35c95",
}


def test_outputs_match_recorded_digests(tmp_path):
    cfg = write_cfg(tmp_path, _DIGEST_CFG)
    mc_cfg = write_cfg(tmp_path, _MC_DIGEST_CFG, "mc.json")
    digests = {**_CSV_SHA256, **_MC_CSV_SHA256}
    for path, command, names, flags in (
        (cfg, "papr", ("papr_ccdf.csv",), ["--threads", "2"]),
        (cfg, "mu-sweep", ("mu_sweep.csv",), ["--threads", "2"]),
        (cfg, "dpd-design", ("dpd_evm.csv",), []),
        *((mc_cfg, command, names, ["--threads", str(threads)])
          for command, names in (("ber", ("ber_curves.csv",)),
                                 ("e2e", ("technique_table.csv", "channel_metrics.csv")),
                                 ("rate-energy", ("rate_energy.csv",)))
          for threads in (1, 2, 3)),
    ):
        out = tmp_path / "-".join((command, *flags))
        assert main([command, "--config", path, "--seed", "0", "--out", str(out),
                     *flags]) == EXIT_OK
        for name in names:
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digests[name], name


def test_dpd_design_synthesizes_its_probe_once(tmp_path, monkeypatch):
    # the training frame and the design's probe are the only syntheses: the
    # EVM table evaluates every reduction-grid point on the design's probe,
    # so the count grows neither with the grid nor with a cyclic prefix,
    # which the design and so the table leave out
    calls = _count_synthesis(monkeypatch)
    for i, grid in enumerate(([0.0, 1.0, 0.5], [0.0, 4.0, 0.25])):
        for cp in (0, 4):
            calls.clear()
            cfg = write_cfg(tmp_path, {"ofdm": {**SMALL_OFDM, "cp_length": cp},
                                       "dpd": {"reduction_grid_db": grid}}, f"dpd{i}{cp}.json")
            assert main(["dpd-design", "--config", cfg,
                         "--out", str(tmp_path / f"o{i}{cp}")]) == EXIT_OK
            assert calls == [1, 64], (grid, cp)


def test_dpd_evm_table_ignores_cyclic_prefix(tmp_path):
    # the table measures the chain the design searched, and the provenance
    # hashes the numerology without a prefix that both run on, so a prefix
    # moves no byte of either file
    outputs = set()
    for cp in (0, 8):
        cfg = write_cfg(tmp_path, {"ofdm": {"n_subcarriers": 64, "oversampling_factor": 4,
                                            "cp_length": cp},
                                   "dpd": {"reduction_grid_db": [0.0, 2.0, 1.0]}}, f"cp{cp}.json")
        out = tmp_path / f"cp{cp}"
        assert main(["dpd-design", "--config", cfg, "--out", str(out)]) == EXIT_OK
        outputs.add(tuple((out / name).read_bytes() for name in ("dpd_design.txt", "dpd_evm.csv")))
    assert len(outputs) == 1


def _count_transmit(tmp_path, monkeypatch, command):
    """(trials synthesized by the Monte Carlo and by ofdm, frames
    amplified) over one run of the command with 3 trials of 2 symbols."""
    synth = {"experiments": 0, "ofdm": 0}
    for name, module in (("experiments", experiments), ("ofdm", ofdm)):
        def counting(grids, cfg, _real=module.synthesize_waveforms, _name=name):
            # the Monte Carlo synthesizes (frames, symbols, N) blocks
            synth[_name] += len(grids) if grids.ndim == 3 else 1
            return _real(grids, cfg)
        monkeypatch.setattr(module, "synthesize_waveforms", counting)
    frames = []
    real_am_am = pa.PaModel.am_am

    def counting_am_am(self, magnitude):
        # frames carry 2 symbols of 128 samples and no prefix: each
        # receiver adds its own after the amplifier
        if magnitude.shape[-1] == 2 * 128:
            frames.append(magnitude.size // magnitude.shape[-1])
        return real_am_am(self, magnitude)

    monkeypatch.setattr(pa.PaModel, "am_am", counting_am_am)
    cfg = write_cfg(tmp_path, {"ofdm": SMALL_OFDM,
                               "scenario": {"trials": 3, "frame_symbols": 2}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == EXIT_OK
    return synth, sum(frames)


def test_e2e_techniques_share_each_frame(tmp_path, monkeypatch):
    # a pass holds no frames between its two passes, so each block builds
    # its frames twice, once for the ensemble powers and once for the
    # receive job: each trial is synthesized once per pass for all
    # four techniques and all four channels (plus the DPD design's own two
    # batches, through ofdm), and each technique amplifies each frame once
    # per pass, the baseline output doubling as every technique's power
    # reference; the Monte Carlo works on blocks of frames, so frames are
    # counted, not calls
    synth, frames = _count_transmit(tmp_path, monkeypatch, "e2e")
    assert synth == {"experiments": 2 * 3, "ofdm": 2}
    assert frames == 2 * 4 * 3


def test_ber_techniques_share_each_frame(tmp_path, monkeypatch):
    # one synthesis per trial and pass serves every channel and Eb/N0
    # point; with no harvesting splitter the power pass amplifies each
    # frame once, for the reference alone, and the receive job once per
    # default technique
    synth, frames = _count_transmit(tmp_path, monkeypatch, "ber")
    assert synth == {"experiments": 2 * 3, "ofdm": 0}
    assert frames == 3 + 2 * 3


def test_e2e_outputs_do_not_depend_on_threads(tmp_path, monkeypatch):
    # one trial per block, so several blocks are in flight at once
    monkeypatch.setattr(experiments, "_BLOCK_BYTES", 16 * 2 * 128)
    cfg = write_cfg(tmp_path, {"ofdm": SMALL_OFDM, "split": {"rho": 0.5},
                               "scenario": {"trials": 5, "frame_symbols": 2}})
    outputs = set()
    for i, flag in enumerate((["--threads", "1"], ["--threads", "2"], [])):
        out = tmp_path / f"e2e{i}"
        assert main(["e2e", "--config", cfg, "--out", str(out), *flag]) == EXIT_OK
        outputs.add(tuple((out / name).read_bytes()
                          for name in ("technique_table.csv", "channel_metrics.csv")))
    assert len(outputs) == 1


# The splitting-ratio sweep of rate-energy: its channel, its pinned bytes,
# the inputs it rejects and the inputs that move its rows.


def _rate_energy(tmp_path: Path, name: str, cfg: dict, *flags: str) -> list[str]:
    """The lines of rate_energy.csv from one run in tmp_path / name."""
    run = tmp_path / name
    run.mkdir()
    out = run / "out"
    assert main(["rate-energy", "--config", write_cfg(run, cfg), "--out", str(out),
                 *flags]) == EXIT_OK
    return (out / "rate_energy.csv").read_text().splitlines()


def _rows(lines: list[str]) -> list[dict[str, str]]:
    return list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))


def test_rate_energy_runs_on_a_multitap_channel(tmp_path):
    # rate-energy lengthens the cyclic prefix for a frequency-selective
    # channel as e2e does
    lines = _rate_energy(tmp_path, "o", {"channel": {"kind": "rayleigh_multitap"},
                                         "rate_energy": {"rho_grid": [0.5],
                                                         "techniques": ["companding"]}},
                         "--trials", "2")
    assert lines[-1].startswith("0.5,companding,")


# the pinned sweep: companding on the multipath channel at rho 0.3 and 0.6,
# 2 trials at seed 0
_PINNED_SWEEP = {"channel": {"kind": "rayleigh_multitap"},
                 "rate_energy": {"rho_grid": [0.3, 0.6], "techniques": ["companding"]}}


def _run_pinned_sweep(tmp_path, threads):
    """rate_energy.csv's bytes on the pinned run."""
    _rate_energy(tmp_path, "o", _PINNED_SWEEP, "--trials", "2", "--seed", "0",
                 "--threads", str(threads))
    return (tmp_path / "o" / "out" / "rate_energy.csv").read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_rate_energy_csv_body_is_pinned(tmp_path, threads):
    # the bytes after the provenance line, at either worker count
    body = _run_pinned_sweep(tmp_path, threads).split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == (
        "429ed5c894334a9d3bbe16a9f134fa8f55bc5b158f43aa53db5d04ee75e6eabc")


@pytest.mark.parametrize("threads", [1, 2])
def test_rate_energy_outputs_are_pinned(tmp_path, threads):
    # the whole file, at either worker count; its provenance line hashes
    # the seed, the scenario after --trials, the techniques, the channel
    # and the splitters
    data = _run_pinned_sweep(tmp_path, threads)
    assert hashlib.sha256(data).hexdigest() == (
        "a9ed89bce46610038d7cff47de3b80c333b97ad2c1ab9fd41e271ecddab3ecdc")
    h = config_hash(0, build_scenario({}, 0, 2), ("companding",),
                    ChannelSpec(kind="rayleigh_multitap"),
                    [SplitConfig(rho=rho) for rho in (0.3, 0.6)])
    assert data.startswith(f"# config_hash={h} seed=0\n".encode())


@pytest.mark.parametrize("flags,section,message", [
    (("--trials", "0"), {}, "--trials must be at least 1"),
    (("--threads", "0"), {}, "--threads must be at least 1"),
    ((), {"rho_grid": [1.5]}, "rho must lie in [0, 1]"),
    ((), {"rho_grid": [0.5, float("nan")]}, "values must be finite"),
    (("--seed", "-1"), {}, "seed must be non-negative"),
], ids=["--trials=0", "--threads=0", "rho_grid=1.5", "rho_grid=nan", "--seed=-1"])
def test_rate_energy_rejects_a_bad_input(tmp_path, capsys, flags, section, message):
    # a zero count, a splitting ratio outside [0, 1] or not finite, and a
    # negative seed: a configuration error, exit 2, and nothing written
    cfg = write_cfg(tmp_path, {"rate_energy": section})
    out = tmp_path / "out"
    assert main(["rate-energy", "--config", cfg, *flags, "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


# a short sweep, and each of its inputs moved, named by the flag or the
# config key that moves it
_SHORT_SWEEP = {"rate_energy": {"rho_grid": [0.5], "techniques": ["companding"]}}
_SHORT_FLAGS = {"--trials": "2", "--seed": "0", "--threads": "1"}
_INPUT_PROBES = [("--technique", {"rate_energy": {"techniques": ["baseline"]}}, {}),
                  ("--channel", {"channel": {"kind": "rayleigh_flat"}}, {}),
                  ("--trials", {}, {"--trials": "3"}),
                  ("--seed", {}, {"--seed": "1"}),
                  ("--rho", {"rate_energy": {"rho_grid": [0.25]}}, {}),
                  ("--threads", {}, {"--threads": "2"})]


@pytest.mark.parametrize("flag,section,flags", _INPUT_PROBES, ids=[p[0] for p in _INPUT_PROBES])
def test_every_script_flag_changes_the_rows(tmp_path, flag, section, flags):
    # each input moves a row of the CSV; --threads moves no byte
    files = [_rate_energy(tmp_path, name, cfg, *(a for item in fl.items() for a in item))
             for name, cfg, fl in (("base", _SHORT_SWEEP, _SHORT_FLAGS),
                                   ("probe", _with(_SHORT_SWEEP, section),
                                    {**_SHORT_FLAGS, **flags}))]
    if flag == "--threads":
        assert files[0] == files[1]
    else:
        assert _rows(files[0]) != _rows(files[1])


_SCIPY_PROBE = """
import json, sys
from swiptsim.cli import main
cfg, out, commands = sys.argv[1], sys.argv[2], sys.argv[3:]
codes = [main([c, "--config", cfg, "--out", f"{out}/{c}"]) for c in commands]
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def _scipy_after(tmp_path, cfg: dict, commands: tuple[str, ...]):
    """(exit codes, scipy modules loaded) after running the commands in a
    fresh interpreter."""
    path = write_cfg(tmp_path, cfg, "scipy_probe.json")
    env = {**os.environ, "PYTHONPATH": str(Path(swiptsim.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, path, str(tmp_path / "o"),
                           *commands], capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_runtime_loads_no_scipy(tmp_path):
    # scipy costs about 0.6 s and 45 MB on import: no command imports it
    small = {
        "ofdm": SMALL_OFDM,
        "scenario": {"trials": 2, "frame_symbols": 1},
        "papr": {"n_trials": 20},
        "mu_sweep": {"papr_trials": 20},
        "dpd": {"reduction_grid_db": [0.0, 1.0, 1.0]},
        "ber": {"ebn0_db": [4.0], "channels": ["awgn"]},
    }
    commands = ("papr", "dpd-design", "mu-sweep", "e2e", "ber", "rate-energy")
    codes, loaded = _scipy_after(tmp_path, small, commands)
    assert codes == [EXIT_OK] * 6
    assert loaded == []


def test_calibration_file_fits_with_scipy(tmp_path):
    # the name is from when a calibration file was spline-fit with scipy;
    # its rows are now interpolated, so a calibration file loads no scipy either
    cal = tmp_path / "cal.csv"
    cal.write_text((resources.files("swiptsim") / "data" / "rectenna_default.csv").read_text())
    cfg = {"ofdm": SMALL_OFDM, "eh": {"calibration": str(cal)}}
    codes, loaded = _scipy_after(tmp_path, cfg, ("rate-energy",))
    assert codes == [EXIT_OK]
    assert loaded == []
    # the same curve as the packaged default
    assert build_eh(cfg) == harvester.default_rectenna()


def test_dpd_design_outputs(tmp_path):
    cfg = write_cfg(tmp_path, {
        "ofdm": SMALL_OFDM,
        "dpd": {"reduction_grid_db": [0.0, 1.0, 0.5]},
    })
    out = tmp_path / "o"
    assert main(["dpd-design", "--config", cfg, "--out", str(out)]) == EXIT_OK
    design_lines = (out / "dpd_design.txt").read_text().splitlines()
    assert design_lines[0].startswith("# config_hash=")
    # the predistorter and its search, and no forward amplifier fit
    assert [ln.split("=", 1)[0] for ln in design_lines[1:] if not ln.startswith("note=")] == [
        "baseline_ibo_db", "ibo_reduction_db", "evm_baseline", "evm_with_dpd", "degenerate",
        "inverse_order", "inverse_coeffs", "inverse_domain_max", "inverse_residual_rms"]
    lines = (out / "dpd_evm.csv").read_text().splitlines()
    assert lines[1] == "ibo_reduction_db,evm,eta1,eta1_gain_pts"
    assert len(lines) == 2 + 3  # grid 0, 0.5, 1.0


def test_dpd_design_rejects_a_negative_polynomial_pa(tmp_path, capsys):
    # 0 + m - m^2 turns negative above m = 1, which the probe's peaks reach
    cfg = write_cfg(tmp_path, {"ofdm": SMALL_OFDM,
                               "pa": {"kind": "polynomial", "coeffs": [0, 1, -1]}})
    out = tmp_path / "o"
    assert main(["dpd-design", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
    assert "negative at input amplitude" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_dpd_orders_reach_the_design(tmp_path):
    cfg = write_cfg(tmp_path, {
        "ofdm": SMALL_OFDM,
        "dpd": {"inverse_order": 5, "reduction_grid_db": [0.0]},
    })
    out = tmp_path / "o"
    assert main(["dpd-design", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "dpd_design.txt").read_text().splitlines()
    assert "inverse_order=5" in lines


def _design_reduction(run_dir: Path, dpd_section: dict, seed: int) -> float:
    """dpd-design's ibo_reduction_db on SMALL_OFDM."""
    run_dir.mkdir()
    cfg = write_cfg(run_dir, {"ofdm": SMALL_OFDM, "dpd": {"reduction_grid_db": [0.0],
                                                          **dpd_section}})
    assert main(["dpd-design", "--config", cfg, "--seed", str(seed),
                 "--out", str(run_dir)]) == EXIT_OK
    lines = (run_dir / "dpd_design.txt").read_text().splitlines()
    return float(dict(ln.split("=", 1) for ln in lines[1:])["ibo_reduction_db"])


def test_e2e_designs_like_dpd_design_at_seed_zero(tmp_path):
    # e2e designs on the seed-0 probe at the default order, whatever
    # --seed and the dpd section say
    seed0 = _design_reduction(tmp_path / "seed0", {}, 0)
    # the seed and the order do move dpd-design's own design
    assert _design_reduction(tmp_path / "seed1", {}, 1) != seed0
    orders = {"inverse_order": 5}
    assert _design_reduction(tmp_path / "orders", orders, 0) != seed0
    cfg = {"ofdm": SMALL_OFDM, "scenario": {"trials": 1, "frame_symbols": 1}}
    paths = [write_cfg(tmp_path, {**cfg, "dpd": orders}, "e2e-dpd.json"),
             write_cfg(tmp_path, cfg, "e2e.json")]
    for seed in (1, 2):
        tables = []
        for i, path in enumerate(paths):
            out = tmp_path / f"e2e-{seed}-{i}"
            assert main(["e2e", "--config", path, "--seed", str(seed),
                         "--out", str(out)]) == EXIT_OK
            tables.append((out / "technique_table.csv").read_text())
        # the dpd section moves no byte of the table, provenance line included
        assert tables[0] == tables[1]
        rows = {r["technique"]: r for r in _rows(tables[0].splitlines())}
        assert float(rows["dpd"]["ibo_reduction_db"]) == float(format(seed0, ".10g"))


def test_e2e_designs_in_at_most_20_chain_evaluations(tmp_path, monkeypatch, design_calls):
    # one EVM per chain evaluation of the DPD design's back-off search, the
    # baseline included, in the run's one design
    calls = 0
    real = dpd.evm

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(dpd, "evm", counting)
    cfg = write_cfg(tmp_path, {"ofdm": SMALL_OFDM,
                               "scenario": {"trials": 1, "frame_symbols": 1}})
    assert main(["e2e", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(design_calls) == 1
    assert 0 < calls <= 20, calls


@pytest.mark.parametrize("command,techniques,made", [
    ("e2e", None, 1),
    ("ber", ["baseline", "dpd", "dpd_companding"], 1),
    ("ber", ["linear", "companding"], 0),
    ("rate-energy", ["dpd", "companding", "dpd_companding"], 1),
    ("rate-energy", ["baseline", "companding"], 0),
])
def test_a_pass_designs_its_predistorter_once(tmp_path, design_calls, command, techniques,
                                              made):
    # the pass checks its reductions and designs its predistorter in one
    # place: one design when some technique uses DPD, and none otherwise
    cfg = {"ofdm": SMALL_OFDM, "scenario": {"trials": 1, "frame_symbols": 1}}
    if techniques is not None:
        cfg[command.replace("-", "_")] = {"techniques": techniques}
    assert main([command, "--config", write_cfg(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(design_calls) == made


@pytest.mark.parametrize("command,techniques", [
    ("e2e", None),
    ("ber", ["dpd", "companding"]),
    ("rate-energy", ["dpd_companding"]),
])
def test_a_reduction_past_ibo_db_designs_nothing(tmp_path, capsys, design_calls, command,
                                                 techniques):
    # companding's reduction (about 1.63 dB) alone runs past the back-off,
    # and a DPD reduction is never negative, so the pass fails before it
    # designs its predistorter
    cfg = {"ofdm": SMALL_OFDM, "pa": {"ibo_db": 1.0},
           "scenario": {"trials": 2, "frame_symbols": 1}}
    if techniques is not None:
        cfg[command.replace("-", "_")] = {"techniques": techniques}
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == (
        EXIT_CONFIG)
    assert "reduction of 1.6322 dB runs past ibo_db = 1 dB" in capsys.readouterr().err
    assert design_calls == []
    assert not any(out.iterdir())


def test_grid_triples_and_literal_lists():
    # three values whose third is below the second are [min, max, step];
    # any other list is taken as it is
    def grid(spec):
        return _grid({"g": spec}, "g", None, "s")

    np.testing.assert_array_equal(grid([0, 1, 0.5]), [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(grid([2, 2, 1]), [2.0])
    np.testing.assert_array_equal(grid([1, 2, 3]), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(grid([4]), [4.0])
    np.testing.assert_array_equal(_grid({}, "g", (-1.0, 14.0, 0.05), "s"),
                                  np.arange(-1.0, 14.0 + 0.025, 0.05))


def test_mu_sweep_outputs(tmp_path):
    cfg = write_cfg(tmp_path, {
        "ofdm": SMALL_OFDM,
        "mu_sweep": {"mu_grid": [1.0, 1.25], "papr_trials": 200},
    })
    out = tmp_path / "o"
    assert main(["mu-sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "mu_sweep.csv").read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert len(comments) == 3
    assert sum("mu_star=" in ln for ln in comments) == 1
    # the closed-form columns and mu* are said to be such, the PAPR
    # reduction to be measured
    assert comments[2].startswith("# snr_db: ")
    for column in ("papr_reduction_db: ", "k_l_c: ", "sigma_d_c2: ", "mu*: "):
        assert column in comments[2]
    assert "soft-limiter closed form" in comments[2]
    assert "mu,snr_db,papr_reduction_db,k_l_c,sigma_d_c2" in lines
    assert sum(1 for ln in lines if not ln.startswith("#")) == 1 + 2


def test_e2e_outputs(tmp_path):
    cfg = write_cfg(tmp_path, {
        "ofdm": SMALL_OFDM,
        "split": {"rho": 0.5},
        "scenario": {"trials": 2, "frame_symbols": 2},
    })
    out = tmp_path / "o"
    assert main(["e2e", "--config", cfg, "--out", str(out)]) == EXIT_OK
    table = (out / "technique_table.csv").read_text().splitlines()
    assert table[1].startswith("# channel=awgn; eta1: ")
    assert "ber: Monte Carlo BER of the information branch" in table[1]
    assert "gets 1-rho of the received power" in table[1]
    assert table[2].startswith("technique,eta1,eta3,")
    assert len(table) == 3 + 4
    chan = (out / "channel_metrics.csv").read_text().splitlines()
    assert len(chan) == 2 + 4 * 4  # four channels x four techniques

    table_rows = _rows(table)
    chan_rows = list(csv.DictReader(chan[1:]))
    for tech in ("baseline", "dpd", "companding", "dpd_companding"):
        # eta1 is a transmit-side number: one DPD design serves every channel
        eta1 = {r["eta1"] for r in chan_rows if r["technique"] == tech}
        assert len(eta1) == 1, tech
    awgn = [r for r in chan_rows if r["channel"] == "awgn"]
    assert [r["technique"] for r in awgn] == [r["technique"] for r in table_rows]
    for a, t in zip(awgn, table_rows):
        for key in ("eta1", "eta3", "eta1_eta3", "ber"):
            assert a[key] == t[key], (a["technique"], key)


def test_e2e_runs_on_a_configured_multitap_channel(tmp_path, monkeypatch):
    # the technique table lengthens the cyclic prefix as the channel rows
    # do, and the table and every channel's rows come from one pass
    passes = []
    real = cli.run_techniques

    def counting(s, techniques, channels, splits, *args):
        passes.append([spec.kind for spec in channels])
        return real(s, techniques, channels, splits, *args)

    monkeypatch.setattr(cli, "run_techniques", counting)
    cfg = write_cfg(tmp_path, {"ofdm": SMALL_OFDM, "channel": {"kind": "rayleigh_multitap"},
                               "scenario": {"trials": 2, "frame_symbols": 2}})
    out = tmp_path / "o"
    assert main(["e2e", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert passes == [list(CHANNEL_KINDS)]
    table = _rows((out / "technique_table.csv").read_text().splitlines())
    chan = list(csv.DictReader((out / "channel_metrics.csv").read_text().splitlines()[1:]))
    multitap = [r for r in chan if r["channel"] == "rayleigh_multitap"]
    assert [r["technique"] for r in multitap] == [r["technique"] for r in table]
    for m, t in zip(multitap, table):
        for key in ("eta1", "eta3", "eta1_eta3", "ber"):
            assert m[key] == t[key], (m["technique"], key)


def test_ber_outputs_and_validation(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "ofdm": SMALL_OFDM,
        "scenario": {"trials": 2, "frame_symbols": 2},
        "ber": {"ebn0_db": [4.0], "techniques": ["baseline"],
                "channels": ["awgn"]},
    })
    out = tmp_path / "o"
    assert main(["ber", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "ber_curves.csv").read_text().splitlines()
    assert lines[1] == "channel,technique,ebn0_db,ber,ber_ci,n_bits"
    assert len(lines) == 3

    bad = write_cfg(tmp_path, {"ber": {"techniques": ["mimo"]}}, "bad_tech.json")
    assert main(["ber", "--config", bad, "--out", str(out)]) == EXIT_CONFIG
    assert "unknown technique" in capsys.readouterr().err
    bad_ch = write_cfg(tmp_path, {"ber": {"channels": ["underwater"]}}, "bad_ch.json")
    assert main(["ber", "--config", bad_ch, "--out", str(out)]) == EXIT_CONFIG


def test_ber_designs_one_predistorter(tmp_path, design_calls):
    # every Eb/N0 point of every channel shares one operating point, so one
    # design, made before the trial blocks run, serves them all at any
    # thread count, though the multipath channel lengthens the cyclic prefix
    cfg = write_cfg(tmp_path, {
        "ofdm": SMALL_OFDM,
        "scenario": {"trials": 2, "frame_symbols": 2},
        "ber": {"ebn0_db": [0.0, 4.0, 8.0], "techniques": ["baseline", "dpd"],
                "channels": ["awgn", "rayleigh_multitap"]},
    })
    outputs = set()
    for threads in (1, 2, 3):
        design_calls.clear()
        out = tmp_path / f"t{threads}"
        assert main(["ber", "--config", cfg, "--out", str(out),
                     "--threads", str(threads)]) == EXIT_OK
        assert len(design_calls) == 1, threads
        outputs.add((out / "ber_curves.csv").read_bytes())
    assert len(outputs) == 1


def test_rate_energy_outputs_and_validation(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "ofdm": SMALL_OFDM,
        "scenario": {"trials": 2, "frame_symbols": 2},
        "rate_energy": {"rho_grid": [0.0, 0.5, 0.9], "techniques": list(experiments.TECHNIQUES)},
    })
    out = tmp_path / "o"
    assert main(["rate-energy", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "rate_energy.csv").read_text().splitlines()
    # what each column measures, and which noise terms enter
    assert lines[1].startswith("# channel=awgn; rate_bps_hz: Monte Carlo")
    assert "sigma_p2 is not harvested" in lines[1]
    assert lines[2] == "rho,technique,rate_bps_hz,h_p_norm"
    assert len(lines) == 3 + 3 * 5

    bad = write_cfg(tmp_path, {"rate_energy": {"techniques": ["mimo"]}}, "bad_re.json")
    assert main(["rate-energy", "--config", bad, "--out", str(out)]) == EXIT_CONFIG
    assert "unknown technique 'mimo'" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    {},
    {"pa": {"kind": "polynomial", "coeffs": [0.0, 1.0, 0.0, -0.05]}},
], ids=["sspa", "polynomial"])
def test_rate_energy_matches_e2e_rows(tmp_path, extra):
    # both commands measure rate and H_P/E in one Monte Carlo pass, and a
    # channel's or a splitter's result does not depend on what else shares
    # the pass: a rate-energy row equals the technique-table row of the same
    # technique at the same rho
    cfg = write_cfg(tmp_path, {
        "ofdm": SMALL_OFDM,
        "scenario": {"trials": 2, "frame_symbols": 1},
        "rate_energy": {"rho_grid": [SplitConfig().rho]},
        **extra,
    })
    out = tmp_path / "o"
    assert main(["e2e", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert main(["rate-energy", "--config", cfg, "--out", str(out)]) == EXIT_OK
    table = {r["technique"]: (r["rate_bps_hz"], r["h_p_norm"])
             for r in _rows((out / "technique_table.csv").read_text().splitlines())}
    curves = _rows((out / "rate_energy.csv").read_text().splitlines())
    assert [r["technique"] for r in curves] == ["baseline", "companding"]
    for r in curves:
        assert (r["rate_bps_hz"], r["h_p_norm"]) == table[r["technique"]], r["technique"]


def test_rate_energy_follows_the_amplifier(tmp_path):
    # the rows are measured on the simulated amplifier, so its saturation
    # level moves every one of them; rho = 0 harvests nothing
    base = {"ofdm": SMALL_OFDM, "scenario": {"trials": 2, "frame_symbols": 2},
            "rate_energy": {"rho_grid": [0.0, 0.5]}}
    rows = [_rows(_rate_energy(tmp_path, f"a_sat{a_sat}", _with(base, {"pa": {"a_sat": a_sat}})))
            for a_sat in (1.0, 2.0)]
    for a, b in zip(*rows):
        assert a["rate_bps_hz"] != b["rate_bps_hz"], a
        if a["rho"] == "0":
            assert a["h_p_norm"] == b["h_p_norm"] == "0"
        else:
            assert a["h_p_norm"] != b["h_p_norm"], a


def test_rate_energy_degenerate_sinr(tmp_path):
    # rho = 1 without processing noise leaves an all-zero information
    # branch, whose rate is 0, not NaN; a noise-free, distortion-free link
    # has an infinite rate; both warn
    base = {"ofdm": SMALL_OFDM, "scenario": {"trials": 2, "frame_symbols": 2}}
    with pytest.warns(RuntimeWarning, match="diverges"):
        lines = _rate_energy(tmp_path, "zero", _with(base, {"split": {"sigma_p2": 0.0},
                                                            "rate_energy": {"rho_grid": [1.0]}}),
                             "--threads", "1")
    assert [(r["technique"], r["rate_bps_hz"]) for r in _rows(lines)] == [
        ("baseline", "0"), ("companding", "0")]
    clean = {"split": {"sigma_a2": 0.0, "sigma_p2": 0.0},
             "rate_energy": {"rho_grid": [0.0], "techniques": ["linear"]}}
    with pytest.warns(RuntimeWarning, match="diverges"):
        lines = _rate_energy(tmp_path, "clean", _with(base, clean), "--threads", "1")
    assert _rows(lines) == [{"rho": "0", "technique": "linear", "rate_bps_hz": "inf",
                             "h_p_norm": "0"}]


def test_seed_from_config_file(tmp_path):
    cfg = write_cfg(tmp_path, {
        "ofdm": SMALL_OFDM, "seed": 5,
        "papr": {"mu_grid": [0.0], "thresholds_db": [4.0, 10.0, 2.0]},
    })
    out = tmp_path / "o"
    assert main(["papr", "--config", cfg, "--out", str(out), "--trials", "50"]) == EXIT_OK
    first = (out / "papr_ccdf.csv").read_text().splitlines()[0]
    assert first.endswith("seed=5")
    # --seed beats the file
    assert main(["papr", "--config", cfg, "--out", str(out), "--trials", "50",
                 "--seed", "9"]) == EXIT_OK
    first = (out / "papr_ccdf.csv").read_text().splitlines()[0]
    assert first.endswith("seed=9")


# a tiny numerology and short runs, so that every subcommand takes well
# under a second
KNOB_BASE = {
    "ofdm": {"n_subcarriers": 16, "oversampling_factor": 2},
    "scenario": {"trials": 2, "frame_symbols": 2},
    "papr": {"mu_grid": [0.0, 1.25], "n_trials": 50, "thresholds_db": [2.0, 10.0, 2.0]},
    "dpd": {"reduction_grid_db": [0.0, 1.0]},
    "mu_sweep": {"mu_grid": [0.5, 1.0, 2.0], "papr_trials": 50},
    "ber": {"ebn0_db": [4.0], "techniques": ["baseline"], "channels": ["awgn"]},
    "rate_energy": {"rho_grid": [0.5]},
}

# (subcommand, dotted key, value, base sections that the key needs)
KNOB_PROBES = [
    ("papr", "ofdm.n_subcarriers", 32, {}),
    ("papr", "ofdm.oversampling_factor", 4, {}),
    ("ber", "ofdm.cp_length", 4, {}),
    ("dpd-design", "pa.kind", "soft_limiter", {}),
    ("dpd-design", "pa.a_sat", 2.0, {}),
    ("dpd-design", "pa.smoothness", 3.0, {}),
    ("dpd-design", "pa.coeffs", [0.0, 1.0, 0.0, -0.1],
     {"pa": {"kind": "polynomial", "coeffs": [0.0, 1.0, 0.0, -0.05]}}),
    ("rate-energy", "pa.ibo_db", 6.0, {}),
    ("e2e", "split.rho", 0.5, {}),
    ("rate-energy", "split.sigma_a2", 1e-2, {}),
    ("rate-energy", "split.sigma_p2", 1e-2, {}),
    ("e2e", "channel.kind", "rayleigh_flat", {}),
    ("ber", "channel.rice_k_db", 0.0, {"ber": {"channels": ["rice_flat"]}}),
    ("ber", "channel.pdp_db", [0.0, -3.0], {"ber": {"channels": ["rayleigh_multitap"]}}),
    ("rate-energy", "scenario.mu", 4.0, {"rate_energy": {"techniques": ["companding"]}}),
    ("ber", "scenario.trials", 3, {}),
    ("ber", "scenario.frame_symbols", 3, {}),
    ("e2e", "eh.kind", "linear", {}),
    ("e2e", "eh.eta3_linear", 0.3, {"eh": {"kind": "linear"}}),
    # CSV text, written to a file whose path is the value
    ("e2e", "eh.calibration", "p_in_dbm,eta3\n-30.0,0.1\n20.0,0.3\n", {}),
    ("papr", "papr.mu_grid", [0.0, 4.0], {}),
    ("papr", "papr.n_trials", 60, {}),
    ("papr", "papr.thresholds_db", [2.0, 10.0, 4.0], {}),
    ("dpd-design", "dpd.inverse_order", 5, {}),
    ("dpd-design", "dpd.reduction_grid_db", [0.0, 2.0], {}),
    ("mu-sweep", "mu_sweep.mu_grid", [0.5, 1.0, 3.0], {}),
    ("mu-sweep", "mu_sweep.papr_trials", 60, {}),
    ("ber", "ber.ebn0_db", [8.0], {}),
    ("ber", "ber.techniques", ["companding"], {}),
    ("ber", "ber.channels", ["rayleigh_flat"], {}),
    ("rate-energy", "rate_energy.rho_grid", [0.25], {}),
    ("rate-energy", "rate_energy.techniques", ["linear"], {}),
    ("papr", "seed", 1, {}),
    ("papr", "svg", True, {}),
]


def _with(cfg: dict, sections: dict) -> dict:
    """cfg with each section of sections merged in (top-level values replaced)."""
    out = copy.deepcopy(cfg)
    for key, val in sections.items():
        if isinstance(val, dict):
            out.setdefault(key, {}).update(val)
        else:
            out[key] = val
    return out


def _set(cfg: dict, key: str, value) -> dict:
    """cfg with the dotted key set to value."""
    section, _, sub = key.rpartition(".")
    return _with(cfg, {section: {sub: value}} if section else {key: value})


def _outputs(run_dir: Path, command: str, cfg: dict) -> dict[str, list[str]]:
    """The lines of every file the subcommand writes."""
    run_dir.mkdir()
    out = run_dir / "out"
    assert main([command, "--config", write_cfg(run_dir, cfg), "--out", str(out)]) == EXIT_OK
    return {p.name: p.read_text().splitlines() for p in sorted(out.iterdir())}


def _provenance(outputs: dict[str, list[str]]) -> tuple[set[str], dict[str, list[str]]]:
    """The config_hash lines of the outputs, and the outputs without them."""
    hashed = {ln for lines in outputs.values() for ln in lines if ln.startswith("# config_hash=")}
    return hashed, {name: [ln for ln in lines if not ln.startswith("# config_hash=")]
                    for name, lines in outputs.items()}


def test_knob_probes_cover_the_schema():
    leaves = set()
    for key, allowed in _SCHEMA.items():
        leaves |= {f"{key}.{sub}" for sub in allowed} if isinstance(allowed, set) else {key}
    assert sorted(probe[1] for probe in KNOB_PROBES) == sorted(leaves)


def _docstring_schema(doc: str) -> dict[str, str]:
    """Each entry of the schema block of doc, its continuation lines joined."""
    block = doc.split("Schema (defaults in parentheses):\n\n", 1)[1].split("\n\n", 1)[0]
    entries: dict[str, str] = {}
    for line in block.splitlines():
        head = re.match(r"  (\w+):\s+(.*)", line)
        if head:
            name = head.group(1)
            entries[name] = head.group(2)
        else:
            entries[name] += " " + line.strip()
    return entries


def test_cli_docstring_schema_names_every_key():
    # the schema block of the cli docstring and _SCHEMA are kept by hand:
    # each section of the block names exactly the section's keys, each
    # followed by its default or rule in parentheses
    entries = _docstring_schema(cli.__doc__)
    assert list(entries) == list(_SCHEMA)
    for name, allowed in _SCHEMA.items():
        if not isinstance(allowed, set):
            continue
        # empty every parenthesis, innermost first, so that only the
        # top-level text is left
        text, last = entries[name], None
        while text != last:
            last, text = text, re.sub(r"\([^()]*\)", "()", text)
        assert sorted(re.findall(r"(?:^|, )(\w+) \(\)", text)) == sorted(allowed), name


def _docstring_number(text: str) -> float:
    """A schema default: a number, or a difference of two such as 1 - 1e-6."""
    terms = text.split(" - ")
    return float(terms[0]) - sum(float(t) for t in terms[1:])


def test_cli_docstring_schema_states_the_defaults():
    # each numeric default that the schema block states in parentheses, up
    # to its first comma or semicolon, is the one the builders resolve from
    # an empty config (eta3_linear's from a linear harvester)
    pa, ibo_db = build_pa({})
    scenario = build_scenario({}, 0, None)
    resolved = {
        "ofdm": vars(build_ofdm({})),
        "pa": {**vars(pa), "ibo_db": ibo_db},
        "split": vars(build_split({})),
        "channel": vars(build_channel({})),
        "scenario": {name: getattr(scenario, name) for name in ("mu", "trials", "frame_symbols")},
        "eh": {"eta3_linear": build_eh({"eh": {"kind": "linear"}})},
    }
    entries = _docstring_schema(cli.__doc__)
    stated = {(name, key): _docstring_number(value)
              for name in resolved
              for key, value in re.findall(r"(\w+) \((\d[^,;)]*)", entries[name])}
    assert sorted(stated) == sorted([
        ("ofdm", "n_subcarriers"), ("ofdm", "oversampling_factor"), ("ofdm", "cp_length"),
        ("pa", "a_sat"), ("pa", "smoothness"), ("pa", "ibo_db"),
        ("split", "rho"), ("split", "sigma_a2"), ("split", "sigma_p2"),
        ("channel", "rice_k_db"),
        ("scenario", "mu"), ("scenario", "trials"), ("scenario", "frame_symbols"),
        ("eh", "eta3_linear"),
    ])
    for (name, key), value in stated.items():
        assert resolved[name][key] == value, f"{name}.{key}"


@pytest.mark.parametrize("command,key,value,needs", KNOB_PROBES,
                         ids=[probe[1] for probe in KNOB_PROBES])
def test_every_config_key_changes_an_output(tmp_path, command, key, value, needs):
    if key == "eh.calibration":
        cal = tmp_path / "cal.csv"
        cal.write_text(value)
        value = str(cal)
    base = _with(KNOB_BASE, needs)
    probe_hash, probe_body = _provenance(_outputs(tmp_path / "probe", command,
                                                  _set(base, key, value)))
    base_hash, base_body = _provenance(_outputs(tmp_path / "base", command, base))
    assert probe_body != base_body
    # the provenance line moves with every input; svg adds a chart, which
    # is no input to any CSV
    assert (probe_hash == base_hash) == (key == "svg")


# (subcommand, dotted key, value): a key that the subcommand does not read;
# the eh.calibration value names a file that does not exist
UNREAD_PROBES = [
    ("papr", "pa.ibo_db", 6.0),
    ("papr", "split.rho", 0.5),
    ("papr", "scenario.trials", 3),
    ("papr", "eh.kind", "linear"),
    ("papr", "dpd.inverse_order", 5),
    ("dpd-design", "ofdm.cp_length", 4),
    ("dpd-design", "split.rho", 0.5),
    ("dpd-design", "scenario.mu", 4.0),
    ("dpd-design", "channel.kind", "rayleigh_flat"),
    ("mu-sweep", "pa.smoothness", 3.0),
    ("mu-sweep", "split.rho", 0.5),
    ("mu-sweep", "split.sigma_p2", 1e-2),
    ("mu-sweep", "scenario.trials", 3),
    ("e2e", "dpd.inverse_order", 5),
    ("e2e", "ber.ebn0_db", [8.0]),
    ("e2e", "papr.n_trials", 60),
    ("ber", "dpd.inverse_order", 5),
    ("ber", "split.rho", 0.5),
    ("ber", "eh.kind", "linear"),
    ("ber", "eh.calibration", "missing.csv"),
    ("rate-energy", "dpd.inverse_order", 5),
    ("rate-energy", "split.rho", 0.5),
]


# (subcommand, dotted key, value): a key that the subcommand replaces, at a
# value that the key's own check would reject
REPLACED_PROBES = [
    ("rate-energy", "split.rho", 2),
    ("dpd-design", "ofdm.cp_length", -1),
    ("ber", "channel.kind", "tin_can"),
]


# a value of every schema key that the key's reader rejects
MALFORMED = {
    "ofdm": {"n_subcarriers": 0, "oversampling_factor": 0, "cp_length": -1},
    "pa": {"kind": "valve", "a_sat": -1.0, "smoothness": -1.0, "coeffs": [],
           "ibo_db": -1.0},
    "split": {"rho": 2.0, "sigma_a2": -1.0, "sigma_p2": -1.0},
    "channel": {"kind": "tin_can", "rice_k_db": "x", "pdp_db": [-3.0]},
    "scenario": {"mu": -1.0, "trials": 0, "frame_symbols": 0},
    "eh": {"kind": "solar", "eta3_linear": 2.0, "calibration": 7},
    "papr": {"mu_grid": [], "n_trials": 0, "thresholds_db": []},
    "dpd": {"inverse_order": 0, "reduction_grid_db": []},
    "mu_sweep": {"mu_grid": [-1.0], "papr_trials": 0},
    "ber": {"ebn0_db": [], "techniques": ["mimo"], "channels": []},
    "rate_energy": {"rho_grid": [2.0], "techniques": []},
}

# the sections, or single keys, that each subcommand reads
READS = {
    "papr": ("ofdm", "papr"),
    "dpd-design": ("ofdm.n_subcarriers", "ofdm.oversampling_factor", "pa", "dpd"),
    "mu-sweep": ("ofdm", "pa.ibo_db", "split.sigma_a2", "mu_sweep"),
    "e2e": ("ofdm", "pa", "split", "channel", "scenario", "eh"),
    "ber": ("ofdm", "pa", "channel.rice_k_db", "channel.pdp_db", "scenario", "ber"),
    "rate-energy": ("ofdm", "pa", "split.sigma_a2", "split.sigma_p2", "channel",
                    "scenario", "eh", "rate_energy"),
}


def _reads(command: str, section: str, key: str) -> bool:
    return section in READS[command] or f"{section}.{key}" in READS[command]


def _every_unread_key_malformed(command: str) -> dict:
    """KNOB_BASE with every key that the subcommand does not read malformed."""
    return _with(KNOB_BASE, {section: {key: bad for key, bad in keys.items()
                                       if not _reads(command, section, key)}
                             for section, keys in MALFORMED.items()})


def test_malformed_values_cover_the_schema():
    assert {s: set(keys) for s, keys in MALFORMED.items()} == {
        s: keys for s, keys in _SCHEMA.items() if isinstance(keys, set)}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_read_key_is_checked(tmp_path, command):
    # the complement of test_unread_key_moves_no_output_byte: each key that
    # the subcommand reads fails it, alone, at its malformed value
    read = [(section, key) for section, keys in MALFORMED.items() for key in keys
            if _reads(command, section, key)]
    assert read
    for section, key in read:
        cfg = write_cfg(tmp_path, _set(KNOB_BASE, f"{section}.{key}",
                                       MALFORMED[section][key]))
        out = tmp_path / f"{section}.{key}"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG, key
        assert not any(out.iterdir()), key


@pytest.mark.parametrize(
    "command,key,value",
    UNREAD_PROBES + REPLACED_PROBES + [(command, None, None) for command in cli._COMMANDS],
    ids=[f"{command}-{key}" for command, key, _ in UNREAD_PROBES]
    + [f"{command}-{key}={value}" for command, key, value in REPLACED_PROBES]
    + [f"{command}-every-unread-key" for command in cli._COMMANDS])
def test_unread_key_moves_no_output_byte(tmp_path, command, key, value):
    # the provenance hashes what the command runs on, so a key it does not
    # read leaves every file byte-identical, config_hash line included; a
    # key it replaces or does not read is not checked either, so the
    # command exits 0 (key None: every unread key at once, malformed)
    if key == "eh.calibration":
        value = str(tmp_path / value)
    cfg = _every_unread_key_malformed(command) if key is None else _set(KNOB_BASE, key, value)
    probe = _outputs(tmp_path / "probe", command, cfg)
    assert probe == _outputs(tmp_path / "base", command, KNOB_BASE)


@pytest.mark.parametrize("command,key", [
    ("papr", "papr.n_trials"),
    ("mu-sweep", "mu_sweep.papr_trials"),
    ("e2e", "scenario.trials"),
    ("ber", "scenario.trials"),
    ("rate-energy", "scenario.trials"),
])
def test_trials_replaces_a_count_unread(tmp_path, command, key):
    # --trials replaces the configured Monte Carlo count, which is then not
    # read: a malformed count exits 0 and moves no byte against a config
    # without it
    section, _, sub = key.partition(".")
    clean = copy.deepcopy(KNOB_BASE)
    del clean[section][sub]
    files = []
    for name, cfg in (("clean", clean), ("malformed", _set(clean, key, MALFORMED[section][sub]))):
        out = tmp_path / name
        assert main([command, "--config", write_cfg(tmp_path, cfg, f"{name}.json"),
                     "--out", str(out), "--trials", "3"]) == EXIT_OK
        files.append(_contents(out))
    assert files[0] == files[1]


# the files each subcommand writes with svg on
FILES = {
    "papr": ("papr_ccdf.csv", "papr_ccdf.svg"),
    "dpd-design": ("dpd_design.txt", "dpd_evm.csv", "dpd_evm.svg"),
    "mu-sweep": ("mu_sweep.csv", "mu_sweep.svg"),
    "e2e": ("channel_metrics.csv", "technique_table.csv"),
    "ber": ("ber_curves.csv", "ber_curves.svg"),
    "rate-energy": ("rate_energy.csv", "rate_energy.svg"),
}


def _contents(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_run_leaves_only_its_files(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, _with(KNOB_BASE, {"svg": True}))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
    # no staging directory is left, and one line names every file placed
    assert sorted(_contents(out)) == sorted(FILES[command])
    wrote = ", ".join(str(out / name) for name in FILES[command])
    assert capsys.readouterr().out.splitlines()[-1] == f"{command}: wrote {wrote}"


@pytest.mark.parametrize("previous", (False, True), ids=("empty", "previous-run"))
@pytest.mark.parametrize("command,writer,fails_at", [("papr", "_svg_chart", 1),
                                                    ("e2e", "write_csv", 2)])
def test_a_failed_run_leaves_out_as_it_was(tmp_path, monkeypatch, capsys, command,
                                           writer, fails_at, previous):
    # the writer fails once the command has written its first file: out
    # then holds what it held before, byte for byte, and nothing else
    cfg = write_cfg(tmp_path, _with(KNOB_BASE, {"svg": True}))
    out = tmp_path / "out"
    out.mkdir()
    if previous:
        assert main([command, "--config", cfg, "--out", str(out), "--seed", "1"]) == EXIT_OK
    before = _contents(out)
    calls = []
    real = getattr(cli, writer)

    def failing(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == fails_at:
            raise OSError("no space left on device")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, writer, failing)
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
    assert len(calls) == fails_at
    assert _contents(out) == before
    assert "wrote" not in capsys.readouterr().out


def test_a_blocked_file_name_places_no_file(tmp_path, capsys):
    # a directory in out that takes one of the command's file names stops
    # the run before any file is moved: no partial set is left
    cfg = write_cfg(tmp_path, KNOB_BASE)
    out = tmp_path / "out"
    (out / "dpd_evm.csv").mkdir(parents=True)
    assert main(["dpd-design", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
    assert [p.name for p in out.iterdir()] == ["dpd_evm.csv"]
    assert not any((out / "dpd_evm.csv").iterdir())
    assert "dpd_evm.csv is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("command,name,summary", [
    ("dpd-design", "dpd_evm.csv", "dpd-design: reduction "),
    ("mu-sweep", "mu_sweep.csv", "mu-sweep: mu* = "),
])
def test_a_summary_follows_its_files(tmp_path, capsys, command, name, summary):
    # a command's summary line is printed once its files are in place, just
    # before the line naming them: a run stopped by a blocked name prints none
    cfg = write_cfg(tmp_path, KNOB_BASE)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
    assert capsys.readouterr().out == ""
    (out / name).rmdir()
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith(summary)
    assert lines[1].startswith(f"{command}: wrote ")


def test_hash_covers_the_package_version_and_the_default_curve(tmp_path, monkeypatch):
    def hashes(name, commands=tuple(cli._COMMANDS)):
        return {c: _provenance(_outputs(tmp_path / f"{name}-{c}", c, KNOB_BASE))[0]
                for c in commands}

    base = hashes("base")
    monkeypatch.setattr(swiptsim, "__version__", "0.0.0+probe")
    moved = hashes("version")
    assert [c for c in cli._COMMANDS if moved[c] == base[c]] == []
    monkeypatch.undo()
    # the packaged curve's rows enter through the scenario's harvester
    curve = harvester.default_rectenna()
    lower = replace(curve, efficiency=tuple(0.9 * e for e in curve.efficiency))
    monkeypatch.setattr(harvester, "default_rectenna", lambda: lower)
    assert hashes("curve", ("e2e",))["e2e"] != base["e2e"]


def test_provenance_is_the_same_in_every_interpreter(tmp_path):
    # a fresh interpreter with another string-hash seed writes the same
    # provenance line: nothing hashed depends on set order or hash()
    command, env = _console_command()
    cfg = write_cfg(tmp_path, KNOB_BASE)
    firsts = set()
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        proc = subprocess.run(command + ["e2e", "--config", cfg, "--out", str(out)],
                              capture_output=True, text=True, timeout=120,
                              env={**env, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == EXIT_OK, proc.stderr
        firsts.add((out / "technique_table.csv").read_text().splitlines()[0])
    assert len(firsts) == 1
    # a grid enters whole: no summarizing repr hides one interior point of
    # a long one
    grid = np.linspace(2.0, 10.0, 1201).tolist()
    moved = grid[:600] + [grid[600] + 1e-9] + grid[601:]
    firsts = [_provenance(_outputs(tmp_path / f"grid{i}", "papr",
                                   _set(KNOB_BASE, "papr.thresholds_db", g)))[0]
              for i, g in enumerate((grid, moved))]
    assert firsts[0] != firsts[1]


def _console_command() -> tuple[list[str], dict]:
    """The installed console script, or the module run by this interpreter
    with the package source on its path."""
    script = shutil.which("swiptsim")
    if script is not None:
        return [script], dict(os.environ)
    src = str(Path(swiptsim.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return [sys.executable, "-m", "swiptsim.cli"], {**os.environ, "PYTHONPATH": path}


def test_readme_quick_start_runs(tmp_path):
    # the README's Python quick start runs as printed, with the package
    # source on the path, so a public-API change cannot leave it stale
    root = Path(__file__).resolve().parents[1]
    code = (root / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_console_script(tmp_path):
    command, env = _console_command()
    cfg = write_cfg(tmp_path, {"ofdm": SMALL_OFDM,
                               "papr": {"mu_grid": [0.0],
                                        "thresholds_db": [4.0, 10.0, 2.0]}})
    proc = subprocess.run(
        command + ["papr", "--config", cfg, "--out", str(tmp_path / "o"), "--trials", "50"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "papr: wrote" in proc.stdout

    bad = write_cfg(tmp_path, {"channel": {"distance_m": 1.0}}, "bad.json")
    proc = subprocess.run(
        command + ["papr", "--config", bad, "--out", str(tmp_path / "bad")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_CONFIG
    assert "unknown key 'channel.distance_m'" in proc.stderr
