import warnings
from importlib import resources, util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiptsim.channel import ChannelSpec
from swiptsim.experiments import Scenario, run_techniques
from swiptsim.harvester import (
    RectennaCurve,
    default_rectenna,
    eta3,
    load_calibration,
    parse_calibration,
    watts_to_dbm,
)
from swiptsim.link import SplitConfig
from swiptsim.ofdm import OfdmConfig
from swiptsim.pa import PaModel

TWO_POINT = "p_in_dbm,eta3\n-10.0,0.1\n10.0,0.3\n"
_BUILD_SCRIPT = Path(__file__).parents[1] / "scripts" / "build_rectenna_calibration.py"


def test_watts_to_dbm():
    assert watts_to_dbm(1e-3) == pytest.approx(0.0, abs=1e-12)
    assert watts_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)
    # floor keeps log10 finite for zero power
    assert watts_to_dbm(0.0) == pytest.approx(-120.0, abs=1e-9)


def test_model_validation():
    # a harvester is a rectenna curve or one efficiency in [0, 1]
    for bad in (1.5, -0.1, float("nan"), True, "0.5", None):
        with pytest.raises(ValueError, match="eh must be"):
            Scenario(eh=bad)
    assert Scenario(eh=0).eh == 0
    assert float(eta3(0.5, -100.0)) == 0.5
    assert float(eta3(0.5, 50.0)) == 0.5


def test_default_curve_goldens():
    # the packaged rows themselves: 0 dBm, the sensitivity and the peak row
    curve = default_rectenna()
    assert float(curve.eta3(0.0)) == 0.43401552
    assert float(curve.eta3(-35.0)) == 0.00074689
    assert float(curve.eta3(-40.0)) == 0.0
    assert curve.sensitivity_dbm == -35.0
    grid = np.arange(-35.0, 21.0)
    vals = curve.eta3(grid)
    assert grid[int(np.argmax(vals))] == 3.0
    assert float(vals.max()) == 0.49396245
    # linear in dBm between rows
    assert float(curve.eta3(2.5)) == pytest.approx((0.48871954 + 0.49396245) / 2, abs=1e-15)


def test_default_curve_flat_extrapolation_warns():
    curve = default_rectenna()
    high = float(curve.eta3(25.0))  # last calibrated point, no warning yet
    assert high == 0.00018668
    with pytest.warns(RuntimeWarning, match="calibrated range"):
        assert float(curve.eta3(30.0)) == high


def test_default_curve_reproduces_its_own_table():
    curve = default_rectenna()
    import csv

    rows = []
    text = resources.files("swiptsim").joinpath("data/rectenna_default.csv").read_text()
    for row in csv.reader(text.splitlines()):
        if not row or row[0].startswith("#") or row[0] == "p_in_dbm":
            continue
        rows.append((float(row[0]), float(row[1])))
    powers = np.array([r[0] for r in rows])
    effs = np.array([r[1] for r in rows])
    assert np.array_equal(curve.eta3(powers), effs)


def test_default_curve_is_the_build_script_table():
    # the packaged CSV is what the build script writes; editing either
    # alone fails here
    spec = util.spec_from_file_location("build_rectenna_calibration", _BUILD_SCRIPT)
    script = util.module_from_spec(spec)
    spec.loader.exec_module(script)
    csv_text = (resources.files("swiptsim") / "data" / "rectenna_default.csv").read_text()
    assert script.calibration_csv() == csv_text


# calibration tables: ascending rows, on a uniform grid or not (a curve
# rejects rows a subnormal step apart, whose slope overflows)
@st.composite
def _tables(draw):
    n = draw(st.integers(2, 40))
    gap = st.floats(1e-3, 20.0)
    if draw(st.booleans()):
        gaps = [draw(gap)] * (n - 1)
    else:
        gaps = draw(st.lists(gap, min_size=n - 1, max_size=n - 1))
    xp = draw(st.floats(-120.0, 20.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    fp = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return xp, np.array(fp)


@given(table=_tables(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_lookup_equals_np_interp(table, data):
    # the table-indexed lookup is np.interp with left=0 bit for bit: on the
    # rows and their float neighbours, inside, below and past the table,
    # at NaN and +-inf, for an array, a 0-d array and a Python float; the
    # beyond-range warning fires exactly when an input exceeds the last row
    xp, fp = table
    curve = RectennaCurve(p_in_dbm=tuple(xp), efficiency=tuple(fp))
    inside = data.draw(st.lists(st.floats(xp[0], xp[-1]), max_size=20))
    below, past = (data.draw(st.lists(st.floats(0.0, 300.0), max_size=3)) for _ in range(2))
    p = np.concatenate((xp, np.nextafter(xp, -np.inf), np.nextafter(xp, np.inf), inside,
                        xp[0] - np.array(below), xp[-1] + np.array(past),
                        [np.nan, -np.inf, np.inf]))
    p = p[data.draw(st.permutations(range(p.size)))][:data.draw(st.integers(0, p.size))]
    for arg in (p, *(np.array(v) for v in p[:3]), *(float(v) for v in p[:3])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = curve.eta3(arg)
        assert np.array_equal(got, np.interp(arg, xp, fp, left=0.0), equal_nan=True)
        assert np.shape(got) == np.shape(arg)
        beyond = bool(np.any(np.asarray(arg) > xp[-1]))
        assert [(w.category, "calibrated range" in str(w.message)) for w in caught] == (
            [(RuntimeWarning, True)] if beyond else [])


def test_two_point_calibration_is_exact_line():
    curve = parse_calibration(TWO_POINT, "calibration")
    assert float(curve.eta3(-10.0)) == pytest.approx(0.1, abs=1e-12)
    assert float(curve.eta3(0.0)) == pytest.approx(0.2, abs=1e-12)
    assert float(curve.eta3(10.0)) == pytest.approx(0.3, abs=1e-12)


def test_load_calibration_from_str_path(tmp_path):
    path = tmp_path / "cal.csv"
    path.write_text(TWO_POINT)
    curve = load_calibration(str(path))
    assert float(curve.eta3(0.0)) == pytest.approx(0.2, abs=1e-12)
    curve2 = load_calibration(path)  # pathlib object works too
    assert curve2 == curve
    assert curve == parse_calibration(TWO_POINT, "calibration")


def test_load_calibration_takes_a_path_only(tmp_path, monkeypatch):
    # CSV text is not sniffed as inline data: it names no file
    monkeypatch.chdir(tmp_path)
    with pytest.raises(OSError):
        load_calibration(TWO_POINT)
    # errors name the file and line
    (tmp_path / "bad.csv").write_text("p_in_dbm,eta3\n-10,0.1\n10,1.3\n")
    with pytest.raises(ValueError, match="bad.csv:3: efficiency 1.3 outside"):
        load_calibration("bad.csv")


def test_calibration_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        parse_calibration("power,eff\n-10,0.1\n10,0.3\n", "calibration")


def test_calibration_rejects_out_of_range_efficiency():
    with pytest.raises(ValueError, match="outside"):
        parse_calibration("p_in_dbm,eta3\n-10,0.1\n10,1.3\n", "calibration")


def test_calibration_rejects_non_ascending_power():
    with pytest.raises(ValueError, match="ascending"):
        parse_calibration("p_in_dbm,eta3\n10,0.1\n-10,0.3\n", "calibration")


def test_calibration_rejects_single_point():
    with pytest.raises(ValueError, match="two calibration points"):
        parse_calibration("p_in_dbm,eta3\n0,0.1\n", "calibration")


def test_calibration_rejects_rising_tail():
    # efficiency that keeps rising to the edge has no interior maximum
    powers = np.linspace(-20, 20, 30)
    effs = np.linspace(0.01, 0.9, 30)
    text = "p_in_dbm,eta3\n" + "\n".join(f"{p},{e}" for p, e in zip(powers, effs))
    with pytest.raises(ValueError):
        parse_calibration(text, "calibration")


@pytest.mark.parametrize("line,row", [
    (3, "nan,0.2"), (3, "inf,0.2"), (4, "nan,0.3"), (4, "inf,0.3"), (3, "0,nan"),
], ids=["interior-nan", "interior-inf", "last-nan", "last-inf", "efficiency-nan"])
def test_calibration_rejects_non_finite_values(line, row):
    # rejected with file and line; a last-row inf power would pass the
    # ascending check and read as a flat last segment
    rows = ["p_in_dbm,eta3", "-10,0.1", "0,0.2", "10,0.3"]
    rows[line - 1] = row
    with pytest.raises(ValueError, match=f"calibration:{line}: non-finite"):
        parse_calibration("\n".join(rows) + "\n", "calibration")


@pytest.mark.parametrize("effs,message", [
    ((0.1, 0.5, 0.3, 0.31), "rises again past its maximum"),
    ((0.1, 0.09, 0.5, 0.3), "not single-peaked"),
    ((0.1, 0.5, 0.3, 0.3000005), None),  # within the 1e-6 tolerance
    ((0.1, 0.0995, 0.5, 0.3), None),  # within the 1e-3 tolerance
    ((0.1, 0.2, 0.3), None),  # under four rows: taken as given
])
def test_calibration_shape_checks_apply_to_the_rows(effs, message):
    text = "p_in_dbm,eta3\n" + "\n".join(f"{p},{e}" for p, e in zip(range(-10, 10, 5), effs))
    if message is None:
        assert parse_calibration(text, "calibration").efficiency == effs
    else:
        with pytest.raises(ValueError, match=message):
            parse_calibration(text, "calibration")


def test_curve_shape_validation():
    with pytest.raises(ValueError, match="one efficiency per power"):
        RectennaCurve(p_in_dbm=(0.0, 1.0, 2.0), efficiency=(0.5, 0.5))
    with pytest.raises(ValueError, match="ascending"):
        RectennaCurve(p_in_dbm=(1.0, 1.0), efficiency=(0.5, 0.5))
    with pytest.raises(ValueError, match="ascending"):
        RectennaCurve(p_in_dbm=(1.0, float("nan")), efficiency=(0.5, 0.5))
    with pytest.raises(ValueError, match="two calibration points"):
        RectennaCurve(p_in_dbm=(1.0,), efficiency=(0.5,))
    for rows in (((0.0, np.inf), (0.5, 0.5)), ((0.0, 1.0), (0.5, np.inf)),
                 ((0.0, 5e-324, 1.0), (0.0, 1.0, 0.5))):
        with pytest.raises(ValueError, match="finite values and finite slopes"):
            RectennaCurve(*rows)
    # an efficiency is a fraction however the curve is built, not only when
    # parsed: a run never starts on one above 1 or below 0
    for effs in ((0.5, 2.0), (-0.1, 0.5)):
        with pytest.raises(ValueError, match=r"efficiency must lie in \[0, 1\]"):
            RectennaCurve((-10.0, 10.0), effs)
    assert RectennaCurve((-10.0, 10.0), (0.0, 1.0)).efficiency == (0.0, 1.0)


def test_linear_model_harvest():
    # the whole nominal transmit power reaches a linear harvester without
    # antenna noise; the processing noise is not harvested
    s = Scenario(ofdm=OfdmConfig(n_subcarriers=16, oversampling_factor=2),
                 pa=PaModel.polynomial((0.0, 1.0)), eh=0.25, trials=2)
    (((m,),),) = run_techniques(s, ("baseline",), [ChannelSpec()],
                                [SplitConfig(rho=1.0, sigma_a2=0.0, sigma_p2=1e-3)])
    assert m.eta3 == 0.25
    assert m.harvested_norm == pytest.approx(0.25, rel=1e-12)
