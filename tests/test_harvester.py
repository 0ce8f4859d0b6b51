from importlib import resources

import numpy as np
import pytest

from swiptsim.harvester import (
    EhModel,
    RectennaCurve,
    default_rectenna,
    eta3,
    load_calibration,
    watts_to_dbm,
)
from swiptsim.link import SplitConfig, harvested

TWO_POINT = "p_in_dbm,eta3\n-10.0,0.1\n10.0,0.3\n"


def test_watts_to_dbm():
    assert watts_to_dbm(1e-3) == pytest.approx(0.0, abs=1e-12)
    assert watts_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)
    # floor keeps log10 finite for zero power
    assert watts_to_dbm(0.0) == pytest.approx(-120.0, abs=1e-9)


def test_model_validation():
    with pytest.raises(ValueError):
        EhModel(kind="quadratic")
    with pytest.raises(ValueError):
        EhModel.linear(eta3=1.5)
    with pytest.raises(ValueError):
        EhModel(kind="curve", curve=None)
    lin = EhModel.linear(0.5)
    assert float(eta3(lin, -100.0)) == 0.5
    assert float(eta3(lin, 50.0)) == 0.5


def test_default_curve_goldens():
    curve = default_rectenna()
    assert float(curve.eta3(0.0)) == pytest.approx(0.4339823331975482, abs=1e-9)
    assert float(curve.eta3(-35.0)) == pytest.approx(0.0007479735287314906, abs=1e-9)
    assert float(curve.eta3(-40.0)) == 0.0
    assert curve.sensitivity_dbm == -35.0
    grid = np.arange(-35.0, 21.0)
    vals = curve.eta3(grid)
    assert grid[int(np.argmax(vals))] == 3.0
    assert float(vals.max()) == pytest.approx(0.4939396952058397, abs=1e-9)


def test_default_curve_flat_extrapolation_warns():
    curve = default_rectenna()
    high = float(curve.eta3(25.0))  # last calibrated point, no warning yet
    assert high == pytest.approx(0.00019084701756307888, abs=1e-9)
    with pytest.warns(RuntimeWarning, match="calibrated range"):
        assert float(curve.eta3(30.0)) == pytest.approx(high, abs=1e-15)


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
    drift = np.max(np.abs(curve.eta3(powers) - effs))
    assert drift < 1e-3


def test_default_curve_is_the_fit_of_the_packaged_csv():
    # the frozen module and the CSV are regenerated together; editing one
    # alone fails here
    csv_path = resources.files("swiptsim") / "data" / "rectenna_default.csv"
    fitted = load_calibration(csv_path)
    frozen = default_rectenna()
    assert frozen.knots == fitted.knots
    assert frozen.segments == fitted.segments
    assert frozen.sensitivity_dbm == fitted.sensitivity_dbm


def test_piecewise_kernel_matches_scipy_ppoly():
    from scipy.interpolate import PPoly

    curve = default_rectenna()
    knots = np.asarray(curve.knots)
    pp = PPoly(np.array(curve.segments).T, knots)
    rng = np.random.default_rng(0)
    x = np.concatenate([
        rng.uniform(knots[0] - 5.0, knots[-1] + 5.0, 10**6),
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        [-np.inf, np.inf, np.nan],
    ])
    # the kernel clips to the knot range, as eta3 did before calling PPoly
    inside = np.clip(x, knots[0], knots[-1])
    assert np.array_equal(curve._cubic(x), pp(inside), equal_nan=True)
    # any shape, as eta3 is called on blocks of frames
    block = x[:6000].reshape(3, 2000)
    assert np.array_equal(curve._cubic(block), pp(inside[:6000]).reshape(3, 2000))
    assert curve._cubic(1.5) == pp(1.5)


def test_piecewise_kernel_matches_ppoly_on_uneven_knots():
    # knot gaps over seven decades: the search grid is capped and takes
    # several refinement steps per point
    from scipy.interpolate import PPoly

    rng = np.random.default_rng(1)
    for _ in range(5):
        knots = np.cumsum(np.concatenate([[-40.0], 10.0 ** rng.uniform(-6, 1, 60)]))
        segments = rng.normal(size=(knots.size - 1, 4))
        curve = RectennaCurve(knots=tuple(knots), segments=tuple(map(tuple, segments)),
                              sensitivity_dbm=knots[0])
        assert curve._cubic.steps > 1
        x = np.concatenate([rng.uniform(knots[0], knots[-1], 10**5), knots,
                            np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
        inside = np.clip(x, knots[0], knots[-1])
        assert np.array_equal(curve._cubic(x), PPoly(segments.T, knots)(inside))


def test_default_curve_knot_count():
    # 17 interior fit knots plus the two boundaries
    assert len(default_rectenna().knots) == 19


def test_two_point_calibration_is_exact_line():
    curve = load_calibration(TWO_POINT)
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


def test_calibration_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        load_calibration("power,eff\n-10,0.1\n10,0.3\n")


def test_calibration_rejects_out_of_range_efficiency():
    with pytest.raises(ValueError, match="outside"):
        load_calibration("p_in_dbm,eta3\n-10,0.1\n10,1.3\n")


def test_calibration_rejects_non_ascending_power():
    with pytest.raises(ValueError, match="ascending"):
        load_calibration("p_in_dbm,eta3\n10,0.1\n-10,0.3\n")


def test_calibration_rejects_single_point():
    with pytest.raises(ValueError, match="two calibration points"):
        load_calibration("p_in_dbm,eta3\n0,0.1\n")


def test_calibration_rejects_knots_outside_range():
    text = "# knots: 50\np_in_dbm,eta3\n" + "\n".join(
        f"{p},{0.1 + 0.01 * i}" for i, p in enumerate(range(-10, 11, 2))
    )
    with pytest.raises(ValueError, match="outside the data range"):
        load_calibration(text)


def test_calibration_rejects_rising_tail():
    # efficiency that keeps rising to the edge has no interior maximum
    powers = np.linspace(-20, 20, 30)
    effs = np.linspace(0.01, 0.9, 30)
    text = "p_in_dbm,eta3\n" + "\n".join(f"{p},{e}" for p, e in zip(powers, effs))
    with pytest.raises(ValueError):
        load_calibration(text)


def test_curve_shape_validation():
    with pytest.raises(ValueError, match="segment"):
        RectennaCurve(knots=(0.0, 1.0, 2.0), segments=((0, 0, 0, 0.5),),
                      sensitivity_dbm=0.0)
    with pytest.raises(ValueError, match="ascending"):
        RectennaCurve(knots=(1.0, 1.0), segments=((0, 0, 0, 0.5),),
                      sensitivity_dbm=0.0)


def test_linear_model_harvest():
    # the whole transmit power reaches a noiseless harvester
    split = SplitConfig(rho=1.0, sigma_a2=0.0, sigma_p2=0.0)
    res = harvested(split, k_l=1.0, sigma_d2=0.0, p_rf_tx=2e-3, eh=EhModel.linear(0.25))
    assert res.h_p == pytest.approx(0.25 * 2e-3, rel=1e-12)
    assert res.h_p_norm == pytest.approx(0.25, rel=1e-12)
