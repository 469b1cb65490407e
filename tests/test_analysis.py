import math

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import trithermal.analysis as analysis
from trithermal.model import (
    POINT_COLUMNS,
    BathSpec,
    ConfigError,
    DeviceConfig,
    SystemParams,
)
from trithermal.observables import CurrentReport, current_reports
from trithermal.solver import SteadyStateError
from trithermal.analysis import (
    AmplifierUndefinedError,
    BracketError,
    MeasurementRangeError,
    SweepGrid,
    amplification_factor,
    classify_function,
    critical_tc,
    currents_at,
    equilibrium_tw,
    find_current_zero,
    measure_temperature,
    phase_map,
    phase_map_csv,
    sensitivity,
    tc_from_tw,
)

from test_model import make_config


def thermometer_config(t_c, omega_b=0.6, t_h=1.0):
    return DeviceConfig(
        system=SystemParams(1.0, omega_b, 0.0),
        baths=(BathSpec("h", t_h, 0.008, 50.0),
               BathSpec("c", t_c, 0.008, 50.0),
               BathSpec("w", t_h, 0.008, 50.0)))


class TestSweepGrid:
    def test_values(self):
        grid = SweepGrid("Tw", 1.0, 3.0, 5)
        assert grid.values().tolist() == [1.0, 1.5, 2.0, 2.5, 3.0]

    def test_apply(self):
        config = make_config()
        assert SweepGrid("Tc", 0.1, 1.0, 2).apply(config, 0.4).temperature("c") == 0.4
        assert SweepGrid("g", 0.0, 0.1, 2).apply(config, 0.07).system.g == 0.07

    @pytest.mark.parametrize("args", [
        ("Tx", 1.0, 2.0, 5), ("Tw", 2.0, 1.0, 5),
        ("Tw", 1.0, 1.0, 5), ("Tw", 1.0, 2.0, 1),
    ])
    def test_invalid(self, args):
        with pytest.raises(ConfigError):
            SweepGrid(*args)


class TestCurrentZero:
    def test_valve_points(self):
        """Both valve working points of the reference refrigerator, with the
        coupled generator: conductor current dies near Tw = 3.42, sample
        current near 3.52."""
        config = make_config()
        t_h_zero = find_current_zero(config, "h", (1.0, 5.0))
        t_c_zero = find_current_zero(config, "c", (1.0, 5.0))
        assert t_h_zero == pytest.approx(3.424, abs=5e-3)
        assert t_c_zero == pytest.approx(3.524, abs=5e-3)
        assert abs(currents_at(config, t_c_zero).j_c) < 1e-12

    def test_tolerance_below_the_float_spacing_terminates(self):
        """rel_tol = 0 stops at a bracket of a few ulp instead of looping."""
        config = make_config()
        root = find_current_zero(config, "c", (1.0, 5.0), rel_tol=0.0)
        assert root == pytest.approx(
            find_current_zero(config, "c", (1.0, 5.0)), rel=1e-10)

    def test_no_sign_change(self):
        with pytest.raises(BracketError, match="no working point in bracket"):
            find_current_zero(make_config(), "c", (1.0, 2.0))

    def test_argument_validation(self):
        with pytest.raises(ConfigError):
            find_current_zero(make_config(), "x", (1.0, 2.0))
        with pytest.raises(ConfigError):
            find_current_zero(make_config(), "c", (2.0, 1.0))


@st.composite
def operating_devices(draw, g):
    """Devices in the operating range omega_b T_h < T_c < T_h, with T_h = 1,
    where the g = 0 root equilibrium_tw is at most 20."""
    omega_b = draw(st.floats(0.5, 0.9))
    t_c = omega_b + draw(st.floats(0.05, 0.95)) * (1.0 - omega_b)
    return DeviceConfig(
        system=SystemParams(1.0, omega_b, draw(g)),
        baths=tuple(BathSpec(label, t, draw(st.floats(0.004, 0.016)),
                             draw(st.floats(20.0, 100.0)))
                    for label, t in zip("hcw", (1.0, t_c, 1.0))))


@settings(max_examples=60, deadline=None)
@given(operating_devices(st.just(0.0) | st.floats(0.0, 0.05,
                                                  exclude_min=True)),
       st.sampled_from("ch"))
def test_root_contract(config, which):
    """The current changes sign within rel_tol * hi / 2 of the root; at
    g = 0 the root is the closed-form equilibrium temperature."""
    expected = equilibrium_tw(1.0, config.system.omega_b, 1.0,
                              config.temperature("c"))
    lo, hi = 0.5 * expected, 3.0 * expected
    try:
        root = find_current_zero(config, which, (lo, hi))
    except BracketError:
        if config.system.g == 0.0:
            raise
        reject()  # a coupled device's root may leave the g = 0 bracket
    radius = 1e-10 * hi / 2 * (1 + 1e-6)
    below, at, above = (getattr(currents_at(config, t_w), f"j_{which}")
                        for t_w in (root - radius, root, root + radius))
    assert at == 0.0 or math.copysign(1.0, below) != math.copysign(1.0, above)
    if config.system.g == 0.0:
        assert root == pytest.approx(expected, rel=1e-9, abs=0)


@pytest.fixture
def engine_calls(monkeypatch):
    """Sizes of the current_reports calls the analyses make."""
    calls = []

    def counting(points):
        calls.append(len(points))
        return current_reports(points)
    monkeypatch.setattr(analysis, "current_reports", counting)
    return calls


def test_root_engine_calls(engine_calls):
    find_current_zero(make_config(), "c", (1.0, 5.0))
    assert engine_calls[0] == 2  # both bracket ends in one call
    assert len(engine_calls) <= 14


def test_thermometer_engine_calls(engine_calls):
    measure_temperature(thermometer_config(0.7))
    assert len(engine_calls) <= 12


def reference_walk(config, t_w_max):
    """The thermometer ladder with one solve per rung."""
    lo = config.temperature("h")
    f_lo = currents_at(config, lo).j_h
    hi = lo
    while True:
        hi = hi * 1.1
        if hi > t_w_max:
            return None
        f_hi = currents_at(config, hi).j_h
        if f_lo == 0.0 or math.copysign(1.0, f_hi) != math.copysign(1.0,
                                                                    f_lo):
            return lo, f_lo, hi, f_hi
        lo, f_lo = hi, f_hi


@pytest.mark.parametrize("t_c, t_w_max", [
    (0.95, 1e3),    # sign change on the second rung
    (0.7655, 1e3),  # on the last rung of the first chunk
    (0.75, 1e3),    # on the first rung of the second chunk
    (0.62, 1e3),    # in the fourth chunk
    (0.62, 10.0),   # ladder ends inside a chunk before the sign change
    (0.55, 1e3),    # below the measurable range
])
def test_chunked_ladder_matches_the_scalar_walk(t_c, t_w_max):
    config = thermometer_config(t_c)
    expected = reference_walk(config, t_w_max)
    if expected is None:
        with pytest.raises(MeasurementRangeError,
                           match=f"kept its sign up to Tw = {t_w_max:g}$"):
            analysis._ladder_bracket(config, t_w_max)
    else:
        assert analysis._ladder_bracket(config, t_w_max) == expected


@pytest.mark.parametrize("failing, fails", [
    ((3.0, math.inf), False),  # rungs past the sign change at 2.8
    ((1.5, 1.7), True),        # the rung at 1.61, before it
])
def test_ladder_raises_only_the_failures_it_reaches(monkeypatch, failing,
                                                    fails):
    """Rungs in the ``failing`` T_w range fail; the reading is unaffected
    unless the walk reaches one of them."""
    column = POINT_COLUMNS.index("temperature_w")

    def with_failures(points):
        return [SteadyStateError("injected")
                if failing[0] < t_w < failing[1] else report
                for t_w, report in zip(points[:, column],
                                       current_reports(points))]
    monkeypatch.setattr(analysis, "current_reports", with_failures)
    if fails:
        with pytest.raises(SteadyStateError, match="injected"):
            measure_temperature(thermometer_config(0.7))
    else:
        reading = measure_temperature(thermometer_config(0.7))
        assert reading.tw_star == pytest.approx(2.8, rel=1e-6)


class TestThermometerAlgebra:
    def test_reference_equilibria(self):
        assert equilibrium_tw(1.0, 0.6, 1.0, 0.9) == pytest.approx(1.2)
        assert equilibrium_tw(1.0, 0.6, 1.0, 0.7) == pytest.approx(2.8)

    def test_out_of_range(self):
        with pytest.raises(MeasurementRangeError):
            equilibrium_tw(1.0, 0.6, 1.0, 0.55)

    @given(st.floats(0.61, 1.0))
    def test_round_trip(self, t_c):
        t_w = equilibrium_tw(1.0, 0.6, 1.0, t_c)
        assert tc_from_tw(t_w, 1.0, 0.6) == pytest.approx(t_c, rel=1e-12)

    def test_sensitivity_value(self):
        # xi (1 - xi) Th^2 / (xi Th - Tc)^2 at Tc = 0.9, Th = 1, xi = 0.6
        assert sensitivity(0.9, 1.0, 0.6) == pytest.approx(8.0 / 3.0)

    def test_sensitivity_matches_derivative(self):
        h = 1e-7
        slope = (equilibrium_tw(1.0, 0.6, 1.0, 0.9 + h)
                 - equilibrium_tw(1.0, 0.6, 1.0, 0.9 - h)) / (2 * h)
        assert sensitivity(0.9, 1.0, 0.6) == pytest.approx(abs(slope),
                                                           rel=1e-6)

    def test_critical_tc(self):
        value = critical_tc(10.0, 2.0, 0.6)
        assert value == pytest.approx(1.51, abs=0.01)
        # everything in (xi Th, T'c] is measured at least that precisely
        assert sensitivity(value, 2.0, 0.6) == pytest.approx(10.0, rel=1e-12)
        assert sensitivity(value - 0.05, 2.0, 0.6) > 10.0
        assert sensitivity(value + 0.05, 2.0, 0.6) < 10.0


class TestThermometerProtocol:
    def test_round_trip(self):
        reading = measure_temperature(thermometer_config(0.7))
        assert reading.tw_star == pytest.approx(2.8, rel=1e-6)
        assert reading.tc_estimate == pytest.approx(0.7, rel=1e-6)
        assert reading.in_range

    def test_sample_below_range(self):
        with pytest.raises(MeasurementRangeError, match="below measurable"):
            measure_temperature(thermometer_config(0.55))

    def test_requires_uncoupled_device(self):
        with pytest.raises(ConfigError):
            measure_temperature(make_config(g=0.02))


class TestAmplification:
    def test_uncoupled_factor_is_frequency_ratio(self):
        """At g = 0 the currents are tied, Jc = (wb/delta) Jw, so the
        response ratio equals wb/delta exactly."""
        config = make_config(g=0.0)
        assert amplification_factor(config, 5.0) == pytest.approx(4.0,
                                                                  rel=1e-6)

    def test_undefined_when_work_bath_detached(self):
        config = DeviceConfig(
            system=SystemParams(1.0, 0.8, 0.0),
            baths=(BathSpec("h", 1.0, 0.008, 50.0),
                   BathSpec("c", 0.85, 0.008, 50.0),
                   BathSpec("w", 2.0, 0.0, 50.0)))
        with pytest.raises(AmplifierUndefinedError):
            amplification_factor(config, 5.0)

    def test_onset_temperature_grows_with_coupling(self):
        """The cooling-window boundary moves monotonically to higher Tw as
        the inner coupling grows (the phase boundary seen on the
        temperature-coupling map)."""
        onsets = [find_current_zero(make_config(g=g), "c", (1.0, 30.0))
                  for g in (0.02, 0.05, 0.08, 0.1)]
        assert onsets == sorted(onsets)


class TestPhaseMap:
    def test_function_flip_along_temperature(self):
        points = phase_map(make_config(), [3.4, 3.6], [0.02])
        assert [p.function_class for p in points] == ["heater",
                                                      "refrigerator"]

    def test_row_major_order(self):
        points = phase_map(make_config(), [3.0, 4.0], [0.0, 0.05])
        assert [(p.t_w, p.g) for p in points] == [
            (3.0, 0.0), (3.0, 0.05), (4.0, 0.0), (4.0, 0.05)]

    def test_failures_are_recorded_not_raised(self):
        config = DeviceConfig(
            system=SystemParams(1.0, 0.8, 0.0),
            baths=(BathSpec("h", 1.0, 0.0, 50.0),
                   BathSpec("c", 0.85, 0.0, 50.0),
                   BathSpec("w", 2.0, 0.0, 50.0)))
        points = phase_map(config, [2.0], [0.0])
        assert points[0].function_class == "error"
        assert "degenerate" in points[0].error

    def test_rejected_temperatures_are_recorded(self):
        """T_w <= 0 fails its row; a T_w - h <= 0 fails the amplification
        step of a row whose own T_w is valid, with the model's message."""
        points = phase_map(make_config(), [-1.0, 0.5, 3.6], [0.0, 0.02],
                           fd_step=0.6)
        assert [p.function_class for p in points[:4]] == ["error"] * 4
        assert all(p.error == "bath w: temperature must be positive"
                   for p in points[:4])
        assert all(p.function_class != "error" for p in points[4:])

    def test_points_match_the_single_point_functions(self):
        config = make_config()
        points = phase_map(config, [3.0, 6.0], [0.0, 0.05, 0.2])
        for p in points:
            local = config.with_coupling(p.g)
            assert p.report == currents_at(local, p.t_w)
            assert p.alpha_j == amplification_factor(local, p.t_w)

    def test_csv(self):
        points = phase_map(make_config(), [3.6], [0.02])
        lines = phase_map_csv(points).strip().split("\n")
        header = lines[0].split(",")
        assert header[:2] == ["Tw", "g"]
        assert header[-4:] == ["alpha_j", "function_class",
                               "amplifier_class", "error"]
        assert lines[1].split(",")[-3] == "refrigerator"


def test_classify_valve_band():
    report = CurrentReport(j_h=1.0, j_c=1e-12, j_w=-1.0, j_c12=0.0,
                           j_c13=0.0, coherence_abs=0.0, cop=None,
                           carnot_cop=1.0, entropy_rate=-1.0)
    assert classify_function(report) == "valve"
