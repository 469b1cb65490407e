import numpy as np
import pytest
from hypothesis import given, strategies as st

from trithermal.model import BathSpec, ConfigError, DeviceConfig, SystemParams
from trithermal.observables import CurrentReport
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

    def test_no_sign_change(self):
        with pytest.raises(BracketError, match="no working point in bracket"):
            find_current_zero(make_config(), "c", (1.0, 2.0))

    def test_argument_validation(self):
        with pytest.raises(ConfigError):
            find_current_zero(make_config(), "x", (1.0, 2.0))
        with pytest.raises(ConfigError):
            find_current_zero(make_config(), "c", (2.0, 1.0))


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
