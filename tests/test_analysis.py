import json
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings, strategies as st
from scipy.optimize import brentq

import trithermal.analysis as analysis
import trithermal.observables as observables
from trithermal.model import (
    POINT_COLUMNS,
    BathSpec,
    ConfigError,
    DeviceConfig,
    SystemParams,
    stack_points,
)
from trithermal.observables import (
    CurrentReport,
    CurrentTable,
    current_scale,
    current_table,
)
from trithermal.rates import SMALL_FREQUENCY_FACTOR
from trithermal.solver import SteadyStateError
from trithermal.analysis import (
    AMPLIFIER_RESPONSE_FLOOR,
    VALVE_TOLERANCE,
    AmplifierUndefinedError,
    BracketError,
    MeasurementRangeError,
    SweepGrid,
    amplification_factor,
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

from reference import (
    build_partial_secular,
    classify_function,
    response_ratio,
    steady_state,
    steady_state_report,
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
    """The current changes sign within 1e-10 * hi / 2 of the root; at
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


@settings(max_examples=40, deadline=None)
@given(operating_devices(st.just(0.0) | st.floats(0.0, 0.05,
                                                  exclude_min=True)),
       st.sampled_from(["c", "h", "thermometer"]))
def test_roots_agree_with_brentq(config, which):
    """Valve roots over the g = 0 bracket of test_root_contract, and the
    thermometer's reading at g = 0, are within 1e-10 * hi of the zero
    scipy's brentq finds over the same range."""
    if which == "thermometer":
        config = config.with_coupling(0.0)
        lo, hi, field = 1.0, 1e3, "j_h"
        root = measure_temperature(config).tw_star
    else:
        expected = equilibrium_tw(1.0, config.system.omega_b, 1.0,
                                  config.temperature("c"))
        lo, hi, field = 0.5 * expected, 3.0 * expected, f"j_{which}"
        try:
            root = find_current_zero(config, which, (lo, hi))
        except BracketError:
            ends = [getattr(currents_at(config, t_w), field)
                    for t_w in (lo, hi)]
            assert math.copysign(1.0, ends[0]) == math.copysign(1.0, ends[1])
            return
    expected = brentq(lambda t_w: getattr(currents_at(config, t_w), field),
                      lo, hi, xtol=1e-16, rtol=1e-15)
    assert abs(root - expected) <= 1e-10 * hi


@pytest.mark.parametrize("tolerance", [1e-10])
@pytest.mark.parametrize("bad", ["nan", "zero", "wrong-way"])
def test_search_without_usable_steps(monkeypatch, engine_calls, tolerance,
                                     bad):
    """With every interpolated step (the cubic Hermite root on the exact
    T_w slopes) and the polish NaN, of length 0 or in the wrong direction,
    the search bisects in u = 1 / T_w. It still returns a root certified
    to the search's relative tolerance ``tolerance``, within one call for
    the probe grid, one per halving of the grid's spacing down to a
    bracket of 2 d, and one for the polish."""
    interpolated = analysis._zero_between

    def step(low, high):
        pivot = min((low, high), key=lambda sample: abs(sample.j)).t_w
        return {"nan": math.nan, "zero": pivot,
                "wrong-way": 2.0 * pivot - interpolated(low, high)}[bad]
    monkeypatch.setattr(analysis, "_zero_between", step)
    config = make_config()
    lo, hi = 1.0, 5.0
    root = find_current_zero(config, "c", (lo, hi))
    spacing = (1.0 / lo - 1.0 / hi) / (analysis._BRACKET_PROBES - 1)
    d = 0.25 * tolerance * root
    assert len(engine_calls) <= 2 + math.ceil(
        math.log2(spacing * hi ** 2 / (2.0 * d)))
    monkeypatch.undo()
    assert root == pytest.approx(find_current_zero(config, "c", (lo, hi)),
                                 rel=1e-10)
    radius = tolerance * hi / 2 * (1 + 1e-6)
    below, at, above = (currents_at(config, t_w).j_c
                        for t_w in (root - radius, root, root + radius))
    assert at == 0.0 or math.copysign(1.0, below) != math.copysign(1.0,
                                                                  above)


@pytest.fixture
def engine_calls(monkeypatch):
    """Sizes of the engine calls (current_table) the analyses make."""
    calls = []

    def counted(engine):
        def counting(points, **options):
            calls.append(len(points))
            return engine(points, **options)
        return counting
    monkeypatch.setattr(analysis, "current_table", counted(current_table))
    return calls


def test_root_engine_calls(engine_calls):
    """The FIG4 device (g = 0.02): the probe grid, bracket ends included,
    the Hermite root over the probes around the sign change, and the
    interpolated root over its flank, which x +- d certify."""
    find_current_zero(make_config(), "c", (1.0, 5.0))
    assert engine_calls[0] == analysis._BRACKET_PROBES
    assert len(engine_calls) <= 3


@pytest.mark.parametrize("which", ["c", "h"])
def test_root_engine_calls_at_g0(engine_calls, which):
    """The first call solves the probe grid and the first step at the
    closed-form root x = equilibrium_tw (x, x +- d and x +- _FLANK x),
    which certifies it; a polish takes a second call at most."""
    t_w = find_current_zero(make_config(g=0.0), which, (1.0, 5.0))
    assert engine_calls[0] == analysis._BRACKET_PROBES + 5
    assert len(engine_calls) <= 2
    assert t_w == pytest.approx(equilibrium_tw(1.0, 0.8, 1.0, 0.85),
                                rel=1e-13)


def config_file(config, path):
    """``path``, holding ``config`` as the command line reads it."""
    path.write_text(json.dumps({
        "system": {"omega_a": config.system.omega_a,
                   "omega_b": config.system.omega_b, "g": config.system.g},
        "baths": [{"label": b.label, "temperature": b.temperature,
                   "gamma": b.gamma, "cutoff": b.cutoff}
                  for b in config.baths]}))
    return path


def test_valve_reuses_the_report_at_its_root(engine_calls, tmp_path,
                                             capsys):
    """The valve's CSV row is the report the root search solved last, not
    one more solve."""
    from trithermal.cli import main

    config = make_config()
    t_w = find_current_zero(config, "c", (1.0, 5.0))
    search = len(engine_calls)
    engine_calls.clear()
    path = config_file(config, tmp_path / "config.json")
    assert main(["valve", "--config", str(path), "--bracket", "1:5"]) == 0
    assert len(engine_calls) == search
    row = capsys.readouterr().out.split("\n")[1].split(",")
    assert float(row[0]) == t_w
    assert row[2:11] == currents_at(config, t_w).csv_row(t_w, 0.02)[2:]


def test_refrigerator_reuses_the_report_at_its_probe(engine_calls,
                                                     tmp_path, capsys):
    """The refrigerator's CSV row, at the onset times 1 + 1e-6, is solved
    with the search's last step; the whole answer takes at most 3 calls."""
    from trithermal.cli import main

    config = make_config()
    path = config_file(config, tmp_path / "config.json")
    assert main(["refrigerator", "--config", str(path),
                 "--bracket", "1:5"]) == 0
    assert len(engine_calls) <= 3
    onset = find_current_zero(config, "c", (1.0, 5.0))
    probe = onset * (1.0 + 1e-6)
    row = capsys.readouterr().out.split("\n")[1].split(",")
    assert float(row[0]) == probe
    assert row[2:11] == currents_at(config, probe).csv_row(probe, 0.02)[2:]


def test_thermometer_engine_calls(engine_calls):
    measure_temperature(thermometer_config(0.7))
    # the range's probes and the first step at the closed-form root
    assert engine_calls[0] == analysis._RANGE_PROBES + 5
    assert len(engine_calls) <= 2


def test_only_the_amplifier_takes_derivatives(monkeypatch):
    """Grids, root searches at g = 0 and the thermometer do no derivative
    work; the amplifier, and root searches at g > 0, do."""
    def forbidden(*args):
        raise AssertionError("T_w derivatives taken")
    monkeypatch.setattr(observables, "_tw_slopes", forbidden)
    config = make_config()
    current_table(stack_points([config, config])).reports()
    for which in ("c", "h"):
        find_current_zero(config.with_coupling(0.0), which, (1.0, 5.0))
    analysis._current_zero(config.with_coupling(0.0), "c", (1.0, 5.0),
                           probe=1.0 + 1e-6)
    measure_temperature(thermometer_config(0.7))
    with pytest.raises(AssertionError, match="derivatives taken"):
        amplification_factor(config, 6.0)
    with pytest.raises(AssertionError, match="derivatives taken"):
        find_current_zero(config, "c", (1.0, 5.0))


@settings(max_examples=60, deadline=None)
@given(operating_devices(st.just(0.0) | st.floats(0.0, 0.05,
                                                  exclude_min=True)),
       st.sampled_from([("c", 1.0), ("h", 1.0), ("c", 1.0 + 1e-6)]))
def test_engine_call_budget(config, search):
    """Over the bracket of test_root_contract, a valve search (J_c or J_h)
    or a refrigerator's (J_c, with its probe row) takes at most 2 engine
    calls at g = 0, the first without T_w slopes, and at most 3 at g > 0."""
    which, probe = search
    calls = []

    def counting(points, **options):
        calls.append(options.get("tw_slopes", False))
        return current_table(points, **options)
    expected = equilibrium_tw(1.0, config.system.omega_b, 1.0,
                              config.temperature("c"))
    with mock.patch.object(analysis, "current_table", counting):
        try:
            analysis._current_zero(config, which,
                                   (0.5 * expected, 3.0 * expected), probe)
        except BracketError:
            if config.system.g == 0.0:
                raise
            reject()
    if config.system.g == 0.0:
        assert len(calls) <= 2 and not calls[0]
    else:
        assert len(calls) <= 3


def reference_walk(config, t_w_max):
    """The thermometer ladder T_h * 1.1^k with one solve per rung: the
    first rung over which J_h changes sign, or None."""
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
    (0.7655, 1e3),  # on the eighth rung
    (0.75, 1e3),    # on the ninth rung
    (0.62, 1e3),    # on the 28th rung
    (0.55, 1e3),    # below the measurable range
])
def test_chunked_ladder_matches_the_scalar_walk(t_c, t_w_max):
    """measure_temperature, whose range ends at t_w_max = 1e3 T_h, gives
    the reading of the ladder walked one rung per solve, and Brent's
    method on its rung, or its error text."""
    config = thermometer_config(t_c)
    expected = reference_walk(config, t_w_max)
    if expected is None:
        with pytest.raises(MeasurementRangeError,
                           match=f"kept its sign up to Tw = {t_w_max:g}$"):
            measure_temperature(config)
        return
    lo, _, hi, _ = expected
    root = brentq(lambda t_w: currents_at(config, t_w).j_h, lo, hi,
                  xtol=1e-16, rtol=1e-15)
    reading = measure_temperature(config)
    assert abs(reading.tw_star - root) <= 1e-10 * hi


@pytest.mark.parametrize("failing, fails", [
    ((3.0, math.inf), False),  # rungs past the sign change at 2.8
    ((1.5, 1.7), True),        # the rung at 1.61, before it
])
def test_ladder_raises_only_the_failures_it_reaches(monkeypatch, failing,
                                                    fails):
    """Rungs in the ``failing`` T_w range fail; the reading is unaffected
    unless the walk reaches one of them."""
    column = POINT_COLUMNS.index("temperature_w")

    def with_failures(points, **options):
        table = current_table(points, **options)
        for i, t_w in enumerate(points[:, column]):
            if failing[0] < t_w < failing[1]:
                table.errors[i] = SteadyStateError("injected")
        return table
    monkeypatch.setattr(analysis, "current_table", with_failures)
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
        result = phase_map(make_config(), [3.4, 3.6], [0.02])
        assert result.function_class.tolist() == ["heater", "refrigerator"]

    def test_row_major_order(self):
        result = phase_map(make_config(), [3.0, 4.0], [0.0, 0.05])
        assert list(zip(result.t_w.tolist(), result.g.tolist())) == [
            (3.0, 0.0), (3.0, 0.05), (4.0, 0.0), (4.0, 0.05)]

    def test_failures_are_recorded_not_raised(self):
        config = DeviceConfig(
            system=SystemParams(1.0, 0.8, 0.0),
            baths=(BathSpec("h", 1.0, 0.0, 50.0),
                   BathSpec("c", 0.85, 0.0, 50.0),
                   BathSpec("w", 2.0, 0.0, 50.0)))
        result = phase_map(config, [2.0], [0.0])
        assert result.function_class.tolist() == ["error"]
        assert "degenerate" in str(result.table.errors[0])

    def test_rejected_temperatures_are_recorded(self):
        """T_w <= 0 fails its row with the model's message; the other rows
        have their reports and amplification factors."""
        result = phase_map(make_config(), [-1.0, 0.5, 3.6], [0.0, 0.02])
        assert result.function_class[:2].tolist() == ["error"] * 2
        assert [str(error) for error in result.table.errors[:2]] == [
            "bath w: temperature must be positive"] * 2
        assert result.table.errors[2:] == [None] * 4
        assert set(result.amplifier_class[2:].tolist()) <= {"amplifier",
                                                            "contraction"}

    def test_one_engine_call(self, engine_calls):
        """Every accepted (T_w, g) point, and no other, in one call."""
        phase_map(make_config(), [-1.0, 0.5, 0.0, 3.6], [0.0, 0.02, 0.05])
        assert engine_calls == [2 * 3]

    def test_points_match_the_single_point_functions(self):
        config = make_config()
        result = phase_map(config, [3.0, 6.0], [0.0, 0.05, 0.2])
        for t_w, g, report, alpha in zip(result.t_w.tolist(),
                                         result.g.tolist(),
                                         result.table.reports(),
                                         result.alpha_j.tolist()):
            local = config.with_coupling(g)
            assert report == currents_at(local, t_w)
            assert alpha == amplification_factor(local, t_w)

    def test_csv(self):
        result = phase_map(make_config(), [3.6], [0.02])
        lines = phase_map_csv(result).strip().split("\n")
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


finite = st.floats(allow_nan=False, allow_infinity=False)
signed_zeros = st.sampled_from([0.0, -0.0])


@st.composite
def classification_rows(draw):
    """(T_w, (J_h, J_c, J_w), (dJ_h, dJ_c, dJ_w)) of a finite table row,
    some on a boundary of the classification: |J_c| at or one ulp below
    VALVE_TOLERANCE times the current scale, alpha_J exactly 1, dJ_w = +-0
    or at the amplifier's response floor, and +-0 currents."""
    t_w = draw(st.sampled_from([0.5, 1.0, 2.0]) | finite)
    j_h, j_c, j_w, d_jh, d_jc, d_jw = (draw(signed_zeros | finite)
                                       for _ in range(6))
    edge = draw(st.sampled_from(["none", "valve", "below valve", "alpha 1",
                                 "flat", "floor"]))
    scale = current_scale(j_h, 0.0, j_w)
    if edge in ("valve", "below valve"):
        bound = VALVE_TOLERANCE * scale
        if edge == "below valve":
            bound = math.nextafter(bound, 0.0)
        j_c = math.copysign(bound, j_c)
    elif edge == "alpha 1":
        d_jc = math.copysign(d_jw, d_jc)
    elif edge == "flat":
        d_jw = draw(signed_zeros)
    elif edge == "floor":
        t_w = min(t_w, 1.0)
        d_jw = math.copysign(AMPLIFIER_RESPONSE_FLOOR
                             * current_scale(j_h, j_c, j_w), d_jw)
    return t_w, (j_h, j_c, j_w), (d_jh, d_jc, d_jw)


@given(st.lists(classification_rows(), min_size=1, max_size=8))
def test_phase_map_classes_match_the_scalar_functions(rows):
    """The PhaseMap's alpha_J and class columns, computed on the table, are
    classify_function and response_ratio of each point, bit for bit."""
    values = np.zeros((len(rows), 9))
    values[:, :3] = [currents for _, currents, _ in rows]
    values[:, 6] = math.nan
    table = CurrentTable(values, [None] * len(rows),
                         np.array([slopes for _, _, slopes in rows]))
    result = analysis._classified(np.array([t_w for t_w, _, _ in rows]),
                                  np.zeros(len(rows)), table)
    for i, (t_w, currents, slopes) in enumerate(rows):
        report = CurrentReport(*currents, 0.0, 0.0, 0.0, None, 0.0, 0.0)
        assert result.function_class[i] == classify_function(report)
        try:
            alpha = response_ratio(report, slopes[1], slopes[2], t_w)
        except AmplifierUndefinedError:
            assert result.amplifier_class[i] == "undefined"
        else:
            assert result.amplifier_class[i] == ("amplifier" if alpha > 1.0
                                                 else "contraction")
            assert result.alpha_j[i] == alpha


def central_differences(config, t_w, h):
    """(dJ_c/dT_w, dJ_w/dT_w) by central differences of currents_at."""
    upper, lower = currents_at(config, t_w + h), currents_at(config, t_w - h)
    return (upper.j_c - lower.j_c) / (2 * h), (upper.j_w - lower.j_w) / (2 * h)


def exact_slopes(config, t_w):
    """The report at T_w and its currents' T_w slopes d_jh, d_jc and d_jw,
    from the one-point current_table with slopes."""
    table = current_table(
        stack_points([config.with_bath_temperature("w", t_w)]),
        tw_slopes=True)
    report, = table.reports()
    d_jh, d_jc, d_jw = table.slopes[0].tolist()
    return SimpleNamespace(report=report, d_jh=d_jh, d_jc=d_jc, d_jw=d_jw)


def assert_matches_central_differences(config, t_w, rel=1e-6):
    """The exact derivatives and alpha_J against central differences with
    the step the finite-difference alpha_J used, and with half of it."""
    response = exact_slopes(config, t_w)
    alpha = amplification_factor(config, t_w)
    h = 1e-5 * max(1.0, t_w)
    for step in (h, h / 2):
        d_jc, d_jw = central_differences(config, t_w, step)
        assert response.d_jc == pytest.approx(d_jc, rel=rel, abs=0)
        assert response.d_jw == pytest.approx(d_jw, rel=rel, abs=0)
        assert alpha == pytest.approx(abs(d_jc / d_jw), rel=rel, abs=0)


#: criterion 10's two devices, and the points of the TestPhaseMap grids
SLOPE_POINTS = [
    (0.05, 6.0), (0.2, 6.0),
    (0.02, 3.4), (0.02, 3.6), (0.0, 3.0), (0.05, 3.0), (0.0, 4.0),
    (0.05, 4.0), (0.2, 3.0), (0.0, 6.0), (0.0, 0.5), (0.02, 0.5),
]


@pytest.mark.parametrize("g, t_w", SLOPE_POINTS)
def test_exact_derivative_matches_central_differences(g, t_w):
    assert_matches_central_differences(make_config(g=g), t_w)


def reference_j_h(config, t_w):
    """J_h of the 9x9 partial-secular reference path at T_w."""
    generator = build_partial_secular(config.with_bath_temperature("w", t_w))
    return steady_state_report(generator, steady_state(generator)).j_h


@pytest.mark.parametrize("g, t_w", SLOPE_POINTS)
def test_hot_slope_matches_the_reference(g, t_w):
    """dJ_h/dT_w against central differences of the 9x9 reference, with
    the steps of assert_matches_central_differences; the three slopes sum
    to 0 with the currents (the first law)."""
    config = make_config(g=g)
    response = exact_slopes(config, t_w)
    h = 1e-5 * max(1.0, t_w)
    for step in (h, h / 2):
        d_jh = (reference_j_h(config, t_w + step)
                - reference_j_h(config, t_w - step)) / (2 * step)
        assert response.d_jh == pytest.approx(d_jh, rel=1e-6, abs=0)
    slopes = (response.d_jh, response.d_jc, response.d_jw)
    assert abs(sum(slopes)) <= 1e-12 * max(map(abs, slopes))


@settings(max_examples=60, deadline=None)
@given(operating_devices(st.just(0.0) | st.floats(0.0, 0.2)),
       st.floats(0.5, 8.0))
def test_exact_derivative_over_the_operating_range(config, t_w):
    """Devices and T_w in the benchmark's range, away from the floor
    below which alpha_J is undefined, where central differences lose
    their digits."""
    response = exact_slopes(config, t_w)
    report = response.report
    floor = 1e3 * AMPLIFIER_RESPONSE_FLOOR * current_scale(
        report.j_h, report.j_c, report.j_w)
    assume(min(abs(response.d_jc), abs(response.d_jw)) * max(1.0, t_w)
           >= floor)
    assert_matches_central_differences(config, t_w)


@pytest.mark.parametrize("omega_b, t_w", [
    (0.8, 0.5), (0.8, 6.0), (0.6, 2.0), (0.95, 20.0), (0.5, 100.0)])
def test_uncoupled_factor_is_exactly_the_frequency_ratio(omega_b, t_w):
    config = make_config(omega_b=omega_b, g=0.0)
    assert amplification_factor(config, t_w) == pytest.approx(
        omega_b / (1.0 - omega_b), rel=1e-12, abs=0)


def test_exact_derivative_in_the_series_branch():
    """Nearly degenerate excited levels put the work bath's frequency below
    the rates' small-frequency switch, at T_w and at T_w +- h."""
    config = make_config(omega_b=1.0 - 1e-7, g=0.0)
    t_w = 1.0
    assert 1e-7 / (t_w - 1e-5) <= SMALL_FREQUENCY_FACTOR
    response = exact_slopes(config, t_w)
    for step in (1e-5, 5e-6):
        d_jc, d_jw = central_differences(config, t_w, step)
        assert response.d_jc == pytest.approx(d_jc, rel=1e-6, abs=0)
        assert response.d_jw == pytest.approx(d_jw, rel=1e-6, abs=0)


@pytest.mark.parametrize("t_w", [1e-3, 1e-300])
def test_amplifier_undefined_as_work_temperature_vanishes(t_w):
    """The work bath's rates underflow: alpha_J is undefined, not NaN."""
    config = make_config()
    response = exact_slopes(config, t_w)
    assert math.isfinite(response.d_jc) and math.isfinite(response.d_jw)
    with pytest.raises(AmplifierUndefinedError):
        amplification_factor(config, t_w)
    result = phase_map(config, [t_w], [config.system.g])
    assert result.amplifier_class.tolist() == ["undefined"]
