import csv
import importlib
import io
import json
import math
import os
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import trithermal
import trithermal.cli as cli
from trithermal.analysis import (
    PhaseMap,
    SweepGrid,
    amplification_factor,
    currents_at,
    phase_map_csv,
)
from trithermal.cli import load_config, main, parse_bracket, parse_grid
from trithermal.model import ConfigError
from trithermal.observables import CurrentReport, CurrentTable

from reference import build_full_secular, build_partial_secular

FIG4 = {
    "system": {"omega_a": 1.0, "omega_b": 0.8, "g": 0.02},
    "baths": [
        {"label": "h", "temperature": 1.0, "gamma": 0.008, "cutoff": 50.0},
        {"label": "c", "temperature": 0.85, "gamma": 0.008, "cutoff": 50.0},
        {"label": "w", "temperature": 2.0, "gamma": 0.008, "cutoff": 50.0},
    ],
}

THERMOMETER = {
    "system": {"omega_a": 1.0, "omega_b": 0.6},
    "baths": [
        {"label": "h", "temperature": 1.0, "gamma": 0.008, "cutoff": 50.0},
        {"label": "c", "temperature": 0.7, "gamma": 0.008, "cutoff": 50.0},
        {"label": "w", "temperature": 1.0, "gamma": 0.008, "cutoff": 50.0},
    ],
}


@pytest.fixture
def config_path(tmp_path):
    def write(document, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)
    return write


def read_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestConfigLoading:
    def test_round_trip(self, config_path):
        config = load_config(config_path(FIG4))
        assert config.system.g == 0.02
        assert config.temperature("c") == 0.85

    def test_unknown_key_rejected(self, config_path):
        bad = json.loads(json.dumps(FIG4))
        bad["system"]["omega_c"] = 1.0
        assert main(["sweep", "--config", config_path(bad)]) == 1

    def test_missing_bath_rejected(self, config_path):
        bad = json.loads(json.dumps(FIG4))
        bad["baths"] = bad["baths"][:2]
        assert main(["sweep", "--config", config_path(bad)]) == 1

    def test_invalid_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        for content, message in ((b"{not json", "not valid JSON"),
                                 (b"\xff\xfe", "not valid UTF-8 JSON")):
            path.write_bytes(content)
            assert main(["sweep", "--config", str(path)]) == 1
            assert f"error: config is {message}" in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["sweep", "--config", "/nonexistent.json"]) == 1

    def test_deeply_nested_json_rejected(self, tmp_path, capsys):
        """JSON nested past the parser's recursion limit is a config error
        (exit 1, one line), not a RecursionError traceback."""
        path = tmp_path / "deep.json"
        depth = 100_000
        path.write_text('{"system": ' + "[" * depth + "]" * depth
                        + ', "baths": []}')
        assert main(["sweep", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: config is nested too deeply\n")

    @pytest.mark.parametrize("where, key", [
        ("system", "g"), ("bath", "gamma"), ("bath", "temperature")])
    @pytest.mark.parametrize("value", [math.nan, math.inf, "abc", None,
                                       [1.0], {}, True,
                                       pytest.param(10 ** 400, id="1e400")])
    def test_non_finite_value_rejected(self, config_path, capsys, where,
                                       key, value):
        """JSON NaN and Infinity parse, and the model rejects them; a value
        that is not a JSON number (a bool included) is rejected before it
        reaches the model. Either way, exit 1 with no traceback."""
        bad = json.loads(json.dumps(FIG4))
        record = bad["system"] if where == "system" else bad["baths"][0]
        record[key] = value
        assert main(["sweep", "--config", config_path(bad)]) == 1
        assert f"{key} must be" in capsys.readouterr().err


class TestGridParsing:
    def test_grid(self):
        grid = parse_grid("Tw=1:5:401")
        assert (grid.variable, grid.start, grid.stop, grid.points) == \
            ("Tw", 1.0, 5.0, 401)

    def test_bracket(self):
        assert parse_bracket("1.5:4") == (1.5, 4.0)

    def test_bad_specs(self):
        for text in ("Tw=1:5", "1:5:10", "Tw=a:b:c"):
            with pytest.raises(Exception):
                parse_grid(text)


class TestSweep:
    def test_current_sign_change_over_window(self, config_path, capsys):
        path = config_path(FIG4)
        assert main(["sweep", "--config", path, "--grid", "Tw=1:5:41"]) == 0
        rows = read_rows(capsys.readouterr().out)
        assert len(rows) == 41
        signs = [float(r["j_h"]) > 0 for r in rows]
        flip = signs.index(False)
        assert 3.3 < float(rows[flip]["Tw"]) <= 3.5  # crossing near 3.42
        assert all(r["status"] == "ok" for r in rows)

    def test_seventeen_digit_round_trip(self, config_path, capsys):
        path = config_path(FIG4)
        main(["sweep", "--config", path])
        first = read_rows(capsys.readouterr().out)[0]
        value = float(first["j_h"])
        assert f"{value:.17g}" == first["j_h"]

    def test_empty_range_is_usage_error(self, config_path):
        path = config_path(FIG4)
        assert main(["sweep", "--config", path, "--grid", "Tw=1:1:5"]) == 1

    def test_deterministic_reruns(self, config_path, capsys):
        path = config_path(FIG4)
        main(["sweep", "--config", path, "--grid", "g=0:0.1:6",
              "--grid", "Tw=1:3:3"])
        first = capsys.readouterr().out
        main(["sweep", "--config", path, "--grid", "g=0:0.1:6",
              "--grid", "Tw=1:3:3"])
        assert capsys.readouterr().out == first

    def test_cold_sample_far_below_the_gap(self, config_path, capsys):
        """T_c = 0.001 puts omega / T_c beyond the exponential's range; the
        sweep still answers every point instead of raising."""
        cold = json.loads(json.dumps(FIG4))
        cold["baths"][1]["temperature"] = 0.001
        path = config_path(cold)
        code = main(["sweep", "--config", path, "--grid", "Tw=1:3:3"])
        assert code in (0, 2)
        rows = read_rows(capsys.readouterr().out)
        assert len(rows) == 3
        for row in rows:
            if row["status"] == "ok":
                assert all(math.isfinite(float(row[name]))
                           for name in ("j_h", "j_c", "j_w", "entropy_rate"))

    def test_out_file(self, config_path, tmp_path):
        path = config_path(FIG4)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        assert read_rows(out.read_text())[0]["status"] == "ok"

    def test_out_file_is_rewritten_in_place(self, config_path, tmp_path):
        """An existing --out file, longer or shorter, ends up holding the
        new CSV alone; a non-regular path such as os.devnull is written
        and not cut."""
        path = config_path(FIG4)
        argv = ["sweep", "--config", path, "--grid", "Tw=2:4:3"]
        out = tmp_path / "sweep.csv"
        assert main(argv + ["--out", str(out)]) == 0
        expected = out.read_bytes()
        for stale in (b"x" * (3 * len(expected)), b"Tw\n"):
            out.write_bytes(stale)
            assert main(argv + ["--out", str(out)]) == 0
            assert out.read_bytes() == expected
        assert main(argv + ["--out", os.devnull]) == 0


class TestValve:
    def test_finds_working_point(self, config_path, capsys):
        path = config_path(FIG4)
        assert main(["valve", "--config", path, "--which", "c",
                     "--bracket", "1:5"]) == 0
        captured = capsys.readouterr()
        assert "J_c = 0 at Tw = 3.52" in captured.err
        row = read_rows(captured.out)[0]
        assert abs(float(row["j_c"])) < 1e-12

    def test_no_sign_change_is_numerical_failure(self, config_path, capsys):
        path = config_path(FIG4)
        assert main(["valve", "--config", path, "--bracket", "1:2"]) == 2
        assert "no working point in bracket" in capsys.readouterr().err


def test_refrigerator_onset(config_path, capsys):
    path = config_path(FIG4)
    assert main(["refrigerator", "--config", path, "--bracket", "1:5"]) == 0
    assert "cooling window opens at Tw = 3.52" in capsys.readouterr().err


def test_amplifier(config_path, capsys):
    """One row of Tw, g and alpha_J, at 17 significant digits."""
    path = config_path(FIG4)
    assert main(["amplifier", "--config", path, "--tw", "6"]) == 0
    captured = capsys.readouterr()
    alpha = amplification_factor(load_config(path), 6.0)
    assert captured.out == f"Tw,g,alpha_j\n6,0.02,{alpha:.17g}\n"
    assert alpha > 1.0
    assert "(amplifier)" in captured.err


def with_device(g=0.02, t_c=0.85, gamma=0.008):
    """FIG4 with its coupling, cold-bath temperature and every gamma set."""
    document = json.loads(json.dumps(FIG4))
    document["system"]["g"] = g
    document["baths"][1]["temperature"] = t_c
    for bath in document["baths"]:
        bath["gamma"] = gamma
    return document


@pytest.mark.parametrize("tw, document, code, message", [
    ("0", FIG4, 1, "bath w: temperature must be positive"),
    ("-1", FIG4, 1, "bath w: temperature must be positive"),
    ("nan", FIG4, 1, "bath w: temperature must be positive"),
    ("inf", FIG4, 1, "bath w: temperature must be finite"),
    ("1e-320", FIG4, 1,
     "bath w: temperature too close to 0: its inverse overflows"),
    ("3", with_device(t_c=1.0), 2, "Carnot bound undefined at Tc = Th"),
    ("3", with_device(g=1.2), 2,
     "transition frequency must be non-negative"),
    ("3", with_device(g=0.0, gamma=0.0), 2,
     "degenerate steady state: null space dimension 3"),
], ids=["tw-zero", "tw-negative", "tw-nan", "tw-inf", "tw-subnormal",
        "tc-equals-th", "large-g", "no-baths"])
def test_amplifier_errors(config_path, capsys, tw, document, code, message):
    """A T_w the model rejects exits 1; a point the engine fails exits 2
    with its error; neither writes CSV."""
    assert main(["amplifier", "--config", config_path(document),
                 "--tw", tw]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


#: settings that selected nothing: the engine runs on one thread, takes
#: alpha_J as an exact derivative and integrates the partial-secular
#: equation, which at g = 0 is the full-secular one
RETIRED_SETTINGS = [["sweep", "--threads", "4"],
                    ["amplifier", "--tw", "6", "--step", "0.3"],
                    ["phase-map", "--grid", "Tw=3:6:2", "--grid", "g=0:0.2:2",
                     "--step", "1"],
                    ["dynamics", "--t-final", "10", "--secular", "full"]]


@pytest.mark.parametrize("argv", RETIRED_SETTINGS,
                         ids=[argv[0] for argv in RETIRED_SETTINGS])
def test_retired_settings_are_refused(config_path, capsys, argv):
    assert main([argv[0], "--config", config_path(FIG4)] + argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unrecognized arguments:")


def test_thermometer(config_path, capsys):
    path = config_path(THERMOMETER)
    assert main(["thermometer", "--config", path]) == 0
    captured = capsys.readouterr()
    assert "Tw* = 2.8" in captured.err
    row = read_rows(captured.out)[0]
    assert float(row["tc_estimate"]) == pytest.approx(0.7, rel=1e-6)
    assert row["in_range"] == "true"


def test_thermometer_requires_uncoupled(config_path):
    assert main(["thermometer", "--config", config_path(FIG4)]) == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--t-final", "inf", "--t-final must be finite"),
    ("--t-final", "nan", "--t-final must be finite"),
    ("--dt", "inf", "--dt must be finite"),
    ("--dt", "nan", "--dt must be finite"),
    ("--dt", "0", "dt must be positive"),
    ("--t-final", "-5", "--t-final must be positive"),
    ("--t-final", "0", "--t-final must be positive"),
    ("--dt", "1e-320", "t_final / dt must be a finite number of steps"),
    ("--t-final", "1e10 --dt 1e-300",
     "t_final / dt must be a finite number of steps"),
    ("--t-final", "1e10 --dt 1e-300 --stride 5",
     "t_final / dt must be a finite number of steps"),
    ("--t-final", "1e9 --dt 1 --stride 1",
     "1000000000 samples exceed the limit of 1000000; "
     "raise dt or the sample stride")])
def test_dynamics_rejects_bad_times(config_path, capsys, flag, value,
                                    message):
    """A config error (exit 1), not a traceback or a one-sample run; a
    value may carry further flags after it."""
    assert main(["dynamics", "--config", config_path(FIG4),
                 "--t-final", "200", flag, *value.split()]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


#: a command and its flags that solve the device at some T_w
SOLVING_COMMANDS = [["valve", "--bracket", "1:5"],
                    ["refrigerator", "--bracket", "1:5"],
                    ["amplifier", "--tw", "3"],
                    ["dynamics", "--t-final", "10"]]


@pytest.mark.parametrize("argv", SOLVING_COMMANDS,
                         ids=[argv[0] for argv in SOLVING_COMMANDS])
def test_negative_transition_frequency_is_a_numerical_failure(
        config_path, capsys, argv):
    """g past sqrt(omega_a omega_b) puts omega_2 < 0: exit 2 with the
    error sweep writes on its failure rows, not a traceback."""
    document = {**FIG4, "system": {**FIG4["system"], "g": 1.2}}
    assert main([argv[0], "--config", config_path(document)]
                + argv[1:]) == 2
    assert capsys.readouterr().err == (
        "error: transition frequency must be non-negative\n")


def test_dynamics_summary_names_the_last_sample(config_path, capsys):
    """A stride past --t-final stores t = 0 and one later sample; the
    summary gives that sample's time, not the requested one."""
    assert main(["dynamics", "--config", config_path(FIG4),
                 "--t-final", "1", "--stride", "1000"]) == 0
    captured = capsys.readouterr()
    times = [float(r["t"]) for r in read_rows(captured.out)]
    assert len(times) == 2 and times[0] == 0 and times[1] > 1
    assert captured.err.startswith(
        f"dynamics: 2 samples to t = {times[1]:g}, ")


@pytest.mark.parametrize("argv", [["--dt", "1e300", "--stride", "10000000000"],
                                  ["--dt", "1e300"]],
                         ids=["stride-overflows", "step-overflows"])
def test_overflowing_step_is_a_numerical_failure(config_path, capsys, argv):
    """A step of 1e300 overflows the RK4 update: exit 2 with the drift
    error and no floating-point warning, also where dt * stride overflows
    to inf and t_final / (dt * stride) is 0: one stride is integrated."""
    assert main(["dynamics", "--config", config_path(FIG4),
                 "--t-final", "1", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: step size too large: trace drift nan; "
                            "retry with dt <= 1.000e+299\n")


#: devices whose rate ratios w / w_c and w / T overflow: e^-x is 0 there
TINY_WORK_CUTOFF = {**FIG4, "baths": [*FIG4["baths"][:2], {
    "label": "w", "temperature": 2.0, "gamma": 0.008, "cutoff": 1e-320}]}
TINY_COLD_TEMPERATURE = {
    "system": {"omega_a": 4.0, "omega_b": 3.0, "g": 0.02},
    "baths": [FIG4["baths"][0], {**FIG4["baths"][1], "temperature": 1e-308},
              FIG4["baths"][2]]}


@pytest.mark.parametrize("document, argv, code", [
    (TINY_WORK_CUTOFF, ["sweep", "--grid", "Tw=1:5:5"], 0),
    (TINY_WORK_CUTOFF, ["amplifier", "--tw", "6"], 2),
    (TINY_WORK_CUTOFF, ["phase-map", "--grid", "Tw=3:8:3",
                        "--grid", "g=0:0.2:3"], 0),
    (TINY_WORK_CUTOFF, ["valve", "--which", "c", "--bracket", "1:5"], 2),
    (TINY_COLD_TEMPERATURE, ["sweep", "--grid", "Tw=1:5:5"], 0),
    (TINY_COLD_TEMPERATURE, ["amplifier", "--tw", "6"], 0),
    (TINY_COLD_TEMPERATURE, ["phase-map", "--grid", "Tw=3:8:3",
                             "--grid", "g=0:0.2:3"], 0),
    (TINY_COLD_TEMPERATURE, ["valve", "--which", "c", "--bracket", "1:5"], 2),
], ids=["cutoff-sweep", "cutoff-amplifier", "cutoff-phase-map",
        "cutoff-valve", "tc-sweep", "tc-amplifier", "tc-phase-map",
        "tc-valve"])
def test_overflowing_rate_ratio_raises_no_warning(config_path, capsys,
                                                  document, argv, code):
    """A work-bath cutoff of 1e-320, or T_c = 1e-308 below w_b = 3, puts
    w / w_c or w / T past the float range, where e^-x is exactly 0: the
    commands answer with no floating-point warning (an error under the
    suite's filter)."""
    assert main([*argv, "--config", config_path(document)]) == code
    if argv[0] == "sweep" and document is TINY_WORK_CUTOFF:
        # the work bath's spectral density is 0: no work current
        rows = read_rows(capsys.readouterr().out)
        assert [float(row["j_w"]) for row in rows] == [0.0] * 5


def test_roundoff_drift_is_not_a_step_size_failure(config_path, capsys):
    """At the default, stable step, the trace of a 1e10-long run drifts
    past 1e-6 by roundoff alone: exit 2 naming that, with no advice to
    take a smaller step, which would only add steps."""
    assert main(["dynamics", "--config", config_path(FIG4),
                 "--t-final", "1e10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: trace drift \S+ is roundoff accumulated "
                        r"over stable steps; a smaller dt only adds steps\n",
                        captured.err)


def test_dynamics_positivity_column(config_path, capsys):
    path = config_path(FIG4)
    assert main(["dynamics", "--config", path, "--initial", "2",
                 "--t-final", "200"]) == 0
    rows = read_rows(capsys.readouterr().out)
    assert all(float(r["min_eigenvalue"]) >= -1e-8 for r in rows)
    assert all(abs(float(r["trace"]) - 1.0) < 1e-9 for r in rows)


def test_phase_map(config_path, capsys):
    path = config_path(FIG4)
    assert main(["phase-map", "--config", path, "--grid", "Tw=3.4:3.6:2",
                 "--grid", "g=0.02:0.05:2"]) == 0
    rows = read_rows(capsys.readouterr().out)
    assert [r["function_class"] for r in rows] == [
        "heater", "heater", "refrigerator", "heater"]


def test_phase_map_needs_both_grids(config_path):
    path = config_path(FIG4)
    assert main(["phase-map", "--config", path,
                 "--grid", "Tw=3:4:2"]) == 1


#: the two commands that take grids, each with a grid of the other variable
GRID_COMMANDS = [["sweep", "--grid", "g=0:0.1:2"],
                 ["phase-map", "--grid", "g=0:0.1:2"]]


@pytest.mark.parametrize("argv", GRID_COMMANDS,
                         ids=[argv[0] for argv in GRID_COMMANDS])
@pytest.mark.parametrize("spec", ["Tw=1:inf:3", "Tw=-inf:5:3"])
def test_non_finite_grid_end_is_usage_error(config_path, capsys, argv, spec):
    """Refused before any array is built, so numpy has nothing to warn
    about."""
    assert main([argv[0], "--config", config_path(FIG4), "--grid", spec]
                + argv[1:]) == 1
    assert capsys.readouterr().err == (
        f"error: bad --grid {spec!r}: sweep grid ends must be finite\n")


def test_repeated_sweep_variable_is_usage_error(config_path, capsys):
    assert main(["sweep", "--config", config_path(FIG4), "--grid",
                 "g=0:0.1:3", "--grid", "g=0:0.2:2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: sweep needs a different variable in each --grid\n"


@pytest.mark.parametrize("argv, size", [
    (["sweep", "--grid", "Tw=1:2:11"], 11),
    (["sweep", "--grid", "g=0:0.1:4", "--grid", "Tw=1:2:3"], 12),
    (["phase-map", "--grid", "Tw=1:2:4", "--grid", "g=0:0.1:3"], 12),
], ids=["sweep", "nested-sweep", "phase-map"])
def test_grid_size_is_capped(config_path, capsys, monkeypatch, argv, size):
    """More than MAX_GRID_POINTS points in all (patched to 10 here) are a
    config error, raised before any grid's values are built."""
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 10)

    def values(grid):
        raise AssertionError("grid values built before the size check")

    with monkeypatch.context() as patch:
        patch.setattr(SweepGrid, "values", values)
        assert main([argv[0], "--config", config_path(FIG4)]
                    + argv[1:]) == 1
    assert capsys.readouterr().err == (
        f"error: {size} grid points exceed the limit of 10\n")
    assert main(["sweep", "--config", config_path(FIG4), "--grid",
                 "g=0:0.1:5", "--grid", "Tw=1:2:2"]) == 0


def test_unknown_command_is_usage_error():
    assert main(["frobnicate", "--config", "x"]) == 1


def test_every_package_error_has_an_exit_code():
    """Each exception class the package defines is one main maps to exit
    1 or 2, so none reaches the user as a traceback."""
    mapped = (ConfigError, cli._UsageError, *cli._NUMERICAL_ERRORS)
    defined = {value for module in pkgutil.iter_modules(trithermal.__path__)
               for value in vars(importlib.import_module(
                   f"trithermal.{module.name}")).values()
               if isinstance(value, type) and issubclass(value, BaseException)
               and value.__module__.startswith("trithermal.")}
    assert ConfigError in defined
    assert [error for error in defined if not issubclass(error, mapped)] == []


#: (file under tests/data, argv after --config, exit code) of the FIG4
#: device, or of the config GOLDEN_CONFIGS names for the file. The grid
#: files and valve_h.csv hold the CSV each command wrote before grid output
#: came from the engine's columnar table. valve_c.csv and refrigerator.csv
#: hold the roots of the search that replaced Brent's method, one ulp from
#: Brent's (test_root_goldens_stay_at_the_recorded_roots). The dynamics
#: files hold the trajectories of the RK4 on the reduced closed block,
#: which replaced a 9x9 RK4 and sit no farther from the exact RK4 sequence
#: than its files did (test_dynamics_golden_matches_extended_rk4).
#: thermometer.csv holds the reading of the THERMOMETER device as
#: csv.writer wrote it. None may change a byte
GOLDEN = [
    # g past sqrt(omega_a * omega_b) puts omega_2 < 0: failure rows
    ("sweep_g_tw.csv", ["sweep", "--grid", "g=0:1.2:7",
                        "--grid", "Tw=1:5:3"], 2),
    # the last T_c row sits at T_c = T_h, where the Carnot bound is undefined
    ("sweep_tc.csv", ["sweep", "--grid", "Tc=0.85:1:4",
                      "--grid", "Tw=2:4:2"], 2),
    ("phase_map.csv", ["phase-map", "--grid", "Tw=-1:5:4",
                       "--grid", "g=0:1.2:4"], 2),
    ("valve_c.csv", ["valve", "--which", "c", "--bracket", "1:5"], 0),
    ("valve_h.csv", ["valve", "--which", "h", "--bracket", "1:5"], 0),
    ("refrigerator.csv", ["refrigerator", "--bracket", "1:5"], 0),
    ("dynamics_partial.csv", ["dynamics", "--initial", "2",
                              "--t-final", "200"], 0),
    ("dynamics_full_g0.csv", ["dynamics", "--t-final", "200"], 0),
    # T_w = T_h: the Carnot bound is 0 below T_h and -0 above it
    ("sweep_signed_zero.csv", ["sweep", "--grid", "Tc=0.5:1.5:3",
                               "--grid", "g=0:0.1:3"], 2),
    ("thermometer.csv", ["thermometer"], 0),
]
GOLDEN_CONFIGS = {
    "dynamics_full_g0.csv": {**FIG4, "system": {**FIG4["system"], "g": 0.0}},
    "sweep_signed_zero.csv": {**FIG4, "baths": FIG4["baths"][:2] + [
        {**FIG4["baths"][2], "temperature": 1.0}]},
    "thermometer.csv": THERMOMETER,
}

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, argv, code", GOLDEN,
                         ids=[case[0] for case in GOLDEN])
def test_golden_csv_bytes(config_path, tmp_path, name, argv, code):
    """Byte-for-byte the recorded CSV of the FIG4 device, or of its
    GOLDEN_CONFIGS variant (the currents are traced in x86 extended
    precision; other platforms may differ in the last digits)."""
    out = tmp_path / "out.csv"
    document = GOLDEN_CONFIGS.get(name, FIG4)
    assert main([argv[0], "--config", config_path(document), "--out",
                 str(out)] + argv[1:]) == code
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_signed_zero_golden_keeps_both_zeros():
    """The recorded Carnot bounds of sweep_signed_zero.csv, which
    test_golden_csv_bytes holds the sweep to: 0 in the T_c = 0.5 rows, none
    where T_c = T_h, and -0 in the T_c = 1.5 rows. A cache of formatted
    values that keyed -0.0 and 0.0 alike would print one text for both."""
    rows = read_rows((DATA / "sweep_signed_zero.csv").read_text())
    assert ([row["carnot_cop"] for row in rows]
            == ["0"] * 3 + [""] * 3 + ["-0"] * 3)


#: T_w of the root files as Brent's method recorded them; the root search
#: that replaced it moved both by one ulp
RECORDED_ROOTS = {"valve_c.csv": 3.5239507299155011,
                  "refrigerator.csv": 3.5239542538662305}


@pytest.mark.parametrize("name", sorted(RECORDED_ROOTS))
def test_root_goldens_stay_at_the_recorded_roots(config_path, name):
    """Each re-recorded root file holds a T_w within 1e-12 relative of the
    recorded one, and J_c changes sign within 1e-10 * hi / 2 of the root
    (for the refrigerator, of the onset its row is 1 + 1e-6 above)."""
    t_w = float(read_rows((DATA / name).read_text())[0]["Tw"])
    assert t_w == pytest.approx(RECORDED_ROOTS[name], rel=1e-12, abs=0)
    root = t_w if name == "valve_c.csv" else t_w / (1.0 + 1e-6)
    config = load_config(config_path(FIG4))
    radius = 1e-10 * 5.0 / 2
    below, above = (currents_at(config, t).j_c
                    for t in (root - radius, root + radius))
    assert math.copysign(1.0, below) != math.copysign(1.0, above)


def _extended_rk4(L, level, t_final):
    """The dynamics command's RK4 sequence from a pure level under a 9x9
    generator, with its default step and stride, in extended precision:
    the sample times and the vectorized states."""
    dt = 0.01 / np.max(np.abs(np.diag(L)))
    stride = max(1, int(t_final / dt / 1000))
    samples = int(np.ceil(t_final / (dt * stride)))
    hL = (dt * L).astype(np.clongdouble)
    eye = np.eye(9, dtype=np.clongdouble)
    step = eye
    for order in (4, 3, 2, 1):
        step = eye + (hL / order) @ step
    stride_step = np.linalg.matrix_power(step, stride)
    v = np.zeros(9, dtype=np.clongdouble)
    v[4 * (level - 1)] = 1.0
    states = [v]
    for _ in range(samples):
        v = stride_step @ v
        states.append(v)
    return np.arange(samples + 1) * dt * stride, np.array(states)


#: (golden file, its 9x9 reference generator, the greatest distance of a
#: density-matrix entry or min_eigenvalue from the extended-precision RK4
#: under it). The bounds are the distances of the files the 9x9 RK4 wrote,
#: 1.34e-12 and 2.08e-13; the reduced RK4's are 9.4e-14 and 2.07e-13.
GOLDEN_DYNAMICS = [("dynamics_partial.csv", build_partial_secular, 1.3e-12),
                   ("dynamics_full_g0.csv", build_full_secular, 2.1e-13)]


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs a longdouble wider than float64")
@pytest.mark.parametrize("name, build, bound", GOLDEN_DYNAMICS,
                         ids=[case[0] for case in GOLDEN_DYNAMICS])
def test_dynamics_golden_matches_extended_rk4(config_path, name, build,
                                              bound):
    """Both golden trajectories (level 2 to t = 200) are the RK4 sequence
    of the 9x9 reference generator up to roundoff: the same sample times
    bit for bit, entries within the bound, and a trace column that is the
    sum of the file's own populations."""
    config = load_config(config_path(GOLDEN_CONFIGS.get(name, FIG4)))
    times, states = _extended_rk4(build(config).matrix, 2, 200.0)
    rows = np.loadtxt(DATA / name, delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 0], times)
    # column stacking: vec(rho)[i + 3 j] = rho[i, j]
    matrices = states.reshape(-1, 3, 3).transpose(0, 2, 1)
    entries = np.stack([matrices.real, matrices.imag], axis=-1)
    assert np.max(np.abs(rows[:, 1:19] - entries.reshape(-1, 18))) <= bound
    lowest = np.linalg.eigvalsh(matrices.astype(complex)).min(axis=1)
    assert np.max(np.abs(rows[:, 19] - lowest)) <= bound
    assert np.array_equal(rows[:, 20], rows[:, 1] + rows[:, 9] + rows[:, 17])


def test_parser_is_built_once(config_path, capsys):
    """A usage error, a sweep and a valve run in one process give the exit
    codes and bytes of each run alone, with a parser of its own."""
    path = config_path(FIG4)
    requests = [["valve", "--config", path, "--which", "x"],
                ["sweep", "--config", path, "--grid", "g=0:1.2:3",
                 "--grid", "Tw=1:5:3"],
                ["valve", "--config", path, "--bracket", "1:5"]]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in requests:
        cli._parser.cache_clear()
        alone.append(run(argv))
    assert [code for code, _, _ in alone] == [1, 2, 0]
    cli._parser.cache_clear()
    assert run(requests[0]) == alone[0]
    parser = cli._parser()
    assert [run(argv) for argv in requests[1:]] == alone[1:]
    assert cli._parser() is parser
    assert cli._parser.cache_info().misses == 1


# the CSV serialization of reports before the columnar table, kept as the
# oracle of the table writers
def oracle_csv_row(report, t_w, g):
    values = (t_w, g, report.j_h, report.j_c, report.j_w, report.j_c12,
              report.j_c13, report.coherence_abs, report.cop,
              report.carnot_cop, report.entropy_rate)
    return ["" if v is None else f"{v:.17g}" for v in values]


def oracle_sweep_csv(coordinates, results):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(CurrentReport.CSV_COLUMNS) + ["status"])
    for (t_w, g), result in zip(coordinates, results):
        if isinstance(result, Exception):
            writer.writerow([f"{t_w:.17g}", f"{g:.17g}"] + [""] * 9
                            + [str(result)])
        else:
            writer.writerow(oracle_csv_row(result, t_w, g) + ["ok"])
    return buffer.getvalue()


def oracle_phase_map_csv(rows):
    """The phase map's CSV of (T_w, g, report or exception, alpha_J,
    function class, amplifier class) rows, written row by row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(CurrentReport.CSV_COLUMNS)
                    + ["alpha_j", "function_class", "amplifier_class", "error"])
    for t_w, g, result, alpha, function, amplifier in rows:
        error = isinstance(result, Exception)
        row = ([f"{t_w:.17g}", f"{g:.17g}"] + [""] * 9 if error
               else oracle_csv_row(result, t_w, g))
        alpha = (f"{alpha:.17g}" if amplifier in ("amplifier", "contraction")
                 else "")
        writer.writerow(row + [alpha, function, amplifier,
                               str(result) if error else ""])
    return buffer.getvalue()


floats = st.floats(allow_nan=True, allow_infinity=True)
#: coordinates and Carnot bounds, which repeat across the rows of a grid:
#: the writers format each distinct value once, and must still tell -0.0
#: from 0.0
repeating = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                             1.5]) | floats
#: error text with the characters CSV must quote
messages = st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="\x00")
                   | st.sampled_from(',"\n\r '), max_size=12)
reports = st.builds(CurrentReport, floats, floats, floats, floats, floats,
                    floats, st.none() | st.floats(allow_nan=False),
                    repeating, floats)
results = st.lists(st.tuples(repeating, repeating,
                             reports | messages.map(RuntimeError)),
                   max_size=8)

#: one row of each kind: an undefined COP, and an error message with a
#: comma and a quote; the last two coordinates and Carnot bounds are -0.0
#: and 0.0 in turn
KNOWN_ROWS = [
    (2.0, 0.02, CurrentReport(1e-4, -2e-5, -8e-5, -1e-5, -1e-5, 3e-4, None,
                              2.8, -4e-6)),
    (3.0, 0.5, RuntimeError('bad, "quoted" value')),
    (4.0, -0.0, CurrentReport(-0.0, 5e-324, math.inf, -math.inf, math.nan,
                              0.0, -1.5, 0.0, 1e308)),
    (4.0, 0.0, CurrentReport(1e-4, -2e-5, -8e-5, -1e-5, -1e-5, 3e-4, 1.25,
                             -0.0, -4e-6)),
]


def table_of(rows) -> CurrentTable:
    """The CurrentTable of (T_w, g, report or exception) rows, as the
    engine lays it out: NaN for an undefined COP."""
    values = np.array([result.values() if isinstance(result, CurrentReport)
                       else [math.nan] * 9 for _, _, result, *_ in rows])
    errors = [result if isinstance(result, Exception) else None
              for _, _, result, *_ in rows]
    return CurrentTable(values.reshape(-1, 9), errors, None)


def coordinates_of(rows):
    return (np.array([row[0] for row in rows], dtype=float),
            np.array([row[1] for row in rows], dtype=float))


def table_sweep_csv(rows):
    """cli's writer, fed as cmd_sweep feeds it: coordinate columns and a
    CurrentTable."""
    return cli._sweep_csv(*coordinates_of(rows), table_of(rows))


@given(results)
def test_sweep_csv_matches_the_per_row_writer(rows):
    for case in (rows, KNOWN_ROWS + rows):
        text, failures = table_sweep_csv(case)
        assert text == oracle_sweep_csv([(t_w, g) for t_w, g, _ in case],
                                        [result for _, _, result in case])
        assert failures == sum(isinstance(result, Exception)
                               for _, _, result in case)


def test_known_rows_round_trip():
    text, failures = table_sweep_csv(KNOWN_ROWS)
    assert failures == 1
    rows = read_rows(text)
    assert rows[0]["cop"] == "" and rows[0]["status"] == "ok"
    assert rows[1]["status"] == 'bad, "quoted" value'
    assert rows[2]["j_h"] == "-0" and rows[2]["j_c12"] == "-inf"


@given(st.lists(st.tuples(
    repeating, repeating, reports | messages.map(RuntimeError), repeating,
    st.sampled_from(["valve", "refrigerator", "heater", "error"]),
    st.sampled_from(["amplifier", "contraction", "undefined", "error"])),
    max_size=8))
def test_phase_map_csv_matches_the_per_row_writer(rows):
    """A PhaseMap's CSV is the per-row writer's CSV of the rows it holds.
    Rows hold a report or an error; alpha_J is printed for the amplifier and
    contraction classes alone."""
    result = PhaseMap(*coordinates_of(rows), table_of(rows),
                      np.array([row[3] for row in rows], dtype=float),
                      np.array([row[4] for row in rows], dtype=str),
                      np.array([row[5] for row in rows], dtype=str))
    assert phase_map_csv(result) == oracle_phase_map_csv(rows)
