import csv
import io
import json
import math

import pytest

from trithermal.cli import load_config, main, parse_bracket, parse_grid

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

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["sweep", "--config", str(path)]) == 1

    def test_missing_file(self):
        assert main(["sweep", "--config", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize("where, key", [
        ("system", "g"), ("bath", "gamma"), ("bath", "temperature")])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, config_path, capsys, where,
                                       key, value):
        """JSON NaN and Infinity parse; the model rejects them (exit 1)."""
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

    def test_threaded_output_is_identical(self, config_path, capsys):
        path = config_path(FIG4)
        main(["sweep", "--config", path, "--grid", "Tw=1:4:13"])
        serial = capsys.readouterr().out
        main(["sweep", "--config", path, "--grid", "Tw=1:4:13",
              "--threads", "4"])
        threaded = capsys.readouterr().out
        assert serial == threaded

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
    path = config_path(FIG4)
    assert main(["amplifier", "--config", path, "--tw", "6"]) == 0
    captured = capsys.readouterr()
    row = read_rows(captured.out)[0]
    assert float(row["alpha_j"]) > 1.0
    assert "(amplifier)" in captured.err


def test_step_is_accepted_with_no_effect(config_path, capsys):
    """alpha_J is the exact derivative; --step is only echoed."""
    path = config_path(FIG4)
    outputs = []
    for step in ([], ["--step", "0.3"]):
        assert main(["amplifier", "--config", path, "--tw", "6"] + step) == 0
        assert main(["phase-map", "--config", path, "--grid", "Tw=3:6:2",
                     "--grid", "g=0:0.2:2"] + step) == 0
        outputs.append(capsys.readouterr().out.split("\n"))
    default, stepped = outputs
    assert default[0] == stepped[0] == "Tw,g,alpha_j,fd_step"
    assert default[1].rsplit(",", 1)[0] == stepped[1].rsplit(",", 1)[0]
    assert stepped[1].endswith(",0.29999999999999999")
    assert default[2:] == stepped[2:]


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


def test_unknown_command_is_usage_error():
    assert main(["frobnicate", "--config", "x"]) == 1
