import csv
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import trithermal.cli as cli
from trithermal.analysis import PhasePoint, phase_map_csv
from trithermal.cli import load_config, main, parse_bracket, parse_grid
from trithermal.observables import CurrentReport

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


@pytest.mark.parametrize("flag, value, message", [
    ("--t-final", "inf", "--t-final must be finite"),
    ("--t-final", "nan", "--t-final must be finite"),
    ("--dt", "inf", "--dt must be finite"),
    ("--dt", "nan", "--dt must be finite"),
    ("--dt", "0", "dt must be positive")])
def test_dynamics_rejects_bad_times(config_path, capsys, flag, value,
                                    message):
    """A config error (exit 1), not a traceback or a one-sample run."""
    assert main(["dynamics", "--config", config_path(FIG4),
                 "--t-final", "200", flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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


#: (file under tests/data, argv after --config, exit code) of the FIG4
#: device, or of the config GOLDEN_CONFIGS names for the file. The grid and
#: root files hold the CSV each command wrote before grid output came from
#: the engine's columnar table, the dynamics files the trajectories of the
#: 9x9 builders that dynamics runs on; none may change a byte
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
    ("dynamics_full_g0.csv", ["dynamics", "--secular", "full",
                              "--t-final", "200"], 0),
]
GOLDEN_CONFIGS = {"dynamics_full_g0.csv": {**FIG4, "system": {
    **FIG4["system"], "g": 0.0}}}

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


def oracle_phase_map_csv(points):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(CurrentReport.CSV_COLUMNS)
                    + ["alpha_j", "function_class", "amplifier_class", "error"])
    for p in points:
        if p.report is None:
            row = [f"{p.t_w:.17g}", f"{p.g:.17g}"] + [""] * 9
        else:
            row = oracle_csv_row(p.report, p.t_w, p.g)
        alpha = "" if p.alpha_j is None else f"{p.alpha_j:.17g}"
        writer.writerow(row + [alpha, p.function_class, p.amplifier_class,
                               p.error])
    return buffer.getvalue()


floats = st.floats(allow_nan=True, allow_infinity=True)
#: error text with the characters CSV must quote
messages = st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="\x00")
                   | st.sampled_from(',"\n\r '), max_size=12)
reports = st.builds(CurrentReport, floats, floats, floats, floats, floats,
                    floats, st.none() | st.floats(allow_nan=False), floats,
                    floats)
results = st.lists(st.tuples(floats, floats,
                             reports | messages.map(RuntimeError)),
                   max_size=8)

#: one row of each kind: an undefined COP, and an error message with a
#: comma and a quote
KNOWN_ROWS = [
    (2.0, 0.02, CurrentReport(1e-4, -2e-5, -8e-5, -1e-5, -1e-5, 3e-4, None,
                              2.8, -4e-6)),
    (3.0, 0.5, RuntimeError('bad, "quoted" value')),
    (4.0, -0.0, CurrentReport(-0.0, 5e-324, math.inf, -math.inf, math.nan,
                              0.0, -1.5, 0.0, 1e308)),
]


def table_sweep_csv(rows):
    """cli's writer, fed as cmd_sweep feeds it: report values as rows of a
    CurrentTable, with NaN for an undefined COP."""
    values = np.array([result.values() if isinstance(result, CurrentReport)
                       else [math.nan] * 9 for _, _, result in rows])
    errors = [result if isinstance(result, Exception) else None
              for _, _, result in rows]
    return cli._sweep_csv([(t_w, g) for t_w, g, _ in rows],
                          values.reshape(-1, 9).tolist(), errors)


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
    floats, floats, st.none() | reports, st.none() | st.floats(),
    st.sampled_from(["valve", "refrigerator", "heater", "error"]),
    st.sampled_from(["amplifier", "contraction", "undefined", "error"]),
    st.just("") | messages), max_size=8))
def test_phase_map_csv_matches_the_per_row_writer(fields):
    points = [PhasePoint(*point) for point in fields]
    assert phase_map_csv(points) == oracle_phase_map_csv(points)
