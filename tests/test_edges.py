"""Physically valid edge devices give finite currents or a typed error.

The edges: a bath temperature tending to 0, one far above its cutoff, a
detached bath (gamma = 0), degenerate excited levels (delta = 0) with and
without coupling, and coupling so large that omega_2 < 0.
"""

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from trithermal.cli import main
from trithermal.model import (
    BathSpec,
    ConfigError,
    DeviceConfig,
    SystemParams,
    stack_points,
)
from trithermal.observables import (
    CurrentReport,
    UndefinedObservableError,
    current_reports,
)
from trithermal.rates import FrequencyDomainError
from trithermal.solver import SteadyStateError

TYPED_ERRORS = (SteadyStateError, FrequencyDomainError,
                UndefinedObservableError)
CURRENTS = ("j_h", "j_c", "j_w", "j_c12", "j_c13", "coherence_abs")
#: the smallest normal float, whose inverse is finite
COLDEST = sys.float_info.min


@st.composite
def edge_documents(draw, coldest=0.0):
    """Config documents of operating-range devices with one edge applied.

    Temperatures that tend to 0 are drawn down to ``coldest``, exclusive
    when it is 0."""
    omega_b = draw(st.floats(0.5, 0.9))
    t_c = omega_b + draw(st.floats(0.05, 0.95)) * (1.0 - omega_b)
    system = {"omega_a": 1.0, "omega_b": omega_b,
              "g": draw(st.floats(0.0, 0.2))}
    baths = [{"label": label, "temperature": t,
              "gamma": draw(st.floats(0.004, 0.016)),
              "cutoff": draw(st.floats(20.0, 100.0))}
             for label, t in zip("hcw", (1.0, t_c, draw(st.floats(0.5, 8.0))))]
    edge = draw(st.sampled_from(["cold", "hot", "detached", "degenerate",
                                 "large g"]))
    bath = draw(st.sampled_from(baths))
    if edge == "cold":
        bath["temperature"] = draw(st.floats(coldest, 1e-2,
                                             exclude_min=coldest == 0.0))
    elif edge == "hot":
        bath["temperature"] = bath["cutoff"] * draw(st.floats(10.0, 1e12))
    elif edge == "detached":
        bath["gamma"] = 0.0
    elif edge == "degenerate":
        system["omega_b"] = 1.0
        system["g"] = draw(st.just(0.0) | st.floats(0.0, 0.2))
    else:
        system["g"] = draw(st.floats(0.3, 1e3))
    return {"system": system, "baths": baths}


def device(document):
    return DeviceConfig(system=SystemParams(**document["system"]),
                        baths=tuple(BathSpec(**bath)
                                    for bath in document["baths"]))


def assert_sound(report):
    """Finite currents; the Carnot bound and the entropy rate, which hold
    1/T, may overflow to +-inf as a temperature tends to 0 but are never
    NaN."""
    assert all(math.isfinite(getattr(report, name)) for name in CURRENTS)
    assert report.cop is None or math.isfinite(report.cop)
    assert not math.isnan(report.carnot_cop)
    assert not math.isnan(report.entropy_rate)


@settings(max_examples=200, deadline=None)
@given(edge_documents(coldest=COLDEST))
def test_engine_gives_finite_currents_or_a_typed_error(document):
    points = stack_points([device(document)])
    report, = current_reports(points)
    response, = current_reports(points, tw_slopes=True)
    if isinstance(report, Exception):
        assert isinstance(report, TYPED_ERRORS)
        assert type(response) is type(report)
        assert str(response) == str(report)
        return
    assert isinstance(report, CurrentReport)
    assert_sound(report)
    assert response.report == report
    assert math.isfinite(response.d_jc) and math.isfinite(response.d_jw)


@settings(max_examples=60, deadline=None)
@given(edge_documents())
def test_sweep_exits_with_a_documented_code(document):
    """A one-point sweep of the edge device: exit 0 with finite currents,
    2 with the error on the row, or 1 for a config the model rejects."""
    with tempfile.TemporaryDirectory() as directory:
        config = Path(directory) / "device.json"
        out = Path(directory) / "sweep.csv"
        config.write_text(json.dumps(document))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["sweep", "--config", str(config),
                         "--out", str(out)])
        if code == 1:
            assert stderr.getvalue().startswith("error: bath ")
            try:
                device(document)
            except ConfigError:
                return
            raise AssertionError("exit 1 for a config the model accepts")
        row, = csv.DictReader(io.StringIO(out.read_text()))
    if code == 0:
        assert row["status"] == "ok"
        assert all(math.isfinite(float(row[name])) for name in CURRENTS)
        assert not math.isnan(float(row["carnot_cop"]))
    else:
        assert code == 2
        assert row["status"] not in ("", "ok")
        assert row["j_h"] == ""
