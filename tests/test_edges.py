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
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from trithermal import solver
from trithermal.cli import main
from trithermal.generator import reduced_partial_secular
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
    current_table,
)
from trithermal.rates import FrequencyDomainError
from trithermal.solver import SteadyStateError

TYPED_ERRORS = (SteadyStateError, FrequencyDomainError,
                UndefinedObservableError)
CURRENTS = ("j_h", "j_c", "j_w", "j_c12", "j_c13", "coherence_abs")
#: the smallest normal float, whose inverse is finite
COLDEST = sys.float_info.min


@st.composite
def operating_documents(draw):
    """Config documents of devices in the operating range, the benchmark's
    too: omega_b 0.5 to 0.9, T_c between omega_b and T_h = 1, g 0 to 0.2,
    T_w 0.5 to 8, gamma 0.004 to 0.016 and cutoff 20 to 100."""
    omega_b = draw(st.floats(0.5, 0.9))
    t_c = omega_b + draw(st.floats(0.05, 0.95)) * (1.0 - omega_b)
    system = {"omega_a": 1.0, "omega_b": omega_b,
              "g": draw(st.floats(0.0, 0.2))}
    baths = [{"label": label, "temperature": t,
              "gamma": draw(st.floats(0.004, 0.016)),
              "cutoff": draw(st.floats(20.0, 100.0))}
             for label, t in zip("hcw", (1.0, t_c, draw(st.floats(0.5, 8.0))))]
    return {"system": system, "baths": baths}


@st.composite
def edge_documents(draw, coldest=0.0):
    """Config documents of operating-range devices with one edge applied.

    Temperatures that tend to 0 are drawn down to ``coldest``, exclusive
    when it is 0."""
    document = draw(operating_documents())
    system, baths = document["system"], document["baths"]
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
    return document


def log_uniform(low, high):
    """Floats spread evenly over the decades from 10**low to 10**high."""
    return st.floats(low, high).map(lambda exponent: 10.0 ** exponent)


@st.composite
def extreme_documents(draw):
    """Config documents far outside the operating range: gamma, temperature
    and cutoff log-uniform over many decades, and g up to 0.99 of the
    sqrt(omega_a omega_b) where omega_2 reaches 0."""
    omega_b = draw(st.floats(0.1, 1.0))
    system = {"omega_a": 1.0, "omega_b": omega_b,
              "g": draw(st.floats(0.0, 0.99)) * math.sqrt(omega_b)}
    baths = [{"label": label, "temperature": draw(log_uniform(-3, 3)),
              "gamma": draw(log_uniform(-8, 1)),
              "cutoff": draw(log_uniform(-1, 3))} for label in "hcw"]
    return {"system": system, "baths": baths}


def document(omega_b, g, *baths):
    """Config document of a device with omega_a = 1; ``baths`` are the
    (temperature, gamma, cutoff) of h, c and w."""
    return {"system": {"omega_a": 1.0, "omega_b": omega_b, "g": g},
            "baths": [{"label": label, "temperature": t, "gamma": gamma,
                       "cutoff": cutoff}
                      for label, (t, gamma, cutoff) in zip("hcw", baths)]}


#: devices whose rank the certificate leaves to the SVD: one without baths
#: (null space dimension 3), and two extreme draws, whose null space
#: dimensions are 1 and 2; the fourth singular value of the second is 0.97
#: of the null-space threshold
NO_BATHS = document(0.8, 0.0, (1.0, 0.0, 50.0), (0.85, 0.0, 50.0),
                    (2.0, 0.0, 50.0))
REFUSED_RANK_1 = document(
    0.9680152061443216, 0.4766486111767905,
    (614.149837081629, 6.351658327994879e-08, 23.00615105164133),
    (0.004282679376753964, 2.3394941905253628e-07, 294.78714169161464),
    (857.6956346283831, 9.854988939284619, 178.08200639090492))
REFUSED_RANK_2 = document(
    0.996313347584628, 0.3791286203775529,
    (0.008223862224601338, 8.49586733470417e-08, 0.9703189369288909),
    (0.011721100814012482, 5.2972007249312076e-08, 14.980684620152942),
    (300.0362816828451, 1.159850585129877, 65.42989654315689))


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
    report, = current_table(points).reports()
    table = current_table(points, tw_slopes=True)
    if isinstance(report, Exception):
        assert isinstance(report, TYPED_ERRORS)
        error, = table.errors
        assert type(error) is type(report)
        assert str(error) == str(report)
        return
    assert isinstance(report, CurrentReport)
    assert_sound(report)
    assert table.reports() == [report]
    assert np.isfinite(table.slopes).all()


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


@settings(max_examples=150, deadline=None)
@given(st.lists(edge_documents(coldest=COLDEST) | extreme_documents(),
                min_size=1, max_size=4))
@example([NO_BATHS, REFUSED_RANK_1, REFUSED_RANK_2])
@example([REFUSED_RANK_1])
def test_certified_rank_agrees_with_the_svd(documents):
    """A point the engine solves without its SVD has null space dimension
    1 by that SVD; a point it sends to the SVD gets the SVD's verdict."""
    points = stack_points([device(document) for document in documents])
    generators = reduced_partial_secular(points)
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        reports = current_table(points).reports()
        seen = [row for call in svd.call_args_list for row in call.args[0]]
    usable = (np.isfinite(generators.matrix).all(axis=(1, 2))
              & ~generators.out_of_domain)
    null_dims = solver._null_dims(generators.matrix[usable],
                                  np.abs(generators.decay[usable]))
    scaled = generators.matrix * solver._ORTHONORMAL
    for i, null_dim in zip(np.flatnonzero(usable), null_dims):
        degenerate = (f"degenerate steady state: null space dimension "
                      f"{null_dim}")
        refused = any(np.array_equal(row, scaled[i]) for row in seen)
        if not refused:
            assert null_dim == 1
        if null_dim == 1:
            assert not str(reports[i]).startswith("degenerate")
        else:
            assert str(reports[i]) == degenerate
