"""The stacked reduced-block engine against the 9x9 reference path."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from trithermal.model import (
    POINT_COLUMNS,
    BathSpec,
    DeviceConfig,
    SystemParams,
    stack_points,
)
from trithermal.generator import (
    _CLOSED,
    _DECAYING,
    _I21,
    _I31,
    _reduce_block,
    reduced_partial_secular,
)
from trithermal.rates import FrequencyDomainError
import trithermal.solver as solver
from trithermal.solver import (
    _ORTHONORMAL,
    analytic_diagonal_steady_state,
    reduced_steady_states,
)
from trithermal.observables import (
    BLOCK_POINTS,
    CurrentReport,
    current_table,
    uncoupled_currents,
)

from reference import (
    _cop_or_none,
    build_partial_secular,
    carnot_cop,
    entropy_production,
    exact_currents,
    exact_uncoupled_currents,
    steady_state,
    steady_state_report,
)
from test_edges import (
    COLDEST,
    device as document_device,
    edge_documents,
    operating_documents,
)

CURRENTS = ("j_h", "j_c", "j_w", "j_c12", "j_c13")


def device(omega_b, g, temperatures, gammas=(0.008,) * 3,
           cutoffs=(50.0,) * 3):
    return DeviceConfig(
        system=SystemParams(1.0, omega_b, g),
        baths=tuple(BathSpec(label, t, gamma, cutoff) for label, t, gamma,
                    cutoff in zip("hcw", temperatures, gammas, cutoffs)))


@st.composite
def devices(draw, g=st.floats(0.0, 0.3)):
    three = st.tuples
    return device(draw(st.floats(0.3, 0.99)), draw(g),
                  draw(three(*[st.floats(0.1, 5.0)] * 3)),
                  draw(three(*[st.floats(0.001, 0.02)] * 3)),
                  draw(three(*[st.floats(10.0, 100.0)] * 3)))


def reference(config):
    """Report of the 9x9 path, or the exception it raises."""
    try:
        generator = build_partial_secular(config)
        return steady_state_report(generator, steady_state(generator))
    except Exception as exc:  # noqa: BLE001 - compared with the engine's
        return exc


def one(config):
    report, = current_table(stack_points([config])).reports()
    return report


def generator_scale(config):
    """max |L| times omega_3: the scale of each term of a current."""
    generator = build_partial_secular(config)
    omega_3 = generator.hamiltonian[2, 2].real
    return float(np.max(np.abs(generator.matrix))) * omega_3


@settings(max_examples=50, deadline=None)
@given(devices())
def test_reduced_form_is_the_closed_block_of_the_9x9(config):
    """The closed block does not couple to the four other coherences, which
    only decay; the stacked builder gives its real form and their diagonal."""
    L = build_partial_secular(config).matrix
    others = [k for k in range(9) if k not in _CLOSED]
    assert not L[np.ix_(_CLOSED, others)].any()
    assert not L[np.ix_(others, _CLOSED)].any()
    assert not (L[np.ix_(others, others)]
                - np.diag(L[others, others])).any()
    reduced = reduced_partial_secular(stack_points([config]))
    scale = np.max(np.abs(L))
    assert np.max(np.abs(reduced.matrix[0] - _reduce_block(L))) <= 1e-15 * scale
    diagonal = L[_DECAYING, _DECAYING]
    assert np.max(np.abs(reduced.decay[0] - diagonal)) <= 1e-15 * scale
    assert np.allclose(L[[_I21, _I31], [_I21, _I31]], diagonal.conj(),
                       rtol=1e-15, atol=0)


@settings(max_examples=150, deadline=None)
@given(devices())
def test_matches_the_9x9_reference(config):
    expected, report = reference(config), one(config)
    if isinstance(expected, Exception):
        assert type(report) is type(expected)
        assert str(report) == str(expected)
        return
    bound = 1e-13 * generator_scale(config)
    for name in CURRENTS:
        assert abs(getattr(report, name) - getattr(expected, name)) <= bound
    assert abs(report.coherence_abs - expected.coherence_abs) <= 1e-13
    assert report.carnot_cop == expected.carnot_cop
    coldest = min(config.temperature(label) for label in "hcw")
    assert abs(report.entropy_rate - expected.entropy_rate) <= (
        3 * bound / coldest)


@settings(max_examples=100, deadline=None)
@given(devices(g=st.just(0.0)))
def test_uncoupled_device_matches_the_closed_form(config):
    """Criterion 8's 1e-10 on the state, and on the currents at the scale
    of their terms."""
    assume(config.temperature("c") != config.temperature("h"))
    analytic = analytic_diagonal_steady_state(config)
    oracle = uncoupled_currents(config, analytic)
    errors = [None]
    states = reduced_steady_states(
        reduced_partial_secular(stack_points([config])), errors)[0]
    assert errors == [None]
    assert np.max(np.abs(states[0, :3] - analytic)) < 1e-10
    report = one(config)
    bound = 1e-10 * generator_scale(config)
    for name in CURRENTS:
        assert abs(getattr(report, name) - getattr(oracle, name)) <= bound
    assert report.coherence_abs <= 1e-10


#: bounds on the distance of current_table's J_h, J_c and J_w from
#: exact_currents, which solves the same float64 generator exactly: of the
#: current scale max |J| on operating-range devices, and of the generator
#: scale on edge devices, where a detached bath leaves currents that are
#: roundoff of their terms and a bath far above its cutoff makes the solve
#: ill conditioned. Measured over 2,000 draws of each: at most 3.3e-16 and
#: 1.4e-18
EXACT_CURRENT_ERROR = 1e-14
EXACT_EDGE_ERROR = 1e-16


def exact_gaps(document):
    """|J - J_exact| of current_table's three currents, and the report,
    of a document's device; None where the engine fails the point. The
    exact currents are asserted to obey the first law exactly."""
    points = stack_points([document_device(document)])
    report, = current_table(points).reports()
    if isinstance(report, Exception):
        return None
    exact = exact_currents(points)[0]
    assert sum(exact) == 0
    currents = (report.j_h, report.j_c, report.j_w)
    gaps = [float(abs(Fraction(j) - x)) for j, x in zip(currents, exact)]
    return gaps, report


@settings(max_examples=100, deadline=None)
@given(operating_documents())
def test_operating_currents_match_the_exact_currents(document):
    result = exact_gaps(document)
    assert result is not None
    gaps, report = result
    scale = max(abs(report.j_h), abs(report.j_c), abs(report.j_w))
    assert max(gaps) <= EXACT_CURRENT_ERROR * scale


@settings(max_examples=100, deadline=None)
@given(edge_documents(coldest=COLDEST))
def test_edge_currents_match_the_exact_currents(document):
    result = exact_gaps(document)
    if result is not None:
        bound = EXACT_EDGE_ERROR * generator_scale(document_device(document))
        assert max(result[0]) <= bound


#: uncoupled devices near equilibrium, (omega_b, (T_h, T_c, T_w), gammas,
#: cutoffs), where the float64 closed form of the g = 0 oracle is off by
#: 1.41 and 1.44 times 1e-10 of the currents' own scale
NEAR_EQUILIBRIUM = [
    (0.5043361407246663, (1.0, 0.5908860328719284, 3.384151803542663),
     (0.0072237490291084455, 0.013154739202035132, 0.015286261626743748),
     (96.54649169616779, 92.47260018869747, 68.04830703620371)),
    (0.7135844050873441, (1.0, 0.8843378598951053, 1.4833496931035641),
     (0.010126950438050196, 0.010281145655442098, 0.005302109120251771),
     (94.30956105106398, 23.02118677162734, 67.82013464276115)),
]


@pytest.mark.parametrize("omega_b, temperatures, gammas, cutoffs",
                         NEAR_EQUILIBRIUM)
def test_uncoupled_currents_near_equilibrium_match_the_exact_closed_form(
        omega_b, temperatures, gammas, cutoffs):
    """Criterion 8's 1e-10 at the scale of the currents themselves, against
    the closed form evaluated exactly from the same float64 rates."""
    config = device(omega_b, 0.0, temperatures, gammas, cutoffs)
    report = one(config)
    exact = [float(j) for j in exact_uncoupled_currents(config)]
    scale = max(abs(report.j_h), abs(report.j_c), abs(report.j_w))
    assert scale < 1e-7  # near equilibrium
    for value, oracle in zip((report.j_h, report.j_c, report.j_w), exact):
        assert abs(value - oracle) <= 1e-10 * scale


def test_grid_longer_than_one_block_equals_single_points():
    rng = np.random.default_rng(7)
    configs = [device(rng.uniform(0.3, 0.99), rng.uniform(0.0, 0.3),
                      rng.uniform(0.1, 5.0, size=3),
                      rng.uniform(0.001, 0.02, size=3),
                      rng.uniform(10.0, 100.0, size=3))
               for _ in range(BLOCK_POINTS + 45)]
    reports = current_table(stack_points(configs)).reports()
    assert len(reports) == len(configs)
    assert reports == [one(config) for config in configs]


NORMAL = device(0.8, 0.02, (1.0, 0.85, 2.0))


@pytest.mark.parametrize("bad", [
    device(0.8, 0.0, (1.0, 0.85, 2.0), gammas=(0.0, 0.0, 0.0)),
    device(0.8, 0.02, (1.0, 0.85, 2.0), gammas=(0.0, 0.0, 0.0)),
    device(0.8, 1.0, (1.0, 0.85, 2.0)),  # omega_2 < 0
    device(0.8, 0.02, (1.0, 1.0, 2.0)),  # Tc = Th
], ids=["uncoupled-no-baths", "coupled-no-baths", "large-g", "tc-equals-th"])
def test_a_failing_point_fails_alone(bad):
    """A failing point between two normal ones carries the exception the
    9x9 path raises; its neighbours equal their own one-point results."""
    expected = reference(bad)
    assert isinstance(expected, Exception)
    first, failed, last = current_table(
        stack_points([NORMAL, bad, NORMAL])).reports()
    assert type(failed) is type(expected)
    assert str(failed) == str(expected)
    assert first == last == one(NORMAL)
    assert isinstance(first, CurrentReport)


@pytest.mark.parametrize("g", [0.0, 0.02], ids=["uncoupled", "coupled"])
def test_only_the_refused_point_reaches_the_svd(g):
    """The rank of a device without baths is left to the SVD, which sees
    that one row of the block; its neighbours, certified without it, equal
    their one-point results bit for bit."""
    bad = device(0.8, g, (1.0, 0.85, 2.0), gammas=(0.0, 0.0, 0.0))
    single = one(NORMAL)
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        first, failed, last = current_table(
            stack_points([NORMAL, bad, NORMAL])).reports()
    (rows,), _ = svd.call_args
    expected = reduced_partial_secular(stack_points([bad])).matrix
    assert svd.call_count == 1
    assert np.array_equal(rows, expected * _ORTHONORMAL)
    assert str(failed) == "degenerate steady state: null space dimension 3"
    assert first == last == single


NO_BATHS = device(0.8, 0.0, (1.0, 0.85, 2.0), gammas=(0.0, 0.0, 0.0))


def test_a_rejected_point_is_not_inverted_again():
    """The bordered matrix of a device without baths is singular, so the
    block's inversion fails and the one with that point stood in for
    succeeds; the SVD's rejection then costs no further inversion."""
    points = stack_points([NORMAL, NO_BATHS, NORMAL])
    with mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inv:
        current_table(points).reports()
    assert inv.call_count <= 2


def test_a_singular_point_the_svd_accepts_fails_alone(monkeypatch):
    """Were the SVD to find the device without baths regular, that point
    alone fails, on its residual; its neighbours equal their one-point
    results."""
    single = one(NORMAL)
    monkeypatch.setattr(solver, "_null_dims",
                        lambda L, decay: np.ones(len(L), dtype=int))
    first, failed, last = current_table(
        stack_points([NORMAL, NO_BATHS, NORMAL])).reports()
    assert str(failed) == "steady-state residual above tolerance"
    assert first == last == single


def test_degenerate_message_keeps_the_null_space_dimension():
    failed = one(device(0.8, 0.0, (1.0, 0.85, 2.0), gammas=(0.0, 0.0, 0.0)))
    assert str(failed) == "degenerate steady state: null space dimension 3"


def test_non_finite_generator_fails_alone():
    """A NaN gamma, which the model rejects, written straight into a stacked
    row: the point fails with a typed error instead of failing the stacked
    rank check of its neighbours."""
    points = stack_points([NORMAL, NORMAL, NORMAL])
    points[1, POINT_COLUMNS.index("gamma_h")] = float("nan")
    first, failed, last = current_table(points).reports()
    assert str(failed) == ("steady-state solve failed: generator has "
                           "non-finite entries")
    assert first == last == one(NORMAL)


def scalar_figures(report, config):
    """COP, Carnot bound and entropy rate of the scalar functions, from the
    table's currents."""
    temperatures = {label: config.temperature(label) for label in "hcw"}
    return (_cop_or_none(report.j_c, report.j_w), carnot_cop(temperatures),
            entropy_production(report.j_h, report.j_c, report.j_w,
                               temperatures))


@settings(max_examples=60, deadline=None)
@given(st.lists(devices(), min_size=1, max_size=6))
def test_table_columns_are_the_scalar_figures_bit_for_bit(configs):
    """COP, Carnot bound and entropy rate of the columnar table equal the
    scalar functions exactly: the same float64 operations, in order."""
    for config, report in zip(configs,
                              current_table(stack_points(configs)).reports()):
        if not isinstance(report, Exception):
            assert (report.cop, report.carnot_cop, report.entropy_rate) == \
                scalar_figures(report, config)


def test_table_marks_failures_and_undefined_figures():
    """omega_2 < 0, T_c = T_h, a T_w whose Carnot bound overflows, and a
    work bath with gamma = 0, whose current is 0, in one table."""
    configs = [device(0.8, 0.02, (1.0, 0.85, 2.0)),
               device(0.8, 1.0, (1.0, 0.85, 2.0)),
               device(0.8, 0.02, (1.0, 1.0, 2.0)),
               device(0.8, 0.0, (1.0, 0.85, 2.2250738585072014e-308)),
               device(0.8, 0.02, (1.0, 0.85, 2.0), gammas=(0.008, 0.008, 0.0))]
    table = current_table(stack_points(configs))
    assert table.values.shape == (5, 9) and table.slopes is None
    kinds = [type(error).__name__ for error in table.errors]
    assert kinds == ["NoneType", "FrequencyDomainError",
                     "UndefinedObservableError", "NoneType", "NoneType"]
    reports = table.reports()
    assert reports[1:3] == table.errors[1:3]
    assert reports[3].carnot_cop == -np.inf
    for i in (0, 3, 4):
        assert (reports[i].cop, reports[i].carnot_cop,
                reports[i].entropy_rate) == scalar_figures(reports[i],
                                                           configs[i])
        assert np.array_equal(table.values[i], reports[i].values(),
                              equal_nan=True)
    assert reports[4].cop is None
    assert np.isnan(table.values[4, 6])


def test_tables_with_slopes_match_the_reports():
    configs = [device(0.8, g, (1.0, 0.85, 3.0)) for g in (0.0, 0.02, 1.0)]
    table = current_table(stack_points(configs), tw_slopes=True)
    reports = current_table(stack_points(configs)).reports()
    assert table.slopes.shape == (3, 3)
    assert table.reports()[:2] == reports[:2]
    assert isinstance(reports[2], FrequencyDomainError)
