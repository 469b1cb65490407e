import math

import numpy as np
import pytest

from trithermal.model import (
    BathSpec,
    ConfigError,
    DeviceConfig,
    SystemParams,
    eigensystem,
)
from trithermal.rates import transition_rates
from trithermal.observables import (
    CurrentReport,
    UndefinedObservableError,
    current_scale,
    uncoupled_currents,
)

from reference import (
    build_full_secular,
    build_partial_secular,
    carnot_cop,
    closed_form_currents,
    entropy_production,
    heat_current_trace,
    steady_state,
    steady_state_report,
)
from test_model import make_config


def solved_report(config):
    gen = build_partial_secular(config)
    rho = steady_state(gen)
    return rho, steady_state_report(gen, rho)


class TestConservationLaws:
    def test_first_law(self):
        _, report = solved_report(make_config())
        scale = current_scale(report.j_h, report.j_c, report.j_w)
        assert abs(report.j_h + report.j_c + report.j_w) < 1e-13 * scale

    def test_entropy_rate_non_positive(self):
        _, report = solved_report(make_config())
        assert report.entropy_rate <= 0.0

    def test_cold_current_decomposition_sums(self):
        _, report = solved_report(make_config(g=0.05, t_w=4.0))
        assert report.j_c12 + report.j_c13 == pytest.approx(report.j_c,
                                                            rel=1e-10)


class TestClosedFormRoute:
    def test_agrees_with_trace_route(self):
        """Rates-and-matrix-elements expressions against Tr[H D(rho)]."""
        for t_w in (1.0, 2.0, 3.5, 5.0):
            config = make_config(g=0.05, t_w=t_w)
            rho, trace_route = solved_report(config)
            closed = closed_form_currents(config, rho)
            scale = current_scale(trace_route.j_h, trace_route.j_c,
                                  trace_route.j_w)
            assert abs(closed.j_h - trace_route.j_h) < 1e-12 * scale
            assert abs(closed.j_c - trace_route.j_c) < 1e-12 * scale
            assert abs(closed.j_w - trace_route.j_w) < 1e-12 * scale

    def test_doubled_coherence_weight_breaks_energy_balance(self):
        """A hot-current coherence term with weight -2 f1 (instead of the
        +f1 pattern shared by the cold current) is inconsistent: it opens
        a gap in Jh + Jc + Jw far above roundoff, while the implemented
        form conserves. Kept as a guard against reintroducing it."""
        config = make_config(g=0.05, t_w=4.0)
        rho, report = solved_report(config)
        eig = eigensystem(1.0, 0.8, 0.05)
        h_2 = transition_rates(eig.omega_2, config.bath("h"))
        h_3 = transition_rates(eig.omega_3, config.bath("h"))
        x = 2.0 * rho[1, 2].real
        implemented = eig.f1 * (eig.omega_2 * h_3.down
                                + eig.omega_3 * h_2.down) * x
        doubled = -2.0 * eig.f1 * (eig.omega_2 * h_3.down
                                   + eig.omega_3 * h_2.down) * x
        j_h_doubled = report.j_h - implemented + doubled
        scale = current_scale(report.j_h, report.j_c, report.j_w)
        assert abs(report.j_h + report.j_c + report.j_w) < 1e-12 * scale
        assert abs(j_h_doubled + report.j_c + report.j_w) > 1e-3 * scale


class TestUncoupledCurrents:
    def test_agrees_with_trace_route(self):
        config = make_config(g=0.0, t_w=3.0)
        gen = build_full_secular(config)
        rho = steady_state(gen)
        report = uncoupled_currents(config, rho.diagonal().real)
        for label, value in (("h", report.j_h), ("c", report.j_c),
                             ("w", report.j_w)):
            assert value == pytest.approx(
                heat_current_trace(gen, rho, label), abs=1e-18, rel=1e-12)

    def test_equilibrium_point(self):
        """Tc = 0.9, Tw = 1.2: the three Gibbs factors match and every
        current dies; the COP is reported as undefined there."""
        config = DeviceConfig(
            system=SystemParams(1.0, 0.6, 0.0),
            baths=(BathSpec("h", 1.0, 0.008, 50.0),
                   BathSpec("c", 0.9, 0.008, 50.0),
                   BathSpec("w", 1.2, 0.008, 50.0)))
        gen = build_full_secular(config)
        report = uncoupled_currents(config, steady_state(gen).diagonal().real)
        assert abs(report.j_h) < 1e-18
        assert abs(report.j_c) < 1e-18
        assert abs(report.j_w) < 1e-18
        assert report.cop is None
        assert report.carnot_cop == carnot_cop({"h": 1.0, "c": 0.9, "w": 1.2})

    def test_detached_work_bath_stalls_the_machine(self):
        """With gamma_w = 0 both remaining pairs equilibrate separately and
        no current flows anywhere."""
        config = DeviceConfig(
            system=SystemParams(1.0, 0.8, 0.0),
            baths=(BathSpec("h", 1.0, 0.008, 50.0),
                   BathSpec("c", 0.5, 0.008, 50.0),
                   BathSpec("w", 2.0, 0.0, 50.0)))
        gen = build_full_secular(config)
        report = uncoupled_currents(config, steady_state(gen).diagonal().real)
        assert abs(report.j_h) < 1e-18
        assert abs(report.j_c) < 1e-18
        assert report.j_w == 0.0

    def test_cooling_condition_predicate(self):
        """Jc >= 0 exactly when the Gibbs-factor inequality
        e^(wa/Th) >= e^(wb/Tc) e^(delta/Tw) holds."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            omega_b = rng.uniform(0.3, 0.99)
            t_h, t_c, t_w = rng.uniform(0.1, 5.0, size=3)
            config = DeviceConfig(
                system=SystemParams(1.0, omega_b, 0.0),
                baths=(BathSpec("h", t_h, 0.008, 50.0),
                       BathSpec("c", t_c, 0.008, 50.0),
                       BathSpec("w", t_w, 0.008, 50.0)))
            rho = steady_state(build_full_secular(config))
            report = uncoupled_currents(config, rho.diagonal().real)
            predicted = (1.0 / t_h >= omega_b / t_c + (1.0 - omega_b) / t_w)
            assert (report.j_c >= 0) == predicted

    def test_requires_bare_basis_and_zero_coupling(self):
        """Only at g = 0 are the populations those of the bare levels."""
        config = make_config(g=0.02)
        rho, _ = solved_report(config)
        with pytest.raises(ConfigError):
            uncoupled_currents(config, rho.diagonal().real)


class TestFiguresOfMerit:
    def test_carnot_cop_value(self):
        assert carnot_cop({"h": 1.0, "c": 0.85, "w": 3.4}) == pytest.approx(
            4.0, rel=1e-12)

    def test_carnot_cop_undefined(self):
        with pytest.raises(UndefinedObservableError):
            carnot_cop({"h": 1.0, "c": 1.0, "w": 2.0})

    def test_entropy_production_formula(self):
        value = entropy_production(1.0, -2.0, 0.5,
                                   {"h": 2.0, "c": 1.0, "w": 4.0})
        assert value == pytest.approx(0.5 - 2.0 + 0.125)

    def test_cop_ratio(self):
        _, report = solved_report(make_config(g=0.0, t_w=4.0))
        assert report.cop == pytest.approx(report.j_c / report.j_w, rel=1e-14)
        bound = carnot_cop({"h": 1.0, "c": 0.85, "w": 4.0})
        assert report.carnot_cop == bound
        assert report.cop <= bound

    def test_csv_row_format(self):
        _, report = solved_report(make_config())
        row = report.csv_row(2.0, 0.02)
        assert len(row) == len(CurrentReport.CSV_COLUMNS)
        assert float(row[0]) == 2.0
        # 17 significant digits survive the string round trip
        assert float(row[2]) == report.j_h


def boltzmann_temperatures(rho, config):
    """T_s = omega_s / ln(rho_11 / rho_ss) of the two ground-excited level
    pairs of a g = 0 state: the hot pair (a) and the cold pair (b)."""
    p_1, p_b, p_a = rho.diagonal().real
    return (config.system.omega_a / math.log(p_1 / p_a),
            config.system.omega_b / math.log(p_1 / p_b))


class TestEffectiveTemperatures:
    def test_equilibrium_reads_bath_temperatures(self):
        config = DeviceConfig(
            system=SystemParams(1.0, 0.6, 0.0),
            baths=(BathSpec("h", 1.0, 0.008, 50.0),
                   BathSpec("c", 0.9, 0.008, 50.0),
                   BathSpec("w", 1.2, 0.008, 50.0)))
        rho = steady_state(build_full_secular(config))
        t_a, t_b = boltzmann_temperatures(rho, config)
        assert t_a == pytest.approx(1.0, rel=1e-10)
        assert t_b == pytest.approx(0.9, rel=1e-10)

    def test_refrigeration_ordering(self):
        """While cooling, the cold pair reads below the sample and the hot
        pair above the conductor: Tb < Tc < Th < Ta."""
        config = DeviceConfig(
            system=SystemParams(1.0, 0.6, 0.0),
            baths=(BathSpec("h", 1.0, 0.008, 50.0),
                   BathSpec("c", 0.9, 0.008, 50.0),
                   BathSpec("w", 2.5, 0.008, 50.0)))
        rho = steady_state(build_full_secular(config))
        report = uncoupled_currents(config, rho.diagonal().real)
        assert report.j_c > 0
        t_a, t_b = boltzmann_temperatures(rho, config)
        assert t_b < 0.9 < 1.0 < t_a
