"""End-to-end checks of the headline device behaviors.

Each test prints one PASS/FAIL line; tolerances are part of the contract
and are not to be loosened.
"""

import time

import numpy as np
import pytest

from trithermal.model import (
    BathSpec,
    DeviceConfig,
    SystemParams,
    stack_points,
)
from trithermal import solver
from trithermal.generator import reduced_partial_secular
from trithermal.solver import evolve
from trithermal.observables import current_scale
from trithermal.analysis import (
    MeasurementRangeError,
    amplification_factor,
    critical_tc,
    currents_at,
    find_current_zero,
    measure_temperature,
    sensitivity,
)

from reference import (
    build_full_secular,
    build_partial_secular,
    detailed_balance_residual,
    exact_diagonal_populations,
    steady_state,
)


def record(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def device(omega_b, g, t_h, t_c, t_w, gamma=0.008, cutoff=50.0):
    return DeviceConfig(
        system=SystemParams(1.0, omega_b, g),
        baths=(BathSpec("h", t_h, gamma, cutoff),
               BathSpec("c", t_c, gamma, cutoff),
               BathSpec("w", t_w, gamma, cutoff)))


def refrigerator(g=0.02, t_w=2.0):
    return device(0.8, g, 1.0, 0.85, t_w)


def random_device(rng, coupled):
    omega_b = rng.uniform(0.3, 0.99)
    g = rng.uniform(0.0, 0.1) if coupled else 0.0
    t_h, t_c, t_w = rng.uniform(0.1, 5.0, size=3)
    gamma = rng.uniform(0.001, 0.02)
    cutoff = rng.uniform(10.0, 100.0)
    return device(omega_b, g, t_h, t_c, t_w, gamma, cutoff)


def test_criterion_1_valve_points():
    started = time.perf_counter()
    config = refrigerator()
    tw_h = find_current_zero(config, "h", (1.0, 5.0))
    tw_c = find_current_zero(config, "c", (1.0, 5.0))
    elapsed = time.perf_counter() - started
    ok = (abs(tw_h - 3.42) <= 0.05 and abs(tw_c - 3.53) <= 0.05
          and elapsed < 5.0)
    record(1, "valve working points Tw(Jh=0)=3.42+-0.05, Tw(Jc=0)=3.53+-0.05,"
              " under 5 s", ok,
           f"Tw(Jh=0)={tw_h:.4f}, Tw(Jc=0)={tw_c:.4f}, {elapsed:.2f} s")


def test_criterion_2_coherence_peak():
    couplings = np.arange(0.0, 0.1001, 0.005)
    target_index = 4  # g = 0.02 on the 0.005-step grid
    maximizers = {}
    indices = {}
    for t_w in (0.5, 1.0, 2.0, 3.0):
        config = device(0.95, 0.0, 1.0, 0.1, t_w)
        coherence = [abs(steady_state(
            build_partial_secular(config.with_coupling(float(g))))[1, 2])
            for g in couplings]
        indices[t_w] = int(np.argmax(coherence))
        maximizers[t_w] = round(float(couplings[indices[t_w]]), 3)
    ok = all(abs(i - target_index) <= 1 for i in indices.values())
    record(2, "steady-state |rho23| over g in [0, 0.1] peaks at "
              "g = 0.02 +- 0.005 across the Tw band", ok,
           f"maximizers {maximizers}")


def test_criterion_3_cop_identity():
    cops = [currents_at(refrigerator(g=0.0), t_w).cop
            for t_w in np.linspace(3.5, 8.0, 12)]
    worst = max(abs(c - 4.0) for c in cops)
    spread = max(cops) - min(cops)
    ok = worst < 1e-8 and spread < 1e-8
    record(3, "uncoupled COP Jc/Jw = wb/delta = 4 within 1e-8, "
              "Tw-independent", ok,
           f"max |eta - 4| = {worst:.2e}, spread = {spread:.2e}")


def test_criterion_4_carnot_equality_at_onset():
    config = refrigerator(g=0.0)
    onset = find_current_zero(config, "c", (2.0, 5.0))
    carnot = currents_at(config, onset).carnot_cop
    # every current vanishes at the onset itself, so the COP is taken as
    # its limit from inside the cooling window (it is Tw-independent there,
    # criterion 3)
    eta = currents_at(config, onset + 1e-3).cop
    ok = abs(onset - 3.4) < 1e-6 and abs(eta - carnot) < 1e-6
    record(4, "cooling onset at Tw = 3.4 where the COP meets its Carnot "
              "bound to 1e-6", ok,
           f"onset = {onset:.8f}, |eta - etaC| = {abs(eta - carnot):.2e}")


def test_criterion_5_thermometer_round_trip():
    readings = {}
    for hidden, expected_tw in ((0.9, 1.2), (0.7, 2.8)):
        reading = measure_temperature(device(0.6, 0.0, 1.0, hidden, 1.0))
        readings[hidden] = reading
    ok = all(
        abs(readings[tc].tw_star - tw) <= 1e-6 * tw
        and abs(readings[tc].tc_estimate - tc) <= 1e-6 * tc
        for tc, tw in ((0.9, 1.2), (0.7, 2.8)))
    with pytest.raises(MeasurementRangeError):
        measure_temperature(device(0.6, 0.0, 1.0, 0.55, 1.0))
    record(5, "thermometer recovers Tc=0.9 -> Tw*=1.2 and Tc=0.7 -> Tw*=2.8 "
              "to 1e-6 relative; Tc < xi Th raises the range error", ok,
           f"Tw* = {readings[0.9].tw_star:.8f}, {readings[0.7].tw_star:.8f}")


def test_criterion_6_sensitivity_range():
    boundary = critical_tc(10.0, 2.0, 0.6)
    lower = 0.6 * 2.0  # open lower end of the measurable window
    inside = np.linspace(lower + 1e-6, boundary, 50)
    gains = [sensitivity(t, 2.0, 0.6) for t in inside]
    ok = (abs(boundary - 1.51) <= 0.01
          and all(gain >= 10.0 - 1e-9 for gain in gains)
          and sensitivity(boundary + 0.01, 2.0, 0.6) < 10.0)
    record(6, "Th=2, xi=0.6, alpha_T=10 -> T'c = 1.51 +- 0.01 and the gain "
              "stays >= 10 on (1.2, T'c]", ok, f"T'c = {boundary:.5f}")


def test_criterion_7_conservation_laws():
    rng = np.random.default_rng(2024)
    worst_first_law = 0.0
    worst_entropy = -np.inf
    for _ in range(1000):
        config = random_device(rng, coupled=True)
        report = currents_at(config, config.temperature("w"))
        scale = current_scale(report.j_h, report.j_c, report.j_w)
        worst_first_law = max(worst_first_law,
                              abs(report.j_h + report.j_c + report.j_w)
                              / scale)
        worst_entropy = max(worst_entropy, report.entropy_rate)
    ok = worst_first_law <= 1e-12 and worst_entropy <= 1e-12
    record(7, "1000 random devices: |Jh+Jc+Jw| <= 1e-12 scale and "
              "sum Jmu/Tmu <= 1e-12", ok,
           f"worst first law {worst_first_law:.2e}, "
           f"worst entropy rate {worst_entropy:.2e}")


def test_criterion_7_without_extended_precision(monkeypatch):
    """Criterion 7 where longdouble is plain double (Windows, macOS arm64):
    the steady states are polished in float64."""
    monkeypatch.setattr(solver, "_EXTENDED", np.float64)
    test_criterion_7_conservation_laws()


def test_criterion_8_diagonal_oracle():
    rng = np.random.default_rng(515)
    worst_state = 0.0
    worst_balance = 0.0
    for _ in range(1000):
        config = random_device(rng, coupled=False)
        numeric = steady_state(build_full_secular(config))
        # the closed form, evaluated exactly: the check's own roundoff is 0
        analytic = np.diag([float(p) for p in
                            exact_diagonal_populations(config)])
        worst_state = max(worst_state, float(np.max(np.abs(
            numeric - analytic))))
        worst_balance = max(worst_balance, *(abs(r) for r in
                            detailed_balance_residual(config, numeric)))
    ok = worst_state < 1e-10 and worst_balance < 1e-10
    record(8, "1000 random uncoupled devices: numeric steady state matches "
              "the closed form to 1e-10 and detailed balance holds", ok,
           f"worst state diff {worst_state:.2e}, "
           f"worst balance residual {worst_balance:.2e}")


def test_criterion_9_positivity():
    worst = np.inf
    for config in (device(0.95, 0.02, 1.0, 0.1, 1.0),
                   refrigerator()):
        # the relaxation time from the spectrum of the 9x9 reference
        eigenvalues = np.linalg.eigvals(build_partial_secular(config).matrix)
        decaying = eigenvalues[np.abs(eigenvalues) > 1e-12]
        relaxation_time = 1.0 / abs(np.max(decaying.real))
        horizon = 10.0 * relaxation_time
        generators = reduced_partial_secular(stack_points([config]))
        for level in (1, 2, 3):
            trajectory = evolve(generators, np.eye(5)[level - 1], horizon,
                                dt=horizon / 2000)
            worst = min(worst, float(trajectory.min_eigenvalues.min()))
    ok = worst >= -1e-8
    record(9, "pure-state trajectories keep min eigenvalue >= -1e-8 over "
              "10 relaxation times (both reference parameter sets)", ok,
           f"worst eigenvalue {worst:.2e}")


def test_criterion_10_amplifier_boundary():
    t_w = 6.0  # inside the cooling window of the weakly coupled device
    weak = amplification_factor(refrigerator(g=0.05), t_w)
    strong = amplification_factor(refrigerator(g=0.2), t_w)
    # alpha_J from central differences of the currents, at a step and at
    # half of it, against the exact derivatives
    config = refrigerator(g=0.05)
    differenced = []
    for step in (1e-5, 5e-6):
        upper = currents_at(config, t_w + step)
        lower = currents_at(config, t_w - step)
        differenced.append(abs((upper.j_c - lower.j_c)
                               / (upper.j_w - lower.j_w)))
    drift = max(abs(weak - alpha) for alpha in differenced) / weak
    ok = weak > 1.0 and strong < 1.0 and drift < 1e-4
    record(10, "alpha_J > 1 at g=0.05 and < 1 at g=0.2 at matched Tw; "
               "step halving moves it by < 1e-4 relative", ok,
           f"alpha(0.05)={weak:.3f}, alpha(0.2)={strong:.3f}, "
           f"halving drift {drift:.1e}")
