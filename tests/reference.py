"""The 9x9 reference path: the tests' oracle for the stacked engine.

``steady_state`` solves a full 9x9 generator on its own, and
``steady_state_report`` polishes that state in extended precision and
takes the energy traces bath by bath. ``closed_form_currents`` evaluates the
same currents from rates and matrix elements alone, an independent route
that must agree with the trace route at roundoff level. At g = 0,
``detailed_balance_residual`` checks a diagonal state against the three
uncoupled channels.

The package computes every current through ``observables.current_table``
on the reduced block; nothing under src/ imports this module.
"""

from __future__ import annotations

import numpy as np

from trithermal.model import (
    BARE,
    ConfigError,
    DensityMatrix,
    DeviceConfig,
    diagonalize,
)
from trithermal.generator import (
    Generator,
    unvectorize,
    vectorize,
    _I11,
    _I22,
    _I33,
)
from trithermal.rates import transition_rates
from trithermal.solver import SteadyStateError
from trithermal.observables import (
    CurrentReport,
    _cop_or_none,
    carnot_cop,
    entropy_production,
)

# 80-bit extended precision where the platform provides it (x86 linux does);
# used only to polish steady states before taking energy traces
_EXTENDED = getattr(np, "complex256", np.complex128)


def steady_state(generator: Generator) -> DensityMatrix:
    """Unique null vector of the generator, normalized to unit trace.

    One redundant row (the rho_11 diagonal row) is replaced by the trace
    constraint and the dense 9x9 system is solved directly; one step of
    iterative refinement keeps the null-space residual at roundoff level.
    """
    L = generator.matrix
    singular_values = np.linalg.svd(L, compute_uv=False)
    null_dim = int(np.sum(singular_values < 1e-10 * singular_values[0]))
    if null_dim != 1:
        raise SteadyStateError(
            f"degenerate steady state: null space dimension {null_dim}")

    A = L.copy()
    A[_I11, :] = 0.0
    A[_I11, _I11] = A[_I11, _I22] = A[_I11, _I33] = 1.0
    b = np.zeros(9, dtype=complex)
    b[_I11] = 1.0
    try:
        v = np.linalg.solve(A, b)
        v -= np.linalg.solve(A, A @ v - b)
    except np.linalg.LinAlgError as exc:
        raise SteadyStateError(f"steady-state solve failed: {exc}") from exc

    scale = np.max(np.abs(L))
    if np.max(np.abs(L @ v)) > 1e-12 * scale * 9.0:
        raise SteadyStateError("steady-state residual above tolerance")
    rho = unvectorize(v)
    return DensityMatrix(0.5 * (rho + rho.conj().T), generator.basis)


def detailed_balance_residual(config: DeviceConfig,
                              rho: DensityMatrix) -> tuple[float, float, float]:
    """Gain-minus-loss of each level under the three uncoupled channels."""
    if config.system.g != 0.0:
        raise ConfigError("detailed balance check requires g=0")
    off_diagonal = rho.matrix - np.diag(rho.matrix.diagonal())
    if np.max(np.abs(off_diagonal)) > 1e-10:
        raise ConfigError("detailed balance check requires a diagonal state")
    p_1, p_b, p_a = rho.populations
    h = transition_rates(config.system.omega_a, config.bath("h"))
    c = transition_rates(config.system.omega_b, config.bath("c"))
    w = transition_rates(config.system.delta, config.bath("w"))
    r1 = c.down * p_b + h.down * p_a - (c.up + h.up) * p_1
    r2 = c.up * p_1 + w.down * p_a - (w.up + c.down) * p_b
    r3 = h.up * p_1 + w.up * p_b - (h.down + w.down) * p_a
    return (r1, r2, r3)


def heat_current_trace(generator: Generator, rho_ss: DensityMatrix,
                       bath_label: str) -> float:
    """Energy flow from one bath into the system, Tr[H_S D_mu(rho_ss)]."""
    flow = unvectorize(generator.dissipators[bath_label]
                       @ vectorize(rho_ss.matrix))
    return float(np.trace(generator.hamiltonian @ flow).real)


def _polished_steady_vector(generator: Generator,
                            rho_ss: DensityMatrix) -> np.ndarray:
    """Extended-precision refinement of a steady state for current traces.

    A double-precision steady state carries an L rho residual at its
    representation floor (~1e-18); energy-weighted, that residual shows up
    verbatim as an apparent violation of Jh + Jc + Jw = 0 and can rival the
    currents themselves close to equilibrium. Two refinement steps with
    residuals accumulated in extended precision push it out of reach.
    """
    L = generator.matrix
    A = L.copy()
    A[_I11, :] = 0.0
    A[_I11, _I11] = A[_I11, _I22] = A[_I11, _I33] = 1.0
    b = np.zeros(9, dtype=complex)
    b[_I11] = 1.0
    A_ext = A.astype(_EXTENDED)
    b_ext = b.astype(_EXTENDED)
    v = vectorize(rho_ss.matrix).astype(_EXTENDED)
    for _ in range(2):
        residual = A_ext @ v - b_ext
        v = v - np.linalg.solve(A, residual.astype(complex)).astype(_EXTENDED)
    return v


def _bath_current_polished(generator: Generator, bath_label: str,
                           v: np.ndarray) -> float:
    flow = generator.dissipators[bath_label].astype(_EXTENDED) @ v
    energies = np.diag(generator.hamiltonian).real
    return float(sum(energies[i] * flow[4 * i].real for i in range(3)))


def steady_state_report(generator: Generator,
                        rho_ss: DensityMatrix) -> CurrentReport:
    """Assemble the full current report from the per-bath trace currents."""
    config = generator.config
    v = _polished_steady_vector(generator, rho_ss)
    j_h = _bath_current_polished(generator, "h", v)
    j_c = _bath_current_polished(generator, "c", v)
    j_w = _bath_current_polished(generator, "w", v)
    temperatures = {label: config.temperature(label) for label in "hcw"}
    if generator.basis == BARE:
        j_c12, j_c13 = j_c, 0.0
    else:
        j_c12, j_c13 = cold_current_decomposition(config, rho_ss)
    return CurrentReport(
        j_h=j_h, j_c=j_c, j_w=j_w, j_c12=j_c12, j_c13=j_c13,
        coherence_abs=abs(rho_ss.excited_coherence),
        cop=_cop_or_none(j_c, j_w),
        carnot_cop=carnot_cop(temperatures),
        entropy_rate=entropy_production(j_h, j_c, j_w, temperatures),
    )


def cold_current_decomposition(config: DeviceConfig,
                               rho_ss: DensityMatrix) -> tuple[float, float]:
    """Split the cold current over the 1<->2 and 1<->3 channels."""
    eig = diagonalize(config.system)
    bath_c = config.bath("c")
    c_2 = transition_rates(eig.omega_2, bath_c)
    c_3 = transition_rates(eig.omega_3, bath_c)
    p = rho_ss.populations
    x = 2.0 * rho_ss.excited_coherence.real
    j_c12 = eig.omega_2 * (2.0 * eig.f2 * (c_2.up * p[0] - c_2.down * p[1])
                           - eig.f1 * c_3.down * x)
    j_c13 = eig.omega_3 * (2.0 * eig.f3 * (c_3.up * p[0] - c_3.down * p[2])
                           - eig.f1 * c_2.down * x)
    return j_c12, j_c13


def closed_form_currents(config: DeviceConfig,
                         rho_ss: DensityMatrix) -> CurrentReport:
    """Currents of the coupled device from rates and matrix elements alone.

    Independent of the generator object: everything is evaluated from the
    dressed rates and the steady-state entries, including the coherence
    contributions to the hot and cold currents.
    """
    if rho_ss.basis != "eigen":
        raise ConfigError("closed-form currents expect an eigenbasis state")
    eig = diagonalize(config.system)
    h_2 = transition_rates(eig.omega_2, config.bath("h"))
    h_3 = transition_rates(eig.omega_3, config.bath("h"))
    w = transition_rates(eig.capital_omega, config.bath("w"))
    p = rho_ss.populations
    x = 2.0 * rho_ss.excited_coherence.real

    j_h = (2.0 * eig.omega_2 * eig.f3 * (h_2.up * p[0] - h_2.down * p[1])
           + 2.0 * eig.omega_3 * eig.f2 * (h_3.up * p[0] - h_3.down * p[2])
           + eig.f1 * (eig.omega_2 * h_3.down + eig.omega_3 * h_2.down) * x)
    j_c12, j_c13 = cold_current_decomposition(config, rho_ss)
    j_c = j_c12 + j_c13
    j_w = 2.0 * eig.capital_omega * (w.up * p[1] - w.down * p[2])

    temperatures = {label: config.temperature(label) for label in "hcw"}
    return CurrentReport(
        j_h=j_h, j_c=j_c, j_w=j_w, j_c12=j_c12, j_c13=j_c13,
        coherence_abs=abs(rho_ss.excited_coherence),
        cop=_cop_or_none(j_c, j_w),
        carnot_cop=carnot_cop(temperatures),
        entropy_rate=entropy_production(j_h, j_c, j_w, temperatures),
    )
