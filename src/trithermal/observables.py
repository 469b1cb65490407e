"""Steady-state heat currents, figures of merit, and thermodynamic checks.

Sign convention: a positive current flows from the bath into the system.
The per-bath currents are Tr[H_S D_mu(rho_ss)]; closed-form expressions in
terms of rates and matrix elements are provided as an independent route and
must agree with the trace route at roundoff level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    BARE,
    ConfigError,
    DensityMatrix,
    DeviceConfig,
    diagonalize,
    point_column,
    validate,
)
from .generator import (
    Generator,
    ReducedGenerators,
    dissipator_apply,
    reduced_partial_secular,
    reduced_work_slope,
    vectorize,
    _I11,
    _I22,
    _I33,
)
from .rates import FrequencyDomainError, transition_rates
from .solver import reduced_steady_states

#: relative floor below which the COP is reported as undefined
COP_CURRENT_FLOOR = 1e-14

#: device points per block of current_reports; a constant, so that the
#: engine's working memory does not grow with the grid
BLOCK_POINTS = 256

# 80-bit extended precision where the platform provides it (x86 linux does);
# used only to polish steady states before taking energy traces
_EXTENDED = getattr(np, "complex256", np.complex128)


class UndefinedObservableError(RuntimeError):
    """A figure of merit is undefined at this operating point."""


@dataclass(frozen=True)
class CurrentReport:
    """Steady-state currents of the three baths plus derived figures of merit.

    j_c12 / j_c13 decompose the cold current over the two ground-excited
    channels (coupled case; at g = 0 the second channel carries nothing).
    cop is None wherever the work current is too small to divide by.
    """

    j_h: float
    j_c: float
    j_w: float
    j_c12: float
    j_c13: float
    coherence_abs: float
    cop: float | None
    carnot_cop: float
    entropy_rate: float

    #: fixed serialization order, prefixed by the sweep coordinates
    CSV_COLUMNS = ("Tw", "g", "j_h", "j_c", "j_w", "j_c12", "j_c13",
                   "coherence_abs", "cop", "carnot_cop", "entropy_rate")

    def csv_row(self, t_w: float, g: float) -> list[str]:
        values = (t_w, g, self.j_h, self.j_c, self.j_w, self.j_c12,
                  self.j_c13, self.coherence_abs, self.cop, self.carnot_cop,
                  self.entropy_rate)
        return ["" if v is None else f"{v:.17g}" for v in values]


def current_scale(j_h: float, j_c: float, j_w: float) -> float:
    return max(abs(j_h), abs(j_c), abs(j_w), 1e-300)


def heat_current_trace(generator: Generator, rho_ss: DensityMatrix,
                       bath_label: str) -> float:
    """Energy flow from one bath into the system, Tr[H_S D_mu(rho_ss)]."""
    flow = dissipator_apply(generator, bath_label, rho_ss)
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


def carnot_cop(temperatures: dict[str, float]) -> float:
    """Carnot bound (beta_h - beta_w) / (beta_c - beta_h) on the COP."""
    beta_h = 1.0 / temperatures["h"]
    beta_c = 1.0 / temperatures["c"]
    beta_w = 1.0 / temperatures["w"]
    if beta_c == beta_h:
        raise UndefinedObservableError("Carnot bound undefined at Tc = Th")
    return (beta_h - beta_w) / (beta_c - beta_h)


def entropy_production(j_h: float, j_c: float, j_w: float,
                       temperatures: dict[str, float]) -> float:
    """Clausius sum of J_mu / T_mu; non-positive at any steady state."""
    return (j_h / temperatures["h"] + j_c / temperatures["c"]
            + j_w / temperatures["w"])


def _cop_or_none(j_c: float, j_w: float) -> float | None:
    scale = current_scale(0.0, j_c, j_w)
    if abs(j_w) <= COP_CURRENT_FLOOR * scale:
        return None
    return j_c / j_w


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


class CurrentResponse(NamedTuple):
    """A current report with the derivatives of J_c and J_w in T_w."""

    report: CurrentReport
    d_jc: float
    d_jw: float


def current_reports(points: np.ndarray, tw_slopes: bool = False) -> list:
    """Current reports of the partial-secular steady states of stacked
    device points (rows laid out as model.POINT_COLUMNS).

    The report of ``steady_state_report(g, steady_state(g))`` with
    ``g = build_partial_secular(config)``, to roundoff, computed on the
    reduced generator BLOCK_POINTS points at a time. A point that fails
    gets the exception the 9x9 path raises in place of its report. With
    ``tw_slopes``, each report comes as a CurrentResponse that adds the
    exact derivatives of J_c and J_w in the work-bath temperature.
    """
    reports = []
    for start in range(0, len(points), BLOCK_POINTS):
        reports += _block_reports(points[start:start + BLOCK_POINTS],
                                  tw_slopes)
    return reports


def _block_reports(points: np.ndarray, tw_slopes: bool) -> list:
    generators = reduced_partial_secular(points)
    errors = [FrequencyDomainError("transition frequency must be non-negative")
              if out else None for out in generators.out_of_domain]
    v, v_ext, inverse = reduced_steady_states(generators, errors)

    # Tr[H_S D_mu(rho)] sums the energy-weighted population rows (E_1 = 0);
    # the two terms of the cold bath's sum are its 1<->2 and 1<->3 channels
    eig = generators.eig
    energies = np.array([eig.omega_2, eig.omega_3], dtype=v_ext.dtype).T
    terms = ((generators.dissipators[:, :, 1:3].astype(v_ext.dtype)
              @ v_ext[:, None, :, None])[..., 0] * energies[:, None, :])
    j_h, j_c, j_w = terms.sum(axis=2).astype(float).T
    j_c12, j_c13 = terms[:, 1].astype(float).T

    reports = list(errors)
    columns = zip(j_h.tolist(), j_c.tolist(), j_w.tolist(), j_c12.tolist(),
                  j_c13.tolist(), np.hypot(v[:, 3], v[:, 4]).tolist(),
                  *(point_column(points, f"temperature_{label}").tolist()
                    for label in "hcw"))
    for i, (jh, jc, jw, jc12, jc13, coherence, t_h, t_c,
            t_w) in enumerate(columns):
        if errors[i] is not None:
            continue
        temperatures = {"h": t_h, "c": t_c, "w": t_w}
        try:
            carnot = carnot_cop(temperatures)
        except UndefinedObservableError as exc:
            reports[i] = exc
            continue
        reports[i] = CurrentReport(
            j_h=jh, j_c=jc, j_w=jw, j_c12=jc12, j_c13=jc13,
            coherence_abs=coherence, cop=_cop_or_none(jc, jw),
            carnot_cop=carnot,
            entropy_rate=entropy_production(jh, jc, jw, temperatures))
    if tw_slopes:
        slopes = _tw_slopes(points, generators, v, inverse).tolist()
        reports = [report if isinstance(report, Exception)
                   else CurrentResponse(report, *slope)
                   for report, slope in zip(reports, slopes)]
    return reports


def _tw_slopes(points: np.ndarray, generators: ReducedGenerators,
               v: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """(dJ_c/dT_w, dJ_w/dT_w) of the stacked steady states v, (N, 2).

    Implicit differentiation of the bordered system A v = e_1: only the
    work-bath dissipator D_w depends on T_w and the trace row does not, so
    dv = -A^-1 dA v, where dA is its derivative dD_w with row 0 set to 0;
    ``inverse`` holds A^-1. The currents are energy-weighted population
    rows, so dJ_c = E . D_c dv and dJ_w = E . (D_w dv + dD_w v).
    """
    d_work = reduced_work_slope(points, generators.eig)
    d_work_v = d_work @ v[:, :, None]
    d_bordered_v = d_work_v.copy()
    d_bordered_v[:, 0] = 0.0
    dv = -(inverse @ d_bordered_v)
    # rows of the cold and work baths' flows, in BATH_LABELS order
    flows = generators.dissipators[:, 1:] @ dv[:, None]
    flows[:, 1] += d_work_v
    energies = np.array([generators.eig.omega_2, generators.eig.omega_3]).T
    return (flows[:, :, 1:3, 0] * energies[:, None, :]).sum(axis=2)


def closed_form_currents(config: DeviceConfig,
                         rho_ss: DensityMatrix) -> CurrentReport:
    """Currents of the coupled device from rates and matrix elements alone.

    Independent of the generator object: everything is evaluated from the
    dressed rates and the steady-state entries, including the coherence
    contributions to the hot and cold currents.
    """
    validate(config)
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


def uncoupled_currents(config: DeviceConfig,
                       rho_ss: DensityMatrix) -> CurrentReport:
    """Currents of the uncoupled device from its diagonal steady state."""
    validate(config)
    if config.system.g != 0.0:
        raise ConfigError("uncoupled currents require g=0")
    if rho_ss.basis != BARE:
        raise ConfigError("uncoupled currents expect a bare-basis state")
    omega_a = config.system.omega_a
    omega_b = config.system.omega_b
    delta = config.system.delta
    h = transition_rates(omega_a, config.bath("h"))
    c = transition_rates(omega_b, config.bath("c"))
    w = transition_rates(delta, config.bath("w"))
    p_1, p_b, p_a = rho_ss.populations

    j_c = 2.0 * omega_b * (c.up * p_1 - c.down * p_b)
    j_h = 2.0 * omega_a * (h.up * p_1 - h.down * p_a)
    j_w = 2.0 * delta * (w.up * p_b - w.down * p_a)
    temperatures = {label: config.temperature(label) for label in "hcw"}
    return CurrentReport(
        j_h=j_h, j_c=j_c, j_w=j_w, j_c12=j_c, j_c13=0.0,
        coherence_abs=0.0,
        cop=_cop_or_none(j_c, j_w),
        carnot_cop=carnot_cop(temperatures),
        entropy_rate=entropy_production(j_h, j_c, j_w, temperatures),
    )


def effective_temperatures(rho_ss: DensityMatrix,
                           config: DeviceConfig) -> tuple[float, float]:
    """Boltzmann temperatures of the two ground-excited level pairs at g=0.

    T_s = omega_s / ln(rho_11 / rho_ss); positive only while the ground
    level stays the most populated, which holds in every regime studied.
    """
    if config.system.g != 0.0:
        raise ConfigError("effective temperatures are defined for g=0")
    p_1, p_b, p_a = rho_ss.populations
    if p_a >= p_1 or p_b >= p_1:
        raise UndefinedObservableError(
            "population inversion: effective temperature would be negative")
    t_a = config.system.omega_a / math.log(p_1 / p_a)
    t_b = config.system.omega_b / math.log(p_1 / p_b)
    return t_a, t_b


def cop_and_bounds(report: CurrentReport,
                   temperatures: dict[str, float]) -> tuple[float, float, float]:
    """COP, its Carnot bound, and the margin between them."""
    if report.cop is None:
        raise UndefinedObservableError(
            "COP undefined: work current below noise floor")
    bound = carnot_cop(temperatures)
    return report.cop, bound, bound - report.cop
