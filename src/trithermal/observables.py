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
    POINT_COLUMNS,
    ConfigError,
    DensityMatrix,
    DeviceConfig,
    diagonalize,
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

    def values(self) -> tuple[float, ...]:
        """The fields in order, as a row of a CurrentTable: NaN for an
        undefined COP."""
        return (self.j_h, self.j_c, self.j_w, self.j_c12, self.j_c13,
                self.coherence_abs, math.nan if self.cop is None else self.cop,
                self.carnot_cop, self.entropy_rate)

    def csv_row(self, t_w: float, g: float) -> list[str]:
        return csv_fields(t_w, g, self.values()).split(",")


#: columns of CurrentReport.values() and of a CurrentTable's values
_J_H, _J_C, _J_W, _J_C12, _J_C13, _COHERENCE, _COP, _CARNOT, _ENTROPY = range(9)

# CSV_COLUMNS as text, 17 significant digits each; the second leaves the
# cop field empty
_CSV_FIELDS = ",".join(["%.17g"] * 11)
_CSV_FIELDS_NO_COP = ",".join(["%.17g"] * 8 + [""] + ["%.17g"] * 2)


def csv_fields(t_w: float, g: float, values) -> str:
    """The comma-joined CSV_COLUMNS fields of a point at (t_w, g) with the
    report ``values`` (a row of a CurrentTable). No field needs quoting."""
    if math.isnan(values[_COP]):
        return _CSV_FIELDS_NO_COP % (t_w, g, *values[:_COP],
                                     *values[_COP + 1:])
    return _CSV_FIELDS % (t_w, g, *values)


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


class CurrentTable(NamedTuple):
    """Current reports of stacked device points as columns.

    ``values`` is (N, 9), in CurrentReport field order, with NaN in the cop
    column where the COP is undefined. ``errors`` holds, per point, None
    or the exception raised in place of its report; the values of a failed
    point are meaningless. With T_w slopes, ``slopes`` is (N, 2): the
    exact derivatives of J_c and J_w in the work-bath temperature.
    """

    values: np.ndarray
    errors: list
    slopes: np.ndarray | None

    def reports(self) -> list:
        """current_reports' list: a CurrentReport, or a CurrentResponse
        with slopes, per point, or its exception."""
        reports = []
        for row, error in zip(self.values.tolist(), self.errors):
            if error is not None:
                reports.append(error)
                continue
            if math.isnan(row[_COP]):
                row[_COP] = None
            reports.append(CurrentReport(*row))
        if self.slopes is not None:
            reports = [report if isinstance(report, Exception)
                       else CurrentResponse(report, *slope)
                       for report, slope in zip(reports,
                                                self.slopes.tolist())]
        return reports


#: slice of the T_h, T_c and T_w columns of stacked device points
_TEMPERATURES = slice(POINT_COLUMNS.index("temperature_h"), None, 3)


def current_table(points: np.ndarray, tw_slopes: bool = False) -> CurrentTable:
    """Current reports of the partial-secular steady states of stacked
    device points (rows laid out as model.POINT_COLUMNS), as columns.

    Row i holds the report of ``steady_state_report(g, steady_state(g))``
    with ``g = build_partial_secular(config_i)``, to roundoff, computed on
    the reduced generator BLOCK_POINTS points at a time. A point that
    fails gets the exception the 9x9 path raises as its error.
    """
    n = len(points)
    table = CurrentTable(np.empty((n, 9)), [],
                         np.empty((n, 2)) if tw_slopes else None)
    for start in range(0, n, BLOCK_POINTS):
        block = slice(start, start + BLOCK_POINTS)
        table.errors.extend(_block_table(
            points[block], table.values[block],
            None if table.slopes is None else table.slopes[block]))
    return table


def current_reports(points: np.ndarray, tw_slopes: bool = False) -> list:
    """Per point, the CurrentReport of ``current_table(points)``, or the
    exception in its place. With ``tw_slopes``, each report comes as a
    CurrentResponse that adds the exact derivatives of J_c and J_w in the
    work-bath temperature."""
    return current_table(points, tw_slopes).reports()


def _block_table(points: np.ndarray, values: np.ndarray,
                 slopes: np.ndarray | None) -> list:
    """Fill ``values`` (and ``slopes``) of one block of points; returns
    the block's per-point errors.

    Every column is computed in the float64 operations, and their order,
    of the scalar carnot_cop, _cop_or_none and entropy_production.
    """
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
    currents = values[:, :_J_C12]
    currents[:] = terms.sum(axis=2)
    values[:, _J_C12:_COHERENCE] = terms[:, 1]
    values[:, _COHERENCE] = np.hypot(v[:, 3], v[:, 4])
    if any(errors):
        # NaN, unlike inf, raises no floating-point warning below
        currents[[error is not None for error in errors]] = math.nan

    j_c, j_w = currents[:, _J_C], currents[:, _J_W]
    abs_w = np.abs(j_w)
    floor = COP_CURRENT_FLOOR * np.maximum(np.maximum(np.abs(j_c), abs_w),
                                           1e-300)
    values[:, _COP] = j_c / np.where(abs_w > floor, j_w, math.nan)

    temperatures = points[:, _TEMPERATURES]
    beta = 1.0 / temperatures
    gap = beta[:, 1] - beta[:, 0]
    if np.count_nonzero(gap) < len(gap):
        undefined = gap == 0.0
        for i in np.flatnonzero(undefined):
            if errors[i] is None:
                errors[i] = UndefinedObservableError(
                    "Carnot bound undefined at Tc = Th")
        gap[undefined] = math.nan
    # Python floats overflow to inf without a word; so do these
    with np.errstate(over="ignore"):
        values[:, _CARNOT] = (beta[:, 0] - beta[:, 2]) / gap
        flows = currents / temperatures
        values[:, _ENTROPY] = flows[:, 0] + flows[:, 1] + flows[:, 2]
    if slopes is not None:
        slopes[:] = _tw_slopes(points, generators, v, inverse)
    return errors


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
