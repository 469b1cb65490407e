"""Steady-state heat currents, figures of merit and the entropy rate.

Sign convention: a positive current flows from the bath into the system.
The per-bath currents are Tr[H_S D_mu(rho_ss)], taken by ``current_table``
on the reduced block: the package's one steady-state path. The 9x9 trace
route and the closed-form route from rates and matrix elements, which must
agree with it at roundoff level, are the tests' references
(tests/reference.py).
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
)
from .generator import (
    ReducedGenerators,
    reduced_partial_secular,
    reduced_work_slope,
)
from .rates import FrequencyDomainError, transition_rates
from .solver import reduced_steady_states

#: relative floor below which the COP is reported as undefined
COP_CURRENT_FLOOR = 1e-14

#: device points per block of current_reports; a constant, so that the
#: engine's working memory does not grow with the grid
BLOCK_POINTS = 256


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

    Row i holds, to roundoff, the report of the 9x9 generator
    ``build_partial_secular(config_i)`` solved and traced directly (the
    tests' reference path, tests/reference.py), computed on the reduced
    generator BLOCK_POINTS points at a time. A point that fails gets the
    exception the 9x9 path raises as its error.
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


def uncoupled_currents(config: DeviceConfig,
                       rho_ss: DensityMatrix) -> CurrentReport:
    """Currents of the uncoupled device from its diagonal steady state."""
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
