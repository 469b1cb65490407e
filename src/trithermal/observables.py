"""Steady-state heat currents, figures of merit and the entropy rate.

Sign convention: a positive current flows from the bath into the system.
The per-bath currents are Tr[H_S D_mu(rho_ss)], taken by ``current_table``
on the reduced block: the package's one steady-state path. The 9x9 trace
route and the closed-form route from rates and matrix elements, which must
agree with it at roundoff level, are the tests' references
(tests/reference.py).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .model import POINT_COLUMNS, ConfigError, DeviceConfig
from .generator import (
    ReducedGenerators,
    reduced_partial_secular,
    reduced_work_slope,
)
from .rates import FrequencyDomainError, transition_rates
from .solver import reduced_steady_states

#: relative floor below which the COP is reported as undefined
COP_CURRENT_FLOOR = 1e-14

#: device points per engine block of current_table; a constant, so that
#: the engine's working memory does not grow with the grid
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
        """The CSV_COLUMNS fields of this report at (t_w, g), as the grid
        CSV writes them."""
        fields = [f"{value:.17g}" for value in (t_w, g, *self.values())]
        if self.cop is None:
            fields[2 + _COP] = ""
        return fields


#: columns of CurrentReport.values() and of a CurrentTable's values
_J_H, _J_C, _J_W, _J_C12, _J_C13, _COHERENCE, _COP, _CARNOT, _ENTROPY = range(9)


def current_scale(j_h: float, j_c: float, j_w: float) -> float:
    return max(abs(j_h), abs(j_c), abs(j_w), 1e-300)


class CurrentTable(NamedTuple):
    """Current reports of stacked device points as columns.

    ``values`` is (N, 9), in CurrentReport field order, with NaN in the cop
    column where the COP is undefined. ``errors`` holds, per point, None
    or the exception raised in place of its report; the values of a failed
    point are meaningless. With T_w slopes, ``slopes`` is (N, 3): the
    exact derivatives of J_h, J_c and J_w in the work-bath temperature.
    """

    values: np.ndarray
    errors: list
    slopes: np.ndarray | None

    def reports(self) -> list:
        """Per point, its row as a CurrentReport, or its exception; the
        slopes are left out."""
        reports = []
        for row, error in zip(self.values.tolist(), self.errors):
            if error is not None:
                reports.append(error)
                continue
            if math.isnan(row[_COP]):
                row[_COP] = None
            reports.append(CurrentReport(*row))
        return reports


#: grid CSV rows formatted per block; bounds the floats and row texts
#: held at once
_CSV_BLOCK = 128

# a CurrentTable row at its coordinates as CSV_COLUMNS text; the
# coordinates and the Carnot bound come formatted, and the second template
# prints an undefined COP's NaN as an empty field
_ROW = ",".join(["%s"] * 2 + ["%.17g"] * 7 + ["%s", "%.17g"])
_ROW_NO_COP = ",".join(["%s"] * 2 + ["%.17g"] * 6 + ["%.0s", "%s", "%.17g"])


def _texts(values: np.ndarray) -> list[str]:
    """The %.17g text of each of the float64 ``values``. More than a
    block's worth are formatted once per distinct bit pattern (a cache
    keyed on the value would print -0.0 as 0 once 0.0 is in it); fewer
    cost less formatted one by one than the cache costs to build."""
    if len(values) <= _CSV_BLOCK:
        return [f"{value:.17g}" for value in values.tolist()]
    keys = values.view(np.int64).tolist()
    distinct = dict(zip(keys, values.tolist()))
    texts = {key: f"{value:.17g}" for key, value in distinct.items()}
    return list(map(texts.__getitem__, keys))


def write_grid_csv(t_w, g, table: CurrentTable, extra_columns,
                   extra_fields) -> str:
    """The CSV text of grid points: a header of CSV_COLUMNS and
    ``extra_columns``, then per point its coordinates t_w[i] and g[i], the
    fields of its row of ``table`` (empty where it failed) and its
    ``extra_fields``, one list of strings per extra column (at least one).

    Coordinates and Carnot bounds, which repeat across a grid, are
    formatted once per distinct value. Rows of failed points go through
    csv.writer, which quotes their fields as RFC 4180 requires; the column
    names and the extra fields of the other rows must need no quoting.
    """
    rows = [",".join([*CurrentReport.CSV_COLUMNS, *extra_columns]) + "\n"]
    writer = csv.writer(SimpleNamespace(write=rows.append),
                        lineterminator="\n")
    tail = ",%s" * len(extra_columns) + "\n"
    templates = _ROW + tail, _ROW_NO_COP + tail
    n = len(table.errors)
    texts = _texts(np.concatenate([t_w, g, table.values[:, _CARNOT]]))
    repeating = texts[:n], texts[n:2 * n], texts[2 * n:]
    blocks = []
    for start in range(0, n, _CSV_BLOCK):
        blocks.append("".join(rows))
        rows.clear()
        block = slice(start, start + _CSV_BLOCK)
        values = table.values[block]
        for t_w_text, g_text, carnot, row, no_cop, error, extra in zip(
                *(column[block] for column in repeating), values.tolist(),
                np.isnan(values[:, _COP]).tolist(), table.errors[block],
                zip(*(fields[block] for fields in extra_fields))):
            if error is None:
                row[_CARNOT] = carnot
                rows.append(templates[no_cop]
                            % (t_w_text, g_text, *row, *extra))
            else:
                writer.writerow([t_w_text, g_text, *[""] * 9, *extra])
    blocks.append("".join(rows))
    return "".join(blocks)


#: slice of the T_h, T_c and T_w columns of stacked device points
_TEMPERATURES = slice(POINT_COLUMNS.index("temperature_h"), None, 3)


def current_table(points: np.ndarray, tw_slopes: bool = False) -> CurrentTable:
    """Current reports of the partial-secular steady states of stacked
    device points (rows laid out as model.POINT_COLUMNS), as columns.

    Row i holds, to roundoff, the report of the 9x9 partial-secular
    generator of config_i solved and traced directly (the tests'
    reference path, tests/reference.py), computed on the reduced
    generator BLOCK_POINTS points at a time. A point that fails gets the
    exception the 9x9 path raises as its error. With ``tw_slopes``, the
    table also holds the exact derivatives of J_h, J_c and J_w in the
    work-bath temperature.
    """
    n = len(points)
    table = CurrentTable(np.empty((n, 9)), [],
                         np.empty((n, 3)) if tw_slopes else None)
    for start in range(0, n, BLOCK_POINTS):
        block = slice(start, start + BLOCK_POINTS)
        # a rate past the float range fails its point with a non-finite
        # generator (SteadyStateError), with no warning on the way there
        with np.errstate(over="ignore", invalid="ignore"):
            table.errors.extend(_block_table(
                points[block], table.values[block],
                None if table.slopes is None else table.slopes[block]))
    return table


def _traced(generators: ReducedGenerators) -> tuple:
    """The steady-state stage of _block_table and analysis._cubic_roots:
    per point its error or None, the (N, 3, 2) channel terms whose sums
    over the last axis are J_h, J_c and J_w, and, for _tw_slopes, the
    states v, the bordered inverses and the (N, 2) energies.

    Tr[H_S D_mu(rho)] sums the energy-weighted population rows (E_1 = 0);
    the cold bath's two terms are its 1<->2 and 1<->3 channels. The
    float64 energies multiply the extended rows exactly as extended ones
    would."""
    errors = [FrequencyDomainError("transition frequency must be non-negative")
              if out else None for out in generators.out_of_domain]
    v, v_ext, inverse, dissipators_ext = reduced_steady_states(generators,
                                                               errors)
    energies = np.array([generators.eig.omega_2, generators.eig.omega_3]).T
    terms = ((dissipators_ext[:, :, 1:3] @ v_ext[:, None, :, None])[..., 0]
             * energies[:, None, :])
    return errors, terms, v, inverse, energies


def _block_table(points: np.ndarray, values: np.ndarray,
                 slopes: np.ndarray | None) -> list:
    """Fill ``values`` (and ``slopes``) of one block of points; returns
    the block's per-point errors."""
    generators = reduced_partial_secular(points)
    errors, terms, v, inverse, energies = _traced(generators)
    currents = values[:, :_J_C12]
    currents[:] = terms.sum(axis=2)
    values[:, _J_C12:_COHERENCE] = terms[:, 1]
    values[:, _COHERENCE] = np.hypot(v[:, 3], v[:, 4])
    if any(errors):
        # NaN, unlike inf, raises no floating-point warning below
        currents[[error is not None for error in errors]] = math.nan

    _figures(values, points[:, _TEMPERATURES], errors)
    if slopes is not None:
        slopes[:] = _tw_slopes(points, generators, v, inverse, energies)
    return errors


def _figures(values: np.ndarray, temperatures: np.ndarray,
             errors: list) -> None:
    """Fill the COP, Carnot-bound and entropy-rate columns of ``values``
    from its currents and the (N, 3) ``temperatures`` T_h, T_c, T_w; a
    point at T_c = T_h without an error gets an UndefinedObservableError.
    """
    j_c, j_w = values[:, _J_C], values[:, _J_W]
    abs_w = np.abs(j_w)
    floor = COP_CURRENT_FLOOR * np.maximum(np.maximum(np.abs(j_c), abs_w),
                                           1e-300)
    values[:, _COP] = j_c / np.where(abs_w > floor, j_w, math.nan)

    beta = 1.0 / temperatures
    gap = beta[:, 1] - beta[:, 0]
    if np.count_nonzero(gap) < len(gap):
        undefined = gap == 0.0
        for i in np.flatnonzero(undefined):
            if errors[i] is None:
                errors[i] = UndefinedObservableError(
                    "Carnot bound undefined at Tc = Th")
        gap[undefined] = math.nan
    # a bound or flow past the float range is inf, as in the references
    with np.errstate(over="ignore"):
        values[:, _CARNOT] = (beta[:, 0] - beta[:, 2]) / gap
        flows = values[:, :_J_C12] / temperatures
        values[:, _ENTROPY] = flows[:, 0] + flows[:, 1] + flows[:, 2]


def _tw_slopes(points: np.ndarray, generators: ReducedGenerators,
               v: np.ndarray, inverse: np.ndarray,
               energies: np.ndarray) -> np.ndarray:
    """(dJ_h/dT_w, dJ_c/dT_w, dJ_w/dT_w) of the stacked steady states v,
    (N, 3), with ``energies`` the (N, 2) energies (omega_2, omega_3).

    Implicit differentiation of the bordered system A v = e_1: only the
    work-bath dissipator D_w depends on T_w and the trace row does not, so
    dv = -A^-1 dA v, where dA is its derivative dD_w with row 0 set to 0;
    ``inverse`` holds A^-1. The currents are energy-weighted population
    rows, so dJ_h = E . D_h dv, dJ_c = E . D_c dv and
    dJ_w = E . (D_w dv + dD_w v).
    """
    d_work = reduced_work_slope(points, generators.eig)
    d_work_v = d_work @ v[:, :, None]
    d_bordered_v = d_work_v.copy()
    d_bordered_v[:, 0] = 0.0
    dv = -(inverse @ d_bordered_v)
    # rows of the three baths' flows, in BATH_LABELS order
    flows = generators.dissipators @ dv[:, None]
    flows[:, 2] += d_work_v
    return (flows[:, :, 1:3, 0] * energies[:, None, :]).sum(axis=2)


def uncoupled_currents(config: DeviceConfig, populations) -> CurrentReport:
    """Currents of the uncoupled device from the populations (p_1, p_b,
    p_a) of the bare levels in its diagonal steady state, with the COP,
    Carnot bound and entropy rate of current_table's rule."""
    if config.system.g != 0.0:
        raise ConfigError("uncoupled currents require g=0")
    omega_a = config.system.omega_a
    omega_b = config.system.omega_b
    delta = config.system.delta
    h = transition_rates(omega_a, config.bath("h"))
    c = transition_rates(omega_b, config.bath("c"))
    w = transition_rates(delta, config.bath("w"))
    p_1, p_b, p_a = populations

    j_c = 2.0 * omega_b * (c.up * p_1 - c.down * p_b)
    j_h = 2.0 * omega_a * (h.up * p_1 - h.down * p_a)
    j_w = 2.0 * delta * (w.up * p_b - w.down * p_a)
    values = np.array([[j_h, j_c, j_w, j_c, 0.0, 0.0, 0.0, 0.0, 0.0]])
    temperatures = np.array([[config.temperature(label) for label in "hcw"]])
    errors = [None]
    _figures(values, temperatures, errors)
    report, = CurrentTable(values, errors, None).reports()
    if errors[0] is not None:
        raise report
    return report
