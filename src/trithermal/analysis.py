"""Device-level analyses: valve working points, refrigerator window,
amplification factor, phase maps, and the thermometer protocol."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import POINT_COLUMNS, ConfigError, DeviceConfig, stack_points
from .observables import (
    CurrentReport,
    CurrentTable,
    current_table,
    write_grid_csv,
)

#: |J_c| below this fraction of the current scale classifies as a valve point
VALVE_TOLERANCE = 1e-9

#: alpha_J is undefined where |dJ_w/dT_w| * max(1, T_w) falls below this
#: fraction of the current scale; the value is kept so that no point
#: changes class
AMPLIFIER_RESPONSE_FLOOR = 5e-8

#: points of the first engine call of a root search, uniform in 1 / T_w
#: from the low end up to the high end: over a valve bracket, and over the
#: thermometer's range
_BRACKET_PROBES = 9
_RANGE_PROBES = 17

#: half-width, relative to T_w, of the three points each later step of a
#: root search interpolates through: wide enough that the currents'
#: roundoff barely moves the interpolated root, and narrow enough that
#: from an iterate 1e-5 off, relative, the next is 1e-13 off or closer
_SPREAD = 1e-6

#: relative tolerance of every root search: the current changes sign
#: within _REL_TOL * hi / 2 of the returned T_w
_REL_TOL = 1e-10

#: top of the thermometer's range, relative to T_h
_TW_MAX_FACTOR = 1e3


class BracketError(ValueError):
    """The requested current does not change sign over the given bracket."""


class MeasurementRangeError(RuntimeError):
    """The sample temperature lies outside the thermometer's range."""


class AmplifierUndefinedError(RuntimeError):
    """The work current does not respond to T_w at this operating point."""


@dataclass(frozen=True)
class SweepGrid:
    """Linearly spaced scan of one config variable (T_w or g)."""

    variable: str
    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.variable not in ("Tw", "Th", "Tc", "g"):
            raise ConfigError(f"unknown sweep variable {self.variable!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("sweep grid ends must be finite")
        if not self.start < self.stop:
            raise ConfigError("sweep grid needs start < stop")
        if self.points < 2:
            raise ConfigError("sweep grid needs at least 2 points")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)

    def apply(self, config: DeviceConfig, value: float) -> DeviceConfig:
        if self.variable == "g":
            return config.with_coupling(value)
        return config.with_bath_temperature(self.variable[1].lower(), value)

    def expand(self, config: DeviceConfig, points: np.ndarray) -> np.ndarray:
        """Each row of stacked ``points`` at every grid value, row-major.

        Every value is first applied to ``config``, so that a value the
        model rejects raises its ConfigError as ``apply`` does."""
        values = self.values()
        for value in values:
            self.apply(config, float(value))
        name = ("g" if self.variable == "g"
                else f"temperature_{self.variable[1].lower()}")
        expanded = np.repeat(points, len(values), axis=0)
        expanded[:, POINT_COLUMNS.index(name)] = np.tile(values, len(points))
        return expanded


@dataclass(frozen=True)
class ThermometerReading:
    """Outcome of the simulated sample-temperature measurement; a reading
    exists only with tc_estimate inside the range (xi * T_h, T_h]."""

    tw_star: float
    tc_estimate: float
    sensitivity: float


def currents_at(config: DeviceConfig, t_w: float) -> CurrentReport:
    """Steady-state current report with the work bath set to t_w."""
    report, = _solved_at(config, t_w).reports()
    return report


def _solved_at(config: DeviceConfig, t_w: float,
               tw_slopes: bool = False) -> CurrentTable:
    """The one-row current_table of ``config`` with the work bath at t_w;
    raises the point's error."""
    moved = config.with_bath_temperature("w", t_w)
    return _checked(current_table(stack_points([moved]),
                                  tw_slopes=tw_slopes))


def _checked(table: CurrentTable) -> CurrentTable:
    """A one-row ``table``, or its point's error raised."""
    error, = table.errors
    if error is not None:
        raise error
    return table


def _points_at(row: np.ndarray, temperatures) -> np.ndarray:
    """The stacked points ``row`` with T_w set to each temperature in turn."""
    stacked = np.repeat(row[None], len(temperatures), axis=0)
    stacked[:, :, POINT_COLUMNS.index("temperature_w")] = np.reshape(
        temperatures, (-1, 1))
    return stacked.reshape(-1, len(POINT_COLUMNS))


def find_current_zero(config: DeviceConfig, which: str,
                      bracket: tuple[float, float]) -> float:
    """T_w at which the selected steady-state current vanishes.

    The first engine call solves _BRACKET_PROBES points from lo up to hi,
    uniform in 1 / T_w, ends included. From the first sign change going
    up, safeguarded interpolation steps of one call each find the root,
    typically in three (see _sign_change). The current changes sign (or
    is exactly 0) within _REL_TOL * hi / 2 of the returned T_w; the root
    is then polished to the precision of the currents. The current must
    change sign between the bracket ends; where it changes sign more than
    once, the lowest sign change the probes resolve is taken.
    """
    return _current_zero(config, which, bracket)[0]


def _current_zero(config: DeviceConfig, which: str,
                  bracket: tuple[float, float],
                  probe: float = 1.0) -> tuple[float, CurrentTable]:
    """find_current_zero's T_w, and the one-row current_table at T_w *
    probe, which the search solves alongside its steps."""
    if which not in ("h", "c", "w"):
        raise ConfigError(f"unknown current selector {which!r}")
    lo, hi = bracket
    if not 0 < lo < hi < math.inf:
        raise ConfigError("bracket must satisfy 0 < lo < hi < inf")
    config.with_bath_temperature("w", lo)  # the model's check of 1 / lo
    row = stack_points([config])
    samples = _samples(row, which, _probe_grid(lo, hi, _BRACKET_PROBES))
    ends = samples[0], samples[-1]
    for end in ends:
        _checked(end.table)
    if 0.0 not in (ends[0].j, ends[1].j) and not _changes(*ends):
        raise BracketError(f"no working point in bracket: J_{which} does not "
                           f"change sign over [{lo}, {hi}]")
    return _sign_change(config, row, which, samples, probe)


class _Sample(NamedTuple):
    """A solved T_w: the selected current, or None where the solve failed,
    and the point's one-row current_table."""

    t_w: float
    j: float | None
    table: CurrentTable


def _probe_grid(lo: float, hi: float, n: int) -> list[float]:
    """n temperatures from lo up to hi, uniform in 1 / T_w; the ends exact."""
    grid = [1.0 / u for u in np.linspace(1.0 / lo, 1.0 / hi, n).tolist()]
    grid[0], grid[-1] = lo, hi
    return grid


def _samples(row: np.ndarray, which: str, temperatures) -> list[_Sample]:
    """The stacked point ``row`` solved at each temperature, which the
    caller has checked, in one engine call."""
    table = current_table(_points_at(row, temperatures))
    # the table's first three columns are J_h, J_c and J_w
    currents = table.values[:, "hcw".index(which)].tolist()
    return [_Sample(t_w, None if error is not None else j,
                    CurrentTable(table.values[i:i + 1], [error], None))
            for i, (t_w, j, error) in enumerate(zip(temperatures, currents,
                                                    table.errors))]


def _changes(low: _Sample, high: _Sample) -> bool:
    """Whether the current changes sign from ``low`` to ``high``; a failed
    ``high`` counts as a change, which the search resolves or raises."""
    return high.j is None or (math.copysign(1.0, low.j)
                              != math.copysign(1.0, high.j))


def _interpolated_root(samples: list[_Sample]) -> float:
    """T_w at J = 0 of the polynomial u(J) through the samples, u = 1 /
    T_w (Lagrange's formula), or NaN where two of them have the same J."""
    u = 0.0
    for a in samples:
        term = 1.0 / a.t_w
        for b in samples:
            if b is not a:
                if b.j == a.j:
                    return math.nan
                term *= b.j / (b.j - a.j)
        u += term
    return 1.0 / u if u else math.nan


def _secant_slope(low: _Sample, high: _Sample) -> float:
    """dJ/dT_w between two solved samples."""
    return (high.j - low.j) / (high.t_w - low.t_w)


def _sign_change(config: DeviceConfig, row: np.ndarray, which: str,
                 samples: list[_Sample],
                 probe: float = 1.0) -> tuple[float, CurrentTable] | None:
    """(T_w, one-row current_table at T_w * probe) at the first sign change
    of J_which going up the solved ``samples``, or None if J keeps its
    sign.

    The walk up the samples raises the first failure it meets before a
    sign change. A failed sample right after a good one bounds the search
    instead, and raises only if the sign change is not below it.

    The search keeps a bracket [lo, hi] around the sign change. Each step
    interpolates u = 1 / T_w as a polynomial in J, in which the currents
    are nearly linear near a root: the first through the samples, two on
    either side of the sign change, each later one through the last
    iterate x and x +- _SPREAD * x. It bisects in u where a step leaves the
    bracket, or is not below half the step before last, or there is none:
    the safeguards of "rtsafe" (Press et al., Numerical Recipes, sec.
    9.4). Each step is one engine call that solves x, x +- d, d =
    _REL_TOL * hi / 4, x +- _SPREAD * x and, if probe != 1, x * probe;
    the bracket then shrinks to the pair around the sign change. Once J
    changes sign across x +- d, or is exactly 0 there, x is returned,
    unless Newton's step from x, on the secant slope across the iterate,
    moves it within that pair: then that point is solved and returned
    instead, so that the root is as precise as the currents. A bracket
    no wider than 2 d ends the search at its end with the smaller
    |J|. Either way J changes sign within _REL_TOL * hi / 2 of the
    returned T_w. d exceeds 2 ulp of hi, so that the bracket can shrink
    to 2 d: 2 ulp is at most 4.5e-16 hi, or 1e-323 where hi is
    subnormal, and the model accepts no T_w below 5e-309, whose inverse
    overflows.
    """
    lo = None
    for k, hi in enumerate(samples):
        if hi.j is None and lo is None:
            raise hi.table.errors[0]
        if hi.j == 0.0:
            return hi.t_w, _report_at(config, hi, probe, [])
        if lo is not None and _changes(lo, hi):
            break
        lo = hi
    else:
        return None

    def solve(temperatures: list[float], x: float):
        """Samples at the temperatures, and at x * probe if probe != 1."""
        extra = ([x * probe] if probe != 1.0 and math.isfinite(x * probe)
                 else [])
        solved = _samples(row, which, temperatures + extra)
        return solved[:len(temperatures)], solved[len(temperatures):]

    base = lo if hi.j is None or abs(lo.j) <= abs(hi.j) else hi
    t_next = _interpolated_root([sample for sample
                                 in samples[max(k - 2, 0):k + 2]
                                 if sample.j is not None])
    step = prev = 1.0 / lo.t_w - 1.0 / hi.t_w
    while True:
        delta = 0.25 * _REL_TOL * hi.t_w
        if hi.t_w - lo.t_w <= 2.0 * delta:
            if hi.j is None:
                raise hi.table.errors[0]
            end = lo if abs(lo.j) <= abs(hi.j) else hi
            return end.t_w, _report_at(config, end, probe, [])
        du = (1.0 / base.t_w - 1.0 / t_next if lo.t_w < t_next < hi.t_w
              else math.inf)
        if abs(du) < 0.5 * abs(prev):
            prev, step, x = step, du, t_next
        else:
            u_lo, u_hi = 1.0 / lo.t_w, 1.0 / hi.t_w
            prev, step = step, 0.5 * (u_lo - u_hi)
            x = 1.0 / (u_hi + step)
            if not lo.t_w < x < hi.t_w:
                x = lo.t_w + 0.5 * (hi.t_w - lo.t_w)
        spread = max(_SPREAD * x, 2.0 * delta)
        points, extra = solve([t_w for t_w in (x - spread, x - delta, x,
                                               x + delta, x + spread)
                               if lo.t_w < t_w < hi.t_w], x)
        for point in points:
            if point.j is None:
                raise point.table.errors[0]
        base = next(point for point in points if point.t_w == x)
        zero = next((point for point in points if point.j == 0.0), None)
        if zero is not None:
            return zero.t_w, _report_at(config, zero, probe,
                                        extra if zero is base else [])
        ordered = [lo, *points, hi]
        lo, hi = next((low, high) for low, high in zip(ordered, ordered[1:])
                      if _changes(low, high))
        if hi.j is None or lo.t_w < x - delta or hi.t_w > x + delta:
            nodes = {point.t_w: point for point in (points[0], base,
                                                    points[-1])}
            t_next = _interpolated_root(list(nodes.values()))
            continue
        # J changes sign across x +- d; Newton's step rounds once
        slope = (_secant_slope(points[0], points[-1]) if len(points) > 1
                 else 0.0)
        polished = x - base.j / slope if slope else x
        if not (lo.t_w <= polished <= hi.t_w and polished != x):
            return x, _report_at(config, base, probe, extra)
        points, extra = solve([polished], polished)
        return polished, _report_at(config, points[0], probe, extra)


def _report_at(config: DeviceConfig, sample: _Sample, probe: float,
               extra: list[_Sample]) -> CurrentTable:
    """The one-row current_table at sample.t_w * probe: the sample's own,
    the one solved with it in ``extra``, or one more solve."""
    if probe == 1.0:
        return _checked(sample.table)
    if extra:
        return _checked(extra[0].table)
    return _solved_at(config, sample.t_w * probe)


def equilibrium_tw(omega_a: float, omega_b: float, t_h: float,
                   t_c: float) -> float:
    """Control temperature at which the uncoupled device equilibrates.

    Solves omega_a / T_h = delta / T_w + omega_b / T_c for T_w; diverges as
    T_c approaches the lower measurable bound xi * T_h.
    """
    denominator = omega_a / t_h - omega_b / t_c
    if denominator <= 0:
        raise MeasurementRangeError(
            "no equilibrium control temperature: Tc <= xi * Th")
    return (omega_a - omega_b) / denominator


def tc_from_tw(t_w: float, t_h: float, xi: float) -> float:
    """Sample temperature inferred from the equilibrium control temperature."""
    denominator = t_w - (1.0 - xi) * t_h
    if denominator <= 0:
        raise MeasurementRangeError("control temperature below (1 - xi) * Th")
    return t_h * t_w * xi / denominator


def sensitivity(t_c: float, t_h: float, xi: float) -> float:
    """Thermometer gain |dT_w / dT_c| at a sample temperature."""
    if not xi * t_h < t_c <= t_h:
        raise MeasurementRangeError(
            "sample temperature outside (xi * Th, Th]")
    return xi * (1.0 - xi) * t_h ** 2 / (xi * t_h - t_c) ** 2


def critical_tc(alpha_t: float, t_h: float, xi: float) -> float:
    """Largest sample temperature measured with at least the given gain."""
    if not alpha_t > 0:
        raise ConfigError("sensitivity threshold must be positive")
    return xi * t_h + math.sqrt(xi * (1.0 - xi) * t_h ** 2 / alpha_t)


def measure_temperature(config: DeviceConfig) -> ThermometerReading:
    """Simulated thermometer protocol for the uncoupled device.

    The control temperature rises from T_h to _TW_MAX_FACTOR * T_h until
    the conductor current J_h changes sign. The first engine call solves
    _RANGE_PROBES points of that range, uniform in 1 / T_w; the zero at
    the first sign change going up is then found as in find_current_zero,
    with _TW_MAX_FACTOR * T_h as hi. A failed solve below that sign change
    raises, and so does a reading outside (xi * T_h, T_h]. The config's
    cold-bath temperature plays the hidden sample temperature; the reading
    must reproduce it.
    """
    if config.system.g != 0.0:
        raise ConfigError("the thermometer protocol requires g=0")
    t_h = config.temperature("h")
    xi = config.system.omega_b / config.system.omega_a
    t_w_max = _TW_MAX_FACTOR * t_h
    config.with_bath_temperature("w", t_w_max)  # the model's check
    row = stack_points([config])
    samples = _samples(row, "h", _probe_grid(t_h, t_w_max, _RANGE_PROBES))
    found = _sign_change(config, row, "h", samples)
    if found is None:
        raise MeasurementRangeError(
            "sample below measurable range: J_h kept its sign up to "
            f"Tw = {t_w_max:g}")
    tw_star = found[0]
    tc_estimate = tc_from_tw(tw_star, t_h, xi)
    return ThermometerReading(
        tw_star=tw_star,
        tc_estimate=tc_estimate,
        sensitivity=sensitivity(tc_estimate, t_h, xi),
    )


def amplification_factor(config: DeviceConfig, t_w: float) -> float:
    """|dJ_c / dJ_w| with respect to the control temperature.

    The ratio of the exact derivatives of both currents in T_w, from one
    steady-state solve at t_w, classified as phase_map classifies (see
    _classified): raises the point's error, or AmplifierUndefinedError
    where alpha_J is undefined.
    """
    table = _solved_at(config, t_w, tw_slopes=True)
    point = _classified(np.array([t_w]), np.array([config.system.g]), table)
    if point.amplifier_class[0] == "undefined":
        raise AmplifierUndefinedError("amplifier factor undefined here: "
                                      "work current does not respond to Tw")
    return float(point.alpha_j[0])


@dataclass(frozen=True)
class PhasePoint:
    """One grid point of the thermal-function phase map."""

    t_w: float
    g: float
    report: CurrentReport | None
    alpha_j: float | None
    function_class: str
    amplifier_class: str
    error: str = ""


#: amplifier classes of the points with an amplification factor
_ALPHA_CLASSES = ("amplifier", "contraction")


@dataclass(frozen=True)
class PhaseMap:
    """The thermal-function phase map of a (T_w, g) grid, as columns.

    Point i sits at (t_w[i], g[i]). ``table`` holds its currents with
    their T_w slopes and, in its errors, the exception of a point that
    failed or whose T_w the model rejected; both of its classes read
    "error" there. alpha_j[i] is meaningful where the amplifier class is
    "amplifier" or "contraction".
    """

    t_w: np.ndarray
    g: np.ndarray
    table: CurrentTable
    alpha_j: np.ndarray
    function_class: np.ndarray
    amplifier_class: np.ndarray

    def points(self) -> list[PhasePoint]:
        """The map as one PhasePoint per grid point."""
        return [PhasePoint(t_w, g, None if failed else report,
                           alpha if amplifier in _ALPHA_CLASSES else None,
                           function, amplifier, str(report) if failed else "")
                for t_w, g, report, failed, alpha, function, amplifier in zip(
                    self.t_w.tolist(), self.g.tolist(),
                    self.table.reports(),
                    [error is not None for error in self.table.errors],
                    self.alpha_j.tolist(), self.function_class.tolist(),
                    self.amplifier_class.tolist())]


def phase_map(config: DeviceConfig, tw_values, g_values) -> PhaseMap:
    """Evaluate currents, amplification and classification over a (T_w, g) grid.

    Points are laid out in row-major (T_w outer, g inner) order; per-point
    failures are recorded on the point instead of aborting the map, and a
    T_w the model rejects fails its row with the model's error. Every other
    point, with the derivatives its amplification factor needs, comes from
    one current_table call.
    """
    g_values = np.array([float(g) for g in g_values])
    tw_values = np.array([float(t_w) for t_w in tw_values])
    rejections = []
    for t_w in tw_values.tolist():
        try:
            config.with_bath_temperature("w", t_w)
            rejections.append(None)
        except ConfigError as exc:
            rejections.append(exc)
    row = stack_points(config.with_coupling(g) for g in g_values.tolist())
    accepted = [rejection is None for rejection in rejections]
    table = current_table(_points_at(row, tw_values[accepted]),
                          tw_slopes=True)
    if not all(accepted):
        table = _with_rejections(table, rejections, len(g_values))
    return _classified(np.repeat(tw_values, len(g_values)),
                       np.tile(g_values, len(tw_values)), table)


def _with_rejections(table: CurrentTable, rejections: list,
                     row_points: int) -> CurrentTable:
    """``table`` of the accepted rows of a grid, widened to every row: each
    rejected row's points get NaN values and its exception."""
    accepted = np.repeat([rejection is None for rejection in rejections],
                         row_points)
    values = np.full((len(accepted), 9), math.nan)
    slopes = np.full((len(accepted), 3), math.nan)
    values[accepted], slopes[accepted] = table.values, table.slopes
    solved = iter(table.errors)
    errors = [next(solved) if rejection is None else rejection
              for rejection in rejections for _ in range(row_points)]
    return CurrentTable(values, errors, slopes)


def _classified(t_w: np.ndarray, g: np.ndarray,
                table: CurrentTable) -> PhaseMap:
    """The PhaseMap of points at (t_w, g) with their CurrentTable, which
    has T_w slopes: the package's one rule for both classes and alpha_J.
    A valve has |J_c| < VALVE_TOLERANCE * current_scale, and otherwise
    J_c > 0 makes a refrigerator, else a heater. alpha_J = |dJ_c / dJ_w|
    in T_w is undefined where |dJ_w| max(1, T_w) < AMPLIFIER_RESPONSE_FLOOR
    * current_scale; above 1 it is an amplifier, else a contraction."""
    j_c = table.values[:, 1]
    magnitudes = np.abs(table.values[:, :3])
    # current_scale's max(): a NaN wins only in first place
    scale = magnitudes[:, 0]
    for candidate in (magnitudes[:, 1], magnitudes[:, 2], 1e-300):
        scale = np.where(candidate > scale, candidate, scale)
    function = np.where(magnitudes[:, 1] < VALVE_TOLERANCE * scale, "valve",
                        np.where(j_c > 0, "refrigerator", "heater"))
    d_jc, d_jw = table.slopes[:, 1], table.slopes[:, 2]
    # Python floats overflow, and divide by the zero slopes this skips,
    # without a word; so do these
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        undefined = (np.abs(d_jw) * np.where(t_w > 1.0, t_w, 1.0)
                     < AMPLIFIER_RESPONSE_FLOOR * scale)
        alpha = np.abs(d_jc / d_jw)
    amplifier = np.where(undefined, "undefined",
                         np.where(alpha > 1.0, "amplifier", "contraction"))
    failed = np.array([error is not None for error in table.errors],
                      dtype=bool)
    function[failed] = amplifier[failed] = "error"
    return PhaseMap(t_w, g, table, alpha, function, amplifier)


def phase_map_csv(result: PhaseMap) -> str:
    """The phase map's CSV text; one row per grid point, deterministic
    order."""
    amplifier = result.amplifier_class.tolist()
    alpha = [f"{value:.17g}" if kind in _ALPHA_CLASSES else ""
             for value, kind in zip(result.alpha_j.tolist(), amplifier)]
    errors = ["" if error is None else str(error)
              for error in result.table.errors]
    buffer = io.StringIO()
    write_grid_csv(buffer, result.t_w, result.g, result.table,
                   ["alpha_j", "function_class", "amplifier_class", "error"],
                   [alpha, result.function_class.tolist(), amplifier, errors])
    return buffer.getvalue()
