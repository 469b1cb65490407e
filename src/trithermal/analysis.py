"""Device-level analyses: valve working points, refrigerator window,
amplification factor, phase maps, and the thermometer protocol."""

from __future__ import annotations

import bisect
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

#: relative tolerance of every root search: the current changes sign
#: within _REL_TOL * hi / 2 of the returned T_w
_REL_TOL = 1e-10

#: half-width, relative to T_w, of the flanks of each root search step:
#: above the error of a root interpolated between two probes (2e-5 at most
#: on the benchmark's devices, 1.2e-4 on the tests'), so that the next step
#: interpolates over the flank, where it is exact to roundoff
_FLANK = 1e-3

#: relative distance from a certified T_w beyond which the interpolated
#: root of its sign change is solved and returned in its place
_POLISH_TOL = 1e-13

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
    config.with_bath_temperature("w", t_w)  # the model's check
    sample, = _samples(stack_points([config]), "h", [t_w], tw_slopes)
    return sample.report()


def _points_at(row: np.ndarray, temperatures) -> np.ndarray:
    """The stacked points ``row`` with T_w set to each temperature in turn."""
    stacked = np.repeat(row[None], len(temperatures), axis=0)
    stacked[:, :, POINT_COLUMNS.index("temperature_w")] = np.reshape(
        temperatures, (-1, 1))
    return stacked.reshape(-1, len(POINT_COLUMNS))


def find_current_zero(config: DeviceConfig, which: str,
                      bracket: tuple[float, float]) -> float:
    """T_w at which the selected steady-state current vanishes.

    The current must change sign between the bracket ends; where it
    changes sign more than once, the lowest sign change the probes
    resolve is taken. It changes sign (or is exactly 0) within _REL_TOL *
    hi / 2 of the returned T_w, which is as precise as the currents. The
    first engine call solves _BRACKET_PROBES points from lo up to hi,
    uniform in 1 / T_w, ends included; an answer takes one call at g = 0
    and three at g > 0 (see _sign_change).
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
    probed = _probed(config, row, which, _probe_grid(lo, hi, _BRACKET_PROBES),
                     probe)
    ends = probed[0][0], probed[0][-1]
    for end in ends:
        if end.error is not None:
            raise end.error
    if 0.0 not in (ends[0].j, ends[1].j) and not _changes(*ends):
        raise BracketError(f"no working point in bracket: J_{which} does not "
                           f"change sign over [{lo}, {hi}]")
    return _sign_change(config, row, which, probed, probe)


class _Sample(NamedTuple):
    """A solved T_w: the selected current and its T_w slope where the call
    took slopes, or None where the solve failed, with its error; and the
    table of the engine call that solved it, as its row ``row``."""

    t_w: float
    j: float | None
    slope: float | None
    error: Exception | None
    table: CurrentTable
    row: int

    def report(self) -> CurrentTable:
        """The sample's one-row current_table, or its error raised."""
        if self.error is not None:
            raise self.error
        rows = slice(self.row, self.row + 1)
        slopes = self.table.slopes
        return CurrentTable(self.table.values[rows], [None],
                            None if slopes is None else slopes[rows])


def _probe_grid(lo: float, hi: float, n: int) -> list[float]:
    """n temperatures from lo up to hi, uniform in 1 / T_w; the ends exact."""
    grid = [1.0 / u for u in np.linspace(1.0 / lo, 1.0 / hi, n).tolist()]
    grid[0], grid[-1] = lo, hi
    return grid


def _samples(row: np.ndarray, which: str, temperatures,
             slopes: bool) -> list[_Sample]:
    """The stacked point ``row`` solved at each temperature, which the
    caller has checked, in one engine call, with T_w slopes if ``slopes``."""
    table = current_table(_points_at(row, temperatures), tw_slopes=slopes)
    # the table's first three columns are J_h, J_c and J_w
    column = "hcw".index(which)
    currents = table.values[:, column].tolist()
    derivatives = (table.slopes[:, column].tolist() if slopes
                   else [None] * len(currents))
    return [_Sample(t_w, j if error is None else None, slope, error, table, i)
            for i, (t_w, j, slope, error) in enumerate(zip(
                temperatures, currents, derivatives, table.errors))]


def _step(row: np.ndarray, which: str, temperatures: list[float],
          x: float, probe: float, slopes: bool) -> tuple[list, list]:
    """The samples of one engine call at the temperatures, and the sample
    at x * probe solved with them where probe != 1."""
    extra = [x * probe] if probe != 1.0 and math.isfinite(x * probe) else []
    solved = _samples(row, which, temperatures + extra, slopes)
    return solved[:len(temperatures)], solved[len(temperatures):]


def _step_points(x: float, low: float, high: float) -> list[float]:
    """The temperatures a search step at x solves, ascending: x, x +- d
    with d = _REL_TOL * high / 4, and x +- _FLANK * x, where inside (low,
    high)."""
    d = 0.25 * _REL_TOL * high
    flank = _FLANK * x
    return [t_w for t_w in sorted({x - flank, x - d, x, x + d, x + flank})
            if low < t_w < high]


def _probed(config: DeviceConfig, row: np.ndarray, which: str,
            grid: list[float], probe: float) -> tuple[list, tuple | None]:
    """The first engine call of a search: the samples of the ascending
    probe ``grid`` (with T_w slopes at g > 0) and, at g = 0, where the
    closed-form root x = equilibrium_tw lies between two probes, (x, the
    samples of _sign_change's first step at x, solved in the same call)."""
    steps, x = [], math.nan
    if config.system.g == 0.0:
        # the uncoupled device's one cycle of transitions carries no net
        # flux at x (J. Schnakenberg, Rev. Mod. Phys. 48, 571, 1976)
        try:
            x = equilibrium_tw(config.system.omega_a, config.system.omega_b,
                               config.temperature("h"),
                               config.temperature("c"))
        except MeasurementRangeError:
            pass
        k = bisect.bisect_right(grid, x)  # len(grid) where x is NaN
        if 0 < k < len(grid) and grid[k - 1] < x:
            steps = _step_points(x, grid[k - 1], grid[k])
    solved, extra = _step(row, which, grid + steps, x,
                          probe if steps else 1.0, config.system.g != 0.0)
    return (solved[:len(grid)],
            (x, solved[len(grid):], extra) if steps else None)


def _changes(low: _Sample, high: _Sample) -> bool:
    """Whether the current changes sign from ``low`` to ``high``; a failed
    ``high`` counts as a change, which the search resolves or raises."""
    return high.j is None or (math.copysign(1.0, low.j)
                              != math.copysign(1.0, high.j))


def _zero_between(low: _Sample, high: _Sample) -> float:
    """T_w of the zero of the interpolant of J in u = 1 / T_w between two
    samples over which J changes sign: cubic Hermite on their T_w slopes,
    or the line where they have none; NaN where a sample failed. Newton's
    steps on the cubic in t = (u - u_low) / (u_high - u_low), from the
    line's zero, find its zero to roundoff; _sign_change checks that it
    lies between the samples."""
    if low.j is None or high.j is None:
        return math.nan
    u_low = 1.0 / low.t_w
    h = 1.0 / high.t_w - u_low
    secant = high.j - low.j
    # dJ/dt = h dJ/du = -h T_w^2 dJ/dT_w; a product overflows to inf
    # where ** would raise
    m_low, m_high = ((secant, secant) if low.slope is None else
                     (-h * low.t_w * low.t_w * low.slope,
                      -h * high.t_w * high.t_w * high.slope))
    c2 = 3.0 * secant - 2.0 * m_low - m_high
    c3 = m_low + m_high - 2.0 * secant
    t = low.j / (low.j - high.j)
    for _ in range(8):
        slope = m_low + t * (2.0 * c2 + 3.0 * t * c3)
        if not slope:
            return math.nan
        t -= (low.j + t * (m_low + t * (c2 + t * c3))) / slope
    return 1.0 / (u_low + t * h)


def _sign_change(config: DeviceConfig, row: np.ndarray, which: str,
                 probed: tuple, probe: float = 1.0
                 ) -> tuple[float, CurrentTable] | None:
    """(T_w, one-row current_table at T_w * probe) at the first sign change
    of J_which going up the probe samples of ``probed`` (see _probed), or
    None if J keeps its sign. The walk up the samples raises the first
    failure it meets before a sign change; a failed sample right after a
    good one bounds the search instead, and raises only if the sign
    change is not below it.

    Each step is one engine call at a point x inside the bracket [lo, hi]
    (_step_points, and x * probe if probe != 1), which then shrinks to the
    pair around the sign change. x is the zero of the interpolant between
    the bracket ends (_zero_between): cubic Hermite on the exact T_w
    slopes, which every call takes at g > 0, linear at g = 0. The search
    bisects in u where a step leaves the bracket, or is not below half the
    step before last, or there is none: the safeguards of "rtsafe" (Press
    et al., Numerical Recipes, sec. 9.4). Once J changes sign across x +-
    d, or is 0 there, x is returned, unless the zero of the interpolant
    over that pair lies more than _POLISH_TOL * x away: then that zero is
    solved and returned. A bracket no wider than 2 d ends the search at
    its end with the smaller |J|. Either way J changes sign within _REL_TOL
    * hi / 2 of the returned T_w. d exceeds 2 ulp of hi, so x +- d differ
    from x (the model accepts no T_w below 5e-309).

    At g = 0 the first step is at the closed-form root, solved with the
    probes, and certifies it. At g > 0 the second call solves the zero
    over the two probes around the sign change, whose flanks x +- _FLANK
    * x bracket the root, and the third the zero over that flank.
    """
    samples, seeded = probed
    lo = None
    for hi in samples:
        if hi.j is None and lo is None:
            raise hi.error
        if hi.j == 0.0:
            return hi.t_w, _report_at(config, hi, probe, [])
        if lo is not None and _changes(lo, hi):
            break
        lo = hi
    else:
        return None
    slopes = config.system.g != 0.0
    x, points, extra = (seeded if seeded and lo.t_w < seeded[0] < hi.t_w
                        else (None, [], []))
    step = prev = 1.0 / lo.t_w - 1.0 / hi.t_w
    delta = 0.25 * _REL_TOL * hi.t_w
    while True:
        if points:
            for point in points:
                if point.j is None:
                    raise point.error
            base = next(point for point in points if point.t_w == x)
            zero = next((point for point in points if point.j == 0.0), None)
            if zero is not None:
                return zero.t_w, _report_at(config, zero, probe,
                                            extra if zero is base else [])
            ordered = [lo, *points, hi]
            lo, hi = next((low, high) for low, high
                          in zip(ordered, ordered[1:]) if _changes(low, high))
            if (hi.j is not None and x - delta <= lo.t_w
                    and hi.t_w <= x + delta):
                polished = _zero_between(lo, hi)
                if not (lo.t_w <= polished <= hi.t_w
                        and abs(polished - x) > _POLISH_TOL * x):
                    return x, _report_at(config, base, probe, extra)
                points, extra = _step(row, which, [polished], polished,
                                      probe, slopes)
                return polished, _report_at(config, points[0], probe, extra)
            delta = 0.25 * _REL_TOL * hi.t_w
        if hi.t_w - lo.t_w <= 2.0 * delta:
            if hi.j is None:
                raise hi.error
            end = lo if abs(lo.j) <= abs(hi.j) else hi
            return end.t_w, _report_at(config, end, probe, [])
        t_next = _zero_between(lo, hi)
        # rtsafe's first step runs from the middle of the bracket
        u_last = 1.0 / x if x else 0.5 * (1.0 / lo.t_w + 1.0 / hi.t_w)
        du = (u_last - 1.0 / t_next if lo.t_w < t_next < hi.t_w
              else math.inf)
        if abs(du) < 0.5 * abs(prev):
            prev, step, x = step, du, t_next
        else:
            u_lo, u_hi = 1.0 / lo.t_w, 1.0 / hi.t_w
            prev, step = step, 0.5 * (u_lo - u_hi)
            x = 1.0 / (u_hi + step)
            if not lo.t_w < x < hi.t_w:
                x = lo.t_w + 0.5 * (hi.t_w - lo.t_w)
        points, extra = _step(row, which, _step_points(x, lo.t_w, hi.t_w),
                              x, probe, slopes)


def _report_at(config: DeviceConfig, sample: _Sample, probe: float,
               extra: list[_Sample]) -> CurrentTable:
    """The one-row current_table at sample.t_w * probe: the sample's own,
    the one solved with it in ``extra``, or one more solve."""
    if probe == 1.0:
        return sample.report()
    if extra:
        return extra[0].report()
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
    _RANGE_PROBES points of that range, uniform in 1 / T_w, with the first
    step at the closed-form root equilibrium_tw, which usually certifies
    the reading in that one call; the zero at the first sign change going
    up is found as in find_current_zero, with _TW_MAX_FACTOR * T_h as hi,
    and no call takes T_w slopes. A failed solve below that sign change
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
    found = _sign_change(config, row, "h", _probed(
        config, row, "h", _probe_grid(t_h, t_w_max, _RANGE_PROBES), 1.0))
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

#: the classes of _classified's integer codes, by code
_FUNCTION_CLASSES = np.array(["heater", "refrigerator", "valve", "error"])
_AMPLIFIER_CLASSES = np.array(["contraction", "amplifier", "undefined",
                               "error"])


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
    function = (j_c > 0).astype(np.intp)
    function[magnitudes[:, 1] < VALVE_TOLERANCE * scale] = 2
    d_jc, d_jw = table.slopes[:, 1], table.slopes[:, 2]
    # Python floats overflow, and divide by the zero slopes this skips,
    # without a word; so do these
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        undefined = (np.abs(d_jw) * np.where(t_w > 1.0, t_w, 1.0)
                     < AMPLIFIER_RESPONSE_FLOOR * scale)
        alpha = np.abs(d_jc / d_jw)
    amplifier = (alpha > 1.0).astype(np.intp)
    amplifier[undefined] = 2
    failed = [error is not None for error in table.errors]
    if any(failed):
        function[failed] = amplifier[failed] = 3
    return PhaseMap(t_w, g, table, alpha, _FUNCTION_CLASSES[function],
                    _AMPLIFIER_CLASSES[amplifier])


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
