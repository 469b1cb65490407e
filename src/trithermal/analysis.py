"""Device-level analyses: valve working points, refrigerator window,
amplification factor, phase maps, and the thermometer protocol."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .generator import reduced_partial_secular
from .model import POINT_COLUMNS, ConfigError, DeviceConfig, stack_points
from .observables import (
    CurrentReport,
    CurrentTable,
    _traced,
    current_table,
    write_grid_csv,
)
from .rates import SMALL_FREQUENCY_FACTOR
from .solver import _bordered

#: |J_c| below this fraction of the current scale classifies as a valve point
VALVE_TOLERANCE = 1e-9

#: alpha_J is undefined where |dJ_w/dT_w| * max(1, T_w) falls below this
#: fraction of the current scale; the value is kept so that no point
#: changes class
AMPLIFIER_RESPONSE_FLOOR = 5e-8

#: probe points of the engine call of a root search, uniform in 1 / T_w
#: from the low end up to the high end: over a valve bracket, and over the
#: thermometer's range
_BRACKET_PROBES = 9

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
    table = current_table(
        stack_points([config.with_bath_temperature("w", t_w)]),
        tw_slopes=tw_slopes)
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

    The current must change sign between the bracket ends; where it
    changes sign more than once, the lowest sign change the probes
    resolve is taken. It changes sign (or is exactly 0) within _REL_TOL *
    hi / 2 of the returned T_w, which is as precise as the currents. The
    candidate roots come in closed form: equilibrium_tw at g = 0, the
    roots of _cubic_roots at g > 0. One engine call, without T_w slopes,
    solves them with _BRACKET_PROBES points from lo up to hi, uniform in
    1 / T_w, ends included, and certifies the answer (see _sign_change).
    """
    return _current_zero(config, which, bracket)[0]


def _current_zero(config: DeviceConfig, which: str,
                  bracket: tuple[float, float],
                  probe: float = 1.0) -> tuple[float, CurrentTable]:
    """find_current_zero's T_w, and the one-row current_table at T_w *
    probe, which the search's engine call solves alongside the probes."""
    if which not in ("h", "c", "w"):
        raise ConfigError(f"unknown current selector {which!r}")
    lo, hi = bracket
    if not 0 < lo < hi < math.inf:
        raise ConfigError("bracket must satisfy 0 < lo < hi < inf")
    config.with_bath_temperature("w", lo)  # the model's check of 1 / lo
    samples, candidates = _probed(config, which,
                                  _probe_grid(lo, hi, _BRACKET_PROBES), probe)
    ends = samples[0], samples[-1]
    for end in ends:
        if end.error is not None:
            raise end.error
    if 0.0 not in (ends[0].j, ends[1].j) and not _changes(*ends):
        raise BracketError(f"no working point in bracket: J_{which} does not "
                           f"change sign over [{lo}, {hi}]")
    return _sign_change(config, which, samples, candidates, probe)


class _Sample(NamedTuple):
    """A solved T_w: the selected current, or None where the solve failed,
    with its error; and the table of the engine call that solved it, as
    its row ``row``."""

    t_w: float
    j: float | None
    error: Exception | None
    table: CurrentTable
    row: int

    def report(self) -> CurrentTable:
        """The sample's one-row current_table, or its error raised."""
        if self.error is not None:
            raise self.error
        return CurrentTable(self.table.values[self.row:self.row + 1], [None],
                            None)


def _probe_grid(lo: float, hi: float, n: int) -> list[float]:
    """n temperatures from lo up to hi, uniform in 1 / T_w; the ends exact."""
    grid = [1.0 / u for u in np.linspace(1.0 / lo, 1.0 / hi, n).tolist()]
    grid[0], grid[-1] = lo, hi
    return grid


def _samples(config: DeviceConfig, which: str,
             temperatures: list[float]) -> list[_Sample]:
    """``config`` solved at each of the temperatures, which the caller has
    checked, in one engine call."""
    table = current_table(_points_at(stack_points([config]), temperatures))
    # the table's first three columns are J_h, J_c and J_w
    currents = table.values[:, "hcw".index(which)].tolist()
    return [_Sample(t_w, j if error is None else None, error, table, i)
            for i, (t_w, j, error) in enumerate(zip(
                temperatures, currents, table.errors))]


def _probed(config: DeviceConfig, which: str, grid: list[float],
            probe: float) -> tuple[list[_Sample], list[tuple]]:
    """The engine call of a search: the samples of the ascending probe
    ``grid``, and per closed-form root x inside it a candidate (x, the
    samples at x - d, x and x + d, and at x * probe where probe != 1),
    with d = _REL_TOL * hi / 4 for the grid's top hi. At g = 0 the one
    root is equilibrium_tw, where the uncoupled device's one cycle of
    transitions carries no net flux (J. Schnakenberg, Rev. Mod. Phys. 48,
    571, 1976); at g > 0 they are _cubic_roots', solved ahead of it."""
    lo, hi = grid[0], grid[-1]
    if config.system.g != 0.0:
        roots = _cubic_roots(config, which, lo, hi)
    else:
        try:
            roots = [equilibrium_tw(config.system.omega_a,
                                    config.system.omega_b,
                                    config.temperature("h"),
                                    config.temperature("c"))]
        except MeasurementRangeError:
            roots = []
    d = 0.25 * _REL_TOL * hi
    roots = [x for x in roots if lo < x - d and x + d < hi]
    # where hi * probe overflows, _report_at solves the probe row instead
    size = 4 if probe != 1.0 and math.isfinite(hi * probe) else 3
    solved = _samples(config, which, grid + [
        t_w for x in roots for t_w in (x - d, x, x + d, x * probe)[:size]])
    rest = solved[len(grid):]
    return solved[:len(grid)], [(x, *rest[size * k:size * (k + 1)])
                                for k, x in enumerate(roots)]


def _changes(low: _Sample, high: _Sample) -> bool:
    """Whether the current changes sign from ``low`` to ``high``; a failed
    ``high`` counts as a change, which the search resolves or raises."""
    return high.j is None or (math.copysign(1.0, low.j)
                              != math.copysign(1.0, high.j))


def _sign_change(config: DeviceConfig, which: str, samples: list[_Sample],
                 candidates: list[tuple], probe: float = 1.0
                 ) -> tuple[float, CurrentTable] | None:
    """(T_w, one-row current_table at T_w * probe) at the first sign change
    of J_which going up the probe ``samples``, or None if J keeps its sign.
    The walk up the samples raises the first failure it meets before a
    sign change; a failed sample right after a good one bounds the search
    instead, and raises only if the sign change is not below it.

    The answer is the lowest of the ``candidates`` (see _probed) inside the
    pair of samples over which J first changes sign whose J is 0, or
    changes sign from x - d to x + d. Where none is, the pair is bisected
    in 1 / T_w, one engine call a step, down to a width of 2 d, and the
    end with the smaller |J| is returned. Either way J changes sign within
    _REL_TOL * hi / 2 of the returned T_w. d exceeds 2 ulp of hi, so x +- d
    differ from x (the model accepts no T_w below 5e-309).
    """
    lo = None
    for hi in samples:
        if hi.j is None and lo is None:
            raise hi.error
        if hi.j == 0.0:
            return hi.t_w, _report_at(config, hi, probe)
        if lo is not None and _changes(lo, hi):
            break
        lo = hi
    else:
        return None
    for x, below, at, above, *extra in candidates:
        if (lo.t_w < x < hi.t_w and None not in (below.j, at.j, above.j)
                and (at.j == 0.0 or _changes(below, above))):
            return x, _report_at(config, at, probe, *extra)
    d = 0.25 * _REL_TOL * samples[-1].t_w
    while hi.t_w - lo.t_w > 2.0 * d:
        mid, = _samples(config, which, [2.0 / (1.0 / lo.t_w + 1.0 / hi.t_w)])
        if mid.j == 0.0:
            return mid.t_w, _report_at(config, mid, probe)
        lo, hi = (lo, mid) if _changes(lo, mid) else (mid, hi)
    if hi.j is None:
        raise hi.error
    end = lo if abs(lo.j) <= abs(hi.j) else hi
    return end.t_w, _report_at(config, end, probe)


def _report_at(config: DeviceConfig, sample: _Sample, probe: float,
               extra: _Sample | None = None) -> CurrentTable:
    """The one-row current_table at sample.t_w * probe: the sample's own,
    ``extra`` where it was solved at that T_w, or one more solve."""
    if probe == 1.0:
        return sample.report()
    if extra is not None:
        return extra.report()
    return _solved_at(config, sample.t_w * probe)


#: Chebyshev points in [-1, 1], ascending, and the inverse of their
#: Vandermonde matrix, which takes a cubic's values there to its
#: coefficients in increasing degree
_NODES = np.cos(np.pi * np.arange(3.5, 0.0, -1.0) / 4.0)
_FIT = np.linalg.inv(np.vander(_NODES, increasing=True))


def _cubic_roots(config: DeviceConfig, which: str, lo: float,
                 hi: float) -> list[float]:
    """The T_w in (lo, hi), ascending, at which J_which changes sign, from
    the engine's steady-state stage (observables._traced) at four T_w; none
    where the bracket reaches the rates' series branch or their 1e-3 *
    Omega floor, or where one of the four fails the engine's checks.

    Only the work bath depends on T_w, through its one rate pair at Omega
    = hypot(2 g, delta): up = G n and down = up + G, with G the spectral
    density and n = 1 / expm1(Omega / T_w). So the generator is L_* + G n M
    (generator.reduced_work_slope), and by Cramer's rule det A and det A * v
    of the bordered system A v = e_1 are polynomials in n of degree at
    most 3, the rank of the bordered M; so are J_h det A, J_c det A and,
    by the first law, J_w det A. Each J is its own dissipator's trace, so
    a J_w far below J_h keeps its precision. The cubic is fitted through
    its values at the Chebyshev points of [n(lo), n(hi)], and its roots
    map back by T_w = Omega / log1p(1 / n), one to one between those
    limits.
    """
    omega = math.hypot(2.0 * config.system.g, config.system.delta)
    if not (1e-3 * omega <= lo and omega > SMALL_FREQUENCY_FACTOR * hi):
        return []
    n_lo, n_hi = (math.exp(-omega / t_w) / -math.expm1(-omega / t_w)
                  for t_w in (lo, hi))
    middle, half = 0.5 * (n_hi + n_lo), 0.5 * (n_hi - n_lo)
    # a rate past the float range fails every point of the engine call
    # that follows; here it leaves no root
    with np.errstate(all="ignore"):
        generators = reduced_partial_secular(_points_at(
            stack_points([config]),
            omega / np.log1p(1.0 / (middle + half * _NODES))))
        errors, terms = _traced(generators)[:2]
        if any(errors):
            return []
        values = (terms[:, "hcw".index(which)].sum(axis=1).astype(float)
                  * np.linalg.det(_bordered(generators.matrix)))
        coefficients = (_FIT @ values).tolist()
    roots = [omega / math.log1p(1.0 / n) for n in
             (middle + half * t for t in _unit_roots(coefficients)) if n > 0]
    return [t_w for t_w in roots if lo < t_w < hi]


def _unit_roots(coefficients: list[float]) -> list[float]:
    """The points of [-1, 1], ascending, where the cubic with the
    ``coefficients`` (increasing degree) changes sign or is 0: the zeros
    of its derivative split [-1, 1] into monotone pieces, and each piece
    whose ends differ in sign is bisected down to 2^-52. None where a
    coefficient is not finite or all are 0."""
    if not all(map(math.isfinite, coefficients)) or not any(coefficients):
        return []
    scale = max(map(abs, coefficients))
    c0, c1, c2, c3 = (c / scale for c in coefficients)

    def cubic(t: float) -> float:
        return c0 + t * (c1 + t * (c2 + t * c3))
    # the zeros of c1 + b t + a t^2 by the formula that does not cancel
    a, b = 3.0 * c3, 2.0 * c2
    critical = [-c1 / b] if a == 0.0 and b != 0.0 else []
    discriminant = b * b - 4.0 * a * c1
    if a != 0.0 and discriminant >= 0.0:
        q = -0.5 * (b + math.copysign(math.sqrt(discriminant), b))
        critical = [q / a] + ([c1 / q] if q != 0.0 else [])
    ends = [-1.0, *sorted(t for t in critical if -1.0 < t < 1.0), 1.0]
    roots = [-1.0] if cubic(-1.0) == 0.0 else []
    for low, high in zip(ends, ends[1:]):
        f_low, f_high = cubic(low), cubic(high)
        if f_high != 0.0 and (f_low == 0.0 or (f_low > 0.0) == (f_high > 0.0)):
            continue
        while f_high != 0.0 and high - low > 2.0 ** -52:
            middle = 0.5 * (low + high)
            f_middle = cubic(middle)
            if f_middle == 0.0 or (f_middle > 0.0) != (f_low > 0.0):
                high, f_high = middle, f_middle
            else:
                low = middle
        roots.append(high if f_high == 0.0 else 0.5 * (low + high))
    return roots


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
    the conductor current J_h changes sign. One engine call solves
    _BRACKET_PROBES points of that range, uniform in 1 / T_w, with the
    closed-form root equilibrium_tw and the points that certify it; the
    zero at the first sign change going up is found as in
    find_current_zero, with _TW_MAX_FACTOR * T_h as hi. A failed solve
    below that sign change raises, and so does a reading outside (xi *
    T_h, T_h]. The config's cold-bath temperature plays the hidden sample
    temperature; the reading must reproduce it.
    """
    if config.system.g != 0.0:
        raise ConfigError("the thermometer protocol requires g=0")
    t_h = config.temperature("h")
    xi = config.system.omega_b / config.system.omega_a
    t_w_max = _TW_MAX_FACTOR * t_h
    config.with_bath_temperature("w", t_w_max)  # the model's check
    found = _sign_change(config, "h", *_probed(
        config, "h", _probe_grid(t_h, t_w_max, _BRACKET_PROBES), 1.0))
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
    # one string per class, not per point: a large map's memory peaks in
    # the writer's final join, which these lists live through
    function = list(map(sys.intern, result.function_class.tolist()))
    amplifier = list(map(sys.intern, result.amplifier_class.tolist()))
    alpha = [f"{value:.17g}" if kind in _ALPHA_CLASSES else ""
             for value, kind in zip(result.alpha_j.tolist(), amplifier)]
    errors = ["" if error is None else str(error)
              for error in result.table.errors]
    return write_grid_csv(
        result.t_w, result.g, result.table,
        ["alpha_j", "function_class", "amplifier_class", "error"],
        [alpha, function, amplifier, errors])
