"""Device-level analyses: valve working points, refrigerator window,
amplification factor, phase maps, and the thermometer protocol."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .model import POINT_COLUMNS, ConfigError, DeviceConfig, stack_points, validate
from .observables import CurrentReport, current_reports, current_scale

#: |J_c| below this fraction of the current scale classifies as a valve point
VALVE_TOLERANCE = 1e-9

#: default relative step for finite-difference derivatives in T_w
FD_STEP = 1e-5

#: thermometer ladder rungs solved per engine call; an engine call costs
#: about as much as 15 more points in it
_LADDER_CHUNK = 8


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
    """Outcome of the simulated sample-temperature measurement."""

    tw_star: float
    tc_estimate: float
    sensitivity: float
    in_range: bool


def currents_at(config: DeviceConfig, t_w: float) -> CurrentReport:
    """Steady-state current report with the work bath set to t_w."""
    moved = config.with_bath_temperature("w", t_w)
    report, = current_reports(stack_points([moved]))
    return _checked(report)


def _checked(report: CurrentReport | Exception) -> CurrentReport:
    if isinstance(report, Exception):
        raise report
    return report


def _reports_at(row: np.ndarray, temperatures) -> list:
    """current_reports of the stacked points ``row`` with T_w set to each
    of the given temperatures, which the caller has checked, in one call;
    temperature-major order."""
    stacked = np.repeat(row[None], len(temperatures), axis=0)
    stacked[:, :, POINT_COLUMNS.index("temperature_w")] = np.reshape(
        temperatures, (-1, 1))
    return current_reports(stacked.reshape(-1, len(POINT_COLUMNS)))


def find_current_zero(config: DeviceConfig, which: str,
                      bracket: tuple[float, float],
                      rel_tol: float = 1e-10) -> float:
    """T_w at which the selected steady-state current vanishes.

    Brent's method: the two bracket ends are solved in one call, then every
    step re-solves the full steady state at one point. The current changes
    sign (or is exactly 0) within rel_tol * hi / 2 of the returned T_w, or
    a few ulp if rel_tol is below the float spacing. Only a single sign
    change is assumed; callers narrow the bracket if several roots are
    expected.
    """
    validate(config)
    if which not in ("h", "c", "w"):
        raise ConfigError(f"unknown current selector {which!r}")
    lo, hi = bracket
    if not 0 < lo < hi < math.inf:
        raise ConfigError("bracket must satisfy 0 < lo < hi < inf")
    f_lo, f_hi = (getattr(_checked(report), f"j_{which}")
                  for report in _reports_at(stack_points([config]),
                                            (lo, hi)))
    return _zero_in_bracket(
        lambda t_w: getattr(currents_at(config, t_w), f"j_{which}"),
        which, lo, f_lo, hi, f_hi, rel_tol)


def _zero_in_bracket(current, which: str, lo: float, f_lo: float, hi: float,
                     f_hi: float, rel_tol: float) -> float:
    """Zero of ``current`` over [lo, hi], given its values at both ends.

    Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4): inverse quadratic interpolation or a secant
    step, and a bisection step whenever these would not shrink the bracket
    fast enough. It stops once the bracket [b, c] around the sign change is
    no longer than rel_tol * max(b, c) / 2, or 4 ulp if that is more, and
    returns its end b with the smaller |current|.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise BracketError(f"no working point in bracket: J_{which} does not "
                           f"change sign over [{lo}, {hi}]")
    # b is the latest estimate and a the one before; the sign change lies
    # between b and c; step and prev are the last two steps
    a, f_a, b, f_b = lo, f_lo, hi, f_hi
    c, f_c = a, f_a
    step = prev = b - a
    while True:
        if abs(f_c) < abs(f_b):
            a, f_a, b, f_b, c, f_c = b, f_b, c, f_c, b, f_b
        top = max(b, c)
        tol = max(0.25 * rel_tol * top, 2.0 * math.ulp(top))
        m = 0.5 * (c - b)
        if abs(m) <= tol or f_b == 0.0:
            return b
        if abs(prev) >= tol and abs(f_a) > abs(f_b):
            s = f_b / f_a
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation through a, b, c
                q, r = f_a / f_c, f_b / f_c
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            # accept a step that stays well inside the bracket and is less
            # than half the step before last; otherwise bisect
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(prev * q)):
                prev, step = step, p / q
            else:
                prev = step = m
        else:
            prev = step = m
        a, f_a = b, f_b
        b += step if abs(step) > tol else math.copysign(tol, m)
        f_b = current(b)
        if math.copysign(1.0, f_b) == math.copysign(1.0, f_c):
            c, f_c = a, f_a
            step = prev = b - a


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


def measure_temperature(config: DeviceConfig, tw_max_factor: float = 1e3,
                        rel_tol: float = 1e-10) -> ThermometerReading:
    """Simulated thermometer protocol for the uncoupled device.

    The control temperature climbs the ladder T_w = T_h * 1.1^k, up to
    tw_max_factor * T_h, until the conductor current J_h changes sign; its
    zero on that last rung is then found by Brent's method, as in
    find_current_zero. The config's cold-bath temperature plays the hidden
    sample temperature; the reading must reproduce it.
    """
    validate(config)
    if config.system.g != 0.0:
        raise ConfigError("the thermometer protocol requires g=0")
    t_h = config.temperature("h")
    xi = config.system.omega_b / config.system.omega_a
    lo, f_lo, hi, f_hi = _ladder_bracket(config, tw_max_factor * t_h)
    tw_star = _zero_in_bracket(lambda t_w: currents_at(config, t_w).j_h,
                               "h", lo, f_lo, hi, f_hi, rel_tol)
    tc_estimate = tc_from_tw(tw_star, t_h, xi)
    return ThermometerReading(
        tw_star=tw_star,
        tc_estimate=tc_estimate,
        sensitivity=sensitivity(tc_estimate, t_h, xi),
        in_range=tc_estimate > xi * t_h,
    )


def _ladder_bracket(config: DeviceConfig,
                    t_w_max: float) -> tuple[float, float, float, float]:
    """(lo, J_h(lo), hi, J_h(hi)) of the first rung (lo, hi = 1.1 lo) of
    the thermometer ladder over which J_h changes sign, or which starts at
    J_h = 0.

    The rungs T_h, T_h * 1.1, ... up to t_w_max are solved _LADDER_CHUNK
    per engine call and walked in order, so the walk is that of one solve
    per rung: a rung's failure raises only once the walk reaches it.
    """
    rungs = [config.temperature("h")]
    while (rung := rungs[-1] * 1.1) <= t_w_max and math.isfinite(rung):
        rungs.append(rung)
    row = stack_points([config])
    lo = f_lo = None
    for start in range(0, len(rungs), _LADDER_CHUNK):
        chunk = rungs[start:start + _LADDER_CHUNK]
        for hi, report in zip(chunk, _reports_at(row, chunk)):
            f_hi = _checked(report).j_h
            if lo is not None and (f_lo == 0.0 or math.copysign(1.0, f_hi)
                                   != math.copysign(1.0, f_lo)):
                return lo, f_lo, hi, f_hi
            lo, f_lo = hi, f_hi
    raise MeasurementRangeError(
        "sample below measurable range: J_h kept its sign up to "
        f"Tw = {t_w_max:g}")


def amplification_factor(config: DeviceConfig, t_w: float,
                         step: float = FD_STEP) -> float:
    """|dJ_c / dJ_w| with respect to the control temperature.

    Central finite differences with step h = step * max(1, T_w) on both
    currents; the ratio of the increments is the amplification factor.
    """
    h = step * max(1.0, t_w)
    return _response_ratio(currents_at(config, t_w + h),
                           currents_at(config, t_w - h))


def _response_ratio(upper: CurrentReport, lower: CurrentReport) -> float:
    d_jc = upper.j_c - lower.j_c
    d_jw = upper.j_w - lower.j_w
    scale = current_scale(upper.j_h, upper.j_c, upper.j_w)
    if abs(d_jw) < 1e-12 * scale:
        raise AmplifierUndefinedError("amplifier factor undefined here: "
                                      "work current does not respond to Tw")
    return abs(d_jc / d_jw)


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


def classify_function(report: CurrentReport) -> str:
    scale = current_scale(report.j_h, report.j_c, report.j_w)
    if abs(report.j_c) < VALVE_TOLERANCE * scale:
        return "valve"
    return "refrigerator" if report.j_c > 0 else "heater"


def phase_map(config: DeviceConfig, tw_values, g_values,
              fd_step: float = FD_STEP) -> list[PhasePoint]:
    """Evaluate currents, amplification and classification over a (T_w, g) grid.

    Points are emitted in row-major (T_w outer, g inner) order; per-point
    failures are recorded on the point instead of aborting the map. Each
    T_w row is one current_reports call: every g at T_w and T_w +- h.
    """
    validate(config)
    g_values = [float(g) for g in g_values]
    row = stack_points(config.with_coupling(g) for g in g_values)
    points = []
    for t_w in tw_values:
        t_w = float(t_w)
        h = fd_step * max(1.0, t_w)
        # a point fails with the first failure of its own report and then
        # of amplification_factor's two, as the single-point calls meet them
        stages = _row_reports(config, row, (t_w, t_w + h, t_w - h))
        for g, (report, upper, lower) in zip(g_values, zip(*stages)):
            failure = next((r for r in (report, upper, lower)
                            if isinstance(r, Exception)), None)
            if failure is not None:
                points.append(PhasePoint(
                    t_w=t_w, g=g, report=None, alpha_j=None,
                    function_class="error", amplifier_class="error",
                    error=str(failure)))
                continue
            try:
                alpha = _response_ratio(upper, lower)
                amp_class = "amplifier" if alpha > 1.0 else "contraction"
            except AmplifierUndefinedError:
                alpha, amp_class = None, "undefined"
            points.append(PhasePoint(
                t_w=t_w, g=g, report=report, alpha_j=alpha,
                function_class=classify_function(report),
                amplifier_class=amp_class))
    return points


def _row_reports(config: DeviceConfig, row: np.ndarray,
                 temperatures) -> list[list]:
    """current_reports of the stacked points ``row`` with T_w set to each
    temperature in turn, in one call; a temperature the model rejects
    fails every point with the model's error."""
    checks = []
    for t_w in temperatures:
        try:
            config.with_bath_temperature("w", t_w)
            checks.append(None)
        except ConfigError as exc:
            checks.append(exc)
    valid = [t_w for t_w, check in zip(temperatures, checks) if check is None]
    reports = iter(_reports_at(row, valid))
    return [[next(reports) for _ in row] if check is None
            else [check] * len(row) for check in checks]


def phase_map_csv(points: list[PhasePoint], stream=None) -> str:
    """Serialize a phase map; one row per grid point, deterministic order."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(CurrentReport.CSV_COLUMNS)
                    + ["alpha_j", "function_class", "amplifier_class", "error"])
    for p in points:
        if p.report is None:
            row = [f"{p.t_w:.17g}", f"{p.g:.17g}"] + [""] * 9
        else:
            row = p.report.csv_row(p.t_w, p.g)
        alpha = "" if p.alpha_j is None else f"{p.alpha_j:.17g}"
        writer.writerow(row + [alpha, p.function_class, p.amplifier_class,
                               p.error])
    text = buffer.getvalue()
    if stream is not None:
        stream.write(text)
    return text
