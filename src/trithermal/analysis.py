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
    if isinstance(report, Exception):
        raise report
    return report


def find_current_zero(config: DeviceConfig, which: str,
                      bracket: tuple[float, float],
                      rel_tol: float = 1e-10) -> float:
    """Bisect the selected steady-state current to zero in T_w.

    The full steady state is re-solved at every evaluation. Only a single
    sign change is assumed; callers narrow the bracket if several roots are
    expected.
    """
    validate(config)
    if which not in ("h", "c", "w"):
        raise ConfigError(f"unknown current selector {which!r}")
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ConfigError("bracket must satisfy 0 < lo < hi")

    def current(t_w: float) -> float:
        return getattr(currents_at(config, t_w), f"j_{which}")

    f_lo = current(lo)
    f_hi = current(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise BracketError(f"no working point in bracket: J_{which} does not "
                           f"change sign over [{lo}, {hi}]")
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        f_mid = current(mid)
        if f_mid == 0.0:
            return mid
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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

    Starting from T_w = T_h, the control temperature is raised by factors of
    1.1 until the conductor current J_h changes sign, then bisected to its
    zero. The config's cold-bath temperature plays the hidden sample
    temperature; the reading must reproduce it.
    """
    validate(config)
    if config.system.g != 0.0:
        raise ConfigError("the thermometer protocol requires g=0")
    t_h = config.temperature("h")
    xi = config.system.omega_b / config.system.omega_a

    def j_h(t_w: float) -> float:
        return currents_at(config, t_w).j_h

    lo = t_h
    f_lo = j_h(lo)
    hi = lo
    t_w_max = tw_max_factor * t_h
    while True:
        hi = hi * 1.1
        if hi > t_w_max:
            raise MeasurementRangeError(
                "sample below measurable range: J_h kept its sign up to "
                f"Tw = {t_w_max:g}")
        f_hi = j_h(hi)
        if f_lo == 0.0 or math.copysign(1.0, f_hi) != math.copysign(1.0, f_lo):
            break
        lo, f_lo = hi, f_hi

    tw_star = find_current_zero(config, "h", (lo, hi), rel_tol=rel_tol)
    tc_estimate = tc_from_tw(tw_star, t_h, xi)
    return ThermometerReading(
        tw_star=tw_star,
        tc_estimate=tc_estimate,
        sensitivity=sensitivity(tc_estimate, t_h, xi),
        in_range=tc_estimate > xi * t_h,
    )


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
    stacked = np.repeat(row[None], len(valid), axis=0)
    stacked[:, :, POINT_COLUMNS.index("temperature_w")] = np.array(valid)[:, None]
    reports = iter(current_reports(stacked.reshape(-1, len(POINT_COLUMNS))))
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
