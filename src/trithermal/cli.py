"""Command-line front end: JSON config in, CSV out.

Subcommands map one-to-one onto the analysis/solver operations: sweep,
valve, refrigerator, amplifier, thermometer, dynamics, phase-map. Every
command prints a one-line summary to stderr and writes RFC-4180 CSV (all
numerics with 17 significant digits) to --out, defaulting to stdout.

Exit codes: 0 success, 1 usage or config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from .model import BathSpec, ConfigError, DeviceConfig, SystemParams, point_column, stack_points
from .generator import reduced_partial_secular
from .rates import FrequencyDomainError
from .solver import SteadyStateError, StepSizeError, evolve, trajectory_csv
from .observables import CurrentTable, UndefinedObservableError, current_table, write_grid_csv
from .analysis import (
    AmplifierUndefinedError,
    BracketError,
    MeasurementRangeError,
    SweepGrid,
    amplification_factor,
    measure_temperature,
    phase_map,
    phase_map_csv,
    _current_zero,
)

_NUMERICAL_ERRORS = (SteadyStateError, StepSizeError, BracketError,
                     MeasurementRangeError, AmplifierUndefinedError,
                     UndefinedObservableError, FrequencyDomainError)


#: the refrigerator's CSV row sits at the cooling-window onset times this
_REFRIGERATOR_PROBE = 1.0 + 1e-6

#: most points a sweep or phase map evaluates; a sweep holds ~0.75 kB of
#: memory per point, a phase map ~1.0 kB
MAX_GRID_POINTS = 10 ** 6


class _UsageError(Exception):
    """Bad flags or malformed config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _require_keys(mapping: dict, allowed: set[str], required: set[str],
                  where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(mapping)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")


def _number(mapping: dict, key: str, default: float | None = None) -> float:
    """mapping[key] (or the default when absent) as a float; a JSON number
    is required, and a bool, string, null, list or object is rejected."""
    value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"{key} must be finite") from exc


def load_config(path: str) -> DeviceConfig:
    """Parse and schema-check the JSON device description."""
    with open(path, encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"config is not valid UTF-8 JSON: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError("config is nested too deeply") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(raw, {"system", "baths"}, {"system", "baths"}, "config")
    system_raw = raw["system"]
    if not isinstance(system_raw, dict):
        raise ConfigError("'system' must be an object")
    _require_keys(system_raw, {"omega_a", "omega_b", "g"},
                  {"omega_a", "omega_b"}, "system")
    system = SystemParams(omega_a=_number(system_raw, "omega_a"),
                          omega_b=_number(system_raw, "omega_b"),
                          g=_number(system_raw, "g", 0.0))
    baths_raw = raw["baths"]
    if not isinstance(baths_raw, list) or len(baths_raw) != 3:
        raise ConfigError("'baths' must be a list of exactly three records")
    baths = []
    for record in baths_raw:
        if not isinstance(record, dict):
            raise ConfigError("each bath must be an object")
        _require_keys(record, {"label", "temperature", "gamma", "cutoff"},
                      {"label", "temperature", "gamma", "cutoff"}, "bath")
        baths.append(BathSpec(label=str(record["label"]),
                              temperature=_number(record, "temperature"),
                              gamma=_number(record, "gamma"),
                              cutoff=_number(record, "cutoff")))
    return DeviceConfig(system=system, baths=tuple(baths))


def parse_grid(text: str) -> SweepGrid:
    """Parse VAR=START:STOP:N into a sweep grid."""
    try:
        variable, span = text.split("=", 1)
        start, stop, points = span.split(":")
        return SweepGrid(variable=variable, start=float(start),
                         stop=float(stop), points=int(points))
    except (ValueError, ConfigError) as exc:
        raise _UsageError(f"bad --grid {text!r}: {exc}") from exc


def parse_bracket(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise _UsageError(f"bad --bracket {text!r}: expected LO:HI") from exc
    return lo, hi


def _check_grid_size(grids: list[SweepGrid]) -> None:
    """Refuse grids of more than MAX_GRID_POINTS points in all, before
    anything is allocated."""
    size = math.prod(grid.points for grid in grids)
    if size > MAX_GRID_POINTS:
        raise ConfigError(f"{size} grid points exceed the limit of "
                          f"{MAX_GRID_POINTS}")


def _grid_points(config: DeviceConfig, grids: list[SweepGrid]) -> np.ndarray:
    """Stacked points of the (possibly nested) grid, outer grid first; each
    grid must scan its own variable."""
    variables = [grid.variable for grid in grids]
    if len(set(variables)) < len(variables):
        raise _UsageError("sweep needs a different variable in each --grid")
    _check_grid_size(grids)
    points = stack_points([config])
    for grid in grids:
        points = grid.expand(config, points)
    return points


def _sweep_csv(t_w, g, table: CurrentTable) -> tuple[str, int]:
    """CSV of points at coordinates (t_w, g) with their CurrentTable, and
    the number of failed points."""
    status = ["ok" if error is None else str(error) for error in table.errors]
    return (write_grid_csv(t_w, g, table, ["status"], [status]),
            len(table.errors) - table.errors.count(None))


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    # Overwrite in place, then cut a regular file to length. Truncating to
    # zero first (mode "w") makes ext4 flush the new data on close, and the
    # truncate waits on the disk while the previous write is still being
    # flushed: a request that rewrites its --out file pays the disk's
    # latency, which varies from one moment to the next.
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as handle:
        handle.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fd).st_mode):
            handle.truncate()


def _summary(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    grids = [parse_grid(g) for g in args.grid or []]
    points = _grid_points(config, grids)
    text, failures = _sweep_csv(point_column(points, "temperature_w"),
                                point_column(points, "g"),
                                current_table(points))
    _emit(text, args.out)
    _summary(f"sweep: {len(points)} point(s), {failures} failure(s)")
    return 2 if failures else 0


def cmd_valve(args) -> int:
    config = load_config(args.config)
    bracket = parse_bracket(args.bracket)
    t_w, row = _current_zero(config, args.which, bracket)
    _emit(_sweep_csv(np.array([t_w]), np.array([config.system.g]), row)[0],
          args.out)
    _summary(f"valve: J_{args.which} = 0 at Tw = {t_w:.12g}")
    return 0


def cmd_refrigerator(args) -> int:
    config = load_config(args.config)
    bracket = parse_bracket(args.bracket)
    # COP at the onset is a 0/0 limit; probe just inside the cooling
    # window, at a point the search solves with its last step
    onset, row = _current_zero(config, "c", bracket,
                               probe=_REFRIGERATOR_PROBE)
    probe = onset * _REFRIGERATOR_PROBE
    _emit(_sweep_csv(np.array([probe]), np.array([config.system.g]), row)[0],
          args.out)
    report, = row.reports()
    cop = "undefined" if report.cop is None else f"{report.cop:.12g}"
    _summary(f"refrigerator: cooling window opens at Tw = {onset:.12g}, "
             f"COP -> {cop} (Carnot bound {report.carnot_cop:.12g})")
    return 0


def cmd_amplifier(args) -> int:
    config = load_config(args.config)
    alpha = amplification_factor(config, args.tw)
    _emit("Tw,g,alpha_j\n%.17g,%.17g,%.17g\n"
          % (args.tw, config.system.g, alpha), args.out)
    kind = "amplifier" if alpha > 1.0 else "contraction"
    _summary(f"amplifier: alpha_J = {alpha:.12g} at Tw = {args.tw:g} ({kind})")
    return 0


def cmd_thermometer(args) -> int:
    config = load_config(args.config)
    reading = measure_temperature(config)
    # a reading outside the range raises MeasurementRangeError, so every
    # written one is in range
    _emit("tw_star,tc_estimate,sensitivity,in_range\n"
          "%.17g,%.17g,%.17g,true\n"
          % (reading.tw_star, reading.tc_estimate, reading.sensitivity),
          args.out)
    _summary(f"thermometer: Tw* = {reading.tw_star:.12g}, "
             f"Tc = {reading.tc_estimate:.12g}")
    return 0


def cmd_dynamics(args) -> int:
    config = load_config(args.config)
    for flag, value in (("--t-final", args.t_final), ("--dt", args.dt)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite")
    if not args.t_final > 0:
        raise ConfigError("--t-final must be positive")
    trajectory = evolve(reduced_partial_secular(stack_points([config])),
                        np.eye(5)[args.initial - 1], args.t_final,
                        dt=args.dt, sample_stride=args.stride)
    _emit(trajectory_csv(trajectory), args.out)
    _summary(f"dynamics: {len(trajectory.times)} samples to t = "
             f"{trajectory.times[-1]:g}, min eigenvalue "
             f"{trajectory.min_eigenvalues.min():.3e}")
    return 0


def cmd_phase_map(args) -> int:
    config = load_config(args.config)
    parsed = [parse_grid(g) for g in args.grid or []]
    by_var = {g.variable: g for g in parsed}
    if set(by_var) != {"Tw", "g"} or len(parsed) != 2:
        raise _UsageError("phase-map needs exactly --grid Tw=... and --grid g=...")
    _check_grid_size(parsed)
    result = phase_map(config, by_var["Tw"].values(), by_var["g"].values())
    _emit(phase_map_csv(result), args.out)
    errors = result.table.errors
    failures = len(errors) - errors.count(None)
    _summary(f"phase-map: {len(errors)} point(s), {failures} failure(s)")
    return 2 if failures else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="trithermal",
                     description="Three-terminal three-level thermal device: "
                                 "steady states, currents and regimes.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="JSON device description")
    common.add_argument("--out", default=None,
                        help="output CSV path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", parents=[common],
                       help="steady-state currents over a parameter grid")
    p.add_argument("--grid", action="append", metavar="VAR=START:STOP:N",
                   help="repeatable; later grids nest inside earlier ones")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("valve", parents=[common],
                       help="Tw at which one current vanishes")
    p.add_argument("--which", choices=("h", "c", "w"), default="c")
    p.add_argument("--bracket", default="1:10", metavar="LO:HI")
    p.set_defaults(func=cmd_valve)

    p = sub.add_parser("refrigerator", parents=[common],
                       help="cooling-window onset and COP against Carnot")
    p.add_argument("--bracket", default="1:10", metavar="LO:HI")
    p.set_defaults(func=cmd_refrigerator)

    p = sub.add_parser("amplifier", parents=[common],
                       help="current amplification factor |dJc/dJw|")
    p.add_argument("--tw", type=float, required=True)
    p.set_defaults(func=cmd_amplifier)

    p = sub.add_parser("thermometer", parents=[common],
                       help="infer the cold-bath temperature from Jh = 0")
    p.set_defaults(func=cmd_thermometer)

    p = sub.add_parser("dynamics", parents=[common],
                       help="time evolution from a pure initial state")
    p.add_argument("--initial", type=int, choices=(1, 2, 3), default=2)
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--stride", type=int, default=None,
                   help="steps between stored samples (default: ~1000 samples)")
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("phase-map", parents=[common],
                       help="function and amplifier classes over (Tw, g)")
    p.add_argument("--grid", action="append", metavar="VAR=START:STOP:N",
                   required=True)
    p.set_defaults(func=cmd_phase_map)
    return parser


@functools.cache
def _parser() -> _Parser:
    """build_parser(), built on first use rather than at import, and then
    reused: parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
