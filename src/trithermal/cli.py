"""Command-line front end: JSON config in, CSV out.

Subcommands map one-to-one onto the analysis/solver operations: sweep,
valve, refrigerator, amplifier, thermometer, dynamics, phase-map. Every
command prints a one-line summary to stderr and writes RFC-4180 CSV (all
numerics with 17 significant digits) to --out, defaulting to stdout.

Exit codes: 0 success, 1 usage or config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import stat
import sys

import numpy as np

from .model import BARE, EIGEN, BathSpec, ConfigError, DensityMatrix, DeviceConfig, SystemParams, point_column, stack_points
from .generator import build_full_secular, build_partial_secular
from .solver import SteadyStateError, StepSizeError, default_timestep, evolve, trajectory_csv
from .observables import CurrentReport, UndefinedObservableError, csv_fields, current_table
from .analysis import (
    AmplifierUndefinedError,
    BracketError,
    MeasurementRangeError,
    SweepGrid,
    amplification_factor,
    currents_at,
    find_current_zero,
    measure_temperature,
    phase_map,
    phase_map_csv,
    _current_zero,
)

_NUMERICAL_ERRORS = (SteadyStateError, StepSizeError, BracketError,
                     MeasurementRangeError, AmplifierUndefinedError,
                     UndefinedObservableError)


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


def _grid_points(config: DeviceConfig, grids: list[SweepGrid]) -> np.ndarray:
    """Stacked points of the (possibly nested) grid, outer grid first."""
    points = stack_points([config])
    for grid in grids:
        points = grid.expand(config, points)
    return points


def _sweep_csv(coordinates, values, errors) -> tuple[str, int]:
    """CSV of (T_w, g) coordinates and their report values (rows of a
    CurrentTable) or failures."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(CurrentReport.CSV_COLUMNS) + ["status"])
    failures = 0
    for (t_w, g), row, error in zip(coordinates, values, errors):
        if error is None:
            buffer.write(csv_fields(t_w, g, row) + ",ok\n")
        else:
            failures += 1
            writer.writerow([f"{t_w:.17g}", f"{g:.17g}"] + [""] * 9
                            + [str(error)])
    return buffer.getvalue(), failures


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
    coordinates = zip(point_column(points, "temperature_w").tolist(),
                      point_column(points, "g").tolist())
    table = current_table(points)
    text, failures = _sweep_csv(coordinates, table.values.tolist(),
                                table.errors)
    _emit(text, args.out)
    _summary(f"sweep: {len(points)} point(s), {failures} failure(s)")
    return 2 if failures else 0


def cmd_valve(args) -> int:
    config = load_config(args.config)
    bracket = parse_bracket(args.bracket)
    t_w, report = _current_zero(config, args.which, bracket)
    text, _ = _sweep_csv([(t_w, config.system.g)], [report.values()], [None])
    _emit(text, args.out)
    _summary(f"valve: J_{args.which} = 0 at Tw = {t_w:.12g}")
    return 0


def cmd_refrigerator(args) -> int:
    config = load_config(args.config)
    bracket = parse_bracket(args.bracket)
    onset = find_current_zero(config, "c", bracket)
    # COP at the onset is a 0/0 limit; probe just inside the cooling window
    probe = onset * (1.0 + 1e-6)
    report = currents_at(config, probe)
    text, _ = _sweep_csv([(probe, config.system.g)], [report.values()],
                         [None])
    _emit(text, args.out)
    cop = "undefined" if report.cop is None else f"{report.cop:.12g}"
    _summary(f"refrigerator: cooling window opens at Tw = {onset:.12g}, "
             f"COP -> {cop} (Carnot bound {report.carnot_cop:.12g})")
    return 0


def cmd_amplifier(args) -> int:
    config = load_config(args.config)
    alpha = amplification_factor(config, args.tw, args.step)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["Tw", "g", "alpha_j", "fd_step"])
    writer.writerow([f"{args.tw:.17g}", f"{config.system.g:.17g}",
                     f"{alpha:.17g}", f"{args.step:.17g}"])
    _emit(buffer.getvalue(), args.out)
    kind = "amplifier" if alpha > 1.0 else "contraction"
    _summary(f"amplifier: alpha_J = {alpha:.12g} at Tw = {args.tw:g} ({kind})")
    return 0


def cmd_thermometer(args) -> int:
    config = load_config(args.config)
    reading = measure_temperature(config)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["tw_star", "tc_estimate", "sensitivity", "in_range"])
    writer.writerow([f"{reading.tw_star:.17g}", f"{reading.tc_estimate:.17g}",
                     f"{reading.sensitivity:.17g}",
                     str(reading.in_range).lower()])
    _emit(buffer.getvalue(), args.out)
    _summary(f"thermometer: Tw* = {reading.tw_star:.12g}, "
             f"Tc = {reading.tc_estimate:.12g}")
    return 0


def cmd_dynamics(args) -> int:
    config = load_config(args.config)
    for flag, value in (("--t-final", args.t_final), ("--dt", args.dt)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite")
    # checked before evolve does: the default stride divides by dt
    if args.dt is not None and not args.dt > 0:
        raise ConfigError("dt must be positive")
    if config.system.g == 0.0 and args.secular == "full":
        generator = build_full_secular(config)
    else:
        generator = build_partial_secular(config)
    basis = BARE if generator.basis == BARE else EIGEN
    rho0 = DensityMatrix.pure(args.initial, basis)
    dt = args.dt if args.dt is not None else default_timestep(generator)
    stride = args.stride
    if stride is None:
        stride = max(1, int(args.t_final / dt / 1000))
    trajectory = evolve(generator, rho0, args.t_final, dt=dt,
                        sample_stride=stride)
    _emit(trajectory_csv(trajectory), args.out)
    worst = trajectory.min_eigenvalues().min()
    _summary(f"dynamics: {len(trajectory.states)} samples to t = "
             f"{args.t_final:g}, min eigenvalue {worst:.3e}")
    return 0


def cmd_phase_map(args) -> int:
    config = load_config(args.config)
    parsed = [parse_grid(g) for g in args.grid or []]
    by_var = {g.variable: g for g in parsed}
    if set(by_var) != {"Tw", "g"} or len(parsed) != 2:
        raise _UsageError("phase-map needs exactly --grid Tw=... and --grid g=...")
    points = phase_map(config, by_var["Tw"].values(), by_var["g"].values())
    _emit(phase_map_csv(points), args.out)
    failures = sum(1 for p in points if p.function_class == "error")
    _summary(f"phase-map: {len(points)} point(s), {failures} failure(s)")
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
    common.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: grids are evaluated in "
                             "stacked blocks on one thread")
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
    p.add_argument("--step", type=float, default=1e-5,
                   help="accepted and ignored: alpha_J is the exact "
                        "derivative; echoed in the fd_step column")
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
    p.add_argument("--secular", choices=("partial", "full"), default="partial")
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("phase-map", parents=[common],
                       help="function and amplifier classes over (Tw, g)")
    p.add_argument("--grid", action="append", metavar="VAR=START:STOP:N",
                   required=True)
    p.add_argument("--step", type=float, default=1e-5,
                   help="accepted and ignored: alpha_J is the exact "
                        "derivative")
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
