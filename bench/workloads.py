"""Seeded inputs and output checks of the three benchmark workloads.

Devices are drawn in the paper's operating range, where every command has an
answer: omega_a = 1, omega_b in OMEGA_B, T_h = 1 and omega_b * T_h < T_c <
T_h. Each check turns one output item (a CSV row of a grid, or one
operating-point answer) into a pair of errors as multiples of the acceptance
bound of tests/test_acceptance.py, or None where the program reported a
failure. The first error is taken at the item's own scale and decides
whether it fails; the second at the scale of its request (the largest
current of the grid) and decides whether it is grossly wrong.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from trithermal.analysis import equilibrium_tw
from trithermal.model import BathSpec, DeviceConfig, SystemParams
from trithermal.observables import current_scale, uncoupled_currents
from trithermal.solver import analytic_diagonal_steady_state

OMEGA_B = (0.5, 0.9)
#: T_c = omega_b + u * (1 - omega_b); u keeps equilibrium_tw = T_c / u <= 20,
#: inside the thermometer's 1000 * T_h search range
TC_FRACTION = (0.05, 0.95)
GAMMA = (0.004, 0.016)
CUTOFF = (20.0, 100.0)
#: coupling of the valve and refrigerator devices that are not at g = 0
OPERATING_G = (0.0, 0.05)

FIRST_LAW = 1e-12  # criterion 7: |Jh + Jc + Jw| over the current scale
ENTROPY = 1e-12    # criterion 7: sum J_mu / T_mu, absolute
ORACLE = 1e-10     # criterion 8: g = 0 against the closed form
ROOT = 1e-6        # criteria 4 and 5: roots and readings, relative

#: an item this many times beyond its bound at the scale of its request is
#: wrong, not merely imprecise; near equilibrium a row's own currents tend
#: to 0, so its own-scale error grows without bound however good the solve
GROSS = 1e3

#: CSV coordinate of the refrigerator row: the onset times 1 + 1e-6
REFRIGERATOR_PROBE = 1.0 + 1e-6


class MalformedOutput(ValueError):
    """An output file does not have the rows or columns its request implies."""


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the check of the CSV it writes."""

    argv: list[str]
    items: int
    out: Path
    check: Callable[[Path, int], list]  # (out path, exit code) -> errors


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable  # (rng, index, config path, out path) -> Request
    pool: int       # distinct timed requests, sent in turn
    counted: int    # leading requests whose calls a traced run counts
    tail_percentile: float  # leaves >= 10 baseline samples beyond it


def draw_device(rng: np.random.Generator, g: float = 0.0) -> DeviceConfig:
    """Device in the operating range; commands set T_w themselves."""
    omega_b = float(rng.uniform(*OMEGA_B))
    t_c = omega_b + float(rng.uniform(*TC_FRACTION)) * (1.0 - omega_b)
    return DeviceConfig(
        system=SystemParams(1.0, omega_b, g),
        baths=tuple(BathSpec(label, t, float(rng.uniform(*GAMMA)),
                             float(rng.uniform(*CUTOFF)))
                    for label, t in (("h", 1.0), ("c", t_c), ("w", 1.0))))


def write_config(config: DeviceConfig, path: Path) -> None:
    system = config.system
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"system": {"omega_a": system.omega_a,
                              "omega_b": system.omega_b, "g": system.g},
                   "baths": [{"label": b.label, "temperature": b.temperature,
                              "gamma": b.gamma, "cutoff": b.cutoff}
                             for b in config.baths]}, handle)


def _read_csv(path: Path, rows: int, columns: int) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        table = list(csv.reader(handle))[1:]
    if len(table) != rows or any(len(row) != columns for row in table):
        raise MalformedOutput(f"{path.name}: expected {rows} row(s) of "
                              f"{columns} column(s)")
    return table


def _current_errors(row: list[str], config: DeviceConfig, t_w: float,
                    g: float) -> tuple[float, float, float, float, float]:
    """Current scale, first-law gap and entropy rate of a CurrentReport row,
    and at g = 0 the gaps of its currents and coherence to the closed-form
    steady state (0 elsewhere)."""
    j_h, j_c, j_w, coherence, entropy = (float(row[i]) for i in (2, 3, 4, 7, 10))
    if not all(map(math.isfinite, (j_h, j_c, j_w, coherence, entropy))):
        return (1.0, math.inf, math.inf, math.inf, math.inf)
    gap = 0.0
    if g == 0.0:
        local = config.with_bath_temperature("w", t_w)
        oracle = uncoupled_currents(local, analytic_diagonal_steady_state(local))
        gap = max(abs(j_h - oracle.j_h), abs(j_c - oracle.j_c),
                  abs(j_w - oracle.j_w))
    else:
        coherence = 0.0
    return (current_scale(j_h, j_c, j_w), abs(j_h + j_c + j_w), entropy, gap,
            coherence)


def _current_ratio(errors: tuple[float, float, float, float, float],
                   scale: float) -> float:
    """Criteria 7 and 8 with the relative bounds taken at ``scale``."""
    _, first_law, entropy, gap, coherence = errors
    return max(first_law / (FIRST_LAW * scale), entropy / ENTROPY,
               gap / (ORACLE * scale), coherence / ORACLE)


def _check_grid(path: Path, code: int, config: DeviceConfig,
                coords: list[tuple[float, float]], columns: int,
                failed: Callable[[list[str]], bool]) -> list:
    if code not in (0, 2):
        return [None] * len(coords)
    errors = []
    for (t_w, g), row in zip(coords, _read_csv(path, len(coords), columns)):
        if (float(row[0]), float(row[1])) != (t_w, g):
            raise MalformedOutput(f"row at ({row[0]}, {row[1]}), "
                                  f"expected ({t_w!r}, {g!r})")
        errors.append(None if failed(row)
                      else _current_errors(row, config, t_w, g))
    if code == 2 and None not in errors:
        raise MalformedOutput("exit code 2 without a failure row")
    grid_scale = max((e[0] for e in errors if e is not None),
                     default=0.0)
    return [None if e is None else
            (_current_ratio(e, e[0]), _current_ratio(e, grid_scale))
            for e in errors]


def sweep_request(rng: np.random.Generator, index: int, config_path: Path,
                  out: Path) -> Request:
    """25 x 40 nested grid, g outer from 0, T_w inner."""
    config = draw_device(rng)
    g_max = float(rng.uniform(0.05, 0.2))
    tw_lo = float(rng.uniform(0.5, 1.0))
    tw_hi = tw_lo + float(rng.uniform(3.0, 7.0))
    write_config(config, config_path)
    argv = ["sweep", "--config", str(config_path),
            "--grid", f"g=0:{g_max!r}:25", "--grid", f"Tw={tw_lo!r}:{tw_hi!r}:40",
            "--out", str(out)]

    def check(path: Path, code: int) -> list:
        # built per check so that the pool holds no per-point data
        coords = [(float(t_w), float(g)) for g in np.linspace(0.0, g_max, 25)
                  for t_w in np.linspace(tw_lo, tw_hi, 40)]
        return _check_grid(path, code, config, coords, 12,
                           lambda row: row[11] != "ok")
    return Request(argv, 25 * 40, out, check)


def phase_map_request(rng: np.random.Generator, index: int, config_path: Path,
                      out: Path) -> Request:
    """21 x 21 (T_w, g) phase map, T_w outer, g inner from 0."""
    config = draw_device(rng)
    g_max = float(rng.uniform(0.05, 0.2))
    tw_lo = float(rng.uniform(1.0, 2.0))
    tw_hi = tw_lo + float(rng.uniform(3.0, 6.0))
    write_config(config, config_path)
    argv = ["phase-map", "--config", str(config_path),
            "--grid", f"Tw={tw_lo!r}:{tw_hi!r}:21", "--grid", f"g=0:{g_max!r}:21",
            "--out", str(out)]

    def check(path: Path, code: int) -> list:
        coords = [(float(t_w), float(g)) for t_w in np.linspace(tw_lo, tw_hi, 21)
                  for g in np.linspace(0.0, g_max, 21)]
        return _check_grid(path, code, config, coords, 15,
                           lambda row: row[12] == "error")
    return Request(argv, 21 * 21, out, check)


def _root_ratio(root: float, bracket: tuple[float, float], g: float,
                expected: float) -> tuple[float, float]:
    if not bracket[0] <= root <= bracket[1]:
        return (math.inf, math.inf)
    ratio = abs(root - expected) / (ROOT * expected) if g == 0.0 else 0.0
    return (ratio, ratio)


def operating_point_request(rng: np.random.Generator, index: int,
                            config_path: Path, out: Path) -> Request:
    """One valve (J_c or J_h), refrigerator or thermometer request.

    Commands take turns, and every fourth round has g = 0, so that the mix
    of commands, whose costs differ, is the same for every seed.
    """
    command = ("valve-c", "valve-h", "refrigerator", "thermometer")[index % 4]
    g = 0.0
    if command != "thermometer" and index // 4 % 4 != 0:
        g = float(rng.uniform(*OPERATING_G))
    config = draw_device(rng, g)
    write_config(config, config_path)
    t_c = config.temperature("c")
    expected = equilibrium_tw(1.0, config.system.omega_b, 1.0, t_c)
    bracket = (0.5 * expected, 3.0 * expected)
    common = ["--config", str(config_path), "--out", str(out)]

    if command == "thermometer":
        def check(path: Path, code: int) -> list:
            if code != 0:
                return [None]
            tw_star, tc_estimate, _, in_range = _read_csv(path, 1, 4)[0]
            if in_range != "true":
                return [(math.inf, math.inf)]
            ratio = max(abs(float(tc_estimate) - t_c) / (ROOT * t_c),
                        abs(float(tw_star) - expected) / (ROOT * expected))
            return [(ratio, ratio)]
        return Request(["thermometer"] + common, 1, out, check)

    # the refrigerator row sits just inside the cooling window, not at the root
    probe = REFRIGERATOR_PROBE if command == "refrigerator" else 1.0
    argv = ([command] if command == "refrigerator"
            else ["valve", "--which", command[-1]])
    argv += ["--bracket", f"{bracket[0]!r}:{bracket[1]!r}"] + common

    def check(path: Path, code: int) -> list:
        if code != 0:
            return [None]
        row = _read_csv(path, 1, 12)[0]
        return [_root_ratio(float(row[0]) / probe, bracket, g, expected)]
    return Request(argv, 1, out, check)


WORKLOADS = {w.name: w for w in (
    Workload("sweep", sweep_request, pool=64, counted=2, tail_percentile=80.0),
    Workload("phase_map", phase_map_request, pool=64, counted=2,
             tail_percentile=80.0),
    Workload("operating_points", operating_point_request, pool=512,
             counted=32, tail_percentile=99.0),
)}


def make_requests(workload: Workload, seed: int,
                  directory: Path) -> list[Request]:
    """A warm-up request followed by the workload's pool, all from one seed.

    Every request writes its CSV to the same file, so disk use stays flat.
    """
    rng = np.random.default_rng(seed)
    out = directory / "out.csv"
    return [workload.make(rng, i, directory / f"device-{i:04d}.json", out)
            for i in range(workload.pool + 1)]
