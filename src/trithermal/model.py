"""Parameter records and the eigenbasis decomposition of the three-level system.

Everything here is immutable and validated on construction, so records can be
shared freely. Stacked device points, one array row per config, feed the
vectorized steady-state engine. Frequencies and temperatures are expressed
in units of the upper bare level spacing (omega_a), with hbar = k_B = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

BATH_LABELS = ("h", "c", "w")

#: basis tags carried by density matrices and generators
EIGEN = "eigen"  # eigenbasis {|1>, |2>, |3>} of the coupled system
BARE = "bare"    # bare basis {|1>, |b>, |a>} used when g = 0


class ConfigError(ValueError):
    """A parameter record violates one of its invariants."""


@dataclass(frozen=True)
class SystemParams:
    """Bare level spacings and the coupling between the two excited levels."""

    omega_a: float
    omega_b: float
    g: float = 0.0

    def __post_init__(self):
        if not self.omega_a > 0:
            raise ConfigError("omega_a must be positive")
        if not self.omega_b > 0:
            raise ConfigError("omega_b must be positive")
        if self.omega_b > self.omega_a:
            raise ConfigError("level ordering violated: omega_b > omega_a")
        if not self.g >= 0:
            raise ConfigError("inner coupling g must be non-negative")
        _require_finite(self, ("omega_a", "omega_b", "g"), "")

    @property
    def delta(self) -> float:
        return self.omega_a - self.omega_b


@dataclass(frozen=True)
class EigenSystem:
    """Derived quantities of the diagonalized excited-state block.

    f2 and f3 are the squared overlaps of the excited eigenstates with the
    bare levels, f1 the interference weight; f2 + f3 = 1 and f1^2 = f2 * f3.
    The bare detuning delta is SystemParams.delta.
    """

    omega_2: float
    omega_3: float
    capital_omega: float
    phi: float
    f1: float
    f2: float
    f3: float


def diagonalize(system: SystemParams) -> EigenSystem:
    """Diagonalize the excited 2x2 block of the system Hamiltonian.

    The mixing angle uses a two-argument arctangent so the degenerate case
    delta = 0 lands on phi = pi/2 instead of dividing by zero.
    """
    return eigensystem(system.omega_a, system.omega_b, system.g)


def eigensystem(omega_a, omega_b, g) -> EigenSystem:
    """``diagonalize`` on raw parameters, floats or arrays over stacked points."""
    delta = omega_a - omega_b
    coupling = 2.0 * g
    splitting = np.hypot(coupling, delta)
    half_sum = 0.5 * (omega_a + omega_b)
    half_splitting = 0.5 * splitting
    phi = np.arctan2(coupling, delta)
    half_phi = 0.5 * phi
    c = np.cos(half_phi)
    s = np.sin(half_phi)
    return EigenSystem(
        omega_2=half_sum - half_splitting,
        omega_3=half_sum + half_splitting,
        capital_omega=splitting,
        phi=phi,
        f1=s * c,
        f2=c * c,
        f3=s * s,
    )


@dataclass(frozen=True)
class BathSpec:
    """One thermal terminal: Ohmic bath with exponential cutoff."""

    label: str
    temperature: float
    gamma: float
    cutoff: float

    def __post_init__(self):
        if self.label not in BATH_LABELS:
            raise ConfigError(f"unknown bath label {self.label!r}")
        if not self.temperature > 0:
            raise ConfigError(f"bath {self.label}: temperature must be positive")
        if not self.gamma >= 0:
            raise ConfigError(f"bath {self.label}: gamma must be non-negative")
        if not self.cutoff > 0:
            raise ConfigError(f"bath {self.label}: cutoff must be positive")
        _require_finite(self, ("temperature", "gamma", "cutoff"),
                        f"bath {self.label}: ")
        if math.isinf(1.0 / self.temperature):
            raise ConfigError(f"bath {self.label}: temperature too close to "
                              "0: its inverse overflows")


def _require_finite(record, fields: tuple[str, ...], where: str) -> None:
    """Reject an infinite field; the sign checks, run first, reject NaN."""
    for name in fields:
        if not math.isfinite(getattr(record, name)):
            raise ConfigError(f"{where}{name} must be finite")


@dataclass(frozen=True)
class DeviceConfig:
    """Three-level system plus its three thermal terminals."""

    system: SystemParams
    baths: tuple[BathSpec, BathSpec, BathSpec]

    def __post_init__(self):
        object.__setattr__(self, "baths", tuple(self.baths))
        labels = [b.label for b in self.baths]
        for label in labels:
            if labels.count(label) > 1:
                raise ConfigError(f"duplicate bath label {label!r}")
        if sorted(labels) != sorted(BATH_LABELS):
            missing = set(BATH_LABELS) - set(labels)
            raise ConfigError(f"missing bath label(s): {sorted(missing)}")

    def bath(self, label: str) -> BathSpec:
        for b in self.baths:
            if b.label == label:
                return b
        raise ConfigError(f"unknown bath label {label!r}")

    def temperature(self, label: str) -> float:
        return self.bath(label).temperature

    def with_bath_temperature(self, label: str, temperature: float) -> "DeviceConfig":
        # the constructors, as dataclasses.replace calls them, at a third
        # of its cost: a sweep or phase map moves T_w once per grid value,
        # a root search once or twice
        baths = tuple(
            BathSpec(b.label, temperature, b.gamma, b.cutoff)
            if b.label == label else b
            for b in self.baths
        )
        return DeviceConfig(self.system, baths)

    def with_coupling(self, g: float) -> "DeviceConfig":
        return replace(self, system=replace(self.system, g=g))


#: column layout of stacked device points, one row per point: the system
#: parameters, then temperature, gamma and cutoff of each bath in
#: BATH_LABELS order
POINT_COLUMNS = ("omega_a", "omega_b", "g") + tuple(
    f"{field}_{label}" for label in BATH_LABELS
    for field in ("temperature", "gamma", "cutoff"))


class BathColumns(NamedTuple):
    """Temperature, gamma and cutoff of one bath over stacked device points."""

    temperature: np.ndarray
    gamma: np.ndarray
    cutoff: np.ndarray


def stack_points(configs) -> np.ndarray:
    """Stack validated configs into an (N, len(POINT_COLUMNS)) array."""
    rows = []
    for config in configs:
        row = [config.system.omega_a, config.system.omega_b, config.system.g]
        for label in BATH_LABELS:
            bath = config.bath(label)
            row += [bath.temperature, bath.gamma, bath.cutoff]
        rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, len(POINT_COLUMNS))


def point_column(points: np.ndarray, name: str) -> np.ndarray:
    """One named column (see POINT_COLUMNS) of stacked device points."""
    return points[:, POINT_COLUMNS.index(name)]


@dataclass(frozen=True)
class DensityMatrix:
    """3x3 state of the system, tagged with the basis it is written in."""

    matrix: np.ndarray
    basis: str

    def __post_init__(self):
        if self.basis not in (EIGEN, BARE):
            raise ConfigError(f"unknown basis tag {self.basis!r}")
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ConfigError("density matrix must be 3x3")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def pure(cls, level: int, basis: str) -> "DensityMatrix":
        """Projector onto one of the levels 1, 2, 3 (or 1, b, a)."""
        if level not in (1, 2, 3):
            raise ConfigError("level must be 1, 2 or 3")
        m = np.zeros((3, 3), dtype=complex)
        m[level - 1, level - 1] = 1.0
        return cls(m, basis)

    @classmethod
    def from_populations(cls, populations, basis: str) -> "DensityMatrix":
        return cls(np.diag(np.asarray(populations, dtype=complex)), basis)

    @property
    def populations(self) -> np.ndarray:
        return self.matrix.diagonal().real.copy()

    @property
    def excited_coherence(self) -> complex:
        """Off-diagonal element between the two excited levels."""
        return complex(self.matrix[1, 2])

    def check(self) -> "DensityMatrix":
        """Raise unless Hermitian and of unit trace to 1e-12, with no
        eigenvalue below -1e-8."""
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ConfigError("density matrix is not Hermitian")
        if abs(np.trace(m) - 1.0) > 1e-12:
            raise ConfigError("density matrix trace differs from 1")
        if np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))) < -1e-8:
            raise ConfigError("density matrix has a negative eigenvalue")
        return self
