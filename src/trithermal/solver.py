"""Stacked steady states, time evolution, and the diagonal analytic oracle."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .model import BARE, ConfigError, DensityMatrix, DeviceConfig
from .generator import Generator, ReducedGenerators, unvectorize, vectorize
from .rates import transition_rates

# 80-bit extended precision where the platform provides it (x86 linux does);
# used only to polish steady states before taking energy traces
_EXTENDED = np.longdouble


class SteadyStateError(RuntimeError):
    """The generator does not have a unique, solvable steady state."""


class StepSizeError(RuntimeError):
    """Trace drift revealed an unstable integration step."""

    def __init__(self, message, suggested_dt):
        super().__init__(message)
        self.suggested_dt = suggested_dt


#: the trace constraint that replaces the p1 row of a reduced generator,
#: and the right-hand side of the bordered system
_TRACE_ROW = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
_UNIT_TRACE = np.eye(5)[:, :1]
#: stand-in generator of points that are not solved, keeping stacks regular
_STAND_IN = -np.eye(5)
#: R -> D R D^-1 with D = diag(1, 1, 1, sqrt 2, sqrt 2) writes a reduced
#: block in an orthonormal basis, where its singular values are those of
#: the complex closed block
_ORTHONORMAL = np.outer([1.0, 1.0, 1.0, 2 ** 0.5, 2 ** 0.5],
                        [1.0, 1.0, 1.0, 2 ** -0.5, 2 ** -0.5])


def _bordered(L: np.ndarray) -> np.ndarray:
    A = L.copy()
    A[:, 0, :] = _TRACE_ROW
    return A


def reduced_steady_states(
        generators: ReducedGenerators,
        errors: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steady states (p1, p2, p3, u, w) of stacked reduced generators.

    The steps of the tests' 9x9 reference solve (tests/reference.py) point
    by point: the rank check over the spectrum of the full 9x9 generator,
    the bordered solve with one step of refinement, and the residual check.
    Two further refinement steps with residuals in extended precision
    follow, summing the bath blocks there, so that energy traces of the
    polished states keep the first law well below the double-precision
    roundoff of the generator. The four solves share one inverse of each
    5x5 bordered matrix.

    Returns the double-precision states and the polished extended ones,
    (N, 5) each, and the inverses of the bordered matrices, (N, 5, 5), for
    the caller's further solves with them. Points whose entry in
    ``errors`` is set are skipped; a point that fails here gets its
    SteadyStateError there. The results of skipped and failed points are
    meaningless.
    """
    L = generators.matrix
    finite = np.isfinite(L).all(axis=(1, 2))
    # one stacked factorization fails as a whole on one singular matrix, so
    # points are masked before it; the 9x9 spectrum is that of the closed
    # block plus |diagonal| of the decaying coherences, twice each
    usable = (finite & [error is None for error in errors] if any(errors)
              else finite)
    # count_nonzero tests a mask at a third of the cost of .all(), which
    # counts in a one-point solve
    if np.count_nonzero(usable) < len(usable):
        L = np.where(usable[:, None, None], L, _STAND_IN)
    decay = np.abs(generators.decay)
    spectrum = np.concatenate(
        [np.linalg.svd(L * _ORTHONORMAL, compute_uv=False), decay, decay],
        axis=1)
    null_dim = (spectrum < 1e-10 * spectrum.max(axis=1, keepdims=True)).sum(
        axis=1)
    solvable = usable & (null_dim == 1)
    if np.count_nonzero(solvable) < len(solvable):
        for i in np.flatnonzero(~solvable):
            if errors[i] is None:
                errors[i] = SteadyStateError(
                    f"degenerate steady state: null space dimension "
                    f"{null_dim[i]}" if finite[i] else
                    "steady-state solve failed: generator has non-finite "
                    "entries")
        L = np.where(solvable[:, None, None], L, _STAND_IN)

    A = _bordered(L)
    try:
        inverse = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        for i in np.flatnonzero(solvable):
            errors[i] = SteadyStateError(f"steady-state solve failed: {exc}")
        return (np.zeros((len(L), 5)), np.zeros((len(L), 5), _EXTENDED),
                np.zeros_like(A))
    v = inverse[:, :, :1]
    v = v - inverse @ (A @ v - _UNIT_TRACE)

    # the 9x9 reference's residual check, taken in the real form: entries
    # and residual there are within a factor 2 of the complex ones
    scale = np.maximum(np.abs(L).max(axis=(1, 2)), decay.max(axis=1))
    accurate = np.abs(L @ v).max(axis=(1, 2)) <= 1e-12 * scale * 9.0
    if np.count_nonzero(accurate) < len(accurate):
        for i in np.flatnonzero(solvable & ~accurate):
            errors[i] = SteadyStateError(
                "steady-state residual above tolerance")

    A_ext = generators.dissipators.astype(_EXTENDED).sum(axis=1)
    A_ext += generators.unitary
    A_ext[:, 0, :] = _TRACE_ROW
    if np.count_nonzero(solvable) < len(solvable):
        A_ext = np.where(solvable[:, None, None], A_ext, A)
    v_ext = v.astype(_EXTENDED)
    for _ in range(2):
        residual = (A_ext @ v_ext - _UNIT_TRACE).astype(float)
        v_ext -= (inverse @ residual).astype(_EXTENDED)
    return v[:, :, 0], v_ext[:, :, 0], inverse


def default_timestep(generator: Generator) -> float:
    """Fixed step keeping RK4 stable: 0.01 over the fastest generator scale."""
    scale = float(np.max(np.abs(np.diag(generator.matrix))))
    return 0.01 / max(scale, 1e-12)


@dataclass(frozen=True)
class Trajectory:
    """Sampled time evolution under a fixed generator."""

    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    dt: float
    sample_stride: int
    mode: str

    def final(self) -> DensityMatrix:
        return self.states[-1]

    def min_eigenvalues(self) -> np.ndarray:
        return np.array([np.min(np.linalg.eigvalsh(s.matrix))
                         for s in self.states])

    def traces(self) -> np.ndarray:
        return np.array([np.trace(s.matrix).real for s in self.states])


def evolve(generator: Generator, rho0: DensityMatrix, t_final: float,
           dt: float | None = None, sample_stride: int = 1) -> Trajectory:
    """Fixed-step RK4 integration of the vectorized master equation.

    The one-step RK4 update of a linear, time-independent system is itself a
    fixed matrix, so strides of it are applied between stored samples. Each
    stored sample is Hermitian-symmetrized; the trace is monitored, never
    renormalized, and drift beyond 1e-6 aborts with a suggested step size.
    """
    if rho0.basis != generator.basis:
        raise ConfigError("initial state basis does not match the generator")
    if dt is None:
        dt = default_timestep(generator)
    if not dt > 0:
        raise ConfigError("dt must be positive")
    if sample_stride < 1:
        raise ConfigError("sample_stride must be >= 1")

    hL = dt * generator.matrix
    step = np.eye(9, dtype=complex)
    for order in (4, 3, 2, 1):
        step = np.eye(9, dtype=complex) + (hL / order) @ step
    stride_step = np.linalg.matrix_power(step, sample_stride)

    n_samples = int(np.ceil(t_final / (dt * sample_stride)))
    v = vectorize(rho0.matrix)
    times = [0.0]
    states = [rho0.hermitized()]
    for k in range(1, n_samples + 1):
        v = stride_step @ v
        rho = unvectorize(v)
        rho = 0.5 * (rho + rho.conj().T)
        drift = abs(np.trace(rho).real - 1.0)
        if drift > 1e-6:
            raise StepSizeError(
                f"step size too large: trace drift {drift:.3e}; "
                f"retry with dt <= {dt / 10:.3e}", suggested_dt=dt / 10)
        times.append(k * dt * sample_stride)
        states.append(DensityMatrix(rho, generator.basis))
    return Trajectory(times=np.array(times), states=tuple(states), dt=dt,
                      sample_stride=sample_stride, mode=generator.mode)


def analytic_diagonal_steady_state(config: DeviceConfig) -> DensityMatrix:
    """Closed-form diagonal steady state of the uncoupled device.

    Ratios of products of the six bare rates over a nine-term normalization;
    valid only at g = 0 where the populations close among themselves.
    """
    if config.system.g != 0.0:
        raise ConfigError("analytic diagonal steady state requires g=0")
    h = transition_rates(config.system.omega_a, config.bath("h"))
    c = transition_rates(config.system.omega_b, config.bath("c"))
    w = transition_rates(config.system.delta, config.bath("w"))

    p_1 = c.down * (h.down + w.down) + h.down * w.up
    p_b = c.up * (h.down + w.down) + h.up * w.down
    p_a = h.up * (c.down + w.up) + c.up * w.up
    norm = (h.down * c.down + c.down * w.down + h.down * w.up
            + h.down * c.up + c.up * w.down + h.up * w.down
            + h.up * c.down + c.up * w.up + h.up * w.up)
    return DensityMatrix.from_populations(
        (p_1 / norm, p_b / norm, p_a / norm), BARE)


def trajectory_csv(trajectory: Trajectory, stream=None) -> str:
    """Trajectory export: t, re/im of all nine entries, min eigenvalue, trace."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["t"]
    for i in range(3):
        for j in range(3):
            header += [f"re_{i + 1}{j + 1}", f"im_{i + 1}{j + 1}"]
    header += ["min_eigenvalue", "trace"]
    writer.writerow(header)
    for t, state in zip(trajectory.times, trajectory.states):
        m = state.matrix
        row = [f"{t:.17g}"]
        for i in range(3):
            for j in range(3):
                row += [f"{m[i, j].real:.17g}", f"{m[i, j].imag:.17g}"]
        row += [f"{np.min(np.linalg.eigvalsh(m)):.17g}",
                f"{np.trace(m).real:.17g}"]
        writer.writerow(row)
    text = buffer.getvalue()
    if stream is not None:
        stream.write(text)
    return text
