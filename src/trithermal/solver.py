"""Stacked steady states, time evolution, and the diagonal analytic oracle.

The steady states of stacked device points and the time evolution of one
point both run on the reduced closed-block generators that
generator.reduced_partial_secular builds; no 9x9 generator is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, DeviceConfig
from .generator import ReducedGenerators
from .rates import FrequencyDomainError, transition_rates

# 80-bit extended precision where the platform provides it (x86 linux does);
# used only to polish steady states before taking energy traces
_EXTENDED = np.longdouble

#: most samples a trajectory holds; each is a 5-vector and a 3x3 matrix
MAX_SAMPLES = 10 ** 6


class SteadyStateError(RuntimeError):
    """The generator does not have a unique, solvable steady state."""


class StepSizeError(RuntimeError):
    """Trace drift beyond tolerance; suggested_dt is None where it is
    roundoff, which a smaller step does not reduce."""

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
#: a singular value of the 9x9 generator below this fraction of the largest
#: counts towards its null space
_NULL_THRESHOLD = 1e-10
#: factor by which the bounds of _certified must clear that threshold,
#: covering the roundoff of the computed inverse and of the SVD
_MARGIN = 4.0


def _bordered(L: np.ndarray) -> np.ndarray:
    A = L.copy()
    A[:, 0, :] = _TRACE_ROW
    return A


def _inverses(A: np.ndarray) -> np.ndarray:
    """Inverses of stacked matrices, with NaN in place of those of singular
    ones, where one singular matrix makes np.linalg.inv fail as a whole.
    slogdet finds them without raising, by their sign 0: it runs the same
    LU factorization that inv does. Should inv fail even so, every inverse
    is NaN."""
    singular = np.linalg.slogdet(A)[0] == 0
    try:
        inverse = np.linalg.inv(np.where(singular[:, None, None], _STAND_IN,
                                         A))
    except np.linalg.LinAlgError:
        return np.full_like(A, math.nan)
    inverse[singular] = math.nan
    return inverse


def _refined(A: np.ndarray, inverse: np.ndarray,
             L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solutions v of A v = e_1 after one step of refinement, and the
    largest entry of |L v| of each."""
    v = inverse[:, :, :1]
    v = v - inverse @ (A @ v - _UNIT_TRACE)
    return v, np.abs(L @ v).max(axis=(1, 2))


def _null_dims(L: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """Null-space dimension of the 9x9 generators of stacked closed blocks
    L, by the SVD: their spectrum is that of the closed block plus the
    moduli ``decay`` of the decaying coherences, twice each."""
    spectrum = np.concatenate(
        [np.linalg.svd(L * _ORTHONORMAL, compute_uv=False), decay, decay],
        axis=1)
    return (spectrum < _NULL_THRESHOLD * spectrum.max(axis=1, keepdims=True)
            ).sum(axis=1)


def _certified(scale: np.ndarray, decay: np.ndarray, inverse: np.ndarray,
               v: np.ndarray, residual_max: np.ndarray) -> np.ndarray:
    """Points whose _null_dims is 1 by bounds from their bordered solve.

    S = D L D^-1 is the closed block in the orthonormal scaling, and
    ``scale`` is max(max |L|, max ``decay``). The largest value M of the
    9x9 spectrum lies between scale / sqrt 2 and 5 sqrt 2 scale, as
    max |L| / sqrt 2 <= max |S| <= sigma_1(S) <= ||S||_F <= 5 sqrt 2 max |L|.
    The bordered matrix A differs from L in one row, so singular values
    interlace (R. C. Thompson, Linear Algebra Appl. 13, 69, 1976), and
    sigma_4(S) >= sigma_min(D A D^-1) >= 1 / ||D A^-1 D^-1||_F
    >= 1 / (sqrt 2 ||A^-1||_F). The refined solution v gives
    sigma_5(S) <= ||D L v|| / ||D v|| <= sqrt 10 max |L v| / max |v|,
    ``residual_max`` being max |L v|. A point is certified when the
    null-space threshold separates sigma_5 from sigma_4 and from every
    decay rate, each by the factor _MARGIN.

    NaN fails every comparison, so a point whose inverse holds inf or NaN
    is not certified; callers hold np.errstate(all="ignore"), as such an
    inverse may overflow.
    """
    top = _MARGIN * _NULL_THRESHOLD * 5 * 2 ** 0.5 * scale
    gap = np.minimum(decay.min(axis=1),
                     (2 * np.einsum("nij,nij->n", inverse, inverse)) ** -0.5)
    null = 10 ** 0.5 * _MARGIN * residual_max / np.abs(v).max(axis=(1, 2))
    return (gap > top) & (null < _NULL_THRESHOLD * 2 ** -0.5 * scale)


def reduced_steady_states(
        generators: ReducedGenerators,
        errors: list) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray]:
    """Steady states (p1, p2, p3, u, w) of stacked reduced generators.

    The steps of the tests' 9x9 reference solve (tests/reference.py) point
    by point: the rank check over the spectrum of the full 9x9 generator,
    the bordered solve with one step of refinement, and the residual check.
    The bordered matrices are inverted first, and the rank check of each
    point is certified from its inverse and the residual of its solve
    (_certified). Only the points the certificate leaves in doubt get the
    SVD of _null_dims; the inverse, solution and residual of a point that
    SVD rejects are set to NaN, which leaves the other points as they
    were. Two further refinement steps with
    residuals in extended precision follow, summing the bath blocks there,
    so that energy traces of the polished states keep the first law well
    below the double-precision roundoff of the generator. The four solves
    share one inverse of each 5x5 bordered matrix.

    Returns the double-precision states and the polished extended ones,
    (N, 5) each, the inverses of the bordered matrices, (N, 5, 5), for
    the caller's further solves with them, and the bath dissipators in
    extended precision, (N, 3, 5, 5), for the caller's energy traces.
    Points whose entry in ``errors`` is set are skipped; a point that
    fails here gets its SteadyStateError there. The results of skipped
    and failed points are meaningless.
    """
    L = generators.matrix
    finite = np.isfinite(L).all(axis=(1, 2))
    # points with an error or non-finite entries are stood in for before
    # any factorization, keeping every stack regular
    usable = (finite & [error is None for error in errors] if any(errors)
              else finite)
    # count_nonzero tests a mask at a third of the cost of .all(), which
    # counts in a one-point solve
    if np.count_nonzero(usable) < len(usable):
        for i in np.flatnonzero(~usable):
            if errors[i] is None:
                errors[i] = SteadyStateError(
                    "steady-state solve failed: generator has non-finite "
                    "entries")
        L = np.where(usable[:, None, None], L, _STAND_IN)
    decay = np.abs(generators.decay)
    scale = np.maximum(np.abs(L).max(axis=(1, 2)), decay.max(axis=1))
    A = _bordered(L)
    # degenerate points are not masked yet: their inverses may hold inf or
    # overflow in the products
    with np.errstate(all="ignore"):
        try:
            inverse = np.linalg.inv(A)
        except np.linalg.LinAlgError:
            inverse = _inverses(A)
        v, residual_max = _refined(A, inverse, L)
        doubtful = usable & ~_certified(scale, decay, inverse, v,
                                        residual_max)

    if np.count_nonzero(doubtful):
        rows = np.flatnonzero(doubtful)
        null_dim = _null_dims(L[rows], decay[rows])
        rejected = null_dim != 1
        for i, dim in zip(rows[rejected], null_dim[rejected]):
            errors[i] = SteadyStateError(
                f"degenerate steady state: null space dimension {dim}")
        rows = rows[rejected]
        inverse[rows] = v[rows] = residual_max[rows] = math.nan

    # the 9x9 reference's residual check, taken in the real form: entries
    # and residual there are within a factor 2 of the complex ones
    accurate = residual_max <= 1e-12 * scale * 9.0
    if np.count_nonzero(accurate) < len(accurate):
        for i in np.flatnonzero(~accurate):
            if errors[i] is None:
                errors[i] = SteadyStateError(
                    "steady-state residual above tolerance")

    dissipators = generators.dissipators.astype(_EXTENDED)
    A_ext = dissipators.sum(axis=1)
    A_ext += generators.unitary
    A_ext[:, 0, :] = _TRACE_ROW
    if np.count_nonzero(usable) < len(usable):
        A_ext = np.where(usable[:, None, None], A_ext, A)
    v_ext = v.astype(_EXTENDED)
    for _ in range(2):
        residual = (A_ext @ v_ext - _UNIT_TRACE).astype(float)
        v_ext -= (inverse @ residual).astype(_EXTENDED)
    return v[:, :, 0], v_ext[:, :, 0], inverse, dissipators


def default_timestep(generators: ReducedGenerators) -> float:
    """Fixed step keeping RK4 stable: 0.01 over the fastest scale of the
    one point's generator, the largest modulus on the diagonal of its 9x9
    form. In the real form that diagonal is R[0, 0], R[1, 1], R[2, 2],
    R[3, 3] + i R[4, 3] at rho_23 and rho_32, and ``decay``."""
    L = generators.matrix[0]
    scale = max(np.abs(np.diagonal(L)[:3]).max(), np.hypot(L[3, 3], L[4, 3]),
                np.abs(generators.decay[0]).max())
    return 0.01 / max(float(scale), 1e-12)


def _density_matrices(states: np.ndarray) -> np.ndarray:
    """Eigenbasis density matrices, (n, 3, 3), of closed-block states
    (p1, p2, p3, u, w), (n, 5); rho_12 and rho_13 are 0."""
    p1, p2, p3, u, w = states.T
    matrices = np.zeros((len(states), 3, 3), dtype=complex)
    matrices[:, 0, 0], matrices[:, 1, 1], matrices[:, 2, 2] = p1, p2, p3
    matrices[:, 1, 2] = u + 1j * w
    matrices[:, 2, 1] = u - 1j * w
    return matrices


@dataclass(frozen=True)
class Trajectory:
    """Sampled time evolution of one device point: the closed-block states
    (p1, p2, p3, u, w), rho_23 = u + i w, and the smallest eigenvalue of
    each sampled density matrix."""

    times: np.ndarray            # (n,)
    states: np.ndarray           # (n, 5)
    min_eigenvalues: np.ndarray  # (n,)
    dt: float
    sample_stride: int

    def matrices(self) -> np.ndarray:
        return _density_matrices(self.states)

    def traces(self) -> np.ndarray:
        return self.states[:, :3].sum(axis=1)


def evolve(generators: ReducedGenerators, state0, t_final: float,
           dt: float | None = None,
           sample_stride: int | None = None) -> Trajectory:
    """Fixed-step RK4 integration of the partial-secular master equation of
    one device point, on its closed block.

    state0 is the closed-block state (p1, p2, p3, u, w), rho_23 = u + i w,
    that the integration starts from; np.eye(5)[level - 1] is a pure
    level. The eigenbasis coherences rho_12 and rho_13 only decay, so a
    state that starts without them, as every pure level does, is carried
    whole by the closed block. The one-step RK4 update of a linear,
    time-independent system is itself a fixed matrix, so strides of it are
    applied between stored samples, by default about 1000 of them; a
    positive t_final takes at least one. The trace is monitored, never
    renormalized; drift beyond 1e-6 raises StepSizeError, which suggests
    dt / 10 where the step is unstable and no step where it is stable.
    More than MAX_SAMPLES samples are refused before anything is allocated.
    """
    if len(generators.matrix) != 1:
        raise ConfigError("evolve integrates the generator of one point")
    v = np.asarray(state0, dtype=float)
    if v.shape != (5,):
        raise ConfigError("initial state must be the closed-block 5-vector "
                          "(p1, p2, p3, u, w)")
    if dt is None:
        dt = default_timestep(generators)
    if not dt > 0:
        raise ConfigError("dt must be positive")
    steps = t_final / dt
    if not math.isfinite(steps):
        raise ConfigError("t_final / dt must be a finite number of steps")
    if sample_stride is None:
        sample_stride = max(1, int(steps / 1000))
    if sample_stride < 1:
        raise ConfigError("sample_stride must be >= 1")
    # one stride at least for a positive t_final, also where dt *
    # sample_stride overflows to inf
    n_samples = max(math.ceil(t_final / (dt * sample_stride)),
                    int(t_final > 0))
    if n_samples > MAX_SAMPLES:
        raise ConfigError(f"{n_samples} samples exceed the limit of "
                          f"{MAX_SAMPLES}; raise dt or the sample stride")
    if generators.out_of_domain[0]:
        raise FrequencyDomainError("transition frequency must be non-negative")

    states = [v]
    # an overflowing step gives NaN states, which the drift check refuses
    with np.errstate(over="ignore", invalid="ignore"):
        hL = dt * generators.matrix[0]
        step = np.eye(5)
        for order in (4, 3, 2, 1):
            step = np.eye(5) + (hL / order) @ step
        stride_step = np.linalg.matrix_power(step, sample_stride)
        for _ in range(n_samples):
            v = stride_step @ v
            drift = abs(v[0] + v[1] + v[2] - 1.0)
            if not drift <= 1e-6:
                # unstable: the step overflowed (NaN drift) or its spectral
                # radius tops 1, that of the stationary mode, to roundoff
                if not (np.isfinite(step).all() and np.abs(
                        np.linalg.eigvals(step)).max() <= 1.0 + 1e-12):
                    raise StepSizeError(
                        f"step size too large: trace drift {drift:.3e}; "
                        f"retry with dt <= {dt / 10:.3e}", dt / 10)
                raise StepSizeError(
                    f"trace drift {drift:.3e} is roundoff accumulated over "
                    f"stable steps; a smaller dt only adds steps", None)
            states.append(v)
    states = np.array(states)
    return Trajectory(
        times=np.arange(len(states)) * dt * sample_stride, states=states,
        min_eigenvalues=np.linalg.eigvalsh(_density_matrices(states)).min(
            axis=1),
        dt=dt, sample_stride=sample_stride)


def analytic_diagonal_steady_state(config: DeviceConfig) -> np.ndarray:
    """Closed-form populations (p_1, p_b, p_a) of the bare levels in the
    diagonal steady state of the uncoupled device.

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
    return np.array([p_1 / norm, p_b / norm, p_a / norm])


def trajectory_csv(trajectory: Trajectory) -> str:
    """The trajectory's CSV text: t, re/im of all nine entries, min
    eigenvalue, trace."""
    header = ["t"]
    for i in range(3):
        for j in range(3):
            header += [f"re_{i + 1}{j + 1}", f"im_{i + 1}{j + 1}"]
    header += ["min_eigenvalue", "trace"]
    # the re/im pairs of each matrix, row by row
    entries = trajectory.matrices().reshape(-1, 9).view(float)
    rows = np.column_stack([trajectory.times, entries,
                            trajectory.min_eigenvalues, trajectory.traces()])
    template = ",".join(["%.17g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(
        template % tuple(row) for row in rows.tolist())
