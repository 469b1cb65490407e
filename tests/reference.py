"""The 9x9 reference path: the tests' oracle for the package's reduced block.

``build_partial_secular`` builds the whole 9x9 partial-secular generator of
one device from the package's dissipator blocks, and ``build_full_secular``
the full-secular Lindblad generator of the uncoupled device from its jump
operators, independently of those blocks. ``steady_state`` solves a full 9x9 generator on its own, and
``steady_state_report`` polishes that state in extended precision and
takes the energy traces bath by bath. ``closed_form_currents`` evaluates the
same currents from rates and matrix elements alone, an independent route
that must agree with the trace route at roundoff level. At g = 0,
``detailed_balance_residual`` checks a diagonal state against the three
uncoupled channels, and ``exact_diagonal_populations`` and
``exact_uncoupled_currents`` evaluate the package's closed forms of the
uncoupled device in rationals, with no roundoff of their own.
``check_density`` checks that a 3x3 matrix is a density matrix.
``carnot_cop``, ``entropy_production`` and ``_cop_or_none`` are the scalar
figures of merit, the oracles of current_table's COP, Carnot-bound and
entropy-rate columns, which compute them in the same float64 operations.
``bose_occupation`` and ``ohmic_spectral_density`` are the two factors of
the rates in closed form, and ``classify_function`` and ``response_ratio``
the phase map's scalar rules for one point.

The package computes every current through ``observables.current_table``
and every trajectory through ``solver.evolve``, both on the reduced block;
nothing under src/ imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from trithermal.model import (
    BATH_LABELS,
    ConfigError,
    DeviceConfig,
    eigensystem,
)
from trithermal.generator import (
    _BUILDERS,
    _I11,
    _I22,
    _I33,
    _channel_weights,
    _unitary_block,
)
from trithermal.rates import FrequencyDomainError, RatePair, transition_rates
from trithermal.solver import SteadyStateError
from trithermal.observables import (
    COP_CURRENT_FLOOR,
    CurrentReport,
    UndefinedObservableError,
    current_scale,
)
from trithermal.analysis import (
    AMPLIFIER_RESPONSE_FLOOR,
    VALVE_TOLERANCE,
    AmplifierUndefinedError,
)

PARTIAL_SECULAR = "partial_secular"
FULL_SECULAR = "full_secular"

#: the basis a Generator, and every 3x3 state of it, is written in
EIGEN = "eigen"  # eigenbasis {|1>, |2>, |3>} of the coupled system
BARE = "bare"    # bare basis {|1>, |b>, |a>} used when g = 0


def vectorize(matrix: np.ndarray) -> np.ndarray:
    return np.asarray(matrix, dtype=complex).reshape(9, order="F")


def unvectorize(vector: np.ndarray) -> np.ndarray:
    return np.asarray(vector, dtype=complex).reshape((3, 3), order="F")


def check_density(rho: np.ndarray) -> None:
    """Raise ValueError unless the 3x3 matrix rho is Hermitian and of unit
    trace to 1e-12, with no eigenvalue below -1e-8."""
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-12:
        raise ValueError("density matrix trace differs from 1")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -1e-8:
        raise ValueError("density matrix has a negative eigenvalue")


@dataclass(frozen=True)
class Generator:
    """9x9 Liouvillian with its unitary and per-bath dissipator blocks."""

    matrix: np.ndarray
    unitary: np.ndarray
    dissipators: dict[str, np.ndarray]
    hamiltonian: np.ndarray
    basis: str
    mode: str
    config: DeviceConfig

    def __post_init__(self):
        for array in (self.matrix, self.unitary, self.hamiltonian,
                      *self.dissipators.values()):
            array.setflags(write=False)


def _scaled(pair: RatePair, factor: float) -> RatePair:
    return RatePair(down=factor * pair.down, up=factor * pair.up)


def build_partial_secular(config: DeviceConfig) -> Generator:
    """Partial-secular Redfield generator in the system eigenbasis.

    The interference (cross) terms between the two ground-excited channels
    are retained, which is what sustains the steady-state coherence between
    the excited levels.
    """
    eig = eigensystem(config.system.omega_a, config.system.omega_b,
                      config.system.g)
    blocks = {}
    for label in BATH_LABELS:
        bath = config.bath(label)
        blocks[label] = _BUILDERS[label](*(
            _scaled(transition_rates(frequency, bath), weight)
            for frequency, weight in zip(*_channel_weights(eig, label))))
    hamiltonian = np.diag([0.0, eig.omega_2, eig.omega_3]).astype(complex)
    unitary = _unitary_block((0.0, eig.omega_2, eig.omega_3))
    matrix = unitary + blocks["h"] + blocks["c"] + blocks["w"]
    return Generator(matrix=matrix, unitary=unitary, dissipators=blocks,
                     hamiltonian=hamiltonian, basis=EIGEN,
                     mode=PARTIAL_SECULAR, config=config)


def _lindblad_superop(jump: np.ndarray) -> np.ndarray:
    """Superoperator of 2 X rho X^dag - X^dag X rho - rho X^dag X."""
    xdx = jump.conj().T @ jump
    eye = np.eye(3)
    return (2.0 * np.kron(jump.conj(), jump)
            - np.kron(eye, xdx) - np.kron(xdx.T, eye))


def _ketbra(i: int, j: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


def build_full_secular(config: DeviceConfig) -> Generator:
    """Full-secular Lindblad generator of the uncoupled device (bare basis).

    Three independent two-level dissipators: hot bath on {|1>, |a>} at
    omega_a, cold bath on {|1>, |b>} at omega_b, work bath on {|b>, |a>} at
    delta. Populations decouple completely from the coherences.
    """
    if config.system.g != 0.0:
        raise ConfigError("full secular generator requires g=0")
    omega_a = config.system.omega_a
    omega_b = config.system.omega_b
    delta = config.system.delta

    # bare basis order: |1>, |b>, |a>
    rate_h = transition_rates(omega_a, config.bath("h"))
    rate_c = transition_rates(omega_b, config.bath("c"))
    rate_w = transition_rates(delta, config.bath("w"))
    blocks = {
        "h": (rate_h.down * _lindblad_superop(_ketbra(0, 2))
              + rate_h.up * _lindblad_superop(_ketbra(2, 0))),
        "c": (rate_c.down * _lindblad_superop(_ketbra(0, 1))
              + rate_c.up * _lindblad_superop(_ketbra(1, 0))),
        "w": (rate_w.down * _lindblad_superop(_ketbra(1, 2))
              + rate_w.up * _lindblad_superop(_ketbra(2, 1))),
    }
    hamiltonian = np.diag([0.0, omega_b, omega_a]).astype(complex)
    unitary = _unitary_block((0.0, omega_b, omega_a))
    matrix = unitary + blocks["h"] + blocks["c"] + blocks["w"]
    return Generator(matrix=matrix, unitary=unitary, dissipators=blocks,
                     hamiltonian=hamiltonian, basis=BARE,
                     mode=FULL_SECULAR, config=config)


# 80-bit extended precision where the platform provides it (x86 linux does);
# used only to polish steady states before taking energy traces
_EXTENDED = getattr(np, "complex256", np.complex128)


def steady_state(generator: Generator) -> np.ndarray:
    """Unique null vector of the generator, normalized to unit trace, as a
    3x3 density matrix in the generator's basis.

    One redundant row (the rho_11 diagonal row) is replaced by the trace
    constraint and the dense 9x9 system is solved directly; one step of
    iterative refinement keeps the null-space residual at roundoff level.
    """
    L = generator.matrix
    singular_values = np.linalg.svd(L, compute_uv=False)
    null_dim = int(np.sum(singular_values < 1e-10 * singular_values[0]))
    if null_dim != 1:
        raise SteadyStateError(
            f"degenerate steady state: null space dimension {null_dim}")

    A = L.copy()
    A[_I11, :] = 0.0
    A[_I11, _I11] = A[_I11, _I22] = A[_I11, _I33] = 1.0
    b = np.zeros(9, dtype=complex)
    b[_I11] = 1.0
    try:
        v = np.linalg.solve(A, b)
        v -= np.linalg.solve(A, A @ v - b)
    except np.linalg.LinAlgError as exc:
        raise SteadyStateError(f"steady-state solve failed: {exc}") from exc

    scale = np.max(np.abs(L))
    if np.max(np.abs(L @ v)) > 1e-12 * scale * 9.0:
        raise SteadyStateError("steady-state residual above tolerance")
    rho = unvectorize(v)
    return 0.5 * (rho + rho.conj().T)


def detailed_balance_residual(config: DeviceConfig,
                              rho: np.ndarray) -> tuple[float, float, float]:
    """Gain-minus-loss of each level under the three uncoupled channels."""
    if config.system.g != 0.0:
        raise ConfigError("detailed balance check requires g=0")
    if np.max(np.abs(rho - np.diag(rho.diagonal()))) > 1e-10:
        raise ConfigError("detailed balance check requires a diagonal state")
    p_1, p_b, p_a = rho.diagonal().real
    h = transition_rates(config.system.omega_a, config.bath("h"))
    c = transition_rates(config.system.omega_b, config.bath("c"))
    w = transition_rates(config.system.delta, config.bath("w"))
    r1 = c.down * p_b + h.down * p_a - (c.up + h.up) * p_1
    r2 = c.up * p_1 + w.down * p_a - (w.up + c.down) * p_b
    r3 = h.up * p_1 + w.up * p_b - (h.down + w.down) * p_a
    return (r1, r2, r3)


def _exact_uncoupled_rates(config: DeviceConfig) -> tuple[Fraction, ...]:
    """The six float64 rates of the uncoupled device, (h.down, h.up,
    c.down, c.up, w.down, w.up), as exact rationals."""
    if config.system.g != 0.0:
        raise ConfigError("the exact closed form requires g=0")
    pairs = (transition_rates(config.system.omega_a, config.bath("h")),
             transition_rates(config.system.omega_b, config.bath("c")),
             transition_rates(config.system.delta, config.bath("w")))
    return tuple(Fraction(float(rate)) for pair in pairs
                 for rate in (pair.down, pair.up))


def exact_diagonal_populations(config: DeviceConfig) -> tuple[Fraction, ...]:
    """(p_1, p_b, p_a) of solver.analytic_diagonal_steady_state, its
    formula evaluated in rationals from the same float64 rates."""
    h_down, h_up, c_down, c_up, w_down, w_up = _exact_uncoupled_rates(config)
    p_1 = c_down * (h_down + w_down) + h_down * w_up
    p_b = c_up * (h_down + w_down) + h_up * w_down
    p_a = h_up * (c_down + w_up) + c_up * w_up
    norm = (h_down * c_down + c_down * w_down + h_down * w_up
            + h_down * c_up + c_up * w_down + h_up * w_down
            + h_up * c_down + c_up * w_up + h_up * w_up)
    return p_1 / norm, p_b / norm, p_a / norm


def exact_uncoupled_currents(config: DeviceConfig) -> tuple[Fraction, ...]:
    """(J_h, J_c, J_w) of observables.uncoupled_currents at the exact
    populations, in rationals from the same float64 rates and frequencies:
    the g = 0 oracle where the float64 one's own roundoff, near
    equilibrium, exceeds the bounds it is checked to."""
    h_down, h_up, c_down, c_up, w_down, w_up = _exact_uncoupled_rates(config)
    p_1, p_b, p_a = exact_diagonal_populations(config)
    omega_a = Fraction(config.system.omega_a)
    omega_b = Fraction(config.system.omega_b)
    delta = Fraction(config.system.delta)
    return (2 * omega_a * (h_up * p_1 - h_down * p_a),
            2 * omega_b * (c_up * p_1 - c_down * p_b),
            2 * delta * (w_up * p_b - w_down * p_a))


def heat_current_trace(generator: Generator, rho_ss: np.ndarray,
                       bath_label: str) -> float:
    """Energy flow from one bath into the system, Tr[H_S D_mu(rho_ss)]."""
    flow = unvectorize(generator.dissipators[bath_label]
                       @ vectorize(rho_ss))
    return float(np.trace(generator.hamiltonian @ flow).real)


def _polished_steady_vector(generator: Generator,
                            rho_ss: np.ndarray) -> np.ndarray:
    """Extended-precision refinement of a steady state for current traces.

    A double-precision steady state carries an L rho residual at its
    representation floor (~1e-18); energy-weighted, that residual shows up
    verbatim as an apparent violation of Jh + Jc + Jw = 0 and can rival the
    currents themselves close to equilibrium. Two refinement steps with
    residuals accumulated in extended precision push it out of reach.
    """
    L = generator.matrix
    A = L.copy()
    A[_I11, :] = 0.0
    A[_I11, _I11] = A[_I11, _I22] = A[_I11, _I33] = 1.0
    b = np.zeros(9, dtype=complex)
    b[_I11] = 1.0
    A_ext = A.astype(_EXTENDED)
    b_ext = b.astype(_EXTENDED)
    v = vectorize(rho_ss).astype(_EXTENDED)
    for _ in range(2):
        residual = A_ext @ v - b_ext
        v = v - np.linalg.solve(A, residual.astype(complex)).astype(_EXTENDED)
    return v


def _bath_current_polished(generator: Generator, bath_label: str,
                           v: np.ndarray) -> float:
    flow = generator.dissipators[bath_label].astype(_EXTENDED) @ v
    energies = np.diag(generator.hamiltonian).real
    return float(sum(energies[i] * flow[4 * i].real for i in range(3)))


def steady_state_report(generator: Generator,
                        rho_ss: np.ndarray) -> CurrentReport:
    """Assemble the full current report from the per-bath trace currents."""
    config = generator.config
    v = _polished_steady_vector(generator, rho_ss)
    j_h = _bath_current_polished(generator, "h", v)
    j_c = _bath_current_polished(generator, "c", v)
    j_w = _bath_current_polished(generator, "w", v)
    temperatures = {label: config.temperature(label) for label in "hcw"}
    if generator.basis == BARE:
        j_c12, j_c13 = j_c, 0.0
    else:
        j_c12, j_c13 = cold_current_decomposition(config, rho_ss)
    return CurrentReport(
        j_h=j_h, j_c=j_c, j_w=j_w, j_c12=j_c12, j_c13=j_c13,
        coherence_abs=abs(rho_ss[1, 2]),
        cop=_cop_or_none(j_c, j_w),
        carnot_cop=carnot_cop(temperatures),
        entropy_rate=entropy_production(j_h, j_c, j_w, temperatures),
    )


def cold_current_decomposition(config: DeviceConfig,
                               rho_ss: np.ndarray) -> tuple[float, float]:
    """Split the cold current over the 1<->2 and 1<->3 channels."""
    eig = eigensystem(config.system.omega_a, config.system.omega_b,
                      config.system.g)
    bath_c = config.bath("c")
    c_2 = transition_rates(eig.omega_2, bath_c)
    c_3 = transition_rates(eig.omega_3, bath_c)
    p = rho_ss.diagonal().real
    x = 2.0 * rho_ss[1, 2].real
    j_c12 = eig.omega_2 * (2.0 * eig.f2 * (c_2.up * p[0] - c_2.down * p[1])
                           - eig.f1 * c_3.down * x)
    j_c13 = eig.omega_3 * (2.0 * eig.f3 * (c_3.up * p[0] - c_3.down * p[2])
                           - eig.f1 * c_2.down * x)
    return j_c12, j_c13


def closed_form_currents(config: DeviceConfig,
                         rho_ss: np.ndarray) -> CurrentReport:
    """Currents of the coupled device from rates and matrix elements alone.

    Independent of the generator object: everything is evaluated from the
    dressed rates and the entries of the eigenbasis steady state, including
    the coherence contributions to the hot and cold currents.
    """
    eig = eigensystem(config.system.omega_a, config.system.omega_b,
                      config.system.g)
    h_2 = transition_rates(eig.omega_2, config.bath("h"))
    h_3 = transition_rates(eig.omega_3, config.bath("h"))
    w = transition_rates(eig.capital_omega, config.bath("w"))
    p = rho_ss.diagonal().real
    x = 2.0 * rho_ss[1, 2].real

    j_h = (2.0 * eig.omega_2 * eig.f3 * (h_2.up * p[0] - h_2.down * p[1])
           + 2.0 * eig.omega_3 * eig.f2 * (h_3.up * p[0] - h_3.down * p[2])
           + eig.f1 * (eig.omega_2 * h_3.down + eig.omega_3 * h_2.down) * x)
    j_c12, j_c13 = cold_current_decomposition(config, rho_ss)
    j_c = j_c12 + j_c13
    j_w = 2.0 * eig.capital_omega * (w.up * p[1] - w.down * p[2])

    temperatures = {label: config.temperature(label) for label in "hcw"}
    return CurrentReport(
        j_h=j_h, j_c=j_c, j_w=j_w, j_c12=j_c12, j_c13=j_c13,
        coherence_abs=abs(rho_ss[1, 2]),
        cop=_cop_or_none(j_c, j_w),
        carnot_cop=carnot_cop(temperatures),
        entropy_rate=entropy_production(j_h, j_c, j_w, temperatures),
    )


def carnot_cop(temperatures: dict[str, float]) -> float:
    """Carnot bound (beta_h - beta_w) / (beta_c - beta_h) on the COP."""
    beta_h = 1.0 / temperatures["h"]
    beta_c = 1.0 / temperatures["c"]
    beta_w = 1.0 / temperatures["w"]
    if beta_c == beta_h:
        raise UndefinedObservableError("Carnot bound undefined at Tc = Th")
    return (beta_h - beta_w) / (beta_c - beta_h)


def entropy_production(j_h: float, j_c: float, j_w: float,
                       temperatures: dict[str, float]) -> float:
    """Clausius sum of J_mu / T_mu; non-positive at any steady state."""
    return (j_h / temperatures["h"] + j_c / temperatures["c"]
            + j_w / temperatures["w"])


def _cop_or_none(j_c: float, j_w: float) -> float | None:
    """J_c / J_w, or None where |J_w| is at most COP_CURRENT_FLOOR of the
    current scale."""
    scale = current_scale(0.0, j_c, j_w)
    if abs(j_w) <= COP_CURRENT_FLOOR * scale:
        return None
    return j_c / j_w


def bose_occupation(omega: float, temperature: float) -> float:
    """Mean occupation of a bath mode, 1 / (e^(w/T) - 1)."""
    if not temperature > 0:
        raise FrequencyDomainError("temperature must be positive")
    if not omega > 0:
        raise FrequencyDomainError("bose_occupation requires omega > 0")
    return 1.0 / math.expm1(omega / temperature)


def ohmic_spectral_density(omega: float, gamma: float, cutoff: float) -> float:
    """Ohmic spectral density gamma * w * exp(-w / cutoff)."""
    return gamma * omega * math.exp(-omega / cutoff)


def classify_function(report: CurrentReport) -> str:
    """Valve, refrigerator or heater."""
    scale = current_scale(report.j_h, report.j_c, report.j_w)
    if abs(report.j_c) < VALVE_TOLERANCE * scale:
        return "valve"
    return "refrigerator" if report.j_c > 0 else "heater"


def response_ratio(report: CurrentReport, d_jc: float, d_jw: float,
                   t_w: float) -> float:
    """|d_jc / d_jw| at T_w, from the T_w slopes of J_c and J_w; raises
    AmplifierUndefinedError where J_w does not respond to T_w."""
    scale = current_scale(report.j_h, report.j_c, report.j_w)
    if abs(d_jw) * max(1.0, t_w) < AMPLIFIER_RESPONSE_FLOOR * scale:
        raise AmplifierUndefinedError("amplifier factor undefined here: "
                                      "work current does not respond to Tw")
    return abs(d_jc / d_jw)
