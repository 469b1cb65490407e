"""Liouvillian superoperators for the three-level device.

Two builders are provided: the partial-secular generator for arbitrary inner
coupling (eigenbasis), and the full-secular Lindblad generator for the
uncoupled device (bare basis). Both act on the column-stacked vectorization
of the 3x3 density matrix and keep the per-bath dissipator blocks around so
heat currents can be evaluated bath by bath.

The partial-secular generator also comes in a reduced form over stacked
device points: populations and the excited-pair coherence form a closed
block, and the four ground-excited coherences only decay.

Rate convention: the Lindblad superoperator carries the explicit factor 2,
L_X(rho) = 2 X rho X^dag - X^dag X rho - rho X^dag X, and the unitary block
is scaled by the same factor so the whole equation of motion shares one time
unit. Steady states are unaffected; absolute current magnitudes match the
factor-2 convention throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .model import (
    BARE,
    BATH_LABELS,
    POINT_COLUMNS,
    BathColumns,
    ConfigError,
    DeviceConfig,
    EigenSystem,
    diagonalize,
    eigensystem,
    point_column,
)
from .rates import RatePair, rate_temperature_slope, transition_rates

PARTIAL_SECULAR = "partial_secular"
FULL_SECULAR = "full_secular"

# vectorization is column stacking: vec(rho)[i + 3*j] = rho[i, j]
_I11, _I22, _I33 = 0, 4, 8
_I12, _I13, _I23 = 3, 6, 7
_I21, _I31, _I32 = 1, 2, 5


def vectorize(matrix: np.ndarray) -> np.ndarray:
    return np.asarray(matrix, dtype=complex).reshape(9, order="F")


def unvectorize(vector: np.ndarray) -> np.ndarray:
    return np.asarray(vector, dtype=complex).reshape((3, 3), order="F")


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


def _unitary_block(energies) -> np.ndarray:
    """Coherent rotation of the vectorized state, -2i (E_i - E_j) per entry."""
    block = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            k = i + 3 * j
            block[k, k] = -2j * (energies[i] - energies[j])
    return block


def _coupled_bath_block(pair_2: RatePair, pair_3: RatePair,
                        cross_2: RatePair, cross_3: RatePair,
                        cross_sign: float) -> np.ndarray:
    """Dissipator of a bath driving both ground-excited transitions.

    pair_2 / pair_3 are the overlap-weighted rates on the 1<->2 and 1<->3
    channels at their own frequencies; cross_2 / cross_3 carry the
    interference weight f1 at omega_2 and omega_3. cross_sign is the sign of
    the product of the two channel amplitudes (-1 for the hot bath, +1 for
    the cold bath).
    """
    L = np.zeros((9, 9), dtype=complex)
    s = cross_sign

    # population rows
    L[_I11, _I11] = -2.0 * (pair_2.up + pair_3.up)
    L[_I11, _I22] = 2.0 * pair_2.down
    L[_I11, _I33] = 2.0 * pair_3.down
    L[_I11, _I23] = L[_I11, _I32] = s * (cross_3.down + cross_2.down)

    L[_I22, _I11] = 2.0 * pair_2.up
    L[_I22, _I22] = -2.0 * pair_2.down
    L[_I22, _I23] = L[_I22, _I32] = -s * cross_3.down

    L[_I33, _I11] = 2.0 * pair_3.up
    L[_I33, _I33] = -2.0 * pair_3.down
    L[_I33, _I23] = L[_I33, _I32] = -s * cross_2.down

    # excited-pair coherences couple back into the populations
    for k in (_I23, _I32):
        L[k, k] = -(pair_2.down + pair_3.down)
        L[k, _I11] = s * (cross_3.up + cross_2.up)
        L[k, _I22] = -s * cross_2.down
        L[k, _I33] = -s * cross_3.down

    # ground-excited coherences only decay: half the total outgoing
    # population rates of the two levels involved
    out_1 = 2.0 * (pair_2.up + pair_3.up)
    out_2 = 2.0 * pair_2.down
    out_3 = 2.0 * pair_3.down
    L[_I12, _I12] = L[_I21, _I21] = -0.5 * (out_1 + out_2)
    L[_I13, _I13] = L[_I31, _I31] = -0.5 * (out_1 + out_3)
    return L


def _work_bath_block(pair: RatePair) -> np.ndarray:
    """Dissipator of the work bath, acting inside the excited doublet."""
    L = np.zeros((9, 9), dtype=complex)
    L[_I22, _I22] = -2.0 * pair.up
    L[_I22, _I33] = 2.0 * pair.down
    L[_I33, _I22] = 2.0 * pair.up
    L[_I33, _I33] = -2.0 * pair.down
    L[_I23, _I23] = L[_I32, _I32] = -(pair.down + pair.up)
    L[_I12, _I12] = L[_I21, _I21] = -pair.up
    L[_I13, _I13] = L[_I31, _I31] = -pair.down
    return L


#: dissipator builder of each bath, taking the pairs of _channel_weights
_BUILDERS = {
    "h": partial(_coupled_bath_block, cross_sign=-1.0),
    "c": partial(_coupled_bath_block, cross_sign=+1.0),
    "w": _work_bath_block,
}


def _channel_weights(eig: EigenSystem, label: str) -> tuple[tuple, tuple]:
    """Frequencies and overlap weights of the rate pairs of one bath, in
    the argument order of its block builder.

    The hot bath couples to the ground-excited transitions with amplitudes
    (-sin(phi/2), cos(phi/2)) on the (1<->2, 1<->3) channels and the cold
    bath with (cos(phi/2), sin(phi/2)); the cross pairs carry f1. The work
    bath acts inside the excited doublet with unit weight. Floats, or
    arrays with an EigenSystem of arrays.
    """
    if label == "w":
        return (eig.capital_omega,), (np.ones_like(eig.capital_omega),)
    weight_2, weight_3 = (eig.f3, eig.f2) if label == "h" else (eig.f2, eig.f3)
    return ((eig.omega_2, eig.omega_3, eig.omega_2, eig.omega_3),
            (weight_2, weight_3, eig.f1, eig.f1))


def build_partial_secular(config: DeviceConfig) -> Generator:
    """Partial-secular Redfield generator in the system eigenbasis.

    The interference (cross) terms between the two ground-excited channels
    are retained, which is what sustains the steady-state coherence between
    the excited levels.
    """
    eig = diagonalize(config.system)
    blocks = {}
    for label in BATH_LABELS:
        bath = config.bath(label)
        blocks[label] = _BUILDERS[label](*(
            transition_rates(frequency, bath).scaled(weight)
            for frequency, weight in zip(*_channel_weights(eig, label))))
    hamiltonian = np.diag([0.0, eig.omega_2, eig.omega_3]).astype(complex)
    unitary = _unitary_block((0.0, eig.omega_2, eig.omega_3))
    matrix = unitary + blocks["h"] + blocks["c"] + blocks["w"]
    return Generator(matrix=matrix, unitary=unitary, dissipators=blocks,
                     hamiltonian=hamiltonian, basis="eigen",
                     mode=PARTIAL_SECULAR, config=config)


# the closed block: populations and the excited-pair coherences; the
# ground-excited coherences rho_12 and rho_13 only decay (rho_21 and rho_31
# as their conjugates)
_CLOSED = [_I11, _I22, _I33, _I23, _I32]
_DECAYING = [_I12, _I13]

#: real coordinates (p1, p2, p3, u, w) of the closed block, rho_23 = u + i w,
#: as vectors over (rho_11, rho_22, rho_33, rho_23, rho_32)
_REAL_TO_COMPLEX = np.array([[1, 0, 0, 0, 0],
                             [0, 1, 0, 0, 0],
                             [0, 0, 1, 0, 0],
                             [0, 0, 0, 1, 1j],
                             [0, 0, 0, 1, -1j]])


def _reduce_block(block: np.ndarray) -> np.ndarray:
    """Real 5x5 form of a 9x9 block on its closed block (p1, p2, p3, u, w).

    For a block mapping Hermitian matrices to Hermitian matrices the
    population rows are real and the rho_32 row is the conjugate of the
    rho_23 row, whose real and imaginary parts become the u and w rows.
    """
    mixed = block[np.ix_(_CLOSED, _CLOSED)] @ _REAL_TO_COMPLEX
    return np.vstack([mixed[:4].real, mixed[3].imag])


#: rate pairs each bath's block builder takes (see _channel_weights)
_PAIRS = {"h": 4, "c": 4, "w": 1}


def _templates() -> np.ndarray:
    """Every bath's dissipator per unit value of each of its rates.

    A row per rate (down, up of each pair, _channel_weights order, baths in
    BATH_LABELS order) and 27 columns per bath: the reduced block,
    flattened, then the diagonal at rho_12 and rho_13. Every entry of a
    dissipator is linear in its rates, so a product of the rate values with
    these rows rebuilds the blocks. Each column has at most three nonzero
    entries, all of one bath.
    """
    rows = []
    for k, label in enumerate(BATH_LABELS):
        for unit in np.eye(2 * _PAIRS[label]):
            block = _BUILDERS[label](*(RatePair(down=down, up=up)
                                       for down, up in unit.reshape(-1, 2)))
            row = np.zeros((len(BATH_LABELS), 27))
            row[k] = np.concatenate([_reduce_block(block).ravel(),
                                     block[_DECAYING, _DECAYING].real])
            rows.append(row.ravel())
    return np.array(rows)


_TEMPLATES = _templates()
#: reduced unitary block per unit of omega_3 - omega_2
_REDUCED_UNITARY = _reduce_block(_unitary_block((0.0, 0.0, 1.0)))
#: point columns of the bath parameters of each pair
_PAIR_COLUMNS = np.array([[POINT_COLUMNS.index(f"{field}_{label}")
                           for label in BATH_LABELS
                           for _ in range(_PAIRS[label])]
                          for field in BathColumns._fields])


@dataclass(frozen=True)
class ReducedGenerators:
    """Partial-secular generators of stacked device points, on the closed
    block in the real form of ``_reduce_block``.

    ``matrix`` is the whole closed block, ``dissipators`` and ``unitary``
    its parts. ``decay`` holds the diagonal of the full generator at rho_12
    and rho_13; those rows have no other entry. Points whose omega_2 is
    negative, outside the rates' domain (large g), are flagged in
    ``out_of_domain`` and built at omega_2 = 0.
    """

    matrix: np.ndarray       # (N, 5, 5)
    dissipators: np.ndarray  # (N, 3, 5, 5), baths in BATH_LABELS order
    unitary: np.ndarray      # (N, 5, 5)
    decay: np.ndarray        # (N, 2), complex
    eig: EigenSystem         # of (N,) arrays
    out_of_domain: np.ndarray


def reduced_partial_secular(points: np.ndarray) -> ReducedGenerators:
    """``build_partial_secular`` of every row of stacked device points, on
    the closed block: the first stage of the package's steady-state path,
    before solver.reduced_steady_states and observables.current_table.

    The rates of all nine pairs come from one transition_rates call, and
    all blocks from one product of the rate values with templates taken
    from the 9x9 builders, so the two forms share every coefficient.
    """
    n = len(points)
    eig = eigensystem(point_column(points, "omega_a"),
                      point_column(points, "omega_b"),
                      point_column(points, "g"))
    out_of_domain = eig.omega_2 < 0
    if np.count_nonzero(out_of_domain):
        eig = replace(eig, omega_2=np.where(out_of_domain, 0.0, eig.omega_2))
    channels = [_channel_weights(eig, label) for label in BATH_LABELS]
    frequencies = np.array([f for group, _ in channels for f in group])
    weights = np.array([w for _, group in channels for w in group])
    bath = BathColumns(*points[:, _PAIR_COLUMNS].transpose(1, 2, 0))
    bare = transition_rates(frequencies, bath)
    rates = np.array([weights * bare.down, weights * bare.up]).T  # (N, 9, 2)
    blocks = (rates.reshape(n, -1) @ _TEMPLATES).reshape(n, 3, 27)
    dissipators = blocks[:, :, :25].reshape(n, 3, 5, 5)
    unitary = (eig.omega_3 - eig.omega_2)[:, None, None] * _REDUCED_UNITARY
    return ReducedGenerators(
        matrix=dissipators.sum(axis=1) + unitary,
        dissipators=dissipators,
        unitary=unitary,
        decay=(blocks[:, :, 25:].sum(axis=1)
               + 2j * np.array([eig.omega_2, eig.omega_3]).T),
        eig=eig, out_of_domain=out_of_domain)


#: reduced work-bath dissipator per unit of each of its two rates
_REDUCED_WORK_PER_RATE = _reduce_block(_work_bath_block(RatePair(1.0, 1.0)))


def reduced_work_slope(points: np.ndarray, eig: EigenSystem) -> np.ndarray:
    """Derivative in T_w of the reduced work-bath dissipator of stacked
    device points, (N, 5, 5), with ``eig`` their eigensystem.

    The work bath has one rate pair, at capital_omega with unit weight,
    and both of its rates share one slope in the temperature.
    """
    bath = BathColumns(*(point_column(points, f"{field}_w")
                         for field in BathColumns._fields))
    slope = rate_temperature_slope(eig.capital_omega, bath)
    return slope[:, None, None] * _REDUCED_WORK_PER_RATE


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
