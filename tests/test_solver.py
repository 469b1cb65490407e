import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

import trithermal.solver as solver
from trithermal.model import (
    BARE,
    EIGEN,
    BathSpec,
    ConfigError,
    DensityMatrix,
    DeviceConfig,
    SystemParams,
    diagonalize,
    stack_points,
)
from trithermal.generator import reduced_partial_secular
from trithermal.rates import FrequencyDomainError
from trithermal.solver import (
    StepSizeError,
    SteadyStateError,
    Trajectory,
    analytic_diagonal_steady_state,
    default_timestep,
    evolve,
    trajectory_csv,
)

from reference import (
    build_full_secular,
    build_partial_secular,
    detailed_balance_residual,
    steady_state,
    vectorize,
)
from test_current_reports import devices
from test_model import make_config


def reduced(config):
    """The package's generator of one device, as evolve takes it."""
    return reduced_partial_secular(stack_points([config]))


class TestSteadyState:
    def test_null_vector_and_state_properties(self):
        gen = build_partial_secular(make_config())
        rho = steady_state(gen)
        residual = np.max(np.abs(gen.matrix @ vectorize(rho.matrix)))
        assert residual < 1e-12 * np.max(np.abs(gen.matrix))
        rho.check()
        assert rho.basis == EIGEN

    def test_identical_baths_give_gibbs_state(self):
        """With all three terminals at one temperature the device must
        thermalize: eigenbasis Gibbs populations, no residual coherence."""
        t = 1.3
        config = DeviceConfig(
            system=SystemParams(1.0, 0.8, 0.05),
            baths=(BathSpec("h", t, 0.008, 50.0),
                   BathSpec("c", t, 0.008, 50.0),
                   BathSpec("w", t, 0.008, 50.0)))
        rho = steady_state(build_partial_secular(config))
        eig = diagonalize(config.system)
        weights = np.exp(-np.array([0.0, eig.omega_2, eig.omega_3]) / t)
        weights /= weights.sum()
        assert np.max(np.abs(rho.populations - weights)) < 1e-12
        assert abs(rho.excited_coherence) < 1e-13

    def test_matches_analytic_oracle_at_zero_coupling(self):
        config = make_config(g=0.0)
        numeric = steady_state(build_full_secular(config))
        analytic = analytic_diagonal_steady_state(config)
        assert np.max(np.abs(numeric.matrix - analytic.matrix)) < 1e-14

    def test_basis_covariance_at_zero_coupling(self):
        """Partial-secular (eigenbasis) and Lindblad (bare) routes agree on
        the g = 0 steady state, where the two bases coincide."""
        config = make_config(g=0.0)
        from_partial = steady_state(build_partial_secular(config))
        from_full = steady_state(build_full_secular(config))
        assert np.max(np.abs(from_partial.matrix - from_full.matrix)) < 1e-13

    def test_decoupled_device_is_degenerate(self):
        config = DeviceConfig(
            system=SystemParams(1.0, 0.8, 0.0),
            baths=(BathSpec("h", 1.0, 0.0, 50.0),
                   BathSpec("c", 0.85, 0.0, 50.0),
                   BathSpec("w", 2.0, 0.0, 50.0)))
        with pytest.raises(SteadyStateError, match="degenerate"):
            steady_state(build_full_secular(config))


class TestAnalyticOracle:
    def test_requires_zero_coupling(self):
        with pytest.raises(ConfigError):
            analytic_diagonal_steady_state(make_config(g=0.01))

    def test_detailed_balance_holds_at_oracle_state(self):
        config = make_config(g=0.0, t_c=0.5, t_w=3.0)
        rho = analytic_diagonal_steady_state(config)
        for residual in detailed_balance_residual(config, rho):
            assert abs(residual) < 1e-18

    def test_detailed_balance_rejects_coherent_state(self):
        config = make_config(g=0.0)
        m = np.eye(3, dtype=complex) / 3
        m[1, 2] = m[2, 1] = 0.1
        with pytest.raises(ConfigError, match="diagonal"):
            detailed_balance_residual(config, DensityMatrix(m, BARE))


class TestEvolve:
    def test_relaxes_to_steady_state(self):
        config = make_config()
        trajectory = evolve(reduced(config), DensityMatrix.pure(1, EIGEN),
                            2000.0, sample_stride=200)
        target = steady_state(build_partial_secular(config))
        assert np.max(np.abs(trajectory.final().matrix - target.matrix)) < 1e-8

    def test_steady_state_is_fixed_point(self):
        config = make_config()
        rho = steady_state(build_partial_secular(config))
        trajectory = evolve(reduced(config), rho, 50.0, sample_stride=100)
        assert np.max(np.abs(trajectory.final().matrix - rho.matrix)) < 1e-12

    def test_trace_conserved(self):
        trajectory = evolve(reduced(make_config()),
                            DensityMatrix.pure(2, EIGEN), 200.0,
                            sample_stride=50)
        assert np.max(np.abs(trajectory.traces() - 1.0)) < 1e-9

    def test_fourth_order_accuracy(self):
        """Halving the step cuts the error against expm by about 2^4."""
        config = make_config()
        rho0 = DensityMatrix.pure(2, EIGEN)
        t = 5.0
        exact = (expm(t * build_partial_secular(config).matrix)
                 @ vectorize(rho0.matrix))

        def error(dt):
            final = evolve(reduced(config), rho0, t, dt=dt,
                           sample_stride=int(round(t / dt))).final()
            return np.max(np.abs(vectorize(final.matrix) - exact))

        ratio = error(0.2) / error(0.1)
        assert 10.0 < ratio < 22.0

    def test_large_step_raises(self):
        with pytest.raises(StepSizeError) as info:
            evolve(reduced(make_config()), DensityMatrix.pure(1, EIGEN), 1e5,
                   dt=600.0)
        assert info.value.suggested_dt == pytest.approx(60.0)

    def test_overflowing_step_raises(self):
        """A step whose RK4 update overflows gives a NaN trace, which is
        drift too, not a LinAlgError from the eigenvalues of NaN states."""
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StepSizeError, match="drift nan"):
                evolve(reduced(make_config()), DensityMatrix.pure(1, EIGEN),
                       200.0, dt=1e300)

    def test_sample_count_is_capped(self, monkeypatch):
        """A run of more than MAX_SAMPLES samples is refused before
        anything is integrated; one of exactly MAX_SAMPLES runs."""
        monkeypatch.setattr(solver, "MAX_SAMPLES", 10)
        gen = reduced(make_config())
        pure = DensityMatrix.pure(1, EIGEN)
        assert len(evolve(gen, pure, 20.0, dt=1.0,
                          sample_stride=2).times) == 11
        with pytest.raises(ConfigError, match="11 samples exceed the limit "
                                              "of 10"):
            evolve(gen, pure, 21.0, dt=1.0, sample_stride=2)

    def test_argument_validation(self):
        gen = reduced(make_config())
        pure = DensityMatrix.pure(1, EIGEN)
        with pytest.raises(ConfigError):
            evolve(gen, DensityMatrix.pure(1, BARE), 1.0)
        with pytest.raises(ConfigError):
            evolve(gen, pure, 1.0, dt=-0.1)
        with pytest.raises(ConfigError):
            evolve(gen, pure, 1.0, sample_stride=0)
        # t_final / dt beyond the float range, with or without a stride
        for stride in (None, 5):
            with pytest.raises(ConfigError, match="finite number of steps"):
                evolve(gen, pure, 1e10, dt=1e-300, sample_stride=stride)
        # the closed block cannot carry rho_12 or rho_13
        for entry in ((0, 1), (0, 2), (1, 0), (2, 0)):
            m = np.eye(3, dtype=complex) / 3
            m[entry] = 0.1j
            with pytest.raises(ConfigError, match="rho_12 or rho_13"):
                evolve(gen, DensityMatrix(m, EIGEN), 1.0)
        with pytest.raises(ConfigError, match="one point"):
            evolve(reduced_partial_secular(stack_points([make_config()] * 2)),
                   pure, 1.0)
        # omega_2 < 0 is outside the rates' domain, as for the 9x9 builder
        with pytest.raises(FrequencyDomainError):
            evolve(reduced(make_config(g=1.2)), pure, 1.0)

    def test_default_timestep_scale(self):
        config = make_config()
        dt = default_timestep(reduced(config))
        assert dt == pytest.approx(0.01 / np.max(np.abs(np.diag(
            build_partial_secular(config).matrix))))


#: bound on the error of a sample of the reduced RK4 trajectory against
#: the exponential of the 9x9 generator, per RK4 step taken to reach it.
#: Measured over 2442 trajectory-generator pairs (600 random devices in
#: the ranges of ``devices``, a quarter at g = 0 and 15% of each draw at
#: either end of its range, each pure level, t = 1 to 500, default step):
#: at most 6.9e-15 per step, where the RK4 truncation of the fast rho_23
#: rotation dominates (t <= 20), and 2.6e-16 by t = 200
EXPM_ERROR_PER_STEP = 2e-14


@settings(max_examples=40, deadline=None)
@given(devices(g=st.one_of(st.just(0.0), st.floats(0.0, 0.3))),
       st.sampled_from([1, 2, 3]), st.floats(1.0, 500.0))
def test_matches_the_9x9_exponential(config, level, t_final):
    """Each pure level's reduced trajectory against expm(t L) of the 9x9
    partial-secular generator, and at g = 0 of the Lindblad generator
    built from jump operators."""
    rho0 = DensityMatrix.pure(level, EIGEN)
    trajectory = evolve(reduced(config), rho0, t_final)
    references = [build_partial_secular(config).matrix]
    if config.system.g == 0.0:
        references.append(build_full_secular(config).matrix)
    matrices = trajectory.matrices()
    samples = np.unique(np.linspace(0, len(trajectory.times) - 1, 6)
                        .astype(int))
    for k in samples:
        t = trajectory.times[k]
        bound = EXPM_ERROR_PER_STEP * max(t / trajectory.dt, 1.0)
        for L in references:
            exact = expm(t * L) @ vectorize(rho0.matrix)
            assert np.max(np.abs(vectorize(matrices[k]) - exact)) <= bound


def test_trajectory_csv_shape():
    trajectory = evolve(reduced(make_config()), DensityMatrix.pure(3, EIGEN),
                        10.0, sample_stride=100)
    lines = trajectory_csv(trajectory).strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[-2:] == ["min_eigenvalue", "trace"]
    assert len(header) == 21
    first = dict(zip(header, (float(x) for x in lines[1].split(","))))
    assert first["t"] == 0.0
    assert first["re_33"] == 1.0
    assert first["trace"] == pytest.approx(1.0)


def cell_by_cell_csv(trajectory):
    """trajectory_csv as csv.writer wrote it, one formatted cell at a
    time: the oracle of its row templates."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["t"]
    for i in range(3):
        for j in range(3):
            header += [f"re_{i + 1}{j + 1}", f"im_{i + 1}{j + 1}"]
    header += ["min_eigenvalue", "trace"]
    writer.writerow(header)
    for t, m, low, trace in zip(trajectory.times, trajectory.matrices(),
                                trajectory.min_eigenvalues,
                                trajectory.traces()):
        row = [f"{t:.17g}"]
        for i in range(3):
            for j in range(3):
                row += [f"{m[i, j].real:.17g}", f"{m[i, j].imag:.17g}"]
        row += [f"{low:.17g}", f"{trace:.17g}"]
        writer.writerow(row)
    return buffer.getvalue()


#: floats with the signed zeros, infinities, NaN and subnormals forced in
FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                          -5e-324, 2.2250738585072009e-308]) | st.floats()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_trajectory_csv_matches_the_cell_by_cell_writer(data):
    """The same bytes as the oracle, whatever the floats: w = +-0 puts 0
    or -0 in im_32, and the specials print as the oracle prints them."""
    n = data.draw(st.integers(0, 4))
    trajectory = Trajectory(
        times=data.draw(arrays(np.float64, n, elements=FLOATS)),
        states=data.draw(arrays(np.float64, (n, 5), elements=FLOATS)),
        min_eigenvalues=data.draw(arrays(np.float64, n, elements=FLOATS)),
        dt=0.01, sample_stride=1)
    # 0 * inf in u + 1j w, and inf - inf or an overflow in the trace, give
    # the oracle the same NaN or inf
    with np.errstate(invalid="ignore", over="ignore"):
        assert trajectory_csv(trajectory) == cell_by_cell_csv(trajectory)
