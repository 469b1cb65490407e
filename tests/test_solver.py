import numpy as np
import pytest
from scipy.linalg import expm

from trithermal.model import (
    BARE,
    EIGEN,
    BathSpec,
    ConfigError,
    DensityMatrix,
    DeviceConfig,
    SystemParams,
    diagonalize,
)
from trithermal.generator import build_full_secular, build_partial_secular, vectorize
from trithermal.solver import (
    StepSizeError,
    SteadyStateError,
    analytic_diagonal_steady_state,
    default_timestep,
    evolve,
    trajectory_csv,
)

from reference import detailed_balance_residual, steady_state
from test_model import make_config


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
        gen = build_partial_secular(make_config())
        trajectory = evolve(gen, DensityMatrix.pure(1, EIGEN), 2000.0,
                            sample_stride=200)
        target = steady_state(gen)
        assert np.max(np.abs(trajectory.final().matrix - target.matrix)) < 1e-8

    def test_steady_state_is_fixed_point(self):
        gen = build_partial_secular(make_config())
        rho = steady_state(gen)
        trajectory = evolve(gen, rho, 50.0, sample_stride=100)
        assert np.max(np.abs(trajectory.final().matrix - rho.matrix)) < 1e-12

    def test_trace_conserved(self):
        gen = build_partial_secular(make_config())
        trajectory = evolve(gen, DensityMatrix.pure(2, EIGEN), 200.0,
                            sample_stride=50)
        assert np.max(np.abs(trajectory.traces() - 1.0)) < 1e-9

    def test_fourth_order_accuracy(self):
        """Halving the step cuts the error against expm by about 2^4."""
        gen = build_partial_secular(make_config())
        rho0 = DensityMatrix.pure(2, EIGEN)
        t = 5.0
        exact = expm(t * gen.matrix) @ vectorize(rho0.matrix)

        def error(dt):
            final = evolve(gen, rho0, t, dt=dt,
                           sample_stride=int(round(t / dt))).final()
            return np.max(np.abs(vectorize(final.matrix) - exact))

        ratio = error(0.2) / error(0.1)
        assert 10.0 < ratio < 22.0

    def test_large_step_raises(self):
        gen = build_partial_secular(make_config())
        with pytest.raises(StepSizeError) as info:
            evolve(gen, DensityMatrix.pure(1, EIGEN), 1e5, dt=600.0)
        assert info.value.suggested_dt == pytest.approx(60.0)

    def test_argument_validation(self):
        gen = build_partial_secular(make_config())
        with pytest.raises(ConfigError):
            evolve(gen, DensityMatrix.pure(1, BARE), 1.0)
        with pytest.raises(ConfigError):
            evolve(gen, DensityMatrix.pure(1, EIGEN), 1.0, dt=-0.1)
        with pytest.raises(ConfigError):
            evolve(gen, DensityMatrix.pure(1, EIGEN), 1.0, sample_stride=0)

    def test_default_timestep_scale(self):
        gen = build_partial_secular(make_config())
        dt = default_timestep(gen)
        assert dt == pytest.approx(
            0.01 / np.max(np.abs(np.diag(gen.matrix))))


def test_trajectory_csv_shape():
    gen = build_partial_secular(make_config())
    trajectory = evolve(gen, DensityMatrix.pure(3, EIGEN), 10.0,
                        sample_stride=100)
    lines = trajectory_csv(trajectory).strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[-2:] == ["min_eigenvalue", "trace"]
    assert len(header) == 21
    first = dict(zip(header, (float(x) for x in lines[1].split(","))))
    assert first["t"] == 0.0
    assert first["re_33"] == 1.0
    assert first["trace"] == pytest.approx(1.0)
