import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trithermal.model import (
    BathSpec,
    ConfigError,
    DeviceConfig,
    SystemParams,
    eigensystem,
)

from reference import check_density


def make_config(omega_b=0.8, g=0.02, t_h=1.0, t_c=0.85, t_w=2.0):
    return DeviceConfig(
        system=SystemParams(1.0, omega_b, g),
        baths=(BathSpec("h", t_h, 0.008, 50.0),
               BathSpec("c", t_c, 0.008, 50.0),
               BathSpec("w", t_w, 0.008, 50.0)))


class TestSystemParams:
    def test_delta(self):
        assert SystemParams(1.0, 0.8).delta == pytest.approx(0.2)

    @pytest.mark.parametrize("kwargs", [
        dict(omega_a=0.0, omega_b=0.5),
        dict(omega_a=1.0, omega_b=0.0),
        dict(omega_a=1.0, omega_b=-0.5),
        dict(omega_a=0.8, omega_b=1.0),   # ordering violated
        dict(omega_a=1.0, omega_b=0.8, g=-0.01),
        dict(omega_a=1.0, omega_b=0.8, g=math.nan),
        dict(omega_a=1.0, omega_b=0.8, g=math.inf),
        dict(omega_a=math.inf, omega_b=0.8),
        dict(omega_a=math.inf, omega_b=math.inf),
        dict(omega_a=1.0, omega_b=math.nan),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SystemParams(**kwargs)

    def test_degenerate_levels_allowed(self):
        # omega_a == omega_b is a valid configuration (maximal mixing)
        SystemParams(1.0, 1.0, 0.05)


class TestDiagonalize:
    def test_matches_dense_eigensolver(self):
        eig = eigensystem(1.0, 0.8, 0.02)
        block = np.array([[1.0, 0.02], [0.02, 0.8]])
        expected = np.linalg.eigvalsh(block)
        assert eig.omega_2 == pytest.approx(expected[0], rel=1e-14)
        assert eig.omega_3 == pytest.approx(expected[1], rel=1e-14)

    def test_uncoupled_limit(self):
        eig = eigensystem(1.0, 0.8, 0.0)
        assert eig.phi == 0.0
        assert eig.f1 == 0.0
        assert eig.f2 == 1.0
        assert eig.f3 == 0.0
        assert eig.omega_2 == pytest.approx(0.8)
        assert eig.omega_3 == pytest.approx(1.0)

    def test_degenerate_levels(self):
        eig = eigensystem(1.0, 1.0, 0.05)
        assert eig.phi == pytest.approx(math.pi / 2)
        assert eig.f2 == pytest.approx(0.5)
        assert eig.f3 == pytest.approx(0.5)
        assert eig.capital_omega == pytest.approx(0.1)

    @given(st.floats(0.3, 0.99), st.floats(0.0, 0.3))
    def test_overlap_identities(self, omega_b, g):
        eig = eigensystem(1.0, omega_b, g)
        assert eig.f2 + eig.f3 == pytest.approx(1.0, abs=1e-14)
        assert eig.f1 ** 2 == pytest.approx(eig.f2 * eig.f3, abs=1e-14)
        assert eig.capital_omega == pytest.approx(eig.omega_3 - eig.omega_2,
                                                  abs=1e-13)
        # trace of the excited block is preserved
        assert eig.omega_2 + eig.omega_3 == pytest.approx(1.0 + omega_b,
                                                          rel=1e-14)

    @given(st.floats(0.3, 0.99), st.floats(1e-4, 0.3))
    def test_eigenvectors(self, omega_b, g):
        """(-sin, cos) and (cos, sin) rows diagonalize the excited block."""
        eig = eigensystem(1.0, omega_b, g)
        block = np.array([[omega_b, g], [g, 1.0]])  # basis (|b>, |a>)
        c, s = math.cos(eig.phi / 2), math.sin(eig.phi / 2)
        v2 = np.array([c, -s])
        v3 = np.array([s, c])
        assert np.allclose(block @ v2, eig.omega_2 * v2, atol=1e-12)
        assert np.allclose(block @ v3, eig.omega_3 * v3, atol=1e-12)


class TestConfig:
    def test_bath_lookup(self):
        config = make_config()
        assert config.bath("c").temperature == 0.85
        assert config.temperature("w") == 2.0

    def test_duplicate_label(self):
        with pytest.raises(ConfigError, match="duplicate bath label"):
            DeviceConfig(system=SystemParams(1.0, 0.8),
                         baths=(BathSpec("h", 1.0, 0.01, 50.0),
                                BathSpec("c", 0.5, 0.01, 50.0),
                                BathSpec("c", 0.6, 0.01, 50.0)))

    def test_missing_label(self):
        with pytest.raises(ConfigError, match="missing bath label"):
            DeviceConfig(system=SystemParams(1.0, 0.8),
                         baths=(BathSpec("h", 1.0, 0.01, 50.0),
                                BathSpec("c", 0.5, 0.01, 50.0)))

    def test_bath_validation(self):
        with pytest.raises(ConfigError):
            BathSpec("h", -1.0, 0.01, 50.0)
        with pytest.raises(ConfigError):
            BathSpec("x", 1.0, 0.01, 50.0)
        with pytest.raises(ConfigError):
            BathSpec("h", 1.0, 0.01, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["temperature", "gamma", "cutoff"])
    def test_bath_rejects_non_finite(self, field, value):
        fields = dict(temperature=1.0, gamma=0.01, cutoff=50.0)
        fields[field] = value
        with pytest.raises(ConfigError, match=f"bath h: {field} must be"):
            BathSpec("h", **fields)

    @pytest.mark.parametrize("temperature", [5e-324, 5e-309])
    def test_bath_rejects_a_temperature_without_an_inverse(self, temperature):
        with pytest.raises(ConfigError, match="bath c: temperature too close"):
            BathSpec("c", temperature, 0.01, 50.0)
        assert BathSpec("c", 6e-309, 0.01, 50.0).temperature == 6e-309

    def test_with_helpers(self):
        config = make_config()
        moved = config.with_bath_temperature("w", 3.0)
        assert moved.temperature("w") == 3.0
        assert config.temperature("w") == 2.0  # original untouched
        assert config.with_coupling(0.1).system.g == 0.1


class TestDensityMatrix:
    """The tests' check of a 3x3 density matrix (reference.check_density)."""

    def test_check_rejects_non_hermitian(self):
        m = np.eye(3, dtype=complex) / 3
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            check_density(m)

    def test_check_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density(np.diag([0.5, 0.5, 0.5]))

    def test_check_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            check_density(np.diag([1.2, -0.2, 0.0]))
