import numpy as np
import pytest
from hypothesis import given, strategies as st

from trithermal.model import (
    BARE,
    EIGEN,
    ConfigError,
    DensityMatrix,
    SystemParams,
    diagonalize,
)
from trithermal.rates import transition_rates

from reference import (
    FULL_SECULAR,
    PARTIAL_SECULAR,
    build_full_secular,
    build_partial_secular,
    unvectorize,
    vectorize,
)
from test_model import make_config


def random_hermitian(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return m + m.conj().T


class TestVectorization:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(rng)
        assert np.array_equal(unvectorize(vectorize(m)), m)

    def test_column_stacking(self):
        m = np.arange(9).reshape(3, 3)
        v = vectorize(m)
        assert v[1] == m[1, 0]
        assert v[3] == m[0, 1]


class TestPartialSecular:
    def test_block_sum(self):
        gen = build_partial_secular(make_config())
        total = gen.unitary + sum(gen.dissipators.values())
        assert np.array_equal(gen.matrix, total)
        assert gen.mode == PARTIAL_SECULAR
        assert gen.basis == EIGEN

    def test_trace_preserving(self):
        """The three population rows of the generator sum to zero."""
        gen = build_partial_secular(make_config(g=0.07))
        for block in (gen.matrix, *gen.dissipators.values()):
            assert np.max(np.abs(block[0] + block[4] + block[8])) < 1e-15

    def test_preserves_hermiticity(self):
        gen = build_partial_secular(make_config())
        rng = np.random.default_rng(3)
        for _ in range(5):
            rho = random_hermitian(rng)
            drho = unvectorize(gen.matrix @ vectorize(rho))
            assert np.max(np.abs(drho - drho.conj().T)) < 1e-13

    def test_spectrum(self):
        """Exactly one zero mode; every other eigenvalue strictly decaying."""
        gen = build_partial_secular(make_config())
        eigenvalues = np.linalg.eigvals(gen.matrix)
        zero_modes = np.sum(np.abs(eigenvalues) < 1e-12)
        assert zero_modes == 1
        decaying = eigenvalues[np.abs(eigenvalues) >= 1e-12]
        assert np.max(decaying.real) < 0

    def test_cross_terms_carry_opposite_signs(self):
        """The coherence source from the hot bath opposes the cold one.

        Row rho_23, column rho_11: -f1 (sum of hot absorption rates) from
        the hot dissipator and +f1 (sum of cold absorption rates) from the
        cold one. The relative sign is what the interference of the two
        decay channels dictates and is what sustains a nonzero steady-state
        coherence only when the baths differ.
        """
        config = make_config(g=0.05)
        eig = diagonalize(config.system)
        h2 = transition_rates(eig.omega_2, config.bath("h"))
        h3 = transition_rates(eig.omega_3, config.bath("h"))
        c2 = transition_rates(eig.omega_2, config.bath("c"))
        c3 = transition_rates(eig.omega_3, config.bath("c"))
        gen = build_partial_secular(config)
        row_23 = 7  # vec index of rho_23
        assert gen.dissipators["h"][row_23, 0] == pytest.approx(
            -eig.f1 * (h2.up + h3.up), rel=1e-14)
        assert gen.dissipators["c"][row_23, 0] == pytest.approx(
            +eig.f1 * (c2.up + c3.up), rel=1e-14)

    def test_channel_weights(self):
        """Hot bath feeds level 3 with weight f2, level 2 with f3; the cold
        bath the other way around."""
        config = make_config(g=0.05)
        eig = diagonalize(config.system)
        h3 = transition_rates(eig.omega_3, config.bath("h"))
        c2 = transition_rates(eig.omega_2, config.bath("c"))
        gen = build_partial_secular(config)
        assert gen.dissipators["h"][8, 0] == pytest.approx(
            2.0 * eig.f2 * h3.up, rel=1e-14)
        assert gen.dissipators["c"][4, 0] == pytest.approx(
            2.0 * eig.f2 * c2.up, rel=1e-14)

    def test_work_bath_couples_excited_doublet_only(self):
        config = make_config()
        eig = diagonalize(config.system)
        w = transition_rates(eig.capital_omega, config.bath("w"))
        block = build_partial_secular(config).dissipators["w"]
        assert block[8, 4] == pytest.approx(2.0 * w.up, rel=1e-14)
        assert block[0, 0] == 0.0  # the ground population is untouched


class TestFullSecular:
    def test_requires_uncoupled(self):
        with pytest.raises(ConfigError):
            build_full_secular(make_config(g=0.01))

    def test_matches_partial_secular_at_zero_coupling(self):
        """At g = 0 the eigenbasis coincides with the bare basis and the two
        builders must produce the same superoperator."""
        config = make_config(g=0.0)
        partial = build_partial_secular(config)
        full = build_full_secular(config)
        assert np.max(np.abs(partial.matrix - full.matrix)) < 1e-14
        assert full.mode == FULL_SECULAR
        assert full.basis == BARE

    @given(st.floats(2.5e-4, 1e-2))
    def test_small_coupling_convergence(self, epsilon):
        """The partial-secular generator approaches the Lindblad one as the
        inner coupling closes: interference weights shrink linearly and the
        level-splitting shift in the coherence rotation quadratically."""
        config = make_config(g=0.0)
        full = build_full_secular(config).matrix
        partial = build_partial_secular(config.with_coupling(epsilon)).matrix
        assert np.max(np.abs(partial - full)) < (0.05 * epsilon
                                                 + 25.0 * epsilon ** 2)


class TestDissipatorApply:
    def test_work_bath_on_pure_state(self):
        config = make_config()
        eig = diagonalize(config.system)
        w = transition_rates(eig.capital_omega, config.bath("w"))
        gen = build_partial_secular(config)
        flow = unvectorize(gen.dissipators["w"]
                           @ vectorize(DensityMatrix.pure(2, EIGEN).matrix))
        assert flow[2, 2].real == pytest.approx(2.0 * w.up, rel=1e-14)
        assert flow[1, 1].real == pytest.approx(-2.0 * w.up, rel=1e-14)
        assert np.trace(flow).real == pytest.approx(0.0, abs=1e-16)
