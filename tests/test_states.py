import math

import numpy as np
import pytest

from coherence_lab import linalg
from coherence_lab.errors import StateValidationError, UnsupportedParameterError
from coherence_lab.sampling import haar_unitary, random_bloch
from coherence_lab.states import (
    AllowedUnitary,
    BipartiteGenerator,
    BlochState,
    DensityMatrix,
    NumberOperator,
    _generator_layout,
    bloch_from_json,
    bloch_to_density,
    density_from_json,
    density_to_bloch,
    density_to_json,
    isotropic_state,
)


class TestDensityMatrixValidation:
    def test_accepts_valid_state(self):
        rho = DensityMatrix(np.array([[0.7, 0.2], [0.2, 0.3]]))
        assert rho.dim == 2

    def test_rejects_non_hermitian_with_residual(self):
        with pytest.raises(StateValidationError, match="not Hermitian.*2.000e-01"):
            DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateValidationError, match="trace differs from 1"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(StateValidationError, match="not positive semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0

    def test_evolve_keeps_validity(self):
        rho = DensityMatrix(np.diag([0.6, 0.4]))
        u = haar_unitary(2, np.random.default_rng(0))
        evolved = rho.evolve(u)
        assert evolved.purity() == pytest.approx(rho.purity(), abs=1e-12)


class TestBloch:
    def test_north_pole(self):
        rho = bloch_to_density(BlochState(0.0, 0.0, 1.0))
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_center_is_maximally_mixed(self):
        rho = bloch_to_density(BlochState(0.0, 0.0, 0.0))
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)

    def test_surface_state_is_pure(self):
        b = BlochState(0.6, 0.0, 0.8)
        rho = bloch_to_density(b)
        # purity identity tr(rho^2) = (1 + |n|^2) / 2
        assert rho.purity() == pytest.approx((1.0 + b.norm() ** 2) / 2.0, abs=1e-12)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_norm_above_one_rejected(self):
        with pytest.raises(StateValidationError, match="exceeds 1"):
            BlochState(0.8, 0.0, 0.8)

    def test_non_finite_components_rejected(self):
        for components in ((math.nan, 0.0, 0.5), (0.0, math.inf, 0.0), (0.1, 0.0, -math.inf)):
            with pytest.raises(StateValidationError, match="non-finite"):
                BlochState(*components)

    def test_huge_finite_components_rejected_by_norm(self):
        # squaring 1e200 overflows; the norm check must still report the norm
        with pytest.raises(StateValidationError, match="norm"):
            BlochState(1e200, 0.0, 0.0)
        assert BlochState(3e-200, 4e-200, 0.0).norm() == pytest.approx(5e-200, rel=1e-15)

    def test_density_to_bloch_requires_qubit(self):
        with pytest.raises(UnsupportedParameterError, match="qubit"):
            density_to_bloch(DensityMatrix(np.eye(3) / 3))

    def test_round_trip_on_random_vectors(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            b = random_bloch(rng)
            back = density_to_bloch(bloch_to_density(b))
            assert abs(back.nx - b.nx) <= 1e-12
            assert abs(back.ny - b.ny) <= 1e-12
            assert abs(back.nz - b.nz) <= 1e-12


class TestBipartiteGenerator:
    def test_qutrit_degeneracies(self):
        gen = BipartiteGenerator(NumberOperator(3))
        assert [gen.block_dim(c) for c in range(5)] == [1, 2, 3, 2, 1]

    def test_dim_four_degeneracies(self):
        gen = BipartiteGenerator(NumberOperator(4))
        assert [gen.block_dim(c) for c in range(7)] == [1, 2, 3, 4, 3, 2, 1]

    def test_block_basis_ordering(self):
        # eigenvalue 2 of two qutrits spans |02>, |11>, |20> in that order
        gen = BipartiteGenerator(NumberOperator(3))
        np.testing.assert_array_equal(gen.block_indices(2), [2, 4, 6])

    def test_matrix_matches_sum_of_local_terms(self):
        gen = BipartiteGenerator(NumberOperator(3))
        local = np.diag(np.arange(3)).astype(complex)
        expected = np.kron(local, np.eye(3)) + np.kron(np.eye(3), local)
        np.testing.assert_array_equal(gen.matrix, expected)

    def test_layout_is_shared_and_read_only(self):
        gen, again = BipartiteGenerator(NumberOperator(3)), BipartiteGenerator(NumberOperator(3))
        assert gen.index_eigenvalues is again.index_eigenvalues
        with pytest.raises(ValueError):
            gen.index_eigenvalues[0] = 7
        for idx in _generator_layout(3)[0]:
            assert not idx.flags.writeable
        idx = gen.block_indices(2)
        idx[0] = 99
        np.testing.assert_array_equal(again.block_indices(2), [2, 4, 6])

    def test_projectors_resolve_identity(self):
        gen = BipartiteGenerator(NumberOperator(4))
        total = sum(gen.projector(c) for c in range(gen.n_eigenvalues))
        np.testing.assert_array_equal(total, np.eye(16))


class TestAllowedUnitary:
    def test_identity_blocks_assemble_to_identity(self):
        gen = BipartiteGenerator(NumberOperator(3))
        blocks = tuple(np.eye(gen.block_dim(c)) for c in range(gen.n_eigenvalues))
        np.testing.assert_array_equal(AllowedUnitary(gen, blocks).matrix, np.eye(9))

    def test_middle_block_rotation_matches_documented_matrix(self):
        gen = BipartiteGenerator(NumberOperator(2))
        theta = 0.3
        c, s = math.cos(theta), math.sin(theta)
        u = AllowedUnitary(gen, (np.eye(1), np.array([[c, -s], [s, c]]), np.eye(1)))
        expected = np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]])
        np.testing.assert_allclose(u.matrix, expected, atol=1e-15)

    def test_random_blocks_commute_with_generator(self):
        gen = BipartiteGenerator(NumberOperator(3))
        rng = np.random.default_rng(5)
        blocks = tuple(haar_unitary(gen.block_dim(c), rng) for c in range(gen.n_eigenvalues))
        u = AllowedUnitary(gen, blocks).matrix
        residual = np.abs(u @ gen.matrix - gen.matrix @ u).max()
        assert residual < 1e-9

    def test_rejects_non_unitary_block(self):
        gen = BipartiteGenerator(NumberOperator(2))
        with pytest.raises(StateValidationError, match="block 1 not unitary"):
            AllowedUnitary(gen, (np.eye(1), np.array([[1.0, 0.0], [0.0, 2.0]]), np.eye(1)))

    def test_rejects_wrong_block_count(self):
        gen = BipartiteGenerator(NumberOperator(2))
        with pytest.raises(StateValidationError, match="expected 3 blocks"):
            AllowedUnitary(gen, (np.eye(1), np.eye(2)))

    def test_translation_covariance(self):
        # commuting with the generator means commuting with every generated phase
        rng = np.random.default_rng(23)
        for d in (2, 3):
            gen = BipartiteGenerator(NumberOperator(d))
            blocks = tuple(haar_unitary(gen.block_dim(c), rng) for c in range(gen.n_eigenvalues))
            u = AllowedUnitary(gen, blocks).matrix
            for _ in range(5):
                x = rng.uniform(0.0, 2.0 * math.pi)
                phases = np.diag(np.exp(-1j * gen.index_eigenvalues * x))
                assert np.abs(u @ phases - phases @ u).max() <= 1e-8


class TestGlobalSymmetryImpliesLocalSymmetry:
    def test_block_diagonal_states_have_symmetric_marginals(self):
        rng = np.random.default_rng(99)
        for d in (2, 3):
            gen = BipartiteGenerator(NumberOperator(d))
            for _ in range(10):
                joint = np.zeros((d * d, d * d), dtype=complex)
                for c in range(gen.n_eigenvalues):
                    idx = gen.block_indices(c)
                    g = rng.standard_normal((idx.size, idx.size)) + 1j * rng.standard_normal(
                        (idx.size, idx.size)
                    )
                    joint[np.ix_(idx, idx)] = g @ g.conj().T
                joint /= np.trace(joint).real
                rho_ab = DensityMatrix(joint)
                assert np.abs(rho_ab.matrix @ gen.matrix - gen.matrix @ rho_ab.matrix).max() <= 1e-12
                rho_a = linalg.partial_trace_b(rho_ab.matrix, d, d)
                assert np.abs(rho_a - np.diag(np.diagonal(rho_a))).max() <= 1e-12


class TestJsonFormats:
    def test_density_round_trip(self):
        rho = isotropic_state(0.4)
        again = density_from_json(density_to_json(rho))
        np.testing.assert_allclose(again.matrix, rho.matrix, atol=1e-15)

    def test_parser_rejects_invariant_violation_with_residual(self):
        obj = {"dim": 2, "re": [[0.5, 0.3], [0.1, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(StateValidationError, match="not Hermitian.*residual"):
            density_from_json(obj)

    def test_parser_rejects_missing_key(self):
        with pytest.raises(StateValidationError, match="missing key 'im'"):
            density_from_json({"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]]})

    def test_parser_rejects_shape_mismatch(self):
        obj = {"dim": 3, "re": [[1.0]], "im": [[0.0]]}
        with pytest.raises(StateValidationError, match="shapes"):
            density_from_json(obj)

    def test_bloch_rejects_missing_component(self):
        with pytest.raises(StateValidationError, match="missing key 'nz'"):
            bloch_from_json({"nx": 0.5})


class TestNamedStates:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = isotropic_state(1.0)
        np.testing.assert_allclose(linalg.partial_trace_b(rho.matrix, 2, 2), np.eye(2) / 2, atol=1e-15)

    def test_isotropic_validates_mixing_parameter(self):
        with pytest.raises(UnsupportedParameterError, match="\\[0, 1\\]"):
            isotropic_state(1.5)

    def test_isotropic_extremes(self):
        np.testing.assert_allclose(isotropic_state(0.0).matrix, np.eye(4) / 4, atol=1e-15)
        bell = np.zeros((4, 4))
        bell[np.ix_([0, 3], [0, 3])] = 0.5
        np.testing.assert_allclose(isotropic_state(1.0).matrix, bell, atol=1e-15)
