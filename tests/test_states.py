import math

import numpy as np
import pytest

import oracles
from coherence_lab import linalg
from coherence_lab.errors import StateValidationError, UnsupportedParameterError
from coherence_lab.sampling import haar_unitary, random_bloch, random_density_matrix
from coherence_lab.states import (
    BLOCH_NORM_ATOL,
    AllowedUnitary,
    BipartiteGenerator,
    BlochState,
    DensityMatrix,
    NumberOperator,
    _generator_layout,
    _padded_units,
    bloch_to_density,
    isotropic_state,
    state_from_json,
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

    def test_rejects_non_square(self):
        with pytest.raises(StateValidationError, match=r"must be square, got shape \(2, 3\)"):
            DensityMatrix(np.ones((2, 3)) / 2)

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0

    def test_evolve_keeps_validity(self):
        rho = DensityMatrix(np.diag([0.6, 0.4]))
        u = haar_unitary(2, np.random.default_rng(0))
        evolved = rho.evolve(u)
        assert evolved.purity() == pytest.approx(rho.purity(), abs=1e-12)


def test_number_operator_needs_a_level():
    with pytest.raises(UnsupportedParameterError, match="dimension must be >= 1, got 0"):
        NumberOperator(0)


@pytest.mark.parametrize("rank", [0, 4])
def test_random_density_matrix_rejects_rank_outside_the_dimension(rank):
    with pytest.raises(UnsupportedParameterError, match=rf"rank must lie in \[1, 3\], got {rank}"):
        random_density_matrix(3, rank, np.random.default_rng(0))


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
        # hypot is inf, not NaN, when one component is inf and another NaN: the report still names non-finite
        for components in ((math.nan, 0.0, 0.5), (0.0, math.inf, 0.0), (0.1, 0.0, -math.inf),
                           (math.nan, math.inf, 0.0), (math.inf, math.nan, 0.0)):
            with pytest.raises(StateValidationError, match="non-finite"):
                BlochState(*components)

    def test_huge_finite_components_rejected_by_norm(self):
        # squaring 1e200 overflows; the norm check must still report the norm
        with pytest.raises(StateValidationError, match="norm"):
            BlochState(1e200, 0.0, 0.0)
        with pytest.raises(StateValidationError, match="norm"):
            BlochState(1e200, 1e200, 0.0)
        assert BlochState(3e-200, 4e-200, 0.0).norm() == pytest.approx(5e-200, rel=1e-15)

    def test_norm_bound_is_inclusive(self):
        bound = 1.0 + BLOCH_NORM_ATOL
        assert BlochState(bound, 0.0, 0.0).norm() == bound
        with pytest.raises(StateValidationError, match="exceeds 1"):
            BlochState(math.nextafter(bound, 2.0), 0.0, 0.0)

    def test_round_trip_on_random_vectors(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            b = random_bloch(rng)
            m = bloch_to_density(b).matrix
            assert abs(m[0, 0] - (1.0 + b.nz) / 2.0) <= 1e-12
            assert abs(m[0, 1] - (b.nx + 1j * b.ny) / 2.0) <= 1e-12


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
        np.testing.assert_array_equal(np.diag(gen.index_eigenvalues), expected)

    def test_layout_is_shared_and_read_only(self):
        gen, again = BipartiteGenerator(NumberOperator(3)), BipartiteGenerator(NumberOperator(3))
        assert gen.index_eigenvalues is again.index_eigenvalues
        assert _generator_layout(3)[0] is _generator_layout(3)[0]
        for cached in (gen.index_eigenvalues, _generator_layout(3)[0]):
            with pytest.raises(ValueError):
                cached[0] = 7
        idx = gen.block_indices(2)
        idx[0] = 99
        np.testing.assert_array_equal(again.block_indices(2), [2, 4, 6])

    def test_ket_table_rows_count_each_eigenspace(self):
        for d in range(1, 9):
            kets = _generator_layout(d)[0]
            assert kets.shape == (2 * d - 1, d)
            for b, row in enumerate(kets):
                assert (row < d * d).sum() == min(b + 1, 2 * d - 1 - b)
                # a missing ket is marked d^2 at the level n whose partner b - n is out of range
                for n in range(d):
                    assert row[n] == (n * d + b - n if 0 <= b - n < d else d * d)

    def test_ket_table_reassembles_the_total_number_operator(self):
        for d in range(1, 9):
            kets = _generator_layout(d)[0]
            rebuilt = np.full(d * d, -1)
            for b, row in enumerate(kets):
                rebuilt[row[row < d * d]] = b
            local = np.diag(np.arange(d))
            np.testing.assert_array_equal(np.diag(rebuilt), np.kron(local, np.eye(d)) + np.kron(np.eye(d), local))


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
        blocks = oracles.haar_blocks_per_block(gen, np.random.default_rng(5))
        u = AllowedUnitary(gen, blocks).matrix
        n = np.diag(gen.index_eigenvalues)
        residual = np.abs(u @ n - n @ u).max()
        assert residual < 1e-9

    def test_rejects_non_unitary_block(self):
        gen = BipartiteGenerator(NumberOperator(2))
        with pytest.raises(StateValidationError, match="block 1 not unitary"):
            AllowedUnitary(gen, (np.eye(1), np.array([[1.0, 0.0], [0.0, 2.0]]), np.eye(1)))

    def test_rejects_wrong_block_count(self):
        gen = BipartiteGenerator(NumberOperator(2))
        with pytest.raises(StateValidationError, match="expected 3 blocks"):
            AllowedUnitary(gen, (np.eye(1), np.eye(2)))

    def test_matrix_matches_a_per_block_assembly_bitwise(self):
        for d in range(1, 6):
            gen = BipartiteGenerator(NumberOperator(d))
            blocks = oracles.haar_blocks_per_block(gen, np.random.default_rng(d))
            u = AllowedUnitary(gen, blocks).matrix
            want = oracles.assemble_blocks(gen, blocks)
            assert u.shape == want.shape and u.dtype == want.dtype
            assert u.tobytes() == want.tobytes(), d

    def test_rejects_wrong_block_shape_naming_the_block(self):
        gen = BipartiteGenerator(NumberOperator(3))
        blocks = [np.eye(gen.block_dim(c)) for c in range(gen.n_eigenvalues)]
        blocks[3] = np.eye(3)
        with pytest.raises(StateValidationError, match=r"block 3 has shape \(3, 3\), expected \(2, 2\)"):
            AllowedUnitary(gen, tuple(blocks))
        blocks[3] = np.eye(2)[0]
        with pytest.raises(ValueError, match="2-D"):
            AllowedUnitary(gen, tuple(blocks))

    def test_names_the_first_of_two_non_unitary_blocks(self):
        gen = BipartiteGenerator(NumberOperator(3))
        blocks = [np.eye(gen.block_dim(c)) for c in range(gen.n_eigenvalues)]
        blocks[3] = 1.5 * np.eye(2)
        with pytest.raises(StateValidationError, match="block 3 not unitary: residual 1.250e[+]00"):
            AllowedUnitary(gen, tuple(blocks))
        blocks[1] = 2.0 * np.eye(2)
        with pytest.raises(StateValidationError, match="block 1 not unitary: residual 3.000e[+]00"):
            AllowedUnitary(gen, tuple(blocks))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_a_non_finite_entry(self, bad):
        gen = BipartiteGenerator(NumberOperator(3))
        blocks = [np.eye(gen.block_dim(c), dtype=complex) for c in range(gen.n_eigenvalues)]
        blocks[2][1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            AllowedUnitary(gen, tuple(blocks))

    def test_blocks_and_matrix_share_no_memory(self):
        gen = BipartiteGenerator(NumberOperator(3))
        blocks = oracles.haar_blocks_per_block(gen, np.random.default_rng(4))
        kept = [b.copy() for b in blocks]
        u = AllowedUnitary(gen, blocks)
        first = u.matrix
        for b in blocks:
            b[...] = 7.0
        first[...] = 7.0
        for b, want in zip(u.blocks, kept):
            assert b.tobytes() == want.tobytes()
            assert not b.flags.writeable
        assert u.matrix.tobytes() == oracles.assemble_blocks(gen, kept).tobytes()
        assert u.matrix is not u.matrix

    def test_stack_constructor_checks_as_the_public_one(self):
        gen = BipartiteGenerator(NumberOperator(3))
        stack = np.broadcast_to(np.eye(3, dtype=complex), (5, 3, 3)).copy()
        stack[2, 1, 2] = math.nan
        with pytest.raises(ValueError, match="finite"):
            AllowedUnitary._from_stack(gen, stack)
        stack[2, 1, 2] = 0.0
        stack[3, 1:, 1:] *= 1.5
        with pytest.raises(StateValidationError, match="block 3 not unitary: residual 1.250e[+]00"):
            AllowedUnitary._from_stack(gen, stack)

    def test_stack_constructor_keeps_its_own_copy(self):
        gen = BipartiteGenerator(NumberOperator(3))
        blocks = oracles.haar_blocks_per_block(gen, np.random.default_rng(6))
        stack = _padded_units(blocks, 3)
        u = AllowedUnitary._from_stack(gen, stack)
        stack[...] = 7.0
        for b, want in zip(u.blocks, blocks, strict=True):
            assert b.tobytes() == want.tobytes()
            assert not b.flags.writeable
        assert u.matrix.tobytes() == oracles.assemble_blocks(gen, blocks).tobytes()

    def test_translation_covariance(self):
        # commuting with the generator means commuting with every generated phase
        rng = np.random.default_rng(23)
        for d in (2, 3):
            gen = BipartiteGenerator(NumberOperator(d))
            blocks = oracles.haar_blocks_per_block(gen, rng)
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
            n = np.diag(gen.index_eigenvalues)
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
                assert np.abs(rho_ab.matrix @ n - n @ rho_ab.matrix).max() <= 1e-12
                rho_a = linalg.partial_trace_b(rho_ab.matrix, d, d)
                assert np.abs(rho_a - np.diag(np.diagonal(rho_a))).max() <= 1e-12


class TestJsonFormats:
    def test_density_round_trip(self):
        rho = isotropic_state(0.4)
        again = state_from_json(oracles.density_to_json(rho), "state")
        np.testing.assert_allclose(again.matrix, rho.matrix, atol=1e-15)

    def test_parser_rejects_invariant_violation_with_residual(self):
        obj = {"dim": 2, "re": [[0.5, 0.3], [0.1, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(StateValidationError, match="not Hermitian.*residual"):
            state_from_json(obj, "state")

    def test_parser_rejects_missing_key(self):
        with pytest.raises(StateValidationError, match=r"missing keys \['im'\]"):
            state_from_json({"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]]}, "state")

    def test_parser_rejects_shape_mismatch(self):
        obj = {"dim": 3, "re": [[1.0]], "im": [[0.0]]}
        with pytest.raises(StateValidationError, match="shapes"):
            state_from_json(obj, "state")

    def test_bloch_rejects_missing_component(self):
        with pytest.raises(StateValidationError, match=r"missing keys \['nz'\]"):
            state_from_json({"nx": 0.5}, "state")
        with pytest.raises(StateValidationError, match=r"missing keys \['nx', 'nz'\]"):
            state_from_json({}, "state")

    def test_bloch_form_with_and_without_ny(self):
        assert np.array_equal(state_from_json({"nx": 0.2, "nz": 0.4}, "state").matrix,
                              bloch_to_density(BlochState(0.2, 0.0, 0.4)).matrix)
        assert np.array_equal(state_from_json({"nx": 0.2, "ny": 0.1, "nz": 0.4}, "state").matrix,
                              bloch_to_density(BlochState(0.2, 0.1, 0.4)).matrix)

    @pytest.mark.parametrize(
        "obj, named",
        [
            # a misspelled ny, which a parser that looked only for known keys read as (0.3, 0, 0.2)
            ({"nx": 0.3, "nz": 0.2, "ny ": 0.5}, ["'ny '"]),
            ({"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]], "rho": 1}, ["'rho'"]),
            # a file of both forms, which such a parser read as its matrix
            (
                {"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]], "nx": 0.9, "nz": 0.0},
                ["'dim'", "'im'", "'re'", "'nx'", "'nz'"],
            ),
            ({"re": [[1]], "ny": 0.0}, ["'re'", "'ny'"]),
        ],
    )
    def test_keys_of_neither_form_or_of_both_are_rejected_by_name(self, obj, named):
        with pytest.raises(StateValidationError, match="^parameter 'state': s.json: ") as exc:
            state_from_json(obj, "parameter 'state': s.json")
        assert all(key in str(exc.value) for key in named), str(exc.value)


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
