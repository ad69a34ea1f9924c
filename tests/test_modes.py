import numpy as np
import pytest

import oracles
from coherence_lab import linalg
from coherence_lab.errors import StateValidationError, UnsupportedParameterError
from coherence_lab.modes import (
    MODE_PRESENCE_THRESHOLD,
    ModeOperator,
    _stripe_layout,
    bipartite_mode,
    bipartite_mode_set,
    lrd_decompose,
    mode_component,
    mode_measure,
    vin_block_dim,
    vin_projector,
)
from coherence_lab.optimizer import random_allowed_unitary
from coherence_lab.sampling import random_bloch, random_density_matrix
from coherence_lab.states import (
    BipartiteGenerator,
    DensityMatrix,
    NumberOperator,
    bloch_to_density,
    isotropic_state,
)

QUTRIT = NumberOperator(3)
GEN3 = BipartiteGenerator(QUTRIT)
GEN2 = BipartiteGenerator(NumberOperator(2))


def _qutrit_with_corner(p20: float = 0.1) -> DensityMatrix:
    m = np.diag([0.5, 0.3, 0.2]).astype(complex)
    m[2, 0] = p20
    m[0, 2] = p20
    return DensityMatrix(m)


class TestModeComponent:
    def test_incoherent_state_has_empty_stripes(self):
        rho = DensityMatrix(np.diag([0.2, 0.8]))
        assert np.all(mode_component(rho, NumberOperator(2), 1).op == 0)

    def test_plus_state_single_entry(self):
        plus = DensityMatrix(np.full((2, 2), 0.5))
        comp = mode_component(plus, NumberOperator(2), 1)
        expected = np.zeros((2, 2))
        expected[1, 0] = 0.5
        np.testing.assert_array_equal(comp.op, expected)

    def test_corner_coherence_lands_in_mode_two(self):
        rho = _qutrit_with_corner()
        assert [j for j in range(3) if mode_measure(rho, QUTRIT, j) > 1e-10] == [0, 2]
        comp = mode_component(rho, QUTRIT, 2)
        expected = np.zeros((3, 3))
        expected[2, 0] = 0.1
        np.testing.assert_array_equal(comp.op, expected)

    def test_out_of_range_index(self):
        rho = DensityMatrix(np.eye(3) / 3)
        with pytest.raises(UnsupportedParameterError, match="mode index 3"):
            mode_component(rho, QUTRIT, 3)

    def test_completeness_is_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho = random_density_matrix(4, 4, rng)
            op = NumberOperator(4)
            total = sum(mode_component(rho, op, j).op for j in range(-3, 4))
            np.testing.assert_array_equal(total, rho.matrix)

    def test_hermitian_pairing(self):
        rng = np.random.default_rng(6)
        rho = random_density_matrix(4, 4, rng)
        op = NumberOperator(4)
        for j in range(4):
            np.testing.assert_array_equal(
                mode_component(rho, op, -j).op, mode_component(rho, op, j).op.conj().T
            )

    def test_support_validation(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = 1.0
        with pytest.raises(StateValidationError, match="outside the gap-2 stripe"):
            ModeOperator(2, bad, np.arange(3))


class TestModeMeasure:
    def test_qubit_measure_is_off_diagonal_magnitude(self):
        rho = DensityMatrix(np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]]))
        assert mode_measure(rho, NumberOperator(2), 1) == pytest.approx(abs(0.1 - 0.2j), abs=1e-12)

    def test_faithful_on_incoherent_states(self):
        rho = DensityMatrix(np.diag([0.1, 0.2, 0.7]))
        for j in (1, 2):
            assert mode_measure(rho, QUTRIT, j) == 0.0

    def test_matches_stripe_singular_values(self):
        rng = np.random.default_rng(13)
        rho = random_density_matrix(3, 3, rng)
        stripe = np.zeros((3, 3), dtype=complex)
        for n in range(2):
            stripe[n + 1, n] = rho.matrix[n + 1, n]
        expected = oracles.jacobi_singular_values(stripe).sum()
        assert mode_measure(rho, QUTRIT, 1) == pytest.approx(expected, abs=1e-10)

    def test_matches_trace_norm_of_component_for_every_index_and_rank(self):
        # the subdiagonal l1 sum is the stripe's trace norm, since L is non-degenerate
        rng = np.random.default_rng(14)
        for d in (2, 3, 4):
            op = NumberOperator(d)
            for rank in range(1, d + 1):
                for _ in range(5):
                    rho = random_density_matrix(d, rank, rng)
                    for j in range(1 - d, d):
                        expected = linalg.trace_norm(mode_component(rho, op, j).op)
                        assert abs(mode_measure(rho, op, j) - expected) <= 1e-14

    def test_out_of_range_index(self):
        with pytest.raises(UnsupportedParameterError, match="outside the local range"):
            mode_measure(DensityMatrix(np.eye(3) / 3), QUTRIT, -3)


class TestBipartiteMode:
    def test_incoherent_product_has_single_mode(self):
        rho = DensityMatrix(np.diag([0.4, 0.35, 0.25]))
        pair = DensityMatrix(np.kron(rho.matrix, rho.matrix))
        for j in range(1, 5):
            assert np.all(bipartite_mode(pair, GEN3, j).op == 0)
        assert bipartite_mode_set(pair, GEN3) == {0}

    def test_mode_set_matches_trace_norm_definition(self):
        def by_trace_norm(rho_ab, gen):
            return {
                j
                for j in range(2 * gen.dim - 1)
                if linalg.trace_norm(bipartite_mode(rho_ab, gen, j).op) > MODE_PRESENCE_THRESHOLD
            }

        rng = np.random.default_rng(27)
        cases = []
        for d in (1, 2, 3, 4):
            gen = BipartiteGenerator(NumberOperator(d))
            for rank in range(1, d * d + 1, max(1, d)):
                cases.append((random_density_matrix(d * d, rank, rng), gen))
        cases += [(isotropic_state(p), GEN2) for p in (0.0, 0.3, 1.0)]
        psi = np.zeros(9)
        psi[[0, 8]] = 1.0 / np.sqrt(2.0)
        for p in (0.0, 0.4, 1.0):
            cases.append((DensityMatrix(p * np.outer(psi, psi) + (1.0 - p) * np.eye(9) / 9.0), GEN3))
        seen = set()
        for rho_ab, gen in cases:
            present = bipartite_mode_set(rho_ab, gen)
            assert present == by_trace_norm(rho_ab, gen)
            seen.add(frozenset(present))
        assert {frozenset({0}), frozenset({0, 2}), frozenset({0, 4})} <= seen

    def test_qutrit_pair_mode_two_documented_pattern(self):
        rng = np.random.default_rng(5)
        rho = random_density_matrix(3, 3, rng)
        p = rho.matrix
        mode = bipartite_mode(DensityMatrix(np.kron(rho.matrix, rho.matrix)), GEN3, 2)
        expected = np.zeros((9, 9), dtype=complex)
        expected[2, 0] = p[0, 0] * p[2, 0]
        expected[4, 0] = p[1, 0] * p[1, 0]
        expected[6, 0] = p[2, 0] * p[0, 0]
        expected[5, 1] = p[1, 0] * p[2, 1]
        expected[5, 3] = p[1, 1] * p[2, 0]
        expected[7, 1] = p[2, 0] * p[1, 1]
        expected[7, 3] = p[2, 1] * p[1, 0]
        expected[8, 2] = p[2, 0] * p[2, 2]
        expected[8, 4] = p[2, 1] * p[2, 1]
        expected[8, 6] = p[2, 2] * p[2, 0]
        np.testing.assert_allclose(mode.op, expected, atol=1e-15)

    def test_product_mode_is_convolution_of_local_modes(self):
        rng = np.random.default_rng(14)
        a = bloch_to_density(random_bloch(rng))
        b = bloch_to_density(random_bloch(rng))
        pair = DensityMatrix(np.kron(a.matrix, b.matrix))
        op2 = NumberOperator(2)
        for j in range(-2, 3):
            direct = bipartite_mode(pair, GEN2, j).op
            convolved = np.zeros((4, 4), dtype=complex)
            for k in range(-1, 2):
                if abs(j - k) > 1:
                    continue
                convolved += np.kron(
                    mode_component(a, op2, k).op, mode_component(b, op2, j - k).op
                )
            np.testing.assert_allclose(direct, convolved, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            bipartite_mode(DensityMatrix(np.eye(4) / 4), GEN3, 1)


class TestLocalModeOfGlobal:
    """Tracing the second system out of a bipartite mode gives the marginal's mode of the same index."""

    def test_partial_trace_commutes_with_mode_extraction(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            rho_ab = random_density_matrix(9, 5, rng)
            reduced = DensityMatrix(linalg.partial_trace_b(rho_ab.matrix, 3, 3))
            for j in range(-2, 3):
                via_global = linalg.partial_trace_b(bipartite_mode(rho_ab, GEN3, j).op, 3, 3)
                direct = mode_component(reduced, QUTRIT, j)
                np.testing.assert_allclose(via_global, direct.op, atol=1e-12)

    def test_large_gap_traces_to_zero(self):
        rng = np.random.default_rng(16)
        rho_ab = random_density_matrix(9, 9, rng)
        for j in (3, 4):
            assert np.all(linalg.partial_trace_b(bipartite_mode(rho_ab, GEN3, j).op, 3, 3) == 0)

    def test_product_state_local_mode(self):
        rng = np.random.default_rng(18)
        a = bloch_to_density(random_bloch(rng))
        b = bloch_to_density(random_bloch(rng))
        pair = DensityMatrix(np.kron(a.matrix, b.matrix))
        local = linalg.partial_trace_b(bipartite_mode(pair, GEN2, 1).op, 2, 2)
        np.testing.assert_allclose(local, mode_component(a, NumberOperator(2), 1).op, atol=1e-15)

    def test_isotropic_top_mode_has_no_local_shadow(self):
        iso = isotropic_state(0.8)
        assert np.all(linalg.partial_trace_b(bipartite_mode(iso, GEN2, 2).op, 2, 2) == 0)


class TestVinProjector:
    def test_two_qubit_positions(self):
        assert vin_projector(GEN2, 1) == 2

    def test_qutrit_top_mode(self):
        assert vin_projector(GEN3, 2) == 3

    def test_qutrit_middle_mode(self):
        assert vin_projector(GEN3, 1) == 6

    def test_block_counts_sum_to_total(self):
        for gen in (GEN2, GEN3, BipartiteGenerator(NumberOperator(4))):
            for j in range(1, gen.dim):
                per_block = sum(
                    vin_block_dim(gen, j, c) for c in range(gen.n_eigenvalues)
                )
                assert per_block == vin_projector(gen, j)
                for c in range(gen.n_eigenvalues):
                    brute = sum(1 for n in range(gen.dim - j) if 0 <= c - n < gen.dim)
                    assert vin_block_dim(gen, j, c) == brute

    def test_out_of_range(self):
        with pytest.raises(UnsupportedParameterError, match="outside the local range"):
            vin_projector(GEN3, 3)
        with pytest.raises(UnsupportedParameterError, match="outside the local range"):
            vin_projector(GEN3, 0)


class TestStripeLayout:
    def test_layout_is_cached_and_read_only(self):
        pairs = _stripe_layout(3, 1)
        assert _stripe_layout(3, 1) is pairs
        for _, upper, lower, *_ in pairs:
            for idx in (upper, lower):
                with pytest.raises(ValueError):
                    idx[0] = 99

    def test_surviving_positions_sum_to_vin_projector(self):
        for gen in (GEN2, GEN3, BipartiteGenerator(NumberOperator(4))):
            d = gen.dim
            for j in range(1, d):
                pairs = _stripe_layout(d, j)
                assert sum(span.stop - span.start for *_, span in pairs) == vin_projector(gen, j)
                for c, (up, upper, lower, rows, cols, span) in enumerate(pairs):
                    assert up == c + j
                    ns = range(span.start, span.stop)
                    # (|n + j, m>, |n, m>) with m = c - n, as tensor indices
                    assert list(upper[rows]) == [(n + j) * d + c - n for n in ns]
                    assert list(lower[cols]) == [n * d + c - n for n in ns]


class TestLrdDecomposition:
    def test_qutrit_mode_two_block_shapes(self):
        rng = np.random.default_rng(19)
        rho = random_density_matrix(3, 3, rng)
        pair = DensityMatrix(np.kron(rho.matrix, rho.matrix))
        blocks = lrd_decompose(bipartite_mode(pair, GEN3, 2), GEN3)
        assert [block.shape for _, block in blocks] == [(3, 1), (2, 2), (1, 3)]
        assert [c for c, _ in blocks] == [0, 1, 2]

    def test_mode_zero_blocks_are_diagonal_subblocks(self):
        rng = np.random.default_rng(20)
        rho_ab = random_density_matrix(9, 9, rng)
        mode0 = bipartite_mode(rho_ab, GEN3, 0)
        for c, block in lrd_decompose(mode0, GEN3):
            idx = GEN3.block_indices(c)
            np.testing.assert_array_equal(block, rho_ab.matrix[np.ix_(idx, idx)])

    def test_reassembly_is_exact(self):
        rng = np.random.default_rng(21)
        rho_ab = random_density_matrix(4, 4, rng)
        mode = bipartite_mode(rho_ab, GEN2, 1)
        rebuilt = np.zeros((4, 4), dtype=complex)
        for c, block in lrd_decompose(mode, GEN2):
            rebuilt[np.ix_(GEN2.block_indices(c + 1), GEN2.block_indices(c))] = block
        np.testing.assert_array_equal(rebuilt, mode.op)


class TestCovariance:
    def test_modes_transform_independently(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            rho = random_density_matrix(9, 4, rng)
            u = random_allowed_unitary(GEN3, rng)
            evolved = rho.evolve(u.matrix)
            for j in range(-4, 5):
                lhs = bipartite_mode(evolved, GEN3, j).op
                rhs = u.matrix @ bipartite_mode(rho, GEN3, j).op @ u.matrix.conj().T
                assert np.abs(lhs - rhs).max() <= 1e-10

    def test_no_mode_creation(self):
        rng = np.random.default_rng(23)
        iso = isotropic_state(0.6)
        for _ in range(20):
            u = random_allowed_unitary(GEN2, rng)
            assert bipartite_mode_set(iso.evolve(u.matrix), GEN2) <= bipartite_mode_set(iso, GEN2)

    def test_local_measure_bounded_by_global_mode_norm(self):
        rng = np.random.default_rng(24)
        op = NumberOperator(3)
        for _ in range(10):
            rho_ab = random_density_matrix(9, 3, rng)
            u = random_allowed_unitary(GEN3, rng)
            evolved = rho_ab.evolve(u.matrix)
            reduced = DensityMatrix(linalg.partial_trace_b(evolved.matrix, 3, 3))
            for j in (1, 2):
                global_norm = linalg.trace_norm(bipartite_mode(rho_ab, GEN3, j).op)
                assert mode_measure(reduced, op, j) <= global_norm + 1e-10

    def test_lrd_blocks_evolve_independently(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            rho = random_density_matrix(9, 9, rng)
            u = random_allowed_unitary(GEN3, rng)
            evolved = rho.evolve(u.matrix)
            for j in range(3):
                before = lrd_decompose(bipartite_mode(rho, GEN3, j), GEN3)
                after = lrd_decompose(bipartite_mode(evolved, GEN3, j), GEN3)
                for (c, pre), (_, post) in zip(before, after):
                    predicted = u.blocks[c + j] @ pre @ u.blocks[c].conj().T
                    assert np.abs(post - predicted).max() <= 1e-10
