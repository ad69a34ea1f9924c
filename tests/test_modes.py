import numpy as np
import pytest

import oracles
from coherence_lab import linalg
from coherence_lab.errors import StateValidationError, UnsupportedParameterError
from coherence_lab.modes import (
    MODE_PRESENCE_THRESHOLD,
    ModeOperator,
    _gap_layout,
    _gradient_layout,
    _pair_blocks_layout,
    _stripe_blocks,
    _stripe_measure,
    _two_copy_blocks,
    bipartite_mode,
    bipartite_mode_set,
    lrd_decompose,
    mode_component,
    mode_measure,
    vin_projector,
)
from coherence_lab.optimizer import _cayley_layout, _exp_ih, _haar_draw_layout, _hermitian_layout, random_allowed_unitary
from coherence_lab.sampling import random_bloch, random_density_matrix
from coherence_lab.states import (
    BipartiteGenerator,
    DensityMatrix,
    NumberOperator,
    _block_mask,
    _generator_coords,
    _matrix_scatter,
    _padded_units,
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

    def test_operator_needs_one_label_per_row(self):
        with pytest.raises(StateValidationError, match=r"shape \(2, 2\) does not match 3 eigenvalue labels"):
            ModeOperator(1, np.zeros((2, 2)), np.arange(3))

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

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="state dimension 2 does not match operator dimension 3") as exc:
            mode_measure(DensityMatrix(np.eye(2) / 2), QUTRIT, 1)
        assert exc.type is ValueError


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

    @pytest.mark.parametrize("index", [-5, 5])
    def test_gap_beyond_the_total_range(self, index):
        with pytest.raises(UnsupportedParameterError, match=f"mode index {index} outside the range of the total"):
            bipartite_mode(DensityMatrix(np.eye(9) / 9), GEN3, index)


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
        for d in range(1, 6):
            gen = BipartiteGenerator(NumberOperator(d))
            _, mask, spans = _gap_layout(d)
            for j in range(1, d):
                quotas = mask[spans[j - 1]].sum(1)
                # blocks past the last surviving pair hold no positions
                counts = [quotas[c] if c < len(quotas) else 0 for c in range(gen.n_eigenvalues)]
                assert sum(counts) == vin_projector(gen, j)
                for c in range(gen.n_eigenvalues):
                    brute = sum(1 for n in range(d - j) if 0 <= c - n < d)
                    assert counts[c] == brute

    def test_out_of_range(self):
        with pytest.raises(UnsupportedParameterError, match="outside the local range"):
            vin_projector(GEN3, 3)
        with pytest.raises(UnsupportedParameterError, match="outside the local range"):
            vin_projector(GEN3, 0)


class TestStripeLayout:
    def test_layout_is_cached_and_read_only(self):
        index, gaps, _ = _pair_blocks_layout(3)
        assert _pair_blocks_layout(3)[0] is index
        assert _haar_draw_layout(3)[1] is _haar_draw_layout(3)[1]
        assert _gradient_layout(3, 1) is _gradient_layout(3, 1)
        assert _cayley_layout(3) is _cayley_layout(3)
        assert _gap_layout(3) is _gap_layout(3)
        assert _matrix_scatter(3) is _matrix_scatter(3)
        assert _hermitian_layout(3) is _hermitian_layout(3)
        cached = (index, gaps, _block_mask(3), _haar_draw_layout(3)[1], _matrix_scatter(3), _hermitian_layout(3))
        for cached in (*cached, *_generator_coords(3), *_gradient_layout(3, 1), *_cayley_layout(3), *_gap_layout(3)[:2]):
            with pytest.raises(ValueError):
                cached[0] = 0

    def test_gathered_blocks_match_brute_loop(self):
        for d in range(1, 6):
            # distinct nonzero entries, so padding (zero) cannot pass for a coefficient
            joint = np.arange(1, d**4 + 1, dtype=float).reshape(d * d, d * d)
            # g = 2d - 1 has no pair: the search on a d = 1 joint state (nogo) asks for gap 1
            for g in range(2 * d):
                blocks = _stripe_blocks(joint, d, g)
                assert blocks.shape == (2 * d - 1 - g, d, d)
                for c, block in enumerate(blocks):
                    for n_row in range(d):
                        for n in range(d):
                            # (|n', c + g - n'>, |n, c - n>), padding where a ket does not exist
                            m_row, m = c + g - n_row, c - n
                            if 0 <= m_row < d and 0 <= m < d:
                                assert block[n_row, n] == joint[n_row * d + m_row, n * d + m]
                            else:
                                assert block[n_row, n] == 0

    def test_two_copy_blocks_are_the_gathered_kron_bytewise(self):
        # products of two entries of rho, never rho (x) rho itself, in the same bits
        rng = np.random.default_rng(28)
        for d in range(1, 6):
            for rank in range(1, d + 1):
                for _ in range(3):
                    state = random_density_matrix(d, rank, rng).matrix
                    arbitrary = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                    for m in (state, arbitrary):
                        # the local gaps, the only ones the bounds and the search gather
                        for g in range(1, d):
                            want = _stripe_blocks(np.kron(m, m), d, g)
                            got = _two_copy_blocks(m, g)
                            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_surviving_positions_sum_to_vin_projector(self):
        for d in range(1, 6):
            gen = BipartiteGenerator(NumberOperator(d))
            joint = np.arange(1, d**4 + 1, dtype=float).reshape(d * d, d * d)
            _, mask, spans = _gap_layout(d)
            assert len(spans) == d - 1
            for j, span in enumerate(spans, 1):
                quotas = mask[span].sum(1)
                assert len(quotas) == 2 * d - 1 - j
                # (|n + j, m>, |n, m>) with m = c - n sits at (n + j, n) of pair c
                stripe = np.diagonal(_stripe_blocks(joint, d, j), -j, 1, 2)
                for c in range(2 * d - 1 - j):
                    # n in [0, d - 1 - j] with m = c - n in [0, d - 1]
                    brute = sum(1 for n in range(d - j) if 0 <= c - n < d)
                    assert quotas[c] == brute
                    assert list(stripe[c][stripe[c] != 0]) == [
                        joint[(n + j) * d + c - n, n * d + c - n] for n in range(d - j) if 0 <= c - n < d
                    ]
                assert quotas.sum() == vin_projector(gen, j)


class TestStripeMeasure:
    @staticmethod
    def _setup(d, j, rng, stack=()):
        gen = BipartiteGenerator(NumberOperator(d))
        rho = random_density_matrix(d, d, rng)
        joint = oracles.kron_loops(rho.matrix, rho.matrix)
        units = [random_allowed_unitary(gen, rng) for _ in range(int(np.prod(stack)))]
        padded = np.stack([_padded_units(u.blocks, d) for u in units]).reshape(*stack, 2 * d - 1, d, d)
        return units, joint, padded, _stripe_blocks(joint, d, j)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_value_is_the_reduced_stripe_and_gradient_matches_central_differences(self, d):
        rng = np.random.default_rng(60 + d)
        mask = _block_mask(d)
        for j in range(1, d):
            (u,), joint, padded, blocks = self._setup(d, j, rng, (1,))
            value, grad = _stripe_measure(padded[0], blocks)
            reduced = oracles.partial_trace_b_loops(u.matrix @ joint @ u.matrix.conj().T, d, d)
            assert value == pytest.approx(np.abs(np.diagonal(reduced, -j)).sum(), abs=1e-14)
            assert grad.shape == (len(_generator_coords(d)[0]),)
            for _ in range(3):
                # a unit Hermitian K, zero outside the blocks, from its coordinates
                x = rng.normal(size=(1, grad.size))
                x /= np.linalg.norm(x)
                k = oracles.from_coords(x, d)[0]

                def along(t):
                    return _stripe_measure(np.where(mask, _exp_ih(t * k), np.eye(d)) @ padded[0], blocks)[0]

                # five-point central difference along U_b <- exp(i t K_b) U_b;
                # a dot product of coordinates is the Frobenius product tr(G K)
                h = 1e-3
                slope = (8 * (along(h) - along(-h)) - (along(2 * h) - along(-2 * h))) / (12 * h)
                predicted = grad @ x[0]
                assert abs(slope - predicted) <= 1e-8 * abs(predicted)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stacked_call_matches_points_called_alone(self, d):
        rng = np.random.default_rng(70 + d)
        for j in range(1, d):
            _, _, padded, blocks = self._setup(d, j, rng, (2, 3))
            values, grads = _stripe_measure(padded, blocks)
            assert values.shape == (2, 3) and grads.shape == (2, 3, len(_generator_coords(d)[0]))
            for idx in np.ndindex(2, 3):
                # bit for bit, both for a lone point and for a stack of one
                for alone, pick in ((padded[idx], ()), (padded[idx][None], 0)):
                    value, grad = _stripe_measure(alone, blocks)
                    assert values[idx] == value[pick]
                    assert grads[idx].tobytes() == grad[pick].tobytes()


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
        # a block is labelled by its column eigenspace c; its rows lie in c + index
        for index in (1, 2, -1, -2):
            mode = bipartite_mode(rho_ab, GEN2, index)
            rebuilt = np.zeros((4, 4), dtype=complex)
            for c, block in lrd_decompose(mode, GEN2):
                rebuilt[np.ix_(GEN2.block_indices(c + index), GEN2.block_indices(c))] = block
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
