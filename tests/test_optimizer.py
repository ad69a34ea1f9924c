import math

import numpy as np
import pytest

from coherence_lab import linalg
from coherence_lab.errors import UnsupportedParameterError
from coherence_lab.modes import mode_measure
from coherence_lab.optimizer import (
    SearchOutcome,
    UnitarySearchConfig,
    maximize_delta_m,
    parameterize_block,
    random_allowed_unitary,
)
from coherence_lab.qubit_protocol import optimal_concentration
from coherence_lab.sampling import random_bloch, random_density_matrix
from coherence_lab.states import (
    BipartiteGenerator,
    DensityMatrix,
    NumberOperator,
    bloch_to_density,
    isotropic_state,
)

GEN2 = BipartiteGenerator(NumberOperator(2))
GEN3 = BipartiteGenerator(NumberOperator(3))


class TestParameterizeBlock:
    def test_zero_parameters_give_identity(self):
        for c in range(GEN3.n_eigenvalues):
            n = GEN3.block_dim(c)
            np.testing.assert_allclose(
                parameterize_block(GEN3, c, np.zeros(n * n)), np.eye(n), atol=1e-15
            )

    def test_rotation_generator_reproduces_middle_block(self):
        theta = 0.7
        block = parameterize_block(GEN2, 1, [0.0, 0.0, 0.0, theta])
        expected = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        np.testing.assert_allclose(block, expected, atol=1e-14)

    def test_random_parameters_give_unitary(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            block = parameterize_block(GEN3, 2, rng.uniform(-3, 3, 9))
            np.testing.assert_allclose(block @ block.conj().T, np.eye(3), atol=1e-10)

    def test_wrong_parameter_count(self):
        with pytest.raises(ValueError, match="expected 4 parameters"):
            parameterize_block(GEN2, 1, [0.0, 0.0])


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(UnsupportedParameterError, match="restarts"):
            UnitarySearchConfig(restarts=0)
        with pytest.raises(UnsupportedParameterError, match="max_iters"):
            UnitarySearchConfig(max_iters=0)


class TestQubitSearch:
    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(1)
        op = NumberOperator(2)
        for k in range(15):
            rho = bloch_to_density(random_bloch(rng))
            closed = optimal_concentration(rho).delta_m
            outcome = maximize_delta_m(rho, op, 1, UnitarySearchConfig(seed=k))
            assert abs(outcome.best_delta_m - closed) <= 1e-6

    def test_bound_coherence_is_unconcentratable(self):
        op = NumberOperator(2)
        for p01 in (0.1, 0.25, 0.4):
            rho = DensityMatrix(np.array([[0.5, p01], [p01, 0.5]]))
            outcome = maximize_delta_m(rho, op, 1, UnitarySearchConfig(seed=3))
            assert outcome.best_delta_m <= 1e-8

    def test_incoherent_qutrit_gains_nothing(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        cfg = UnitarySearchConfig(restarts=3, max_iters=500, seed=5)
        for j in (1, 2):
            assert maximize_delta_m(rho, NumberOperator(3), j, cfg).best_delta_m <= 1e-8

    def test_best_unitary_reproduces_best_value(self):
        rng = np.random.default_rng(9)
        rho = bloch_to_density(random_bloch(rng))
        op = NumberOperator(2)
        outcome = maximize_delta_m(rho, op, 1, UnitarySearchConfig(seed=2))
        pair = rho.tensor(rho).evolve(outcome.best_unitary.matrix)
        reduced = DensityMatrix(linalg.partial_trace_b(pair.matrix, 2, 2))
        replayed = mode_measure(reduced, op, 1) - mode_measure(rho, op, 1)
        assert replayed == pytest.approx(outcome.best_delta_m, abs=1e-12)


class TestDeterminism:
    def test_identical_seeds_reproduce_bitwise(self):
        rng = np.random.default_rng(2)
        rho = random_density_matrix(3, 2, rng)
        cfg = UnitarySearchConfig(restarts=3, max_iters=300, seed=11)
        a = maximize_delta_m(rho, NumberOperator(3), 1, cfg)
        b = maximize_delta_m(rho, NumberOperator(3), 1, cfg)
        assert a.best_delta_m == b.best_delta_m
        assert a.history == b.history
        assert a.converged == b.converged
        for blk_a, blk_b in zip(a.best_unitary.blocks, b.best_unitary.blocks):
            np.testing.assert_array_equal(blk_a, blk_b)

    def test_random_allowed_unitary_is_seed_reproducible(self):
        u1 = random_allowed_unitary(GEN3, 123)
        u2 = random_allowed_unitary(GEN3, 123)
        for blk1, blk2 in zip(u1.blocks, u2.blocks):
            np.testing.assert_array_equal(blk1, blk2)


class TestRandomUnitarySampling:
    def test_no_sample_beats_the_closed_form(self):
        rho = bloch_to_density(random_bloch(np.random.default_rng(7)))
        best = optimal_concentration(rho).delta_m
        baseline = abs(rho.matrix[0, 1])
        pair = rho.tensor(rho)
        rng = np.random.default_rng(8)
        for _ in range(1000):
            u = random_allowed_unitary(GEN2, rng)
            reduced = linalg.partial_trace_b(pair.evolve(u.matrix).matrix, 2, 2)
            assert abs(reduced[0, 1]) - baseline <= best + 1e-10

    def test_isotropic_state_yields_no_local_gain(self):
        iso = isotropic_state(0.7)
        rng = np.random.default_rng(9)
        op = NumberOperator(2)
        for _ in range(200):
            u = random_allowed_unitary(GEN2, rng)
            reduced = DensityMatrix(linalg.partial_trace_b(iso.evolve(u.matrix).matrix, 2, 2))
            assert mode_measure(reduced, op, 1) <= 1e-12


class TestObjectiveInvariance:
    def test_local_phase_conjugation_preserves_qubit_best_value(self):
        rng = np.random.default_rng(10)
        rho = bloch_to_density(random_bloch(rng))
        phases = np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, 2)))
        rotated = rho.evolve(phases)
        cfg = UnitarySearchConfig(seed=13)
        op = NumberOperator(2)
        a = maximize_delta_m(rho, op, 1, cfg).best_delta_m
        b = maximize_delta_m(rotated, op, 1, cfg).best_delta_m
        assert abs(a - b) <= 1e-6

    def test_local_phase_conjugation_preserves_qutrit_best_value(self):
        # agreement is limited by the search's own refinement accuracy
        rng = np.random.default_rng(10)
        rho = random_density_matrix(3, 2, rng)
        phases = np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, 3)))
        rotated = rho.evolve(phases)
        cfg = UnitarySearchConfig(restarts=6, max_iters=3000, seed=13)
        op = NumberOperator(3)
        for j in (1, 2):
            a = maximize_delta_m(rho, op, j, cfg).best_delta_m
            b = maximize_delta_m(rotated, op, j, cfg).best_delta_m
            assert abs(a - b) <= 1e-4


class TestRangeGuards:
    def test_dimension_cap(self):
        rho = DensityMatrix(np.eye(5) / 5)
        with pytest.raises(UnsupportedParameterError, match="up to 4"):
            maximize_delta_m(rho, NumberOperator(5), 1)

    def test_mode_index_range(self):
        rho = DensityMatrix(np.eye(3) / 3)
        with pytest.raises(UnsupportedParameterError, match="outside the local range"):
            maximize_delta_m(rho, NumberOperator(3), 3)

    def test_outcome_floor_guard(self):
        with pytest.raises(ValueError, match="below the identity baseline"):
            SearchOutcome(
                best_delta_m=-1.0,
                best_unitary=random_allowed_unitary(GEN2, 0),
                history=(-1.0,),
                converged=True,
            )
