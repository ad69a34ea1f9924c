import math

import numpy as np
import pytest

import oracles
from coherence_lab import linalg, optimizer
from coherence_lab.errors import UnsupportedParameterError
from coherence_lab.modes import mode_measure
from coherence_lab.optimizer import (
    STEP_FLOOR,
    SearchOutcome,
    UnitarySearchConfig,
    _exp_ih,
    _hermitian_from_params,
    maximize_delta_m,
    parameterize_block,
    random_allowed_unitary,
)
from coherence_lab.qubit_protocol import optimal_concentration
from coherence_lab.sampling import random_bloch, random_density_matrix
from coherence_lab.states import (
    BipartiteGenerator,
    BlochState,
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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacked_exponential_matches_row_by_row_bitwise(self, n):
        rng = np.random.default_rng(40 + n)
        params = rng.uniform(-3, 3, (2, 6, n * n))
        params[0, 0] = 0.0
        # diagonal only: at n = 2 both give r = 0 in the closed form
        params[0, 1, n:] = 0.0
        params[1, 2, :n] = params[1, 2, 0]
        params[1, 2, n:] = 0.0
        stacked = _exp_ih(_hermitian_from_params(n, params))
        assert stacked.shape == (2, 6, n, n)
        for idx in np.ndindex(2, 6):
            alone = _exp_ih(_hermitian_from_params(n, params[idx]))
            assert stacked[idx].tobytes() == alone.tobytes()


class TestGeneratorBuild:
    def test_index_arrays_match_loop_reference_bitwise(self):
        rng = np.random.default_rng(4)
        for n in range(1, 5):
            for _ in range(10):
                params = rng.uniform(-3, 3, n * n)
                expected = oracles.hermitian_from_params_loops(n, params)
                np.testing.assert_array_equal(_hermitian_from_params(n, params), expected)

    def test_stack_matches_loop_reference_bitwise(self):
        rng = np.random.default_rng(5)
        for n in range(1, 5):
            params = rng.uniform(-3, 3, (2, 3, n * n))
            stacked = _hermitian_from_params(n, params)
            for idx in np.ndindex(2, 3):
                expected = oracles.hermitian_from_params_loops(n, params[idx])
                assert stacked[idx].tobytes() == expected.tobytes()


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
        pair = DensityMatrix(np.kron(rho.matrix, rho.matrix)).evolve(outcome.best_unitary.matrix)
        reduced = DensityMatrix(linalg.partial_trace_b(pair.matrix, 2, 2))
        replayed = mode_measure(reduced, op, 1) - mode_measure(rho, op, 1)
        assert replayed == pytest.approx(outcome.best_delta_m, abs=1e-12)

    @pytest.mark.parametrize("d", [3, 4])
    def test_best_unitary_reproduces_best_value_beyond_qubits(self, d):
        # block sizes 1..d and up to three stripe pairs per block at d = 4
        rng = np.random.default_rng(30 + d)
        op = NumberOperator(d)
        for rank in (1, d):
            rho = random_density_matrix(d, rank, rng)
            pair = oracles.kron_loops(rho.matrix, rho.matrix)
            for j in range(1, d):
                cfg = UnitarySearchConfig(restarts=2, max_iters=300, seed=j)
                outcome = maximize_delta_m(rho, op, j, cfg)
                u = outcome.best_unitary.matrix
                reduced = oracles.partial_trace_b_loops(u @ pair @ u.conj().T, d, d)
                before, after = (np.abs(np.diagonal(m, -j)).sum() for m in (rho.matrix, reduced))
                assert abs((after - before) - outcome.best_delta_m) <= 1e-12


class TestTelemetry:
    @staticmethod
    def _check_restart(outcome, max_iters):
        assert len(outcome.stop_reasons) == 1
        assert outcome.evals <= max_iters
        assert (outcome.stop_reasons[0] == "step floor") == (outcome.evals < max_iters)
        assert 0 <= outcome.accepted < outcome.evals
        if outcome.stop_reasons[0] == "step floor":
            # the step halves from 0.5 until it falls below the floor
            assert outcome.step_shrinks >= math.ceil(math.log2(0.5 / STEP_FLOOR))

    def test_each_restart_reports_its_budget_and_stop_reason(self):
        rng = np.random.default_rng(12)
        qubit = bloch_to_density(random_bloch(rng))
        qutrit = random_density_matrix(3, 2, rng)
        reasons = set()
        for rho, j, max_iters in ((qubit, 1, 2000), (qutrit, 1, 200), (qutrit, 2, 2000)):
            for seed in range(3):
                cfg = UnitarySearchConfig(restarts=1, max_iters=max_iters, seed=seed)
                outcome = maximize_delta_m(rho, NumberOperator(rho.dim), j, cfg)
                self._check_restart(outcome, max_iters)
                reasons.add(outcome.stop_reasons[0])
        assert reasons == {"eval budget", "step floor"}

    def test_totals_span_the_restarts(self):
        rho = bloch_to_density(random_bloch(np.random.default_rng(13)))
        outcome = maximize_delta_m(rho, NumberOperator(2), 1, UnitarySearchConfig(restarts=3))
        assert len(outcome.stop_reasons) == len(outcome.history) == 3
        assert outcome.evals <= 3 * 2000
        assert (outcome.evals == 3 * 2000) == all(r == "eval budget" for r in outcome.stop_reasons)

    def test_criterion_six_budget_exhausts_every_restart(self):
        # the first inputs of acceptance criterion 06, in its order and seeds
        rng = np.random.default_rng(606)
        for k in range(3):
            rho = random_density_matrix(3, 1, rng)
            for j in (1, 2):
                cfg = UnitarySearchConfig(restarts=4, max_iters=600, seed=2 * k + j - 1)
                outcome = maximize_delta_m(rho, NumberOperator(3), j, cfg)
                assert outcome.stop_reasons == ("eval budget",) * 4
                assert outcome.evals == 4 * 600


# (local dimension, restarts, max_iters): every restart count 1-8 and every
# budget at each dimension; the small budgets end restarts on a failed +step
# with no evaluation, or exactly one, left for the -step
LOCKSTEP_CASES = [
    (2, 1, 1), (2, 2, 2), (2, 3, 3), (2, 4, 7), (2, 5, 300), (2, 8, 2000),
    (3, 6, 1), (3, 7, 2), (3, 8, 3), (3, 1, 7), (3, 2, 300), (3, 3, 2000),
    (4, 5, 1), (4, 1, 2), (4, 2, 3), (4, 8, 7), (4, 4, 300), (4, 2, 2000),
]


def _assert_same_outcome(a: SearchOutcome, b: SearchOutcome) -> None:
    assert a.best_delta_m == b.best_delta_m
    assert a.history == b.history
    assert (a.evals, a.accepted, a.step_shrinks) == (b.evals, b.accepted, b.step_shrinks)
    assert a.stop_reasons == b.stop_reasons
    assert a.converged is b.converged
    for blk_a, blk_b in zip(a.best_unitary.blocks, b.best_unitary.blocks, strict=True):
        assert blk_a.tobytes() == blk_b.tobytes()


class TestLockstep:
    @pytest.mark.parametrize("case", range(len(LOCKSTEP_CASES)))
    def test_matches_sequential_reference_bitwise(self, case):
        d, restarts, max_iters = LOCKSTEP_CASES[case]
        rng = np.random.default_rng(50 + case)
        rho = random_density_matrix(d, 1 + case % d, rng)
        j = 1 + case % (d - 1)
        cfg = UnitarySearchConfig(restarts=restarts, max_iters=max_iters, seed=case)
        expected, _ = oracles.sequential_search(rho, NumberOperator(d), j, cfg)
        _assert_same_outcome(maximize_delta_m(rho, NumberOperator(d), j, cfg), expected)

    def test_restarts_ending_at_floor_and_budget_match_reference(self):
        rho = bloch_to_density(random_bloch(np.random.default_rng(40)))
        cfg = UnitarySearchConfig(restarts=8, max_iters=600, seed=0)
        outcome = maximize_delta_m(rho, NumberOperator(2), 1, cfg)
        assert set(outcome.stop_reasons) == {"eval budget", "step floor"}
        _assert_same_outcome(outcome, oracles.sequential_search(rho, NumberOperator(2), 1, cfg)[0])

    def test_one_block_exponential_per_coordinate_step(self, monkeypatch):
        # a restart-by-restart loop would call it once per evaluation of every restart
        calls = []
        original = optimizer._exp_ih
        monkeypatch.setattr(optimizer, "_exp_ih", lambda h: calls.append(h.shape) or original(h))
        rho = bloch_to_density(random_bloch(np.random.default_rng(41)))
        cfg = UnitarySearchConfig(restarts=8, max_iters=2000, seed=1)
        outcome = maximize_delta_m(rho, NumberOperator(2), 1, cfg)
        monkeypatch.undo()
        _, evals = oracles.sequential_search(rho, NumberOperator(2), 1, cfg)
        assert outcome.evals == sum(evals)
        assert len(calls) <= max(evals) + GEN2.n_eigenvalues

    def test_budget_far_beyond_the_step_floor_allocates_nothing_up_front(self):
        # every qubit restart reaches the step floor within a few thousand evaluations
        rho = bloch_to_density(BlochState(0.3, 0.1, 0.5))
        cfg = UnitarySearchConfig(restarts=8, max_iters=10**12, seed=0)
        outcome = maximize_delta_m(rho, NumberOperator(2), 1, cfg)
        assert outcome.stop_reasons == ("step floor",) * 8


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
        pair = DensityMatrix(np.kron(rho.matrix, rho.matrix))
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
