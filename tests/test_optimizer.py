import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from coherence_lab import linalg, optimizer
from coherence_lab.errors import UnsupportedParameterError
from coherence_lab.modes import mode_measure
from coherence_lab.optimizer import (
    STATIONARY,
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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exponential_matches_taylor_reference(self, n):
        rng = np.random.default_rng(50 + n)
        generators = [oracles.hermitian_from_params_loops(n, rng.uniform(-3, 3, n * n)) for _ in range(10)]
        diagonal = np.diag(rng.uniform(-3, 3, n)).astype(complex)
        generators += [np.zeros((n, n), dtype=complex), diagonal, 1e-170 * generators[0]]
        for h in generators:
            np.testing.assert_allclose(_exp_ih(h), oracles.expm_taylor(1j * h), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacked_exponential_matches_row_by_row_bitwise(self, n):
        rng = np.random.default_rng(40 + n)
        params = rng.uniform(-3, 3, (2, 6, n * n))
        params[0, 0] = 0.0
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
        # the start is one evaluation, and every trial, accepted or not, is one more
        assert outcome.accepted + outcome.backtracks == outcome.evals - 1
        if outcome.stop_reasons[0] == "stationary":
            assert outcome.grad_norm**2 < STATIONARY
            assert outcome.converged
        else:
            assert outcome.stop_reasons[0] == "eval budget"
            assert outcome.evals == max_iters
            assert outcome.grad_norm**2 >= STATIONARY
            assert not outcome.converged

    def test_each_restart_reports_its_budget_and_stop_reason(self):
        rng = np.random.default_rng(12)
        qubit = bloch_to_density(random_bloch(rng))
        qutrit = random_density_matrix(3, 2, rng)
        reasons = set()
        for rho, j, max_iters in ((qubit, 1, 2000), (qutrit, 1, 20), (qutrit, 2, 2000)):
            for seed in range(3):
                cfg = UnitarySearchConfig(restarts=1, max_iters=max_iters, seed=seed)
                outcome = maximize_delta_m(rho, NumberOperator(rho.dim), j, cfg)
                self._check_restart(outcome, max_iters)
                reasons.add(outcome.stop_reasons[0])
        assert reasons == {"eval budget", "stationary"}

    def test_totals_span_the_restarts(self):
        rho = bloch_to_density(random_bloch(np.random.default_rng(13)))
        outcome = maximize_delta_m(rho, NumberOperator(2), 1, UnitarySearchConfig(restarts=3))
        assert len(outcome.stop_reasons) == len(outcome.history) == 3
        assert outcome.evals <= 3 * 2000
        assert outcome.accepted + outcome.backtracks == outcome.evals - 3
        assert (outcome.evals == 3 * 2000) == all(r == "eval budget" for r in outcome.stop_reasons)

    def test_criterion_six_budget_reaches_stationarity(self):
        # the first 60 inputs of acceptance criterion 06, in its order and seeds
        rng = np.random.default_rng(606)
        converged = 0
        for k in range(30):
            rho = random_density_matrix(3, 1, rng)
            for j in (1, 2):
                cfg = UnitarySearchConfig(restarts=4, max_iters=600, seed=2 * k + j - 1)
                converged += maximize_delta_m(rho, NumberOperator(3), j, cfg).converged
        assert converged >= 57


# (local dimension, restarts, max_iters): every restart count 1-8 and every
# budget at each dimension; the small budgets end restarts after the start
# alone, or after one or a few trials
LOCKSTEP_CASES = [
    (2, 1, 1), (2, 2, 2), (2, 3, 3), (2, 4, 7), (2, 5, 300), (2, 8, 2000),
    (3, 6, 1), (3, 7, 2), (3, 8, 3), (3, 1, 7), (3, 2, 300), (3, 3, 2000),
    (4, 5, 1), (4, 1, 2), (4, 2, 3), (4, 8, 7), (4, 4, 300), (4, 2, 2000),
]


def _assert_same_outcome(a: SearchOutcome, b: SearchOutcome) -> None:
    assert a.best_delta_m == b.best_delta_m
    assert a.history == b.history
    assert (a.evals, a.accepted, a.backtracks) == (b.evals, b.accepted, b.backtracks)
    assert a.stop_reasons == b.stop_reasons
    assert a.converged is b.converged
    assert a.grad_norm == b.grad_norm
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

    def test_restarts_ending_stationary_and_at_budget_match_reference(self):
        # 7 of the 8 restarts become stationary within 20 evaluations
        rho = bloch_to_density(random_bloch(np.random.default_rng(40)))
        cfg = UnitarySearchConfig(restarts=8, max_iters=20, seed=0)
        outcome = maximize_delta_m(rho, NumberOperator(2), 1, cfg)
        assert set(outcome.stop_reasons) == {"eval budget", "stationary"}
        _assert_same_outcome(outcome, oracles.sequential_search(rho, NumberOperator(2), 1, cfg)[0])

    def test_one_stacked_exponential_per_iteration(self, monkeypatch):
        # a restart-by-restart loop would call it once per trial of every restart
        calls = []
        original = optimizer._exp_ih
        monkeypatch.setattr(optimizer, "_exp_ih", lambda h: calls.append(h.shape) or original(h))
        rho = bloch_to_density(random_bloch(np.random.default_rng(41)))
        cfg = UnitarySearchConfig(restarts=8, max_iters=2000, seed=1)
        outcome = maximize_delta_m(rho, NumberOperator(2), 1, cfg)
        monkeypatch.undo()
        # one exponential per block builds the starts; each later call turns
        # every live restart's three padded blocks at once
        starts, steps = calls[:3], calls[3:]
        assert starts == [(8, 1, 1), (8, 2, 2), (8, 1, 1)]
        assert all(len(shape) == 4 and shape[1:] == (3, 2, 2) for shape in steps)
        live = [shape[0] for shape in steps]
        assert live[0] == 8 and live == sorted(live, reverse=True)
        assert sum(live) == outcome.evals - 8
        # a restart with e evaluations is live for e - 1 iterations
        _, evals = oracles.sequential_search(rho, NumberOperator(2), 1, cfg)
        assert outcome.evals == sum(evals)
        assert len(steps) == max(evals) - 1

    def test_budget_far_beyond_stationarity_allocates_nothing_up_front(self):
        rho = bloch_to_density(BlochState(0.3, 0.1, 0.5))
        cfg = UnitarySearchConfig(restarts=8, max_iters=10**12, seed=0)
        outcome = maximize_delta_m(rho, NumberOperator(2), 1, cfg)
        assert outcome.stop_reasons == ("stationary",) * 8

    def test_memory_does_not_grow_with_the_budget(self):
        # time-free: every restart of this qubit becomes stationary within 200
        # evaluations, and a 100x budget must not allocate more
        rho = bloch_to_density(BlochState(0.3, 0.1, 0.5))
        # fill the cached layouts before tracing
        maximize_delta_m(rho, NumberOperator(2), 1, UnitarySearchConfig(restarts=2, max_iters=5))
        peaks = []
        for max_iters in (200, 20_000):
            cfg = UnitarySearchConfig(restarts=1000, max_iters=max_iters, seed=0)
            tracemalloc.start()
            maximize_delta_m(rho, NumberOperator(2), 1, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 1_000_000


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
        assert (a.evals, a.accepted, a.backtracks, a.stop_reasons) == (b.evals, b.accepted, b.backtracks, b.stop_reasons)
        assert a.grad_norm == b.grad_norm
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
    def test_dimension_cap(self, monkeypatch):
        # refused before the d^4 two-copy matrix is built, which at large d would not fit in memory
        monkeypatch.setattr(optimizer.np, "kron", lambda *args: pytest.fail("two-copy matrix built"))
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
                best_unitary=random_allowed_unitary(GEN2, 0),
                history=(-1.0,),
                accepted=0,
                backtracks=0,
                stop_reasons=("stationary",),
                grad_norm=0.0,
            )


class TestDerivedFields:
    FIELDS = {
        "best_unitary": random_allowed_unitary(GEN2, 0),
        "history": (0.1, 0.3, 0.3),
        "accepted": 5,
        "backtracks": 2,
        "stop_reasons": ("stationary", "eval budget", "stationary"),
        "grad_norm": 1e-3,
    }

    def test_best_gain_converged_and_evals_come_from_the_fields(self):
        # of two tied best restarts the first decides, as np.argmax picks it
        outcome = SearchOutcome(**self.FIELDS)
        assert (outcome.best_delta_m, outcome.converged, outcome.evals) == (0.3, False, 3 + 5 + 2)
        for name in ("best_delta_m", "converged", "evals"):
            with pytest.raises(AttributeError):
                setattr(outcome, name, 0)

    @pytest.mark.parametrize("name, value", [("best_delta_m", 0.3), ("converged", True), ("evals", 10)])
    def test_constructor_takes_no_derived_field(self, name, value):
        with pytest.raises(TypeError):
            SearchOutcome(**self.FIELDS, **{name: value})

    def test_no_field_has_a_default(self):
        assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(SearchOutcome))


def _subnormal_qutrit() -> DensityMatrix:
    m = np.diag([0.5, 0.3, 0.2]).astype(complex)
    m[0, 1] = m[1, 0] = 1e-310
    m[1, 2] = m[2, 1] = 1e-312
    return DensityMatrix(m)


class TestSubnormalCoherence:
    # 1 / |z_n| overflows below the smallest normal double; the gradient must
    # not turn into NaN and leave every restart at its budget after one evaluation
    @pytest.mark.parametrize(
        "rho",
        [bloch_to_density(BlochState(1e-310, 0.0, 0.2)), bloch_to_density(BlochState(1e-308, 0.0, 0.2)),
         _subnormal_qutrit()],
        ids=["qubit-1e-310", "qubit-1e-308", "qutrit"],
    )
    def test_search_stays_finite_and_stationary(self, rho):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            outcome = maximize_delta_m(rho, NumberOperator(rho.dim), 1)
        assert math.isfinite(outcome.grad_norm)
        assert outcome.stop_reasons == ("stationary",) * 8
        assert outcome.best_delta_m >= 0.0
