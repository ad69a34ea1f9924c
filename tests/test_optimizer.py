import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from coherence_lab import linalg, optimizer, states
from coherence_lab.errors import UnsupportedParameterError
from coherence_lab.modes import _local_gap_measure, _stripe_blocks, _stripe_measure, mode_measure
from coherence_lab.optimizer import (
    MAX_RESTARTS,
    STATIONARY,
    SearchOutcome,
    UnitarySearchConfig,
    _bfgs_update,
    _cayley,
    _direction,
    _dot,
    _exp_ih,
    _hermitian_from_params,
    _search,
    maximize_delta_m,
    parameterize_block,
    random_allowed_unitary,
)
from coherence_lab.qubit_protocol import amplification_state, optimal_concentration
from coherence_lab.sampling import random_bloch, random_density_matrix
from coherence_lab.states import (
    BipartiteGenerator,
    BlochState,
    DensityMatrix,
    NumberOperator,
    _block_mask,
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
        with pytest.raises(UnsupportedParameterError, match=f"restarts must be 1 to {MAX_RESTARTS}"):
            UnitarySearchConfig(restarts=MAX_RESTARTS + 1)
        assert UnitarySearchConfig(restarts=MAX_RESTARTS).restarts == MAX_RESTARTS
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


class TestQuasiNewton:
    @staticmethod
    def _hermitian_stack(rng, d, rows):
        m = rng.normal(size=(rows, 2 * d - 1, d, d)) + 1j * rng.normal(size=(rows, 2 * d - 1, d, d))
        return np.where(_block_mask(d), m + m.conj().swapaxes(-1, -2), 0.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_coordinates_carry_the_frobenius_product(self, d):
        # the layout every coordinate kernel shares, through the reference readers
        rng = np.random.default_rng(60 + d)
        g, k = self._hermitian_stack(rng, d, 5), self._hermitian_stack(rng, d, 5)
        x = oracles.to_coords(g)
        assert x.shape == (5, sum(n * n for n in range(1, d + 1)) + sum(n * n for n in range(1, d)))
        frobenius = np.einsum("rbij,rbji->r", g, k).real
        np.testing.assert_allclose(_dot(x, oracles.to_coords(k)), frobenius, rtol=1e-13)
        back = oracles.from_coords(x, d)
        np.testing.assert_allclose(back, g, rtol=0, atol=1e-14)
        # exactly Hermitian, and exactly zero outside the blocks
        assert np.array_equal(back, back.conj().swapaxes(-1, -2))
        assert not back[..., ~_block_mask(d)].any()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_row_dot_products_do_not_depend_on_the_stack(self, d):
        # a restart's norm and slope must round as they would for it alone
        rng = np.random.default_rng(80 + d)
        rho = random_density_matrix(d, d, rng).matrix
        for j in range(1, d):
            blocks = _stripe_blocks(np.kron(rho, rho), d, j)
            for rows in range(2, 9):
                x = _stripe_measure(_exp_ih(self._hermitian_stack(rng, d, rows)), blocks)[1]
                assert x.flags.c_contiguous
                stacked = _dot(x, x)
                for r in range(rows):
                    assert _dot(x[r : r + 1], x[r : r + 1])[0] == stacked[r]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_coordinates_read_the_hermitian_part_bitwise(self, d):
        # the kernel's coordinates must be those to_coords reads from the padded
        # gradient stack S and from its Hermitian part (S + S^H) / 2, bit for bit;
        # at d = 1 the gap-1 stripe has no pair (nogo on a joint state of d = 1)
        rng = np.random.default_rng(110 + d)
        rho = random_density_matrix(d, d, rng).matrix
        for j in range(1, max(d, 2)):
            blocks = _stripe_blocks(np.kron(rho, rho), d, j)
            for rows in range(1, 9):
                # exp(i H) of a padded Hermitian stack is the identity in the padding
                units = _exp_ih(self._hermitian_stack(rng, d, rows))
                units[0] = np.eye(d)
                value, x = _stripe_measure(units, blocks)
                ref_value, s = oracles.stripe_measure_padded(units, blocks, j)
                assert value.tobytes() == ref_value.tobytes()
                hermitian = (s + s.conj().swapaxes(-1, -2)) / 2
                assert x.tobytes() == oracles.to_coords(s).tobytes() == oracles.to_coords(hermitian).tobytes()

    def test_update_matches_the_textbook_product_form(self):
        rng = np.random.default_rng(70)
        p, rows = 7, 6
        a = rng.normal(size=(rows, p, p))
        h = a @ a.swapaxes(-1, -2) + np.eye(p)
        # a curvature pair of a concave quadratic, so <s, y> > 0
        s = rng.normal(size=(rows, p))
        b = rng.normal(size=(rows, p, p))
        y = ((b @ b.swapaxes(-1, -2) + np.eye(p)) @ s[..., None])[..., 0]
        sy = _dot(s, y)
        fresh = np.arange(rows) % 2 == 0
        start = np.where(fresh[:, None, None], np.eye(p), h)
        got = start.copy()
        _bfgs_update(got, s, y, sy, fresh)
        for r in range(rows):
            h0 = (sy[r] / (y[r] @ y[r])) * np.eye(p) if fresh[r] else h[r]
            left = np.eye(p) - np.outer(s[r], y[r]) / sy[r]
            want = left @ h0 @ left.T + np.outer(s[r], s[r]) / sy[r]
            np.testing.assert_allclose(got[r], want, rtol=1e-12, atol=1e-12)
            # the secant condition
            np.testing.assert_allclose(got[r] @ y[r], s[r], rtol=1e-12, atol=1e-12)

    def test_rows_without_a_pair_keep_their_bits_and_the_rest_update_as_alone(self):
        rng = np.random.default_rng(72)
        p, rows = 7, 10
        a = rng.normal(size=(rows, p, p))
        h = a @ a.swapaxes(-1, -2) + np.eye(p)
        s = rng.normal(size=(rows, p))
        b = rng.normal(size=(rows, p, p))
        y = ((b @ b.swapaxes(-1, -2) + np.eye(p)) @ s[..., None])[..., 0]
        # rows 2-3 have negative curvature and row 4 no gradient change
        y[2:4] *= -1
        y[4] = 0.0
        # rows 0-1 are rejected trials, which the ascent passes as sy = 0
        ok = np.arange(rows) > 1
        sy = np.where(ok, _dot(s, y), 0.0)
        fresh = np.arange(rows) % 2 == 0
        start = np.where(fresh[:, None, None], np.eye(p), h)
        got = start.copy()
        _bfgs_update(got, s, y, sy, fresh)
        assert not (sy[5:] <= 0).any()
        for r in range(rows):
            if sy[r] <= 0:
                assert got[r].tobytes() == start[r].tobytes()
            else:
                alone = start[r : r + 1].copy()
                _bfgs_update(alone, s[r : r + 1], y[r : r + 1], sy[r : r + 1], fresh[r : r + 1])
                assert got[r].tobytes() == alone[0].tobytes()

    def test_direction_falls_back_to_the_gradient_where_not_uphill(self):
        # H = I keeps D = H G; -I points downhill and 0 has no slope, so both step along G
        rng = np.random.default_rng(90)
        p = 6
        g = rng.normal(size=(3, p))
        h = np.stack((np.eye(p), -np.eye(p), np.zeros((p, p))))
        dirs, slope = _direction(h, g)
        uphill = (h[:1] @ g[:1, :, None])[..., 0]
        assert dirs[0].tobytes() == uphill[0].tobytes()
        assert slope[0] == _dot(g[:1], uphill)[0]
        assert dirs[1:].tobytes() == g[1:].tobytes()
        assert slope[1:].tobytes() == _dot(g[1:], g[1:]).tobytes()


class TestCayley:
    @staticmethod
    def _points(rng, d, rows):
        """Random coordinates with a zero row and a zero coordinate, and padded unitaries (identity in the padding)."""
        p = sum(n * n for n in range(1, d + 1)) + sum(n * n for n in range(1, d))
        x = rng.normal(size=(rows, p))
        x[0] = 0.0
        x[-1, rows % p] = 0.0
        units = np.where(_block_mask(d), _exp_ih(oracles.from_coords(rng.normal(size=(rows, p)), d)), np.eye(d))
        return x, units

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_stacked_step_matches_row_by_row_bitwise(self, d):
        rng = np.random.default_rng(90 + d)
        for rows in range(1, 9):
            x, units = self._points(rng, d, rows)
            stacked = _cayley(x, units)
            assert stacked.shape == units.shape
            for r in range(rows):
                assert stacked[r].tobytes() == _cayley(x[r : r + 1], units[r : r + 1])[0].tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_step_from_coordinates_is_the_padded_step_bitwise(self, d):
        # I - iK/2 written from the coordinates must be the bits of I - 0.5j K,
        # K = from_coords(x), zero parts included, or the LU solve may differ
        rng = np.random.default_rng(100 + d)
        for rows in range(1, 9):
            x, units = self._points(rng, d, rows)
            step = _cayley(x, units)
            assert step.tobytes() == oracles.cayley_padded(oracles.from_coords(x, d), units).tobytes()
            # a zero step leaves its point exactly as it was
            assert step[0].tobytes() == units[0].tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_step_is_a_second_order_retraction_with_exact_padding(self, d):
        rng = np.random.default_rng(95 + d)
        mask, eye = _block_mask(d), np.eye(d)
        x, units = self._points(rng, d, 5)
        step = _cayley(x, units)
        outside = ~np.broadcast_to(mask, step.shape)
        assert np.array_equal(step[outside], np.broadcast_to(eye, step.shape)[outside])
        np.testing.assert_allclose(step @ step.conj().swapaxes(-1, -2), np.broadcast_to(eye, step.shape), atol=1e-14)
        # the same map as the product form (I - iK/2)^-1 (I + iK/2) U
        k = oracles.from_coords(x, d)
        product = np.linalg.solve(eye - 0.5j * k, (eye + 0.5j * k) @ units)
        np.testing.assert_allclose(step, product, rtol=0, atol=1e-14)
        # it agrees with exp(i t K) U to second order in t (row 0 does not move):
        # halving t divides the gap by 8
        gaps = [np.abs(_cayley(t * x, units) - np.where(mask, _exp_ih(t * k), eye) @ units).max() for t in (1e-2, 5e-3)]
        assert 7 < gaps[0] / gaps[1] < 9


class TestScaleEquivariance:
    # the search runs on stripe blocks scaled by a power of two, so a
    # power-of-two multiple of the state scales every reported number exactly
    @seed(2023)
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=-60, max_value=60),
        st.sampled_from([(2, 1), (3, 1), (3, 2)]),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_power_of_two_scale_is_exact(self, k, dim_index, rank, state_seed):
        d, j = dim_index
        rho = random_density_matrix(d, min(rank, d), np.random.default_rng(state_seed))
        blocks = _stripe_blocks(np.kron(rho.matrix, rho.matrix), d, j)
        baseline = _local_gap_measure(rho.matrix, j)
        cfg = UnitarySearchConfig(restarts=2, max_iters=100, seed=state_seed)
        want = _search(blocks, baseline, cfg)
        got = _search(np.ldexp(blocks.view(float), k).view(complex), math.ldexp(baseline, k), cfg)
        assert got.history == tuple(math.ldexp(h, k) for h in want.history)
        assert got.grad_norm == math.ldexp(want.grad_norm, k)
        assert (got.stop_reasons, got.accepted, got.backtracks) == (want.stop_reasons, want.accepted, want.backtracks)
        for blk_a, blk_b in zip(got.best_unitary.blocks, want.best_unitary.blocks, strict=True):
            assert blk_a.tobytes() == blk_b.tobytes()

    @pytest.mark.parametrize("nx", [1e-6, 1e-7, 1e-8, 1e-9, 1e-12])
    def test_low_coherence_qubit_reaches_the_closed_form(self, nx):
        rho = bloch_to_density(BlochState(nx, 0.0, 0.5))
        outcome = maximize_delta_m(rho, NumberOperator(2), 1)
        assert outcome.converged
        assert outcome.best_delta_m == pytest.approx(optimal_concentration(rho).delta_m, rel=1e-6)

    def test_amplify_default_start_reaches_the_closed_form(self):
        # the start of `amplify` at its defaults, 10 layers and epsilon 0.1
        rho = bloch_to_density(amplification_state(10, 0.1))
        outcome = maximize_delta_m(rho, NumberOperator(2), 1)
        assert outcome.converged
        assert outcome.best_delta_m == pytest.approx(optimal_concentration(rho).delta_m, rel=1e-6)


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

    def test_criterion_six_budget_reaches_stationarity(self, monkeypatch):
        # the first 60 inputs of acceptance criterion 06, in its order and seeds;
        # a lockstep iteration is one stacked Cayley step
        calls = []
        original = optimizer._cayley
        monkeypatch.setattr(optimizer, "_cayley", lambda x, units: calls.append(x.shape) or original(x, units))
        rng = np.random.default_rng(606)
        converged = 0
        for k in range(30):
            rho = random_density_matrix(3, 1, rng)
            for j in (1, 2):
                cfg = UnitarySearchConfig(restarts=4, max_iters=600, seed=2 * k + j - 1)
                converged += maximize_delta_m(rho, NumberOperator(3), j, cfg).converged
        assert converged == 60
        # time-free guard on the quasi-Newton step: 1,620 iterations (1,618 with
        # the exponential step), against 6,120 for Barzilai-Borwein steps
        assert len(calls) <= 3000


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

    @pytest.mark.parametrize("d, max_iters", [(3, 1), (3, 2), (4, 1), (4, 2)])
    def test_small_budgets_match_sequential_reference_bitwise(self, d, max_iters):
        # a budget of one or two evaluations reports the start point's gradient
        # norm, which must not depend on how many restarts share the stack
        for restarts in range(5, 9):
            for seed in range(15):
                rho = random_density_matrix(d, 1 + seed % d, np.random.default_rng(seed))
                j = 1 + seed % (d - 1)
                cfg = UnitarySearchConfig(restarts=restarts, max_iters=max_iters, seed=seed)
                expected, _ = oracles.sequential_search(rho, NumberOperator(d), j, cfg)
                _assert_same_outcome(maximize_delta_m(rho, NumberOperator(d), j, cfg), expected)

    def test_restarts_ending_stationary_and_at_budget_match_reference(self):
        # 6 of the 8 restarts become stationary within 8 evaluations
        rho = bloch_to_density(random_bloch(np.random.default_rng(40)))
        cfg = UnitarySearchConfig(restarts=8, max_iters=8, seed=0)
        outcome = maximize_delta_m(rho, NumberOperator(2), 1, cfg)
        assert set(outcome.stop_reasons) == {"eval budget", "stationary"}
        _assert_same_outcome(outcome, oracles.sequential_search(rho, NumberOperator(2), 1, cfg)[0])

    def test_one_stacked_retraction_per_iteration(self, monkeypatch):
        # a restart-by-restart loop would call it once per trial of every restart
        starts, steps = [], []
        exp_ih, cayley = optimizer._exp_ih, optimizer._cayley
        monkeypatch.setattr(optimizer, "_exp_ih", lambda h: starts.append(h.shape) or exp_ih(h))
        monkeypatch.setattr(optimizer, "_cayley", lambda x, units: steps.append(x.shape) or cayley(x, units))
        rho = bloch_to_density(random_bloch(np.random.default_rng(41)))
        cfg = UnitarySearchConfig(restarts=8, max_iters=2000, seed=1)
        outcome = maximize_delta_m(rho, NumberOperator(2), 1, cfg)
        monkeypatch.undo()
        # one exponential per block builds the starts, stacked over the
        # restarts; each Cayley step takes every live restart's P = 6 coordinates
        assert starts == [(8, 1, 1), (8, 2, 2), (8, 1, 1)]
        assert all(len(shape) == 2 and shape[1] == 6 for shape in steps)
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

    def test_memory_per_restart_stays_within_three_inverse_hessians(self):
        # time-free: at d = 4 each restart's H holds P^2 = 1,936 floats. A
        # rejected trial among accepted ones must not copy rows of H, so the
        # peak stays within three H's per restart
        rho = random_density_matrix(4, 2, np.random.default_rng(5))
        p = 44
        maximize_delta_m(rho, NumberOperator(4), 1, UnitarySearchConfig(restarts=2, max_iters=5))
        cfg = UnitarySearchConfig(restarts=400, max_iters=40, seed=1)
        tracemalloc.start()
        outcome = maximize_delta_m(rho, NumberOperator(4), 1, cfg)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert outcome.backtracks >= 1
        assert peak / cfg.restarts <= 3 * p * p * 8


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
    def test_blocks_and_generator_state_match_the_per_block_draw_bitwise(self):
        # criterion 08's loops draw many unitaries from one generator, so each
        # call must also leave it where the per-block draw leaves it
        for d in range(1, 9):
            gen = BipartiteGenerator(NumberOperator(d))
            for seed in range(30):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                u, want = random_allowed_unitary(gen, rng), oracles.haar_blocks_per_block(gen, ref_rng)
                assert [(b.shape, b.tobytes()) for b in u.blocks] == [(b.shape, b.tobytes()) for b in want], (d, seed)
                assert u.matrix.tobytes() == oracles.assemble_blocks(gen, want).tobytes(), (d, seed)
                assert rng.standard_normal(3).tobytes() == ref_rng.standard_normal(3).tobytes(), (d, seed)

    def test_the_draw_hands_its_stack_over_without_re_padding(self, monkeypatch):
        # time-free: the unitary keeps haar_stack's padded stack, so no block is padded again
        calls = []
        haar, pad = optimizer.haar_stack, states._padded_units
        monkeypatch.setattr(optimizer, "haar_stack", lambda *a: calls.append("haar_stack") or haar(*a))
        for module in (optimizer, states):
            monkeypatch.setattr(module, "_padded_units", lambda *a: calls.append("_padded_units") or pad(*a))
        random_allowed_unitary(GEN3, 0)
        assert calls == ["haar_stack"]

    def test_one_qr_per_draw(self, monkeypatch):
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
        random_allowed_unitary(BipartiteGenerator(NumberOperator(4)), 0)
        assert len(calls) == 1

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
        assert abs(a - b) <= 1e-10

    def test_local_phase_conjugation_preserves_qutrit_best_value(self):
        # a random local phase, conjugation, level reversal and the two
        # composed: wherever both searches end stationary, they reach the same
        # best value to roundoff
        rng = np.random.default_rng(10)
        rho = random_density_matrix(3, 2, rng)
        phases = np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, 3)))
        rotated = rho.evolve(phases)
        cfg = UnitarySearchConfig(restarts=6, max_iters=3000, seed=13)
        op = NumberOperator(3)
        for j in (1, 2):
            a = maximize_delta_m(rho, op, j, cfg)
            b = maximize_delta_m(rotated, op, j, cfg)
            assert a.converged and b.converged
            assert abs(a.best_delta_m - b.best_delta_m) <= 1e-10
        cfg = UnitarySearchConfig(restarts=4, max_iters=600, seed=13)
        compared = 0
        for d in (3, 4):
            rho, op = random_density_matrix(d, 2, rng), NumberOperator(d)
            for j in range(1, d):
                want = maximize_delta_m(rho, op, j, cfg)
                for image in map(DensityMatrix, oracles.symmetry_images(rho.matrix)):
                    got = maximize_delta_m(image, op, j, cfg)
                    if want.converged and got.converged:
                        compared += 1
                        assert abs(got.best_delta_m - want.best_delta_m) <= 1e-10, (d, j)
        assert compared >= 12  # of 15 (state, j, map) triples


class TestRangeGuards:
    def test_dimension_cap(self, monkeypatch):
        # refused above the search cap; no d^4 two-copy matrix is formed at any d
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

    def test_the_best_restart_is_found_once(self, monkeypatch):
        # time-free: reading the derived fields in a loop over the restarts must not rescan the history
        calls = []
        argmax = np.argmax
        monkeypatch.setattr(np, "argmax", lambda *a, **k: calls.append(a) or argmax(*a, **k))
        outcome = SearchOutcome(**{**self.FIELDS, "history": (0.1, 0.3, 0.3) * 1000,
                                   "stop_reasons": self.FIELDS["stop_reasons"] * 1000})
        for _ in outcome.history:
            assert (outcome.best_delta_m, outcome.converged) == (0.3, False)
        assert len(calls) == 1
        with pytest.raises(AttributeError):
            outcome._best = 0

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
