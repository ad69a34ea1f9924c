import gc
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from coherence_lab import linalg, qubit_protocol
from coherence_lab.errors import UnsupportedParameterError
from coherence_lab.modes import mode_measure
from coherence_lab.optimizer import random_allowed_unitary
from coherence_lab.qubit_protocol import (
    ConcatTrace,
    amplification_state,
    optimal_concentration,
    optimal_unitary,
    purity_ceiling,
    recurrence_step,
    run_concatenation,
    vector_field,
)
from coherence_lab.sampling import random_bloch
from coherence_lab.states import (
    BipartiteGenerator,
    BlochState,
    DensityMatrix,
    NumberOperator,
    bloch_to_density,
)


def _qubit(p00: float, p01: complex) -> DensityMatrix:
    return DensityMatrix(np.array([[p00, p01], [np.conj(p01), 1.0 - p00]]))


class TestOptimalConcentration:
    def test_balanced_diagonal_has_bound_coherence(self):
        result = optimal_concentration(_qubit(0.5, 0.3))
        assert result.delta_m == 0.0
        assert result.theta_opt == 0.0

    def test_no_initial_coherence_gains_nothing(self):
        result = optimal_concentration(_qubit(0.8, 0.0))
        assert result.delta_m == 0.0

    def test_reference_point(self):
        result = optimal_concentration(_qubit(0.9, 0.1))
        assert result.delta_m == pytest.approx(0.028062484748656982, abs=1e-15)
        assert result.theta_opt == pytest.approx(math.acos(1.0 / math.sqrt(1.64)), abs=1e-15)

    def test_reference_point_beats_random_unitaries(self):
        rho = _qubit(0.9, 0.1)
        gen = BipartiteGenerator(NumberOperator(2))
        pair = DensityMatrix(np.kron(rho.matrix, rho.matrix))
        best = optimal_concentration(rho).delta_m
        rng = np.random.default_rng(42)
        for _ in range(200):
            u = random_allowed_unitary(gen, rng)
            reduced = DensityMatrix(linalg.partial_trace_b(pair.evolve(u.matrix).matrix, 2, 2))
            gain = abs(reduced.matrix[0, 1]) - 0.1
            assert gain <= best + 1e-10

    def test_closed_form_matches_simulation_on_random_states(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            rho = bloch_to_density(random_bloch(rng))
            result = optimal_concentration(rho)
            pair = DensityMatrix(np.kron(rho.matrix, rho.matrix)).evolve(result.unitary.matrix)
            reduced = linalg.partial_trace_b(pair.matrix, 2, 2)
            gain = abs(reduced[0, 1]) - abs(rho.matrix[0, 1])
            assert abs(gain - result.delta_m) <= 1e-10

    def test_rejects_non_qubit(self):
        with pytest.raises(UnsupportedParameterError, match="qubit"):
            optimal_concentration(DensityMatrix(np.eye(3) / 3))

    def test_unitary_matches_rotation_form(self):
        u = optimal_unitary(0.9)
        v = 2 * 0.9 - 1
        scale = math.sqrt(1 + v * v)
        c, s = 1 / scale, v / scale
        expected = np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]])
        np.testing.assert_allclose(u.matrix, expected, atol=1e-15)


class TestPhaseUnitariesNeverHelp:
    def test_corner_and_z_phases_cannot_increase_coherence(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            rho = bloch_to_density(random_bloch(rng)).matrix
            base = abs(rho[0, 1])
            w0, w1, phi = rng.uniform(0.0, 2.0 * math.pi, 3)
            corner0 = np.diag([np.exp(1j * w0), 1.0, 1.0, 1.0])
            corner1 = np.diag([1.0, 1.0, 1.0, np.exp(1j * w1)])
            z_rot = np.diag([1.0, np.exp(-1j * phi), np.exp(1j * phi), 1.0])
            for u in (corner0, corner1, z_rot):
                big = u @ np.kron(rho, rho) @ u.conj().T
                reduced = big.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
                assert abs(reduced[0, 1]) <= base + 1e-12


class TestRecurrenceStep:
    def test_equatorial_axis_is_fixed(self):
        b = BlochState(0.6, 0.0, 0.0)
        assert recurrence_step(b) == b

    def test_polar_axis_is_fixed(self):
        b = BlochState(0.0, 0.0, 0.8)
        assert recurrence_step(b) == b

    def test_reference_step(self):
        out = recurrence_step(BlochState(0.1, 0.0, 0.7))
        assert out.nx == pytest.approx(0.12206555615733704, abs=1e-16)
        assert out.nz == pytest.approx(0.6953020134228187, abs=1e-16)

    def test_matches_two_copy_simulation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            b = random_bloch(rng)
            state = BlochState(math.hypot(b.nx, b.ny), 0.0, b.nz)
            for _ in range(5):
                expected = oracles.two_copy_step(state.nx, state.nz)
                state = recurrence_step(state)
                assert abs(state.nx - expected[0]) <= 1e-12
                assert abs(state.nz - expected[1]) <= 1e-12

    def test_transverse_phase_is_absorbed(self):
        out = recurrence_step(BlochState(0.06, 0.08, 0.7))
        expected = recurrence_step(BlochState(0.1, 0.0, 0.7))
        assert out == expected


class TestConcatenation:
    def test_start_on_transverse_axis_converges_immediately(self):
        trace = run_concatenation(BlochState(0.4, 0.0, 0.0))
        assert trace.converged_at == 0
        assert len(trace.steps) == 1
        assert trace.copies_consumed == (1,)

    def test_near_axis_start_converges(self):
        trace = run_concatenation(BlochState(0.001, 0.0, 0.7), convergence_eps=1e-3)
        assert trace.converged_at is not None
        assert trace.converged_at > 0
        assert abs(trace.steps[trace.converged_at].nz) < 1e-3

    def test_harder_start_needs_more_copies(self):
        easy = run_concatenation(BlochState(0.1, 0.0, 0.7), convergence_eps=1e-3)
        hard = run_concatenation(BlochState(0.001, 0.0, 0.7), convergence_eps=1e-3)
        assert hard.converged_at > easy.converged_at

    def test_purity_ceiling_holds_along_trace(self):
        start = BlochState(0.6, 0.0, 0.6)
        ceiling = purity_ceiling(bloch_to_density(start))
        trace = run_concatenation(start, convergence_eps=1e-6)
        for step in trace.steps:
            assert abs(step.nx) <= ceiling + 1e-10

    def test_monotone_sequences(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            b = random_bloch(rng)
            trace = run_concatenation(b, max_steps=200, convergence_eps=1e-4)
            for prev, cur in zip(trace.steps, trace.steps[1:]):
                assert abs(cur.nx) >= abs(prev.nx) - 1e-12
                assert cur.nz**2 <= prev.nz**2 + 1e-12
                assert cur.norm() <= prev.norm() + 1e-12

    def test_any_coherent_start_eventually_converges(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = random_bloch(rng)
            if math.hypot(b.nx, b.ny) < 1e-6:
                continue
            trace = run_concatenation(b, max_steps=10**6, convergence_eps=1e-3)
            assert trace.converged_at is not None

    def test_polar_start_reports_not_converged(self):
        trace = run_concatenation(BlochState(0.0, 0.0, 0.5), max_steps=50)
        assert trace.converged_at is None

    def test_stop_reasons(self):
        converged = run_concatenation(BlochState(0.4, 0.0, 0.0))
        assert (converged.stop_reason, converged.converged_at) == ("converged", 0)
        later = run_concatenation(BlochState(0.1, 0.0, 0.7))
        assert (later.stop_reason, later.converged_at) == ("converged", len(later.nx) - 1)
        assert later.converged_at > 0 and abs(later.nz[-1]) < 1e-3 <= abs(later.nz[-2])
        fixed = run_concatenation(BlochState(0.0, 0.0, 0.5))
        assert (fixed.stop_reason, fixed.converged_at, len(fixed.steps)) == ("fixed point", None, 2)
        capped = run_concatenation(BlochState(1e-5, 0.0, 0.001001), max_steps=50)
        assert (capped.stop_reason, capped.converged_at, len(capped.steps)) == ("step cap", None, 51)
        amplified = run_concatenation(amplification_state(10, 0.1), max_steps=10, convergence_eps=0.0)
        assert (amplified.stop_reason, len(amplified.steps)) == ("step cap", 11)

    def test_step_cap_validation(self):
        with pytest.raises(UnsupportedParameterError, match="max_steps"):
            run_concatenation(BlochState(0.1, 0.0, 0.1), max_steps=0)

    @pytest.mark.parametrize("eps", [math.nan, -1e-3])
    def test_convergence_threshold_validation(self, eps):
        with pytest.raises(UnsupportedParameterError, match="convergence_eps"):
            run_concatenation(BlochState(0.1, 0.0, 0.1), convergence_eps=eps)

    def test_trace_holds_read_only_arrays(self):
        ConcatTrace([0.1, 0.2], [0.5, 0.4], "step cap")
        nx = np.array([0.1, 0.2])
        trace = ConcatTrace(nx, np.array([0.5, 0.4]), "step cap")
        nx[0] = 0.3
        assert trace.nx.tolist() == [0.1, 0.2]
        with pytest.raises(ValueError):
            trace.nz[0] = 0.0
        computed = run_concatenation(BlochState(0.1, 0.0, 0.7))
        assert not computed.nx.flags.writeable and not computed.nz.flags.writeable

    def test_trace_invariants_enforced(self):
        ConcatTrace(np.array([0.1, 0.2]), np.array([0.5, 0.4]), "step cap")
        with pytest.raises(ValueError, match="transverse component decreased"):
            ConcatTrace(np.array([0.3, 0.2]), np.array([0.5, 0.4]), "step cap")

    @pytest.mark.parametrize(
        "nx, nz, message",
        [
            ([0.1, 0.2], [0.4, -0.5], "squared z component increased"),
            ([0.1, 0.5], [0.5, 0.4], "Bloch norm increased"),
            ([0.1, 0.2], [0.5], "equal length"),
            ([], [], "non-empty"),
        ],
    )
    def test_trace_rejects_other_broken_arrays(self, nx, nz, message):
        with pytest.raises(ValueError, match=message):
            ConcatTrace(np.array(nx), np.array(nz), "step cap")

    @pytest.mark.parametrize("reason, converged_at", [("converged", 1), ("fixed point", None), ("step cap", None)])
    def test_converged_at_follows_the_stop_reason(self, reason, converged_at):
        trace = ConcatTrace(np.array([0.1, 0.2]), np.array([0.5, 0.4]), reason)
        assert trace.converged_at == converged_at
        with pytest.raises(AttributeError):
            trace.converged_at = 0
        with pytest.raises(TypeError):
            ConcatTrace(np.array([0.1, 0.2]), np.array([0.5, 0.4]), reason, converged_at=converged_at)

    def test_trace_rejects_an_unknown_stop_reason(self):
        with pytest.raises(ValueError, match="stop reason"):
            ConcatTrace(np.array([0.1]), np.array([0.5]), "stalled")

    def test_steps_view_matches_a_recurrence_chain(self):
        start = BlochState(0.1, 0.0, 0.7)
        trace = run_concatenation(start)
        chain = [start]
        while len(chain) < len(trace.nx):
            chain.append(recurrence_step(chain[-1]))
        steps = trace.steps
        assert len(steps) == len(chain) == trace.converged_at + 1
        assert list(steps) == chain
        assert steps[-1] == chain[-1] and steps[-len(chain)] == chain[0]
        assert type(steps[0].nx) is float
        assert list(steps[2:7:2]) == chain[2:7:2]
        assert list(steps[::-1]) == chain[::-1]
        assert len(steps[5:]) == len(chain) - 5
        with pytest.raises(IndexError):
            steps[len(chain)]

    def test_one_state_object_per_step(self, monkeypatch):
        built = []
        check = BlochState.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        start = BlochState(0.01, 0.0, 0.1)
        monkeypatch.setattr(BlochState, "__post_init__", counted)
        trace = run_concatenation(start)
        assert trace.converged_at > 1000
        assert len(built) <= len(trace.steps)

    def test_memory_per_step_is_bounded(self):
        # time-free: the trajectory is two float arrays, so a capped run holds
        # 16 B per step and the invariant check a few float arrays more
        start = BlochState(1e-5, 0.0, 0.001001)
        run_concatenation(start, max_steps=10)
        gc.collect()
        tracemalloc.start()
        trace = run_concatenation(start, max_steps=200_000)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(trace.steps) == 200_001
        assert peak / len(trace.steps) < 64


class TestPurityCeiling:
    def test_pure_state(self):
        assert purity_ceiling(bloch_to_density(BlochState(0.6, 0.0, 0.8))) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert purity_ceiling(DensityMatrix(np.eye(2) / 2)) == pytest.approx(0.0, abs=1e-12)

    def test_reference_value(self):
        value = purity_ceiling(bloch_to_density(BlochState(0.1, 0.0, 0.7)))
        assert value == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_equals_bloch_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            b = random_bloch(rng)
            assert purity_ceiling(bloch_to_density(b)) == pytest.approx(b.norm(), abs=1e-9)


class TestAmplification:
    def test_constructed_state_has_tiny_coherence(self):
        for n in (1, 3, 7, 10):
            state = amplification_state(n, 0.1)
            assert abs(state.nx) < 2.0 ** (-n)
            assert state.ny == 0.0

    def test_ratio_beats_threshold_after_n_layers(self):
        for n in (1, 10):
            state = amplification_state(n, 0.1)
            trace = run_concatenation(state, max_steps=n, convergence_eps=0.0)
            ratio = abs(trace.steps[-1].nx) / abs(state.nx)
            assert ratio > 2.0 ** (-0.1) * math.sqrt(2.0**n)

    def test_layer_budget_respects_double_precision(self):
        with pytest.raises(UnsupportedParameterError, match="largest feasible layer count"):
            amplification_state(1500, 0.1)
        with pytest.raises(UnsupportedParameterError, match="no layer count is feasible"):
            amplification_state(1, 1e-20)

    def test_feasibility_scan_does_not_grow_with_the_layer_count(self, monkeypatch):
        calls, components = [], qubit_protocol._amplification_components

        def counted(*args):
            calls.append(args)
            return components(*args)

        monkeypatch.setattr(qubit_protocol, "_amplification_components", counted)
        for n_layers in (1500, 10**9):
            calls.clear()
            with pytest.raises(UnsupportedParameterError, match="largest feasible layer count is 521 "):
                amplification_state(n_layers, 0.1)
            # 4.0 ** -n underflows to 0.0 from n = 538 on, so the scan starts at 537 at most
            assert len(calls) <= 540

    def test_parameter_validation(self):
        with pytest.raises(UnsupportedParameterError, match="layer count"):
            amplification_state(0, 0.1)
        with pytest.raises(UnsupportedParameterError, match="epsilon"):
            amplification_state(3, 0.0)
        with pytest.raises(UnsupportedParameterError, match="epsilon"):
            amplification_state(3, math.nan)


class TestVectorField:
    def test_row_count_matches_grid(self):
        assert len(list(vector_field(20, 20))) == 400

    def test_axis_points_are_fixed(self):
        for state, delta in vector_field(6, 6):
            if state.nx == 0.0 or state.nz == 0.0:
                assert delta == (0.0, 0.0)

    def test_interior_matches_recurrence(self):
        for state, delta in vector_field(7, 7):
            nxt = recurrence_step(state)
            assert delta[0] == pytest.approx(nxt.nx - state.nx, abs=1e-15)
            assert delta[1] == pytest.approx(nxt.nz - state.nz, abs=1e-15)

    def test_large_transverse_components_move_slowly(self):
        # points near the transverse axis change little even at large radius
        displacements = {
            (round(s.nx, 3), round(s.nz, 3)): math.hypot(*d) for s, d in vector_field(21, 21)
        }
        near_axis = displacements[(0.997, 0.078)]
        mid_disc = displacements[(0.707, 0.707)]
        assert near_axis < mid_disc

    def test_grid_validation(self):
        with pytest.raises(UnsupportedParameterError, match="grid resolution"):
            vector_field(0, 5)


class TestModeMeasureConsistency:
    def test_concatenation_tracks_mode_measure(self):
        # |nx| along the trace is exactly the single-mode measure of the state
        start = BlochState(0.2, 0.0, 0.6)
        trace = run_concatenation(start, max_steps=10, convergence_eps=0.0)
        op = NumberOperator(2)
        for step in trace.steps:
            rho = bloch_to_density(step)
            assert mode_measure(rho, op, 1) == pytest.approx(abs(step.nx) / 2.0, abs=1e-12)
