import math

import numpy as np
import pytest

import oracles
from coherence_lab import linalg
from coherence_lab.bounds import (
    NO_GO,
    TIE_ATOL,
    BoundReport,
    bound_kyfan_global,
    bound_kyfan_lrd,
    bound_report,
    kyfan_diagonal_lemma_check,
    marginal_product_distance,
    nogo_check,
)
from coherence_lab.errors import UnsupportedParameterError
from coherence_lab.modes import bipartite_mode_set, mode_measure
from coherence_lab.optimizer import UnitarySearchConfig, maximize_delta_m
from coherence_lab.qubit_protocol import optimal_concentration
from coherence_lab.sampling import haar_unitary, random_bloch, random_density_matrix
from coherence_lab.states import (
    BipartiteGenerator,
    BlochState,
    DensityMatrix,
    NumberOperator,
    bloch_to_density,
    isotropic_state,
)

QUTRIT = NumberOperator(3)
GEN2 = BipartiteGenerator(NumberOperator(2))


class TestGlobalKyFanBound:
    def test_incoherent_state_gives_zero(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        for j in (1, 2):
            assert bound_kyfan_global(rho, QUTRIT, j) == pytest.approx(0.0, abs=1e-14)

    def test_qubit_closed_form_value(self):
        # the two-copy mode has singular values sqrt(2)|p00 p01| and sqrt(2)|p11 p01|,
        # so the bound evaluates to |p01| (sqrt(2) - 1)
        rho = DensityMatrix(np.array([[0.9, 0.1], [0.1, 0.1]]))
        expected = 0.1 * (math.sqrt(2.0) - 1.0)
        assert bound_kyfan_global(rho, NumberOperator(2), 1) == pytest.approx(expected, abs=1e-12)
        assert expected >= 0.028062484748656982

    def test_dominates_achievable_gain_on_qubits(self):
        rng = np.random.default_rng(0)
        op = NumberOperator(2)
        for _ in range(50):
            rho = bloch_to_density(random_bloch(rng))
            achievable = optimal_concentration(rho).delta_m
            assert bound_kyfan_global(rho, op, 1) >= achievable - 1e-10

    def test_index_validation(self):
        rho = DensityMatrix(np.eye(3) / 3)
        with pytest.raises(UnsupportedParameterError, match="outside the local range"):
            bound_kyfan_global(rho, QUTRIT, 0)
        with pytest.raises(UnsupportedParameterError, match="outside the local range"):
            bound_kyfan_global(rho, QUTRIT, 3)


class TestBlockKyFanBound:
    def test_incoherent_state_gives_zero(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        for j in (1, 2):
            assert bound_kyfan_lrd(rho, QUTRIT, j) == pytest.approx(0.0, abs=1e-14)

    def test_pure_qutrit_states_tie_with_global_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            rho = random_density_matrix(3, 1, rng)
            for j in (1, 2):
                b1 = bound_kyfan_global(rho, QUTRIT, j)
                b2 = bound_kyfan_lrd(rho, QUTRIT, j)
                assert abs(b1 - b2) <= 1e-8

    def test_never_looser_than_global_bound(self):
        # per-block top-k sums select at most what the global top-k selects
        rng = np.random.default_rng(2)
        for d, gen_op in ((3, QUTRIT), (4, NumberOperator(4))):
            for _ in range(25):
                rho = random_density_matrix(d, int(rng.integers(1, d + 1)), rng)
                for j in range(1, d):
                    b1 = bound_kyfan_global(rho, gen_op, j)
                    b2 = bound_kyfan_lrd(rho, gen_op, j)
                    assert b2 <= b1 + 1e-12

    def test_dominates_search_oracle_on_mixed_qutrits(self):
        rng = np.random.default_rng(3)
        cfg = UnitarySearchConfig(restarts=3, max_iters=400, seed=7)
        for _ in range(4):
            rho = random_density_matrix(3, 2, rng)
            for j in (1, 2):
                achieved = maximize_delta_m(rho, QUTRIT, j, cfg).best_delta_m
                assert bound_kyfan_lrd(rho, QUTRIT, j) >= achieved - 1e-8
                assert bound_kyfan_global(rho, QUTRIT, j) >= achieved - 1e-8


class TestFirstPrinciplesReference:
    """Both bounds against loop-built references: bound 1 from the spectrum of the whole
    two-copy mode, so without the union-of-block-spectra identity, and bound 2 per block."""

    @staticmethod
    def _singular_values(m: np.ndarray) -> np.ndarray:
        # Jacobi eigenvalues of the Hermitian dilation [[0, m], [m^dagger, 0]] are
        # +-sigma_i and zeros; unlike sqrt(eig(m^dagger m)), zero singular values of
        # a rank-deficient mode come out accurate to roundoff, not its square root
        r, c = m.shape
        dilation = np.zeros((r + c, r + c), dtype=complex)
        dilation[:r, r:] = m
        dilation[r:, :r] = m.conj().T
        return oracles.jacobi_eigvalsh(dilation)[::-1][: min(r, c)]

    def _reference(self, rho: DensityMatrix, d: int, j: int) -> tuple:
        m = rho.matrix
        pair = oracles.kron_loops(m, m)
        total = [n + k for n in range(d) for k in range(d)]
        mode = np.zeros_like(pair)
        for r in range(d * d):
            for c in range(d * d):
                if total[r] - total[c] == j:
                    mode[r, c] = pair[r, c]
        local = np.zeros((d, d), dtype=complex)
        for n in range(d - j):
            local[n + j, n] = m[n + j, n]
        baseline = float(self._singular_values(local).sum())
        bound1 = float(self._singular_values(mode)[: (d - j) * d].sum()) - baseline
        # block c: rows with total c + j, columns with total c; its quota counts
        # the columns |n, c-n> with n + j <= d - 1
        bound2 = -baseline
        for c in range(2 * d - 1 - j):
            rows = [r for r in range(d * d) if total[r] == c + j]
            cols = [k for k in range(d * d) if total[k] == c]
            quota = sum(1 for k in cols if k // d + j <= d - 1)
            values = self._singular_values(mode[np.ix_(rows, cols)])
            bound2 += float(values[:quota].sum())
        return bound1, bound2

    def test_bounds_match_reference_on_qutrits_and_ququarts(self):
        rng = np.random.default_rng(31)
        for d in (3, 4):
            op = NumberOperator(d)
            for rank in range(1, d + 1):
                rho = random_density_matrix(d, rank, rng)
                for j in range(1, d):
                    ref1, ref2 = self._reference(rho, d, j)
                    report = bound_report(rho, op, j)
                    assert report.bound1 == pytest.approx(ref1, abs=1e-10)
                    assert report.bound2 == pytest.approx(ref2, abs=1e-10)
                    assert bound_kyfan_global(rho, op, j) == report.bound1
                    assert bound_kyfan_lrd(rho, op, j) == report.bound2


class TestDiagonalLemma:
    def test_main_diagonal_of_diagonal_matrix_is_tight(self):
        m = np.diag([3.0, 2.0, 1.0])
        selection = [(0, 0), (1, 1), (2, 2)]
        assert kyfan_diagonal_lemma_check(m, selection, 3)
        total = sum(abs(m[r, c]) for r, c in selection)
        assert total == pytest.approx(linalg.ky_fan_norm(m, 3), abs=1e-12)

    def test_permutation_matrix_is_tight_at_dimension(self):
        perm = np.eye(4)[[2, 0, 3, 1]]
        selection = [(i, int(np.argmax(perm[i]))) for i in range(4)]
        assert kyfan_diagonal_lemma_check(perm, selection, 4)
        assert linalg.ky_fan_norm(perm, 4) == pytest.approx(4.0, abs=1e-12)

    def test_random_generalized_diagonals(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            size = int(rng.integers(1, n + 1))
            rows = rng.permutation(n)[:size]
            cols = rng.permutation(n)[:size]
            assert kyfan_diagonal_lemma_check(m, list(zip(rows, cols)), size)

    def test_rejects_repeated_rows(self):
        with pytest.raises(ValueError, match="must not repeat"):
            kyfan_diagonal_lemma_check(np.eye(3), [(0, 0), (0, 1)], 2)

    def test_rejects_oversized_selection(self):
        with pytest.raises(ValueError, match="more than k"):
            kyfan_diagonal_lemma_check(np.eye(3), [(0, 0), (1, 1)], 1)


class TestNogo:
    def test_isotropic_states_are_no_go(self):
        for p in (0.1, 0.5, 1.0):
            assert nogo_check(isotropic_state(p), GEN2) == "no_go"

    def test_coherent_product_is_not_applicable(self):
        rho = bloch_to_density(BlochState(0.5, 0.0, 0.3))
        assert nogo_check(DensityMatrix(np.kron(rho.matrix, rho.matrix)), GEN2) == "not_applicable"

    def test_incoherent_product_is_not_applicable(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        assert nogo_check(DensityMatrix(np.kron(rho.matrix, rho.matrix)), GEN2) == "not_applicable"


class TestCorrelationWitness:
    def test_maximally_entangled_state(self):
        assert nogo_check(isotropic_state(1.0), GEN2) == NO_GO
        assert marginal_product_distance(isotropic_state(1.0), GEN2) > 1e-8

    def test_weakly_mixed_isotropic_state(self):
        iso = isotropic_state(0.3)
        assert nogo_check(iso, GEN2) == NO_GO
        assert marginal_product_distance(iso, GEN2) > 1e-8

    def test_product_states_never_fire(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = bloch_to_density(random_bloch(rng))
            pair = DensityMatrix(np.kron(rho.matrix, rho.matrix))
            assert nogo_check(pair, GEN2) != NO_GO
            assert marginal_product_distance(pair, GEN2) <= 1e-8

    def test_distance_matches_loop_reference(self):
        rng = np.random.default_rng(8)
        for d in (2, 3):
            gen = BipartiteGenerator(NumberOperator(d))
            for rank in range(1, d * d + 1):
                m = random_density_matrix(d * d, rank, rng).matrix
                rho_a = oracles.partial_trace_b_loops(m, d, d)
                rho_b = oracles.partial_trace_a_loops(m, d, d)
                # the difference is Hermitian: its trace norm is the sum of |eigenvalues|
                expected = np.abs(np.linalg.eigvalsh(m - oracles.kron_loops(rho_a, rho_b))).sum()
                distance = marginal_product_distance(DensityMatrix(m), gen)
                assert abs(distance - expected) <= 1e-12


@pytest.mark.parametrize("check", [bipartite_mode_set, nogo_check, marginal_product_distance])
@pytest.mark.parametrize("joint_dim, d", [(9, 2), (4, 3)])
def test_joint_dimension_mismatch_names_both_dimensions(check, joint_dim, d):
    rho = DensityMatrix(np.eye(joint_dim) / joint_dim)
    expected = f"joint dimension {joint_dim} does not match generator dimension {d * d}"
    with pytest.raises(ValueError, match=expected):
        check(rho, BipartiteGenerator(NumberOperator(d)))


class TestBoundReport:
    def test_tie_detection(self):
        rng = np.random.default_rng(6)
        rho = random_density_matrix(3, 1, rng)
        report = bound_report(rho, QUTRIT, 2)
        assert report.tighter == "tie"
        assert report.baseline == pytest.approx(mode_measure(rho, QUTRIT, 2), abs=1e-14)

    def test_block_bound_win_detected(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            rho = random_density_matrix(3, 3, rng)
            report = bound_report(rho, QUTRIT, 2)
            if report.tighter == "bound2":
                assert report.bound2 < report.bound1 - 1e-8
                return
        pytest.fail("no strict block-bound win found in 200 samples")

    def test_soundness_guard(self):
        with pytest.raises(ValueError, match="fell below the achieved value"):
            BoundReport(index=1, bound1=0.1, bound2=0.3, baseline=0.0, achieved=0.2)

    @pytest.mark.parametrize(
        "bound1, bound2, tighter",
        [
            (0.5, 0.5 + TIE_ATOL / 2, "tie"),
            (0.5 + TIE_ATOL / 2, 0.5, "tie"),
            (0.5, 0.5 + 2 * TIE_ATOL, "bound1"),
            (0.5 + 2 * TIE_ATOL, 0.5, "bound2"),
        ],
    )
    def test_tighter_is_derived_from_the_bounds(self, bound1, bound2, tighter):
        report = BoundReport(index=1, bound1=bound1, bound2=bound2, baseline=0.0, achieved=None)
        assert report.tighter == report.to_json()["tighter"] == tighter
        with pytest.raises(AttributeError):
            report.tighter = "tie"
        with pytest.raises(TypeError):
            BoundReport(index=1, bound1=bound1, bound2=bound2, baseline=0.0, achieved=None, tighter=tighter)

    def test_json_fields(self):
        rng = np.random.default_rng(7)
        rho = random_density_matrix(3, 2, rng)
        obj = bound_report(rho, QUTRIT, 1, achieved=0.0).to_json()
        assert set(obj) == {"j", "bound1", "bound2", "baseline", "achieved", "tighter"}


class TestUnitaryInvarianceOfBounds:
    def test_diagonal_phase_conjugation_leaves_bounds_unchanged(self):
        rng = np.random.default_rng(8)
        rho = random_density_matrix(3, 3, rng)
        phases = np.diag(np.exp(1j * rng.uniform(0, 2 * math.pi, 3)))
        rotated = rho.evolve(phases)
        for j in (1, 2):
            assert bound_kyfan_global(rotated, QUTRIT, j) == pytest.approx(
                bound_kyfan_global(rho, QUTRIT, j), abs=1e-12
            )
            assert bound_kyfan_lrd(rotated, QUTRIT, j) == pytest.approx(
                bound_kyfan_lrd(rho, QUTRIT, j), abs=1e-12
            )
