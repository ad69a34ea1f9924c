import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from coherence_lab import linalg
from coherence_lab.sampling import haar_unitary


def _complex_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _bounded(shape):
    elements = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)
    return st.tuples(
        arrays(np.float64, shape, elements=elements),
        arrays(np.float64, shape, elements=elements),
    ).map(lambda parts: parts[0] + 1j * parts[1])


class TestPartialTrace:
    def test_product_state_reduction(self):
        rng = np.random.default_rng(3)
        a = _complex_matrix(rng, 3, 3)
        b = _complex_matrix(rng, 2, 2)
        b = b / np.trace(b)
        np.testing.assert_allclose(linalg.partial_trace_b(np.kron(a, b), 3, 2), a, atol=1e-14)

    def test_bell_state_reduces_to_maximally_mixed(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(linalg.partial_trace_b(rho, 2, 2), np.eye(2) / 2, atol=1e-15)

    def test_matches_element_formula(self):
        rng = np.random.default_rng(17)
        m = _complex_matrix(rng, 4, 4)
        m = m + m.conj().T
        np.testing.assert_allclose(
            linalg.partial_trace_b(m, 2, 2), oracles.partial_trace_b_loops(m, 2, 2), atol=1e-14
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            linalg.partial_trace_b(np.eye(4), 3, 2)

    def test_preserves_trace(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = _complex_matrix(rng, 6, 6)
            assert abs(np.trace(linalg.partial_trace_b(m, 2, 3)) - np.trace(m)) <= 1e-12

    def test_tensor_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = _complex_matrix(rng, 2, 2)
            b = _complex_matrix(rng, 3, 3)
            np.testing.assert_allclose(
                linalg.partial_trace_b(np.kron(a, b), 2, 3), a * np.trace(b), atol=1e-13
            )


class TestSingularValues:
    def test_diagonal_with_signs(self):
        np.testing.assert_allclose(
            linalg.singular_values(np.diag([3.0, -2.0, 1.0])), [3.0, 2.0, 1.0], atol=1e-14
        )

    def test_unitary_gives_ones(self):
        for dim in (2, 3, 5):
            u = haar_unitary(dim, np.random.default_rng(dim))
            np.testing.assert_allclose(linalg.singular_values(u), np.ones(dim), atol=1e-12)

    def test_matches_jacobi_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            m = _complex_matrix(rng, 3, 3)
            np.testing.assert_allclose(
                linalg.singular_values(m), oracles.jacobi_singular_values(m), atol=1e-10
            )

    def test_descending_order(self):
        rng = np.random.default_rng(8)
        vals = linalg.singular_values(_complex_matrix(rng, 5, 5))
        assert np.all(np.diff(vals) <= 0)


class TestKyFanNorm:
    def test_sum_of_two_largest(self):
        assert linalg.ky_fan_norm(np.diag([3.0, 2.0, 1.0]), 2) == pytest.approx(5.0)

    def test_unitary_value_is_k(self):
        u = haar_unitary(4, np.random.default_rng(0))
        for k in range(1, 5):
            assert linalg.ky_fan_norm(u, k) == pytest.approx(k, abs=1e-11)

    def test_matches_jacobi_sum(self):
        rng = np.random.default_rng(55)
        m = _complex_matrix(rng, 4, 4)
        expected = oracles.jacobi_singular_values(m)[:3].sum()
        assert linalg.ky_fan_norm(m, 3) == pytest.approx(expected, abs=1e-10)

    def test_out_of_range_order(self):
        with pytest.raises(ValueError, match="outside the valid range"):
            linalg.ky_fan_norm(np.eye(3), 4)
        with pytest.raises(ValueError, match="outside the valid range"):
            linalg.ky_fan_norm(np.eye(3), 0)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(10)
        m = _complex_matrix(rng, 5, 5)
        values = [linalg.ky_fan_norm(m, k) for k in range(1, 6)]
        assert np.all(np.diff(values) >= 0)

    @seed(2024)
    @settings(max_examples=50, deadline=None)
    @given(_bounded((4, 4)), _bounded((4, 4)), st.integers(min_value=1, max_value=4))
    def test_triangle_inequality(self, a, b, k):
        lhs = linalg.ky_fan_norm(a + b, k)
        assert lhs <= linalg.ky_fan_norm(a, k) + linalg.ky_fan_norm(b, k) + 1e-9

    @seed(2025)
    @settings(max_examples=50, deadline=None)
    @given(_bounded((4, 4)), st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4))
    def test_unitary_invariance(self, m, seed_value, k):
        rng = np.random.default_rng(seed_value)
        u = haar_unitary(4, rng)
        v = haar_unitary(4, rng)
        assert linalg.ky_fan_norm(u @ m @ v, k) == pytest.approx(linalg.ky_fan_norm(m, k), abs=1e-9)


class TestTraceNorm:
    def test_hermitian_equals_abs_eigenvalue_sum(self):
        rng = np.random.default_rng(30)
        m = _complex_matrix(rng, 4, 4)
        m = m + m.conj().T
        assert linalg.trace_norm(m) == pytest.approx(np.abs(np.linalg.eigvalsh(m)).sum(), abs=1e-11)

    def test_density_matrix_is_one(self):
        rng = np.random.default_rng(31)
        g = _complex_matrix(rng, 3, 3)
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert linalg.trace_norm(rho) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(32)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        expected = np.linalg.norm(a) * np.linalg.norm(b)
        assert linalg.trace_norm(np.outer(a, b.conj())) == pytest.approx(expected, abs=1e-11)
