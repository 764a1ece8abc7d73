import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from rpeqda import linalg
from rpeqda.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    RankDeficient,
    TooFewSamples,
)


def random_spd(rng, dim, spread=1.0):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + spread * np.eye(dim)


class TestCholesky:
    def test_identity(self):
        factor = linalg.cholesky(np.eye(3))
        np.testing.assert_array_equal(factor.lower, np.eye(3))
        assert factor.log_det == 0.0

    def test_hand_expanded_2x2(self):
        # [[4,2],[2,3]] = L L' with L = [[2,0],[1,sqrt(2)]], det = 8
        factor = linalg.cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        np.testing.assert_allclose(factor.lower, expected, atol=1e-14)
        assert factor.log_det == pytest.approx(math.log(8.0), abs=1e-12)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_near_singular_pivot_rejected(self):
        base = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky(base + 1e-14 * np.eye(2))

    @pytest.mark.parametrize("dim", [1, 2, 5, 17, 50])
    def test_roundtrip_random_spd(self, dim):
        rng = np.random.default_rng(100 + dim)
        s = random_spd(rng, dim)
        factor = linalg.cholesky(s)
        recon = factor.lower @ factor.lower.T
        scale = np.max(np.abs(s))
        assert np.max(np.abs(recon - s)) <= 1e-10 * scale

    @pytest.mark.parametrize("dim", [1, 3, 7, 10])
    def test_log_det_against_eigen_oracle(self, dim):
        rng = np.random.default_rng(200 + dim)
        s = random_spd(rng, dim)
        factor = linalg.cholesky(s)
        oracle = float(np.sum(np.log(np.linalg.eigvalsh(s))))
        assert factor.log_det == pytest.approx(oracle, abs=1e-8)

    def test_log_det_invariant_matches_diagonal(self):
        rng = np.random.default_rng(7)
        factor = linalg.cholesky(random_spd(rng, 6))
        from_diag = 2.0 * np.sum(np.log(np.diag(factor.lower)))
        assert abs(factor.log_det - from_diag) <= 1e-12 * abs(from_diag)


class TestSolveQuadraticForm:
    def test_identity_factor(self):
        factor = linalg.cholesky(np.eye(2))
        assert linalg.solve_quadratic_form(factor, np.array([3.0, 4.0])) == pytest.approx(25.0)

    def test_diagonal_factor(self):
        factor = linalg.cholesky(np.diag([4.0, 1.0]))
        assert linalg.solve_quadratic_form(factor, np.array([2.0, 1.0])) == pytest.approx(2.0)

    def test_zero_vector(self):
        factor = linalg.cholesky(np.diag([4.0, 1.0]))
        assert linalg.solve_quadratic_form(factor, np.zeros(2)) == 0.0

    def test_dimension_mismatch(self):
        factor = linalg.cholesky(np.eye(2))
        with pytest.raises(DimensionMismatch):
            linalg.solve_quadratic_form(factor, np.zeros(3))

    def test_matches_direct_solve_and_nonnegative(self):
        rng = np.random.default_rng(11)
        s = random_spd(rng, 8)
        factor = linalg.cholesky(s)
        for _ in range(20):
            v = rng.standard_normal(8)
            got = linalg.solve_quadratic_form(factor, v)
            want = float(v @ np.linalg.solve(s, v))
            assert got >= 0.0
            assert got == pytest.approx(want, rel=1e-10)

    def test_zero_iff_zero_vector(self):
        rng = np.random.default_rng(12)
        factor = linalg.cholesky(random_spd(rng, 5))
        v = rng.standard_normal(5)
        assert linalg.solve_quadratic_form(factor, v) > 0.0

    def test_rows_variant_matches_scalar(self):
        rng = np.random.default_rng(13)
        s = random_spd(rng, 6)
        factor = linalg.cholesky(s)
        rows = rng.standard_normal((9, 6))
        batch = linalg.solve_quadratic_form_rows(factor, rows)
        singles = [linalg.solve_quadratic_form(factor, row) for row in rows]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)


class TestStackedFactors:
    def test_cholesky_stack_matches_single_factors(self):
        rng = np.random.default_rng(14)
        stack = np.stack([[random_spd(rng, 4) for _ in range(2)] for _ in range(3)])
        lower, log_det, ok = linalg.cholesky_stack(stack)
        assert ok.all()
        for idx in np.ndindex(3, 2):
            factor = linalg.cholesky(stack[idx])
            np.testing.assert_array_equal(lower[idx], factor.lower)
            assert log_det[idx] == factor.log_det

    def test_cholesky_stack_flags_only_failures(self):
        # indefinite, near-singular pivot, and positive definite
        stack = np.array([[[1.0, 2.0], [2.0, 1.0]],
                          [[1.0, 1.0], [1.0, 1.0 + 1e-14]],
                          [[4.0, 2.0], [2.0, 3.0]]])
        lower, log_det, ok = linalg.cholesky_stack(stack)
        assert ok.tolist() == [False, False, True]
        assert log_det[2] == pytest.approx(math.log(8.0), abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 8, 10])
    def test_forward_sq_norms_matches_triangular_solves(self, dim):
        rng = np.random.default_rng(15 + dim)
        lower = np.stack([linalg.cholesky(random_spd(rng, dim)).lower for _ in range(4)])
        b = rng.standard_normal((4, dim, 7))
        got = linalg.forward_sq_norms(lower, b)
        for i in range(4):
            y = solve_triangular(lower[i], b[i], lower=True)
            np.testing.assert_allclose(got[i], np.sum(y * y, axis=0), rtol=1e-13)

    def test_forward_sq_norms_broadcasts_and_checks_shape(self):
        rng = np.random.default_rng(16)
        lower = linalg.cholesky(random_spd(rng, 3)).lower
        b = rng.standard_normal((5, 3, 2))
        np.testing.assert_allclose(linalg.forward_sq_norms(lower, b),
                                   linalg.forward_sq_norms(np.stack([lower] * 5), b),
                                   rtol=0, atol=0)
        with pytest.raises(DimensionMismatch):
            linalg.forward_sq_norms(lower, rng.standard_normal((4, 2)))


class TestQrOrthogonal:
    def test_identity(self):
        np.testing.assert_allclose(linalg.qr_orthogonal(np.eye(4)), np.eye(4), atol=1e-14)

    def test_rotation_is_fixed_point(self):
        theta = math.pi / 6.0
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        np.testing.assert_allclose(linalg.qr_orthogonal(rot), rot, atol=1e-12)

    def test_zero_column_rejected(self):
        a = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(RankDeficient):
            linalg.qr_orthogonal(a)

    @pytest.mark.parametrize("dim", [2, 5, 20])
    def test_orthogonality_and_reconstruction(self, dim):
        rng = np.random.default_rng(300 + dim)
        a = rng.standard_normal((dim, dim))
        q = linalg.qr_orthogonal(a)
        assert np.max(np.abs(q.T @ q - np.eye(dim))) <= 1e-10
        r = q.T @ a
        assert np.all(np.diag(r) > 0)
        np.testing.assert_allclose(q @ r, a, atol=1e-10 * np.max(np.abs(a)))

    def test_orthonormal_columns_tall(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((30, 4))
        q = linalg.orthonormal_columns(a)
        assert q.shape == (30, 4)
        np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-10)

    def test_orthonormal_columns_empty(self):
        q = linalg.orthonormal_columns(np.zeros((5, 0)))
        assert q.shape == (5, 0)


class TestSampleCovariance:
    def test_identical_rows_give_zero(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        np.testing.assert_array_equal(
            linalg.sample_covariance(x, x.mean(axis=0)), np.zeros((2, 2)))

    def test_hand_computed(self):
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        got = linalg.sample_covariance(x, np.array([1.0, 0.0]))
        np.testing.assert_allclose(got, np.array([[2.0, 0.0], [0.0, 0.0]]))

    def test_single_sample_rejected(self):
        with pytest.raises(TooFewSamples):
            linalg.sample_covariance(np.array([[1.0, 2.0]]), np.array([1.0, 2.0]))

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 6))
        cov = linalg.sample_covariance(x, x.mean(axis=0))
        np.testing.assert_array_equal(cov, cov.T)
