import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from rpeqda import linalg
from rpeqda.errors import DimensionMismatch, NotPositiveDefinite, RankDeficient


def random_spd(rng, dim, spread=1.0):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + spread * np.eye(dim)


class TestCholesky:
    def test_identity(self):
        lower, log_det = linalg.cholesky(np.eye(3))
        np.testing.assert_array_equal(lower, np.eye(3))
        assert log_det == 0.0

    def test_hand_expanded_2x2(self):
        # [[4,2],[2,3]] = L L' with L = [[2,0],[1,sqrt(2)]], det = 8
        lower, log_det = linalg.cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        np.testing.assert_allclose(lower, expected, atol=1e-14)
        assert log_det == pytest.approx(math.log(8.0), abs=1e-12)

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
        lower, _ = linalg.cholesky(s)
        recon = lower @ lower.T
        scale = np.max(np.abs(s))
        assert np.max(np.abs(recon - s)) <= 1e-10 * scale

    @pytest.mark.parametrize("dim", [1, 3, 7, 10])
    def test_log_det_against_eigen_oracle(self, dim):
        rng = np.random.default_rng(200 + dim)
        s = random_spd(rng, dim)
        _, log_det = linalg.cholesky(s)
        oracle = float(np.sum(np.log(np.linalg.eigvalsh(s))))
        assert log_det == pytest.approx(oracle, abs=1e-8)

    def test_log_det_invariant_matches_diagonal(self):
        rng = np.random.default_rng(7)
        lower, log_det = linalg.cholesky(random_spd(rng, 6))
        from_diag = 2.0 * np.sum(np.log(np.diag(lower)))
        assert abs(log_det - from_diag) <= 1e-12 * abs(from_diag)


def quadratic_form(s, v):
    """``v' s^{-1} v`` of one vector through the stacked kernel."""
    return float(linalg.solve_quadratic_form_rows(linalg.cholesky(s)[0], v[None, :])[0])


class TestSolveQuadraticForm:
    def test_identity_factor(self):
        assert quadratic_form(np.eye(2), np.array([3.0, 4.0])) == pytest.approx(25.0)

    def test_diagonal_factor(self):
        assert quadratic_form(np.diag([4.0, 1.0]), np.array([2.0, 1.0])) == pytest.approx(2.0)

    def test_zero_vector(self):
        assert quadratic_form(np.diag([4.0, 1.0]), np.zeros(2)) == 0.0

    def test_dimension_mismatch(self):
        lower = np.eye(2)
        with pytest.raises(DimensionMismatch):
            linalg.solve_quadratic_form_rows(lower, np.zeros((1, 3)))
        with pytest.raises(DimensionMismatch):
            linalg.solve_quadratic_form_rows(lower, np.zeros(2))

    def test_matches_direct_solve_and_nonnegative(self):
        rng = np.random.default_rng(11)
        s = random_spd(rng, 8)
        for _ in range(20):
            v = rng.standard_normal(8)
            got = quadratic_form(s, v)
            want = float(v @ np.linalg.solve(s, v))
            assert got >= 0.0
            assert got == pytest.approx(want, rel=1e-10)

    def test_zero_iff_zero_vector(self):
        rng = np.random.default_rng(12)
        s = random_spd(rng, 5)
        assert quadratic_form(s, rng.standard_normal(5)) > 0.0

    def test_rows_variant_matches_scalar(self):
        rng = np.random.default_rng(13)
        s = random_spd(rng, 6)
        lower, _ = linalg.cholesky(s)
        rows = rng.standard_normal((9, 6))
        batch = linalg.solve_quadratic_form_rows(lower, rows)
        singles = [quadratic_form(s, row) for row in rows]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)


class TestStackedFactors:
    def test_cholesky_stack_matches_single_factors(self):
        rng = np.random.default_rng(14)
        stack = np.stack([[random_spd(rng, 4) for _ in range(2)] for _ in range(3)])
        lower, log_det, ok = linalg.cholesky_stack(stack)
        assert ok.all()
        for idx in np.ndindex(3, 2):
            one_lower, one_log_det = linalg.cholesky(stack[idx])
            np.testing.assert_array_equal(lower[idx], one_lower)
            assert log_det[idx] == one_log_det

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
        # the forward substitution of solve_quadratic_form_rows against
        # one LAPACK triangular solve per factor
        rng = np.random.default_rng(15 + dim)
        lower = np.stack([linalg.cholesky(random_spd(rng, dim))[0] for _ in range(4)])
        rows = rng.standard_normal((4, 7, dim))
        got = linalg.solve_quadratic_form_rows(lower, rows)
        for i in range(4):
            y = solve_triangular(lower[i], rows[i].T, lower=True)
            np.testing.assert_allclose(got[i], np.sum(y * y, axis=0), rtol=1e-13)
        # rows stored as the transpose of (..., dim, n) arrays read the same
        transposed = np.swapaxes(np.ascontiguousarray(np.swapaxes(rows, 1, 2)), 1, 2)
        np.testing.assert_array_equal(linalg.solve_quadratic_form_rows(lower, transposed), got)

    @pytest.mark.parametrize("dim", [1, 2, 8, 10])
    def test_forward_sq_norms_rows_are_independent(self, dim):
        # a row's quadratic form is the same bytes whichever rows share
        # the call, so scoring in row blocks cannot change a score
        rng = np.random.default_rng(25 + dim)
        lower = np.stack([linalg.cholesky(random_spd(rng, dim))[0] for _ in range(6)])
        rows = np.swapaxes(rng.standard_normal((6, dim, 37)), 1, 2)
        whole = linalg.solve_quadratic_form_rows(lower, rows)
        for size in (1, 2, 3, 5, 16, 36):
            for lo in range(0, 37, size):
                part = np.ascontiguousarray(rows[:, lo:lo + size])
                np.testing.assert_array_equal(
                    linalg.solve_quadratic_form_rows(lower, part), whole[:, lo:lo + size])

    def test_forward_sq_norms_broadcasts_and_checks_shape(self):
        rng = np.random.default_rng(16)
        lower = linalg.cholesky(random_spd(rng, 3))[0]
        rows = rng.standard_normal((5, 2, 3))
        np.testing.assert_allclose(linalg.solve_quadratic_form_rows(lower, rows),
                                   linalg.solve_quadratic_form_rows(np.stack([lower] * 5), rows),
                                   rtol=0, atol=0)
        with pytest.raises(DimensionMismatch):
            linalg.solve_quadratic_form_rows(lower, rng.standard_normal((4, 2)))


class TestQrOrthogonal:
    def test_identity(self):
        np.testing.assert_allclose(linalg.orthonormal_columns(np.eye(4)), np.eye(4), atol=1e-14)

    def test_rotation_is_fixed_point(self):
        theta = math.pi / 6.0
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        np.testing.assert_allclose(linalg.orthonormal_columns(rot), rot, atol=1e-12)

    def test_zero_column_rejected(self):
        a = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(RankDeficient):
            linalg.orthonormal_columns(a)

    @pytest.mark.parametrize("dim", [2, 5, 20])
    def test_orthogonality_and_reconstruction(self, dim):
        rng = np.random.default_rng(300 + dim)
        a = rng.standard_normal((dim, dim))
        q = linalg.orthonormal_columns(a)
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
