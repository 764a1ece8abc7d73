import numpy as np
import pytest

from rpeqda import linalg
from rpeqda.errors import DimensionMismatch, InvalidCovariance, InvalidParameter, RpeQdaError
from rpeqda.covariance import (
    ArProcessCovariance,
    BlockDiagonal,
    DenseCovariance,
    EquiCorrelation,
    IdentityCovariance,
    InverseArCovariance,
    RotatedSpike,
    ScaledCovariance,
    SpikedIdentity,
    trace_solve_product,
)
from rpeqda.rng import stream


def make_handles():
    rng = np.random.default_rng(77)
    basis_sq = linalg.qr_orthogonal(rng.standard_normal((6, 6)))
    basis_tall = linalg.orthonormal_columns(rng.standard_normal((15, 3)))
    spd = rng.standard_normal((9, 9))
    spd = spd @ spd.T + 2 * np.eye(9)
    return {
        "dense": DenseCovariance(spd),
        "identity": IdentityCovariance(7),
        "equi": EquiCorrelation(11, 0.6),
        "ar": ArProcessCovariance(13, 0.7, scale=1.8),
        "inv_ar": InverseArCovariance(12, 0.9, scale=1.3),
        "spike": RotatedSpike(basis_sq, np.array([9.0, 5.0, 4.0, 3.0, 2.0, 1.5])),
        "spiked_identity": SpikedIdentity(15, basis_tall, np.array([4.0, 2.5, 1.0])),
        "scaled": ScaledCovariance(EquiCorrelation(11, 0.6), 2.5),
        "blocks": BlockDiagonal([
            EquiCorrelation(4, 0.5),
            ArProcessCovariance(6, 0.7, scale=1.5),
            IdentityCovariance(3),
        ]),
    }


@pytest.mark.parametrize("name", list(make_handles()))
class TestHandleAgainstDense:
    def test_dense_is_symmetric_spd(self, name):
        cov = make_handles()[name]
        dense = cov.dense()
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
        linalg.cholesky(dense)

    def test_matvec_matches_dense(self, name):
        cov = make_handles()[name]
        dense = cov.dense()
        rng = np.random.default_rng(1)
        v = rng.standard_normal(cov.p)
        np.testing.assert_allclose(cov.matvec(v), dense @ v, rtol=1e-10, atol=1e-10)
        cols = rng.standard_normal((cov.p, 4))
        np.testing.assert_allclose(cov.matvec(cols), dense @ cols, rtol=1e-10, atol=1e-10)

    def test_solve_matches_dense(self, name):
        cov = make_handles()[name]
        dense = cov.dense()
        rng = np.random.default_rng(2)
        v = rng.standard_normal(cov.p)
        np.testing.assert_allclose(cov.solve(v), np.linalg.solve(dense, v),
                                   rtol=1e-9, atol=1e-9)

    def test_log_det_and_trace_match_dense(self, name):
        cov = make_handles()[name]
        dense = cov.dense()
        sign, logdet = np.linalg.slogdet(dense)
        assert sign > 0
        assert cov.log_det() == pytest.approx(logdet, abs=1e-9)
        # the KL oracle's trace term, tr(I^{-1} Sigma), through the handle
        assert trace_solve_product(IdentityCovariance(cov.p), cov) == pytest.approx(
            np.trace(dense), rel=1e-12)

    def test_sampler_moments(self, name):
        cov = make_handles()[name]
        dense = cov.dense()
        draws = cov.sample(60000, stream(1000))
        assert draws.shape == (60000, cov.p)
        emp = draws.T @ draws / draws.shape[0]
        scale = max(np.max(np.abs(dense)), 1.0)
        assert np.max(np.abs(emp - dense)) <= 0.08 * scale
        assert np.max(np.abs(draws.mean(axis=0))) <= 0.05 * np.sqrt(scale)


@pytest.mark.parametrize("build", [
    lambda: EquiCorrelation(5, 1.0),
    lambda: EquiCorrelation(5, -0.1),
    lambda: ArProcessCovariance(5, 1.0),
    lambda: ArProcessCovariance(5, 0.5, scale=0.0),
    lambda: InverseArCovariance(5, -1.0),
    lambda: InverseArCovariance(5, 0.5, scale=-2.0),
    lambda: RotatedSpike(np.eye(3), np.array([1.0, 0.0, 2.0])),
    lambda: SpikedIdentity(4, np.eye(4)[:, :2], np.array([1.0])),
    lambda: SpikedIdentity(4, np.eye(4)[:, :1], np.array([-1.0])),
    lambda: ScaledCovariance(IdentityCovariance(3), 0.0),
])
def test_invalid_parameters_rejected(build):
    with pytest.raises(InvalidCovariance) as err:
        build()
    assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)


class TestTraceSolveProduct:
    def test_same_object_scalar_pair_closed_form(self):
        base = InverseArCovariance(40, 0.9)
        scaled = ScaledCovariance(base, 1.3)
        assert trace_solve_product(base, scaled) == pytest.approx(40 * 1.3, rel=1e-12)
        assert trace_solve_product(scaled, base) == pytest.approx(40 / 1.3, rel=1e-12)

    def test_generic_pair_matches_dense(self):
        a = BlockDiagonal([EquiCorrelation(5, 0.5), IdentityCovariance(5)])
        b = ArProcessCovariance(10, 0.6, scale=2.0)
        got = trace_solve_product(a, b)
        want = float(np.trace(np.linalg.solve(a.dense(), b.dense())))
        assert got == pytest.approx(want, rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch) as err:
            trace_solve_product(IdentityCovariance(3), IdentityCovariance(4))
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)

    def test_limit_enforced(self):
        big = IdentityCovariance(3000)
        other = EquiCorrelation(3000, 0.1)
        with pytest.raises(InvalidParameter) as err:
            trace_solve_product(big, other)
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)

    def test_scalar_pair_allowed_beyond_limit(self):
        base = EquiCorrelation(5000, 0.2)
        scaled = ScaledCovariance(base, 3.0)
        assert trace_solve_product(base, scaled) == pytest.approx(15000.0)


class TestStructureSpecifics:
    def test_equicorrelation_sampler_law(self):
        # population covariance 0.1 I + 0.9 on the off-diagonal at t = 3
        cov = EquiCorrelation(3, 0.9)
        draws = cov.sample(100000, stream(5))
        emp = draws.T @ draws / draws.shape[0]
        expected = 0.1 * np.eye(3) + 0.9 * np.ones((3, 3))
        assert np.max(np.abs(emp - expected)) <= 0.02

    def test_identity_blocks_off_diagonal(self):
        cov = BlockDiagonal([IdentityCovariance(20)])
        draws = cov.sample(100000, stream(6))
        emp = draws.T @ draws / draws.shape[0]
        off = emp - np.diag(np.diag(emp))
        assert np.max(np.abs(off)) <= 0.02

    def test_inverse_ar_sample_precision(self):
        # inverse of the big-sample covariance recovers the Toeplitz
        # correlation entrywise
        p = 50
        cov = InverseArCovariance(p, 0.9)
        draws = cov.sample(100000, stream(7))
        emp = draws.T @ draws / draws.shape[0]
        prec = np.linalg.inv(emp)
        toeplitz = 0.9 ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        assert np.max(np.abs(prec - toeplitz)) <= 0.05

    def test_ar_matvec_is_toeplitz_product(self):
        p = 31
        cov = ArProcessCovariance(p, 0.7, scale=1.9)
        toeplitz = 1.9 * 0.7 ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        rng = np.random.default_rng(8)
        v = rng.standard_normal(p)
        np.testing.assert_allclose(cov.matvec(v), toeplitz @ v, rtol=1e-12)

    def test_spiked_identity_rank_zero(self):
        cov = SpikedIdentity(9, np.zeros((9, 0)), np.zeros(0))
        np.testing.assert_array_equal(cov.dense(), np.eye(9))
        v = np.arange(9.0)
        np.testing.assert_array_equal(cov.solve(v), v)
        block = np.arange(36.0).reshape(9, 4)
        np.testing.assert_array_equal(cov.matvec(v), v)
        np.testing.assert_array_equal(cov.matvec(block), block)
        np.testing.assert_array_equal(cov.solve(block), block)
        assert cov.log_det() == 0.0
