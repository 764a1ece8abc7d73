import hashlib

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

# SHA-256 of sample(37, stream(4242)) bytes for every handle of
# fill_handles(), recorded before sampling went through fill
SAMPLE_37_SHA256 = {
    "dense": "3b1fc515b28f9deebe1c42797bf18cf8108a073c4e2b14d5b4f33c4fd9119f71",
    "identity": "020e1d01c0490e7e849762a77801fe5c7c128eae089b52ae53bc380aafcc6d5c",
    "equi": "3bc07dc92ff53f09b66b37002fb2525f86342970b87b280d35f8c99c142cf4a5",
    "ar": "8ffdd494cfd0d079480ad45e611047e2fb313bcd060cfb8c1c2c736722c1b065",
    "inv_ar": "71b20c6dca840e2a1c53879d0014e794afc12a9264a1483f7b2f45b3075772a0",
    "spike": "e047efc4965f893df776d3abb43d0950c77a77a8eac868cdbc9c1336f265852a",
    "spiked_identity": "cbc18098445f4e4672c5144d14630075c464878fa022e0bce859871994cb5a0b",
    "scaled": "534ed0d779ae7e211089a96396f5b2f9e271f50afa92836578e9281cf98a8af6",
    "blocks": "1df93daf38a44f91b3c1bdf1a0c67a5b665c6e3148bb9223fc9e3dc9d963cf7e",
    "spiked_identity_r0": "13149f4d6cea7c71bea0418913ca97ef964ca21b0d49aae7b3bd9b23ddd08edf",
    "ar_p1": "164edfeac5c0c8c5efce74edbb468baeb331639f717ef20e33b00541895ab0b8",
    "ar_p2": "6f7a6c214dcf4258ac3f73a5c1c244611e835b3a3367e110d484b6ea3706f89c",
    "inv_ar_p1": "5e23311db370e216d44c4a30e93a4c02a8843d05d2abdeb3a9861bb73270bcc2",
    "inv_ar_p2": "a4f1d27fa525d36b4884b17bc92bd7bdc3cf27ed1f67410a4c00ad7b8b5c6f75",
}


def make_handles():
    rng = np.random.default_rng(77)
    basis_sq = linalg.orthonormal_columns(rng.standard_normal((6, 6)))
    basis_tall = linalg.orthonormal_columns(rng.standard_normal((15, 3)))
    spd = rng.standard_normal((9, 9))
    spd = spd @ spd.T + 2 * np.eye(9)
    return {
        "dense": DenseCovariance(spd),
        "identity": IdentityCovariance(7),
        "equi": EquiCorrelation(11, 0.6),
        "ar": ScaledCovariance(ArProcessCovariance(13, 0.7), 1.8),
        "inv_ar": ScaledCovariance(InverseArCovariance(12, 0.9), 1.3),
        "spike": RotatedSpike(basis_sq, np.array([9.0, 5.0, 4.0, 3.0, 2.0, 1.5])),
        "spiked_identity": SpikedIdentity(15, basis_tall, np.array([4.0, 2.5, 1.0])),
        "scaled": ScaledCovariance(EquiCorrelation(11, 0.6), 2.5),
        "blocks": BlockDiagonal([
            EquiCorrelation(4, 0.5),
            ScaledCovariance(ArProcessCovariance(6, 0.7), 1.5),
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
        v = rng.standard_normal((cov.p, 1))
        np.testing.assert_allclose(cov.matvec(v), dense @ v, rtol=1e-10, atol=1e-10)
        cols = rng.standard_normal((cov.p, 4))
        np.testing.assert_allclose(cov.matvec(cols), dense @ cols, rtol=1e-10, atol=1e-10)

    def test_solve_matches_dense(self, name):
        cov = make_handles()[name]
        dense = cov.dense()
        rng = np.random.default_rng(2)
        v = rng.standard_normal((cov.p, 1))
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


def fill_handles():
    """Every handle of make_handles(), plus the rank-0 spiked identity and
    the AR forms at p = 1 and 2, where their samplers take special cases."""
    handles = make_handles()
    handles.update({
        "spiked_identity_r0": SpikedIdentity(8, np.zeros((8, 0)), np.zeros(0)),
        "ar_p1": ScaledCovariance(ArProcessCovariance(1, 0.7), 1.8),
        "ar_p2": ScaledCovariance(ArProcessCovariance(2, 0.7), 1.8),
        "inv_ar_p1": ScaledCovariance(InverseArCovariance(1, 0.9), 1.3),
        "inv_ar_p2": ScaledCovariance(InverseArCovariance(2, 0.9), 1.3),
    })
    return handles


@pytest.mark.parametrize("name", list(SAMPLE_37_SHA256))
def test_fill_over_split_blocks_matches_sample(name):
    # 13 + 24 rows: neither block a multiple of the 16-row sampler blocks
    cov = fill_handles()[name]
    whole = cov.sample(37, stream(4242))
    assert hashlib.sha256(whole.tobytes()).hexdigest() == SAMPLE_37_SHA256[name]
    blocks = [np.full((13, cov.p), np.nan), np.full((24, cov.p), np.nan)]
    cov.fill(stream(4242), blocks)
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


@pytest.mark.parametrize("build", [
    lambda: EquiCorrelation(5, 1.0),
    lambda: EquiCorrelation(5, -0.1),
    lambda: ArProcessCovariance(5, 1.0),
    lambda: InverseArCovariance(5, -1.0),
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
        b = ScaledCovariance(ArProcessCovariance(10, 0.6), 2.0)
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
        cov = ScaledCovariance(ArProcessCovariance(p, 0.7), 1.9)
        toeplitz = 1.9 * 0.7 ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        rng = np.random.default_rng(8)
        v = rng.standard_normal((p, 1))
        np.testing.assert_allclose(cov.matvec(v), toeplitz @ v, rtol=1e-12)

    def test_spiked_identity_rank_zero(self):
        cov = SpikedIdentity(9, np.zeros((9, 0)), np.zeros(0))
        np.testing.assert_array_equal(cov.dense(), np.eye(9))
        v = np.arange(9.0)[:, None]
        np.testing.assert_array_equal(cov.solve(v), v)
        block = np.arange(36.0).reshape(9, 4)
        np.testing.assert_array_equal(cov.matvec(v), v)
        np.testing.assert_array_equal(cov.matvec(block), block)
        np.testing.assert_array_equal(cov.solve(block), block)
        assert cov.log_det() == 0.0

    def test_identity_returns_columns_without_copy(self):
        # population mode applies Sigma = I to a transposed view of each
        # chunk's stacked matrix rows
        cov = IdentityCovariance(9)
        cols = np.arange(36.0).reshape(4, 9).T
        assert cov.matvec(cols) is cols
        assert cov.solve(cols) is cols
