import math

import numpy as np
import pytest
import scipy.sparse as sp

from rpeqda import randproj
from rpeqda.errors import (
    DimensionMismatch,
    EmptyInput,
    InvalidDimensions,
    RpeQdaError,
    UnknownProjectionFamily,
)
from rpeqda.randproj import ProjectionFamily, generate, project, project_many
from rpeqda.rng import mix

SN = ProjectionFamily.STANDARD_NORMAL
STP = ProjectionFamily.SPARSE_THREE_POINT
BLOCK = randproj._SPARSE_BLOCK_ROWS


def csr_product(matrices, x):
    """(B, n, d) projection by one CSR product against the whole x.T, as
    sparse projection was computed before it worked in row blocks."""
    stacked = sp.vstack([sp.csr_matrix((m.signs.astype(np.float64), (m.rows, m.cols)),
                                       shape=(m.d, m.p)) for m in matrices], format="csr")
    out = stacked.dot(x.T)
    return out.reshape(len(matrices), matrices[0].d, x.shape[0]).transpose(0, 2, 1)


def laid_out(x, layout):
    """A copy of x with the same values in C order, Fortran order, or as a
    non-contiguous view into a wider array."""
    if layout == "C":
        return np.ascontiguousarray(x)
    if layout == "F":
        return np.asfortranarray(x)
    wide = np.zeros((x.shape[0], 2 * x.shape[1]))
    wide[:, ::2] = x
    return wide[:, ::2]


class TestGenerate:
    @pytest.mark.parametrize("family", [SN, STP])
    def test_seed_determinism(self, family):
        a = generate(family, 4, 64, seed=123)
        b = generate(family, 4, 64, seed=123)
        np.testing.assert_array_equal(a.to_dense(), b.to_dense())

    def test_distinct_seeds_differ(self):
        a = generate(SN, 2, 16, seed=1)
        b = generate(SN, 2, 16, seed=2)
        assert not np.array_equal(a.entries, b.entries)

    @pytest.mark.parametrize("d,p", [(0, 4), (5, 4)])
    def test_invalid_dimensions(self, d, p):
        with pytest.raises(InvalidDimensions):
            generate(SN, d, p, seed=0)

    def test_unknown_family_rejected(self):
        with pytest.raises(UnknownProjectionFamily) as err:
            generate("gaussian", 2, 5, seed=1)
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)

    def test_stp_payload_is_signs_with_unique_positions(self):
        m = generate(STP, 10, 400, seed=9)
        assert set(np.unique(m.signs)) <= {-1, 1}
        keys = m.rows * m.p + m.cols
        assert len(np.unique(keys)) == len(keys)
        assert np.all((m.rows >= 0) & (m.rows < m.d))
        assert np.all((m.cols >= 0) & (m.cols < m.p))

    def test_stp_mean_nonzero_count(self):
        # d*p = 1e5 cells at p = 1e4: nonzero count is Binomial(1e5, 0.01),
        # so the mean over 100 seeds stays within 3 single-draw sigmas.
        d, p = 10, 10000
        counts = [generate(STP, d, p, seed=s).signs.size for s in range(100)]
        expected = d * p / math.sqrt(p)
        bound = 3.0 * math.sqrt(expected * (1.0 - 1.0 / math.sqrt(p)))
        assert abs(np.mean(counts) - expected) <= bound

    def test_stp_three_point_frequencies_chi_square(self):
        # One 100 x 10000 matrix gives 1e6 cells; the chi-square statistic
        # against the exact three-point law has df = 2, so the 1e-6
        # critical value is -2 log(1e-6).
        d, p = 100, 10000
        m = generate(STP, d, p, seed=31)
        n_cells = d * p
        plus = int(np.sum(m.signs == 1))
        minus = int(np.sum(m.signs == -1))
        zero = n_cells - plus - minus
        q = 1.0 / (2.0 * math.sqrt(p))
        expected = np.array([q * n_cells, (1.0 - 2.0 * q) * n_cells, q * n_cells])
        observed = np.array([minus, zero, plus], dtype=float)
        stat = float(np.sum((observed - expected) ** 2 / expected))
        critical = -2.0 * math.log(1e-6)
        assert stat <= critical

    def test_gaussian_moments(self):
        m = generate(SN, 100, 10000, seed=17)
        assert abs(m.entries.mean()) <= 0.01
        assert abs(m.entries.var() - 1.0) <= 0.02


class TestProject:
    def test_identity_payload(self):
        m = generate(SN, 3, 3, seed=0)
        ident = randproj.ProjectionMatrix(family=SN, d=3, p=3, seed=0,
                                          entries=np.eye(3))
        x = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(project(ident, x), x)
        del m

    def test_sparse_unit_action(self):
        m = randproj.ProjectionMatrix(
            family=STP, d=2, p=8, seed=0,
            rows=np.array([0]), cols=np.array([5]), signs=np.array([1], dtype=np.int8))
        x = np.zeros(8)
        x[5] = 1.0
        np.testing.assert_array_equal(project(m, x), np.array([1.0, 0.0]))

    def test_dense_sparse_cross_check(self):
        m = generate(STP, 6, 500, seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 500))
        sparse_out = project(m, x)
        dense_out = x @ m.to_dense().T
        assert np.max(np.abs(sparse_out - dense_out)) <= 1e-12

    def test_vector_input_shape(self):
        m = generate(SN, 4, 10, seed=5)
        z = np.ones(10)
        out = project(m, z)
        assert out.shape == (4,)
        np.testing.assert_array_equal(out, project(m, z[None, :])[0])

    def test_dimension_mismatch(self):
        m = generate(SN, 2, 10, seed=5)
        with pytest.raises(DimensionMismatch):
            project(m, np.ones((3, 11)))

    @pytest.mark.parametrize("family", [SN, STP])
    def test_project_many_matches_individual(self, family):
        # the batched product may reassociate sums, so agreement is up to
        # floating-point roundoff, not bit-exact
        rng = np.random.default_rng(6)
        x = rng.standard_normal((7, 300))
        mats = [generate(family, 5, 300, seed=s) for s in (10, 20, 30)]
        stacked = project_many(mats, x)
        for i, m in enumerate(mats):
            np.testing.assert_allclose(stacked[i], project(m, x),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, 2 * BLOCK + 5])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_sparse_blocks_match_single_csr_product(self, n, layout):
        p = 300
        mats = [generate(STP, 5, p, seed=s) for s in (11, 12, 13)]
        x = laid_out(np.random.default_rng(n).standard_normal((n, p)), layout)
        expected = csr_product(mats, x)
        np.testing.assert_array_equal(project_many(mats, x), expected)
        for i, m in enumerate(mats):
            np.testing.assert_array_equal(project(m, x), expected[i])
            np.testing.assert_array_equal(project(m, x), project_many([m], x)[0])
        np.testing.assert_array_equal(project(mats[0], x[-1]), expected[0, -1])

    def test_project_many_needs_a_matrix(self):
        with pytest.raises(EmptyInput) as err:
            project_many([], np.zeros((2, 3)))
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)


class TestSeedMixing:
    def test_mix_is_deterministic_and_spreads(self):
        seeds = {mix(99, b) for b in range(1, 1000)}
        assert len(seeds) == 999
        assert mix(99, 5) == mix(99, 5)
        assert mix(99, 5) != mix(99, 6)
        assert mix(99, 5, 1) not in (mix(99, 5), mix(99, 6))

    def test_mix_handles_negative_words(self):
        assert mix(-1, 2) == mix(-1, 2)
        assert 0 <= mix(-1, 2) < 2 ** 64
