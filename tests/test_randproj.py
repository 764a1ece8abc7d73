import math
import multiprocessing
import os
import threading

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

from oracles import dense_projection

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
        np.testing.assert_array_equal(dense_projection(a), dense_projection(b))

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
        np.testing.assert_array_equal(project(m, x[None, :]), np.array([[1.0, 0.0]]))

    def test_dense_sparse_cross_check(self):
        m = generate(STP, 6, 500, seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 500))
        sparse_out = project(m, x)
        dense_out = x @ dense_projection(m).T
        assert np.max(np.abs(sparse_out - dense_out)) <= 1e-12

    def test_dimension_mismatch(self):
        m = generate(SN, 2, 10, seed=5)
        with pytest.raises(DimensionMismatch):
            project(m, np.ones((3, 11)))

    @pytest.mark.parametrize("shape", [(10,), (1, 1, 10)])
    def test_rows_must_be_two_dimensional(self, shape):
        # a single point is one row, x[None, :]
        m = generate(SN, 2, 10, seed=5)
        with pytest.raises(DimensionMismatch):
            project(m, np.ones(shape))

    @pytest.mark.parametrize("other", [(STP, 2, 10), (SN, 3, 10), (SN, 2, 12)])
    def test_project_many_needs_one_family_and_shape(self, other):
        # the matrices act as one stacked operator, so they must agree in
        # family, d and p, whichever of them differs
        mats = [generate(SN, 2, 10, seed=s) for s in (1, 2)]
        odd = generate(*other, seed=3)
        for matrices in ([odd] + mats, mats + [odd]):
            with pytest.raises(DimensionMismatch):
                project_many(matrices, np.ones((3, 10)))

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

    # from BLOCK + 1 rows on, the blocks are split into two halves, one per
    # thread: one extra piece, an even split and two odd ones
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK,
                                   2 * BLOCK + 5, 3 * BLOCK + 1])
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
        np.testing.assert_array_equal(project(mats[0], x[-1][None, :])[0], expected[0, -1])

    def test_project_many_needs_a_matrix(self):
        with pytest.raises(EmptyInput) as err:
            project_many([], np.zeros((2, 3)))
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)


def matrix_bytes(m):
    """Every field of a ProjectionMatrix, arrays as (dtype, shape, bytes)."""
    def field(v):
        return (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
    return tuple(field(getattr(m, name)) for name in
                 ("family", "d", "p", "seed", "entries", "rows", "cols", "signs"))


class TestGenerateMany:
    @pytest.mark.parametrize("family", [SN, STP])
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 200])
    def test_equals_one_by_one_in_seed_order(self, family, count):
        seeds = [mix(31, b) for b in range(count)]
        got = randproj.generate_many(family, 3, 40, seeds)
        want = [generate(family, 3, 40, seed) for seed in seeds]
        assert [matrix_bytes(m) for m in got] == [matrix_bytes(m) for m in want]

    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_bad_dimension_raises_typed(self, count):
        with pytest.raises(InvalidDimensions):
            randproj.generate_many(SN, 0, 40, range(count))
        with pytest.raises(InvalidDimensions):
            randproj.generate_many(STP, 41, 40, range(count))

    @pytest.mark.parametrize("bad", [(1,), (5,), (1, 5)])
    def test_error_in_either_half_reaches_the_caller(self, monkeypatch, bad):
        # seeds 0-3 are the calling thread's half, 4-6 the worker's; when
        # both halves fail the first half's error is the one raised
        errors = {seed: InvalidDimensions(f"seed {seed}") for seed in bad}
        original = randproj.generate

        def flaky(family, d, p, seed):
            if seed in errors:
                raise errors[seed]
            return original(family, d, p, seed)

        monkeypatch.setattr(randproj, "generate", flaky)
        with pytest.raises(InvalidDimensions) as err:
            randproj.generate_many(SN, 3, 40, range(7))
        assert err.value is errors[bad[0]]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_draws_in_a_forked_child(self):
        # the child inherits the started worker's pool but not its thread;
        # a draw there must start a new worker, not wait forever
        randproj.generate_many(SN, 3, 40, range(4))
        child = multiprocessing.get_context("fork").Process(target=draw_four)
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


class TestDrawThreads:
    @pytest.mark.parametrize("family, split", [(SN, True), (STP, False)])
    def test_only_dense_draws_leave_the_calling_thread(self, monkeypatch, family, split):
        # a sparse draw holds the interpreter lock, so splitting it is slower
        names = []
        original = randproj.generate

        def spy(*args):
            names.append(threading.current_thread().name)
            return original(*args)

        monkeypatch.setattr(randproj, "generate", spy)
        randproj.generate_many(family, 3, 40, range(8))
        caller = threading.current_thread().name
        assert len(names) == 8
        assert (set(names) != {caller}) == split


def draw_four():
    got = randproj.generate_many(SN, 3, 40, range(4))
    if [m.seed for m in got] != [0, 1, 2, 3]:
        raise SystemExit(1)


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
