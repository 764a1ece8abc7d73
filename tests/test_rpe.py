import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from rpeqda import linalg, qda, randproj, rpe, schemes
from rpeqda.dataset import Dataset
from rpeqda.errors import (
    DimensionMismatch,
    InvalidParameter,
    MemberDegenerate,
    NonFiniteInput,
    NotPositiveDefinite,
    ReducedDimTooLarge,
    RpeQdaError,
    SingularCovariance,
    TooFewClasses,
)
from rpeqda.randproj import ProjectionFamily, generate, project

from oracles import DenseCovariance, dense, dense_projection

SN = ProjectionFamily.STANDARD_NORMAL
STP = ProjectionFamily.SPARSE_THREE_POINT

# scores at x and c * x may differ by rounding, so predictions are compared
# only where the class margin is wider than this
SCALE_MARGIN_TOL = 1e-6
# scores of an ensemble refitted on the training rows in another order
# within each class agree to this fraction of the largest score
PERMUTATION_TOL = 1e-10


def two_class_data(rng, n_per_class=30, p=5, shift=1.5):
    x0 = rng.standard_normal((n_per_class, p))
    scale = np.linspace(1.0, 2.0, p)
    x1 = rng.standard_normal((n_per_class, p)) * scale + shift
    features = np.vstack([x0, x1])
    labels = ("0",) * n_per_class + ("1",) * n_per_class
    return Dataset(features, labels)


def random_spd(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + dim * np.eye(dim)


def qda_fit(data):
    """Array-form QDA of a Dataset, classes in first-appearance order."""
    return qda.fit_grouped([(label, data.features[data.class_indices(label)])
                            for label in data.class_labels])


class TestFit:
    def test_determinism(self):
        data = two_class_data(np.random.default_rng(1))
        config = rpe.RpeConfig(B=5, d=3, master_seed=77)
        m1 = rpe.rpe_fit(data, config)
        m2 = rpe.rpe_fit(data, config)
        for a, b in zip(m1.members.matrices, m2.members.matrices):
            np.testing.assert_array_equal(dense_projection(a), dense_projection(b))
        z = np.random.default_rng(2).standard_normal((10, 5))
        np.testing.assert_array_equal(rpe.rpe_scores_rows(m1, z),
                                      rpe.rpe_scores_rows(m2, z))

    @pytest.mark.parametrize("ridge", [-1.0, -1e-300, np.nan, np.inf])
    def test_bad_ridge_rejected(self, ridge):
        # sample fit and population mode share the ridge check
        rng = np.random.default_rng(1)
        config = rpe.RpeConfig(B=2, d=2, ridge=ridge)
        with pytest.raises(InvalidParameter) as err:
            rpe.rpe_fit(two_class_data(rng), config)
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)
        with pytest.raises(InvalidParameter):
            rpe.population_rpe_scores(random_populations(rng, 5), 5, config,
                                      np.zeros((1, 5)))

    @pytest.mark.parametrize("fields", [
        {"B": 0}, {"B": -2}, {"d": 0}, {"d": -1}, {"max_regen_retries": -1},
    ])
    def test_bad_config_rejected_before_any_work(self, fields):
        # B = 0 once gave NaN population scores, B = -2 zeros, d = 0 a bare
        # ZeroDivisionError and max_regen_retries = -1 a MemberDegenerate
        # without a draw; the config itself now refuses them
        with pytest.raises(InvalidParameter) as err:
            rpe.RpeConfig(**fields)
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)
        config = rpe.RpeConfig(B=2, d=2)
        with pytest.raises(InvalidParameter):
            dataclasses.replace(config, **fields)

    def test_smallest_valid_config(self):
        rng = np.random.default_rng(1)
        config = rpe.RpeConfig(B=1, d=1, max_regen_retries=0)
        model = rpe.rpe_fit(two_class_data(rng), config)
        assert len(model.members) == 1
        scores = rpe.population_rpe_scores(random_populations(rng, 5), 5, config,
                                           np.zeros((1, 5)))
        assert np.isfinite(scores).all()

    def test_reduced_dim_too_large(self):
        data = two_class_data(np.random.default_rng(1), n_per_class=6)
        with pytest.raises(ReducedDimTooLarge):
            rpe.rpe_fit(data, rpe.RpeConfig(B=2, d=6))

    def test_default_dim_resolution(self):
        data = two_class_data(np.random.default_rng(1), n_per_class=30, p=5)
        model = rpe.rpe_fit(data, rpe.RpeConfig(B=2, d=None))
        # min(29, ceil(log 5) = 2, 10) = 2
        assert model.config.d == 2
        assert rpe.default_reduced_dim(10000, 100) == 10
        assert rpe.default_reduced_dim(2000, 100) == 8
        assert rpe.default_reduced_dim(512, 5) == 4

    def test_single_class_rejected(self):
        data = Dataset(np.random.default_rng(1).standard_normal((10, 4)), ("a",) * 10)
        with pytest.raises(TooFewClasses) as err:
            rpe.rpe_fit(data, rpe.RpeConfig(B=2, d=2))
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        data = two_class_data(np.random.default_rng(1))
        data.features[37, 2] = bad
        with pytest.raises(NonFiniteInput, match="row 37"):
            rpe.rpe_fit(data, rpe.RpeConfig(B=2, d=2))

    def test_member_degenerate_on_constant_features(self):
        features = np.ones((20, 8))
        labels = ("a",) * 10 + ("b",) * 10
        data = Dataset(features, labels)
        config = rpe.RpeConfig(B=2, d=2, max_regen_retries=3)
        with pytest.raises(MemberDegenerate) as err:
            rpe.rpe_fit(data, config)
        assert err.value.member == 1
        assert isinstance(err.value, SingularCovariance)

    def test_member_seeds_documented_derivation(self):
        data = two_class_data(np.random.default_rng(3))
        config = rpe.RpeConfig(B=4, d=3, master_seed=123)
        model = rpe.rpe_fit(data, config)
        for b, matrix in enumerate(model.members.matrices, start=1):
            assert matrix.seed == rpe.member_seed(123, b)

    def test_projected_fit_equals_projected_estimators(self):
        # member QDA mean/cov must equal R mu_hat and R Sigma_hat R'
        rng = np.random.default_rng(4)
        data = two_class_data(rng, n_per_class=20, p=7)
        config = rpe.RpeConfig(B=1, d=3, master_seed=5)
        model = rpe.rpe_fit(data, config)
        stack = model.members
        r = dense_projection(stack.matrices[0])
        for j, label in enumerate(model.class_labels):
            rows = data.features[data.class_indices(label)]
            mu = rows.mean(axis=0)
            centered = rows - mu
            ambient_cov = centered.T @ centered / (len(rows) - 1)
            np.testing.assert_allclose(stack.means[0, j], r @ mu, rtol=1e-10)
            lower = stack.lower[0, j]
            np.testing.assert_allclose(
                lower @ lower.T, r @ ambient_cov @ r.T, rtol=1e-8, atol=1e-10)
            assert stack.log_det[0, j] == pytest.approx(
                np.linalg.slogdet(r @ ambient_cov @ r.T)[1], rel=1e-10)
        np.testing.assert_array_equal(model.priors, [0.5, 0.5])


class TestScores:
    def test_identical_members_average_to_single(self):
        data = two_class_data(np.random.default_rng(5))
        model = rpe.rpe_fit(data, rpe.RpeConfig(B=1, d=3, master_seed=9))
        tripled = with_members(model, [0, 0, 0])
        z = np.random.default_rng(6).standard_normal(5)
        np.testing.assert_allclose(rpe.rpe_scores(tripled, z),
                                   rpe.rpe_scores(model, z), rtol=1e-12)

    def test_pairwise_mean_arithmetic(self):
        # members with discriminants 1.0 and -0.2 average to 0.4: at the
        # origin every projected point is 0, so member b's discriminant is
        # half the log-det gap between its classes, set through the factors
        d01 = np.array([1.0, -0.2])
        lower = np.ones((2, 2, 1, 1))
        lower[:, 0, 0, 0] = np.exp(-d01)
        stack = rpe.MemberStack(
            matrices=tuple(generate(SN, 1, 3, seed=s) for s in (10, 11)),
            means=np.zeros((2, 2, 1)), lower=lower,
            log_det=2.0 * np.log(lower[..., 0, 0]))
        model = rpe.RpeModel(config=rpe.RpeConfig(B=2, d=1), p=3,
                             class_labels=("0", "1"), priors=np.array([0.5, 0.5]),
                             members=stack)
        scores = rpe.rpe_scores(model, np.zeros(3))
        assert scores[0] - scores[1] == pytest.approx(0.4, abs=1e-12)

    def test_replication_invariance(self):
        data = two_class_data(np.random.default_rng(7))
        model = rpe.rpe_fit(data, rpe.RpeConfig(B=3, d=3, master_seed=11))
        doubled = with_members(model, [0, 1, 2, 0, 1, 2])
        z_rows = np.random.default_rng(8).standard_normal((20, 5))
        np.testing.assert_allclose(rpe.rpe_scores_rows(doubled, z_rows),
                                   rpe.rpe_scores_rows(model, z_rows), atol=1e-12)
        for z in z_rows:
            assert rpe.rpe_classify(doubled, z) == rpe.rpe_classify(model, z)

    def test_member_permutation_tolerance(self):
        data = two_class_data(np.random.default_rng(9))
        model = rpe.rpe_fit(data, rpe.RpeConfig(B=8, d=3, master_seed=13))
        permuted = with_members(model, range(7, -1, -1))
        z_rows = np.random.default_rng(10).standard_normal((25, 5))
        base = rpe.rpe_scores_rows(model, z_rows)
        swapped = rpe.rpe_scores_rows(permuted, z_rows)
        assert np.max(np.abs(base - swapped) / np.maximum(np.abs(base), 1e-9)) <= 1e-10
        for z in z_rows:
            assert rpe.rpe_classify(model, z) == rpe.rpe_classify(permuted, z)

    def test_prior_scaling_invariance_of_pairwise_discriminants(self):
        data = two_class_data(np.random.default_rng(11))
        model = rpe.rpe_fit(data, rpe.RpeConfig(B=4, d=3, master_seed=15))
        # scaling every prior by 3.7 shifts every log prior by log 3.7
        scaled = rpe.RpeModel(config=model.config, p=model.p,
                              class_labels=model.class_labels,
                              priors=model.priors * 3.7, members=model.members)
        z = np.random.default_rng(12).standard_normal(5)
        s0 = rpe.rpe_scores(model, z)
        s1 = rpe.rpe_scores(scaled, z)
        assert (s1[0] - s1[1]) == pytest.approx(s0[0] - s0[1], abs=1e-12)

    def test_dimension_mismatch(self):
        data = two_class_data(np.random.default_rng(13))
        model = rpe.rpe_fit(data, rpe.RpeConfig(B=2, d=3))
        with pytest.raises(DimensionMismatch):
            rpe.rpe_scores(model, np.zeros(6))

    def test_non_finite_rows_rejected(self, monkeypatch):
        # a small scan block makes the bad row fall in a later block
        monkeypatch.setattr(rpe, "_FINITE_CHECK_VALUES", 10)
        data = two_class_data(np.random.default_rng(13))
        model = rpe.rpe_fit(data, rpe.RpeConfig(B=2, d=3))
        z_rows = np.zeros((6, 5))
        z_rows[4, 1] = np.nan
        with pytest.raises(NonFiniteInput, match="row 4"):
            rpe.rpe_predict_rows(model, z_rows)
        with pytest.raises(NonFiniteInput):
            rpe.rpe_scores(model, np.full(5, np.inf))

    # With 2-row scan steps the calling thread scans rows 0-29 of the 60
    # training rows and the worker rows 30-59; of 13 rows to score (7
    # steps) the caller scans rows 0-7 and the worker rows 8-12.
    @pytest.mark.parametrize("where, bad, named", [
        ("training features", (7, 41), 7), ("training features", (29, 30), 29),
        ("training features", (30,), 30), ("training features", (30, 59), 30),
        ("training features", (59,), 59),
        ("rows to score", (3, 9), 3), ("rows to score", (8,), 8),
        ("rows to score", (8, 12), 8), ("rows to score", (12,), 12)])
    def test_first_bad_row_named_across_scan_halves(self, monkeypatch, where, bad, named):
        monkeypatch.setattr(rpe, "_FINITE_CHECK_VALUES", 10)
        data = two_class_data(np.random.default_rng(14))
        model = rpe.rpe_fit(data, rpe.RpeConfig(B=2, d=3))
        x = data.features if where == "training features" else np.zeros((13, 5))
        x[list(bad), 2] = np.nan
        with pytest.raises(NonFiniteInput, match=f"{where}: row {named} holds"):
            if where == "training features":
                rpe.rpe_fit(data, rpe.RpeConfig(B=2, d=3))
            else:
                rpe.rpe_scores_rows(model, x)

    @staticmethod
    def _set_block_rows(monkeypatch, rows, model):
        row_bytes = 8 * len(model.members) * model.config.d * (1 + 2 * len(model.class_labels))
        monkeypatch.setattr(rpe, "_SCORE_BLOCK_BYTES", rows * row_bytes)

    @pytest.mark.parametrize("family", [SN, STP])
    def test_scores_independent_of_row_block_size(self, monkeypatch, family):
        # rows are scored independently and members accumulate in member
        # order, so the row blocks leave sparse (stp) scores bit-identical;
        # a dense projection is a BLAS product that may round differently
        # with the row count
        rng = np.random.default_rng(16)
        data = two_class_data(rng, p=40)
        model = rpe.rpe_fit(data, rpe.RpeConfig(B=12, d=4, family=family, master_seed=23))
        z_rows = rng.standard_normal((203, 40)) * 2.0
        self._set_block_rows(monkeypatch, 203, model)
        whole = rpe.rpe_scores_rows(model, z_rows)
        for rows in (1, 7, 64, 202):
            self._set_block_rows(monkeypatch, rows, model)
            blocked = rpe.rpe_scores_rows(model, z_rows)
            if family is STP:
                np.testing.assert_array_equal(blocked, whole)
            else:
                np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=0)
                np.testing.assert_array_equal(np.argmax(blocked, axis=1),
                                              np.argmax(whole, axis=1))

    def test_scoring_memory_is_bounded_by_the_block_budget(self, monkeypatch):
        # 4000 rows hold 16 MiB of member arrays (8·B·d·(1 + 2J) bytes per
        # row): in one block the traced peak is 19 MiB, with a 1 MiB budget
        # it is 1.4 MiB
        rng = np.random.default_rng(17)
        model = rpe.rpe_fit(two_class_data(rng, p=20),
                            rpe.RpeConfig(B=20, d=5, family=STP, master_seed=29))
        z_rows = rng.standard_normal((4000, 20))
        monkeypatch.setattr(rpe, "_SCORE_BLOCK_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            rpe.rpe_scores_rows(model, z_rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20

    @pytest.mark.parametrize("family", [SN, STP])
    def test_scores_independent_of_tile_size(self, monkeypatch, family):
        # one projection block of 57 rows, scored in tiles of one member's
        # 1, 7, n - 1 or n rows, or of 5, B - 1 or all B members' rows: the
        # kernel is elementwise, so every tiling gives the same bytes
        rng = np.random.default_rng(18)
        model = rpe.rpe_fit(two_class_data(rng, p=40),
                            rpe.RpeConfig(B=12, d=4, family=family, master_seed=31))
        z_rows = rng.standard_normal((57, 40)) * 2.0
        unit = 16 * 2 * 4
        monkeypatch.setattr(rpe, "POPULATION_CHUNK_BYTES", 12 * 57 * unit)
        whole = rpe.rpe_scores_rows(model, z_rows)
        for members, rows in [(1, 1), (1, 7), (1, 56), (1, 57), (5, 57), (11, 57)]:
            monkeypatch.setattr(rpe, "POPULATION_CHUNK_BYTES", members * rows * unit)
            assert rpe._tiles(12, 57, unit)[0] == (slice(0, members), slice(0, rows))
            np.testing.assert_array_equal(rpe.rpe_scores_rows(model, z_rows), whole)

    def test_population_chunk_is_one_tile(self):
        # the population workload's chunks: 7 members, 100 rows, two classes
        config = rpe.RpeConfig(B=500, d=8)
        chunk = rpe._population_chunks(2000, config, 2, 100)[0]
        assert len(chunk) == 7
        assert rpe._tiles(7, 100, 16 * 2 * 8) == [(slice(0, 7), slice(0, 100))]

    def test_kernel_memory_is_bounded_by_the_tile_budget(self, monkeypatch):
        # 2000 rows in one projection block: the (B·d, n) product and the
        # (B, n, J) scores take 2.2 MiB, and the kernel's arrays take 8 MiB
        # more as one tile (10.2 MiB traced peak) but 0.3 MiB in 256 KiB
        # tiles (2.5 MiB peak)
        rng = np.random.default_rng(19)
        model = rpe.rpe_fit(two_class_data(rng, p=20),
                            rpe.RpeConfig(B=20, d=5, master_seed=37))
        z_rows = rng.standard_normal((2000, 20))
        monkeypatch.setattr(rpe, "POPULATION_CHUNK_BYTES", 1 << 18)
        tracemalloc.start()
        try:
            rpe.rpe_scores_rows(model, z_rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 << 20

    def test_fitted_dense_stack_holds_its_matrices_once(self):
        model = rpe.rpe_fit(two_class_data(np.random.default_rng(20)),
                            rpe.RpeConfig(B=6, d=3))
        stacked = randproj._stacked(model.members.matrices)
        assert all(np.shares_memory(stacked, m.entries) for m in model.members.matrices)

    def test_single_member_reduces_to_member_qda(self):
        data = two_class_data(np.random.default_rng(14))
        model = rpe.rpe_fit(data, rpe.RpeConfig(B=1, d=3, master_seed=21))
        matrix = model.members.matrices[0]
        member = qda_fit(Dataset(project(matrix, data.features), data.labels))
        z = np.random.default_rng(15).standard_normal(5)
        scores = qda.class_scores_rows(*member, project(matrix, z[None, :]))[0]
        assert rpe.rpe_classify(model, z) == data.class_labels[int(np.argmax(scores))]


def with_members(model, order):
    """The model with its members replaced by members ``order`` (indices
    into the stack, repeats allowed)."""
    stack = model.members
    order = list(order)
    return rpe.RpeModel(
        config=model.config, p=model.p, class_labels=model.class_labels,
        priors=model.priors,
        members=rpe.MemberStack(
            matrices=tuple(stack.matrices[i] for i in order), means=stack.means[order],
            lower=stack.lower[order], log_det=stack.log_det[order]))


class TestFullDimensionEquivalence:
    def test_sample_mode_square_projection_matches_classical(self):
        rng = np.random.default_rng(16)
        data = two_class_data(rng, n_per_class=30, p=5)
        classical = qda_fit(data)
        model = rpe.rpe_fit(data, rpe.RpeConfig(B=1, d=5, master_seed=33))
        z_rows = rng.standard_normal((100, 5)) * 1.5
        ens = rpe.rpe_scores_rows(model, z_rows)
        direct = qda.class_scores_rows(*classical, z_rows)
        np.testing.assert_allclose(ens[:, 0] - ens[:, 1],
                                   direct[:, 0] - direct[:, 1], atol=1e-8)

    def test_population_mode_square_projection_matches_classical(self):
        rng = np.random.default_rng(17)
        pops = [(0.5, rng.standard_normal(5), DenseCovariance(random_spd(rng, 5))),
                (0.5, rng.standard_normal(5), DenseCovariance(random_spd(rng, 5)))]
        config = rpe.RpeConfig(B=1, d=5, master_seed=44)
        z_rows = rng.standard_normal((100, 5)) * 2.0
        ens = rpe.population_rpe_scores(pops, 5, config, z_rows)
        direct = qda.population_class_scores(pops, z_rows)
        np.testing.assert_allclose(ens[:, 0] - ens[:, 1],
                                   direct[:, 0] - direct[:, 1], atol=1e-8)


class TestIndependentMemberOracle:
    def test_aggregated_decisions_match_sklearn_members(self):
        # independent per-member implementation; for two classes the
        # averaged log-posterior differences equal the averaged score
        # differences, so the aggregated decisions must coincide
        sklearn_qda = pytest.importorskip("sklearn.discriminant_analysis")
        rng = np.random.default_rng(23)
        data = two_class_data(rng, n_per_class=40, p=30)
        model = rpe.rpe_fit(data, rpe.RpeConfig(B=20, d=4, master_seed=3))
        z = rng.standard_normal((60, 30)) + 0.7
        from rpeqda.randproj import project_many
        matrices = model.members.matrices
        proj_train = project_many(matrices, data.features)
        proj_test = project_many(matrices, z)
        y = np.array([0] * 40 + [1] * 40)
        theirs = np.zeros((60, 2))
        for i in range(len(matrices)):
            fitted = sklearn_qda.QuadraticDiscriminantAnalysis(
                store_covariance=False, tol=0.0).fit(proj_train[i], y)
            theirs += fitted.predict_log_proba(proj_test[i])
        np.testing.assert_array_equal(np.argmax(rpe.rpe_scores_rows(model, z), axis=1),
                                      np.argmax(theirs, axis=1))


class TestPopulationMode:
    def test_identical_populations_zero_discriminant(self):
        rng = np.random.default_rng(18)
        cov = DenseCovariance(random_spd(rng, 6))
        mean = rng.standard_normal(6)
        pops = [(0.5, mean, cov), (0.5, mean, cov)]
        config = rpe.RpeConfig(B=3, d=2, master_seed=55)
        z_rows = rng.standard_normal((10, 6))
        scores = rpe.population_rpe_scores(pops, 6, config, z_rows)
        np.testing.assert_allclose(scores[:, 0], scores[:, 1], atol=1e-12)

    def test_no_rows_give_no_scores(self):
        spec = schemes.build_example2(40, c=2.0, r=0, seed=1)
        pops = [(pop.prior, pop.mean, pop.cov) for pop in spec.populations]
        scores = rpe.population_rpe_scores(pops, 40, rpe.RpeConfig(B=5, d=3),
                                           np.zeros((0, 40)))
        assert scores.shape == (0, 2)

    def test_scale_pair_member_log_det_gap(self):
        # members of a (Sigma, c Sigma) pair carry log-det difference
        # d log c exactly, checked against dense computation at p = 50
        spec = schemes.build_example2(50, c=2.0, r=3, spike_bound=4.0, seed=2)
        pops = [(pop.prior, pop.mean, pop.cov) for pop in spec.populations]
        config = rpe.RpeConfig(B=4, d=6, master_seed=66)
        dense_cov = dense(spec.populations[0].cov)
        members = 0
        for stack in population_stacks(pops, 50, config):
            for matrix, log_det in zip(stack.matrices, stack.log_det):
                gap = log_det[1] - log_det[0]
                assert gap == pytest.approx(6 * math.log(2.0), rel=1e-10)
                r = dense_projection(matrix)
                want = np.linalg.slogdet(r @ dense_cov @ r.T)[1]
                assert log_det[0] == pytest.approx(want, rel=1e-8)
                members += 1
        assert members == 4

    @pytest.mark.parametrize("shape", [(4,), (1, 1, 4), (2, 3)])
    def test_population_scores_need_row_matrix(self, shape):
        # as in rpe_scores_rows: a vector or a wrong width is a typed error
        pops = random_populations(np.random.default_rng(19), 4)
        with pytest.raises(DimensionMismatch):
            rpe.population_rpe_scores(pops, 4, rpe.RpeConfig(B=2, d=2), np.zeros(shape))


def oracle_population_scores(populations, p, config, z_rows):
    """Member-by-member population-mode scores: each member draws its
    matrix, factors its exact projected moments one class at a time
    (redrawing on failure) and whitens with a LAPACK triangular solve."""
    d = config.d
    acc = np.zeros((len(z_rows), len(populations)))
    for b in range(1, config.B + 1):
        for attempt in range(config.max_regen_retries + 1):
            matrix = generate(config.family, d, p, rpe.member_seed(config.master_seed, b, attempt))
            try:
                classes = []
                for prior, mean, cov in populations:
                    s = project(matrix, cov.matvec(dense_projection(matrix).T).T)
                    factor = linalg.cholesky((s + s.T) / 2.0 + config.ridge * np.eye(d))
                    classes.append((math.log(prior), project(matrix, mean[None, :])[0], *factor))
                break
            except NotPositiveDefinite:
                continue
        else:
            raise MemberDegenerate(b)
        projected = project(matrix, z_rows)
        for j, (log_prior, mu, lower, log_det) in enumerate(classes):
            y = solve_triangular(lower, (projected - mu).T, lower=True)
            acc[:, j] += log_prior - 0.5 * log_det - 0.5 * np.sum(y * y, axis=0)
    return acc / config.B


def population_stacks(populations, p, config, rows=0):
    """The population-mode ensemble as MemberStack chunks in member order,
    fitted from the chunks and moments ``population_rpe_scores`` uses."""
    moments = rpe._population_moments(populations, p, config.d)
    return [rpe._fit_stack(config, p, members, moments)
            for members in rpe._population_chunks(p, config, len(populations), rows)]


def serial_population_scores(populations, p, config, z_rows):
    """population_rpe_scores on one thread: every chunk fitted and scored
    in turn, member scores added in member order."""
    acc = np.zeros((len(z_rows), len(populations)))
    priors = [prior for prior, _, _ in populations]
    for stack in population_stacks(populations, p, config, rows=len(z_rows)):
        rpe._add_members(acc, rpe._member_scores(stack, priors, z_rows))
    return acc / config.B


def random_populations(rng, p, priors=(0.4, 0.6)):
    return [(prior, rng.standard_normal(p), DenseCovariance(random_spd(rng, p)))
            for prior in priors]


class TestPopulationStacks:
    def _set_chunk(self, monkeypatch, members, d, p, populations, rows):
        member_bytes = 8 * d * (2 * p + len(populations) * rows)
        monkeypatch.setattr(rpe, "POPULATION_CHUNK_BYTES", members * member_bytes)

    @pytest.mark.parametrize("B, d, p, chunk", [
        (1, 3, 12, 4),     # a single member
        (7, 3, 12, 3),     # B not a multiple of the chunk
        (5, 6, 6, 2),      # square projections, d = p
    ])
    def test_matches_member_oracle(self, monkeypatch, B, d, p, chunk):
        rng = np.random.default_rng(100 + B)
        pops = random_populations(rng, p)
        z_rows = rng.standard_normal((9, p)) * 2.0
        config = rpe.RpeConfig(B=B, d=d, master_seed=5 + B, ridge=0.25 * (B % 2))
        self._set_chunk(monkeypatch, chunk, d, p, pops, len(z_rows))
        stacks = population_stacks(pops, p, config, rows=len(z_rows))
        assert [len(s) for s in stacks] == [
            min(chunk, B - first) for first in range(0, B, chunk)]
        got = rpe.population_rpe_scores(pops, p, config, z_rows)
        want = oracle_population_scores(pops, p, config, z_rows)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_scores_independent_of_chunk_size(self, monkeypatch):
        # Structured handles apply Sigma to each column on its own, so a
        # member scores bit-identically whichever chunk holds it; a dense
        # handle's BLAS product may round differently with the column count.
        rng = np.random.default_rng(31)
        spec = schemes.build_example2(40, c=2.0, r=3, spike_bound=4.0, seed=4)
        structured = [(pop.prior, pop.mean, pop.cov) for pop in spec.populations]
        dense = random_populations(rng, 40, priors=(0.3, 0.3, 0.4))
        config = rpe.RpeConfig(B=11, d=4, master_seed=8)
        z_rows = rng.standard_normal((13, 40))
        for pops, rtol in ((structured, 0.0), (dense, 1e-13)):
            results = []
            for budget in (1, 10 ** 9):
                monkeypatch.setattr(rpe, "POPULATION_CHUNK_BYTES", budget)
                chunks = len(rpe._population_chunks(40, config, len(pops), 13))
                assert chunks == (11 if budget == 1 else 1)
                results.append(rpe.population_rpe_scores(pops, 40, config, z_rows))
            np.testing.assert_allclose(results[0], results[1], rtol=rtol, atol=0)

    def test_sparse_redraws_match_oracle(self, monkeypatch):
        # at p = 6 sparse matrices often have an all-zero or repeated row,
        # so some members must redraw; master seed 4 redraws members 3, 8, 10
        rng = np.random.default_rng(20)
        pops = random_populations(rng, 6)
        z_rows = rng.standard_normal((8, 6))
        config = rpe.RpeConfig(B=12, d=3, family=STP, master_seed=4)
        self._set_chunk(monkeypatch, 5, 3, 6, pops, len(z_rows))
        seeds = [matrix.seed for stack in population_stacks(pops, 6, config, rows=8)
                 for matrix in stack.matrices]
        redrawn = [b for b, seed in enumerate(seeds, start=1)
                   if seed != rpe.member_seed(4, b)]
        assert redrawn == [3, 8, 10]
        got = rpe.population_rpe_scores(pops, 6, config, z_rows)
        want = oracle_population_scores(pops, 6, config, z_rows)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        with pytest.raises(MemberDegenerate) as err:
            rpe.population_rpe_scores(
                pops, 6, rpe.RpeConfig(B=12, d=3, family=STP, master_seed=4,
                                       max_regen_retries=0), z_rows)
        assert err.value.member == 3

    @pytest.mark.parametrize("B, members, chunks", [
        (11, 11, 1), (11, 6, 2), (11, 4, 3), (11, 1, 11), (1, 4, 1)])
    @pytest.mark.parametrize("family", [SN, STP])
    def test_two_thread_split_matches_serial_sum(self, monkeypatch, B, members, chunks,
                                                 family):
        # the caller adds its chunks as it goes and the worker's afterwards:
        # the same member-order sum as one thread fitting chunk after chunk
        spec = schemes.build_example2(40, c=2.0, r=3, spike_bound=4.0, seed=4)
        pops = [(pop.prior, pop.mean, pop.cov) for pop in spec.populations]
        z_rows = np.random.default_rng(32).standard_normal((13, 40))
        config = rpe.RpeConfig(B=B, d=4, family=family, master_seed=9)
        self._set_chunk(monkeypatch, members, 4, 40, pops, len(z_rows))
        assert len(rpe._population_chunks(40, config, 2, len(z_rows))) == chunks
        got = rpe.population_rpe_scores(pops, 40, config, z_rows)
        assert np.array_equal(got, serial_population_scores(pops, 40, config, z_rows))

    @pytest.mark.parametrize("bad, named", [
        ((6,), 6),      # only the worker's half fails
        ((7, 5), 5),    # the worker's half fails twice, in two chunks
        ((7, 3), 3),    # both halves fail
        ((2,), 2),      # only the caller's half fails
    ])
    def test_first_failing_member_is_named(self, monkeypatch, bad, named):
        # B = 8 in chunks of 2: the caller fits members 1-4, the worker 5-8;
        # a member in ``bad`` gets a zero class covariance and cannot redraw
        rng = np.random.default_rng(22)
        pops = random_populations(rng, 10)
        z_rows = rng.standard_normal((5, 10))
        config = rpe.RpeConfig(B=8, d=3, master_seed=12, max_regen_retries=0)
        self._set_chunk(monkeypatch, 2, 3, 10, pops, len(z_rows))
        assert len(rpe._population_chunks(10, config, 2, len(z_rows))) == 4
        bad_seeds = {rpe.member_seed(12, b) for b in bad}
        real = rpe._population_moments

        def failing(populations, p, d):
            moments = real(populations, p, d)

            def patched(matrices):
                means, covs = moments(matrices)
                for i, matrix in enumerate(matrices):
                    if matrix.seed in bad_seeds:
                        covs[i, 0] = 0.0
                return means, covs

            return patched

        monkeypatch.setattr(rpe, "_population_moments", failing)
        with pytest.raises(MemberDegenerate) as err:
            rpe.population_rpe_scores(pops, 10, config, z_rows)
        assert err.value.member == named

    def test_non_finite_rows_rejected(self):
        rng = np.random.default_rng(21)
        pops = random_populations(rng, 5)
        z_rows = rng.standard_normal((3, 5))
        z_rows[2, 0] = np.nan
        with pytest.raises(NonFiniteInput, match="row 2"):
            rpe.population_rpe_scores(pops, 5, rpe.RpeConfig(B=2, d=2), z_rows)


def labeled_blocks(seed, n_classes, p):
    """Per-class training blocks and rows to score."""
    rng = np.random.default_rng(seed)
    blocks = [rng.standard_normal((int(rng.integers(6, 14)), p)) * rng.uniform(0.5, 2.0, p)
              + rng.standard_normal(p) for _ in range(n_classes)]
    return blocks, rng.standard_normal((20, p)) * 2


def ensemble_scores(blocks, order, names, family, z_rows, scale=1.0):
    """rpe_scores_rows of an ensemble trained on the class blocks taken in
    ``order``, class j labelled ``names[j]``."""
    data = Dataset(scale * np.vstack([blocks[j] for j in order]),
                   [names[j] for j in order for _ in blocks[j]])
    config = rpe.RpeConfig(B=5, d=2, family=family, master_seed=17)
    return rpe.rpe_scores_rows(rpe.rpe_fit(data, config), scale * z_rows)


class TestInvariances:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(3, 12),
           st.sampled_from([SN, STP]), st.randoms())
    def test_class_reordering_permutes_score_columns(self, seed, n_classes, p, family, random):
        blocks, z_rows = labeled_blocks(seed, n_classes, p)
        names = [f"c{j}" for j in range(n_classes)]
        order = list(range(n_classes))
        random.shuffle(order)
        base = ensemble_scores(blocks, range(n_classes), names, family, z_rows)
        moved = ensemble_scores(blocks, order, names, family, z_rows)
        if family is STP:
            np.testing.assert_array_equal(moved, base[:, order])
        else:
            # a dense BLAS product may round a training row differently
            # once the row sits at another position
            np.testing.assert_allclose(moved, base[:, order], rtol=1e-12, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(3, 12),
           st.sampled_from([SN, STP]), st.randoms())
    def test_within_class_row_permutation_keeps_scores(self, seed, n_classes, p, family,
                                                       random):
        blocks, z_rows = labeled_blocks(seed, n_classes, p)
        shuffled = [block[random.sample(range(len(block)), len(block))] for block in blocks]
        order = range(n_classes)
        names = [f"c{j}" for j in order]
        base = ensemble_scores(blocks, order, names, family, z_rows)
        moved = ensemble_scores(shuffled, order, names, family, z_rows)
        # class moments sum the rows in another order, so only rounding
        # moves: 400 random cases moved at most 2.8e-14 of the largest score
        np.testing.assert_allclose(moved, base, rtol=0,
                                   atol=PERMUTATION_TOL * np.abs(base).max())

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(3, 12),
           st.sampled_from([SN, STP]))
    def test_label_renaming_leaves_scores_unchanged(self, seed, n_classes, p, family):
        blocks, z_rows = labeled_blocks(seed, n_classes, p)
        order = range(n_classes)
        base = ensemble_scores(blocks, order, [f"c{j}" for j in order], family, z_rows)
        renamed = ensemble_scores(blocks, order, [f"{-j} x" for j in order], family, z_rows)
        np.testing.assert_array_equal(renamed, base)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(3, 12),
           st.sampled_from([SN, STP]), st.floats(1e-3, 1e3))
    def test_global_scaling_keeps_predictions(self, seed, n_classes, p, family, c):
        blocks, z_rows = labeled_blocks(seed, n_classes, p)
        order = range(n_classes)
        names = [f"c{j}" for j in order]
        base = ensemble_scores(blocks, order, names, family, z_rows)
        scaled = ensemble_scores(blocks, order, names, family, z_rows, scale=c)
        top2 = np.sort(base, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > SCALE_MARGIN_TOL
        np.testing.assert_array_equal(np.argmax(scaled, axis=1)[clear],
                                      np.argmax(base, axis=1)[clear])
