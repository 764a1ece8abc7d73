import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal, norm

from rpeqda import linalg, qda
from rpeqda.dataset import Dataset
from rpeqda.errors import (
    DimensionMismatch,
    InvalidParameter,
    RpeQdaError,
    SingularCovariance,
    TooFewClasses,
    TooFewSamplesForClass,
)

from oracles import DenseCovariance


def fit(data, ridge=0.0):
    """Array-form QDA of a Dataset, classes in first-appearance order."""
    return qda.fit_grouped([(label, data.features[data.class_indices(label)])
                            for label in data.class_labels], ridge)


def model_from_moments(params):
    """Array-form QDA from (prior, mean, covariance) triples."""
    factors = [linalg.cholesky(np.atleast_2d(cov)) for _, _, cov in params]
    return (np.array([prior for prior, _, _ in params]),
            np.array([np.atleast_1d(mean) for _, mean, _ in params], dtype=np.float64),
            np.array([lower for lower, _ in factors]),
            np.array([log_det for _, log_det in factors]))


def one_dim_model(params):
    """Labels and model from (label, prior, mean, variance) tuples."""
    return (tuple(label for label, *_ in params),
            model_from_moments([(prior, mean, var) for _, prior, mean, var in params]))


def scores_at(model, zs):
    """(len(zs), J) scores of scalar points under a 1-d model."""
    return qda.class_scores_rows(*model, np.asarray(zs, dtype=np.float64).reshape(-1, 1))


def classify(labels, model, zs):
    return [labels[j] for j in np.argmax(scores_at(model, zs), axis=1)]


class TestClassMoments:
    def test_identical_rows_give_zero(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        _, covs = qda.class_moments([x])
        np.testing.assert_array_equal(covs[0], np.zeros((2, 2)))

    def test_hand_computed(self):
        means, covs = qda.class_moments([np.array([[0.0, 0.0], [2.0, 0.0]]),
                                         np.array([[1.0, 1.0], [1.0, 3.0], [1.0, 5.0]])])
        np.testing.assert_allclose(means, [[1.0, 0.0], [1.0, 3.0]])
        np.testing.assert_allclose(covs, [[[2.0, 0.0], [0.0, 0.0]],
                                          [[0.0, 0.0], [0.0, 4.0]]])

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 6))
        _, covs = qda.class_moments([x])
        np.testing.assert_array_equal(covs[0], covs[0].T)

    def test_stacked_blocks_match_single_blocks(self):
        rng = np.random.default_rng(6)
        blocks = [rng.standard_normal((3, 7, 2)), rng.standard_normal((3, 5, 2))]
        means, covs = qda.class_moments(blocks)
        assert means.shape == (3, 2, 2) and covs.shape == (3, 2, 2, 2)
        for b in range(3):
            one_means, one_covs = qda.class_moments([block[b] for block in blocks])
            np.testing.assert_array_equal(means[b], one_means)
            np.testing.assert_array_equal(covs[b], one_covs)


class TestFit:
    def test_equal_priors(self):
        data = Dataset(np.array([[0.], [1.], [2.], [5.], [6.], [7.]]),
                       ("a", "a", "a", "b", "b", "b"))
        priors, _, _, _ = fit(data)
        assert priors.tolist() == [0.5, 0.5]

    def test_hand_computed_mean_variance(self):
        data = Dataset(np.array([[0.], [2.], [10.], [11.], [12.]]),
                       ("a", "a", "b", "b", "b"))
        priors, means, lower, log_det = fit(data)
        assert means[0, 0] == pytest.approx(1.0)
        # variance (1 + 1) / (2 - 1) = 2
        cov = lower[0] @ lower[0].T
        assert cov[0, 0] == pytest.approx(2.0)
        assert log_det[0] == pytest.approx(math.log(2.0), abs=1e-12)
        assert math.log(priors[0]) == pytest.approx(math.log(0.4), abs=1e-12)

    def test_too_few_samples_for_class(self):
        data = Dataset(np.vstack([np.eye(2), 5 + np.eye(2), [[9, 9]]]),
                       ("a", "a", "b", "b", "b"))
        with pytest.raises(TooFewSamplesForClass) as err:
            fit(data)
        assert err.value.label == "a"

    def test_single_sample_rejected(self):
        data = Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), ("a", "b", "b", "b"))
        with pytest.raises(TooFewSamplesForClass) as err:
            fit(data)
        assert err.value.label == "a"

    def test_duplicated_points_raise_singular(self):
        rows = np.array([[1.0, 2.0]] * 4 + [[3.0, 1.0], [4.0, 0.0], [5.0, 2.0]])
        data = Dataset(rows, ("a",) * 4 + ("b",) * 3)
        with pytest.raises(SingularCovariance) as err:
            fit(data)
        assert err.value.label == "a"

    def test_ridge_recovers_singular_class(self):
        rows = np.array([[1.0, 2.0]] * 4 + [[3.0, 1.0], [4.0, 0.0], [5.0, 2.0]])
        data = Dataset(rows, ("a",) * 4 + ("b",) * 3)
        _, _, lower, _ = fit(data, ridge=1e-3)
        np.testing.assert_allclose(lower[0] @ lower[0].T, 1e-3 * np.eye(2), rtol=1e-12)

    @pytest.mark.parametrize("ridge", [-1.0, -1e-300, np.nan, np.inf])
    def test_bad_ridge_rejected(self, ridge):
        data = Dataset(np.array([[0.], [2.], [10.], [11.], [12.]]),
                       ("a", "a", "b", "b", "b"))
        with pytest.raises(InvalidParameter) as err:
            fit(data, ridge=ridge)
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)

    def test_single_class_rejected(self):
        data = Dataset(np.zeros((3, 1)), ("a", "a", "a"))
        with pytest.raises(TooFewClasses) as err:
            fit(data)
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)


class TestScoresAndClassify:
    def test_identical_classes_tie(self):
        labels, model = one_dim_model([("a", 0.5, 0.0, 1.0), ("b", 0.5, 0.0, 1.0)])
        zs = [-2.0, 0.0, 3.5]
        scores = scores_at(model, zs)
        np.testing.assert_array_equal(scores[:, 0], scores[:, 1])
        assert classify(labels, model, zs) == ["a"] * 3

    def test_scalar_discriminant_at_zero(self):
        # classes N(0,1) and N(0,4), equal priors: difference at z=0 is
        # 0.5 * log 4
        _, model = one_dim_model([("0", 0.5, 0.0, 1.0), ("1", 0.5, 0.0, 4.0)])
        scores = scores_at(model, [0.0])[0]
        assert scores[0] - scores[1] == pytest.approx(0.5 * math.log(4.0), abs=1e-12)

    def test_scalar_boundary_location_and_sign_flip(self):
        # discriminant is 0.6931 - 0.375 z^2, vanishing at |z| = 1.3596
        _, model = one_dim_model([("0", 0.5, 0.0, 1.0), ("1", 0.5, 0.0, 4.0)])
        boundary = math.sqrt(0.5 * math.log(4.0) / 0.375)
        assert boundary == pytest.approx(1.3596, abs=5e-5)
        s = scores_at(model, [boundary, boundary - 1e-6, boundary + 1e-6])
        disc = s[:, 0] - s[:, 1]
        assert disc[0] == pytest.approx(0.0, abs=1e-12)
        assert disc[1] > 0
        assert disc[2] < 0

    def test_classify_examples(self):
        labels, model = one_dim_model([("0", 0.5, 0.0, 1.0), ("1", 0.5, 0.0, 4.0)])
        assert classify(labels, model, [0.0, 3.0]) == ["0", "1"]

    def test_dimension_mismatch(self):
        _, model = one_dim_model([("0", 0.5, 0.0, 1.0), ("1", 0.5, 0.0, 4.0)])
        with pytest.raises(DimensionMismatch):
            qda.class_scores_rows(*model, np.zeros((1, 2)))
        with pytest.raises(DimensionMismatch):
            qda.class_scores_rows(*model, np.zeros(1))

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(21)
        _, model = one_dim_model([("0", 0.3, 1.0, 2.0), ("1", 0.7, -1.0, 0.5)])
        for s in scores_at(model, rng.standard_normal(50) * 3):
            assert (s[0] - s[1]) == -(s[1] - s[0])

    def test_prior_scaling_leaves_classification_unchanged(self):
        labels, base = one_dim_model([("0", 0.3, 1.0, 2.0), ("1", 0.7, -1.0, 0.5)])
        scaled = (base[0] * 7.3,) + base[1:]
        zs = np.linspace(-4, 4, 101)
        np.testing.assert_allclose(scores_at(scaled, zs) - scores_at(base, zs),
                                   math.log(7.3), atol=1e-12)
        assert classify(labels, base, zs) == classify(labels, scaled, zs)

    def test_bayes_agreement_scalar_oracle(self):
        # argmax of scores must match direct comparison of pi_k * pdf_k on
        # a 1000-point grid
        params = [("0", 0.35, -0.5, 1.4), ("1", 0.65, 0.8, 0.6)]
        labels, model = one_dim_model(params)
        grid = np.linspace(-6.0, 6.0, 1000)
        weighted = np.array([prior * norm.pdf(grid, loc=mean, scale=math.sqrt(var))
                             for _, prior, mean, var in params])
        oracle = [params[j][0] for j in np.argmax(weighted, axis=0)]
        assert classify(labels, model, grid) == oracle

    def test_monotone_separation_in_z_squared(self):
        _, model = one_dim_model([("0", 0.5, 0.0, 1.0), ("1", 0.5, 0.0, 4.0)])
        s = scores_at(model, np.linspace(0.0, 5.0, 60))
        assert np.all(np.diff(s[:, 0] - s[:, 1]) < 0)

    def test_rows_variant_matches_scalar(self):
        # every row's score is its log prior plus the Gaussian log density,
        # less the dropped constant -d/2 log(2 pi)
        rng = np.random.default_rng(3)
        data = Dataset(rng.standard_normal((40, 3)) + np.repeat([[0], [2]], 20, axis=0),
                       ("a",) * 20 + ("b",) * 20)
        priors, means, lower, log_det = fit(data)
        points = rng.standard_normal((15, 3))
        batch = qda.class_scores_rows(priors, means, lower, log_det, points)
        for j in range(2):
            density = multivariate_normal(means[j], lower[j] @ lower[j].T).logpdf(points)
            np.testing.assert_allclose(
                batch[:, j], math.log(priors[j]) + density + 1.5 * math.log(2 * math.pi),
                rtol=1e-12)

    def test_stacked_models_broadcast_over_leading_axes(self):
        rng = np.random.default_rng(4)
        models = []
        for _ in range(3):
            data = Dataset(rng.standard_normal((20, 2)) * [1.0, 2.0] + np.repeat(
                [[0.0], [1.5]], 10, axis=0), ("a",) * 10 + ("b",) * 10)
            models.append(fit(data))
        priors = models[0][0]
        stacked = [np.stack([m[i] for m in models]) for i in (1, 2, 3)]
        rows = rng.standard_normal((3, 6, 2))
        got = qda.class_scores_rows(priors, *stacked, rows)
        assert got.shape == (3, 6, 2)
        for b, model in enumerate(models):
            np.testing.assert_array_equal(got[b], qda.class_scores_rows(*model, rows[b]))
        # one set of rows against every model
        np.testing.assert_array_equal(qda.class_scores_rows(priors, *stacked, rows[0])[2],
                                      qda.class_scores_rows(*models[2], rows[0]))


def grouped_data(seed, n_classes, dim):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(dim + 2, dim + 12, size=n_classes)
    return [rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, dim)
            + rng.standard_normal(dim) for n in sizes], rng.standard_normal((25, dim)) * 2


# scores at x and c * x may differ by rounding, so predictions are compared
# only where the class margin is wider than this
SCALE_MARGIN_TOL = 1e-6


class TestInvariances:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(1, 4), st.randoms())
    def test_class_reordering_permutes_score_columns(self, seed, n_classes, dim, random):
        blocks, rows = grouped_data(seed, n_classes, dim)
        order = list(range(n_classes))
        random.shuffle(order)
        base = qda.class_scores_rows(*qda.fit_grouped(list(enumerate(blocks))), rows)
        moved = qda.class_scores_rows(
            *qda.fit_grouped([(j, blocks[j]) for j in order]), rows)
        np.testing.assert_array_equal(moved, base[:, order])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(1, 4))
    def test_label_renaming_leaves_scores_unchanged(self, seed, n_classes, dim):
        blocks, rows = grouped_data(seed, n_classes, dim)
        base = qda.class_scores_rows(*qda.fit_grouped(list(enumerate(blocks))), rows)
        renamed = qda.fit_grouped([(f"class {-j}", block) for j, block in enumerate(blocks)])
        np.testing.assert_array_equal(qda.class_scores_rows(*renamed, rows), base)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(1, 4),
           st.floats(1e-3, 1e3))
    def test_global_scaling_keeps_predictions(self, seed, n_classes, dim, c):
        blocks, rows = grouped_data(seed, n_classes, dim)
        base = qda.class_scores_rows(*qda.fit_grouped(list(enumerate(blocks))), rows)
        scaled = qda.class_scores_rows(
            *qda.fit_grouped([(j, c * block) for j, block in enumerate(blocks)]), c * rows)
        top2 = np.sort(base, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > SCALE_MARGIN_TOL
        np.testing.assert_array_equal(np.argmax(scaled, axis=1)[clear],
                                      np.argmax(base, axis=1)[clear])


class TestPopulationScores:
    def test_matches_fitted_scores_on_dense_handles(self):
        rng = np.random.default_rng(8)
        cov0 = np.array([[2.0, 0.3], [0.3, 1.0]])
        cov1 = np.array([[1.0, -0.2], [-0.2, 1.5]])
        pops = [(0.4, np.array([0.0, 0.0]), DenseCovariance(cov0)),
                (0.6, np.array([1.0, -1.0]), DenseCovariance(cov1))]
        z = rng.standard_normal((10, 2))
        got = qda.population_class_scores(pops, z)
        model = model_from_moments([(pr, mu, c.matrix) for pr, mu, c in pops])
        np.testing.assert_allclose(got, qda.class_scores_rows(*model, z), rtol=1e-12)

    @pytest.mark.parametrize("shape", [(2,), (1, 1, 2), (3, 3)])
    def test_population_scores_need_row_matrix(self, shape):
        # as in rpe.population_rpe_scores: a vector, a 3-d array or a wrong
        # width is a typed error
        pops = [(0.5, np.zeros(2), DenseCovariance(np.eye(2))),
                (0.5, np.ones(2), DenseCovariance(np.eye(2)))]
        with pytest.raises(DimensionMismatch):
            qda.population_class_scores(pops, np.zeros(shape))
