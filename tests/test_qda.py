import math

import numpy as np
import pytest
from scipy.stats import norm

from rpeqda import linalg, qda
from rpeqda.dataset import Dataset
from rpeqda.errors import (
    DimensionMismatch,
    RpeQdaError,
    SingularCovariance,
    TooFewClasses,
    TooFewSamplesForClass,
)


def one_dim_model(params):
    """Build a QdaModel from (label, prior, mean, variance) tuples."""
    classes = []
    for label, prior, mean, var in params:
        classes.append(qda.GaussianClassModel(
            label=label, prior=prior, log_prior=math.log(prior),
            mean=np.array([mean]),
            cov_factor=linalg.cholesky(np.array([[var]]))))
    return qda.QdaModel(classes=tuple(classes))


class TestFit:
    def test_equal_priors(self):
        data = Dataset(np.array([[0.], [1.], [2.], [5.], [6.], [7.]]),
                       ("a", "a", "a", "b", "b", "b"))
        model = qda.fit(data)
        assert [c.prior for c in model.classes] == [0.5, 0.5]
        assert model.labels == ("a", "b")

    def test_hand_computed_mean_variance(self):
        data = Dataset(np.array([[0.], [2.], [10.], [11.], [12.]]),
                       ("a", "a", "b", "b", "b"))
        model = qda.fit(data)
        first = model.classes[0]
        assert first.mean[0] == pytest.approx(1.0)
        # variance (1 + 1) / (2 - 1) = 2
        cov = first.cov_factor.lower @ first.cov_factor.lower.T
        assert cov[0, 0] == pytest.approx(2.0)
        assert first.log_prior == pytest.approx(math.log(0.4), abs=1e-12)

    def test_too_few_samples_for_class(self):
        data = Dataset(np.vstack([np.eye(2), 5 + np.eye(2), [[9, 9]]]),
                       ("a", "a", "b", "b", "b"))
        with pytest.raises(TooFewSamplesForClass) as err:
            qda.fit(data)
        assert err.value.label == "a"

    def test_duplicated_points_raise_singular(self):
        rows = np.array([[1.0, 2.0]] * 4 + [[3.0, 1.0], [4.0, 0.0], [5.0, 2.0]])
        data = Dataset(rows, ("a",) * 4 + ("b",) * 3)
        with pytest.raises(SingularCovariance) as err:
            qda.fit(data)
        assert err.value.label == "a"

    def test_ridge_recovers_singular_class(self):
        rows = np.array([[1.0, 2.0]] * 4 + [[3.0, 1.0], [4.0, 0.0], [5.0, 2.0]])
        data = Dataset(rows, ("a",) * 4 + ("b",) * 3)
        model = qda.fit(data, ridge=1e-3)
        assert model.labels == ("a", "b")

    def test_single_class_rejected(self):
        data = Dataset(np.zeros((3, 1)), ("a", "a", "a"))
        with pytest.raises(TooFewClasses) as err:
            qda.fit(data)
        assert isinstance(err.value, RpeQdaError) and isinstance(err.value, ValueError)


class TestScoresAndClassify:
    def test_identical_classes_tie(self):
        model = one_dim_model([("a", 0.5, 0.0, 1.0), ("b", 0.5, 0.0, 1.0)])
        for z in (-2.0, 0.0, 3.5):
            scores = qda.class_scores(model, np.array([z]))
            assert scores[0] == scores[1]
            assert qda.classify(model, np.array([z])) == "a"

    def test_scalar_discriminant_at_zero(self):
        # classes N(0,1) and N(0,4), equal priors: difference at z=0 is
        # 0.5 * log 4
        model = one_dim_model([("0", 0.5, 0.0, 1.0), ("1", 0.5, 0.0, 4.0)])
        scores = qda.class_scores(model, np.array([0.0]))
        assert scores[0] - scores[1] == pytest.approx(0.5 * math.log(4.0), abs=1e-12)

    def test_scalar_boundary_location_and_sign_flip(self):
        # discriminant is 0.6931 - 0.375 z^2, vanishing at |z| = 1.3596
        model = one_dim_model([("0", 0.5, 0.0, 1.0), ("1", 0.5, 0.0, 4.0)])
        boundary = math.sqrt(0.5 * math.log(4.0) / 0.375)
        assert boundary == pytest.approx(1.3596, abs=5e-5)

        def disc(z):
            s = qda.class_scores(model, np.array([z]))
            return s[0] - s[1]

        assert disc(boundary) == pytest.approx(0.0, abs=1e-12)
        assert disc(boundary - 1e-6) > 0
        assert disc(boundary + 1e-6) < 0

    def test_classify_examples(self):
        model = one_dim_model([("0", 0.5, 0.0, 1.0), ("1", 0.5, 0.0, 4.0)])
        assert qda.classify(model, np.array([0.0])) == "0"
        assert qda.classify(model, np.array([3.0])) == "1"

    def test_dimension_mismatch(self):
        model = one_dim_model([("0", 0.5, 0.0, 1.0), ("1", 0.5, 0.0, 4.0)])
        with pytest.raises(DimensionMismatch):
            qda.class_scores(model, np.zeros(2))

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(21)
        model = one_dim_model([("0", 0.3, 1.0, 2.0), ("1", 0.7, -1.0, 0.5)])
        for z in rng.standard_normal(50) * 3:
            s = qda.class_scores(model, np.array([z]))
            assert (s[0] - s[1]) == -(s[1] - s[0])

    def test_prior_scaling_leaves_classification_unchanged(self):
        base = one_dim_model([("0", 0.3, 1.0, 2.0), ("1", 0.7, -1.0, 0.5)])
        shift = math.log(7.3)
        scaled = qda.QdaModel(classes=tuple(
            qda.GaussianClassModel(label=c.label, prior=c.prior,
                                   log_prior=c.log_prior + shift,
                                   mean=c.mean, cov_factor=c.cov_factor)
            for c in base.classes))
        zs = np.linspace(-4, 4, 101)
        for z in zs:
            s0 = qda.class_scores(base, np.array([z]))
            s1 = qda.class_scores(scaled, np.array([z]))
            np.testing.assert_allclose(s1 - s0, shift, atol=1e-12)
            assert qda.classify(base, np.array([z])) == qda.classify(scaled, np.array([z]))

    def test_bayes_agreement_scalar_oracle(self):
        # argmax of scores must match direct comparison of pi_k * pdf_k on
        # a 1000-point grid
        params = [("0", 0.35, -0.5, 1.4), ("1", 0.65, 0.8, 0.6)]
        model = one_dim_model(params)
        grid = np.linspace(-6.0, 6.0, 1000)
        for z in grid:
            weighted = [prior * norm.pdf(z, loc=mean, scale=math.sqrt(var))
                        for _, prior, mean, var in params]
            oracle = params[int(np.argmax(weighted))][0]
            assert qda.classify(model, np.array([z])) == oracle

    def test_monotone_separation_in_z_squared(self):
        model = one_dim_model([("0", 0.5, 0.0, 1.0), ("1", 0.5, 0.0, 4.0)])
        zs = np.linspace(0.0, 5.0, 60)
        diffs = []
        for z in zs:
            s = qda.class_scores(model, np.array([z]))
            diffs.append(s[0] - s[1])
        assert np.all(np.diff(diffs) < 0)

    def test_rows_variant_matches_scalar(self):
        rng = np.random.default_rng(3)
        data = Dataset(rng.standard_normal((40, 3)) + np.repeat([[0], [2]], 20, axis=0),
                       ("a",) * 20 + ("b",) * 20)
        model = qda.fit(data)
        points = rng.standard_normal((15, 3))
        batch = qda.class_scores_rows(model, points)
        for i, z in enumerate(points):
            np.testing.assert_allclose(batch[i], qda.class_scores(model, z), rtol=1e-12)


class TestPopulationScores:
    def test_matches_fitted_scores_on_dense_handles(self):
        from rpeqda.covariance import DenseCovariance
        rng = np.random.default_rng(8)
        cov0 = np.array([[2.0, 0.3], [0.3, 1.0]])
        cov1 = np.array([[1.0, -0.2], [-0.2, 1.5]])
        pops = [(0.4, np.array([0.0, 0.0]), DenseCovariance(cov0)),
                (0.6, np.array([1.0, -1.0]), DenseCovariance(cov1))]
        z = rng.standard_normal((10, 2))
        got = qda.population_class_scores(pops, z)
        model = qda.QdaModel(classes=tuple(
            qda.GaussianClassModel(label=str(i), prior=pr,
                                   log_prior=math.log(pr), mean=mu,
                                   cov_factor=linalg.cholesky(c.matrix))
            for i, (pr, mu, c) in enumerate(pops)))
        np.testing.assert_allclose(got, qda.class_scores_rows(model, z), rtol=1e-12)
