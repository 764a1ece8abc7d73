"""Gaussian class models and the quadratic discriminant classifier.

Per-class score (up to the additive constant -dim/2 * log(2 pi), which is
identical across classes and therefore dropped):

    g_k(z) = log pi_k - 1/2 log det(Sigma_k) - 1/2 (z - mu_k)' Sigma_k^{-1} (z - mu_k)

Pairwise differences g_{k'} - g_k reproduce the log discriminant between
classes k' and k exactly.  Classification is argmax of the scores, with
ties broken toward the earliest class in model order; whenever a strict
maximizer exists this coincides with requiring all pairwise discriminants
of the winner to be positive.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dataset import Dataset
from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    SingularCovariance,
    TooFewClasses,
    TooFewSamplesForClass,
)

PRIOR_SUM_TOL = 1e-9


@dataclass(frozen=True)
class GaussianClassModel:
    """Prior, mean and factored covariance of one class."""

    label: str
    prior: float
    log_prior: float
    mean: np.ndarray
    cov_factor: linalg.CholeskyFactor

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class QdaModel:
    """Ordered collection of per-class Gaussian models."""

    classes: tuple

    @property
    def labels(self) -> tuple:
        return tuple(c.label for c in self.classes)

    @property
    def dim(self) -> int:
        return self.classes[0].dim


def _fit_class(label, rows: np.ndarray, n_total: int, ridge: float) -> GaussianClassModel:
    n_k, dim = rows.shape
    if n_k <= dim:
        raise TooFewSamplesForClass(
            label, f"class {label!r}: {n_k} samples in dimension {dim} "
                   f"(need at least {dim + 1})")
    mean = rows.mean(axis=0)
    cov = linalg.sample_covariance(rows, mean)
    if ridge > 0.0:
        cov = cov + ridge * np.eye(dim)
    try:
        factor = linalg.cholesky(cov)
    except NotPositiveDefinite as exc:
        raise SingularCovariance(
            label, f"class {label!r}: singular covariance ({exc})") from exc
    prior = n_k / n_total
    return GaussianClassModel(
        label=str(label), prior=prior, log_prior=math.log(prior),
        mean=mean, cov_factor=factor)


def fit_grouped(groups, n_total: int, ridge: float = 0.0) -> QdaModel:
    """Fit from pre-grouped (label, rows) pairs."""
    if len(groups) < 2:
        raise TooFewClasses("QDA needs at least 2 classes")
    classes = tuple(_fit_class(label, rows, n_total, ridge)
                    for label, rows in groups)
    assert abs(sum(c.prior for c in classes) - 1.0) <= PRIOR_SUM_TOL
    return QdaModel(classes=classes)


def fit(data: Dataset, ridge: float = 0.0) -> QdaModel:
    """Estimate priors (n_k / n), class means and class covariances
    (n_k - 1 denominator) and factor each covariance.

    ``ridge`` adds an optional eps * I to each covariance before
    factorization; the default 0 keeps the plain estimators.
    """
    groups = [(label, data.features[data.class_indices(label)])
              for label in data.class_labels]
    return fit_grouped(groups, data.n, ridge)


def class_scores(model: QdaModel, z: np.ndarray) -> np.ndarray:
    """Vector of per-class scores (g_1, ..., g_J) at a single point."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (model.dim,):
        raise DimensionMismatch(
            f"point of shape {z.shape} against model of dim {model.dim}")
    return np.array([
        c.log_prior - 0.5 * c.cov_factor.log_det
        - 0.5 * linalg.solve_quadratic_form(c.cov_factor, z - c.mean)
        for c in model.classes])


def class_scores_rows(model: QdaModel, rows: np.ndarray) -> np.ndarray:
    """Scores for every row of an (m, dim) array; returns shape (m, J)."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.dim:
        raise DimensionMismatch(
            f"rows of shape {rows.shape} against model of dim {model.dim}")
    out = np.empty((rows.shape[0], len(model.classes)))
    for j, c in enumerate(model.classes):
        qf = linalg.solve_quadratic_form_rows(c.cov_factor, rows - c.mean)
        out[:, j] = c.log_prior - 0.5 * c.cov_factor.log_det - 0.5 * qf
    return out


def classify(model: QdaModel, z: np.ndarray) -> str:
    """Label of the highest-scoring class (earliest label wins ties)."""
    return model.labels[int(np.argmax(class_scores(model, z)))]


def population_class_scores(populations, z_rows: np.ndarray) -> np.ndarray:
    """Scores under known parameters, for covariances given as structured
    handles (anything with ``solve`` and ``log_det``).

    ``populations`` is a sequence of (prior, mean, covariance) triples;
    ``z_rows`` is (m, p).  Returns (m, J).  The ambient covariance is never
    materialized: quadratic forms go through the handle's exact solve.
    """
    z_rows = np.asarray(z_rows, dtype=np.float64)
    out = np.empty((z_rows.shape[0], len(populations)))
    for j, (prior, mean, cov) in enumerate(populations):
        centered = z_rows - np.asarray(mean, dtype=np.float64)
        qf = np.einsum("ij,ij->i", centered, cov.solve(centered.T).T)
        out[:, j] = math.log(prior) - 0.5 * cov.log_det() - 0.5 * qf
    return out
