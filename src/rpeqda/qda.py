"""Quadratic discriminant analysis in array form.

A J-class Gaussian model in dimension d is four arrays, the ones each
member of the projection ensemble holds (``rpe.MemberStack``): priors
(J,), class means (..., J, d), lower Cholesky factors of the class
covariances (..., J, d, d) and their log-determinants (..., J).  Leading
axes stack models, so the ensemble estimates, factors and scores every
member with the same functions as a single QDA.

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

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    SingularCovariance,
    TooFewClasses,
    TooFewSamplesForClass,
)
from .linalg import cholesky_stack, solve_quadratic_form_rows


def class_moments(groups):
    """Class means (..., J, d) and covariances (..., J, d, d) of the J row
    blocks, of shapes (..., n_k, d), that ``groups`` yields.

    ``groups`` is read once, so a generator keeps one block alive at a
    time.  Covariances use the n_k - 1 denominator and are symmetric
    exactly (the cross-product is symmetrized to remove floating-point
    asymmetry).
    """
    means, covs = [], []
    for rows in groups:
        mean = rows.mean(axis=-2)
        centered = rows - mean[..., None, :]
        cov = np.swapaxes(centered, -1, -2) @ centered / (rows.shape[-2] - 1)
        means.append(mean)
        covs.append((cov + np.swapaxes(cov, -1, -2)) / 2.0)
    return np.stack(means, axis=-2), np.stack(covs, axis=-3)


def factor_covariances(covs: np.ndarray, ridge: float):
    """``linalg.cholesky_stack`` of the class covariances plus ``ridge * I``.

    The ridge must be finite and nonnegative; 0 keeps the plain
    estimators.  Raises ``InvalidParameter`` otherwise.
    """
    if not (math.isfinite(ridge) and ridge >= 0.0):
        raise InvalidParameter(f"ridge must be finite and nonnegative, got {ridge!r}")
    if ridge > 0.0:
        covs = covs + ridge * np.eye(covs.shape[-1])
    return cholesky_stack(covs)


def fit_grouped(groups, ridge: float = 0.0):
    """Fit a QDA from (label, rows) pairs, each rows block (n_k, d).

    Returns ``(priors, means, lower, log_det)``: priors n_k / n, class
    means, and the factored class covariances (n_k - 1 denominator, plus
    the optional ``ridge * I``).
    """
    if len(groups) < 2:
        raise TooFewClasses("QDA needs at least 2 classes")
    blocks = [np.asarray(rows, dtype=np.float64) for _, rows in groups]
    for (label, _), rows in zip(groups, blocks):
        n_k, dim = rows.shape
        if n_k <= dim:
            raise TooFewSamplesForClass(
                label, f"class {label!r}: {n_k} samples in dimension {dim} "
                       f"(need at least {dim + 1})")
    means, covs = class_moments(blocks)
    lower, log_det, ok = factor_covariances(covs, ridge)
    if not ok.all():
        label = groups[int(np.argmin(ok))][0]
        raise SingularCovariance(label, f"class {label!r}: singular covariance")
    n = sum(len(rows) for rows in blocks)
    return np.array([len(rows) / n for rows in blocks]), means, lower, log_det


def class_scores_rows(priors, means, lower, log_det, rows) -> np.ndarray:
    """Class scores g_k, shape (..., n, J), of rows (..., n, d).

    The leading axes of the model arrays and of ``rows`` broadcast, so a
    stack of models scores its own rows in one call.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim < 2 or rows.shape[-1] != means.shape[-1]:
        raise DimensionMismatch(
            f"rows of shape {rows.shape} against models of dim {means.shape[-1]}")
    # math.log, as for the log priors that model files store
    log_priors = np.array([math.log(prior) for prior in priors])
    # centred rows are laid out as (..., J, d, n), which the kernel reads
    # contiguously (the default order would follow the rows' (n, d) layout)
    centered = np.subtract(np.swapaxes(rows, -1, -2)[..., None, :, :], means[..., None],
                           order="C")
    qf = solve_quadratic_form_rows(lower, np.swapaxes(centered, -1, -2))
    return np.swapaxes((log_priors - 0.5 * log_det)[..., None] - 0.5 * qf, -1, -2)


def population_class_scores(populations, z_rows: np.ndarray) -> np.ndarray:
    """Scores under known parameters, for covariances given as structured
    handles (anything with ``solve`` and ``log_det``).

    ``populations`` is a sequence of (prior, mean, covariance) triples,
    such as a ``schemes.SchemeSpec``'s ``Population`` tuples; ``z_rows`` is
    (m, p); any other shape raises ``DimensionMismatch``.
    Returns (m, J).  The ambient covariance is never materialized:
    quadratic forms go through the handle's exact solve.
    """
    z_rows = np.asarray(z_rows, dtype=np.float64)
    p = len(populations[0][1])
    if z_rows.ndim != 2 or z_rows.shape[1] != p:
        raise DimensionMismatch(
            f"rows of shape {z_rows.shape} against populations with p={p}")
    out = np.empty((z_rows.shape[0], len(populations)))
    for j, (prior, mean, cov) in enumerate(populations):
        centered = z_rows - np.asarray(mean, dtype=np.float64)
        qf = np.einsum("ij,ij->i", centered, cov.solve(centered.T).T)
        out[:, j] = math.log(prior) - 0.5 * cov.log_det() - 0.5 * qf
    return out
