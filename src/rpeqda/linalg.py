"""Dense linear-algebra kernels.

Matrices are plain float64 ``numpy`` arrays in row-major order; symmetric
matrices are stored in full with exact ``A[i, j] == A[j, i]`` maintained by
construction.  Factorizations are delegated to LAPACK (via numpy/scipy) and
wrapped with the tolerance and error semantics this package requires.

No inverse is ever materialized: every quadratic form and determinant goes
through a Cholesky factor.  Stacks of small factors (one per ensemble member
and class) are built by :func:`cholesky_stack` in one LAPACK call, and their
quadratic forms come from :func:`forward_sq_norms`, a forward substitution
written in NumPy that runs over all factors at once instead of making one
LAPACK triangular solve per factor.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    RankDeficient,
    TooFewSamples,
)

# A Cholesky pivot at or below PIVOT_RTOL * max(diag) is treated as rank
# deficiency rather than roundoff, so fits on degenerate projected
# covariances fail loudly instead of producing garbage solves.
PIVOT_RTOL = 1e-12

QR_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular Cholesky factor together with the log-determinant
    of the factored matrix (``log_det = 2 * sum(log(diag(lower)))``)."""

    lower: np.ndarray
    log_det: float

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


def cholesky(s: np.ndarray) -> CholeskyFactor:
    """Factor a symmetric positive-definite matrix as ``L @ L.T``.

    Parameters
    ----------
    s : ndarray, shape (dim, dim)
        Symmetric matrix; only finite entries are meaningful.

    Returns
    -------
    CholeskyFactor

    Raises
    ------
    NotPositiveDefinite
        If LAPACK reports a non-positive pivot, or any pivot (squared
        diagonal of L) is at or below ``PIVOT_RTOL * max(diag(s))``.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {s.shape}")
    lower, log_det, ok = cholesky_stack(s)
    if not ok:
        pivots = np.diagonal(lower) ** 2
        if np.isnan(pivots).any():
            raise NotPositiveDefinite("non-positive or NaN pivot")
        raise NotPositiveDefinite(
            f"pivot {float(np.min(pivots)):.3e} at or below tolerance "
            f"{_pivot_tolerance(s):.3e}")
    return CholeskyFactor(lower=lower, log_det=float(log_det))


def _pivot_tolerance(s):
    return PIVOT_RTOL * np.maximum(np.max(np.diagonal(s, axis1=-2, axis2=-1), axis=-1), 0.0)


def cholesky_stack(s: np.ndarray):
    """Factor every matrix of an (..., dim, dim) stack in one LAPACK call.

    Returns ``(lower, log_det, ok)`` with shapes (..., dim, dim), (...)
    and (...).  ``ok`` is False where :func:`cholesky` would raise
    ``NotPositiveDefinite``; ``lower`` and ``log_det`` are meaningful only
    where ``ok`` holds.
    """
    s = np.asarray(s, dtype=np.float64)
    try:
        lower = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        # numpy rejects the whole stack when one matrix fails; factor the
        # matrices one at a time to find which, leaving NaN in the failures.
        lower = np.full_like(s, np.nan)
        for idx in np.ndindex(s.shape[:-2]):
            try:
                lower[idx] = np.linalg.cholesky(s[idx])
            except np.linalg.LinAlgError:
                pass
    diag = np.diagonal(lower, axis1=-2, axis2=-1)
    ok = np.all(diag * diag > _pivot_tolerance(s)[..., None], axis=-1)
    log_det = 2.0 * np.sum(np.log(diag), axis=-1)
    return lower, log_det, ok


def solve_quadratic_form(factor: CholeskyFactor, v: np.ndarray) -> float:
    """Return ``v.T @ S^{-1} @ v`` for the matrix factored in ``factor``.

    Computed as ``||L^{-1} v||^2`` via one triangular solve, hence always
    nonnegative.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (factor.dim,):
        raise DimensionMismatch(
            f"vector of length {v.shape} against factor of dim {factor.dim}")
    y = solve_triangular(factor.lower, v, lower=True, check_finite=False)
    return float(y @ y)


def solve_quadratic_form_rows(factor: CholeskyFactor, rows: np.ndarray) -> np.ndarray:
    """Vectorized ``solve_quadratic_form`` over the rows of an (m, dim) array."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != factor.dim:
        raise DimensionMismatch(
            f"rows of shape {rows.shape} against factor of dim {factor.dim}")
    return forward_sq_norms(factor.lower, rows.T)


def forward_sq_norms(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared column norms of ``L^{-1} b`` for a stack of factors.

    ``lower`` is (..., dim, dim), lower triangular with a positive
    diagonal, and ``b`` is (..., dim, n); their leading dimensions
    broadcast.  Returns (..., n).  ``L^{-1} b`` is found by forward
    substitution, one row of the solution per step, for every factor and
    column at once, so the cost in Python calls is ``dim`` steps however
    many factors the stack holds.
    """
    lower = np.asarray(lower, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    dim = lower.shape[-1]
    if lower.shape[-2] != dim or b.ndim < 2 or b.shape[-2] != dim:
        raise DimensionMismatch(
            f"right-hand sides of shape {b.shape} against factors of shape {lower.shape}")
    y = np.empty(np.broadcast_shapes(lower.shape[:-2], b.shape[:-2]) + b.shape[-2:])
    for i in range(dim):
        row = b[..., i, :]
        if i:
            row = row - (lower[..., i:i + 1, :i] @ y[..., :i, :])[..., 0, :]
        y[..., i, :] = row / lower[..., i, i, None]
    return np.einsum("...in,...in->...n", y, y)


def qr_orthogonal(a: np.ndarray) -> np.ndarray:
    """Orthogonal factor of a square full-rank matrix.

    Uses the sign convention that makes the upper-triangular factor have a
    strictly positive diagonal, which pins down Q uniquely.

    Raises
    ------
    RankDeficient
        If any diagonal of R falls below ``QR_RANK_RTOL * ||a||_F``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {a.shape}")
    q, r = np.linalg.qr(a)
    rdiag = np.diagonal(r)
    if np.any(np.abs(rdiag) < QR_RANK_RTOL * np.linalg.norm(a)):
        raise RankDeficient("matrix is numerically rank deficient")
    return q * np.sign(rdiag)


def orthonormal_columns(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column span of a tall full-rank matrix,
    with the same positive-diagonal sign convention as ``qr_orthogonal``."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[1] == 0:
        return a.copy()
    if a.shape[0] < a.shape[1]:
        raise DimensionMismatch(f"expected rows >= cols, got {a.shape}")
    q, r = np.linalg.qr(a, mode="reduced")
    rdiag = np.diagonal(r)
    if np.any(np.abs(rdiag) < QR_RANK_RTOL * np.linalg.norm(a)):
        raise RankDeficient("matrix is numerically rank deficient")
    return q * np.sign(rdiag)


def sample_covariance(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Sample covariance with the n - 1 denominator around a given mean.

    Symmetric by construction (the cross-product is symmetrized to remove
    floating-point asymmetry).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n}")
    centered = x - np.asarray(mean, dtype=np.float64)
    cov = centered.T @ centered / (n - 1)
    return (cov + cov.T) / 2.0
