"""Dense linear-algebra kernels.

Matrices are plain float64 ``numpy`` arrays in row-major order; symmetric
matrices are stored in full with exact ``A[i, j] == A[j, i]`` maintained by
construction.  Factorizations are delegated to LAPACK (via numpy/scipy) and
wrapped with the tolerance and error semantics this package requires.

No inverse is ever materialized: every quadratic form and determinant goes
through a Cholesky factor.  Stacks of small factors (one per ensemble member
and class) are built by :func:`cholesky_stack` in one LAPACK call, and their
quadratic forms come from :func:`solve_quadratic_form_rows`, a forward
substitution written in NumPy that runs over all factors at once instead of
making one LAPACK triangular solve per factor.
"""

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, RankDeficient

# A Cholesky pivot at or below PIVOT_RTOL * max(diag) is treated as rank
# deficiency rather than roundoff, so fits on degenerate projected
# covariances fail loudly instead of producing garbage solves.
PIVOT_RTOL = 1e-12

QR_RANK_RTOL = 1e-12


def cholesky(s: np.ndarray):
    """Factor a symmetric positive-definite matrix as ``L @ L.T``.

    Parameters
    ----------
    s : ndarray, shape (dim, dim)
        Symmetric matrix; only finite entries are meaningful.

    Returns
    -------
    (lower, log_det)
        The lower-triangular factor and ``log det(s)`` as a float.

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
    return lower, float(log_det)


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


def solve_quadratic_form_rows(lower: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Quadratic forms ``v' S^{-1} v`` of every row v, for a stack of
    factors ``S = L L'``.

    ``lower`` is (..., dim, dim), lower triangular with a positive
    diagonal, and ``rows`` is (..., n, dim); their leading dimensions
    broadcast.  Returns (..., n), always nonnegative.  ``L^{-1} v`` is
    found by forward substitution, one component per step, for every
    factor and row at once, so the cost in Python calls grows with
    ``dim``, not with how many factors the stack holds.  The steps read
    the rows one component at a time, so rows passed as the transpose of a
    (..., dim, n) array are read contiguously.  Every step is elementwise,
    with no BLAS product (whose rounding can depend on how many rows share
    the call), so each row's result is the same bytes whatever other rows
    are passed with it.
    """
    lower = np.asarray(lower, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    dim = lower.shape[-1]
    if lower.shape[-2] != dim or rows.ndim < 2 or rows.shape[-1] != dim:
        raise DimensionMismatch(
            f"rows of shape {rows.shape} against factors of shape {lower.shape}")
    # component-major views: coef[i, k] is L_ik as (..., 1) and comp[i]
    # the i-th components of the rows, (..., n)
    coef = np.moveaxis(lower, (-2, -1), (0, 1))[..., None]
    comp = np.moveaxis(rows, -1, 0)
    y = np.empty((dim,) + np.broadcast_shapes(lower.shape[:-2] + (1,), rows.shape[:-1]))
    term = np.empty(y.shape[1:])
    for i in range(dim):
        row = comp[i]
        if i:
            dot = np.multiply(coef[i, 0], y[0])
            for k in range(1, i):
                dot += np.multiply(coef[i, k], y[k], out=term)
            row = np.subtract(row, dot, out=dot)
        np.divide(row, coef[i, i], out=y[i])
    qf = np.multiply(y[0], y[0])
    for i in range(1, dim):
        qf += np.multiply(y[i], y[i], out=term)
    return qf


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
