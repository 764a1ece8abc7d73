"""Test-side oracles for the structured covariance handles and the
projection matrices.

The library's handles carry only ``matvec``, ``solve``, ``log_det`` and
``fill``.  The tests check them against what this module builds on its own:

* ``dense(cov)`` -- the explicit p x p matrix of a handle, from the closed
  form of its type, never through its ``matvec`` or ``solve``;
* ``DenseCovariance`` -- a handle for an explicit SPD matrix, through its
  Cholesky factor;
* ``draw(cov, n, rng)`` -- n rows from N(0, Sigma) as a new array:
  allocate, then ``fill``;
* ``dense_projection(matrix)`` -- the explicit d x p array of a projection
  matrix, never through the library's stacked operator;
* ``whole_height_trace(a, b)`` -- tr(a^{-1} b) by the column sweep that
  applies both whole handles over all p rows at every step.
"""

import numpy as np
from scipy.linalg import cho_solve

from rpeqda import linalg
from rpeqda.covariance import (
    ArProcessCovariance,
    BlockDiagonal,
    EquiCorrelation,
    IdentityCovariance,
    InverseArCovariance,
    RotatedSpike,
    ScaledCovariance,
    SpikedIdentity,
    _TRACE_CHUNK,
)


class DenseCovariance:
    """Explicit SPD matrix as a covariance handle."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self._factor = None

    @property
    def p(self):
        return self.matrix.shape[0]

    def _chol(self):
        if self._factor is None:
            self._factor = linalg.cholesky(self.matrix)
        return self._factor

    def matvec(self, v):
        return self.matrix @ v

    def solve(self, v):
        return cho_solve((self._chol()[0], True), v, check_finite=False)

    def log_det(self):
        return self._chol()[1]

    def fill(self, rng, outs):
        # all rows through one product, which can round differently over fewer rows
        z = rng.standard_normal((sum(len(out) for out in outs), self.p))
        rows = z @ self._chol()[0].T
        lo = 0
        for out in outs:
            out[...] = rows[lo:lo + len(out)]
            lo += len(out)


def _inverse_ar(p, rho):
    """The tridiagonal inverse of the AR(1) correlation ((rho^|i-j|))."""
    if p == 1:
        return np.array([[1.0]])
    c = 1.0 / (1.0 - rho * rho)
    out = np.zeros((p, p))
    np.fill_diagonal(out, c * (1.0 + rho * rho))
    out[0, 0] = out[-1, -1] = c
    idx = np.arange(p - 1)
    out[idx, idx + 1] = -c * rho
    out[idx + 1, idx] = -c * rho
    return out


def dense(cov):
    """The explicit p x p matrix of a handle, from its type's closed form."""
    if isinstance(cov, DenseCovariance):
        return cov.matrix.copy()
    if isinstance(cov, IdentityCovariance):
        return np.eye(cov.p)
    if isinstance(cov, EquiCorrelation):
        return (1.0 - cov.rho) * np.eye(cov.p) + cov.rho * np.ones((cov.p, cov.p))
    if isinstance(cov, ArProcessCovariance):
        idx = np.arange(cov.p)
        return cov.rho ** np.abs(idx[:, None] - idx[None, :])
    if isinstance(cov, InverseArCovariance):
        return _inverse_ar(cov.p, cov.rho)
    if isinstance(cov, RotatedSpike):
        return (cov.basis * cov.lam) @ cov.basis.T
    if isinstance(cov, SpikedIdentity):
        return np.eye(cov.p) + (cov.basis * cov.gamma) @ cov.basis.T
    if isinstance(cov, ScaledCovariance):
        return cov.scale * dense(cov.base)
    if isinstance(cov, BlockDiagonal):
        out = np.zeros((cov.p, cov.p))
        for block, lo, hi in zip(cov.blocks, cov.offsets, cov.offsets[1:]):
            out[lo:hi, lo:hi] = dense(block)
        return out
    raise TypeError(f"no closed form for {type(cov).__name__}")


def draw(cov, n, rng):
    """n rows from N(0, Sigma) of one handle, as a new (n, p) array."""
    out = np.empty((n, cov.p))
    cov.fill(rng, [out])
    return out


def dense_projection(matrix):
    """The d x p array of a ProjectionMatrix: a copy of its entries, or
    zeros with its signs scattered at (rows, cols)."""
    if matrix.entries is not None:
        return matrix.entries.copy()
    out = np.zeros((matrix.d, matrix.p))
    out[matrix.rows, matrix.cols] = matrix.signs
    return out


def whole_height_trace(a, b):
    """tr(a^{-1} b) through ``_TRACE_CHUNK`` identity columns at a time: both
    handles applied to all p rows of each chunk, and the chunk's diagonal
    entries summed by one ``sum``."""
    p = a.p
    total = 0.0
    for lo in range(0, p, _TRACE_CHUNK):
        hi = min(lo + _TRACE_CHUNK, p)
        eye_cols = np.zeros((p, hi - lo))
        eye_cols[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
        solved = a.solve(b.matvec(eye_cols))
        total += float(solved[np.arange(lo, hi), np.arange(hi - lo)].sum())
    return total
