"""Structured covariance representations.

Each class represents a symmetric positive-definite p x p matrix through
closed forms, with exactly the four operations the samplers, the
divergence oracle and the population-mode classifier need:

* ``matvec(V)``    -- Sigma @ V for columns V of shape (p, k)
* ``solve(V)``     -- Sigma^{-1} @ V for columns V of shape (p, k), exact
                      (no iterative methods)
* ``log_det()``    -- exact log-determinant
* ``fill(g, outs)`` -- overwrite the C-contiguous (n_i, p) row blocks
                      ``outs``, in order, with one draw of sum(n_i) rows
                      from N(0, Sigma) using the structure (cost O(p) to
                      O(p * width) per row)

A scalar multiple of a handle is always ``ScaledCovariance(base, c)``,
never a parameter of the base, so the divergence oracle can recognise a
scale pair by unwrapping one handle type.

Other pairs get tr(Sigma_a^{-1} Sigma_b) from a sweep over identity
columns, ``_TRACE_CHUNK`` at a time.  A step reads only the diagonal
entries of its own rows, so it applies only the diagonal blocks those
rows reach: the blocks of ``a`` that hold them and the blocks of ``b``
that feed those.  Each block op gets the same C-ordered input rows as
in a sweep of both whole handles over all p rows, and each step sums
its diagonal entries in one call, so the trace keeps that sweep's bits.

Sampling consumes the supplied Generator in a fixed documented order, so a
seed fully determines the draw, and ``fill`` consumes it the same way
however the rows are split into blocks: the bytes depend only on the
total row count.  So a caller can draw straight into
the rows of its own arrays, such as the train and test rows of one class,
and draws on distinct Generators into distinct blocks can run on
concurrent threads (NumPy's Generator fills and ufuncs release the GIL).

Handles whose transform acts row by row (identity, equicorrelation, the
two AR forms, scaling) draw into the blocks and transform them in place,
``_SAMPLE_BLOCK_ROWS`` rows at a time where they need a temporary.  A
block diagonal draws each block through temporaries of that block's width,
because ``standard_normal(out=)`` needs contiguous memory.  Handles that
transform with a BLAS product (rotated spike, spiked identity) draw
all rows into one temporary and copy it out, because a product over fewer
rows can round differently.

The AR recursions run through ``scipy.signal.lfilter``, imported inside the
two functions that call it: ``scipy.signal`` takes over a second to
import, and runs that never build an AR handle never pay for it.  A first
call on two threads at once is safe, since the import lock makes the
second thread wait for the first.
"""

import math

import numpy as np

from .errors import DimensionMismatch, InvalidCovariance, InvalidParameter

# Generic trace products fall back to an O(p^2) column sweep; cap the size
# so accidental huge inputs fail fast instead of thrashing.
DENSE_FALLBACK_LIMIT = 2048

# Rows per block where a sampler needs a temporary the width of its draw.
_SAMPLE_BLOCK_ROWS = 16

# Identity columns per step of the generic trace sweep.
_TRACE_CHUNK = 256


def _total_rows(outs):
    return sum(len(out) for out in outs)


def _draw(rng, outs):
    """Fill ``outs`` in order with standard normals, one stream of rows."""
    for out in outs:
        rng.standard_normal(out=out)


def _normal_blocks(rng, outs):
    """Draw like ``_draw``, ``_SAMPLE_BLOCK_ROWS`` rows at a time, yielding
    each row block of ``outs`` as soon as it holds its normals, so a row
    transform runs on each block right after its draw."""
    for out in outs:
        for lo in range(0, len(out), _SAMPLE_BLOCK_ROWS):
            block = out[lo:lo + _SAMPLE_BLOCK_ROWS]
            rng.standard_normal(out=block)
            yield block


def _copy_out(rows, outs):
    """Copy consecutive rows of ``rows`` into the blocks ``outs``."""
    lo = 0
    for out in outs:
        out[...] = rows[lo:lo + len(out)]
        lo += len(out)


class IdentityCovariance:
    def __init__(self, p):
        self.p = p

    def matvec(self, v):
        """``v`` itself as float64, without copying."""
        return np.asarray(v, dtype=np.float64)

    solve = matvec

    def log_det(self):
        return 0.0

    def fill(self, rng, outs):
        _draw(rng, outs)


class EquiCorrelation:
    """Sigma = (1 - rho) I + rho 1 1'.

    Inverse by Sherman-Morrison, sampling by the shared-factor identity
    x = sqrt(1 - rho) z + sqrt(rho) w 1 with scalar w (z drawn first).
    """

    def __init__(self, p, rho):
        if not 0.0 <= rho < 1.0:
            raise InvalidCovariance(f"need 0 <= rho < 1, got {rho}")
        self.p = p
        self.rho = rho

    def matvec(self, v):
        return (1.0 - self.rho) * v + self.rho * v.sum(axis=0)

    def solve(self, v):
        shrink = self.rho / (1.0 - self.rho + self.p * self.rho)
        return (v - shrink * v.sum(axis=0)) / (1.0 - self.rho)

    def log_det(self):
        return (self.p - 1) * math.log(1.0 - self.rho) + math.log(
            1.0 - self.rho + self.p * self.rho)

    def fill(self, rng, outs):
        _draw(rng, outs)
        w = rng.standard_normal((_total_rows(outs), 1))
        lo = 0
        for z in outs:
            z *= math.sqrt(1.0 - self.rho)
            z += math.sqrt(self.rho) * w[lo:lo + len(z)]
            lo += len(z)


def _ar_matvec(rho, cols):
    """T @ cols for the AR(1) correlation T = ((rho^|i-j|))."""
    if len(cols) == 1:
        return cols.copy()
    # scipy.signal takes 1.2-1.3 s to import (2 cores); only AR handles need it
    from scipy.signal import lfilter
    forward = lfilter([0.0, rho], [1.0, -rho], cols, axis=0)
    backward = lfilter([0.0, rho], [1.0, -rho], cols[::-1], axis=0)[::-1]
    return cols + forward + backward


def _ar_solve(rho, cols):
    """T^{-1} @ cols through the tridiagonal inverse of T."""
    if len(cols) == 1:
        return cols.copy()
    c = 1.0 / (1.0 - rho * rho)
    out = c * (1.0 + rho * rho) * cols
    out[0] = c * cols[0]
    out[-1] = c * cols[-1]
    out[1:] -= c * rho * cols[:-1]
    out[:-1] -= c * rho * cols[1:]
    return out


class ArProcessCovariance:
    """Sigma = T = ((rho^|i-j|)), the stationary AR(1) correlation.

    matvec runs two geometric recursions (O(p)); solve applies the exact
    tridiagonal inverse; sampling runs the AR recursion x_1 = e_1,
    x_i = rho x_{i-1} + sqrt(1 - rho^2) e_i.
    """

    def __init__(self, p, rho):
        if not -1.0 < rho < 1.0:
            raise InvalidCovariance(f"need |rho| < 1, got {rho}")
        self.p = p
        self.rho = rho

    def matvec(self, v):
        return _ar_matvec(self.rho, v)

    def solve(self, v):
        return _ar_solve(self.rho, v)

    def log_det(self):
        return (self.p - 1) * math.log(1.0 - self.rho * self.rho)

    def fill(self, rng, outs):
        # scipy.signal takes 1.2-1.3 s to import (2 cores); only AR handles need it
        from scipy.signal import lfilter
        for x in _normal_blocks(rng, outs):
            if self.p > 1:
                x[:, 1:] *= math.sqrt(1.0 - self.rho * self.rho)
                x[...] = lfilter([1.0], [1.0, -self.rho], x, axis=1)


class InverseArCovariance:
    """Sigma = T^{-1} where T = ((rho^|i-j|)).

    T^{-1} is tridiagonal, so Sigma itself is tridiagonal; solve applies T
    directly via the AR recursions, and sampling solves L' x = z against
    the closed-form AR Cholesky factor of T (an O(p) bidiagonal
    application).
    """

    def __init__(self, p, rho):
        if not -1.0 < rho < 1.0:
            raise InvalidCovariance(f"need |rho| < 1, got {rho}")
        self.p = p
        self.rho = rho

    def matvec(self, v):
        return _ar_solve(self.rho, v)

    def solve(self, v):
        return _ar_matvec(self.rho, v)

    def log_det(self):
        return -((self.p - 1) * math.log(1.0 - self.rho * self.rho))

    def fill(self, rng, outs):
        # x_i = (z_i - rho z_{i+1}) / s with x_1 = z_1 - (rho / s) z_2 and
        # x_p = z_p / s, overwriting z one row block at a time
        s = math.sqrt(1.0 - self.rho * self.rho)
        for z in _normal_blocks(rng, outs):
            if self.p > 1:
                first = z[:, 0] - (self.rho / s) * z[:, 1]
                z[:, 1:-1] -= self.rho * z[:, 2:]
                z[:, 1:] /= s
                z[:, 0] = first


class RotatedSpike:
    """Sigma = P diag(lam) P' with P square orthogonal."""

    def __init__(self, basis, lam):
        self.basis = np.asarray(basis, dtype=np.float64)
        self.lam = np.asarray(lam, dtype=np.float64)
        if np.any(self.lam <= 0.0):
            raise InvalidCovariance("spectrum must be strictly positive")
        self.p = self.basis.shape[0]

    def matvec(self, v):
        return self.basis @ (self.lam[:, None] * (self.basis.T @ v))

    def solve(self, v):
        return self.basis @ ((self.basis.T @ v) / self.lam[:, None])

    def log_det(self):
        return float(np.sum(np.log(self.lam)))

    def fill(self, rng, outs):
        z = rng.standard_normal((_total_rows(outs), self.p))
        _copy_out((z * np.sqrt(self.lam)) @ self.basis.T, outs)


class SpikedIdentity:
    """Sigma = I_p + P diag(gamma) P' with P a p x r orthonormal block.

    Inversion and square roots act only on the r-dimensional spike, so all
    operations cost O(p * r).
    """

    def __init__(self, p, basis, gamma):
        self.p = p
        self.basis = np.asarray(basis, dtype=np.float64).reshape(p, -1)
        self.gamma = np.asarray(gamma, dtype=np.float64).reshape(-1)
        if self.basis.shape[1] != self.gamma.shape[0]:
            raise InvalidCovariance("basis and spectrum sizes differ")
        if np.any(self.gamma <= -1.0):
            raise InvalidCovariance("spike spectrum must keep Sigma positive definite")

    def matvec(self, v):
        return v + self.basis @ (self.gamma[:, None] * (self.basis.T @ v))

    def solve(self, v):
        shrink = self.gamma / (1.0 + self.gamma)
        return v - self.basis @ (shrink[:, None] * (self.basis.T @ v))

    def log_det(self):
        return float(np.sum(np.log1p(self.gamma)))

    def fill(self, rng, outs):
        z = rng.standard_normal((_total_rows(outs), self.p))
        stretch = np.sqrt(1.0 + self.gamma) - 1.0
        z += ((z @ self.basis) * stretch) @ self.basis.T
        _copy_out(z, outs)


class ScaledCovariance:
    """Sigma = scale * base, sharing the base representation."""

    def __init__(self, base, scale):
        if scale <= 0.0:
            raise InvalidCovariance(f"need scale > 0, got {scale}")
        self.base = base
        self.scale = scale

    @property
    def p(self):
        return self.base.p

    def matvec(self, v):
        return self.scale * self.base.matvec(v)

    def solve(self, v):
        return self.base.solve(v) / self.scale

    def log_det(self):
        return self.base.log_det() + self.p * math.log(self.scale)

    def fill(self, rng, outs):
        self.base.fill(rng, outs)
        for x in outs:
            x *= math.sqrt(self.scale)


class BlockDiagonal:
    """Block-diagonal composition of structured blocks, applied slicewise.

    Sampling consumes the generator block by block in storage order.
    """

    def __init__(self, blocks):
        self.blocks = list(blocks)
        sizes = [b.p for b in self.blocks]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.p = int(self.offsets[-1])

    def _apply(self, cols, op):
        out = np.empty_like(cols)
        for block, lo, hi in zip(self.blocks, self.offsets, self.offsets[1:]):
            out[lo:hi] = op(block, cols[lo:hi])
        return out

    def matvec(self, v):
        return self._apply(v, lambda b, c: b.matvec(c))

    def solve(self, v):
        return self._apply(v, lambda b, c: b.solve(c))

    def log_det(self):
        return float(sum(b.log_det() for b in self.blocks))

    def fill(self, rng, outs):
        for block, lo, hi in zip(self.blocks, self.offsets, self.offsets[1:]):
            parts = [np.empty((len(out), hi - lo)) for out in outs]
            block.fill(rng, parts)
            for out, part in zip(outs, parts):
                out[:, lo:hi] = part


def _unwrap_scale(cov):
    if isinstance(cov, ScaledCovariance):
        return cov.base, cov.scale
    return cov, 1.0


def _spans(cov):
    """(block, lo, hi) of every diagonal block of a handle; a handle that is
    not a BlockDiagonal is one block over all its rows."""
    if isinstance(cov, BlockDiagonal):
        return list(zip(cov.blocks, cov.offsets[:-1].tolist(), cov.offsets[1:].tolist()))
    return [(cov, 0, cov.p)]


def _reached(spans, lo, hi):
    """The spans whose rows meet rows [lo, hi)."""
    return [span for span in spans if span[1] < hi and lo < span[2]]


def trace_solve_product(a, b):
    """Exact trace of ``a^{-1} b`` for two structured covariances.

    Scalar-multiple pairs (Sigma_b = c Sigma_a) reduce to ``c * p`` in
    closed form at any dimension.  Other pairs use an exact column sweep
    through the structured matvec and solve, which is limited to
    p <= DENSE_FALLBACK_LIMIT to bound its O(p^2) cost.

    Each step covers ``_TRACE_CHUNK`` identity columns [lo, hi) and reads
    only the diagonal entries in rows [lo, hi) of a^{-1} b applied to
    them.  Those rows come from the blocks of ``a`` whose rows
    meet [lo, hi), whose inputs come from the blocks of ``b`` whose rows
    meet those blocks of ``a``; the step applies only these.  A handle
    that is not a BlockDiagonal counts as one block over all p rows.

    The bits equal those of a sweep that applies both whole handles over
    all p rows at every step.  Each applied block op gets the same
    C-ordered rows, values and shape as there: a block of ``b`` reads its
    own rows of the identity columns, and a block of ``a`` reads rows that
    only the applied blocks of ``b`` write.  The blocks left out write only
    rows that nothing read depends on.  The step's diagonal entries are
    the same values in the same order, summed by one ``sum``, so the chunk
    width stays part of the result's bits.
    """
    if a.p != b.p:
        raise DimensionMismatch(f"dimension mismatch: {a.p} vs {b.p}")
    base_a, scale_a = _unwrap_scale(a)
    base_b, scale_b = _unwrap_scale(b)
    if base_a is base_b:
        return base_a.p * scale_b / scale_a
    p = a.p
    if p > DENSE_FALLBACK_LIMIT:
        raise InvalidParameter(
            f"generic trace product limited to p <= {DENSE_FALLBACK_LIMIT}, got {p}")
    spans_a, spans_b = _spans(a), _spans(b)
    total = 0.0
    for lo in range(0, p, _TRACE_CHUNK):
        hi = min(lo + _TRACE_CHUNK, p)
        reach_a = _reached(spans_a, lo, hi)
        reach_b = _reached(spans_b, reach_a[0][1], reach_a[-1][2])
        first = reach_b[0][1]
        eye_cols = np.zeros((reach_b[-1][2] - first, hi - lo))
        eye_cols[np.arange(lo - first, hi - first), np.arange(hi - lo)] = 1.0
        mapped = np.empty_like(eye_cols)
        for block, blo, bhi in reach_b:
            mapped[blo - first:bhi - first] = block.matvec(eye_cols[blo - first:bhi - first])
        diagonal = np.empty(hi - lo)
        for block, alo, ahi in reach_a:
            rows = np.arange(max(lo, alo), min(hi, ahi))
            solved = block.solve(mapped[alo - first:ahi - first])
            diagonal[rows - lo] = solved[rows - alo, rows - lo]
        total += float(diagonal.sum())
    return total
