"""Dense linear-algebra kernels.

Matrices are plain float64 ``numpy`` arrays in row-major order; symmetric
matrices are stored in full with exact ``A[i, j] == A[j, i]`` maintained by
construction.  Factorizations are delegated to LAPACK (via numpy) and
wrapped with the tolerance and error semantics this package requires.

No inverse is ever materialized: every quadratic form and determinant goes
through a Cholesky factor.  Stacks of small factors (one per ensemble member
and class) are built by :func:`cholesky_stack` in one LAPACK call, and their
quadratic forms come from :func:`solve_quadratic_form_rows`, a forward
substitution written in NumPy that runs over all factors at once instead of
making one LAPACK triangular solve per factor.

The package's thread policy lives here too, as two constants.  BLAS and
LAPACK run on ``_BLAS_THREADS`` (one) thread inside every public call that
reaches them in bulk: :func:`_one_blas_thread` sets numpy's OpenBLAS to
one thread for the length of the call and gives the caller's setting back
on return or on raise.  The work is thousands of tiny d x d factorizations
and products of modest size, for which a BLAS thread pool costs more than
it saves, and OpenBLAS can round a product differently on one thread and on
several, so one thread also makes every result independent of
``OPENBLAS_NUM_THREADS``.  Work that splits into independent parts runs on
``_WORKER_THREADS`` (two) threads, the caller and one shared worker,
through :func:`_in_parallel`.  Seeded draws that do not depend on one
another (a replicate's two classes) are such parts: each draw has its own
counter-based Philox stream (Salmon et al., 2011) and writes only its own
output.  Row work is split by :func:`_in_halves` into two contiguous halves
of whole pieces, one per thread: an ensemble's dense projection matrices
(half of the seeds each), the sparse projection (half of the row blocks
each), the finite-input scans (half of the scan steps each) and population
mode's member chunks (half of the chunks each).  Each half computes what
the whole would have computed for its rows, so no result depends on the
schedule.

One rule covers nested splits: a split requested inside an
:func:`_in_parallel` task, on either thread, runs its tasks in order on
the current thread.  Both threads are busy with the outer split already,
so a nested hand-off would only queue behind the outer task (or, on the
worker, wait on itself).
"""

import contextlib
import ctypes
import os
import threading
from concurrent import futures

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, RankDeficient

_BLAS_THREADS = 1
_WORKER_THREADS = 2

# (get, set) thread-count entry points of the OpenBLAS numpy loads: the
# 64-bit-integer scipy-openblas of numpy's wheels, or a system OpenBLAS.
# scipy's own OpenBLAS (32-bit scipy-openblas) is left alone: rpeqda makes
# no BLAS call through scipy.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# A Cholesky pivot at or below PIVOT_RTOL * max(diag) is treated as rank
# deficiency rather than roundoff, so fits on degenerate projected
# covariances fail loudly instead of producing garbage solves.
PIVOT_RTOL = 1e-12

QR_RANK_RTOL = 1e-12


# No library code calls this; perfbench's tracer binds it and the tests'
# dense oracle factors through it, so it leaves with the benchmark's change.
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


def orthonormal_columns(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column span of a tall or square full-rank
    matrix (the orthogonal factor itself when ``a`` is square).

    Uses the sign convention that makes the upper-triangular factor have a
    strictly positive diagonal, which pins down Q uniquely.

    Raises
    ------
    RankDeficient
        If any diagonal of R falls below ``QR_RANK_RTOL * ||a||_F``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise DimensionMismatch(f"expected rows >= cols, got {a.shape}")
    q, r = np.linalg.qr(a)
    rdiag = np.diagonal(r)
    if np.any(np.abs(rdiag) < QR_RANK_RTOL * np.linalg.norm(a)):
        raise RankDeficient("matrix is numerically rank deficient")
    return q * np.sign(rdiag)


class _LoadedLibrary(ctypes.Structure):
    """Leading fields of ``struct dl_phdr_info``."""
    _fields_ = [("addr", ctypes.c_void_p), ("name", ctypes.c_char_p)]


def _loaded_openblas() -> list:
    """``(get, set)`` thread-count functions of every OpenBLAS loaded in
    this process that exposes one of ``_OPENBLAS_THREAD_SYMBOLS``; empty
    where the loaded libraries cannot be listed (no ``dl_iterate_phdr``)."""
    paths = []

    def collect(info, size, data):
        name = info.contents.name
        if name and b"openblas" in os.path.basename(name).lower():
            paths.append(os.fsdecode(name))
        return 0

    callback_type = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_LoadedLibrary),
                                     ctypes.c_size_t, ctypes.c_void_p)
    try:
        iterate = ctypes.CDLL(None).dl_iterate_phdr
    except (AttributeError, OSError, TypeError):
        return []
    iterate.argtypes = [callback_type, ctypes.c_void_p]
    iterate.restype = ctypes.c_int
    callback = callback_type(collect)
    iterate(callback, None)
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for get_name, put_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, put_name):
                get, put = getattr(lib, get_name), getattr(lib, put_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return found


_blas_lock = threading.Lock()
_blas_depth = 0
_blas_libraries = None
_blas_saved = ()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body (or, as a decorator, the function) with numpy's
    OpenBLAS on ``_BLAS_THREADS`` threads.

    The thread count is process-wide: only the outermost scope in the
    process restores the count it found, and a depth counter under a lock
    keeps nested scopes and scopes entered on other threads at one thread
    until the last one leaves (BLAS the caller runs on other threads
    meanwhile is on one thread too).  The libraries are looked up once, at
    the first scope; where no controllable OpenBLAS is loaded the scope
    does nothing.
    """
    global _blas_depth, _blas_libraries, _blas_saved
    with _blas_lock:
        if _blas_depth == 0:
            if _blas_libraries is None:
                _blas_libraries = _loaded_openblas()
            _blas_saved = tuple(get() for get, _ in _blas_libraries)
            for _, put in _blas_libraries:
                put(_BLAS_THREADS)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for (_, put), count in zip(_blas_libraries, _blas_saved):
                    put(count)


_worker_lock = threading.Lock()
_workers = None


def _reset_after_fork():
    # a forked child inherits the locks, possibly held by threads it does
    # not have, and the worker pool without its worker thread
    global _blas_lock, _worker_lock, _workers
    _blas_lock = threading.Lock()
    _worker_lock = threading.Lock()
    _workers = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


# ``inside`` is True on a thread while it runs an _in_parallel task
_task_state = threading.local()


def _as_task(task):
    """``task`` marked as running inside a split while it runs."""
    def run():
        _task_state.inside = True
        try:
            return task()
        finally:
            _task_state.inside = False
    return run


def _in_parallel(*tasks) -> list:
    """Run the callables at once and return their results in order.

    The first runs on the calling thread and the rest on the
    ``_WORKER_THREADS - 1`` shared workers.  Every task has finished when
    this returns or raises, and the error raised is that of the first
    failing task in task order.  Called inside a task of another
    ``_in_parallel`` call, on either thread, it runs the tasks in order on
    the current thread instead, stopping at the first that raises; so a
    task may split its own work without waiting on a busy worker.
    """
    global _workers
    if getattr(_task_state, "inside", False):
        return [task() for task in tasks]
    with _worker_lock:
        if _workers is None:
            _workers = futures.ThreadPoolExecutor(
                max_workers=_WORKER_THREADS - 1, thread_name_prefix="rpeqda-worker")
        pending = [_workers.submit(_as_task(task)) for task in tasks[1:]]
    try:
        first = _as_task(tasks[0])()
    finally:
        futures.wait(pending)
    return [first] + [done.result() for done in pending]


def _in_halves(task, n: int, unit: int = 1) -> list:
    """Run ``task(lo, hi)`` over ``[0, n)`` in two contiguous halves of
    whole ``unit``-sized pieces and return the results in row order.

    The first half, the larger one when the piece count is odd, runs on
    the calling thread and the second on the worker, as in
    :func:`_in_parallel` (so inside one of its tasks both halves run in
    order on the current thread); with fewer than two pieces the caller
    runs ``task(0, n)`` alone and the result list has one entry.
    """
    pieces = -(-n // unit)
    if pieces < 2:
        return [task(0, n)]
    mid = (pieces + 1) // 2 * unit
    return _in_parallel(lambda: task(0, mid), lambda: task(mid, n))
