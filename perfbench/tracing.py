"""Span tracing of calls into the rpeqda modules, from outside the package.

Several modules bind library functions under their own names (``rpe``
does ``from .randproj import generate, project, project_many``), so a
function is wrapped at every module attribute that holds it, not only
where it is defined.  The wrappers exist only between ``install`` and
``uninstall``; untraced ops run the unmodified package.

Each span is ``[name, start, end, parent, op_id, failed]``; ``parent`` is
the index of the enclosing span or -1.  Spans stay in memory until the
run writes them out.
"""

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, function, layer name).  Both CSV readers report as one layer.
TARGETS = (
    ("linalg", "cholesky", "linalg.cholesky"),
    ("linalg", "solve_quadratic_form_rows", "linalg.solve_quadratic_form_rows"),
    ("randproj", "generate", "randproj.generate"),
    ("randproj", "project", "randproj.project"),
    ("randproj", "project_many", "randproj.project_many"),
    ("qda", "fit_grouped", "qda.fit_grouped"),
    ("qda", "class_scores_rows", "qda.class_scores_rows"),
    ("qda", "population_class_scores", "qda.population_class_scores"),
    ("rpe", "rpe_fit", "rpe.rpe_fit"),
    ("rpe", "rpe_scores_rows", "rpe.rpe_scores_rows"),
    ("rpe", "population_rpe_scores", "rpe.population_rpe_scores"),
    ("schemes", "sample", "schemes.sample"),
    ("schemes", "kl_summary", "schemes.kl_summary"),
    ("csvio", "ingest_csv", "csvio.ingest"),
    ("csvio", "ingest_features_csv", "csvio.ingest"),
    ("serialize", "save_model", "serialize.save_model"),
    ("serialize", "load_model", "serialize.load_model"),
    ("evaluate", "run_scheme_experiment", "evaluate.run_scheme_experiment"),
    ("evaluate", "theorem_alignment_check", "evaluate.theorem_alignment_check"),
    ("cli", "cmd_train", "cli.cmd_train"),
    ("cli", "cmd_predict", "cli.cmd_predict"),
)
# Methods of every covariance handle class, one layer per method name.
METHODS = (("covariance", "matvec", "covariance.matvec"),)

LAYERS = tuple(dict.fromkeys(
    [name for _, _, name in TARGETS] + [name for _, _, name in METHODS]))
STATS = ("calls", "busy_s", "self_s", "failed")

# Bytes per stored nonzero of a CSR block: float64 value + int32 column.
_CSR_NONZERO_BYTES = 12


def project_many_cost(matrices, x):
    """Computed (flop, bytes) of one ``project_many`` call, from array shapes
    and nonzero counts: one multiply-add per matrix entry (dense) or stored
    nonzero (sparse) per row of ``x``; bytes read for the matrices and
    ``x`` plus bytes written for the (B, n, d) result."""
    n, p = np.shape(x)
    rows = sum(m.d for m in matrices)
    io_bytes = 8 * (n * p + rows * n)
    if matrices[0].entries is not None:
        return 2 * rows * p * n, io_bytes + 8 * rows * p
    nnz = sum(len(m.signs) for m in matrices)
    return 2 * nnz * n, io_bytes + _CSR_NONZERO_BYTES * nnz + 4 * (rows + 1)


class Tracer:
    """Records spans and exact per-op counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.op_id = None
        self._stack = []
        self._patches = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, site):
        spans, stack = self.spans, self._stack
        after = _AFTER.get(name)
        # Every matrix the ensemble draws, first draws and redraws alike,
        # goes through rpe's own binding of generate; model loading does not.
        site_count = name == "randproj.generate" and site == "rpeqda.rpe"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), None, stack[-1] if stack else -1,
                    self.op_id, False]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            counts = self.counts[self.op_id]
            if site_count:
                counts["rpe.member_attempts"] += 1
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace every traced function at every rpeqda attribute bound to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "rpeqda" or name.startswith("rpeqda.")}
        for module, attr, name in TARGETS:
            fn = getattr(modules[f"rpeqda.{module}"], attr)
            for site, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, self._wrap(name, fn, site))
        for module, attr, name in METHODS:
            for cls in vars(modules[f"rpeqda.{module}"]).values():
                if isinstance(cls, type) and attr in vars(cls):
                    self._patch(cls, attr, self._wrap(name, vars(cls)[attr], module))

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- summaries ----------------------------------------------------------

    def layer_totals(self, op_id):
        """{layer: {stat: value}} over the spans of one op.  ``busy_s``
        counts a span only when no enclosing span has the same name, so a
        handle whose ``matvec`` calls its base's ``matvec`` is not counted
        twice; ``self_s`` subtracts the direct children's durations."""
        totals = {name: dict.fromkeys(STATS, 0) for name in LAYERS}
        child_time = defaultdict(float)
        chosen = [(i, s) for i, s in enumerate(self.spans) if s[4] == op_id]
        for _, span in chosen:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        for i, (name, start, end, parent, _, failed) in chosen:
            t = totals[name]
            t["calls"] += 1
            t["failed"] += int(failed)
            t["self_s"] += (end - start) - child_time[i]
            if not self._has_ancestor_named(parent, name):
                t["busy_s"] += end - start
        return totals

    def _has_ancestor_named(self, index, name):
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False


def _after_project_many(counts, args, kwargs, result):
    matrices = args[0] if args else kwargs["matrices"]
    x = args[1] if len(args) > 1 else kwargs["x"]
    flop, moved = project_many_cost(matrices, x)
    counts["randproj.project_many.flop"] += flop
    counts["randproj.project_many.bytes"] += moved


def _after_rpe_fit(counts, args, kwargs, result):
    counts["rpe.members_fitted"] += len(result.members)


def _after_population_rpe_scores(counts, args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    counts["rpe.members_fitted"] += config.B


def _path_bytes(key, position):
    def after(counts, args, kwargs, result):
        path = args[position] if len(args) > position else kwargs["path"]
        counts[key] += os.path.getsize(path)
    return after


_AFTER = {
    "randproj.project_many": _after_project_many,
    "rpe.rpe_fit": _after_rpe_fit,
    "rpe.population_rpe_scores": _after_population_rpe_scores,
    "serialize.save_model": _path_bytes("serialize.model_bytes", 1),
    "csvio.ingest": _path_bytes("csvio.ingest.bytes", 0),
}
