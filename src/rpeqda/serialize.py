"""Canonical JSON serialization and model persistence.

Every artifact this package writes goes through :func:`canonical_json`,
which prints floats with 17 significant digits (bit-faithful float64
round-trips) and preserves key insertion order, so identical in-memory
values always produce byte-identical files.

Model files carry an explicit schema version and come in two storage
modes: ``full`` stores each member's matrix payload alongside its
projected model; ``compact`` stores only the matrix seeds, and loading
regenerates the matrices, which the seeded generation contract guarantees
to be bit-exact.
"""

import json
import math

import numpy as np

from . import __version__
from .errors import ModelFormatError
from .linalg import factor_log_det
from .randproj import ProjectionFamily, ProjectionMatrix, generate
from .rpe import MemberStack, RpeConfig, RpeModel

MODEL_SCHEMA = "rpeqda-model/1"
REPORT_SCHEMA = "rpeqda-report/1"


def tool_version() -> str:
    return f"rpeqda {__version__}"


def _emit(value, out):
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {value!r} in canonical JSON")
        out.append(format(value, ".17g"))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, np.ndarray):
        _emit(value.tolist(), out)
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(item, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def canonical_json(value) -> str:
    """Deterministic JSON text: insertion-ordered keys, .17g floats."""
    out = []
    _emit(value, out)
    return "".join(out)


def write_json(value, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(value))
        handle.write("\n")


def _matrix_to_dict(matrix: ProjectionMatrix, compact: bool) -> dict:
    payload = {"family": matrix.family.value, "d": matrix.d, "p": matrix.p,
               "seed": matrix.seed}
    if compact:
        return payload
    if matrix.entries is not None:
        payload["entries"] = matrix.entries
    else:
        payload["rows"] = [int(v) for v in matrix.rows]
        payload["cols"] = [int(v) for v in matrix.cols]
        payload["signs"] = [int(v) for v in matrix.signs]
    return payload


def _matrix_from_dict(payload: dict) -> ProjectionMatrix:
    family = ProjectionFamily(payload["family"])
    if "entries" in payload:
        return ProjectionMatrix(
            family=family, d=payload["d"], p=payload["p"], seed=payload["seed"],
            entries=np.asarray(payload["entries"], dtype=np.float64))
    if "rows" in payload:
        return ProjectionMatrix(
            family=family, d=payload["d"], p=payload["p"], seed=payload["seed"],
            rows=np.asarray(payload["rows"], dtype=np.int64),
            cols=np.asarray(payload["cols"], dtype=np.int64),
            signs=np.asarray(payload["signs"], dtype=np.int8))
    return generate(family, payload["d"], payload["p"], payload["seed"])


def model_to_dict(model: RpeModel, compact: bool = False,
                  run_config: dict | None = None) -> dict:
    cfg = model.config
    stack = model.members
    classes = [(str(label), float(prior), math.log(prior))
               for label, prior in zip(model.class_labels, model.priors)]
    return {
        "schema": MODEL_SCHEMA,
        "tool": tool_version(),
        "run_config": dict(run_config) if run_config is not None else None,
        "storage": "compact" if compact else "full",
        "p": model.p,
        "class_labels": list(model.class_labels),
        "config": {"B": cfg.B, "d": cfg.d, "family": cfg.family.value,
                   "master_seed": cfg.master_seed, "ridge": cfg.ridge,
                   "max_regen_retries": cfg.max_regen_retries},
        "members": [
            {"matrix": _matrix_to_dict(matrix, compact),
             "model": {"classes": [
                 {"label": label, "prior": prior, "log_prior": log_prior,
                  "mean": stack.means[b, j], "cov_lower": stack.lower[b, j],
                  "log_det": stack.log_det[b, j]}
                 for j, (label, prior, log_prior) in enumerate(classes)]}}
            for b, matrix in enumerate(stack.matrices)],
    }


def model_from_dict(payload: dict) -> RpeModel:
    """Rebuild a model from its file payload, raising ModelFormatError when
    the payload is not a consistent ``rpeqda-model/1`` document."""
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != MODEL_SCHEMA:
        raise ModelFormatError(f"unsupported model schema {schema!r}")
    try:
        cfg = payload["config"]
        config = RpeConfig(B=cfg["B"], d=cfg["d"],
                           family=ProjectionFamily(cfg["family"]),
                           master_seed=cfg["master_seed"], ridge=cfg["ridge"],
                           max_regen_retries=cfg["max_regen_retries"])
        labels = tuple(payload["class_labels"])
        members = payload["members"]
        if not members or len(members) != config.B:
            raise ModelFormatError(
                f"model file has {len(members)} members, config B = {config.B}")
        if len(labels) < 2:
            raise ModelFormatError(f"model file has classes {labels}, need 2 or more")
        matrices = tuple(_matrix_from_dict(m["matrix"]) for m in members)
        priors, means, lower, log_det = _class_arrays(
            [m["model"]["classes"] for m in members], labels, config.d)
        model = RpeModel(config=config, p=payload["p"], class_labels=labels, priors=priors,
                         members=MemberStack(matrices, means, lower, log_det))
    except KeyError as exc:
        raise ModelFormatError(f"model file lacks key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model file ({exc})") from exc
    _check_model(model)
    return model


def _class_arrays(classes, labels, d):
    """The priors (J,) and the stacked means (B, J, d), factors
    (B, J, d, d) and log-determinants (B, J) of every member's class
    entries, checking that each member lists the model's classes with
    member 1's priors (and their logarithms) and d-dimensional fields, all
    finite."""
    priors = [c["prior"] for c in classes[0]]
    shared = [(prior, math.log(prior)) for prior in priors]
    means, lower, log_det = [], [], []
    for b, member in enumerate(classes, start=1):
        found = tuple(c["label"] for c in member)
        if found != labels:
            raise ModelFormatError(f"member {b}: classes {found} differ from {labels}")
        if [(c["prior"], c["log_prior"]) for c in member] != shared:
            raise ModelFormatError(
                f"member {b}: class (prior, log_prior) pairs differ from {shared}")
        for c in member:
            means.append(np.asarray(c["mean"], dtype=np.float64))
            lower.append(np.asarray(c["cov_lower"], dtype=np.float64))
            log_det.append(float(c["log_det"]))
            if means[-1].shape != (d,) or lower[-1].shape != (d, d):
                raise ModelFormatError(
                    f"member {b}, class {c['label']!r}: mean or factor is not of dimension {d}")
            if not (np.isfinite(means[-1]).all() and np.isfinite(lower[-1]).all()
                    and math.isfinite(log_det[-1]) and math.isfinite(c["prior"])):
                raise ModelFormatError(f"member {b}, class {c['label']!r}: "
                                       f"prior, mean, factor or log_det is not finite")
    shape = (len(classes), len(labels))
    return (np.array(priors, dtype=np.float64), np.stack(means).reshape(shape + (d,)),
            np.stack(lower).reshape(shape + (d, d)), np.array(log_det).reshape(shape))


def _check_model(model: RpeModel) -> None:
    """Check that every member's matrix is a d x p matrix of the model's
    family, stored as that family stores it (finite entries or triplets),
    and that every class factor is lower triangular with a positive
    diagonal and has the stored log-determinant (checked on the stacked
    (B, J, d, d) factors)."""
    d, p, family = model.config.d, model.p, model.config.family
    dense = family is ProjectionFamily.STANDARD_NORMAL
    for b, matrix in enumerate(model.members.matrices, start=1):
        if matrix.family is not family or (matrix.entries is not None) != dense:
            raise ModelFormatError(
                f"member {b}: {matrix.family.value!r} matrix stored as "
                f"{'triplets' if matrix.entries is None else 'entries'}, model needs "
                f"{family.value!r} stored as {'entries' if dense else 'triplets'}")
        shape = matrix.entries.shape if dense else (matrix.d, matrix.p)
        if (matrix.d, matrix.p) != (d, p) or shape != (d, p):
            raise ModelFormatError(
                f"member {b}: matrix is {shape[0]} x {shape[1]}, model is {d} x {p}")
        if dense and not np.isfinite(matrix.entries).all():
            raise ModelFormatError(f"member {b}: matrix entries are not all finite")
        if not dense and not _triplets_fit(matrix):
            raise ModelFormatError(f"member {b}: sparse triplets do not fit {d} x {p}")
    lower = model.members.lower
    valid = (~np.triu(lower, 1).any(axis=(2, 3))
             & (np.diagonal(lower, axis1=2, axis2=3) > 0).all(axis=2))
    if not valid.all():
        b, j = np.unravel_index(int(np.argmin(valid)), valid.shape)
        raise ModelFormatError(
            f"member {b + 1}, class {model.class_labels[j]!r}: covariance factor is "
            f"not lower triangular with a positive diagonal")
    # the fit stores exactly this value, and scoring reads the stored one
    matches = model.members.log_det == factor_log_det(lower)
    if not matches.all():
        b, j = np.unravel_index(int(np.argmin(matches)), matches.shape)
        raise ModelFormatError(
            f"member {b + 1}, class {model.class_labels[j]!r}: log_det "
            f"{model.members.log_det[b, j]!r} is not 2*sum(log(diag)) of its factor")


def _triplets_fit(matrix: ProjectionMatrix) -> bool:
    rows, cols = matrix.rows, matrix.cols
    return (rows.shape == cols.shape == matrix.signs.shape
            and bool(((0 <= rows) & (rows < matrix.d)).all())
            and bool(((0 <= cols) & (cols < matrix.p)).all()))


def save_model(model: RpeModel, path, compact: bool = False,
               run_config: dict | None = None) -> None:
    write_json(model_to_dict(model, compact=compact, run_config=run_config), path)


def load_model(path) -> RpeModel:
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:
            raise ModelFormatError(f"{path} is not a JSON model file ({exc})") from exc
    return model_from_dict(payload)


def report_to_dict(report, run_config: dict | None = None,
                   include_timing: bool = True) -> dict:
    """Wrap an EvalReport (or any to_dict-able result) as a report file."""
    body = report.to_dict(include_timing=include_timing)
    out = {"schema": REPORT_SCHEMA, "tool": tool_version()}
    if run_config is not None:
        out["run_config"] = dict(run_config)
    out.update(body)
    return out


def format_table_cell(mean: float, sd: float) -> str:
    return f"{mean:.2f} ({sd:.2f})"


def benchmark_table_csv(rows: dict, p_values) -> str:
    """Paper-layout table: one row per method/config label, one column per
    p, cell = "mean (sd)"; extra scalar rows (KL conventions) print bare
    values."""
    p_values = list(p_values)
    lines = ["method," + ",".join(str(p) for p in p_values)]
    for label, by_p in rows.items():
        cells = []
        for p in p_values:
            value = by_p.get(p)
            if value is None:
                cells.append("")
            elif isinstance(value, tuple):
                cells.append(format_table_cell(*value))
            else:
                cells.append(f"{value:.2f}")
        lines.append(label + "," + ",".join(cells))
    return "\n".join(lines) + "\n"
