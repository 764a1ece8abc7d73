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
from .linalg import CholeskyFactor
from .qda import GaussianClassModel, QdaModel
from .randproj import ProjectionFamily, ProjectionMatrix, generate
from .rpe import ProjectionMember, RpeConfig, RpeModel

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


def _class_to_dict(c: GaussianClassModel) -> dict:
    return {"label": c.label, "prior": c.prior, "log_prior": c.log_prior,
            "mean": c.mean, "cov_lower": c.cov_factor.lower,
            "log_det": c.cov_factor.log_det}


def _class_from_dict(payload: dict) -> GaussianClassModel:
    return GaussianClassModel(
        label=payload["label"], prior=payload["prior"],
        log_prior=payload["log_prior"],
        mean=np.asarray(payload["mean"], dtype=np.float64),
        cov_factor=CholeskyFactor(
            lower=np.asarray(payload["cov_lower"], dtype=np.float64),
            log_det=payload["log_det"]))


def model_to_dict(model: RpeModel, compact: bool = False,
                  run_config: dict | None = None) -> dict:
    cfg = model.config
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
            {"matrix": _matrix_to_dict(m.matrix, compact),
             "model": {"classes": [_class_to_dict(c) for c in m.model.classes]}}
            for m in model.members],
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
        members = tuple(
            ProjectionMember(
                matrix=_matrix_from_dict(m["matrix"]),
                model=QdaModel(classes=tuple(
                    _class_from_dict(c) for c in m["model"]["classes"])))
            for m in payload["members"])
        model = RpeModel(config=config, p=payload["p"],
                         class_labels=tuple(payload["class_labels"]),
                         members=members)
    except KeyError as exc:
        raise ModelFormatError(f"model file lacks key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model file ({exc})") from exc
    _check_model(model)
    return model


def _check_model(model: RpeModel) -> None:
    """Check that the members agree with the model's B, d, p and classes,
    and that every class factor is d x d lower triangular with a positive
    diagonal (checked on the stacked factors)."""
    d, p = model.config.d, model.p
    if not model.members or len(model.members) != model.config.B:
        raise ModelFormatError(
            f"model file has {len(model.members)} members, config B = {model.config.B}")
    if len(model.class_labels) < 2:
        raise ModelFormatError(f"model file has classes {model.class_labels}, need 2 or more")
    for b, member in enumerate(model.members, start=1):
        matrix = member.matrix
        shape = matrix.entries.shape if matrix.entries is not None else (matrix.d, matrix.p)
        if (matrix.d, matrix.p) != (d, p) or shape != (d, p):
            raise ModelFormatError(
                f"member {b}: matrix is {shape[0]} x {shape[1]}, model is {d} x {p}")
        if matrix.entries is None and not _triplets_fit(matrix):
            raise ModelFormatError(f"member {b}: sparse triplets do not fit {d} x {p}")
        if member.model.labels != model.class_labels:
            raise ModelFormatError(
                f"member {b}: classes {member.model.labels} differ from "
                f"{model.class_labels}")
        for c in member.model.classes:
            if c.mean.shape != (d,) or c.cov_factor.lower.shape != (d, d):
                raise ModelFormatError(
                    f"member {b}, class {c.label!r}: mean or factor is not of dimension {d}")
    lower = np.stack([c.cov_factor.lower
                      for m in model.members for c in m.model.classes])
    valid = (~np.triu(lower, 1).any(axis=(1, 2))
             & (np.diagonal(lower, axis1=1, axis2=2) > 0).all(axis=1))
    if not valid.all():
        b, j = divmod(int(np.argmin(valid)), len(model.class_labels))
        raise ModelFormatError(
            f"member {b + 1}, class {model.class_labels[j]!r}: covariance factor is "
            f"not lower triangular with a positive diagonal")


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
