"""Canonical JSON serialization and model persistence.

Every JSON artifact this package writes goes through :func:`canonical_json`,
which prints floats with 17 significant digits (bit-faithful float64
round-trips) and preserves key insertion order, so identical in-memory
values always produce byte-identical files.

Model files carry an explicit schema version and come in two storage
modes, named by their ``storage`` key: ``full`` stores each member's
matrix payload alongside its projected model; ``compact`` stores only the
matrix seeds, and loading regenerates the matrices, which the seeded
generation contract guarantees to be bit-exact.  Loading refuses a member
declared or stored unlike the model, naming it, before building a matrix.
"""

import json
import math

import numpy as np

from . import __version__
from .errors import ModelFormatError
from .linalg import factor_log_det
from .randproj import ProjectionFamily, ProjectionMatrix, generate_many
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
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
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
        payload.update(rows=matrix.rows, cols=matrix.cols, signs=matrix.signs)
    return payload


def _matrices_from_dicts(payloads, config: RpeConfig, p: int, compact: bool) -> tuple:
    """The members' matrices.  First every member must declare a d x p
    matrix of the model's family, stored as its seed in a compact file, as
    entries (sn) or triplets (stp) in a full one.  Compact members then
    regenerate through one ``generate_many``; stored sn entries are copied
    into one C-ordered (B, d, p) block, as ``generate_many`` draws them, so
    ``randproj._stacked`` of a loaded sn model is that block, not a copy."""
    family, d = config.family, config.d
    dense = family is ProjectionFamily.STANDARD_NORMAL
    expected = "seed" if compact else "entries" if dense else "triplets"
    for b, m in enumerate(payloads, start=1):
        stored = "entries" if "entries" in m else "triplets" if "rows" in m else "seed"
        if (m["family"], m["d"], m["p"], stored) != (family.value, d, p, expected):
            raise ModelFormatError(
                f"member {b}: {m['family']!r} {m['d']} x {m['p']} matrix stored as {stored}, "
                f"model needs {family.value!r} {d} x {p} stored as {expected}")
    if compact:
        return tuple(generate_many(family, d, p, [m["seed"] for m in payloads]))
    matrices = []
    if dense:
        block = np.empty((len(payloads), d, p))
        for b, m in enumerate(payloads):
            try:
                entries = np.asarray(m["entries"], dtype=np.float64)
            except (TypeError, ValueError):
                raise ModelFormatError(f"member {b + 1}: entries are not {d} x {p} "
                                       f"finite values (ragged or not numbers)") from None
            if entries.shape != (d, p) or not np.isfinite(entries).all():
                raise ModelFormatError(f"member {b + 1}: entries of shape {entries.shape} "
                                       f"are not {d} x {p} finite values")
            block[b] = entries
            matrices.append(ProjectionMatrix(family=family, d=d, p=p, seed=m["seed"],
                                             entries=block[b]))
        return tuple(matrices)
    for b, m in enumerate(payloads, start=1):
        rows, cols, signs = _triplets(m, b, d, p)
        matrices.append(ProjectionMatrix(family=family, d=d, p=p, seed=m["seed"],
                                         rows=rows, cols=cols, signs=signs))
    return tuple(matrices)


def _triplets(m, b, d, p):
    """Member b's stored (rows, cols, signs) as int64, int64 and int8 arrays,
    refused unless they are what ``generate`` writes: three integer lists of
    one length, inside d x p, strictly increasing in row * p + col, with
    signs -1 or +1."""
    triplets = [np.asarray(m[key]) for key in ("rows", "cols", "signs")]
    if not all(t.ndim == 1 and len(t) == len(triplets[0])
               and (t.dtype.kind in "iu" or not len(t)) for t in triplets):
        raise ModelFormatError(f"member {b}: sparse triplets are not three integer "
                               f"lists of one length")
    rows, cols, signs = (t.astype(np.int64) for t in triplets)
    if not (((0 <= rows) & (rows < d) & (0 <= cols) & (cols < p)).all()):
        raise ModelFormatError(f"member {b}: sparse triplets do not fit {d} x {p}")
    if not (np.abs(signs) == 1).all():
        raise ModelFormatError(f"member {b}: sparse signs are not all -1 or +1")
    if not (np.diff(rows * p + cols) > 0).all():
        raise ModelFormatError(f"member {b}: sparse triplets are not strictly increasing "
                               f"in row * p + col")
    return rows, cols, signs.astype(np.int8)


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
        storage = payload["storage"]
        if storage not in ("compact", "full"):
            raise ModelFormatError(
                f"model file storage {storage!r} is neither 'compact' nor 'full'")
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
        matrices = _matrices_from_dicts([m["matrix"] for m in members], config,
                                        payload["p"], storage == "compact")
        priors, means, lower, log_det = _class_arrays(
            [m["model"]["classes"] for m in members], labels, config.d)
        model = RpeModel(config=config, p=payload["p"], class_labels=labels, priors=priors,
                         members=MemberStack(matrices, means, lower, log_det))
    except KeyError as exc:
        raise ModelFormatError(f"model file lacks key {exc}") from exc
    except ModelFormatError:
        raise
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
    """Check that every class factor is lower triangular with a positive
    diagonal and has the stored log-determinant (checked on the stacked
    (B, J, d, d) factors)."""
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


def report_to_dict(report, run_config: dict) -> dict:
    """Wrap an EvalReport as a report file, with its timing block."""
    return {"schema": REPORT_SCHEMA, "tool": tool_version(),
            "run_config": dict(run_config), **report.to_dict()}
