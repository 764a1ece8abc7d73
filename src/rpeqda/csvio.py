"""CSV ingestion and export.

Grammar: UTF-8, comma-separated, optional single header line, label in one
designated column (first by default), all remaining columns decimal
floats.  Lines starting with ``#`` are provenance comments and are skipped
on ingestion (exports use one to embed the tool version and run
configuration), as are blank lines.  Every data line must have the same
number of fields as the first.

Quotes are not special: a field ends at the next comma, so a quoted
numeric cell is a parse error and a quoted label keeps its quotes.  A
feature cell is an ASCII decimal float (optional sign, digits, point,
exponent, or ``nan``/``inf`` spellings) with optional surrounding
whitespace; digit-group underscores (``1_0``) and non-ASCII digits are
parse errors.  Blank or non-finite feature cells are rejected as missing
values.

Errors carry 1-based physical line and column numbers (comments, blank
lines and the header count toward line numbers).  When a file holds
several errors the first offending line wins; within a line the width is
checked first, then the label, then the cells from left to right.
"""

import io
import math

import numpy as np

from .dataset import Dataset
from .errors import EmptyInput, InconsistentWidth, MissingValue, ParseError


def ingest_csv(path, label_col: int = 0, has_header: bool = True) -> Dataset:
    """Parse a labeled CSV file into a Dataset."""
    features, labels = _read(path, label_col, has_header)
    return Dataset(features, tuple(labels))


def ingest_features_csv(path, has_header: bool = True) -> np.ndarray:
    """Parse an unlabeled CSV of pure feature rows into an (n, p) array."""
    features, _ = _read(path, None, has_header)
    return features


def _read(path, label_col, has_header):
    """Return the (n, p) features and the n labels (empty when
    ``label_col`` is None) of a CSV file.

    A file that is not UTF-8 raises the ``ParseError`` of its first
    undecodable byte, unless a line before that byte holds an error.
    """
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return _parse(handle, label_col, has_header, path)
    except UnicodeDecodeError:
        pass
    error, lines_before = _decode_error(path)
    try:
        _parse(lines_before, label_col, has_header, path)
    except EmptyInput:
        pass
    raise error


def _decode_error(path):
    """The ``ParseError`` of the first byte of ``path`` that is not UTF-8,
    at its physical line and column, and the whole lines before it.  A
    text-mode read decodes in chunks, so its error's offset is not the
    file's; one strict decode of the file's bytes gives that offset."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = list(io.StringIO(data[:exc.start].decode("utf-8"), newline=""))
        partial = lines.pop() if lines and not lines[-1].endswith(("\n", "\r")) else ""
        line_no, col_no = len(lines) + 1, partial.count(",") + 1
        return ParseError(line_no, col_no, f"line {line_no}, column {col_no}: byte "
                                           f"0x{data[exc.start]:02x} is not UTF-8"), lines
    return ParseError(None, None, f"{path} changed while it was read"), []


def _parse(lines_in, label_col, has_header, path):
    """``_read`` of the text lines ``lines_in``.

    One pass over the lines skips comments, blank lines and the header,
    checks widths and takes the labels; it stops at the first width or
    label error.  The feature cells of the lines before it are converted
    by one ``np.loadtxt`` call, which rounds exactly like ``float``.
    """
    line_nos, lines, labels = [], [], []
    width = None
    stop = None
    header_pending = has_header
    for line_no, raw in enumerate(lines_in, start=1):
        if raw.startswith("#") or raw.isspace():
            continue
        if header_pending:
            header_pending = False
            continue
        fields = raw.count(",") + 1
        if width is None:
            width = fields
        elif fields != width:
            stop = InconsistentWidth(line_no)
            break
        if label_col is not None:
            if not 0 <= label_col < width:
                stop = ParseError(line_no, label_col + 1,
                                  f"line {line_no}: no label column {label_col + 1}")
                break
            label = raw.split(",", label_col + 1)[label_col].strip()
            if label == "":
                stop = MissingValue(line_no, label_col + 1,
                                    f"blank label at line {line_no}")
                break
            labels.append(label)
        line_nos.append(line_no)
        lines.append(raw)
    if lines:
        usecols = [j for j in range(width) if j != label_col]
        try:
            features = np.loadtxt(lines, dtype=np.float64, delimiter=",",
                                  comments=None, quotechar=None,
                                  usecols=usecols, ndmin=2)
        except ValueError as exc:
            # The cell scan accepts exactly the cells np.loadtxt accepts, so
            # it finds the error; the fallback only keeps the error typed.
            raise _first_cell_error(line_nos, lines, label_col) or ParseError(
                None, None, f"unreadable data in {path}: {exc}") from None
        finite = np.isfinite(features)
        if not finite.all():
            row, col = divmod(int(np.argmin(finite)), finite.shape[1])
            raise _non_finite(line_nos[row], usecols[col] + 1)
    if stop is not None:
        raise stop
    if not lines:
        raise EmptyInput(f"no data rows in {path}")
    return features, labels


def _first_cell_error(line_nos, lines, label_col):
    """The typed error of the first bad feature cell in file order, found
    cell by cell; runs only after ``np.loadtxt`` has rejected the lines."""
    for line_no, raw in zip(line_nos, lines):
        for col, cell in enumerate(raw.split(",")):
            if col == label_col:
                continue
            cell = cell.strip()
            if cell == "":
                return MissingValue(line_no, col + 1,
                                    f"blank field at line {line_no}, column {col + 1}")
            if not cell.isascii() or "_" in cell:
                return ParseError(line_no, col + 1)
            try:
                value = float(cell)
            except ValueError:
                return ParseError(line_no, col + 1)
            if not math.isfinite(value):
                return _non_finite(line_no, col + 1)
    return None


def _non_finite(line_no, col_no):
    return MissingValue(line_no, col_no,
                        f"non-finite value at line {line_no}, column {col_no}")


def export_csv(dataset: Dataset, path, header: bool = True, meta: str = "") -> None:
    """Write a Dataset in the ingestion grammar (label first, 17
    significant digits so a round trip reproduces the floats exactly)."""
    row_format = ",".join(["%.17g"] * dataset.p)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        if meta:
            handle.write(f"# {meta}\n")
        if header:
            names = ",".join(f"f{j + 1}" for j in range(dataset.p))
            handle.write(f"label,{names}\n")
        for label, row in zip(dataset.labels, dataset.features):
            handle.write(f"{label},{row_format % tuple(row)}\n")
