"""CSV ingestion and export.

Grammar: UTF-8, comma-separated, optional single header line, label in one
designated column (first by default), all remaining columns decimal
floats.  Lines starting with ``#`` are provenance comments and are skipped
on ingestion (exports use one to embed the tool version and run
configuration), as are blank lines.  Every data line must have the same
number of fields as the first, and a labeled file needs at least one
feature column.

Quotes are not special: a field ends at the next comma, so a quoted
numeric cell is a parse error and a quoted label keeps its quotes.  A
feature cell is an ASCII decimal float (optional sign, digits, point,
exponent, or ``nan``/``inf`` spellings) with optional surrounding
whitespace; digit-group underscores (``1_0``) and non-ASCII digits are
parse errors.  Blank or non-finite feature cells are rejected as missing
values.

Errors carry 1-based physical line and column numbers (comments, blank
lines and the header count toward line numbers).  When a file holds
several errors the first offending line wins; within a line a byte that
is not UTF-8 is checked first, then the width, then the label, then the
cells from left to right.

Ingest reads the file once, as text in which each byte that is not UTF-8
becomes one lone surrogate, so a pipe works; only a line that is not
ASCII is encoded again, to find such a byte.  It holds one block of text
(``_BLOCK_CHARS``, 2 MiB) and its converted rows, plus the (n, p) feature
array, into whose rows each block is written.  The array is allocated
once, for the file's size in bytes at the first block's characters per
line; a file whose later lines are shorter grows it in place.
"""

import math
import os

import numpy as np

from .dataset import Dataset
from .errors import EmptyInput, InconsistentWidth, MissingValue, ParseError

# Characters of data lines per np.loadtxt call.
_BLOCK_CHARS = 1 << 21


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
    ``label_col`` is None) of a CSV file, read in one pass.

    Each byte that is not UTF-8 decodes to one lone surrogate
    (``surrogateescape``), which ``_parse`` raises as the ``ParseError`` of
    its line and column, unless a line before it holds an error.
    """
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as handle:
        return _parse(handle, os.fstat(handle.fileno()).st_size, label_col,
                      has_header, path)


def _parse(lines_in, size, label_col, has_header, path):
    """``_read`` of the text lines ``lines_in``, a file of about ``size``
    bytes.

    One pass over the lines places a byte that is not UTF-8, skips
    comments, blank lines and the header, checks widths and takes the
    labels; it stops at the first such byte, width or label error.  Whenever the data lines held back reach ``_BLOCK_CHARS``
    characters, and once more for the rest, their feature cells are
    converted by one ``np.loadtxt`` call, which rounds exactly like
    ``float``, straight into their rows of one (rows, p) array.
    """
    features = usecols = width = stop = None
    line_nos, block, labels = [], [], []
    chars = done = 0
    header_pending = has_header
    for line_no, raw in enumerate(lines_in, start=1):
        if not raw.isascii():
            # only a byte that was not UTF-8, now a lone surrogate, fails
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError as exc:
                col_no = raw.count(",", 0, exc.start) + 1
                stop = ParseError(line_no, col_no, f"line {line_no}, column {col_no}: byte "
                                  f"0x{ord(raw[exc.start]) - 0xDC00:02x} is not UTF-8")
                break
        if raw.startswith("#") or raw.isspace():
            continue
        if header_pending:
            header_pending = False
            continue
        fields = raw.count(",") + 1
        if width is None:
            width = fields
            if label_col is not None and label_col < 0:
                stop = ParseError(line_no, None,
                                  f"line {line_no}: no label column {label_col} (0-based)")
                break
            if label_col is not None and label_col >= width:
                stop = ParseError(line_no, label_col + 1,
                                  f"line {line_no}: no label column {label_col + 1}")
                break
            if label_col is not None and width == 1:
                stop = ParseError(line_no, None, f"line {line_no}: no feature columns")
                break
            usecols = [j for j in range(width) if j != label_col]
        elif fields != width:
            stop = InconsistentWidth(line_no)
            break
        if label_col is not None:
            label = raw.split(",", label_col + 1)[label_col].strip()
            if label == "":
                stop = MissingValue(line_no, label_col + 1,
                                    f"blank label at line {line_no}")
                break
            labels.append(label)
        line_nos.append(line_no)
        block.append(raw)
        chars += len(raw)
        if chars >= _BLOCK_CHARS:
            features, done = _fill(features, done, block, chars, size, line_nos,
                                   usecols, label_col, path)
            line_nos, block, chars = [], [], 0
    if block:
        features, done = _fill(features, done, block, chars, size, line_nos, usecols,
                               label_col, path)
    if stop is not None:
        raise stop
    if not done:
        raise EmptyInput(f"no data rows in {path}")
    # gives back the rows estimated past the last; no view of the array exists
    features.resize((done, len(usecols)), refcheck=False)
    return features, labels


def _fill(features, done, block, chars, size, line_nos, usecols, label_col, path):
    """Convert the feature cells of the text lines ``block`` (``chars``
    characters) into the rows of ``features`` from ``done`` on; return the
    array and the rows filled.

    The first block allocates the array for the ``size`` bytes of the file
    at its characters per line, plus one row in 64 and one more, because
    later lines may be a little shorter; the end of ``_parse`` trims what
    is left over.  When a later block does not fit, the array grows in
    place by a quarter.
    """
    end = done + len(block)
    if features is None:
        rows = size * len(block) // chars
        features = np.empty((max(end, rows + rows // 64 + 1), len(usecols)))
    elif end > len(features):
        features.resize((max(end, len(features) * 5 // 4), len(usecols)), refcheck=False)
    try:
        features[done:end] = np.loadtxt(block, dtype=np.float64, delimiter=",",
                                        comments=None, quotechar=None,
                                        usecols=usecols, ndmin=2)
    except ValueError as exc:
        # The cell scan accepts exactly the cells np.loadtxt accepts, so
        # it finds the error; the fallback only keeps the error typed.
        raise _first_cell_error(line_nos, block, label_col) or ParseError(
            None, None, f"unreadable data in {path}: {exc}") from None
    finite = np.isfinite(features[done:end])
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)), finite.shape[1])
        raise _non_finite(line_nos[row], usecols[col] + 1)
    return features, end


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


def export_csv(dataset: Dataset, path, meta: str = "") -> None:
    """Write a Dataset in the ingestion grammar (label first, 17
    significant digits so a round trip reproduces the floats exactly)."""
    row_format = ",".join(["%.17g"] * dataset.p)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        if meta:
            handle.write(f"# {meta}\n")
        names = ",".join(f"f{j + 1}" for j in range(dataset.p))
        handle.write(f"label,{names}\n")
        for label, row in zip(dataset.labels, dataset.features):
            handle.write(f"{label},{row_format % tuple(row)}\n")
