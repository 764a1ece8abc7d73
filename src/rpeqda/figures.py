"""Minimal SVG emission for the two diagnostic figures.

SVG output is a convenience; the CSV artifacts written next to each figure
are the contract.  The heatmap uses a documented linear color ramp from
blue (minimum finite value) through white to red (maximum), with grey for
undefined cells (the zero diagonal of the pairwise bound matrix).
"""

import math

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f")


def _ramp(value, vmin, vmax):
    if vmax <= vmin:
        frac = 0.5
    else:
        frac = (value - vmin) / (vmax - vmin)
    frac = min(max(frac, 0.0), 1.0)
    # blue -> white -> red
    if frac < 0.5:
        t = frac / 0.5
        r, g, b = int(31 + t * (255 - 31)), int(119 + t * (255 - 119)), 255
    else:
        t = (frac - 0.5) / 0.5
        r, g, b = 255, int(255 - t * (255 - 39)), int(255 - t * (255 - 40))
    return f"#{r:02x}{g:02x}{b:02x}"


def _write_svg(path, width, height, margin, title, comment, body) -> None:
    """Write one SVG document: the open tag, ``comment`` as an XML comment,
    ``title`` at the top left (at x = ``margin``), the ``body`` elements,
    and the close tag, one element a line, with LF line ends."""
    head = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" font-family="sans-serif" font-size="12">',
            f"<!-- {comment} -->",
            f'<text x="{margin}" y="20" font-size="14">{title}</text>']
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(head + body + ["</svg>"]) + "\n")


def svg_heatmap(values, labels, path, title, comment) -> None:
    """Write a J x J annotated heatmap; non-finite cells render grey."""
    values = np.asarray(values, dtype=np.float64)
    j = values.shape[0]
    cell = 80
    margin = 70
    size = margin + j * cell + 20
    finite = values[np.isfinite(values)]
    vmin = float(finite.min()) if finite.size else 0.0
    vmax = float(finite.max()) if finite.size else 1.0
    parts = []
    for row in range(j):
        y = margin + row * cell
        parts.append(f'<text x="{margin - 8}" y="{y + cell / 2 + 4}" '
                     f'text-anchor="end">{labels[row]}</text>')
        parts.append(f'<text x="{margin + row * cell + cell / 2}" '
                     f'y="{margin - 8}" text-anchor="middle">{labels[row]}</text>')
        for col in range(j):
            x = margin + col * cell
            v = values[row, col]
            if math.isfinite(v):
                fill = _ramp(v, vmin, vmax)
                text = f"{v:.2f}"
            else:
                fill, text = "#cccccc", ""
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                         f'fill="{fill}" stroke="#444"/>')
            if text:
                parts.append(f'<text x="{x + cell / 2}" y="{y + cell / 2 + 4}" '
                             f'text-anchor="middle">{text}</text>')
    _write_svg(path, size, size + 30, margin, title, comment, parts)


def svg_scatter(points, point_labels, class_order, grid_cells, path,
                title, comment) -> None:
    """Projected 2-d scatter over a predicted-class background grid.

    ``grid_cells`` is a list of (x, y, predicted label); each cell is drawn
    as a translucent rect in its class color under the data points.
    """
    points = np.asarray(points, dtype=np.float64)
    width = height = 480
    margin = 40
    xs, ys = points[:, 0], points[:, 1]
    gx = [c[0] for c in grid_cells]
    gy = [c[1] for c in grid_cells]
    xmin, xmax = min(xs.min(), *gx), max(xs.max(), *gx)
    ymin, ymax = min(ys.min(), *gy), max(ys.max(), *gy)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0

    def sx(x):
        return margin + (x - xmin) / xspan * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - ymin) / yspan * (height - 2 * margin)

    color = {label: _PALETTE[i % len(_PALETTE)]
             for i, label in enumerate(class_order)}
    n_side = max(int(math.sqrt(len(grid_cells))), 1)
    cell_w = (width - 2 * margin) / max(n_side - 1, 1)
    cell_h = (height - 2 * margin) / max(n_side - 1, 1)
    parts = []
    for x, y, pred in grid_cells:
        parts.append(
            f'<rect x="{sx(x) - cell_w / 2:.1f}" y="{sy(y) - cell_h / 2:.1f}" '
            f'width="{cell_w:.1f}" height="{cell_h:.1f}" '
            f'fill="{color[pred]}" fill-opacity="0.15"/>')
    for (x, y), label in zip(points, point_labels):
        parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4" '
                     f'fill="{color[label]}" stroke="#222"/>')
    for i, label in enumerate(class_order):
        parts.append(f'<circle cx="{width - 120}" cy="{20 + 16 * i}" r="5" '
                     f'fill="{color[label]}"/>')
        parts.append(f'<text x="{width - 108}" y="{24 + 16 * i}">{label}</text>')
    _write_svg(path, width, height, margin, title, comment, parts)
