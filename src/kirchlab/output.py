"""Deterministic artifact emission: CSV, JSON, and tiny self-contained SVG.

All floats are written with Python's repr (shortest round-trip decimal),
so repeated runs of the same config produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

__all__ = ["fmt", "write_csv", "write_json", "write_svg_lines"]


def fmt(value) -> str:
    """Shortest round-trip text for a scalar; numpy scalars are unwrapped."""
    if type(value) is not float and hasattr(value, "item"):  # most cells are Python floats
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows, append=False) -> Path:
    """The header line, then one line per row; with `append`, the rows are
    added to the end of the file instead, without the header."""
    path = Path(path)
    with path.open("a" if append else "w") as f:
        if not append:
            f.write(",".join(header) + "\n")
        f.writelines(",".join(fmt(v) for v in row) + "\n" for row in rows)
    return path


def write_json(path, doc, append=False) -> Path:
    """doc as indented JSON, keys sorted (numbers numerically), numpy values
    as Python ones.  With `append`, doc is a list whose elements are added to
    the non-empty array the file holds: the bytes of writing both as one."""
    def tolist(obj):  # json's own TypeError for anything else
        return obj.tolist() if hasattr(obj, "tolist") else json.JSONEncoder().default(obj)
    path = Path(path)
    text = json.dumps(doc, sort_keys=True, indent=2, default=tolist) + "\n"
    if not append:
        path.write_text(text)
    elif doc:
        with path.open("r+b") as f:
            f.seek(-3, 2)  # the closing "\n]\n"; text[2:] is the elements and its own
            f.write((",\n" + text[2:]).encode())
    return path


def write_svg_lines(path, series, title="") -> Path:
    """Minimal 640 x 400 polyline plot; `series` is {label: (xs, ys)}.
    Diagnostic only — never load-bearing for verdicts."""
    path = Path(path)
    width, height = 640, 400
    curves = {
        label: [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
        for label, (xs, ys) in series.items()
    }
    pts_all = [p for pts in curves.values() for p in pts]
    if not pts_all:
        path.write_text(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"/>\n')
        return path
    xs, ys = zip(*pts_all)
    x0, y0 = min(xs), min(ys)
    dx = (max(xs) - x0) or 1.0
    dy = (max(ys) - y0) or 1.0
    margin = 40

    def sx(x):
        return margin + (x - x0) / dx * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / dy * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for i, (label, pts) in enumerate(curves.items()):
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        color = colors[i % len(colors)]
        parts += [f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>',
                  f'<text x="{margin}" y="{margin + 16 * i}" font-size="12" fill="{color}">'
                  f'{label}</text>']
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path
