"""Deterministic JSON/CSV report writing.

Reports must be byte-identical across runs for the same inputs, so floats are
rendered with a fixed 17-significant-digit format instead of the shortest
round-trip repr, and dictionaries keep insertion order (reports are built in
a fixed order by their producers).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InputError


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_render(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        if v == 0.0:
            v = 0.0  # canonicalize signed zero
        return format(v, ".17g")
    if isinstance(obj, complex):
        return _render({"re": obj.real, "im": obj.imag}, indent)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InputError(f"cannot serialize value of type {type(obj).__name__}")


def dumps(obj) -> str:
    """Render a report as deterministic JSON text (trailing newline)."""
    return _render(obj, 0) + "\n"


def write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(obj))


def read_json(path):
    """Parse a JSON input file; decoding errors propagate with position info."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def field_to_csv(grid, values, path, sidecar: dict | None = None) -> None:
    """Write gridded samples as ``re,im,value`` rows plus a JSON sidecar.

    ``values`` is the node-shaped real array; non-finite entries (masked
    nodes) are written with an empty value column so consumers can tell
    "undefined" from 0.
    """
    nodes = grid.nodes
    values = np.asarray(values, dtype=float)
    if values.shape != nodes.shape:
        raise InputError("field values do not match the grid shape")
    finite = np.isfinite(values.ravel())
    template = "".join(
        np.where(finite, "%.17g,%.17g,%.17g\n", "%.17g,%.17g,\n").tolist()
    )
    cells = np.column_stack((nodes.real.ravel(), nodes.imag.ravel(),
                             values.ravel()))
    keep = np.ones(cells.shape, dtype=bool)
    keep[:, 2] = finite
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("re,im,value\n" + template % tuple(cells[keep].tolist()))
    meta = {
        "grid": {
            "n_r": grid.n_r,
            "n_theta": grid.n_theta,
            "r_max": grid.r_max,
            "h": grid.h,
        },
        "rows": int(values.size),
    }
    if sidecar:
        meta.update(sidecar)
    write_json(meta, str(path) + ".json")
