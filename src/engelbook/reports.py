"""Reproducible report documents: JSON, CSV portraits, SVG sketches.

Every document embeds the tool version, the full configuration (including
the random seed and tolerance settings), and the orientation conventions,
so that two runs with the same configuration produce byte-identical output.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from . import TOLERANCE_DEFAULTS, __version__
from .foliation import DiskContactForm, _disk_grid

if TYPE_CHECKING:
    from .models import PipelineReport
    from .verify import CheckReport

__all__ = [
    "CONVENTIONS",
    "TOLERANCE_DEFAULTS",
    "construct_document",
    "json_document",
    "portrait_rows",
    "render_csv",
    "render_json",
    "render_svg",
]

CONVENTIONS = {
    "orientation": "coordinate order as listed on each chart, right-handed",
    "twist_sign": "counterclockwise rotation against the frame counts +1",
    "angle_period": 2.0 * math.pi,
}


def json_document(
    config: dict,
    checks: Sequence[CheckReport],
    invariants: dict | None = None,
    singularities: dict | None = None,
    overall_pass: bool | None = None,
) -> dict:
    """Assemble the full report schema from its parts."""
    sing = dict(singularities or {})
    if "euler_identity" in sing:
        sing["euler_identity"] = bool(sing["euler_identity"])
    if overall_pass is None:
        overall_pass = all(c.passed for c in checks)
    return {
        "tool_version": __version__,
        "config": dict(config),
        "conventions": dict(CONVENTIONS),
        "checks": [c.to_dict() for c in checks],
        "invariants": dict(invariants or {}),
        "singularities": sing,
        "overall_pass": bool(overall_pass),
    }


def construct_document(report: PipelineReport, config: dict) -> dict:
    merged = dict(config)
    merged.update(report.params)
    return json_document(
        merged,
        report.checks,
        invariants=report.invariants,
        singularities=report.singularities,
        overall_pass=report.overall_pass,
    )


# the repr of each non-finite float, and the string strict JSON parsers accept for it
_NON_FINITE = {"nan": '"NaN"', "inf": '"Infinity"', "-inf": '"-Infinity"'}


def _write_json(value, indent: str, put) -> None:
    """Append the JSON text of ``value`` through ``put``.  ``indent`` is a
    newline and the indent of ``value``'s level; each nested level adds two
    spaces."""
    if isinstance(value, str):
        put(_quote(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        put(_NON_FINITE.get(text, text))
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            put(sep)
            put(_quote(key))  # raises TypeError on a key that is not a str
            put(": ")
            _write_json(value[key], inner, put)
            sep = "," + inner
        put(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _write_json(item, inner, put)
            sep = "," + inner
        put(indent + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_json(document: dict) -> str:
    """``document`` as JSON text: keys sorted, two spaces of indent a level,
    strings ASCII-escaped, floats by ``repr``, each non-finite float as the
    string "NaN", "Infinity" or "-Infinity", and a closing newline.  A key
    that is not a str, or a value of no JSON type, raises ``TypeError``."""
    out: list[str] = []
    _write_json(document, "\n", out.append)
    out.append("\n")
    return "".join(out)


# -- foliation portraits -------------------------------------------------------


def _round12(x: np.ndarray) -> np.ndarray:
    """``round(v, 12)`` of every entry of ``x``, bit for bit.

    ``round(v, 12)`` is the float nearest m / 10**12, m the integer nearest
    the exact v * 10**12 (ties to even).  With y = fl(v * 1e12), which lies
    within half an ulp of that product, ``np.rint(y) / 1e12`` is the float
    nearest rint(y) / 10**12, and rint(y) = m unless y lies within rounding
    of a half-integer.  Those entries, and the ones with |y| >= 2**52
    (where y - floor(y) may not be exact) or y not finite, take Python's
    ``round`` instead.  The guard reads ``np.spacing(abs(y))``: the spacing
    of a negative y is negative.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * 1e12
        out = np.rint(y) / 1e12
        size = np.abs(y)
        near_half = np.abs(np.abs(y - np.floor(y)) - 0.5) <= 2.0 * np.spacing(size)
        fallback = (near_half | ~(size < 2.0**52)).nonzero()
    out[fallback] = [round(v, 12) for v in x[fallback].tolist()]
    return out


def portrait_rows(disk: DiskContactForm, grid_n: int = 41) -> list[tuple]:
    """Sampled direction field of the page foliation on the unit disk.

    Rows are (u, v, direction_u, direction_v, singular_flag) in row-major
    order; directions are unit vectors, zero where the field vanishes.  The
    four float columns are rounded as ``round(x, 12)`` would round them, in
    one vectorised pass (``_round12``).
    """
    pts = _disk_grid(0.98, grid_n)
    vec = disk.classifier.value(pts)
    norm = np.linalg.norm(vec, axis=-1)
    singular = norm < 1e-8
    safe = np.maximum(norm, 1e-30)
    unit = vec / safe[:, None]
    unit[singular] = 0.0
    cols = _round12(np.concatenate([pts, unit], axis=1))
    return [
        (u, v, du, dv, flag)
        for (u, v, du, dv), flag in zip(cols.tolist(), singular.astype(int).tolist())
    ]


def render_csv(rows: Iterable[tuple]) -> str:
    """The rows of ``portrait_rows`` as CSV: floats by ``repr``, as
    ``csv.writer`` writes them, and no field needs quoting.  Each distinct
    u and v grid value is formatted once; a zero where it stands, as 0.0
    and -0.0 are one dict key but two reprs."""
    u, v, du, dv, flag = tuple(zip(*rows)) or ((),) * 5
    text = {x: repr(x) for x in {*u, *v} if x}
    u, v = ([text[x] if x else repr(x) for x in col] for col in (u, v))
    cells = zip(u, v, map(repr, du), map(repr, dv), ["%d\n" % f for f in flag])
    return "u,v,direction_u,direction_v,singular_flag\n" + "".join(map(",".join, cells))


def render_svg(disk: DiskContactForm, grid_n: int = 25) -> str:
    """Self-contained portrait sketch: direction ticks plus marked zeros."""
    size = 640.0
    scale = size / 2.2

    def sx(u: float) -> float:
        return size / 2.0 + scale * u

    def sy(v: float) -> float:
        return size / 2.0 - scale * v

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
        f'<circle cx="{size / 2:.1f}" cy="{size / 2:.1f}" r="{scale:.1f}" '
        'fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    half = 0.45 * (1.96 / max(grid_n - 1, 1))
    for u, v, du, dv, flag in portrait_rows(disk, grid_n):
        if flag:
            continue
        x0, y0 = sx(u - half * du), sy(v - half * dv)
        x1, y1 = sx(u + half * du), sy(v + half * dv)
        lines.append(
            f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
            'stroke="#3060c0" stroke-width="1"/>'
        )
    for zero in disk.singularities.zeros:
        color = "#c03030" if zero["type"] == "hyperbolic" else "#208040"
        lines.append(
            f'<circle cx="{sx(zero["p"]):.2f}" cy="{sy(zero["q"]):.2f}" r="5" '
            f'fill="{color}" stroke="black" stroke-width="1"/>'
        )
    lines.append(
        f'<text x="10" y="{size - 12:.0f}" font-family="monospace" font-size="14">'
        f"k = {disk.k}, zeros = {len(disk.singularities.zeros)}</text>"
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
