"""Reproducible report documents: JSON, CSV portraits, SVG sketches.

Every document embeds the tool version, the full configuration (including
the random seed and tolerance settings), and the orientation conventions,
so that two runs with the same configuration produce byte-identical output.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
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
    cols = _round12(np.concatenate([pts.T, unit.T]))
    return list(zip(*cols.tolist(), singular.astype(int).tolist()))


_CSV_HEADER = "u,v,direction_u,direction_v,singular_flag\n"


def _digits(width: int) -> np.ndarray:
    """The ``width`` ASCII decimal digits of each of 0, ..., 10**width - 1,
    a row each, the most significant first."""
    return np.indices((10,) * width, np.uint8).reshape(width, -1).T + np.uint8(ord("0"))


def _last_place(digits: np.ndarray, first: int) -> np.ndarray:
    """The place of each row's last digit that is not "0", the row's first
    digit being at place ``first``; 0 for a row of zeros."""
    places = np.arange(first, first + digits.shape[1], dtype=np.uint8)
    return np.where(digits != ord("0"), places, np.uint8(0)).max(axis=1)


@functools.cache
def _cell_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables ``render_csv`` writes a short cell from, built on its
    first call, so that commands that write no CSV do not build them.

    A short cell, the text of m / 10**12 for an integer 0 <= m <= 10**12,
    is written in 16 bytes, four 4-byte words: a "-", the integer digit,
    the point and fraction digit 1; fraction digits 2-5; digits 6-9; digits
    10-12 and the comma.  Word 0 is row m // 10**11 of the word table (row
    10, with integer digit 1, is m = 10**12), words 1 and 2 are row 11 on
    by the value of their digits, and word 3 is row 10011 on.  Returns the
    word table, each row's four bytes as one uint32; the fraction place (1
    to 12) of each row's last digit that is not "0", 0 if none, with the
    rows of word 2 from 11011 on; and the masks of the bytes that stay, in
    four uint32 words, row 13 * sign bit + fraction digits kept.
    """
    fours, threes = _digits(4), _digits(3)
    word0 = np.empty((11, 4), np.uint8)
    word0[:, 0], word0[:, 2] = ord("-"), ord(".")
    word0[:, 1::2] = _digits(2)[:11]
    word3 = np.empty((1000, 4), np.uint8)
    word3[:, :3], word3[:, 3] = threes, ord(",")
    words = np.concatenate([word0, fours, word3])
    last = (_last_place(word0[:, 3:], 1), _last_place(fours, 2), _last_place(threes, 10), _last_place(fours, 6))
    keep = np.zeros((2, 13, 16), np.uint8)
    keep[1, :, 0] = 0xFF
    keep[..., 1:3] = 0xFF
    keep[..., 3:15] = np.tri(13, 12, -1, np.uint8) * 0xFF  # fraction place <= digits kept
    keep[..., 15] = 0xFF
    return words.view(np.uint32).ravel(), np.concatenate(last), keep.view(np.uint32).reshape(26, 4)


_WORD_BASES = np.array([0, 11, 11, 10011])[:, None]  # each word's first row
_LAST_SHIFTS = np.array([0, 0, 11000, 0])[:, None]  # from each word's row to its place
_ROW = struct.Struct("5d")
_FLAG_WORDS = np.frombuffer(b"0\n\0\0" b"1\n\0\0", np.uint32)  # a flag and its newline


def _twelve_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m = rint(|x| * 1e12) of each float of ``x``, and whether x's cell is
    short (``render_csv``), with m set to 0 where it is not."""
    size = np.abs(x)
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.rint(size * 1e12)
        short = (m / 1e12 == size) & (size <= 1.0) & ((size >= 1e-4) | (size == 0.0))
    m[~short] = 0.0
    return m, short


def _short_cells(m: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The short cells of one column, from its m (``_twelve_digits``) and
    sign bits: the four words of each cell's text, of shape (n, 4), with
    NUL bytes where the text is shorter."""
    rows_at = np.empty((4, len(m)), np.intp)  # take would copy narrower indices to intp
    for word, scale in enumerate((1e11, 1e7, 1e3)):
        digits = np.floor(m / scale)
        m = m - digits * scale
        rows_at[word] = digits
    rows_at[3] = m
    rows_at += _WORD_BASES
    words, last, masks = _cell_tables()
    kept = np.maximum(last.take(rows_at + _LAST_SHIFTS).max(axis=0), 1)
    return words.take(rows_at).T & masks.take(kept + negative * np.uint8(13), axis=0)


def _row_buffer(rows: Iterable[tuple]) -> np.ndarray:
    """The rows of ``render_csv``'s text after the header, a row of bytes
    each, padded with NUL bytes."""
    cols = np.frombuffer(b"".join(itertools.starmap(_ROW.pack, rows))).reshape(-1, 5)
    x, flags = cols[:, :4], cols[:, 4]
    if not ((flags == 0.0) | (flags == 1.0)).all():
        raise ValueError("singular_flag must be 0 or 1")
    m, short = _twelve_digits(x)
    long = (~short).nonzero()
    texts = [repr(t).encode() + b"," for t in x[long].tolist()]
    # each row: four cells, all as wide as the widest in whole words, then
    # the flag's word
    width = max([16, *map(len, texts)]) + 3 & ~3
    buf = np.zeros((len(x), 4 * width + 4), np.uint8)
    row_words = buf.view(np.uint32)
    cells = row_words[:, :-1].reshape(len(x), 4, width // 4)
    negative = np.signbit(x)
    for col in range(4):  # a column at a time keeps the temporaries small
        cells[:, col, :4] = _short_cells(m[:, col], negative[:, col])
    cells[long] = 0
    row_words[:, -1] = _FLAG_WORDS.take((flags == 1.0).view(np.uint8))
    for row, col, text in zip(*long, texts):
        buf[row, col * width : col * width + len(text)] = np.frombuffer(text, np.uint8)
    return buf


def render_csv(rows: Iterable[tuple]) -> str:
    """The rows of ``portrait_rows`` as CSV, as ``csv.writer`` writes them:
    the four float columns by ``repr`` of each value as a float, and
    ``singular_flag``, which must be 0 or 1 (a ``ValueError`` otherwise), as
    its digit.  No field needs quoting.  A value that is not a real number
    raises ``struct.error``.

    Most cells are written by numpy from the cell tables, a column at a
    time, into one buffer that is decoded once.  For a float x let m =
    rint(|x| * 1e12), in floats.  The cell of x is short when m / 1e12 ==
    |x| and either 1e-4 <= |x| <= 1 or x == 0.  It is then D, the decimal
    m / 10**12, with its trailing zeros dropped but one fraction digit
    kept, after a "-" where x's sign bit is set.  That is
    ``repr(x)``, since ``repr(-y)`` is "-" + ``repr(y)`` and:

    - m <= 10**12 < 2**53 is an integer, so m and 1e12 are exact, and
      m / 1e12 is the float nearest D.  So D converts back to |x|.
    - ``repr`` writes the shortest decimal that converts back to x (Steele
      and White, PLDI 1990; Gay, 1990).  Every such decimal lies in the
      interval of reals that round to x, which is at most an ulp wide, and
      an ulp of |x| <= 1 is at most 2**-52 < 10**-12.  So D is the only one
      with at most 12 fraction digits.  Any other has more fraction digits
      and so more significant digits than D, unless a power of ten lies
      between the two; that power, at least 10**-4, would be a decimal of
      at most 12 fraction digits that converts back to x, so it is D.
    - ``repr`` writes fixed notation for 10**-4 <= |D| < 10**16.  If x != 0
      then |x| >= 1e-4 > 10**-4, and |D| < 10**-4 would put 10**-4 between
      D and x, so 10**-4 would convert back to x and be D.  For x == 0,
      m = 0 and D is 0.0 or -0.0.

    Every other cell, such as NaN, an infinity, |x| > 1, 0 < |x| < 1e-4 or a
    float that is no 12-digit decimal, is ``repr(x)``.
    """
    return _CSV_HEADER + _row_buffer(rows).tobytes().translate(None, b"\0").decode("ascii")


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
