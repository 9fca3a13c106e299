"""Winding invariants along curves.

All winding computations share one angle-unwrapping core: sample a curve,
express the field of interest in a reference 2-frame, accumulate wrapped
angle increments, and divide by a full turn.  Closed loops include the
wrap-around step, so the increments telescope to a whole number of turns
and the fractional residual is float rounding only; it cannot detect
aliasing, where the field turns by half a turn or more between two
samples.  So a path whose samples move the phase of some term of the
field or frame by pi or more from one sample to the next is refused with
``ValueError``; below that per-term bound a sum of terms can still alias.
On an open segment the residual is the distance of the turn count from
the nearest integer.  A field that is zero or not finite at a
sample has no angle there, and neither has one whose frame coordinates are
both 0 there; the winding of either raises ``ValueError``.

The boundary homomorphism delta is two such windings: of the line of each
plane field that both pairing rows kill, computed as an exact field from
the 2x2 pairing matrix (``_null_line``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .charts import Chart, OneForm, VectorField, field_matrix
from .foliation import _turns

__all__ = [
    "DeltaResult",
    "Path",
    "WindingResult",
    "delta_homomorphism",
    "rotation_number",
    "twisting_number",
]

DEFAULT_SAMPLES = 256


@dataclass(frozen=True)
class Path:
    """A parametrized curve in a chart; s runs over [0, 1]."""

    chart: Chart
    fn: Callable[[np.ndarray], np.ndarray]
    closed: bool = True
    label: str = ""

    def sample(self, n: int) -> np.ndarray:
        s = np.linspace(0.0, 1.0, n, endpoint=not self.closed)
        return np.asarray(self.fn(s), float)

    @classmethod
    def coordinate_circle(
        cls,
        chart: Chart,
        name: str,
        base: Mapping[str, float],
        turns: int = 1,
        label: str = "",
    ) -> "Path":
        """A closed loop advancing one angular coordinate, others fixed."""
        i = chart.index(name)
        if not chart.coords[i].is_angular:
            raise ValueError(f"coordinate {name!r} is not angular")
        base_vals = [float(base.get(c.name, 0.0)) for c in chart.coords]

        def fn(s: np.ndarray) -> np.ndarray:
            pts = np.tile(np.array(base_vals), (len(s), 1))
            pts[:, i] += s * turns * math.tau
            return pts

        return cls(chart, fn, closed=True, label=label or f"{name}-circle")

    @classmethod
    def coordinate_segment(
        cls,
        chart: Chart,
        name: str,
        base: Mapping[str, float],
        lo: float,
        hi: float,
        label: str = "",
    ) -> "Path":
        """An open segment advancing one coordinate from lo to hi."""
        i = chart.index(name)
        base_vals = [float(base.get(c.name, 0.0)) for c in chart.coords]

        def fn(s: np.ndarray) -> np.ndarray:
            pts = np.tile(np.array(base_vals), (len(s), 1))
            pts[:, i] = lo + s * (hi - lo)
            return pts

        return cls(chart, fn, closed=False, label=label or f"{name}-segment")


@dataclass(frozen=True)
class WindingResult:
    """An integer winding with its fractional residual and sample count."""

    value: int
    turns: float
    residual: float
    samples: int


def _project_onto_frame(
    xvals: np.ndarray, c1vals: np.ndarray, c2vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least squares coordinates of X in the 2-frame (C1, C2) per sample.

    The Gram matrix G and the right-hand sides are dot products over the
    coordinates, each summed left to right from +0.0, which gives the bits
    of ``einsum("nik,nil->nkl")`` and ``einsum("nik,ni->nk")`` on the
    stacked frame, and, as einsum does, warns of no overflow.
    """

    def dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = 0.0
        for i in range(u.shape[-1]):
            out = out + u[:, i] * v[:, i]
        return out

    G = np.empty((len(xvals), 2, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        G[:, 0, 0] = dot(c1vals, c1vals)
        G[:, 0, 1] = G[:, 1, 0] = dot(c1vals, c2vals)
        G[:, 1, 1] = dot(c2vals, c2vals)
        rhs = np.stack([dot(c1vals, xvals), dot(c2vals, xvals)], axis=-1)
    try:
        coeffs = np.linalg.solve(G, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        coeffs = np.einsum("nkl,nl->nk", np.linalg.pinv(G), rhs)
    return coeffs[:, 0], coeffs[:, 1]


# a phase step of pi, less a margin for the rounding of the sampled points
_ALIAS_STEP = math.pi * (1.0 - 1e-9)


def _refuse_aliasing(fields: Sequence[VectorField], path: Path, pts: np.ndarray) -> None:
    """Raise ``ValueError`` when some term of the fields' components moves its
    phase by pi or more between two consecutive path samples (the wrap-around
    step of a closed path included).  A term's phase step is its frequency
    vector dotted with the sample step; at pi or more the sampled term
    cannot tell its turn direction, so the unwrapped count can be wrong.
    The message names the smallest sample count that clears the bound on a
    path sampled at even steps, as ``Path.coordinate_circle`` and
    ``coordinate_segment`` are.  The bound is necessary, not sufficient."""
    freqs = {t.freqs for f in fields for c in f.components for t in c.terms if any(t.freqs)}
    if not freqs:
        return
    n = len(pts)
    if path.closed:
        pts = np.concatenate([pts, np.asarray(path.fn(np.ones(1)), float)])
    steps = np.diff(pts, axis=0) @ np.array(sorted(freqs), float).T
    step = float(np.abs(steps).max())
    if step >= _ALIAS_STEP:
        # the phase step falls as 1 / (number of steps) on an evenly sampled path
        wanted = math.floor(len(steps) * step / _ALIAS_STEP) + 1 + (not path.closed)
        raise ValueError(
            f"{n} path samples alias the field: a term moves its phase by {step:.6g} >= pi "
            f"between two samples; use at least {wanted} samples"
        )


def _winding(
    field: VectorField,
    frame: Sequence[VectorField],
    path: Path,
    n_samples: int,
) -> WindingResult:
    pts = path.sample(n_samples)
    _refuse_aliasing([field, *frame], path, pts)
    mats = field_matrix([field, *frame], pts)
    x = mats[:, 0]
    # a zero or non-finite sample has no direction to count the turns of
    if not (np.isfinite(x).all() and (x != 0.0).any(axis=-1).all()):
        raise ValueError("the field is zero or not finite at a path sample")
    a, b = _project_onto_frame(x, mats[:, 1], mats[:, 2])
    # a field normal to the frame plane projects to (0, 0), where arctan2 reads 0
    if not ((a != 0.0) | (b != 0.0)).all():
        raise ValueError("the frame cannot see the field at a path sample: both coordinates are 0")
    turns = _turns(a, b, path.closed)
    value = int(round(turns))
    return WindingResult(value, turns, abs(turns - value), n_samples)


def twisting_number(
    field: VectorField,
    frame: Sequence[VectorField],
    path: Path,
    n_samples: int = DEFAULT_SAMPLES,
) -> WindingResult:
    """Rotation count of a field against a 2-frame along a curve.

    On a closed loop this is the twisting of the field's direction relative
    to the frame; on an open segment the fractional turn count is rounded,
    so short segments report zero.
    """
    return _winding(field, frame, path, n_samples)


def rotation_number(
    field: VectorField,
    plane_frame: Sequence[VectorField],
    path: Path,
    n_samples: int = DEFAULT_SAMPLES,
) -> WindingResult:
    """Winding of a field inside an oriented plane bundle along a curve.

    The plane frame (C, JC) fixes the orientation and the angle zero; the
    computation is the shared least-squares angle unwrap.
    """
    return _winding(field, plane_frame, path, n_samples)


# -- the boundary homomorphism -------------------------------------------------


@dataclass(frozen=True)
class DeltaResult:
    value: int
    residual: float
    turns_first: float
    turns_second: float
    samples: int


def _null_line(basis: Sequence[VectorField], rows: Sequence[OneForm]) -> VectorField:
    """The line of the plane spanned by ``basis`` that both ``rows`` kill, as an
    exact field.

    With M[r][c] = rows[r](basis[c]) and r the first row that is not the zero
    ``Expr``, the field M[r][1] x1 - M[r][0] x2 is killed by row r, and by the
    other row o exactly when M[o][0] M[r][1] - M[o][1] M[r][0] is the zero
    ``Expr``.  Raises ``ValueError`` when both rows vanish on the plane, or
    when the rows kill no common line.  The field is zero where row r
    vanishes on the plane; ``_winding`` refuses it there.
    """
    x1, x2 = basis
    M = [[row.apply(x) for x in basis] for row in rows]
    nonzero = [r for r, pair in enumerate(M) if any(m.terms for m in pair)]
    if not nonzero:
        raise ValueError("both rows vanish on the plane, so no line is selected")
    (r0, r1), (o0, o1) = M[nonzero[0]], M[1 - nonzero[0]]
    if (o0 * r1 - o1 * r0).terms:
        raise ValueError("the rows kill no common line of the plane")
    comps = tuple(r1 * a - r0 * b for a, b in zip(x1.components, x2.components))
    return VectorField(x1.chart, comps, label="null-line")


def delta_homomorphism(
    d_first: Sequence[VectorField],
    d_second: Sequence[VectorField],
    frame: Sequence[VectorField],
    rows: Sequence[OneForm],
    path: Path,
    n_samples: int = 512,
) -> DeltaResult:
    """Relative rotation of the selected lines of two plane distributions.

    Inside each distribution the line killed by both pairing rows (for
    adapted structures: the reference form and the fibration form) is the
    exact field of ``_null_line``, and its winding against the frame is
    unwrapped.  The value is the second winding minus the first, rounded;
    the residual is the distance to that integer.
    """
    first_plane = [(f.chart, f.components) for f in d_first]
    turns = []
    for basis in (d_first, d_second):
        if turns and [(f.chart, f.components) for f in basis] == first_plane:
            turns.append(turns[0])  # the first plane again: the same line, bit for bit
            continue
        turns.append(_winding(_null_line(basis, rows), frame, path, n_samples).turns)

    diff = turns[1] - turns[0]
    value = int(round(diff))
    return DeltaResult(value, abs(diff - value), turns[0], turns[1], n_samples)
