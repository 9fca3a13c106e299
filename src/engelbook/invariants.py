"""Winding invariants along curves and quaternionic framings.

All winding computations share one angle-unwrapping core: sample a curve,
express the field of interest in a reference 2-frame, accumulate wrapped
angle increments, and divide by a full turn.  Closed loops include the
wrap-around step, so the increments telescope to a whole number of turns
and the fractional residual is float rounding only; it cannot detect
aliasing, where the field turns by more than half a turn between two
samples.  On an open segment the residual is the distance of the turn
count from the nearest integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .charts import Chart, OneForm, VectorField, batch_eval_scalars, field_matrix

__all__ = [
    "DeltaResult",
    "Path",
    "WindingResult",
    "delta_homomorphism",
    "frame_gram",
    "quaternion_frame",
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
    projection_residual: float


def _project_onto_frame(
    xvals: np.ndarray, c1vals: np.ndarray, c2vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Least squares coordinates of X in the 2-frame (C1, C2) per sample."""
    A = np.stack([c1vals, c2vals], axis=-1)  # (N, dim, 2)
    G = np.einsum("nik,nil->nkl", A, A)
    rhs = np.einsum("nik,ni->nk", A, xvals)
    try:
        coeffs = np.linalg.solve(G, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        coeffs = np.einsum("nkl,nl->nk", np.linalg.pinv(G), rhs)
    recon = np.einsum("nik,nk->ni", A, coeffs)
    scale = np.maximum(np.linalg.norm(xvals, axis=-1), 1e-300)
    residual = float((np.linalg.norm(xvals - recon, axis=-1) / scale).max())
    return coeffs[:, 0], coeffs[:, 1], residual


def _turns(a: np.ndarray, b: np.ndarray, closed: bool) -> float:
    ang = np.arctan2(b, a)
    if closed:
        ang = np.concatenate([ang, ang[:1]])
    d = np.diff(ang)
    d = (d + math.pi) % math.tau - math.pi
    return float(d.sum() / math.tau)


def _winding(
    field: VectorField,
    frame: Sequence[VectorField],
    path: Path,
    n_samples: int,
) -> WindingResult:
    pts = path.sample(n_samples)
    mats = field_matrix([field, *frame], pts)
    a, b, proj = _project_onto_frame(mats[:, 0], mats[:, 1], mats[:, 2])
    turns = _turns(a, b, path.closed)
    value = int(round(turns))
    return WindingResult(value, turns, abs(turns - value), n_samples, proj)


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


def _null_line_coeffs(
    basis: Sequence[VectorField],
    rows: Sequence[OneForm],
    pts: np.ndarray,
) -> np.ndarray:
    """Sign-aligned nullspace of the 2x2 pairing matrix at each sample.

    Row r, column c of the matrix is rows[r](basis[c]); the returned unit
    coefficient vectors select the line of the basis plane killed by both
    rows.
    """
    x1, x2 = basis
    entries = []
    for row in rows:
        entries.append(batch_eval_scalars([row.apply(x1), row.apply(x2)], pts))
    M = np.stack(entries, axis=-2)  # (N, 2, 2)
    _, _, vh = np.linalg.svd(M)
    coeffs = vh[:, -1, :]  # smallest right singular vector per point
    # Align each vector with its aligned predecessor, as a loop over the
    # samples would.  With d the dot of a row and its unaligned predecessor,
    # d < 0 flips the running sign, d > 0 keeps it, and d == 0 or NaN leaves
    # the row unflipped, so the running sign restarts at +1.  The stacked
    # matmul uses the routine of np.dot, so every d has np.dot's bits.
    dots = (coeffs[1:, None, :] @ coeffs[:-1, :, None])[:, 0, 0]
    negative = dots < 0.0
    restart = ~(negative | (dots > 0.0))
    flips = np.concatenate(([0], np.cumsum(negative)))
    start = np.maximum.accumulate(np.where(restart, np.arange(1, len(coeffs)), 0))
    odd = (flips[1:] - flips[start]) % 2 == 1
    coeffs[1:][odd] = -coeffs[1:][odd]
    return coeffs


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
    adapted structures: the reference form and the fibration form) is
    selected by a pointwise 2x2 nullspace, sign-aligned along the loop,
    pushed into the ambient chart, and its winding against the frame is
    unwrapped.  The value is the second winding minus the first, rounded;
    the residual is the distance to that integer.
    """
    pts = path.sample(n_samples)
    framev = field_matrix(list(frame), pts)

    first_plane = [(f.chart, f.components) for f in d_first]
    turns = []
    for basis in (d_first, d_second):
        if turns and [(f.chart, f.components) for f in basis] == first_plane:
            turns.append(turns[0])  # the first plane again: the same lines, bit for bit
            continue
        coeffs = _null_line_coeffs(basis, rows, pts)
        bv = field_matrix(list(basis), pts)
        line = coeffs[:, :1] * bv[:, 0] + coeffs[:, 1:] * bv[:, 1]
        a, b, _ = _project_onto_frame(line, framev[:, 0], framev[:, 1])
        turns.append(_turns(a, b, path.closed))

    diff = turns[1] - turns[0]
    value = int(round(diff))
    return DeltaResult(value, abs(diff - value), turns[0], turns[1], n_samples)


# -- quaternionic framing -------------------------------------------------------


def quaternion_frame(X: VectorField) -> tuple[VectorField, VectorField, VectorField]:
    """Left multiplication of a 4-component field by i, j, k.

    With X = (x0, x1, x2, x3) the returned fields are

        iX = (-x1,  x0, -x3,  x2)
        jX = (-x2,  x3,  x0, -x1)
        kX = (-x3, -x2,  x1,  x0)

    so (X, iX, jX, kX) has Gram matrix |X|^2 times the identity.
    """
    chart = X.chart
    if chart.dim != 4:
        raise ValueError("quaternion_frame expects a 4-dimensional chart")
    x0, x1, x2, x3 = X.components

    iX = VectorField(chart, (-x1, x0, -x3, x2), label=f"i*{X.label}")
    jX = VectorField(chart, (-x2, x3, x0, -x1), label=f"j*{X.label}")
    kX = VectorField(chart, (-x3, -x2, x1, x0), label=f"k*{X.label}")
    return iX, jX, kX


def frame_gram(fields: Sequence[VectorField], pts: np.ndarray) -> np.ndarray:
    """Pointwise Gram matrices of a frame; shape (npts, k, k)."""
    mats = field_matrix(list(fields), pts)
    return np.einsum("nik,njk->nij", mats, mats)
