"""Charts, scalar fields, vector fields, differential forms, and sampling.

Every scalar component is an exact trigonometric polynomial (``Expr``), so
the calculus below (brackets, exterior derivatives, wedges, interior
products, pushforwards) is exact up to float round-off in coefficients, and
a field or form compiles to one evaluator over its components.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .trigpoly import (
    KIND_ANGULAR,
    Coordinate,
    Expr,
    _coord_index,
    _evaluator,
    parse_expression,
)

__all__ = [
    "Chart",
    "Interval",
    "IntegerAffineMap",
    "OneForm",
    "TwoForm",
    "VectorField",
    "batch_eval_scalars",
    "dependent_axes",
    "differential",
    "exterior_derivative",
    "interior_product",
    "lie_bracket",
    "lie_derivative_oneform",
    "pointwise_rank",
    "wedge_top",
]

RANK_TOL = 1e-9
_SAMPLE_MARGIN = 1e-3  # share of an interval's span kept clear of each end


@dataclass(frozen=True)
class Interval:
    """A coordinate range; sampling keeps a margin from both ends, except
    on an angular coordinate, whose range is sampled as a period."""

    lo: float
    hi: float

    def sample_range(self) -> tuple[float, float]:
        span = self.hi - self.lo
        return self.lo + _SAMPLE_MARGIN * span, self.hi - _SAMPLE_MARGIN * span


_ANGULAR_INTERVAL = Interval(0.0, math.tau)


# -- charts -------------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """A named coordinate chart with sampling bounds per coordinate."""

    name: str
    coords: tuple[Coordinate, ...]
    bounds: tuple[Interval, ...]

    @classmethod
    def make(
        cls,
        name: str,
        spec: Sequence[tuple],
    ) -> "Chart":
        """Build from (coord_name, kind) or (coord_name, kind, Interval) rows.

        Angular coordinates default to [0, 2*pi)."""
        coords: list[Coordinate] = []
        bounds: list[Interval] = []
        for row in spec:
            if len(row) == 2:
                cname, kind = row
                interval = None
            else:
                cname, kind, interval = row
            c = Coordinate(cname, kind)
            if interval is None:
                if kind != KIND_ANGULAR:
                    raise ValueError(f"coordinate {cname!r} needs an explicit interval")
                interval = _ANGULAR_INTERVAL
            coords.append(c)
            bounds.append(interval)
        return cls(name, tuple(coords), tuple(bounds))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        return _coord_index(self.coords, name)

    def coord_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.coords)

    # scalar builders

    def parse(self, text: str) -> Expr:
        return parse_expression(text, self.coords)

    def zero(self) -> Expr:
        return Expr.zero(self.coords)

    def const(self, value: float) -> Expr:
        return Expr.const(self.coords, value)

    def coordinate_expr(self, name: str) -> Expr:
        return Expr.coordinate(self.coords, name)

    # field and form builders

    def vector_field(self, components: Mapping[str, Expr | str | float], label: str = "") -> "VectorField":
        return VectorField(self, self._components(components), label)

    def one_form(self, components: Mapping[str, Expr | str | float], label: str = "") -> "OneForm":
        return OneForm(self, self._components(components), label)

    def basis_vector(self, name: str, label: str = "") -> "VectorField":
        return self.vector_field({name: 1.0}, label or f"d/d{name}")

    def _components(self, components: Mapping[str, Expr | str | float]) -> tuple[Expr, ...]:
        """Components by coordinate name: scalars, expression strings or constants; zero elsewhere."""
        comps: list[Expr] = [self.zero()] * self.dim
        for cname, value in components.items():
            if isinstance(value, str):
                value = self.parse(value)
            elif not isinstance(value, Expr):
                value = self.const(float(value))
            comps[self.index(cname)] = value
        return tuple(comps)

    # sampling

    def sample_axes(self, n_per_axis: int) -> list[np.ndarray]:
        axes = []
        for c, b in zip(self.coords, self.bounds):
            if c.is_angular:
                axes.append(np.linspace(b.lo, b.hi, n_per_axis, endpoint=False))
            else:
                lo, hi = b.sample_range()
                axes.append(np.linspace(lo, hi, n_per_axis))
        return axes

    def sample_grid(self, n_per_axis: int) -> np.ndarray:
        return _product_grid(self.sample_axes(n_per_axis))

    def axes_for_min_points(self, min_points: int) -> list[np.ndarray]:
        """Sample axes of equal length, at least 2, whose product grid has at
        least ``min_points`` points."""
        return self.sample_axes(max(2, math.ceil(min_points ** (1.0 / self.dim))))

    def sample_random(self, n: int, rng: np.random.Generator) -> np.ndarray:
        cols = []
        for c, b in zip(self.coords, self.bounds):
            lo, hi = (b.lo, b.hi) if c.is_angular else b.sample_range()
            cols.append(rng.uniform(lo, hi, size=n))
        return np.stack(cols, axis=-1)


def _product_grid(axes: Sequence[np.ndarray]) -> np.ndarray:
    """The (n, len(axes)) points of the product of ``axes``, the last varying fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


# -- fields and forms ---------------------------------------------------------


@dataclass(frozen=True)
class _Components:
    """Coordinate components of a field or form on one chart."""

    chart: Chart
    components: tuple[Expr, ...]
    label: str = ""

    def __add__(self, other):
        return type(self)(
            self.chart,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def scaled(self, s: "Expr | float"):
        if isinstance(s, (int, float)):
            s = self.chart.const(float(s))
        return type(self)(self.chart, tuple(s * c for c in self.components))

    def compile(self) -> Callable[[np.ndarray], np.ndarray]:
        """(..., dim) points to (..., n), on one evaluator of every component."""
        return _evaluator(self.components)


@dataclass(frozen=True)
class VectorField(_Components):
    """Coordinate components of a vector field on one chart."""

    def apply(self, f: Expr) -> Expr:
        """Directional derivative X(f)."""
        out: Expr = self.chart.zero()
        for c, comp in zip(self.chart.coords, self.components):
            out = out + comp * f.partial(c.name)
        return out


@dataclass(frozen=True)
class OneForm(_Components):
    """Coordinate components of a one-form on one chart."""

    def apply(self, X: VectorField) -> Expr:
        out: Expr = self.chart.zero()
        for a, x in zip(self.components, X.components):
            out = out + a * x
        return out


@dataclass(frozen=True)
class TwoForm:
    """A two-form stored by its strictly upper-triangular components.

    ``pairs[m] = (i, j)`` with i < j and ``components[m]`` the coefficient of
    dx_i wedge dx_j.
    """

    chart: Chart
    pairs: tuple[tuple[int, int], ...]
    components: tuple[Expr, ...]

    def component(self, i: int, j: int) -> Expr:
        if i == j:
            return self.chart.zero()
        sign = 1.0
        if i > j:
            i, j, sign = j, i, -1.0
        m = self.pairs.index((i, j))
        comp = self.components[m]
        return comp if sign > 0 else -comp

    def apply(self, X: VectorField, Y: VectorField) -> Expr:
        out: Expr = self.chart.zero()
        for (i, j), w in zip(self.pairs, self.components):
            cross = X.components[i] * Y.components[j] - X.components[j] * Y.components[i]
            out = out + w * cross
        return out


def differential(f: Expr, chart: Chart) -> OneForm:
    return OneForm(chart, tuple(f.partial(c.name) for c in chart.coords))


def exterior_derivative(alpha: OneForm) -> TwoForm:
    chart = alpha.chart
    pairs = tuple(itertools.combinations(range(chart.dim), 2))
    comps = []
    for i, j in pairs:
        comps.append(
            alpha.components[j].partial(chart.coords[i].name)
            - alpha.components[i].partial(chart.coords[j].name)
        )
    return TwoForm(chart, pairs, tuple(comps))


def interior_product(omega: TwoForm, X: VectorField) -> OneForm:
    """The one-form iota_X omega."""
    chart = omega.chart
    comps = []
    for j in range(chart.dim):
        acc: Expr = chart.zero()
        for i in range(chart.dim):
            if i == j:
                continue
            acc = acc + X.components[i] * omega.component(i, j)
        comps.append(acc)
    return OneForm(chart, tuple(comps))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    comps = []
    for j in range(X.chart.dim):
        comps.append(X.apply(Y.components[j]) - Y.apply(X.components[j]))
    return VectorField(X.chart, tuple(comps), f"[{X.label},{Y.label}]" if X.label or Y.label else "")


def lie_derivative_oneform(X: VectorField, alpha: OneForm) -> OneForm:
    """Cartan formula: L_X alpha = d(iota_X alpha) + iota_X(d alpha)."""
    chart = alpha.chart
    return differential(alpha.apply(X), chart) + interior_product(exterior_derivative(alpha), X)


def wedge_top(alpha: OneForm, omega: TwoForm) -> tuple[tuple[tuple[int, int, int], Expr], ...]:
    """Components of the three-form alpha wedge omega.

    Returns one (triple, coefficient) entry per strictly increasing index
    triple: a single entry on a 3-chart, four entries on a 4-chart.
    """
    chart = alpha.chart
    out = []
    for i, j, k in itertools.combinations(range(chart.dim), 3):
        coeff = (
            alpha.components[i] * omega.component(j, k)
            - alpha.components[j] * omega.component(i, k)
            + alpha.components[k] * omega.component(i, j)
        )
        out.append(((i, j, k), coeff))
    return tuple(out)


# -- integer-affine chart maps ------------------------------------------------


@dataclass(frozen=True)
class IntegerAffineMap:
    """A unimodular integer-affine self-map of a chart: x -> A x + b.

    The pushforward of a vector field stays inside the exact expression
    class because the inverse is again integer-affine.
    """

    chart: Chart
    matrix: tuple[tuple[int, ...], ...]
    offset: tuple[float, ...]

    def __post_init__(self) -> None:
        n = self.chart.dim
        a = np.array(self.matrix, dtype=float)
        if a.shape != (n, n):
            raise ValueError("matrix shape must match the chart dimension")
        det = round(float(np.linalg.det(a)))
        if det not in (-1, 1):
            raise ValueError("matrix must be unimodular for an exact inverse")

    def inverse(self) -> "IntegerAffineMap":
        inv = np.rint(np.linalg.inv(np.array(self.matrix, dtype=float))).astype(int)
        if not np.array_equal(np.array(self.matrix) @ inv, np.eye(self.chart.dim, dtype=int)):
            raise ValueError("matrix inverse is not integer")
        boff = -inv @ np.array(self.offset, dtype=float)
        return IntegerAffineMap(
            self.chart,
            tuple(tuple(int(v) for v in row) for row in inv),
            tuple(float(v) for v in boff),
        )

    def pushforward(self, X: VectorField) -> VectorField:
        """Transport a vector field: (f_* X)(q) = A . X(f^{-1}(q))."""
        inv = self.inverse()
        names = self.chart.coord_names()
        images = {
            name: ({names[j]: m for j, m in enumerate(row) if m}, b)
            for name, row, b in zip(names, inv.matrix, inv.offset)
        }
        moved = [xj.substitute(self.chart.coords, images) for xj in X.components]
        comps = tuple(
            sum((float(m) * moved[j] for j, m in enumerate(row) if m), self.chart.zero())
            for row in self.matrix
        )
        return VectorField(self.chart, comps, X.label)


# -- batch evaluation and rank -------------------------------------------------


def dependent_axes(scalars: Sequence[Expr]) -> tuple[int, ...]:
    """The coordinate axes that some of ``scalars`` read, in increasing order.

    An ``Expr`` reads axis i when one of its terms has a nonzero power or
    frequency in it; its evaluator never looks at any other axis, so its
    values do not change along one.
    """
    read: set[int] = set()
    for s in scalars:
        for t in s.terms:
            read.update(i for i, (p, k) in enumerate(zip(t.powers, t.freqs)) if p or k)
    return tuple(sorted(read))


def batch_eval_scalars(scalars: Sequence[Expr], pts: np.ndarray) -> np.ndarray:
    """Evaluate scalars on (..., dim) points; result has shape (..., len(scalars)).

    An ``Expr`` that reads no coordinate is not compiled: its column is
    ``np.full`` of ``0.0 + coeff`` (+0.0 for the zero ``Expr``), the bits its
    evaluator would give at every point, NaN points included.  A canonical
    ``Expr`` of that kind has at most one term.
    """
    pts = np.asarray(pts, float)
    shape = pts.shape[:-1]
    cols = [
        np.full(shape, sum((t.coeff for t in s.terms), 0.0))
        if len(s.terms) <= 1 and not dependent_axes([s])
        else np.broadcast_to(np.asarray(s.compile()(pts), float), shape)
        for s in scalars
    ]
    return np.stack(cols, axis=-1)


def field_matrix(fields: Sequence[VectorField], pts: np.ndarray) -> np.ndarray:
    """Stack field values into shape (npts, n_fields, dim)."""
    rows = [batch_eval_scalars(f.components, pts) for f in fields]
    return np.stack(rows, axis=-2)


def pointwise_rank(mats: np.ndarray, tol: float = RANK_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Numeric rank and rank gap of a batch of matrices.

    The gap at a point is the smallest singular value still counted toward
    the rank, i.e. the margin by which the rank certificate holds.  A
    negative ``tol`` would count zero singular values and is rejected.

    A matrix with a non-finite entry gets rank 0 and gap 0, so it fails any
    rank certificate instead of passing it or raising.  ``mats`` is never
    written: a stack is copied only when it holds such a matrix.
    """
    if not tol >= 0:
        raise ValueError(f"rank tolerance must be nonnegative, got {tol}")
    mats = np.asarray(mats, dtype=float)
    *batch, r, d = mats.shape
    flat = mats.reshape(-1, r, d)
    finite = np.isfinite(flat).all(axis=(-2, -1))
    if not finite.all():
        # a zero matrix stands in for a non-finite one: its singular values are 0
        flat = flat.copy()
        flat[~finite] = 0.0
    s = np.linalg.svd(flat, compute_uv=False).reshape(*batch, min(r, d))
    ranks = (s > tol).sum(axis=-1)
    idx = np.maximum(ranks - 1, 0)
    gaps = np.where(ranks > 0, np.take_along_axis(s, idx[..., None], axis=-1)[..., 0], 0.0)
    return ranks, gaps
