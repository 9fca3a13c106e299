"""Charts, scalar fields, vector fields, differential forms, and sampling.

Every scalar component is an exact trigonometric polynomial (``Expr``), so
the calculus below (brackets, exterior derivatives, wedges, interior
products, pushforwards) is exact up to float round-off in coefficients, and
a field or form compiles to one evaluator over its components.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import RANK_TOL
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

_SAMPLE_MARGIN = 1e-3  # share of an interval's span kept clear of each end


@dataclass(frozen=True)
class Interval:
    """A coordinate range; sampling keeps a margin from both ends, except
    on an angular coordinate, whose range is sampled as a period.

    Its ends are finite and ``lo < hi``; anything else raises ``ValueError``,
    since an empty or falling range would give a grid of repeated points.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        where = f"interval [{self.lo!r}, {self.hi!r}]"
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"{where} has an end that is not finite")
        if not self.lo < self.hi:
            raise ValueError(f"{where} is empty: its low end must lie below its high end")

    def sample_range(self) -> tuple[float, float]:
        span = self.hi - self.lo
        return self.lo + _SAMPLE_MARGIN * span, self.hi - _SAMPLE_MARGIN * span


_ANGULAR_INTERVAL = Interval(0.0, math.tau)


# -- charts -------------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """A named coordinate chart with sampling bounds per coordinate.

    An angular coordinate's range is at most one period long: a longer one
    would repeat its samples, so it raises ``ValueError``.
    """

    name: str
    coords: tuple[Coordinate, ...]
    bounds: tuple[Interval, ...]

    def __post_init__(self) -> None:
        for c, b in zip(self.coords, self.bounds):
            if c.is_angular and b.hi - b.lo > math.tau:
                raise ValueError(
                    f"chart {self.name!r}: angular coordinate {c.name!r} spans "
                    f"[{b.lo!r}, {b.hi!r}], longer than one period 2*pi"
                )

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

    def sample_axes(self, n_per_axis: int) -> tuple[np.ndarray, ...]:
        """One axis of ``n_per_axis`` samples per coordinate: read-only arrays
        built once per chart value and count, and shared by every caller.
        A -0.0 bound equals 0.0 and shares its axes: on a rising range the
        sign of a zero end reaches no sample."""
        return _sample_axes(self, n_per_axis)

    def sample_grid(self, n_per_axis: int) -> np.ndarray:
        return _product_grid(self.sample_axes(n_per_axis))

    def axes_for_min_points(self, min_points: int) -> tuple[np.ndarray, ...]:
        """Sample axes of equal length, at least 2, whose product grid has at
        least ``min_points`` points."""
        return self.sample_axes(max(2, math.ceil(min_points ** (1.0 / self.dim))))

    def sample_random(self, n: int, rng: np.random.Generator) -> np.ndarray:
        cols = []
        for c, b in zip(self.coords, self.bounds):
            lo, hi = (b.lo, b.hi) if c.is_angular else b.sample_range()
            cols.append(rng.uniform(lo, hi, size=n))
        return np.stack(cols, axis=-1)


# One op reads at most 5 keys; a default verify of every catalog model reads
# 11, and a construct of any (lambda, k) 5: room for a process that runs many.
@functools.lru_cache(maxsize=32)
def _sample_axes(chart: Chart, n_per_axis: int) -> tuple[np.ndarray, ...]:
    axes = []
    for c, b in zip(chart.coords, chart.bounds):
        if c.is_angular:
            axis = np.linspace(b.lo, b.hi, n_per_axis, endpoint=False)
        else:
            axis = np.linspace(*b.sample_range(), n_per_axis)
        axis.flags.writeable = False
        axes.append(axis)
    return tuple(axes)


def _product_grid(axes: Sequence[np.ndarray]) -> np.ndarray:
    """The (n, len(axes)) points of the product of the float ``axes``, the
    last varying fastest: each axis broadcast into its column of one array."""
    n = len(axes)
    out = np.empty(tuple(len(a) for a in axes) + (n,))
    for i, a in enumerate(axes):
        out[..., i] = a.reshape((-1,) + (1,) * (n - 1 - i))
    return out.reshape(-1, n)


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
        """Directional derivative X(f), the sum of the products x_i * df/dx_i.

        A zero component x_i, and a coordinate that ``f`` does not read
        (``f.read_axes``), take no partial and no product: there df/dx_i or
        x_i is the zero ``Expr``, the product is the zero ``Expr`` and the
        sum would drop it.  A nonzero component still meets the chart check
        its product would have made.
        """
        coords = self.chart.coords
        self.chart.zero()._check_same_chart(f)
        read = f.read_axes
        products = []
        for i, (c, comp) in enumerate(zip(coords, self.components)):
            if not comp.terms:
                continue
            if i in read:
                products.append(comp * f.partial(c.name))
            else:
                f._check_same_chart(comp)
        return Expr.sum(coords, products)


@dataclass(frozen=True)
class OneForm(_Components):
    """Coordinate components of a one-form on one chart.

    Its exterior derivative and the coefficients of alpha ^ dalpha are
    derived on first use and kept with the form, so every reader of one
    form shares one derivation of each, for as long as the form lives.
    """

    def apply(self, X: VectorField) -> Expr:
        return Expr.sum(self.chart.coords, (a * x for a, x in zip(self.components, X.components)))

    @functools.cached_property
    def d(self) -> "TwoForm":
        """The exterior derivative dalpha."""
        return exterior_derivative(self)

    @functools.cached_property
    def wedge_d(self) -> tuple[tuple[tuple[int, int, int], Expr], ...]:
        """The coefficients of alpha ^ dalpha, as ``wedge_top`` lists them."""
        return wedge_top(self, self.d)


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
        """omega(X, Y), the sum over pairs of w_ij * (x_i * y_j - x_j * y_i).

        A product with a zero factor skips the term loop: ``Expr.__mul__``
        returns the zero ``Expr`` after its chart check, and the sum drops
        it.  The cross term is formed even where w_ij is zero, because its
        products can overflow and raise.
        """
        x, y = X.components, Y.components
        return Expr.sum(
            self.chart.coords,
            (w * (x[i] * y[j] - x[j] * y[i]) for (i, j), w in zip(self.pairs, self.components)),
        )


def differential(f: Expr, chart: Chart) -> OneForm:
    return OneForm(chart, tuple(f.partial(c.name) for c in chart.coords))


def exterior_derivative(alpha: OneForm) -> TwoForm:
    """d alpha, with components d_i a_j - d_j a_i for i < j.

    A partial along a coordinate that the component does not read
    (``read_axes``) is the zero ``Expr`` and is not taken, as in
    ``VectorField.apply``; the coordinate is still looked up by name, so a
    component over another chart raises the ``KeyError`` or the chart
    mismatch it raises with the partial taken.
    """
    chart = alpha.chart

    def partial(f: Expr, name: str) -> Expr:
        if _coord_index(f.coords, name) in f.read_axes:
            return f.partial(name)
        return Expr.zero(f.coords)

    pairs = tuple(itertools.combinations(range(chart.dim), 2))
    comps = []
    for i, j in pairs:
        comps.append(
            partial(alpha.components[j], chart.coords[i].name)
            - partial(alpha.components[i], chart.coords[j].name)
        )
    return TwoForm(chart, pairs, tuple(comps))


def interior_product(omega: TwoForm, X: VectorField) -> OneForm:
    """The one-form iota_X omega."""
    chart = omega.chart
    x, dims = X.components, range(chart.dim)
    comps = (Expr.sum(chart.coords, (x[i] * omega.component(i, j) for i in dims if i != j)) for j in dims)
    return OneForm(chart, tuple(comps))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    comps = []
    for j in range(X.chart.dim):
        comps.append(X.apply(Y.components[j]) - Y.apply(X.components[j]))
    return VectorField(X.chart, tuple(comps), f"[{X.label},{Y.label}]" if X.label or Y.label else "")


def lie_derivative_oneform(X: VectorField, alpha: OneForm) -> OneForm:
    """Cartan formula: L_X alpha = d(iota_X alpha) + iota_X(d alpha)."""
    chart = alpha.chart
    return differential(alpha.apply(X), chart) + interior_product(alpha.d, X)


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
    """The coordinate axes that some of ``scalars`` read (``Expr.read_axes``),
    in increasing order."""
    return tuple(sorted(frozenset().union(*(s.read_axes for s in scalars))))


def batch_eval_scalars(scalars: Sequence[Expr], pts: np.ndarray) -> np.ndarray:
    """Evaluate scalars on (..., dim) points; result has shape (..., len(scalars)).

    The scalars that read a coordinate share one ``_evaluator`` (traced as
    ``charts.field_eval``), each column bitwise its scalar's ``Expr.compile``.
    A canonical ``Expr`` that reads none has at most one term and is not
    compiled: its column is ``0.0 + coeff`` (+0.0 for the zero ``Expr``),
    the bits its evaluator would give at every point, NaN points included.
    """
    pts = np.asarray(pts, float)
    out = np.empty(pts.shape[:-1] + (len(scalars),))
    live = []
    for j, s in enumerate(scalars):
        if len(s.terms) <= 1 and not s.read_axes:
            out[..., j] = sum((t.coeff for t in s.terms), 0.0)
        else:
            live.append(j)
    # same bits; keeps the trigpoly.compile span perfbench's tracer test reads
    if len(live) == 1:
        out[..., live[0]] = scalars[live[0]].compile()(pts)
    elif live:
        out[..., live] = _evaluator([scalars[j] for j in live])(pts)
    return out


def field_matrix(fields: Sequence[VectorField], pts: np.ndarray) -> np.ndarray:
    """Field values of shape (..., len(fields), dim), from one ``batch_eval_scalars``."""
    vals = batch_eval_scalars([c for f in fields for c in f.components], pts)
    dim = fields[0].chart.dim if fields else np.shape(pts)[-1]
    return vals.reshape(vals.shape[:-1] + (len(fields), dim))


def pointwise_rank(mats: np.ndarray, tol: float = RANK_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Numeric rank and rank gap of a batch of matrices.

    The gap at a point is the smallest singular value: the margin by which a
    full-rank certificate holds where the rank is ``min(rows, cols)``, and
    the value, at most ``tol``, that misses it where the rank falls short.
    A negative ``tol`` would count zero singular values and is rejected.

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
    return (s > tol).sum(axis=-1), s[..., -1]
