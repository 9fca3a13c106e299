"""Pointwise verification certificates with explicit margins.

Every check samples a dense set of chart points and returns a CheckReport.
Existence certificates (nonvanishing, rank growth, positivity) report the
worst margin over the sample in ``min_gap``; vanishing certificates report
the worst residual there instead, and pass when it is at most ``tol``.
Checks with an exact and a numeric route run both and refuse to pass when
the routes disagree.  Every sampled check decides through ``_decide``: it
keeps only its scalars, its margin, its bad points, any pass condition of
its own and its details.

The sample is a product grid over the chart, but a check evaluates its
fields only on the axes they read (``charts.dependent_axes``), each other
axis held at its first sample, where the values do not change along it.
Its margins are spread back over the full grid, so ``points``, the worst
margin and the worst-first failures are those of the full grid.  Given
points are evaluated as they are.

Checks share what they read instead of rebuilding it.  A chart's axes for
one count are built once and kept for the process (``Chart.sample_axes``,
read-only arrays, the last 32 chart and count pairs); each ``Expr`` finds the axes it reads once (``Expr.read_axes``);
and each form derives its ``d`` and the coefficients of alpha ^ dalpha
(``OneForm.wedge_d``) on first use, for every check that reads that form
object.  Those derivations live as long as the form, so within one
``verify`` or ``construct`` they die with the op's model; only the axes
outlive it.  Product grids and evaluations are made per check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import DEFAULT_MIN_POINTS
from .charts import (
    Chart,
    OneForm,
    TwoForm,
    VectorField,
    _product_grid,
    batch_eval_scalars,
    dependent_axes,
    field_matrix,
    lie_bracket,
    lie_derivative_oneform,
    pointwise_rank,
)

__all__ = [
    "CheckReport",
    "adaptedness_check",
    "adaptedness_ready",
    "contact_structure_check",
    "contact_vector_field_check",
    "even_contact_form_check",
    "even_contact_span_check",
    "engel_check",
    "family_slice_check",
    "fibration_transversality_check",
    "isotropic_line_check",
]

DEFAULT_THRESHOLD = 1e-9
DEFAULT_TOL = 1e-9
MAX_FAILURES = 5


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one pointwise verification."""

    name: str
    passed: bool
    n_points: int
    min_gap: float
    failures: tuple[dict, ...] = ()
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "points": int(self.n_points),
            "min_gap": float(self.min_gap),
            "failures": [dict(f) for f in self.failures],
            "details": {k: self.details[k] for k in sorted(self.details)},
        }


@dataclass(frozen=True)
class _Sample:
    """The points a check evaluates on, and the sample they stand for.

    On a grid, ``pts`` is the product of the full grid's ``axes`` with each
    axis the check does not read cut to its first sample, ``shape`` is its
    shape as a grid and ``full`` the full grid's.  A value at one of
    ``pts`` stands for every full-grid point that agrees with it on the
    read axes.  Given points stand for themselves, with ``axes`` None.
    """

    pts: np.ndarray
    shape: tuple[int, ...]
    full: tuple[int, ...]
    axes: tuple[np.ndarray, ...] | None = None

    @property
    def n_points(self) -> int:
        return math.prod(self.full)

    def spread(self, values: np.ndarray) -> np.ndarray:
        """Per-point values at ``pts`` to every point of the full sample, in its order."""
        rest = values.shape[1:]
        grid = np.broadcast_to(values.reshape(self.shape + rest), self.full + rest)
        return grid.reshape((self.n_points,) + rest)

    def point(self, i: int) -> tuple:
        """The coordinates of point ``i`` of the full sample."""
        if self.axes is None:
            return tuple(self.pts[i])
        return tuple(a[j] for a, j in zip(self.axes, np.unravel_index(i, self.full)))


def _given_points(chart: Chart, points) -> np.ndarray:
    """``points`` as floats, refused unless their shape is (n, chart.dim) with n >= 1."""
    pts = np.asarray(points, float)
    if pts.ndim != 2 or pts.shape[1] != chart.dim or len(pts) == 0:
        raise ValueError(
            f"points on chart {chart.name!r} must have shape (n, {chart.dim}) with n >= 1, "
            f"got {pts.shape}"
        )
    return pts


def _sample(chart: Chart, scalars, points, min_points: int) -> _Sample:
    """The sample of a check that evaluates ``scalars``: the given ``points``,
    or the grid of at least ``min_points`` reduced to the axes they read."""
    if points is not None:
        pts = _given_points(chart, points)
        return _Sample(pts, pts.shape[:1], pts.shape[:1])
    axes = chart.axes_for_min_points(min_points)
    read = dependent_axes(scalars)
    cut = [a if i in read else a[:1] for i, a in enumerate(axes)]
    full = tuple(len(a) for a in axes)
    return _Sample(_product_grid(cut), tuple(len(a) for a in cut), full, axes)


def _evaluate(chart: Chart, scalars, points, min_points: int) -> tuple[_Sample, np.ndarray]:
    """The sample of a check that reads ``scalars`` and their values at its points."""
    sample = _sample(chart, scalars, points, min_points)
    return sample, batch_eval_scalars(scalars, sample.pts)


def _decide(
    name, chart, sample: _Sample, values, bad, min_gap, details, ok=True, margins=None
) -> CheckReport:
    """The report of a sampled check: it passes when ``ok`` and no point is
    ``bad``, and lists the worst bad points with their ``values``, ranked by
    ``margins`` (see ``_failures``)."""
    return CheckReport(
        name=name,
        passed=ok and not bad.any(),
        n_points=sample.n_points,
        min_gap=float(min_gap),
        failures=_failures(chart, sample, bad, values, margins),
        details=details,
    )


def _failures(chart: Chart, sample: _Sample, bad, values, margins=None) -> tuple[dict, ...]:
    """The ``MAX_FAILURES`` worst bad points of the full sample and their ``values``.

    ``bad``, ``values`` and ``margins`` are given at ``sample.pts``.  Worst
    means the smallest margin; ``margins`` defaults to ``values``, and a
    non-finite margin is the worst of all.  Points with equal margins keep
    their grid order.
    """
    if not bad.any():
        return ()
    bad, values = sample.spread(bad), sample.spread(values)
    rank = values if margins is None else sample.spread(margins)
    idx = np.nonzero(bad)[0]
    rank = np.where(np.isfinite(rank), rank, -np.inf)
    idx = idx[np.argsort(rank[idx], kind="stable")][:MAX_FAILURES]
    out = []
    for i in idx:
        point = {c.name: float(x) for c, x in zip(chart.coords, sample.point(i))}
        out.append({"point": point, "value": float(values[i])})
    return tuple(out)


def _below(margins: np.ndarray, threshold: float) -> np.ndarray:
    """Bad points of a margin: at most ``threshold``, or not finite."""
    return ~(np.isfinite(margins) & (margins > threshold))


def _above(residuals: np.ndarray, tol: float) -> np.ndarray:
    """Bad points of a residual: above ``tol``, or not finite."""
    return ~(np.isfinite(residuals) & (residuals <= tol))


# -- contact and even contact -------------------------------------------------


def contact_structure_check(
    alpha: OneForm,
    points: np.ndarray | None = None,
    min_points: int = DEFAULT_MIN_POINTS,
    name: str = "contact_structure",
) -> CheckReport:
    """Positive contact condition on a 3-chart: alpha ^ dalpha > 0.

    Positivity is measured against the chart's coordinate orientation.
    """
    chart = alpha.chart
    if chart.dim != 3:
        raise ValueError("contact_structure_check expects a 3-dimensional chart")
    (_, coeff), = alpha.wedge_d
    sample, vals = _evaluate(chart, [coeff], points, min_points)
    vals = vals[:, 0]
    bad = _below(vals, DEFAULT_THRESHOLD)
    details = {"route": "form", "orientation": "coordinate"}
    return _decide(name, chart, sample, vals, bad, vals.min(), details)


def even_contact_form_check(
    alpha: OneForm,
    points: np.ndarray | None = None,
    min_points: int = DEFAULT_MIN_POINTS,
    name: str = "even_contact_form",
) -> CheckReport:
    """Even contact condition on a 4-chart through the form route.

    alpha ^ dalpha is a 3-form with four coefficients; it must not vanish,
    so the pointwise Euclidean norm of the coefficient vector is the margin.
    """
    chart = alpha.chart
    if chart.dim != 4:
        raise ValueError("even_contact_form_check expects a 4-dimensional chart")
    coeffs = [c for _, c in alpha.wedge_d]
    sample, vals = _evaluate(chart, coeffs, points, min_points)
    norms = np.linalg.norm(vals, axis=-1)
    bad = _below(norms, DEFAULT_THRESHOLD)
    return _decide(name, chart, sample, norms, bad, norms.min(), {"route": "form"})


def even_contact_span_check(
    frame: Sequence[VectorField],
    points: np.ndarray | None = None,
    min_points: int = DEFAULT_MIN_POINTS,
    tol: float = DEFAULT_THRESHOLD,
    name: str = "even_contact_span",
) -> CheckReport:
    """Even contact condition through the span route.

    The three frame fields must stay independent, and adding their pairwise
    brackets must fill the tangent space of the 4-chart.  This route shares
    no logic with the form route beyond evaluation and rank.
    """
    if len(frame) != 3:
        raise ValueError("even_contact_span_check expects three spanning fields")
    chart = frame[0].chart
    if chart.dim != 4:
        raise ValueError("even_contact_span_check expects a 4-dimensional chart")
    fields = list(frame) + [lie_bracket(a, b) for a, b in itertools.combinations(frame, 2)]
    sample = _sample(chart, [c for f in fields for c in f.components], points, min_points)
    mats = field_matrix(fields, sample.pts)
    steps = {3: _rank_step(mats[:, :3], tol), 4: _rank_step(mats, tol)}
    return _rank_report(name, chart, sample, {"route": "span"}, steps)


def engel_check(
    pair: Sequence[VectorField],
    points: np.ndarray | None = None,
    min_points: int = DEFAULT_MIN_POINTS,
    tol: float = DEFAULT_THRESHOLD,
    name: str = "engel",
) -> CheckReport:
    """Engel condition for a 2-frame: ranks grow 2 -> 3 -> 4 under brackets."""
    chart, sample, _, steps = _engel_stack(pair, points, min_points, tol)
    return _rank_report(name, chart, sample, {}, steps)


# rows of the Engel stack (x1, x2, x12, x112, x212) that make the bracket
# span matrix of the frame (x1, x2, x12): the frame, then its pairwise
# brackets [x1,x2], [x1,x12], [x2,x12]
_BRACKET_SPAN_ROWS = [0, 1, 2, 2, 3, 4]


def _engel_and_bracket_span(
    pair: Sequence[VectorField],
    names: tuple[str, str],
    min_points: int,
    tol: float = DEFAULT_THRESHOLD,
) -> tuple[CheckReport, CheckReport]:
    """``engel_check(pair)`` and ``even_contact_span_check((w, x, [w, x]))``
    from one evaluation of the Engel stack.

    The span frame's brackets are Engel's x12, x112 and x212, so its matrix
    is a row selection of the Engel stack with the same bits, its fields
    read the same axes, and its rank-3 step is Engel's.  Both reports equal
    those of the two public checks.
    """
    chart, sample, mats, steps = _engel_stack(pair, None, min_points, tol)
    span_steps = {3: steps[3], 4: _rank_step(mats[:, _BRACKET_SPAN_ROWS], tol)}
    return (
        _rank_report(names[0], chart, sample, {}, steps),
        _rank_report(names[1], chart, sample, {"route": "span"}, span_steps),
    )


def _engel_stack(pair, points, min_points, tol):
    """Chart, sample, the (n, 5, 4) stack of x1, x2 and their brackets x12,
    x112, x212 at the sample's points, and its rank steps {2, 3, 4: (ranks, gaps)}."""
    if len(pair) != 2:
        raise ValueError("engel_check expects a pair of fields")
    x1, x2 = pair
    chart = x1.chart
    if chart.dim != 4:
        raise ValueError("engel_check expects a 4-dimensional chart")

    x12 = lie_bracket(x1, x2)
    x112 = lie_bracket(x1, x12)
    x212 = lie_bracket(x2, x12)

    fields = [x1, x2, x12, x112, x212]
    sample = _sample(chart, [c for f in fields for c in f.components], points, min_points)
    mats = field_matrix(fields, sample.pts)
    steps = {
        2: _rank_step(mats[:, :2], tol),
        3: _rank_step(mats[:, :3], tol),
        4: _rank_step(mats, tol),
    }
    return chart, sample, mats, steps


# a stack of fewer matrices goes straight to the SVD, which is cheaper there
_SCREEN_MIN = 64


def _rank_step(mats: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``pointwise_rank`` of an (n, rows, cols) stack, taken only where a gap
    can be the stack's least or at most ``tol``; every other gap reads +inf.

    One batched ``eigvalsh`` gives lam, the least eigenvalue of each Gram
    matrix (A A^T for rows <= cols, A^T A otherwise): sigma_min^2.  The
    rounded Gram, ``eigvalsh`` and LAPACK's SVD each put sigma_min^2 off by
    at most about (d + 10) u |A|_F^2, d the larger side and u = 2**-53
    (Higham 2002, 3.1; LAPACK Users' Guide 4.9), far below eta = 2**-40
    |A|_F^2 + 2**-1000, that is 8192 u |A|_F^2 and an underflow allowance.  So a matrix whose lam - eta lies above
    tol^2 and above the stack's least lam + eta has full rank, and a gap
    above tol and above the stack's least.  The SVD sees every other
    matrix, and each whose |A|_F^2 (the Gram's trace) or lam is not finite,
    or whose |A|_F^2 reaches 2**1000.  An SVD gives a matrix the same bits
    in any stack, so the least gap, the rank-deficient points and their
    gaps are those of ``pointwise_rank(mats, tol)``.  The screen goes with
    the sampled rank stack, once exact minors decide rank growth.
    """
    n, rows, cols = mats.shape
    if n < _SCREEN_MIN:
        return pointwise_rank(mats, tol)
    t = mats.transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = mats @ t if rows <= cols else t @ mats
    sq = np.trace(gram, axis1=1, axis2=2)
    ok = sq < 2.0**1000
    if not ok.all():
        # eigvalsh reads no NaN: it returns numbers for them
        gram[~ok] = 0.0
    lam = np.linalg.eigvalsh(gram)[:, 0]
    eta = 2.0**-40 * sq + 2.0**-1000
    ok &= np.isfinite(lam)
    least_upper = np.min(lam + eta, where=ok, initial=np.inf)
    svd = ~ok | (lam - eta <= max(least_upper, tol * tol))
    ranks, gaps = np.full(n, min(rows, cols)), np.full(n, np.inf)
    ranks[svd], gaps[svd] = pointwise_rank(mats[svd], tol)
    return ranks, gaps


def _rank_report(name, chart, sample, details, steps) -> CheckReport:
    """A rank-growth certificate from ``{wanted rank: (ranks, gaps)}``, each
    step's wanted rank the full rank of its matrices, so its gaps are their
    smallest singular values (``pointwise_rank``).

    A point is bad where any step misses its rank; its margin is its
    smallest gap over the steps, and ``details["rank<r>_gap"]`` is each
    step's worst gap, at most the tolerance when the step fails somewhere.
    """
    bad = np.zeros(len(sample.pts), dtype=bool)
    gaps = None
    for want, (ranks, step_gaps) in steps.items():
        bad |= ranks != want
        gaps = step_gaps if gaps is None else np.minimum(gaps, step_gaps)
        details[f"rank{want}_gap"] = float(step_gaps.min())
    return _decide(name, chart, sample, gaps, bad, gaps.min(), details)


def isotropic_line_check(
    w: VectorField,
    alpha: OneForm,
    spanning: Sequence[VectorField],
    points: np.ndarray | None = None,
    min_points: int = DEFAULT_MIN_POINTS,
    tol: float = DEFAULT_TOL,
    name: str = "isotropic_line",
) -> CheckReport:
    """W spans the kernel line of dalpha restricted to ker(alpha).

    Requires alpha(W) = 0, dalpha(W, E_i) = 0 for every spanning field of
    the kernel distribution, and W itself nonvanishing.
    """
    chart = alpha.chart
    alpha_w = alpha.apply(w)
    residual_scalars = [alpha_w, *(alpha.d.apply(w, e) for e in spanning)]
    scalars = residual_scalars + list(w.components)
    sample, vals = _evaluate(chart, scalars, points, min_points)
    residuals = np.abs(vals[:, : len(residual_scalars)])
    norms = np.linalg.norm(vals[:, len(residual_scalars) :], axis=-1)
    bad = _above(residuals.max(axis=-1), tol) | _below(norms, DEFAULT_THRESHOLD)
    details = {
        "alpha_w_residual": float(residuals[:, 0].max()),
        "pairing_residual": float(residuals.max()),
        "alpha_w_exact_zero": alpha_w.is_zero([(b.lo, b.hi) for b in chart.bounds], tol),
    }
    return _decide(name, chart, sample, norms, bad, norms.min(), details)


# -- contact vector fields ----------------------------------------------------


def _oneform_wedge(beta: OneForm, alpha: OneForm) -> TwoForm:
    chart = beta.chart
    pairs = tuple(itertools.combinations(range(chart.dim), 2))
    comps = []
    for i, j in pairs:
        comps.append(
            beta.components[i] * alpha.components[j] - beta.components[j] * alpha.components[i]
        )
    return TwoForm(chart, pairs, tuple(comps))


def contact_vector_field_check(
    L: VectorField,
    alpha: OneForm,
    points: np.ndarray | None = None,
    min_points: int = DEFAULT_MIN_POINTS,
    tol: float = DEFAULT_TOL,
    name: str = "contact_vector_field",
) -> CheckReport:
    """Whether the flow of L preserves ker(alpha).

    The Lie derivative is computed by the Cartan formula and the kernel
    condition is the vanishing of (L_L alpha) ^ alpha.  The same wedge is
    also reduced symbolically, and the two verdicts must agree.

    A component of L with a negative power of a coordinate has a Laurent
    pole where that coordinate is 0: L is not defined there, even where the
    wedge cancels the pole and reduces to the zero ``Expr``.  So the
    components of L that carry a negative power are evaluated on the sample
    too (the axes they read join it), and a point where one of them is not
    finite fails with a NaN residual.  Every other term is finite at a
    finite point, since coefficients are finite.  The check sees only its
    sample: a pole between sample points goes unnoticed.
    """
    chart = alpha.chart
    lie = lie_derivative_oneform(L, alpha)
    wedge = _oneform_wedge(lie, alpha)
    poles = [c for c in L.components if any(p < 0 for t in c.terms for p in t.powers)]
    sample = _sample(chart, [*wedge.components, *poles], points, min_points)
    vals = np.abs(batch_eval_scalars(list(wedge.components), sample.pts))
    residual = vals.max(axis=-1)
    details: dict = {"route": "cartan+wedge"}
    if poles:
        with np.errstate(divide="ignore", invalid="ignore"):
            undefined = ~np.isfinite(batch_eval_scalars(poles, sample.pts)).all(axis=-1)
        residual[undefined] = np.nan
        details["field_not_finite"] = int(np.count_nonzero(undefined))
    numeric_pass = bool(residual.max() <= tol)
    details["max_residual"] = float(residual.max())
    box = [(b.lo, b.hi) for b in chart.bounds]
    symbolic_pass = all(c.is_zero(box, tol) for c in wedge.components)
    details["symbolic_zero"] = bool(symbolic_pass)
    agree = symbolic_pass == numeric_pass
    if not agree:
        details["routes_disagree"] = True
    bad = _above(residual, tol)
    return _decide(
        name, chart, sample, residual, bad, residual.max(), details, ok=agree, margins=-residual
    )


# -- fibrations ---------------------------------------------------------------


def fibration_transversality_check(
    theta: OneForm,
    w: VectorField,
    points: np.ndarray | None = None,
    min_points: int = DEFAULT_MIN_POINTS,
    tol: float = DEFAULT_TOL,
    name: str = "fibration_transversality",
) -> CheckReport:
    """W is transverse to the fibers of a closed fibration form.

    Requires d(theta) = 0 and theta(W) bounded away from zero with one sign.
    """
    chart = theta.chart
    scalars = [*theta.d.components, theta.apply(w)]
    sample, vals = _evaluate(chart, scalars, points, min_points)
    closed_residual = float(np.abs(vals[:, :-1]).max())
    pairing = vals[:, -1]
    margins = np.abs(pairing)
    same_sign = bool((pairing > 0).all() or (pairing < 0).all())
    bad = _below(margins, DEFAULT_THRESHOLD)
    details = {
        "closed_residual": closed_residual,
        "sign": "positive" if pairing.max() > 0 else "negative",
        "constant_sign": same_sign,
    }
    ok = closed_residual <= tol and same_sign
    return _decide(name, chart, sample, pairing, bad, margins.min(), details, ok, margins)


# -- aggregation over families -------------------------------------------------


def family_slice_check(
    name: str,
    slice_report: Callable[[float], CheckReport],
    s_values: Sequence[float],
) -> CheckReport:
    """Run a per-slice check across a parameter family and aggregate."""
    reports = [(float(s), slice_report(float(s))) for s in s_values]
    passed = all(r.passed for _, r in reports)
    min_gap = min((r.min_gap for _, r in reports), default=0.0)
    failures = tuple(
        {"s": s, "check": r.name, "value": r.min_gap} for s, r in reports if not r.passed
    )[:MAX_FAILURES]
    return CheckReport(
        name=name,
        passed=passed,
        n_points=sum(r.n_points for _, r in reports),
        min_gap=float(min_gap),
        failures=failures,
        details={"slices": len(reports)},
    )


# -- adaptedness ---------------------------------------------------------------


def _adapted_page(piece, points, min_points, tol) -> CheckReport:
    return fibration_transversality_check(
        piece.fibration_form,
        piece.w_field,
        points=points,
        min_points=min_points,
        tol=tol,
        name="adapted_page",
    )


def _adapted_collar(piece, points, min_points, tol) -> CheckReport:
    chart = piece.chart
    w = piece.w_field

    # tangency to the tori: the normal coordinate component of W vanishes
    normal = piece.torus_normal.apply(w)
    sample, vals = _evaluate(chart, [normal, *w.components], points, min_points)
    residual = float(np.abs(vals[:, 0]).max())
    norms = np.linalg.norm(vals[:, 1:], axis=-1)

    # a NaN slope residual fails whichever torus it comes from
    slope_errors = [t.slope_and_residual()[1] for t in piece.boundary_tori]
    slope_residual = float(np.max(slope_errors, initial=0.0))

    bad = _below(norms, DEFAULT_THRESHOLD)
    details = {
        "tangency_residual": residual,
        "slope_residual": slope_residual,
        "tori": len(piece.boundary_tori),
    }
    ok = bool(slope_errors) and residual <= tol and slope_residual <= max(tol, 1e-9)
    return _decide("adapted_collar", chart, sample, norms, bad, norms.min(), details, ok)


def _adapted_binding(piece, points, min_points, tol) -> CheckReport:
    chart = piece.chart
    locus: dict[str, float] = dict(piece.binding_locus)
    w = piece.w_field

    # restrict W to the binding locus and drop the transverse directions
    transverse = [chart.index(nm) for nm in locus]
    keep = [i for i, c in enumerate(chart.coords) if c.name not in locus]
    sub_chart = Chart(
        chart.name, tuple(chart.coords[i] for i in keep), tuple(chart.bounds[i] for i in keep)
    )
    restricted = [comp.substitute(sub_chart.coords, locus) for comp in w.components]

    # sample the binding locus itself; given points keep their non-locus coordinates
    if points is not None:
        points = _given_points(chart, points)[:, keep]
    sample, vals = _evaluate(sub_chart, restricted, points, min_points)
    residual = float(np.abs(vals[:, transverse]).max()) if transverse else 0.0
    norms = np.linalg.norm(vals[:, keep], axis=-1)

    bad = _below(norms, DEFAULT_THRESHOLD)
    details = {
        "tangency_residual": residual,
        "locus": {k: float(v) for k, v in sorted(locus.items())},
    }
    ok = residual <= tol
    return _decide("adapted_binding", sub_chart, sample, norms, bad, norms.min(), details, ok)


# each role's adaptedness certificate: the piece field it reads beside
# w_field, and the certificate
_ADAPTED = {
    "page": ("fibration_form", _adapted_page),
    "collar": ("torus_normal", _adapted_collar),
    "binding": ("binding_locus", _adapted_binding),
}


def adaptedness_ready(piece) -> bool:
    """Whether a piece has a kernel line and the data its role's
    adaptedness certificate reads; a piece of any other role has none."""
    if piece.w_field is None or piece.role not in _ADAPTED:
        return False
    return getattr(piece, _ADAPTED[piece.role][0]) is not None


def adaptedness_check(
    piece,
    points: np.ndarray | None = None,
    min_points: int = DEFAULT_MIN_POINTS,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Dispatch the role-appropriate adaptedness certificate for a piece.

    A piece is duck-typed by its ``role`` attribute:

    - ``"page"``: the kernel line must be transverse to the declared
      fibration form (``piece.fibration_form``, ``piece.w_field``).
    - ``"collar"``: the kernel line must be tangent to the boundary tori
      (``piece.torus_normal`` pairs to zero) and nonvanishing (norm above
      ``DEFAULT_THRESHOLD``), and each declared torus slope must match the
      computed one.  A collar with no boundary tori fails: it certifies no
      slope.
    - ``"binding"``: the kernel line must be tangent to the binding locus
      (transverse components vanish on ``piece.binding_locus``) and
      nonvanishing there, sampled on a grid of the locus coordinates.
      Given ``points`` are projected onto the locus: their locus
      coordinates are replaced by the locus values.
    """
    if piece.role not in _ADAPTED:
        raise ValueError(f"unknown piece role {piece.role!r}")
    return _ADAPTED[piece.role][1](piece, points, min_points, tol)
