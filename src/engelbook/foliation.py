"""Surface pullbacks, characteristic foliations, and the disk constructor.

This module owns everything that happens on 2-dimensional pieces: exact
pullbacks of one-forms to coordinate-slice surfaces (every surface the
catalog and the assembly use is such a slice), slopes of linear torus
foliations, interval proofs that the kernel foliation of a form crosses an
annulus, locating and classifying the singularities of a direction field,
and the construction of a contact form on a disk bundle with a prescribed
odd number of boundary twists.

The constructor realizes the form

    alpha = u dx + beta,    beta = V_q dp - V_p dq,

with u a chain of truncated Gaussian peaks over a negative floor, lifted
back to 1 through a radial wall, and c, s radial profiles that keep the
contact coefficient positive while steering the classifier field

    V = grad(u) - c rho e_rho + s e_theta

so that its zeros are exactly the prescribed singularities.  The page
foliation is directed by V and beta = -i_V(dp ^ dq), so beta and its
partials are read off the classifier's value and Jacobian.  Past the
layout's last end radius, ``exact_radius``, every bump, the wall and both
profiles are clipped to their final values, so u = 1, c = 1 and s = 0
exactly and V == -z in floats (a zero coordinate may differ in sign): the
form is dx + p dq - q dp by construction.  ``_assemble_pieces`` checks the
layout, ``test_disk_form_is_exact_past_its_exact_radius`` pins the region,
and the boundary certificates are its exact values.  Contact positivity is
checked on a dense grid before the object is returned.

The singularity counts, types and signs are proven (``find_and_classify``).
Newton's method from the design seeds, the bump centres and the midpoints
between them, finds the zeros; around each, a Krawczyk box (Krawczyk 1969;
Moore, Kearfott and Cloud, *Introduction to Interval Analysis*, 2009)
holds exactly one zero, and interval enclosures of det J and of u over it
fix the zero's type and sign.  A cover of boxes on whose enclosure of V 0
is excluded fills the rest of the disk inside the bump cluster, and past
it |V| >= min(swirl, s_fall[0]) in closed form.  The enclosures
(``interval``, ``_disk_bounds``) assume two things of the float
arithmetic beyond correctly rounded +, -, *, / and sqrt: numpy's exp is
within ``interval.EXP_ULPS`` = 4 ulps of the exact value, and a float sum
of n terms in input order is within gamma(n - 1) = (n - 1) u / (1 - (n -
1) u) times the sum of their magnitudes of the exact sum (u = 2^-53).  The
proof is of the exact field with the float constants the code uses.

The disk constructor is plain numpy, so this module imports only numpy and
the standard library at module level; the functions that take charts, forms
or fields import ``trigpoly``, ``invariants`` or ``verify`` when called.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from . import DEFAULT_MIN_POINTS
from .interval import SMOOTHSTEP, Enclosure, exclude_zeros, prove_zeros, smoothstep, smoothstep_slope

if TYPE_CHECKING:
    from .charts import Chart, OneForm, VectorField
    from .trigpoly import Expr

__all__ = [
    "ClassifierField",
    "DiskContactForm",
    "SingularityReport",
    "SliceEmbedding",
    "annulus_foliation_check",
    "boundary_winding_vs_index",
    "classifier_boundary_winding",
    "construct_xi_prime",
    "find_and_classify",
    "torus_slope",
    "trace_leaf",
]

_SLOPE_CONST_TOL = 1e-9  # largest non-constant part of a torus pullback
_LEAF_SEEDS = 8  # seed leaves of a vertical annulus report
_LEAF_STEP = 1e-3
_LEAF_ARC_FACTOR = 50.0  # arc budget per leaf, in annulus widths
_RETRACE_TOL = 1e-4
_DISK_RADIUS = 1.0  # the page disk on which singularities are searched
_ZERO_RESIDUAL = 1e-10  # |V| at an accepted zero
_DEDUPE_TOL = 1e-6
_NEWTON_ROUNDS = 60  # Newton rounds from each design seed
_WINDING_SAMPLES = 2048
_CONTACT_GRID_N = 281
_MIN_NORM = 1e-14  # smallest direction norm the tracer accepts
_EVAL_ALLOWANCE = 1e-12  # the evaluator's rounding, per unit of the sum of |term|
_BISECT_LEVELS = 6  # an annulus band is cut into at most 2^6 v pieces


# -- embeddings ----------------------------------------------------------------


@dataclass(frozen=True)
class SliceEmbedding:
    """An exact embedding: each ambient coordinate is a surface coordinate
    or a constant.

    A pullback along such an embedding is one ``Expr.substitute`` per
    component, so it stays in the exact expression class, and slopes and
    characteristic directions computed from it carry no numerical error
    beyond float arithmetic.
    """

    surface: Chart
    ambient: Chart
    assignment: Mapping[str, "str | float"]

    def __post_init__(self) -> None:
        for c in self.ambient.coords:
            if c.name not in self.assignment:
                raise ValueError(f"ambient coordinate {c.name!r} is unassigned")
        for name, value in self.assignment.items():
            self.ambient.index(name)
            if isinstance(value, str):
                self.surface.index(value)

    def pullback_oneform(self, alpha: OneForm) -> OneForm:
        images = {
            n: ({v: 1}, 0.0) if isinstance(v, str) else float(v) for n, v in self.assignment.items()
        }
        comps = [self.surface.zero() for _ in range(self.surface.dim)]
        for i, c in enumerate(self.ambient.coords):
            target = self.assignment[c.name]
            if not isinstance(target, str):
                continue
            j = self.surface.index(target)
            comps[j] = comps[j] + alpha.components[i].substitute(self.surface.coords, images)
        return type(alpha)(self.surface, tuple(comps), alpha.label)


# -- torus slopes ----------------------------------------------------------------


def torus_slope(pulled: OneForm) -> float:
    """Slope of the linear kernel foliation of a constant form on a 2-torus.

    The pulled-back form (an exact slice pullback) must have constant
    coefficients (c1, c2) within 1e-9; the kernel line of c1 du + c2 dv has
    slope dv/du = -c1/c2, infinite only where c2 is exactly 0.  The algebra
    keeps no coefficient of magnitude ``ZERO_TOL`` or below, so a nonzero c2
    is an exact value, however small: r^2 of a torus at r = 3e-5 is 9e-10.
    """
    from .trigpoly import Mode

    if pulled.chart.dim != 2:
        raise ValueError("torus_slope expects a 2-dimensional chart")
    values = []
    for comp in pulled.components:
        # bound |non-constant part| by its coefficient sum; valid because
        # torus coordinates are angular, so terms carry no monomial factors
        const = 0.0
        drift = 0.0
        for t in comp.terms:
            if t.mode == Mode.CONST and not any(t.powers) and not any(t.freqs):
                const += t.coeff
            else:
                drift += abs(t.coeff)
        if drift > _SLOPE_CONST_TOL:
            raise ValueError("pulled-back form is not constant: not a linear foliation")
        values.append(const)
    c1, c2 = values
    if c2 == 0.0:
        return math.inf
    return -c1 / c2


# -- crossing of annuli ----------------------------------------------------------


def trace_leaf(
    direction: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    step: float,
    max_arc: float,
    inside: Callable[[np.ndarray], bool],
    wrap: tuple[bool, ...] = (False, False),
) -> tuple[np.ndarray, bool, int]:
    """Fixed-step RK4 integration of a normalized direction field.

    ``direction`` maps (m, d) points to (m, d) vectors and is called on one
    point at a time; ``inside`` takes one point and returns a bool.  The
    leaf stops when it leaves ``inside``, when it returns within half a step
    of its start after more than 100 steps, or after ceil(max_arc / step)
    steps.  ``wrap`` marks angular coordinates, so closure is detected
    modulo their period.  Returns (end_point, exited, n_steps), a point, a
    bool and an int; ``exited`` is False when the leaf closed up or
    exhausted ``max_arc``.  A direction shorter than 1e-14 raises
    ``ValueError``; a non-finite one makes the leaf NaN.
    """
    n_max = int(math.ceil(max_arc / step))
    z = z0 = np.array(start, float)

    def unit(p: np.ndarray) -> np.ndarray:
        v = np.asarray(direction(p[None, :]), float)[0]
        n = np.linalg.norm(v)
        if n < _MIN_NORM:
            raise ValueError("direction field vanishes on the traced leaf")
        with np.errstate(invalid="ignore"):
            return v / n

    for i in range(1, n_max + 1):
        k1 = unit(z)
        k2 = unit(z + 0.5 * step * k1)
        k3 = unit(z + 0.5 * step * k2)
        k4 = unit(z + step * k3)
        z = z + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not inside(z):
            return z, True, i
        if i > 100:
            d = z - z0
            for a, angular in enumerate(wrap):
                if angular:
                    d[a] = (d[a] + math.pi) % math.tau - math.pi
            if np.linalg.norm(d) < 0.5 * step:
                return z, False, i
    return z, False, n_max


def _vertical_leaf(v0: float, dv: float, lo: float, hi: float, budget: int) -> tuple[float, bool, int]:
    """The RK4 loop's trace of a leaf whose every stage unit vector is
    (+0.0, s): each step leaves u's bits as they are and adds the same dv
    to v, so the leaf is the float recurrence v += dv, stopped by the loop's
    rules (v leaves (lo, hi); after step 100, v is within half a step of
    v0; the budget is spent).  Returns the end v, whether it left (lo, hi),
    and the step count."""
    v = v0
    for i in range(1, budget + 1):
        v += dv
        out = not lo < v < hi
        if out or i == budget or (i > 100 and abs(v - v0) < 0.5 * _LEAF_STEP):
            return v, out, i
    return v, False, 0


def _proven_signs(c1: "Expr", lo: float, hi: float):
    """Each cut of the closed band [0, 2 pi] x [lo, hi] into 2^j equal v
    pieces, j = 0 .. ``_BISECT_LEVELS`` in turn, on which ``Expr.bound``
    proves that c1 keeps one sign: yields that sign, +1.0 or -1.0, the
    pieces and c1's bound on each.

    Only v is cut: u is angular, and ``Expr.bound`` reads no range for an
    angular coordinate.  A Laurent pole in a piece proves nothing.
    """
    for level in range(_BISECT_LEVELS + 1):
        m = 2**level
        cuts = [lo + (hi - lo) * i / m for i in range(m)] + [hi]
        pieces = list(zip(cuts, cuts[1:]))
        try:
            bounds = [c1.bound(((0.0, math.tau), piece)) for piece in pieces]
        except ValueError:
            continue
        if all(b_lo > 0.0 for b_lo, _ in bounds):
            yield 1.0, pieces, bounds
        elif all(b_hi < 0.0 for _, b_hi in bounds):
            yield -1.0, pieces, bounds


def _arc_bound(c2: "Expr", proofs, max_arc: float) -> tuple["float | None", int]:
    """An upper bound on the arc of a leaf across the band, and the number of
    pieces of the cut that gave it; (None, 0) where no cut gives one.

    ``proofs`` are cuts from ``_proven_signs``.  On a piece where c1 keeps
    one sign, v moves at least min|c1| / |(c1, c2)| per unit of arc, so a
    leaf crosses the band within the sum over the pieces of height *
    sqrt(1 + (max|c2| / min|c1|)^2), rounded up.  The cuts are read in turn
    until one gives a bound within ``max_arc``, and the least bound is kept.
    A cut where c2's bound is not finite or has a pole gives none.
    """
    best, count = None, 0
    for _, pieces, c1_bounds in proofs:
        try:
            c2_bounds = [c2.bound(((0.0, math.tau), piece)) for piece in pieces]
        except ValueError:
            continue
        if not all(math.isfinite(b) for bound in c2_bounds for b in bound):
            continue
        slowest = np.array([min(abs(b_lo), abs(b_hi)) for b_lo, b_hi in c1_bounds])
        steepest = np.array([max(-b_lo, b_hi) for b_lo, b_hi in c2_bounds])
        ends = np.array(pieces)
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = Enclosure.of(steepest) / slowest
            arcs = (Enclosure.of(ends[:, 1]) - ends[:, 0]) * (ratio**2 + 1.0).sqrt()
            arc = float(arcs.group_sums(np.zeros(len(pieces), np.intp), 1).hi[0])
        if math.isfinite(arc) and (best is None or arc < best):
            best, count = arc, len(pieces)
        if best is not None and best <= max_arc:
            break
    return best, count


def _grid_failures(pulled: OneForm, lo: float, hi: float) -> tuple[int, list[dict], bool]:
    """c1 of c1 du + c2 dv on a grid across the band: the number of grid
    points, the failures, and whether c1 takes both signs there.  If it
    does, c1 vanishes or has a Laurent pole between two grid points, so the
    line field is not defined everywhere in the band, and the failures are
    at c1's largest and smallest values; otherwise the failure is at the
    point of least |c1|, where the line field is nearest to horizontal.

    c1 is evaluated at the chart's u samples of a default check, times as
    many v values across [lo, hi].  A value counts as signed only beyond
    ``_EVAL_ALLOWANCE`` times the sum of the terms' magnitudes there.
    """
    from .charts import _product_grid
    from .trigpoly import _evaluator

    c1 = pulled.components[0]
    u_axis = pulled.chart.axes_for_min_points(DEFAULT_MIN_POINTS)[0]
    pts = _product_grid((u_axis, np.linspace(lo, hi, len(u_axis))))
    values = _evaluator([c1, *(type(c1)(c1.coords, (t,)) for t in c1.terms)])(pts)
    c, allowance = values[:, 0], _EVAL_ALLOWANCE * np.abs(values[:, 1:]).sum(1)
    up, down = c > allowance, c < -allowance
    both = bool(up.any() and down.any())
    if both:
        worst = (np.where(up, c, -np.inf).argmax(), np.where(down, c, np.inf).argmin())
    else:
        worst = (np.where(np.isnan(c), np.inf, np.abs(c)).argmin(),)
    return len(pts), [
        {"point": {"u": float(pts[i, 0]), "v": float(pts[i, 1])}, "value": float(c[i])} for i in worst
    ], both


def annulus_foliation_check(
    pulled: OneForm,
    v_range: tuple[float, float],
    name: str = "annulus_foliation",
):
    """Every leaf of the kernel foliation of c1 du + c2 dv must cross the
    band lo <= v <= hi, within an arc of 50 band widths.

    ``v_range`` must be a nonempty finite interval (``charts.Interval``).
    The check asks ``Expr.bound`` whether c1 keeps one sign on the closed
    band, first on the whole band and then on up to 2^6 equal v pieces
    (``_proven_signs``).  Where it does, the kernel line (-c2, c1) is nowhere
    tangent to a circle v = const, v is strictly monotone along every leaf,
    and every leaf crosses:

    - where c2 is the zero ``Expr``, the leaves are the vertical lines u =
      const.  The report is that of the fixed-step RK4 loop's leaves from 8
      seeds on the middle circle, forward, backward and retraced, which on
      a vertical line field are one float recurrence in v
      (``_vertical_leaf``); ``min_gap`` is the headroom of their step
      counts against the arc budget.  A leaf that stalls, where a step
      rounds away, fails.
    - otherwise every leaf's arc across the band is at most the bound L of
      ``_arc_bound``, a sum over the pieces of a cut that proves c1's sign,
      each piece's term read from its own bounds of c1 and c2.  While L is
      over the budget, v is cut finer, up to the 2^6 pieces, and the least
      L is kept.  The check passes where L is within the budget;
      ``min_gap`` is 1 - L / budget, ``details["arc_bound"]`` is L, and
      ``n_points`` counts the pieces of its cut.

    On an angular v, a band of one period or more has no edge to cross: its
    leaves circle back, and the check fails at the 8 seeds.  Where no sign
    is proven, or L is over the budget, c1 is sampled on a grid across the
    band (``_grid_failures``).  Where it takes both signs there, the check
    fails at the points of its largest and smallest values; otherwise the
    crossing is not proven (``details["not_proven"]`` where no sign is), and
    the check fails at the grid point of least |c1|.
    """
    from .charts import Interval
    from .verify import MAX_FAILURES, CheckReport

    lo, hi = v_range
    Interval(lo, hi)  # refuses an empty, falling or non-finite band
    step = _LEAF_STEP
    max_arc = _LEAF_ARC_FACTOR * (hi - lo)
    details = {"step": step, "max_arc": max_arc}
    mid = 0.5 * (lo + hi)

    def report(passed: bool, n_points: int, min_gap: float, failures: list) -> CheckReport:
        return CheckReport(
            name=name,
            passed=passed,
            n_points=n_points,
            min_gap=float(min_gap),
            failures=tuple(failures[:MAX_FAILURES]),
            details=details,
        )

    def at_seeds(value: float) -> list[dict]:
        seeds = np.linspace(0.0, math.tau, _LEAF_SEEDS, endpoint=False)
        return [{"point": {"u": float(u), "v": float(mid)}, "value": float(value)} for u in seeds]

    c1, c2 = pulled.components
    proofs = _proven_signs(c1, lo, hi)
    first = next(proofs, None)
    sign = first[0] if first else 0.0
    if sign and pulled.chart.coords[1].is_angular and hi - lo >= math.tau:
        return report(False, _LEAF_SEEDS, 0.0, at_seeds(math.nan))
    if sign and not c2.terms:
        budget = int(math.ceil(max_arc / step))
        # the loop's step ((e + 2e) + 2e + e) * (step / 6) of e = (+0.0, s)
        dv = sign * (6.0 * (step / 6.0))
        fwd = _vertical_leaf(mid, dv, lo, hi, budget)
        bwd = _vertical_leaf(mid, -dv, lo, hi, budget)
        ok = fwd[1] and bwd[1] and (fwd[0] >= hi) != (bwd[0] >= hi)
        if ok:
            # integrating the forward leaf back over its own step count
            # must reproduce its seed
            back = _vertical_leaf(fwd[0], -dv, -math.inf, math.inf, fwd[2])[0]
            ok = abs(back - mid) <= _RETRACE_TOL
        if ok:
            return report(True, _LEAF_SEEDS, 1.0 - (fwd[2] + bwd[2]) * step / max_arc, [])
        return report(False, _LEAF_SEEDS, 0.0, at_seeds(fwd[0] if fwd[1] else math.nan))
    arc, count = _arc_bound(c2, itertools.chain([first], proofs), max_arc) if sign else (None, 0)
    if arc is not None:
        details["arc_bound"] = arc
        if arc <= max_arc:
            return report(True, count, 1.0 - arc / max_arc, [])
    sampled, failures, both = _grid_failures(pulled, lo, hi)
    if arc is None and not both:
        details["not_proven"] = True
    return report(False, sampled, 0.0 if arc is None else 1.0 - arc / max_arc, failures)


# -- singularities of direction fields -------------------------------------------


def _plane_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=-1) of (..., 2) vectors, with the same bits:
    both take sqrt(v0 * v0 + v1 * v1), without a reduction over an axis of
    length 2, which costs several times the arithmetic."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1])


def _radius(pts: np.ndarray) -> np.ndarray:
    """rho = hypot(p, q) of (..., 2) points, the radius every radial piece
    of the disk classifier reads."""
    return np.hypot(pts[..., 0], pts[..., 1])


@dataclass(frozen=True)
class ClassifierField:
    """A plane direction field with analytic Jacobian and a signing level.

    ``value`` maps (..., 2) points to the (..., 2) vectors V; ``jacobian``
    maps them to the pair (V, J), with J of shape (..., 2, 2) and V equal
    to what ``value`` returns; ``level`` is the scalar whose sign at a zero
    decides between the positive and negative singularity classes.
    """

    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    level: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ClassifierBounds:
    """Interval enclosures of a classifier field over boxes: the proof data
    of ``find_and_classify``.

    Each callable takes the lower and upper corners, (m, 2) arrays, of m
    closed boxes, and encloses the exact field there.  ``value`` returns
    the enclosures (V_p, V_q), ``jacobian`` ((J_pp, J_pq), (J_qp, J_qq)),
    and ``level`` that of the level function.
    """

    value: Callable[[np.ndarray, np.ndarray], tuple[Enclosure, Enclosure]]
    jacobian: Callable[[np.ndarray, np.ndarray], tuple[tuple[Enclosure, Enclosure], ...]]
    level: Callable[[np.ndarray, np.ndarray], Enclosure]


def _affine_bounds(matrix, offset, level: float) -> ClassifierBounds:
    """The bounds of V(z) = matrix z + offset with a constant level."""
    a = np.asarray(matrix, float)
    b = np.asarray(offset, float)

    def value(lo, hi):
        p, q = Enclosure(lo[:, 0], hi[:, 0]), Enclosure(lo[:, 1], hi[:, 1])
        return tuple(p * a[i, 0] + q * a[i, 1] + b[i] for i in range(2))

    def jacobian(lo, hi):
        return tuple(tuple(Enclosure.of(np.full(len(lo), a[i, j])) for j in range(2)) for i in range(2))

    def bound_level(lo, hi):
        return Enclosure.of(np.full(len(lo), float(level)))

    return ClassifierBounds(value, jacobian, bound_level)


@dataclass(frozen=True)
class SingularityReport:
    zeros: tuple[dict, ...]
    counts: dict
    euler_identity: int
    relative_euler: int
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "e_plus": int(self.counts["e_plus"]),
            "e_minus": int(self.counts["e_minus"]),
            "h_plus": int(self.counts["h_plus"]),
            "h_minus": int(self.counts["h_minus"]),
            "euler_identity": int(self.euler_identity),
            "relative_euler": int(self.relative_euler),
        }


def find_and_classify(
    classifier: ClassifierField, bounds: ClassifierBounds, seeds: np.ndarray, radius: float
) -> SingularityReport:
    """Locate the zeros of a plane direction field on the unit disk, and
    prove their count, types and signs on the disk of ``radius``.

    The caller proves that no zero lies between ``radius`` and the unit
    circle, and ``bounds`` encloses the field over boxes.  Newton's method
    with the analytic Jacobian runs from each of ``seeds`` for at most
    ``_NEWTON_ROUNDS`` rounds; a seed leaves the active set when it dies
    (singular Jacobian, or ``|z| >= 2``) or when it starts a round with
    ``|V| <= 1e-10``: it takes that round's step and stops.  Each round
    takes V and J from one ``jacobian`` call.  The end points inside the
    disk that pass the final ``|V| <= 1e-10`` test, one ``value`` call over
    all of them, are deduplicated (the first in seed order stands for every
    point within 1e-6 of it) and sorted.

    The proof (``interval.prove_zeros``, ``interval.exclude_zeros``): a
    Krawczyk box around each zero found holds exactly one zero of the
    field, and there the enclosures of det J and of the level exclude 0,
    which fixes its type (elliptic where det J > 0, hyperbolic where it is
    negative) and sign; every other point of the disk of ``radius`` lies in
    a box where the enclosure of V excludes 0.  Where either fails, no count is proven and
    ``ValueError`` names the box.  The ``det``, ``level`` and ``residual``
    of a zero are the float values at its point, from one ``jacobian``
    call over the zeros; ``degenerate`` says that one of |det| and |level|
    is below 1e-8 there.
    """
    z = _newton_points(classifier, seeds)
    small = _plane_norms(classifier.value(z)) <= _ZERO_RESIDUAL
    good = small & (_plane_norms(z) < _DISK_RADIUS)  # False on non-finite rows

    rest = z[good]
    unique: list[np.ndarray] = []
    while len(rest):
        unique.append(rest[0])
        rest = rest[_plane_norms(rest - rest[0]) > _DEDUPE_TOL]
    unique.sort(key=lambda p: (round(float(p[0]), 9), round(float(p[1]), 9)))
    arr = np.stack(unique) if unique else np.zeros((0, 2))

    zeros = []
    counts = {"e_plus": 0, "e_minus": 0, "h_plus": 0, "h_minus": 0}
    degenerate = False
    boxes = (arr, arr)
    if unique:
        V, jac = classifier.jacobian(arr)
        dets = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        levels = classifier.level(arr)
        residuals = _plane_norms(V)
        elliptic, positive, boxes = prove_zeros(bounds, arr, jac, radius)
        for p, det, lev, res, ell, pos in zip(arr, dets, levels, residuals, elliptic, positive):
            if abs(det) < 1e-8 or abs(lev) < 1e-8:
                degenerate = True
            kind = "elliptic" if ell else "hyperbolic"
            sign = 1 if pos else -1
            key = ("e" if ell else "h") + ("_plus" if pos else "_minus")
            counts[key] += 1
            zeros.append(
                {
                    "p": float(p[0]),
                    "q": float(p[1]),
                    "type": kind,
                    "sign": sign,
                    "det": float(det),
                    "level": float(lev),
                    "residual": float(res),
                }
            )
    exclude_zeros(bounds.value, radius, *boxes)
    euler = counts["e_plus"] + counts["e_minus"] - counts["h_plus"] - counts["h_minus"]
    relative = counts["e_plus"] - counts["e_minus"] - counts["h_plus"] + counts["h_minus"]
    return SingularityReport(tuple(zeros), counts, euler, relative, degenerate)


def _newton_points(classifier: ClassifierField, seeds: np.ndarray) -> np.ndarray:
    """Where each seed is after the Newton rounds (active-set and stop rules
    in ``find_and_classify``)."""
    z = np.array(seeds, float).reshape(-1, 2)
    active = np.arange(len(z))
    za = z.copy()  # the points of the active seeds, z[active]
    for _ in range(_NEWTON_ROUNDS):
        if not active.size:
            break
        V, J = classifier.jacobian(za)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        ok = np.abs(det) > 1e-300
        inv_det = np.where(ok, det, 1.0)
        moved = np.empty(za.shape)
        moved[:, 0] = za[:, 0] - (J[:, 1, 1] * V[:, 0] - J[:, 0, 1] * V[:, 1]) / inv_det
        moved[:, 1] = za[:, 1] - (-J[:, 1, 0] * V[:, 0] + J[:, 0, 0] * V[:, 1]) / inv_det
        alive = ok & (_plane_norms(za) < 2.0 * _DISK_RADIUS)
        converged = _plane_norms(V) <= _ZERO_RESIDUAL
        if not alive.all():
            za, moved, active, converged = za[alive], moved[alive], active[alive], converged[alive]
        z[active] = moved
        keep = ~converged
        active, za = active[keep], moved[keep]
    return z


def _turns(a: np.ndarray, b: np.ndarray, closed: bool) -> float:
    ang = np.arctan2(b, a)
    if closed:
        ang = np.concatenate([ang, ang[:1]])
    d = np.diff(ang)
    d = (d + math.pi) % math.tau - math.pi
    return float(d.sum() / math.tau)


def classifier_boundary_winding(classifier: ClassifierField, radius: float) -> float:
    """Turns of the field along the positively oriented circle of a radius,
    sampled at 2048 points."""
    t = np.linspace(0.0, math.tau, _WINDING_SAMPLES, endpoint=False)
    circle = radius * np.stack([np.cos(t), np.sin(t)], axis=-1)
    V = classifier.value(circle)
    return _turns(V[:, 0], V[:, 1], True)


def boundary_winding_vs_index(
    boundary_field: VectorField,
    frame: Sequence[VectorField],
    loop,
    report: SingularityReport,
    n_samples: int = 1024,
) -> dict:
    """Compare a boundary field's frame winding against the relative index sum."""
    from .invariants import twisting_number

    w = twisting_number(boundary_field, frame, loop, n_samples=n_samples)
    return {
        "winding": int(w.value),
        "winding_residual": float(w.residual),
        "relative_euler": int(report.relative_euler),
        "match": bool(w.value == report.relative_euler),
    }


# -- the disk constructor ---------------------------------------------------------


def _smoothstep_jet(t: np.ndarray, orders: Sequence[int]) -> tuple[np.ndarray, ...]:
    """The asked orders of smoothstep at ``t`` clipped to [0, 1], in the
    order asked: 0 is the value, 1 and 2 the derivatives.

    The polynomials run only on the band 0 < t < 1.  Outside it the value
    is ``np.clip(t, 0, 1)``, which is what the polynomial gives there
    (exactly 0 or 1, with the sign of -0.0 and NaN passed through), and
    both derivatives are +0.0, at a NaN ``t`` too.
    """
    t = np.asarray(t, float)
    flat = t.reshape(-1)
    band = ((flat > 0.0) & (flat < 1.0)).nonzero()[0]
    tb = flat[band]
    jets = []
    for order in orders:
        jet = t.clip(0.0, 1.0) if order == 0 else np.zeros(t.shape)
        if band.size:
            jet.reshape(-1)[band] = SMOOTHSTEP[order](tb)
        jets.append(jet)
    return tuple(jets)


@dataclass(frozen=True)
class _RadialRamps:
    """0 + sum of smoothstep transitions, exactly ``final`` past the last one."""

    ramps: tuple[tuple[float, float, float], ...]  # (start, end, jump)
    final: float

    def jet(
        self, rho: np.ndarray, orders: Sequence[int], shared: "dict | None" = None
    ) -> tuple[np.ndarray, ...]:
        """The asked orders (0: value, 1: first derivative) at ``rho``.

        Each ramp runs its smoothstep only on its band 0 < t < 1.  Below the
        band its term is a signed zero, and above it the jump (value) or +0.0
        (derivative).  The sums start from +0.0 and so are never -0.0, and
        adding a zero leaves them as they are.  A NaN rho takes no term.

        ``shared``, passed along by profiles taken on the same ``rho``,
        holds the largest rho and each (start, end) ramp's t >= 1 mask, band
        and smoothstep values, computed once.  A ramp that starts at or past
        the largest rho adds nothing and is skipped, as is the ``final``
        fill short of the last ramp's end; a NaN rho skips nothing.
        """
        rho = np.asarray(rho)
        flat = rho.reshape(-1)
        shared = {} if shared is None else shared
        if "top" not in shared:
            shared["top"] = flat.max(initial=-np.inf)
        jets = tuple(np.zeros(flat.shape) for _ in orders)
        for a, b, jump in self.ramps:
            if shared["top"] <= a:
                continue
            if (a, b) not in shared:
                t = (flat - a) / (b - a)
                band = ((t > 0.0) & (t < 1.0)).nonzero()[0]
                shared[a, b] = (t >= 1.0, band, t[band], {})
            above, band, tb, steps = shared[a, b]
            for order, acc in zip(orders, jets):
                if order == 0:
                    np.add(acc, jump, out=acc, where=above)
                if band.size:
                    if order not in steps:
                        steps[order] = SMOOTHSTEP[order](tb)
                    scale = jump if order == 0 else jump / (b - a)
                    acc[band] += scale * steps[order]
        if 0 in orders and not shared["top"] < self.ramps[-1][1]:
            np.copyto(jets[list(orders).index(0)], self.final, where=flat >= self.ramps[-1][1])
        return tuple(jet.reshape(rho.shape) for jet in jets)

    def enclose(
        self, rho: Enclosure, orders: Sequence[int], shared: "dict | None" = None
    ) -> tuple[Enclosure, ...]:
        """Enclosures of the asked orders over ``rho``: the sum over the
        ramps of jump S(t), or jump S'(t) / (end - start), at t = (rho -
        start) / (end - start), and also ``final`` where rho reaches the
        last ramp's end.

        A ramp that starts at or past the largest rho adds exactly 0 and is
        skipped.  ``shared``, passed along by profiles taken on the same
        ``rho``, holds each (start, end) ramp's t and its S and S'
        enclosures, computed once.
        """
        shared = {} if shared is None else shared
        top = rho.hi.max(initial=-np.inf)
        jets = []
        for order in orders:
            jet = Enclosure.of(0.0)
            for a, b, jump in self.ramps:
                if top <= a:
                    continue
                if (a, b) not in shared:
                    shared[a, b] = {"t": (rho - a) / (b - a)}
                steps = shared[a, b]
                if order not in steps:
                    steps[order] = (smoothstep if order == 0 else smoothstep_slope)(steps["t"])
                jet = jet + (steps[order] * jump if order == 0 else steps[order] * jump / (b - a))
            if order == 0:
                # where rho reaches past the last ramp, the value there is final
                past = rho.hi >= self.ramps[-1][1]
                jet = Enclosure(
                    np.where(past, np.minimum(jet.lo, self.final), jet.lo),
                    np.where(past, np.maximum(jet.hi, self.final), jet.hi),
                )
            jets.append(jet)
        return tuple(jets)

    def span(self, near: np.ndarray, far: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The least and greatest value over rho in [near, far], in plain
        float arithmetic, with an allowance for their rounding.

        Each ramp adds jump S(t) over t in [t(near), t(far)], from the ends
        since S rises; past the last ramp's end the value is ``final``.  A
        computed t is within 4 u (rho + start) / (end - start) of the exact
        one when rho is within 2 u rho of its own (u = 2^-53), S moves by at
        most 15/8 per unit of t, and its float value is within 248 u of the
        exact one (``smoothstep``), so each ramp's ends, and their sums, are
        within 270 u |jump| (1 + (far + start) / (end - start)) of exact;
        the allowance is 2^-40 = 8192 u times that.  A ramp that starts at
        or past every ``far`` adds exactly 0 and is skipped.
        """
        lo, hi, slack = np.zeros(len(far)), np.zeros(len(far)), np.zeros(len(far))
        top = far.max(initial=-np.inf)
        for a, b, jump in self.ramps:
            if top <= a:
                continue
            at_near = SMOOTHSTEP[0](np.clip((near - a) / (b - a), 0.0, 1.0)) * jump
            at_far = SMOOTHSTEP[0](np.clip((far - a) / (b - a), 0.0, 1.0)) * jump
            lo += np.minimum(at_near, at_far)
            hi += np.maximum(at_near, at_far)
            slack += abs(jump) * (1.0 + (far + a) / (b - a))
        if not top < self.ramps[-1][1]:
            past = far >= self.ramps[-1][1]
            lo = np.where(past, np.minimum(lo, self.final), lo)
            hi = np.where(past, np.maximum(hi, self.final), hi)
        return lo, hi, 2.0**-40 * slack


def _gaussian_bundle(
    centers: np.ndarray, amplitude: float, width: float, t0: float, t1: float
) -> Callable:
    """``bundle(pts, orders)``: the asked orders of a sum of truncated
    Gaussians at (..., 2) points, in the order asked: 0 is the value, 1 the
    gradient (..., 2) and 2 the Hessian (..., 2, 2).

    Each bump is exp(-d^2 / 2 w^2) faded to exactly zero between t0*w and
    t1*w away from its center by a reversed smoothstep.

    A bump is evaluated only on the points inside the box of half-width
    ``1.001 * t1 * w`` around its center.  Outside that box the fade
    parameter is at least 1, so the bump and its derivatives are signed
    zeros, and adding them would leave every sum bitwise unchanged.  The
    0.1% margin keeps rounding in ``hypot`` from leaving a point with fade
    parameter just below 1 outside the box.

    Every bump is evaluated in one pass.  Points outside the box around all
    the bump boxes are dropped, one box test of the rest against all
    centers gives the (bump, point) pairs in bump-major order, and the bump
    formulas run once on the flat pair arrays, for the orders asked only:
    the value g0 = E * chi when order 0 is asked, and the radial
    derivatives when a higher one is.  ``np.bincount`` sums each output
    slot per point and writes it straight into that slot, over all the
    points.  It adds in input order starting from 0.0, so each point takes
    its contributions in center order, and the sums match a dense
    all-points evaluation bit for bit; a point in no pair takes the +0.0 of
    a sum over no pairs.
    """
    w2 = width * width
    fade_lo = t0 * width
    fade_w = (t1 - t0) * width
    reach = 1.001 * t1 * width
    cx, cy = centers.T.copy()
    cp, cq = cx[:, None], cy[:, None]
    # the box around every bump's box, 0.1% wider so that rounding in the
    # offsets cannot bring a point outside it within reach of a bump
    lo = centers.min(axis=0) - 1.001 * reach
    hi = centers.max(axis=0) + 1.001 * reach

    def pairs(flat: np.ndarray, orders: Sequence[int]):
        """For every (bump, point) pair in reach, the point's index in
        ``flat``, the offsets and distance there, and the bump's radial
        derivatives of the asked orders by order; None when no pair is in
        reach."""
        p, q = flat[:, 0], flat[:, 1]
        cand = ((p >= lo[0]) & (p <= hi[0]) & (q >= lo[1]) & (q <= hi[1])).nonzero()[0]
        if not cand.size:
            return None
        p, q = p[cand], q[cand]
        # one (bumps, candidates) buffer for both coordinates' offsets
        off = np.subtract(p, cp)
        near = np.abs(off, out=off) <= reach
        near &= np.abs(np.subtract(q, cq, out=off), out=off) <= reach
        bump, sub = near.nonzero()
        if not sub.size:
            return None
        dp = p[sub] - cx[bump]
        dq = q[sub] - cy[bump]
        d = np.hypot(dp, dq)
        E = np.exp(-0.5 * d * d / w2)
        top = max(orders)
        fade = _smoothstep_jet((d - fade_lo) / fade_w, range(top + 1))
        chi = 1.0 - fade[0]
        g = {}
        if 0 in orders:
            g[0] = E * chi
        if top >= 1:
            chi_d1 = -fade[1] / fade_w
            E_d1 = -(d / w2) * E
            g[1] = E_d1 * chi + E * chi_d1
        if top >= 2:
            chi_d2 = -fade[2] / (fade_w * fade_w)
            E_d2 = (d * d / (w2 * w2) - 1.0 / w2) * E
            g[2] = E_d2 * chi + 2.0 * E_d1 * chi_d1 + E * chi_d2
        return cand[sub], dp, dq, d, g

    def bundle(pts: np.ndarray, orders: Sequence[int]) -> tuple[np.ndarray, ...]:
        flat = pts.reshape(-1, 2)
        n = len(flat)
        found = pairs(flat, orders)
        if found is None:
            jets = [np.zeros((n,) + (2,) * order) for order in orders]
            return tuple(jet.reshape(pts.shape[:-1] + jet.shape[1:]) for jet in jets)
        idx, dp, dq, d, g = found
        safe = np.maximum(d, 1e-30)
        jets = []
        for order in orders:
            if order == 0:
                jet = np.bincount(idx, amplitude * g[0], n)
            elif order == 1:
                jet = np.empty((n, 2))
                ag1 = amplitude * g[1]
                jet[:, 0] = np.bincount(idx, ag1 * dp / safe, n)
                jet[:, 1] = np.bincount(idx, ag1 * dq / safe, n)
            else:
                up, uq = dp / safe, dq / safe
                radial = g[1] / safe
                hpp = g[2] * up * up + radial * uq * uq
                hpq = (g[2] - radial) * up * uq
                hqq = g[2] * uq * uq + radial * up * up
                # at a center the radial formulas do not apply: the Hessian is g2 I
                at = (d < 1e-9).nonzero()[0]
                if at.size:
                    hpp[at], hpq[at], hqq[at] = g[2][at], 0.0, g[2][at]
                jet = np.empty((n, 2, 2))
                jet[:, 0, 0] = np.bincount(idx, amplitude * hpp, n)
                jet[:, 0, 1] = jet[:, 1, 0] = np.bincount(idx, amplitude * hpq, n)
                jet[:, 1, 1] = np.bincount(idx, amplitude * hqq, n)
            jets.append(jet.reshape(pts.shape[:-1] + jet.shape[1:]))
        return tuple(jets)

    return bundle


@dataclass(frozen=True)
class _DiskPieces:
    """Page-disk closures that give the asked orders, in the order asked.

    ``u(pts, rho, orders)``: 0 is u, 1 its gradient, 2 its Hessian.  ``rho``
    is ``_radius(pts)``, passed in so that a caller that reads rho itself
    computes it once.
    ``profiles(rho, c_orders, s_orders)``: the radial profiles c and s, as
    two tuples; 0 is the value, 1 the derivative in rho.  Both are taken in
    one call: their shared first ramp computes its t, band and smoothstep
    values once, and a ramp that starts at or past every rho is skipped.
    ``u`` takes its bump sums from ``_gaussian_bundle``, which computes
    only the orders asked.
    ``cluster_end``: the radius past which every bump is exactly 0, and
    the classifier provably has no zero: |V| >= min(swirl, s_fall[0]) there
    (``_assemble_pieces`` checks the conditions), so the proof of the zero
    count covers only the disk inside it.
    ``exact_radius``: the last end radius of the layout (bump cluster, c/s
    band, wall, c rise, s fall), below 1.  Wherever ``_radius`` reaches it,
    u == 1 and V == -z in floats, so the form is dx + p dq - q dp
    (``test_disk_form_is_exact_past_its_exact_radius``).
    ``bounds``: the classifier's enclosures over boxes (``_disk_bounds``).
    ``seeds``: the design seeds, the bump centres and the midpoints between
    neighbouring centres.
    """

    u: Callable
    profiles: Callable
    cluster_end: float
    exact_radius: float
    bounds: ClassifierBounds
    seeds: np.ndarray


def _assemble_pieces(k: int, params: dict) -> _DiskPieces:
    e = (k + 1) // 2
    width = params["width"]
    spacing = params["spacing"] * width
    amplitude = params["amplitude"]
    floor = params["floor"]
    wall_lo, wall_hi = params["wall"]
    trunc_lo, trunc_hi = params["trunc"]

    offsets = (np.arange(e) - 0.5 * (e - 1)) * spacing
    centers = np.stack([offsets, np.zeros(e)], axis=-1)
    p_max = float(np.abs(offsets).max()) if e else 0.0
    cluster_end = p_max + trunc_hi * width

    bundle = _gaussian_bundle(centers, amplitude, width, trunc_lo, trunc_hi)

    one_plus = 1.0 + floor
    wall_w = wall_hi - wall_lo

    def u(pts: np.ndarray, rho: np.ndarray, orders: Sequence[int]) -> tuple[np.ndarray, ...]:
        flat = pts.reshape(-1, 2)
        rho = rho.reshape(-1)
        t = (rho - wall_lo) / wall_w
        # u is written as 1 - (1+h)(1-sigma) so that its outside value is exactly 1
        wall = 1.0 - one_plus * (1.0 - _smoothstep_jet(t, (0,))[0]) if 0 in orders else None
        # the wall's gradient and Hessian terms run only on its band 0 < t < 1:
        # outside it, at a finite point, they are +0.0 times finite factors,
        # and adding a zero to the bundle's sums, which are never -0.0, leaves
        # them as they are (a non-finite point keeps a non-finite V and J)
        band = ((t > 0.0) & (t < 1.0)).nonzero()[0]
        if band.size:
            tb, (pb, qb) = t[band], flat[band].T
            safe = np.maximum(rho[band], 1e-30)
            w1 = one_plus * SMOOTHSTEP[1](tb) / wall_w
        del t  # the bundle pass below is the peak on the contact grid
        jets = []
        for order, jet in zip(orders, bundle(flat, orders)):
            if order == 0:
                jet = wall + jet
            elif order == 1 and band.size:
                jet[band, 0] += w1 * pb / safe
                jet[band, 1] += w1 * qb / safe
            elif band.size:
                w2 = one_plus * SMOOTHSTEP[2](tb) / (wall_w * wall_w)
                up, uq = pb / safe, qb / safe
                radial = w1 / safe
                jet[band, 0, 0] += w2 * up * up + radial * uq * uq
                jet[band, 1, 1] += w2 * uq * uq + radial * up * up
                cross = (w2 - radial) * up * uq
                jet[band, 0, 1] += cross
                jet[band, 1, 0] += cross
            jets.append(jet.reshape(pts.shape[:-1] + jet.shape[1:]))
        return tuple(jets)

    # c and s switch on across [ca, cb], radii chosen so every point of the
    # transition band is still within the live tail of some peak: the band
    # must finish before the first exactly-flat pocket, which appears at
    # distance trunc_hi * width from the innermost peak
    ca = params["c_on"][0] * width
    cb = params["c_on"][1] * width
    p_inner = float(np.abs(offsets).min()) if e else 0.0
    flat_onset = math.sqrt(max((trunc_hi * width) ** 2 - p_inner**2, 0.0))
    if cb >= flat_onset:
        raise ValueError("profile transition band reaches a flat pocket")
    c_rise = params["c_rise"]
    c_profile = _RadialRamps(
        ((ca, cb, -params["c_dip"]), (c_rise[0], c_rise[1], 1.0 + params["c_dip"])),
        final=1.0,
    )
    s_fall = params["s_fall"]
    s_profile = _RadialRamps(
        ((ca, cb, params["swirl"]), (s_fall[0], s_fall[1], -params["swirl"])),
        final=0.0,
    )

    def profiles(rho: np.ndarray, c_orders: Sequence[int], s_orders: Sequence[int]):
        # c and s share their first ramp (ca, cb): its t, band and
        # smoothstep values are computed once
        shared: dict = {}
        return c_profile.jet(rho, c_orders, shared), s_profile.jet(rho, s_orders, shared)

    if cluster_end >= wall_lo:
        raise ValueError("peak cluster does not fit inside the wall radius")
    # past cluster_end every bump is exactly 0, so V = (w' - c rho) e_rho + s e_theta
    # there.  On [cluster_end, s_fall[0]], past the c/s band, s = swirl exactly;
    # past s_fall[0], beyond the wall ramp and the c rise, w' = 0 and c = 1, so
    # V = -rho e_rho + s e_theta.  Hence |V| >= min(swirl, s_fall[0]) > 0 past
    # cluster_end: no zero lies there, and the zero count is proven inside it
    if not (
        cb <= cluster_end
        and wall_hi <= s_fall[0]
        and c_rise[1] <= s_fall[0]
        and min(params["swirl"], s_fall[0]) > 0.0
    ):
        raise ValueError("classifier is not proven zero-free past the peak cluster")
    # past the last end of the layout every bump is 0, the wall is 1, c is
    # 1 and s is 0, each exactly, so u == 1 and V == -z in floats
    exact_radius = max(cluster_end, cb, wall_hi, c_rise[1], s_fall[1])
    if not exact_radius < _DISK_RADIUS:
        raise ValueError("the disk form is not exact near the boundary circle")

    return _DiskPieces(
        u=u,
        profiles=profiles,
        cluster_end=cluster_end,
        exact_radius=exact_radius,
        bounds=_disk_bounds(centers, params, c_profile, s_profile),
        seeds=np.concatenate([centers, 0.5 * (centers[:-1] + centers[1:])]),
    )


def _floor_at(x: Enclosure, a: float) -> Enclosure:
    """``x`` with both ends raised to at least ``a`` > 0.  A term that is 0
    wherever x <= a may divide by this instead of x: where x > a the two
    agree, and where x <= a the term's other factor holds 0."""
    return Enclosure(np.maximum(x.lo, a), np.maximum(x.hi, a))


def _product_span(a_lo, a_hi, x_lo, x_hi) -> tuple[np.ndarray, np.ndarray]:
    """The least and greatest float product of an end of [a_lo, a_hi] and
    one of [x_lo, x_hi]."""
    ends = (a_lo * x_lo, a_lo * x_hi, a_hi * x_lo, a_hi * x_hi)
    return (
        np.minimum(np.minimum(ends[0], ends[1]), np.minimum(ends[2], ends[3])),
        np.maximum(np.maximum(ends[0], ends[1]), np.maximum(ends[2], ends[3])),
    )


def _disk_bounds(
    centers: np.ndarray,
    params: dict,
    c_profile: _RadialRamps,
    s_profile: _RadialRamps,
) -> ClassifierBounds:
    """Enclosures of the disk classifier V = grad u - c rho e_rho + s
    e_theta, of its Jacobian and of u, over boxes.

    They enclose the exact field with the float constants the float code
    uses (the centres, w^2, the fade's start and width, each ramp's width).
    A bump is G(d) = E(d) chi(d) at distance d from its centre, with E =
    exp(-d^2 / 2 w^2) and chi = 1 - S((d - t0 w) / ((t1 - t0) w)); with r
    the offset from the centre, its gradient is g1 r and its Hessian a r r^T
    + g1 I, where
        g1 = -E chi / w^2 - E S' / (f d),
        a = E (chi / w^4 + 2 S' / (w^2 f d) - S'' / (f^2 d^2) + S' / (f d^3)),
    f = (t1 - t0) w and S', S'' taken at the fade parameter.  The S' and
    S'' terms vanish where d <= t0 w, so they divide by d floored at t0 w
    (``_floor_at``); likewise the wall's and the profiles' terms that divide
    by rho, which vanish below the wall and below the first ramp.
    Each call takes the (box, bump) pairs within 1.001 t1 w of each other
    along both axes in one pass, as ``_gaussian_bundle`` does, and sums
    them per box with ``Enclosure.group_sums``; every other pair adds
    exactly 0.  ``value``, which the exclusion cover calls once per level,
    runs in plain float arithmetic with stated allowances (``slopes``);
    ``jacobian`` and ``level`` use ``Enclosure`` arithmetic, with S'' the
    natural interval extension of its polynomial on t clipped to [0, 1].
    """
    width = params["width"]
    amplitude = params["amplitude"]
    t0, t1 = params["trunc"]
    w2 = width * width
    fade_lo = t0 * width
    fade_w = (t1 - t0) * width
    reach = 1.001 * t1 * width
    cx, cy = centers.T.copy()
    one_plus = 1.0 + params["floor"]
    wall_lo, wall_hi = params["wall"]
    wall_w = wall_hi - wall_lo
    ramp_lo = min(a for a, _, _ in c_profile.ramps + s_profile.ramps)

    def pairs(lo, hi, orders):
        """The box index of each (box, bump) pair within reach, its offsets
        from the bump's centre, and the bump's g1 (order 1), a (order 2)
        and G (order 0) times the amplitude."""
        gap_p = np.maximum(lo[:, 0, None] - cx, cx - hi[:, 0, None])
        gap_q = np.maximum(lo[:, 1, None] - cy, cy - hi[:, 1, None])
        box, bump = ((gap_p <= reach) & (gap_q <= reach)).nonzero()
        dp = Enclosure(lo[box, 0], hi[box, 0]) - cx[bump]
        dq = Enclosure(lo[box, 1], hi[box, 1]) - cy[bump]
        d2 = dp**2 + dq**2
        E = (d2 * -0.5 / w2).exp() * amplitude
        d = d2.sqrt()
        t = (d - fade_lo) / fade_w
        chi = 1.0 - smoothstep(t)
        out = {}
        if 0 in orders:
            out[0] = E * chi
        if max(orders) >= 1:
            far = _floor_at(d, fade_lo) * fade_w  # f d, where S' and S'' live
            slope = E * smoothstep_slope(t)
            out[1] = -(E * chi) / w2 - slope / far
        if 2 in orders:
            tc = Enclosure(np.clip(t.lo, 0.0, 1.0), np.clip(t.hi, 0.0, 1.0))
            out[2] = (
                E * chi / w2 / w2
                + 2.0 * slope / w2 / far
                - E * SMOOTHSTEP[2](tc) / (far * far)
                + slope * fade_w * fade_w / (far * far * far)
            )
        return box, dp, dq, out

    def radial(lo, hi):
        p, q = Enclosure(lo[:, 0], hi[:, 0]), Enclosure(lo[:, 1], hi[:, 1])
        return p, q, (p**2 + q**2).sqrt()

    def wall_slope(rho):
        """w1 / rho, with w1 = (1 + floor) S'(t) / wall_w the wall's slope;
        exactly 0 where every rho is at most wall_lo."""
        if rho.hi.max(initial=-np.inf) <= wall_lo:
            return 0.0
        return smoothstep_slope((rho - wall_lo) / wall_w) * one_plus / wall_w / _floor_at(rho, wall_lo)

    # |g1| <= g_max everywhere: chi <= 1 and S' <= 15/8 where f d >= f t0 w
    g_max = amplitude * (1.0 / w2 + 1.875 / (fade_w * fade_lo))

    def slopes(lo, hi):
        """Enclosures of the bumps' gradient sum, one (box, bump) pair pass.

        For an offset r from a centre over the box, with d = |r| between
        the box's nearest and farthest distances dn and df from the centre,
        -g1(d) = E(d) (chi / w^2 + S' / (f max(d, t0 w))) lies between
        E(df) (chi(df) / w^2 + S'_min / (f max(df, t0 w))) and E(dn) (chi(dn)
        / w^2 + S'_max / (f max(dn, t0 w))), since E and chi fall with d;
        S'_min and S'_max bound S' over the clipped fade parameters of dn
        and df as ``smoothstep_slope`` does.  The product of that range with
        each coordinate range of r is taken from the ends.

        These steps run in plain float arithmetic.  Each rounding is
        relative to the quantity it rounds (u = 2^-53), and no step
        subtracts nearly equal magnitudes except 1 - S; an error theta
        relative to the exp's argument y moves A e^-y by at most A theta y
        e^-y <= A theta / e; exp itself is within ``interval.EXP_ULPS``; S and S'
        move by at most 15/8 and 2.9 per unit of t, and t by a few u per
        unit of d / f.  So each computed end is within 1,000 u g_max R of
        its exact value, with R the largest |r| over the box, and each is
        widened by 2^-40 g_max R, eight times that.  ``group_sums`` then
        adds them per box.
        """
        ap, bp = lo[:, 0, None] - cx, hi[:, 0, None] - cx
        aq, bq = lo[:, 1, None] - cy, hi[:, 1, None] - cy
        near_p = np.maximum(np.maximum(ap, -bp), 0.0)
        near_q = np.maximum(np.maximum(aq, -bq), 0.0)
        within = (near_p <= reach) & (near_q <= reach)
        box = within.nonzero()[0]
        ap, bp, aq, bq, near_p, near_q = (x[within] for x in (ap, bp, aq, bq, near_p, near_q))
        far_p, far_q = np.maximum(-ap, bp), np.maximum(-aq, bq)
        dn2, df2 = near_p * near_p + near_q * near_q, far_p * far_p + far_q * far_q
        dn, df = np.sqrt(dn2), np.sqrt(df2)
        tn = np.clip((dn - fade_lo) / fade_w, 0.0, 1.0)
        tf = np.clip((df - fade_lo) / fade_w, 0.0, 1.0)
        sn, sf = SMOOTHSTEP[1](tn), SMOOTHSTEP[1](tf)
        s_min = np.minimum(sn, sf)
        s_max = np.where((tn <= 0.5) & (0.5 <= tf), 1.875, np.maximum(sn, sf))
        g_lo = (amplitude * np.exp(df2 * (-0.5 / w2))) * (
            (1.0 - SMOOTHSTEP[0](tf)) / w2 + s_min / (fade_w * np.maximum(df, fade_lo))
        )
        g_hi = (amplitude * np.exp(dn2 * (-0.5 / w2))) * (
            (1.0 - SMOOTHSTEP[0](tn)) / w2 + s_max / (fade_w * np.maximum(dn, fade_lo))
        )
        slack = 2.0**-40 * g_max * df
        sums = []
        # g1 r over [-g_hi, -g_lo] x [a, b] is [g_lo, g_hi] x [-b, -a]
        for a, b in ((ap, bp), (aq, bq)):
            lower = -b * np.where(b > 0.0, g_hi, g_lo) - slack
            upper = -a * np.where(a < 0.0, g_hi, g_lo) + slack
            sums.append(Enclosure(lower, upper).group_sums(box, len(lo)))
        return sums

    def value(lo, hi):
        """The bumps' sums (``slopes``) plus (w1 / rho - c) z + (s / rho)
        (-q, p), the latter in plain float arithmetic over the box's radii
        [near, far]: the ranges of c and s come from ``_RadialRamps.span``
        and that of w1 / rho from its ends, as ``smoothstep_slope`` takes
        them, with its own allowance 2^-40 (1 + floor) / (wall_w wall_lo)
        (1 + (far + wall_lo) / wall_w); s / rho divides by rho floored at
        the first ramp's start.  Each product with p or q is taken from the
        ends, and each sum is widened by the allowances times max |p| or
        max |q| plus 2^-40 times its terms' magnitudes, which is far more
        than its own roundings."""
        n_p = np.maximum(np.maximum(lo[:, 0], -hi[:, 0]), 0.0)
        n_q = np.maximum(np.maximum(lo[:, 1], -hi[:, 1]), 0.0)
        f_p = np.maximum(-lo[:, 0], hi[:, 0])
        f_q = np.maximum(-lo[:, 1], hi[:, 1])
        near, far = np.sqrt(n_p * n_p + n_q * n_q), np.sqrt(f_p * f_p + f_q * f_q)
        c_lo, c_hi, c_slack = c_profile.span(near, far)
        s_lo, s_hi, s_slack = s_profile.span(near, far)
        a_lo, a_hi, a_slack = -c_hi, -c_lo, c_slack
        if far.max(initial=-np.inf) > wall_lo:
            t_near = np.clip((near - wall_lo) / wall_w, 0.0, 1.0)
            t_far = np.clip((far - wall_lo) / wall_w, 0.0, 1.0)
            at_near, at_far = SMOOTHSTEP[1](t_near), SMOOTHSTEP[1](t_far)
            most = np.where((t_near <= 0.5) & (0.5 <= t_far), 1.875, np.maximum(at_near, at_far))
            scale = one_plus / wall_w
            a_lo = a_lo + np.minimum(at_near, at_far) * scale / np.maximum(far, wall_lo)
            a_hi = a_hi + most * scale / np.maximum(near, wall_lo)
            a_slack = a_slack + 2.0**-40 * scale / wall_lo * (1.0 + (far + wall_lo) / wall_w)
        r_near, r_far = np.maximum(near, ramp_lo), np.maximum(far, ramp_lo)
        b_lo = s_lo / np.where(s_lo >= 0.0, r_far, r_near)
        b_hi = s_hi / np.where(s_hi >= 0.0, r_near, r_far)
        b_slack = s_slack / ramp_lo
        size_a = np.maximum(np.abs(a_lo), np.abs(a_hi))
        size_b = np.maximum(np.abs(b_lo), np.abs(b_hi))
        ap, aq = (_product_span(a_lo, a_hi, lo[:, i], hi[:, i]) for i in range(2))
        bp, bq = (_product_span(b_lo, b_hi, lo[:, i], hi[:, i]) for i in range(2))
        slack_p = a_slack * f_p + b_slack * f_q + 2.0**-40 * (size_a * f_p + size_b * f_q)
        slack_q = a_slack * f_q + b_slack * f_p + 2.0**-40 * (size_a * f_q + size_b * f_p)
        g_p, g_q = slopes(lo, hi)
        return (
            g_p + Enclosure(ap[0] - bq[1] - slack_p, ap[1] - bq[0] + slack_p),
            g_q + Enclosure(aq[0] + bp[0] - slack_q, aq[1] + bp[1] + slack_q),
        )

    def jacobian(lo, hi):
        n = len(lo)
        box, dp, dq, g = pairs(lo, hi, (1, 2))
        h_pp = (g[2] * dp**2 + g[1]).group_sums(box, n)
        h_pq = (g[2] * (dp * dq)).group_sums(box, n)
        h_qq = (g[2] * dq**2 + g[1]).group_sums(box, n)
        p, q, rho = radial(lo, hi)
        pp, pq, qq = p**2, p * q, q**2
        # the wall's gradient w1(rho) z / rho has the Jacobian
        # (w1' / rho^2 - w1 / rho^3) z z^T + (w1 / rho) I
        w1 = w_zz = wall_slope(rho)
        if isinstance(w1, Enclosure):
            tw = (rho - wall_lo) / wall_w
            rw = _floor_at(rho, wall_lo)
            tc = Enclosure(np.clip(tw.lo, 0.0, 1.0), np.clip(tw.hi, 0.0, 1.0))
            w_zz = (SMOOTHSTEP[2](tc) * one_plus / wall_w / wall_w - w1) / (rw * rw)
        # -d(c z) = -(c I + (c' / rho) z z^T); d(s (-q, p) / rho) =
        # (s' / rho^2 - s / rho^3) (-q, p) z^T + (s / rho) [[0, -1], [1, 0]]
        rs = _floor_at(rho, ramp_lo)
        shared: dict = {}
        (c, c1), (s, s1) = (profile.enclose(rho, (0, 1), shared) for profile in (c_profile, s_profile))
        c_zz = c1 / rs
        swirl = s / rs
        s_z = (s1 - swirl) / (rs * rs)
        diag = w1 - c
        return (
            (h_pp + (w_zz - c_zz) * pp + diag - s_z * pq, h_pq + (w_zz - c_zz) * pq - s_z * qq - swirl),
            (h_pq + (w_zz - c_zz) * pq + s_z * pp + swirl, h_qq + (w_zz - c_zz) * qq + diag + s_z * pq),
        )

    def level(lo, hi):
        """u(m) + grad u(X) . (X - m), with m the box's midpoint (the mean
        value theorem): its width is about |grad u| times the box's size,
        where a direct enclosure of the bump sum adds up every bump's own
        slope, which is far larger between two bumps."""
        mid = np.clip(0.5 * (lo + hi), lo, hi)
        box, _, _, g = pairs(mid, mid, (0,))
        _, _, rho = radial(mid, mid)
        wall = 1.0 - one_plus * (1.0 - smoothstep((rho - wall_lo) / wall_w))
        p, q, rho = radial(lo, hi)
        w1 = wall_slope(rho)
        g_p, g_q = slopes(lo, hi)
        return (
            g[0].group_sums(box, len(lo)) + wall
            + (g_p + w1 * p) * (Enclosure(lo[:, 0], hi[:, 0]) - mid[:, 0])
            + (g_q + w1 * q) * (Enclosure(lo[:, 1], hi[:, 1]) - mid[:, 1])
        )

    return ClassifierBounds(value, jacobian, level)


def _classifier_from_pieces(pieces: _DiskPieces) -> ClassifierField:
    """The classifier field V of the disk pieces, with its Jacobian.

    ``value`` returns V from a V-only pass: the gradient of u, and c and s
    without their derivatives.  ``jacobian`` returns (V, J) from one pass
    that also reads the Hessian of u and the derivatives of c and s.  Both
    compute V with the same arithmetic, written into one array by
    ``field``, so V has the same bits either way.
    """

    def field(g, c, sq, sp, p, q, safe):
        # V = grad u - c rho e_rho + s e_theta, with sq = s q and sp = s p,
        # written into one array
        V = np.empty(g.shape)
        np.subtract(g[..., 0] - c * p, sq / safe, out=V[..., 0])
        np.add(g[..., 1] - c * q, sp / safe, out=V[..., 1])
        return V

    def jacobian(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = np.asarray(pts, float)
        p, q = pts[..., 0], pts[..., 1]
        rho = _radius(pts)
        safe = np.maximum(rho, 1e-30)
        g, J = pieces.u(pts, rho, (1, 2))
        (c, c1), (s, s1) = pieces.profiles(rho, (0, 1), (0, 1))
        J00, J01, J10, J11 = J[..., 0, 0], J[..., 0, 1], J[..., 1, 0], J[..., 1, 1]
        # -d(c rho e_rho) = -(c I + (c'/rho) z z^T); each shared product
        # below is the leading product of every formula that uses it, so
        # each entry takes the operations of its formula, in their order
        c1p = c1 * p
        J00 -= c + c1p * p / safe
        J11 -= c + c1 * q * q / safe
        off = c1p * q / safe
        J01 -= off
        J10 -= off
        # +d(s e_theta), e_theta = (-q, p)/rho; -s1 q is -(s1 q) exactly
        r2 = safe * safe
        r3 = r2 * safe
        inv = 1.0 / safe
        ns1q, s1p, sq, sp = -s1 * q, s1 * p, s * q, s * p
        J00 += ns1q * p / r2 + sq * p / r3
        J01 += ns1q * q / r2 + s * (q * q / r3 - inv)
        J10 += s1p * p / r2 + s * (inv - p * p / r3)
        J11 += s1p * q / r2 - sp * q / r3
        return field(g, c, sq, sp, p, q, safe), J

    def value(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, float)
        p, q = pts[..., 0], pts[..., 1]
        rho = _radius(pts)
        safe = np.maximum(rho, 1e-30)
        (g,) = pieces.u(pts, rho, (1,))
        (c,), (s,) = pieces.profiles(rho, (0,), (0,))
        return field(g, c, s * q, s * p, p, q, safe)

    def level(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, float)
        return pieces.u(pts, _radius(pts), (0,))[0]

    return ClassifierField(value, jacobian, level)


def _contact_coefficient(pieces: _DiskPieces) -> Callable[[np.ndarray], np.ndarray]:
    """The top-wedge coefficient F of u dx + beta in coordinates (x, p, q).

    It reads u with its gradient and Hessian, from one pass, c with c', and
    s without s'.
    """

    def F(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, float)
        p, q = pts[..., 0], pts[..., 1]
        rho = _radius(pts)
        safe = np.maximum(rho, 1e-30)
        u, g, H = pieces.u(pts, rho, (0, 1, 2))
        lap = H[..., 0, 0] + H[..., 1, 1]
        del H  # the jets below need its room on the contact grid
        (c, c1), (s,) = pieces.profiles(rho, (0, 1), (0,))
        du_rho = (g[..., 0] * p + g[..., 1] * q) / safe
        du_theta = p * g[..., 1] - q * g[..., 0]
        grad_sq = g[..., 0] ** 2 + g[..., 1] ** 2
        return u * (-lap + 2.0 * c + rho * c1) + grad_sq - c * rho * du_rho + s * du_theta / safe

    return F


@dataclass(frozen=True)
class DiskContactForm:
    """A verified contact form on the disk bundle with k boundary twists.

    The form alpha = u dx + V_q dp - V_p dq is not stored as a field: beta
    and its partials are read off the value and Jacobian of the classifier
    V, and the certificates record what was checked of alpha.
    """

    k: int
    classifier: ClassifierField
    singularities: SingularityReport
    params: dict
    certificates: dict
    passed: bool


_MAX_K = 19  # no parameter set below is known to pass for a larger k


def _disk_params(k: int) -> dict:
    """The shape parameters of the disk with k twists, 1 <= k <= 19; k = 1
    reads only the exact radius of its layout.

    With the base set an extra negative pair of singularities appears at
    k = 17 and 19, just beyond the outermost bump; narrower bumps, and at
    k = 19 closer spacing and a deeper c dip, keep it off the disk.
    """
    e = (k + 1) // 2
    width = 0.3 / (1.6 * (e - 1) + 6.0)
    spacing, c_dip = 3.2, 0.2
    if k == 17:
        width *= 0.9
    elif k == 19:
        width *= 0.85
        spacing, c_dip = 3.0, 0.25
    return {
        "width": width,
        "spacing": spacing,
        "amplitude": 0.85,
        "floor": 0.6,
        "c_dip": c_dip,
        "swirl": 0.3,
        "c_on": (2.5, 5.0),  # transition band radii, in widths from the origin
        "wall": (0.40, 0.60),
        "c_rise": (0.50, 0.68),
        "s_fall": (0.70, 0.80),
        "trunc": (5.0, 6.0),
    }


def _exact_disk_form() -> DiskContactForm:
    """The k = 1 model: u = 1, beta = p dq - q dp, exact everywhere; its
    boundary certificates are read at the exact radius of the k = 1 layout,
    where every other disk glues to the collar."""

    def value(pts):
        return -np.asarray(pts, float)

    def jacobian(pts):
        pts = np.asarray(pts, float)
        J = np.zeros(pts.shape[:-1] + (2, 2))
        J[..., 0, 0] = -1.0
        J[..., 1, 1] = -1.0
        return -pts, J

    def level(pts):
        return np.ones(np.asarray(pts, float).shape[:-1])

    classifier = ClassifierField(value, jacobian, level)
    bounds = _affine_bounds(-np.eye(2), (0.0, 0.0), 1.0)
    report = find_and_classify(classifier, bounds, np.zeros((1, 2)), _DISK_RADIUS)
    exact_radius = _assemble_pieces(1, _disk_params(1)).exact_radius
    return _disk_form(1, classifier, report, {}, 2.0, exact_radius)


def _disk_form(
    k: int,
    classifier: ClassifierField,
    report: SingularityReport,
    params: dict,
    contact_min: float,
    exact_radius: float,
) -> DiskContactForm:
    """The disk with its certificates and verdict.  Past ``exact_radius``
    V = -z (``_DiskPieces``): beta's residual is 0, |V| = rho is least at
    the radius, and V turns once on every circle.  ``passed`` reads what can
    fail; ``find_and_classify`` proves every zero it returns nondegenerate,
    so ``degenerate`` is recorded only."""
    expected = {"e_plus": (k + 1) // 2, "e_minus": 0, "h_plus": 0, "h_minus": (k - 1) // 2}
    certificates = {
        "contact_min": contact_min,
        "boundary_residual": 0.0,
        "counts": dict(report.counts),
        "expected_counts": expected,
        "euler_identity": report.euler_identity,
        "relative_euler": report.relative_euler,
        "classifier_boundary_turns": 1.0,
        "boundary_min_speed": exact_radius,
        "degenerate": report.degenerate,
    }
    passed = (
        contact_min > 1e-6
        and report.counts == expected
        and report.euler_identity == 1
        and report.relative_euler == k
    )
    return DiskContactForm(k, classifier, report, params, certificates, passed)


def _disk_grid(radius: float, n: int) -> np.ndarray:
    """The points of the n x n grid on [-radius, radius]^2 with
    ``_plane_norms`` at most radius, in row-major order."""
    return _disk_points(np.linspace(-radius, radius, n), radius)


def _disk_points(axis: np.ndarray, radius: float) -> np.ndarray:
    """The points of the grid axis x axis with ``_plane_norms`` at most
    radius, in row-major order."""
    square = axis * axis
    inside = np.sqrt(square[:, None] + square) <= radius
    pts = np.empty((np.count_nonzero(inside), 2))
    pts[:, 0] = np.repeat(axis, inside.sum(axis=1))
    pts[:, 1] = np.broadcast_to(axis, inside.shape)[inside]
    return pts


def _contact_sample(cluster_end: float) -> tuple[np.ndarray, np.ndarray]:
    """The points of ``_disk_grid(1.0, _CONTACT_GRID_N)`` with ``_radius``
    at most ``cluster_end``, in row-major order, and the distinct radii of
    its points past it, without building the whole grid.

    The inner points lie in the sub-square |p|, |q| <= cluster_end of the
    grid's axis.  The radii are those of the pairs m1 <= m2 of the axis's
    distinct magnitudes: ``np.hypot`` is even in each argument and
    symmetric (C99 Annex F.10.4.3), and the disk test sums squares, so a
    grid point and its pair give the same radius and the same verdict.
    """
    axis = np.linspace(-1.0, 1.0, _CONTACT_GRID_N)
    pts = _disk_points(axis[np.abs(axis) <= cluster_end], 1.0)
    mags = np.unique(np.abs(axis))
    m1, m2 = mags[np.stack(np.triu_indices(len(mags)))]
    rho = np.hypot(m1, m2)
    ring = (np.sqrt(m1 * m1 + m2 * m2) <= 1.0) & (rho > cluster_end)
    return pts[_radius(pts) <= cluster_end], np.unique(rho[ring])


def construct_xi_prime(k: int) -> DiskContactForm:
    """Build a verified contact form on the disk bundle with k boundary twists.

    k must be odd with 1 <= k <= 19; larger k are refused before any work,
    since no parameter set is known to pass there.  The singularity counts
    of the page foliation come out as (k+1)/2 positive elliptic and (k-1)/2
    negative hyperbolic points, the index identities hold, and the contact
    coefficient F is positive on a 281 x 281 disk grid.  Past the layout's
    ``exact_radius`` (0.8) the form is dx + p dq - q dp by construction
    (``_DiskPieces``; ``test_disk_form_is_exact_past_its_exact_radius``),
    so the boundary certificates are exact values, not samples.  F is
    sampled at the grid points inside the bump cluster, and past it, where
    F depends on the radius alone, once at each radius of the grid's points
    there (``_contact_sample``): those radii are read off the pairs of the
    grid axis's magnitudes, which give the grid points' own radii because
    ``np.hypot`` is even and symmetric (C99 Annex F.10.4.3).  The
    singularity counts, types and signs are proven on the disk inside the
    bump cluster (``find_and_classify``, from the design seeds and
    ``_disk_bounds``); past it the classifier is V = f e_rho + g e_theta
    with |V| >= min(swirl, s_fall[0]) > 0 (``_assemble_pieces``), so no
    zero lies there.  The disk is built once from ``_disk_params(k)``;
    ``passed`` reads the contact sample, the counts and the index
    identities (``_disk_form``).
    """
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be a positive odd integer")
    if k > _MAX_K:
        raise ValueError(f"k = {k} is not supported: the disk is built for odd k up to {_MAX_K}")
    if k == 1:
        return _exact_disk_form()
    return _build_disk_form(k, _disk_params(k))


def _build_disk_form(k: int, params: dict) -> DiskContactForm:
    pieces = _assemble_pieces(k, params)
    classifier = _classifier_from_pieces(pieces)
    F = _contact_coefficient(pieces)

    # contact positivity on the dense disk grid: at its points inside
    # cluster_end, and past it, where every bump is exactly 0 and u, c and s
    # are radial, so F depends on rho alone, once per distinct radius of its
    # points, at (rho, 0).  Those radii come from pairs of the axis's
    # magnitudes, since np.hypot is even and symmetric (C99 Annex F.10.4.3)
    inner, radii = _contact_sample(pieces.cluster_end)
    ring = np.stack([radii, np.zeros_like(radii)], axis=-1)
    contact_min = float(min(F(inner).min(), F(ring).min()))

    report = find_and_classify(classifier, pieces.bounds, pieces.seeds, pieces.cluster_end)
    return _disk_form(k, classifier, report, dict(params), contact_min, pieces.exact_radius)
