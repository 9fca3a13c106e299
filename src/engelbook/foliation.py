"""Surface pullbacks, characteristic foliations, and the disk constructor.

This module owns everything that happens on 2-dimensional pieces: exact
pullbacks of one-forms to coordinate-slice surfaces (every surface the
catalog and the assembly use is such a slice), slopes of linear torus
foliations, leaf tracing on annuli, locating and classifying the
singularities of a direction field, and the construction of a contact form
on a disk bundle with a prescribed odd number of boundary twists.

The constructor realizes the form

    alpha = u dx + beta,    beta = V_q dp - V_p dq,

with u a chain of truncated Gaussian peaks over a negative floor, lifted
back to 1 through a radial wall, and c, s radial profiles that keep the
contact coefficient positive while steering the classifier field

    V = grad(u) - c rho e_rho + s e_theta

so that its zeros are exactly the prescribed singularities.  The page
foliation is directed by V and beta = -i_V(dp ^ dq), so beta and its
partials are read off the classifier's value and Jacobian.  Outside a
stated radius u is exactly 1, c is exactly 1, and s is exactly 0, so beta
agrees with p dq - q dp to the last float bit.  All certificates (contact
positivity, boundary exactness, singularity counts, index identities) are
checked numerically on dense grids before the object is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .charts import Chart, OneForm, VectorField
from .invariants import _turns, twisting_number
from .trigpoly import Expr, Mode

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
_LEAF_SEEDS = 8  # leaves traced per annulus
_LEAF_STEP = 1e-3
_LEAF_ARC_FACTOR = 50.0  # arc budget per leaf, in annulus widths
_RETRACE_TOL = 1e-4
_DISK_RADIUS = 1.0  # the page disk on which singularities are searched
_ZERO_RESIDUAL = 1e-10  # |V| at an accepted zero
_DEDUPE_TOL = 1e-6
_NEWTON_ROUNDS = 60  # Newton rounds of the singularity search
_WINDING_SAMPLES = 2048
_CONTACT_GRID_N = 281
_TRAP_CANDIDATE = (0.4115, 0.4440)  # the radii a disk's Newton trap is proven on
_TRAP_MARGIN = 1e-6  # delta: how far inside the trap its proven image stays
_TRAP_PIECES = 512  # subintervals of the trap's interval bound
_REPLAY_CHUNK = 256  # steps a straight-leaf replay predicts per direction call


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
        comps: list[Expr] = [self.surface.zero() for _ in range(self.surface.dim)]
        for i, c in enumerate(self.ambient.coords):
            target = self.assignment[c.name]
            if not isinstance(target, str):
                continue
            j = self.surface.index(target)
            comps[j] = comps[j] + alpha.components[i].substitute(self.surface.coords, images)
        return OneForm(self.surface, tuple(comps), alpha.label)


# -- torus slopes ----------------------------------------------------------------


def torus_slope(pulled: OneForm) -> float:
    """Slope of the linear kernel foliation of a constant form on a 2-torus.

    The pulled-back form (an exact slice pullback) must have constant
    coefficients (c1, c2) within 1e-9; the kernel line of c1 du + c2 dv has
    slope dv/du = -c1/c2, infinite when c2 vanishes.
    """
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
    if abs(c2) <= _SLOPE_CONST_TOL:
        return math.inf
    return -c1 / c2


# -- leaf tracing on annuli ------------------------------------------------------


def _row_norms(v: np.ndarray) -> np.ndarray:
    # the stacked matmul reduces each row with the same dot routine as
    # np.linalg.norm of a single vector, so one leaf traced alone or in a
    # batch takes the same bits
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _plane_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=-1) of (..., 2) vectors, with the same bits:
    both take sqrt(v0 * v0 + v1 * v1), without a reduction over an axis of
    length 2, which costs several times the arithmetic."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1])


def _radius(pts: np.ndarray) -> np.ndarray:
    """rho = hypot(p, q) of (..., 2) points, the radius every radial piece
    of the disk classifier reads."""
    return np.hypot(pts[..., 0], pts[..., 1])


def _replay_straight(
    direction: Callable[[np.ndarray], np.ndarray],
    z0: np.ndarray,
    e: np.ndarray,
    half: np.ndarray,
    full: np.ndarray,
    sixth: np.ndarray,
    budget: np.ndarray,
    inside: "Callable[[np.ndarray], np.ndarray] | None",
    angular: list[int],
    step: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The RK4 loop's traces of the rows whose leaves are straight, bit for bit.

    ``e`` is each row's unit vector at its start ``z0``, and ``half``,
    ``full`` and ``sixth`` are the loop's signed step factors.  If every
    stage unit vector of a row equals ``e`` in bits, its RK4 stages are all
    ``e``, so its step ``((e + 2e) + 2e + e) * sixth`` is one constant
    (taken with the loop's operations, in its order), its path is the float
    recurrence z_i = z_{i-1} + step, and its stage points are z_{i-1},
    z_{i-1} + half * e (stages 2 and 3 coincide) and z_{i-1} + full * e.

    Each round predicts ``_REPLAY_CHUNK`` steps of every row still running,
    finds its first stop on them with the loop's rules, and evaluates
    ``direction`` once, on the stage points of the steps up to that stop;
    no point beyond a leaf's exit is evaluated.  A row is replayed when
    every one of these stage unit vectors equals ``e`` and every norm is at
    least 1e-14.  Any other row, and a row that does not start finite, is
    left to the loop, which traces it from its start (and raises where the
    field vanishes).  Returns a mask of the replayed rows and, on those
    rows, the end points, exit flags and step counts.
    """
    m, dim = z0.shape
    done = np.zeros(m, bool)
    ends, exits, steps = z0.copy(), np.zeros(m, bool), np.zeros(m, int)
    two = e + e
    delta = (e + two + two + e) * sixth
    to_mid, to_end, e3 = half * e, full * e, np.tile(e, 3)
    live = np.flatnonzero(np.isfinite(z0).all(1) & np.isfinite(e).all(1))
    za = z0[live]
    taken = 0  # steps every live row has replayed
    while len(live):
        n = min(_REPLAY_CHUNK, int(budget[live].max()) - taken)
        path = np.add.accumulate(
            np.concatenate([za[:, None], np.broadcast_to(delta[live, None], (len(live), n, dim))], 1),
            axis=1,
        )
        pts = path[:, 1:]
        i = taken + np.arange(1, n + 1)
        stop = i == budget[live, None]
        if inside is not None:
            out = ~np.asarray(inside(pts.reshape(-1, dim))).reshape(len(live), n)
            stop |= out
        d = pts - z0[live, None]
        for a in angular:
            np.subtract((d[..., a] + math.pi) % math.tau, math.pi, out=d[..., a])
        stop |= (i > 100) & (_row_norms(d.reshape(-1, dim)).reshape(len(live), n) < 0.5 * step)
        stopped = stop.any(1)
        last = np.where(stopped, stop.argmax(1), n - 1)
        counts = last + 1
        first = np.cumsum(counts) - counts
        prev = path[:, :-1][np.arange(n) < counts[:, None]]
        er, hr, fr = (np.repeat(a[live], counts, axis=0) for a in (e3, to_mid, to_end))
        # the three stage points of a step side by side, so that each row's
        # points are contiguous and one reduceat per test gives its verdict
        v = np.asarray(direction(np.stack([prev, prev + hr, prev + fr], 1).reshape(-1, dim)), float)
        norms = _row_norms(v)
        # points past a bend are not on the leaf: the loop, not their
        # arithmetic, decides what a row that bends meets there
        with np.errstate(divide="ignore", invalid="ignore"):
            u = v / norms[:, None]
        same = u.view(np.int64).reshape(er.shape) == er.view(np.int64)
        straight = np.logical_and.reduceat(same.ravel(), first * er.shape[1])
        straight &= np.logical_and.reduceat(norms >= 1e-14, first * 3)
        fin = straight & stopped
        j, at = live[fin], last[fin]
        done[j] = True
        ends[j] = pts[fin, at]
        if inside is not None:
            exits[j] = out[fin, at]
        steps[j] = taken + 1 + at
        keep = straight & ~stopped
        live, za = live[keep], path[keep, -1]
        taken += n
    return done, ends, exits, steps


def _trace_leaves(
    direction: Callable[[np.ndarray], np.ndarray],
    starts: np.ndarray,
    signs: np.ndarray,
    step: float,
    max_steps: np.ndarray,
    inside: "Callable[[np.ndarray], np.ndarray] | None",
    wrap: tuple[bool, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-step RK4 on every row of ``starts`` at once.

    Row j follows ``signs[j] * direction``, normalized, for at most
    ``max_steps[j]`` steps.  The signs are +1 or -1, one per row, or (m, d)
    to flip single columns.  ``inside`` maps (m, 2) points to a boolean
    mask, ``True`` meaning inside, and ``None`` means no row exits.  A row
    stops when it leaves ``inside``, returns within half a step of its
    start after more than 100 steps, or spends its budget; a stopped row is
    frozen and no longer evaluated.  Returns the end points, exit flags and
    step counts, one row per leaf.  The RK4 sum keeps the one-leaf loop's
    order (``k + k`` is bitwise ``2 * k``) and never writes the array
    ``direction`` returns.

    Rows whose leaves are straight, with every stage unit vector equal to
    the start's in bits, are replayed first in a few batched passes
    (``_replay_straight``), with the same result as the loop.  The loop
    below traces every other row from its start, with the stop tests on
    every step.
    """
    z = np.array(starts, float)
    exited = np.zeros(len(z), bool)
    n_steps = np.array(max_steps, int)
    rows = np.flatnonzero(n_steps > 0)
    sa = np.asarray(signs, float)[rows]
    if sa.ndim == 1:
        sa = sa[:, None]
    # a sign flip is exact and commutes with normalizing and with every
    # rounding, so the signs scale the steps instead of the stages
    half, full, sixth = sa * (0.5 * step), sa * step, sa * (step / 6.0)
    angular = [i for i, w in enumerate(wrap) if w]

    def unit(p: np.ndarray) -> np.ndarray:
        v = np.asarray(direction(p), float)
        n = _row_norms(v)
        # fmin skips NaN rows, so a vanishing row raises beside them too
        if np.fmin.reduce(n) < 1e-14:
            raise ValueError("direction field vanishes on the traced leaf")
        # a non-finite row becomes NaN here, as in the one-leaf loop
        with np.errstate(invalid="ignore"):
            return v / n[:, None]

    if len(rows):
        # the loop's first stage, so a start where the field vanishes raises
        replayed, ends, exits, steps = _replay_straight(
            direction, z[rows], unit(z[rows]), half, full, sixth, n_steps[rows], inside, angular, step
        )
        z[rows[replayed]] = ends[replayed]
        exited[rows[replayed]] = exits[replayed]
        n_steps[rows[replayed]] = steps[replayed]
        rows, half, full, sixth = (a[~replayed] for a in (rows, half, full, sixth))
    za, z0, budget = z[rows], z[rows], n_steps[rows]

    i = 0
    while len(rows):
        i += 1
        k1 = unit(za)
        k2 = unit(za + half * k1)
        k3 = unit(za + half * k2)
        k4 = unit(za + full * k3)
        k2 += k2
        k3 += k3
        k1 += k2
        k1 += k3
        k1 += k4
        k1 *= sixth
        za = za + k1
        done = budget == i
        if inside is not None:
            out = ~np.asarray(inside(za))
            done |= out
        # closed-leaf detection once the trace is clearly under way
        if i > 100:
            d = za - z0
            for a in angular:
                np.subtract((d[:, a] + math.pi) % math.tau, math.pi, out=d[:, a])
            done |= _row_norms(d) < 0.5 * step
        if done.any():
            stop = rows[done]
            z[stop] = za[done]
            if inside is not None:
                exited[stop] = out[done]
            n_steps[stop] = i
            keep = ~done
            rows, za, z0, half, full, sixth, budget = (
                a[keep] for a in (rows, za, z0, half, full, sixth, budget)
            )
    return z, exited, n_steps


def trace_leaf(
    direction: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    step: float,
    max_arc: float,
    inside: Callable[[np.ndarray], bool],
    wrap: tuple[bool, ...] = (False, False),
) -> tuple[np.ndarray, bool, int]:
    """Fixed-step RK4 integration of a normalized direction field.

    ``inside`` takes one point and returns a bool.  Returns (end_point,
    exited, n_steps), a point, a bool and an int.  ``exited`` is False
    when the leaf either closed up (returned to its start) or exhausted
    ``max_arc``.  ``wrap`` marks angular coordinates so closure is
    detected modulo their period.
    """
    n_max = int(math.ceil(max_arc / step))
    z, exited, n_steps = _trace_leaves(
        direction,
        np.asarray(start, float)[None, :],
        np.ones(1),
        step,
        np.array([n_max]),
        lambda pts: np.array([bool(inside(p)) for p in pts]),
        wrap,
    )
    return z[0], bool(exited[0]), int(n_steps[0])


def annulus_foliation_check(
    pulled: OneForm,
    v_range: tuple[float, float],
    name: str = "annulus_foliation",
):
    """Every leaf of the kernel foliation must cross the annulus.

    Traces the normalized kernel direction forward and backward from 8
    seeds on the middle circle; a passing foliation exits through both
    boundary components, and re-integrating backward from the forward
    endpoint reproduces the seed within 1e-4.  Closed, trapped or non-finite
    leaves fail.  The 16 leaves are traced as one batch, and the retraces of
    the exited forward leaves as a second.

    A leaf is inside while ``lo < v < hi``, which is false for NaN.  Where
    the pulled form has a constant kernel line, as on both catalog annuli
    (c2 = 0, c1 of one sign), every leaf is straight: the tracer replays it
    in a few batched passes, with the bits the RK4 loop would give.  Other
    leaves are stepped, with the exit test on every step.  The replay
    reproduces the trace and nothing more: the check still samples 8 leaves
    and proves nothing about the leaves between them.
    """
    from .verify import MAX_FAILURES, CheckReport

    chart = pulled.chart
    lo, hi = v_range
    step = _LEAF_STEP
    max_arc = _LEAF_ARC_FACTOR * (hi - lo)
    form = pulled.compile()

    # the kernel direction (-c2, c1) of c1 du + c2 dv: the tracer's
    # per-column signs flip c2, so the reversed view is never copied
    def direction(pts: np.ndarray) -> np.ndarray:
        return form(pts)[..., ::-1]

    kernel = np.array([-1.0, 1.0])

    def inside(z: np.ndarray) -> np.ndarray:
        return (lo < z[:, 1]) & (z[:, 1] < hi)

    n = _LEAF_SEEDS
    mid = 0.5 * (lo + hi)
    wrap = (chart.coords[0].is_angular, chart.coords[1].is_angular)
    seeds = np.stack(
        [np.linspace(0.0, math.tau, n, endpoint=False), np.full(n, mid)], axis=-1
    )
    # forward leaves in rows :n, backward leaves in rows n:
    ends, exits, steps = _trace_leaves(
        direction,
        np.concatenate([seeds, seeds]),
        np.repeat([1.0, -1.0], n)[:, None] * kernel,
        step,
        np.full(2 * n, int(math.ceil(max_arc / step))),
        inside,
        wrap,
    )
    # reversibility: integrating each exited forward leaf back over its
    # own step count must reproduce its seed
    retraced = np.flatnonzero(exits[:n])
    backs, _, _ = _trace_leaves(
        direction,
        ends[retraced],
        np.full((len(retraced), 1), -1.0) * kernel,
        step,
        steps[retraced],
        None,
        wrap,
    )
    retrace_ok = np.ones(n, bool)
    for j, back in zip(retraced, backs):
        retrace_ok[j] = np.linalg.norm(back - seeds[j]) <= _RETRACE_TOL

    failures = []
    headroom = math.inf
    for j, seed in enumerate(seeds):
        fwd_end, fwd_exit, fwd_steps = ends[j], bool(exits[j]), int(steps[j])
        bwd_end, bwd_exit, bwd_steps = ends[n + j], bool(exits[n + j]), int(steps[n + j])
        # a non-finite end is not inside, but it crossed no boundary
        crossed = (
            fwd_exit and bwd_exit and np.isfinite([fwd_end, bwd_end]).all()
            and ((fwd_end[1] >= hi) != (bwd_end[1] >= hi))
        )
        if not (crossed and retrace_ok[j]):
            failures.append(
                {
                    "point": {"u": float(seed[0]), "v": float(mid)},
                    "value": float(fwd_end[1] if fwd_exit else math.nan),
                }
            )
        else:
            used = (fwd_steps + bwd_steps) * step
            headroom = min(headroom, 1.0 - used / max_arc)
    passed = not failures
    return CheckReport(
        name=name,
        passed=passed,
        n_points=n,
        min_gap=0.0 if not passed else float(headroom),
        failures=tuple(failures[:MAX_FAILURES]),
        details={"step": step, "max_arc": max_arc},
    )


# -- singularities of direction fields -------------------------------------------


@dataclass(frozen=True)
class ClassifierField:
    """A plane direction field with analytic Jacobian and a signing level.

    ``value`` maps (..., 2) points to (..., 2) vectors; ``jacobian`` to
    (..., 2, 2); ``level`` is the scalar whose sign at a zero decides
    between the positive and negative singularity classes.
    """

    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    level: Callable[[np.ndarray], np.ndarray]


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
    classifier: ClassifierField,
    grid_n: int = 161,
    trap: "tuple[float, float] | None" = None,
    seed_radius: "float | None" = None,
) -> SingularityReport:
    """Locate and classify the zeros of a plane direction field on the unit disk.

    The points of a ``grid_n`` x ``grid_n`` grid inside the disk of radius
    0.98 seed a batched Newton iteration of at most ``_NEWTON_ROUNDS``
    rounds with the analytic Jacobian.  With ``seed_radius``, only the grid
    points with ``_radius`` at most that radius seed it, in grid order; the
    disk constructor passes its ``cluster_end``, past which
    ``_assemble_pieces`` proves that its classifier has no zero.  A seed's
    trajectory does not depend on the other seeds, so each kept seed ends
    bit-identical to its end in the search from the whole grid; only the
    seed that stands for a zero may change, which moves it by its last
    bits.  Points inside the disk with ``|V| <= 1e-10`` are deduplicated
    (the first in grid order stands for every point within 1e-6 of it) and
    classified by the sign of the Jacobian determinant (positive: elliptic,
    negative: hyperbolic) and the sign of the level function.

    Each round evaluates the field only on the active seeds.  A seed leaves
    the active set when it dies (singular Jacobian, or ``|z| >= 2``), when
    a round takes it into the annulus ``trap[0] < |z| < trap[1]``, or when
    it starts a round with ``|V| <= 1e-10``, the final zero test: it takes
    that round's step and stops.  A trap is an annulus that the Newton step
    maps into itself and on which no point passes the ``|V|`` test
    (``_newton_trap`` proves both for the disk classifier), so a seed taken
    into it would stay there and end as no zero.  Every seed that never
    enters the trap therefore ends bit-identical to iterating every seed
    for all ``_NEWTON_ROUNDS`` rounds with the same stop rule, and a seed
    that enters it ends inside it, as it would have; the zeros found are
    the same.  Without the stop rule a converged seed would only move its
    last bits in the later rounds: on the disks k = 3..19 the counts, types,
    signs and ``degenerate`` equal those of the stop-free loop, and each
    zero lies within 1e-15 of its zero there.  Each round calls
    ``jacobian`` and then ``value`` on the same points, and so does the
    classification of the zeros found; the disk classifier computes V and J
    in that ``jacobian`` call and keeps V for the ``value`` call.  The
    final ``|V|`` test calls ``value`` alone, once over every end point,
    which the disk classifier answers from a V-only pass.
    """
    z = _newton_points(classifier, grid_n, _NEWTON_ROUNDS, trap, seed_radius)
    small = _plane_norms(classifier.value(z)) <= _ZERO_RESIDUAL
    good = small & (_plane_norms(z) < _DISK_RADIUS)  # False on non-finite rows

    rest = z[good]
    unique: list[np.ndarray] = []
    while len(rest):
        unique.append(rest[0])
        rest = rest[_plane_norms(rest - rest[0]) > _DEDUPE_TOL]
    unique.sort(key=lambda p: (round(float(p[0]), 9), round(float(p[1]), 9)))

    zeros = []
    counts = {"e_plus": 0, "e_minus": 0, "h_plus": 0, "h_minus": 0}
    degenerate = False
    if unique:
        arr = np.stack(unique)
        jac = classifier.jacobian(arr)
        dets = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        levels = classifier.level(arr)
        residuals = _plane_norms(classifier.value(arr))
        for p, det, lev, res in zip(arr, dets, levels, residuals):
            if abs(det) < 1e-8 or abs(lev) < 1e-8:
                degenerate = True
            kind = "elliptic" if det > 0 else "hyperbolic"
            sign = 1 if lev > 0 else -1
            key = ("e" if kind == "elliptic" else "h") + ("_plus" if sign > 0 else "_minus")
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
    euler = counts["e_plus"] + counts["e_minus"] - counts["h_plus"] - counts["h_minus"]
    relative = counts["e_plus"] - counts["e_minus"] - counts["h_plus"] + counts["h_minus"]
    return SingularityReport(tuple(zeros), counts, euler, relative, degenerate)


def _newton_points(
    classifier: ClassifierField,
    grid_n: int,
    newton_iters: int,
    trap: "tuple[float, float] | None" = None,
    seed_radius: "float | None" = None,
) -> np.ndarray:
    """Where each disk grid seed is after the Newton rounds (active-set and
    stop rules in ``find_and_classify``).

    The seeds are the points of ``_disk_grid(0.98, grid_n)`` with
    ``_radius`` at most ``seed_radius`` (the disk's ``cluster_end``), in
    grid order, or all of them when it is None.  A seed that never enters
    ``trap`` ends bit-identical to the dense loop that freezes each seed
    after the round that starts with ``|V| <= 1e-10`` at it; one that
    enters the trap is dropped there and ends inside it, never at a zero.
    """
    z = _disk_grid(0.98 * _DISK_RADIUS, grid_n)
    if seed_radius is not None:
        z = z[_radius(z) <= seed_radius]
    active = np.arange(len(z))
    za = z.copy()  # the points of the active seeds, z[active]
    for _ in range(newton_iters):
        if not active.size:
            break
        J = classifier.jacobian(za)
        V = classifier.value(za)
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
        if trap is not None:
            rho = _plane_norms(moved)
            keep &= ~((trap[0] < rho) & (rho < trap[1]))
        active, za = active[keep], moved[keep]
    return z


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
    w = twisting_number(boundary_field, frame, loop, n_samples=n_samples)
    return {
        "winding": int(w.value),
        "winding_residual": float(w.residual),
        "relative_euler": int(report.relative_euler),
        "match": bool(w.value == report.relative_euler),
    }


# -- the disk constructor ---------------------------------------------------------


# smoothstep 10t^3 - 15t^4 + 6t^5 and its first two derivatives, for 0 < t < 1
_SMOOTHSTEP = (
    lambda t: t * t * t * (10.0 + t * (-15.0 + 6.0 * t)),
    lambda t: 30.0 * t * t * (1.0 - t) * (1.0 - t),
    lambda t: 60.0 * t * (2.0 * t - 1.0) * (t - 1.0),
)


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
            jet.reshape(-1)[band] = _SMOOTHSTEP[order](tb)
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
                        steps[order] = _SMOOTHSTEP[order](tb)
                    scale = jump if order == 0 else jump / (b - a)
                    acc[band] += scale * steps[order]
        if 0 in orders and not shared["top"] < self.ramps[-1][1]:
            np.copyto(jets[list(orders).index(0)], self.final, where=flat >= self.ramps[-1][1])
        return tuple(jet.reshape(rho.shape) for jet in jets)


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
    (``_assemble_pieces`` checks the conditions), so the Newton search
    seeds only inside it.
    """

    u: Callable
    profiles: Callable
    cluster_end: float


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
            w1 = one_plus * _SMOOTHSTEP[1](tb) / wall_w
        del t  # the bundle pass below is the peak on the contact grid
        jets = []
        for order, jet in zip(orders, bundle(flat, orders)):
            if order == 0:
                jet = wall + jet
            elif order == 1 and band.size:
                jet[band, 0] += w1 * pb / safe
                jet[band, 1] += w1 * qb / safe
            elif band.size:
                w2 = one_plus * _SMOOTHSTEP[2](tb) / (wall_w * wall_w)
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
    # cluster_end: no zero lies there, and the Newton search seeds only inside it
    if not (
        cb <= cluster_end
        and wall_hi <= s_fall[0]
        and c_rise[1] <= s_fall[0]
        and min(params["swirl"], s_fall[0]) > 0.0
    ):
        raise ValueError("classifier is not proven zero-free past the peak cluster")

    return _DiskPieces(u=u, profiles=profiles, cluster_end=cluster_end)


def _classifier_from_pieces(pieces: _DiskPieces) -> ClassifierField:
    """The classifier field V of the disk pieces, with its Jacobian.

    ``value`` runs a V-only pass: the gradient of u, and c and s without
    their derivatives.  ``jacobian`` runs one pass for V and J, ``jet``,
    and keeps a copy of its points with their V; the next ``value`` call
    takes that entry (and clears it) and returns the kept V if its points
    have the bytes of the kept ones, so a Newton round's ``jacobian`` then
    ``value`` on the same points runs one pass.  Any other ``value`` call
    runs the V-only pass.  Both passes compute V with the same arithmetic,
    written into one array by ``field``, so V has the same bits either way.
    """

    def field(g, c, sq, sp, p, q, safe):
        # V = grad u - c rho e_rho + s e_theta, with sq = s q and sp = s p,
        # written into one array
        V = np.empty(g.shape)
        np.subtract(g[..., 0] - c * p, sq / safe, out=V[..., 0])
        np.add(g[..., 1] - c * q, sp / safe, out=V[..., 1])
        return V

    def jet(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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

    kept: list[tuple[np.ndarray, np.ndarray]] = []

    def value(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, float)
        if kept:
            seen, V = kept.pop()
            # shape and bits: as integers -0.0 and 0.0 differ and NaN matches itself
            if np.array_equal(seen.view(np.int64), pts.view(np.int64)):
                return V
        p, q = pts[..., 0], pts[..., 1]
        rho = _radius(pts)
        safe = np.maximum(rho, 1e-30)
        (g,) = pieces.u(pts, rho, (1,))
        (c,), (s,) = pieces.profiles(rho, (0,), (0,))
        return field(g, c, s * q, s * p, p, q, safe)

    def jacobian(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, float)
        V, J = jet(pts)
        kept[:] = [(pts.copy(), V)]
        return J

    def level(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, float)
        return pieces.u(pts, _radius(pts), (0,))[0]

    return ClassifierField(value, jacobian, level)


@dataclass(frozen=True)
class _Enclosure:
    """Closed intervals [lo, hi], one per array entry (Moore, *Interval
    Analysis*, 1966).

    Each operation rounds its ends one float outward.  Float +, -, *, / and
    sqrt are correctly rounded, so each result encloses the exact operation
    on every choice of reals from its operands.  A float operand is the
    interval holding only itself.
    """

    lo: np.ndarray
    hi: np.ndarray

    @staticmethod
    def of(x: "_Enclosure | float") -> "_Enclosure":
        return x if isinstance(x, _Enclosure) else _Enclosure(x, x)

    @staticmethod
    def _outward(lo, hi) -> "_Enclosure":
        return _Enclosure(np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf))

    def __add__(self, other):
        o = _Enclosure.of(other)
        return _Enclosure._outward(self.lo + o.lo, self.hi + o.hi)

    def __sub__(self, other):
        o = _Enclosure.of(other)
        return _Enclosure._outward(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other):
        return _Enclosure.of(other) - self

    def __mul__(self, other):
        o = _Enclosure.of(other)
        ends = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return _Enclosure._outward(np.minimum.reduce(ends), np.maximum.reduce(ends))

    __rmul__ = __mul__

    def __truediv__(self, other):
        # by a divisor with lo > 0 only: then the quotient's ends are quotients of ends
        o = _Enclosure.of(other)
        return _Enclosure._outward(
            np.minimum(self.lo / o.lo, self.lo / o.hi), np.maximum(self.hi / o.lo, self.hi / o.hi)
        )

    def sqrt(self) -> "_Enclosure":
        # of a quantity known to be nonnegative, so a negative lower end means 0
        return _Enclosure._outward(np.sqrt(np.maximum(self.lo, 0.0)), np.sqrt(self.hi))


def _shell_newton_radius(params: dict, rho: _Enclosure) -> tuple[_Enclosure, ...]:
    """Enclosures of f, f' and the Newton image radius R over ``rho``, on
    the shell where the disk classifier is radial (see ``_newton_trap``).

    R is an enclosure only where f > 0 and f' > 0 on ``rho``, since the
    divisions assume positive divisors.
    """
    wall_lo, wall_hi = params["wall"]
    wall_w = wall_hi - wall_lo
    one_plus = 1.0 + params["floor"]
    c_dip, g = params["c_dip"], _Enclosure.of(params["swirl"])
    t = (rho - wall_lo) / wall_w
    # smoothstep's first two derivatives on the enclosure, and the wall's
    # scaling of them, as _assemble_pieces writes it
    f = one_plus * _SMOOTHSTEP[1](t) / wall_w + c_dip * rho
    df = one_plus * _SMOOTHSTEP[2](t) / (wall_w * wall_w) + c_dip
    s_rho = (f * f + g * g) / (f * df)
    s_theta = rho * g / f
    x = rho - s_rho
    return f, df, (x * x + s_theta * s_theta).sqrt()


def _newton_trap(
    params: dict, cluster_end: float, interval: tuple[float, float] = _TRAP_CANDIDATE
) -> "tuple[float, float] | None":
    """``interval`` = (a, b) when the disk classifier's Newton step is
    proven to map the annulus a < rho < b into itself, else None.

    Past ``cluster_end`` every bump is exactly 0, and past the c/s band
    ``cb = c_on[1] * width`` but short of ``c_rise[0]`` and ``s_fall[0]``
    the profiles are exactly c = -c_dip and s = swirl.  Inside the wall
    ramp, u = w(rho) = -floor + (1 + floor) smoothstep((rho - wall_lo) /
    wall_w).  So on that shell

        V = f e_rho + g e_theta,   f = w'(rho) + c_dip rho,   g = swirl,

    and where f and f' = w'' + c_dip are positive, the exact Newton step is
    s_rho = (f^2 + g^2) / (f f') along e_rho and s_theta = rho g / f along
    e_theta, so the new radius is R(rho) = hypot(rho - s_rho, s_theta).

    The trap holds when [a - delta, b + delta] lies in the shell, and
    interval arithmetic over 512 pieces of it bounds f above the zero
    residual, f' above 0 and R inside [a + delta, b - delta], with delta =
    1e-6.  Then every Newton step from a radius within delta of the trap
    lands at least delta inside it.  That margin covers the rounding of a
    radius and the float step's distance from the exact one, which is below
    1e-15 on 1e5 points of the trap.
    No point of the trap passes the ``|V| <= 1e-10`` test, since |V| >= f.
    """
    a, b = interval
    lo, hi = a - _TRAP_MARGIN, b + _TRAP_MARGIN
    shell_lo = max(cluster_end, params["c_on"][1] * params["width"], params["wall"][0])
    shell_hi = min(params["wall"][1], params["c_rise"][0], params["s_fall"][0])
    if not shell_lo < lo < hi < shell_hi:
        return None
    edges = np.linspace(lo, hi, _TRAP_PIECES + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        f, df, R = _shell_newton_radius(params, _Enclosure(edges[:-1], edges[1:]))
    # R encloses the image radius only where f and f' are positive
    proven = (
        (f.lo > _ZERO_RESIDUAL).all()
        and (df.lo > 0.0).all()
        and R.lo.min() >= a + _TRAP_MARGIN
        and R.hi.max() <= b - _TRAP_MARGIN
    )
    return interval if proven else None


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
    """The shape parameters of the disk with k twists, 3 <= k <= 19.

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
        "exact_radius": 0.80,
    }


def _exact_disk_form() -> DiskContactForm:
    """The k = 1 model: u = 1, beta = p dq - q dp."""

    def value(pts):
        return -np.asarray(pts, float)

    def jacobian(pts):
        pts = np.asarray(pts, float)
        J = np.zeros(pts.shape[:-1] + (2, 2))
        J[..., 0, 0] = -1.0
        J[..., 1, 1] = -1.0
        return J

    def level(pts):
        return np.ones(np.asarray(pts, float).shape[:-1])

    classifier = ClassifierField(value, jacobian, level)
    report = find_and_classify(classifier, grid_n=41)
    certificates = {
        "contact_min": 2.0,
        "boundary_residual": 0.0,
        "classifier_boundary_turns": classifier_boundary_winding(classifier, 0.95),
        "boundary_min_speed": 0.8,
    }
    passed = (
        report.counts == {"e_plus": 1, "e_minus": 0, "h_plus": 0, "h_minus": 0}
        and report.euler_identity == 1
        and report.relative_euler == 1
    )
    return DiskContactForm(
        k=1,
        classifier=classifier,
        singularities=report,
        params={},
        certificates=certificates,
        passed=passed,
    )


def _disk_grid(radius: float, n: int) -> np.ndarray:
    """The points of the n x n grid on [-radius, radius]^2 with
    ``_plane_norms`` at most radius, in row-major order."""
    axis = np.linspace(-radius, radius, n)
    square = axis * axis
    inside = np.sqrt(square[:, None] + square) <= radius
    pts = np.empty((np.count_nonzero(inside), 2))
    pts[:, 0] = np.repeat(axis, inside.sum(axis=1))
    pts[:, 1] = np.broadcast_to(axis, inside.shape)[inside]
    return pts


def _annulus_grid(r_lo: float, r_hi: float, n_r: int, n_t: int) -> np.ndarray:
    r = np.linspace(r_lo, r_hi, n_r)
    t = np.linspace(0.0, math.tau, n_t, endpoint=False)
    R, T = np.meshgrid(r, t, indexing="ij")
    return np.stack([(R * np.cos(T)).reshape(-1), (R * np.sin(T)).reshape(-1)], axis=-1)


def construct_xi_prime(k: int) -> DiskContactForm:
    """Build a verified contact form on the disk bundle with k boundary twists.

    k must be odd with 1 <= k <= 19; larger k are refused before any work,
    since no parameter set is known to pass there.  The singularity counts
    of the page foliation come out as (k+1)/2 positive elliptic and (k-1)/2
    negative hyperbolic points, the index identities hold, the contact
    coefficient F is positive on a 281 x 281 disk grid, and outside
    ``params["exact_radius"]`` the form agrees with dx + p dq - q dp
    exactly.  F is sampled at the grid points inside the bump cluster, and
    past it, where F depends on the radius alone, once at each radius of
    the grid's points there.  The Newton search for the singularities
    starts only from the seed grid points inside the bump cluster: past it
    the classifier is V = f e_rho + g e_theta with |V| >= min(swirl,
    s_fall[0]) > 0 (``_assemble_pieces``), so no zero lies there.  The disk
    is built once from ``_disk_params(k)``; ``passed`` records whether every
    certificate held.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be a positive odd integer")
    if k > _MAX_K:
        raise ValueError(f"k = {k} is not supported: the disk is built for odd k up to {_MAX_K}")
    if k == 1:
        return _exact_disk_form()
    expected = {"e_plus": (k + 1) // 2, "e_minus": 0, "h_plus": 0, "h_minus": (k - 1) // 2}
    return _build_disk_form(k, _disk_params(k), expected)


def _build_disk_form(k: int, params: dict, expected: dict) -> DiskContactForm:
    pieces = _assemble_pieces(k, params)
    classifier = _classifier_from_pieces(pieces)
    F = _contact_coefficient(pieces)

    # contact positivity on a dense disk grid.  Past cluster_end every bump
    # is exactly 0 and u, c and s are radial, so F depends on rho alone
    # there: it is taken once per distinct radius of the grid, at (rho, 0)
    pts = _disk_grid(1.0, _CONTACT_GRID_N)
    rho = _radius(pts)
    inner = rho <= pieces.cluster_end
    radii = np.unique(rho[~inner])
    ring = np.stack([radii, np.zeros_like(radii)], axis=-1)
    contact_min = float(min(F(pts[inner]).min(), F(ring).min()))

    # boundary exactness: u == 1 and beta = (V_q, -V_p) == (-q, p) outside
    # the radius; the same V gives the boundary speed
    exact_radius = float(params["exact_radius"])
    ann = _annulus_grid(exact_radius, 1.0, 24, 128)
    V = classifier.value(ann)
    boundary_residual = float(
        max(
            np.abs(V[:, 1] - (-ann[:, 1])).max(),
            np.abs(-V[:, 0] - ann[:, 0]).max(),
            np.abs(pieces.u(ann, _radius(ann), (0,))[0] - 1.0).max(),
        )
    )
    vmin_boundary = float(np.linalg.norm(V, axis=-1).min())

    report = find_and_classify(
        classifier,
        trap=_newton_trap(params, pieces.cluster_end),
        seed_radius=pieces.cluster_end,
    )
    boundary_turns = classifier_boundary_winding(classifier, 0.5 * (exact_radius + 1.0))

    certificates = {
        "contact_min": contact_min,
        "boundary_residual": boundary_residual,
        "counts": dict(report.counts),
        "expected_counts": dict(expected),
        "euler_identity": report.euler_identity,
        "relative_euler": report.relative_euler,
        "classifier_boundary_turns": boundary_turns,
        "boundary_min_speed": vmin_boundary,
        "degenerate": report.degenerate,
    }
    passed = (
        contact_min > 1e-6
        and boundary_residual <= 1e-13
        and report.counts == expected
        and not report.degenerate
        and report.euler_identity == 1
        and report.relative_euler == k
        and abs(boundary_turns - 1.0) < 0.05
        and vmin_boundary > 1e-3
    )

    return DiskContactForm(
        k=k,
        classifier=classifier,
        singularities=report,
        params=dict(params),
        certificates=certificates,
        passed=passed,
    )
