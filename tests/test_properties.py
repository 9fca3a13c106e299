"""Property tests for expression evaluation, calculus and coordinate transplants.

Every property is checked through evaluation at random points, so it holds
for the functions the expressions denote and not only for their term lists.
"""

import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engelbook.charts import (
    Chart,
    Interval,
    OneForm,
    TwoForm,
    VectorField,
    _product_grid,
    batch_eval_scalars,
    field_matrix,
    interior_product,
    lie_bracket,
)
from engelbook.invariants import _project_onto_frame
from engelbook.trigpoly import (
    HALF_PI,
    KIND_ANGULAR,
    KIND_LINEAR,
    KIND_POLYNOMIAL,
    PHASE_SNAP,
    Coordinate,
    Expr,
    Mode,
    TrigTerm,
    _coord_index,
    _evaluator,
    _normalize_term,
    _term_product,
    canonical_equal,
    parse_expression,
)

MIX = (
    Coordinate("x", KIND_ANGULAR),
    Coordinate("y", KIND_ANGULAR),
    Coordinate("r", KIND_LINEAR),
    Coordinate("s", KIND_POLYNOMIAL),
)
N_POINTS = 16

quick = settings(max_examples=25, deadline=None)


@st.composite
def terms(draw):
    powers = (0, 0, draw(st.integers(0, 2)), draw(st.integers(-1, 2)))
    freqs = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)), draw(st.integers(-1, 1)), 0)
    return Expr.term(
        MIX,
        draw(st.floats(-2.0, 2.0)),
        powers,
        draw(st.sampled_from(list(Mode))),
        freqs,
        draw(st.floats(0.0, math.tau)),
    )


exprs = st.lists(terms(), min_size=0, max_size=4).map(lambda ts: sum(ts, Expr.zero(MIX)))
seeds = st.integers(0, 2**32 - 1)


def points(seed):
    # polynomial and linear coordinates stay away from 0 so s^-1 is finite
    rng = np.random.default_rng(seed)
    lo = np.array([0.0, 0.0, 0.3, 0.3])
    hi = np.array([math.tau, math.tau, 2.0, 2.0])
    return rng.uniform(lo, hi, size=(N_POINTS, len(MIX)))


def ref_compile(e):
    """The evaluator before terms shared their factors: one closure per
    expression, an ``np.full`` per term and per trig argument."""
    terms = e.terms

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for t in terms:
            acc = np.full(pts.shape[:-1], t.coeff)
            for i, p in enumerate(t.powers):
                if p:
                    acc = acc * pts[..., i] ** p
            if t.mode != Mode.CONST:
                arg = np.full(pts.shape[:-1], t.phase)
                for i, k in enumerate(t.freqs):
                    if k:
                        arg = arg + k * pts[..., i]
                acc = acc * (np.cos(arg) if t.mode == Mode.COS else np.sin(arg))
            out = out + acc
        return out

    return fn


def stacked(coords, vals):
    """The points whose coordinates ``vals`` gives by name, in the order of ``coords``."""
    return np.stack([vals[c.name] for c in coords], axis=-1)


def close(a, b):
    scale = 1.0 + max(np.abs(a).max(), np.abs(b).max())
    return np.abs(a - b).max() <= 1e-9 * scale


@quick
@given(exprs, exprs, exprs, seeds)
def test_ring_laws(a, b, c, seed):
    pts = points(seed)
    av, bv, cv = (f.compile()(pts) for f in (a, b, c))
    assert close((a + b).compile()(pts), av + bv)
    assert close((a - b).compile()(pts), av - bv)
    assert close((a * b).compile()(pts), av * bv)
    assert canonical_equal(a + b, b + a, tol=1e-12)
    assert close((a * (b + c)).compile()(pts), (a * b + a * c).compile()(pts))
    assert close(((a * b) * c).compile()(pts), (a * (b * c)).compile()(pts))


@quick
@given(exprs, exprs, st.sampled_from([c.name for c in MIX]), seeds)
def test_partial_obeys_leibniz(a, b, name, seed):
    pts = points(seed)
    lhs = (a * b).partial(name).compile()(pts)
    rhs = (a.partial(name) * b + a * b.partial(name)).compile()(pts)
    assert close(lhs, rhs)


@quick
@given(exprs, st.permutations(range(len(MIX))), seeds)
def test_transplant_commutes_with_evaluation(e, order, seed):
    # rename every coordinate, reorder the target chart and add an unused one
    name_map = {c.name: f"{c.name}_new" for c in MIX}
    target = tuple(Coordinate(name_map[MIX[i].name], MIX[i].kind) for i in order)
    target += (Coordinate("extra", KIND_POLYNOMIAL),)
    moved = e.substitute(target, {n: ({m: 1}, 0.0) for n, m in name_map.items()})
    pts = points(seed)
    vals = {name_map[c.name]: pts[:, i] for i, c in enumerate(MIX)}
    vals["extra"] = np.full(N_POINTS, 1.7)
    assert close(moved.compile()(stacked(target, vals)), e.compile()(pts))


@quick
@given(exprs)
def test_transplant_rejects_kind_mismatch(e):
    wrong = (MIX[0], MIX[1], Coordinate("r", KIND_POLYNOMIAL), MIX[3])
    with pytest.raises(ValueError):
        e.substitute(wrong)


@pytest.mark.parametrize("fixed", [("r",), ("s",), ("r", "s"), ("y", "s")])
@quick
@given(exprs, st.permutations(range(4)), st.floats(-2.0, 2.0), st.floats(0.3, 2.0), seeds)
def test_slice_and_rename_in_one_substitution(fixed, e, order, c, c_pos, seed):
    # as a slice pullback does: the ``fixed`` coordinates go to constants and
    # the others onto a reordered chart, x and (unless fixed) y onto one
    # coordinate; s keeps away from 0, where s^-1 has its pole
    constants = {"y": c, "r": c, "s": c_pos}
    rename = {"x": "a", "y": "a", "r": "t", "s": "p"}
    images = {n: constants[n] if n in fixed else ({rename[n]: 1}, 0.0) for n in rename}
    chart = (
        Coordinate("a", KIND_ANGULAR),
        Coordinate("t", KIND_LINEAR),
        Coordinate("p", KIND_POLYNOMIAL),
        Coordinate("extra", KIND_POLYNOMIAL),
    )
    moved = e.substitute(tuple(chart[i] for i in order), images)
    pts = points(seed)
    on_chart = {"a": pts[:, 0], "t": pts[:, 2], "p": pts[:, 3], "extra": np.full(N_POINTS, 1.7)}
    embedded = {
        n: np.full(N_POINTS, constants[n]) if n in fixed else on_chart[rename[n]] for n in rename
    }
    assert close(moved.compile()(stacked(moved.coords, on_chart)), e.compile()(stacked(MIX, embedded)))


@quick
@given(exprs, seeds)
def test_parse_inverts_to_string(e, seed):
    back = parse_expression(e.to_string(), MIX)
    assert canonical_equal(back, e, tol=1e-9)
    pts = points(seed)
    assert close(back.compile()(pts), e.compile()(pts))


def bitwise_equal(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# the empty and the constant-only expression, and s^-1 times a trig factor
# so that the point s = 0 below meets a pole
edge_exprs = st.sampled_from(
    [
        Expr.zero(MIX),
        Expr.const(MIX, -1.25),
        Expr.term(MIX, 0.75, (0, 0, 1, -1), Mode.COS, (1, -2, 0, 0), 0.3),
    ]
)
SPECIALS = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(exprs | edge_exprs, min_size=1, max_size=4), seeds, st.sampled_from([(4,), (16, 4), (4, 4, 4)]))
def test_shared_factor_evaluator_is_bit_identical_to_one_closure_per_expression(es, seed, shape):
    rng = np.random.default_rng(seed)
    pts = points(seed)
    special = rng.random(pts.shape) < 0.15
    pts[special] = rng.choice(SPECIALS, special.sum())
    pts[0, 3] = 0.0  # s = 0 under s^-1
    pts = pts[: int(np.prod(shape[:-1]))].reshape(shape)
    with np.errstate(all="ignore"):
        refs = [ref_compile(e)(pts) for e in es]
        together = _evaluator(es)(pts)
        alone = [e.compile()(pts) for e in es]
    assert together.shape == shape[:-1] + (len(es),)
    for j, (ref, one) in enumerate(zip(refs, alone)):
        assert type(one) is np.ndarray
        assert bitwise_equal(one, ref)
        assert bitwise_equal(together[..., j], ref)


MIX_CHART = Chart("mix", MIX, (Interval(0.0, math.tau),) * 2 + (Interval(0.3, 2.0),) * 2)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(exprs | edge_exprs, max_size=2 * len(MIX)),
    seeds,
    st.sampled_from([(0, 4), (4,), (16, 4), (4, 4, 4)]),
)
def test_batch_evaluation_is_bit_identical_to_one_compile_per_scalar(es, seed, shape):
    # any run of len(MIX) scalars is a field, so field_matrix sees 0, 1 or 2
    rng = np.random.default_rng(seed)
    pts = points(seed)
    special = rng.random(pts.shape) < 0.15
    pts[special] = rng.choice(SPECIALS, special.sum())
    pts[0, 3] = 0.0  # s = 0 under s^-1
    pts = pts[: int(np.prod(shape[:-1]))].reshape(shape)
    dim = len(MIX)
    fields = [VectorField(MIX_CHART, tuple(es[i : i + dim])) for i in range(0, len(es) - dim + 1, dim)]
    with np.errstate(all="ignore"):
        refs = [e.compile()(pts) for e in es]
        got = batch_eval_scalars(es, pts)
        mats = field_matrix(fields, pts)
    assert got.shape == shape[:-1] + (len(es),)
    for j, ref in enumerate(refs):
        assert bitwise_equal(got[..., j], ref)
    assert mats.shape == shape[:-1] + (len(fields), dim)
    for f in range(len(fields)):
        for c in range(dim):
            assert bitwise_equal(mats[..., f, c], refs[dim * f + c])


# The arithmetic before zero operands and canonical terms skipped
# normalization: every result goes through ``from_terms``.


def ref_add(a, b):
    return Expr.from_terms(a.coords, a.terms + b.terms)


def ref_mul(a, b):
    out = [t for x in a.terms for y in b.terms for t in _term_product(x, y)]
    return Expr.from_terms(a.coords, out)


def ref_scale(a, c):
    # a factor that is not finite is refused, even on the zero expression
    if not math.isfinite(c):
        raise ValueError("not finite")
    out = [TrigTerm(c * t.coeff, t.powers, t.mode, t.freqs, t.phase) for t in a.terms]
    return Expr.from_terms(a.coords, out)


def ref_partial(e, name):
    i = _coord_index(e.coords, name)
    out = []
    for t in e.terms:
        p = t.powers[i]
        if p:
            powers = list(t.powers)
            powers[i] = p - 1
            out.append(TrigTerm(t.coeff * p, tuple(powers), t.mode, t.freqs, t.phase))
        k = t.freqs[i]
        if k and t.mode == Mode.COS:
            out.append(TrigTerm(-t.coeff * k, t.powers, Mode.SIN, t.freqs, t.phase))
        elif k and t.mode == Mode.SIN:
            out.append(TrigTerm(t.coeff * k, t.powers, Mode.COS, t.freqs, t.phase))
    return Expr.from_terms(e.coords, out)


def same_float(a, b):
    return np.array(a, float).view(np.int64) == np.array(b, float).view(np.int64)


def same_terms(a, b):
    return (
        a.coords == b.coords
        and len(a.terms) == len(b.terms)
        and all(
            s.discrete_key() == t.discrete_key()
            and same_float(s.coeff, t.coeff)
            and same_float(s.phase, t.phase)
            for s, t in zip(a.terms, b.terms)
        )
    )


# beyond edge_exprs: a coefficient just above ZERO_TOL, and huge finite
# coefficients, whose sums and products overflow to infinite and NaN ones,
# which both paths refuse
operands = (
    exprs
    | edge_exprs
    | st.sampled_from(
        [
            Expr.term(MIX, 2e-12, (0, 0, 1, 0), Mode.SIN, (1, 0, 1, 0), 0.4),
            Expr.term(MIX, 1e300, (0, 0, 1, 0), Mode.COS, (2, 1, 0, 0), 0.1),
            Expr.term(MIX, 1.5e308, (0, 0, 0, 1), Mode.COS, (1, -1, 0, 0), 0.2)
            + Expr.term(MIX, -1.5e308, (0, 0, 1, 0), Mode.SIN, (1, 1, 0, 0), 1.0),
        ]
    )
)
scalars = st.floats(-3.0, 3.0) | st.sampled_from(
    [0.0, -0.0, 1e-13, -4e-13, 1e300, math.nan, math.inf, -math.inf]
)


def outcome(build):
    """The terms ``build()`` returns, or None where it raises ValueError."""
    try:
        return build()
    except ValueError:
        return None


# Terms that collide: few discrete keys, phases equal or within PHASE_SNAP
# of each other, and near the quarter-turn boundary HALF_PI - PHASE_SNAP;
# coefficients that cancel exactly, cancel to ZERO_TOL or below, round
# differently in another order, or overflow to +-inf.
NEAR_PHASES = [
    0.3,
    0.3 + 4e-13,
    0.3 + PHASE_SNAP,
    0.3 + 1.5e-12,
    0.3 + 3e-12,
    HALF_PI - PHASE_SNAP,
    math.nextafter(HALF_PI - PHASE_SNAP, 0.0),
    math.nextafter(HALF_PI - PHASE_SNAP, 2.0),
    HALF_PI - 2 * PHASE_SNAP,
    HALF_PI + 0.5e-12,
    math.pi - PHASE_SNAP,
    math.tau - 0.5e-12,
]
NEAR_COEFFS = [1.0, -1.0, 3e-11, -3e-11, -1.0 + 5e-13, 1.0 + 2**-52, 0.1, 0.7, 1e308, -1e308]


def sums(term_lists):
    """Sums of term lists, leaving out those that overflow."""
    return term_lists.map(lambda ts: outcome(lambda: sum(ts, Expr.zero(MIX)))).filter(
        lambda e: e is not None
    )


@st.composite
def near_terms(draw):
    mode = draw(st.sampled_from(list(Mode)))
    return Expr.term(
        MIX,
        draw(st.sampled_from(NEAR_COEFFS)),
        draw(st.sampled_from([(0, 0, 0, 0), (0, 0, 1, 0)])),
        mode,
        draw(st.sampled_from([(1, 0, 0, 0), (1, -1, 0, 0), (-2, 0, 1, 0)])),
        draw(st.sampled_from(NEAR_PHASES)),
    )


near_exprs = sums(st.lists(near_terms(), max_size=3))
colliding = near_exprs | exprs | edge_exprs

# CONST-mode terms only: every product with one skips normalization
polynomials = sums(
    st.lists(
        st.builds(
            lambda c, r, s: Expr.term(MIX, c, (0, 0, r, s)),
            st.sampled_from(NEAR_COEFFS + [2e-12, -4e-7, 1e-300]),
            st.integers(0, 2),
            st.integers(-1, 2),
        ),
        max_size=3,
    )
)


@settings(max_examples=200, deadline=None)
@given(operands | polynomials, operands | near_exprs, scalars, st.sampled_from([c.name for c in MIX]))
def test_arithmetic_has_the_terms_of_the_from_terms_path(a, b, c, name):
    pairs = [
        (lambda: a + b, lambda: ref_add(a, b)),
        (lambda: b + a, lambda: ref_add(b, a)),
        (lambda: a - b, lambda: ref_add(a, ref_scale(b, -1.0))),
        (lambda: a * b, lambda: ref_mul(a, b)),
        (lambda: b * a, lambda: ref_mul(b, a)),
        (lambda: a * c, lambda: ref_scale(a, c)),
        (lambda: c * a, lambda: ref_scale(a, c)),
        (lambda: a.partial(name), lambda: ref_partial(a, name)),
    ]
    with np.errstate(all="ignore"):
        for fast, ref in pairs:
            got, want = outcome(fast), outcome(ref)
            # a NaN or infinite coefficient fails on both paths; it is never a zero
            assert (got is None) == (want is None)
            assert got is None or same_terms(got, want)


@settings(max_examples=200, deadline=None)
@given(
    operands | near_exprs,
    operands | near_exprs,
    st.floats(HALF_PI - 4 * PHASE_SNAP, HALF_PI + PHASE_SNAP),
    st.sampled_from([Mode.COS, Mode.SIN]),
)
def test_normalize_term_keeps_canonical_terms(a, b, phase, mode):
    # phases just below and above the quarter turn, where snapping decides
    near = [Expr.term(MIX, 0.5, None, mode, (1, -1, 0, 0), phase + n * HALF_PI) for n in (0, 3)]
    with np.errstate(all="ignore"):
        results = [outcome(build) for build in (
            lambda: a, lambda: b, lambda: a + b, lambda: a * b, lambda: a * 0.3,
            lambda: a.partial("r"), lambda: near[0], lambda: near[1], lambda: a * near[0],
            lambda: near[1] * b,
        )]
    for e in filter(None, results):
        for t in e.terms:
            u = _normalize_term(*t)
            assert u == t and u.discrete_key() == t.discrete_key()
            assert same_float(u.coeff, t.coeff) and same_float(u.phase, t.phase)


def ref_sum(operands):
    """The sum as the left fold of ``+`` from the zero expression."""
    return functools.reduce(operator.add, operands, Expr.zero(MIX))


@settings(max_examples=200, deadline=None)
@given(st.lists(colliding, max_size=6))
# a group summed in another order than the operands' rounds differently
@example([Expr.const(MIX, 1.0), Expr.const(MIX, 3e-11), Expr.const(MIX, -1.0)])
@example([Expr.const(MIX, 1.0), Expr.const(MIX, -1.0), Expr.const(MIX, 3e-11)])
# the fold merges phases 4e-13 apart into one term
@example(
    [
        Expr.term(MIX, 1.0, None, Mode.COS, (1, 0, 0, 0), 0.3),
        Expr.term(MIX, 1.0, None, Mode.COS, (1, 0, 0, 0), 0.3 + 4e-13),
    ]
)
# a group that drops out at ZERO_TOL and starts again
@example([Expr.const(MIX, 1.0), Expr.const(MIX, -1.0 + 5e-13), Expr.const(MIX, 0.7)])
@example([Expr.const(MIX, 1e308), Expr.const(MIX, 1e308)])
@example([Expr.const(MIX, -1e308), Expr.const(MIX, -1e308), Expr.const(MIX, 1.0)])
def test_one_sort_sum_is_the_left_fold(operands):
    with np.errstate(all="ignore"):
        got, want = outcome(lambda: Expr.sum(MIX, operands)), outcome(lambda: ref_sum(operands))
    # a sum that is not finite fails on both paths; it is never a zero
    assert (got is None) == (want is None)
    assert got is None or (same_terms(got, want) and got == want)


def test_one_sort_sum_checks_every_chart():
    other = Expr.const(MIX[:3], 1.0)
    with pytest.raises(ValueError, match="different coordinate tuples"):
        Expr.sum(MIX, [Expr.const(MIX, 1.0), Expr.zero(MIX[:3])])
    with pytest.raises(ValueError, match="different coordinate tuples"):
        Expr.sum(MIX, [other])


def test_trig_term_is_the_tuple_of_its_fields():
    t = TrigTerm(0.5, (0, 0, 1, 0), Mode.SIN, (1, 0, 0, 0), 0.25)
    assert t == (0.5, (0, 0, 1, 0), Mode.SIN, (1, 0, 0, 0), 0.25)
    assert t.discrete_key() == ((0, 0, 1, 0), 2, (1, 0, 0, 0)) == t[1:4]


# The field and form pairings before they summed in one sort: each a left
# fold of ``+`` from the zero expression.


def ref_apply(X, f):
    out = X.chart.zero()
    for c, comp in zip(X.chart.coords, X.components):
        if comp.terms:
            out = out + comp * f.partial(c.name)
    return out


def ref_lie_bracket(X, Y):
    return tuple(ref_apply(X, y) - ref_apply(Y, x) for x, y in zip(X.components, Y.components))


def ref_one_form_apply(alpha, X):
    out = alpha.chart.zero()
    for a, x in zip(alpha.components, X.components):
        out = out + a * x
    return out


def ref_two_form_apply(omega, X, Y):
    out = omega.chart.zero()
    for (i, j), w in zip(omega.pairs, omega.components):
        cross = X.components[i] * Y.components[j] - X.components[j] * Y.components[i]
        out = out + w * cross
    return out


def ref_interior_product(omega, X):
    comps = []
    for j in range(omega.chart.dim):
        acc = omega.chart.zero()
        for i in range(omega.chart.dim):
            if i != j:
                acc = acc + X.components[i] * omega.component(i, j)
        comps.append(acc)
    return tuple(comps)


components = st.lists(near_exprs | exprs, min_size=len(MIX), max_size=len(MIX)).map(tuple)
PAIRS = tuple(itertools.combinations(range(len(MIX)), 2))


@settings(max_examples=50, deadline=None)
@given(components, components, st.lists(near_exprs | exprs, min_size=len(PAIRS), max_size=len(PAIRS)))
def test_field_and_form_pairings_are_the_left_folds(x, y, w):
    X, Y = VectorField(MIX_CHART, x), VectorField(MIX_CHART, y)
    alpha, omega = OneForm(MIX_CHART, y), TwoForm(MIX_CHART, PAIRS, tuple(w))
    pairs = [
        (lambda: lie_bracket(X, Y).components, lambda: ref_lie_bracket(X, Y)),
        (lambda: interior_product(omega, X).components, lambda: ref_interior_product(omega, X)),
        (lambda: (alpha.apply(X),), lambda: (ref_one_form_apply(alpha, X),)),
        (lambda: (omega.apply(X, Y),), lambda: (ref_two_form_apply(omega, X, Y),)),
        (lambda: (X.apply(y[2]),), lambda: (ref_apply(X, y[2]),)),
    ]
    with np.errstate(all="ignore"):
        for fast, ref in pairs:
            got, want = outcome(fast), outcome(ref)
            assert (got is None) == (want is None)
            assert got is None or all(same_terms(g, r) and g == r for g, r in zip(got, want))


def ref_project_onto_frame(xvals, c1vals, c2vals):
    """The frame projection before its dot products were summed by hand."""
    A = np.stack([c1vals, c2vals], axis=-1)
    G = np.einsum("nik,nil->nkl", A, A)
    rhs = np.einsum("nik,ni->nk", A, xvals)
    try:
        coeffs = np.linalg.solve(G, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        coeffs = np.einsum("nkl,nl->nk", np.linalg.pinv(G), rhs)
    return coeffs[:, 0], coeffs[:, 1]


# signed zeros, and magnitudes whose products underflow or overflow
frame_values = (
    st.floats(-1e3, 1e3)
    | st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1e155, 5e-324])
    | st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def frame_samples(draw):
    """A field and a 2-frame, sampled at 1 to 6 points of a 3- or 4-chart."""
    n, dim = draw(st.integers(1, 6)), draw(st.integers(3, 4))
    rows = st.lists(frame_values, min_size=n * dim, max_size=n * dim)
    return tuple(np.array(draw(rows), float).reshape(n, dim) for _ in range(3))


# the pseudo-inverse, which both paths share, may warn of overflow
@pytest.mark.filterwarnings("ignore::RuntimeWarning:numpy.linalg")
@settings(max_examples=200, deadline=None)
@given(frame_samples())
# every product of x and C1 is -0.0, so the first coordinate is -0.0 only
# where the sum starts from its first product and not from +0.0
@example((np.array([[-0.0, 0.0, 5.0]]), np.array([[1.0, -0.0, -0.0]]), np.array([[0.0, 1.0, 0.0]])))
def test_frame_projection_is_bit_identical_to_einsum(frame):
    def run(project):
        try:
            return project(*frame)
        except np.linalg.LinAlgError:
            return None

    with np.errstate(all="ignore"):
        want = run(ref_project_onto_frame)
    got = run(_project_onto_frame)
    assert (got is None) == (want is None)
    assert got is None or all(bitwise_equal(g, r) for g, r in zip(got, want))


# axis values with the bit patterns a copy could lose: -0.0, NaN and +-inf
grid_values = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(grid_values, min_size=1, max_size=7), min_size=1, max_size=4))
def test_product_grid_is_bit_identical_to_meshgrid_and_stack(values):
    axes = [np.array(v, dtype=float) for v in values]
    mesh = np.meshgrid(*axes, indexing="ij")
    want = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    got = _product_grid(axes)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
