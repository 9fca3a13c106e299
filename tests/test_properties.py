"""Property tests for expression evaluation, calculus and coordinate transplants.

Every property is checked through evaluation at random points, so it holds
for the functions the expressions denote and not only for their term lists.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelbook.charts import Chart, Interval, VectorField, batch_eval_scalars, field_matrix
from engelbook.trigpoly import (
    KIND_ANGULAR,
    KIND_LINEAR,
    KIND_POLYNOMIAL,
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


@settings(max_examples=200, deadline=None)
@given(operands, operands, scalars, st.sampled_from([c.name for c in MIX]))
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
@given(operands, operands)
def test_normalize_term_keeps_canonical_terms(a, b):
    with np.errstate(all="ignore"):
        results = [outcome(build) for build in (
            lambda: a, lambda: b, lambda: a + b, lambda: a * b, lambda: a * 0.3,
            lambda: a.partial("r"),
        )]
    for e in filter(None, results):
        for t in e.terms:
            u = _normalize_term(t.coeff, t.powers, t.mode, t.freqs, t.phase)
            assert u.discrete_key() == t.discrete_key()
            assert same_float(u.coeff, t.coeff) and same_float(u.phase, t.phase)
