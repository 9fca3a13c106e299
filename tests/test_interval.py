"""Outward-rounded interval arithmetic and the expression bounds built on it."""

import math
import operator
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engelbook.interval import TRIG_HULL, Enclosure, _meets_disk, smoothstep, smoothstep_slope
from engelbook.trigpoly import KIND_ANGULAR, KIND_LINEAR, KIND_POLYNOMIAL, Coordinate, Expr, Mode

mp = mpmath.MPContext()  # its own context: the global precision stays as it is
mp.dps = 50

quick = settings(max_examples=200, deadline=None)

# finite doubles down to the subnormals, and magnitudes whose products and
# squares stay finite
ends = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)
fractions = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)


@st.composite
def enclosures(draw):
    a, b = sorted((draw(ends), draw(ends)))
    return Enclosure(a, b)


def reals_in(x: Enclosure, ts):
    """The ends of ``x`` and the floats near the fractions ``ts`` of its
    width, as exact reals; each exact operation on them below is rounded
    to 50 digits of its own result."""
    lo, hi = float(x.lo), float(x.hi)
    return [mp.mpf(v) for v in [lo, hi] + [min(max(lo + t * (hi - lo), lo), hi) for t in ts]]


def assert_encloses(r: Enclosure, value):
    assert mp.mpf(float(r.lo)) <= value <= mp.mpf(float(r.hi)), (r, value)


@quick
@given(enclosures(), enclosures(), fractions, fractions)
def test_sum_difference_and_product_enclose_every_exact_result(x, y, tx, ty):
    for op in (operator.add, operator.sub, operator.mul):
        r = op(x, y)
        for a in reals_in(x, tx):
            for b in reals_in(y, ty):
                assert_encloses(r, op(a, b))


@quick
@given(enclosures(), enclosures(), fractions, fractions)
def test_quotient_encloses_every_exact_quotient(x, y, tx, ty):
    r = x / y
    if y.contains_zero():
        assert (float(r.lo), float(r.hi)) == (-math.inf, math.inf)
        return
    for a in reals_in(x, tx):
        for b in reals_in(y, ty):
            assert_encloses(r, a / b)


@quick
@given(enclosures(), fractions, st.integers(-4, 7))
def test_integer_power_encloses_every_exact_power(x, ts, n):
    if n < 0 and x.contains_zero():
        with pytest.raises(ValueError, match="contains 0"):
            x**n
        return
    with np.errstate(over="ignore", divide="ignore"):
        r = x**n
    for a in reals_in(x, ts):
        assert_encloses(r, a**n)
    if n > 0 and n % 2 == 0 and x.contains_zero():
        assert float(r.lo) == 0.0


@quick
@given(enclosures(), fractions)
def test_sqrt_encloses_every_exact_root(x, ts):
    if float(x.lo) < 0.0:
        x = Enclosure(0.0, abs(float(x.hi)))
    r = x.sqrt()
    for a in reals_in(x, ts):
        assert_encloses(r, mp.sqrt(a))


@quick
@given(ends)
def test_trig_hull_holds_every_cosine_and_sine(x):
    for value in (mp.cos(mp.mpf(x)), mp.sin(mp.mpf(x)), np.cos(x), np.sin(x)):
        assert_encloses(TRIG_HULL, mp.mpf(value))


@quick
@given(enclosures(), enclosures(), fractions, fractions)
def test_enclosures_hold_the_float_operations_on_their_floats(x, y, tx, ty):
    # monotone correctly rounded operations: the float result of any floats
    # inside the operands lies inside the result
    xs = np.array([float(v) for v in reals_in(x, tx)])
    ys = np.array([float(v) for v in reals_in(y, ty)])
    ops = [operator.add, operator.sub, operator.mul]
    if not y.contains_zero():
        ops.append(operator.truediv)
    with np.errstate(all="ignore"):
        for op in ops:
            r = op(x, y)
            got = op(xs[:, None], ys[None, :])
            assert (float(r.lo) <= got).all() and (got <= float(r.hi)).all()
        square = x**2
        assert (float(square.lo) <= xs * xs).all() and (xs * xs <= float(square.hi)).all()


def test_enclosures_run_entrywise_on_arrays():
    x = Enclosure(np.array([-1.0, 0.5, 2.0]), np.array([1.0, 0.75, 3.0]))
    sq = x**2
    assert sq.lo.tolist() == [0.0, np.nextafter(0.25, -1.0), np.nextafter(4.0, -1.0)]
    assert sq.hi.tolist() == [np.nextafter(1.0, 2.0), np.nextafter(0.5625, 1.0), np.nextafter(9.0, 10.0)]
    q = Enclosure(1.0, 1.0) / x
    assert q.lo[0] == -np.inf and q.hi[0] == np.inf
    with pytest.raises(ValueError, match="contains 0"):
        x**-1


# -- Expr.bound --------------------------------------------------------------------

COORDS = (
    Coordinate("u", KIND_ANGULAR),
    Coordinate("r", KIND_LINEAR),
    Coordinate("s", KIND_POLYNOMIAL),
)


@st.composite
def bound_terms(draw):
    return Expr.term(
        COORDS,
        draw(st.floats(-3.0, 3.0)),
        (0, draw(st.integers(-2, 3)), draw(st.integers(-3, 4))),
        draw(st.sampled_from(list(Mode))),
        (draw(st.integers(-4, 4)), draw(st.integers(-1, 1)), 0),
        draw(st.floats(0.0, math.tau)),
    )


bound_exprs = st.lists(bound_terms(), max_size=5).map(lambda ts: sum(ts, Expr.zero(COORDS)))
# (low end, width) on a grid of 1/64, so that every nonzero end is far from
# the subnormals
ranges = st.tuples(st.integers(-128, 128), st.integers(0, 96)).map(lambda r: (r[0] / 64, r[1] / 64))


@settings(max_examples=150, deadline=None)
@given(bound_exprs, ranges, ranges, st.integers(0, 2**32 - 1))
def test_bound_holds_every_compiled_value_in_the_box(e, r, s, seed):
    box = ((-50.0, 50.0), (r[0], r[0] + r[1]), (s[0], s[0] + s[1]))
    poles = any(
        p < 0 and lo <= 0.0 <= hi for t in e.terms for p, (lo, hi) in zip(t.powers, box)
    )
    if poles:
        with pytest.raises(ValueError, match="contains 0"):
            e.bound(box)
        return
    lo, hi = e.bound(box)
    rng = np.random.default_rng(seed)
    pts = rng.uniform([b[0] for b in box], [b[1] for b in box], size=(200, 3))
    pts = np.concatenate([pts, [[0.0, b, c] for b in box[1] for c in box[2]]])
    with np.errstate(all="ignore"):
        values = e.compile()(pts)
    # the C library's powers other than 1, 2 and -1 are within one ulp, so
    # the bound holds the evaluator's values to within rounding of the terms
    size = sum(max(-a, b) for a, b in (Expr(COORDS, (t,)).bound(box) for t in e.terms))
    slack = 1e-12 * size
    assert (lo - slack <= values).all() and (values <= hi + slack).all()
    if all(p in (-1, 0, 1, 2) for t in e.terms for p in t.powers):
        assert (lo <= values).all() and (values <= hi).all()


def exact_extrema(coeffs, lo, hi):
    """The least and greatest value of sum(c_i s^i) on [lo, hi], in sympy's
    exact arithmetic: each is taken at an end or at a real root of the
    derivative between them."""
    s = sympy.Symbol("s", real=True)
    poly = sympy.Poly.from_list([sympy.Rational(c) for c in reversed(coeffs)], s)
    lo, hi = sympy.Rational(lo), sympy.Rational(hi)
    points = [lo, hi]
    if poly.degree() > 1:
        points += [x for x in sympy.real_roots(poly.diff(s)) if lo <= x <= hi]
    values = [poly.as_expr().subs(s, x) for x in points]
    return sympy.Min(*values), sympy.Max(*values)


# halves up to 4 in absolute value, and ends on a grid of 1/8: exact floats
halves = st.integers(-8, 8).map(lambda c: c / 2)
eighths = st.tuples(st.integers(-16, 16), st.integers(0, 16)).map(lambda r: (r[0] / 8, (r[0] + r[1]) / 8))


@settings(max_examples=100, deadline=None)
@given(st.lists(halves, min_size=1, max_size=4), eighths, st.sampled_from(list(Mode)), st.integers(1, 3))
def test_bound_holds_the_exact_extrema(coeffs, ends, mode, freq):
    # P(s) times 1, cos(freq u) or sin(freq u): on the box, with u over a
    # whole period, the trig factor takes every value in [-1, 1], so the
    # exact extrema are those of P, or -+ the largest |P|
    freqs = None if mode == Mode.CONST else (freq, 0, 0)
    e = sum(
        (Expr.term(COORDS, c, (0, 0, i), mode, freqs) for i, c in enumerate(coeffs)), Expr.zero(COORDS)
    )
    least, greatest = exact_extrema(coeffs, *ends)
    if mode != Mode.CONST:
        greatest = sympy.Max(-least, greatest)
        least = -greatest
    lo, hi = e.bound(((0.0, math.tau), (0.0, 1.0), ends))
    assert sympy.Rational(lo) <= least and greatest <= sympy.Rational(hi)


def test_bound_of_catalog_like_coefficients():
    v = Expr.coordinate(COORDS, "s")
    lo, hi = v.bound(((0.0, 1.0), (0.0, 1.0), (0.1, 0.4)))
    assert 0.1 - 1e-15 < lo <= 0.1 and 0.4 <= hi < 0.4 + 1e-15
    lo, hi = (v * v).bound(((0.0, 1.0), (0.0, 1.0), (-0.5, 0.4)))
    assert -1e-300 < lo <= 0.0 and 0.25 <= hi < 0.25 + 1e-15
    wave = Expr.const(COORDS, 0.2) + Expr.term(COORDS, 1.0, None, Mode.COS, (8, 0, 0))
    lo, hi = wave.bound(((0.0, math.tau), (0.0, 1.0), (0.0, 1.0)))
    assert lo < -0.8 < 1.2 < hi and hi - lo < 2.0 + 1e-14
    with pytest.raises(ValueError, match="one range per coordinate"):
        v.bound(((0.0, 1.0),))


def test_is_zero_reads_the_box():
    annulus = ((0.0, math.tau), (0.6, 1.4), (0.0, 1.0))
    # 1e-9 * r^8 reaches 1.4e-8 at r = 1.4: its coefficient is at the
    # tolerance, but the expression is not
    tiny_high_power = Expr.term(COORDS, 1e-9, (0, 8, 0))
    assert not tiny_high_power.is_zero(annulus, tol=1e-9)
    assert tiny_high_power.is_zero(((0.0, 1.0), (0.0, 0.5), (0.0, 1.0)), tol=1e-9)
    # 2e-12 * r^2 stays at or below 2e-14 on r in [0, 0.1]
    assert Expr.term(COORDS, 2e-12, (0, 2, 0)).is_zero(((0.0, 1.0), (0.0, 0.1), (0.0, 1.0)))
    # a bound that overflows, or a pole in the box, proves nothing
    huge = Expr.term(COORDS, 1.0, (0, 0, 8))
    assert not huge.is_zero(((0.0, 1.0), (0.0, 1.0), (0.0, 1e100)), tol=math.inf)
    pole = Expr.term(COORDS, 1e-11, (0, 0, -1))
    assert not pole.is_zero(((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0)), tol=1.0)
    assert pole.is_zero(((0.0, 1.0), (0.0, 1.0), (1.0, 2.0)), tol=2e-11)
    # with no box, only the expression with no terms is zero
    assert Expr.zero(COORDS).is_zero() and Expr.zero(COORDS).is_zero(annulus, tol=0.0)
    assert not Expr.term(COORDS, 2e-12, (0, 2, 0)).is_zero()


# -- exp, smoothstep and sums ------------------------------------------------------

# exp stays finite and its enclosure's ends clear the subnormals here
exp_args = st.floats(-700.0, 700.0, allow_nan=False)


@quick
@given(exp_args, exp_args, fractions)
def test_exp_encloses_every_exact_exp(a, b, ts):
    x = Enclosure(*sorted((a, b)))
    r = x.exp()
    for v in reals_in(x, ts):
        assert_encloses(r, mp.exp(v))
    # EXP_ULPS floats and no more beyond numpy's value at each end
    assert float(r.hi) <= float(np.exp(x.hi)) * (1.0 + 2.0**-49)


def test_exp_of_a_point_encloses_its_exact_exp_at_both_ends():
    # exp(x) is irrational at a float x != 0, so numpy's value misses it on
    # one side, and an enclosure must move that end
    xs = np.linspace(-30.0, 30.0, 2001)
    r = Enclosure(xs, xs).exp()
    for x, lo, hi in zip(xs, r.lo, r.hi):
        assert mp.mpf(float(lo)) <= mp.exp(mp.mpf(float(x))) <= mp.mpf(float(hi))
    assert (Enclosure(-800.0, -800.0).exp().lo >= 0.0).all()


def exact_smoothstep(t):
    t = min(max(t, mp.mpf(0)), mp.mpf(1))
    return t**3 * (10 - 15 * t + 6 * t * t), 30 * t * t * (1 - t) ** 2


ramp_args = st.floats(-0.5, 1.5, allow_nan=False)


@quick
@given(ramp_args, ramp_args, fractions)
def test_smoothstep_and_its_slope_enclose_every_exact_value(a, b, ts):
    x = Enclosure(*sorted((a, b)))
    step, slope = smoothstep(x), smoothstep_slope(x)
    for v in reals_in(x, ts) + [mp.mpf(0.5)] * (a <= 0.5 <= b):
        s, s1 = exact_smoothstep(v)
        assert_encloses(step, s)
        assert_encloses(slope, s1)
    # the slope's peak is 15/8, at t = 1/2
    assert float(slope.hi) <= 1.875 * (1.0 + 2.0**-50)


def test_smoothstep_enclosures_are_tight_at_points():
    ts = np.linspace(-0.2, 1.2, 1401)
    for f, order in ((smoothstep, 0), (smoothstep_slope, 1)):
        r = f(Enclosure(ts, ts))
        for t, lo, hi in zip(ts, r.lo, r.hi):
            exact = exact_smoothstep(mp.mpf(float(t)))[order]
            assert mp.mpf(float(lo)) <= exact <= mp.mpf(float(hi))
            assert hi - lo <= 2.0**-40


terms = st.lists(
    st.tuples(st.floats(-1e16, 1e16, allow_nan=False), st.floats(0.0, 1e3), st.integers(0, 3)),
    min_size=1,
    max_size=40,
)


@quick
@given(terms)
@example([(1e16, 0.0, 0), (1.0, 0.0, 0), (-1e16, 0.0, 0)])
def test_group_sums_enclose_every_exact_sum(rows):
    # each term is [x, x + w] in group g; the groups' float sums round, and
    # cancel, but the widened sums hold the exact sums of the ends
    lo = np.array([x for x, _, _ in rows])
    hi = lo + np.array([w for _, w, _ in rows])
    groups = np.array([g for _, _, g in rows])
    r = Enclosure(lo, hi).group_sums(groups, 4)
    for g in range(4):
        exact_lo = mp.fsum(mp.mpf(float(x)) for x, gg in zip(lo, groups) if gg == g)
        exact_hi = mp.fsum(mp.mpf(float(x)) for x, gg in zip(hi, groups) if gg == g)
        assert mp.mpf(float(r.lo[g])) <= exact_lo and exact_hi <= mp.mpf(float(r.hi[g])), g


@pytest.mark.parametrize("theta", [0.5, 0.7])
def test_the_cover_disk_test_is_the_enclosure_end_a_few_ulps_from_the_circle(theta):
    # boxes whose point nearest the origin lies up to 2 ulps inside or
    # outside the circle of radius 0.98 along each axis, in all four
    # quadrants: each verdict is that of the Enclosure lower end of p^2 +
    # q^2, so a box the exact disk meets is kept, and so is every box that
    # only the sum's move one float down brings within reach
    radius = 0.98
    reach = (Enclosure.of(radius) ** 2).hi
    steps = np.arange(-2, 3)
    p0, q0 = radius * math.cos(theta), radius * math.sin(theta)
    axes = (p0 + steps * math.ulp(p0), q0 + steps * math.ulp(q0))
    near = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2)
    width = 0.01
    for signs in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        corner = near * signs
        lo = np.where(corner > 0, corner, corner - width)
        hi = np.where(corner > 0, corner + width, corner)
        got = _meets_disk(lo, hi, reach)
        want = (Enclosure.of(near[:, 0]) ** 2 + Enclosure.of(near[:, 1]) ** 2).lo <= reach
        assert got.tolist() == want.tolist()
        assert 0 < got.sum() < len(got)
        exact = [Fraction(p) ** 2 + Fraction(q) ** 2 <= Fraction(radius) ** 2 for p, q in near.tolist()]
        assert all(got[exact])
        # the boxes that a sum rounded to nearest would put past the reach
        squares = np.maximum(np.nextafter(near * near, -np.inf), 0.0)
        assert (got & (squares.sum(axis=1) > reach)).any()
    # a box across an axis is nearest the origin on that axis
    lo, hi = np.array([[-0.1, q0]]), np.array([[0.1, q0 + width]])
    assert _meets_disk(lo, hi, reach).tolist() == [True]
    assert _meets_disk(lo, hi, q0 * q0 * (1.0 - 1e-15)).tolist() == [False]
