"""Unit tests for the exact trigonometric polynomial layer."""

import math

import numpy as np
import pytest

from engelbook.trigpoly import (
    KIND_ANGULAR,
    KIND_LINEAR,
    KIND_POLYNOMIAL,
    Coordinate,
    Expr,
    Mode,
    ParseError,
    canonical_equal,
    parse_expression,
)

XY = (Coordinate("x", KIND_ANGULAR), Coordinate("y", KIND_ANGULAR))
MIX = (
    Coordinate("x", KIND_ANGULAR),
    Coordinate("y", KIND_ANGULAR),
    Coordinate("r", KIND_LINEAR),
    Coordinate("s", KIND_POLYNOMIAL),
)


def parse(text, coords=MIX):
    return parse_expression(text, coords)


def sample_values(rng, coords=MIX):
    # keep polynomial coordinates away from 0 so Laurent powers stay finite
    return {c.name: float(rng.uniform(0.3, 2.0)) for c in coords}


def at(e, vals):
    """``e`` at the point whose coordinates ``vals`` gives by name."""
    return e.compile()(np.array([vals[c.name] for c in e.coords]))


def random_expr(rng, coords=MIX, n_terms=4):
    terms = []
    for _ in range(n_terms):
        coeff = float(rng.uniform(-2.0, 2.0))
        powers = [0] * len(coords)
        freqs = [0] * len(coords)
        for i, c in enumerate(coords):
            if c.kind != KIND_ANGULAR:
                powers[i] = int(rng.integers(0, 3))
            if c.kind == KIND_ANGULAR:
                freqs[i] = int(rng.integers(-3, 4))
            elif c.kind == KIND_LINEAR:
                freqs[i] = int(rng.integers(-1, 2))
        mode = Mode(int(rng.integers(0, 3)))
        phase = float(rng.uniform(0.0, math.tau))
        e = Expr.term(coords, coeff, powers, mode, freqs, phase)
        terms.append(e)
    out = Expr.zero(coords)
    for e in terms:
        out = out + e
    return out


class TestCanonicalForm:
    @pytest.mark.parametrize(
        "left,right",
        [
            ("cos(x)*cos(y)", "0.5*cos(x - y) + 0.5*cos(x + y)"),
            ("sin(x)*sin(y)", "0.5*cos(x - y) - 0.5*cos(x + y)"),
            ("sin(x)*cos(y)", "0.5*sin(x + y) + 0.5*sin(x - y)"),
            ("cos(x)*sin(y)", "0.5*sin(x + y) - 0.5*sin(x - y)"),
        ],
    )
    def test_product_to_sum(self, left, right):
        a = parse(left, XY)
        b = parse(right, XY)
        assert canonical_equal(a, b, tol=1e-12)

    def test_pythagorean_identity_collapses_to_one(self):
        e = parse("sin(3*x + 0.7)*sin(3*x + 0.7) + cos(3*x + 0.7)*cos(3*x + 0.7)", XY)
        assert len(e.terms) == 1
        assert e.terms[0].mode == Mode.CONST
        assert e.terms[0].coeff == pytest.approx(1.0, abs=1e-15)

    def test_argument_orientation_flips_sign_of_sine(self):
        a = parse("sin(-x + y)", XY)
        b = parse("-sin(x - y)", XY)
        assert canonical_equal(a, b, tol=1e-12)
        # the stored term must carry a positive leading frequency
        assert a.terms[0].freqs == (1, -1)

    @pytest.mark.parametrize(
        "text,reference",
        [
            ("cos(x + pi)", lambda x: -math.cos(x)),
            ("sin(x + pi)", lambda x: -math.sin(x)),
            ("cos(x + 1.5707963267948966)", lambda x: -math.sin(x)),
            ("sin(x + 4.71238898038469)", lambda x: -math.cos(x)),
            ("cos(x - 0.5)", lambda x: math.cos(x - 0.5)),
        ],
    )
    def test_phase_folding_preserves_values(self, text, reference):
        e = parse(text, XY)
        assert all(0.0 <= t.phase < math.pi / 2 for t in e.terms)
        for x in np.linspace(0.0, math.tau, 17):
            got = e.compile()(np.array([x, 0.0]))
            assert got == pytest.approx(reference(x), abs=1e-12)

    def test_gluing_shear_substitution(self):
        # shear y -> y, phi -> phi - y sends cos(3 phi + 5 y) to cos(3 phi + 2 y)
        coords = (Coordinate("y", KIND_ANGULAR), Coordinate("phi", KIND_ANGULAR))
        pre = parse_expression("cos(3*phi + 5*y)", coords)
        sheared = pre.substitute(coords, {"phi": ({"phi": 1, "y": -1}, 0.0)})
        assert canonical_equal(sheared, parse_expression("cos(3*phi + 2*y)", coords), tol=1e-12)

    def test_merge_cancels_exactly(self):
        e = parse("cos(x + y) - cos(x + y)", XY)
        assert e.terms == ()
        assert e.is_zero()


class TestArithmetic:
    def test_multiplication_commutes(self):
        rng = np.random.default_rng(20260817)
        for _ in range(10):
            a = random_expr(rng)
            b = random_expr(rng)
            assert canonical_equal(a * b, b * a, tol=1e-12)

    def test_multiplication_associates(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            a = random_expr(rng, n_terms=2)
            b = random_expr(rng, n_terms=2)
            c = random_expr(rng, n_terms=2)
            assert canonical_equal((a * b) * c, a * (b * c), tol=1e-9)

    def test_product_rule(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            a = random_expr(rng, n_terms=3)
            b = random_expr(rng, n_terms=3)
            for name in ("x", "r", "s"):
                lhs = (a * b).partial(name)
                rhs = a.partial(name) * b + a * b.partial(name)
                assert canonical_equal(lhs, rhs, tol=1e-9)

    def test_scalar_ops(self):
        e = parse("2*s + cos(x)")
        assert canonical_equal(3 * e - e, 2 * e, tol=1e-12)
        assert canonical_equal(e * 0, Expr.zero(MIX), tol=1e-12)
        assert canonical_equal(e**2, e * e, tol=1e-12)

    def test_mixed_chart_addition_rejected(self):
        with pytest.raises(ValueError):
            parse("cos(x)", XY) + parse("cos(x)")

    def test_float_scaling_drops_negligible_terms(self):
        # a term scaled to ZERO_TOL or below is dropped, as every other path
        # drops it, so that a == a + 0 and the zero short-circuits are exact
        x = parse("s*cos(x)")
        a = x * 1e-13
        assert a.terms == ()
        assert a == x * Expr.const(MIX, 1e-13)
        assert a == a + 0
        assert [t.coeff for t in (x * 2e-12).terms] == [2e-12]

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
    def test_float_scaling_refuses_a_factor_that_is_not_finite(self, factor):
        # a NaN factor used to drop every term, turning x * nan into 0
        for e in (parse("s*cos(x)"), Expr.zero(MIX)):
            with pytest.raises(ValueError, match="not finite"):
                e * factor
            with pytest.raises(ValueError, match="not finite"):
                factor * e

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_a_coefficient_that_is_not_finite_is_refused(self, coeff):
        # NaN was dropped as a zero, and inf was kept and then crashed str()
        with pytest.raises(ValueError, match="not finite"):
            Expr.const(MIX, coeff)
        with pytest.raises(ValueError, match="not finite"):
            Expr.term(MIX, coeff, (0, 0, 1, 0), Mode.COS, (1, 0, 0, 0), 0.0)
        with pytest.raises(ValueError, match="not finite"):
            parse("s") + coeff

    def test_finite_coefficients_that_overflow_are_refused(self):
        big = Expr.term(MIX, 1e308, (0, 0, 0, 1))
        with pytest.raises(ValueError, match="not finite"):
            big * 1e10
        with pytest.raises(ValueError, match="not finite"):
            big * big
        with pytest.raises(ValueError, match="not finite"):
            big + big * 1.7

    def test_zero_operands_keep_chart_and_name_checks(self):
        zero, other_zero = Expr.zero(MIX), Expr.zero(XY)
        e = parse("2*s + cos(x)")
        for op in (lambda a, b: a + b, lambda a, b: a * b):
            with pytest.raises(ValueError):
                op(zero, other_zero)
            with pytest.raises(ValueError):
                op(e, other_zero)
            with pytest.raises(ValueError):
                op(other_zero, e)
        with pytest.raises(KeyError):
            zero.partial("nope")
        assert e + zero is e and zero + e is e
        assert (e * zero).terms == () and (zero * e).terms == ()
        assert zero.partial("s") == zero


class TestCalculusAndEvaluation:
    def test_derivative_matches_central_difference(self):
        rng = np.random.default_rng(99)
        h = 1e-5
        for _ in range(8):
            e = random_expr(rng)
            for name in ("x", "y", "r", "s"):
                d = e.partial(name)
                for _ in range(5):
                    vals = sample_values(rng)
                    up = dict(vals)
                    dn = dict(vals)
                    up[name] = vals[name] + h
                    dn[name] = vals[name] - h
                    fd = (at(e, up) - at(e, dn)) / (2 * h)
                    sym = at(d, vals)
                    assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym))

    def test_laurent_negative_power(self):
        e = parse("s^-2")
        pt = np.array([0.0, 0.0, 0.0, 2.0])
        assert e.compile()(pt) == pytest.approx(0.25)
        assert e.partial("s").compile()(pt) == pytest.approx(-2 / 8)

    def test_zero_expr_broadcasts(self):
        z = Expr.zero(XY)
        out = z.compile()(np.zeros((7, 2)))
        assert out.shape == (7,)
        assert not out.any()


class TestSubstitution:
    def test_substitute_constants_restricts_chart(self):
        e = parse("r^2*cos(3*x + y)")
        ys = (Coordinate("y", KIND_ANGULAR), Coordinate("s", KIND_POLYNOMIAL))
        rest = e.substitute(ys, {"x": 0.3, "r": 2.0})
        expected = parse_expression("4*cos(y + 0.8999999999999999)", ys)
        assert canonical_equal(rest, expected, tol=1e-12)

    def test_substitute_constant_zero_kills_positive_powers(self):
        e = parse("s*cos(x) + 2*s^2")
        rest = e.substitute(MIX[:3], {"s": 0.0})
        assert rest.is_zero()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_substitute_refuses_a_constant_that_makes_a_coefficient_not_finite(self, value):
        # a NaN image used to fold "s*r + 1" to the constant 1
        with pytest.raises(ValueError):
            parse("s*r + 1").substitute(MIX[:3], {"s": value})

    def test_substitute_zero_into_pole_raises(self):
        with pytest.raises(ValueError):
            parse("s^-1").substitute(MIX[:3], {"s": 0.0})

    def test_affine_substitution_matches_pointwise(self):
        rng = np.random.default_rng(13)
        e = random_expr(rng, coords=XY)
        sub = e.substitute(XY, {"x": ({"x": 1, "y": 2}, 0.25)})
        for _ in range(10):
            x = float(rng.uniform(0, math.tau))
            y = float(rng.uniform(0, math.tau))
            lhs = sub.compile()(np.array([x, y]))
            rhs = e.compile()(np.array([x + 2 * y + 0.25, y]))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_affine_substitution_guards_powers(self):
        e = parse("s^2")
        with pytest.raises(ValueError):
            e.substitute(MIX, {"s": ({"s": 1, "r": 1}, 0.0)})

    def test_substitution_edge_cases(self):
        # a constant that zeroes a term drops it before a later pole check
        assert parse("r*s^-1").substitute(MIX[:2], {"r": 0.0, "s": 0.0}).is_zero()
        # a power through a sign flip picks up the sign
        flipped = parse("r^3 + s^2").substitute(MIX, {"r": ({"r": -1}, 0.0), "s": ({"s": -1}, 0.0)})
        assert canonical_equal(flipped, parse("-r^3 + s^2"), tol=0.0)
        with pytest.raises(ValueError, match="power on angular"):
            parse("r^2").substitute(MIX, {"r": ({"x": -1}, 0.0)})
        with pytest.raises(ValueError, match="frequency on coordinate 's'"):
            parse("cos(r)").substitute(MIX, {"r": ({"r": 1, "s": 1}, 0.0)})
        with pytest.raises(ValueError, match="integers"):
            parse("cos(x)").substitute(MIX, {"x": ({"x": 1.5}, 0.0)})

    def test_rename_keeps_kinds(self):
        e = parse("cos(x + 2*y)", XY)
        uv = (Coordinate("u", KIND_ANGULAR), Coordinate("v", KIND_ANGULAR))
        rename = {"x": ({"u": 1}, 0.0), "y": ({"v": 1}, 0.0)}
        renamed = e.substitute(uv, rename)
        assert renamed.compile()(np.array([0.2, 0.3])) == pytest.approx(math.cos(0.8))
        # by name onto a larger, reordered chart
        wider = e.substitute((Coordinate("s", KIND_POLYNOMIAL),) + XY[::-1])
        # (s, y, x)
        assert wider.compile()(np.array([5.0, 0.3, 0.2])) == pytest.approx(math.cos(0.8))
        with pytest.raises(ValueError):
            e.substitute((Coordinate("u", KIND_LINEAR), uv[1]), rename)


class TestParser:
    def test_round_trip_random(self):
        rng = np.random.default_rng(20260817)
        for _ in range(20):
            e = random_expr(rng)
            back = parse(e.to_string())
            assert canonical_equal(e, back, tol=1e-9)

    def test_round_trip_zero(self):
        assert parse("0").is_zero()
        assert parse(Expr.zero(MIX).to_string()).is_zero()

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("cos(0.5*x)", "non-integer frequency"),
            ("x + 1", "only inside cos or sin"),
            ("q + 1", "unknown coordinate"),
            ("cos(2*r)", "frequency magnitude 2"),
            ("cos(x", "expected ')'"),
            ("sin(s)", "may not appear inside"),
            ("s^1.5", "exponent must be an integer"),
            ("2 + * 3", "unexpected token"),
            ("s $ 2", "unexpected character"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert fragment in str(err.value)

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse("cos(0.5*x)")
        assert err.value.position == 4
        with pytest.raises(ParseError) as err:
            parse("1 + q")
        assert err.value.position == 4

    def test_unary_minus_and_parens(self):
        e = parse("-(2*s - 1) * cos(x)")
        for x, s in [(0.3, 1.2), (1.1, 0.5)]:
            got = e.compile()(np.array([x, 0.0, 0.0, s]))
            assert got == pytest.approx(-(2 * s - 1) * math.cos(x), abs=1e-14)

    def test_linear_coordinate_unit_frequency(self):
        e = parse("cos(r + 0.25)")
        assert e.compile()(np.array([0.0, 0.0, 0.5, 1.0])) == pytest.approx(
            math.cos(0.75)
        )

    def test_builder_rejects_bad_placement(self):
        with pytest.raises(ValueError):
            Expr.term(MIX, 1.0, powers=[1, 0, 0, 0])
        with pytest.raises(ValueError):
            Expr.term(MIX, 1.0, mode=Mode.COS, freqs=[0, 0, 0, 1])

    def test_builder_takes_only_a_mode_value(self):
        x = XY[:1]
        for bad in (5, None, -1):
            with pytest.raises(ValueError):
                Expr.term(x, 1.0, None, bad, (1,), 0.2)
        e = Expr.term(x, 1.0, None, 1, (1,), 0.2)
        assert type(e.terms[0].mode) is Mode
        assert e == Expr.term(x, 1.0, None, Mode.COS, (1,), 0.2)
        assert str(e) == str(parse_expression("cos(x + 0.2)", x))
        assert e.compile()(np.array([0.3])) == pytest.approx(math.cos(0.5), abs=1e-15)
