"""Unit tests for charts, fields, forms, and exterior calculus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelbook.charts import (
    Chart,
    IntegerAffineMap,
    Interval,
    batch_eval_scalars,
    dependent_axes,
    differential,
    exterior_derivative,
    field_matrix,
    interior_product,
    lie_bracket,
    lie_derivative_oneform,
    pointwise_rank,
    wedge_top,
)
from engelbook.trigpoly import (
    KIND_ANGULAR,
    KIND_LINEAR,
    KIND_POLYNOMIAL,
    canonical_equal,
)

BOX = Interval(-1.0, 1.0)

DARBOUX = Chart.make(
    "darboux",
    [
        ("x", KIND_POLYNOMIAL, BOX),
        ("y", KIND_POLYNOMIAL, BOX),
        ("z", KIND_POLYNOMIAL, BOX),
        ("w", KIND_POLYNOMIAL, BOX),
    ],
)

DISK3 = Chart.make(
    "disk3",
    [
        ("x", KIND_POLYNOMIAL, BOX),
        ("y", KIND_POLYNOMIAL, BOX),
        ("z", KIND_POLYNOMIAL, BOX),
        ("theta", KIND_LINEAR, Interval(0.0, 2.0 * math.tau)),
    ],
)

TORUS_COLLAR = Chart.make(
    "collar3",
    [
        ("x", KIND_ANGULAR),
        ("y", KIND_ANGULAR),
        ("r", KIND_LINEAR, Interval(0.0, 1.0)),
    ],
)

SHEAR_CHART = Chart.make(
    "shear",
    [
        ("x", KIND_ANGULAR),
        ("y", KIND_ANGULAR),
        ("r", KIND_POLYNOMIAL, Interval(0.1, 1.0)),
        ("phi", KIND_ANGULAR),
    ],
)


def central_difference(f, pts, i, h=1e-6):
    """The partial of the compiled ``f`` along axis i at ``pts``, by central
    differences."""
    step = np.zeros(pts.shape[-1])
    step[i] = h
    return (f(pts + step) - f(pts - step)) / (2.0 * h)


def central_difference_bracket(X, Y, pts):
    """[X, Y] at ``pts`` from central differences of the compiled components:
    [X, Y]^j = sum_i X^i d_i Y^j - Y^i d_i X^j."""
    fx, fy = X.compile(), Y.compile()
    vx, vy = fx(pts), fy(pts)
    return sum(
        vx[:, i : i + 1] * central_difference(fy, pts, i)
        - vy[:, i : i + 1] * central_difference(fx, pts, i)
        for i in range(pts.shape[-1])
    )


class TestBrackets:
    def test_disk3_frame_brackets(self):
        # V1 = d/dtheta, V2 = cos(theta - t0) d/dx + z cos(theta - t0) d/dy
        #                    + sin(theta - t0) d/dz
        t0 = 0.3
        v1 = DISK3.basis_vector("theta")
        v2 = DISK3.vector_field(
            {
                "x": f"cos(theta - {t0})",
                "y": f"z*cos(theta - {t0})",
                "z": f"sin(theta - {t0})",
            }
        )
        b12 = lie_bracket(v1, v2)
        expected = DISK3.vector_field(
            {
                "x": f"-sin(theta - {t0})",
                "y": f"-z*sin(theta - {t0})",
                "z": f"cos(theta - {t0})",
            }
        )
        for got, want in zip(b12.components, expected.components):
            assert canonical_equal(got, want, tol=1e-12)

        # the second bracket closes onto an exact constant field
        b2 = lie_bracket(v2, b12)
        minus_dy = DISK3.vector_field({"y": -1.0})
        for got, want in zip(b2.components, minus_dy.components):
            assert canonical_equal(got, want, tol=1e-12)

    def test_bracket_antisymmetry_and_jacobi(self):
        rng = np.random.default_rng(42)
        f1 = SHEAR_CHART.parse("r*cos(x + 2*phi)")
        f2 = SHEAR_CHART.parse("r^2*sin(y)")
        f3 = SHEAR_CHART.parse("cos(phi - y)")
        X = SHEAR_CHART.vector_field({"x": f1, "r": f2})
        Y = SHEAR_CHART.vector_field({"y": f3, "phi": f1})
        Z = SHEAR_CHART.vector_field({"phi": f2, "x": f3})

        anti = lie_bracket(X, Y) + lie_bracket(Y, X)
        for comp in anti.components:
            assert comp.is_zero(tol=1e-12)

        jac = (
            lie_bracket(X, lie_bracket(Y, Z))
            + lie_bracket(Y, lie_bracket(Z, X))
            + lie_bracket(Z, lie_bracket(X, Y))
        )
        pts = SHEAR_CHART.sample_random(50, rng)
        vals = field_matrix([jac], pts)
        assert np.max(np.abs(vals)) <= 1e-9

    def test_exact_bracket_matches_finite_difference(self):
        # the exact bracket against [X, Y]^j = X(Y^j) - Y(X^j) with every
        # partial a central difference of the compiled components
        rng = np.random.default_rng(3)
        X = SHEAR_CHART.vector_field({"x": "r*cos(x + 2*phi)", "r": "r^2*sin(y)"})
        Y = SHEAR_CHART.vector_field({"y": "cos(phi - y)", "phi": "r*cos(x + 2*phi)"})
        pts = SHEAR_CHART.sample_random(25, rng)
        ve = field_matrix([lie_bracket(X, Y)], pts)[:, 0, :]
        va = central_difference_bracket(X, Y, pts)
        assert np.max(np.abs(ve - va)) <= 1e-5 * (1.0 + np.max(np.abs(ve)))


class TestExteriorCalculus:
    def test_darboux_top_wedge(self):
        # alpha = dz - y dx has alpha ^ dalpha = dx ^ dy ^ dz
        alpha = DARBOUX.one_form({"z": 1.0, "x": "-y"})
        omega = exterior_derivative(alpha)
        coeffs = dict(wedge_top(alpha, omega))
        assert canonical_equal(coeffs[(0, 1, 2)], DARBOUX.const(1.0), tol=1e-12)
        for triple in [(0, 1, 3), (0, 2, 3), (1, 2, 3)]:
            assert coeffs[triple].is_zero(tol=1e-12)

    def test_collar_wedge_is_exactly_one(self):
        # cos(r + a) dx - sin(r + a) dy on the 3-torus collar: the top wedge
        # collapses to the constant 1 through the Pythagorean identity
        a = math.pi / 4
        alpha = TORUS_COLLAR.one_form({"x": f"cos(r + {a})", "y": f"-sin(r + {a})"})
        coeffs = wedge_top(alpha, exterior_derivative(alpha))
        assert len(coeffs) == 1
        assert canonical_equal(coeffs[0][1], TORUS_COLLAR.const(1.0), tol=1e-12)

    def test_d_squared_is_zero(self):
        f = SHEAR_CHART.parse("r^2*cos(x + 3*phi) + sin(y)")
        ddf = exterior_derivative(differential(f, SHEAR_CHART))
        for comp in ddf.components:
            assert comp.is_zero(tol=1e-12)

    def test_interior_product_matches_two_form_pairing(self):
        rng = np.random.default_rng(8)
        alpha = SHEAR_CHART.one_form({"x": "r*sin(phi)", "y": "r^2", "phi": "cos(x - y)"})
        omega = exterior_derivative(alpha)
        X = SHEAR_CHART.vector_field({"x": "cos(phi)", "r": "r", "phi": "sin(y)"})
        Y = SHEAR_CHART.vector_field({"y": "r*cos(x)", "phi": "1"})
        lhs = omega.apply(X, Y)
        rhs = interior_product(omega, X).apply(Y)
        pts = SHEAR_CHART.sample_random(40, rng)
        diff = batch_eval_scalars([lhs], pts) - batch_eval_scalars([rhs], pts)
        assert np.max(np.abs(diff)) <= 1e-12

    def test_cartan_formula_on_contact_field(self):
        # L = d/dy + x d/dz preserves ker(dz - y dx); L = d/dy does not
        alpha = DARBOUX.one_form({"z": 1.0, "x": "-y"})
        good = DARBOUX.vector_field({"y": 1.0, "z": "x"})
        lie_good = lie_derivative_oneform(good, alpha)
        for comp in lie_good.components:
            assert comp.is_zero(tol=1e-12)

        bad = DARBOUX.vector_field({"y": 1.0})
        lie_bad = lie_derivative_oneform(bad, alpha)
        # L_bad alpha = -dx
        assert canonical_equal(lie_bad.components[0], DARBOUX.const(-1.0), tol=1e-12)
        for comp in lie_bad.components[1:]:
            assert comp.is_zero(tol=1e-12)


class TestChartMaps:
    def test_shear_pushforward_of_dy(self):
        n = SHEAR_CHART.dim
        matrix = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        matrix[SHEAR_CHART.index("phi")][SHEAR_CHART.index("y")] = 1
        shear = IntegerAffineMap(SHEAR_CHART, tuple(map(tuple, matrix)), (0.0,) * n)

        dy = SHEAR_CHART.basis_vector("y")
        pushed = shear.pushforward(dy)
        expected = SHEAR_CHART.vector_field({"y": 1.0, "phi": 1.0})
        for got, want in zip(pushed.components, expected.components):
            assert canonical_equal(got, want, tol=1e-12)

    def test_pullback_pairs_with_pushforward(self):
        rng = np.random.default_rng(17)
        n = SHEAR_CHART.dim
        matrix = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        matrix[SHEAR_CHART.index("phi")][SHEAR_CHART.index("y")] = 1
        shear = IntegerAffineMap(SHEAR_CHART, tuple(map(tuple, matrix)), (0.0, 0.5, 0.0, 0.0))

        alpha = SHEAR_CHART.one_form({"x": "r*cos(phi)", "phi": "r^2"})
        X = SHEAR_CHART.vector_field({"y": "cos(x + phi)", "phi": "r*sin(y)"})
        # (f^* alpha)(X) at p, that is alpha(f(p)) . A X(p), equals alpha(f_* X) at f(p)
        a = np.array(matrix, float)
        pts = SHEAR_CHART.sample_random(30, rng)
        mapped = pts @ a.T + np.array(shear.offset)
        alpha_mapped = batch_eval_scalars(alpha.components, mapped)
        lv = np.einsum("ij,ij->i", alpha_mapped, batch_eval_scalars(X.components, pts) @ a.T)
        rv_mapped = batch_eval_scalars([alpha.apply(shear.pushforward(X))], mapped)[:, 0]
        assert np.max(np.abs(lv - rv_mapped)) <= 1e-10

    def test_non_unimodular_rejected(self):
        n = SHEAR_CHART.dim
        matrix = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        with pytest.raises(ValueError):
            IntegerAffineMap(SHEAR_CHART, tuple(map(tuple, matrix)), (0.0,) * n)

    def test_inverse_round_trip(self):
        n = SHEAR_CHART.dim
        matrix = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        matrix[SHEAR_CHART.index("phi")][SHEAR_CHART.index("y")] = 1
        shear = IntegerAffineMap(SHEAR_CHART, tuple(map(tuple, matrix)), (0.0, 0.5, 0.0, 0.0))
        rng = np.random.default_rng(4)
        pts = SHEAR_CHART.sample_random(10, rng)
        inv = shear.inverse()
        mapped = pts @ np.array(matrix, float).T + np.array(shear.offset)
        back = mapped @ np.array(inv.matrix, float).T + np.array(inv.offset)
        assert np.max(np.abs(back - pts)) <= 1e-12


class TestSamplingAndRank:
    def test_grid_respects_open_margins(self):
        chart = Chart.make(
            "strip",
            [("phi", KIND_ANGULAR), ("r", KIND_POLYNOMIAL, Interval(0.0, 1.0))],
        )
        pts = chart.sample_grid(9)
        assert pts.shape == (81, 2)
        r = pts[:, 1]
        assert r.min() >= 1e-3 - 1e-15
        assert r.max() <= 1.0 - 1e-3 + 1e-15

    @pytest.mark.parametrize(
        "x_range, z_range", [((0.5, 0.5), (0.0, 0.0)), ((1.0, -1.0), (0.0, math.tau))], ids=["empty", "falling"]
    )
    def test_empty_or_falling_chart_is_refused(self, x_range, z_range):
        # on either chart a contact check of dz - y dx passed with 1000
        # points; the empty one holds only 10 distinct points
        with pytest.raises(ValueError, match="is empty: its low end must lie below its high end"):
            Chart.make(
                "box",
                [
                    ("x", KIND_POLYNOMIAL, Interval(*x_range)),
                    ("y", KIND_POLYNOMIAL, Interval(-1.0, 1.0)),
                    ("z", KIND_ANGULAR, Interval(*z_range)),
                ],
            )

    @pytest.mark.parametrize("lo, hi", [(-0.0, 0.0), (0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    def test_interval_needs_finite_rising_ends(self, lo, hi):
        with pytest.raises(ValueError, match="interval"):
            Interval(lo, hi)

    def test_angular_range_is_at_most_one_period(self):
        Chart.make("circle", [("t", KIND_ANGULAR, Interval(-math.pi, math.pi))])
        with pytest.raises(ValueError, match="chart 'circle': angular coordinate 't' .* one period"):
            Chart.make("circle", [("t", KIND_ANGULAR, Interval(0.0, 7.0))])
        # a linear coordinate may span more
        Chart.make("line", [("t", KIND_LINEAR, Interval(0.0, 7.0))])

    def test_grid_for_min_points(self):
        axes = DARBOUX.axes_for_min_points(1000)
        assert [len(a) for a in axes] == [6] * 4  # 6^4 = 1296 >= 1000 > 5^4

    def test_pointwise_rank_counts_and_gap(self):
        chart = DARBOUX
        fields = [
            chart.basis_vector("x"),
            chart.basis_vector("y"),
            chart.vector_field({"x": 1.0, "y": 1.0}),
        ]
        pts = chart.sample_grid(3)
        mats = field_matrix(fields, pts)
        ranks, gaps = pointwise_rank(mats)
        assert (ranks == 2).all()
        # the dependent third field leaves a gap below the tolerance
        assert (np.abs(gaps) <= 1e-9).all()
        # smallest singular value of the independent pair is 1
        ranks, gaps = pointwise_rank(mats[:, :2])
        assert (ranks == 2).all() and np.allclose(gaps, 1.0)
        with pytest.raises(ValueError):
            pointwise_rank(mats, tol=-1.0)

    def test_pointwise_rank_gap_is_the_smallest_singular_value(self):
        mats = np.array([np.eye(3), np.diag([2.0, 1.0, 1e-10]), np.full((3, 3), np.nan)])
        ranks, gaps = pointwise_rank(mats)
        # a matrix short of full rank reports the singular value it misses
        assert ranks.tolist() == [3, 2, 0] and gaps.tolist() == [1.0, 1e-10, 0.0]

    def test_sample_axes_are_built_once_and_read_only(self):
        axes = DARBOUX.sample_axes(5)
        twin = Chart(DARBOUX.name, DARBOUX.coords, DARBOUX.bounds)
        assert twin is not DARBOUX
        assert all(a is b for a, b in zip(axes, twin.sample_axes(5)))
        assert DARBOUX.axes_for_min_points(600) is axes  # 5^4 = 625 >= 600
        for a in axes:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        # a -0.0 bound equals 0.0 and shares its axes, which start at +0.0
        signed = [Chart.make("c", [("u", KIND_ANGULAR, Interval(lo, 1.0))]) for lo in (0.0, -0.0)]
        assert signed[1].sample_axes(4) is signed[0].sample_axes(4)
        assert math.copysign(1.0, signed[1].sample_axes(4)[0][0]) == 1.0
        # a grid is the caller's own array
        grid = DARBOUX.sample_grid(5)
        grid[0, 0] = 7.0
        assert DARBOUX.sample_axes(5)[0][0] == -0.998


def svd_loop_rank(mats, tol=1e-9):
    """Reference rank and gap: one SVD per matrix, in batch order."""
    mats = np.asarray(mats, float)
    *batch, r, d = mats.shape
    flat = mats.reshape(-1, r, d)
    s = np.zeros((len(flat), min(r, d)))
    for i, m in enumerate(flat):
        s[i] = np.linalg.svd(m, compute_uv=False)
    s = s.reshape(*batch, min(r, d))
    return (s > tol).sum(axis=-1), s[..., -1]


def _stack_with_repeats(n=60, rows=5, cols=4, distinct=7, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(distinct, rows, cols))
    return base[rng.integers(0, distinct, size=n)]


def _signed_zeros():
    mats = _stack_with_repeats()
    mats[::3, 1, 2] = 0.0
    mats[1::3, 1, 2] = -0.0
    return mats


def _rank_deficient():
    mats = _stack_with_repeats()
    mats[::2, 2] = mats[::2, 0] + mats[::2, 1]  # rank 3 of 4
    mats[::5, 1:] = 0.0  # rank 1
    mats[7] = 0.0  # rank 0
    return mats


@pytest.mark.parametrize(
    "mats",
    [
        pytest.param(_stack_with_repeats(), id="repeats"),
        pytest.param(_signed_zeros(), id="signed-zeros"),
        pytest.param(_stack_with_repeats()[:, :3], id="non-contiguous-slice"),
        pytest.param(_stack_with_repeats().reshape(6, 10, 5, 4), id="2d-batch"),
        pytest.param(np.zeros((0, 5, 4)), id="empty"),
        pytest.param(_rank_deficient(), id="rank-deficient"),
    ],
)
def test_pointwise_rank_is_bitwise_equal_to_svd_loop(mats):
    ranks, gaps = pointwise_rank(mats)
    want_ranks, want_gaps = svd_loop_rank(mats)
    assert ranks.shape == gaps.shape == mats.shape[:-2]
    assert np.array_equal(ranks, want_ranks)
    assert gaps.dtype == want_gaps.dtype and gaps.tobytes() == want_gaps.tobytes()


@pytest.mark.parametrize("non_finite", [False, True], ids=["finite", "non-finite"])
def test_pointwise_rank_is_an_svd_loop_and_leaves_its_input_unwritten(non_finite):
    mats = _stack_with_repeats(n=40)
    if non_finite:
        mats[[3, 17, 18]] = mats[3]  # repeats of a matrix that turns non-finite
        mats[3, 0, 0] = mats[17, 2, 1] = mats[18, 4, 3] = np.nan
        mats[25, 1, 1] = np.inf
    before = mats.copy()
    mats.flags.writeable = False
    ranks, gaps = pointwise_rank(mats)
    assert mats.tobytes() == before.tobytes()
    finite = np.isfinite(before).all(axis=(-2, -1))
    want_ranks, want_gaps = svd_loop_rank(np.where(finite[:, None, None], before, 0.0))
    assert np.array_equal(ranks, want_ranks)
    assert gaps.tobytes() == want_gaps.tobytes()
    assert (ranks[~finite] == 0).all() and (gaps[~finite] == 0.0).all()


def test_pointwise_rank_gives_non_finite_matrices_rank_zero():
    mats = _stack_with_repeats(n=6)
    mats[1, 0, 0] = np.nan
    mats[3, 2, 1] = np.inf
    mats[4, 4, 3] = -np.inf
    ranks, gaps = pointwise_rank(mats)
    finite = [0, 2, 5]
    assert ranks.tolist() == [4, 0, 4, 0, 0, 4]
    assert gaps[[1, 3, 4]].tolist() == [0.0, 0.0, 0.0]
    want_ranks, want_gaps = svd_loop_rank(mats[finite])
    assert np.array_equal(ranks[finite], want_ranks)
    assert gaps[finite].tobytes() == want_gaps.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 5),
    st.integers(1, 5),
    st.lists(st.integers(0, 39), max_size=40),
    st.integers(0, 2**32 - 1),
)
def test_pointwise_rank_with_repeats_matches_svd_loop(n, rows, cols, copies, seed):
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(n, rows, cols))
    zero = rng.random(mats.shape) < 0.2
    mats[zero] = np.copysign(0.0, mats[zero])  # signed zeros are distinct keys
    for i, j in zip(copies, copies[1:]):
        mats[j % n] = mats[i % n]
    ranks, gaps = pointwise_rank(mats)
    want_ranks, want_gaps = svd_loop_rank(mats)
    assert np.array_equal(ranks, want_ranks)
    assert gaps.tobytes() == want_gaps.tobytes()


def compile_every_scalar(scalars, pts):
    """``batch_eval_scalars`` before constant columns skipped the compile."""
    pts = np.asarray(pts, float)
    cols = [np.broadcast_to(np.asarray(s.compile()(pts), float), pts.shape[:-1]) for s in scalars]
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("shape", [(4,), (9, 4), (3, 5, 4)], ids=["point", "rows", "grid"])
def test_batch_eval_scalars_zero_columns_match_the_compiled_path(shape):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, size=shape)
    flat = pts.reshape(-1, 4)
    flat[::2, 1] = -0.0
    flat[::3, 2] = math.nan
    scalars = [
        DARBOUX.zero(),
        DARBOUX.const(-2.5),
        DARBOUX.parse("x*y - 3*z^2 + w"),
        DARBOUX.zero(),
    ]
    got = batch_eval_scalars(scalars, pts)
    ref = compile_every_scalar(scalars, pts)
    assert got.shape == ref.shape == shape[:-1] + (len(scalars),)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    for j in (0, 3):
        assert not np.signbit(got[..., j]).any()


class TestDependentAxes:
    def test_zero_and_constant_read_nothing(self):
        assert dependent_axes([]) == ()
        assert dependent_axes([SHEAR_CHART.zero(), SHEAR_CHART.const(-2.5)]) == ()
        # a term whose powers cancel and a trig factor at frequency 0 are constants
        assert dependent_axes([SHEAR_CHART.parse("r^-1*r + 3*cos(0)")]) == ()

    def test_negative_laurent_power_reads_its_axis(self):
        assert dependent_axes([SHEAR_CHART.parse("r^-2")]) == (2,)

    def test_frequency_alone_reads_its_axis(self):
        # no power of x or phi, only their frequencies in the cosine
        assert dependent_axes([SHEAR_CHART.parse("cos(x + phi)")]) == (0, 3)
        assert dependent_axes([DISK3.parse("sin(theta)"), DISK3.parse("y^2")]) == (1, 3)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_chart_refuses_a_constant_that_is_not_finite(value):
    # Chart.const(nan) used to be the zero expression, and str() of
    # Chart.const(inf) raised OverflowError in the model-file writer's formatter
    with pytest.raises(ValueError, match="not finite"):
        DARBOUX.const(value)
    with pytest.raises(ValueError, match="not finite"):
        DARBOUX.parse("x") * value
    with pytest.raises(ValueError, match="not finite"):
        DARBOUX.parse("x*y + 1").substitute(DARBOUX.coords, {"x": value})
