"""Pullbacks, slopes, leaf tracing, and the disk constructor."""

import functools
import math

import numpy as np
import pytest

from engelbook.charts import (
    Chart,
    Interval,
    batch_eval_scalars,
    exterior_derivative,
    wedge_top,
)
from engelbook.foliation import (
    NumericEmbedding,
    SingularityReport,
    SliceEmbedding,
    annulus_foliation_check,
    boundary_winding_vs_index,
    classifier_boundary_winding,
    construct_xi_prime,
    find_and_classify,
    torus_slope,
)
from engelbook.invariants import Path
from engelbook.trigpoly import (
    KIND_ANGULAR,
    KIND_LINEAR,
    KIND_POLYNOMIAL,
    canonical_equal,
)
from engelbook.verify import contact_structure_check

PROLONG = Chart.make(
    "prolong",
    [
        ("t", KIND_ANGULAR),
        ("r", KIND_POLYNOMIAL, Interval(0.0, 1.0)),
        ("phi1", KIND_ANGULAR),
        ("phi2", KIND_ANGULAR),
    ],
)
ANNULUS = Chart.make(
    "annulus",
    [("u", KIND_ANGULAR), ("v", KIND_POLYNOMIAL, Interval(0.05, 0.95))],
)
TORUS = Chart.make("torus", [("x", KIND_ANGULAR), ("y", KIND_ANGULAR)])

EPS = 0.25


def fibered_form(chart):
    return chart.one_form({"t": -EPS, "phi1": "r^2", "phi2": "1 - r^2"})


@functools.lru_cache(maxsize=None)
def disk(k):
    return construct_xi_prime(k)


# -- exact slice pullbacks -------------------------------------------------------


def test_leaf_pullback_is_exact_multiple_of_du():
    alpha = fibered_form(PROLONG)
    leaf = SliceEmbedding(ANNULUS, PROLONG, {"t": "u", "r": "v", "phi1": 0.0, "phi2": 0.0})
    pulled = leaf.pullback_oneform(alpha)
    assert canonical_equal(pulled.components[0], ANNULUS.const(-EPS))
    assert canonical_equal(pulled.components[1], ANNULUS.zero())


def test_slice_pullback_handles_reordered_surface_coords():
    surface = Chart.make(
        "flipped",
        [("v", KIND_POLYNOMIAL, Interval(0.05, 0.95)), ("u", KIND_ANGULAR)],
    )
    alpha = fibered_form(PROLONG)
    leaf = SliceEmbedding(surface, PROLONG, {"t": "u", "r": "v", "phi1": 0.0, "phi2": 0.0})
    pulled = leaf.pullback_oneform(alpha)
    assert canonical_equal(pulled.components[0], surface.zero())
    assert canonical_equal(pulled.components[1], surface.const(-EPS))


def test_slice_embedding_rejects_kind_mismatch():
    bad_surface = Chart.make(
        "bad",
        [("u", KIND_ANGULAR), ("v", KIND_ANGULAR)],
    )
    alpha = fibered_form(PROLONG)
    emb = SliceEmbedding(bad_surface, PROLONG, {"t": "u", "r": "v", "phi1": 0.0, "phi2": 0.0})
    with pytest.raises(ValueError):
        emb.pullback_oneform(alpha)


def test_slice_embedding_requires_full_assignment():
    with pytest.raises(ValueError):
        SliceEmbedding(ANNULUS, PROLONG, {"t": "u", "r": "v", "phi1": 0.0})


def test_map_points_places_constants_and_coordinates():
    leaf = SliceEmbedding(ANNULUS, PROLONG, {"t": "u", "r": "v", "phi1": 0.5, "phi2": 0.0})
    pts = np.array([[1.0, 0.3], [2.0, 0.7]])
    mapped = leaf.map_points(pts)
    assert np.allclose(mapped, [[1.0, 0.3, 0.5, 0.0], [2.0, 0.7, 0.5, 0.0]])


def test_page_area_pullback_on_fibered_chart():
    # d(r^2 dphi1 + (1 - r^2) dphi2) restricted to a phi2 slice is 2 r dr/\dphi
    three = Chart.make(
        "fiber3",
        [
            ("r", KIND_POLYNOMIAL, Interval(0.0, 1.0)),
            ("phi1", KIND_ANGULAR),
            ("phi2", KIND_ANGULAR),
        ],
    )
    alpha = three.one_form({"phi1": "r^2", "phi2": "1 - r^2"})
    omega = exterior_derivative(alpha)
    page = Chart.make(
        "page",
        [("rho", KIND_POLYNOMIAL, Interval(0.0, 1.0)), ("phi", KIND_ANGULAR)],
    )
    emb = SliceEmbedding(page, three, {"r": "rho", "phi1": "phi", "phi2": 1.2})
    coeff = emb.pullback_twoform(omega)
    assert canonical_equal(coeff, page.parse("2*rho"))


# -- numeric embeddings ----------------------------------------------------------


def numeric_leaf():
    def fn(pts):
        u, v = pts[..., 0], pts[..., 1]
        return np.stack([u, v, np.zeros_like(u), np.zeros_like(u)], axis=-1)

    def jac(pts):
        J = np.zeros(pts.shape[:-1] + (4, 2))
        J[..., 0, 0] = 1.0
        J[..., 1, 1] = 1.0
        return J

    return NumericEmbedding(ANNULUS, PROLONG, fn, jac)


def test_numeric_pullback_matches_exact_route():
    alpha = fibered_form(PROLONG)
    exact = SliceEmbedding(
        ANNULUS, PROLONG, {"t": "u", "r": "v", "phi1": 0.0, "phi2": 0.0}
    ).pullback_oneform(alpha)
    numeric = numeric_leaf().pullback_oneform(alpha)
    pts = ANNULUS.sample_grid(9)
    ve = batch_eval_scalars(exact.components, pts)
    vn = batch_eval_scalars(numeric.components, pts)
    assert np.abs(ve - vn).max() <= 1e-12


def test_numeric_twoform_pullback_matches_exact_route():
    three = Chart.make(
        "fiber3",
        [
            ("r", KIND_POLYNOMIAL, Interval(0.0, 1.0)),
            ("phi1", KIND_ANGULAR),
            ("phi2", KIND_ANGULAR),
        ],
    )
    alpha = three.one_form({"phi1": "r^2", "phi2": "1 - r^2"})
    omega = exterior_derivative(alpha)
    page = Chart.make(
        "page",
        [("rho", KIND_POLYNOMIAL, Interval(0.0, 1.0)), ("phi", KIND_ANGULAR)],
    )
    exact = SliceEmbedding(page, three, {"r": "rho", "phi1": "phi", "phi2": 1.2})

    def fn(pts):
        rho, phi = pts[..., 0], pts[..., 1]
        return np.stack([rho, phi, np.full_like(rho, 1.2)], axis=-1)

    def jac(pts):
        J = np.zeros(pts.shape[:-1] + (3, 2))
        J[..., 0, 0] = 1.0
        J[..., 1, 1] = 1.0
        return J

    numeric = NumericEmbedding(page, three, fn, jac)
    pts = page.sample_grid(7)
    ve = batch_eval_scalars([exact.pullback_twoform(omega)], pts)
    vn = batch_eval_scalars([numeric.pullback_twoform(omega)], pts)
    assert np.abs(ve - vn).max() <= 1e-12


# -- torus slopes ----------------------------------------------------------------


COLLAR = Chart.make(
    "collar",
    [("x", KIND_ANGULAR), ("y", KIND_ANGULAR), ("r", KIND_LINEAR, Interval(-0.5, 0.5))],
)
A0 = math.pi / 4


def collar_form():
    return COLLAR.one_form(
        {"x": COLLAR.parse(f"cos(r + {A0})"), "y": COLLAR.parse(f"-sin(r + {A0})")}
    )


@pytest.mark.parametrize("r0", [0.0, 0.2, -0.3, 0.45])
def test_collar_torus_slope_is_cotangent(r0):
    emb = SliceEmbedding(TORUS, COLLAR, {"x": "x", "y": "y", "r": r0})
    slope = torus_slope(emb.pullback_oneform(collar_form()))
    assert slope == pytest.approx(math.cos(r0 + A0) / math.sin(r0 + A0), abs=1e-12)


BINDING = Chart.make(
    "binding",
    [
        ("x", KIND_ANGULAR),
        ("y", KIND_ANGULAR),
        ("r", KIND_POLYNOMIAL, Interval(0.0, 1.5)),
        ("phi", KIND_ANGULAR),
    ],
)


def binding_form():
    return BINDING.one_form({"x": 1.0, "phi": "r^2", "y": "-r^2"})


@pytest.mark.parametrize("r0", [1.0, 0.5, 1.2])
def test_binding_torus_slope_is_inverse_square(r0):
    emb = SliceEmbedding(TORUS, BINDING, {"x": "x", "y": "y", "r": r0, "phi": 0.0})
    slope = torus_slope(emb.pullback_oneform(binding_form()))
    assert slope == pytest.approx(1.0 / r0**2, abs=1e-12)


def test_vertical_foliation_reports_infinite_slope():
    emb = SliceEmbedding(TORUS, BINDING, {"x": "x", "y": "y", "r": 0.0, "phi": 0.0})
    assert torus_slope(emb.pullback_oneform(binding_form())) == math.inf


def test_nonconstant_pullback_is_rejected():
    wavy = TORUS.one_form({"x": "cos(x)", "y": 1.0})
    with pytest.raises(ValueError):
        torus_slope(wavy)


# -- leaf tracing ----------------------------------------------------------------


def test_transverse_foliation_crosses_annulus():
    alpha = fibered_form(PROLONG)
    leaf = SliceEmbedding(ANNULUS, PROLONG, {"t": "u", "r": "v", "phi1": 0.0, "phi2": 0.0})
    report = annulus_foliation_check(leaf.pullback_oneform(alpha), (0.05, 0.95))
    assert report.passed
    assert report.min_gap > 0.5


def test_slanted_foliation_still_crosses():
    slanted = ANNULUS.one_form({"u": -0.3, "v": 1.0})
    report = annulus_foliation_check(slanted, (0.05, 0.95))
    assert report.passed


def test_closed_leaves_fail_the_crossing_check():
    closed = ANNULUS.one_form({"v": 1.0})
    report = annulus_foliation_check(closed, (0.05, 0.95))
    assert not report.passed
    assert report.min_gap == 0.0
    assert len(report.failures) > 0


# -- singularity classification ----------------------------------------------------


def radial_sink(level_sign=1.0):
    def value(pts):
        return -np.asarray(pts, float)

    def jacobian(pts):
        pts = np.asarray(pts, float)
        J = np.zeros(pts.shape[:-1] + (2, 2))
        J[..., 0, 0] = -1.0
        J[..., 1, 1] = -1.0
        return J

    def level(pts):
        return np.full(np.asarray(pts, float).shape[:-1], level_sign)

    from engelbook.foliation import ClassifierField

    return ClassifierField(value, jacobian, level)


def test_radial_sink_is_one_positive_elliptic_point():
    report = find_and_classify(radial_sink(), grid_n=41)
    assert report.counts == {"e_plus": 1, "e_minus": 0, "h_plus": 0, "h_minus": 0}
    assert report.euler_identity == 1
    assert report.relative_euler == 1
    assert not report.degenerate
    z = report.zeros[0]
    assert abs(z["p"]) < 1e-12 and abs(z["q"]) < 1e-12


def test_saddle_with_negative_level_counts_as_h_minus():
    from engelbook.foliation import ClassifierField

    def value(pts):
        pts = np.asarray(pts, float)
        return np.stack([pts[..., 0], -pts[..., 1]], axis=-1)

    def jacobian(pts):
        pts = np.asarray(pts, float)
        J = np.zeros(pts.shape[:-1] + (2, 2))
        J[..., 0, 0] = 1.0
        J[..., 1, 1] = -1.0
        return J

    def level(pts):
        return np.full(np.asarray(pts, float).shape[:-1], -0.5)

    report = find_and_classify(ClassifierField(value, jacobian, level), grid_n=41)
    assert report.counts == {"e_plus": 0, "e_minus": 0, "h_plus": 0, "h_minus": 1}
    assert report.euler_identity == -1
    assert report.relative_euler == 1


def test_offset_zero_is_located():
    from engelbook.foliation import ClassifierField

    z0 = np.array([0.31, -0.22])

    def value(pts):
        return -(np.asarray(pts, float) - z0)

    def jacobian(pts):
        pts = np.asarray(pts, float)
        J = np.zeros(pts.shape[:-1] + (2, 2))
        J[..., 0, 0] = -1.0
        J[..., 1, 1] = -1.0
        return J

    def level(pts):
        return np.ones(np.asarray(pts, float).shape[:-1])

    report = find_and_classify(ClassifierField(value, jacobian, level), grid_n=41)
    assert len(report.zeros) == 1
    assert report.zeros[0]["p"] == pytest.approx(0.31, abs=1e-9)
    assert report.zeros[0]["q"] == pytest.approx(-0.22, abs=1e-9)


def test_boundary_winding_comparison():
    frame_chart = Chart.make(
        "rim",
        [("phi", KIND_ANGULAR), ("s", KIND_LINEAR, Interval(-1.0, 1.0))],
    )
    e1 = frame_chart.basis_vector("phi")
    e2 = frame_chart.basis_vector("s")
    field = frame_chart.vector_field({"phi": "cos(3*phi)", "s": "sin(3*phi)"})
    loop = Path.coordinate_circle(frame_chart, "phi", {"s": 0.0})
    report = SingularityReport(
        zeros=(),
        counts={"e_plus": 2, "e_minus": 0, "h_plus": 0, "h_minus": 1},
        euler_identity=1,
        relative_euler=3,
        degenerate=False,
    )
    out = boundary_winding_vs_index(field, (e1, e2), loop, report)
    assert out["match"]
    assert out["winding"] == 3
    off = SingularityReport((), {"e_plus": 1, "e_minus": 0, "h_plus": 0, "h_minus": 0}, 1, 1, False)
    assert not boundary_winding_vs_index(field, (e1, e2), loop, off)["match"]


# -- the disk constructor -----------------------------------------------------------


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_disk_form_counts_and_identities(k):
    d = disk(k)
    assert d.passed
    assert d.singularities.counts == {
        "e_plus": (k + 1) // 2,
        "e_minus": 0,
        "h_plus": 0,
        "h_minus": (k - 1) // 2,
    }
    assert d.singularities.euler_identity == 1
    assert d.singularities.relative_euler == k


@pytest.mark.parametrize("k", [1, 3, 5])
def test_disk_form_contact_certificates(k):
    d = disk(k)
    assert d.contact_margin > 1e-3
    assert d.boundary_residual <= 1e-13
    assert abs(d.certificates["classifier_boundary_turns"] - 1.0) < 0.05


def test_disk_form_passes_generic_contact_check():
    d = disk(3)
    report = contact_structure_check(d.alpha, min_points=2000)
    assert report.passed
    assert report.min_gap >= 0.2


def test_hand_coefficient_matches_wedge_route():
    d = disk(5)
    from engelbook.foliation import _assemble_pieces, _contact_coefficient

    pieces = _assemble_pieces(5, d.params)
    F = _contact_coefficient(pieces)
    rng = np.random.default_rng(11)
    pts3 = np.stack(
        [
            rng.uniform(0.0, math.tau, 300),
            rng.uniform(-0.7, 0.7, 300),
            rng.uniform(-0.7, 0.7, 300),
        ],
        axis=-1,
    )
    coeffs = wedge_top(d.alpha, exterior_derivative(d.alpha))
    wedge_vals = batch_eval_scalars([c for _, c in coeffs], pts3)[:, 0]
    assert np.abs(F(pts3[:, 1:]) - wedge_vals).max() <= 1e-10


def test_disk_form_k1_is_exact():
    d = disk(1)
    assert d.exact
    assert d.boundary_residual == 0.0
    assert d.contact_margin == pytest.approx(2.0)


@pytest.mark.parametrize("bad", [0, 2, 4, -3])
def test_disk_form_rejects_bad_twisting(bad):
    with pytest.raises(ValueError):
        construct_xi_prime(bad)
