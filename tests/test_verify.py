"""Unit tests for the pointwise verification certificates."""

import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelbook import charts, cli, verify
from engelbook.charts import (
    Chart,
    Interval,
    dependent_axes,
    exterior_derivative,
    pointwise_rank,
    wedge_top,
)
from engelbook.models import XY_TORUS, assemble, list_models, model_catalog
from engelbook.reports import json_document, render_json
from engelbook.trigpoly import KIND_ANGULAR, KIND_LINEAR, KIND_POLYNOMIAL
from engelbook.verify import (
    adaptedness_check,
    contact_structure_check,
    contact_vector_field_check,
    even_contact_form_check,
    even_contact_span_check,
    engel_check,
    family_slice_check,
    fibration_transversality_check,
    isotropic_line_check,
)

BOX = Interval(-1.0, 1.0)

R4 = Chart.make(
    "r4",
    [
        ("x", KIND_POLYNOMIAL, BOX),
        ("y", KIND_POLYNOMIAL, BOX),
        ("z", KIND_POLYNOMIAL, BOX),
        ("w", KIND_POLYNOMIAL, BOX),
    ],
)

R3 = Chart.make(
    "r3",
    [
        ("x", KIND_POLYNOMIAL, BOX),
        ("y", KIND_POLYNOMIAL, BOX),
        ("z", KIND_POLYNOMIAL, BOX),
    ],
)

COLLAR3 = Chart.make(
    "collar3",
    [
        ("x", KIND_ANGULAR),
        ("y", KIND_ANGULAR),
        ("r", KIND_LINEAR, Interval(0.0, 1.0)),
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

PROLONG = Chart.make(
    "prolong",
    [
        ("t", KIND_ANGULAR),
        ("r", KIND_POLYNOMIAL, Interval(0.0, 1.0)),
        ("phi1", KIND_ANGULAR),
        ("phi2", KIND_ANGULAR),
    ],
)


class TestContactChecks:
    def test_collar_form_is_contact_with_unit_gap(self):
        a = math.pi / 4
        alpha = COLLAR3.one_form({"x": f"cos(r + {a})", "y": f"-sin(r + {a})"})
        report = contact_structure_check(alpha)
        assert report.passed
        assert report.n_points >= 1000
        assert report.min_gap == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_form_fails(self):
        alpha = R3.one_form({"z": 1.0})
        report = contact_structure_check(alpha)
        assert not report.passed
        assert report.failures

    def test_even_contact_form_route_darboux(self):
        alpha = R4.one_form({"z": 1.0, "x": "-y"})
        report = even_contact_form_check(alpha)
        assert report.passed
        assert report.min_gap == pytest.approx(1.0, abs=1e-12)

    def test_even_contact_form_route_closed_form_fails(self):
        alpha = R4.one_form({"x": 1.0})
        report = even_contact_form_check(alpha)
        assert not report.passed
        assert report.min_gap == pytest.approx(0.0, abs=1e-15)

    def test_even_contact_span_route_darboux(self):
        frame = [
            R4.vector_field({"x": 1.0, "z": "y"}),
            R4.basis_vector("y"),
            R4.basis_vector("w"),
        ]
        report = even_contact_span_check(frame)
        assert report.passed
        assert report.min_gap > 1e-3

    def test_even_contact_span_route_integrable_fails(self):
        frame = [R4.basis_vector("x"), R4.basis_vector("y"), R4.basis_vector("w")]
        report = even_contact_span_check(frame)
        assert not report.passed


class TestEngelAndIsotropic:
    def test_disk3_engel_pair(self):
        t0 = 0.3
        v1 = DISK3.basis_vector("theta")
        v2 = DISK3.vector_field(
            {
                "x": f"cos(theta - {t0})",
                "y": f"z*cos(theta - {t0})",
                "z": f"sin(theta - {t0})",
            }
        )
        report = engel_check([v1, v2])
        assert report.passed
        assert report.min_gap > 1e-3

    def test_commuting_pair_is_not_engel(self):
        report = engel_check([DISK3.basis_vector("theta"), DISK3.basis_vector("x")])
        assert not report.passed
        # a negative tolerance would count zero singular values toward the rank
        with pytest.raises(ValueError):
            engel_check([R4.basis_vector("x"), R4.basis_vector("y")], min_points=16, tol=-1.0)

    def test_failing_rank_steps_report_their_missed_singular_value(self):
        # x and y commute: rank 2 holds with gap 1 and ranks 3 and 4 fail at
        # every point, where the missed singular value is 0
        report = engel_check([R4.basis_vector("x"), R4.basis_vector("y")], min_points=16)
        assert not report.passed
        assert report.details == {"rank2_gap": 1.0, "rank3_gap": 0.0, "rank4_gap": 0.0}
        assert report.min_gap == 0.0
        assert [f["value"] for f in report.failures] == [0.0] * 5
        frame = [R4.basis_vector("x"), R4.basis_vector("y"), R4.basis_vector("w")]
        span = even_contact_span_check(frame, min_points=16)
        assert span.details == {"route": "span", "rank3_gap": 1.0, "rank4_gap": 0.0}
        assert not span.passed and span.min_gap == 0.0
        # [x, y + x/4 z] = z/4: rank 3 misses tol 0.5 by a nonzero singular value
        pair = [R4.basis_vector("x"), R4.vector_field({"y": 1.0, "z": "0.25*x"})]
        weak = engel_check(pair, min_points=16, tol=0.5)
        assert not weak.passed
        assert 0.0 < weak.details["rank3_gap"] <= 0.5

    def test_isotropic_line_darboux_even(self):
        alpha = R4.one_form({"z": 1.0, "x": "-y"})
        w = R4.basis_vector("w")
        spanning = [
            R4.vector_field({"x": 1.0, "z": "y"}),
            R4.basis_vector("y"),
            R4.basis_vector("w"),
        ]
        report = isotropic_line_check(w, alpha, spanning)
        assert report.passed
        assert report.min_gap == pytest.approx(1.0, abs=1e-12)
        assert report.details["alpha_w_exact_zero"] is True

    def test_isotropic_line_rejects_non_kernel_direction(self):
        alpha = R4.one_form({"z": 1.0, "x": "-y"})
        w = R4.basis_vector("y")
        spanning = [
            R4.vector_field({"x": 1.0, "z": "y"}),
            R4.basis_vector("y"),
            R4.basis_vector("w"),
        ]
        report = isotropic_line_check(w, alpha, spanning)
        assert not report.passed


class TestContactVectorFields:
    ALPHA = R3.one_form({"z": 1.0, "x": "-y"})

    @pytest.mark.parametrize(
        "components",
        [
            {"z": 1.0},
            {"x": 1.0},
            {"y": "y", "z": "z"},
            {"x": "x", "z": "z"},
            {"y": 1.0, "z": "x"},
        ],
    )
    def test_contact_fields_pass(self, components):
        L = R3.vector_field(components)
        report = contact_vector_field_check(L, self.ALPHA)
        assert report.passed
        assert report.details["symbolic_zero"] is True

    @pytest.mark.parametrize(
        "components",
        [
            {"y": 1.0},
            {"y": "z"},
            {"y": "x"},
            {"x": 1.0, "z": "y"},
            {"x": "y"},
        ],
    )
    def test_non_contact_fields_fail(self, components):
        L = R3.vector_field(components)
        report = contact_vector_field_check(L, self.ALPHA)
        assert not report.passed
        assert report.details["symbolic_zero"] is False
        assert report.min_gap > 1e-3


    def test_contact_field_with_a_pole_fails_where_it_is_not_finite(self):
        # X_H of H = 1 + y^2/x for dz - y dx is NaN at the pole x = y = 0, but
        # its wedge residual reduces to the zero Expr, which used to pass
        H = R3.parse("1 + x^-1*y^2")
        Hx, Hy, Hz = (H.partial(n) for n in "xyz")
        y = R3.parse("y")
        L = R3.vector_field({"x": -Hy, "y": Hx + y * Hz, "z": H - y * Hy})
        pts = np.array([[0.5, 0.2, 0.1], [0.0, 0.0, 0.3], [-0.4, 0.7, -0.2]])
        report = contact_vector_field_check(L, self.ALPHA, points=pts)
        assert not report.passed
        assert report.details["symbolic_zero"] is True
        assert report.details["field_not_finite"] == 1
        assert math.isnan(report.details["max_residual"])
        assert [f["point"] for f in report.failures] == [{"x": 0.0, "y": 0.0, "z": 0.3}]
        # away from the pole the same field passes
        clear = contact_vector_field_check(L, self.ALPHA, points=pts[[0, 2]])
        assert clear.passed
        assert clear.details["field_not_finite"] == 0
        assert clear.details["max_residual"] == 0.0


class TestFailureOrdering:
    def test_contact_check_lists_smallest_margins_first(self):
        # alpha ^ dalpha = (1 - 3x^2) dx dy dz: negative for |x| > 1/sqrt(3),
        # most negative at x = -1 and x = 1, which tie
        alpha = R3.one_form({"y": "x - x^3", "z": 1.0})
        xs = [0.9, 0.0, -1.0, 0.7, 0.95, 0.8, 0.6, 1.0, 0.99]
        pts = np.array([[x, 0.1, 0.2] for x in xs])
        report = contact_structure_check(alpha, points=pts)
        assert not report.passed
        assert [f["point"]["x"] for f in report.failures] == [-1.0, 1.0, 0.99, 0.95, 0.9]
        values = [f["value"] for f in report.failures]
        assert values == sorted(values)
        assert values[0] == report.min_gap == -2.0

    def test_contact_field_check_lists_largest_residuals_first(self):
        # the residual of L = x d/dy for alpha = dz - y dx is |x|
        alpha = R3.one_form({"z": 1.0, "x": "-y"})
        xs = [0.1, -0.5, 0.9, 0.3, -0.95, 0.7, 0.2]
        pts = np.array([[x, 0.4, -0.3] for x in xs])
        report = contact_vector_field_check(R3.vector_field({"y": "x"}), alpha, points=pts)
        assert not report.passed
        assert [f["point"]["x"] for f in report.failures] == [-0.95, 0.9, 0.7, -0.5, 0.3]
        assert [f["value"] for f in report.failures] == [0.95, 0.9, 0.7, 0.5, 0.3]
        assert report.min_gap == 0.95


def _nan_scale(chart):
    """1 + y^2/x: 1 with zero partials where y = 0 and x != 0, and NaN, as is
    each partial, at the Laurent pole x = y = 0, where 0 meets 1/0."""
    return chart.parse("1 + x^-1*y^2")


class TestNonFiniteValuesFail:
    """A non-finite margin or residual is a bad point, listed first."""

    def test_nan_contact_margin_fails(self):
        alpha = R3.one_form({"y": "x + x^3", "z": 1.0})
        report = contact_structure_check(alpha, points=[[np.nan, 0.0, 0.0], [0.1, 0.2, 0.3]])
        assert not report.passed
        assert len(report.failures) == 1
        assert math.isnan(report.failures[0]["point"]["x"])
        # a non-finite margin ranks below every finite one
        alpha = R3.one_form({"y": "x - x^3", "z": 1.0})
        report = contact_structure_check(alpha, points=[[1.0, 0.1, 0.2], [np.nan, 0.0, 0.0]])
        assert [f["point"]["x"] for f in report.failures][1:] == [1.0]
        assert math.isnan(report.failures[0]["point"]["x"])

    def test_engel_field_nan_at_one_point_fails(self):
        # the pair of test_disk3_engel_pair, with theta's coefficient NaN at x = y = 0
        t0 = 0.3
        v1 = DISK3.basis_vector("theta").scaled(_nan_scale(DISK3))
        v2 = DISK3.vector_field(
            {
                "x": f"cos(theta - {t0})",
                "y": f"z*cos(theta - {t0})",
                "z": f"sin(theta - {t0})",
            }
        )
        pts = np.array([[0.1, 0.0, 0.3, 1.0], [0.0, 0.0, 0.3, 1.0], [-0.4, 0.0, 0.6, 2.0]])
        with np.errstate(divide="ignore", invalid="ignore"):
            report = engel_check([v1, v2], points=pts)
        assert not report.passed
        assert report.min_gap == 0.0
        assert [f["point"]["x"] for f in report.failures] == [0.0]
        assert engel_check([v1, v2], points=pts[[0, 2]]).passed

    # contact_vector_field has no case: for a contact field the wedge residual
    # reduces to the zero Expr, which is 0 at a pole too
    @pytest.mark.parametrize(
        "check",
        [
            pytest.param(
                lambda pts: even_contact_form_check(
                    R4.one_form({"z": _nan_scale(R4), "x": "-y", "w": "x^2"}),
                    points=np.append(pts, np.zeros((len(pts), 1)), axis=1),
                ),
                id="even_contact_form",
            ),
            pytest.param(
                lambda pts: isotropic_line_check(
                    R3.basis_vector("x").scaled(_nan_scale(R3)),
                    R3.one_form({"z": 1.0}),
                    [R3.basis_vector("x")],
                    points=pts,
                ),
                id="isotropic_line",
            ),
            pytest.param(
                lambda pts: fibration_transversality_check(
                    R3.one_form({"x": 1.0}), R3.basis_vector("x").scaled(_nan_scale(R3)), points=pts
                ),
                id="fibration_transversality",
            ),
        ],
    )
    def test_nan_point_fails(self, check):
        pts = np.array([[0.5, 0.0, 0.3], [0.0, 0.0, 0.3], [0.1, 0.0, 0.3]])
        assert check(pts[[0, 2]]).passed
        with np.errstate(divide="ignore", invalid="ignore"):
            report = check(pts)
        assert not report.passed
        assert [f["point"]["x"] for f in report.failures] == [0.0]

    def test_nan_report_renders_strict_json(self):
        alpha = R3.one_form({"y": "x + x^3", "z": 1.0})
        report = contact_structure_check(alpha, points=[[np.nan, 0.0, 0.0], [0.1, 0.2, 0.3]])
        inf = dataclasses.replace(report, min_gap=math.inf, details={"low": -math.inf})

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(render_json(json_document({}, [report, inf])), parse_constant=reject)
        nan_entry, inf_entry = doc["checks"]
        assert nan_entry["min_gap"] == "NaN"
        assert nan_entry["failures"][0]["value"] == "NaN"
        assert nan_entry["failures"][0]["point"]["x"] == "NaN"
        assert inf_entry["min_gap"] == "Infinity"
        assert inf_entry["details"]["low"] == "-Infinity"


class TestFibrationAndFamilies:
    def test_transversality_direct(self):
        eps = 0.25
        theta = PROLONG.one_form({"t": 1.0})
        w = PROLONG.vector_field({"t": 1.0, "phi1": eps, "phi2": eps})
        report = fibration_transversality_check(theta, w)
        assert report.passed
        assert report.min_gap == pytest.approx(1.0, abs=1e-12)
        assert report.details["closed_residual"] == pytest.approx(0.0, abs=1e-15)

    def test_transversality_fails_at_zero_twist(self):
        theta = PROLONG.one_form({"phi1": 1.0, "phi2": 1.0})
        w = PROLONG.vector_field({"t": 1.0})
        report = fibration_transversality_check(theta, w)
        assert not report.passed

    def test_family_slice_aggregation(self):
        alpha = R3.one_form({"z": 1.0, "x": "-y"})
        L0 = R3.basis_vector("z")
        L1 = R3.vector_field({"y": "y", "z": "z"})

        def slice_report(s):
            Ls = L0.scaled(1.0 - s) + L1.scaled(s)
            return contact_vector_field_check(Ls, alpha)

        report = family_slice_check("family", slice_report, np.linspace(0.0, 1.0, 11))
        assert report.passed
        assert report.details["slices"] == 11


class TestAdaptedness:
    def test_binding_locus_grid_reaches_min_points(self):
        core = model_catalog("binding_Eb").piece("binding-core")
        report = adaptedness_check(core, min_points=300)
        assert report.name == "adapted_binding"
        assert report.passed
        assert report.n_points >= 300

    def test_binding_honours_given_points(self):
        core = model_catalog("binding_Eb").piece("binding-core")
        # on the locus u = v = 0 this W has norm |sin(x)|
        faded = dataclasses.replace(
            core, w_field=core.chart.vector_field({"y": "sin(x)", "u": "-v", "v": "u"})
        )
        # the u, v columns are off the locus and must be ignored
        pts = np.array(
            [[0.5 * math.pi, 0.1, 0.3, -0.2], [1.0, 2.0, 0.0, 0.1], [2.0, 3.0, 0.2, 0.2]]
        )
        report = adaptedness_check(faded, points=pts)
        assert report.name == "adapted_binding"
        assert report.passed
        assert report.n_points == 3
        assert report.min_gap == pytest.approx(math.sin(1.0), abs=1e-15)

        pts[1, 0] = 0.0
        report = adaptedness_check(faded, points=pts)
        assert not report.passed
        assert report.failures == ({"point": {"x": 0.0, "y": 2.0}, "value": 0.0},)

        with pytest.raises(ValueError):
            adaptedness_check(faded, points=pts[:, :2])

    def test_collar_kernel_line_below_threshold_fails(self):
        collar = model_catalog("binding_Eb").piece("boundary-annulus")
        faint = dataclasses.replace(collar, w_field=collar.w_field.scaled(1e-11))
        report = adaptedness_check(faint, min_points=256)
        assert report.name == "adapted_collar"
        assert 0.0 < report.min_gap < 1e-9
        assert not report.passed
        assert report.failures


def _binding_core_with_w(components):
    core = model_catalog("binding_Eb").piece("binding-core")
    return dataclasses.replace(core, w_field=core.chart.vector_field(components))


# each check's own pass condition fails it on a sample with no bad point
@pytest.mark.parametrize(
    "check, detail, value",
    [
        pytest.param(
            lambda: fibration_transversality_check(
                R3.one_form({"z": 1.0, "y": "x"}), R3.basis_vector("z"), min_points=64
            ),
            "closed_residual",
            1.0,
            id="fibration_not_closed",
        ),
        pytest.param(
            # cos(y) on 6 angular samples is at least 1/2 in size but turns sign
            lambda: fibration_transversality_check(
                XY_TORUS.one_form({"y": 1.0}), XY_TORUS.vector_field({"y": "cos(y)"}), min_points=36
            ),
            "constant_sign",
            False,
            id="fibration_sign_change",
        ),
        pytest.param(
            lambda: adaptedness_check(_binding_core_with_w({"y": 1.0, "u": 1.0}), min_points=64),
            "tangency_residual",
            1.0,
            id="binding_transverse",
        ),
        pytest.param(
            # the wedge of L = x d/dy for dz - y dx is |x|, zero on the plane x = 0
            lambda: contact_vector_field_check(
                R3.vector_field({"y": "x"}),
                R3.one_form({"z": 1.0, "x": "-y"}),
                points=np.array([[0.0, 0.4, -0.3], [0.0, -0.2, 0.5]]),
            ),
            "routes_disagree",
            True,
            id="contact_field_routes_disagree",
        ),
    ],
)
def test_own_pass_condition_fails_without_bad_points(check, detail, value):
    report = check()
    assert report.failures == ()
    assert report.details[detail] == value
    assert not report.passed


# -- grids reduced to the axes a check reads -------------------------------------


def _svd_loop_rank(mats, tol=1e-9):
    """Rank and gap from one SVD per matrix; a non-finite matrix has rank 0."""
    *batch, r, d = mats.shape
    flat = mats.reshape(-1, r, d)
    s = np.zeros((len(flat), min(r, d)))
    for i, m in enumerate(flat):
        if np.isfinite(m).all():
            s[i] = np.linalg.svd(m, compute_uv=False)
    s = s.reshape(*batch, min(r, d))
    return (s > tol).sum(axis=-1), s[..., -1]


def _reports(run):
    return json.dumps([r.to_dict() for r in run()], sort_keys=True)


def _full_grid_reports(monkeypatch, run):
    """``run``'s reports when every field is evaluated on the full product
    grid, as if it read every axis, and every matrix gets its own SVD."""
    with monkeypatch.context() as patched:
        patched.setattr(verify, "dependent_axes", lambda scalars: range(8))
        patched.setattr(verify, "pointwise_rank", _svd_loop_rank)
        return _reports(run)


# alpha ^ dalpha = (1 - 3x^2 + 3y^2) dx dy dz reads x and y but not z, and is
# negative near x = +-1, y = 0
_FAILING_ALPHA = R3.one_form({"z": 1.0, "x": "-y^3", "y": "x - x^3"})


def _catalog_and_assembled_models():
    models = [model_catalog(name) for name, _ in list_models()]
    models.extend(assemble(lam, k, min_points=64).model for lam, k in [(2, 3), (0, 1), (-1, 3)])
    return models


@pytest.mark.parametrize("min_points", [64, 1000])
def test_reduced_grids_report_what_full_grids_report(min_points, monkeypatch):
    models = _catalog_and_assembled_models()
    for model in models:
        run = lambda: model.checks(min_points=min_points)  # noqa: E731
        assert _reports(run) == _full_grid_reports(monkeypatch, run), model.name
    failing = lambda: [contact_structure_check(_FAILING_ALPHA, min_points=min_points)]  # noqa: E731
    assert _reports(failing) == _full_grid_reports(monkeypatch, failing)


def test_reduced_grid_failures_name_full_grid_points():
    report = contact_structure_check(_FAILING_ALPHA, min_points=1000)
    (_, coeff), = wedge_top(_FAILING_ALPHA, exterior_derivative(_FAILING_ALPHA))
    assert dependent_axes([coeff]) == (0, 1)
    assert not report.passed and report.n_points == 1000
    # the worst margin sits at x = +-0.998, y nearest 0, once for each of the
    # 10 z samples; the list keeps grid order, so it runs through z first
    points = [f["point"] for f in report.failures]
    assert len(points) == 5
    assert len({(p["x"], p["y"]) for p in points}) == 1
    z = R3.axes_for_min_points(1000)[2]
    assert [p["z"] for p in points] == z[:5].tolist()
    assert [f["value"] for f in report.failures] == [report.min_gap] * 5


def test_given_points_are_evaluated_as_they_are(monkeypatch):
    pts = R3.sample_random(50, np.random.default_rng(7))
    pts[:, 2] = 0.25  # a z the full grid does not hold
    run = lambda: [contact_structure_check(_FAILING_ALPHA, points=pts)]  # noqa: E731
    assert _reports(run) == _full_grid_reports(monkeypatch, run)
    report = run()[0]
    assert report.n_points == 50
    assert report.failures and all(f["point"]["z"] == 0.25 for f in report.failures)


@pytest.mark.parametrize("shape", [(4, 2), (4, 5), (0, 3), (3,), (2, 2, 3)])
def test_given_points_must_fit_the_chart(shape):
    alpha = R3.one_form({"z": 1.0, "x": "-y"})
    with pytest.raises(ValueError, match=r"shape \(n, 3\) with n >= 1"):
        contact_structure_check(alpha, points=np.zeros(shape))
    with pytest.raises(ValueError, match=r"shape \(n, 3\) with n >= 1"):
        fibration_transversality_check(alpha, R3.basis_vector("z"), points=np.zeros(shape))


# -- shared derivations ------------------------------------------------------------


def test_verify_derives_each_form_once(monkeypatch, tmp_path):
    """One ``verify`` of a model whose form is read by the contact check, its
    sampled re-check and the contact vector field check derives that form's
    dalpha and alpha ^ dalpha once each, and the fibration form's d once."""
    derived = []
    modules = [m for name, m in sys.modules.items() if name.startswith("engelbook")]
    for fn in (charts.exterior_derivative, charts.wedge_top):

        def counting(form, *rest, _fn=fn):
            derived.append((_fn.__name__, form))
            return _fn(form, *rest)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counting)
    out = tmp_path / "report.json"
    assert cli.run(["verify", "--model", "s3_openbook", "--out", str(out)]) == 0
    names = {c["name"] for c in json.loads(out.read_text())["checks"]}
    assert {
        "round-openbook:contact_structure",
        "round-openbook:sampled_contact",
        "round-openbook:contact_vector_field",
        "round-openbook:fibration_transversality",
    } <= names
    assert sorted((fn, form.label) for fn, form in derived) == [
        ("exterior_derivative", "alpha"),
        ("exterior_derivative", "theta"),
        ("wedge_top", "alpha"),
    ]


# -- the rank screen ---------------------------------------------------------------

_SCREEN_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["copy", "ulp", "deficient", "zero", "nan", "inf", "tiny", "huge"]),
        st.integers(0, 2**16),
        st.integers(0, 2**16),
    ),
    max_size=24,
)


@st.composite
def _screen_stacks(draw):
    """Stacks of 64 to 400 matrices of 2 to 6 rows and 4 columns, with
    repeats, copies whose entries are one ulp up (sigma_min ties within an
    ulp), rank-deficient, zero and non-finite matrices, and scales 1e+-150."""
    n, rows = draw(st.integers(64, 400)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = rng.normal(size=(n, rows, 4))
    if draw(st.booleans()):
        mats = np.round(2.0 * mats)  # small integers: exact repeats and deficient rows
    for kind, i, j in draw(_SCREEN_EDITS):
        i, j = i % n, j % n
        if kind == "copy":
            mats[i] = mats[j]
        elif kind == "ulp":
            mats[i] = np.nextafter(mats[j], np.inf)
        elif kind == "deficient":
            k = min(rows, 4) - 1
            mats[i] = rng.normal(size=(rows, k)) @ rng.normal(size=(k, 4))
        elif kind == "zero":
            mats[i] = 0.0
        elif kind in ("nan", "inf"):
            mats[i, j % rows, j % 4] = np.nan if kind == "nan" else -np.inf
        else:
            with np.errstate(over="ignore"):
                mats[i] *= 1e-150 if kind == "tiny" else 1e150
    with np.errstate(over="ignore", invalid="ignore"):
        return mats * draw(st.sampled_from([1e-150, 1.0, 1e150]))


@settings(max_examples=300, deadline=None)
@given(_screen_stacks(), st.sampled_from([0.0, 1e-9, 1e-3]))
def test_rank_screen_keeps_the_least_gap_and_every_failure(mats, tol):
    want_ranks, want_gaps = pointwise_rank(mats, tol)
    ranks, gaps = verify._rank_step(mats, tol)
    assert ranks.dtype == want_ranks.dtype and np.array_equal(ranks, want_ranks)
    assert gaps.min().tobytes() == want_gaps.min().tobytes()
    bad = want_ranks != min(mats.shape[1:])
    assert gaps[bad].tobytes() == want_gaps[bad].tobytes()
    seen = gaps != np.inf
    assert gaps[seen].tobytes() == want_gaps[seen].tobytes()
    assert (want_gaps[~seen] > tol).all()


def test_rank_screen_reports_what_the_whole_stack_reports(monkeypatch):
    # x1 = dw, x2 = dx + w dy + x w^2/2 dz: x12 = dy + x w dz, x112 = x dz and
    # x212 = w dz, so rank 4 (and the span of x1, x2, x12 and their
    # brackets) fails near x = w = 0
    pair = [R4.basis_vector("w"), R4.vector_field({"x": 1.0, "y": "w", "z": "0.5*x*w^2"})]
    frame = [R4.basis_vector("w"), R4.vector_field({"x": 1.0, "z": "w*y"}), R4.basis_vector("y")]

    def run():
        return [
            *verify._engel_and_bracket_span(pair, ("engel", "span"), 10_000, tol=0.3),
            even_contact_span_check(frame, min_points=10_000, tol=0.3),
        ]

    seen = []
    with monkeypatch.context() as patched:
        patched.setattr(verify, "pointwise_rank", lambda m, tol: seen.append(len(m)) or pointwise_rank(m, tol))
        screened = run()
        patched.setattr(verify, "_SCREEN_MIN", math.inf)
        stacks = len(seen)
        whole = run()
    assert all(n >= 64 for n in seen[stacks:]) and sum(seen[:stacks]) < sum(seen[stacks:]) / 2
    assert [r.to_dict() for r in screened] == [r.to_dict() for r in whole]
    engel, span, frame_span = screened
    assert not engel.passed and not span.passed and not frame_span.passed
    assert engel.details["rank4_gap"] <= 0.3 < engel.details["rank3_gap"]
    assert len(engel.failures) == len(frame_span.failures) == 5
