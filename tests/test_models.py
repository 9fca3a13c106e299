"""Catalog pieces, the collar-binding builders, gluing, probes, assembly."""

import dataclasses
import math

import numpy as np
import pytest

from engelbook import invariants
from engelbook.charts import lie_bracket
from engelbook.invariants import (
    DeltaResult,
    Path,
    _null_line,
    _winding,
    delta_homomorphism,
    twisting_number,
)
from engelbook.foliation import SliceEmbedding
from engelbook.models import (
    GLUE_TORUS,
    XY_TORUS,
    BoundaryTorus,
    ModelPiece,
    OpenBookModel,
    PipelineReport,
    _transplanted_binding_pair,
    assemble,
    build_binding_engel,
    build_collar_engel,
    gluing_check,
    list_models,
    looseness_probe,
    model_catalog,
    piece_checks,
)
from engelbook.reports import construct_document, render_json
from engelbook.trigpoly import Mode, canonical_equal
from engelbook.verify import engel_check, even_contact_span_check
from engelbook.models import _wave

CATALOG_NAMES = (
    "binding_Eb",
    "collar_xi",
    "darboux_even",
    "engel_darboux_loose",
    "engel_prolongation_Dk",
    "product_openbook",
    "prolongation_Eeps",
    "s3_openbook",
    "stabilization_local",
)


# -- catalog ---------------------------------------------------------------


def test_list_models_names_and_summaries():
    listing = list_models()
    assert tuple(name for name, _ in listing) == CATALOG_NAMES
    assert all(summary for _, summary in listing)


def test_model_catalog_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown model"):
        model_catalog("moebius_special")


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_model_checks_pass(name):
    model = model_catalog(name)
    assert isinstance(model, OpenBookModel)
    reports = model.checks(min_points=300)
    assert reports
    failed = [r.name for r in reports if not r.passed]
    assert failed == []


# The case ids are fixed strings, so deleting a case leaves the ids of the
# others as they are; they keep the positional names first given to them.
@pytest.mark.parametrize(
    "name, params",
    [
        # unknown names are rejected too
        pytest.param("engel_darboux_loose", {"N": 1}, id="engel_darboux_loose-params0"),
        pytest.param("engel_darboux_loose", {"theta": 0.0}, id="engel_darboux_loose-params1"),
        pytest.param("prolongation_Eeps", {"eps": -0.5}, id="prolongation_Eeps-params2"),
        pytest.param("engel_prolongation_Dk", {"k": 0}, id="engel_prolongation_Dk-params3"),
        pytest.param(
            "engel_prolongation_Dk", {"k": 1, "eps": 0.0}, id="engel_prolongation_Dk-params4"
        ),
        pytest.param("collar_xi", {"a": 2.0}, id="collar_xi-params5"),
        pytest.param("binding_Eb", {"r0": -1.0}, id="binding_Eb-params6"),
    ],
)
def test_catalog_rejects_bad_parameters(name, params):
    with pytest.raises(ValueError):
        model_catalog(name, **params)


def test_spin_model_accepts_even_k():
    # the prolongation spin count has no parity constraint
    model = model_catalog("engel_prolongation_Dk", k=2)
    assert model.params["k"] == 2
    assert all(r.passed for r in model.checks(min_points=300))


def test_model_piece_lookup():
    model = model_catalog("binding_Eb")
    assert model.piece("binding-core").role == "binding"
    with pytest.raises(ValueError, match="no piece"):
        model.piece("absent")


# -- collar builder --------------------------------------------------------


@pytest.mark.parametrize("lam, k", [(0, 1), (2, 3), (-1, 5), (1, 1)])
def test_collar_boundary_field_formula(lam, k):
    piece = build_collar_engel(lam, k)
    chart = piece.chart
    a = piece.params["a"]
    cos_w = _wave(chart, Mode.COS, {"phi": k, "y": lam})
    sin_w = _wave(chart, Mode.SIN, {"phi": k, "y": lam})
    expected = {
        "r": cos_w,
        "x": sin_w * chart.parse(f"sin(r + {a})"),
        "y": sin_w * chart.parse(f"cos(r + {a})"),
        "phi": chart.zero(),
    }
    x_field = piece.named_fields["X"]
    for name, want in expected.items():
        got = x_field.components[chart.index(name)]
        assert canonical_equal(got, want, tol=1e-12)


def test_collar_kernel_direction_is_torus_diagonal():
    piece = build_collar_engel(2, 3)
    chart = piece.chart
    want = chart.vector_field({"y": 1.0, "phi": 1.0})
    for got, ref in zip(piece.w_field.components, want.components):
        assert canonical_equal(got, ref, tol=1e-12)


def test_collar_piece_certificates_pass():
    piece = build_collar_engel(2, 3)
    reports = piece_checks(piece, min_points=300)
    assert [r.name for r in reports if not r.passed] == []
    names = {r.name for r in reports}
    assert "collar:engel" in names
    assert "adapted_collar" in names


def test_collar_interface_slope_is_cotangent():
    a = 0.6
    piece = build_collar_engel(1, 3, a=a)
    assert piece.interface.slope == pytest.approx(1.0 / math.tan(a), abs=1e-12)


@pytest.mark.parametrize("lam, k", [(2, 2), (0, 0), (1, -3)])
def test_collar_requires_odd_positive_k(lam, k):
    with pytest.raises(ValueError, match="k must be odd and positive"):
        build_collar_engel(lam, k)


@pytest.mark.parametrize("a", [0.0, math.pi / 2, -0.3, 3.0])
def test_collar_rejects_bad_interface_angle(a):
    with pytest.raises(ValueError, match="a must lie"):
        build_collar_engel(1, 3, a=a)


# -- binding builder -------------------------------------------------------


@pytest.mark.parametrize("l, k", [(5, 3), (3, 3), (1, 3), (2, 1), (7, 5)])
def test_binding_sheared_field_formula(l, k):
    # the shear turns cos(k phi + l y) into cos(k phi + (l - k) y)
    piece = build_binding_engel(l, k)
    chart = piece.chart
    cos_w = _wave(chart, Mode.COS, {"phi": k, "y": l - k})
    sin_w = _wave(chart, Mode.SIN, {"phi": k, "y": l - k})
    expected = {
        "r": cos_w,
        "x": sin_w * chart.parse("r^2"),
        "y": sin_w,
        "phi": chart.zero(),
    }
    x_field = piece.named_fields["X"]
    for name, want in expected.items():
        got = x_field.components[chart.index(name)]
        assert canonical_equal(got, want, tol=1e-12)


def test_binding_kernel_direction_after_shear():
    piece = build_binding_engel(5, 3)
    chart = piece.chart
    want = chart.vector_field({"y": 1.0, "phi": 1.0})
    for got, ref in zip(piece.w_field.components, want.components):
        assert canonical_equal(got, ref, tol=1e-12)
    pre = piece.named_fields["W_pre"]
    ref_pre = chart.basis_vector("y")
    for got, ref in zip(pre.components, ref_pre.components):
        assert canonical_equal(got, ref, tol=1e-12)


def test_binding_interface_slots_agree_with_direct_construction():
    # shear-substitution route versus direct frequency construction
    piece = build_binding_engel(5, 3)
    direct = (
        _wave(GLUE_TORUS, Mode.COS, {"phi": 3, "y": 2}),
        _wave(GLUE_TORUS, Mode.SIN, {"phi": 3, "y": 2}),
    )
    for got, want in zip(piece.interface.slots, direct):
        assert canonical_equal(got, want, tol=1e-12)


def test_binding_piece_certificates_pass():
    piece = build_binding_engel(5, 3)
    reports = piece_checks(piece, min_points=300)
    assert [r.name for r in reports if not r.passed] == []
    names = {r.name for r in reports}
    assert "binding:engel" in names
    assert "adapted_binding" in names
    assert "binding-core:even_contact_form" in names


def test_binding_interior_disk_attached():
    piece = build_binding_engel(5, 3)
    disk = piece.interior
    assert disk.passed
    assert disk.singularities.relative_euler == 3


@pytest.mark.parametrize(
    "l, k, message",
    [
        (0, 1, "l must be a positive integer"),
        (-2, 3, "l must be a positive integer"),
        (4, 2, "k must be odd and positive"),
        (4, 0, "k must be odd and positive"),
    ],
)
def test_binding_parameter_validation(l, k, message):
    with pytest.raises(ValueError, match=message):
        build_binding_engel(l, k)


def test_binding_rejects_nonpositive_radius():
    with pytest.raises(ValueError, match="r0 must be positive"):
        build_binding_engel(5, 3, r0=0.0)


# -- gluing ----------------------------------------------------------------


def _vertical_torus(chart, assignment):
    """A torus slice of ``chart`` whose line field is the vertical kernel of dx."""
    emb = SliceEmbedding(XY_TORUS, chart, assignment)
    return BoundaryTorus(emb, chart.one_form({"x": 1.0}), declared_slope=math.inf)


def test_declared_vertical_torus_slope_passes():
    torus = _vertical_torus(XY_TORUS, {"x": "x", "y": "y"})
    piece = ModelPiece("flat", "collar", XY_TORUS, {}, boundary_tori=(torus,))
    (report,) = piece_checks(piece)
    assert report.name == "flat:torus_slope_0"
    assert report.passed
    assert report.min_gap == 0.0
    assert report.details == {"computed": math.inf, "declared": math.inf}
    assert torus.slope_and_residual() == (math.inf, 0.0)


def test_collar_slope_verdict_does_not_depend_on_torus_order():
    collar = model_catalog("binding_Eb").piece("boundary-annulus")
    vertical = _vertical_torus(collar.chart, {"x": "x", "y": "y", "r": 0.5, "phi": 0.0})
    reports = [
        piece_checks(dataclasses.replace(collar, boundary_tori=tori), min_points=64)
        for tori in [(vertical, collar.boundary_tori[0]), (collar.boundary_tori[0], vertical)]
    ]
    (first, second) = ([r for r in rs if r.name == "adapted_collar"][0] for rs in reports)
    assert first.passed and second.passed
    assert first.details == second.details


def test_gluing_check_matched_pieces_pass():
    report = gluing_check(build_collar_engel(2, 3), build_binding_engel(5, 3))
    assert report.passed
    assert report.details["slot_residual"] <= 1e-12
    assert report.details["numeric_residual"] <= 1e-9
    assert report.details["slope_residual"] <= 1e-9


def test_gluing_check_mismatch_reports_difference():
    report = gluing_check(build_collar_engel(2, 3), build_binding_engel(4, 3))
    assert not report.passed
    assert "difference" in report.details
    assert any(diff != "0" for diff in report.details["difference"])


@pytest.mark.parametrize("l", range(1, 8))
@pytest.mark.parametrize("lam", range(-2, 3))
def test_gluing_grid_matches_exactly_when_l_minus_k_is_lam(l, lam):
    k = 3
    report = gluing_check(build_collar_engel(lam, k), build_binding_engel(l, k))
    assert report.passed == (l - k == lam)


def test_gluing_frame_match_requires_slope_agreement():
    collar = build_collar_engel(2, 3, a=math.pi / 4)
    matched = build_binding_engel(5, 3, r0=1.0)
    mismatched = build_binding_engel(5, 3, r0=1.4)
    assert gluing_check(collar, matched).passed
    report = gluing_check(collar, mismatched)
    assert not report.passed
    assert report.details["slope_residual"] > 1e-9


def test_gluing_requires_overlap_declaration():
    collar = build_collar_engel(2, 3)
    bare = model_catalog("binding_Eb").piece("binding-core")
    with pytest.raises(ValueError, match="missing overlap declaration"):
        gluing_check(collar, bare)


# -- looseness probe -------------------------------------------------------


def test_probe_binding_counts_l_along_fiber_circle():
    piece = build_binding_engel(5, 3)
    path = Path.coordinate_circle(piece.chart, "y", {"x": 0.0, "y": 0.0, "r": 1.0, "phi": 0.2})
    assert looseness_probe(piece, path) == 5


def test_probe_collar_counts_k_along_angular_circle():
    piece = build_collar_engel(2, 3)
    path = Path.coordinate_circle(piece.chart, "phi", {"x": 0.0, "y": 0.1, "r": 0.0, "phi": 0.0})
    assert looseness_probe(piece, path) == 3


def test_probe_contractible_segment_reports_zero():
    piece = build_collar_engel(2, 3)
    path = Path.coordinate_segment(
        piece.chart, "phi", {"x": 0.0, "y": 0.1, "r": 0.0, "phi": 0.0}, 0.0, 0.3
    )
    assert looseness_probe(piece, path) == 0


def test_open_segment_counts_at_the_asked_samples():
    # the field turns 1.58 times along the segment; an open segment's count
    # is fractional, and it is rounded at the asked sample count
    piece = build_collar_engel(2, 3)
    path = Path.coordinate_segment(
        piece.chart, "phi", {"x": 0.0, "y": 0.3, "r": 0.0, "phi": 0.0}, 0.0, 3.3
    )
    result = twisting_number(piece.probe_field, piece.probe_frame, path, n_samples=256)
    assert result.value == 2
    assert result.samples == 256


def test_probe_rejects_path_tangent_to_kernel():
    piece = build_collar_engel(2, 3)
    tau = 2.0 * math.pi

    def diagonal(s):
        s = np.asarray(s, float)
        return np.stack([0.0 * s, tau * s, 0.0 * s, tau * s], axis=-1)

    path = Path(piece.chart, diagonal, closed=True, label="diagonal")
    with pytest.raises(ValueError, match="not transverse"):
        looseness_probe(piece, path)


def test_probe_rejects_constant_path_without_kernel_field():
    piece = dataclasses.replace(build_collar_engel(2, 3), w_field=None)
    still = Path.coordinate_circle(piece.chart, "phi", {"r": 0.0}, turns=0)
    with pytest.raises(ValueError, match="tangent vanishes"):
        looseness_probe(piece, still)


def test_probe_requires_probe_data():
    piece = model_catalog("darboux_even").piece("standard-even")
    circle = Path.coordinate_segment(piece.chart, "x", {"y": 0.0, "z": 0.0, "w": 0.0}, -0.5, 0.5)
    with pytest.raises(ValueError, match="declares no probe data"):
        looseness_probe(piece, circle)


def test_probe_loose_tube_rejects_kernel_circle():
    # the tube spins along its own kernel direction, so the probe refuses
    model = model_catalog("engel_darboux_loose")
    piece = model.piece("loose-tube")
    path = Path.coordinate_circle(
        piece.chart, "theta", {"x": 0.0, "y": 0.0, "z": 0.3, "theta": 0.0}, turns=2
    )
    with pytest.raises(ValueError, match="not transverse"):
        looseness_probe(piece, path)


def test_loose_tube_twist_counts_turns():
    from engelbook.invariants import twisting_number

    model = model_catalog("engel_darboux_loose")
    piece = model.piece("loose-tube")
    path = Path.coordinate_circle(
        piece.chart, "theta", {"x": 0.0, "y": 0.0, "z": 0.3, "theta": 0.0}, turns=2
    )
    result = twisting_number(piece.probe_field, piece.probe_frame, path)
    assert result.value == 2
    assert result.residual < 1e-9


# -- transplanted comparison ------------------------------------------------


@pytest.mark.parametrize("l, expected", [(5, 0), (6, 1), (4, -1), (7, 2)])
def test_delta_between_collar_and_transplanted_binding(l, expected):
    collar = build_collar_engel(2, 3)
    binding = build_binding_engel(l, 3)
    path = Path.coordinate_circle(collar.chart, "y", {"x": 0.0, "y": 0.3, "r": 0.0, "phi": 0.0})
    result = delta_homomorphism(
        collar.pair,
        _transplanted_binding_pair(collar, binding),
        collar.probe_frame,
        (collar.form, collar.fibration_form),
        path,
    )
    assert result.value == expected
    assert result.residual < 1e-9


# -- assembly ---------------------------------------------------------------


def test_assemble_matched_parameters_pass():
    report = assemble(2, 3, min_points=300)
    assert isinstance(report, PipelineReport)
    assert report.overall_pass
    assert (report.params["lam"], report.params["k"], report.params["l"]) == (2, 3, 5)
    assert report.params["a"] == pytest.approx(math.pi / 4, abs=1e-15)
    assert report.params["r0"] == pytest.approx(1.0, abs=1e-12)
    assert report.invariants == {
        "tw_gamma_x": 0,
        "tw_gamma_y": 2,
        "tw_gamma_phi": 3,
        "rotation_k": 3,
        "delta": 0,
    }
    assert report.singularities["e_plus"] == 2
    assert report.singularities["h_minus"] == 1
    assert report.singularities["relative_euler"] == 3
    names = {c.name for c in report.checks}
    assert {"gluing", "twisting_invariants", "boundary_euler_chain"} <= names


@pytest.mark.parametrize("lam, k", [(0, 1), (-1, 3), (2, 5)])
def test_assemble_parameter_grid(lam, k):
    report = assemble(lam, k, min_points=300)
    assert report.overall_pass
    assert report.invariants["tw_gamma_y"] == lam
    assert report.invariants["tw_gamma_phi"] == k
    assert report.invariants["rotation_k"] == k
    assert report.invariants["delta"] == 0


def test_assemble_reports_are_reproducible():
    first = render_json(construct_document(assemble(2, 3, min_points=300), {}))
    second = render_json(construct_document(assemble(2, 3, min_points=300), {}))
    assert first == second


def test_assemble_derives_matching_radius():
    a = 0.9
    report = assemble(1, 3, a=a, min_points=300)
    assert report.params["r0"] == pytest.approx(math.sqrt(math.tan(a)), abs=1e-12)
    assert report.overall_pass


def test_assemble_rejects_even_k():
    with pytest.raises(ValueError, match="k must be odd and positive"):
        assemble(2, 2)


def test_assemble_rejects_nonpositive_l():
    with pytest.raises(ValueError, match="must be a positive integer"):
        assemble(-4, 3)


@pytest.mark.parametrize("few", [3, 15])
def test_assemble_refuses_fewer_turn_samples_than_the_probe_floor(few, monkeypatch):
    def build(*_args, **_kwargs):
        raise AssertionError("a piece was built")

    monkeypatch.setattr("engelbook.models.build_collar_engel", build)
    with pytest.raises(ValueError, match=f"an assembly needs at least 16 samples, got {few}"):
        assemble(0, 1, n_samples=few)


def two_pass_delta(d_first, d_second, frame, rows, path, n_samples):
    """Reference: delta_homomorphism with the null lines and turns of both
    plane pairs computed."""
    turns = [_winding(_null_line(basis, rows), frame, path, n_samples).turns for basis in (d_first, d_second)]
    diff = turns[1] - turns[0]
    value = int(round(diff))
    return DeltaResult(value, abs(diff - value), turns[0], turns[1], n_samples)


def test_assemble_takes_the_transplanted_pair_turns_from_the_collar_pair(monkeypatch):
    # the transplanted binding pair has the collar pair's chart and
    # components, so one null line is built per assembly
    calls, deltas = [], []

    def counting(*args):
        calls.append(args)
        return _null_line(*args)

    def recording(*args, **kwargs):
        deltas.append((args, kwargs, delta_homomorphism(*args, **kwargs)))
        return deltas[-1][2]

    monkeypatch.setattr(invariants, "_null_line", counting)
    monkeypatch.setattr("engelbook.models.delta_homomorphism", recording)
    assemble(1, 5)
    ((args, kwargs, result),) = deltas
    assert len(calls) == 1
    monkeypatch.undo()
    reference = two_pass_delta(*args, **kwargs)
    assert repr(result) == repr(reference)
    assert (result.value, result.residual) == (0, 0.0)


def test_assemble_model_records_gluing():
    report = assemble(2, 3, min_points=300)
    assert [p.name for p in report.model.pieces] == ["collar", "binding"]
    glue = report.model.gluings[0]
    assert (glue.first, glue.second) == ("collar", "binding")
    assert glue.map is not None
    assert glue.region["r"] == pytest.approx(1.0, abs=1e-12)


def _pieces_with_pairs():
    pieces = []
    for name in CATALOG_NAMES:
        stack = list(model_catalog(name).pieces)
        while stack:
            piece = stack.pop()
            if piece.pair is not None:
                pieces.append(piece)
            if piece.core is not None:
                stack.append(piece.core)
    return pieces + [build_collar_engel(1, 3), build_binding_engel(1, 3)]


@pytest.mark.parametrize("tol", [None, 0.99], ids=["default-tol", "failing-tol"])
def test_shared_pair_reports_equal_separate_checks(tol):
    # piece_checks builds :engel and :bracket_span from one Engel stack
    pieces = _pieces_with_pairs()
    assert [p.name for p in pieces] == ["loose-tube", "spinning-prolongation", "collar", "binding"]
    rank = {} if tol is None else {"tol": tol}
    for piece in pieces:
        w, x = piece.pair
        separate = [
            engel_check(piece.pair, name=f"{piece.name}:engel", **rank),
            even_contact_span_check(
                (w, x, lie_bracket(w, x)), name=f"{piece.name}:bracket_span", **rank
            ),
        ]
        reports = piece_checks(piece, tol=tol)
        names = [r.name for r in reports]
        i = names.index(f"{piece.name}:engel")
        assert names[i + 1] == f"{piece.name}:bracket_span"
        assert repr(reports[i : i + 2]) == repr(separate)
        if tol is not None:
            assert not separate[0].passed and separate[0].failures
