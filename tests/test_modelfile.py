"""Serialization round-trips and reader validation for the text format."""

import math

import pytest

from engelbook.modelfile import dump_model, load_model
from engelbook.models import (
    assemble,
    list_models,
    model_catalog,
    piece_checks,
)
from engelbook.trigpoly import canonical_equal

CATALOG_NAMES = tuple(name for name, _ in list_models())


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_round_trip_is_byte_identical(name):
    model = model_catalog(name)
    text = dump_model(model)
    assert dump_model(load_model(text)) == text


def test_assembled_model_round_trip():
    report = assemble(2, 3, min_points=300)
    text = dump_model(report.model)
    back = load_model(text)
    assert dump_model(back) == text
    glue = back.gluings[0]
    assert (glue.first, glue.second) == ("collar", "binding")
    # the shear adds the y row into the phi row
    chart = back.piece("binding").chart
    row = glue.map.matrix[chart.index("phi")]
    assert row[chart.index("y")] == 1
    assert row[chart.index("phi")] == 1
    assert glue.region["r"] == pytest.approx(1.0, abs=1e-12)


def test_loaded_collar_without_tori_fails_adaptedness():
    # the model file keeps no boundary tori, so the loaded collar has no
    # slope to certify; the built one checks two
    built = assemble(1, 5).model
    back = load_model(dump_model(built))
    for model, tori, passed in [(built, 2, True), (back, 0, False)]:
        (report,) = [r for r in model.checks() if r.name == "adapted_collar"]
        assert report.details["tori"] == tori
        assert report.passed is passed


def test_loaded_model_runs_only_the_stored_checks():
    built = assemble(1, 5).model
    back = load_model(dump_model(built))
    built_names = [r.name for r in built.checks()]
    back_names = [r.name for r in back.checks()]
    assert (len(built_names), len(back_names)) == (18, 11)
    assert set(back_names) <= set(built_names)
    assert sorted(set(built_names) - set(back_names)) == [
        "adapted_binding",
        "binding-core:even_contact_form",
        "binding-core:even_contact_span",
        "binding-core:isotropic_line",
        "binding:torus_slope_0",
        "collar:torus_slope_0",
        "collar:torus_slope_1",
    ]


def test_loaded_fields_match_originals():
    model = model_catalog("binding_Eb")
    back = load_model(dump_model(model))
    for orig, loaded in zip(model.pieces, back.pieces):
        assert loaded.name == orig.name
        assert loaded.role == orig.role
        assert loaded.chart.coord_names() == orig.chart.coord_names()
        for got, want in zip(loaded.w_field.components, orig.w_field.components):
            assert canonical_equal(got, want, tol=0.0)
        for got, want in zip(loaded.form.components, orig.form.components):
            assert canonical_equal(got, want, tol=0.0)


def test_loaded_model_still_verifies():
    back = load_model(dump_model(model_catalog("darboux_even")))
    reports = back.checks(min_points=300)
    assert reports
    assert all(r.passed for r in reports)


def test_loaded_binding_core_keeps_locus_checks():
    back = load_model(dump_model(model_catalog("binding_Eb")))
    core = back.piece("binding-core")
    assert core.binding_locus == {"u": 0, "v": 0}
    reports = piece_checks(core, min_points=300)
    assert any(r.name == "adapted_binding" for r in reports)
    assert all(r.passed for r in reports)


HAND_WRITTEN = """\
# a small hand-written model
model = pencil
summary = one linear chart with a straight plane field
param c = 2

[chart box]
x = polynomial -1 1
y = polynomial -1 1
z = polynomial -1 1
t = angular

[field W @ box]
t = 1

[field X @ box]
x = cos(t)
y = z*cos(t)
z = sin(t)

[form alpha @ box]
y = 1
x = -z

[piece box-piece]
chart = box
role = whole
form = alpha
w_field = W
pair = W X
param c = 2
"""


def test_hand_written_file_loads():
    model = load_model(HAND_WRITTEN)
    assert model.name == "pencil"
    assert model.params == {"c": 2}
    piece = model.piece("box-piece")
    assert piece.role == "whole"
    want = piece.chart.parse("cos(t)")
    got = piece.pair[1].components[piece.chart.index("x")]
    assert canonical_equal(got, want, tol=0.0)
    reports = piece_checks(piece, min_points=200)
    assert all(r.passed for r in reports)


@pytest.mark.parametrize(
    "text, message",
    [
        ("summary = no name", "missing 'model ='"),
        ("model = m\nweird = 1", "unknown header key"),
        ("model = m\n[field F @ nowhere]\nx = 1", "unknown chart"),
        ("model = m\n[chart c]\nx = circular", "unknown kind"),
        ("model = m\n[chart c]\nx = polynomial 0", "needs 'kind lo hi'"),
        ("model = m\n[chart c]\nx = polynomial 0.5 0.5", "chart 'c': coordinate 'x': interval .* is empty"),
        ("model = m\n[chart c]\nx = linear 1 -1", "chart 'c': coordinate 'x': interval .* is empty"),
        ("model = m\n[chart c]\nx = polynomial 0 inf", "coordinate 'x': interval .* not finite"),
        ("model = m\n[chart c]\nt = angular 0 7", "chart 'c': angular coordinate 't' .* one period"),
        ("model = m\n[chart c]\nx = angular\n[field F @ c]\ny = 1", "unknown coordinate"),
        ("model = m\n[widget w]\na = 1", "unknown section kind"),
        ("model = m\n[chart c]\nx = angular\njust a line", "expected 'key = value'"),
        (
            "model = m\n[chart c]\nx = angular\n[piece p]\nchart = c\nrole = whole\nw_field = Q",
            "unknown field",
        ),
        ("model = m\n[chart c]\nx = angular\n[piece p]\nrole = whole", "must come first"),
        ("model = m\n[chart c]\nx = angular\n[piece p]\nchart = c", "missing role"),
        (
            "model = m\n[chart c]\nx = angular\n[field W @ c]\nx = 1\n[piece p]\n"
            "chart = c\nrole = whole\npair = W",
            r"piece 'p': key 'pair' takes 2 field name\(s\)",
        ),
        (
            "model = m\n[chart c]\nx = angular\n[field W @ c]\nx = 1\n[piece p]\n"
            "chart = c\nrole = whole\npair = W W W",
            r"piece 'p': key 'pair' takes 2 field name\(s\)",
        ),
        (
            "model = m\n[chart c]\nx = angular\n[field W @ c]\nx = 1\n[piece p]\n"
            "chart = c\nrole = whole\nw_field = W W",
            r"piece 'p': key 'w_field' takes 1 field name\(s\)",
        ),
        (
            "model = m\n[chart c]\nx = angular\n[piece p]\nchart = c\nrole = whole\n"
            "form =",
            r"piece 'p': key 'form' takes 1 form name\(s\)",
        ),
        (
            "model = m\n[chart c]\nx = angular\n[piece p]\nchart = c\nrole = whole\n"
            "spanning =",
            r"piece 'p': key 'spanning' takes 1 or more field name\(s\)",
        ),
        (
            "model = m\n[chart c]\nx = angular\n[piece p]\nchart = c\nrole = whole\n"
            "binding_locus = x",
            "alternating",
        ),
        (
            "model = m\n[chart c]\nx = angular\n[piece p]\nchart = c\nrole = whole\n"
            "[gluing]\nfirst = p\nsecond = q\nregion = x 0",
            "unknown piece",
        ),
    ],
)
def test_reader_rejects_malformed_input(text, message):
    with pytest.raises(ValueError, match=message):
        load_model(text)


def test_comments_and_blank_lines_are_ignored():
    text = dump_model(model_catalog("s3_openbook"))
    noisy = "# leading comment\n\n" + text.replace("[piece", "# noise\n\n[piece")
    assert dump_model(load_model(noisy)) == text
