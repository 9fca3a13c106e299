"""Acceptance suite: each test pins one advertised capability at its stated tolerance."""

import json
import math

import numpy as np

from engelbook.charts import (
    Chart,
    Interval,
    VectorField,
    lie_bracket,
    field_matrix,
)
from engelbook.foliation import (
    boundary_winding_vs_index,
    construct_xi_prime,
    torus_slope,
)
from engelbook.invariants import (
    Path,
    rotation_number,
    twisting_number,
)
from engelbook.models import (
    assemble,
    build_binding_engel,
    build_collar_engel,
    gluing_check,
    model_catalog,
)
from engelbook.trigpoly import KIND_POLYNOMIAL
from engelbook.verify import contact_vector_field_check, family_slice_check
from test_charts import central_difference, central_difference_bracket

FLAGSHIP_MODELS = ("binding_Eb", "darboux_even", "s3_openbook", "engel_prolongation_Dk")

# these checks report a residual in min_gap, so "larger than" gates do not apply
RESIDUAL_STYLE = ("contact_vector_field", "torus_slope")

R3 = Chart.make(
    "accept-r3",
    [
        ("x", KIND_POLYNOMIAL, Interval(-1.0, 1.0)),
        ("y", KIND_POLYNOMIAL, Interval(-1.0, 1.0)),
        ("z", KIND_POLYNOMIAL, Interval(-1.0, 1.0)),
    ],
)


def test_flagship_models_verify_on_dense_grids():
    for name in FLAGSHIP_MODELS:
        reports = model_catalog(name).checks(min_points=1000)
        assert reports, name
        assert max(rep.n_points for rep in reports) >= 1000, name
        for rep in reports:
            assert rep.passed, f"{name}:{rep.name}"
            if any(tag in rep.name for tag in RESIDUAL_STYLE):
                continue
            assert rep.min_gap > 1e-3, f"{name}:{rep.name} gap {rep.min_gap}"


def test_contact_vector_field_family_splits_cleanly():
    alpha = R3.one_form({"z": 1.0, "x": "-y"})
    family = [
        ({"z": 1.0}, True),
        ({"x": 1.0}, True),
        ({"y": "y", "z": "z"}, True),
        ({"x": "x", "z": "z"}, True),
        ({"y": 1.0, "z": "x"}, True),
        ({"y": 1.0}, False),
        ({"y": "z"}, False),
        ({"y": "x"}, False),
        ({"x": 1.0, "z": "y"}, False),
        ({"x": "y"}, False),
    ]
    for components, expected in family:
        report = contact_vector_field_check(R3.vector_field(components), alpha)
        assert report.passed is expected, components
        if not expected:
            assert report.min_gap > 1e-3, components


def test_gluing_grid_matches_exactly_when_frequencies_align():
    for l in range(1, 8):
        for k in (1, 3, 5):
            binding = build_binding_engel(l, k)
            for lam in range(-2, 3):
                collar = build_collar_engel(lam, k)
                report = gluing_check(collar, binding, tol=1e-12)
                assert report.passed is (l - k == lam), (l, k, lam)
                if report.passed:
                    assert report.details["slot_residual"] <= 1e-12, (l, k, lam)


def test_disk_foliation_counts_and_boundary_winding():
    for k in (1, 3, 5, 7):
        disk = construct_xi_prime(k)
        assert disk.passed, k
        counts = disk.singularities.counts
        assert counts == {
            "e_plus": (k + 1) // 2,
            "e_minus": 0,
            "h_plus": 0,
            "h_minus": (k - 1) // 2,
        }, k
        assert disk.singularities.euler_identity == 1, k
        assert disk.singularities.relative_euler == k
        binding = build_binding_engel(k, k)
        chart = binding.chart
        rim = Path.coordinate_circle(chart, "phi", {"r": 1.0})
        frame = (chart.basis_vector("r"), binding.named_fields["S"])
        out = boundary_winding_vs_index(
            binding.named_fields["C1"], frame, rim, disk.singularities
        )
        assert out["match"], k
        assert out["winding"] == k


def test_boundary_torus_slope_laws():
    a = 0.7
    collar = build_collar_engel(2, 3, a=a)
    assert collar.boundary_tori
    for torus in collar.boundary_tori:
        rb = float(torus.embedding.assignment["r"])
        law = 1.0 / math.tan(rb + a)
        assert abs(torus_slope(torus.pullback()) - law) <= 1e-9
        assert abs(torus.declared_slope - law) <= 1e-9

    contact_model = model_catalog("collar_xi", a=a)
    for piece in contact_model.pieces:
        for torus in piece.boundary_tori:
            rb = float(torus.embedding.assignment["r"])
            law = 1.0 / math.tan(rb + a)
            assert abs(torus_slope(torus.pullback()) - law) <= 1e-9

    binding = build_binding_engel(5, 3, r0=1.3)
    (torus,) = binding.boundary_tori
    assert abs(torus_slope(torus.pullback()) - 1.0 / 1.3**2) <= 1e-9

    for piece in model_catalog("binding_Eb").pieces:
        for torus in piece.boundary_tori:
            rb = float(torus.embedding.assignment["r"])
            assert abs(torus_slope(torus.pullback()) - 1.0 / rb**2) <= 1e-9


def test_twisting_numbers_and_frame_rotation_shift():
    lam, k = 2, 3
    collar = build_collar_engel(lam, k)
    chart = collar.chart
    c1, c2 = collar.named_fields["C1"], collar.named_fields["C2"]
    x_field = collar.named_fields["X"]
    frame = collar.probe_frame
    base = {"x": 0.0, "y": 0.3, "r": 0.0, "phi": 0.0}

    expected = [
        (c1, Path.coordinate_circle(chart, "x", base), 0),
        (c1, Path.coordinate_circle(chart, "y", base), lam),
        (x_field, Path.coordinate_circle(chart, "phi", base), k),
    ]
    for field, loop, value in expected:
        res = twisting_number(field, frame, loop, n_samples=256)
        assert res.value == value
        assert res.residual < 0.05

    rot = rotation_number(x_field, (c1, c2), Path.coordinate_circle(chart, "phi", base))
    assert rot.value == k
    assert rot.residual < 0.05

    # rotating the reference frame m times along the loop shifts the count by -m
    s_field = collar.named_fields["S"]
    sx, sy = s_field.components[0], s_field.components[1]
    loop = Path.coordinate_circle(chart, "phi", base)
    for m in (1, 2):
        cm = chart.parse(f"cos({m}*phi)")
        sm = chart.parse(f"sin({m}*phi)")
        f1 = VectorField(chart, (sm * sx, sm * sy, cm, chart.zero()))
        f2 = VectorField(chart, (cm * sx, cm * sy, -sm, chart.zero()))
        res = twisting_number(x_field, (f1, f2), loop, n_samples=256)
        assert res.value == k - m
        assert res.residual < 0.05


def test_assembly_grid_passes_and_reproduces():
    combos = [(lam, k) for lam in (-1, 0, 1, 2) for k in (1, 3, 5) if k + lam >= 1]
    assert len(combos) == 11
    for lam, k in combos:
        report = assemble(lam, k)
        assert report.overall_pass, (lam, k)
        assert all(check.passed for check in report.checks), (lam, k)

    first = json.dumps(assemble(2, 3).to_dict(), sort_keys=True)
    second = json.dumps(assemble(2, 3).to_dict(), sort_keys=True)
    assert first == second


def test_symbolic_numeric_cross_checks():
    rng = np.random.default_rng(17)
    collar = build_collar_engel(2, 3)
    binding = build_binding_engel(5, 3)

    for piece in (collar, binding):
        w, x = piece.named_fields["W"], piece.named_fields["X"]
        pts = piece.chart.sample_random(40, rng)
        exact = field_matrix([lie_bracket(w, x)], pts)[:, 0, :]
        approx = central_difference_bracket(w, x, pts)
        scale = 1.0 + np.max(np.abs(exact))
        assert np.max(np.abs(exact - approx)) <= 1e-5 * scale, piece.name

    for piece in (collar, binding):
        chart = piece.chart
        pts = chart.sample_random(30, rng)
        for comp in piece.named_fields["X"].components:
            for i, coord in enumerate(chart.coords):
                sym = comp.partial(coord.name).compile()(pts)
                fd = central_difference(comp.compile(), pts, i, h=1e-5)
                rel = np.max(np.abs(sym - fd)) / (1.0 + np.max(np.abs(sym)))
                assert rel <= 1e-6, (piece.name, coord.name)

    x_field = collar.named_fields["X"]
    pts = collar.chart.sample_random(60, rng)
    square_norms = (field_matrix([x_field], pts)[:, 0, :] ** 2).sum(axis=-1)
    assert np.max(np.abs(square_norms - 1.0)) <= 1e-12


def test_contact_field_family_slices():
    alpha = R3.one_form({"z": 1.0, "x": "-y"})
    reeb = R3.basis_vector("z")
    radial = R3.vector_field({"y": "y", "z": "z"})

    def slice_report(s):
        return contact_vector_field_check(reeb.scaled(1.0 - s) + radial.scaled(s), alpha)

    report = family_slice_check("interpolated-family", slice_report, np.linspace(0.0, 1.0, 11))
    assert report.passed
    assert report.details["slices"] == 11
    assert report.n_points >= 11 * 1000
