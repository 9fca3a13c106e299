"""Reference structures and the collar-binding assembly pipeline.

The catalog collects small chart models (a flat even-contact chart, a loose
tube, an open book on the round 3-sphere, circle prolongations, binding and
collar neighborhoods, a stabilization slice), each packaged as pieces whose
declared data feed the generic certificates in ``verify``.  On top of the
catalog sit the constructive entry points: ``build_collar_engel`` and
``build_binding_engel`` produce the two boundary pieces of the suspension
construction, ``gluing_check`` certifies their interface symbolically, and
``assemble`` runs the whole pipeline and aggregates a report.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .charts import (
    Chart,
    IntegerAffineMap,
    Interval,
    OneForm,
    VectorField,
    batch_eval_scalars,
    field_matrix,
)
from .foliation import (
    SliceEmbedding,
    annulus_foliation_check,
    boundary_winding_vs_index,
    construct_xi_prime,
    torus_slope,
)
from .invariants import Path, delta_homomorphism, rotation_number, twisting_number
from .trigpoly import (
    KIND_ANGULAR,
    KIND_LINEAR,
    KIND_POLYNOMIAL,
    Expr,
    Mode,
    canonical_equal,
)
from .verify import (
    CheckReport,
    _engel_and_bracket_span,
    adaptedness_check,
    adaptedness_ready,
    contact_structure_check,
    contact_vector_field_check,
    even_contact_form_check,
    even_contact_span_check,
    fibration_transversality_check,
    isotropic_line_check,
)

__all__ = [
    "AnnulusData",
    "BoundaryTorus",
    "GluingSpec",
    "InterfaceData",
    "ModelPiece",
    "OpenBookModel",
    "PipelineReport",
    "assemble",
    "build_binding_engel",
    "build_collar_engel",
    "gluing_check",
    "list_models",
    "looseness_probe",
    "model_catalog",
    "piece_checks",
]

DEFAULT_MIN_POINTS = 1000
SLOPE_TOL = 1e-9
SYMBOL_TOL = 1e-12
RESIDUAL_TOL = 0.25
# fewest path samples a turn count takes: fewer alias the fields' turns
MIN_TURN_SAMPLES = 16


# -- small helpers -------------------------------------------------------------


def _as_int(value, name: str) -> int:
    if int(value) != value:
        raise ValueError(f"{name} must be an integer")
    return int(value)


def _odd_positive_k(k) -> int:
    k = _as_int(k, "k")
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be odd and positive")
    return k


def _finite(value, name: str, positive: bool = False) -> float:
    """``value`` as a float, refused unless finite, and positive when asked."""
    value = float(value)
    if not math.isfinite(value) or (positive and value <= 0):
        wanted = "positive and finite" if positive else "finite"
        raise ValueError(f"{name} must be {wanted}, got {value}")
    return value


def _check_angle(a: float) -> float:
    a = float(a)
    # interface slope cot(a) must be positive and finite
    if not 0.0 < a < math.pi / 2:
        raise ValueError("a must lie in (0, pi/2) so the interface slope is positive")
    return a


def _wave(chart: Chart, mode: Mode, freqs: Mapping[str, int], phase: float = 0.0) -> Expr:
    """A unit-amplitude cos or sin term with integer frequencies given by name."""
    vec = [0] * chart.dim
    for name, f in freqs.items():
        vec[chart.index(name)] = int(f)
    return Expr.term(chart.coords, 1.0, None, mode, tuple(vec), phase)


# -- declared piece data -------------------------------------------------------


@dataclass(frozen=True)
class BoundaryTorus:
    """A 2-torus slice with a declared slope for its induced line field."""

    embedding: SliceEmbedding
    form: OneForm
    declared_slope: float

    def pullback(self) -> OneForm:
        return self.embedding.pullback_oneform(self.form)

    def slope_and_residual(self) -> tuple[float, float]:
        """The computed slope of the line field and its distance from the
        declared one; two infinite slopes are the same vertical line."""
        computed = torus_slope(self.pullback())
        if math.isinf(computed) and math.isinf(self.declared_slope):
            return computed, 0.0
        return computed, abs(computed - self.declared_slope)


@dataclass(frozen=True)
class AnnulusData:
    """An annulus slice whose induced foliation should cross it in intervals."""

    name: str
    embedding: SliceEmbedding
    form: OneForm
    v_range: tuple[float, float]

    def pullback(self) -> OneForm:
        return self.embedding.pullback_oneform(self.form)


@dataclass(frozen=True)
class InterfaceData:
    """Boundary presentation of a piece on the shared interface torus.

    ``slots`` are the coefficients of the distinguished plane field against
    the (radial, surface) frame pair, written on the two-torus chart after
    the interface identification; ``w_slots`` are the kernel direction's
    coefficients on the torus coordinate axes.
    """

    torus: Chart
    slots: tuple[Expr, Expr]
    w_slots: tuple[Expr, Expr]
    slope: float
    region: dict
    shear: IntegerAffineMap | None = None


@dataclass(frozen=True)
class GluingSpec:
    first: str
    second: str
    map: IntegerAffineMap | None
    region: dict


@dataclass(frozen=True)
class ModelPiece:
    """One chart-level piece of a model with its declared structure data.

    Every optional field unlocks the matching certificate in
    ``piece_checks``; absent data is simply not checked.
    """

    name: str
    role: str
    chart: Chart
    params: dict
    form: OneForm | None = None
    w_field: VectorField | None = None
    pair: tuple[VectorField, VectorField] | None = None
    spanning: tuple[VectorField, ...] = ()
    contact_field: VectorField | None = None
    fibration_form: OneForm | None = None
    binding_locus: dict | None = None
    torus_normal: OneForm | None = None
    boundary_tori: tuple[BoundaryTorus, ...] = ()
    annuli: tuple[AnnulusData, ...] = ()
    interface: InterfaceData | None = None
    interior: object | None = None
    core: "ModelPiece | None" = None
    probe_field: VectorField | None = None
    probe_frame: tuple[VectorField, VectorField] | None = None
    named_fields: dict = field(default_factory=dict)
    note: str = ""


@dataclass(frozen=True)
class OpenBookModel:
    name: str
    summary: str
    params: dict
    pieces: tuple[ModelPiece, ...]
    gluings: tuple[GluingSpec, ...] = ()
    binding_note: str = ""

    def piece(self, name: str) -> ModelPiece:
        for p in self.pieces:
            if p.name == name:
                return p
        raise ValueError(f"model {self.name!r} has no piece {name!r}")

    def checks(
        self, min_points: int = DEFAULT_MIN_POINTS, tol: float | None = None
    ) -> tuple[CheckReport, ...]:
        out: list[CheckReport] = []
        for p in self.pieces:
            out.extend(piece_checks(p, min_points=min_points, tol=tol))
        return tuple(out)


@dataclass(frozen=True)
class PipelineReport:
    """Aggregated output of ``assemble``: checks, invariants, singularities."""

    params: dict
    model: OpenBookModel
    checks: tuple[CheckReport, ...]
    invariants: dict
    singularities: dict
    overall_pass: bool


# -- generic per-piece verification --------------------------------------------


def _form_check(piece: ModelPiece, names: tuple[str, str], **kwargs) -> CheckReport:
    """The contact certificate of a 3-chart piece's form, or the even contact
    certificate on a 4-chart, named ``piece:names[0]`` or ``piece:names[1]``."""
    if piece.chart.dim == 3:
        return contact_structure_check(piece.form, name=f"{piece.name}:{names[0]}", **kwargs)
    return even_contact_form_check(piece.form, name=f"{piece.name}:{names[1]}", **kwargs)


def piece_checks(
    piece: ModelPiece,
    min_points: int = DEFAULT_MIN_POINTS,
    tol: float | None = None,
) -> list[CheckReport]:
    """Run every certificate the piece's declared data supports.

    ``tol`` overrides the rank and residual tolerance of the certificates
    that accept one; ``None`` keeps each certificate's default."""
    out: list[CheckReport] = []
    name = piece.name
    rank = {} if tol is None else {"tol": tol}
    if piece.form is not None:
        out.append(
            _form_check(piece, ("contact_structure", "even_contact_form"), min_points=min_points)
        )
    if piece.pair is not None:
        names = (f"{name}:engel", f"{name}:bracket_span")
        out.extend(_engel_and_bracket_span(piece.pair, names, min_points=min_points, **rank))
    elif piece.spanning and piece.chart.dim == 4:
        out.append(
            even_contact_span_check(
                piece.spanning,
                min_points=min_points,
                name=f"{name}:even_contact_span",
                **rank,
            )
        )
    if piece.w_field is not None and piece.form is not None and piece.spanning:
        out.append(
            isotropic_line_check(
                piece.w_field,
                piece.form,
                piece.spanning,
                min_points=min_points,
                name=f"{name}:isotropic_line",
                **rank,
            )
        )
    if piece.contact_field is not None and piece.form is not None:
        out.append(
            contact_vector_field_check(
                piece.contact_field,
                piece.form,
                min_points=min_points,
                name=f"{name}:contact_vector_field",
                **rank,
            )
        )
    if piece.fibration_form is not None and piece.w_field is not None and piece.role != "page":
        # the page role is covered by adaptedness below with the same content
        out.append(
            fibration_transversality_check(
                piece.fibration_form,
                piece.w_field,
                min_points=min_points,
                name=f"{name}:fibration_transversality",
                **rank,
            )
        )
    if adaptedness_ready(piece):
        out.append(adaptedness_check(piece, min_points=min_points, **rank))
    for i, torus in enumerate(piece.boundary_tori):
        computed, resid = torus.slope_and_residual()
        out.append(
            CheckReport(
                name=f"{name}:torus_slope_{i}",
                passed=resid <= SLOPE_TOL,
                n_points=1,
                min_gap=float(resid),
                failures=(),
                details={
                    "computed": float(computed),
                    "declared": float(torus.declared_slope),
                },
            )
        )
    for annulus in piece.annuli:
        out.append(
            annulus_foliation_check(
                annulus.pullback(), annulus.v_range, name=f"{name}:{annulus.name}"
            )
        )
    if piece.core is not None:
        out.extend(piece_checks(piece.core, min_points=min_points, tol=tol))
    return out


# -- shared charts -------------------------------------------------------------

BOX = Interval(-1.0, 1.0)

GLUE_TORUS = Chart.make("glue-torus", [("y", KIND_ANGULAR), ("phi", KIND_ANGULAR)])
XY_TORUS = Chart.make("xy-torus", [("x", KIND_ANGULAR), ("y", KIND_ANGULAR)])
ANGLE_TORUS = Chart.make("angle-torus", [("phi1", KIND_ANGULAR), ("phi2", KIND_ANGULAR)])
PAGE_ANNULUS = Chart.make(
    "page-annulus", [("u", KIND_ANGULAR), ("v", KIND_POLYNOMIAL, Interval(0.05, 0.95))]
)
STRIP = Chart.make(
    "strip", [("u", KIND_ANGULAR), ("v", KIND_LINEAR, Interval(-0.4, 0.4))]
)

PROLONG4 = Chart.make(
    "prolong4",
    [
        ("t", KIND_ANGULAR),
        ("r", KIND_POLYNOMIAL, Interval(0.05, 0.95)),
        ("phi1", KIND_ANGULAR),
        ("phi2", KIND_ANGULAR),
    ],
)
OPENBOOK3 = Chart.make(
    "openbook3",
    [
        ("r", KIND_POLYNOMIAL, Interval(0.05, 0.95)),
        ("phi1", KIND_ANGULAR),
        ("phi2", KIND_ANGULAR),
    ],
)


# -- catalog builders ----------------------------------------------------------


def _model_darboux_even() -> OpenBookModel:
    chart = Chart.make(
        "darboux4",
        [("x", KIND_POLYNOMIAL, BOX), ("y", KIND_POLYNOMIAL, BOX), ("z", KIND_POLYNOMIAL, BOX), ("w", KIND_POLYNOMIAL, BOX)],
    )
    alpha = chart.one_form({"z": 1.0, "x": "-y"}, label="alpha")
    w = chart.basis_vector("w", label="W")
    spanning = (
        chart.vector_field({"x": 1.0, "z": "y"}, label="E1"),
        chart.basis_vector("y", label="E2"),
        w,
    )
    piece = ModelPiece(
        name="standard-even",
        role="whole",
        chart=chart,
        params={},
        form=alpha,
        w_field=w,
        spanning=spanning,
        named_fields={"W": w, "E1": spanning[0], "E2": spanning[1]},
    )
    return OpenBookModel(
        name="darboux_even",
        summary="flat even structure on a 4-box with a straight kernel line",
        params={},
        pieces=(piece,),
    )


def _model_engel_darboux_loose(theta0: float = 0.0) -> OpenBookModel:
    theta0 = _finite(theta0, "theta0")
    chart = Chart.make(
        "loose-tube",
        [("x", KIND_POLYNOMIAL, BOX), ("y", KIND_POLYNOMIAL, BOX), ("z", KIND_POLYNOMIAL, BOX), ("theta", KIND_ANGULAR)],
    )
    cos_t = _wave(chart, Mode.COS, {"theta": 1}, phase=-theta0)
    sin_t = _wave(chart, Mode.SIN, {"theta": 1}, phase=-theta0)
    z = chart.coordinate_expr("z")
    v1 = chart.basis_vector("theta", label="V1")
    v2 = VectorField(chart, (cos_t, z * cos_t, sin_t, chart.zero()), label="V2")
    beta = chart.one_form({"y": 1.0, "x": "-z"}, label="beta")
    f1 = chart.vector_field({"x": 1.0, "y": "z"}, label="F1")
    f2 = chart.basis_vector("z", label="F2")
    piece = ModelPiece(
        name="loose-tube",
        role="whole",
        chart=chart,
        params={"theta0": theta0},
        form=beta,
        w_field=v1,
        pair=(v1, v2),
        spanning=(v1, f1, f2),
        probe_field=v2,
        probe_frame=(f1, f2),
        named_fields={"V1": v1, "V2": v2, "F1": f1, "F2": f2},
        note="probe the rotation along the angular tube direction",
    )
    return OpenBookModel(
        name="engel_darboux_loose",
        summary="straight tube whose plane field spins once per angular turn",
        params={"theta0": theta0},
        pieces=(piece,),
    )


def _binding_core_piece(r0: float) -> ModelPiece:
    half = 0.7 * r0
    chart = Chart.make(
        "binding-core",
        [
            ("x", KIND_ANGULAR),
            ("y", KIND_ANGULAR),
            ("u", KIND_POLYNOMIAL, Interval(-half, half)),
            ("v", KIND_POLYNOMIAL, Interval(-half, half)),
        ],
    )
    alpha = chart.one_form(
        {"x": 1.0, "y": "-u^2 - v^2", "u": "-v", "v": "u"}, label="alpha"
    )
    w = chart.vector_field({"y": 1.0, "u": "-v", "v": "u"}, label="W")
    spanning = (
        w,
        chart.vector_field({"u": 1.0, "x": "v"}, label="Z1"),
        chart.vector_field({"v": 1.0, "x": "-u"}, label="Z2"),
    )
    return ModelPiece(
        name="binding-core",
        role="binding",
        chart=chart,
        params={"r0": r0},
        form=alpha,
        w_field=w,
        spanning=spanning,
        binding_locus={"u": 0.0, "v": 0.0},
        named_fields={"W": w, "Z1": spanning[1], "Z2": spanning[2]},
    )


def _binding_boundary_chart(r0: float) -> Chart:
    width = min(0.4, 0.5 * r0)
    return Chart.make(
        "binding-annulus",
        [
            ("x", KIND_ANGULAR),
            ("y", KIND_ANGULAR),
            ("r", KIND_POLYNOMIAL, Interval(r0 - width, r0 + width)),
            ("phi", KIND_ANGULAR),
        ],
    )


def _model_binding_eb(r0: float = 1.0) -> OpenBookModel:
    r0 = _finite(r0, "r0", positive=True)
    core = _binding_core_piece(r0)
    chart = _binding_boundary_chart(r0)
    alpha = chart.one_form({"x": 1.0, "y": "-r^2", "phi": "r^2"}, label="alpha")
    w = chart.vector_field({"y": 1.0, "phi": 1.0}, label="W")
    s_field = chart.vector_field({"x": "r^2", "y": 1.0}, label="S")
    spanning = (w, chart.basis_vector("r"), s_field)
    tori = tuple(
        BoundaryTorus(
            SliceEmbedding(XY_TORUS, chart, {"x": "x", "y": "y", "r": rb, "phi": 0.0}),
            alpha,
            declared_slope=1.0 / rb**2,
        )
        for rb in (0.75 * r0, r0, 1.25 * r0)
    )
    boundary = ModelPiece(
        name="boundary-annulus",
        role="collar",
        chart=chart,
        params={"r0": r0},
        form=alpha,
        w_field=w,
        spanning=spanning,
        fibration_form=chart.one_form({"phi": 1.0}, label="theta"),
        torus_normal=chart.one_form({"r": 1.0}, label="dr"),
        boundary_tori=tori,
        named_fields={"W": w, "S": s_field},
    )
    return OpenBookModel(
        name="binding_Eb",
        summary="solid-torus neighborhood whose torus line fields have slope 1/r^2",
        params={"r0": r0},
        pieces=(core, boundary),
        binding_note="core torus at u = v = 0; kernel line turns with the angular fiber",
    )


def _collar_width(a: float) -> float:
    """Half-width of the collar's r interval: r + a stays inside (0, pi/2)."""
    return min(0.45, 0.9 * min(a, math.pi / 2 - a))


def _collar3_chart(a: float) -> Chart:
    width = _collar_width(a)
    return Chart.make(
        "collar3",
        [("x", KIND_ANGULAR), ("y", KIND_ANGULAR), ("r", KIND_LINEAR, Interval(-width, width))],
    )


def _model_collar_xi(a: float = math.pi / 4) -> OpenBookModel:
    a = _check_angle(a)
    chart = _collar3_chart(a)
    alpha = chart.one_form({"x": f"cos(r + {a})", "y": f"-sin(r + {a})"}, label="alpha")
    contact_field = chart.basis_vector("y", label="L")
    width = chart.bounds[chart.index("r")].hi
    radii = (-0.5 * width, 0.0, 0.5 * width)
    tori = tuple(
        BoundaryTorus(
            SliceEmbedding(XY_TORUS, chart, {"x": "x", "y": "y", "r": rb}),
            alpha,
            declared_slope=1.0 / math.tan(rb + a),
        )
        for rb in radii
    )
    piece = ModelPiece(
        name="rotating-collar",
        role="whole",
        chart=chart,
        params={"a": a},
        form=alpha,
        contact_field=contact_field,
        boundary_tori=tori,
        named_fields={"L": contact_field},
    )
    return OpenBookModel(
        name="collar_xi",
        summary="collar of torus slices whose line field slope is cot(r + a)",
        params={"a": a},
        pieces=(piece,),
    )


def _model_s3_openbook() -> OpenBookModel:
    chart = OPENBOOK3
    alpha = chart.one_form({"phi1": "r^2", "phi2": "1 - r^2"}, label="alpha")
    reeb = chart.vector_field({"phi1": 1.0, "phi2": 1.0}, label="R")
    theta = chart.one_form({"phi2": 1.0}, label="theta")
    tori = tuple(
        BoundaryTorus(
            SliceEmbedding(ANGLE_TORUS, chart, {"r": rb, "phi1": "phi1", "phi2": "phi2"}),
            alpha,
            declared_slope=-rb**2 / (1.0 - rb**2),
        )
        for rb in (0.4, 0.6)
    )
    page = AnnulusData(
        name="page_foliation",
        embedding=SliceEmbedding(PAGE_ANNULUS, chart, {"r": "v", "phi1": "u", "phi2": 0.7}),
        form=alpha,
        v_range=(0.12, 0.88),
    )
    piece = ModelPiece(
        name="round-openbook",
        role="whole",
        chart=chart,
        params={},
        form=alpha,
        w_field=reeb,
        contact_field=reeb,
        fibration_form=theta,
        boundary_tori=tori,
        annuli=(page,),
        named_fields={"R": reeb},
        note="pages sit at constant phi2 and are crossed radially",
    )
    return OpenBookModel(
        name="s3_openbook",
        summary="round-sphere open book with disk pages swept by phi2",
        params={},
        pieces=(piece,),
    )


def _prolong_fields(eps: float):
    alpha = PROLONG4.one_form(
        {"phi1": "r^2", "phi2": "1 - r^2", "t": -eps}, label="alpha"
    )
    w = PROLONG4.vector_field({"t": 1.0, "phi1": eps, "phi2": eps}, label="W")
    c1 = PROLONG4.basis_vector("r", label="C1")
    c2 = PROLONG4.vector_field({"phi1": "1 - r^2", "phi2": "-r^2"}, label="C2")
    return alpha, w, c1, c2


def _model_product_openbook() -> OpenBookModel:
    alpha3 = OPENBOOK3.one_form({"phi1": "r^2", "phi2": "1 - r^2"}, label="alpha")
    reeb3 = OPENBOOK3.vector_field({"phi1": 1.0, "phi2": 1.0}, label="L")
    fiber = ModelPiece(
        name="fiber-contact",
        role="whole",
        chart=OPENBOOK3,
        params={},
        form=alpha3,
        contact_field=reeb3,
        named_fields={"L": reeb3},
    )
    alpha, w, c1, c2 = _prolong_fields(1.0)
    suspension = ModelPiece(
        name="suspension",
        role="page",
        chart=PROLONG4,
        params={},
        form=alpha,
        w_field=w,
        spanning=(w, c1, c2),
        fibration_form=PROLONG4.one_form({"phi2": 1.0}, label="theta"),
        named_fields={"W": w, "C1": c1, "C2": c2},
        note="kernel direction pairs the circle factor with the fiber flow",
    )
    return OpenBookModel(
        name="product_openbook",
        summary="circle times the round open book; the fiber flow rules the kernel",
        params={},
        pieces=(fiber, suspension),
    )


def _model_prolongation_eps(eps: float = 0.25) -> OpenBookModel:
    eps = _finite(eps, "eps", positive=True)
    alpha, w, c1, c2 = _prolong_fields(eps)
    page = ModelPiece(
        name="page-region",
        role="page",
        chart=PROLONG4,
        params={"eps": eps},
        form=alpha,
        w_field=w,
        spanning=(w, c1, c2),
        fibration_form=PROLONG4.one_form({"phi1": 1.0, "phi2": 1.0}, label="theta"),
        named_fields={"W": w, "C1": c1, "C2": c2},
    )
    bchart = Chart.make(
        "prolong-binding",
        [
            ("t", KIND_ANGULAR),
            ("u", KIND_POLYNOMIAL, Interval(-0.7, 0.7)),
            ("v", KIND_POLYNOMIAL, Interval(-0.7, 0.7)),
            ("phi2", KIND_ANGULAR),
        ],
    )
    balpha = bchart.one_form(
        {"u": "-v", "v": "u", "phi2": "1 - u^2 - v^2", "t": -eps}, label="alpha"
    )
    bw = bchart.vector_field(
        {"t": 1.0, "u": f"{-eps}*v", "v": f"{eps}*u", "phi2": eps}, label="W"
    )
    bspanning = (
        bw,
        bchart.vector_field({"u": 1.0, "t": f"{-1.0 / eps}*v"}, label="Z1"),
        bchart.vector_field({"v": 1.0, "t": f"{1.0 / eps}*u"}, label="Z2"),
    )
    binding = ModelPiece(
        name="binding-region",
        role="binding",
        chart=bchart,
        params={"eps": eps},
        form=balpha,
        w_field=bw,
        spanning=bspanning,
        binding_locus={"u": 0.0, "v": 0.0},
        named_fields={"W": bw},
    )
    return OpenBookModel(
        name="prolongation_Eeps",
        summary="even structure on a circle prolongation with a tilted kernel line",
        params={"eps": eps},
        pieces=(page, binding),
        binding_note="kernel line stays tangent to the core torus at u = v = 0",
    )


def _model_engel_prolongation_dk(k: int = 1, eps: float = 0.25) -> OpenBookModel:
    k = _as_int(k, "k")
    if k < 1:
        raise ValueError("k must be a positive integer")
    eps = _finite(eps, "eps", positive=True)
    alpha, w, c1, c2 = _prolong_fields(eps)
    cos_kt = _wave(PROLONG4, Mode.COS, {"t": k})
    sin_kt = _wave(PROLONG4, Mode.SIN, {"t": k})
    x_field = VectorField(
        PROLONG4,
        (
            PROLONG4.zero(),
            cos_kt,
            sin_kt * c2.components[PROLONG4.index("phi1")],
            sin_kt * c2.components[PROLONG4.index("phi2")],
        ),
        label="X",
    )
    piece = ModelPiece(
        name="spinning-prolongation",
        role="page",
        chart=PROLONG4,
        params={"k": k, "eps": eps},
        form=alpha,
        w_field=w,
        pair=(w, x_field),
        spanning=(w, c1, c2),
        fibration_form=PROLONG4.one_form({"phi1": 1.0, "phi2": 1.0}, label="theta"),
        probe_field=x_field,
        probe_frame=(c1, c2),
        named_fields={"W": w, "C1": c1, "C2": c2, "X": x_field},
    )
    return OpenBookModel(
        name="engel_prolongation_Dk",
        summary="plane field spinning k times per circle turn inside the prolongation",
        params={"k": k, "eps": eps},
        pieces=(piece,),
    )


def _model_stabilization_local() -> OpenBookModel:
    chart = Chart.make(
        "stabilization3",
        [("t", KIND_ANGULAR), ("x", KIND_ANGULAR), ("y", KIND_LINEAR, Interval(-0.45, 0.45))],
    )
    alpha = chart.one_form({"t": 1.0, "x": "-y"}, label="alpha")
    contact_field = chart.basis_vector("t", label="L")
    annulus = AnnulusData(
        name="crossing_annulus",
        embedding=SliceEmbedding(STRIP, chart, {"t": "u", "x": 0.0, "y": "v"}),
        form=alpha,
        v_range=(-0.36, 0.36),
    )
    piece = ModelPiece(
        name="stabilization-slice",
        role="whole",
        chart=chart,
        params={},
        form=alpha,
        contact_field=contact_field,
        annuli=(annulus,),
        named_fields={"L": contact_field},
        note="the transverse annulus is crossed by interval leaves",
    )
    return OpenBookModel(
        name="stabilization_local",
        summary="local slice model whose annulus is foliated by crossing intervals",
        params={},
        pieces=(piece,),
    )


_REGISTRY: dict[str, Callable[..., OpenBookModel]] = {
    "darboux_even": _model_darboux_even,
    "engel_darboux_loose": _model_engel_darboux_loose,
    "binding_Eb": _model_binding_eb,
    "collar_xi": _model_collar_xi,
    "s3_openbook": _model_s3_openbook,
    "product_openbook": _model_product_openbook,
    "prolongation_Eeps": _model_prolongation_eps,
    "engel_prolongation_Dk": _model_engel_prolongation_dk,
    "stabilization_local": _model_stabilization_local,
}


def list_models() -> tuple[tuple[str, str], ...]:
    """Catalog names with the one-line summaries of their default builds, sorted by name."""
    return tuple((name, build().summary) for name, build in sorted(_REGISTRY.items()))


def model_catalog(name: str, **params) -> OpenBookModel:
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown model {name!r}; known models: {known}")
    builder = _REGISTRY[name]
    accepted = tuple(inspect.signature(builder).parameters)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(
            f"model {name!r} has no parameter {', '.join(map(repr, unknown))}; "
            f"it accepts {', '.join(accepted) or 'none'}"
        )
    return builder(**params)


# -- the collar and binding pieces of the assembly ------------------------------


def build_collar_engel(lam, k, a: float = math.pi / 4) -> ModelPiece:
    """Collar piece: a plane field spun k times in phi and lam times in y.

    The distinguished field against the (radial, surface) frame reads
    cos(k phi + lam y), sin(k phi + lam y); the kernel direction is the
    diagonal of the (y, phi) torus.
    """
    lam = _as_int(lam, "lam")
    k = _odd_positive_k(k)
    a = _check_angle(a)
    width = _collar_width(a)
    chart = Chart.make(
        "collar-engel",
        [
            ("x", KIND_ANGULAR),
            ("y", KIND_ANGULAR),
            ("r", KIND_LINEAR, Interval(-width, width)),
            ("phi", KIND_ANGULAR),
        ],
    )
    sin_ra = chart.parse(f"sin(r + {a})")
    cos_ra = chart.parse(f"cos(r + {a})")
    s_field = VectorField(chart, (sin_ra, cos_ra, chart.zero(), chart.zero()), label="S")
    dr = chart.basis_vector("r")

    def _frame_pair(freqs: Mapping[str, int]) -> tuple[VectorField, VectorField]:
        c = _wave(chart, Mode.COS, freqs)
        s = _wave(chart, Mode.SIN, freqs)
        first = VectorField(chart, (s * sin_ra, s * cos_ra, c, chart.zero()))
        second = VectorField(chart, (c * sin_ra, c * cos_ra, -s, chart.zero()))
        return first, second

    c1, c2 = _frame_pair({"y": lam})
    x_field, _ = _frame_pair({"phi": k, "y": lam})
    x_field = VectorField(chart, x_field.components, label="X")
    w = chart.vector_field({"y": 1.0, "phi": 1.0}, label="W")
    alpha = OneForm(chart, (cos_ra, -sin_ra, chart.zero(), sin_ra), label="alphaE")
    tori = tuple(
        BoundaryTorus(
            SliceEmbedding(XY_TORUS, chart, {"x": "x", "y": "y", "r": rb, "phi": 0.0}),
            alpha,
            declared_slope=1.0 / math.tan(rb + a),
        )
        for rb in (0.0, 0.5 * width)
    )
    interface = InterfaceData(
        torus=GLUE_TORUS,
        slots=(
            _wave(GLUE_TORUS, Mode.COS, {"phi": k, "y": lam}),
            _wave(GLUE_TORUS, Mode.SIN, {"phi": k, "y": lam}),
        ),
        w_slots=(GLUE_TORUS.const(1.0), GLUE_TORUS.const(1.0)),
        slope=1.0 / math.tan(a),
        region={"r": 0.0},
    )
    return ModelPiece(
        name="collar",
        role="collar",
        chart=chart,
        params={"lam": lam, "k": k, "a": a, "l": k + lam},
        form=alpha,
        w_field=w,
        pair=(w, x_field),
        spanning=(w, dr, s_field),
        fibration_form=chart.one_form({"phi": 1.0}, label="theta"),
        torus_normal=chart.one_form({"r": 1.0}, label="dr"),
        boundary_tori=tori,
        interface=interface,
        probe_field=x_field,
        probe_frame=(dr, s_field),
        named_fields={"S": s_field, "C1": c1, "C2": c2, "X": x_field, "W": w},
    )


@functools.lru_cache(maxsize=None)
def _interior_disk(k: int):
    disk = construct_xi_prime(k)
    if not disk.passed:
        raise ValueError(f"interior extension for k = {k} failed verification")
    return disk


def build_binding_engel(l, k, r0: float = 1.0) -> ModelPiece:
    """Binding piece: the l-times spun plane field pushed through the shear.

    The pre-shear presentation spins cos(k phi + l y) against the frame; the
    shear phi -> phi + y turns its kernel direction into the torus diagonal
    and its coefficients into cos(k phi + (l - k) y).  The core is certified
    separately and the interior disk structure is attached.
    """
    l = _as_int(l, "l")
    if l < 1:
        raise ValueError("l must be a positive integer")
    k = _odd_positive_k(k)
    r0 = _finite(r0, "r0", positive=True)
    chart = _binding_boundary_chart(r0)
    r2 = chart.parse("r^2")
    s_field = VectorField(chart, (r2, chart.const(1.0), chart.zero(), chart.zero()), label="S")
    dr = chart.basis_vector("r")

    cos_pre = _wave(chart, Mode.COS, {"phi": k, "y": l})
    sin_pre = _wave(chart, Mode.SIN, {"phi": k, "y": l})
    # pre-shear data: kernel direction along y, field spun in the (r, S) frame
    s_pre = VectorField(
        chart, (r2, chart.const(1.0), chart.zero(), chart.const(-1.0)), label="S_pre"
    )
    x_pre = VectorField(
        chart,
        (
            sin_pre * s_pre.components[0],
            sin_pre * s_pre.components[1],
            cos_pre,
            sin_pre * s_pre.components[3],
        ),
        label="X_pre",
    )
    w_pre = chart.basis_vector("y", label="W_pre")

    n = chart.dim
    matrix = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    matrix[chart.index("phi")][chart.index("y")] = 1
    shear = IntegerAffineMap(chart, tuple(map(tuple, matrix)), (0.0,) * n)
    w = shear.pushforward(w_pre)
    x_field = shear.pushforward(x_pre)
    x_field = VectorField(chart, x_field.components, label="X")

    alpha = chart.one_form({"x": 1.0, "y": "-r^2", "phi": "r^2"}, label="alpha")
    cos_b = _wave(chart, Mode.COS, {"phi": k})
    sin_b = _wave(chart, Mode.SIN, {"phi": k})
    c1 = VectorField(chart, (sin_b * r2, sin_b, cos_b, chart.zero()), label="C1")
    c2 = VectorField(chart, (cos_b * r2, cos_b, -sin_b, chart.zero()), label="C2")

    tori = (
        BoundaryTorus(
            SliceEmbedding(XY_TORUS, chart, {"x": "x", "y": "y", "r": r0, "phi": 0.0}),
            alpha,
            declared_slope=1.0 / r0**2,
        ),
    )
    pre_slots = (
        _wave(GLUE_TORUS, Mode.COS, {"phi": k, "y": l}),
        _wave(GLUE_TORUS, Mode.SIN, {"phi": k, "y": l}),
    )
    sheared_slots = tuple(
        s.substitute(GLUE_TORUS.coords, {"phi": ({"phi": 1, "y": -1}, 0.0)}) for s in pre_slots
    )
    interface = InterfaceData(
        torus=GLUE_TORUS,
        slots=sheared_slots,
        w_slots=(GLUE_TORUS.const(1.0), GLUE_TORUS.const(1.0)),
        slope=1.0 / r0**2,
        region={"r": r0},
        shear=shear,
    )
    return ModelPiece(
        name="binding",
        role="binding",
        chart=chart,
        params={"l": l, "k": k, "r0": r0},
        form=alpha,
        w_field=w,
        pair=(w, x_field),
        spanning=(w, dr, s_field),
        fibration_form=chart.one_form({"phi": 1.0}, label="theta"),
        torus_normal=chart.one_form({"r": 1.0}, label="dr"),
        boundary_tori=tori,
        interface=interface,
        interior=_interior_disk(k),
        core=_binding_core_piece(r0),
        probe_field=x_pre,
        probe_frame=(dr, s_pre),
        named_fields={
            "S": s_field,
            "S_pre": s_pre,
            "C1": c1,
            "C2": c2,
            "X": x_field,
            "X_pre": x_pre,
            "W": w,
            "W_pre": w_pre,
        },
    )


def gluing_check(
    collar: ModelPiece,
    binding: ModelPiece,
    tol: float = SYMBOL_TOL,
    slope_tol: float = SLOPE_TOL,
) -> CheckReport:
    """Certify the interface: slot formulas, kernel direction, slope match.

    The slot comparison is symbolic on the interface torus and corroborated
    numerically on a grid; the pass condition requires all three parts.
    """
    if collar.interface is None or binding.interface is None:
        raise ValueError("missing overlap declaration")
    ci, bi = collar.interface, binding.interface

    # each residual is a running max from 0.0, in slot order
    diffs = [cs - bs for cs, bs in zip(ci.slots, bi.slots)]
    slot_ok = all(canonical_equal(cs, bs, tol=tol) for cs, bs in zip(ci.slots, bi.slots))
    slot_resid = max([0.0, *(d.max_coeff() for d in diffs)])
    w_ok = all(canonical_equal(cw, bw, tol=tol) for cw, bw in zip(ci.w_slots, bi.w_slots))
    w_resid = max([0.0, *((cw - bw).max_coeff() for cw, bw in zip(ci.w_slots, bi.w_slots))])

    slope_resid = abs(ci.slope - bi.slope)
    slope_ok = slope_resid <= slope_tol

    pts = ci.torus.sample_grid(24)
    numeric = max([0.0, *np.abs(batch_eval_scalars(diffs, pts)).max(axis=0).tolist()])

    passed = slot_ok and w_ok and slope_ok and (numeric <= 1e-9 if slot_ok else True)
    details = {
        "lam": collar.params.get("lam"),
        "collar_k": collar.params.get("k"),
        "binding_k": binding.params.get("k"),
        "l": binding.params.get("l"),
        "slot_residual": float(slot_resid),
        "w_residual": float(w_resid),
        "slope_collar": float(ci.slope),
        "slope_binding": float(bi.slope),
        "slope_residual": float(slope_resid),
        "numeric_residual": float(numeric),
    }
    if not slot_ok:
        details["difference"] = tuple(map(str, diffs))
    return CheckReport(
        name="gluing",
        passed=passed,
        n_points=len(pts),
        min_gap=float(max(slot_resid, w_resid, slope_resid)),
        failures=(),
        details=details,
    )


def looseness_probe(piece: ModelPiece, path: Path, n_samples: int = 512) -> int:
    """Rotation count of the piece's distinguished field along a path.

    The path must move at every sample, and stay transverse to the kernel
    direction where the piece declares one; open segments round their
    fractional turn count, so short probes report zero.  Fewer than 16
    samples are refused: they alias the field's turns (one or two samples
    of the collar's phi circle count 0 or -1 of its 3 turns).
    """
    if n_samples < MIN_TURN_SAMPLES:
        raise ValueError(
            f"a looseness probe needs at least {MIN_TURN_SAMPLES} samples, got {n_samples}"
        )
    if piece.probe_field is None or piece.probe_frame is None:
        raise ValueError(f"piece {piece.name!r} declares no probe data")
    pts = path.sample(n_samples)
    tangents = np.gradient(np.asarray(pts, float), axis=0)
    t_norm = np.linalg.norm(tangents, axis=-1)
    # a constant path has no tangent to be transverse with, and turns 0 times
    if not (t_norm > 0).all():
        raise ValueError("probe path does not move: its sampled tangent vanishes")
    if piece.w_field is not None:
        wmat = field_matrix([piece.w_field], pts)[:, 0, :]
        w_norm = np.linalg.norm(wmat, axis=-1)
        dot = np.einsum("ij,ij->i", tangents, wmat)
        denom = np.maximum(t_norm * w_norm, 1e-30)
        sin2 = np.clip(1.0 - (dot / denom) ** 2, 0.0, None)
        if float(np.sqrt(sin2).min()) <= 1e-3:
            raise ValueError("probe path is not transverse to the kernel direction")
    result = twisting_number(piece.probe_field, piece.probe_frame, path, n_samples=n_samples)
    return result.value


def _transplanted_binding_pair(
    collar: ModelPiece, binding: ModelPiece
) -> tuple[VectorField, VectorField]:
    # rebuild the binding plane on the collar chart through the slot frame
    chart = collar.chart
    s_field = collar.named_fields["S"]
    c_slot, s_slot = (slot.substitute(chart.coords) for slot in binding.interface.slots)
    comps = [
        s_slot * s_field.components[0],
        s_slot * s_field.components[1],
        c_slot,
        chart.zero(),
    ]
    return (collar.named_fields["W"], VectorField(chart, tuple(comps), label="X_glued"))


def assemble(
    lam,
    k,
    a: float = math.pi / 4,
    r0: float | None = None,
    min_points: int = DEFAULT_MIN_POINTS,
    n_samples: int = 512,
    rank_tol: float | None = None,
    symbol_tol: float = SYMBOL_TOL,
    slope_tol: float = SLOPE_TOL,
) -> PipelineReport:
    """Build both boundary pieces, certify them, and aggregate a report."""
    lam = _as_int(lam, "lam")
    k = _odd_positive_k(k)
    l = k + lam
    if l < 1:
        raise ValueError(f"l = k + lam must be a positive integer, got {l}")
    a = _check_angle(a)
    if n_samples < MIN_TURN_SAMPLES:
        raise ValueError(f"an assembly needs at least {MIN_TURN_SAMPLES} samples, got {n_samples}")
    if r0 is None:
        # slope matching: cot(a) = 1 / r0^2
        r0 = math.sqrt(math.tan(a))
    collar = build_collar_engel(lam, k, a)
    binding = build_binding_engel(l, k, r0=r0)

    checks = list(piece_checks(collar, min_points=min_points, tol=rank_tol))
    checks.extend(piece_checks(binding, min_points=min_points, tol=rank_tol))
    checks.append(gluing_check(collar, binding, tol=symbol_tol, slope_tol=slope_tol))

    chart = collar.chart
    frame = collar.probe_frame
    base = {"x": 0.0, "y": 0.3, "r": 0.0, "phi": 0.0}
    g_x = Path.coordinate_circle(chart, "x", base, label="gamma_x")
    g_y = Path.coordinate_circle(chart, "y", base, label="gamma_y")
    g_phi = Path.coordinate_circle(chart, "phi", base, label="gamma_phi")
    c1 = collar.named_fields["C1"]
    x_field = collar.named_fields["X"]
    tw_x = twisting_number(c1, frame, g_x, n_samples=n_samples)
    tw_y = twisting_number(c1, frame, g_y, n_samples=n_samples)
    tw_phi = twisting_number(x_field, frame, g_phi, n_samples=n_samples)
    rot = rotation_number(
        x_field,
        (collar.named_fields["C1"], collar.named_fields["C2"]),
        g_phi,
        n_samples=n_samples,
    )
    delta = delta_homomorphism(
        collar.pair,
        _transplanted_binding_pair(collar, binding),
        frame,
        (collar.form, collar.fibration_form),
        g_y,
        n_samples=n_samples,
    )
    invariants = {
        "tw_gamma_x": tw_x.value,
        "tw_gamma_y": tw_y.value,
        "tw_gamma_phi": tw_phi.value,
        "rotation_k": rot.value,
        "delta": delta.value,
    }
    expected = {
        "tw_gamma_x": 0,
        "tw_gamma_y": lam,
        "tw_gamma_phi": k,
        "rotation_k": k,
        "delta": 0,
    }
    resid = max(tw_x.residual, tw_y.residual, tw_phi.residual, rot.residual, delta.residual)
    checks.append(
        CheckReport(
            name="twisting_invariants",
            passed=invariants == expected and resid < RESIDUAL_TOL,
            n_points=n_samples,
            min_gap=float(resid),
            failures=(),
            details={"expected": expected, "computed": dict(invariants)},
        )
    )

    disk = binding.interior
    singularities = dict(disk.singularities.to_dict())
    g_phi_b = Path.coordinate_circle(
        binding.chart, "phi", {"x": 0.0, "y": 0.0, "r": r0, "phi": 0.0}, label="gamma_phi"
    )
    boundary_frame = (binding.chart.basis_vector("r"), binding.named_fields["S"])
    chain = boundary_winding_vs_index(
        binding.named_fields["C1"], boundary_frame, g_phi_b, disk.singularities, n_samples=n_samples
    )
    chain_ok = chain["match"] and chain["winding"] == k
    checks.append(
        CheckReport(
            name="boundary_euler_chain",
            passed=chain_ok and chain["winding_residual"] < RESIDUAL_TOL,
            n_points=n_samples,
            min_gap=chain["winding_residual"],
            failures=(),
            details={
                "boundary_twist": chain["winding"],
                "relative_euler": chain["relative_euler"],
                "k": k,
            },
        )
    )

    overall = all(c.passed for c in checks)
    model = OpenBookModel(
        name="assembled",
        summary="collar and binding pieces joined along the interface torus",
        params={"lam": lam, "k": k, "l": l, "a": a, "r0": r0},
        pieces=(collar, binding),
        gluings=(
            GluingSpec(
                first="collar",
                second="binding",
                map=binding.interface.shear,
                region=dict(binding.interface.region),
            ),
        ),
        binding_note="interior disk structure certified by its singularity counts",
    )
    return PipelineReport(
        params={"lam": lam, "k": k, "l": l, "a": a, "r0": r0},
        model=model,
        checks=tuple(checks),
        invariants=invariants,
        singularities=singularities,
        overall_pass=overall,
    )
