"""Unit tests for winding invariants and framings."""

import math

import numpy as np
import pytest

from engelbook.charts import Chart, Interval, batch_eval_scalars
from engelbook.invariants import (
    Path,
    _null_line_coeffs,
    delta_homomorphism,
    frame_gram,
    quaternion_frame,
    rotation_number,
    twisting_number,
)
from engelbook.trigpoly import KIND_ANGULAR, KIND_POLYNOMIAL, canonical_equal

PROLONG = Chart.make(
    "prolong",
    [
        ("t", KIND_ANGULAR),
        ("r", KIND_POLYNOMIAL, Interval(0.0, 1.0)),
        ("phi1", KIND_ANGULAR),
        ("phi2", KIND_ANGULAR),
    ],
)

BOX = Interval(-1.0, 1.0)
R4 = Chart.make(
    "r4",
    [
        ("a", KIND_POLYNOMIAL, BOX),
        ("b", KIND_POLYNOMIAL, BOX),
        ("c", KIND_POLYNOMIAL, BOX),
        ("d", KIND_POLYNOMIAL, BOX),
    ],
)


def xi_frame():
    c1 = PROLONG.basis_vector("r")
    c2 = PROLONG.vector_field({"phi1": "1 - r^2", "phi2": "-r^2"})
    return c1, c2


def twisted_field(k):
    c1, c2 = xi_frame()
    return c1.scaled(PROLONG.parse(f"cos({k}*t)")) + c2.scaled(PROLONG.parse(f"sin({k}*t)"))


T_CIRCLE = Path.coordinate_circle(PROLONG, "t", {"r": 0.3, "phi1": 0.1, "phi2": 0.4})


class TestTwisting:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_twisting_counts_frame_rotations(self, k):
        result = twisting_number(twisted_field(k), xi_frame(), T_CIRCLE)
        assert result.value == k
        assert result.residual < 0.05
        assert result.samples == 256
        assert result.projection_residual < 1e-9

    def test_rotating_the_frame_shifts_the_count(self):
        # a frame rotated by m full turns along the loop lowers the value by m
        k, m = 3, 1
        c1, c2 = xi_frame()
        cos_m = PROLONG.parse(f"cos({m}*t)")
        sin_m = PROLONG.parse(f"sin({m}*t)")
        rot1 = c1.scaled(cos_m) + c2.scaled(sin_m)
        rot2 = c1.scaled(-sin_m) + c2.scaled(cos_m)
        result = twisting_number(twisted_field(k), (rot1, rot2), T_CIRCLE)
        assert result.value == k - m

    def test_short_segment_reports_zero(self):
        seg = Path.coordinate_segment(
            PROLONG, "t", {"r": 0.3, "phi1": 0.1, "phi2": 0.4}, 0.0, 0.3
        )
        result = twisting_number(twisted_field(3), xi_frame(), seg)
        assert result.value == 0
        assert 0.0 < result.turns < 0.25

    def test_multi_turn_loop_scales_value(self):
        double = Path.coordinate_circle(
            PROLONG, "t", {"r": 0.3, "phi1": 0.1, "phi2": 0.4}, turns=2
        )
        result = twisting_number(twisted_field(3), xi_frame(), double, n_samples=512)
        assert result.value == 6

    def test_rotation_number_orientation(self):
        c1, c2 = xi_frame()
        field = c1.scaled(PROLONG.parse("cos(2*t)")) - c2.scaled(PROLONG.parse("sin(2*t)"))
        result = rotation_number(field, (c1, c2), T_CIRCLE)
        assert result.value == -2


class TestDelta:
    def test_delta_between_prolongation_twists(self):
        eps = 0.25
        w = PROLONG.vector_field({"t": 1.0, "phi1": eps, "phi2": eps})
        alpha = PROLONG.one_form({"phi1": "r^2", "phi2": "1 - r^2", "t": -eps})
        theta = PROLONG.one_form({"phi1": 1.0, "phi2": 1.0})
        d1 = (w, twisted_field(1))
        d2 = (w, twisted_field(4))
        result = delta_homomorphism(d1, d2, xi_frame(), (alpha, theta), T_CIRCLE)
        assert result.value == 3
        assert result.residual < 0.05

    def test_delta_vanishes_on_equal_structures(self):
        eps = 0.25
        w = PROLONG.vector_field({"t": 1.0, "phi1": eps, "phi2": eps})
        alpha = PROLONG.one_form({"phi1": "r^2", "phi2": "1 - r^2", "t": -eps})
        theta = PROLONG.one_form({"phi1": 1.0, "phi2": 1.0})
        d1 = (w, twisted_field(2))
        result = delta_homomorphism(d1, d1, xi_frame(), (alpha, theta), T_CIRCLE)
        assert result.value == 0
        assert result.residual < 1e-9


def null_line_coeffs_loop(basis, rows, pts):
    """Reference: the nullspace vectors, sign-aligned one sample at a time."""
    x1, x2 = basis
    entries = [batch_eval_scalars([row.apply(x1), row.apply(x2)], pts) for row in rows]
    _, _, vh = np.linalg.svd(np.stack(entries, axis=-2))
    coeffs = vh[:, -1, :]
    for i in range(1, len(coeffs)):
        if np.dot(coeffs[i], coeffs[i - 1]) < 0.0:
            coeffs[i] = -coeffs[i]
    return coeffs


SU = Chart.make("su", [("s", KIND_POLYNOMIAL, BOX), ("u", KIND_POLYNOMIAL, BOX)])
SU_BASIS = (SU.basis_vector("s"), SU.basis_vector("u"))


def _prolongation_case(k):
    eps = 0.25
    w = PROLONG.vector_field({"t": 1.0, "phi1": eps, "phi2": eps})
    alpha = PROLONG.one_form({"phi1": "r^2", "phi2": "1 - r^2", "t": -eps})
    theta = PROLONG.one_form({"phi1": 1.0, "phi2": 1.0})
    return (w, twisted_field(k)), (alpha, theta), T_CIRCLE.sample(512)


def _orthogonal_jumps_case():
    # rows (s, 1 - s): the null line is the u axis at s = 0 and the s axis at
    # s = 1, so neighbouring samples at s = 0 and s = 1 have an exact-zero dot;
    # -0.5, 1.0, 0.0 meets one after a flip, where the running sign is -1
    row = SU.one_form({"s": "s", "u": "1 - s"})
    s = [0.3, 0.0, 1.0, 0.5, 0.2, 0.7, 1.0, 1.0, 0.0, -0.5, 1.0, 0.0, 0.0, 1.0, -0.9]
    pts = np.array([[v, 0.0] for v in s])
    return SU_BASIS, (row, row), pts


def _random_lines_case():
    # null lines at random angles: dots of both signs in any order
    row = SU.one_form({"s": "u", "u": "s"})
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(300, 2))
    return SU_BASIS, (row, row), pts


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(lambda: _prolongation_case(1), id="prolongation-k1"),
        pytest.param(lambda: _prolongation_case(4), id="prolongation-k4"),
        pytest.param(_orthogonal_jumps_case, id="exact-zero-dots"),
        pytest.param(_random_lines_case, id="random-lines"),
    ],
)
def test_null_line_sign_alignment_matches_loop(case):
    basis, rows, pts = case()
    got = _null_line_coeffs(basis, rows, pts)
    want = null_line_coeffs_loop(basis, rows, pts)
    assert got.tobytes() == want.tobytes()


def test_exact_zero_dot_case_has_zero_and_negative_dots():
    basis, rows, pts = _orthogonal_jumps_case()
    x1, x2 = basis
    entries = [batch_eval_scalars([row.apply(x1), row.apply(x2)], pts) for row in rows]
    raw = np.linalg.svd(np.stack(entries, axis=-2))[2][:, -1, :]
    dots = np.array([np.dot(raw[i], raw[i - 1]) for i in range(1, len(raw))])
    assert (dots == 0.0).sum() >= 3 and (dots < 0.0).sum() >= 1


class TestQuaternionFrame:
    def test_components_are_the_quaternion_images(self):
        X = R4.vector_field({"a": "a", "b": "b", "c": "c", "d": "d"})
        iX, jX, kX = quaternion_frame(X)
        a, b, c, d = (R4.coordinate_expr(n) for n in "abcd")
        assert canonical_equal(iX.components[0], -b, tol=1e-15)
        assert canonical_equal(iX.components[1], a, tol=1e-15)
        assert canonical_equal(jX.components[0], -c, tol=1e-15)
        assert canonical_equal(jX.components[3], -b, tol=1e-15)
        assert canonical_equal(kX.components[0], -d, tol=1e-15)
        assert canonical_equal(kX.components[2], b, tol=1e-15)

    def test_gram_matrix_is_norm_squared_identity(self):
        rng = np.random.default_rng(20260817)
        X = R4.vector_field({"a": "1 + a", "b": "b*c", "c": "2", "d": "d^2"})
        iX, jX, kX = quaternion_frame(X)
        pts = R4.sample_random(64, rng)
        gram = frame_gram([X, iX, jX, kX], pts)
        norms = batch_eval_scalars(
            [sum((comp * comp for comp in X.components), R4.zero())], pts
        )[:, 0]
        expected = norms[:, None, None] * np.eye(4)
        assert np.max(np.abs(gram - expected)) <= 1e-12
