"""Unit tests for winding invariants."""

import math

import numpy as np
import pytest

from engelbook.charts import Chart, Interval, batch_eval_scalars, field_matrix
from engelbook.invariants import (
    Path,
    _null_line,
    delta_homomorphism,
    rotation_number,
    twisting_number,
)
from engelbook.models import build_collar_engel
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
        # the field lies in the frame's plane at every sample
        mats = field_matrix([twisted_field(k), *xi_frame()], T_CIRCLE.sample(256))
        x, frame = mats[:, 0, :, None], np.swapaxes(mats[:, 1:], 1, 2)
        off_plane = np.linalg.norm(x - frame @ (np.linalg.pinv(frame) @ x), axis=(1, 2))
        assert (off_plane / np.linalg.norm(x, axis=(1, 2))).max() < 1e-9

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

    def test_field_zero_at_one_sample_raises(self):
        # 1 + cos(t) is 0 at t = pi, sample 128 of the 256 on the loop
        c1, _ = xi_frame()
        field = c1.scaled(PROLONG.parse("1 + cos(t)"))
        pts = T_CIRCLE.sample(256)
        zero = ~field_matrix([field], pts)[:, 0].any(axis=-1)
        assert np.flatnonzero(zero).tolist() == [128]
        with pytest.raises(ValueError, match="zero or not finite"):
            twisting_number(field, xi_frame(), T_CIRCLE)

    def test_field_not_finite_at_one_sample_raises(self):
        # r^-1 d/dr has a pole at r = 0, the first sample of the segment
        field = PROLONG.vector_field({"r": "r^-1"})
        seg = Path.coordinate_segment(PROLONG, "r", {"phi1": 0.1, "phi2": 0.4}, 0.0, 0.6)
        with np.errstate(divide="ignore"):
            values = field_matrix([field], seg.sample(256))[:, 0, 1]
            assert np.flatnonzero(~np.isfinite(values)).tolist() == [0]
            with pytest.raises(ValueError, match="zero or not finite"):
                twisting_number(field, xi_frame(), seg)

    def test_field_the_frame_cannot_see_raises(self):
        # d/dt is normal to the frame plane: both frame coordinates are 0
        with pytest.raises(ValueError, match="cannot see"):
            twisting_number(PROLONG.basis_vector("t"), xi_frame(), T_CIRCLE)

    def test_samples_that_alias_a_term_raise(self):
        # cos(128 t) moves its phase by 128 * tau / 256 = pi between samples
        with pytest.raises(ValueError, match="256 path samples alias .* at least 257 samples"):
            twisting_number(twisted_field(128), xi_frame(), T_CIRCLE)
        result = twisting_number(twisted_field(128), xi_frame(), T_CIRCLE, n_samples=257)
        assert result.value == 128
        assert twisting_number(twisted_field(127), xi_frame(), T_CIRCLE).value == 127

    def test_open_segment_samples_that_alias_a_term_raise(self):
        # 65 samples of [0, pi] are 64 steps of pi / 64, each moving cos(64 t) by pi
        seg = Path.coordinate_segment(PROLONG, "t", {"r": 0.3}, 0.0, math.pi)
        with pytest.raises(ValueError, match="65 path samples alias .* at least 66 samples"):
            twisting_number(twisted_field(64), xi_frame(), seg, n_samples=65)
        assert twisting_number(twisted_field(64), xi_frame(), seg, n_samples=66).value == 32


EPS = 0.25
# with twisted_field(k), W spans a prolongation plane field; PROLONG_ROWS
# are its pairing rows
W = PROLONG.vector_field({"t": 1.0, "phi1": EPS, "phi2": EPS})
PROLONG_ROWS = (
    PROLONG.one_form({"phi1": "r^2", "phi2": "1 - r^2", "t": -EPS}),
    PROLONG.one_form({"phi1": 1.0, "phi2": 1.0}),
)


class TestDelta:
    def test_delta_between_prolongation_twists(self):
        d1 = (W, twisted_field(1))
        d2 = (W, twisted_field(4))
        result = delta_homomorphism(d1, d2, xi_frame(), PROLONG_ROWS, T_CIRCLE)
        assert result.value == 3
        assert result.residual < 0.05

    def test_delta_vanishes_on_equal_structures(self):
        d1 = (W, twisted_field(2))
        result = delta_homomorphism(d1, d1, xi_frame(), PROLONG_ROWS, T_CIRCLE)
        assert result.value == 0
        assert result.residual < 1e-9


class TestNullLine:
    def test_refuses_two_rows_that_vanish_on_the_plane(self):
        plane = (PROLONG.basis_vector("phi1"), PROLONG.basis_vector("phi2"))
        dr = PROLONG.one_form({"r": 1.0})
        with pytest.raises(ValueError, match="both rows vanish"):
            _null_line(plane, (dr, PROLONG.one_form({"t": "r"})))

    def test_refuses_rows_with_no_common_line(self):
        # dr kills d/dphi1 and dphi1 kills d/dr: no line of the plane is killed by both
        plane = (PROLONG.basis_vector("r"), PROLONG.basis_vector("phi1"))
        rows = (PROLONG.one_form({"r": 1.0}), PROLONG.one_form({"phi1": 1.0}))
        with pytest.raises(ValueError, match="no common line"):
            _null_line(plane, rows)

    def test_skips_a_row_that_vanishes_on_the_plane(self):
        # alpha vanishes on the prolongation plane, so theta selects the line
        x = twisted_field(3)
        line = _null_line((W, x), PROLONG_ROWS)
        theta = PROLONG_ROWS[1]
        want = W.scaled(theta.apply(x)) - x.scaled(theta.apply(W))
        for got, ref in zip(line.components, want.components):
            assert canonical_equal(got, ref, tol=1e-15)


def svd_null_line(basis, rows, pts):
    """Reference: the unit nullspace vector of the sampled pairing matrix,
    pushed into the ambient chart."""
    x1, x2 = basis
    entries = [batch_eval_scalars([row.apply(x1), row.apply(x2)], pts) for row in rows]
    coeffs = np.linalg.svd(np.stack(entries, axis=-2))[2][:, -1, :]
    bv = field_matrix([x1, x2], pts)
    return coeffs[:, :1] * bv[:, 0] + coeffs[:, 1:] * bv[:, 1]


def collar_case(lam, k):
    collar = build_collar_engel(lam, k)
    path = Path.coordinate_circle(collar.chart, "y", {"x": 0.0, "y": 0.3, "r": 0.0, "phi": 0.0})
    return collar.pair, (collar.form, collar.fibration_form), path


def prolongation_case(k):
    return (W, twisted_field(k)), PROLONG_ROWS, T_CIRCLE


# the (lambda, k) pairs of the construct sweep
SWEEP_PAIRS = [(lam, k) for k in (3, 5, 7, 9) for lam in range(-2, 5)]


@pytest.mark.parametrize(
    "case",
    [pytest.param(lambda k=k: prolongation_case(k), id=f"prolongation-k{k}") for k in (1, 2, 4)]
    + [pytest.param(lambda p=p: collar_case(*p), id=f"collar-{p[0]}-{p[1]}") for p in SWEEP_PAIRS],
)
def test_exact_null_line_is_parallel_to_the_svd_null_vector(case):
    basis, rows, path = case()
    pts = path.sample(512)
    exact = field_matrix([_null_line(basis, rows)], pts)[:, 0]
    ref = svd_null_line(basis, rows, pts)
    # the part of the reference vector off the exact line, relative to its length
    along = np.einsum("ni,ni->n", exact, ref) / np.einsum("ni,ni->n", exact, exact)
    off = np.linalg.norm(ref - along[:, None] * exact, axis=-1) / np.linalg.norm(ref, axis=-1)
    assert off.max() <= 1e-9
