"""Pullbacks, slopes, leaf tracing, and the disk constructor."""

import dataclasses
import functools
import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelbook import charts, foliation, interval, trigpoly
from engelbook.charts import Chart, Interval
from engelbook.foliation import (
    ClassifierBounds,
    ClassifierField,
    SingularityReport,
    SliceEmbedding,
    _affine_bounds,
    _annulus_grid,
    _assemble_pieces,
    _build_disk_form,
    _classifier_from_pieces,
    _contact_coefficient,
    _contact_sample,
    _disk_bounds,
    _disk_grid,
    _disk_params,
    _gaussian_bundle,
    _newton_points,
    _plane_norms,
    _radius,
    _RadialRamps,
    _smoothstep_jet,
    annulus_foliation_check,
    boundary_winding_vs_index,
    classifier_boundary_winding,
    construct_xi_prime,
    find_and_classify,
    torus_slope,
    trace_leaf,
)
from engelbook.interval import Enclosure, krawczyk_image, strictly_inside
from engelbook.invariants import Path
from engelbook.models import PAGE_ANNULUS, model_catalog
from engelbook.reports import portrait_rows
from engelbook.trigpoly import (
    KIND_ANGULAR,
    KIND_LINEAR,
    KIND_POLYNOMIAL,
    canonical_equal,
)
from engelbook.verify import MAX_FAILURES, CheckReport
from test_properties import ref_compile

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


# -- leaf tracing and annulus crossing ---------------------------------------------


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


def dense_trace_leaf(direction, start, step, n_max, inside, wrap):
    """Reference tracer: the one-leaf RK4 loop, one direction call per stage."""
    z = np.asarray(start, float).copy()
    z0 = z.copy()

    def unit(p):
        v = np.asarray(direction(p[None, :]), float)[0]
        n = np.linalg.norm(v)
        if n < 1e-14:
            raise ValueError("direction field vanishes on the traced leaf")
        with np.errstate(invalid="ignore"):
            return v / n

    def separation(a, b):
        d = a - b
        for i, w in enumerate(wrap):
            if w:
                d[i] = (d[i] + math.pi) % math.tau - math.pi
        return float(np.linalg.norm(d))

    for i in range(1, n_max + 1):
        k1 = unit(z)
        k2 = unit(z + 0.5 * step * k1)
        k3 = unit(z + 0.5 * step * k2)
        k4 = unit(z + step * k3)
        z = z + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not inside(z):
            return z, True, i
        if i > 100 and separation(z, z0) < 0.5 * step:
            return z, False, i
    return z, False, n_max


def signed(direction, sign):
    return lambda pts: sign * direction(pts)


def budget_leaf(direction, start, step, n, inside, wrap):
    # trace_leaf with a budget of n steps: an arc of n - 1/2 steps is a
    # budget of ceil(n - 1/2) = n steps
    return trace_leaf(direction, start, step, max(n - 0.5, 0.0) * step, inside, wrap)


def assert_same_leaf(leaf, ref):
    assert np.array_equal(leaf[0].view(np.int64), np.asarray(ref[0]).view(np.int64))
    assert leaf[1:] == tuple(ref[1:])
    assert type(leaf[1]) is bool and type(leaf[2]) is int


def check_rows(direction, starts, signs, step, budgets, inside, wrap):
    """trace_leaf from each start, following the direction times its sign
    for its budget, is the reference loop bit for bit; returns the leaves."""
    leaves = []
    for z, s, n in zip(starts, signs, budgets):
        leaf = budget_leaf(signed(direction, s), z, step, int(n), inside, wrap)
        assert_same_leaf(leaf, dense_trace_leaf(signed(direction, s), z, step, int(n), inside, wrap))
        leaves.append(leaf)
    return leaves


def kernel_direction(pulled):
    """Reference kernel direction: one closure per component, then a stack."""
    c1, c2 = (ref_compile(c) for c in pulled.components)
    return lambda pts: np.stack([-c2(pts), c1(pts)], axis=-1)


def dense_annulus_check(pulled, v_range):
    """Reference annulus check on the reference tracer: 8 leaves, traced
    forward and backward from the middle circle and retraced, must cross.

    Returns the traces of the forward then backward leaves, the traces of
    the retraces, and the report.
    """
    lo, hi = v_range
    step = 1e-3
    max_arc = 50.0 * (hi - lo)
    n_max = int(math.ceil(max_arc / step))
    direction = kernel_direction(pulled)
    backward = signed(direction, -1.0)
    wrap = tuple(c.is_angular for c in pulled.chart.coords)
    fwd, bwd, retraces, failures = [], [], [], []
    headroom = math.inf
    for u0 in np.linspace(0.0, math.tau, 8, endpoint=False):
        seed = np.array([u0, 0.5 * (lo + hi)])
        f = dense_trace_leaf(direction, seed, step, n_max, lambda z: lo < z[1] < hi, wrap)
        b = dense_trace_leaf(backward, seed, step, n_max, lambda z: lo < z[1] < hi, wrap)
        fwd.append(f)
        bwd.append(b)
        crossed = f[1] and b[1] and ((f[0][1] >= hi) != (b[0][1] >= hi))
        retrace_ok = True
        if f[1]:
            r = dense_trace_leaf(backward, f[0], step, f[2], lambda z: True, wrap)
            retraces.append(r)
            retrace_ok = bool(np.linalg.norm(r[0] - seed) <= 1e-4)
        if not (crossed and retrace_ok):
            failures.append(
                {"point": {"u": float(u0), "v": float(seed[1])},
                 "value": float(f[0][1] if f[1] else math.nan)}
            )
        else:
            headroom = min(headroom, 1.0 - (f[2] + b[2]) * step / max_arc)
    report = CheckReport(
        name="annulus_foliation",
        passed=not failures,
        n_points=8,
        min_gap=0.0 if failures else float(headroom),
        failures=tuple(failures[:MAX_FAILURES]),
        details={"step": step, "max_arc": max_arc},
    )
    return fwd + bwd, retraces, report


def catalog_annulus(name):
    (annulus,) = [a for piece in model_catalog(name).pieces for a in piece.annuli]
    return annulus.pullback(), annulus.v_range


LEAF_CASES = {
    "transverse": lambda: (
        SliceEmbedding(
            ANNULUS, PROLONG, {"t": "u", "r": "v", "phi1": 0.0, "phi2": 0.0}
        ).pullback_oneform(fibered_form(PROLONG)),
        (0.05, 0.95),
    ),
    "slanted": lambda: (ANNULUS.one_form({"u": -0.3, "v": 1.0}), (0.05, 0.95)),
    "closed": lambda: (ANNULUS.one_form({"v": 1.0}), (0.05, 0.95)),
    # both components vary, so every direction norm sums two nonzero squares
    "wavy": lambda: (
        ANNULUS.one_form({"u": "1 + 0.2*cos(u)", "v": "0.3*v*sin(u)"}),
        (0.05, 0.95),
    ),
    "s3_openbook": lambda: catalog_annulus("s3_openbook"),
    "stabilization_local": lambda: catalog_annulus("stabilization_local"),
}


@pytest.mark.parametrize("case", LEAF_CASES)
def test_batched_tracer_is_bit_identical_to_one_leaf_loop(case):
    # trace_leaf on the 16 leaves of the check's seeds, forward and backward
    # over 120 steps (past the closure horizon), is the reference loop bit
    # for bit; the check passes on every case but the closed one
    pulled, (lo, hi) = LEAF_CASES[case]()
    seeds = np.stack([np.linspace(0.0, math.tau, 8, endpoint=False), np.full(8, 0.5 * (lo + hi))], -1)
    wrap = tuple(c.is_angular for c in pulled.chart.coords)
    check_rows(
        kernel_direction(pulled),
        np.concatenate([seeds, seeds]),
        np.repeat([1.0, -1.0], 8),
        1e-3,
        np.full(16, 120),
        lambda z: lo < z[1] < hi,
        wrap,
    )
    report = annulus_foliation_check(pulled, (lo, hi))
    assert report.passed == (case != "closed")


def mixed_direction(pts):
    # leaves on v = 0.5 circle the annulus and close up; forward leaves off
    # that circle drift away from it and exit, backward ones are drawn onto it
    u, v = pts[..., 0], pts[..., 1]
    return np.stack([1.0 + 0.25 * np.cos(u), 3.0 * (v - 0.5) * (1.0 + 0.5 * np.sin(u))], -1)


def test_mixed_batch_exits_closes_and_runs_out_like_one_leaf_loop():
    starts = np.array(
        [[0.0, 0.6], [1.0, 0.5], [2.0, 0.55], [3.0, 0.45], [4.0, 0.5], [5.0, 0.7], [0.5, 0.52]]
    )
    signs = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0])
    budgets = np.array([2000, 2000, 50, 2000, 2000, 0, 2000])
    leaves = check_rows(mixed_direction, starts, signs, 1e-2, budgets, lambda z: 0.1 < z[1] < 0.9, (True, False))
    # every way of finishing occurs: rows 0 and 6 exit, rows 1 and 4 close
    # up after one turn, rows 2, 3 and 5 spend their budgets
    assert [leaf[1] for leaf in leaves] == [True, False, False, False, False, False, True]
    assert [leaf[2] for leaf in leaves] == [61, 628, 50, 2000, 628, 0, 96]


def test_direction_returning_one_buffer_traces_like_one_leaf_loop():
    # the tracer must not write into what direction returns: here every
    # call returns the same array object
    def buffered(sign):
        buf = np.empty((1, 2))

        def direction(pts):
            buf[...] = sign * mixed_direction(pts)
            return buf

        return direction

    starts = np.array([[0.0, 0.6], [1.0, 0.5], [3.0, 0.45], [0.5, 0.52]])
    signs = np.array([1.0, 1.0, -1.0, 1.0])
    step, wrap = 1e-2, (True, False)
    for z, s in zip(starts, signs):
        ref = dense_trace_leaf(signed(mixed_direction, s), z, step, 700, lambda z: 0.1 < z[1] < 0.9, wrap)
        assert_same_leaf(budget_leaf(buffered(s), z, step, 700, lambda z: 0.1 < z[1] < 0.9, wrap), ref)


def test_leaf_ending_at_a_non_finite_point_does_not_cross():
    # v = 0 is the pole of v^-2 du: a leaf from there steps to a non-finite
    # point, which is outside the band, and no sign is proven across the
    # pole, so the check fails
    chart = Chart.make("pole-annulus", [("u", KIND_ANGULAR), ("v", KIND_POLYNOMIAL, Interval(-0.5, 0.5))])
    pole = chart.one_form({"u": "v^-2"})
    with np.errstate(divide="ignore", invalid="ignore"):
        end, exited, steps = trace_leaf(
            kernel_direction(pole), np.array([1.0, 0.0]), 1e-3, 1.0, lambda z: -0.4 < z[1] < 0.4, (True, False)
        )
    assert exited and steps == 1 and not np.isfinite(end).all()
    report = annulus_foliation_check(pole, (-0.4, 0.4))
    assert not report.passed
    assert report.min_gap == 0.0
    assert report.details["not_proven"] and len(report.failures) == 1

    # the same form on a band off the pole crosses
    clean = annulus_foliation_check(pole, (0.1, 0.4))
    assert clean.passed
    assert clean.min_gap == pytest.approx(0.98, abs=1e-3)


def test_field_vanishing_on_one_leaf_raises():
    # V = (0, v - 0.3) vanishes on the circle v = 0.3 only
    def direction(pts):
        return np.stack([np.zeros(pts.shape[:-1]), pts[..., 1] - 0.3], -1)

    starts = np.array([[0.0, 0.6], [1.0, 0.3], [2.0, 0.8]])
    with pytest.raises(ValueError, match="vanishes"):
        budget_leaf(direction, starts[1], 1e-3, 10, lambda z: True, (True, False))
    with pytest.raises(ValueError, match="vanishes"):
        dense_trace_leaf(direction, starts[1], 1e-3, 10, lambda z: True, (True, False))
    check_rows(direction, starts[[0, 2]], np.ones(2), 1e-3, np.full(2, 10), lambda z: True, (True, False))

    # 1 + cos(u) du vanishes on the segment u = pi, where the check's grid
    # meets it: no sign is proven, and the check fails there
    report = annulus_foliation_check(ANNULUS.one_form({"u": "1 + cos(u)", "v": 0.0}), (0.05, 0.95))
    assert not report.passed and report.details["not_proven"]
    (failure,) = report.failures
    assert failure["point"]["u"] == math.pi and failure["value"] == 0.0


@pytest.mark.parametrize("high, far", [(np.nan, np.nan), (np.inf, -np.inf)], ids=["nan", "inf"])
def test_leaves_turning_non_finite_trace_like_one_leaf_loop(high, far):
    # mixed_direction, but `high` in both components above v = 0.72 and
    # `far` in the v component beyond u = 4.4, so some leaves turn
    # non-finite partway along, both before step 101 and after
    def direction(pts):
        out = mixed_direction(pts)
        out[pts[..., 1] > 0.72] = high
        out[..., 1][pts[..., 0] > 4.4] = far
        return out

    starts = np.array(
        [[0.0, 0.6], [1.0, 0.5], [3.0, 0.45], [4.0, 0.5], [0.5, 0.52], [5.0, 0.7], [4.35, 0.3]]
    )
    signs = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
    budgets = np.array([400, 400, 400, 400, 400, 0, 400])
    for banded, inside in [(True, lambda z: 0.1 < z[1] < 0.9), (False, lambda z: True)]:
        leaves = check_rows(direction, starts, signs, 1e-2, budgets, inside, (True, False))
        finite = np.array([np.isfinite(leaf[0]).all() for leaf in leaves])
        # leaves 0, 1, 4 and 6 turn non-finite, one of them after step 101;
        # a non-finite point is outside the band, and without a band the
        # leaf runs on to its budget
        assert finite.tolist() == [False, False, True, True, False, True, False]
        broken = [leaf[1:] for leaf, ok in zip(leaves, finite) if not ok]
        if banded:
            assert broken == [(True, 33), (True, 341), (True, 73), (True, 6)]
        else:
            assert broken == [(False, 400)] * 4


LEAF_FIELDS = {
    # the kernel of (1 + q cos u) du + (a + b v sin u) dv: for |q| < 1 it
    # never vanishes and crosses the band, for |q| > 1 c1 takes both signs
    # on every circle
    "wavy": lambda q, a, b: ANNULUS.one_form(
        {"u": 1.0 + q * ANNULUS.parse("cos(u)"), "v": a + b * ANNULUS.parse("v*sin(u)")}
    ),
    "slanted": lambda q, a, b: ANNULUS.one_form({"u": q, "v": 1.0}),
    # dv: every leaf circles the annulus and closes after one turn
    "circle": lambda q, a, b: ANNULUS.one_form({"v": 1.0}),
}


@settings(max_examples=30, deadline=None)
@given(
    field=st.sampled_from(sorted(LEAF_FIELDS)),
    coeffs=st.tuples(*[st.floats(-0.9, 0.9)] * 3),
    band=st.tuples(st.floats(0.05, 0.45), st.floats(0.1, 0.5)),
    turn=st.tuples(st.integers(98, 103), st.floats(0.0, 1.0, exclude_max=True)),
    rows=st.lists(
        st.tuples(
            st.floats(0.0, math.tau),
            st.sampled_from(["lo", "mid", "hi"]),
            st.floats(-1.0, 1.0),
            st.sampled_from([1.0, -1.0]),
            st.sampled_from([0, 1, 100, 101, 102]) | st.integers(0, 250),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_horizon_skips_no_stop(field, coeffs, band, turn, rows):
    """trace_leaf is the one-leaf loop, bit for bit, on starts within one
    step of an edge, at budgets around step 100, and on leaves that close
    just before or after the closure horizon at step 101."""
    pulled = LEAF_FIELDS[field](*coeffs)
    lo, hi = band[0], band[0] + band[1]
    # a step of 2 pi / (n + f) closes a circling leaf after about n + f steps
    step = math.tau / (turn[0] + turn[1]) if field == "circle" else 0.01
    edge = {"lo": lo, "mid": 0.5 * (lo + hi), "hi": hi}
    starts = np.array([[u, edge[e] + t * step] for u, e, t, _, _ in rows])
    signs = np.array([s for *_, s, _ in rows])
    budgets = np.array([n for *_, n in rows])
    direction = kernel_direction(pulled)
    for inside in (lambda z: lo < z[1] < hi, lambda z: True):
        check_rows(direction, starts, signs, step, budgets, inside, (True, False))


@settings(max_examples=40, deadline=None)
@given(
    field=st.sampled_from(sorted(LEAF_FIELDS)),
    q=st.floats(-1.5, 1.5),
    coeffs=st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)),
    band=st.tuples(st.floats(0.05, 0.45), st.floats(0.1, 0.5)),
    seeds=st.lists(st.tuples(st.floats(0.0, math.tau), st.floats(0.0, 1.0)), min_size=1, max_size=2),
)
def test_a_passing_check_bounds_the_arc_of_every_traced_crossing(field, q, coeffs, band, seeds):
    """Where the check passes, the leaf through any point of the band exits
    through both edges, one each way, within the check's arc bound (the
    band's width for vertical leaves); where c1 takes both signs on the
    band, the check fails."""
    pulled = LEAF_FIELDS[field](q, *coeffs)
    lo, hi = band[0], band[0] + band[1]
    report = annulus_foliation_check(pulled, (lo, hi))
    if field == "wavy" and abs(q) > 1.0:
        assert not report.passed
    if not report.passed:
        return
    arc = report.details.get("arc_bound", hi - lo)
    # each leaf's last step may end past the edge
    step = arc / 50.0
    direction = kernel_direction(pulled)
    for u, t in seeds:
        z = np.array([u, lo + t * (hi - lo)])
        leaves = [
            trace_leaf(signed(direction, s), z, step, arc + 2.0 * step, lambda z: lo < z[1] < hi, (True, False))
            for s in (1.0, -1.0)
        ]
        (f_end, f_out, f_steps), (b_end, b_out, b_steps) = leaves
        assert f_out and b_out and (f_end[1] >= hi) != (b_end[1] >= hi)
        assert (f_steps + b_steps) * step <= arc + 2.0 * step * (1.0 + 1e-9)


def straight_up(pts):
    return np.stack([np.zeros(pts.shape[:-1]), np.ones(pts.shape[:-1])], -1)


def test_replay_hands_a_leaf_whose_field_turns_to_the_loop():
    # the kernel (0, v - 0.3) of (v - 0.3) du flips sign at v = 0.3: the
    # backward leaf from v = 0.5003 runs down onto that circle and stalls
    # next to it; the forward leaf is straight to its exit (a start 200
    # steps above 0.3 would bring a stage point within rounding of the
    # circle, where the field vanishes)
    direction = kernel_direction(ANNULUS.one_form({"u": "v - 0.3"}))
    starts = np.array([[0.0, 0.5003], [1.0, 0.5]])
    step = 1e-3
    leaves = check_rows(direction, starts, [-1.0, 1.0], step, [600, 600], lambda z: 0.05 < z[1] < 0.95, (True, False))
    assert [leaf[1:] for leaf in leaves] == [(False, 600), (True, 450)]
    assert abs(leaves[0][0][1] - 0.3) < step


def test_straight_leaf_vanishing_partway_raises_like_one_leaf_loop():
    # the unit vector is (0, 1) everywhere, but above v = 0.6 the field is
    # 1e-20 long; a leaf that exits below 0.6 never meets that part
    def direction(pts):
        out = straight_up(pts)
        out[pts[..., 1] >= 0.6] *= 1e-20
        return out

    step, wrap = 1e-3, (True, False)
    starts = np.array([[0.0, 0.3], [1.0, 0.5]])
    for z in starts:
        with pytest.raises(ValueError, match="vanishes"):
            budget_leaf(direction, z, step, 800, lambda z: 0.1 < z[1] < 0.9, wrap)
        with pytest.raises(ValueError, match="vanishes"):
            dense_trace_leaf(direction, z, step, 800, lambda z: 0.1 < z[1] < 0.9, wrap)
    leaves = check_rows(direction, starts, np.ones(2), step, np.full(2, 800), lambda z: 0.1 < z[1] < 0.59, wrap)
    assert all(leaf[1] for leaf in leaves)


def test_replay_closes_a_slanted_constant_leaf_like_one_leaf_loop():
    # a constant field, slanted a little off the u circles: after one turn
    # of u the leaf is within half a step of its start, 700 steps on
    def slanted(pts):
        return np.broadcast_to([1.0, 5e-4], pts.shape).copy()

    step, wrap = math.tau / 700.3, (True, False)
    starts = np.array([[0.0, 0.5], [2.0, 0.3]])
    for inside in (lambda z: 0.1 < z[1] < 0.9, lambda z: True):
        leaves = check_rows(slanted, starts, [1.0, -1.0], step, [2000, 2000], inside, wrap)
        assert [leaf[1:] for leaf in leaves] == [(False, 700), (False, 700)]


@pytest.mark.parametrize("axis", [0, 1])
def test_replay_closes_an_axis_aligned_leaf_like_one_leaf_loop(axis):
    # a constant field along one angular axis of a torus: the other axis
    # keeps its start, and the closure distance is the wrapped offset along
    # the moving one; a step of 2 pi / 700.3 closes the leaf on step 700
    def aligned(pts):
        out = np.zeros(pts.shape)
        out[..., axis] = 1.0
        return out

    starts = np.array([[0.0, 0.5], [2.0, -0.3], [-1.0, 3.0]])
    leaves = check_rows(
        aligned, starts, [1.0, -1.0, 1.0], math.tau / 700.3, [2000, 2000, 650], lambda z: True, (True, True)
    )
    assert [leaf[1:] for leaf in leaves] == [(False, 700), (False, 700), (False, 650)]


def test_straight_and_curved_rows_in_one_call_trace_like_one_leaf_loop():
    # mixed_direction below v = 0.6, a slanted constant field above it: leaf
    # 0 is straight to its exit, leaf 1 runs straight down into the curved
    # part, leaf 2 is curved from its start, and leaf 3 circles on v = 0.5,
    # where the v component is 0, so its unit vector is (1, 0) throughout
    def direction(pts):
        out = mixed_direction(pts)
        out[pts[..., 1] > 0.6] = (0.3, 2.0)
        return out

    starts = np.array([[1.0, 0.7], [2.0, 0.65], [0.5, 0.52], [1.0, 0.5]])
    leaves = check_rows(
        direction, starts, [1.0, -1.0, 1.0, 1.0], 1e-2, np.full(4, 2000), lambda z: 0.1 < z[1] < 0.9, (True, False)
    )
    # leaves 0 and 2 exit, leaf 1 is drawn onto v = 0.5 and spends its
    # budget, and leaf 3 closes after one turn
    assert [leaf[1:] for leaf in leaves] == [(True, 21), (False, 2000), (True, 79), (False, 628)]


POLE_ANNULUS = Chart.make("pole-annulus", [("u", KIND_ANGULAR), ("v", KIND_POLYNOMIAL, Interval(-0.5, 0.5))])
# v near 1e14, where ulp(v) = 0.0156 is more than twice the step, so v + dv == v
FAR_ANNULUS = Chart.make("far-annulus", [("u", KIND_ANGULAR), ("v", KIND_POLYNOMIAL, Interval(1e14, 1e14 + 1.0))])

VERTICAL_CASES = {
    "s3_openbook": lambda: catalog_annulus("s3_openbook"),
    "stabilization_local": lambda: catalog_annulus("stabilization_local"),
    # a Laurent power on a band clear of its pole
    "inverse_square": lambda: (POLE_ANNULUS.one_form({"u": "v^-2"}), (0.1, 0.4)),
    # c1 < 0 everywhere, so every forward leaf runs down
    "negative": lambda: (ANNULUS.one_form({"u": "-0.5 - v^2 - 0.3*cos(u)"}), (0.05, 0.95)),
    # every leaf stalls at its seed and closes at step 101, so the check fails
    "stalled": lambda: (FAR_ANNULUS.one_form({"u": 1.0}), (1e14, 1e14 + 1.0)),
}


def same_bits(a, b):
    return all(np.array_equal(np.asarray(x).view(np.int64), np.asarray(y).view(np.int64)) for x, y in zip(a, b))


# where 200 steps of 1e-3 up from 0.5 land: a leaf that reaches the top
# edge exactly is outside
EDGE = functools.reduce(lambda v, _: v + 1e-3, range(200), 0.5)


@pytest.mark.parametrize("s", [1.0, -1.0])
@pytest.mark.parametrize(
    "v0, band, budget, way, end",
    [
        (0.5, (0.1, 0.9), 2000, 1.0, (True, 400)),
        (0.5, (0.1, 0.9), 2000, -1.0, (True, 400)),
        (0.5, (0.1, 0.9), 300, 1.0, (False, 300)),
        (1e14 + 0.5, (1e14, 1e14 + 1.0), 50000, 1.0, (False, 101)),
        (0.5, (0.1, EDGE), 2000, 1.0, (True, 200)),
    ],
    ids=["top", "bottom", "budget", "stalled", "on-the-edge"],
)
def test_vertical_leaf_is_the_one_leaf_loop_on_a_vertical_field(s, v0, band, budget, way, end):
    # the field (0, 0.7 s) has the unit vector (0, s) everywhere; the leaf
    # follows it with the sign t = way * s, so it moves `way` in v
    def direction(pts):
        return np.stack([np.zeros(len(pts)), np.full(len(pts), 0.7 * s)], -1)

    lo, hi = band
    t = way * s
    ref_end, exited, steps = dense_trace_leaf(
        signed(direction, t), np.array([1.0, v0]), 1e-3, budget, lambda z: lo < z[1] < hi, (True, False)
    )
    assert (exited, steps) == end
    if exited:
        assert (ref_end[1] >= hi) == (way == 1.0)
    dv = t * s * (6.0 * (1e-3 / 6.0))
    v, out, n = foliation._vertical_leaf(v0, dv, lo, hi, budget)
    assert same_bits((v,), (ref_end[1],)) and (out, n) == (exited, steps)


@pytest.mark.parametrize("case", VERTICAL_CASES)
def test_proven_vertical_leaves_replay_like_the_per_stage_replay(case):
    # on a band where c1 of c1 du is proven of one sign, the RK4 loop's
    # leaves are the check's vertical recurrences: forward from every seed,
    # and backward and retraced from one
    pulled, (lo, hi) = VERTICAL_CASES[case]()
    s = foliation._proven_sign(pulled.components[0], lo, hi)[0]
    assert s == (-1.0 if case == "negative" else 1.0)
    direction = kernel_direction(pulled)
    mid, max_arc = 0.5 * (lo + hi), 50.0 * (hi - lo)
    dv = s * (6.0 * (1e-3 / 6.0))
    budget = int(math.ceil(max_arc / 1e-3))
    fwd = foliation._vertical_leaf(mid, dv, lo, hi, budget)
    bwd = foliation._vertical_leaf(mid, -dv, lo, hi, budget)

    def assert_leaf(sign, z, arc, inside, want):
        end, out, n = trace_leaf(signed(direction, sign), z, 1e-3, arc, inside, (True, False))
        assert same_bits(end, (z[0], want[0])) and (out, n) == want[1:]

    band = lambda z: lo < z[1] < hi  # noqa: E731
    for u in np.linspace(0.0, math.tau, 8, endpoint=False):
        assert_leaf(1.0, np.array([u, mid]), max_arc, band, fwd)
    assert_leaf(-1.0, np.array([0.0, mid]), max_arc, band, bwd)
    assert fwd[1] == bwd[1] == (case != "stalled")
    if fwd[1]:
        back = foliation._vertical_leaf(fwd[0], -dv, -math.inf, math.inf, fwd[2])
        assert_leaf(-1.0, np.array([0.0, fwd[0]]), (fwd[2] - 0.5) * 1e-3, lambda z: True, back)


def counting(calls, fn):
    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize("name", ["s3_openbook", "stabilization_local"])
def test_catalog_annulus_replays_in_a_few_direction_calls(monkeypatch, name):
    # stepping RK4 one step at a time was about 3,000 direction calls per
    # check; the bound proves both catalog annuli vertical, so their leaves
    # are the v recurrence, no leaf is traced and the form is never
    # evaluated
    band = catalog_annulus(name)
    calls = []
    monkeypatch.setattr(foliation, "trace_leaf", counting(calls, trace_leaf))
    monkeypatch.setattr(charts, "_evaluator", counting(calls, charts._evaluator))
    monkeypatch.setattr(trigpoly, "_evaluator", counting(calls, trigpoly._evaluator))
    assert annulus_foliation_check(*band).passed
    assert calls == []


def test_catalog_annulus_runs_few_stop_tests(monkeypatch):
    # a stop test per step was 380 calls in the forward and backward batch;
    # the proven band runs three v recurrences, forward, backward and the
    # retrace, which stop by themselves
    band = catalog_annulus("s3_openbook")
    calls = []
    monkeypatch.setattr(foliation, "trace_leaf", counting(calls, trace_leaf))
    monkeypatch.setattr(foliation, "_vertical_leaf", counting(calls, foliation._vertical_leaf))
    report = annulus_foliation_check(*band)
    assert report.passed and report.details["step"] > 0.0
    assert calls == ["_vertical_leaf"] * 3


def test_a_proven_band_traces_and_evaluates_nothing(monkeypatch):
    bands = {case: make() for case, make in VERTICAL_CASES.items()}
    # v - 0.3 is positive on the closed band, so it is proven there, though
    # the RK4 loop's last stage points reach v = 0.2985, where it is not
    bands["turns_past"] = (ANNULUS.one_form({"u": "v - 0.3"}), (0.3005, 0.9))
    dense = {case: repr(dense_annulus_check(*band)[2]) for case, band in bands.items()}

    def refuse(*args):
        raise AssertionError("a leaf was traced or the form was evaluated")

    monkeypatch.setattr(foliation, "trace_leaf", refuse)
    monkeypatch.setattr(charts, "_evaluator", refuse)
    monkeypatch.setattr(trigpoly, "_evaluator", refuse)
    for case, (pulled, v_range) in bands.items():
        assert repr(annulus_foliation_check(pulled, v_range)) == dense[case]
    assert "passed=False" in dense["stalled"]


def test_a_vertical_field_on_an_angular_v_closes_its_leaves():
    # on an angular v a vertical leaf is a circle: after one turn it is back
    # at its seed, which the loop's closure test, taken modulo 2 pi, finds
    report = annulus_foliation_check(TORUS.one_form({"x": 1.0}), (0.0, 20.0))
    assert not report.passed and report.min_gap == 0.0
    assert [f["value"] for f in report.failures] == [math.nan] * len(report.failures)


@pytest.mark.parametrize(
    "c1, band, values",
    [("0.2 + cos(8*u)", (0.12, 0.88), (1.2, -0.8)), ("v - 0.3", (0.05, 0.95), (0.65, -0.25))],
)
def test_a_line_field_that_vanishes_in_the_band_fails_without_tracing(monkeypatch, c1, band, values):
    # c1 du with c1 of both signs: the kernel line vanishes where c1 = 0.
    # The 8 seeds of 0.2 + cos(8u) sit where cos(8u) = 1, and their leaves
    # cross, but the line field vanishes on 16 segments of each circle
    def no_trace(*args):
        raise AssertionError("a leaf was traced")

    monkeypatch.setattr(foliation, "trace_leaf", no_trace)
    report = annulus_foliation_check(PAGE_ANNULUS.one_form({"u": c1}), band)
    assert not report.passed and report.min_gap == 0.0
    # the chart's 32 u samples of a default check, by 32 v values
    assert report.n_points == 1024
    assert [f["value"] for f in report.failures] == pytest.approx(values)
    assert all(band[0] <= f["point"]["v"] <= band[1] for f in report.failures)


@pytest.mark.parametrize(
    "band", [(0.9, 0.1), (0.5, 0.5), (math.nan, 0.9), (0.05, math.inf)], ids=["falling", "empty", "nan", "inf"]
)
def test_an_empty_falling_or_non_finite_band_is_refused(band):
    # a bound over such a band would prove nothing, or prove a sign on a
    # box that holds no point
    with pytest.raises(ValueError, match="interval"):
        annulus_foliation_check(ANNULUS.one_form({"u": "v^2 - v + 0.3", "v": 0.5}), band)


def test_a_band_that_passes_only_after_cutting():
    # (v^2 - v + 0.3) du + 0.5 dv: c1's least value is 0.05, at v = 0.5, but
    # its bound on the whole band is [-0.65, 1.15]; 32 equal v pieces prove
    # it positive
    pulled, band = ANNULUS.one_form({"u": "v^2 - v + 0.3", "v": 0.5}), (0.05, 0.95)
    whole = pulled.components[0].bound(((0.0, math.tau), band))
    assert whole == pytest.approx((-0.65, 1.15), abs=3e-3)
    report = annulus_foliation_check(pulled, band)
    assert report.passed and report.n_points == 32
    arc = report.details["arc_bound"]
    # the least bound of c1 over the pieces is at most 0.05, the bound of c2 is 0.5
    assert 0.9 * math.hypot(1.0, 0.5 / 0.05) <= arc <= 45.0
    assert report.min_gap == 1.0 - arc / report.details["max_arc"]


@pytest.mark.parametrize("c2", [0.5, "cos(u)"])
def test_a_sign_change_fails_whatever_the_dv_part(c2):
    # (v - 0.3) du + c2 dv: the line field is tangent to the circle v = 0.3
    # where c1 = 0, so no sign is proven, and the check fails at c1's largest
    # and smallest grid values, as without a dv part (the line field case)
    report = annulus_foliation_check(PAGE_ANNULUS.one_form({"u": "v - 0.3", "v": c2}), (0.05, 0.95))
    assert not report.passed and report.min_gap == 0.0
    assert report.n_points == 1024 and "not_proven" not in report.details
    assert [f["value"] for f in report.failures] == pytest.approx([0.65, -0.25])


def test_an_angular_band_shorter_than_a_period_is_crossed():
    # on the torus v is angular; a band of width 3 < 2 pi has two edges, and
    # the vertical and the slanted leaves cross it
    vertical, slanted = TORUS.one_form({"x": 1.0}), TORUS.one_form({"x": 1.0, "y": 0.5})
    report = annulus_foliation_check(vertical, (0.0, 3.0))
    assert report.passed and report.min_gap == pytest.approx(1.0 - 3.0 / 150.0, abs=1e-4)
    report = annulus_foliation_check(slanted, (0.0, 3.0))
    assert report.passed and report.details["arc_bound"] == pytest.approx(3.0 * math.hypot(1.0, 0.5))
    # a band of one period has no edge: the leaves circle back, and the
    # check fails at the seeds
    report = annulus_foliation_check(slanted, (0.0, math.tau))
    assert not report.passed and report.min_gap == 0.0 and report.n_points == 8
    assert [f["value"] for f in report.failures] == [math.nan] * MAX_FAILURES


def test_an_unproven_band_fails_at_its_least_c1():
    # the bound of v on [0, 0.5] reaches 0, so no sign is proven, though v
    # >= 0 there: the check fails as not proven at the grid point of least
    # |c1|, on the edge v = 0; the same form on a band clear of 0 crosses,
    # with the one-sign proof
    pulled = PAGE_ANNULUS.one_form({"u": "v", "v": "0.1*v"})
    report = annulus_foliation_check(pulled, (0.0, 0.5))
    assert not report.passed and report.min_gap == 0.0 and report.details["not_proven"]
    assert report.failures == ({"point": {"u": 0.0, "v": 0.0}, "value": 0.0},)
    assert annulus_foliation_check(pulled, (0.01, 0.5)).passed
    # a c1 of one sign whose arc bound is over the budget: the margin is
    # negative, and the failure is at the grid point of least |c1|
    report = annulus_foliation_check(PAGE_ANNULUS.one_form({"u": 0.01, "v": 1.0}), (0.05, 0.95))
    assert not report.passed and report.min_gap < 0.0 and "not_proven" not in report.details
    assert report.details["arc_bound"] > report.details["max_arc"]
    assert [f["value"] for f in report.failures] == [0.01]


# -- singularity classification ----------------------------------------------------


def radial_sink(level_sign=1.0):
    def value(pts):
        return -np.asarray(pts, float)

    def jacobian(pts):
        pts = np.asarray(pts, float)
        J = np.zeros(pts.shape[:-1] + (2, 2))
        J[..., 0, 0] = -1.0
        J[..., 1, 1] = -1.0
        return -pts, J

    def level(pts):
        return np.full(np.asarray(pts, float).shape[:-1], level_sign)

    from engelbook.foliation import ClassifierField

    return ClassifierField(value, jacobian, level)


def hand_search(field, bounds):
    """A hand field's zeros on the unit disk, searched from the 41 x 41 grid."""
    return find_and_classify(field, bounds, _disk_grid(0.98, 41), 1.0)


def test_radial_sink_is_one_positive_elliptic_point():
    report = hand_search(radial_sink(), _affine_bounds(-np.eye(2), (0.0, 0.0), 1.0))
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
        return value(pts), J

    def level(pts):
        return np.full(np.asarray(pts, float).shape[:-1], -0.5)

    bounds = _affine_bounds(np.diag([1.0, -1.0]), (0.0, 0.0), -0.5)
    report = hand_search(ClassifierField(value, jacobian, level), bounds)
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
        return value(pts), J

    def level(pts):
        return np.ones(np.asarray(pts, float).shape[:-1])

    report = hand_search(ClassifierField(value, jacobian, level), _affine_bounds(-np.eye(2), z0, 1.0))
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


def dense_newton_points(classifier, newton_iters, stop=True, seed_radius=None, seeds=None):
    """Reference Newton rounds on the unit disk: every seed in every round.

    With ``stop``, as in the search, a seed freezes after the round that
    starts with |V| <= 1e-10 at it; without it every live seed runs every
    round.  The seeds are ``seeds``, or else the 161 x 161 grid points, and
    with ``seed_radius`` only those with rho at most it."""
    z = _disk_grid(0.98, 161) if seeds is None else np.array(seeds, float)
    if seed_radius is not None:
        z = z[_radius(z) <= seed_radius]
    alive = np.ones(len(z), dtype=bool)
    frozen = np.zeros(len(z), dtype=bool)
    for _ in range(newton_iters):
        V = classifier.value(z)
        if not (alive & ~frozen).any():
            break
        _, J = classifier.jacobian(z)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        ok = np.abs(det) > 1e-300
        inv_det = np.where(ok, det, 1.0)
        step_p = (J[:, 1, 1] * V[:, 0] - J[:, 0, 1] * V[:, 1]) / inv_det
        step_q = (-J[:, 1, 0] * V[:, 0] + J[:, 0, 0] * V[:, 1]) / inv_det
        step = np.stack([step_p, step_q], axis=-1)
        step[~ok] = 0.0
        alive &= ok & (np.linalg.norm(z, axis=-1) < 2.0)
        z = np.where((alive & ~frozen)[:, None], z - step, z)
        if stop:
            frozen |= np.linalg.norm(V, axis=-1) <= 1e-10
    return z


def dense_classify(classifier, z):
    """Reference dedupe and classification: pairwise greedy dedupe in grid order."""
    V = classifier.value(z)
    good = (
        np.isfinite(z).all(axis=-1)
        & (np.linalg.norm(V, axis=-1) <= 1e-10)
        & (np.linalg.norm(z, axis=-1) < 1.0)
    )
    unique = []
    for p in z[good]:
        if all(np.linalg.norm(p - q) > 1e-6 for q in unique):
            unique.append(p)
    unique.sort(key=lambda p: (round(float(p[0]), 9), round(float(p[1]), 9)))

    zeros = []
    counts = {"e_plus": 0, "e_minus": 0, "h_plus": 0, "h_minus": 0}
    degenerate = False
    if unique:
        arr = np.stack(unique)
        _, jac = classifier.jacobian(arr)
        dets = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        levels = classifier.level(arr)
        residuals = np.linalg.norm(classifier.value(arr), axis=-1)
        for p, det, lev, res in zip(arr, dets, levels, residuals):
            degenerate |= abs(det) < 1e-8 or abs(lev) < 1e-8
            kind = "elliptic" if det > 0 else "hyperbolic"
            sign = 1 if lev > 0 else -1
            counts[kind[0] + ("_plus" if sign > 0 else "_minus")] += 1
            zeros.append(
                {
                    "p": float(p[0]),
                    "q": float(p[1]),
                    "type": kind,
                    "sign": sign,
                    "det": float(det),
                    "level": float(lev),
                    "residual": float(res),
                }
            )
    return tuple(zeros), counts, degenerate


def fold_field():
    """V = (p^2 - 1/4, q): seeds on p = 0 have a singular Jacobian, and
    seeds near it are thrown past |z| = 2 by their first step."""

    def value(pts):
        pts = np.asarray(pts, float)
        return np.stack([pts[..., 0] ** 2 - 0.25, pts[..., 1]], axis=-1)

    def jacobian(pts):
        pts = np.asarray(pts, float)
        J = np.zeros(pts.shape[:-1] + (2, 2))
        J[..., 0, 0] = 2.0 * pts[..., 0]
        J[..., 1, 1] = 1.0
        return value(pts), J

    def level(pts):
        return np.ones(np.asarray(pts, float).shape[:-1])

    return ClassifierField(value, jacobian, level)


def fold_bounds():
    """The fold field's enclosures: V = (p^2 - 1/4, q), J = diag(2p, 1)."""

    def value(lo, hi):
        p, q = Enclosure(lo[:, 0], hi[:, 0]), Enclosure(lo[:, 1], hi[:, 1])
        return p**2 - 0.25, q

    def jacobian(lo, hi):
        zero, one = Enclosure.of(np.zeros(len(lo))), Enclosure.of(np.ones(len(lo)))
        return (Enclosure(lo[:, 0], hi[:, 0]) * 2.0, zero), (zero, one)

    def level(lo, hi):
        return Enclosure.of(np.ones(len(lo)))

    return ClassifierBounds(value, jacobian, level)


@functools.lru_cache(maxsize=None)
def search_field(name):
    if name == "sink":
        return radial_sink()
    if name == "fold":
        return fold_field()
    k = int(name[1:])
    return _classifier_from_pieces(_assemble_pieces(k, _disk_params(k)))


@functools.lru_cache(maxsize=None)
def disk_pieces(k):
    return _assemble_pieces(k, _disk_params(k))


def search_proof(name):
    """The bounds and the radius the proof of a search field takes."""
    if name == "sink":
        return _affine_bounds(-np.eye(2), (0.0, 0.0), 1.0), 1.0
    if name == "fold":
        return fold_bounds(), 1.0
    pieces = disk_pieces(int(name[1:]))
    return pieces.bounds, pieces.cluster_end


def disk_search(k, classifier=None):
    """find_and_classify on the disk with k twists, as its constructor runs it."""
    pieces = disk_pieces(k)
    classifier = search_field(f"k{k}") if classifier is None else classifier
    return find_and_classify(classifier, pieces.bounds, pieces.seeds, pieces.cluster_end)


@functools.lru_cache(maxsize=None)
def dense_search(name, newton_iters, stop=True, seed_radius=None):
    return dense_newton_points(search_field(name), newton_iters, stop, seed_radius)


def bitwise_equal(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("newton_iters", [1, 2, 60])
@pytest.mark.parametrize("name", ["k3", "k7", "sink", "fold"])
def test_active_set_search_is_bit_identical_to_dense_loop(name, newton_iters, monkeypatch):
    # the search from every grid point, with at most newton_iters rounds
    classifier = search_field(name)
    dense_z = dense_search(name, newton_iters)
    monkeypatch.setattr(foliation, "_NEWTON_ROUNDS", newton_iters)
    z = _newton_points(classifier, _disk_grid(0.98, 161))
    assert bitwise_equal(z, dense_z)
    if newton_iters == 60:
        bounds, radius = search_proof(name)
        report = find_and_classify(classifier, bounds, _disk_grid(0.98, 161), radius)
        zeros, counts, degenerate = dense_classify(classifier, dense_z)
        assert repr(report.zeros) == repr(zeros)
        assert report.counts == counts
        assert report.degenerate == degenerate
        assert len(zeros) == {"k3": 3, "k7": 7, "sink": 1, "fold": 2}[name]


@pytest.mark.parametrize("k", [3, 7, 19])
def test_stop_rule_finds_the_zeros_of_the_stop_free_loop(k):
    # converged seeds stop instead of moving their last bits for the rest of
    # the 60 rounds; the zeros may move by those bits and nothing more
    classifier = search_field(f"k{k}")
    report = disk_search(k)
    zeros, counts, degenerate = dense_classify(classifier, dense_search(f"k{k}", 60, stop=False))
    assert report.counts == counts
    assert report.degenerate == degenerate
    assert [(z["type"], z["sign"]) for z in report.zeros] == [(z["type"], z["sign"]) for z in zeros]
    for found, free in zip(report.zeros, zeros):
        assert abs(found["p"] - free["p"]) <= 1e-15 and abs(found["q"] - free["q"]) <= 1e-15


def cluster_end(k):
    return disk_pieces(k).cluster_end


@pytest.mark.parametrize("k", [3, 11, 17, 19])
def test_cluster_seeded_search_is_bit_identical_to_dense_loop(k):
    # the cluster's design seeds, the bump centres and the midpoints between
    # them, end where the dense loop from those seeds ends them
    seeds = disk_pieces(k).seeds
    e = (k + 1) // 2
    assert len(seeds) == k and (seeds[:, 1] == 0.0).all()
    assert bitwise_equal(seeds[e:], 0.5 * (seeds[: e - 1] + seeds[1:e]))
    z = _newton_points(search_field(f"k{k}"), seeds)
    assert bitwise_equal(z, dense_newton_points(search_field(f"k{k}"), 60, seeds=seeds))
    assert (_plane_norms(search_field(f"k{k}").value(z)) <= 1e-10).all()


@pytest.mark.parametrize("k", range(3, 22, 2))
def test_cluster_seeds_find_the_zeros_of_the_whole_grid(k):
    # the oracle: the dense loop from every grid point inside cluster_end,
    # past which the classifier provably has no zero; k = 21 is past the
    # supported range, with off-axis zero pairs that no design seed reaches
    params = _disk_params(k)
    expected = {"e_plus": (k + 1) // 2, "e_minus": 0, "h_plus": 0, "h_minus": (k - 1) // 2}
    oracle, counts, degenerate = dense_classify(
        search_field(f"k{k}"), dense_search(f"k{k}", 60, seed_radius=cluster_end(k))
    )
    if k == 21:
        assert counts == {"e_plus": 11, "e_minus": 2, "h_plus": 0, "h_minus": 12}
        with pytest.raises(ValueError, match="no proof that the box") as err:
            _build_disk_form(k, params, expected)
        # the box lies at one of the four zeros off the axis
        lo_p, hi_p, lo_q, hi_q = named_box(err)
        extra = [(z["p"], z["q"]) for z in oracle if abs(z["q"]) > 0.01]
        assert len(extra) == 4
        assert any(lo_p - 1e-4 <= p <= hi_p + 1e-4 and lo_q - 1e-4 <= q <= hi_q + 1e-4 for p, q in extra)
        return
    seeded = _build_disk_form(k, params, expected)
    assert seeded.passed
    cut = seeded.singularities
    assert cut.counts == counts == expected
    assert cut.degenerate == degenerate
    assert [(z["type"], z["sign"]) for z in cut.zeros] == [(z["type"], z["sign"]) for z in oracle]
    for found, ref in zip(cut.zeros, oracle):
        assert abs(found["p"] - ref["p"]) <= 1e-15 and abs(found["q"] - ref["q"]) <= 1e-15


@pytest.mark.parametrize("k", range(3, 22, 2))
def test_classifier_has_no_zero_past_the_bump_cluster(k):
    # |V| >= min(swirl, s_fall[0]) on cluster_end <= rho <= 1, the bound
    # _assemble_pieces proves in closed form
    params = _disk_params(k)
    pieces = _assemble_pieces(k, params)
    rng = np.random.default_rng(k)
    rho = rng.uniform(pieces.cluster_end, 1.0, 100_000)
    theta = rng.uniform(0.0, math.tau, 100_000)
    pts = np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=-1)
    speed = _plane_norms(_classifier_from_pieces(pieces).value(pts))
    assert speed.min() >= min(params["swirl"], params["s_fall"][0]) * (1.0 - 1e-12)


@pytest.mark.parametrize(
    "change",
    [
        {"s_fall": (0.66, 0.80)},  # c still rises past s_fall[0]
        {"wall": (0.40, 0.72)},  # the wall ramp still runs past s_fall[0]
        {"swirl": 0.0},  # V = f e_rho, and f changes sign between the wall and c's rise
    ],
)
def test_assemble_pieces_refuses_a_zero_past_the_bump_cluster_it_cannot_exclude(change):
    params = {**_disk_params(5), **change}
    with pytest.raises(ValueError, match="zero-free past the peak cluster"):
        _assemble_pieces(5, params)


def test_disk_constructor_proves_with_its_design_seeds(monkeypatch):
    calls = []
    search = foliation.find_and_classify

    def spy(classifier, *args, **kwargs):
        calls.append(args)
        return search(classifier, *args, **kwargs)

    monkeypatch.setattr(foliation, "find_and_classify", spy)
    assert construct_xi_prime(1).passed and construct_xi_prime(3).passed
    (bounds1, seeds1, radius1), (bounds3, seeds3, radius3) = calls
    assert isinstance(bounds1, ClassifierBounds) and isinstance(bounds3, ClassifierBounds)
    assert seeds1.tolist() == [[0.0, 0.0]] and radius1 == 1.0
    assert bitwise_equal(seeds3, disk_pieces(3).seeds) and radius3 == cluster_end(3)


# -- the proof of the zero count ----------------------------------------------------

mp = mpmath.MPContext()  # its own context: the global precision stays as it is
mp.dps = 50


def exact_disk(k):
    """V, u and J of the disk classifier in 50-digit arithmetic, from the
    float constants the float code uses; J by differentiating V."""
    params = _disk_params(k)
    pieces = disk_pieces(k)
    centers = (pieces.seeds[: (k + 1) // 2]).tolist()
    width, amplitude = params["width"], params["amplitude"]
    t0, t1 = params["trunc"]
    w2, fade_lo, fade_w = width * width, t0 * width, (t1 - t0) * width
    one_plus = 1.0 + params["floor"]
    wall_lo, wall_hi = params["wall"]
    ca, cb = params["c_on"][0] * width, params["c_on"][1] * width
    c_rise, s_fall = params["c_rise"], params["s_fall"]

    def S(t):
        t = min(max(t, mp.mpf(0)), mp.mpf(1))
        return t**3 * (10 - 15 * t + 6 * t * t)

    def u(p, q):
        total = 1 - one_plus * (1 - S((mp.hypot(p, q) - wall_lo) / (wall_hi - wall_lo)))
        for cx, cy in centers:
            d = mp.hypot(p - cx, q - cy)
            total += amplitude * mp.exp(-d * d / (2 * w2)) * (1 - S((d - fade_lo) / fade_w))
        return total

    def V(p, q):
        rho = mp.hypot(p, q)
        c = -params["c_dip"] * S((rho - ca) / (cb - ca)) + (1 + params["c_dip"]) * S(
            (rho - c_rise[0]) / (c_rise[1] - c_rise[0])
        )
        s = params["swirl"] * (S((rho - ca) / (cb - ca)) - S((rho - s_fall[0]) / (s_fall[1] - s_fall[0])))
        grad = (mp.diff(lambda x: u(x, q), p), mp.diff(lambda y: u(p, y), q))
        swirl = s / rho if rho else mp.mpf(0)
        return grad[0] - c * p - swirl * q, grad[1] - c * q + swirl * p

    def J(p, q):
        return [[mp.diff(lambda x: V(x, q)[i], p), mp.diff(lambda y: V(p, y)[i], q)] for i in range(2)]

    return V, u, J


def within(enclosure, i, value):
    return mp.mpf(float(enclosure.lo[i])) <= value <= mp.mpf(float(enclosure.hi[i]))


@pytest.mark.parametrize("k", [3, 19])
def test_disk_bounds_hold_the_exact_field_in_their_boxes(k):
    # boxes of several sizes around the zeros, the bump cluster's edge,
    # random places and the outer bands; at a random point of each, the
    # 50-digit V, u and J lie in the enclosures
    V, u, J = exact_disk(k)
    bounds = disk_pieces(k).bounds
    rng = np.random.default_rng(k)
    zeros = np.array([[z["p"], z["q"]] for z in disk_search(k).zeros])
    # and points of the wall, c-rise and s-fall bands, which the cover never reaches
    bands = np.array([[0.45, 0.0], [0.0, -0.52], [-0.42, 0.3], [0.5, 0.5], [0.0, 0.75]])
    centres = np.concatenate([zeros, rng.uniform(-0.3, 0.3, (12, 2)), [[cluster_end(k), 0.0]], bands])
    half = rng.choice([0.0, 1e-4, 2e-3, 0.02], len(centres))
    lo, hi = centres - half[:, None], centres + half[:, None]
    vp, vq = bounds.value(lo, hi)
    jac = bounds.jacobian(lo, hi)
    level = bounds.level(lo, hi)
    points = lo + rng.uniform(0.0, 1.0, lo.shape) * (hi - lo)
    for i, (p, q) in enumerate(points):
        p, q = mp.mpf(float(p)), mp.mpf(float(q))
        exact_v, exact_j = V(p, q), J(p, q)
        assert within(vp, i, exact_v[0]) and within(vq, i, exact_v[1]), i
        assert within(level, i, u(p, q)), i
        for a in range(2):
            for b in range(2):
                assert within(jac[a][b], i, exact_j[a][b]), (i, a, b)
    # and tight: at a point, V's enclosure is narrower than 1e-8
    assert (vp.hi - vp.lo)[half == 0.0].max() < 1e-8


def test_a_lone_bump_slope_enclosure_holds_its_exact_gradient():
    # one bump at the origin and profiles that start past its reach, so V
    # is the bump's gradient alone; at points of its fade band the float
    # pair arithmetic errs by tens of ulps, which its allowance must cover
    params = _disk_params(3)
    width, amplitude = params["width"], params["amplitude"]
    t0, t1 = params["trunc"]
    far = _RadialRamps(((8.0 * width, 9.0 * width, 1.0),), final=1.0)
    bounds = _disk_bounds(np.zeros((1, 2)), params, far, far)
    rng = np.random.default_rng(3)
    radii = rng.uniform(0.2 * width, t1 * width, 400)
    angles = rng.uniform(0.0, math.tau, 400)
    pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], -1)
    vp, vq = bounds.value(pts, pts)
    w2, fade_lo, fade_w = width * width, t0 * width, (t1 - t0) * width

    def bump(d):
        t = min(max((d - fade_lo) / fade_w, mp.mpf(0)), mp.mpf(1))
        return amplitude * mp.exp(-d * d / (2 * w2)) * (1 - t**3 * (10 - 15 * t + 6 * t * t))

    for i, (p, q) in enumerate(pts):
        p, q = mp.mpf(float(p)), mp.mpf(float(q))
        d = mp.hypot(p, q)
        slope = mp.diff(bump, d) / d
        assert within(vp, i, slope * p) and within(vq, i, slope * q), i


def krawczyk_inputs(matrix, zero, half):
    """A linear field's Krawczyk data around its zero, with Y = J^-1."""
    bounds = _affine_bounds(matrix, -np.asarray(matrix) @ zero, 1.0)
    mid = np.array([zero])
    return bounds, mid, np.linalg.inv(matrix)[None], mid - half, mid + half


def test_krawczyk_image_of_a_linear_field_is_its_zero():
    matrix = np.array([[2.0, 1.0], [-1.0, 3.0]])
    bounds, mid, inverse, lo, hi = krawczyk_inputs(matrix, np.array([0.25, -0.5]), 0.1)
    image, _ = krawczyk_image(bounds, mid, inverse, lo, hi)
    assert strictly_inside(image, lo, hi).all()
    assert all(k.hi[0] - k.lo[0] < 1e-14 for k in image)


def test_an_image_that_touches_its_box_proves_nothing():
    # every zero in a box lies in its image, so an image inside the closed
    # box proves a zero there, but only one inside its interior proves that
    # zero the box's only one
    lo, hi = np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])
    inner = (Enclosure(np.array([0.25]), np.array([0.75])),) * 2
    assert strictly_inside(inner, lo, hi).all()
    for touching in ((Enclosure(np.array([0.0]), np.array([0.5])), inner[1]),
                     (inner[0], Enclosure(np.array([0.5]), np.array([1.0])))):
        assert not strictly_inside(touching, lo, hi).any()


def linear_field(matrix, level_value=1.0):
    def value(pts):
        return np.asarray(pts, float) @ np.asarray(matrix).T

    def jacobian(pts):
        pts = np.asarray(pts, float)
        return value(pts), np.broadcast_to(np.asarray(matrix, float), pts.shape[:-1] + (2, 2)).copy()

    def level(pts):
        return np.full(np.asarray(pts, float).shape[:-1], level_value)

    return ClassifierField(value, jacobian, level)


def test_a_strict_krawczyk_inclusion_leaves_the_det_enclosure_clear_of_zero():
    # det J = J_pp J_qq - J_pq J_qp uses each entry once, so its enclosure
    # is the range of det over the matrices of the J enclosure, up to
    # rounding; an image strictly inside its box makes each of them
    # invertible, so that range is clear of 0 whenever the test passes
    rng = np.random.default_rng(7)
    passed = 0
    for _ in range(300):
        matrix = rng.normal(size=(2, 2)) * np.exp(rng.normal(size=(2, 2)))
        widths = np.abs(rng.normal(size=(2, 2))) * abs(np.linalg.det(matrix)) / np.abs(matrix).max()
        bounds, mid, inverse, lo, hi = krawczyk_inputs(matrix, np.zeros(2), 0.01)

        def wide(lo, hi, bounds=bounds, widths=widths):
            return tuple(
                tuple(Enclosure(e.lo - widths[i, j], e.hi + widths[i, j]) for j, e in enumerate(row))
                for i, row in enumerate(bounds.jacobian(lo, hi))
            )

        image, ((j00, j01), (j10, j11)) = krawczyk_image(
            ClassifierBounds(bounds.value, wide, bounds.level), mid, inverse, lo, hi
        )
        if strictly_inside(image, lo, hi)[0]:
            passed += 1
            assert not (j00 * j11 - j01 * j10).contains_zero()[0]
    assert 30 < passed < 270


def test_a_zero_whose_level_enclosure_meets_zero_is_refused():
    field = linear_field(-np.eye(2), 0.0)
    with pytest.raises(ValueError, match="level enclosure that meets 0"):
        hand_search(field, _affine_bounds(-np.eye(2), (0.0, 0.0), 0.0))


def named_box(error):
    """The box a cover failure names, as (lo_p, hi_p, lo_q, hi_q)."""
    found = re.search(r"box \[(\S+), (\S+)\] x \[(\S+), (\S+)\]", str(error.value))
    return tuple(float(x) for x in found.groups())


def test_a_zero_no_seed_reaches_fails_the_cover():
    # V = (p^2 - 1/4, q) searched from one seed finds one of its two zeros;
    # the cover then cannot close the boxes around the other
    with pytest.raises(ValueError, match="no proof that the box") as err:
        find_and_classify(fold_field(), fold_bounds(), np.array([[0.4, 0.1]]), 1.0)
    lo_p, hi_p, lo_q, hi_q = named_box(err)
    assert lo_p - 1e-3 <= -0.5 <= hi_p + 1e-3 and lo_q - 1e-3 <= 0.0 <= hi_q + 1e-3


def reference_exclude_zeros(value, radius, lo_z, hi_z):
    """The exclusion cover with its box tests on ``Enclosure`` objects, as
    ``interval.exclude_zeros`` ran it before those tests moved to plain
    floats: the reference for the boxes each level hands to ``value``."""
    edges = np.linspace(-radius, radius, interval._COVER_START + 1)
    corners = np.stack(np.meshgrid(edges[:-1], edges[:-1], indexing="ij"), -1).reshape(-1, 2)
    ends = np.stack(np.meshgrid(edges[1:], edges[1:], indexing="ij"), -1).reshape(-1, 2)
    lo, hi = corners, ends
    reach = (Enclosure.of(radius) ** 2).hi
    for _ in range(interval._COVER_LEVELS):
        near = np.clip(0.0, lo, hi)
        p, q = Enclosure.of(near[:, 0]), Enclosure.of(near[:, 1])
        inside = (p**2 + q**2).lo <= reach
        lo, hi = lo[inside], hi[inside]
        vp, vq = value(lo, hi)
        open_ = vp.contains_zero() & vq.contains_zero()
        open_ &= ~((lo[:, None] >= lo_z[None]) & (hi[:, None] <= hi_z[None])).all(-1).any(-1)
        lo, hi = lo[open_], hi[open_]
        if not len(lo):
            return
        if len(lo) > interval._COVER_MAX_BOXES:
            break
        cuts = np.stack([lo, 0.5 * (lo + hi), hi])
        p, q = np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])
        lo = np.stack([cuts[p, :, 0], cuts[q, :, 1]], -1).reshape(-1, 2)
        hi = np.stack([cuts[p + 1, :, 0], cuts[q + 1, :, 1]], -1).reshape(-1, 2)
    raise ValueError(
        f"no proof that the box {interval._box_text(lo[0], hi[0])} holds no zero but the ones found"
    )


def cover_levels(cover, args):
    """The (lo, hi) boxes ``cover`` hands to ``value`` at each level, and
    the message of the ``ValueError`` it raises, or None."""
    value, radius, lo_z, hi_z = args
    levels = []

    def recorded(lo, hi):
        levels.append((lo.copy(), hi.copy()))
        return value(lo, hi)

    try:
        cover(recorded, radius, lo_z, hi_z)
    except ValueError as error:
        return levels, str(error)
    return levels, None


@pytest.mark.parametrize("name", [f"k{k}" for k in range(3, 20, 2)] + ["fold"])
def test_cover_hands_value_the_boxes_of_the_enclosure_tests(name, monkeypatch):
    # the float disk and open tests keep every level's boxes, and the
    # failing fold search names the same box
    calls = []
    monkeypatch.setattr(foliation, "exclude_zeros", lambda *args: calls.append(args))
    if name == "fold":
        find_and_classify(fold_field(), fold_bounds(), np.array([[0.4, 0.1]]), 1.0)
    else:
        disk_search(int(name[1:]))
    (args,) = calls
    want, want_error = cover_levels(reference_exclude_zeros, args)
    got, got_error = cover_levels(interval.exclude_zeros, args)
    assert got_error == want_error and (want_error is None) == (name != "fold")
    assert len(got) == len(want) > 1
    for (lo, hi), (ref_lo, ref_hi) in zip(got, want):
        assert bitwise_equal(lo, ref_lo) and bitwise_equal(hi, ref_hi)


# -- the disk constructor -----------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 20, 2))
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
    assert d.certificates["contact_min"] > 1e-3
    assert d.certificates["boundary_residual"] <= 1e-13
    assert abs(d.certificates["classifier_boundary_turns"] - 1.0) < 0.05


def test_hand_coefficient_matches_wedge_route():
    # for alpha = u dx + V_q dp - V_p dq, alpha ^ dalpha is
    # (-u (J00 + J11) + V . grad u) dx ^ dp ^ dq, with J the Jacobian of V
    rng = np.random.default_rng(11)
    axis = np.linspace(-1.0, 1.0, 101)
    pts = np.concatenate(
        [rng.uniform(-1.0, 1.0, (2000, 2)), np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2)]
    )
    for k in range(3, 20, 2):
        pieces = _assemble_pieces(k, _disk_params(k))
        classifier = _classifier_from_pieces(pieces)
        u, grad = pieces.u(pts, _radius(pts), (0, 1))
        V, J = classifier.jacobian(pts)
        closed = -u * (J[:, 0, 0] + J[:, 1, 1]) + np.einsum("ni,ni->n", V, grad)
        F = _contact_coefficient(pieces)(pts)
        assert (np.abs(F - closed) <= 1e-12 * np.maximum(1.0, np.abs(F))).all(), k


@pytest.mark.parametrize("k", range(3, 20, 2))
def test_contact_coefficient_is_radial_past_the_bump_cluster(k):
    # the builder samples F once per grid radius past cluster_end, at (rho, 0)
    pieces = _assemble_pieces(k, _disk_params(k))
    F = _contact_coefficient(pieces)
    pts = _disk_grid(1.0, foliation._CONTACT_GRID_N)
    full = F(pts)
    rho = _radius(pts)
    outer = rho > pieces.cluster_end
    on_axis = F(np.stack([rho[outer], np.zeros(outer.sum())], axis=-1))
    assert (np.abs(full[outer] - on_axis) <= 1e-14 * np.maximum(1.0, np.abs(full[outer]))).all()
    assert bitwise_equal(disk(k).certificates["contact_min"], full.min())


def full_contact_sample(cluster_end):
    """The contact sample from every point of the disk grid: the points
    with radius at most cluster_end, and the distinct radii past it."""
    pts = _disk_grid(1.0, foliation._CONTACT_GRID_N)
    rho = _radius(pts)
    inner = rho <= cluster_end
    return pts[inner], np.unique(rho[~inner])


def test_contact_sample_matches_the_full_grid():
    # at each disk's cluster_end and at grid radii, where the inner and
    # outer tests split ties, and at their float neighbours
    grid_radii = full_contact_sample(0.0)[1]
    ends = [disk_pieces(k).cluster_end for k in range(3, 20, 2)]
    ends += list(grid_radii[[0, 100, 2500, -1]])
    for end in ends:
        for at in (np.nextafter(end, -np.inf), end, np.nextafter(end, np.inf)):
            inner, radii = _contact_sample(float(at))
            want_inner, want_radii = full_contact_sample(float(at))
            assert np.array_equal(inner, want_inner) and np.array_equal(radii, want_radii), at


def test_hypot_is_even_and_symmetric_on_the_contact_grid():
    # _contact_sample takes each radius from the magnitudes in either order
    # (C99 Annex F.10.4.3); a libm that breaks this fails here
    axis = np.linspace(-1.0, 1.0, foliation._CONTACT_GRID_N)
    p, q = np.meshgrid(axis, axis, indexing="ij")
    want = np.hypot(np.abs(p), np.abs(q))
    for a, b in [(p, q), (-p, q), (p, -q), (-p, -q), (q, p)]:
        assert bitwise_equal(np.hypot(a, b), want)


def central_difference(fn, pts, h=1e-6):
    """d fn / d(p, q) at (n, 2) points, stacked on a new last axis."""
    cols = []
    for i in range(2):
        shift = np.zeros(2)
        shift[i] = h
        cols.append((fn(pts + shift) - fn(pts - shift)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def disk_regions(k):
    """Random points of the bump cluster, the c/s band, the wall ramp, the
    exact region and the c_rise and s_fall ramps of the disk with k twists."""
    params = _disk_params(k)
    width = params["width"]
    e = (k + 1) // 2
    offsets = (np.arange(e) - 0.5 * (e - 1)) * params["spacing"] * width
    rng = np.random.default_rng(k)

    def ring(r_lo, r_hi, n, center=(0.0, 0.0)):
        r = rng.uniform(r_lo, r_hi, n)
        t = rng.uniform(0.0, math.tau, n)
        return np.asarray(center) + r[:, None] * np.stack([np.cos(t), np.sin(t)], axis=-1)

    return {
        "bump cluster": np.concatenate(
            [ring(0.05 * width, params["trunc"][1] * width, 50, (p, 0.0)) for p in offsets]
        ),
        "c/s transition band": ring(params["c_on"][0] * width, params["c_on"][1] * width, 200),
        "wall ramp": ring(*params["wall"], 200),
        "exact region": ring(params["exact_radius"], 1.0, 200),
        "c_rise ramp": ring(*params["c_rise"], 200),
        "s_fall ramp": ring(*params["s_fall"], 200),
    }


def band_edges(k):
    """Points at and one ulp either side of every band edge of the disk with
    k twists: the wall, c/s, c_rise and s_fall radii on both axes, where
    rho is the radius exactly, and the fade distances trunc * width above
    and below each bump, where the distance to its center is exact."""
    params = _disk_params(k)
    width = params["width"]
    e = (k + 1) // 2
    offsets = (np.arange(e) - 0.5 * (e - 1)) * params["spacing"] * width
    c_on = [f * width for f in params["c_on"]]
    radii = [*params["wall"], *c_on, *params["c_rise"], *params["s_fall"]]
    fades = [f * width for f in params["trunc"]]

    def around(x):
        return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]

    pts = []
    for sign in (1.0, -1.0):
        pts += [(sign * x, 0.0) for r in radii for x in around(r)]
        pts += [(0.0, sign * x) for r in radii for x in around(r)]
        pts += [(c, sign * x) for c in offsets for d in fades for x in around(d)]
    return np.array(pts)


@pytest.mark.parametrize("k", [3, 19])
def test_disk_classifier_derivatives_match_central_differences(k):
    # the disk form's beta and its partials are read off V and J, so J must
    # be the derivative of V, and u's closures must be consistent
    pieces = _assemble_pieces(k, _disk_params(k))
    classifier = _classifier_from_pieces(pieces)

    def u_order(order):
        return lambda pts: pieces.u(pts, _radius(pts), (order,))[0]

    pairs = {
        "jacobian": (classifier.value, lambda pts: classifier.jacobian(pts)[1]),
        "hess_u": (u_order(1), u_order(2)),
        "grad_u": (u_order(0), u_order(1)),
    }
    for region, pts in disk_regions(k).items():
        for name, (fn, derivative) in pairs.items():
            exact = derivative(pts)
            err = np.abs(central_difference(fn, pts) - exact).max()
            assert err <= 1e-7 * max(1.0, np.abs(exact).max()), (region, name, err)


# -- reference: the two-pass classifier over dense bumps ----------------------------


def ref_smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def ref_smoothstep_d1(t):
    inside = (t > 0.0) & (t < 1.0)
    tc = np.clip(t, 0.0, 1.0)
    return np.where(inside, 30.0 * tc * tc * (1.0 - tc) * (1.0 - tc), 0.0)


def ref_smoothstep_d2(t):
    inside = (t > 0.0) & (t < 1.0)
    tc = np.clip(t, 0.0, 1.0)
    return np.where(inside, 60.0 * tc * (2.0 * tc - 1.0) * (tc - 1.0), 0.0)


# every nonempty set of derivative orders, each in increasing order
ORDER_SUBSETS = [o for n in range(1, 4) for o in itertools.combinations((0, 1, 2), n)]

SMOOTHSTEP_POINTS = [
    -np.inf, -1.0, -0.0, 0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0, 1.5, np.inf, np.nan
]


@pytest.mark.parametrize("orders", [(), *ORDER_SUBSETS, (2, 0)], ids=str)
def test_band_limited_smoothstep_is_bit_identical_to_clipped_formulas(orders):
    # in and out of the band, the band's edges, signed zeros, infinities and
    # NaN, flat and in a batched shape, and no points
    t = np.array(SMOOTHSTEP_POINTS)
    refs = (ref_smoothstep, ref_smoothstep_d1, ref_smoothstep_d2)
    for batch in (t, np.resize(t, (3, 11)).T.copy(), t[:0], np.array(0.5)):
        jets = _smoothstep_jet(batch, orders)
        assert len(jets) == len(orders)
        for order, jet in zip(orders, jets):
            assert bitwise_equal(jet, refs[order](batch)), (order, batch)


@pytest.mark.parametrize(
    "radius, n", [(0.98, 161), (0.98, 41), (1.0, 281), (0.98, 25), (0.5, 3), (1.0, 1), (1.0, 0)]
)
def test_disk_grid_is_the_masked_meshgrid(radius, n):
    # the seed, portrait and contact grids hold rim points with norm exactly radius
    axis = np.linspace(-radius, radius, n)
    P, Q = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([P.reshape(-1), Q.reshape(-1)], axis=-1)
    assert bitwise_equal(_disk_grid(radius, n), pts[np.linalg.norm(pts, axis=-1) <= radius])


def test_plane_norms_are_bit_identical_to_linalg_norm():
    rng = np.random.default_rng(1)
    scale = 10.0 ** rng.integers(-160, 160, (5000, 1))
    odd = [[np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0], [-0.0, -0.0], [1e308, 1e308], [1e-320, 0.0]]
    v = np.concatenate([rng.normal(size=(5000, 2)) * scale, odd])
    with np.errstate(over="ignore"):
        assert bitwise_equal(_plane_norms(v), np.linalg.norm(v, axis=-1))
        batched = v.reshape(-1, 2, 2)
        assert bitwise_equal(_plane_norms(batched), np.linalg.norm(batched, axis=-1))


def dense_gaussian_bundle(centers, amplitude, width, t0, t1):
    """Reference bundle: every bump evaluated at every point."""
    w2 = width * width
    fade_lo = t0 * width
    fade_w = (t1 - t0) * width

    def per_bump(pts, center):
        dp = pts[..., 0] - center[0]
        dq = pts[..., 1] - center[1]
        d = np.hypot(dp, dq)
        E = np.exp(-0.5 * d * d / w2)
        t = (d - fade_lo) / fade_w
        chi = 1.0 - ref_smoothstep(t)
        chi_d1 = -ref_smoothstep_d1(t) / fade_w
        chi_d2 = -ref_smoothstep_d2(t) / (fade_w * fade_w)
        E_d1 = -(d / w2) * E
        E_d2 = (d * d / (w2 * w2) - 1.0 / w2) * E
        g = E * chi
        g1 = E_d1 * chi + E * chi_d1
        g2 = E_d2 * chi + 2.0 * E_d1 * chi_d1 + E * chi_d2
        return dp, dq, d, g, g1, g2

    def value(pts):
        out = np.zeros(pts.shape[:-1])
        for center in centers:
            out = out + amplitude * per_bump(pts, center)[3]
        return out

    def grad(pts):
        out = np.zeros(pts.shape[:-1] + (2,))
        for center in centers:
            dp, dq, d, _, g1, _ = per_bump(pts, center)
            safe = np.maximum(d, 1e-30)
            out[..., 0] += amplitude * g1 * dp / safe
            out[..., 1] += amplitude * g1 * dq / safe
        return out

    def hess(pts):
        out = np.zeros(pts.shape[:-1] + (2, 2))
        for center in centers:
            dp, dq, d, _, g1, g2 = per_bump(pts, center)
            near = d < 1e-9
            safe = np.maximum(d, 1e-30)
            up, uq = dp / safe, dq / safe
            radial = g1 / safe
            hpp = np.where(near, g2, g2 * up * up + radial * uq * uq)
            hqq = np.where(near, g2, g2 * uq * uq + radial * up * up)
            hpq = np.where(near, 0.0, (g2 - radial) * up * uq)
            out[..., 0, 0] += amplitude * hpp
            out[..., 1, 1] += amplitude * hqq
            out[..., 0, 1] += amplitude * hpq
            out[..., 1, 0] += amplitude * hpq
        return out

    return value, grad, hess


def ref_ramps(ramps, final):
    """Value and first-derivative closures of 0 + smoothstep ramps."""

    def value(rho):
        out = np.full(np.shape(rho), 0.0)
        for a, b, jump in ramps:
            out = out + jump * ref_smoothstep((rho - a) / (b - a))
        return np.where(rho >= ramps[-1][1], final, out)

    def d1(rho):
        out = np.zeros(np.shape(rho))
        for a, b, jump in ramps:
            out = out + (jump / (b - a)) * ref_smoothstep_d1((rho - a) / (b - a))
        return out

    return value, d1


@functools.lru_cache(maxsize=None)
def reference_disk(k):
    """The disk classifier of k twists with u, grad u and hess u as
    separate closures, and V and J computed in separate passes."""
    params = _disk_params(k)
    e = (k + 1) // 2
    width = params["width"]
    offsets = (np.arange(e) - 0.5 * (e - 1)) * (params["spacing"] * width)
    centers = np.stack([offsets, np.zeros(e)], axis=-1)
    g_val, g_grad, g_hess = dense_gaussian_bundle(
        centers, params["amplitude"], width, *params["trunc"]
    )
    one_plus = 1.0 + params["floor"]
    wall_lo, wall_hi = params["wall"]

    def u(pts):
        rho = np.hypot(pts[..., 0], pts[..., 1])
        t = (rho - wall_lo) / (wall_hi - wall_lo)
        return 1.0 - one_plus * (1.0 - ref_smoothstep(t)) + g_val(pts)

    def wall_d(rho):
        t = (rho - wall_lo) / (wall_hi - wall_lo)
        d = wall_hi - wall_lo
        return one_plus * ref_smoothstep_d1(t) / d, one_plus * ref_smoothstep_d2(t) / (d * d)

    def grad_u(pts):
        rho = np.hypot(pts[..., 0], pts[..., 1])
        w1, _ = wall_d(rho)
        safe = np.maximum(rho, 1e-30)
        out = g_grad(pts)
        out[..., 0] += w1 * pts[..., 0] / safe
        out[..., 1] += w1 * pts[..., 1] / safe
        return out

    def hess_u(pts):
        rho = np.hypot(pts[..., 0], pts[..., 1])
        w1, w2 = wall_d(rho)
        safe = np.maximum(rho, 1e-30)
        up, uq = pts[..., 0] / safe, pts[..., 1] / safe
        radial = w1 / safe
        out = g_hess(pts)
        out[..., 0, 0] += w2 * up * up + radial * uq * uq
        out[..., 1, 1] += w2 * uq * uq + radial * up * up
        out[..., 0, 1] += (w2 - radial) * up * uq
        out[..., 1, 0] += (w2 - radial) * up * uq
        return out

    ca, cb = params["c_on"][0] * width, params["c_on"][1] * width
    c_fn, c1_fn = ref_ramps(
        ((ca, cb, -params["c_dip"]), (*params["c_rise"], 1.0 + params["c_dip"])), 1.0
    )
    s_fn, s1_fn = ref_ramps(((ca, cb, params["swirl"]), (*params["s_fall"], -params["swirl"])), 0.0)

    def value(pts):
        pts = np.asarray(pts, float)
        rho = np.hypot(pts[..., 0], pts[..., 1])
        safe = np.maximum(rho, 1e-30)
        g = grad_u(pts)
        c = c_fn(rho)
        s = s_fn(rho)
        vp = g[..., 0] - c * pts[..., 0] - s * pts[..., 1] / safe
        vq = g[..., 1] - c * pts[..., 1] + s * pts[..., 0] / safe
        return np.stack([vp, vq], axis=-1)

    def jacobian(pts):
        pts = np.asarray(pts, float)
        p, q = pts[..., 0], pts[..., 1]
        rho = np.hypot(p, q)
        safe = np.maximum(rho, 1e-30)
        c, c1, s, s1 = c_fn(rho), c1_fn(rho), s_fn(rho), s1_fn(rho)
        J = hess_u(pts)
        J[..., 0, 0] -= c + c1 * p * p / safe
        J[..., 1, 1] -= c + c1 * q * q / safe
        J[..., 0, 1] -= c1 * p * q / safe
        J[..., 1, 0] -= c1 * p * q / safe
        r3 = safe * safe * safe
        J[..., 0, 0] += -s1 * q * p / (safe * safe) + s * q * p / r3
        J[..., 0, 1] += -s1 * q * q / (safe * safe) + s * (q * q / r3 - 1.0 / safe)
        J[..., 1, 0] += s1 * p * p / (safe * safe) + s * (1.0 / safe - p * p / r3)
        J[..., 1, 1] += s1 * p * q / (safe * safe) - s * p * q / r3
        return value(pts), J

    return ClassifierField(value, jacobian, u), grad_u, hess_u


@pytest.mark.parametrize("k", [3, 7, 19])
def test_one_pass_classifier_is_bit_identical_to_two_pass_reference(k):
    pieces = _assemble_pieces(k, _disk_params(k))
    classifier = _classifier_from_pieces(pieces)
    reference, grad_u, hess_u = reference_disk(k)
    regions = {**disk_regions(k), "band edges": band_edges(k)}
    regions["disk grid"] = _disk_grid(0.98, 161)
    for region, pts in regions.items():
        V = classifier.value(pts)
        fused_V, J = classifier.jacobian(pts)
        again_V, again_J = classifier.jacobian(pts)
        assert bitwise_equal(V, reference.value(pts)), region
        assert bitwise_equal(fused_V, V), region
        assert bitwise_equal(again_V, V), region
        assert bitwise_equal(J, reference.jacobian(pts)[1]), region
        assert bitwise_equal(again_J, J), region
        assert bitwise_equal(classifier.level(pts), reference.level(pts)), region
        refs = (reference.level(pts), grad_u(pts), hess_u(pts))
        for orders in ORDER_SUBSETS:
            for order, jet in zip(orders, pieces.u(pts, _radius(pts), orders)):
                assert bitwise_equal(jet, refs[order]), (region, orders)
    seeds = pieces.seeds
    assert bitwise_equal(_newton_points(classifier, seeds), dense_newton_points(reference, 60, seeds=seeds))


def counted_classifier(k, points=None):
    """A fresh disk classifier and the list of its passes: "jacobian" for
    the V and J pass, "value" for the V-only pass.  A ``points`` list, if
    given, collects a copy of the points of each pass."""
    pieces = _assemble_pieces(k, _disk_params(k))
    passes = []
    kinds = {(1,): "value", (1, 2): "jacobian"}

    def u(pts, rho, orders):
        passes.append(kinds.get(tuple(orders), "level"))
        if points is not None:
            points.append(np.array(pts, copy=True))
        return pieces.u(pts, rho, orders)

    return _classifier_from_pieces(dataclasses.replace(pieces, u=u)), passes


def test_final_residual_test_is_one_value_pass_over_every_end_point():
    points = []
    classifier, passes = counted_classifier(7, points)
    report = disk_search(7, classifier)
    ends = _newton_points(search_field("k7"), disk_pieces(7).seeds)
    # every round and the classification run the jacobian pass; the final
    # |V| test is the one V-only pass, over the end points as the search
    # returns them
    assert passes.count("value") == 1
    assert bitwise_equal(points[passes.index("value")], ends)
    assert len(report.zeros) == 7


@pytest.mark.parametrize("k", [3, 7, 19])
def test_search_takes_v_and_j_from_one_call_per_newton_round(k):
    # the classifier wrapped as perfbench's tracer wraps it: each call is
    # recorded with its kind and point count, and its result passes through
    classifier = search_field(f"k{k}")
    calls = []

    def counting(kind, fn):
        def inner(pts):
            calls.append((kind, len(pts)))
            return fn(pts)

        return inner

    counted = ClassifierField(
        counting("value", classifier.value),
        counting("jacobian", classifier.jacobian),
        classifier.level,
    )
    report = disk_search(k, counted)
    assert repr(report) == repr(disk_search(k))
    # a jacobian call per round, the final |V| test, then the zeros' call
    rounds = len(calls) - 2
    assert 1 <= rounds <= foliation._NEWTON_ROUNDS
    assert [kind for kind, _ in calls] == ["jacobian"] * rounds + ["value", "jacobian"]
    sizes = [n for _, n in calls]
    seeds = len(disk_pieces(k).seeds)
    assert sizes[0] == sizes[rounds] == seeds
    # the active set only shrinks, and a round runs only while it is nonempty
    assert all(a >= b > 0 for a, b in zip(sizes[:rounds], sizes[1:rounds]))
    assert sizes[-1] == len(report.zeros) == k


NON_FINITE_ROWS = np.array(
    [[np.nan, 0.0], [0.2, np.nan], [np.nan, np.nan], [np.inf, 0.0], [-np.inf, 0.1],
     [0.0, np.inf], [0.1, -np.inf], [np.inf, np.nan], [np.inf, -np.inf]]
)


@pytest.mark.parametrize("k", [3, 7])
def test_non_finite_rows_stay_non_finite_and_never_pass_the_residual_test(k, monkeypatch):
    classifier = search_field(f"k{k}")
    with np.errstate(invalid="ignore"):
        assert (~np.isfinite(classifier.value(NON_FINITE_ROWS))).any(axis=-1).all()
        V, _ = classifier.jacobian(NON_FINITE_ROWS)
        assert (~np.isfinite(V)).any(axis=-1).all()
    # end points with non-finite rows, each twice, add no zero
    reference = disk_search(k)
    ends = _newton_points(classifier, disk_pieces(k).seeds)
    padded = np.concatenate([NON_FINITE_ROWS, ends, NON_FINITE_ROWS])
    monkeypatch.setattr(foliation, "_newton_points", lambda *_args: padded)
    with np.errstate(invalid="ignore"):
        report = disk_search(k)
    assert repr(report) == repr(reference)


def v_only_inputs():
    """Every point set the disk code passes to the classifier's ``value``
    alone, and odd points."""
    t = np.linspace(0.0, math.tau, 2048, endpoint=False)
    return {
        "seed grid": _disk_grid(0.98, 161),
        "portrait grid": _disk_grid(0.98, 41),
        "boundary annulus": _annulus_grid(0.8, 1.0, 24, 128),
        "winding circle": 0.9 * np.stack([np.cos(t), np.sin(t)], axis=-1),
        "odd points": np.array(
            [[np.nan, 0.0], [0.2, np.nan], [-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0],
             [-0.0, 0.45], [np.inf, 0.0], [0.0, -np.inf]]
        ),
        "empty": np.zeros((0, 2)),
        "batched": _disk_grid(0.98, 41)[:1200].reshape(40, 30, 2),
    }


@pytest.mark.parametrize("k", range(1, 20, 2))
def test_value_only_pass_is_bit_identical_to_the_fused_pass(k):
    if k == 1:
        classifier, passes = construct_xi_prime(1).classifier, None
    else:
        classifier, passes = counted_classifier(k)
    for region, pts in v_only_inputs().items():
        before = len(passes) if passes is not None else 0
        with np.errstate(invalid="ignore"):  # the odd points give NaN
            alone = classifier.value(pts)
            fused, _ = classifier.jacobian(pts)
        assert bitwise_equal(alone, fused), region
        if passes is not None:
            assert passes[before:] == ["value", "jacobian"], region


@pytest.mark.parametrize("layout", ["disk-k7", "scattered", "disk-k19"])
def test_local_gaussian_bundle_is_bit_identical_to_dense_sum(layout):
    rng = np.random.default_rng(5)
    k = 19 if layout == "disk-k19" else 7
    params = _disk_params(k)
    width = params["width"]
    t0, t1 = params["trunc"]
    if layout == "scattered":
        centers = rng.uniform(-0.5, 0.5, (5, 2))
    else:
        e = (k + 1) // 2
        offsets = (np.arange(e) - 0.5 * (e - 1)) * params["spacing"] * width
        centers = np.stack([offsets, np.zeros(e)], axis=-1)
    # uniform points, points just inside and just outside each bump's reach,
    # far points, and the centers themselves
    angles = rng.uniform(0.0, math.tau, (len(centers), 200))
    radii = t1 * width * (1.0 + 1e-12 * rng.choice([-1.0, 1.0], angles.shape))
    rim = centers[:, None, :] + radii[..., None] * np.stack([np.cos(angles), np.sin(angles)], -1)
    far = rng.uniform(2.0, 50.0, (300, 1)) * rng.choice([-1.0, 1.0], (300, 2))
    pts = np.concatenate([rng.uniform(-1.0, 1.0, (2000, 2)), rim.reshape(-1, 2), far, centers])

    bundle = _gaussian_bundle(centers, 0.85, width, t0, t1)
    refs = dense_gaussian_bundle(centers, 0.85, width, t0, t1)
    # flat and batched shapes; far points alone and no points reach no bump;
    # each set of orders is its own pass, the gradient-only one included
    for batch in (pts, pts[:2000].reshape(40, 50, 2), far, pts[:0]):
        for orders in ORDER_SUBSETS:
            jets = bundle(batch, orders)
            assert len(jets) == len(orders)
            for order, jet in zip(orders, jets):
                assert bitwise_equal(jet, refs[order](batch)), (orders, order)


def test_disk_form_k1_is_exact():
    d = disk(1)
    assert d.certificates["boundary_residual"] == 0.0
    assert d.certificates["contact_min"] == pytest.approx(2.0)


@pytest.mark.parametrize("bad", [0, 2, 4, -3])
def test_disk_form_rejects_bad_twisting(bad):
    with pytest.raises(ValueError):
        construct_xi_prime(bad)


@pytest.mark.parametrize("k", [21, 41])
def test_disk_form_refuses_k_beyond_19_before_building(k, monkeypatch):
    def build(*_args):
        raise AssertionError("a disk was built")

    monkeypatch.setattr("engelbook.foliation._build_disk_form", build)
    with pytest.raises(ValueError, match="up to 19"):
        construct_xi_prime(k)


def retired_base_params(k):
    """The base parameter set that the retired search started from."""
    e = (k + 1) // 2
    return {
        "width": 0.3 / (1.6 * (e - 1) + 6.0),
        "spacing": 3.2,
        "amplitude": 0.85,
        "floor": 0.6,
        "c_dip": 0.2,
        "swirl": 0.3,
        "c_on": (2.5, 5.0),
        "wall": (0.40, 0.60),
        "c_rise": (0.50, 0.68),
        "s_fall": (0.70, 0.80),
        "trunc": (5.0, 6.0),
        "exact_radius": 0.80,
    }


RETIRED_TWEAKS = (
    {},
    {"amplitude": 0.9, "floor": 0.55},
    {"width_scale": 0.9},
    {"spacing": 3.4},
    {"width_scale": 0.85, "spacing": 3.0, "c_dip": 0.25},
)


def retired_search(k):
    """Reference: the retired retry search; the first passing attempt wins.
    An attempt whose zero count cannot be proven (its extra zeros lie
    where no design seed reaches) does not pass.

    Returns the attempt number (from 1) and the winning disk."""
    expected = {"e_plus": (k + 1) // 2, "e_minus": 0, "h_plus": 0, "h_minus": (k - 1) // 2}
    for attempt, tweak in enumerate(RETIRED_TWEAKS, start=1):
        params = {**retired_base_params(k), **tweak}
        params["width"] *= params.pop("width_scale", 1.0)
        try:
            d = _build_disk_form(k, params, expected)
        except ValueError as err:
            assert "no proof that the box" in str(err)
            continue
        if d.passed:
            return attempt, d
    raise AssertionError(f"no attempt passed at k = {k}")


@pytest.mark.parametrize("k, attempt", [(17, 3), (19, 5)])
def test_one_parameter_set_equals_retired_search_winner(k, attempt):
    won_at, ref = retired_search(k)
    assert won_at == attempt
    d = disk(k)
    assert repr(d.params) == repr(ref.params)
    assert repr(d.certificates) == repr(ref.certificates)
    assert repr(d.singularities.zeros) == repr(ref.singularities.zeros)
    assert repr(portrait_rows(d)) == repr(portrait_rows(ref))
