"""Pullbacks, slopes, leaf tracing, and the disk constructor."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelbook import foliation
from engelbook.charts import Chart, Interval
from engelbook.foliation import (
    _REPLAY_CHUNK,
    _TRAP_CANDIDATE,
    _TRAP_MARGIN,
    ClassifierField,
    SingularityReport,
    SliceEmbedding,
    _annulus_grid,
    _assemble_pieces,
    _build_disk_form,
    _classifier_from_pieces,
    _contact_coefficient,
    _disk_grid,
    _disk_params,
    _Enclosure,
    _gaussian_bundle,
    _newton_points,
    _newton_trap,
    _plane_norms,
    _radius,
    _shell_newton_radius,
    _smoothstep_jet,
    _trace_leaves,
    annulus_foliation_check,
    boundary_winding_vs_index,
    classifier_boundary_winding,
    construct_xi_prime,
    find_and_classify,
    torus_slope,
    trace_leaf,
)
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


def band_mask(lo, hi):
    return lambda z: (lo < z[:, 1]) & (z[:, 1] < hi)


def kernel_direction(pulled):
    """Reference kernel direction: one closure per component, then a stack."""
    c1, c2 = (ref_compile(c) for c in pulled.components)
    return lambda pts: np.stack([-c2(pts), c1(pts)], axis=-1)


def dense_annulus_check(pulled, v_range):
    """Reference annulus check on the reference tracer.

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


def assert_same_traces(batch, dense):
    ends, exited, n_steps = batch
    dense_ends = np.array([d[0] for d in dense]).reshape(-1, 2)
    assert np.array_equal(ends.view(np.int64), dense_ends.view(np.int64))
    assert exited.tolist() == [d[1] for d in dense]
    assert n_steps.tolist() == [d[2] for d in dense]


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
    # both components vary, so every row norm sums two nonzero squares
    "wavy": lambda: (
        ANNULUS.one_form({"u": "1 + 0.2*cos(u)", "v": "0.3*v*sin(u)"}),
        (0.05, 0.95),
    ),
    "s3_openbook": lambda: catalog_annulus("s3_openbook"),
    "stabilization_local": lambda: catalog_annulus("stabilization_local"),
}


@pytest.mark.parametrize("case", LEAF_CASES)
def test_batched_tracer_is_bit_identical_to_one_leaf_loop(case):
    pulled, (lo, hi) = LEAF_CASES[case]()
    leaves, retraces, dense_report = dense_annulus_check(pulled, (lo, hi))
    direction = kernel_direction(pulled)
    wrap = tuple(c.is_angular for c in pulled.chart.coords)
    seeds = np.stack([np.linspace(0.0, math.tau, 8, endpoint=False), np.full(8, 0.5 * (lo + hi))], -1)
    n_max = int(math.ceil(50.0 * (hi - lo) / 1e-3))

    batch = _trace_leaves(
        direction,
        np.concatenate([seeds, seeds]),
        np.repeat([1.0, -1.0], 8),
        1e-3,
        np.full(16, n_max),
        band_mask(lo, hi),
        wrap,
    )
    assert_same_traces(batch, leaves)
    ends, exited, n_steps = batch
    retrace = functools.partial(
        _trace_leaves,
        direction,
        ends[:8][exited[:8]],
        np.full(exited[:8].sum(), -1.0),
        1e-3,
        n_steps[:8][exited[:8]],
    )
    back = retrace(lambda z: np.ones(len(z), bool), wrap)
    assert_same_traces(back, retraces)
    # no mask at all is the same as a mask that is always true
    assert_same_traces(retrace(None, wrap), retraces)

    report = annulus_foliation_check(pulled, (lo, hi))
    assert repr(report) == repr(dense_report)
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
    step, wrap = 1e-2, (True, False)

    dense = [
        dense_trace_leaf(signed(mixed_direction, s), z, step, int(n), lambda z: 0.1 < z[1] < 0.9, wrap)
        for z, s, n in zip(starts, signs, budgets)
    ]
    batch = _trace_leaves(mixed_direction, starts, signs, step, budgets, band_mask(0.1, 0.9), wrap)
    assert_same_traces(batch, dense)
    _, exited, n_steps = batch
    # every way of finishing occurs in the one call: rows 0 and 6 exit,
    # rows 1 and 4 close up after one turn, rows 2, 3 and 5 spend their
    # budgets
    assert exited.tolist() == [True, False, False, False, False, False, True]
    assert n_steps.tolist() == [61, 628, 50, 2000, 628, 0, 96]

    # trace_leaf is the one-row call of the same loop; an arc of n - 1/2
    # steps is a budget of ceil(n - 1/2) = n steps
    for z, s, n, d in zip(starts, signs, budgets, dense):
        arc = max(n - 0.5, 0.0) * step
        end, out, steps = trace_leaf(
            signed(mixed_direction, s), z, step, arc, lambda z: 0.1 < z[1] < 0.9, wrap
        )
        assert_same_traces((end[None, :], np.array([out]), np.array([steps])), [d])
        assert type(out) is bool and type(steps) is int


def test_direction_returning_one_buffer_traces_like_one_leaf_loop():
    # the tracer must not write into what direction returns: here every
    # call with the same number of rows returns the same array object
    buffers = {}

    def buffered(pts):
        buf = buffers.setdefault(pts.shape, np.empty(pts.shape))
        buf[...] = mixed_direction(pts)
        return buf

    starts = np.array([[0.0, 0.6], [1.0, 0.5], [3.0, 0.45], [0.5, 0.52]])
    signs = np.array([1.0, 1.0, -1.0, 1.0])
    step, wrap = 1e-2, (True, False)
    dense = [
        dense_trace_leaf(signed(mixed_direction, s), z, step, 700, lambda z: 0.1 < z[1] < 0.9, wrap)
        for z, s in zip(starts, signs)
    ]
    batch = _trace_leaves(buffered, starts, signs, step, np.full(4, 700), band_mask(0.1, 0.9), wrap)
    assert_same_traces(batch, dense)


def test_leaf_ending_at_a_non_finite_point_does_not_cross():
    # every seed sits on v = 0, the pole of v^-2 du, where the direction is
    # not finite, so no leaf may count as crossing
    chart = Chart.make("pole-annulus", [("u", KIND_ANGULAR), ("v", KIND_POLYNOMIAL, Interval(-0.5, 0.5))])
    pole = chart.one_form({"u": "v^-2"})
    with np.errstate(divide="ignore", invalid="ignore"):
        report = annulus_foliation_check(pole, (-0.4, 0.4))
    assert not report.passed
    assert report.min_gap == 0.0
    assert len(report.failures) == min(8, MAX_FAILURES)

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
        _trace_leaves(
            direction, starts, np.ones(3), 1e-3, np.full(3, 10),
            lambda z: np.ones(len(z), bool), (True, False),
        )
    with pytest.raises(ValueError, match="vanishes"):
        dense_trace_leaf(direction, starts[1], 1e-3, 10, lambda z: True, (True, False))
    for z in starts[[0, 2]]:
        dense_trace_leaf(direction, z, 1e-3, 10, lambda z: True, (True, False))

    # 1 + cos(u) vanishes at the seed u = pi, one of the eight
    vanishing = ANNULUS.one_form({"u": "1 + cos(u)", "v": 0.0})
    with pytest.raises(ValueError, match="vanishes"):
        dense_annulus_check(vanishing, (0.05, 0.95))
    with pytest.raises(ValueError, match="vanishes"):
        annulus_foliation_check(vanishing, (0.05, 0.95))


@pytest.mark.parametrize("high, far", [(np.nan, np.nan), (np.inf, -np.inf)], ids=["nan", "inf"])
def test_leaves_turning_non_finite_trace_like_one_leaf_loop(high, far):
    # mixed_direction, but `high` in both components above v = 0.72 and
    # `far` in the v component beyond u = 4.4, so some rows turn non-finite
    # partway along, both before step 101 and after
    def direction(pts):
        out = mixed_direction(pts)
        out[pts[..., 1] > 0.72] = high
        out[..., 1][pts[..., 0] > 4.4] = far
        return out

    starts = np.array(
        [[0.0, 0.6], [1.0, 0.5], [3.0, 0.45], [4.0, 0.5], [0.5, 0.52], [5.0, 0.7], [4.35, 0.3]]
    )
    signs = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
    budgets = np.array([2000, 2000, 2000, 2000, 2000, 0, 2000])
    step, wrap = 1e-2, (True, False)
    for inside, dense_inside in [
        (band_mask(0.1, 0.9), lambda z: 0.1 < z[1] < 0.9),
        (None, lambda z: True),
    ]:
        batch = _trace_leaves(direction, starts, signs, step, budgets, inside, wrap)
        dense = [
            dense_trace_leaf(signed(direction, s), z, step, int(n), dense_inside, wrap)
            for z, s, n in zip(starts, signs, budgets)
        ]
        assert_same_traces(batch, dense)
        ends, exited, n_steps = batch
        # rows 0, 1, 4 and 6 turn non-finite, one of them after step 101;
        # a non-finite row is outside the band, and without a band it runs
        # on to its budget
        finite = np.isfinite(ends).all(axis=1)
        assert finite.tolist() == [False, False, True, True, False, True, False]
        if inside is None:
            assert n_steps[~finite].tolist() == [2000] * 4
        else:
            assert exited[~finite].all()
            assert n_steps[~finite].tolist() == [33, 341, 73, 6]


LEAF_FIELDS = {
    # the kernel of (1 + q cos u) du + (a + b v sin u) dv never vanishes
    # and always crosses the band
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
    """The tracer is the one-leaf loop, bit for bit, on starts within one
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
    c1, c2 = (ref_compile(c) for c in pulled.components)
    wrap = (True, False)
    for inside, dense_inside in [
        (band_mask(lo, hi), lambda z: lo < z[1] < hi),
        (None, lambda z: True),
    ]:
        dense = [
            dense_trace_leaf(signed(direction, s), z, step, int(n), dense_inside, wrap)
            for z, s, n in zip(starts, signs, budgets)
        ]
        assert_same_traces(_trace_leaves(direction, starts, signs, step, budgets, inside, wrap), dense)
        # the annulus check's form: (c2, c1) with the first column negated
        # by the signs
        assert_same_traces(
            _trace_leaves(
                lambda pts: np.stack([c2(pts), c1(pts)], -1),
                starts, signs[:, None] * [-1.0, 1.0], step, budgets, inside, wrap,
            ),
            dense,
        )


def straight_up(pts):
    return np.stack([np.zeros(pts.shape[:-1]), np.ones(pts.shape[:-1])], -1)


@pytest.fixture
def replayed(monkeypatch):
    """The mask of the rows that each call of the straight-leaf replay took."""
    masks = []
    replay = foliation._replay_straight

    def recording(*args):
        result = replay(*args)
        masks.append(result[0].tolist())
        return result

    monkeypatch.setattr(foliation, "_replay_straight", recording)
    return masks


def test_replay_stops_at_chunk_edges_like_one_leaf_loop():
    # v moves by about one step per step, so a start n - 1/2 steps below the
    # top exits on step n: the last step of the first chunk, the first of
    # the second, and the same at the bottom; two more rows spend budgets
    # that end on either side of the chunk edge
    step, lo, hi, c = 1e-3, 0.1, 0.9, _REPLAY_CHUNK
    starts = np.array(
        [[0.0, hi - (c - 0.5) * step], [1.0, hi - (c + 0.5) * step],
         [2.0, lo + (c - 0.5) * step], [3.0, lo + (c + 0.5) * step],
         [4.0, 0.5], [5.0, 0.5]]
    )
    signs = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
    budgets = np.array([2000, 2000, 2000, 2000, c, c + 1])
    wrap = (True, False)
    dense = [
        dense_trace_leaf(signed(straight_up, s), z, step, int(n), lambda z: lo < z[1] < hi, wrap)
        for z, s, n in zip(starts, signs, budgets)
    ]
    assert [d[2] for d in dense] == [c, c + 1, c, c + 1, c, c + 1]
    assert [d[1] for d in dense] == [True] * 4 + [False] * 2
    assert_same_traces(_trace_leaves(straight_up, starts, signs, step, budgets, band_mask(lo, hi), wrap), dense)


def test_replay_hands_a_leaf_whose_field_turns_to_the_loop(replayed):
    # the kernel (0, v - 0.3) of (v - 0.3) du flips sign at v = 0.3: the
    # backward leaf from v = 0.5003 runs down onto that circle and stalls
    # next to it, so its stage unit vectors stop being its first one; the
    # forward leaf is straight and crosses two chunks before it exits (a
    # start 200 steps above 0.3 would bring a stage point within rounding
    # of the circle, where the field vanishes)
    pulled = ANNULUS.one_form({"u": "v - 0.3"})
    direction = kernel_direction(pulled)
    starts = np.array([[0.0, 0.5003], [1.0, 0.5]])
    signs = np.array([-1.0, 1.0])
    step, budgets, wrap = 1e-3, np.array([600, 600]), (True, False)
    dense = [
        dense_trace_leaf(signed(direction, s), z, step, int(n), lambda z: 0.05 < z[1] < 0.95, wrap)
        for z, s, n in zip(starts, signs, budgets)
    ]
    batch = _trace_leaves(direction, starts, signs, step, budgets, band_mask(0.05, 0.95), wrap)
    assert_same_traces(batch, dense)
    assert replayed == [[False, True]]
    ends, exited, n_steps = batch
    assert exited.tolist() == [False, True] and n_steps.tolist() == [600, 450]
    assert abs(ends[0, 1] - 0.3) < step


def test_straight_leaf_vanishing_partway_raises_like_one_leaf_loop():
    # the unit vector is (0, 1) everywhere, but above v = 0.6 the field is
    # 1e-20 long; a leaf that exits below 0.6 never meets that part
    def direction(pts):
        out = straight_up(pts)
        out[pts[..., 1] >= 0.6] *= 1e-20
        return out

    step, wrap = 1e-3, (True, False)
    starts = np.array([[0.0, 0.3], [1.0, 0.5]])
    with pytest.raises(ValueError, match="vanishes"):
        _trace_leaves(direction, starts, np.ones(2), step, np.full(2, 800), band_mask(0.1, 0.9), wrap)
    with pytest.raises(ValueError, match="vanishes"):
        dense_trace_leaf(direction, starts[1], step, 800, lambda z: 0.1 < z[1] < 0.9, wrap)
    dense = [dense_trace_leaf(direction, z, step, 800, lambda z: 0.1 < z[1] < 0.59, wrap) for z in starts]
    batch = _trace_leaves(direction, starts, np.ones(2), step, np.full(2, 800), band_mask(0.1, 0.59), wrap)
    assert_same_traces(batch, dense)
    assert batch[1].all()


def test_replay_closes_a_slanted_constant_leaf_like_one_leaf_loop():
    # a constant field, slanted a little off the u circles: after one turn
    # of u the leaf is within half a step of its start, 700 steps on
    def slanted(pts):
        return np.broadcast_to([1.0, 5e-4], pts.shape).copy()

    step, wrap = math.tau / 700.3, (True, False)
    starts = np.array([[0.0, 0.5], [2.0, 0.3]])
    signs = np.array([1.0, -1.0])
    budgets = np.full(2, 2000)
    dense = [
        dense_trace_leaf(signed(slanted, s), z, step, 2000, lambda z: 0.1 < z[1] < 0.9, wrap)
        for z, s in zip(starts, signs)
    ]
    for inside in (band_mask(0.1, 0.9), None):
        assert_same_traces(_trace_leaves(slanted, starts, signs, step, budgets, inside, wrap), dense)
    assert [d[1] for d in dense] == [False, False]
    assert [d[2] for d in dense] == [700, 700]


def test_straight_and_curved_rows_in_one_call_trace_like_one_leaf_loop(replayed):
    # mixed_direction below v = 0.6, a slanted constant field above it: row
    # 0 is straight to its exit, row 1 runs straight down into the curved
    # part, row 2 is curved from its start, and row 3 circles on v = 0.5,
    # where the v component is 0, so its unit vector is (1, 0) throughout
    def direction(pts):
        out = mixed_direction(pts)
        out[pts[..., 1] > 0.6] = (0.3, 2.0)
        return out

    starts = np.array([[1.0, 0.7], [2.0, 0.65], [0.5, 0.52], [1.0, 0.5]])
    signs = np.array([1.0, -1.0, 1.0, 1.0])
    step, budgets, wrap = 1e-2, np.full(4, 2000), (True, False)
    dense = [
        dense_trace_leaf(signed(direction, s), z, step, 2000, lambda z: 0.1 < z[1] < 0.9, wrap)
        for z, s in zip(starts, signs)
    ]
    assert_same_traces(_trace_leaves(direction, starts, signs, step, budgets, band_mask(0.1, 0.9), wrap), dense)
    assert replayed == [[True, False, False, True]]
    # rows 0 and 2 exit, row 1 is drawn onto v = 0.5 and spends its budget,
    # and row 3 closes after one turn
    assert [d[1:] for d in dense] == [(True, 21), (False, 2000), (True, 79), (False, 628)]


@pytest.mark.parametrize("name", ["s3_openbook", "stabilization_local"])
def test_catalog_annulus_replays_in_a_few_direction_calls(monkeypatch, name):
    # stepping RK4 one step at a time was about 3,000 direction calls and
    # 380 band tests per check; the replay takes one direction call per
    # batch for the start and one per chunk, one band test per chunk, and
    # evaluates no point beyond the step that leaves the band
    calls, tests = [], []

    def counting(direction, starts, signs, step, max_steps, inside, wrap):
        def counted(pts):
            calls.append(np.array(pts))
            return direction(pts)

        def tested(z):
            tests.append(len(z))
            return inside(z)

        return _trace_leaves(
            counted, starts, signs, step, max_steps, None if inside is None else tested, wrap
        )

    monkeypatch.setattr(foliation, "_trace_leaves", counting)
    pulled, (lo, hi) = catalog_annulus(name)
    report = annulus_foliation_check(pulled, (lo, hi))
    assert report.passed
    assert len(calls) <= 6
    assert 0 < len(tests) <= 2
    v = np.concatenate(calls)[:, 1]
    step = report.details["step"]
    assert (lo - step <= v).all() and (v <= hi + step).all()


def test_catalog_annulus_runs_few_stop_tests(monkeypatch):
    # a test per step was 380 calls of inside in the forward and backward
    # batch; the replay tests the band once per chunk
    calls = []

    def counting(direction, starts, signs, step, max_steps, inside, wrap):
        def counted(z):
            calls.append(len(z))
            return inside(z)

        return _trace_leaves(
            direction, starts, signs, step, max_steps, None if inside is None else counted, wrap
        )

    monkeypatch.setattr(foliation, "_trace_leaves", counting)
    pulled, (lo, hi) = catalog_annulus("s3_openbook")
    report = annulus_foliation_check(pulled, (lo, hi))
    assert report.passed
    assert 0 < len(calls) <= 20

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


def dense_newton_points(classifier, newton_iters, stop=True, seed_radius=None):
    """Reference Newton rounds on the unit disk: every seed in every round.

    With ``stop``, as in the search, a seed freezes after the round that
    starts with |V| <= 1e-10 at it; without it every live seed runs every
    round.  With ``seed_radius``, only the grid points with rho at most it
    are seeds."""
    z = _disk_grid(0.98, 161)
    if seed_radius is not None:
        z = z[_radius(z) <= seed_radius]
    alive = np.ones(len(z), dtype=bool)
    frozen = np.zeros(len(z), dtype=bool)
    for _ in range(newton_iters):
        V = classifier.value(z)
        if not (alive & ~frozen).any():
            break
        J = classifier.jacobian(z)
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
        jac = classifier.jacobian(arr)
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
        return J

    def level(pts):
        return np.ones(np.asarray(pts, float).shape[:-1])

    return ClassifierField(value, jacobian, level)


@functools.lru_cache(maxsize=None)
def search_field(name):
    if name == "sink":
        return radial_sink()
    if name == "fold":
        return fold_field()
    k = int(name[1:])
    return _classifier_from_pieces(_assemble_pieces(k, _disk_params(k)))


@functools.lru_cache(maxsize=None)
def dense_search(name, newton_iters, stop=True, seed_radius=None):
    return dense_newton_points(search_field(name), newton_iters, stop, seed_radius)


def bitwise_equal(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("newton_iters", [1, 2, 60])
@pytest.mark.parametrize("name", ["k3", "k7", "sink", "fold"])
def test_active_set_search_is_bit_identical_to_dense_loop(name, newton_iters, monkeypatch):
    classifier = search_field(name)
    dense_z = dense_search(name, newton_iters)
    z = _newton_points(classifier, 161, newton_iters)
    assert bitwise_equal(z, dense_z)

    monkeypatch.setattr(foliation, "_NEWTON_ROUNDS", newton_iters)
    report = find_and_classify(classifier)
    zeros, counts, degenerate = dense_classify(classifier, dense_z)
    assert repr(report.zeros) == repr(zeros)
    assert report.counts == counts
    assert report.degenerate == degenerate
    if newton_iters == 60:
        assert len(zeros) == {"k3": 3, "k7": 7, "sink": 1, "fold": 2}[name]


@pytest.mark.parametrize("k", [3, 7, 19])
def test_stop_rule_finds_the_zeros_of_the_stop_free_loop(k):
    # converged seeds stop instead of moving their last bits for the rest of
    # the 60 rounds; the zeros may move by those bits and nothing more
    classifier = search_field(f"k{k}")
    report = find_and_classify(classifier, trap=disk_trap(k))
    zeros, counts, degenerate = dense_classify(classifier, dense_search(f"k{k}", 60, stop=False))
    assert report.counts == counts
    assert report.degenerate == degenerate
    assert [(z["type"], z["sign"]) for z in report.zeros] == [(z["type"], z["sign"]) for z in zeros]
    for found, free in zip(report.zeros, zeros):
        assert abs(found["p"] - free["p"]) <= 1e-15 and abs(found["q"] - free["q"]) <= 1e-15


@functools.lru_cache(maxsize=None)
def disk_trap(k):
    params = _disk_params(k)
    return _newton_trap(params, _assemble_pieces(k, params).cluster_end)


def newton_step(classifier, z):
    """One float Newton step from each point, with the search's arithmetic."""
    J = classifier.jacobian(z)
    V = classifier.value(z)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    step_p = (J[:, 1, 1] * V[:, 0] - J[:, 0, 1] * V[:, 1]) / det
    step_q = (-J[:, 1, 0] * V[:, 0] + J[:, 0, 0] * V[:, 1]) / det
    return z - np.stack([step_p, step_q], axis=-1)


@pytest.mark.parametrize("k", range(3, 20, 2))
def test_newton_trap_keeps_every_zero(k):
    classifier = search_field(f"k{k}")
    assert disk_trap(k) == _TRAP_CANDIDATE
    plain = find_and_classify(classifier)
    trapped = find_and_classify(classifier, trap=disk_trap(k))
    assert repr(trapped.zeros) == repr(plain.zeros)
    assert trapped.counts == plain.counts
    assert trapped.degenerate == plain.degenerate


@pytest.mark.parametrize("name", ["k3", "k7", "k19"])
def test_seeds_the_trap_drops_end_in_it_after_every_round(name):
    # the dense loop iterates the dropped seeds for all 60 rounds, and the
    # trap must hold each of them to the end
    a, b = disk_trap(int(name[1:]))
    z = _newton_points(search_field(name), 161, 60, (a, b))
    dense_z = dense_search(name, 60)
    differ = (z.view(np.int64) != dense_z.view(np.int64)).any(axis=-1)
    assert differ.sum() > 1000
    for ends in (z[differ], dense_z[differ]):
        rho = _plane_norms(ends)
        assert ((a < rho) & (rho < b)).all()


def cluster_end(k):
    return _assemble_pieces(k, _disk_params(k)).cluster_end


@pytest.mark.parametrize("k", [3, 11, 17, 19])
def test_cluster_seeded_search_is_bit_identical_to_dense_loop(k):
    # the seeds inside cluster_end, in grid order, end where the dense loop
    # on those seeds ends them and where the whole-grid search ends them,
    # except that a seed the trap drops ends inside it
    name, radius = f"k{k}", cluster_end(k)
    a, b = disk_trap(k)
    z = _newton_points(search_field(name), 161, 60, (a, b), radius)
    dense_z = dense_search(name, 60, seed_radius=radius)
    grid = _disk_grid(0.98, 161)
    inside = _radius(grid) <= radius
    assert len(z) == len(dense_z) == inside.sum() < len(grid) // 10
    whole = _newton_points(search_field(name), 161, 60, (a, b))
    assert bitwise_equal(z, whole[inside])
    differ = (z.view(np.int64) != dense_z.view(np.int64)).any(axis=-1)
    assert differ.any()
    for ends in (z[differ], dense_z[differ]):
        rho = _plane_norms(ends)
        assert ((a < rho) & (rho < b)).all()


@pytest.mark.parametrize("k", range(3, 22, 2))
def test_cluster_seeds_find_the_zeros_of_the_whole_grid(k, monkeypatch):
    # k = 21 is past the supported range: it has off-axis zero pairs, which
    # lie inside cluster_end too
    params = _disk_params(k)
    expected = {"e_plus": (k + 1) // 2, "e_minus": 0, "h_plus": 0, "h_minus": (k - 1) // 2}
    seeded = _build_disk_form(k, params, expected)
    search = foliation.find_and_classify

    def whole_grid_search(classifier, trap, seed_radius):
        return search(classifier, trap=trap)

    monkeypatch.setattr(foliation, "find_and_classify", whole_grid_search)
    whole = _build_disk_form(k, params, expected)
    cut, full = seeded.singularities, whole.singularities
    assert cut.counts == full.counts
    assert cut.degenerate == full.degenerate
    kinds = [[(z["type"], z["sign"]) for z in report.zeros] for report in (cut, full)]
    assert kinds[0] == kinds[1]
    for found, ref in zip(cut.zeros, full.zeros):
        assert abs(found["p"] - ref["p"]) <= 1e-15 and abs(found["q"] - ref["q"]) <= 1e-15
    assert repr(seeded.certificates) == repr(whole.certificates)
    assert seeded.passed == (k <= 19)
    if k == 21:
        assert cut.counts == {"e_plus": 11, "e_minus": 2, "h_plus": 0, "h_minus": 12}


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


@pytest.mark.parametrize("k", [3, 19])
def test_shell_radius_encloses_the_float_newton_step(k):
    # 500 radii by 200 angles inside the trap; k = 19 has a deeper c dip
    a, b = disk_trap(k)
    radii, angles = np.meshgrid(
        np.linspace(a, b, 502)[1:-1], np.linspace(0.0, math.tau, 200, endpoint=False), indexing="ij"
    )
    z = np.stack([(radii * np.cos(angles)).ravel(), (radii * np.sin(angles)).ravel()], axis=-1)
    image = _plane_norms(newton_step(search_field(f"k{k}"), z))
    rho = _plane_norms(z)
    f, df, R = _shell_newton_radius(_disk_params(k), _Enclosure(rho, rho))
    assert (f.lo > 0.0).all() and (df.lo > 0.0).all()
    # a point enclosure is tight, so the comparison below has teeth
    assert (R.hi - R.lo).max() < 1e-12
    gap = np.maximum(np.maximum(R.lo - image, image - R.hi), 0.0)
    assert gap.max() < 1e-3 * _TRAP_MARGIN
    assert ((a + _TRAP_MARGIN <= image) & (image <= b - _TRAP_MARGIN)).all()


def test_newton_trap_refuses_what_it_cannot_prove():
    params = _disk_params(3)
    cluster_end = _assemble_pieces(3, params).cluster_end
    # reaches the foot of the wall ramp
    assert _newton_trap(params, cluster_end, (0.40, 0.46)) is None
    # inside the shell, but steps from (0.405, 0.46) leave through its outer
    # edge, and steps into (0.4121, 0.444) come as low as 0.412093
    assert _newton_trap(params, cluster_end, (0.405, 0.46)) is None
    assert _newton_trap(params, cluster_end, (0.4121, 0.444)) is None
    out = _plane_norms(newton_step(search_field("k3"), np.array([[0.4051, 0.0], [0.42415, 0.0]])))
    assert out[0] > 0.46 and out[1] < 0.4121
    # c starts to rise, or the bumps reach, inside the candidate
    assert _newton_trap({**params, "c_rise": (0.43, 0.68)}, cluster_end) is None
    assert _newton_trap(params, 0.42) is None
    assert _newton_trap(params, cluster_end) == _TRAP_CANDIDATE


def test_disk_constructor_searches_with_its_trap(monkeypatch):
    calls = []
    search = foliation.find_and_classify

    def spy(classifier, *args, **kwargs):
        calls.append((kwargs.get("trap"), kwargs.get("seed_radius")))
        return search(classifier, *args, **kwargs)

    monkeypatch.setattr(foliation, "find_and_classify", spy)
    assert construct_xi_prime(1).passed and construct_xi_prime(3).passed
    assert calls == [(None, None), (_TRAP_CANDIDATE, cluster_end(3))]


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
        J = classifier.jacobian(pts)
        closed = -u * (J[:, 0, 0] + J[:, 1, 1]) + np.einsum("ni,ni->n", classifier.value(pts), grad)
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
        "jacobian": (classifier.value, classifier.jacobian),
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
        return J

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
        J = classifier.jacobian(pts)
        kept_V = classifier.value(pts)
        fresh_J = classifier.jacobian(pts)
        assert bitwise_equal(V, reference.value(pts)), region
        assert bitwise_equal(kept_V, V), region
        assert bitwise_equal(J, reference.jacobian(pts)), region
        assert bitwise_equal(fresh_J, J), region
        assert bitwise_equal(classifier.level(pts), reference.level(pts)), region
        refs = (reference.level(pts), grad_u(pts), hess_u(pts))
        for orders in ORDER_SUBSETS:
            for order, jet in zip(orders, pieces.u(pts, _radius(pts), orders)):
                assert bitwise_equal(jet, refs[order]), (region, orders)
    z = _newton_points(classifier, 161, 60)
    assert bitwise_equal(z, dense_newton_points(reference, 60))


def counted_classifier(k, points=None):
    """A fresh disk classifier and the list of its passes: "jet" for the
    V and J pass, "value" for the V-only pass.  A ``points`` list, if
    given, collects a copy of the points of each pass."""
    pieces = _assemble_pieces(k, _disk_params(k))
    passes = []
    kinds = {(1,): "value", (1, 2): "jet"}

    def u(pts, rho, orders):
        passes.append(kinds.get(tuple(orders), "level"))
        if points is not None:
            points.append(np.array(pts, copy=True))
        return pieces.u(pts, rho, orders)

    return _classifier_from_pieces(dataclasses.replace(pieces, u=u)), passes


def test_classifier_memo_serves_only_the_same_bytes():
    classifier, passes = counted_classifier(7)

    def check(pts, want_jets, want_values):
        # a fresh classifier has nothing kept, so its value runs the V-only pass
        fresh, _ = counted_classifier(7)
        assert bitwise_equal(classifier.value(pts), fresh.value(pts))
        assert (passes.count("jet"), passes.count("value")) == (want_jets, want_values)

    base = np.random.default_rng(8).uniform(-0.3, 0.3, (50, 2))
    base[0] = 0.0
    classifier.jacobian(base)
    check(base.copy(), 1, 0)  # same bytes: the jacobian's pass serves the value
    check(base, 1, 1)  # the entry was taken; a second value runs the V-only pass
    a = base.copy()
    classifier.jacobian(a)
    a[3, 0] += 1e-3  # changed in place after jacobian
    check(a, 2, 2)
    classifier.jacobian(base)
    check(base[:10], 3, 3)  # another shape
    classifier.jacobian(base)
    check(base.reshape(5, 10, 2), 4, 4)  # the same bytes in another shape
    negative = base.copy()
    negative[0] = -0.0
    classifier.jacobian(base)
    check(negative, 5, 5)  # -0.0 == 0.0, but the bytes differ
    nan_row = base.copy()
    nan_row[5] = np.nan
    classifier.jacobian(nan_row)
    check(nan_row.copy(), 6, 5)  # NaN != NaN, but the bytes match
    classifier.jacobian(base)
    classifier.jacobian(a)
    check(base, 8, 6)  # only the last jacobian call is kept
    classifier.value(base)
    check(base, 8, 8)  # a value call keeps nothing
    J = classifier.jacobian(base)
    assert passes.count("jet") == 9  # nor does it serve a jacobian
    assert bitwise_equal(J, counted_classifier(7)[0].jacobian(base))


def test_final_residual_test_is_one_value_pass_over_every_end_point():
    points = []
    classifier, passes = counted_classifier(7, points)
    report = find_and_classify(classifier, trap=disk_trap(7))
    ends = _newton_points(search_field("k7"), 161, 60, disk_trap(7))
    # every round and the classification run the jet pass, which serves their
    # value calls; the final |V| test is the one V-only pass, over the end
    # points as the search returns them
    assert passes.count("value") == 1
    assert bitwise_equal(points[passes.index("value")], ends)
    assert len(report.zeros) == 7


NON_FINITE_ROWS = np.array(
    [[np.nan, 0.0], [0.2, np.nan], [np.nan, np.nan], [np.inf, 0.0], [-np.inf, 0.1],
     [0.0, np.inf], [0.1, -np.inf], [np.inf, np.nan], [np.inf, -np.inf]]
)


@pytest.mark.parametrize("k", [3, 7])
def test_non_finite_rows_stay_non_finite_and_never_pass_the_residual_test(k, monkeypatch):
    classifier = search_field(f"k{k}")
    with np.errstate(invalid="ignore"):
        assert (~np.isfinite(classifier.value(NON_FINITE_ROWS))).any(axis=-1).all()
        classifier.jacobian(NON_FINITE_ROWS)
        assert (~np.isfinite(classifier.value(NON_FINITE_ROWS))).any(axis=-1).all()
    # end points with non-finite rows, each twice, add no zero
    reference = find_and_classify(classifier, trap=disk_trap(k))
    ends = _newton_points(classifier, 161, 60, disk_trap(k))
    padded = np.concatenate([NON_FINITE_ROWS, ends, NON_FINITE_ROWS])
    monkeypatch.setattr(foliation, "_newton_points", lambda *_args: padded)
    with np.errstate(invalid="ignore"):
        report = find_and_classify(classifier, trap=disk_trap(k))
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
            classifier.jacobian(pts)
            fused = classifier.value(pts)  # kept by the jacobian call
        assert bitwise_equal(alone, fused), region
        if passes is not None:
            assert passes[before:] == ["value", "jet"], region


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

    Returns the attempt number (from 1) and the winning disk."""
    expected = {"e_plus": (k + 1) // 2, "e_minus": 0, "h_plus": 0, "h_minus": (k - 1) // 2}
    for attempt, tweak in enumerate(RETIRED_TWEAKS, start=1):
        params = {**retired_base_params(k), **tweak}
        params["width"] *= params.pop("width_scale", 1.0)
        d = _build_disk_form(k, params, expected)
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
