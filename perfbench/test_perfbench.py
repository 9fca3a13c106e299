"""Tests of the benchmark itself: self-time arithmetic and tiny smoke runs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from hostspeed import KERNELS, SpeedLog, combined  # noqa: E402
from run import end_to_end  # noqa: E402
from tracing import Span, Tracer, install, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "host_speed": "ratio",
    "wall_ops_per_s": "1/s",
    "wall_latency_p50_s": "s",
    "wall_setup_s": "s",
}
PER_LAYER = {
    **{
        name: "s"
        for name in (
            "foliation.classify_s",
            "foliation.construct_s",
            "foliation.annulus_check_s",
            "foliation.trace_s",
            "foliation.slope_s",
            "charts.rank_s",
            "charts.field_eval_s",
            "charts.calculus_s",
            "trigpoly.compile_s",
            "trigpoly.eval_s",
            "trigpoly.parse_s",
            "verify.self_s",
            "invariants.winding_s",
            "models.assemble_s",
            "models.piece_checks_s",
            "models.gluing_check_s",
            "models.build_s",
            "modelfile.dump_s",
            "modelfile.load_s",
            "reports.render_s",
            "cli.run_s",
            "trace.wall_s",
            "trace.unattributed_s",
        )
    },
    **{
        name: "count"
        for name in (
            "foliation.classifier_points",
            "foliation.zeros",
            "foliation.attempts_per_disk",
            "foliation.rk4_steps",
            "charts.rank_matrices",
            "charts.scalar_evals",
            "charts.calculus_calls",
            "trigpoly.compiles",
            "trigpoly.eval_points",
            "verify.checks",
            "verify.points",
            "invariants.path_samples",
            "models.disk_builds",
            "modelfile.bytes",
            "reports.bytes_out",
            "reports.digest_mismatches",
        )
    },
    "charts.rank_matrices_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


def _tree() -> list[Span]:
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]; e [11, 12]
    # is a second root
    return [
        Span("a", 0.0, 10.0, -1, 0),
        Span("b", 1.0, 4.0, 0, 0),
        Span("c", 2.0, 3.0, 1, 0),
        Span("d", 5.0, 9.0, 0, 0),
        Span("e", 11.0, 12.0, -1, 1),
    ]


def test_self_time_subtracts_children_once():
    assert self_times(_tree()) == pytest.approx({"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0, "e": 1.0})


def test_self_time_covers_overlapping_children_once():
    spans = [
        Span("f", 0.0, 10.0, -1, 0),
        Span("g", 1.0, 4.0, 0, 0),
        Span("h", 3.0, 6.0, 0, 0),
        Span("i", 9.0, 12.0, 0, 0),  # clipped to its parent's end
    ]
    assert self_times(spans)["f"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_sums_by_name():
    spans = [
        Span("x", 0.0, 2.0, -1, 0),
        Span("y", 0.5, 1.0, 0, 0),
        Span("x", 3.0, 4.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx({"x": 2.5, "y": 0.5})


def test_self_times_and_unattributed_add_up_to_wall():
    spans = _tree()
    wall = 35.0
    metrics = layer_metrics(spans, Counter(), wall)
    assert sum(self_times(spans).values()) == pytest.approx(11.0)  # the roots cover 11
    assert metrics["trace.unattributed_s"][0] == pytest.approx(wall - 11.0)


def test_tracer_records_parents_and_ops():
    t = Tracer()
    t.op = 7
    outer = t.open("outer")
    inner = t.open("inner")
    assert t.top() == "inner"
    t.close(inner)
    t.close(outer)
    spans = t.spans()
    assert [(s.name, s.parent, s.op) for s in spans] == [("outer", -1, 7), ("inner", 0, 7)]
    assert spans[0].start <= spans[1].start <= spans[1].end <= spans[0].end


def test_install_wraps_every_binding_and_restores():
    from engelbook import charts, models, verify

    originals = (charts.pointwise_rank, verify.pointwise_rank, models.construct_xi_prime)
    t = Tracer()
    restore = install(t)
    try:
        assert verify.pointwise_rank is charts.pointwise_rank
        assert verify.pointwise_rank is not originals[0]
        assert models.construct_xi_prime is not originals[2]
        model = models.model_catalog("darboux_even")
        model.checks(min_points=64)
    finally:
        restore()
    assert (charts.pointwise_rank, verify.pointwise_rank, models.construct_xi_prime) == originals
    names = {s.name for s in t.spans()}
    assert {"models.build", "verify.check", "charts.rank", "trigpoly.compile"} <= names
    assert t.counts["verify.checks"] >= 1


def test_combined_speed_is_the_geometric_mean_of_the_reference():
    speeds = {"interpreted": 0.5, "small_calls": 2.0, "batched_svd": 1.0, "vector_math": 0.25}
    assert combined(speeds, ("interpreted", "small_calls")) == pytest.approx(1.0)
    assert combined(speeds, ("vector_math",)) == pytest.approx(0.25)


def test_every_workload_names_known_reference_kernels():
    for workload in WORKLOADS.values():
        for reference in (workload.reference, workload.setup_reference):
            assert reference and set(reference) <= set(KERNELS)


def test_speed_during_an_op_is_the_mean_of_the_measurements_around_it():
    log = SpeedLog(("vector_math",), every_s=0.1)
    log.times = [0.0, 1.0, 5.0, 5.5, 30.0]
    log.speeds = [1.0, 0.5, 1.0, 0.9, 0.6]
    # a short op: the measurements just before and just after it
    assert log.during(1.2, 1.4) == pytest.approx((0.5 + 1.0) / 2)
    # a 3.6 s op: every measurement within 3.6 s of it, but not the one at 30
    assert log.during(1.2, 4.8) == pytest.approx((1.0 + 0.5 + 1.0 + 0.9) / 4)
    # a 20 s op: its span reaches every measurement
    assert log.during(6.0, 26.0) == pytest.approx(statistics.mean(log.speeds))


def test_end_to_end_times_are_scaled_by_host_speed():
    records = [
        {"seconds": 2.0, "speed": 0.5, "failure": None},
        {"seconds": 1.0, "speed": 1.0, "failure": None},
        {"seconds": 3.0, "speed": 0.5, "failure": "bad"},
    ]
    result = {"records": records, "peak_rss_mb": 10.0, "speed_samples": [0.5, 1.0, 0.5]}
    metrics = end_to_end(result, [(2.0, 0.5), (1.0, 1.0), (4.0, 0.5)])
    assert metrics["ops_per_s"][0] == pytest.approx(3 / 3.5)  # scaled times 1, 1, 1.5
    assert metrics["latency_p50_s"][0] == pytest.approx(1.0)
    assert metrics["setup_s"][0] == pytest.approx(1.0)  # scaled set-ups 1, 1, 2
    assert metrics["fail_frac"][0] == pytest.approx(1 / 3)
    assert metrics["wall_ops_per_s"][0] == pytest.approx(3 / 6)
    assert metrics["wall_latency_p50_s"][0] == pytest.approx(2.0)
    assert metrics["host_speed"][0] == pytest.approx(0.5)


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 2:
            printed[parts[0]] = parts[1:]
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    printed, result = _run(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    for name, unit in expected.items():
        assert name in printed, name
        assert printed[name][-1] == unit, (name, printed[name])
    if not trace:
        assert "latency_p90_s" in printed
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
