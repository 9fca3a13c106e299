"""In-memory spans around the public functions of each engelbook layer.

A span records its name, start, end, parent span and op id.  Spans stay in
memory while a traced pass runs and are written out when it ends.  Self
time is a span's duration minus the part of it that its child spans cover.

The package modules import each other's names with ``from .x import y``,
so ``install`` replaces a function at every module attribute bound to it,
not only in the module that defines it.  ``Expr.compile`` is wrapped on the
class, and the closures it returns are wrapped too.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

MODULES = (
    "trigpoly",
    "charts",
    "verify",
    "foliation",
    "invariants",
    "models",
    "modelfile",
    "reports",
    "cli",
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    op: int


class Tracer:
    """Span recorder for one single-threaded pass."""

    def __init__(self) -> None:
        self._rows: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1

    def open(self, name: str) -> int:
        idx = len(self._rows)
        parent = self._stack[-1] if self._stack else -1
        self._rows.append([name, 0.0, 0.0, parent, self.op])
        self._stack.append(idx)
        self._rows[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self._rows[idx][2] = time.perf_counter()
        self._stack.pop()

    def top(self) -> str | None:
        """Name of the innermost open span."""
        return self._rows[self._stack[-1]][0] if self._stack else None

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] += amount

    def spans(self) -> list[Span]:
        return [Span(*row) for row in self._rows]


# -- self time -------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the union of its children's
    intervals, clipped to the span itself.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        inner = [
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children.get(i, ())
        ]
        inner = [(lo, hi) for lo, hi in inner if hi > lo]
        out[s.name] += (s.end - s.start) - _covered(inner)
    return dict(out)


def write_spans(spans: list[Span], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start,end,parent,op\n")
        for s in spans:
            fh.write(f"{s.name},{s.start!r},{s.end!r},{s.parent},{s.op}\n")


# -- wrappers --------------------------------------------------------------------


def _n_points(pts) -> int:
    shape = getattr(pts, "shape", None)
    if shape is None or len(shape) == 0:
        return 1
    return math.prod(shape[:-1])


def _spanned(tracer: Tracer, name: str, fn: Callable, after=None) -> Callable:
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _after_rank(t: Tracer, args, kwargs, result) -> None:
    ranks = result[0]
    t.add("charts.rank_matrices", ranks.size)


def _after_eval(t: Tracer, args, kwargs, result) -> None:
    scalars, pts = args[0], args[1]
    t.add("charts.scalar_evals", len(scalars) * _n_points(pts))


def _after_calculus(t: Tracer, args, kwargs, result) -> None:
    t.add("charts.calculus_calls")


def _after_trace(t: Tracer, args, kwargs, result) -> None:
    t.add("foliation.rk4_steps", result[2])


def _after_check(t: Tracer, args, kwargs, result) -> None:
    # a check that another check dispatched to is counted once, by its caller
    if t.top() != "verify.check":
        t.add("verify.checks")
        t.add("verify.points", result.n_points)


def _after_winding(t: Tracer, args, kwargs, result) -> None:
    t.add("invariants.path_samples", result.samples)


def _after_dump(t: Tracer, args, kwargs, result) -> None:
    t.add("modelfile.bytes", len(result.encode()))


def _after_load(t: Tracer, args, kwargs, result) -> None:
    text = args[0] if args else kwargs["text"]
    t.add("modelfile.bytes", len(text.encode()))


def _after_render(t: Tracer, args, kwargs, result) -> None:
    t.add("reports.bytes_out", len(result.encode()))


def _classify(tracer: Tracer, fn: Callable) -> Callable:
    """find_and_classify, counting the points its classifier field sees."""
    from engelbook.foliation import ClassifierField

    def counting(field_fn):
        def inner(pts):
            tracer.add("foliation.classifier_points", _n_points(pts))
            return field_fn(pts)

        return inner

    def wrapper(classifier, *args, **kwargs):
        counted = ClassifierField(
            counting(classifier.value), counting(classifier.jacobian), classifier.level
        )
        idx = tracer.open("foliation.classify")
        try:
            report = fn(counted, *args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.add("foliation.zeros", len(report.zeros))
        return report

    return wrapper


# (defining module, function, span name, counter hook)
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("foliation", "construct_xi_prime", "foliation.construct", None),
    ("foliation", "annulus_foliation_check", "foliation.annulus_check", None),
    ("foliation", "trace_leaf", "foliation.trace", _after_trace),
    ("foliation", "torus_slope", "foliation.slope", None),
    ("charts", "pointwise_rank", "charts.rank", _after_rank),
    ("charts", "batch_eval_scalars", "charts.field_eval", _after_eval),
    ("charts", "field_matrix", "charts.field_eval", None),
    *(
        ("charts", fn, "charts.calculus", _after_calculus)
        for fn in (
            "lie_bracket",
            "exterior_derivative",
            "wedge_top",
            "lie_derivative_oneform",
            "interior_product",
            "differential",
        )
    ),
    ("trigpoly", "parse_expression", "trigpoly.parse", None),
    *(
        ("verify", fn, "verify.check", _after_check)
        for fn in (
            "contact_structure_check",
            "even_contact_form_check",
            "even_contact_span_check",
            "engel_check",
            "isotropic_line_check",
            "contact_vector_field_check",
            "fibration_transversality_check",
            "family_slice_check",
            "adaptedness_check",
        )
    ),
    *(
        ("invariants", fn, "invariants.winding", _after_winding)
        for fn in ("twisting_number", "rotation_number", "delta_homomorphism")
    ),
    ("models", "assemble", "models.assemble", None),
    ("models", "piece_checks", "models.piece_checks", None),
    ("models", "gluing_check", "models.gluing_check", None),
    ("models", "build_collar_engel", "models.build", None),
    ("models", "build_binding_engel", "models.build", None),
    ("models", "model_catalog", "models.build", None),
    ("modelfile", "dump_model", "modelfile.dump", _after_dump),
    ("modelfile", "load_model", "modelfile.load", _after_load),
    ("reports", "render_json", "reports.render", _after_render),
    ("reports", "render_csv", "reports.render", _after_render),
    ("reports", "render_svg", "reports.render", _after_render),
    ("reports", "portrait_rows", "reports.render", None),
    ("reports", "json_document", "reports.render", None),
    ("reports", "construct_document", "reports.render", None),
    ("cli", "run", "cli.run", None),
)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer function at each of its bindings; return the undo."""
    modules = [importlib.import_module(f"engelbook.{m}") for m in MODULES]
    undo: list[tuple[object, str, object]] = []

    def rebind(original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    for mod_name, fn_name, span, after in LAYERS:
        original = getattr(importlib.import_module(f"engelbook.{mod_name}"), fn_name)
        rebind(original, _spanned(tracer, span, original, after))
    foliation = importlib.import_module("engelbook.foliation")
    rebind(foliation.find_and_classify, _classify(tracer, foliation.find_and_classify))

    expr_cls = importlib.import_module("engelbook.trigpoly").Expr
    original_compile = expr_cls.compile

    def compile(self):
        idx = tracer.open("trigpoly.compile")
        try:
            fn = original_compile(self)
        finally:
            tracer.close(idx)
        tracer.add("trigpoly.compiles")

        def evaluate(pts):
            tracer.add("trigpoly.eval_points", _n_points(pts))
            # one-point calls from leaf tracing stay in the tracer's self
            # time: a span each would cost more than the evaluation
            if tracer.top() == "foliation.trace":
                return fn(pts)
            i = tracer.open("trigpoly.eval")
            try:
                return fn(pts)
            finally:
                tracer.close(i)

        return evaluate

    undo.append((expr_cls, "compile", original_compile))
    expr_cls.compile = compile

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


# -- per-layer metrics -------------------------------------------------------------

# metric name -> span name whose self time it reports
SELF_TIME_METRICS = {
    "foliation.classify_s": "foliation.classify",
    "foliation.construct_s": "foliation.construct",
    "foliation.annulus_check_s": "foliation.annulus_check",
    "foliation.trace_s": "foliation.trace",
    "foliation.slope_s": "foliation.slope",
    "charts.rank_s": "charts.rank",
    "charts.field_eval_s": "charts.field_eval",
    "charts.calculus_s": "charts.calculus",
    "trigpoly.compile_s": "trigpoly.compile",
    "trigpoly.eval_s": "trigpoly.eval",
    "trigpoly.parse_s": "trigpoly.parse",
    "verify.self_s": "verify.check",
    "invariants.winding_s": "invariants.winding",
    "models.assemble_s": "models.assemble",
    "models.piece_checks_s": "models.piece_checks",
    "models.gluing_check_s": "models.gluing_check",
    "models.build_s": "models.build",
    "modelfile.dump_s": "modelfile.dump",
    "modelfile.load_s": "modelfile.load",
    "reports.render_s": "reports.render",
    "cli.run_s": "cli.run",
    "bench.check_s": "bench.check",
}

COUNT_METRICS = (
    "foliation.classifier_points",
    "foliation.zeros",
    "foliation.rk4_steps",
    "charts.rank_matrices",
    "charts.scalar_evals",
    "charts.calculus_calls",
    "trigpoly.compiles",
    "trigpoly.eval_points",
    "verify.checks",
    "verify.points",
    "invariants.path_samples",
    "modelfile.bytes",
    "reports.bytes_out",
)


def _under(spans: list[Span], i: int, prefix: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name.startswith(prefix):
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span], counts: Counter, wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer self times and work counts of one traced pass, with units."""
    selfs = self_times(spans)
    out: dict[str, tuple[float, str]] = {}
    for metric, span in SELF_TIME_METRICS.items():
        out[metric] = (selfs.get(span, 0.0), "s")
    for metric in COUNT_METRICS:
        out[metric] = (float(counts.get(metric, 0)), "count")
    constructs = [i for i, s in enumerate(spans) if s.name == "foliation.construct"]
    classify_in_construct = sum(
        1 for i, s in enumerate(spans) if s.name == "foliation.classify" and _under(spans, i, "foliation.construct")
    )
    out["foliation.attempts_per_disk"] = (
        classify_in_construct / len(constructs) if constructs else 0.0,
        "count",
    )
    out["models.disk_builds"] = (
        float(sum(1 for i in constructs if _under(spans, i, "models."))),
        "count",
    )
    rank_s = selfs.get("charts.rank", 0.0)
    out["charts.rank_matrices_per_s"] = (
        counts.get("charts.rank_matrices", 0) / rank_s if rank_s > 0 else 0.0,
        "1/s",
    )
    attributed = sum(selfs.values())
    out["trace.wall_s"] = (wall, "s")
    out["trace.unattributed_s"] = (wall - attributed, "s")
    return out
