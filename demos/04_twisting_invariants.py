"""
Twisting numbers and looseness probes
=====================================

The integer invariants of the construction are rotation counts: how often a
field turns against a reference frame along a closed loop. The collar's frame
field turns lambda times along the y-circle and k times along the phi-circle,
and rotating the reference frame m times shifts every count by -m. A looseness
probe packages the same computation with a transversality guard on the path.
"""

from engelbook.charts import VectorField
from engelbook.invariants import Path, rotation_number, twisting_number
from engelbook.models import (
    build_binding_engel,
    build_collar_engel,
    looseness_probe,
    model_catalog,
)

lam, k = 2, 3
collar = build_collar_engel(lam, k)
chart = collar.chart
base = {"x": 0.0, "y": 0.3, "r": 0.0, "phi": 0.0}

loops = {
    "x-circle": Path.coordinate_circle(chart, "x", base),
    "y-circle": Path.coordinate_circle(chart, "y", base),
    "phi-circle": Path.coordinate_circle(chart, "phi", base),
}

c1 = collar.named_fields["C1"]
x_field = collar.named_fields["X"]
for name, loop in loops.items():
    res = twisting_number(c1, collar.probe_frame, loop)
    print(f"tw(C1, {name:10s}) = {res.value:+d}   residual {res.residual:.1e}")
res = twisting_number(x_field, collar.probe_frame, loops["phi-circle"])
print(f"tw(X,  phi-circle) = {res.value:+d}   residual {res.residual:.1e}")
rot = rotation_number(x_field, (c1, collar.named_fields["C2"]), loops["phi-circle"])
print(f"rotation of X in its own plane along phi = {rot.value:+d}")
print()

# shifting the reference frame: f = (cos(m phi) e1 + sin(m phi) e2, ...)
s_field = collar.named_fields["S"]
sx, sy = s_field.components[0], s_field.components[1]
for m in (1, 2):
    cm = chart.parse(f"cos({m}*phi)")
    sm = chart.parse(f"sin({m}*phi)")
    f1 = VectorField(chart, (sm * sx, sm * sy, cm, chart.zero()))
    f2 = VectorField(chart, (cm * sx, cm * sy, -sm, chart.zero()))
    res = twisting_number(x_field, (f1, f2), loops["phi-circle"])
    print(f"frame rotated {m} times: tw drops to {res.value:+d}")
print()

# probes bundle the path, the guard, and the count; the binding twists l times
binding = build_binding_engel(5, 3)
probe_loop = Path.coordinate_circle(binding.chart, "y", {"r": 1.0})
print(f"binding probe along y: {looseness_probe(binding, probe_loop)} turns")
probe_loop = Path.coordinate_circle(chart, "phi", base)
print(f"collar probe along phi: {looseness_probe(collar, probe_loop)} turns")
segment = Path.coordinate_segment(chart, "phi", base, 0.0, 0.3)
print(f"collar probe on a short segment: {looseness_probe(collar, segment)} turns")

# a path tangent to the kernel direction is rejected rather than miscounted
tube = model_catalog("engel_darboux_loose").piece("loose-tube")
bad = Path.coordinate_circle(tube.chart, "theta", {})
try:
    looseness_probe(tube, bad)
except ValueError as exc:
    print(f"tangent probe rejected: {exc}")
