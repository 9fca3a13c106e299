"""Plain-text exchange format for models.

A model file is a line-oriented document with five section kinds:

    [chart NAME]         coordinate rows, e.g. ``r = linear -0.45 0.45``
    [field NAME @ CHART] vector field components in the expression grammar
    [form NAME @ CHART]  one-form components in the expression grammar
    [piece NAME]         role, chart, and references to fields and forms
    [gluing]             piece pair, integer matrix, offset, overlap region

Lines before the first section carry the model name, summary, notes, and
parameters.  Only structural data is stored: sampling aids, boundary tori,
probe frames, and interior certificates are runtime constructions which the
builders recreate.  ``load_model(dump_model(m))`` reproduces the stored
subset exactly and a second dump is byte-identical.
"""

from __future__ import annotations

from typing import Iterable

from .charts import Chart, IntegerAffineMap, Interval, OneForm, VectorField
from .models import GluingSpec, ModelPiece, OpenBookModel
from .trigpoly import (
    KIND_ANGULAR,
    KIND_LINEAR,
    KIND_POLYNOMIAL,
    Expr,
)

__all__ = ["dump_model", "load_model"]

_KIND_WORDS = (KIND_ANGULAR, KIND_LINEAR, KIND_POLYNOMIAL)


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return str(int(value)) if value == int(value) and abs(value) < 1e15 else repr(value)
    return str(value)


def _parse_value(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _exact_components(obj, what: str) -> tuple[Expr, ...]:
    comps = []
    for comp in obj.components:
        if not isinstance(comp, Expr):
            raise ValueError(f"model files need exact components, {what} has a numeric one")
        comps.append(comp)
    return tuple(comps)


class _Namer:
    """Assigns stable names to fields and forms, deduplicated per chart."""

    def __init__(self) -> None:
        self.fields: dict[tuple[str, tuple[str, ...]], str] = {}
        self.forms: dict[tuple[str, tuple[str, ...]], str] = {}
        self.field_sections: list[tuple[str, Chart, tuple[Expr, ...]]] = []
        self.form_sections: list[tuple[str, Chart, tuple[Expr, ...]]] = []
        self._used: set[tuple[str, str]] = set()

    def _claim(self, chart: Chart, want: str) -> str:
        name = want
        i = 2
        while (chart.name, name) in self._used:
            name = f"{want}{i}"
            i += 1
        self._used.add((chart.name, name))
        return name

    def field(self, obj: VectorField, want: str) -> str:
        comps = _exact_components(obj, f"field {want!r}")
        key = (obj.chart.name, tuple(str(c) for c in comps))
        if key in self.fields:
            return self.fields[key]
        name = self._claim(obj.chart, want)
        self.fields[key] = name
        self.field_sections.append((name, obj.chart, comps))
        return name

    def form(self, obj: OneForm, want: str) -> str:
        comps = _exact_components(obj, f"form {want!r}")
        key = (obj.chart.name, tuple(str(c) for c in comps))
        if key in self.forms:
            return self.forms[key]
        name = self._claim(obj.chart, want)
        self.forms[key] = name
        self.form_sections.append((name, obj.chart, comps))
        return name


def _chart_lines(chart: Chart) -> list[str]:
    lines = [f"[chart {chart.name}]"]
    for coord, bound in zip(chart.coords, chart.bounds):
        if coord.kind == KIND_ANGULAR:
            lines.append(f"{coord.name} = angular")
        else:
            lines.append(
                f"{coord.name} = {coord.kind} {_fmt_value(bound.lo)} {_fmt_value(bound.hi)}"
            )
    lines.append("")
    return lines


def _component_lines(header: str, chart: Chart, comps: Iterable[Expr]) -> list[str]:
    lines = [header]
    for coord, comp in zip(chart.coords, comps):
        if comp.terms:
            lines.append(f"{coord.name} = {comp}")
    lines.append("")
    return lines


def _param_lines(params: dict) -> list[str]:
    return [f"param {key} = {_fmt_value(params[key])}" for key in sorted(params)]


def dump_model(model: OpenBookModel) -> str:
    """Serialize the structural subset of a model to the text format."""
    namer = _Namer()
    piece_lines: list[str] = []
    charts: list[Chart] = []

    def remember(chart: Chart) -> None:
        for known in charts:
            if known.name == chart.name:
                if known is not chart and known != chart:
                    raise ValueError(f"two different charts share the name {chart.name!r}")
                return
        charts.append(chart)

    for piece in model.pieces:
        remember(piece.chart)
        lines = [f"[piece {piece.name}]"]
        lines.append(f"chart = {piece.chart.name}")
        lines.append(f"role = {piece.role}")
        if piece.form is not None:
            lines.append(f"form = {namer.form(piece.form, 'alpha')}")
        if piece.w_field is not None:
            lines.append(f"w_field = {namer.field(piece.w_field, 'W')}")
        if piece.pair is not None:
            first = namer.field(piece.pair[0], "W")
            second = namer.field(piece.pair[1], "X")
            lines.append(f"pair = {first} {second}")
        if piece.spanning:
            names = [
                namer.field(f, f"S{i}") for i, f in enumerate(piece.spanning, start=1)
            ]
            lines.append(f"spanning = {' '.join(names)}")
        if piece.contact_field is not None:
            lines.append(f"contact_field = {namer.field(piece.contact_field, 'L')}")
        if piece.fibration_form is not None:
            lines.append(f"fibration_form = {namer.form(piece.fibration_form, 'theta')}")
        if piece.torus_normal is not None:
            lines.append(f"torus_normal = {namer.form(piece.torus_normal, 'normal')}")
        if piece.binding_locus is not None:
            pairs = " ".join(
                f"{key} {_fmt_value(piece.binding_locus[key])}"
                for key in sorted(piece.binding_locus)
            )
            lines.append(f"binding_locus = {pairs}")
        if piece.note:
            lines.append(f"note = {piece.note}")
        lines.extend(_param_lines(piece.params))
        lines.append("")
        piece_lines.extend(lines)

    gluing_lines: list[str] = []
    for glue in model.gluings:
        lines = ["[gluing]"]
        lines.append(f"first = {glue.first}")
        lines.append(f"second = {glue.second}")
        if glue.map is not None:
            remember(glue.map.chart)
            lines.append(f"chart = {glue.map.chart.name}")
            rows = " ; ".join(" ".join(str(v) for v in row) for row in glue.map.matrix)
            lines.append(f"matrix = {rows}")
            lines.append(f"offset = {' '.join(_fmt_value(v) for v in glue.map.offset)}")
        pairs = " ".join(f"{key} {_fmt_value(glue.region[key])}" for key in sorted(glue.region))
        lines.append(f"region = {pairs}")
        lines.append("")
        gluing_lines.extend(lines)

    out: list[str] = [f"model = {model.name}"]
    if model.summary:
        out.append(f"summary = {model.summary}")
    if model.binding_note:
        out.append(f"note = {model.binding_note}")
    out.extend(_param_lines(model.params))
    out.append("")
    for chart in charts:
        out.extend(_chart_lines(chart))
    for name, chart, comps in namer.field_sections:
        out.extend(_component_lines(f"[field {name} @ {chart.name}]", chart, comps))
    for name, chart, comps in namer.form_sections:
        out.extend(_component_lines(f"[form {name} @ {chart.name}]", chart, comps))
    out.extend(piece_lines)
    out.extend(gluing_lines)
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n"


# -- reader ---------------------------------------------------------------


def _split_sections(text: str) -> tuple[list[tuple[str, str]], list[tuple[str, list]]]:
    """Header lines plus a list of (section header, key-value rows)."""
    header: list[tuple[str, str]] = []
    sections: list[tuple[str, list]] = []
    current: list | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = []
            sections.append((line[1:-1].strip(), current))
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        row = (key.strip(), value.strip())
        if current is None:
            header.append(row)
        else:
            current.append(row)
    return header, sections


def _build_chart(name: str, rows: list[tuple[str, str]]) -> Chart:
    spec = []
    for cname, value in rows:
        parts = value.split()
        if not parts or parts[0] not in _KIND_WORDS:
            raise ValueError(f"chart {name!r}: coordinate {cname!r} has unknown kind {value!r}")
        kind = parts[0]
        if kind == KIND_ANGULAR and len(parts) == 1:
            spec.append((cname, kind))
        elif len(parts) == 3:
            spec.append((cname, kind, Interval(float(parts[1]), float(parts[2]))))
        else:
            raise ValueError(
                f"chart {name!r}: coordinate {cname!r} needs 'kind lo hi', got {value!r}"
            )
    return Chart.make(name, spec)


def _build_components(chart: Chart, rows: list[tuple[str, str]], where: str) -> tuple[Expr, ...]:
    comps = [chart.zero() for _ in range(chart.dim)]
    for cname, value in rows:
        if cname not in chart.coord_names():
            raise ValueError(f"{where}: unknown coordinate {cname!r} on chart {chart.name!r}")
        comps[chart.index(cname)] = chart.parse(value)
    return tuple(comps)


def _pairs_to_dict(value: str, where: str) -> dict:
    tokens = value.split()
    if len(tokens) % 2:
        raise ValueError(f"{where}: expected alternating 'name value' pairs, got {value!r}")
    return {tokens[i]: _parse_value(tokens[i + 1]) for i in range(0, len(tokens), 2)}


def load_model(text: str) -> OpenBookModel:
    """Parse the text format back into a model with its structural subset."""
    header, sections = _split_sections(text)
    model_name = ""
    summary = ""
    note = ""
    params: dict = {}
    for key, value in header:
        if key == "model":
            model_name = value
        elif key == "summary":
            summary = value
        elif key == "note":
            note = value
        elif key.startswith("param "):
            params[key[len("param "):].strip()] = _parse_value(value)
        else:
            raise ValueError(f"unknown header key {key!r}")
    if not model_name:
        raise ValueError("missing 'model =' header line")

    charts: dict[str, Chart] = {}
    fields: dict[tuple[str, str], VectorField] = {}
    forms: dict[tuple[str, str], OneForm] = {}
    piece_rows: list[tuple[str, list]] = []
    gluing_rows: list[list] = []

    def chart_of(name: str, where: str) -> Chart:
        if name not in charts:
            raise ValueError(f"{where}: unknown chart {name!r}")
        return charts[name]

    for head, rows in sections:
        words = head.split()
        kind = words[0] if words else ""
        if kind == "chart":
            if len(words) != 2:
                raise ValueError(f"bad section header [{head}]")
            charts[words[1]] = _build_chart(words[1], rows)
        elif kind in ("field", "form"):
            if len(words) != 4 or words[2] != "@":
                raise ValueError(f"bad section header [{head}]; expected [{kind} NAME @ CHART]")
            name, chart_name = words[1], words[3]
            chart = chart_of(chart_name, f"[{head}]")
            comps = _build_components(chart, rows, f"[{head}]")
            if kind == "field":
                fields[(chart_name, name)] = VectorField(chart, comps, label=name)
            else:
                forms[(chart_name, name)] = OneForm(chart, comps, label=name)
        elif kind == "piece":
            if len(words) != 2:
                raise ValueError(f"bad section header [{head}]")
            piece_rows.append((words[1], rows))
        elif kind == "gluing":
            gluing_rows.append(rows)
        else:
            raise ValueError(f"unknown section kind [{head}]")

    pieces = []
    for piece_name, rows in piece_rows:
        data = {"name": piece_name, "params": {}, "spanning": ()}
        chart: Chart | None = None
        named: dict[str, VectorField] = {}

        def lookup_field(token: str) -> VectorField:
            key = (chart.name, token)
            if key not in fields:
                raise ValueError(f"piece {piece_name!r}: unknown field {token!r}")
            named[token] = fields[key]
            return fields[key]

        def lookup_form(token: str) -> OneForm:
            key = (chart.name, token)
            if key not in forms:
                raise ValueError(f"piece {piece_name!r}: unknown form {token!r}")
            return forms[key]

        for key, value in rows:
            if key == "chart":
                chart = chart_of(value, f"piece {piece_name!r}")
                data["chart"] = chart
            elif chart is None:
                raise ValueError(f"piece {piece_name!r}: 'chart =' must come first")
            elif key == "role":
                data["role"] = value
            elif key == "form":
                data["form"] = lookup_form(value)
            elif key == "w_field":
                data["w_field"] = lookup_field(value)
            elif key == "pair":
                first, second = value.split()
                data["pair"] = (lookup_field(first), lookup_field(second))
            elif key == "spanning":
                data["spanning"] = tuple(lookup_field(tok) for tok in value.split())
            elif key == "contact_field":
                data["contact_field"] = lookup_field(value)
            elif key == "fibration_form":
                data["fibration_form"] = lookup_form(value)
            elif key == "torus_normal":
                data["torus_normal"] = lookup_form(value)
            elif key == "binding_locus":
                data["binding_locus"] = _pairs_to_dict(value, f"piece {piece_name!r}")
            elif key == "note":
                data["note"] = value
            elif key.startswith("param "):
                data["params"][key[len("param "):].strip()] = _parse_value(value)
            else:
                raise ValueError(f"piece {piece_name!r}: unknown key {key!r}")
        if chart is None:
            raise ValueError(f"piece {piece_name!r}: missing chart")
        if "role" not in data:
            raise ValueError(f"piece {piece_name!r}: missing role")
        data["named_fields"] = named
        pieces.append(ModelPiece(**data))

    piece_names = {p.name for p in pieces}
    gluings = []
    for rows in gluing_rows:
        data = dict(rows)
        for side in ("first", "second"):
            if side not in data:
                raise ValueError(f"gluing section: missing {side!r}")
            if data[side] not in piece_names:
                raise ValueError(f"gluing section: unknown piece {data[side]!r}")
        gmap = None
        if "matrix" in data:
            chart = chart_of(data.get("chart", ""), "gluing section")
            matrix = tuple(
                tuple(int(v) for v in row.split()) for row in data["matrix"].split(";")
            )
            offset = tuple(float(v) for v in data.get("offset", "").split())
            if not offset:
                offset = (0.0,) * chart.dim
            gmap = IntegerAffineMap(chart, matrix, offset)
        region = _pairs_to_dict(data.get("region", ""), "gluing section")
        gluings.append(GluingSpec(data["first"], data["second"], gmap, region))

    return OpenBookModel(
        name=model_name,
        summary=summary,
        params=params,
        pieces=tuple(pieces),
        gluings=tuple(gluings),
        binding_note=note,
    )
