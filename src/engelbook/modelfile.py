"""Plain-text exchange format for models.

A model file is a line-oriented document with five section kinds:

    [chart NAME]         coordinate rows, e.g. ``r = linear -0.45 0.45``
    [field NAME @ CHART] vector field components in the expression grammar
    [form NAME @ CHART]  one-form components in the expression grammar
    [piece NAME]         role, chart, and references to fields and forms
    [gluing]             piece pair, integer matrix, offset, overlap region

Lines before the first section carry the model name, summary, notes, and
parameters.  Only structural data is stored: sampling aids, boundary tori,
probe frames, and interior certificates are runtime constructions of the
builders, and ``load_model`` rebuilds none of them, so a loaded model runs
only the checks its stored subset supports.  ``load_model(dump_model(m))``
reproduces the stored subset exactly and a second dump is byte-identical.
"""

from __future__ import annotations

from .charts import Chart, IntegerAffineMap, Interval, OneForm, VectorField
from .models import GluingSpec, ModelPiece, OpenBookModel
from .trigpoly import (
    KIND_ANGULAR,
    KIND_LINEAR,
    KIND_POLYNOMIAL,
    Expr,
    _fmt_float,
)

__all__ = ["dump_model", "load_model"]

_KIND_WORDS = (KIND_ANGULAR, KIND_LINEAR, KIND_POLYNOMIAL)


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
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


# the piece keys that name fields and forms, in file order: (key, section
# kind, wanted name).  A str names one object, a tuple one per entry, and
# None any positive number of fields, named S1, S2, ...
_PIECE_KEYS = (
    ("form", "form", "alpha"),
    ("w_field", "field", "W"),
    ("pair", "field", ("W", "X")),
    ("spanning", "field", None),
    ("contact_field", "field", "L"),
    ("fibration_form", "form", "theta"),
    ("torus_normal", "form", "normal"),
)
_PIECE_KINDS = {key: (kind, want) for key, kind, want in _PIECE_KEYS}


def _wanted(want, n: int) -> tuple[str, ...]:
    """The names that a key's ``n`` objects ask for."""
    if want is None:
        return tuple(f"S{i}" for i in range(1, n + 1))
    return (want,) if isinstance(want, str) else want


class _Namer:
    """Assigns stable names to fields and forms, deduplicated per chart.

    Each component's text is made once per dump: the model holds every
    component object while it is dumped, so ``id`` keys them."""

    def __init__(self) -> None:
        self.names: dict[tuple[str, str, tuple[str, ...]], str] = {}
        # the lines of each section, per kind
        self.sections: dict[str, list[list[str]]] = {"field": [], "form": []}
        self._used: set[tuple[str, str]] = set()
        self._texts: dict[int, str] = {}

    def _text(self, comp: Expr) -> str:
        text = self._texts.get(id(comp))
        if text is None:
            text = self._texts[id(comp)] = comp.to_string()
        return text

    def name(self, kind: str, obj, want: str) -> str:
        chart = obj.chart
        texts = tuple(map(self._text, obj.components))
        key = (kind, chart.name, texts)
        if key not in self.names:
            name, i = want, 2
            while (chart.name, name) in self._used:
                name, i = f"{want}{i}", i + 1
            self._used.add((chart.name, name))
            self.names[key] = name
            lines = [f"[{kind} {name} @ {chart.name}]"]
            for coord, comp, text in zip(chart.coords, obj.components, texts):
                if comp.terms:
                    lines.append(f"{coord.name} = {text}")
            lines.append("")
            self.sections[kind].append(lines)
        return self.names[key]


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
        for key, kind, want in _PIECE_KEYS:
            value = getattr(piece, key)
            objs = () if value is None else (value,) if isinstance(want, str) else value
            if objs:
                names = [namer.name(kind, o, w) for o, w in zip(objs, _wanted(want, len(objs)))]
                lines.append(f"{key} = {' '.join(names)}")
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
    for sections in namer.sections.values():
        for lines in sections:
            out.extend(lines)
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
            try:
                interval = Interval(float(parts[1]), float(parts[2]))
            except ValueError as exc:
                raise ValueError(f"chart {name!r}: coordinate {cname!r}: {exc}") from None
            spec.append((cname, kind, interval))
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
    # (section kind, chart name, object name) -> field or form
    objects: dict[tuple[str, str, str], VectorField | OneForm] = {}
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
            cls = VectorField if kind == "field" else OneForm
            objects[kind, chart_name, name] = cls(chart, comps, label=name)
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
        for key, value in rows:
            if key == "chart":
                chart = chart_of(value, f"piece {piece_name!r}")
                data["chart"] = chart
            elif chart is None:
                raise ValueError(f"piece {piece_name!r}: 'chart =' must come first")
            elif key == "role":
                data["role"] = value
            elif key in _PIECE_KINDS:
                kind, want = _PIECE_KINDS[key]
                tokens = value.split()
                names = _wanted(want, len(tokens))
                if not tokens or len(tokens) != len(names):
                    count = "1 or more" if want is None else len(names)
                    raise ValueError(
                        f"piece {piece_name!r}: key {key!r} takes {count} {kind} name(s), "
                        f"got {value!r}"
                    )
                for token in tokens:
                    if (kind, chart.name, token) not in objects:
                        raise ValueError(f"piece {piece_name!r}: unknown {kind} {token!r}")
                objs = tuple(objects[kind, chart.name, token] for token in tokens)
                if kind == "field":
                    named.update(zip(tokens, objs))
                data[key] = objs[0] if isinstance(want, str) else objs
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
