"""Declarative tabular-to-RDF mapping: a small YAML-shaped DSL over CSV.

A mapping document declares prefixes and, per triple map, a source table,
a subject template, an optional named graph and predicate-object pairs.
Templates interpolate ``$(column)`` references (percent-encoded in IRI
positions) and may pass a cell through a named transform with
``fn(name, $(column))``.  An empty or missing cell skips the affected
statement rather than failing the run.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from datetime import datetime
from urllib.parse import quote

from .rdf import InputError, InvalidIri, InvalidTerm, Iri, Literal, ParseError, Quad, RDF_NS, Term, XSD_NS, open_utf8
from .vocab import RDF_TYPE

BUILTIN_PREFIXES = {"rdf": RDF_NS, "xsd": XSD_NS}
_CURIE_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_.\-]*):(?!//)(\S*)$")
_LEADING_CURIE_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_.\-]*):(?!//)")


class UnknownPrefix(InputError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"unknown prefix {label!r}")


class DuplicateMapping(InputError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"duplicate mapping {name!r}")


class MissingTable(InputError, LookupError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"no table named {name!r}")


class InvalidExpandedIri(InputError):
    def __init__(self, map_name, row_index, text):
        self.map_name = map_name
        self.row_index = row_index
        self.text = text
        super().__init__(f"map {map_name!r}, row {row_index}: expansion {text!r} is not a valid IRI")


class TableError(InputError):
    pass


def percent_encode(text: str) -> str:
    """RFC 3986 encoding: unreserved characters pass, all else becomes %HH per UTF-8 byte."""
    return quote(text, safe="")


def _normalize_date(text: str) -> str:
    for fmt in ("%Y-%m-%d", "%d/%m/%Y", "%d.%m.%Y", "%d-%m-%Y"):
        try:
            return datetime.strptime(text.strip(), fmt).date().isoformat()
        except ValueError:
            continue
    return text


TRANSFORMS = {
    "trim": str.strip,
    "lowercase": str.lower,
    "isodate": _normalize_date,
}


@dataclass(frozen=True)
class ColumnRef:
    column: str
    transform: str | None = None


@dataclass(frozen=True)
class Template:
    segments: tuple  # str literals and ColumnRef entries

    def references(self) -> tuple[str, ...]:
        return tuple(seg.column for seg in self.segments if isinstance(seg, ColumnRef))


@dataclass(frozen=True)
class IriTemplate:
    template: Template


@dataclass(frozen=True)
class LiteralTemplate:
    template: Template
    datatype: Iri | None = None
    language: str | None = None


@dataclass(frozen=True)
class Constant:
    term: Term


ObjectSpec = IriTemplate | LiteralTemplate | Constant


@dataclass(frozen=True)
class TripleMap:
    name: str
    source: str
    subject: Template
    graph: Iri | None
    pairs: tuple  # (predicate Iri, ObjectSpec) pairs


@dataclass(frozen=True)
class MappingDocument:
    prefixes: dict
    triple_maps: tuple


@dataclass(frozen=True)
class Table:
    name: str
    header: tuple
    rows: tuple

    def __post_init__(self):
        if len(set(self.header)) != len(self.header):
            raise TableError(f"table {self.name!r} has duplicate column names")
        for i, row in enumerate(self.rows):
            if len(row) != len(self.header):
                raise TableError(f"table {self.name!r} row {i + 1} has {len(row)} cells, expected {len(self.header)}")

    def row_maps(self):
        for row in self.rows:
            yield dict(zip(self.header, row))


def read_table(text: str, name: str) -> Table:
    """Parse CSV text (first row is the header) into a table."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [tuple(r) for r in reader]
    except csv.Error as exc:
        raise TableError(f"table {name!r} line {reader.line_num}: {exc}") from None
    if not rows:
        raise TableError(f"table {name!r} is empty (no header row)")
    return Table(name=name, header=rows[0], rows=tuple(rows[1:]))


def load_table(path, name: str | None = None) -> Table:
    import os

    if name is None:
        name = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    with open_utf8(path, newline="") as handle:
        return read_table(handle.read(), name)


def resolve_curie(text: str, prefixes: dict, line: int | None = None) -> Iri:
    """Resolve ``prefix:local`` (or the ``a`` alias) against declared and built-in prefixes."""
    if text == "a":
        return RDF_TYPE
    if ":" not in text:
        raise ParseError(f"{text!r} is not a CURIE (no colon)", line)
    label, local = text.split(":", 1)
    namespace = prefixes.get(label, BUILTIN_PREFIXES.get(label))
    if namespace is None:
        raise UnknownPrefix(label)
    return Iri(namespace + local)


def _iri_ref(text: str, prefixes: dict, line: int) -> Iri:
    """``<iri>``, a CURIE or ``a`` as an IRI.  A malformed one is a
    ParseError at the line; an undeclared prefix stays UnknownPrefix."""
    try:
        if text.startswith("<") and text.endswith(">"):
            return Iri(text[1:-1])
        return resolve_curie(text, prefixes, line)
    except InvalidIri as exc:
        raise ParseError(str(exc), line) from None


def _expand_leading_curie(text: str, prefixes: dict) -> str:
    m = _LEADING_CURIE_RE.match(text)
    if not m:
        return text
    namespace = prefixes.get(m.group(1), BUILTIN_PREFIXES.get(m.group(1)))
    if namespace is None:
        return text
    return namespace + text[m.end():]


_REF_RE = re.compile(r"\$\(([^)]*)\)|fn\(([A-Za-z_][A-Za-z0-9_]*),\s*\$\(([^)]*)\)\)")


def parse_template(text: str, line: int | None = None) -> Template:
    segments = []
    pos = 0
    for m in _REF_RE.finditer(text):
        if m.start() > pos:
            segments.append(text[pos : m.start()])
        if m.group(1) is not None:
            column = m.group(1)
            transform = None
        else:
            transform, column = m.group(2), m.group(3)
            if transform not in TRANSFORMS:
                raise ParseError(f"unknown transform function {transform!r}", line)
        if not column:
            raise ParseError("empty column reference in template", line)
        segments.append(ColumnRef(column, transform))
        pos = m.end()
    if pos < len(text):
        segments.append(text[pos:])
    if not segments:
        raise ParseError("empty template", line)
    return Template(tuple(segments))


class Skip:
    """Sentinel result: a referenced cell was empty or the column is absent."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Skip"


SKIP = Skip()


def expand_template(template: Template, row: dict, iri_position: bool = False):
    """Concatenate segments over a row; SKIP when any referenced cell is unusable.

    In IRI positions each substituted cell value is percent-encoded so the
    result stays a syntactically sound IRI component.
    """
    out = []
    for seg in template.segments:
        if isinstance(seg, ColumnRef):
            value = row.get(seg.column)
            if value is None or value == "":
                return SKIP
            if seg.transform:
                value = TRANSFORMS[seg.transform](value)
                if value == "":
                    return SKIP
            out.append(percent_encode(value) if iri_position else value)
        else:
            out.append(seg)
    return "".join(out)


def _parse_object_spec(raw: str, datatype_or_lang: str | None, prefixes: dict, line: int) -> ObjectSpec:
    datatype = None
    language = None
    if datatype_or_lang:
        if datatype_or_lang.startswith("@"):
            language = datatype_or_lang[1:]
        else:
            datatype = _iri_ref(datatype_or_lang, prefixes, line)

    iri_marked = raw.endswith("~iri")
    if iri_marked:
        raw = raw[: -len("~iri")]
    if raw.startswith("<") and raw.endswith(">"):
        if datatype_or_lang:
            raise ParseError("an IRI object cannot carry a datatype or language tag", line)
        return Constant(_iri_ref(raw, prefixes, line))
    if iri_marked:
        if datatype_or_lang:
            raise ParseError("an IRI object cannot carry a datatype or language tag", line)
        expanded = _expand_leading_curie(raw, prefixes)
        template = parse_template(expanded, line)
        if not template.references():
            text = "".join(template.segments)
            return Constant(_iri_ref(raw if "://" not in text and _CURIE_RE.match(raw) else f"<{text}>", prefixes, line))
        return IriTemplate(template)
    template = parse_template(raw, line)
    references = template.references()
    try:
        # A template's literals are built per row; this one checks the tag and datatype now.
        literal = Literal("" if references else "".join(template.segments), datatype=datatype, language=language)
    except InvalidTerm as exc:
        raise ParseError(str(exc), line) from None
    return LiteralTemplate(template, datatype=datatype, language=language) if references else Constant(literal)


def _split_list_item(body: str, line: int) -> list[str]:
    """Split a ``[a, b, c]`` body at top-level commas (parentheses nest)."""
    parts = []
    depth = 0
    current = []
    for char in body:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses in list item", line)
        if char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    if depth != 0:
        raise ParseError("unbalanced parentheses in list item", line)
    parts.append("".join(current).strip())
    return parts


class _MapDraft:
    def __init__(self, name, line):
        self.name = name
        self.line = line
        self.source = None
        self.graph_text = None
        self.graph_line = None
        self.subject_text = None
        self.subject_line = None
        self.pairs = []  # (pred_text, obj_text, dtype_or_lang, line)


def parse_mapping(text: str) -> MappingDocument:
    """Parse and fully resolve a mapping document.

    Structure is indentation-based: two spaces per level, ``prefixes:``
    then ``mappings:`` at the top level.  All CURIEs are resolved here so
    execution never sees an unknown prefix.
    """
    prefixes: dict[str, str] = {}
    drafts: list[_MapDraft] = []
    section = None
    current: _MapDraft | None = None
    in_po = False

    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip()
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        indent = len(line) - len(line.lstrip(" "))
        body = line.strip()

        if indent == 0:
            in_po = False
            current = None
            if body == "prefixes:":
                section = "prefixes"
            elif body == "mappings:":
                section = "mappings"
            else:
                raise ParseError(f"expected 'prefixes:' or 'mappings:', found {body!r}", line_no)
            continue

        if section == "prefixes":
            if indent != 2:
                raise ParseError("prefix lines must be indented two spaces", line_no)
            if ":" not in body:
                raise ParseError("prefix line must be 'label: namespace'", line_no)
            label, _, namespace = body.partition(":")
            label = label.strip()
            namespace = namespace.strip()
            if not label or not namespace:
                raise ParseError("prefix line must be 'label: namespace'", line_no)
            if label in prefixes:
                raise ParseError(f"prefix {label!r} declared twice", line_no)
            _iri_ref(f"<{namespace}>", prefixes, line_no)
            prefixes[label] = namespace
            continue

        if section != "mappings":
            raise ParseError("content before any section header", line_no)

        if indent == 2:
            in_po = False
            if not body.endswith(":"):
                raise ParseError("mapping name line must end with ':'", line_no)
            name = body[:-1].strip()
            if not name:
                raise ParseError("empty mapping name", line_no)
            if any(d.name == name for d in drafts):
                raise DuplicateMapping(name)
            current = _MapDraft(name, line_no)
            drafts.append(current)
            continue

        if current is None:
            raise ParseError("mapping field outside a mapping", line_no)

        if indent == 4:
            in_po = False
            if body == "po:":
                in_po = True
            elif body.startswith("sources:"):
                value = body[len("sources:"):].strip()
                if not (value.startswith("[") and value.endswith("]")):
                    raise ParseError("sources must be written as [table-name]", line_no)
                current.source = value[1:-1].strip()
                if not current.source:
                    raise ParseError("empty source table name", line_no)
            elif body.startswith("s:"):
                current.subject_text = body[len("s:"):].strip()
                current.subject_line = line_no
                if not current.subject_text:
                    raise ParseError("empty subject template", line_no)
            elif body.startswith("g:"):
                current.graph_text = body[len("g:"):].strip()
                current.graph_line = line_no
            else:
                raise ParseError(f"unknown mapping field {body.split(':')[0]!r}", line_no)
            continue

        if indent == 6:
            if not in_po:
                raise ParseError("list item outside a po: block", line_no)
            if not (body.startswith("- [") and body.endswith("]")):
                raise ParseError("po item must be written as - [predicate, object]", line_no)
            parts = _split_list_item(body[len("- ["):-1], line_no)
            if len(parts) not in (2, 3):
                raise ParseError("po item needs two or three elements", line_no)
            pred, obj = parts[0], parts[1]
            extra = parts[2] if len(parts) == 3 else None
            current.pairs.append((pred, obj, extra, line_no))
            continue

        raise ParseError(f"unexpected indentation of {indent} spaces", line_no)

    triple_maps = []
    for draft in drafts:
        if draft.source is None:
            raise ParseError(f"mapping {draft.name!r} has no sources", draft.line)
        if draft.subject_text is None:
            raise ParseError(f"mapping {draft.name!r} has no subject template", draft.line)
        if not draft.pairs:
            raise ParseError(f"mapping {draft.name!r} has no po items", draft.line)
        subject = parse_template(_expand_leading_curie(draft.subject_text, prefixes), draft.subject_line)
        graph = _iri_ref(draft.graph_text, prefixes, draft.graph_line) if draft.graph_text else None
        pairs = [
            (_iri_ref(pred_text, prefixes, line_no), _parse_object_spec(obj_text, extra, prefixes, line_no))
            for pred_text, obj_text, extra, line_no in draft.pairs
        ]
        triple_maps.append(TripleMap(draft.name, draft.source, subject, graph, tuple(pairs)))
    return MappingDocument(prefixes=prefixes, triple_maps=tuple(triple_maps))


def load_mapping(path) -> MappingDocument:
    with open_utf8(path) as handle:
        return parse_mapping(handle.read())


def _realize_object(spec: ObjectSpec, row: dict, map_name: str, row_index: int):
    if isinstance(spec, Constant):
        return spec.term
    if isinstance(spec, IriTemplate):
        text = expand_template(spec.template, row, iri_position=True)
        if text is SKIP:
            return SKIP
        try:
            return Iri(text)
        except InvalidIri:
            raise InvalidExpandedIri(map_name, row_index, text) from None
    text = expand_template(spec.template, row)
    if text is SKIP:
        return SKIP
    return Literal(text, datatype=spec.datatype, language=spec.language)


def execute_mapping(document: MappingDocument, tables: list[Table]) -> set[Quad]:
    """Run every triple map over its table, collecting the emitted quads.

    One quad per (row, pair) unless the subject or object expansion skips;
    duplicates collapse under set semantics, so re-running a mapping or
    unioning row-disjoint tables is harmless.
    """
    lookup = {t.name: t for t in tables}
    quads: set[Quad] = set()
    for tm in document.triple_maps:
        table = lookup.get(tm.source)
        if table is None:
            raise MissingTable(tm.source)
        for row_index, row in enumerate(table.row_maps()):
            subject_text = expand_template(tm.subject, row, iri_position=True)
            if subject_text is SKIP:
                continue
            try:
                subject = Iri(subject_text)
            except InvalidIri:
                raise InvalidExpandedIri(tm.name, row_index, subject_text) from None
            for predicate, spec in tm.pairs:
                obj = _realize_object(spec, row, tm.name, row_index)
                if obj is SKIP:
                    continue
                quads.add(Quad(subject, predicate, obj, tm.graph))
    return quads
