"""RDF terms, quads and N-Quads text handling.

All values are immutable and hashable, so datasets are plain sets of
:class:`Quad` and can be shared freely across threads.  Parsing and
serialization are pure functions; serialization is canonical (sorted,
deterministic escaping, trailing newline), which makes byte comparison a
valid equality test for datasets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
# Characters never allowed in an IRI reference: controls, space and the
# bracket/quote/caret family excluded by the N-Quads IRIREF production.
_IRI_FORBIDDEN = {chr(c) for c in range(0x21)} | set('<>"{}|^`\\') | {chr(0x7F)}
_BNODE_RE = re.compile(r"^[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?$")
_LANG_RE = re.compile(r"^[A-Za-z]+(?:-[A-Za-z0-9]+)*$")


class InvalidIri(ValueError):
    """Text does not form an acceptable absolute IRI."""


class InvalidTerm(ValueError):
    """Malformed blank-node label or literal."""


class ParseError(ValueError):
    """Syntax error carrying a 1-based line (and column, when known)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}: " if column is None else f"line {line}, column {column}: "
        super().__init__(where + message)


@dataclass(frozen=True)
class Iri:
    """Absolute IRI; equality is exact codepoint equality."""

    value: str

    def __post_init__(self):
        v = self.value
        if v.startswith(":"):
            raise InvalidIri(f"empty scheme in {v!r}")
        if not _SCHEME_RE.match(v):
            raise InvalidIri(f"relative reference (no scheme) in {v!r}")
        for c in v:
            if c in _IRI_FORBIDDEN:
                what = "space" if c == " " else f"character {c!r}"
                raise InvalidIri(f"{what} not allowed in IRI {v!r}")

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class BlankNode:
    label: str

    def __post_init__(self):
        if not _BNODE_RE.match(self.label):
            raise InvalidTerm(f"invalid blank node label {self.label!r}")


XSD_STRING = Iri(XSD_NS + "string")
RDF_LANG_STRING = Iri(RDF_NS + "langString")


@dataclass(frozen=True)
class Literal:
    """Typed or language-tagged literal.

    A language tag forces the language-string datatype; with neither a
    tag nor an explicit datatype the plain string datatype applies.
    """

    lexical: str
    datatype: Iri | None = None
    language: str | None = None

    def __post_init__(self):
        if self.language is not None:
            if not _LANG_RE.match(self.language):
                raise InvalidTerm(f"invalid language tag {self.language!r}")
            if self.datatype not in (None, RDF_LANG_STRING):
                raise InvalidTerm("language-tagged literal cannot carry another datatype")
            object.__setattr__(self, "datatype", RDF_LANG_STRING)
        elif self.datatype is None:
            object.__setattr__(self, "datatype", XSD_STRING)
        elif self.datatype == RDF_LANG_STRING:
            raise InvalidTerm("language-string datatype requires a language tag")


Term = Iri | BlankNode | Literal


@dataclass(frozen=True)
class Quad:
    subject: Iri | BlankNode
    predicate: Iri
    object: Term
    graph: Iri | None = None

    def __post_init__(self):
        if isinstance(self.subject, Literal):
            raise InvalidTerm("literal not allowed in subject position")
        if not isinstance(self.subject, (Iri, BlankNode)):
            raise InvalidTerm(f"bad subject {self.subject!r}")
        if not isinstance(self.predicate, Iri):
            raise InvalidTerm("predicate must be an IRI")
        if not isinstance(self.object, (Iri, BlankNode, Literal)):
            raise InvalidTerm(f"bad object {self.object!r}")
        if self.graph is not None and not isinstance(self.graph, Iri):
            raise InvalidTerm("graph label must be an IRI")


_LITERAL_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r"}


def _escape_literal(text: str) -> str:
    return "".join(_LITERAL_ESCAPES.get(c, c) for c in text)


def serialize_term(term: Term) -> str:
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        body = f'"{_escape_literal(term.lexical)}"'
        if term.language is not None:
            return f"{body}@{term.language}"
        if term.datatype != XSD_STRING:
            return f"{body}^^<{term.datatype.value}>"
        return body
    raise InvalidTerm(f"not a term: {term!r}")


def serialize_quad(quad: Quad) -> str:
    parts = [serialize_term(quad.subject), serialize_term(quad.predicate), serialize_term(quad.object)]
    if quad.graph is not None:
        parts.append(serialize_term(quad.graph))
    return " ".join(parts) + " ."


def quad_sort_key(quad: Quad) -> tuple[str, str, str, str]:
    return (
        "" if quad.graph is None else serialize_term(quad.graph),
        serialize_term(quad.subject),
        serialize_term(quad.predicate),
        serialize_term(quad.object),
    )


def serialize_nquads(quads) -> str:
    """Canonical N-Quads: one statement per line, sorted, trailing newline.

    A pure function of the quad set; two equal sets serialize to identical
    bytes regardless of insertion order.
    """
    return "".join(serialize_quad(q) + "\n" for q in sorted(quads, key=quad_sort_key))


class TermScanner:
    """Cursor over one piece of N-Triples-flavoured text.

    Tracks line and column so syntax errors point at the offending token.
    Shared by the N-Quads parser and the update-subset parser.
    """

    def __init__(self, text: str, line: int = 1, column: int = 1):
        self.text = text
        self.pos = 0
        self.line = line
        self.column = column

    def error(self, message: str, line: int | None = None, column: int | None = None):
        raise ParseError(message, line or self.line, column or self.column)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return "" if self.eof() else self.text[self.pos]

    def _advance(self, n: int = 1) -> str:
        taken = self.text[self.pos : self.pos + n]
        for c in taken:
            if c == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += n
        return taken

    def skip_ws(self):
        while not self.eof() and self.text[self.pos] in " \t\r\n":
            self._advance()

    def expect(self, char: str):
        if self.peek() != char:
            self.error(f"expected {char!r}, found {self.peek()!r}" if self.peek() else f"expected {char!r}, found end of input")
        self._advance()

    def read_keyword(self) -> str:
        start = self.pos
        while not self.eof() and self.text[self.pos].isalpha():
            self._advance()
        return self.text[start : self.pos]

    def _read_uchar(self, start_line: int, start_col: int) -> str:
        kind = self._advance()  # 'u' or 'U'
        width = 4 if kind == "u" else 8
        digits = self._advance(width)
        if len(digits) != width or any(c not in "0123456789abcdefABCDEF" for c in digits):
            self.error("bad \\%s escape" % kind, start_line, start_col)
        code = int(digits, 16)
        if code > 0x10FFFF:
            self.error("escape out of unicode range", start_line, start_col)
        return chr(code)

    def read_term(self) -> Term:
        c = self.peek()
        self.term_line, self.term_column = self.line, self.column
        if c == "<":
            return self._read_iri()
        if c == "_":
            return self._read_bnode()
        if c == '"':
            return self._read_literal()
        if c == "":
            self.error("expected a term, found end of input")
        self.error(f"unexpected character {c!r}")

    def _read_iri(self) -> Iri:
        start_line, start_col = self.line, self.column
        self._advance()  # '<'
        out = []
        while True:
            if self.eof():
                self.error("unterminated IRI", start_line, start_col)
            c = self._advance()
            if c == ">":
                break
            if c == "\\":
                if self.peek() in "uU":
                    out.append(self._read_uchar(start_line, start_col))
                    continue
                self.error("bad escape in IRI", start_line, start_col)
            if c in _IRI_FORBIDDEN:
                self.error(f"character {c!r} not allowed in IRI", start_line, start_col)
            out.append(c)
        try:
            return Iri("".join(out))
        except InvalidIri as exc:
            self.error(str(exc), start_line, start_col)

    def _read_bnode(self) -> BlankNode:
        start_line, start_col = self.line, self.column
        self._advance()  # '_'
        if self.peek() != ":":
            self.error("expected ':' after '_'", start_line, start_col)
        self._advance()
        start = self.pos
        while not self.eof() and (self.text[self.pos].isalnum() or self.text[self.pos] in "_.-"):
            self._advance()
        label = self.text[start : self.pos]
        # A trailing dot belongs to the statement, not the label.
        while label.endswith("."):
            label = label[:-1]
            self.pos -= 1
            self.column -= 1
        try:
            return BlankNode(label)
        except InvalidTerm as exc:
            self.error(str(exc), start_line, start_col)

    def _read_literal(self) -> Literal:
        start_line, start_col = self.line, self.column
        self._advance()  # '"'
        out = []
        while True:
            if self.eof():
                self.error("unterminated literal", start_line, start_col)
            c = self._advance()
            if c == '"':
                break
            if c in "\n\r":
                self.error("unescaped line break in literal", start_line, start_col)
            if c == "\\":
                e = self.peek()
                if e in "uU":
                    out.append(self._read_uchar(start_line, start_col))
                    continue
                escapes = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
                if e not in escapes:
                    self.error(f"bad escape '\\{e}' in literal", start_line, start_col)
                out.append(escapes[e])
                self._advance()
                continue
            out.append(c)
        lexical = "".join(out)
        if self.peek() == "@":
            self._advance()
            start = self.pos
            while not self.eof() and (self.text[self.pos].isalnum() or self.text[self.pos] == "-"):
                self._advance()
            tag = self.text[start : self.pos]
            try:
                return Literal(lexical, language=tag)
            except InvalidTerm as exc:
                self.error(str(exc), start_line, start_col)
        if self.text[self.pos : self.pos + 2] == "^^":
            self._advance(2)
            if self.peek() != "<":
                self.error("expected datatype IRI after '^^'")
            dt = self._read_iri()
            try:
                return Literal(lexical, datatype=dt)
            except InvalidTerm as exc:
                self.error(str(exc), start_line, start_col)
        return Literal(lexical)


def parse_nquads(text: str) -> set[Quad]:
    """Parse N-Quads (or N-Triples) text into a set of quads.

    Accepts LF or CRLF line endings, blank lines and full-line ``#``
    comments.  The first syntax error raises :class:`ParseError` with its
    line and column.
    """
    quads: set[Quad] = set()
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        sc = TermScanner(line, line=line_no)
        sc.skip_ws()
        if sc.eof() or sc.peek() == "#":
            continue
        subject = sc.read_term()
        if isinstance(subject, Literal):
            sc.error("literal not allowed in subject position", sc.term_line, sc.term_column)
        sc.skip_ws()
        predicate = sc.read_term()
        if not isinstance(predicate, Iri):
            sc.error("predicate must be an IRI", sc.term_line, sc.term_column)
        sc.skip_ws()
        obj = sc.read_term()
        sc.skip_ws()
        graph = None
        if sc.peek() not in (".", ""):
            graph = sc.read_term()
            if not isinstance(graph, Iri):
                sc.error("graph label must be an IRI", sc.term_line, sc.term_column)
            sc.skip_ws()
        sc.expect(".")
        sc.skip_ws()
        if not sc.eof() and sc.peek() != "#":
            sc.error("unexpected content after statement")
        quads.add(Quad(subject, predicate, obj, graph))
    return quads
