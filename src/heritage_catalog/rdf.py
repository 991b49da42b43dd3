"""RDF terms, quads and N-Quads text handling.

All values are immutable and hashable, so datasets are plain sets of
:class:`Quad` and can be shared freely across threads.  Parsing and
serialization are pure functions; serialization is canonical (sorted,
deterministic escaping, trailing newline), which makes byte comparison a
valid equality test for datasets.

The N-Quads and update parsers read each statement, and an update reads
each block header, with one match of a pattern that takes exactly what
the serializers write: one statement grammar, composed from the sources
of the scanner's tokens.  Everything else goes to :class:`TermScanner`,
which reads it token by token and either parses it or raises its syntax
error with line and column.  The scanner alone parses query patterns.

Terms are built-in values: an :class:`Iri` or :class:`BlankNode` is a
``str`` and a :class:`Literal` or :class:`Quad` a ``tuple``, hashed by
that type in C and equal only to a value of its own type.  Term work is
done once: a parse builds and validates each distinct IRI token once,
through a memo that lives for that parse, or for one ``Catalog.open``
when open passes the same memo to every parse it makes; serialization
renders each term once per quad and sorts the rendered rows.
:func:`read_statements` yields each statement as a plain tuple of its
four terms, for a reader that keeps no :class:`Quad`.

A line is in canonical spelling exactly when the statement pattern took
it, its terms built and no IRI token holds an escape.  A parse records
in :class:`KeptText` the span of each graph that a save can copy.  One
grammar over the escaped spelling that ``prov.nq`` holds recognizes an
update query as ``store.serialize_update`` writes it, so that the query
can stay text until read.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple
from contextlib import contextmanager
from typing import NoReturn

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

_SCHEME = r"[A-Za-z][A-Za-z0-9+.\-]*:"
# Characters never allowed in an IRI reference: controls, space and the
# bracket/quote/caret family excluded by the N-Quads IRIREF production.
_IRI_FORBIDDEN_CHARS = r'\x00-\x20<>"{}|^`\\\x7f'
_SCHEME_RE = re.compile(_SCHEME)
_IRI_FORBIDDEN = re.compile(f"[{_IRI_FORBIDDEN_CHARS}]")
# What ``Iri`` accepts: a scheme, then none of those characters.
_ABSOLUTE_IRI = re.compile(f"{_SCHEME}[^{_IRI_FORBIDDEN_CHARS}]*\\Z")
# What ``BlankNode`` and ``Literal`` accept as a label and a language tag.
_BNODE_LABEL = r"[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?"
_LANG_TAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_BNODE_RE = re.compile(f"{_BNODE_LABEL}\\Z")
_LANG_RE = re.compile(f"{_LANG_TAG}\\Z")


class InputError(ValueError):
    """Input the catalog refuses: a file, table, mapping, query, timestamp
    or request that it cannot read or must not apply.  Every input error
    of the package derives from this class."""


class InvalidIri(InputError):
    """Text does not form an acceptable absolute IRI."""


class InvalidTerm(InputError):
    """Malformed blank-node label, literal or escape sequence."""


class ParseError(InputError):
    """Syntax error carrying a 1-based line (and column, when known)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}: " if column is None else f"line {line}, column {column}: "
        super().__init__(where + message)


@contextmanager
def open_utf8(path, newline: str | None = None):
    """The file at ``path`` opened for reading as UTF-8 text, as ``open``
    opens it with ``newline``; reading bytes that are not UTF-8 raises
    :class:`ParseError` naming the file and the offset of the first, which
    is the file's own offset when one ``read()`` takes the whole file.  A
    file that cannot be opened or read, a directory say, raises
    :class:`InputError` naming it; a missing one stays FileNotFoundError."""
    try:
        with open(path, encoding="utf-8", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise ParseError(f"{os.fspath(path)} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise InputError(f"cannot read {os.fspath(path)}: {exc.strerror}") from None


def _iri_fault(v: str) -> str:
    """Why ``v``, which ``_ABSOLUTE_IRI`` rejects, is not an absolute IRI."""
    if v.startswith(":"):
        return f"empty scheme in {v!r}"
    if not _SCHEME_RE.match(v):
        return f"relative reference (no scheme) in {v!r}"
    c = _IRI_FORBIDDEN.search(v).group()
    what = "space" if c == " " else f"character {c!r}"
    return f"{what} not allowed in IRI {v!r}"


class _Text(str):
    """A term held as its text, hashed by ``str`` and equal only to its own type."""

    __slots__ = ()
    __hash__ = str.__hash__

    def __eq__(self, other):
        return type(other) is type(self) and str.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or str.__ne__(self, other)

    def __repr__(self):
        return f"{type(self).__name__}({self._field}={str.__repr__(self)})"


class Iri(_Text):
    """Absolute IRI; equality is exact codepoint equality."""

    __slots__ = ()
    _field = "value"
    value = property(str.__str__)  # a plain str

    def __new__(cls, value: str):
        # One match decides; the reason is worked out only for a rejection.
        if not _ABSOLUTE_IRI.match(value):
            raise InvalidIri(_iri_fault(value))
        return str.__new__(cls, value)


class BlankNode(_Text):
    __slots__ = ()
    _field = "label"
    label = property(str.__str__)  # a plain str
    __str__ = _Text.__repr__  # a message names a blank node as one, not as bare text

    def __new__(cls, label: str):
        if not _BNODE_RE.match(label):
            raise InvalidTerm(f"invalid blank node label {label!r}")
        return str.__new__(cls, label)


class _Row(tuple):
    """A term or quad held as its fields, hashed by ``tuple`` and equal only to its own type."""

    __slots__ = ()
    __hash__ = tuple.__hash__
    _make = classmethod(lambda cls, fields: cls(*fields))  # so namedtuple's _replace checks too

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)


XSD_STRING = Iri(XSD_NS + "string")
RDF_LANG_STRING = Iri(RDF_NS + "langString")


class Literal(_Row, namedtuple("Literal", "lexical datatype language")):
    """Typed or language-tagged literal.  A language tag forces the language-string
    datatype; with neither a tag nor a datatype the plain string datatype applies."""

    __slots__ = ()

    def __new__(cls, lexical: str, datatype: Iri | None = None, language: str | None = None):
        if language is not None:
            if not _LANG_RE.match(language):
                raise InvalidTerm(f"invalid language tag {language!r}")
            if datatype not in (None, RDF_LANG_STRING):
                raise InvalidTerm("language-tagged literal cannot carry another datatype")
            datatype = RDF_LANG_STRING
        elif datatype is None:
            datatype = XSD_STRING
        elif datatype == RDF_LANG_STRING:
            raise InvalidTerm("language-string datatype requires a language tag")
        return tuple.__new__(cls, (lexical, datatype, language))


Term = Iri | BlankNode | Literal


class Quad(_Row, namedtuple("Quad", "subject predicate object graph")):
    """One statement, as its ``(subject, predicate, object, graph)`` row."""

    __slots__ = ()

    def __new__(cls, subject: Iri | BlankNode, predicate: Iri, object: Term, graph: Iri | None = None):
        if not isinstance(subject, (Iri, BlankNode)):
            raise InvalidTerm("literal not allowed in subject position" if isinstance(subject, Literal) else f"bad subject {subject!r}")
        if not isinstance(predicate, Iri):
            raise InvalidTerm("predicate must be an IRI")
        if not isinstance(object, (Iri, BlankNode, Literal)):
            raise InvalidTerm(f"bad object {object!r}")
        if graph is not None and not isinstance(graph, Iri):
            raise InvalidTerm("graph label must be an IRI")
        return tuple.__new__(cls, (subject, predicate, object, graph))


def _escape_literal(text: str) -> str:
    # Backslash first, so the backslashes added after it stay single.
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\r", "\\r")


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
    return " ".join([serialize_term(term) for term in quad if term is not None]) + " ."


def canonical_rows(quads) -> list[tuple[str, str, str, str]]:
    """Each quad as its (graph, subject, predicate, object) serializations,
    every term serialized once, sorted; the default graph is "" and sorts first."""
    term = serialize_term
    return sorted(("" if q.graph is None else term(q.graph), term(q.subject), term(q.predicate), term(q.object)) for q in quads)


def serialize_nquads(quads) -> str:
    """Canonical N-Quads: one statement per line, sorted, trailing newline; two
    equal quad sets serialize to identical bytes whatever their insertion order."""
    return "".join(f"{s} {p} {o} {g} .\n" if g else f"{s} {p} {o} .\n" for g, s, p, o in canonical_rows(quads))


# Token pattern sources.  The scanner compiles each token pattern from its
# source and matches it at its cursor.  An IRI token runs to the next '>';
# what it may contain is checked by ``Iri`` alone.
_WS_SOURCE = r"[ \t\r\n]*"
_IRI_SOURCE = r"<([^>]*)>"
# A trailing dot belongs to the statement, not the label.
_BNODE_SOURCE = r"_:((?:[\w.-]*[\w-])?)"
# Opening quote and body, unrolled: one repetition per escape, not per
# character.  Compiled with re.S, so an escape may take any character.
_LITERAL_SOURCE = r'"([^"\\\n\r]*(?:\\.[^"\\\n\r]*)*)'
_LANG_SOURCE = r"@((?:[^\W_]|-)*)"

_LETTER = r"[^\W\d_]"  # word characters other than digits and '_'

_WS = re.compile(_WS_SOURCE)
_KEYWORD = re.compile(f"{_LETTER}*")
_IRI_TOKEN = re.compile(_IRI_SOURCE)
_BNODE_TOKEN = re.compile(_BNODE_SOURCE)
# The closing quote is optional so that an unclosed literal still yields its body.
_LITERAL_TOKEN = re.compile(_LITERAL_SOURCE + '("?)', re.S)
_LANG_TOKEN = re.compile(_LANG_SOURCE)

# The statement grammar: terms exactly as ``serialize_term`` writes them,
# one space apart.  A literal body escapes only backslash, quote, LF and
# CR, unrolled as ``_LITERAL_SOURCE`` is; a literal names neither the
# plain-string datatype nor, untagged, the language-string one.
_CANONICAL_BODY = r'[^"\\\n\r]*(?:\\[\\"nr][^"\\\n\r]*)*'
# The same literal escaped once more, as it stands inside another literal's
# body: its quotes are ``\"`` and each escape of its body is ``\\`` followed
# by ``\\``, ``\"``, ``n`` or ``r``.
_ESCAPED_QUOTE = r'\\"'
_ESCAPED_LITERAL_BODY = r'[^"\\\n\r]*(?:\\\\(?:\\[\\"]|[nr])[^"\\\n\r]*)*'
# An IRI token holding no escape, as ``serialize_term`` writes every IRI:
# its text is the IRI's value.
_UNESCAPED_IRI_SOURCE = r"<([^>\\]*)>"
_DATATYPE_MARK = f"\\^\\^(?!<(?:{re.escape(XSD_STRING)}|{re.escape(RDF_LANG_STRING)})>)"


def _triple(iri: str, group: str = "(", quote: str = '"', body: str = _CANONICAL_BODY) -> str:
    """``subject predicate object`` in canonical spelling, given an IRI
    token source; ``group`` opens each label, literal body and language tag
    group, and ``quote`` and ``body`` spell a literal's quotes and body.
    Groups 1-8, when all capture: subject IRI or label, predicate IRI,
    object IRI, label or literal body, language tag, datatype IRI."""
    return (
        f"(?:{iri}|_:{group}{_BNODE_LABEL})) {iri} "
        f"(?:{iri}|_:{group}{_BNODE_LABEL})|{quote}{group}{body}){quote}(?:@{group}{_LANG_TAG})|{_DATATYPE_MARK}{iri})?)"
    )


# The parsers' patterns take only canonical text; the scanner reads the
# rest.  Each term ends at a fixed character or before the one space after
# it, so a match splits a statement into the scanner's tokens.  One whole
# N-Quads line; group 9 is the graph IRI.
_NQUADS_STATEMENT = re.compile(f"{_triple(_IRI_SOURCE)}(?: {_IRI_SOURCE})? \\.\\Z")
# One indented statement line inside an update's data block.
_UPDATE_STATEMENT = re.compile(f"  {_triple(_IRI_SOURCE)} \\.\n")
# An update block's header line; group 1 is the operation, group 2 the
# graph IRI.  The scanner reads a word after a header as part of it.
_UPDATE_HEADER = re.compile(f"(INSERT|DELETE) DATA \\{{(?: GRAPH {_IRI_SOURCE} \\{{)?\n(?!{_WS_SOURCE}{_LETTER})")

# The update grammar builds no terms, so its IRI token takes only what
# ``Iri`` accepts, and its statements capture nothing.
_CANONICAL_IRI_BODY = f"{_SCHEME}[^{_IRI_FORBIDDEN_CHARS}]*"
# ``store.serialize_update`` output as ``prov.nq`` holds it, escaped in a
# canonical literal body: each line break is ``\n`` and each quote ``\"``.
# It takes the blocks in any order; ``_ordered_update`` checks the order.
_ESCAPED_LINES = f"(?:  {_triple(f'<{_CANONICAL_IRI_BODY}>', '(?:', _ESCAPED_QUOTE, _ESCAPED_LITERAL_BODY)} \\.\\\\n)+"
_ESCAPED_BLOCK = f"(?:DELETE|INSERT) DATA \\{{(?:\\\\n{_ESCAPED_LINES}\\}}| GRAPH <{_CANONICAL_IRI_BODY}> \\{{\\\\n{_ESCAPED_LINES}\\}} \\}})"
_ESCAPED_UPDATE_SOURCE = f"(?:{_ESCAPED_BLOCK}(?:\\\\n;\\\\n{_ESCAPED_BLOCK})*\\\\n)?"
_ESCAPED_UPDATE = re.compile(f"{_ESCAPED_UPDATE_SOURCE}\\Z")


def _increasing(lines: list[str]) -> bool:
    return all(map(str.__lt__, lines, lines[1:]))


def _ordered_update(escaped: str) -> bool:
    """Whether an update query that ``_ESCAPED_UPDATE_SOURCE`` takes, given
    as that escaped text, is in the order ``store.serialize_update``
    writes: DELETE blocks before INSERT blocks, each side's blocks in order
    of graph IRI value with the default graph first, at most one block per
    graph and side, strictly increasing lines within a block (the order of
    :func:`canonical_rows`, see :class:`KeptText`), and no
    statement in both blocks of one graph.

    The escaped text splits where the text does: the block separator and
    a statement's closing dot, each with its line break escaped, stand
    nowhere else, as a line break cannot stand in a literal.  Escaped lines
    compare as the text's lines do once each escaped quote is read as a
    quote, which is 0x22 where its escape starts with a backslash, 0x5C.  A
    backslash, escaped as two, keeps its place: it is the only character
    whose escape starts with one.
    """
    if not escaped:
        return True
    # A block's key is its operation's initial, D before I, and its graph
    # IRI, which stands between "INSERT DATA { GRAPH <" and "> {".
    last, deleted = ("", ""), {}
    for block in escaped.split("\\n;\\n"):
        head, _, body = block.partition("\\n")
        key = (head[0], head[21:-3])
        if key <= last:
            return False
        lines = body.split(" .\\n")
        del lines[-1]
        if len(lines) > 1 and not _increasing([line.replace('\\"', '"') for line in lines]):
            return False
        if key[0] == "D":
            deleted[key[1]] = lines
        elif key[1] in deleted and not set(deleted[key[1]]).isdisjoint(lines):
            return False
        last = key
    return True


def is_canonical_update(text: str) -> bool:
    """Whether ``text`` is an update query exactly as ``store.serialize_update``
    writes one, so that ``store.parse_update`` reads it without error and
    writing the result back gives ``text`` again.  The text is escaped as a
    literal body and checked as the block reader checks the body it reads:
    by the escaped-update grammar, then by :func:`_ordered_update`."""
    escaped = _escape_literal(text)
    return _ESCAPED_UPDATE.match(escaped) is not None and _ordered_update(escaped)


class KeptText:
    """N-Quads text that a store or tracker read or last wrote, and the
    span its reader recorded of each graph that a save may copy.  The text
    is ``verbatim`` when it is the file's content as it stands, which it is
    not when reading translated a line break other than LF.

    ``spans`` maps such a graph to the ``(start, end)`` offsets of all its
    lines, the last line break left out.  They stand together, each in
    canonical spelling, strictly increasing, and so in :func:`canonical_rows`
    order, as :func:`serialize_nquads` writes them: a line compares by
    subject, then predicate, then object, because the terms are separated
    by a space and, wherever one canonical term is a prefix of another, the
    longer one goes on with a character above space: a literal closes with
    its quote and may go on only with '@' or '^^', a language tag with a
    letter, digit or '-', a blank-node label with a letter, digit, '_', '.'
    or '-', and an IRI cannot go on past its '>'.
    """

    __slots__ = ("text", "spans", "verbatim")

    def __init__(self, text: str = "", spans: dict | None = None, verbatim: bool = True):
        self.text = text
        self.spans: dict[Iri | None, tuple[int, int]] = {} if spans is None else spans
        self.verbatim = verbatim

    @classmethod
    def read(cls, path) -> "KeptText":
        """The text of a UTF-8 file, every line break read as LF, with no
        span recorded yet."""
        with open_utf8(path) as handle:
            text = handle.read()
            return cls(text, verbatim=handle.newlines in (None, "\n"))


_UCHAR = re.compile(r"\\u([0-9A-Fa-f]{4})|\\U([0-9A-Fa-f]{8})")
_UCHAR_OR_ECHAR = re.compile(r"\\u([0-9A-Fa-f]{4})|\\U([0-9A-Fa-f]{8})|\\(.)", re.S)
_ESCAPE_SPLIT = re.compile(r"\\(.)", re.S)
_ECHARS = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


def _decode_escape(match: re.Match) -> str:
    digits = match.group(1) or match.group(2)
    if digits is None:  # only _UCHAR_OR_ECHAR has a third group
        char = match.group(3)
        if char in _ECHARS:
            return _ECHARS[char]
        raise InvalidTerm(f"bad \\{char} escape" if char in "uU" else f"bad escape '\\{char}' in literal")
    code = int(digits, 16)
    if code > 0x10FFFF:
        raise InvalidTerm("escape out of unicode range")
    if 0xD800 <= code <= 0xDFFF:  # no UTF-8 encoding: the catalog could not save it
        raise InvalidTerm("escape of a surrogate code point")
    return chr(code)


def _unescape(pattern: re.Pattern, body: str) -> str:
    return pattern.sub(_decode_escape, body) if "\\" in body else body


def _unescape_literal(body: str) -> str:
    """A literal body with its escapes decoded.  A body whose escapes are all
    single-character ones is split around them and decoded by table lookup,
    without a call per escape; any other goes through ``_decode_escape``."""
    if "\\" not in body:
        return body
    parts = _ESCAPE_SPLIT.split(body)
    try:
        parts[1::2] = [_ECHARS[char] for char in parts[1::2]]
    except KeyError:  # \u, \U or a bad escape
        return _unescape(_UCHAR_OR_ECHAR, body)
    return "".join(parts)


def memo_iri(raw: str, iris: dict[str, Iri]) -> Iri:
    """The :class:`Iri` of a raw IRI token, built once per memo.  An IRI's
    own value is also a valid raw token of it, since it holds no backslash."""
    iri = iris.get(raw)
    if iri is None:
        iri = iris[raw] = Iri(_unescape(_UCHAR, raw))
    return iri


def _matched_terms(groups: tuple, iris: dict[str, Iri], graph: Iri | None) -> tuple:
    """The (subject, predicate, object, graph) terms of a statement-pattern
    match, from its groups, built through the same IRI memo, unescaping and
    term constructors as the scanner's; raises :class:`InvalidIri` or
    :class:`InvalidTerm` as they do."""
    subject, subject_label, predicate, iri, label, body, language, datatype = groups[:8]
    memo = iris.get
    if iri is not None:
        obj = memo(iri) or memo_iri(iri, iris)
    elif label is not None:
        obj = BlankNode(label)
    else:
        obj = Literal(_unescape_literal(body), None if datatype is None else memo(datatype) or memo_iri(datatype, iris), language)
    subject = BlankNode(subject_label) if subject is None else memo(subject) or memo_iri(subject, iris)
    return subject, memo(predicate) or memo_iri(predicate, iris), obj, graph


class TermScanner:
    """Cursor over one piece of N-Triples-flavoured text.

    Each token is read with one match of a compiled pattern at the cursor.
    Only the offset is tracked: the line and column of a syntax error are
    computed from it when the error is raised; ``line`` numbers the text's
    first line.  The N-Quads and update parsers read whole statements with
    one match each (:meth:`match_statements` inside a data block) and use
    the token readers only for what those matches do not take, so the
    scanner is what places every syntax error.  Query patterns are read
    with the token readers alone.

    ``iris`` maps a raw IRI token to the :class:`Iri` built from it.  Every
    scanner of one parse, or of one ``Catalog.open``, shares one dict, so a
    repeated IRI is built and validated once there and never across them.
    Only valid IRIs enter it, so an invalid one raises wherever it occurs.
    """

    def __init__(self, text: str, line: int = 1, iris: dict[str, Iri] | None = None):
        self.text = text
        self.pos = 0
        self.line = line
        self.iris = {} if iris is None else iris

    def error(self, message: str, pos: int | None = None) -> NoReturn:
        """Raise a :class:`ParseError` at ``pos`` (default: the cursor)."""
        if pos is None:
            pos = self.pos
        line_start = self.text.rfind("\n", 0, pos) + 1
        raise ParseError(message, self.line + self.text.count("\n", 0, pos), pos - line_start + 1)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos : self.pos + 1]

    def match(self, pattern: re.Pattern) -> re.Match | None:
        """Match ``pattern`` at the cursor and move past it on success."""
        found = pattern.match(self.text, self.pos)
        if found:
            self.pos = found.end()
        return found

    def skip_ws(self):
        self.pos = _WS.match(self.text, self.pos).end()

    def expect(self, char: str):
        found = self.peek()
        if found != char:
            self.error(f"expected {char!r}, found {found!r}" if found else f"expected {char!r}, found end of input")
        self.pos += 1

    def read_keyword(self) -> str:
        """The run of letters at the cursor, possibly empty."""
        return self.match(_KEYWORD).group()

    def read_term(self) -> Term:
        """One IRI, blank node or literal; a malformed one is reported at its start."""
        start = self.pos
        c = self.peek()
        try:
            if c == "<":
                return self._read_iri()
            if c == "_":
                return self._read_bnode()
            if c == '"':
                return self._read_literal()
        except (InvalidIri, InvalidTerm) as exc:
            self.error(str(exc), start)
        self.error(f"unexpected character {c!r}" if c else "expected a term, found end of input")

    def read_triple(self) -> tuple[Iri | BlankNode, Iri, Term]:
        """Subject, predicate and object, each followed by optional whitespace."""
        start = self.pos
        subject = self.read_term()
        if isinstance(subject, Literal):
            self.error("literal not allowed in subject position", start)
        self.skip_ws()
        start = self.pos
        predicate = self.read_term()
        if not isinstance(predicate, Iri):
            self.error("predicate must be an IRI", start)
        self.skip_ws()
        obj = self.read_term()
        self.skip_ws()
        return subject, predicate, obj

    def read_graph_label(self) -> Iri:
        """A graph IRI followed by optional whitespace."""
        start = self.pos
        graph = self.read_term()
        if not isinstance(graph, Iri):
            self.error("graph label must be an IRI", start)
        self.skip_ws()
        return graph

    def match_statements(self, graph: Iri | None) -> list[Quad]:
        """Read canonical ``  subject predicate object .`` statement lines,
        with one statement-pattern match per line.  Stops before the first
        line that does not match, or whose terms fail to build, and leaves
        the rest to the token readers, which parse it or report its error."""
        quads = []
        while found := _UPDATE_STATEMENT.match(self.text, self.pos):
            try:
                quads.append(Quad(*_matched_terms(found.groups(), self.iris, graph)))
            except (InvalidIri, InvalidTerm):
                break
            self.pos = found.end()
        return quads

    def match_block_header(self) -> tuple[str, Iri | None] | None:
        """The operation and graph of an update block's canonical header
        line, read in one match; ``None``, with the cursor left in place,
        when the pattern does not take the header or its graph IRI fails to
        build, which leaves it to the keyword and term readers."""
        found = _UPDATE_HEADER.match(self.text, self.pos)
        if found is None:
            return None
        op, raw = found.groups()
        graph = None
        if raw is not None:
            try:
                graph = self.iris.get(raw) or memo_iri(raw, self.iris)
            except (InvalidIri, InvalidTerm):
                return None
        self.pos = found.end()
        return op, graph

    def _read_iri(self) -> Iri:
        token = self.match(_IRI_TOKEN)
        if token is None:
            raise InvalidIri("unterminated IRI")
        return memo_iri(token.group(1), self.iris)

    def _read_bnode(self) -> BlankNode:
        token = self.match(_BNODE_TOKEN)
        if token is None:
            raise InvalidTerm("expected ':' after '_'")
        return BlankNode(token.group(1))

    def _read_literal(self) -> Literal:
        body, closed = self.match(_LITERAL_TOKEN).groups()
        lexical = _unescape_literal(body)
        if not closed:
            broken = self.peek() in ("\n", "\r")
            raise InvalidTerm("unescaped line break in literal" if broken else "unterminated literal")
        language = datatype = None
        tag = self.match(_LANG_TOKEN)
        if tag:
            language = tag.group(1)
        elif self.text.startswith("^^", self.pos):
            self.pos += 2
            if self.peek() != "<":
                self.error("expected datatype IRI after '^^'")
            datatype = self.read_term()
        return Literal(lexical, datatype, language)


def _scan_nquads_line(line: str, line_no: int, iris: dict[str, Iri]) -> tuple | None:
    """One line read token by token: its four terms, or ``None`` for a blank
    or comment line; raises the :class:`ParseError` of its first syntax error."""
    sc = TermScanner(line, line=line_no, iris=iris)
    sc.skip_ws()
    if sc.eof() or sc.peek() == "#":
        return None
    subject, predicate, obj = sc.read_triple()
    graph = None if sc.peek() in (".", "") else sc.read_graph_label()
    sc.expect(".")
    sc.skip_ws()
    if not sc.eof() and sc.peek() != "#":
        sc.error("unexpected content after statement")
    return subject, predicate, obj, graph


def read_statements(text: str, iris: dict[str, Iri] | None = None, kept: KeptText | None = None):
    """Yield each statement of N-Quads (or N-Triples) text as its
    ``(subject, predicate, object, graph)`` terms, in text order, repeats
    included; the graph is ``None`` in the default graph.

    Accepts LF or CRLF line endings, blank lines and full-line ``#``
    comments.  The first syntax error raises :class:`ParseError` with its
    line and column.  A canonical statement line is read with one match of
    the statement pattern; any other line, or one whose terms fail to build,
    goes to the scanner, which parses it or reports its error.  IRIs are
    built through ``iris`` when given, otherwise through a memo of this
    parse alone.  Once every statement is read, the parse records in
    ``kept``, when given, which must hold ``text``, the span of each graph
    (see :class:`KeptText`): a canonical line extends its graph's run when
    it directly follows the run's last line and sorts after it, and any
    other line of the graph drops the graph's span.
    """
    if iris is None:
        iris = {}
    # Each graph's [start, end], None once dropped; and the graph, offsets
    # and last line of the run the last canonical line began or extended.
    spans: dict = {}
    run, span, last = None, [0, -2], ""
    pos = 0
    lines = text.split("\n")
    for line_no, found in enumerate(map(_NQUADS_STATEMENT.match, lines), start=1):
        if found:
            groups = found.groups()
            graph = groups[8]
            try:
                row = _matched_terms(groups, iris, None if graph is None else iris.get(graph) or memo_iri(graph, iris))
            except (InvalidIri, InvalidTerm):
                pass
            else:
                line, graph = found.string, row[3]
                end = pos + len(line)
                if "\\" in line and any(groups[i] and "\\" in groups[i] for i in (0, 2, 3, 7, 8)):
                    spans[graph] = None
                elif graph is run and pos == span[1] + 1 and line > last:
                    span[1], last = end, line
                else:
                    run, span, last = graph, [pos, end], line
                    spans[graph] = None if graph in spans else span
                pos = end + 1
                yield row
                continue
        line = lines[line_no - 1]
        pos += len(line) + 1
        # The scanner is given the line without a trailing '\r'.
        row = _scan_nquads_line(line[:-1] if line.endswith("\r") else line, line_no, iris)
        if row is not None:
            spans[row[3]] = None
            yield row
    if kept is not None:
        kept.spans = {graph: tuple(span) for graph, span in spans.items() if span is not None}


def parse_nquads(text: str, iris: dict[str, Iri] | None = None, kept: KeptText | None = None) -> set[Quad]:
    """Parse N-Quads (or N-Triples) text into a set of quads, as
    :func:`read_statements` reads it."""
    return {Quad(*row) for row in read_statements(text, iris, kept)}
