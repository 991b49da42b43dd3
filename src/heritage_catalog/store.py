"""Named-graph quad store: indexed pattern queries and reversible updates.

The store is the substrate for metadata records and provenance.  Mutations
are expected from a single writer; queries work on the quad sets as they
stand and never mutate.

Saving writes the whole file atomically, but serializes only the graphs
that changed since the store was loaded: :func:`splice_nquads` copies each
other graph's span of the text read, and a file whose text would not
change is not replaced.  :func:`write_atomic` is the one writer of both
catalog files.
"""

from __future__ import annotations

import os
import stat
import tempfile
from dataclasses import dataclass

from .rdf import (
    BlankNode,
    InputError,
    Iri,
    KeptText,
    Literal,
    Quad,
    Term,
    TermScanner,
    canonical_rows,
    parse_nquads,
    serialize_nquads,
    serialize_term,
)


class _AnyToken:
    """Wildcard pattern position; matches every term and the default graph."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ANY"


ANY = _AnyToken()


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class QuadPattern:
    subject: object = ANY
    predicate: object = ANY
    object: object = ANY
    graph: object = ANY


class OverlapError(InputError):
    """A quad appears in both the delete and the insert set."""


class PreconditionViolation(InputError):
    """Strict delta application found missing deletes or already-present inserts."""

    def __init__(self, missing_deletes=(), present_inserts=()):
        self.missing_deletes = frozenset(missing_deletes)
        self.present_inserts = frozenset(present_inserts)
        bits = []
        if self.missing_deletes:
            bits.append(f"{len(self.missing_deletes)} delete(s) not present")
        if self.present_inserts:
            bits.append(f"{len(self.present_inserts)} insert(s) already present")
        super().__init__("; ".join(bits) or "precondition violation")


@dataclass(frozen=True)
class Delta:
    """Paired delete/insert quad sets; inverting swaps the sides."""

    deletes: frozenset = frozenset()
    inserts: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "deletes", frozenset(self.deletes))
        object.__setattr__(self, "inserts", frozenset(self.inserts))
        overlap = self.deletes & self.inserts
        if overlap:
            raise OverlapError(f"{len(overlap)} quad(s) in both delete and insert sets")

    def invert(self) -> "Delta":
        return Delta(deletes=self.inserts, inserts=self.deletes)

    def is_empty(self) -> bool:
        return not self.deletes and not self.inserts


def _term_key(term: Term) -> tuple:
    if isinstance(term, Iri):
        return (term.value, 0)
    if isinstance(term, BlankNode):
        return (term.label, 1)
    return (term.lexical, 2, term.datatype.value, term.language or "")


def ordered_terms(terms, kind=Term) -> list:
    """The distinct instances of ``kind`` among ``terms``, ordered by IRI,
    lexical form or blank-node label; ties go by kind, then by a literal's
    datatype and language.  A one-term list needs no set and no sort: it
    comes back as it is, or as ``[]`` when its term is not a ``kind``."""
    if isinstance(terms, list) and len(terms) == 1:
        return terms if isinstance(terms[0], kind) else []
    return sorted({t for t in terms if isinstance(t, kind)}, key=_term_key)


class Store:
    """In-memory quad store with three indexes: graph -> quads, subject ->
    predicate -> quads, and (predicate, object) -> quads.

    :meth:`objects` and :meth:`subjects` answer single-hop lookups from the
    last two, ignoring graphs.

    The store also keeps the text it was loaded from or last saved as, and
    the graphs that inserts and deletes have touched since: :meth:`save`
    serializes only those graphs and those the text holds no span of.
    """

    def __init__(self, quads=()):
        self._quads: set[Quad] = set()
        self._by_graph: dict[Iri | None, set[Quad]] = {}
        self._by_subject: dict[Iri | BlankNode, dict[Iri, set[Quad]]] = {}
        self._by_po: dict[tuple, set[Quad]] = {}
        self._kept = KeptText(verbatim=False)  # no file read or written yet
        self._changed: set[Iri | None] = set()
        if quads:
            self.insert_quads(quads)

    def __len__(self):
        return len(self._quads)

    def __contains__(self, quad: Quad):
        return quad in self._quads

    def __iter__(self):
        return iter(list(self._quads))

    def quads(self) -> set[Quad]:
        return set(self._quads)

    def _index_add(self, q: Quad):
        self._by_graph.setdefault(q.graph, set()).add(q)
        self._by_subject.setdefault(q.subject, {}).setdefault(q.predicate, set()).add(q)
        self._by_po.setdefault((q.predicate, q.object), set()).add(q)

    def _index_remove(self, q: Quad):
        predicates = self._by_subject[q.subject]
        for index, key in (
            (self._by_graph, q.graph),
            (predicates, q.predicate),
            (self._by_po, (q.predicate, q.object)),
        ):
            bucket = index[key]
            bucket.discard(q)
            if not bucket:
                del index[key]
        if not predicates:
            del self._by_subject[q.subject]

    def insert_quads(self, quads) -> int:
        """Insert quads, returning how many were not already present."""
        added = 0
        for q in quads:
            if q not in self._quads:
                self._quads.add(q)
                self._index_add(q)
                self._changed.add(q.graph)
                added += 1
        return added

    def delete_quads(self, quads) -> int:
        """Delete quads, returning how many were actually present."""
        removed = 0
        for q in set(quads):
            if q in self._quads:
                self._quads.remove(q)
                self._index_remove(q)
                self._changed.add(q.graph)
                removed += 1
        return removed

    def named_graphs(self) -> list[Iri]:
        return sorted((g for g in self._by_graph if g is not None), key=lambda g: g.value)

    def _sp_quads(self, subject, predicate: Iri):
        return self._by_subject.get(subject, {}).get(predicate, ())

    def subject_quads(self, subject, predicate: Iri | None = None) -> set[Quad]:
        """Quads with this subject, and with this predicate when one is given."""
        if predicate is None:
            return set().union(*self._by_subject.get(subject, {}).values())
        return set(self._sp_quads(subject, predicate))

    def objects(self, subject, predicate: Iri, kind=Term) -> list:
        """Distinct objects of (subject, predicate) in any graph that are
        instances of ``kind``, as :func:`ordered_terms` lists them."""
        return ordered_terms([q.object for q in self._sp_quads(subject, predicate)], kind)

    def subjects(self, predicate: Iri, obj) -> list:
        """Distinct subjects of (predicate, obj) in any graph, ordered like :meth:`objects`."""
        return ordered_terms(q.subject for q in self._by_po.get((predicate, obj), ()))

    def graph_quads(self, graph: Iri | None) -> set[Quad]:
        return set(self._by_graph.get(graph, ()))

    def _candidates(self, pattern: QuadPattern):
        if isinstance(pattern.subject, (Iri, BlankNode)) and isinstance(pattern.predicate, Iri):
            return self._sp_quads(pattern.subject, pattern.predicate)
        if isinstance(pattern.predicate, Iri) and isinstance(pattern.object, (Iri, BlankNode, Literal)):
            return self._by_po.get((pattern.predicate, pattern.object), ())
        if isinstance(pattern.subject, (Iri, BlankNode)):
            return self.subject_quads(pattern.subject)
        if isinstance(pattern.graph, Iri) or pattern.graph is None:
            return self._by_graph.get(pattern.graph, ())
        return self._quads

    @staticmethod
    def _unify(pattern: QuadPattern, quad: Quad) -> dict | None:
        binding: dict[str, Term] = {}
        for pat, val in (
            (pattern.subject, quad.subject),
            (pattern.predicate, quad.predicate),
            (pattern.object, quad.object),
            (pattern.graph, quad.graph),
        ):
            if pat is ANY:
                continue
            if isinstance(pat, Variable):
                if val is None:
                    return None  # the default graph has no term to bind
                if pat.name in binding:
                    if binding[pat.name] != val:
                        return None
                else:
                    binding[pat.name] = val
            elif pat != val:
                return None
        return binding

    def match(self, pattern: QuadPattern) -> list[dict]:
        """All bindings unifying the pattern, one per matching quad, in no
        particular order; :meth:`bgp_query` sorts the solutions once."""
        return [b for q in self._candidates(pattern) if (b := self._unify(pattern, q)) is not None]

    @staticmethod
    def _substitute(pattern: QuadPattern, solution: dict) -> QuadPattern:
        def sub(pos):
            if isinstance(pos, Variable) and pos.name in solution:
                return solution[pos.name]
            return pos

        return QuadPattern(sub(pattern.subject), sub(pattern.predicate), sub(pattern.object), sub(pattern.graph))

    def bgp_query(self, patterns) -> list[dict]:
        """Natural join of the patterns on shared variable names.

        Nested-loop evaluation with index lookups; solution multiplicity
        follows the matching quad combinations.  Every solution binds the same
        variables, so one sort by their terms orders them all.
        """
        patterns = list(patterns)
        if not patterns:
            raise ValueError("at least one pattern is required")
        solutions: list[dict] = [{}]
        for pattern in patterns:
            grown = []
            for sol in solutions:
                for b in self.match(self._substitute(pattern, sol)):
                    grown.append({**sol, **b})
            solutions = grown
        solutions.sort(key=lambda s: tuple(serialize_term(s[k]) for k in sorted(s)))
        return solutions

    def apply_delta(self, delta: Delta, strict: bool = True):
        """Replace deletes with inserts.

        Strict mode demands deletes all present and inserts all absent,
        which is what makes deltas reversible; lax mode degrades to plain
        set difference and union.
        """
        if strict:
            missing = delta.deletes - self._quads
            present = delta.inserts & self._quads
            if missing or present:
                raise PreconditionViolation(missing, present)
        self.delete_quads(delta.deletes)
        self.insert_quads(delta.inserts)

    def save(self, path):
        """Write the canonical N-Quads file with :func:`save_spliced`.
        Graphs that no insert or delete has touched since the store was
        loaded or last saved are copied from that text; the others are
        serialized."""
        self._kept = save_spliced(path, self._kept, self._by_graph, self._by_graph.__getitem__, dict.fromkeys(self._changed))
        self._changed = set()

    @classmethod
    def load(cls, path, iris: dict[str, Iri] | None = None) -> "Store":
        """The store of an N-Quads file, its IRIs built through ``iris`` when given."""
        kept = KeptText.read(path)
        store = cls(parse_nquads(kept.text, iris, kept))
        store._kept, store._changed = kept, set()
        return store


def splice_nquads(kept: KeptText, graphs, quads_of, changed) -> KeptText:
    """Canonical N-Quads of the dataset whose graphs are ``graphs`` (``None``
    is the default graph), holding ``quads_of(graph)`` in each: what
    :func:`serialize_nquads` writes for the whole dataset, with the span
    at which each graph is written.

    ``kept`` is the text the dataset was read from or last written as,
    with its reader's spans.  A graph not in ``changed`` is copied as its
    span of ``kept``, when there is one.  ``changed`` maps every other
    graph to ``None``, or, when the graph has only gained quads since
    ``kept``, to those quads: their lines are then merged into its span,
    if any, as a span's lines are in ``canonical_rows`` order (see
    :class:`KeptText`).  Every other graph is serialized from its quads.
    """
    pieces, written, pos = [], {}, 0
    for graph in sorted(graphs, key=lambda graph: "" if graph is None else f"<{graph}>"):
        span = kept.spans.get(graph)
        if span is not None and graph not in changed:
            piece = kept.text[span[0] : span[1]] + "\n"
        elif span is not None and changed[graph] is not None:
            lines = kept.text[span[0] : span[1]].split("\n") + serialize_nquads(changed[graph]).split("\n")[:-1]
            piece = "\n".join(sorted(lines)) + "\n"
        else:
            piece = serialize_nquads(quads_of(graph))
        pieces.append(piece)
        written[graph] = (pos, pos + len(piece) - 1)
        pos += len(piece)
    return KeptText("".join(pieces), written)


def save_spliced(path, kept: KeptText, graphs, quads_of, changed) -> KeptText:
    """Write :func:`splice_nquads` of the dataset to ``path`` with
    :func:`write_atomic`, and return it; a file read or last written as
    ``kept`` is left in place when ``kept`` is its verbatim text and that
    text would not change."""
    spliced = splice_nquads(kept, graphs, quads_of, changed)
    if not kept.verbatim or spliced.text != kept.text:
        write_atomic(path, spliced.text)
    return spliced


def write_atomic(path, text: str):
    """Replace the file at ``path`` with ``text`` as UTF-8, through a temp
    file in the same directory and a rename, so a reader sees the old file
    or the new one, never part of either.  A replaced file keeps its mode;
    a new one gets the mode a plain ``open`` would give it, 0o666 less the
    umask."""
    path = os.fspath(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0o022)  # reading the umask means setting it
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".store-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_update(text: str, iris: dict[str, Iri] | None = None) -> Delta:
    """Parse the INSERT DATA / DELETE DATA subset into a delta.

    Ground quads only; an optional single GRAPH wrapper per block sets the
    quad graph.  Statements are separated by ``;``.  A quad occurring in
    both sets raises :class:`OverlapError`.  Each block header is read with
    one pattern match, and each of a data block's statements with one
    more; the token scanner reads the rest and places every syntax error.
    IRIs are built through ``iris`` when given, otherwise through a memo of
    this parse alone.
    """
    sc = TermScanner(text, iris=iris)
    deletes: set[Quad] = set()
    inserts: set[Quad] = set()
    sc.skip_ws()
    if sc.eof():
        return Delta()
    while True:
        op, graph = sc.match_block_header() or _scan_block_header(sc)
        target = deletes if op == "DELETE" else inserts
        target.update(sc.match_statements(graph))
        sc.skip_ws()
        while sc.peek() != "}":
            if sc.eof():
                sc.error("unterminated data block")
            s, p, o = sc.read_triple()
            sc.expect(".")
            sc.skip_ws()
            target.add(Quad(s, p, o, graph))
        sc.expect("}")
        sc.skip_ws()
        if graph is not None:
            sc.expect("}")
            sc.skip_ws()
        if sc.eof():
            break
        sc.expect(";")
        sc.skip_ws()
        if sc.eof():
            sc.error("expected a statement after ';'")
    return Delta(deletes=deletes, inserts=inserts)  # raises OverlapError itself


def _scan_block_header(sc: TermScanner) -> tuple[str, Iri | None]:
    """An update block's header read token by token: its operation and
    graph, or the :class:`ParseError` of its first syntax error."""
    keyword_pos = sc.pos
    op = sc.read_keyword().upper()
    if op not in ("INSERT", "DELETE"):
        sc.error(f"expected INSERT or DELETE, found {op!r}", keyword_pos)
    sc.skip_ws()
    if sc.read_keyword().upper() != "DATA":
        sc.error("expected DATA", keyword_pos)
    sc.skip_ws()
    sc.expect("{")
    sc.skip_ws()
    graph = None
    word = sc.read_keyword()
    if word:
        if word.upper() != "GRAPH":
            sc.error(f"unexpected token {word!r} in data block")
        sc.skip_ws()
        graph = sc.read_graph_label()
        sc.expect("{")
        sc.skip_ws()
    return op, graph


def _update_block(op: str, graph: Iri | None, quads) -> str:
    lines = "".join(f"  {s} {p} {o} .\n" for _, s, p, o in canonical_rows(quads))
    if graph is None:
        return f"{op} DATA {{\n{lines}}}"
    return f"{op} DATA {{ GRAPH {serialize_term(graph)} {{\n{lines}}} }}"


def serialize_update(delta: Delta) -> str:
    """Canonical update text: DELETE DATA blocks, then INSERT DATA blocks.

    One block per graph on each side (the grammar allows a single GRAPH
    wrapper per block), default graph first, quads sorted canonically.
    Empty delta serializes to the empty string; ``parse_update`` is its
    inverse.
    """
    blocks = []
    for op, quads in (("DELETE", delta.deletes), ("INSERT", delta.inserts)):
        if not quads:
            continue
        groups: dict[Iri | None, set] = {}
        for q in quads:
            groups.setdefault(q.graph, set()).add(q)
        order = sorted(groups, key=lambda g: "" if g is None else g.value)
        for graph in order:
            blocks.append(_update_block(op, graph, groups[graph]))
    if not blocks:
        return ""
    return "\n;\n".join(blocks) + "\n"
