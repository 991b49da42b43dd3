"""``Catalog.open`` against the reference pipeline it replaces.

The reference parses ``data.nq`` into a store and ``prov.nq`` into rows of
terms, each with a memo of its own, and rebuilds the chains from those
rows.  ``open`` shares one IRI memo across every parse it makes, reads a
canonical ``prov.nq`` one snapshot block per pattern match and any other
as term rows without building a quad per line; it must give the same
store, the same chains, the same graphs marked for a save to write afresh,
the same record of kept lines and the same errors.
"""

import gc
import re
import tempfile
from collections import Counter
from dataclasses import fields
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DATA_DIR,
    is_live,
    mutations,
    quad_strategy,
    reference_body_is_canonical,
    reference_is_canonical_update,
    swapped_lines,
    ts,
)
from heritage_catalog import provenance, rdf, vocab
from heritage_catalog import store as store_module
from heritage_catalog.catalog import Catalog
from heritage_catalog.cli import main
from heritage_catalog.provenance import ProvenanceTracker, Snapshot, iso_timestamp, prov_graph_iri
from heritage_catalog.rdf import (
    RDF_LANG_STRING,
    XSD_STRING,
    Iri,
    KeptText,
    Literal,
    ParseError,
    Quad,
    _escape_literal,
    is_canonical_update,
    parse_nquads,
    serialize_nquads,
    serialize_quad,
)
from heritage_catalog.store import Delta, Store, parse_update, serialize_update
from test_provenance import CHAIN_CORRUPTIONS, E, _three_snapshot_payload


def reference_open(root: Path) -> tuple[Store, ProvenanceTracker]:
    store = Store.load(root / "data.nq")
    text = (root / "prov.nq").read_text(encoding="utf-8")
    tracker = ProvenanceTracker.from_quads(store, rdf.read_statements(text, kept=(kept := KeptText(text))))
    tracker._kept = kept
    return store, tracker


def snapshot_fields(snapshot: Snapshot) -> list:
    return [(spec.name, getattr(snapshot, spec.name)) for spec in fields(Snapshot)]


def kept_record(kept: KeptText) -> tuple:
    """What a save takes from kept text: the text and each graph's span."""
    return kept.text, kept.spans


def opened_state(store: Store, tracker: ProvenanceTracker) -> tuple:
    """Everything an open yields: the store, every chain field by field, the
    entities marked unsaved and the record of the provenance lines."""
    chains = {entity: [snapshot_fields(s) for s in tracker.chain(entity)] for entity in tracker.entities()}
    return store.quads(), tracker.entities(), chains, tracker._unsaved, kept_record(tracker._kept)


def _forbidden(name: str):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called on a canonical prov.nq")

    return fail


def open_by_blocks(root: Path) -> Catalog:
    """``Catalog.open`` with the line reader of ``prov.nq`` made to fail."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(provenance, "read_statements", _forbidden("read_statements"))
        patch.setattr(ProvenanceTracker, "from_quads", classmethod(_forbidden("from_quads")))
        return Catalog.open(root)


def assert_opens_alike(root: Path):
    """A catalog as save writes it opens as the reference opens it, with
    no line of its ``prov.nq`` left to the line reader."""
    store, tracker = reference_open(root)
    opened = open_by_blocks(root)
    assert opened_state(opened.store, opened.tracker) == opened_state(store, tracker)
    assert opened.tracker.export_all_graphs() == tracker.export_all_graphs()


def assert_spans_are_read_back(root: Path, opened: Catalog):
    """The spans a save returned for each file are those its readers record
    on the text it wrote: the line reader for both files, and the block
    reader too for ``prov.nq``."""
    for name, kept in (("data.nq", opened.store._kept), ("prov.nq", opened.tracker._kept)):
        text = (root / name).read_text(encoding="utf-8")
        read = KeptText(text)
        parse_nquads(text, kept=read)
        assert (kept.text, kept.spans) == (text, read.spans)
    blocks = KeptText(kept.text)
    assert provenance._read_blocks(blocks, {}) is not None
    assert blocks.spans == kept.spans


def utf8_encodable(quad: Quad) -> bool:
    """Whether the quad can be written to a UTF-8 file: a literal holding a
    lone surrogate cannot, so no catalog file can hold it."""
    try:
        serialize_quad(quad).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def open_outcome(open_, root: Path) -> tuple:
    try:
        open_(root)
    except ValueError as exc:
        return (type(exc).__name__, getattr(exc, "line", None), getattr(exc, "column", None), str(exc))
    return ("opened",)


def full_outcome(open_, root: Path) -> tuple:
    """The state ``open_`` yields, or the type, line, column and message of its error."""
    try:
        result = open_(root)
    except Exception as exc:
        return (type(exc).__name__, getattr(exc, "line", None), getattr(exc, "column", None), str(exc))
    if isinstance(result, Catalog):
        result = result.store, result.tracker
    return ("opened", *opened_state(*result))


def block_reads(monkeypatch) -> list:
    """Every ``prov.nq`` read that fell back to the line reader from here on."""
    fallbacks = []
    original = provenance.read_statements
    monkeypatch.setattr(provenance, "read_statements", lambda *args: fallbacks.append(args[0]) or original(*args))
    return fallbacks


class TestOpenEquivalence:
    ENTITIES = [Iri(f"http://ex.org/e/{i}") for i in range(3)]
    AGENTS = [Iri("http://ex.org/agent/a"), Iri("http://ex.org/agent/b")]
    # One step of a history: its kind, the entity and the other entity (a
    # merge's absorbed one, a creation's source), quads for the entity, and
    # how many of its current quads a modification deletes.
    OPS = st.tuples(
        st.sampled_from(["creation", "modification", "merge", "deletion"]),
        st.integers(0, 2),
        st.integers(0, 2),
        st.lists(quad_strategy.filter(utf8_encodable), max_size=4),
        st.integers(0, 3),
    )

    def test_gold_catalog(self, gold_catalog):
        assert_opens_alike(gold_catalog.root)

    @classmethod
    def apply(cls, tracker: ProvenanceTracker, ops, first_step: int = 0):
        """Record each step of a history that applies to the tracker's state:
        the steps alternate between both agents and the second alone, and
        only a creation names a source."""
        for step, (kind, first, second, drawn, dropped) in enumerate(ops, start=first_step):
            entity, other = cls.ENTITIES[first], cls.ENTITIES[second]
            quads = {Quad(entity, q.predicate, q.object, q.graph) for q in drawn}
            agent, time = cls.AGENTS[step % 2:], ts(step)
            if kind == "creation":
                if not tracker.has_chain(entity):
                    tracker.record_creation(entity, quads, agent, source=other, time=time)
            elif not is_live(tracker, entity):
                continue
            elif kind == "modification":
                current = sorted(tracker.current_quads(entity), key=repr)
                delta = Delta(deletes=current[:dropped], inserts=quads - set(current))
                tracker.record_modification(entity, delta, agent, time=time)
            elif kind == "merge":
                if is_live(tracker, other) and other != entity:
                    tracker.record_merge(entity, other, agent, time=time)
            else:
                tracker.record_deletion(entity, agent, time=time)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(OPS, max_size=12))
    def test_random_histories(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            catalog = Catalog.create(Path(tmp) / "cat")
            self.apply(catalog.tracker, ops)
            catalog.save()
            assert_opens_alike(catalog.root)
            opened = Catalog.open(catalog.root)
            for entity in catalog.tracker.entities():
                written = catalog.tracker.chain(entity)
                for snapshot, read in zip(written, opened.tracker.chain(entity)):
                    # Parsed on first read, from the text, as an eager parse would.
                    assert read.update_query == parse_update(read.update.text) == snapshot.update_query


def _lines(text: str) -> list[str]:
    """The lines of N-Quads text; a literal may hold other line separators."""
    return text.split("\n")[:-1]


def _with_lines(change):
    """A rewrite of N-Quads text that changes each line with ``change``."""
    return lambda text: "".join(change(line) + "\n" for line in _lines(text))


def _with_extra_chain_quad(text: str) -> str:
    """An extra quad in the first chain graph, with the lines sorted, so
    that every graph's lines stay canonical and increasing."""
    lines = _lines(text)
    chain = [line for line in lines if line.endswith("/prov> .")]
    if chain:
        subject, graph = chain[0].split(" ")[0], chain[0].split(" ")[-2]
        lines.append(f'{subject} <http://ex.org/extra> "x" {graph} .')
    return "".join(line + "\n" for line in sorted(lines))


# Rewrites of both catalog files into text that reads as the same quads
# but is not what save writes: non-canonical spellings, which leave no
# line to keep, and chain graphs that are not what save writes for the
# chain read from them.
REWRITES = [
    pytest.param(lambda text: text, id="canonical"),
    pytest.param(_with_lines(lambda line: line.replace(" ", "  ", 1)), id="extra-spaces"),
    pytest.param(_with_lines(lambda line: line + "\r"), id="crlf"),
    pytest.param(lambda text: "# a comment\n\n" + text, id="comments"),
    pytest.param(lambda text: "".join(line + "\n" for line in reversed(_lines(text))), id="unsorted"),
    pytest.param(_with_lines(lambda line: line.replace("<http://ex.org/e/", "<http://ex.org/\\u0065/", 1)), id="iri-escape"),
    pytest.param(lambda text: re.sub(r'"(creation|modification|merge|deletion)" ', r'"\1"^^<http://www.w3.org/2001/XMLSchema#string> ', text), id="xsd-string"),
    pytest.param(lambda text: re.sub(r'"(creation|modification|merge|deletion)" ', r'"\1"^^<http://ex.org/dt> ', text), id="typed-kind-markers"),
    pytest.param(lambda text: text.replace('Z"^^<http://www.w3.org/2001/XMLSchema#dateTime>', '+00:00"^^<http://www.w3.org/2001/XMLSchema#dateTime>'), id="offset-timestamps"),
    pytest.param(lambda text: re.sub(r'(invalidatedAtTime> "[^"]*)Z"', r'\1+00:00"', text), id="offset-invalidations"),
    pytest.param(lambda text: text.replace(" DATA {\\n", " DATA {  \\n"), id="update-query-spacing"),
    pytest.param(lambda text: "".join(line + "\n" for line in _lines(text) if f"<{vocab.CHANGE_KIND.value}>" not in line), id="no-kind-markers"),
    pytest.param(_with_extra_chain_quad, id="extra-chain-quad"),
    pytest.param(lambda text: text + text, id="repeated"),
]


class TestSpliceSave:
    """Save rewrites only the graphs a catalog changed since it was opened,
    yet both files always equal a full serialization of the catalog."""

    @pytest.mark.parametrize("rewrite", REWRITES)
    @settings(max_examples=15, deadline=None)
    @given(st.lists(TestOpenEquivalence.OPS, max_size=8), st.lists(TestOpenEquivalence.OPS, max_size=6))
    def test_save_equals_full_serialization(self, rewrite, before, after):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "cat"
            catalog = Catalog.create(root)
            TestOpenEquivalence.apply(catalog.tracker, before)
            catalog.save()
            for name in ("data.nq", "prov.nq"):
                path = root / name
                path.write_bytes(rewrite(path.read_text(encoding="utf-8")).encode("utf-8"))
            opened = Catalog.open(root)
            TestOpenEquivalence.apply(opened.tracker, after, first_step=len(before))
            opened.save()
            assert (root / "data.nq").read_text(encoding="utf-8") == serialize_nquads(opened.store.quads())
            assert (root / "prov.nq").read_text(encoding="utf-8") == serialize_nquads(opened.tracker.export_all_graphs())
            assert_spans_are_read_back(root, opened)

    def test_only_changed_graphs_are_serialized(self, gold_catalog, monkeypatch):
        serialized = []
        original = store_module.serialize_nquads
        monkeypatch.setattr(store_module, "serialize_nquads", lambda quads: serialized.append({q.graph for q in quads}) or original(quads))
        opened = Catalog.open(gold_catalog.root)
        cho = Iri("https://example.org/catalog/cho/25")
        title = Quad(cho, vocab.DCT_TITLE, Literal("Renamed"), Iri(cho.value + "/record"))
        opened.tracker.record_modification(cho, Delta(inserts={title}), opened.config.agent_iri())
        before = {name: (gold_catalog.root / name).read_text(encoding="utf-8") for name in ("data.nq", "prov.nq")}
        opened.save()
        assert serialized == [{prov_graph_iri(cho)}, {title.graph}]
        for name, text in before.items():
            changed = (gold_catalog.root / name).read_text(encoding="utf-8")
            assert changed != text
        serialized.clear()
        Catalog.open(gold_catalog.root).save()
        assert serialized == []

    # A chain grown by a record keeps its kept lines and gains the lines of
    # its new snapshots and of the invalidation of the one that was last; a
    # merge grows two chains.  A doubled space in a kept line of the grown
    # chain leaves no line to keep, so its whole graph is serialized.
    @pytest.mark.parametrize("growth, doubled", [
        ("modification", False), ("merge", False), ("deletion", False), ("modification", True),
    ], ids=["modification", "merge", "deletion", "doubled-space"])
    def test_a_grown_chain_serializes_only_what_it_gained(self, gold_catalog, monkeypatch, growth, doubled):
        root = gold_catalog.root
        cho, other = Iri("https://example.org/catalog/cho/25"), Iri("https://example.org/catalog/cho/26")
        if doubled:
            path = root / "prov.nq"
            text = path.read_text(encoding="utf-8")
            first = text.index(f"<{cho.value}/prov/se/1> ")
            path.write_text(text[:first] + text[first:].replace(" ", "  ", 1), encoding="utf-8")
        serialized = {}
        original = store_module.serialize_nquads
        monkeypatch.setattr(store_module, "serialize_nquads", lambda quads: serialized.update({q.graph: quads for q in quads}) or original(quads))
        opened = Catalog.open(root)
        saved = {entity: len(opened.tracker.chain(entity)) for entity in opened.tracker.entities()}
        agent = opened.config.agent_iri()
        if growth == "merge":
            opened.tracker.record_merge(cho, other, agent)
        elif growth == "deletion":
            opened.tracker.record_deletion(cho, agent)
        else:
            title = Quad(cho, vocab.DCT_TITLE, Literal("Renamed"), Iri(cho.value + "/record"))
            opened.tracker.record_modification(cho, Delta(inserts={title}), agent)
        opened.save()
        grown = [cho, other] if growth == "merge" else [cho]
        for entity in grown:
            graph, chain = prov_graph_iri(entity), opened.tracker.chain(entity)
            if doubled:
                expected = opened.tracker.export_prov_graph(entity)
            else:
                last = chain[saved[entity] - 1]
                invalidated = Literal(iso_timestamp(last.invalidated_at), datatype=vocab.XSD_DATETIME)
                added = {snapshot.iri for snapshot in chain[saved[entity]:]}
                expected = {q for q in opened.tracker.export_prov_graph(entity) if q.subject in added}
                expected.add(Quad(last.iri, vocab.INVALIDATED_AT, invalidated, graph))
            assert serialized.pop(graph) == expected
        assert not any(graph.value.endswith("/prov") for graph in serialized)
        assert (root / "prov.nq").read_text(encoding="utf-8") == serialize_nquads(opened.tracker.export_all_graphs())
        reopened = Catalog.open(root)
        assert (root / "prov.nq").read_text(encoding="utf-8") == serialize_nquads(reopened.tracker.export_all_graphs())
        assert (root / "data.nq").read_text(encoding="utf-8") == serialize_nquads(reopened.store.quads())

    def test_no_op_save_matches_no_pattern(self, gold_catalog, monkeypatch):
        opened = Catalog.open(gold_catalog.root)
        before = {name: (gold_catalog.root / name).read_bytes() for name in ("data.nq", "prov.nq")}
        trip_patterns(monkeypatch)
        opened.save()
        assert {name: (gold_catalog.root / name).read_bytes() for name in before} == before

    def test_a_write_reads_no_unchanged_graph(self, gold_catalog, monkeypatch):
        """After a write to one entity, a save copies every other graph as
        its slice of the text read: no pattern matches a line, and no line
        order is checked."""
        opened = Catalog.open(gold_catalog.root)
        cho = Iri("https://example.org/catalog/cho/25")
        title = Quad(cho, vocab.DCT_TITLE, Literal("Renamed"), Iri(cho.value + "/record"))
        opened.tracker.record_modification(cho, Delta(inserts={title}), opened.config.agent_iri())
        trip_patterns(monkeypatch)
        monkeypatch.setattr(rdf, "_increasing", _Tripwire("_increasing"))
        opened.save()
        monkeypatch.undo()
        assert (gold_catalog.root / "data.nq").read_text(encoding="utf-8") == serialize_nquads(opened.store.quads())
        assert (gold_catalog.root / "prov.nq").read_text(encoding="utf-8") == serialize_nquads(opened.tracker.export_all_graphs())

    # A doubled space is a spelling change; a timestamp's "Z" written as
    # "+00:00" reads as the same time but changes the graph's quads.
    @pytest.mark.parametrize("name, marker, edit", [
        ("data.nq", "/record> .", lambda line: line.replace(" ", "  ", 1)),
        ("prov.nq", 'Z"^^<http://www.w3.org/2001/XMLSchema#dateTime>', lambda line: line.replace(" ", "  ", 1)),
        ("prov.nq", 'Z"^^<http://www.w3.org/2001/XMLSchema#dateTime>', lambda line: line.replace('Z"', '+00:00"', 1)),
    ], ids=["data-spacing", "prov-spacing", "prov-offset-timestamp"])
    def test_hand_edit_rewrites_only_its_graph(self, gold_catalog, monkeypatch, name, marker, edit):
        path = gold_catalog.root / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        edited = next(i for i, line in enumerate(lines) if marker in line)
        graph = Iri(lines[edited].rsplit(" ", 2)[1][1:-1])
        lines[edited] = edit(lines[edited])
        path.write_text("".join(lines), encoding="utf-8")
        serialized = []
        original = store_module.serialize_nquads
        monkeypatch.setattr(store_module, "serialize_nquads", lambda quads: serialized.append({q.graph for q in quads}) or original(quads))
        opened = Catalog.open(gold_catalog.root)
        opened.save()
        assert serialized == [{graph}]
        saved = opened.store.quads() if name == "data.nq" else opened.tracker.export_all_graphs()
        assert path.read_text(encoding="utf-8") == serialize_nquads(saved)


# The patterns that Iri, BlankNode and Literal check their values with.
_TERM_CHECKS = {"_SCHEME_RE", "_IRI_FORBIDDEN", "_ABSOLUTE_IRI", "_BNODE_RE", "_LANG_RE"}


class _Tripwire:
    """Stands in for a compiled pattern or a function and fails any use of it."""

    def __init__(self, name: str):
        self.name = name

    def __getattr__(self, attribute):
        raise AssertionError(f"{self.name}.{attribute} used")

    def __call__(self, *args):
        raise AssertionError(f"{self.name} called")


def trip_patterns(monkeypatch):
    """Make every statement and token pattern of ``rdf`` fail when used; the
    term constructors' own checks stay, since save builds each provenance
    graph's IRI."""
    for name, value in vars(rdf).items():
        if isinstance(value, re.Pattern) and name not in _TERM_CHECKS:
            monkeypatch.setattr(rdf, name, _Tripwire(name))


# Syntax errors in prov.nq, each with the message of the corrupt chain it
# makes, or None for a syntax error of the file: a broken line, an invalid
# IRI, and update queries that replace the first snapshot's own: one whose
# data block holds a stray word, placed within the query, and one that
# deletes and inserts the same quad.
_FIRST = f"<{E.value}/prov/se/1>"
_GRAPH = f"<{prov_graph_iri(E).value}>"
_UPDATE = f"<{vocab.HAS_UPDATE_QUERY.value}>"
BROKEN_LINES = [
    pytest.param(f'{_FIRST} <http://ex.org/p> "v" x {_GRAPH} .', None, id="syntax-error"),
    pytest.param(f"{_FIRST} <http://ex.org/p> <http://ex.org/a b> {_GRAPH} .", None, id="invalid-iri"),
    pytest.param(
        f'{_FIRST} {_UPDATE} "INSERT DATA {{ oops" {_GRAPH} .',
        f"{_FIRST[1:-1]} has a broken update query: line 1, column 19: unexpected token 'oops' in data block",
        id="bad-update-query",
    ),
    pytest.param(
        f'{_FIRST} {_UPDATE} "DELETE DATA {{ <{E.value}> <http://ex.org/p> \\"x\\" . }} ; INSERT DATA {{ <{E.value}> <http://ex.org/p> \\"x\\" . }}" {_GRAPH} .',
        f"{_FIRST[1:-1]} has a broken update query: 1 quad(s) in both delete and insert sets",
        id="overlapping-update-query",
    ),
]


class TestOpenErrors:
    """A corrupt ``prov.nq`` fails ``open`` with the reference's error type,
    message, line and column."""

    @staticmethod
    def _catalog_with(tmp_path: Path, prov_text: str) -> Path:
        root = tmp_path / "cat"
        Catalog.create(root)
        (root / "prov.nq").write_text(prov_text, encoding="utf-8")
        return root

    @pytest.mark.parametrize("corrupt, message", CHAIN_CORRUPTIONS)
    def test_corrupt_chain(self, tmp_path, corrupt, message):
        root = self._catalog_with(tmp_path, serialize_nquads(corrupt(_three_snapshot_payload())))
        outcome = open_outcome(Catalog.open, root)
        assert outcome == open_outcome(reference_open, root)
        assert outcome == ("CorruptProvenance", None, None, message)

    @pytest.mark.parametrize("line, corrupt", BROKEN_LINES)
    def test_broken_line(self, tmp_path, line, corrupt):
        lines = serialize_nquads(_three_snapshot_payload()).splitlines(keepends=True)
        lines = [x for x in lines if not (_UPDATE in line and x.startswith(f"{_FIRST} {_UPDATE} "))]
        lines.insert(3, line + "\n")
        root = self._catalog_with(tmp_path, "".join(lines))
        outcome = open_outcome(Catalog.open, root)
        assert outcome == open_outcome(reference_open, root)
        if corrupt is None:
            assert outcome[0] == "ParseError" and outcome[1] is not None
        else:
            assert outcome == ("CorruptProvenance", None, None, corrupt)


class TestLazyUpdateQueries:
    def test_open_parses_no_canonical_update_query(self, gold_catalog, monkeypatch):
        parsed = []
        monkeypatch.setattr(provenance, "parse_update", lambda text, iris=None: parsed.append(text) or parse_update(text, iris))
        opened = Catalog.open(gold_catalog.root)
        assert parsed == []
        entity = opened.tracker.entities()[0]
        chain = opened.tracker.chain(entity)
        # Restoring the state before creation unwinds, and so reads, every snapshot.
        assert opened.tracker.restore_state(entity, chain[0].generated_at - timedelta(seconds=1)) == set()
        assert parsed == [snapshot.update.text for snapshot in reversed(chain)]

    @staticmethod
    def _unescaped_bodies(monkeypatch) -> list:
        """Every update-query body unescaped from here on; the escaped-update
        pattern of ``is_canonical_update`` fails if it is used."""
        bodies = []
        unescape = provenance._unescape_literal
        monkeypatch.setattr(provenance, "_unescape_literal", lambda body: bodies.append(body) or unescape(body))
        monkeypatch.setattr(rdf, "_ESCAPED_UPDATE", _Tripwire("_ESCAPED_UPDATE"))
        return bodies

    def test_open_and_log_unescape_no_update_body(self, gold_catalog, monkeypatch, capsys):
        root = gold_catalog.root
        entity = gold_catalog.tracker.entities()[0]
        bodies = self._unescaped_bodies(monkeypatch)
        Catalog.open(root)
        assert main(["--catalog", str(root), "prov", "log", entity.value]) == 0
        assert capsys.readouterr().out.count("\n") == len(gold_catalog.tracker.chain(entity))
        assert bodies == []

    def test_write_unescapes_no_stored_update_body(self, gold_catalog, monkeypatch, capsys, tmp_path):
        root = gold_catalog.root
        header, first, second = (DATA_DIR / "gold_bibliographic.csv").read_text(encoding="utf-8").splitlines(keepends=True)[:3]
        table = tmp_path / "gold_bibliographic.csv"
        table.write_text(header + first.replace("Anfora a figure nere", "Anfora attica", 1) + second, encoding="utf-8")
        bodies = self._unescaped_bodies(monkeypatch)
        assert main(["--catalog", str(root), "ingest", str(table), "--kind", "bibliographic"]) == 0
        assert capsys.readouterr().out == "table=gold_bibliographic created=0 modified=1 unchanged=1\n"
        assert bodies == []
        assert (root / "prov.nq").read_text(encoding="utf-8") == serialize_nquads(Catalog.open(root).tracker.export_all_graphs())

    def test_restore_unescapes_only_the_restored_entity(self, gold_catalog, monkeypatch, capsys):
        root = gold_catalog.root
        tracker = gold_catalog.tracker
        entity = max(tracker.entities(), key=lambda e: (len(tracker.chain(e)), e.value))
        chain = tracker.chain(entity)
        before_creation = iso_timestamp(chain[0].generated_at - timedelta(seconds=1))
        bodies = self._unescaped_bodies(monkeypatch)
        assert main(["--catalog", str(root), "prov", "restore", entity.value, before_creation]) == 0
        assert capsys.readouterr().out == ""
        assert bodies == [_escape_literal(snapshot.update.text) for snapshot in reversed(chain)]


class TestOpenGc:
    """``open`` pauses cyclic GC while it parses and leaves it as it found it."""

    def test_gc_state_is_restored(self, tmp_path):
        root = TestOpenErrors._catalog_with(tmp_path, serialize_nquads(_three_snapshot_payload()))
        broken = TestOpenErrors._catalog_with(tmp_path / "broken", "<http://ex.org/s> <http://ex.org/p> .\n")
        assert gc.isenabled()
        Catalog.open(root)
        assert gc.isenabled()
        with pytest.raises(ParseError):
            Catalog.open(broken)
        assert gc.isenabled()
        gc.disable()
        try:
            Catalog.open(root)
            assert not gc.isenabled()
        finally:
            gc.enable()


def iris_in(quads) -> list[str]:
    """The value of every IRI term a parse of these quads builds: every IRI
    position and every datatype written out in the text."""
    values = []
    for q in quads:
        for term in (q.subject, q.predicate, q.object, q.graph):
            if isinstance(term, Iri):
                values.append(term.value)
            elif isinstance(term, Literal) and term.datatype not in (XSD_STRING, RDF_LANG_STRING):
                values.append(term.datatype.value)
    return values


TEMPLATE_IRIS = {
    term.value
    for term in (
        vocab.RDF_TYPE, vocab.PROV_ENTITY, vocab.GENERATED_AT, vocab.INVALIDATED_AT, vocab.XSD_DATETIME, vocab.PRIMARY_SOURCE,
        vocab.SPECIALIZATION_OF, vocab.ATTRIBUTED_TO, vocab.DERIVED_FROM, vocab.CHANGE_KIND, vocab.HAS_UPDATE_QUERY,
    )
}


class TestOpenIriMemo:
    def test_each_distinct_iri_is_built_once_per_open(self, gold_catalog, monkeypatch):
        root = gold_catalog.root
        store, tracker = reference_open(root)
        updates = [q for e in tracker.entities() for s in tracker.chain(e) for q in s.update_query.deletes | s.update_query.inserts]
        prov = parse_nquads((root / "prov.nq").read_text(encoding="utf-8"))
        # A canonical prov.nq is read block by block: the predicates, class
        # and datatype every snapshot block spells are matched as text.
        distinct = set(iris_in(store.quads())) | (set(iris_in(prov)) - TEMPLATE_IRIS) | set(iris_in(updates))
        built = []
        build = Iri.__new__

        def counting(cls, value):
            built.append(value)
            return build(cls, value)

        monkeypatch.setattr(Iri, "__new__", counting)
        opened = Catalog.open(root)
        # Update queries are parsed when first read, through the open's memo.
        for entity in opened.tracker.entities():
            for snapshot in opened.tracker.chain(entity):
                snapshot.update_query
        # The configuration's two IRIs are built when catalog.cfg is read.
        config = [opened.config.base_iri, opened.config.agent]
        assert Counter(built) == Counter(distinct) + Counter(config)

    def test_opens_share_no_iri(self, gold_catalog):
        def iri_ids(catalog) -> set:
            quads = list(catalog.store.quads())
            for entity in catalog.tracker.entities():
                for snap in catalog.tracker.chain(entity):
                    quads += [*snap.update_query.deletes, *snap.update_query.inserts]
            return {id(term) for q in quads for term in (q.subject, q.predicate, q.object, q.graph) if isinstance(term, Iri)}

        first, second = Catalog.open(gold_catalog.root), Catalog.open(gold_catalog.root)
        assert first.store.quads() == second.store.quads()
        assert not iri_ids(first) & iri_ids(second)


def history_catalog(root: Path) -> Catalog:
    """A saved catalog whose chains hold every change kind, one and two
    agents, snapshots with and without a source, and update queries with
    escapes, language tags, datatypes, blank nodes and several graphs."""
    catalog = Catalog.create(root)
    p, g = Iri("http://ex.org/p"), Iri("http://ex.org/g")
    drawn = [
        Quad(E, p, Literal('say "hi"\n\\ \r\t')),
        Quad(E, p, Literal("caffè ☕", language="it"), g),
        Quad(E, p, Literal("7", datatype=Iri("http://ex.org/dt")), g),
        Quad(E, Iri("http://ex.org/q"), Iri("http://ex.org/o")),
    ]
    ops = [
        ("creation", 0, 1, drawn[:2], 0),
        ("creation", 1, 0, drawn[2:], 0),
        ("modification", 0, 0, drawn[2:3], 1),
        ("creation", 2, 0, [], 0),
        ("merge", 0, 1, [], 0),
        ("modification", 2, 0, drawn[3:], 0),
        ("modification", 0, 0, drawn[1:2], 2),
        ("deletion", 2, 0, [], 0),
    ]
    TestOpenEquivalence.apply(catalog.tracker, ops)
    # Three agents whose IRIs sort one way and whose lines sort another.
    agents = (Iri("http://ex.org/agent"), Iri("http://ex.org/agent/b"), Iri("http://ex.org/agent/c"))
    entity = TestOpenEquivalence.ENTITIES[0]
    catalog.tracker.record_modification(entity, Delta(inserts={Quad(entity, p, Literal("last"))}), agents, time=ts(len(ops)))
    catalog.save()
    return catalog


# The CHAIN_CORRUPTIONS payloads that hold a snapshot save never writes, a
# line missing or a value of another kind, so the line reader takes them.
NOT_IN_TEMPLATE = {
    "unexpected-identifier", "non-numeric-index", "no-generation-time", "iri-generation-time", "no-update-query", "no-attribution",
    "empty-invalidation-mid-chain",
}


def _renamed(old: Iri, new: str):
    """Every mention of ``old`` spelled as ``new``; the lines stay sorted."""
    return lambda text: "".join(sorted(line + "\n" for line in _lines(text.replace(f"<{old}>", f"<{new}>"))))


_BAD_TIME = iso_timestamp(ts(5))[:11] + "24:00:00Z"
# Canonical text with a fault in a whole snapshot block, which only the
# chain checks find.
BLOCK_CORRUPTIONS = [
    pytest.param(
        _renamed(Iri(f"{E}/prov/se/3"), "http://ex.org/stray"),
        ("CorruptProvenance", None, None, "unexpected snapshot identifier http://ex.org/stray"),
        id="unexpected-identifier",
    ),
    pytest.param(
        _renamed(Iri(f"{E}/prov/se/3"), f"{E}/prov/se/three"),
        ("CorruptProvenance", None, None, f"non-numeric snapshot index in {E}/prov/se/three"),
        id="non-numeric-index",
    ),
    pytest.param(
        lambda text: text.replace(iso_timestamp(ts(5)), _BAD_TIME),
        ("ParseError", None, None, f"bad timestamp '{_BAD_TIME}': hour must be in 0..23"),
        id="bad-timestamp",
    ),
    # <.../se/1.5> comes before <.../se/1> in the text, but the value
    # .../se/1 comes first, and so does its error.
    pytest.param(
        lambda text: _renamed(Iri(f"{E}/prov/se/3"), f"{E}/prov/se/1.5")(text.replace(iso_timestamp(ts(0)), _BAD_TIME)),
        ("ParseError", None, None, f"bad timestamp '{_BAD_TIME}': hour must be in 0..23"),
        id="errors-in-subject-order",
    ),
]


def _swap_first_agents(text: str) -> str:
    lines = _lines(text)
    first = next(i for i, line in enumerate(lines) if f" <{vocab.ATTRIBUTED_TO}> " in line and f" <{vocab.ATTRIBUTED_TO}> " in lines[i + 1])
    lines[first : first + 2] = lines[first + 1], lines[first]
    return "".join(line + "\n" for line in lines)


def _repeat_first_block(text: str) -> str:
    lines = _lines(text)
    subject = lines[0].split(" ")[0]
    block = [line for line in lines if line.startswith(subject + " ")]
    return "".join(line + "\n" for line in block + lines)


# Text in canonical spelling that is still not what save writes, so the
# block reader leaves it to the line reader: two agents out of order, a
# snapshot block repeated, and a snapshot specializing another entity.
LEFT_TO_LINES = [
    pytest.param(_swap_first_agents, id="unsorted-agents"),
    pytest.param(_repeat_first_block, id="repeated-block"),
    pytest.param(
        lambda text: text.replace(f"<{vocab.SPECIALIZATION_OF}> <{TestOpenEquivalence.ENTITIES[0]}> ", f"<{vocab.SPECIALIZATION_OF}> <{E}> ", 1),
        id="foreign-specialization",
    ),
]


class TestBlockReader:
    """A canonical ``prov.nq`` is read one snapshot block per match, and
    that read equals the line reader's; any other text goes to the line
    reader whole."""

    def test_history_catalog(self, tmp_path):
        assert_opens_alike(history_catalog(tmp_path / "cat").root)

    @pytest.mark.parametrize("rewrite", REWRITES)
    @settings(max_examples=10, deadline=None)
    @given(st.lists(TestOpenEquivalence.OPS, max_size=8))
    def test_rewritten_files(self, rewrite, ops):
        with tempfile.TemporaryDirectory() as tmp:
            catalog = Catalog.create(Path(tmp) / "cat")
            TestOpenEquivalence.apply(catalog.tracker, ops)
            catalog.save()
            for name in ("data.nq", "prov.nq"):
                path = catalog.root / name
                path.write_bytes(rewrite(path.read_text(encoding="utf-8")).encode("utf-8"))
            assert full_outcome(Catalog.open, catalog.root) == full_outcome(reference_open, catalog.root)

    def test_single_character_mutations(self, tmp_path, monkeypatch):
        root = history_catalog(tmp_path / "cat").root
        prov = root / "prov.nq"
        text = prov.read_text(encoding="utf-8")
        fallbacks = block_reads(monkeypatch)
        outcomes = Counter()
        for mutated in mutations(text, seed=15, count=600):
            prov.write_text(mutated, encoding="utf-8", newline="")
            taken = len(fallbacks)
            outcome = full_outcome(Catalog.open, root)
            assert outcome == full_outcome(reference_open, root), mutated
            outcomes[len(fallbacks) == taken, outcome[0]] += 1
        # Both readers, and both kinds of error, are reached.
        assert {(True, "opened"), (False, "opened"), (False, "ParseError"), (False, "CorruptProvenance")} <= set(outcomes)

    @pytest.mark.parametrize("corrupt, message", CHAIN_CORRUPTIONS)
    def test_chain_corruptions(self, tmp_path, monkeypatch, corrupt, message, request):
        text = serialize_nquads(corrupt(_three_snapshot_payload()))
        kept = KeptText(text)
        parse_nquads(text, kept=kept)
        assert sum(end - start + 1 for start, end in kept.spans.values()) == len(text)
        root = TestOpenErrors._catalog_with(tmp_path, text)
        fallbacks = block_reads(monkeypatch)
        assert open_outcome(Catalog.open, root) == open_outcome(reference_open, root) == ("CorruptProvenance", None, None, message)
        assert bool(fallbacks) == (request.node.callspec.id in NOT_IN_TEMPLATE)

    @pytest.mark.parametrize("edit", LEFT_TO_LINES)
    def test_text_left_to_the_line_reader(self, tmp_path, monkeypatch, edit):
        root = history_catalog(tmp_path / "cat").root
        prov = root / "prov.nq"
        prov.write_text(edit(text := prov.read_text(encoding="utf-8")), encoding="utf-8")
        assert prov.read_text(encoding="utf-8") != text
        fallbacks = block_reads(monkeypatch)
        assert full_outcome(Catalog.open, root) == full_outcome(reference_open, root)
        assert len(fallbacks) == 1

    @pytest.mark.parametrize("corrupt, expected", BLOCK_CORRUPTIONS)
    def test_corrupt_blocks(self, tmp_path, monkeypatch, corrupt, expected):
        root = TestOpenErrors._catalog_with(tmp_path, corrupt(serialize_nquads(_three_snapshot_payload())))
        fallbacks = block_reads(monkeypatch)
        outcome = open_outcome(Catalog.open, root)
        assert fallbacks == []
        assert outcome == open_outcome(reference_open, root) == expected



# The three-snapshot prov.nq text split around its first snapshot's
# update-query literal body.
_BEFORE_BODY, _FIRST_BODY, _AFTER_BODY = re.fullmatch(
    f'(.*^{re.escape(_FIRST)} {re.escape(_UPDATE)} ")(.*?)(" {re.escape(_GRAPH)} \\.\n.*)',
    serialize_nquads(_three_snapshot_payload()),
    re.M | re.S,
).groups()


def read_by_blocks(body: str) -> bool:
    """Whether the block reader takes the three-snapshot ``prov.nq`` whose
    first snapshot holds ``body`` as its update query's literal body."""
    return provenance._read_blocks(KeptText(_BEFORE_BODY + body + _AFTER_BODY), {}) is not None


_SP = "<http://ex.org/s> <http://ex.org/p>"


def _reversed_statements(text: str) -> str:
    """A one-block update with its statement lines in reverse order."""
    head, *lines, foot, end = text.split("\n")
    return "\n".join([head, *reversed(lines), foot, end])


def _several_graphs() -> str:
    g, h = Iri("http://ex.org/g"), Iri("http://ex.org/g/h")
    s, p = Iri("http://ex.org/s"), Iri("http://ex.org/p")
    deletes = {Quad(s, p, Literal("a"), graph) for graph in (None, g, h)}
    inserts = {Quad(s, p, Literal('b"'), graph) for graph in (None, g, h)} | {Quad(s, p, Iri("http://ex.org/o"), h)}
    return serialize_update(Delta(deletes=deletes, inserts=inserts))


_ESCAPES = serialize_update(Delta(inserts={
    Quad(Iri("http://ex.org/s"), Iri("http://ex.org/p"), Literal(lexical)) for lexical in ('"', "\\", "\n", "\r", 'a"', "a\\", 'a\\"\n\r', "a")
}))
_LITERAL_AND_IRI = f'INSERT DATA {{\n  {_SP} "a" .\n  {_SP} <http://ex.org/a> .\n}}\n'
_LITERAL_PREFIX = f'INSERT DATA {{\n  {_SP} "a" .\n  {_SP} "a#" .\n  {_SP} "a/" .\n  {_SP} "a[" .\n}}\n'
_GRAPHS = _several_graphs()
_BLOCKS = _GRAPHS[:-1].split("\n;\n")


class TestUpdateRecognizer:
    """``is_canonical_update`` and the block reader recognize update queries
    with one grammar over the escaped text; each answers as the recognizer
    they replaced answers, which checked the unescaped text block by block."""

    @staticmethod
    def assert_same_answers(text: str):
        assert is_canonical_update(text) == reference_is_canonical_update(text), text
        body = _escape_literal(text)
        assert read_by_blocks(body) == reference_is_canonical_update(text), body

    def test_template_is_read_by_blocks(self):
        assert read_by_blocks(_FIRST_BODY)

    @settings(max_examples=40, deadline=None)
    @given(st.sets(quad_strategy, max_size=5), st.sets(quad_strategy, max_size=5), st.integers(0, 2**16))
    def test_same_answers_as_the_reference(self, deletes, inserts, seed):
        text = serialize_update(Delta(deletes=deletes, inserts=inserts - deletes))
        for candidate in [text, swapped_lines(text, seed), *mutations(text, seed, count=12)]:
            self.assert_same_answers(candidate)
        # A mutated body may hold an escape the text cannot have.
        for body in mutations(_escape_literal(text), seed, count=12):
            assert read_by_blocks(body) == reference_body_is_canonical(body), body

    # Where the escaped text sorts otherwise than the text: a quote is 0x22,
    # its escape starts with 0x5C, and '<' and '#' to '[' lie between.
    @pytest.mark.parametrize("text, canonical", [
        pytest.param(_LITERAL_AND_IRI, True, id="literal-before-iri"),
        pytest.param(_reversed_statements(_LITERAL_AND_IRI), False, id="iri-before-literal"),
        pytest.param(_LITERAL_PREFIX, True, id="literal-prefix"),
        pytest.param(_reversed_statements(_LITERAL_PREFIX), False, id="literal-prefix-reversed"),
        pytest.param(_ESCAPES, True, id="escapes"),
        pytest.param(_reversed_statements(_ESCAPES), False, id="escapes-reversed"),
        pytest.param(_ESCAPES.replace("\\\\", "\\t", 1), False, id="tab-escape"),
        pytest.param(_GRAPHS, True, id="several-graphs"),
        pytest.param("\n;\n".join([_BLOCKS[1], _BLOCKS[0], *_BLOCKS[2:]]) + "\n", False, id="graphs-out-of-order"),
        pytest.param("\n;\n".join([_BLOCKS[0], _BLOCKS[0].replace("DELETE", "INSERT"), *_BLOCKS[1:]]) + "\n", False, id="insert-before-delete"),
        pytest.param("\n;\n".join([*_BLOCKS[:3], _BLOCKS[0].replace("DELETE", "INSERT"), *_BLOCKS[4:]]) + "\n", False, id="deleted-and-inserted"),
        pytest.param("", True, id="empty"),
    ])
    def test_named_cases(self, text, canonical):
        assert is_canonical_update(text) == canonical
        self.assert_same_answers(text)


class TestSavedTimes:
    def test_year_below_1000_is_read_by_blocks(self, tmp_path):
        """A year below 1000 is saved in four digits, and the block reader
        takes that text as saved and reads it as the line reader does."""
        catalog = Catalog.create(tmp_path / "cat")
        p, agent = Iri("http://ex.org/p"), Iri("http://ex.org/agent/a")
        last_of_999 = datetime(999, 12, 31, 23, 59, 59, tzinfo=timezone.utc)
        catalog.tracker.record_creation(E, {Quad(E, p, Literal("x"))}, agent, time=last_of_999)
        catalog.tracker.record_modification(E, Delta(inserts={Quad(E, p, Literal("y"))}), agent, time=last_of_999 + timedelta(seconds=1))
        catalog.save()
        text = (catalog.root / "prov.nq").read_text(encoding="utf-8")
        assert '"0999-12-31T23:59:59Z"' in text and '"1000-01-01T00:00:00Z"' in text
        assert_opens_alike(catalog.root)
