"""Snapshot chains over catalog entities with time-travel restoration.

Every state change of an entity (the set of quads having it as subject)
is captured as a snapshot carrying generation/invalidation timestamps,
attribution, a primary source and a reversible delta.  Restoring a past
state replays inverted deltas backwards from the current state, so the
chain alone is enough to reconstruct any point of the entity's history.

A snapshot's update query is the stored record of its change, so it is
kept as its canonical text (:class:`UpdateQuery`); the delta is a view
of that text, parsed the first time it is read.  Saving copies each
provenance graph's span of the text loaded or last saved, merges into a
grown chain's span the lines of what it gained, and replaces the file
only when its text changes.

Loading reads a ``prov.nq`` that is exactly what saving writes one
snapshot block per match of a pattern composed from the serializations
of the snapshot's predicates and from ``rdf``'s canonical token sources,
building no term per line, and taking each update query as its literal
body holds it, by ``rdf``'s one update grammar, unescaped when first
read.  Any other text goes whole through the N-Quads reader, which
places its syntax errors, and :meth:`ProvenanceTracker.from_quads`, which
reads each chain graph as a :class:`Store` and marks for a save to write
afresh each graph whose quads differ from what a save writes for the
chain read from it.  Both hand each chain to :func:`_check_chain`, which
holds every chain rule.  Every statement must belong to the graph of
some entity's chain.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from operator import itemgetter

from . import vocab
from .rdf import (
    _ESCAPED_UPDATE_SOURCE,
    _UNESCAPED_IRI_SOURCE,
    InputError,
    InvalidIri,
    Iri,
    KeptText,
    Literal,
    ParseError,
    Quad,
    _increasing,
    _ordered_update,
    _unescape_literal,
    is_canonical_update,
    memo_iri,
    read_statements,
    serialize_term,
)
from .store import Delta, OverlapError, Store, parse_update, save_spliced, serialize_update

CREATION = "creation"
MODIFICATION = "modification"
MERGE = "merge"
DELETION = "deletion"
CHANGE_KINDS = (CREATION, MODIFICATION, MERGE, DELETION)


class NoSuchEntity(LookupError):
    def __init__(self, entity):
        self.entity = entity
        super().__init__(f"no snapshot chain for {entity}")


class AlreadyExists(InputError):
    pass


class EntityDeleted(InputError):
    pass


class ForeignSubject(InputError):
    pass


class NonMonotonicTime(InputError):
    pass


class SelfMerge(InputError):
    pass


class CorruptProvenance(InputError):
    pass


def utc_second(moment: datetime) -> datetime:
    """Normalize to UTC with seconds precision; naive datetimes are rejected."""
    if moment.tzinfo is None:
        raise ValueError("timestamps must be timezone-aware")
    moment = moment.astimezone(timezone.utc)
    return moment.replace(microsecond=0) if moment.microsecond else moment


def iso_timestamp(moment: datetime) -> str:
    """``moment`` in UTC to the second, its year in four digits."""
    return utc_second(moment).replace(tzinfo=None).isoformat() + "Z"


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp ('Z' or numeric offset) to UTC seconds;
    a time whose UTC lies outside ``datetime``'s years is a bad timestamp."""
    candidate = text.strip()
    if candidate.endswith("Z"):
        candidate = candidate[:-1] + "+00:00"
    try:
        moment = datetime.fromisoformat(candidate)
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=timezone.utc)
        return utc_second(moment)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"bad timestamp {text!r}: {exc}") from None


def snapshot_iri(entity: Iri, index: int) -> Iri:
    return Iri(f"{entity.value}/prov/se/{index}")


def prov_graph_iri(entity: Iri) -> Iri:
    return Iri(entity.value + "/prov")


class UpdateQuery:
    """A snapshot's update query: its canonical text, which is the stored
    record of the change, and the delta it records, built from the text
    the first time it is read.  A query that the block reader takes keeps
    instead the literal body that holds its text in ``prov.nq``: the block
    pattern took that body, so its only escapes are of a backslash, quote
    or line break, and it is unescaped, which cannot fail, the first time
    the text is read.  Two are equal when their texts are."""

    __slots__ = ("_text", "_body", "_delta", "_iris")

    def __init__(self, text: str | None, delta: Delta | None = None, iris: dict[str, Iri] | None = None, body: str | None = None):
        self._text = text
        self._body = body
        self._delta = delta
        self._iris = iris

    @classmethod
    def of(cls, delta: Delta) -> "UpdateQuery":
        return cls(serialize_update(delta), delta)

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = _unescape_literal(self._body)
            self._body = None
        return self._text

    @property
    def delta(self) -> Delta:
        """The delta, parsed on first read through the IRI memo the query
        was made with."""
        if self._delta is None:
            self._delta = parse_update(self.text, self._iris)
            self._iris = None
        return self._delta

    def __eq__(self, other):
        return isinstance(other, UpdateQuery) and self.text == other.text

    def __hash__(self):
        return hash(self.text)

    def __repr__(self):
        return f"UpdateQuery({self.text!r})"


@dataclass(frozen=True)
class Snapshot:
    iri: Iri
    entity: Iri
    index: int
    generated_at: datetime
    invalidated_at: datetime | None
    attributed_to: tuple[Iri, ...]
    primary_source: Iri | None
    derived_from: Iri | None
    update: UpdateQuery
    kind: str

    @property
    def update_query(self) -> Delta:
        return self.update.delta


def _check_subjects(entity: Iri, quads):
    for q in quads:
        if q.subject != entity:
            raise ForeignSubject(f"quad subject {q.subject} is not {entity}")


def _in_force(chain: list[Snapshot], time: datetime) -> int:
    """How many of the chain's snapshots were generated at or before the time."""
    return bisect_right(chain, utc_second(time), key=lambda snap: snap.generated_at)


def _normalize_agents(agents) -> tuple[Iri, ...]:
    if isinstance(agents, Iri):
        agents = (agents,)
    agents = tuple(agents)
    if not agents:
        raise ValueError("at least one agent is required")
    return agents


class ProvenanceTracker:
    """Chains of snapshots per entity, kept in step with a data store.

    Record operations are the only mutators and must be serialized by the
    caller (single writer); reads never mutate.

    The tracker also keeps the ``prov.nq`` text it was loaded from or last
    saved as, and for each entity whose graph that text does not hold as
    :meth:`save` writes it, how many of its snapshots it does hold: the
    length of a chain that grew since, and 0 for a new chain or one whose
    graph held other quads than a save writes for the chain read from it.
    A chain only grows by appending, which also invalidates the snapshot
    that was last, so save merges into a grown chain's span the lines of
    what it gained, and serializes afresh only the graphs of the other
    entities and those the text holds no span of.
    """

    def __init__(self, store: Store):
        self.store = store
        self._chains: dict[Iri, list[Snapshot]] = {}
        self._kept = KeptText(verbatim=False)  # no file read or written yet
        self._unsaved: dict[Iri, int] = {}

    def entities(self) -> list[Iri]:
        return sorted(self._chains, key=lambda e: e.value)

    def has_chain(self, entity: Iri) -> bool:
        return entity in self._chains

    def _chain(self, entity: Iri) -> list[Snapshot]:
        chain = self._chains.get(entity)
        if chain is None:
            raise NoSuchEntity(entity)
        return chain

    def chain(self, entity: Iri) -> tuple[Snapshot, ...]:
        return tuple(self._chain(entity))

    def current_quads(self, entity: Iri) -> set[Quad]:
        return self.store.subject_quads(entity)

    def _require_live(self, entity: Iri) -> list[Snapshot]:
        chain = self._chain(entity)
        if chain[-1].kind == DELETION:
            raise EntityDeleted(f"{entity} was deleted at {iso_timestamp(chain[-1].generated_at)}")
        return chain

    def _stamp(self, time: datetime | None, *chains: list[Snapshot]) -> datetime:
        """The time of a record that extends the given chains: the explicit
        time, to the second, which must come after each chain's last
        snapshot; else the current second, or one second after the latest
        of those snapshots when that is not yet in the past; a chain ending
        at the last second ``datetime`` holds cannot be extended."""
        if time is not None:
            time = utc_second(time)
            for chain in chains:
                if time <= chain[-1].generated_at:
                    raise NonMonotonicTime(f"{iso_timestamp(time)} is not after {iso_timestamp(chain[-1].generated_at)}")
            return time
        now = utc_second(datetime.now(timezone.utc))
        try:
            return max([now] + [chain[-1].generated_at + timedelta(seconds=1) for chain in chains])
        except OverflowError:
            last = max((chain[-1] for chain in chains), key=lambda snap: snap.generated_at)
            raise NonMonotonicTime(f"no record can come after {last.iri}, generated {iso_timestamp(last.generated_at)}") from None

    def _append(self, entity, delta, agents, source, time, kind) -> Snapshot:
        """Apply the delta to the store and append its snapshot to the
        entity's chain (a creation starts the chain).  Every record changes
        the store and the chains here, and only after all of its checks.  A
        creation is stamped here; every other record passes its stamped time."""
        _check_subjects(entity, delta.deletes | delta.inserts)
        agents = _normalize_agents(agents)
        if kind == CREATION:
            time = self._stamp(time)
        self.store.apply_delta(delta, strict=True)
        chain = self._chains.setdefault(entity, [])
        if chain:
            chain[-1] = replace(chain[-1], invalidated_at=time)
        snap = Snapshot(
            iri=snapshot_iri(entity, len(chain) + 1),
            entity=entity,
            index=len(chain) + 1,
            generated_at=time,
            invalidated_at=time if kind == DELETION else None,
            attributed_to=agents,
            primary_source=source,
            derived_from=chain[-1].iri if chain else None,
            update=UpdateQuery.of(delta),
            kind=kind,
        )
        chain.append(snap)
        self._unsaved.setdefault(entity, snap.index - 1)
        return snap

    def record_creation(self, entity: Iri, initial, agents, source: Iri | None = None, time: datetime | None = None) -> Snapshot:
        """Start a chain: the creation snapshot carries the initial inserts."""
        if entity in self._chains:
            raise AlreadyExists(f"{entity} already has a snapshot chain")
        return self._append(entity, Delta(inserts=initial), agents, source, time, CREATION)

    def record_modification(self, entity: Iri, delta: Delta, agents, source: Iri | None = None, time: datetime | None = None) -> Snapshot:
        time = self._stamp(time, self._require_live(entity))
        return self._append(entity, delta, agents, source, time, MODIFICATION)

    def record_merge(self, survivor: Iri, absorbed: Iri, agents, source: Iri | None = None, time: datetime | None = None) -> tuple[Snapshot, Snapshot]:
        """Fold the absorbed entity into the survivor.

        The absorbed entity's quads are rewritten with the survivor as
        subject and inserted (novel ones only); the absorbed entity ends
        with a deletion snapshot.  The survivor's merge snapshot points at
        the absorbed entity through its primary source.
        """
        survivor_chain = self._require_live(survivor)
        absorbed_chain = self._require_live(absorbed)
        if survivor == absorbed:
            raise SelfMerge(f"cannot merge {survivor} into itself")
        agents = _normalize_agents(agents)
        time = self._stamp(time, survivor_chain, absorbed_chain)

        absorbed_quads = frozenset(self.current_quads(absorbed))
        rewritten = {Quad(survivor, q.predicate, q.object, q.graph) for q in absorbed_quads}
        novel = frozenset(rewritten - self.current_quads(survivor))

        merge_snap = self._append(survivor, Delta(inserts=novel), agents, absorbed, time, MERGE)
        deletion_snap = self._append(absorbed, Delta(deletes=absorbed_quads), agents, source, time, DELETION)
        return merge_snap, deletion_snap

    def record_deletion(self, entity: Iri, agents, source: Iri | None = None, time: datetime | None = None) -> Snapshot:
        time = self._stamp(time, self._require_live(entity))
        return self._append(entity, Delta(deletes=self.current_quads(entity)), agents, source, time, DELETION)

    def restore_state(self, entity: Iri, time: datetime) -> set[Quad]:
        """Entity state as of the given time, by inverse-delta replay.

        Starts from the current quads and unwinds every snapshot after the
        one in force at that time; before creation the state is empty.
        Read-only: neither the store nor the chain changes.
        """
        chain = self._chain(entity)
        state = set(self.current_quads(entity))
        for later in reversed(chain[_in_force(chain, time):]):
            inv = later.update_query.invert()
            state = (state - inv.deletes) | inv.inserts
        return state

    def export_prov_graph(self, entity: Iri) -> set[Quad]:
        """The entity's chain as one named graph, as ``prov.nq`` holds it
        and a deposit bundle carries it.

        Per snapshot: type assertion, specialization link, timestamps as
        typed literals, attributions, primary source, derivation link, and
        as plain literals the change kind, which tells a merge from a
        modification, and the update query's text.  :meth:`save` writes
        this graph and nothing else for the entity.
        """
        return self._gained(entity, 0)

    def _gained(self, entity: Iri, saved: int) -> set[Quad]:
        """The quads of :meth:`export_prov_graph` that the graph of the
        entity's first ``saved`` snapshots, as a save wrote it, lacks: every
        later snapshot's, and when ``saved`` is not 0, the invalidation time
        of the last of those."""
        graph = prov_graph_iri(entity)
        quads: set[Quad] = set()
        for snap in self._chain(entity)[max(saved - 1, 0):]:
            if snap.invalidated_at is not None:
                quads.add(Quad(snap.iri, vocab.INVALIDATED_AT, Literal(iso_timestamp(snap.invalidated_at), datatype=vocab.XSD_DATETIME), graph))
            if snap.index == saved:
                continue
            quads.add(Quad(snap.iri, vocab.RDF_TYPE, vocab.PROV_ENTITY, graph))
            quads.add(Quad(snap.iri, vocab.SPECIALIZATION_OF, entity, graph))
            quads.add(Quad(snap.iri, vocab.GENERATED_AT, Literal(iso_timestamp(snap.generated_at), datatype=vocab.XSD_DATETIME), graph))
            for agent in snap.attributed_to:
                quads.add(Quad(snap.iri, vocab.ATTRIBUTED_TO, agent, graph))
            if snap.primary_source is not None:
                quads.add(Quad(snap.iri, vocab.PRIMARY_SOURCE, snap.primary_source, graph))
            if snap.derived_from is not None:
                quads.add(Quad(snap.iri, vocab.DERIVED_FROM, snap.derived_from, graph))
            quads.add(Quad(snap.iri, vocab.CHANGE_KIND, Literal(snap.kind), graph))
            quads.add(Quad(snap.iri, vocab.HAS_UPDATE_QUERY, Literal(snap.update.text), graph))
        return quads

    def export_all_graphs(self) -> set[Quad]:
        """Persistence payload: every entity's graph as :meth:`save` writes it."""
        return set().union(*map(self.export_prov_graph, self._chains))

    def save(self, path):
        """Write every entity's graph to ``path`` as canonical N-Quads, with
        :func:`store.save_spliced`: a graph the kept text holds a span of is
        copied, a grown chain's is its span with the lines of the quads it
        gained merged in (:meth:`_gained`), and any other is serialized
        whole.  A file that would not change is not replaced."""
        graphs = {prov_graph_iri(entity): entity for entity in self._chains}
        changed = {prov_graph_iri(entity): self._gained(entity, saved) if saved else None for entity, saved in self._unsaved.items()}
        self._kept = save_spliced(path, self._kept, graphs, lambda graph: self.export_prov_graph(graphs[graph]), changed)
        self._unsaved = {}

    @classmethod
    def load(cls, store: Store, path, iris: dict[str, Iri] | None = None) -> "ProvenanceTracker":
        """The chains of a ``prov.nq`` file over ``store``; :meth:`save`
        copies its spans.  Text that is wholly snapshot blocks as save
        writes them is read block by block (:func:`_read_blocks`); any
        other goes through :func:`read_statements` and :meth:`from_quads`.
        Both check each chain with :func:`_check_chain`."""
        if iris is None:
            iris = {}
        kept = KeptText.read(path)
        graphs = _read_blocks(kept, iris)
        if graphs is None:
            tracker = cls.from_quads(store, read_statements(kept.text, iris, kept), iris)
        else:
            tracker = cls._checked(store, graphs, iris)
        tracker._kept = kept
        return tracker

    @classmethod
    def from_quads(cls, store: Store, rows, iris: dict[str, Iri] | None = None) -> "ProvenanceTracker":
        """Rebuild chains from a persisted provenance graph set, given as
        ``(subject, predicate, object, graph)`` rows (a :class:`Quad` is
        one), grouped into one :class:`Store` per graph.  Every row must be
        in the graph of some entity's chain.

        Every IRI the rebuild builds, in the update queries and the entity
        names, goes through ``iris`` when given, otherwise through one memo
        of this rebuild.  An update query in canonical text is kept as text
        and parsed when first read; any other is parsed here.  An entity
        whose graph holds other quads than :meth:`save` writes for the
        chain read from it is marked for :meth:`save` to write afresh.
        """
        if iris is None:
            iris = {}
        by_graph: dict[Iri, list[Quad]] = {}
        strays = set()
        for row in rows:
            graph = row[3]
            if graph is not None and graph.value.endswith("/prov"):
                by_graph.setdefault(graph, []).append(Quad(*row))
            else:
                strays.add(graph)
        # Raised once every row is read, so that a syntax error comes first,
        # naming the graph that sorts first whatever the order of the rows.
        if strays:
            where = "the default graph" if None in strays else f"graph {min(strays)}"
            raise CorruptProvenance(f"statement outside any snapshot chain, in {where}")
        graphs = {graph: (memo_iri(graph.value[: -len("/prov")], iris), Store(quads)) for graph, quads in by_graph.items()}
        tracker = cls._checked(store, {graph: (entity, _read_graph(held, iris)) for graph, (entity, held) in graphs.items()}, iris)
        tracker._unsaved = {entity: 0 for entity, held in graphs.values() if held.quads() != tracker.export_prov_graph(entity)}
        return tracker

    @classmethod
    def _checked(cls, store: Store, graphs: dict, iris: dict[str, Iri]) -> "ProvenanceTracker":
        """The tracker of chains read as ``graph -> (entity, drafts)``, each
        checked by :func:`_check_chain` in order of graph IRI."""
        tracker = cls(store)
        for graph in sorted(graphs):
            entity, drafts = graphs[graph]
            tracker._chains[entity] = _check_chain(entity, drafts, iris)
        return tracker


# A timestamp as ``iso_timestamp`` writes it: what ``parse_timestamp``
# reads from such text is written back as the same text.
_SAVED_TIME = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")


def _read_graph(graph: Store, iris: dict[str, Iri]) -> list:
    """The drafts of one chain graph, one per subject typed as a snapshot,
    in the order :meth:`Store.subjects` lists them.  Where a property has
    several values the lowest is read, as :meth:`Store.objects` lists them."""
    drafts = []
    for subject in graph.subjects(vocab.RDF_TYPE, vocab.PROV_ENTITY):
        generated = graph.objects(subject, vocab.GENERATED_AT, Literal)
        invalidated = graph.objects(subject, vocab.INVALIDATED_AT, Literal)
        updates = graph.objects(subject, vocab.HAS_UPDATE_QUERY, Literal)
        sources = graph.objects(subject, vocab.PRIMARY_SOURCE, Iri)
        derived = graph.objects(subject, vocab.DERIVED_FROM, Iri)
        kinds = graph.objects(subject, vocab.CHANGE_KIND, Literal)
        update = None
        if updates:
            text = updates[0].lexical
            update = UpdateQuery(text, iris=iris) if is_canonical_update(text) else text
        kind = kinds[0].lexical if kinds else None
        drafts.append((
            subject,
            generated[0].lexical if generated else None,
            invalidated[0].lexical if invalidated else None,
            tuple(graph.objects(subject, vocab.ATTRIBUTED_TO, Iri)),
            sources[0] if sources else None,
            derived[0] if derived else None,
            update,
            kind if kind in CHANGE_KINDS else None,
        ))
    return drafts


def _check_chain(entity: Iri, drafts: list, iris: dict[str, Iri]) -> list[Snapshot]:
    """The chain of ``entity`` built from its drafts, given in order of
    subject: every rule a chain read from ``prov.nq`` must keep is checked
    here, and a broken one raises :class:`CorruptProvenance`.

    A draft is what a reader takes from one typed subject of the chain's
    graph: ``(subject, generated, invalidated, agents, source, derived,
    update, kind)``.  The timestamps are text, ``None`` when missing (an
    empty invalidation reads as none); ``update`` is ``None`` when missing,
    an :class:`UpdateQuery` when its text is canonical and else the text;
    ``kind`` is ``None`` when the snapshot holds no change-kind marker.

    Each draft is checked, then its timestamps are parsed, its change kind
    inferred when it has no marker (a first snapshot is a creation, one
    invalidated when generated a deletion, any other a modification) and
    an update query not in canonical text parsed, before the next draft;
    the rules between snapshots come after all of them.  A query that does
    not parse names its snapshot, then the parser's error within it."""
    if not drafts:
        raise CorruptProvenance(f"{entity} has an empty snapshot chain")
    marker = f"{entity.value}/prov/se/"
    snapshots = []
    for subject, generated, invalidated, agents, source, derived, update, kind in drafts:
        if not isinstance(subject, Iri) or not subject.value.startswith(marker):
            raise CorruptProvenance(f"unexpected snapshot identifier {subject}")
        try:
            index = int(subject.value[len(marker):])
        except ValueError:
            raise CorruptProvenance(f"non-numeric snapshot index in {subject}") from None
        if generated is None:
            raise CorruptProvenance(f"{subject} has no generation timestamp")
        if update is None:
            raise CorruptProvenance(f"{subject} has no update query")
        if not agents:
            raise CorruptProvenance(f"{subject} has no attribution")
        generated_at = parse_timestamp(generated)
        invalidated_at = parse_timestamp(invalidated) if invalidated else None
        if kind is None:
            if index == 1:
                kind = CREATION
            elif invalidated_at is not None and invalidated_at == generated_at:
                kind = DELETION
            else:
                kind = MODIFICATION
        if not isinstance(update, UpdateQuery):
            try:
                update = UpdateQuery.of(parse_update(update, iris))
            except (ParseError, OverlapError) as exc:
                raise CorruptProvenance(f"{subject} has a broken update query: {exc}") from None
        snapshots.append(
            Snapshot(
                iri=subject,
                entity=entity,
                index=index,
                generated_at=generated_at,
                invalidated_at=invalidated_at,
                attributed_to=agents,
                primary_source=source,
                derived_from=derived,
                update=update,
                kind=kind,
            )
        )
    snapshots.sort(key=lambda s: s.index)
    if [s.index for s in snapshots] != list(range(1, len(snapshots) + 1)):
        raise CorruptProvenance(f"snapshot indexes for {entity} are not contiguous")
    for earlier, later in zip(snapshots, snapshots[1:]):
        if later.generated_at <= earlier.generated_at:
            raise CorruptProvenance(f"timestamps for {entity} are not strictly increasing")
        if later.derived_from != earlier.iri:
            raise CorruptProvenance(f"{later.iri} is not derived from {earlier.iri}")
        if later.kind == CREATION:
            raise CorruptProvenance(f"{later.iri} claims to be a creation snapshot")
    for snap in snapshots[:-1]:
        if snap.kind == DELETION:
            raise CorruptProvenance(f"{entity} has a deletion snapshot before the end of the chain")
    # Each snapshot is invalidated when the next is generated; the last is
    # invalidated only by its own deletion, at its generation time.
    for earlier, later in zip(snapshots, snapshots[1:]):
        if earlier.invalidated_at != later.generated_at:
            raise CorruptProvenance(f"{earlier.iri} is not invalidated when {later.iri} is generated")
    for last in snapshots[-1:]:
        if last.kind == DELETION and last.invalidated_at != last.generated_at:
            raise CorruptProvenance(f"deletion {last.iri} is not invalidated when it is generated")
        if last.kind != DELETION and last.invalidated_at is not None:
            raise CorruptProvenance(f"{last.iri} is invalidated but is the last snapshot and not a deletion")
    return snapshots


def _snapshot_block() -> re.Pattern:
    """The lines that ``serialize_nquads`` writes for one snapshot of a
    :meth:`ProvenanceTracker.export_prov_graph`, in the order of their
    predicates' serializations, each in canonical spelling: literal bodies
    and IRI tokens as ``rdf`` takes them, timestamps as ``iso_timestamp``
    writes them.  The first line names the subject and graph tokens the
    others repeat.  Groups: ``subject``, ``graph``, ``entity`` (the tokens),
    ``generated``, ``invalidated`` (timestamp text), ``source``, ``agent``,
    ``derived`` (IRI tokens), ``agents`` (the lines of any further agents),
    ``kind`` and ``update`` (the update query's literal body, which must
    spell ``store.serialize_update`` output escaped, its blocks and lines
    in any order: ``rdf._ordered_update`` checks the order)."""

    def time(name: str) -> str:
        return f'"(?P<{name}>{_SAVED_TIME.pattern})"\\^\\^{re.escape(serialize_term(vocab.XSD_DATETIME))}'

    def iri(name: str) -> str:
        return f"(?P<{name}>{_UNESCAPED_IRI_SOURCE})"

    def line(predicate: Iri, obj: str) -> str:
        return f"(?P=subject) {re.escape(serialize_term(predicate))} {obj} (?P=graph) \\.\n"

    def optional(predicate: Iri, obj: str) -> str:
        return f"(?:{line(predicate, obj)})?"

    lines = {
        vocab.RDF_TYPE: f"{iri('subject')} {re.escape(serialize_term(vocab.RDF_TYPE))} "
        f"{re.escape(serialize_term(vocab.PROV_ENTITY))} {iri('graph')} \\.\n",
        vocab.GENERATED_AT: line(vocab.GENERATED_AT, time("generated")),
        vocab.PRIMARY_SOURCE: optional(vocab.PRIMARY_SOURCE, iri("source")),
        vocab.INVALIDATED_AT: optional(vocab.INVALIDATED_AT, time("invalidated")),
        vocab.SPECIALIZATION_OF: line(vocab.SPECIALIZATION_OF, iri("entity")),
        # One or more agents; the lines after the first are split later.
        vocab.ATTRIBUTED_TO: line(vocab.ATTRIBUTED_TO, iri("agent"))
        + f"(?P<agents>(?:{line(vocab.ATTRIBUTED_TO, _UNESCAPED_IRI_SOURCE)})*)",
        vocab.DERIVED_FROM: optional(vocab.DERIVED_FROM, iri("derived")),
        vocab.CHANGE_KIND: line(vocab.CHANGE_KIND, f'"(?P<kind>{"|".join(CHANGE_KINDS)})"'),
        vocab.HAS_UPDATE_QUERY: line(vocab.HAS_UPDATE_QUERY, f'"(?P<update>{_ESCAPED_UPDATE_SOURCE})"'),
    }
    return re.compile("".join(lines[predicate] for predicate in sorted(lines, key=serialize_term)))


_SNAPSHOT_BLOCK = _snapshot_block()
_AGENT_TOKEN = serialize_term(vocab.ATTRIBUTED_TO)
_BLOCK_GROUPS = ("subject", "graph", "entity", "generated", "invalidated", "source", "agent", "agents", "derived", "kind", "update")


def _read_blocks(kept: KeptText, iris: dict[str, Iri]) -> dict | None:
    """The drafts of every chain graph of ``prov.nq`` text that is wholly
    snapshot blocks (:data:`_SNAPSHOT_BLOCK`) in increasing order of graph
    and subject, each in the graph of the entity it specializes, its
    agents in increasing order and its update query canonical, as
    ``graph -> (entity, drafts)``; each graph's span, from its first block
    to its last, is recorded in ``kept``, which holds the text.  ``None``,
    with nothing recorded, for any other text, or when one of its IRIs
    fails to build: every IRI is built here, through ``iris``, before any
    chain is checked.
    """
    text = kept.text
    get = iris.get

    def term(token: str) -> Iri:
        return get(token[1:-1]) or memo_iri(token[1:-1], iris)

    graphs: dict[Iri, tuple] = {}
    spans: dict[Iri, tuple[int, int]] = {}
    pos, last = 0, ("", "")
    try:
        while pos < len(text):
            found = _SNAPSHOT_BLOCK.match(text, pos)
            if found is None:
                return None
            subject, graph, entity, generated, invalidated, source, agent, more, derived, kind, body = found.group(*_BLOCK_GROUPS)
            if (graph, subject) <= last or graph != entity[:-1] + "/prov>":
                return None
            last, pos = (graph, subject), found.end()
            agents = [agent]
            if more:
                # Each further line is the subject, the predicate, the agent and the graph.
                agents += [line[len(subject) + len(_AGENT_TOKEN) + 2 : -len(graph) - 3] for line in more.split("\n")[:-1]]
                if not _increasing(agents):
                    return None
            if not _ordered_update(body):
                return None
            key = term(graph)
            if key not in graphs:
                graphs[key], start = (term(entity), []), found.start()
            spans[key] = (start, pos - 1)  # in order, a graph's blocks stand together
            graphs[key][1].append((
                term(subject),
                generated,
                invalidated,
                tuple(sorted(map(term, agents))),
                None if source is None else term(source),
                None if derived is None else term(derived),
                UpdateQuery(None, iris=iris, body=body),
                kind,
            ))
    except InvalidIri:
        return None
    for _, drafts in graphs.values():
        drafts.sort(key=itemgetter(0))
    kept.spans = spans
    return graphs
