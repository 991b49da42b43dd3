import random
from datetime import datetime, timedelta, timezone

import pytest

from conftest import forward_replay, is_live, ts
from heritage_catalog import vocab
from heritage_catalog.provenance import (
    AlreadyExists,
    CorruptProvenance,
    CREATION,
    DELETION,
    EntityDeleted,
    ForeignSubject,
    MERGE,
    MODIFICATION,
    NoSuchEntity,
    NonMonotonicTime,
    ProvenanceTracker,
    SelfMerge,
    iso_timestamp,
    parse_timestamp,
    prov_graph_iri,
)
from heritage_catalog.rdf import Iri, Literal, ParseError, Quad, serialize_nquads
from heritage_catalog.store import Delta, PreconditionViolation, Store, parse_update

E = Iri("http://ex.org/obj/1")
AGENT = Iri("http://ex.org/agent/a")
SOURCE = Iri("http://ex.org/table/t1")


def eq(predicate, obj, entity=E):
    return Quad(entity, Iri(f"http://ex.org/{predicate}"), Literal(obj))


def fresh() -> ProvenanceTracker:
    return ProvenanceTracker(Store())


class TestCreation:
    def test_first_snapshot_shape(self):
        tracker = fresh()
        initial = {eq("title", "A"), eq("kind", "vase"), eq("note", "x")}
        snap = tracker.record_creation(E, initial, AGENT, source=SOURCE, time=ts(0))
        assert snap.index == 1
        assert snap.kind == CREATION
        assert snap.derived_from is None
        assert snap.update_query.deletes == frozenset()
        assert snap.update_query.inserts == initial
        assert snap.iri == Iri("http://ex.org/obj/1/prov/se/1")
        assert tracker.current_quads(E) == initial

    def test_double_creation_rejected(self):
        tracker = fresh()
        tracker.record_creation(E, {eq("t", "A")}, AGENT, time=ts(0))
        with pytest.raises(AlreadyExists):
            tracker.record_creation(E, {eq("t", "B")}, AGENT, time=ts(1))

    def test_foreign_subject_rejected(self):
        tracker = fresh()
        alien = Quad(Iri("http://ex.org/other"), Iri("http://ex.org/p"), Literal("v"))
        with pytest.raises(ForeignSubject):
            tracker.record_creation(E, {alien}, AGENT, time=ts(0))


class TestModification:
    def test_modification_links_chain(self):
        tracker = fresh()
        tracker.record_creation(E, {eq("title", "A")}, AGENT, time=ts(0))
        delta = Delta(deletes={eq("title", "A")}, inserts={eq("title", "B")})
        snap = tracker.record_modification(E, delta, AGENT, time=ts(10))
        assert snap.index == 2
        assert snap.derived_from == Iri("http://ex.org/obj/1/prov/se/1")
        first = tracker.chain(E)[0]
        assert first.invalidated_at == snap.generated_at
        assert tracker.current_quads(E) == {eq("title", "B")}

    def test_unknown_entity(self):
        with pytest.raises(NoSuchEntity):
            fresh().record_modification(E, Delta(), AGENT, time=ts(0))

    def test_deleted_entity_rejected(self):
        tracker = fresh()
        tracker.record_creation(E, {eq("t", "A")}, AGENT, time=ts(0))
        tracker.record_deletion(E, AGENT, time=ts(1))
        with pytest.raises(EntityDeleted):
            tracker.record_modification(E, Delta(inserts={eq("t", "B")}), AGENT, time=ts(2))

    def test_non_monotonic_time_rejected(self):
        tracker = fresh()
        tracker.record_creation(E, {eq("t", "A")}, AGENT, time=ts(5))
        with pytest.raises(NonMonotonicTime):
            tracker.record_modification(E, Delta(inserts={eq("t", "B")}), AGENT, time=ts(5))

    def test_inapplicable_delta_rejected(self):
        tracker = fresh()
        tracker.record_creation(E, {eq("t", "A")}, AGENT, time=ts(0))
        with pytest.raises(PreconditionViolation):
            tracker.record_modification(E, Delta(deletes={eq("t", "ZZZ")}), AGENT, time=ts(1))


class TestMerge:
    def test_disjoint_merge_counts(self):
        tracker = fresh()
        survivor = Iri("http://ex.org/obj/s")
        absorbed = Iri("http://ex.org/obj/a")
        tracker.record_creation(survivor, {eq("p1", "a", survivor), eq("p2", "b", survivor), eq("p3", "c", survivor)}, AGENT, time=ts(0))
        tracker.record_creation(absorbed, {eq("q1", "d", absorbed), eq("q2", "e", absorbed)}, AGENT, time=ts(1))
        merge_snap, deletion_snap = tracker.record_merge(survivor, absorbed, AGENT, time=ts(2))
        assert len(tracker.current_quads(survivor)) == 5
        assert tracker.current_quads(absorbed) == set()
        assert merge_snap.kind == MERGE
        assert merge_snap.primary_source == absorbed
        assert deletion_snap.kind == DELETION
        assert not is_live(tracker, absorbed)

    def test_duplicate_quads_collapse(self):
        tracker = fresh()
        survivor = Iri("http://ex.org/obj/s")
        absorbed = Iri("http://ex.org/obj/a")
        shared_pred = Iri("http://ex.org/title")
        tracker.record_creation(survivor, {Quad(survivor, shared_pred, Literal("Same"))}, AGENT, time=ts(0))
        tracker.record_creation(absorbed, {Quad(absorbed, shared_pred, Literal("Same")), Quad(absorbed, Iri("http://ex.org/extra"), Literal("new"))}, AGENT, time=ts(1))
        merge_snap, _ = tracker.record_merge(survivor, absorbed, AGENT, time=ts(2))
        assert merge_snap.update_query.inserts == {Quad(survivor, Iri("http://ex.org/extra"), Literal("new"))}
        assert len(tracker.current_quads(survivor)) == 2

    def test_self_merge_rejected(self):
        tracker = fresh()
        tracker.record_creation(E, {eq("t", "A")}, AGENT, time=ts(0))
        with pytest.raises(SelfMerge):
            tracker.record_merge(E, E, AGENT, time=ts(1))


class TestDeletion:
    def test_deletion_delta_shape(self):
        tracker = fresh()
        quads = {eq("a", "1"), eq("b", "2"), eq("c", "3"), eq("d", "4")}
        tracker.record_creation(E, quads, AGENT, time=ts(0))
        snap = tracker.record_deletion(E, AGENT, time=ts(1))
        assert snap.update_query.deletes == quads
        assert snap.update_query.inserts == frozenset()
        assert snap.invalidated_at == snap.generated_at
        assert tracker.current_quads(E) == set()

    def test_double_delete_rejected(self):
        tracker = fresh()
        tracker.record_creation(E, {eq("t", "A")}, AGENT, time=ts(0))
        tracker.record_deletion(E, AGENT, time=ts(1))
        with pytest.raises(EntityDeleted):
            tracker.record_deletion(E, AGENT, time=ts(2))

    def test_restore_before_deletion(self):
        tracker = fresh()
        quads = {eq("a", "1"), eq("b", "2")}
        tracker.record_creation(E, quads, AGENT, time=ts(0))
        tracker.record_deletion(E, AGENT, time=ts(100))
        assert tracker.restore_state(E, ts(50)) == quads
        assert tracker.restore_state(E, ts(100)) == set()


class TestClock:
    """A record given no time takes the current second, or one second after
    the last snapshot of every chain it extends when that is not yet past."""

    def test_creation_takes_the_current_second(self):
        tracker = fresh()
        before = datetime.now(timezone.utc).replace(microsecond=0)
        snap = tracker.record_creation(E, {eq("t", "A")}, AGENT)
        after = datetime.now(timezone.utc)
        assert before <= snap.generated_at <= after

    def test_modification_after_a_future_snapshot_is_one_second_later(self):
        tracker = fresh()
        ahead = datetime.now(timezone.utc).replace(microsecond=0) + timedelta(seconds=100)
        tracker.record_creation(E, {eq("t", "A")}, AGENT, time=ahead)
        snap = tracker.record_modification(E, Delta(inserts={eq("t", "B")}), AGENT)
        assert snap.generated_at == ahead + timedelta(seconds=1)

    def test_merge_comes_after_both_chains(self):
        tracker = fresh()
        survivor, absorbed = Iri("http://ex.org/obj/s"), Iri("http://ex.org/obj/a")
        ahead = datetime.now(timezone.utc).replace(microsecond=0) + timedelta(seconds=100)
        tracker.record_creation(survivor, {eq("p", "a", survivor)}, AGENT, time=ts(0))
        tracker.record_creation(absorbed, {eq("q", "b", absorbed)}, AGENT, time=ahead)
        merge_snap, deletion_snap = tracker.record_merge(survivor, absorbed, AGENT)
        assert merge_snap.generated_at == deletion_snap.generated_at == ahead + timedelta(seconds=1)
        assert tracker.chain(survivor)[0].invalidated_at == merge_snap.generated_at

    def test_deletion_after_a_future_snapshot_is_one_second_later(self):
        tracker = fresh()
        ahead = datetime.now(timezone.utc).replace(microsecond=0) + timedelta(seconds=100)
        tracker.record_creation(E, {eq("t", "A")}, AGENT, time=ahead)
        assert tracker.record_deletion(E, AGENT).generated_at == ahead + timedelta(seconds=1)


# -- rejected records ----------------------------------------------------------
#
# Each fault breaks one input of a record call.  With two faults the call
# raises the error of the fault its method checks first, and a rejected call
# leaves the store and every chain as they were.  The messages and the check
# orders were captured from the tracker before its records shared one append,
# with one change: an empty agent list is now rejected before the store
# changes.  A modification used to apply its delta first, so its precondition
# faults came before that one, and the delta stayed in the store.

NEW, LIVE, OTHER, DEAD = (Iri(f"http://ex.org/obj/{name}") for name in ("new", "live", "other", "dead"))
CALL_TIME = ts(10)


def _record_scenario() -> ProvenanceTracker:
    tracker = fresh()
    for entity in (LIVE, OTHER, DEAD):
        tracker.record_creation(entity, {eq("t", "A", entity)}, AGENT, time=ts(0))
    tracker.record_deletion(DEAD, AGENT, time=ts(1))
    return tracker


def _grow_delta(kwargs, deletes=(), inserts=()):
    delta = kwargs["delta"]
    kwargs["delta"] = Delta(deletes=delta.deletes | set(deletes), inserts=delta.inserts | set(inserts))


def _stale(entity):
    """The entity's chain moves past the call's time."""
    return lambda tracker, kwargs: tracker.record_modification(entity, Delta(inserts={eq("late", "x", entity)}), AGENT, time=ts(20))


_NO_AGENT = ("agents", lambda tracker, kwargs: kwargs.update(agents=()))
_NAIVE_TIME = ("time", lambda tracker, kwargs: kwargs.update(time=CALL_TIME.replace(tzinfo=None)))

# method -> (valid keyword arguments, {fault: (the input it breaks, how)});
# faults that break the same input are never combined.
RECORD_FAULTS = {
    "record_creation": (
        lambda: dict(entity=NEW, initial={eq("t", "N", NEW)}, agents=AGENT, time=CALL_TIME),
        {
            "exists": ("entity", lambda tracker, kwargs: tracker.record_creation(NEW, {eq("t", "X", NEW)}, AGENT, time=ts(0))),
            "foreign": ("initial", lambda tracker, kwargs: kwargs.update(initial=kwargs["initial"] | {eq("t", "A", OTHER)})),
            "no_agent": _NO_AGENT,
            "naive_time": _NAIVE_TIME,
            "present": ("store", lambda tracker, kwargs: tracker.store.insert_quads({eq("t", "N", NEW)})),
        },
    ),
    "record_modification": (
        lambda: dict(entity=LIVE, delta=Delta(deletes={eq("t", "A", LIVE)}, inserts={eq("t", "B", LIVE)}), agents=AGENT, time=CALL_TIME),
        {
            "unknown": ("entity", lambda tracker, kwargs: kwargs.update(entity=NEW)),
            "deleted": ("entity", lambda tracker, kwargs: kwargs.update(entity=DEAD)),
            "naive_time": _NAIVE_TIME,
            "stale_time": ("time", lambda tracker, kwargs: kwargs.update(time=ts(0))),
            "foreign": ("inserts", lambda tracker, kwargs: _grow_delta(kwargs, inserts={eq("t", "B", OTHER)})),
            "missing_delete": ("deletes", lambda tracker, kwargs: _grow_delta(kwargs, deletes={eq("t", "Z", LIVE)})),
            "present_insert": ("store", lambda tracker, kwargs: (
                tracker.store.insert_quads({eq("t", "P", LIVE)}), _grow_delta(kwargs, inserts={eq("t", "P", LIVE)}))),
            "no_agent": _NO_AGENT,
        },
    ),
    "record_merge": (
        lambda: dict(survivor=LIVE, absorbed=OTHER, agents=AGENT, time=CALL_TIME),
        {
            "survivor_unknown": ("survivor", lambda tracker, kwargs: kwargs.update(survivor=NEW)),
            "survivor_deleted": ("survivor", lambda tracker, kwargs: kwargs.update(survivor=DEAD)),
            "absorbed_unknown": ("absorbed", lambda tracker, kwargs: kwargs.update(absorbed=NEW)),
            "absorbed_deleted": ("absorbed", lambda tracker, kwargs: kwargs.update(absorbed=DEAD)),
            "self_merge": ("absorbed", lambda tracker, kwargs: kwargs.update(absorbed=LIVE)),
            "no_agent": _NO_AGENT,
            "naive_time": _NAIVE_TIME,
            "survivor_stale": ("survivor chain", _stale(LIVE)),
            "absorbed_stale": ("absorbed chain", _stale(OTHER)),
        },
    ),
    "record_deletion": (
        lambda: dict(entity=LIVE, agents=AGENT, time=CALL_TIME),
        {
            "unknown": ("entity", lambda tracker, kwargs: kwargs.update(entity=NEW)),
            "deleted": ("entity", lambda tracker, kwargs: kwargs.update(entity=DEAD)),
            "naive_time": _NAIVE_TIME,
            "stale_time": ("time", lambda tracker, kwargs: kwargs.update(time=ts(0))),
            "no_agent": _NO_AGENT,
        },
    ),
}

_LATE = iso_timestamp(ts(20))
_AWARE = (ValueError, "timestamps must be timezone-aware")
_NO_AGENT_ERROR = (ValueError, "at least one agent is required")

# method -> (type, message) per fault, in the order the method checks them
RECORD_ERRORS = {
    "record_creation": {
        "exists": (AlreadyExists, "http://ex.org/obj/new already has a snapshot chain"),
        "foreign": (ForeignSubject, "quad subject http://ex.org/obj/other is not http://ex.org/obj/new"),
        "no_agent": _NO_AGENT_ERROR,
        "naive_time": _AWARE,
        "present": (PreconditionViolation, "1 insert(s) already present"),
    },
    "record_modification": {
        "unknown": (NoSuchEntity, "no snapshot chain for http://ex.org/obj/new"),
        "deleted": (EntityDeleted, f"http://ex.org/obj/dead was deleted at {iso_timestamp(ts(1))}"),
        "naive_time": _AWARE,
        "stale_time": (NonMonotonicTime, f"{iso_timestamp(ts(0))} is not after {iso_timestamp(ts(0))}"),
        "foreign": (ForeignSubject, "quad subject http://ex.org/obj/other is not http://ex.org/obj/live"),
        "no_agent": _NO_AGENT_ERROR,
        "missing_delete": (PreconditionViolation, "1 delete(s) not present"),
        "present_insert": (PreconditionViolation, "1 insert(s) already present"),
    },
    "record_merge": {
        "survivor_unknown": (NoSuchEntity, "no snapshot chain for http://ex.org/obj/new"),
        "survivor_deleted": (EntityDeleted, f"http://ex.org/obj/dead was deleted at {iso_timestamp(ts(1))}"),
        "absorbed_unknown": (NoSuchEntity, "no snapshot chain for http://ex.org/obj/new"),
        "absorbed_deleted": (EntityDeleted, f"http://ex.org/obj/dead was deleted at {iso_timestamp(ts(1))}"),
        "self_merge": (SelfMerge, "cannot merge http://ex.org/obj/live into itself"),
        "no_agent": _NO_AGENT_ERROR,
        "naive_time": _AWARE,
        "survivor_stale": (NonMonotonicTime, f"{iso_timestamp(CALL_TIME)} is not after {_LATE}"),
        "absorbed_stale": (NonMonotonicTime, f"{iso_timestamp(CALL_TIME)} is not after {_LATE}"),
    },
    "record_deletion": {
        "unknown": (NoSuchEntity, "no snapshot chain for http://ex.org/obj/new"),
        "deleted": (EntityDeleted, f"http://ex.org/obj/dead was deleted at {iso_timestamp(ts(1))}"),
        "naive_time": _AWARE,
        "stale_time": (NonMonotonicTime, f"{iso_timestamp(ts(0))} is not after {iso_timestamp(ts(0))}"),
        "no_agent": _NO_AGENT_ERROR,
    },
}


def _fault_cases():
    for method, (_, faults) in RECORD_FAULTS.items():
        names = list(faults)
        for i, first in enumerate(names):
            yield method, (first,)
            for second in names[i + 1:]:
                if faults[first][0] != faults[second][0]:
                    yield method, (first, second)


def expected_rejection(method: str, chosen) -> tuple:
    if set(chosen) == {"missing_delete", "present_insert"}:
        return PreconditionViolation, "1 delete(s) not present; 1 insert(s) already present"
    order = list(RECORD_ERRORS[method])
    return RECORD_ERRORS[method][min(chosen, key=order.index)]


def attempt_faulty_record(method: str, chosen):
    """Run the record call with the chosen faults; returns the error raised
    and whether the store and every chain were left as they were."""
    make_kwargs, faults = RECORD_FAULTS[method]
    tracker = _record_scenario()
    kwargs = make_kwargs()
    for name in chosen:
        faults[name][1](tracker, kwargs)
    state = lambda: (tracker.store.quads(), {e: tracker.chain(e) for e in tracker.entities()})
    before = state()
    try:
        getattr(tracker, method)(**kwargs)
    except Exception as exc:
        return (type(exc), str(exc)), state() == before
    return None, state() == before


@pytest.mark.parametrize("method, chosen", list(_fault_cases()), ids=lambda v: "+".join(v) if isinstance(v, tuple) else v)
def test_rejected_record_error_and_state(method, chosen):
    error, unchanged = attempt_faulty_record(method, chosen)
    assert error == expected_rejection(method, chosen)
    assert unchanged


class TestRestore:
    def test_after_last_is_current(self):
        tracker = fresh()
        tracker.record_creation(E, {eq("t", "A")}, AGENT, time=ts(0))
        tracker.record_modification(E, Delta(deletes={eq("t", "A")}, inserts={eq("t", "B")}), AGENT, time=ts(10))
        assert tracker.restore_state(E, ts(99)) == tracker.current_quads(E)

    def test_before_creation_is_empty(self):
        tracker = fresh()
        tracker.record_creation(E, {eq("t", "A")}, AGENT, time=ts(0))
        assert tracker.restore_state(E, ts(-1)) == set()

    def test_unknown_entity(self):
        with pytest.raises(NoSuchEntity):
            fresh().restore_state(E, ts(0))

    def test_randomized_histories_match_forward_replay(self):
        rng = random.Random(1234)
        tracker = fresh()
        clock = [0]

        def tick():
            clock[0] += 1
            return ts(clock[0])

        entities = [Iri(f"http://ex.org/obj/{i}") for i in range(10)]
        live = []
        pool = iter(range(10))
        for _ in range(60):
            action = rng.random()
            if (action < 0.3 or not live) and (nxt := next(pool, None)) is not None:
                entity = entities[nxt]
                initial = {eq(f"p{rng.randrange(5)}", f"v{rng.randrange(100)}", entity) for _ in range(rng.randrange(1, 4))}
                tracker.record_creation(entity, initial, AGENT, source=SOURCE, time=tick())
                live.append(entity)
            elif action < 0.8 and live:
                entity = rng.choice(live)
                current = list(tracker.current_quads(entity))
                deletes = set(rng.sample(current, k=rng.randrange(0, len(current) + 1)))
                inserts = set()
                for _ in range(rng.randrange(0, 3)):
                    candidate = eq(f"p{rng.randrange(5)}", f"v{rng.randrange(100)}", entity)
                    if candidate not in tracker.current_quads(entity) and candidate not in deletes:
                        inserts.add(candidate)
                if deletes or inserts:
                    tracker.record_modification(entity, Delta(deletes=deletes, inserts=inserts), AGENT, time=tick())
            elif action < 0.9 and len(live) >= 2:
                survivor, absorbed = rng.sample(live, 2)
                tracker.record_merge(survivor, absorbed, AGENT, time=tick())
                live.remove(absorbed)
            elif live:
                entity = rng.choice(live)
                tracker.record_deletion(entity, AGENT, time=tick())
                live.remove(entity)

        for entity in tracker.entities():
            chain = tracker.chain(entity)
            deltas = [s.update_query for s in chain]
            for k, snap in enumerate(chain, start=1):
                expected = forward_replay(deltas[:k])
                assert tracker.restore_state(entity, snap.generated_at) == expected
            assert tracker.restore_state(entity, ts(-10)) == set()


class TestExport:
    def test_single_snapshot_emits_seven_statements(self):
        tracker = fresh()
        tracker.record_creation(E, {eq("t", "A")}, AGENT, source=SOURCE, time=ts(0))
        graph = tracker.export_prov_graph(E)
        assert len(graph) == 7
        predicates = {q.predicate for q in graph}
        assert predicates == {
            vocab.RDF_TYPE,
            vocab.SPECIALIZATION_OF,
            vocab.GENERATED_AT,
            vocab.ATTRIBUTED_TO,
            vocab.PRIMARY_SOURCE,
            vocab.CHANGE_KIND,
            vocab.HAS_UPDATE_QUERY,
        }
        assert Quad(se(1), vocab.CHANGE_KIND, Literal(CREATION), prov_graph_iri(E)) in graph
        assert {q.graph for q in graph} == {prov_graph_iri(E)}

    def test_two_snapshot_chain_gains_links(self):
        tracker = fresh()
        tracker.record_creation(E, {eq("t", "A")}, AGENT, source=SOURCE, time=ts(0))
        tracker.record_modification(E, Delta(deletes={eq("t", "A")}, inserts={eq("t", "B")}), AGENT, time=ts(5))
        graph = tracker.export_prov_graph(E)
        se1 = Iri("http://ex.org/obj/1/prov/se/1")
        se2 = Iri("http://ex.org/obj/1/prov/se/2")
        assert any(q.subject == se1 and q.predicate == vocab.INVALIDATED_AT for q in graph)
        assert any(q.subject == se2 and q.predicate == vocab.DERIVED_FROM and q.object == se1 for q in graph)

    def test_update_query_literals_parse_back(self):
        tracker = fresh()
        tracker.record_creation(E, {eq("t", 'A "quoted"\nvalue')}, AGENT, source=SOURCE, time=ts(0))
        tracker.record_modification(E, Delta(deletes={eq("t", 'A "quoted"\nvalue')}, inserts={eq("t", "B")}), AGENT, time=ts(5))
        graph = tracker.export_prov_graph(E)
        chain = tracker.chain(E)
        for snap in chain:
            literal = next(
                q.object.lexical
                for q in graph
                if q.subject == snap.iri and q.predicate == vocab.HAS_UPDATE_QUERY
            )
            assert parse_update(literal) == snap.update_query

    def test_export_unknown_entity(self):
        with pytest.raises(NoSuchEntity):
            fresh().export_prov_graph(E)


class TestPersistenceRoundTrip:
    def test_a_tracker_no_file_was_read_for_writes_its_file(self, tmp_path):
        # Even with no chain, so even when the text is empty.
        stale = tmp_path / "stale.nq"
        stale.write_text(serialize_nquads(self._populated().export_all_graphs()), encoding="utf-8")
        for path in (tmp_path / "new.nq", stale):
            ProvenanceTracker(Store()).save(path)
            assert path.read_text(encoding="utf-8") == ""

    def _populated(self):
        tracker = fresh()
        other = Iri("http://ex.org/obj/2")
        tracker.record_creation(E, {eq("t", "A")}, AGENT, source=SOURCE, time=ts(0))
        tracker.record_creation(other, {eq("t", "B", other)}, AGENT, source=SOURCE, time=ts(1))
        tracker.record_modification(E, Delta(deletes={eq("t", "A")}, inserts={eq("t", "A2")}), AGENT, time=ts(2))
        tracker.record_merge(E, other, AGENT, time=ts(3))
        return tracker

    def test_chains_survive_reload(self):
        tracker = self._populated()
        reloaded = ProvenanceTracker.from_quads(tracker.store, tracker.export_all_graphs())
        assert reloaded.entities() == tracker.entities()
        for entity in tracker.entities():
            assert reloaded.chain(entity) == tracker.chain(entity)

    def test_reloaded_tracker_keeps_working(self):
        tracker = self._populated()
        reloaded = ProvenanceTracker.from_quads(tracker.store, tracker.export_all_graphs())
        snap = reloaded.record_modification(E, Delta(inserts={eq("more", "x")}), AGENT, time=ts(10))
        assert snap.index == len(tracker.chain(E)) + 1
        with pytest.raises(EntityDeleted):
            reloaded.record_modification(Iri("http://ex.org/obj/2"), Delta(), AGENT, time=ts(11))


def se(index: int) -> Iri:
    return Iri(f"{E.value}/prov/se/{index}")


def _three_snapshot_payload() -> set:
    tracker = fresh()
    tracker.record_creation(E, {eq("t", "A")}, AGENT, source=SOURCE, time=ts(0))
    tracker.record_modification(E, Delta(deletes={eq("t", "A")}, inserts={eq("t", "B")}), AGENT, time=ts(5))
    tracker.record_modification(E, Delta(inserts={eq("n", "1")}), AGENT, time=ts(10))
    return tracker.export_all_graphs()


def _without(subject: Iri, predicate: Iri | None = None):
    def corrupt(quads):
        return {q for q in quads if not (q.subject == subject and predicate in (None, q.predicate))}

    return corrupt


def _replaced(subject: Iri, predicate: Iri, obj):
    def corrupt(quads):
        return _without(subject, predicate)(quads) | {Quad(subject, predicate, obj, prov_graph_iri(E))}

    return corrupt


def _typed(subject: Iri):
    def corrupt(quads):
        return quads | {Quad(subject, vocab.RDF_TYPE, vocab.PROV_ENTITY, prov_graph_iri(E))}

    return corrupt


def _stamp(seconds: int) -> Literal:
    return Literal(iso_timestamp(ts(seconds)), datatype=vocab.XSD_DATETIME)


def _deletion_invalidated_at(invalidated):
    """The last snapshot marked as a deletion, with this invalidation time."""
    def corrupt(quads):
        deletion = _replaced(se(3), vocab.CHANGE_KIND, Literal(DELETION))(quads)
        return _replaced(se(3), vocab.INVALIDATED_AT, invalidated)(deletion)

    return corrupt


# One corruption of a persisted chain per check of the chain rebuild, with
# the message it raises.  In the intact payload se(1), se(2) and se(3) are
# generated at ts(0), ts(5) and ts(10), and se(1) and se(2) are invalidated
# when the next one is generated.
CHAIN_CORRUPTIONS = [
    pytest.param(_typed(Iri("http://ex.org/stray")), "unexpected snapshot identifier http://ex.org/stray", id="unexpected-identifier"),
    pytest.param(_typed(Iri(f"{E.value}/prov/se/two")), f"non-numeric snapshot index in {E.value}/prov/se/two", id="non-numeric-index"),
    pytest.param(_without(se(2), vocab.GENERATED_AT), f"{se(2)} has no generation timestamp", id="no-generation-time"),
    pytest.param(
        _replaced(se(2), vocab.GENERATED_AT, Iri("http://ex.org/time")), f"{se(2)} has no generation timestamp", id="iri-generation-time"
    ),
    pytest.param(_without(se(1), vocab.HAS_UPDATE_QUERY), f"{se(1)} has no update query", id="no-update-query"),
    pytest.param(_without(se(3), vocab.ATTRIBUTED_TO), f"{se(3)} has no attribution", id="no-attribution"),
    pytest.param(_without(se(2)), f"snapshot indexes for {E} are not contiguous", id="non-contiguous"),
    pytest.param(
        _replaced(se(2), vocab.GENERATED_AT, Literal(iso_timestamp(ts(0)), datatype=vocab.XSD_DATETIME)),
        f"timestamps for {E} are not strictly increasing",
        id="non-increasing-times",
    ),
    pytest.param(_replaced(se(3), vocab.DERIVED_FROM, se(1)), f"{se(3)} is not derived from {se(2)}", id="wrong-derivation"),
    pytest.param(_replaced(se(2), vocab.CHANGE_KIND, Literal(CREATION)), f"{se(2)} claims to be a creation snapshot", id="creation-mid-chain"),
    pytest.param(
        _replaced(se(2), vocab.CHANGE_KIND, Literal(DELETION)),
        f"{E} has a deletion snapshot before the end of the chain",
        id="deletion-before-end",
    ),
    pytest.param(
        _replaced(se(1), vocab.INVALIDATED_AT, _stamp(4)), f"{se(1)} is not invalidated when {se(2)} is generated",
        id="invalidated-before-next-generation",
    ),
    pytest.param(
        _without(se(2), vocab.INVALIDATED_AT), f"{se(2)} is not invalidated when {se(3)} is generated", id="never-invalidated-mid-chain"
    ),
    pytest.param(
        _replaced(se(1), vocab.INVALIDATED_AT, Literal("")), f"{se(1)} is not invalidated when {se(2)} is generated",
        id="empty-invalidation-mid-chain",
    ),
    pytest.param(
        _replaced(se(3), vocab.INVALIDATED_AT, _stamp(12)), f"{se(3)} is invalidated but is the last snapshot and not a deletion",
        id="last-invalidated-not-deletion",
    ),
    pytest.param(
        _replaced(se(3), vocab.CHANGE_KIND, Literal(DELETION)), f"deletion {se(3)} is not invalidated when it is generated",
        id="deletion-never-invalidated",
    ),
    pytest.param(
        _deletion_invalidated_at(_stamp(12)), f"deletion {se(3)} is not invalidated when it is generated", id="deletion-invalidated-later"
    ),
]


class TestChainRebuildChecks:
    @pytest.mark.parametrize("corrupt, message", CHAIN_CORRUPTIONS)
    def test_corrupt_chain_is_rejected(self, corrupt, message):
        payload = corrupt(_three_snapshot_payload())
        with pytest.raises(CorruptProvenance) as err:
            ProvenanceTracker.from_quads(Store(), payload)
        assert str(err.value) == message

    @pytest.mark.parametrize("order", [1, -1])
    def test_statements_outside_any_chain_name_the_first_graph(self, order):
        stray = [Quad(E, eq("t", "A").predicate, Literal("x"), Iri(f"http://ex.org/{name}")) for name in "gh"]
        with pytest.raises(CorruptProvenance) as err:
            ProvenanceTracker.from_quads(Store(), [*sorted(_three_snapshot_payload()), *stray[::order]])
        assert str(err.value) == "statement outside any snapshot chain, in graph http://ex.org/g"
        with pytest.raises(CorruptProvenance) as err:
            ProvenanceTracker.from_quads(Store(), [*stray[::order], Quad(E, stray[0].predicate, Literal("x"))])
        assert str(err.value) == "statement outside any snapshot chain, in the default graph"

    def test_unknown_change_kind_is_inferred(self):
        payload = _replaced(se(2), vocab.CHANGE_KIND, Literal("renamed"))(_deletion_invalidated_at(_stamp(10))(_three_snapshot_payload()))
        payload = _replaced(se(3), vocab.CHANGE_KIND, Literal("gone"))(payload)
        chain = ProvenanceTracker.from_quads(Store(), payload).chain(E)
        assert [s.kind for s in chain] == [CREATION, MODIFICATION, DELETION]

    def test_intact_payload_rebuilds(self):
        chain = ProvenanceTracker.from_quads(Store(), _three_snapshot_payload()).chain(E)
        assert [s.index for s in chain] == [1, 2, 3]

    def test_empty_invalidation_of_the_last_snapshot_reads_as_none(self):
        payload = _replaced(se(3), vocab.INVALIDATED_AT, Literal(""))(_three_snapshot_payload())
        assert ProvenanceTracker.from_quads(Store(), payload).chain(E)[-1].invalidated_at is None

    def test_deletion_invalidated_when_generated_rebuilds(self):
        last = ProvenanceTracker.from_quads(Store(), _deletion_invalidated_at(_stamp(10))(_three_snapshot_payload())).chain(E)[-1]
        assert (last.kind, last.invalidated_at) == (DELETION, ts(10))

    def test_several_values_read_lowest_first(self):
        graph = prov_graph_iri(E)
        early = Literal(iso_timestamp(ts(-1)), datatype=vocab.XSD_DATETIME)
        second_agent = Iri("http://ex.org/agent/0")
        payload = _three_snapshot_payload() | {
            Quad(se(1), vocab.GENERATED_AT, early, graph),
            Quad(se(1), vocab.ATTRIBUTED_TO, second_agent, graph),
        }
        first = ProvenanceTracker.from_quads(Store(), payload).chain(E)[0]
        assert first.generated_at == ts(-1)
        assert first.attributed_to == (second_agent, AGENT)


class TestChainInvariants:
    def test_well_formed_after_random_histories(self):
        rng = random.Random(55)
        tracker = fresh()
        clock = [0]

        def tick():
            clock[0] += 1
            return ts(clock[0])

        entity = Iri("http://ex.org/obj/x")
        tracker.record_creation(entity, {eq("t", "0", entity)}, AGENT, time=tick())
        for i in range(30):
            tracker.record_modification(entity, Delta(inserts={eq(f"n{i}", str(i), entity)}), AGENT, time=tick())
        chain = tracker.chain(entity)
        assert [s.index for s in chain] == list(range(1, 32))
        for earlier, later in zip(chain, chain[1:]):
            assert earlier.invalidated_at == later.generated_at
            assert later.derived_from == earlier.iri
            assert later.generated_at > earlier.generated_at
        assert all(s.kind != DELETION for s in chain[:-1])

    def test_audit_completeness(self):
        # every current quad is derivable from the chain alone
        tracker = fresh()
        clock = [0]

        def tick():
            clock[0] += 1
            return ts(clock[0])

        tracker.record_creation(E, {eq("a", "1"), eq("b", "2")}, AGENT, time=tick())
        tracker.record_modification(E, Delta(deletes={eq("a", "1")}, inserts={eq("a", "3")}), AGENT, time=tick())
        replayed = forward_replay([s.update_query for s in tracker.chain(E)])
        assert replayed == tracker.current_quads(E)


class TestTimestamps:
    def test_parse_and_render(self):
        moment = parse_timestamp("2024-01-02T03:04:05Z")
        assert iso_timestamp(moment) == "2024-01-02T03:04:05Z"

    def test_offset_normalized_to_utc(self):
        moment = parse_timestamp("2024-01-02T03:04:05+01:00")
        assert iso_timestamp(moment) == "2024-01-02T02:04:05Z"

    def test_bad_syntax(self):
        with pytest.raises(ParseError):
            parse_timestamp("yesterday")

    def test_fractions_of_a_second_are_dropped(self):
        moment = parse_timestamp("2024-01-02T03:04:05.75+01:00")
        assert moment == datetime(2024, 1, 2, 2, 4, 5, tzinfo=timezone.utc) and moment.microsecond == 0

    def test_year_below_1000_round_trips(self):
        moment = datetime(999, 10, 19, 7, 46, 36, tzinfo=timezone.utc)
        assert iso_timestamp(moment) == "0999-10-19T07:46:36Z"
        assert parse_timestamp(iso_timestamp(moment)) == moment

    @pytest.mark.parametrize("text", ["9999-12-31T23:59:59-01:00", "0001-01-01T00:00:00+00:01"])
    def test_utc_outside_datetime_is_a_bad_timestamp(self, text):
        with pytest.raises(ParseError) as caught:
            parse_timestamp(text)
        assert str(caught.value).startswith(f"bad timestamp '{text}': ")
