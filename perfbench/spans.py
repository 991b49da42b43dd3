"""In-memory spans around the package's public entry points.

The tracer replaces each traced name where callers look it up (a module
attribute such as ``store.parse_nquads`` or a method on its class) with a
wrapper that records one span per call, and puts the originals back on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` changes.

A span records its name, start, end, parent span and operation id.
Spans stay in memory until the run ends; :func:`summarize` turns them
into per-name totals and self times (duration minus the time covered by
the span's children).
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    items: float = 0.0  # work done by the call, in the unit its summary uses

    def duration(self) -> float:
        return self.end - self.start


def _rows_of(tables) -> int:
    values = tables.values() if isinstance(tables, dict) else tables
    return sum(len(t.rows) for t in values)


def _snapshots_of(tracker) -> int:
    return sum(len(tracker.chain(e)) for e in tracker.entities())


def _text_bytes(result) -> int:
    return len(result.encode("utf-8")) if isinstance(result, str) else 0


# name -> how to count the items a call handled, from (args, kwargs, result)
_ITEMS = {
    "rdf.parse_nquads": lambda a, k, r: len(a[0].encode("utf-8")) if a and isinstance(a[0], str) else 0,
    "rdf.serialize_nquads": lambda a, k, r: _text_bytes(r),
    "store.save": lambda a, k, r: os.path.getsize(a[1]) if len(a) > 1 and os.path.exists(a[1]) else 0,
    "store.bgp_query": lambda a, k, r: len(r),
    "provenance.from_quads": lambda a, k, r: _snapshots_of(r),
    "mapping.execute_mapping": lambda a, k, r: _rows_of(a[1] if len(a) > 1 else k["tables"]),
    "fair.run_audit": lambda a, k, r: len(r.results),
    "workflow.parse_process_table": lambda a, k, r: len(r),
}


def _targets(hc):
    """(owner, attribute, span name, kind) for every traced lookup site."""
    rdf, store, provenance, mapping = hc.rdf, hc.store, hc.provenance, hc.mapping
    workflow, catalog, fair, cli = hc.workflow, hc.catalog, hc.fair, hc.cli
    Store, Tracker, Catalog = store.Store, provenance.ProvenanceTracker, catalog.Catalog
    fn, method, classmethod_ = "function", "method", "classmethod"
    return [
        (rdf, "parse_nquads", "rdf.parse_nquads", fn),
        (store, "parse_nquads", "rdf.parse_nquads", fn),
        (fair, "parse_nquads", "rdf.parse_nquads", fn),
        (rdf, "serialize_nquads", "rdf.serialize_nquads", fn),
        (store, "serialize_nquads", "rdf.serialize_nquads", fn),
        (cli, "serialize_nquads", "rdf.serialize_nquads", fn),
        (workflow, "serialize_nquads", "rdf.serialize_nquads", fn),
        (fair, "serialize_nquads", "rdf.serialize_nquads", fn),
        (store, "parse_update", "store.parse_update", fn),
        (provenance, "parse_update", "store.parse_update", fn),
        (store, "serialize_update", "store.serialize_update", fn),
        (provenance, "serialize_update", "store.serialize_update", fn),
        (Store, "load", "store.load", classmethod_),
        (Store, "save", "store.save", method),
        (Store, "match", "store.match", method),
        (Store, "bgp_query", "store.bgp_query", method),
        (Store, "apply_delta", "store.apply_delta", method),
        (Tracker, "from_quads", "provenance.from_quads", classmethod_),
        (Tracker, "restore_state", "provenance.restore_state", method),
        (Tracker, "export_all_graphs", "provenance.export_all_graphs", method),
        (Tracker, "record_creation", "provenance.record_creation", method),
        (Tracker, "record_modification", "provenance.record_modification", method),
        (mapping, "load_table", "mapping.load_table", fn),
        (catalog, "load_table", "mapping.load_table", fn),
        (cli, "load_table", "mapping.load_table", fn),
        (mapping, "execute_mapping", "mapping.execute_mapping", fn),
        (catalog, "execute_mapping", "mapping.execute_mapping", fn),
        (workflow, "phases_from_store", "workflow.phases_from_store", fn),
        (workflow, "assets_from_store", "workflow.assets_from_store", fn),
        (workflow, "parse_process_table", "workflow.parse_process_table", fn),
        (catalog, "parse_process_table", "workflow.parse_process_table", fn),
        (Catalog, "open", "catalog.open", classmethod_),
        (Catalog, "save", "catalog.save", method),
        (Catalog, "register_phase", "catalog.register_phase", method),
        (Catalog, "ingest_bibliographic", "catalog.ingest_bibliographic", method),
        (Catalog, "ingest_process", "catalog.ingest_process", method),
        (Catalog, "apply_mapping", "catalog.apply_mapping", method),
        (Catalog, "validate_assets", "catalog.validate_assets", method),
        (fair, "run_audit", "fair.run_audit", fn),
        (fair, "render_report", "fair.render_report", fn),
        (cli, "parse_bgp_text", "cli.parse_bgp_text", fn),
        (cli, "main", "cli.main", fn),
    ]


class Tracer:
    """Collects spans from wrapped entry points while it is enabled."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.op: int | None = None  # id of the command being run
        self._stack: list[int] = []  # ids of the open spans
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, func, name: str):
        count = _ITEMS.get(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            items = count(args, kwargs, result) if count else 0
            tracer.spans.append(Span(span_id, name, start, end, parent, tracer.op, items))
            return result

        return traced

    def install(self, hc):
        """Wrap every target of the package namespace ``hc``."""
        for owner, attr, name, kind in _targets(hc):
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if kind == "classmethod":
                setattr(owner, attr, classmethod(self.wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self.wrap(raw, name))
        self.enabled = True

    def uninstall(self):
        self.enabled = False
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    @contextlib.contextmanager
    def paused(self):
        """Context in which wrapped calls record nothing (oracle work)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: float = 0.0


def summarize(spans) -> dict[str, LayerTotals]:
    """Per span name: calls, total and self seconds, and items handled."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration()
    totals: dict[str, LayerTotals] = {}
    for s in spans:
        t = totals.setdefault(s.name, LayerTotals())
        t.calls += 1
        t.total_s += s.duration()
        t.self_s += s.duration() - child_time.get(s.id, 0.0)
        t.items += s.items
    return totals
