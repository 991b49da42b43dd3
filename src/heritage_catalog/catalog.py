"""Catalog directory: the data store, provenance, config and tables on disk.

A catalog lives in one directory::

    data.nq      canonical N-Quads data store
    prov.nq      canonical N-Quads provenance store
    catalog.cfg  key=value configuration
    tables/      ingested CSV tables
    mappings/    mapping DSL files
    bundles/     deposit bundle output

Every entity's descriptive quads live in its own metadata record graph
(entity IRI + "/record").  Each write of an entity is recorded as one
snapshot through the provenance tracker: its creation when the entity has
no chain yet, otherwise a modification.  So the data store stays
reconstructable from the snapshot chains.
"""

from __future__ import annotations

import gc
import shutil
from dataclasses import dataclass, fields
from pathlib import Path

from . import vocab, workflow
from .mapping import MappingDocument, Table, execute_mapping, load_table, percent_encode
from .provenance import ProvenanceTracker
from .rdf import InputError, InvalidIri, Iri, Literal, Quad, open_utf8, serialize_term
from .store import Delta, Store
from .workflow import (
    AssetVersion,
    ConstraintProfile,
    MissingColumn,
    NoSuchObject,
    PhaseRecord,
    UploadRecord,
    Violation,
    parse_process_table,
)

DEFAULT_REQUIRED_FIELDS = (
    vocab.RDF_TYPE.value,
    vocab.DCT_TITLE.value,
    vocab.DCT_IDENTIFIER.value,
    vocab.DCT_RIGHTS_HOLDER.value,
    vocab.DCT_ACCESS_RIGHTS.value,
)

DEFAULT_AUTHORITY_DOMAINS = ("viaf.org", "getty.edu", "wikidata.org")
DEFAULT_OPEN_SCHEMES = ("http", "https")


class CatalogExists(FileExistsError):
    pass


class NotACatalog(FileNotFoundError):
    pass


class ConfigError(InputError):
    pass


@dataclass
class Config:
    base_iri: str = "https://example.org/catalog/"
    agent: str = "https://example.org/catalog/agent/operator"
    authority_domains: tuple = DEFAULT_AUTHORITY_DOMAINS
    open_schemes: tuple = DEFAULT_OPEN_SCHEMES
    quality_threshold: float = 0.8
    required_fields: tuple = DEFAULT_REQUIRED_FIELDS
    endpoint_port: int = 8099
    scanned_polygons_min: int = ConstraintProfile.scanned_polygons_min
    scanned_polygons_max: int = ConstraintProfile.scanned_polygons_max
    texture_max_px: int = ConstraintProfile.texture_max_px
    sls_processed_max_bytes: int = ConstraintProfile.sls_processed_max_bytes

    def __post_init__(self):
        try:
            Iri(self.base_iri)
        except InvalidIri as exc:
            raise ConfigError(f"base_iri: {exc}") from None
        if not self.base_iri.endswith("/"):
            raise ConfigError("base_iri must end with '/'")
        try:
            Iri(self.agent)
        except InvalidIri as exc:
            raise ConfigError(f"agent: {exc}") from None
        # Written so that NaN, which compares false with everything, fails too.
        if not 0 <= self.quality_threshold <= 1:
            raise ConfigError(f"quality_threshold must be a number from 0 to 1, got {self.quality_threshold!r}")
        try:
            self.constraint_profile()
        except ValueError as exc:
            raise ConfigError(f"constraint limits: {exc}") from None

    def agent_iri(self) -> Iri:
        return Iri(self.agent)

    def constraint_profile(self) -> ConstraintProfile:
        return ConstraintProfile(
            scanned_polygons_min=self.scanned_polygons_min,
            scanned_polygons_max=self.scanned_polygons_max,
            texture_max_px=self.texture_max_px,
            sls_processed_max_bytes=self.sls_processed_max_bytes,
        )

    def to_text(self) -> str:
        lines = []
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = ",".join(value)
            lines.append(f"{spec.name}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Config":
        values = {}
        for line_no, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config line {line_no} is not key=value: {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in values:
                raise ConfigError(f"config line {line_no} gives key {key!r} a second time")
            values[key] = value.strip()
        kwargs = {}
        for spec in fields(cls):
            if spec.name not in values:
                continue
            raw = values.pop(spec.name)
            if spec.type in ("int", int):
                try:
                    kwargs[spec.name] = int(raw)
                except ValueError:
                    raise ConfigError(f"{spec.name} must be an integer, got {raw!r}") from None
            elif spec.type in ("float", float):
                try:
                    kwargs[spec.name] = float(raw)
                except ValueError:
                    raise ConfigError(f"{spec.name} must be a number, got {raw!r}") from None
            elif spec.type in ("tuple", tuple):
                kwargs[spec.name] = tuple(part.strip() for part in raw.split(",") if part.strip())
            else:
                kwargs[spec.name] = raw
        if values:
            unknown = ", ".join(sorted(values))
            raise ConfigError(f"unknown config key(s): {unknown}")
        return cls(**kwargs)


@dataclass
class IngestStats:
    created: int = 0
    modified: int = 0
    unchanged: int = 0

    def note(self, outcome: str):
        setattr(self, outcome, getattr(self, outcome) + 1)


def _literal(text: str, base_iri: str) -> Literal:
    return Literal(text)


def _iri(text: str, base_iri: str) -> Iri:
    return Iri(text)


def _date(text: str, base_iri: str) -> Literal:
    return Literal(text, datatype=vocab.XSD_DATE)


def _agent(text: str, base_iri: str) -> Iri:
    return workflow.minted_iri(base_iri, "agent", text)


# Bibliographic CSV columns: each one's predicate, the converter of its
# text to a term, ``(text, base IRI) -> term``, and whether a cell holds
# several values, separated by semicolons.
_BIB_COLUMNS = {
    "title": (vocab.DCT_TITLE, _literal, False),
    "type": (vocab.DCT_TYPE, _literal, False),
    "description": (vocab.DCT_DESCRIPTION, _literal, False),
    "creator": (vocab.DCT_CREATOR, _literal, False),
    "licence": (vocab.DCT_LICENSE, _iri, False),
    "record_licence": (vocab.RECORD_LICENCE, _iri, False),
    "rights_holder": (vocab.DCT_RIGHTS_HOLDER, _literal, False),
    "holding_institution": (vocab.HOLDING_INSTITUTION, _literal, False),
    "produced_by": (vocab.PRODUCED_BY, _agent, True),
    "access_rights": (vocab.DCT_ACCESS_RIGHTS, _literal, False),
    "access_url": (vocab.ACCESS_URL, _iri, False),
    "storage": (vocab.STORAGE_LOCATION, _literal, False),
    "backup": (vocab.BACKUP_LOCATION, _literal, False),
    "registered_in": (vocab.REGISTERED_IN, _iri, False),
    "schema": (vocab.DCT_CONFORMS_TO, _iri, False),
    "formats": (vocab.DCT_FORMAT, _literal, True),
    "same_as": (vocab.SAME_AS, _iri, True),
    "start": (vocab.INTERVAL_START, _date, False),
    "end": (vocab.INTERVAL_END, _date, False),
}

_BIB_REQUIRED = ("id", "title")


class BibliographicError(InputError):
    def __init__(self, row, message):
        self.row = row
        super().__init__(f"row {row}: {message}")


def _activity_order(phases: dict[Iri, PhaseRecord]) -> list[PhaseRecord]:
    """The phases, keyed by activity, in canonical order of their activities."""
    return [phases[activity] for activity in sorted(phases, key=serialize_term)]


def record_graph(entity: Iri) -> Iri:
    return Iri(entity.value + "/record")


def source_iri(path) -> Iri:
    """The primary source of what was read from an input file: the file's
    name, percent-encoded, as a ``file:///`` IRI."""
    return Iri("file:///" + percent_encode(Path(path).name))


class Catalog:
    """One catalog directory plus its in-memory stores.

    A single process owns the writer role; commands that only read must
    never call :meth:`save`.
    """

    def __init__(self, root: Path, config: Config, tracker: ProvenanceTracker):
        self.root = Path(root)
        self.config = config
        self.tracker = tracker
        self.store = tracker.store

    # -- directory plumbing ------------------------------------------------

    @classmethod
    def create(cls, root) -> "Catalog":
        root = Path(root)
        if root.exists() and any(root.iterdir()):
            raise CatalogExists(f"{root} already exists and is not empty")
        root.mkdir(parents=True, exist_ok=True)
        for sub in ("tables", "mappings", "bundles"):
            (root / sub).mkdir()
        catalog = cls(root, Config(), ProvenanceTracker(Store()))
        catalog.save()
        (root / "catalog.cfg").write_text(catalog.config.to_text(), encoding="utf-8")
        return catalog

    @classmethod
    def open(cls, root) -> "Catalog":
        root = Path(root)
        if not (root / "catalog.cfg").is_file():
            raise NotACatalog(f"{root} does not look like a catalog (no catalog.cfg)")
        with open_utf8(root / "catalog.cfg") as handle:
            config = Config.from_text(handle.read())
        # One IRI memo for every parse of this open: data.nq, prov.nq and
        # each snapshot's update query when it is read, so each distinct
        # IRI is built once.
        iris: dict[str, Iri] = {}
        # Parsing and the chain rebuild allocate many tuples and form no
        # reference cycles, so cyclic GC would only re-scan live objects.
        enabled = gc.isenabled()
        gc.disable()
        try:
            store = Store.load(root / "data.nq", iris)
            tracker = ProvenanceTracker.load(store, root / "prov.nq", iris)
        finally:
            if enabled:
                gc.enable()
        return cls(root, config, tracker)

    def save(self):
        """Replace prov.nq, then data.nq, each rewriting only the graphs this
        catalog changed since it was opened; a file whose bytes would not
        change is left in place.  Every literal of the store is
        also in some chain's update query, so one that cannot be written
        fails on prov.nq, before either file is replaced; a crash between
        the two leaves data.nq behind the chains, never ahead of them."""
        self.tracker.save(self.root / "prov.nq")
        self.store.save(self.root / "data.nq")

    def table_path(self, name: str) -> Path:
        return self.root / "tables" / f"{name}.csv"

    def load_table(self, name: str) -> Table:
        return load_table(self.table_path(name), name)

    # -- entity state updates ----------------------------------------------

    def _record(self, entity: Iri, delta: Delta, source: Iri | None) -> str:
        """Record one write of the entity as one snapshot: its creation when
        the entity has no chain yet, otherwise a modification.  Every
        catalog write goes through here; the tracker stamps its time."""
        if self.tracker.has_chain(entity):
            self.tracker.record_modification(entity, delta, self.config.agent_iri(), source=source)
            return "modified"
        self.tracker.record_creation(entity, delta.inserts, self.config.agent_iri(), source=source)
        return "created"

    def _apply_entity_state(self, entity: Iri, desired: set[Quad], owned_predicates, source: Iri | None) -> str:
        """Reconcile the entity's quads with the desired set.

        Only quads whose predicate the caller owns are eligible for
        deletion; statements added by other routes (mappings, manual
        edits) survive a re-ingest.  An entity without a chain is created,
        even with an empty desired set.
        """
        known = self.tracker.has_chain(entity)
        current = self.tracker.current_quads(entity) if known else set()
        owned = {q for q in current if q.predicate in owned_predicates}
        delta = Delta(deletes=owned - desired, inserts=desired - current)
        if known and delta.is_empty():
            return "unchanged"
        return self._record(entity, delta, source)

    # -- bibliographic ingest ------------------------------------------------

    def _bibliographic_state(self, row: dict, row_no: int) -> tuple[Iri, set[Quad]]:
        ident = row.get("id", "").strip()
        if not ident:
            raise BibliographicError(row_no, "empty id cell")
        kind = row.get("kind", "cho").strip() or "cho"
        if kind not in ("cho", "dcho"):
            raise BibliographicError(row_no, f"kind must be cho or dcho, got {kind!r}")
        base = self.config.base_iri
        entity = Iri(base + f"{kind}/" + percent_encode(ident))
        graph = record_graph(entity)
        rdf_class = vocab.PHYSICAL_OBJECT if kind == "cho" else vocab.DIGITAL_OBJECT
        quads = {
            Quad(entity, vocab.RDF_TYPE, rdf_class, graph),
            Quad(entity, vocab.DCT_IDENTIFIER, Literal(entity.value), graph),
        }
        counterpart = row.get("counterpart", "").strip()
        if counterpart:
            if kind != "dcho":
                raise BibliographicError(row_no, "only dcho rows may name a counterpart")
            quads.add(Quad(entity, vocab.COUNTERPART_OF, Iri(base + "cho/" + percent_encode(counterpart)), graph))
        for column, (predicate, convert, several) in _BIB_COLUMNS.items():
            cell = row.get(column, "").strip()
            if not cell:
                continue
            try:
                for part in workflow.split_cell(cell) if several else (cell,):
                    quads.add(Quad(entity, predicate, convert(part, base), graph))
            except InvalidIri as exc:
                raise BibliographicError(row_no, f"column {column!r}: {exc}") from None
        return entity, quads

    def ingest_bibliographic(self, table: Table, source: Iri) -> IngestStats:
        for column in _BIB_REQUIRED:
            if column not in table.header:
                raise MissingColumn(column)
        owned = {predicate for predicate, _, _ in _BIB_COLUMNS.values()}
        owned |= {vocab.RDF_TYPE, vocab.DCT_IDENTIFIER, vocab.COUNTERPART_OF}
        stats = IngestStats()
        for row_no, row in enumerate(table.row_maps(), start=1):
            entity, desired = self._bibliographic_state(row, row_no)
            stats.note(self._apply_entity_state(entity, desired, owned, source))
        return stats

    # -- process ingest --------------------------------------------------------

    def _activity_iri(self, record: PhaseRecord, occurrence: int) -> Iri:
        suffix = record.cho.value.rsplit("/", 1)[-1]
        return Iri(self.config.base_iri + f"activity/{suffix}/{record.kind.value}/{occurrence}")

    def register_phase(self, record: PhaseRecord, asset=None, upload=None, source: Iri | None = None,
                       occurrence: int | None = None, registered: dict | None = None) -> str:
        """Register one workflow phase (plus its output asset and upload, if any).

        Enforces the rank ordering against the phases already in the
        catalog.  Without an explicit occurrence index a new activity is
        minted; ingest passes indexes so re-running a table updates the
        same activities instead of multiplying them.  The object must be
        minted under the base IRI, since its activities and digital
        counterpart are named by its last path segment.

        ``registered`` maps each object to its phases by activity.  A
        caller that registers many phases (ingest) passes one dict, empty
        at first, to every call, so that an object's phases are read from
        the store once and each call then rebuilds only the phase it wrote.
        """
        if record.cho != workflow.object_iri(self.config.base_iri, "cho", record.cho):
            raise NoSuchObject(f"{record.cho} is not an object IRI under {self.config.base_iri}cho/")
        if registered is None:
            registered = {}
        phases = registered.get(record.cho)
        if phases is None:
            phases = registered[record.cho] = self._phases_by_activity(record.cho)
        existing = _activity_order(phases)
        workflow.check_phase_order(existing, record)
        if occurrence is None:
            occurrence = 1 + sum(1 for p in existing if p.kind == record.kind)
        activity = self._activity_iri(record, occurrence)

        dcho = workflow.object_iri(self.config.base_iri, "dcho", record.cho)
        if (asset is not None or upload is not None) and not self.tracker.has_chain(dcho):
            skeleton = {
                Quad(dcho, vocab.RDF_TYPE, vocab.DIGITAL_OBJECT, record_graph(dcho)),
                Quad(dcho, vocab.DCT_IDENTIFIER, Literal(dcho.value), record_graph(dcho)),
                Quad(dcho, vocab.COUNTERPART_OF, record.cho, record_graph(dcho)),
            }
            self._record(dcho, Delta(inserts=skeleton), source)

        values = vars(record) | (vars(upload) if upload is not None else {})
        desired = workflow.record_quads(workflow.ACTIVITY_RECORD, activity, record_graph(activity), values)
        outcome = self._apply_entity_state(activity, desired, workflow.ACTIVITY_RECORD.owned, source)

        if asset is not None:
            asset_state = workflow.record_quads(workflow.ASSET_RECORD, asset.id, record_graph(asset.id), vars(asset))
            asset_outcome = self._apply_entity_state(asset.id, asset_state, workflow.ASSET_RECORD.owned, source)
            if outcome == "unchanged" and asset_outcome != "unchanged":
                outcome = asset_outcome
        phases.pop(activity, None)
        phases.update(self._phases_by_activity(record.cho, [activity]))
        return outcome

    def ingest_process(self, table: Table, source: Iri) -> IngestStats:
        rows = parse_process_table(table, self.config.base_iri)
        stats = IngestStats()
        occurrences: dict[tuple, int] = {}
        registered: dict = {}
        for item in rows:
            key = (item.record.cho, item.record.kind)
            occurrences[key] = occurrences.get(key, 0) + 1
            outcome = self.register_phase(
                item.record, asset=item.asset, upload=item.upload, source=source, occurrence=occurrences[key],
                registered=registered,
            )
            stats.note(outcome)
        return stats

    def ingest_table_file(self, path, kind: str) -> tuple[str, IngestStats]:
        """Ingest the CSV, save the catalog, then copy the CSV under tables/;
        returns (table name, stats).  A failed ingest or save leaves tables/ as it was."""
        path = Path(path)
        table = load_table(path)
        source = source_iri(path)
        if kind == "bibliographic":
            stats = self.ingest_bibliographic(table, source)
        elif kind == "process":
            stats = self.ingest_process(table, source)
        else:
            raise ValueError(f"unknown table kind {kind!r}")
        self.save()
        stored = self.table_path(table.name)
        stored.parent.mkdir(exist_ok=True)
        if path.resolve() != stored.resolve():
            shutil.copyfile(path, stored)
        return table.name, stats

    # -- mapping execution ------------------------------------------------------

    def apply_mapping(self, document: MappingDocument, tables: list[Table], source: Iri) -> tuple[int, int]:
        """Insert mapping output with per-entity provenance.

        Returns (new quad count, entities that gained a snapshot).  Already
        present quads are collapsed by set semantics, so re-running a
        mapping is a no-op.
        """
        dataset = execute_mapping(document, tables)
        by_subject: dict[Iri, set[Quad]] = {}
        for quad in dataset:
            by_subject.setdefault(quad.subject, set()).add(quad)
        new_quads = 0
        entities = 0
        for subject in sorted(by_subject, key=lambda s: s.value):
            novel = {q for q in by_subject[subject] if q not in self.store}
            if not novel:
                continue
            self._record(subject, Delta(inserts=novel), source)
            new_quads += len(novel)
            entities += 1
        return new_quads, entities

    # -- typed views -------------------------------------------------------------

    @property
    def assets(self) -> list[AssetVersion]:
        return workflow.assets_from_store(self.store)

    def assets_for(self, dcho: Iri) -> list[AssetVersion]:
        derived = self.store.subjects(vocab.DERIVATIVE_OF, dcho)
        return [a for a in workflow.build_records(workflow.asset_record, self.store, derived) if a.dcho == dcho]

    @property
    def phases(self) -> list[PhaseRecord]:
        return workflow.phases_from_store(self.store)

    def phases_for(self, cho: Iri) -> list[PhaseRecord]:
        return _activity_order(self._phases_by_activity(cho))

    def _phases_by_activity(self, cho: Iri, activities=None) -> dict[Iri, PhaseRecord]:
        """The object's phases keyed by activity, as :meth:`phases_for` reads
        them, from the given activities or else every one concerning it."""
        if activities is None:
            activities = self.store.subjects(vocab.CONCERNS, cho)
        built = {activity: workflow.phase_record(self.store, activity) for activity in activities}
        return {activity: p for activity, p in built.items() if p is not None and p.cho == cho}

    @property
    def uploads(self) -> list[UploadRecord]:
        return workflow.uploads_from_store(self.store, self.config.base_iri)

    def objects(self) -> list[Iri]:
        """Every catalogued physical or digital object, once each, sorted by IRI."""
        found = set(self.store.subjects(vocab.RDF_TYPE, vocab.PHYSICAL_OBJECT))
        found.update(self.store.subjects(vocab.RDF_TYPE, vocab.DIGITAL_OBJECT))
        return sorted(found, key=lambda entity: entity.value)

    def validate_assets(self) -> list[Violation]:
        """Each asset checked against its object's acquisition technique."""
        profile = self.config.constraint_profile()
        assets = self.assets
        techniques = {}
        for dcho in {asset.dcho for asset in assets}:
            phases = self.phases_for(workflow.object_iri(self.config.base_iri, "cho", dcho))
            techniques[dcho] = min((p.technique for p in phases if p.technique), default=None)
        return [v for asset in assets for v in workflow.validate_asset(asset, profile, techniques[asset.dcho])]

    def storage_report(self):
        return workflow.storage_report(self.assets)

    def workflow_status(self, cho: Iri) -> dict:
        records = self.phases_for(cho)
        types = self.store.objects(cho, vocab.RDF_TYPE)
        if not records and vocab.PHYSICAL_OBJECT not in types and vocab.DIGITAL_OBJECT not in types:
            raise NoSuchObject(f"{cho} is not in the catalog")
        return workflow.status_vector(records)

    def export_bundle(self, dcho: Iri, out_dir):
        return workflow.export_bundle(self, dcho, out_dir)
