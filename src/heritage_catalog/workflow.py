"""Digitisation workflow: phases, 3D asset versions and their constraints.

Covers the eight-step acquisition and digitisation process (the metadata
and provenance creation steps share a rank and may run in either order),
the per-derivative asset inventory with the numeric limits enforced on
scanned models, storage accounting and the offline deposit bundle.

The field tables ``ACTIVITY_RECORD`` and ``ASSET_RECORD`` are the single
declaration of how activities and asset versions are stored as quads.
"""

from __future__ import annotations

import enum
import hashlib
import re
from dataclasses import dataclass, fields as dataclass_fields
from datetime import date, datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Callable

from . import vocab
from .mapping import Table, percent_encode
from .rdf import InputError, Iri, Literal, Quad, serialize_nquads, serialize_term


class PhaseKind(enum.Enum):
    ACQUISITION = "acquisition"
    PROCESSING = "processing"
    MODELLING = "modelling"
    OPTIMISATION = "optimisation"
    EXPORT = "export"
    METADATA_CREATION = "metadata_creation"
    PROVENANCE_CREATION = "provenance_creation"
    UPLOAD = "upload"

    @property
    def rank(self) -> int:
        return _RANKS[self]


_RANKS = {
    PhaseKind.ACQUISITION: 1,
    PhaseKind.PROCESSING: 2,
    PhaseKind.MODELLING: 3,
    PhaseKind.OPTIMISATION: 4,
    PhaseKind.EXPORT: 5,
    PhaseKind.METADATA_CREATION: 6,
    PhaseKind.PROVENANCE_CREATION: 6,
    PhaseKind.UPLOAD: 7,
}

# Rendering order is declaration order; the two rank-6 phases are mutually
# unordered but need a stable place in reports.
PHASE_ORDER = tuple(PhaseKind)

ASSET_KINDS = ("raw_material", "processed_raw", "high_poly", "optimised", "documentation")

DEFAULT_TARGET = "ATON"  # publication framework of uploads that name none

ABSENT = "absent"
IN_PROGRESS = "in_progress"
COMPLETE = "complete"


class MissingColumn(InputError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"missing required column {name!r}")


class BadDate(InputError):
    def __init__(self, row, cell):
        self.row = row
        self.cell = cell
        super().__init__(f"row {row}: bad date {cell!r}")


class UnknownPhase(InputError):
    def __init__(self, row, value):
        self.row = row
        self.value = value
        super().__init__(f"row {row}: unknown phase {value!r}")


class ValidationError(InputError):
    def __init__(self, row, message):
        self.row = row
        super().__init__(f"row {row}: {message}")


class OutOfOrder(InputError):
    def __init__(self, kind: PhaseKind, missing: str):
        self.kind = kind
        self.missing = missing
        super().__init__(f"cannot register {kind.value}: no completed {missing} phase")


class NoSuchObject(LookupError):
    pass


class MissingLicence(InputError):
    pass


class NoAssets(InputError):
    pass


class PlaceholderClash(InputError):
    pass


class OutputClash(FileExistsError):
    """An output path holds a file where a directory goes, or a directory
    where a file goes."""


@dataclass(frozen=True)
class PhaseRecord:
    cho: Iri
    kind: PhaseKind
    unit: str
    agents: tuple[Iri, ...]
    technique: str
    tools: tuple[str, ...]
    start: date
    end: date | None
    inputs: tuple[Iri, ...] = ()
    outputs: tuple[Iri, ...] = ()

    def __post_init__(self):
        if not self.agents:
            raise ValueError("a phase record needs at least one agent")
        if self.end is not None and self.end < self.start:
            raise ValueError(f"phase end {self.end} precedes start {self.start}")
        if self.kind == PhaseKind.ACQUISITION and not self.technique:
            raise ValueError("acquisition phases must record a technique")
        if self.kind != PhaseKind.ACQUISITION and self.technique:
            raise ValueError("only acquisition phases record a technique")


@dataclass(frozen=True)
class AssetVersion:
    id: Iri
    dcho: Iri
    kind: str
    format: str
    size_bytes: int
    polygon_count: int | None = None
    texture_width: int | None = None
    texture_height: int | None = None
    checksum: str = ""

    def __post_init__(self):
        if self.kind not in ASSET_KINDS:
            raise ValueError(f"unknown asset kind {self.kind!r}")
        object.__setattr__(self, "format", self.format.upper())
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        if self.kind == "optimised" and self.polygon_count is None:
            raise ValueError("optimised assets must record a polygon count")
        if self.kind == "documentation" and self.polygon_count is not None:
            raise ValueError("documentation assets carry no polygon count")
        for value, name in ((self.polygon_count, "polygon_count"), (self.texture_width, "texture_width"), (self.texture_height, "texture_height")):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")


_SCENE_RE = re.compile(r"^[A-Za-z0-9]+$")


@dataclass(frozen=True)
class UploadRecord:
    dcho: Iri
    scene_id: str
    target: str
    time: datetime

    def __post_init__(self):
        if not _SCENE_RE.match(self.scene_id):
            raise ValueError(f"scene id {self.scene_id!r} is not alphanumeric")


@dataclass(frozen=True)
class ConstraintProfile:
    """Numeric and format limits applied to recorded asset metadata.

    Polygon and byte limits bind scanned (SLS) processed models; the
    format lists bind each derivative kind.  Bounds are inclusive.
    """

    scanned_polygons_min: int = 500_000
    scanned_polygons_max: int = 1_000_000
    texture_max_px: int = 16_384
    sls_processed_max_bytes: int = 800 * 10**6
    optimised_formats: frozenset = frozenset({"GLTF", "GLB"})
    high_poly_formats: frozenset = frozenset({"OBJ", "FBX"})
    texture_formats: frozenset = frozenset({"PNG", "JPG"})
    raw_photogrammetry_formats: frozenset = frozenset({"RAW", "TIFF"})
    raw_sls_formats: frozenset = frozenset({"PLY"})

    def __post_init__(self):
        if self.scanned_polygons_min > self.scanned_polygons_max:
            raise ValueError("polygon minimum exceeds maximum")
        for limit in (self.scanned_polygons_min, self.scanned_polygons_max, self.texture_max_px, self.sls_processed_max_bytes):
            if limit <= 0:
                raise ValueError("limits must be positive")

    def acceptable_formats(self) -> frozenset:
        return (
            self.optimised_formats
            | self.high_poly_formats
            | self.texture_formats
            | self.raw_photogrammetry_formats
            | self.raw_sls_formats
        )


@dataclass(frozen=True)
class Violation:
    asset: Iri
    constraint: str
    observed: object
    limit: object

    def __str__(self):
        return f"{self.asset.value}: {self.constraint} violated (observed {self.observed}, limit {self.limit})"


def _is_sls(technique: str | None) -> bool:
    return bool(technique) and technique.strip().lower() in ("sls", "structured light scanning")


def validate_asset(asset: AssetVersion, profile: ConstraintProfile | None = None, technique: str | None = None) -> list[Violation]:
    """Check one asset against the profile; violations are data, not errors.

    The acquisition technique decides which raw-format list applies and
    whether the scanned-model polygon and size caps bind.
    """
    profile = profile or ConstraintProfile()
    violations = []

    format_lists = {
        "optimised": ("optimised_formats", profile.optimised_formats),
        "high_poly": ("high_poly_formats", profile.high_poly_formats),
        "processed_raw": ("high_poly_formats", profile.high_poly_formats),
    }
    if asset.kind == "raw_material":
        if _is_sls(technique):
            format_lists["raw_material"] = ("raw_sls_formats", profile.raw_sls_formats)
        elif technique:
            format_lists["raw_material"] = ("raw_photogrammetry_formats", profile.raw_photogrammetry_formats)
    rule = format_lists.get(asset.kind)
    if rule and asset.format not in rule[1]:
        violations.append(Violation(asset.id, rule[0], asset.format, "|".join(sorted(rule[1]))))

    if asset.kind == "processed_raw" and _is_sls(technique):
        if asset.polygon_count is not None:
            if asset.polygon_count < profile.scanned_polygons_min:
                violations.append(Violation(asset.id, "scanned_polygons_min", asset.polygon_count, profile.scanned_polygons_min))
            elif asset.polygon_count > profile.scanned_polygons_max:
                violations.append(Violation(asset.id, "scanned_polygons_max", asset.polygon_count, profile.scanned_polygons_max))
        if asset.size_bytes > profile.sls_processed_max_bytes:
            violations.append(Violation(asset.id, "sls_processed_max_bytes", asset.size_bytes, profile.sls_processed_max_bytes))

    for side in (asset.texture_width, asset.texture_height):
        if side is not None and side > profile.texture_max_px:
            violations.append(Violation(asset.id, "texture_max_px", side, profile.texture_max_px))

    return violations


def check_phase_order(existing: list[PhaseRecord], record: PhaseRecord):
    """Registration precondition: some completed phase of the previous rank.

    The two rank-6 phases satisfy each other's position, so either order
    is acceptable between them.
    """
    rank = record.kind.rank
    if rank == 1:
        return
    completed = {r.kind.rank for r in existing if r.cho == record.cho and r.end is not None}
    if rank - 1 not in completed:
        names = "/".join(k.value for k in PHASE_ORDER if k.rank == rank - 1)
        raise OutOfOrder(record.kind, names)


@dataclass
class StorageShare:
    bytes: int
    percent: float


def storage_report(assets) -> dict[str, StorageShare]:
    """Bytes and percentage per asset kind; zero-asset catalogs report zeros.

    Percentages are rounded to one decimal, so they sum to 100 within a
    0.2 tolerance when any bytes exist.
    """
    totals = {kind: 0 for kind in ASSET_KINDS}
    for asset in assets:
        totals[asset.kind] += asset.size_bytes
    grand = sum(totals.values())
    report = {}
    for kind in ASSET_KINDS:
        percent = 0.0 if grand == 0 else round(totals[kind] * 100.0 / grand, 1)
        report[kind] = StorageShare(bytes=totals[kind], percent=percent)
    return report


def status_vector(records) -> dict[PhaseKind, str]:
    """Per-phase status in canonical order: absent, in_progress or complete."""
    status = {kind: ABSENT for kind in PHASE_ORDER}
    for record in records:
        if record.end is not None:
            status[record.kind] = COMPLETE
        elif status[record.kind] == ABSENT:
            status[record.kind] = IN_PROGRESS
    return status


_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")

PROCESS_COLUMNS = ("object", "phase", "unit", "agents", "technique", "tools", "start", "end")


def _parse_date(row_no: int, cell: str) -> date:
    if not _DATE_RE.match(cell.strip()):
        raise BadDate(row_no, cell)
    try:
        return date.fromisoformat(cell.strip())
    except ValueError:
        raise BadDate(row_no, cell) from None


def split_cell(cell: str) -> list[str]:
    """The semicolon-separated values of a cell, stripped, blank ones dropped."""
    return [part.strip() for part in cell.split(";") if part.strip()]


def minted_iri(base_iri: str, kind: str, text: str) -> Iri:
    """Agents and assets may be given as full IRIs or as names minted under
    the base IRI's ``kind`` path."""
    text = text.strip()
    return Iri(text if "://" in text else base_iri + kind + "/" + percent_encode(text))


@dataclass
class ProcessRow:
    record: PhaseRecord
    asset: AssetVersion | None
    upload: UploadRecord | None


def parse_process_table(table: Table, base_iri: str) -> list[ProcessRow]:
    """Validate and type the process table, row by row.

    Beyond the required columns a row may register the single asset it
    produced (``outputs`` plus the ``output_*`` metadata columns) and, for
    upload rows, the scene id returned by the publication framework.
    """
    for column in PROCESS_COLUMNS:
        if column not in table.header:
            raise MissingColumn(column)
    rows = []
    for row_no, row in enumerate(table.row_maps(), start=1):
        obj = row["object"].strip()
        if not obj:
            raise ValidationError(row_no, "empty object id")
        try:
            kind = PhaseKind(row["phase"].strip())
        except ValueError:
            raise UnknownPhase(row_no, row["phase"]) from None
        agents = tuple(minted_iri(base_iri, "agent", a) for a in split_cell(row["agents"]))
        if not agents:
            raise ValidationError(row_no, "at least one agent is required")
        start = _parse_date(row_no, row["start"])
        end_cell = row["end"].strip()
        end = _parse_date(row_no, row["end"]) if end_cell else None
        if end is not None and end < start:
            raise BadDate(row_no, row["end"])
        technique = row["technique"].strip()
        cho = Iri(base_iri + "cho/" + percent_encode(obj))
        dcho = Iri(base_iri + "dcho/" + percent_encode(obj))
        inputs = tuple(minted_iri(base_iri, "asset", t) for t in split_cell(row.get("inputs", "")))
        outputs = tuple(minted_iri(base_iri, "asset", t) for t in split_cell(row.get("outputs", "")))
        try:
            record = PhaseRecord(
                cho=cho,
                kind=kind,
                unit=row["unit"].strip(),
                agents=agents,
                technique=technique,
                tools=tuple(split_cell(row["tools"])),
                start=start,
                end=end,
                inputs=inputs,
                outputs=outputs,
            )
        except ValueError as exc:
            raise ValidationError(row_no, str(exc)) from None

        asset = None
        if row.get("output_kind", "").strip():
            if len(outputs) != 1:
                raise ValidationError(row_no, "asset metadata needs exactly one outputs entry")
            try:
                asset = AssetVersion(
                    id=outputs[0],
                    dcho=dcho,
                    kind=row["output_kind"].strip(),
                    format=row.get("output_format", "").strip(),
                    size_bytes=_int_cell(row_no, row, "output_size_bytes") or 0,
                    polygon_count=_int_cell(row_no, row, "output_polygons"),
                    texture_width=_texture_side(row_no, row, 0),
                    texture_height=_texture_side(row_no, row, 1),
                    checksum=row.get("output_checksum", "").strip(),
                )
            except ValueError as exc:
                raise ValidationError(row_no, str(exc)) from None

        upload = None
        scene = row.get("scene_id", "").strip()
        if scene:
            if kind != PhaseKind.UPLOAD:
                raise ValidationError(row_no, "scene_id is only valid on upload rows")
            moment = datetime.combine(end or start, datetime.min.time(), tzinfo=timezone.utc)
            try:
                upload = UploadRecord(dcho=dcho, scene_id=scene, target=row.get("target", "").strip() or DEFAULT_TARGET, time=moment)
            except ValueError as exc:
                raise ValidationError(row_no, str(exc)) from None

        rows.append(ProcessRow(record=record, asset=asset, upload=upload))
    return rows


def _int_cell(row_no: int, row: dict, column: str) -> int | None:
    cell = row.get(column, "").strip()
    if not cell:
        return None
    try:
        return int(cell)
    except ValueError:
        raise ValidationError(row_no, f"{column} must be an integer, got {cell!r}") from None


def _texture_side(row_no: int, row: dict, index: int) -> int | None:
    cell = row.get("output_texture", "").strip()
    if not cell:
        return None
    parts = cell.lower().split("x")
    if len(parts) != 2:
        raise ValidationError(row_no, f"output_texture must look like 4096x4096, got {cell!r}")
    try:
        return int(parts[index])
    except ValueError:
        raise ValidationError(row_no, f"output_texture must look like 4096x4096, got {cell!r}") from None


@dataclass(frozen=True)
class Codec:
    """How a field value becomes an RDF term and back.  Objects that are not
    instances of ``kind`` are not values of the field; ``decode`` raises
    ValueError on a malformed value, or returns None to read it as absent.
    """

    kind: type
    encode: Callable
    decode: Callable


def _int_or_none(term: Literal) -> int | None:
    try:
        return int(term.lexical)
    except ValueError:
        return None


IRI = Codec(Iri, lambda value: value, lambda term: term)
STRING = Codec(Literal, Literal, lambda term: term.lexical)
INTEGER = Codec(Literal, lambda value: Literal(str(value), datatype=vocab.XSD_INTEGER), _int_or_none)
DATE = Codec(Literal, lambda value: Literal(value.isoformat(), datatype=vocab.XSD_DATE), lambda term: date.fromisoformat(term.lexical))
PHASE_KIND = Codec(Literal, lambda kind: Literal(kind.value), lambda term: PhaseKind(term.lexical))

ONE, OPTIONAL, MANY = "one", "optional", "many"


@dataclass(frozen=True)
class Field:
    """One record attribute stored under one predicate.  An OPTIONAL field at
    its ``absent`` value writes nothing and reads back as ``absent``; a MANY
    field holds a tuple, one quad per element."""

    attr: str
    predicate: Iri
    codec: Codec
    cardinality: str = ONE
    absent: object = None


@dataclass(frozen=True)
class RecordTable:
    rdf_class: Iri
    fields: tuple[Field, ...]

    @cached_property
    def owned(self) -> frozenset:
        """The type predicate and every field predicate: what a re-ingest of
        the record may delete."""
        return frozenset({vocab.RDF_TYPE, *(field.predicate for field in self.fields)})


# A digitisation activity: the phase record, plus the upload's own fields.
ACTIVITY_RECORD = RecordTable(vocab.ACTIVITY, (
    Field("kind", vocab.PHASE, PHASE_KIND),
    Field("cho", vocab.CONCERNS, IRI),
    Field("unit", vocab.UNIT, STRING, OPTIONAL, ""),
    Field("agents", vocab.AGENT, IRI, MANY),
    Field("technique", vocab.TECHNIQUE, STRING, OPTIONAL, ""),
    Field("tools", vocab.TOOL, STRING, MANY),
    Field("start", vocab.START_DATE, DATE),
    Field("end", vocab.END_DATE, DATE, OPTIONAL),
    Field("inputs", vocab.INPUT, IRI, MANY),
    Field("outputs", vocab.OUTPUT, IRI, MANY),
    Field("scene_id", vocab.SCENE_ID, STRING, OPTIONAL),
    Field("target", vocab.UPLOAD_TARGET, STRING, OPTIONAL),
))

# An asset version; its subject is the asset's id.
ASSET_RECORD = RecordTable(vocab.ASSET_VERSION, (
    Field("dcho", vocab.DERIVATIVE_OF, IRI),
    Field("kind", vocab.VERSION_KIND, STRING),
    Field("format", vocab.FILE_FORMAT, STRING),
    Field("size_bytes", vocab.SIZE_BYTES, INTEGER),
    Field("polygon_count", vocab.POLYGON_COUNT, INTEGER, OPTIONAL),
    Field("texture_width", vocab.TEXTURE_WIDTH, INTEGER, OPTIONAL),
    Field("texture_height", vocab.TEXTURE_HEIGHT, INTEGER, OPTIONAL),
    Field("checksum", vocab.CHECKSUM, STRING, OPTIONAL, ""),
))


def record_quads(table: RecordTable, subject: Iri, graph: Iri, values: dict) -> set[Quad]:
    """The type quad plus the quads of every field value in ``values``
    (attribute -> value); a missing attribute counts as absent."""
    quads = {Quad(subject, vocab.RDF_TYPE, table.rdf_class, graph)}
    for field in table.fields:
        value = values.get(field.attr, field.absent)
        if field.cardinality != MANY:
            value = () if value == field.absent else (value,)
        quads.update(Quad(subject, field.predicate, field.codec.encode(item), graph) for item in value)
    return quads


def record_values(table: RecordTable, store, subject) -> dict | None:
    """The field values (attribute -> value) the subject's quads hold, each
    field read through :meth:`Store.objects`; None if the subject is not
    typed as the table's class, a ONE field has no value or a value is
    malformed.  A field with several values reads the first that
    :meth:`Store.objects` lists."""
    if table.rdf_class not in store.objects(subject, vocab.RDF_TYPE):
        return None
    values = {}
    try:
        for field in table.fields:
            terms = store.objects(subject, field.predicate, field.codec.kind)
            if field.cardinality == MANY:
                values[field.attr] = tuple(map(field.codec.decode, terms))
                continue
            value = field.codec.decode(terms[0]) if terms else None
            if value is None:
                if field.cardinality == ONE:
                    return None
                value = field.absent
            values[field.attr] = value
    except ValueError:
        return None
    return values


def _construct(record_type, values: dict | None):
    """The record built from the values of its own attributes; None if there
    are none or they break the record's invariants."""
    if values is None:
        return None
    try:
        return record_type(**{spec.name: values[spec.name] for spec in dataclass_fields(record_type)})
    except ValueError:
        return None


def object_iri(base_iri: str, kind: str, other: Iri) -> Iri:
    """The ``kind`` ("cho" or "dcho") object sharing ``other``'s object id,
    its last path segment, minted under the base IRI: the one way a physical
    object and its digital counterpart name each other."""
    return Iri(base_iri + kind + "/" + other.value.rsplit("/", 1)[-1])


def build_records(build, store, subjects, *args) -> list:
    """``build(store, subject, *args)`` for each subject in canonical term
    order, skipping the subjects it returns None for."""
    built = (build(store, subject, *args) for subject in sorted(subjects, key=serialize_term))
    return [record for record in built if record is not None]


def asset_record(store, subject) -> AssetVersion | None:
    """The asset version the subject describes; None if it is not typed as
    one or is malformed."""
    values = record_values(ASSET_RECORD, store, subject)
    if values is not None:
        values["id"] = subject
    return _construct(AssetVersion, values)


def assets_from_store(store) -> list[AssetVersion]:
    """Rebuild typed asset records from the store; malformed ones are skipped."""
    return build_records(asset_record, store, store.subjects(vocab.RDF_TYPE, vocab.ASSET_VERSION))


def phase_record(store, subject) -> PhaseRecord | None:
    """The phase an activity records; None if the subject is not an activity
    or is malformed.  Agent, tool, input and output order is not preserved."""
    return _construct(PhaseRecord, record_values(ACTIVITY_RECORD, store, subject))


def phases_from_store(store) -> list[PhaseRecord]:
    """Rebuild phase records from activity quads; malformed ones are skipped."""
    return build_records(phase_record, store, store.subjects(vocab.RDF_TYPE, vocab.ACTIVITY))


def upload_record(store, subject, base_iri: str) -> UploadRecord | None:
    """The upload an activity records through its scene id; None if there is
    none or the activity is malformed.  It goes to the digital counterpart
    of the activity's object, at the phase's end date, else its start date."""
    values = record_values(ACTIVITY_RECORD, store, subject)
    if values is None or values["scene_id"] is None:
        return None
    moment = datetime.combine(values["end"] or values["start"], datetime.min.time(), tzinfo=timezone.utc)
    target = DEFAULT_TARGET if values["target"] is None else values["target"]
    try:
        return UploadRecord(dcho=object_iri(base_iri, "dcho", values["cho"]), scene_id=values["scene_id"], target=target, time=moment)
    except ValueError:
        return None


def uploads_from_store(store, base_iri: str) -> list[UploadRecord]:
    """Rebuild the uploads recorded by activities; malformed ones are skipped."""
    return build_records(upload_record, store, store.subjects(vocab.RDF_TYPE, vocab.ACTIVITY), base_iri)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_outputs(out: Path, files: list[str]):
    """Raise :class:`OutputClash` naming the first path in the way of a
    bundle written to ``out``: an existing one that is not a directory on
    the way to ``out/assets``, or a directory at one of ``files``."""
    for directory in (*reversed(out.parents), out, out / "assets"):
        if directory.exists() and not directory.is_dir():
            raise OutputClash(f"cannot write the bundle: {directory} is not a directory")
    for rel in files:
        if (out / rel).is_dir():
            raise OutputClash(f"cannot write the bundle: {out / rel} is a directory")


def export_bundle(catalog, dcho: Iri, out_dir) -> dict[str, tuple[str, int]]:
    """Write an offline deposit bundle for one digital object.

    Layout: ``descriptor.txt`` (key=value), ``provenance.nq``, per-asset
    placeholder files under ``assets/`` carrying the recorded metadata and
    checksum, and ``manifest.txt`` with one path, sha-256 and byte-size
    line per file.  Returns {path: (digest, size)}.  Every output path is
    checked before the first write, so a bundle that cannot be written
    (:class:`OutputClash`) writes nothing.
    """
    assets = catalog.assets_for(dcho)
    if not assets:
        raise NoAssets(f"{dcho} has no recorded asset versions")
    store = catalog.store
    licences = store.objects(dcho, vocab.DCT_LICENSE, Iri)
    if not licences:
        raise MissingLicence(f"{dcho} has no licence recorded in its metadata")
    # Each placeholder is named after the last segment of its asset's IRI.
    placeholders: dict[str, AssetVersion] = {}
    for asset in assets:
        rel = f"assets/{asset.id.value.rsplit('/', 1)[-1] or 'asset'}.txt"
        if rel in placeholders:
            raise PlaceholderClash(f"assets {placeholders[rel].id} and {asset.id} would both be written to {rel}")
        placeholders[rel] = asset

    files: dict[str, bytes] = {}

    lines = []
    for title in store.objects(dcho, vocab.DCT_TITLE, Literal):
        lines.append(f"title={title.lexical}")
    lines.append(f"identifier={dcho.value}")
    for ident in store.objects(dcho, vocab.DCT_IDENTIFIER, Literal):
        if ident.lexical != dcho.value:
            lines.append(f"identifier={ident.lexical}")
    for agent in store.objects(dcho, vocab.PRODUCED_BY, Iri):
        lines.append(f"agent={agent.value}")
    lines.append(f"licence={licences[0].value}")
    for key, predicate in (("created", vocab.INTERVAL_START), ("modified", vocab.INTERVAL_END)):
        for value in store.objects(dcho, predicate, Literal):
            lines.append(f"{key}={value.lexical}")
    files["descriptor.txt"] = ("\n".join(lines) + "\n").encode("utf-8")

    files["provenance.nq"] = serialize_nquads(catalog.tracker.export_prov_graph(dcho)).encode("utf-8")

    for rel, asset in placeholders.items():
        body = [
            f"id={asset.id.value}",
            f"kind={asset.kind}",
            f"format={asset.format}",
            f"size_bytes={asset.size_bytes}",
        ]
        if asset.polygon_count is not None:
            body.append(f"polygon_count={asset.polygon_count}")
        if asset.texture_width is not None and asset.texture_height is not None:
            body.append(f"texture={asset.texture_width}x{asset.texture_height}")
        body.append(f"checksum={asset.checksum}")
        files[rel] = ("\n".join(body) + "\n").encode("utf-8")

    out = Path(out_dir)
    _check_outputs(out, [*files, "manifest.txt"])
    (out / "assets").mkdir(parents=True, exist_ok=True)
    manifest: dict[str, tuple[str, int]] = {}
    for rel in sorted(files):
        data = files[rel]
        (out / rel).write_bytes(data)
        manifest[rel] = (_sha256(data), len(data))
    manifest_text = "".join(f"{rel}\t{digest}\t{size}\n" for rel, (digest, size) in sorted(manifest.items()))
    (out / "manifest.txt").write_text(manifest_text, encoding="utf-8")
    return manifest
