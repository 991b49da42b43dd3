"""Digitisation workflow: phases, 3D asset versions and their constraints.

Covers the eight-step acquisition and digitisation process (the metadata
and provenance creation steps share a rank and may run in either order),
the per-derivative asset inventory with the numeric limits enforced on
scanned models, storage accounting and the offline deposit bundle.
"""

from __future__ import annotations

import enum
import hashlib
import re
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path

from . import vocab
from .mapping import Table, percent_encode
from .rdf import Iri, Literal, Quad, serialize_nquads, serialize_term


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

# Rendering order; the two rank-6 phases are mutually unordered but need a
# stable place in reports.
PHASE_ORDER = (
    PhaseKind.ACQUISITION,
    PhaseKind.PROCESSING,
    PhaseKind.MODELLING,
    PhaseKind.OPTIMISATION,
    PhaseKind.EXPORT,
    PhaseKind.METADATA_CREATION,
    PhaseKind.PROVENANCE_CREATION,
    PhaseKind.UPLOAD,
)

ASSET_KINDS = ("raw_material", "processed_raw", "high_poly", "optimised", "documentation")

ABSENT = "absent"
IN_PROGRESS = "in_progress"
COMPLETE = "complete"


class MissingColumn(ValueError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"missing required column {name!r}")


class BadDate(ValueError):
    def __init__(self, row, cell):
        self.row = row
        self.cell = cell
        super().__init__(f"row {row}: bad date {cell!r}")


class UnknownPhase(ValueError):
    def __init__(self, row, value):
        self.row = row
        self.value = value
        super().__init__(f"row {row}: unknown phase {value!r}")


class ValidationError(ValueError):
    def __init__(self, row, message):
        self.row = row
        super().__init__(f"row {row}: {message}")


class OutOfOrder(ValueError):
    def __init__(self, kind: PhaseKind, missing: str):
        self.kind = kind
        self.missing = missing
        super().__init__(f"cannot register {kind.value}: no completed {missing} phase")


class NoSuchObject(LookupError):
    pass


class MissingLicence(ValueError):
    pass


class NoAssets(ValueError):
    pass


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


def _split_cell(cell: str) -> list[str]:
    return [part.strip() for part in cell.split(";") if part.strip()]


def agent_iri(base_iri: str, text: str) -> Iri:
    """Agents may be given as full IRIs or as names minted under the base IRI."""
    text = text.strip()
    if "://" in text:
        return Iri(text)
    return Iri(base_iri + "agent/" + percent_encode(text))


def asset_iri(base_iri: str, token: str) -> Iri:
    token = token.strip()
    if "://" in token:
        return Iri(token)
    return Iri(base_iri + "asset/" + percent_encode(token))


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
        agents = tuple(agent_iri(base_iri, a) for a in _split_cell(row["agents"]))
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
        inputs = tuple(asset_iri(base_iri, t) for t in _split_cell(row.get("inputs", "")))
        outputs = tuple(asset_iri(base_iri, t) for t in _split_cell(row.get("outputs", "")))
        try:
            record = PhaseRecord(
                cho=cho,
                kind=kind,
                unit=row["unit"].strip(),
                agents=agents,
                technique=technique,
                tools=tuple(_split_cell(row["tools"])),
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
                    size_bytes=_int_cell(row_no, row, "output_size_bytes"),
                    polygon_count=_opt_int_cell(row_no, row, "output_polygons"),
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
                upload = UploadRecord(dcho=dcho, scene_id=scene, target=row.get("target", "").strip() or "ATON", time=moment)
            except ValueError as exc:
                raise ValidationError(row_no, str(exc)) from None

        rows.append(ProcessRow(record=record, asset=asset, upload=upload))
    return rows


def _int_cell(row_no: int, row: dict, column: str) -> int:
    cell = row.get(column, "").strip()
    if not cell:
        return 0
    try:
        return int(cell)
    except ValueError:
        raise ValidationError(row_no, f"{column} must be an integer, got {cell!r}") from None


def _opt_int_cell(row_no: int, row: dict, column: str) -> int | None:
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


def _date_literal(value: date) -> Literal:
    return Literal(value.isoformat(), datatype=vocab.XSD_DATE)


def _int_literal(value: int) -> Literal:
    return Literal(str(value), datatype=vocab.XSD_INTEGER)


def phase_quads(record: PhaseRecord, activity: Iri, graph: Iri, upload: UploadRecord | None = None) -> set[Quad]:
    quads = {
        Quad(activity, vocab.RDF_TYPE, vocab.ACTIVITY, graph),
        Quad(activity, vocab.PHASE, Literal(record.kind.value), graph),
        Quad(activity, vocab.CONCERNS, record.cho, graph),
        Quad(activity, vocab.START_DATE, _date_literal(record.start), graph),
    }
    if record.unit:
        quads.add(Quad(activity, vocab.UNIT, Literal(record.unit), graph))
    if record.end is not None:
        quads.add(Quad(activity, vocab.END_DATE, _date_literal(record.end), graph))
    if record.technique:
        quads.add(Quad(activity, vocab.TECHNIQUE, Literal(record.technique), graph))
    for agent in record.agents:
        quads.add(Quad(activity, vocab.AGENT, agent, graph))
    for tool in record.tools:
        quads.add(Quad(activity, vocab.TOOL, Literal(tool), graph))
    for ref in record.inputs:
        quads.add(Quad(activity, vocab.INPUT, ref, graph))
    for ref in record.outputs:
        quads.add(Quad(activity, vocab.OUTPUT, ref, graph))
    if upload is not None:
        quads.add(Quad(activity, vocab.SCENE_ID, Literal(upload.scene_id), graph))
        quads.add(Quad(activity, vocab.UPLOAD_TARGET, Literal(upload.target), graph))
    return quads


def asset_quads(asset: AssetVersion, graph: Iri) -> set[Quad]:
    quads = {
        Quad(asset.id, vocab.RDF_TYPE, vocab.ASSET_VERSION, graph),
        Quad(asset.id, vocab.DERIVATIVE_OF, asset.dcho, graph),
        Quad(asset.id, vocab.VERSION_KIND, Literal(asset.kind), graph),
        Quad(asset.id, vocab.FILE_FORMAT, Literal(asset.format), graph),
        Quad(asset.id, vocab.SIZE_BYTES, _int_literal(asset.size_bytes), graph),
    }
    if asset.polygon_count is not None:
        quads.add(Quad(asset.id, vocab.POLYGON_COUNT, _int_literal(asset.polygon_count), graph))
    if asset.texture_width is not None:
        quads.add(Quad(asset.id, vocab.TEXTURE_WIDTH, _int_literal(asset.texture_width), graph))
    if asset.texture_height is not None:
        quads.add(Quad(asset.id, vocab.TEXTURE_HEIGHT, _int_literal(asset.texture_height), graph))
    if asset.checksum:
        quads.add(Quad(asset.id, vocab.CHECKSUM, Literal(asset.checksum), graph))
    return quads


def build_records(build, store, subjects, *args) -> list:
    """``build(store, subject, *args)`` for each subject in canonical term
    order, skipping the subjects it returns None for."""
    built = (build(store, subject, *args) for subject in sorted(subjects, key=serialize_term))
    return [record for record in built if record is not None]


def asset_record(store, subject) -> AssetVersion | None:
    """The asset version the subject describes; None if it is not typed as
    one or is malformed."""
    if vocab.ASSET_VERSION not in store.objects(subject, vocab.RDF_TYPE):
        return None
    dchos = store.objects(subject, vocab.DERIVATIVE_OF, Iri)
    kinds = store.objects(subject, vocab.VERSION_KIND, Literal)
    formats = store.objects(subject, vocab.FILE_FORMAT, Literal)
    sizes = store.objects(subject, vocab.SIZE_BYTES, Literal)
    if not (dchos and kinds and formats and sizes):
        return None
    checksums = store.objects(subject, vocab.CHECKSUM, Literal)
    try:
        return AssetVersion(
            id=subject,
            dcho=dchos[0],
            kind=kinds[0].lexical,
            format=formats[0].lexical,
            size_bytes=int(sizes[0].lexical),
            polygon_count=_first_int(store.objects(subject, vocab.POLYGON_COUNT, Literal)),
            texture_width=_first_int(store.objects(subject, vocab.TEXTURE_WIDTH, Literal)),
            texture_height=_first_int(store.objects(subject, vocab.TEXTURE_HEIGHT, Literal)),
            checksum=checksums[0].lexical if checksums else "",
        )
    except ValueError:
        return None


def assets_from_store(store) -> list[AssetVersion]:
    """Rebuild typed asset records from the store; malformed ones are skipped."""
    return build_records(asset_record, store, store.subjects(vocab.RDF_TYPE, vocab.ASSET_VERSION))


def _first_int(literals) -> int | None:
    if not literals:
        return None
    try:
        return int(literals[0].lexical)
    except ValueError:
        return None


def phase_record(store, subject) -> PhaseRecord | None:
    """The phase an activity records; None if the subject is not an activity
    or is malformed.  Agent and tool order is not preserved."""
    if vocab.ACTIVITY not in store.objects(subject, vocab.RDF_TYPE):
        return None
    phases = store.objects(subject, vocab.PHASE, Literal)
    chos = store.objects(subject, vocab.CONCERNS, Iri)
    starts = store.objects(subject, vocab.START_DATE, Literal)
    if not (phases and chos and starts):
        return None
    ends = store.objects(subject, vocab.END_DATE, Literal)
    units = store.objects(subject, vocab.UNIT, Literal)
    techniques = store.objects(subject, vocab.TECHNIQUE, Literal)
    try:
        return PhaseRecord(
            cho=chos[0],
            kind=PhaseKind(phases[0].lexical),
            unit=units[0].lexical if units else "",
            agents=tuple(store.objects(subject, vocab.AGENT, Iri)),
            technique=techniques[0].lexical if techniques else "",
            tools=tuple(tool.lexical for tool in store.objects(subject, vocab.TOOL, Literal)),
            start=date.fromisoformat(starts[0].lexical),
            end=date.fromisoformat(ends[0].lexical) if ends else None,
            inputs=tuple(store.objects(subject, vocab.INPUT, Iri)),
            outputs=tuple(store.objects(subject, vocab.OUTPUT, Iri)),
        )
    except ValueError:
        return None


def phases_from_store(store) -> list[PhaseRecord]:
    """Rebuild phase records from activity quads; malformed ones are skipped."""
    return build_records(phase_record, store, store.subjects(vocab.RDF_TYPE, vocab.ACTIVITY))


def upload_record(store, subject, base_iri: str) -> UploadRecord | None:
    """The upload an activity records through its scene id; None if there is
    none or it is malformed.  The upload time is the phase's end date, else
    its start date; an activity with neither is malformed."""
    scenes = store.objects(subject, vocab.SCENE_ID, Literal)
    chos = store.objects(subject, vocab.CONCERNS, Iri)
    days = store.objects(subject, vocab.END_DATE, Literal) or store.objects(subject, vocab.START_DATE, Literal)
    if not (scenes and chos and days):
        return None
    cho_prefix = base_iri + "cho/"
    if chos[0].value.startswith(cho_prefix):
        dcho = Iri(base_iri + "dcho/" + chos[0].value[len(cho_prefix):])
    else:
        dcho = Iri(chos[0].value.replace("/cho/", "/dcho/", 1))
    targets = store.objects(subject, vocab.UPLOAD_TARGET, Literal)
    try:
        moment = datetime.combine(date.fromisoformat(days[0].lexical), datetime.min.time(), tzinfo=timezone.utc)
        return UploadRecord(dcho=dcho, scene_id=scenes[0].lexical, target=targets[0].lexical if targets else "ATON", time=moment)
    except ValueError:
        return None


def uploads_from_store(store, base_iri: str) -> list[UploadRecord]:
    """Rebuild the uploads recorded by activities; malformed ones are skipped."""
    return build_records(upload_record, store, store.subjects(vocab.RDF_TYPE, vocab.ACTIVITY), base_iri)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def export_bundle(catalog, dcho: Iri, out_dir) -> dict[str, tuple[str, int]]:
    """Write an offline deposit bundle for one digital object.

    Layout: ``descriptor.txt`` (key=value), ``provenance.nq``, per-asset
    placeholder files under ``assets/`` carrying the recorded metadata and
    checksum, and ``manifest.txt`` with one path, sha-256 and byte-size
    line per file.  Returns {path: (digest, size)}.
    """
    assets = catalog.assets_for(dcho)
    if not assets:
        raise NoAssets(f"{dcho} has no recorded asset versions")
    store = catalog.store
    licences = store.objects(dcho, vocab.DCT_LICENSE, Iri)
    if not licences:
        raise MissingLicence(f"{dcho} has no licence recorded in its metadata")

    out = Path(out_dir)
    (out / "assets").mkdir(parents=True, exist_ok=True)
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

    for asset in assets:
        local = asset.id.value.rsplit("/", 1)[-1] or "asset"
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
        files[f"assets/{local}.txt"] = ("\n".join(body) + "\n").encode("utf-8")

    manifest: dict[str, tuple[str, int]] = {}
    for rel in sorted(files):
        data = files[rel]
        (out / rel).write_bytes(data)
        manifest[rel] = (_sha256(data), len(data))
    manifest_text = "".join(f"{rel}\t{digest}\t{size}\n" for rel, (digest, size) in sorted(manifest.items()))
    (out / "manifest.txt").write_text(manifest_text, encoding="utf-8")
    return manifest
