"""The activity, asset-version and bibliographic field tables: round trips,
malformed statements and cells, the predicates a re-ingest owns, and the
README's property table."""

import re
from datetime import date, datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, gold_catalog  # noqa: F401
from heritage_catalog import vocab, workflow
from heritage_catalog.catalog import BibliographicError, Catalog
from heritage_catalog.mapping import Table, load_table
from heritage_catalog.rdf import Iri, Literal, Quad, serialize_term
from heritage_catalog.store import Store
from heritage_catalog.workflow import ASSET_KINDS, AssetVersion, PhaseKind, PhaseRecord, UploadRecord

BASE = "https://example.org/catalog/"
README = Path(__file__).resolve().parent.parent / "README.md"

_ids = st.from_regex(r"\A[A-Za-z0-9]{1,6}\Z")
_iris = _ids.map(lambda ident: Iri(BASE + "x/" + ident))


def _sorted_tuple(items) -> tuple:
    return tuple(sorted(items, key=lambda item: getattr(item, "value", item)))


@st.composite
def phase_records(draw) -> PhaseRecord:
    kind = draw(st.sampled_from(PhaseKind))
    start = draw(st.dates())
    end = draw(st.none() | st.dates(min_value=start))
    return PhaseRecord(
        cho=Iri(BASE + "cho/" + draw(_ids)),
        kind=kind,
        unit=draw(st.text(max_size=6)),
        agents=tuple(draw(st.lists(_iris, min_size=1, max_size=3, unique=True))),
        technique=draw(st.text(min_size=1, max_size=6)) if kind == PhaseKind.ACQUISITION else "",
        tools=tuple(draw(st.lists(st.text(max_size=6), max_size=3, unique=True))),
        start=start,
        end=end,
        inputs=tuple(draw(st.lists(_iris, max_size=3, unique=True))),
        outputs=tuple(draw(st.lists(_iris, max_size=3, unique=True))),
    )


@st.composite
def asset_versions(draw) -> AssetVersion:
    kind = draw(st.sampled_from(ASSET_KINDS))
    positive = st.integers(min_value=1, max_value=10**9)
    polygons = None if kind == "documentation" else draw(positive if kind == "optimised" else st.none() | positive)
    return AssetVersion(
        id=Iri(BASE + "asset/" + draw(_ids)),
        dcho=Iri(BASE + "dcho/" + draw(_ids)),
        kind=kind,
        format=draw(st.from_regex(r"\A[A-Za-z0-9]{0,5}\Z")),
        size_bytes=draw(st.integers(min_value=0, max_value=10**12)),
        polygon_count=polygons,
        texture_width=draw(st.none() | positive),
        texture_height=draw(st.none() | positive),
        checksum=draw(st.text(max_size=8)),
    )


def _unordered(record: PhaseRecord) -> PhaseRecord:
    """The record with its agents, tools, inputs and outputs sorted: the
    store keeps no order among a property's values."""
    return PhaseRecord(
        **{**vars(record), **{name: _sorted_tuple(getattr(record, name)) for name in ("agents", "tools", "inputs", "outputs")}}
    )


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(phase_records(), st.none() | st.tuples(_ids.filter(str.isalnum), st.text(max_size=6)))
    def test_phase_and_upload(self, record, upload_fields):
        activity = Iri(BASE + "activity/1")
        upload = None
        if upload_fields is not None:
            moment = datetime.combine(record.end or record.start, datetime.min.time(), tzinfo=timezone.utc)
            dcho = workflow.object_iri(BASE, "dcho", record.cho)
            upload = UploadRecord(dcho=dcho, scene_id=upload_fields[0], target=upload_fields[1], time=moment)
        values = vars(record) | (vars(upload) if upload else {})
        store = Store(workflow.record_quads(workflow.ACTIVITY_RECORD, activity, Iri(BASE + "g"), values))
        assert workflow.phase_record(store, activity) == _unordered(record)
        assert workflow.upload_record(store, activity, BASE) == upload

    @settings(max_examples=200, deadline=None)
    @given(asset_versions())
    def test_asset(self, asset):
        store = Store(workflow.record_quads(workflow.ASSET_RECORD, asset.id, Iri(BASE + "g"), vars(asset)))
        assert workflow.asset_record(store, asset.id) == asset


# -- malformed statements --------------------------------------------------------
#
# Each case edits the statements of one well-formed activity or asset version
# and names what the typed views then read.  The outcomes are the readers'
# behaviour before the field tables replaced them.

ACT = Iri(BASE + "activity/7/acquisition/1")
CHO = Iri(BASE + "cho/7")
ASSET = Iri(BASE + "asset/proc-7")
AGENT = Iri(BASE + "agent/Anna")
SKIP = "skipped"


def _lit(text, datatype=None):
    return Literal(text, datatype=datatype)


def _activity_quads() -> dict:
    return {
        vocab.RDF_TYPE: vocab.ACTIVITY,
        vocab.PHASE: _lit("acquisition"),
        vocab.CONCERNS: CHO,
        vocab.UNIT: _lit("Lab"),
        vocab.AGENT: AGENT,
        vocab.TECHNIQUE: _lit("SLS"),
        vocab.TOOL: _lit("Scanner"),
        vocab.START_DATE: _lit("2023-01-01", vocab.XSD_DATE),
        vocab.END_DATE: _lit("2023-01-05", vocab.XSD_DATE),
        vocab.SCENE_ID: _lit("SCN7"),
        vocab.UPLOAD_TARGET: _lit("Other"),
    }


def _asset_quads() -> dict:
    return {
        vocab.RDF_TYPE: vocab.ASSET_VERSION,
        vocab.DERIVATIVE_OF: Iri(BASE + "dcho/7"),
        vocab.VERSION_KIND: _lit("processed_raw"),
        vocab.FILE_FORMAT: _lit("obj"),
        vocab.SIZE_BYTES: _lit("100", vocab.XSD_INTEGER),
        vocab.POLYGON_COUNT: _lit("600000", vocab.XSD_INTEGER),
        vocab.TEXTURE_WIDTH: _lit("4096", vocab.XSD_INTEGER),
        vocab.TEXTURE_HEIGHT: _lit("2048", vocab.XSD_INTEGER),
        vocab.CHECKSUM: _lit("abc"),
    }


def _store(subject, statements: dict) -> Store:
    return Store({Quad(subject, p, o, Iri(subject.value + "/record")) for p, o in statements.items() if o is not None})


def _read_phase(edits):
    record = workflow.phase_record(_store(ACT, {**_activity_quads(), **edits}), ACT)
    return SKIP if record is None else record


def _read_upload(edits):
    upload = workflow.upload_record(_store(ACT, {**_activity_quads(), **edits}), ACT, BASE)
    return SKIP if upload is None else (upload.dcho.value, upload.scene_id, upload.target, upload.time.date())


def _read_asset(edits):
    asset = workflow.asset_record(_store(ASSET, {**_asset_quads(), **edits}), ASSET)
    return SKIP if asset is None else asset


GARBAGE = _lit("not a value")

PHASE_CASES = [
    ("missing type", {vocab.RDF_TYPE: None}, SKIP),
    ("wrong type", {vocab.RDF_TYPE: vocab.ASSET_VERSION}, SKIP),
    ("missing phase", {vocab.PHASE: None}, SKIP),
    ("garbage phase", {vocab.PHASE: GARBAGE}, SKIP),
    ("missing concerns", {vocab.CONCERNS: None}, SKIP),
    ("literal concerns", {vocab.CONCERNS: _lit(CHO.value)}, SKIP),
    ("missing start", {vocab.START_DATE: None}, SKIP),
    ("garbage start", {vocab.START_DATE: _lit("01/02/2023", vocab.XSD_DATE)}, SKIP),
    ("garbage end", {vocab.END_DATE: _lit("soon", vocab.XSD_DATE)}, SKIP),
    ("end before start", {vocab.END_DATE: _lit("2022-12-31", vocab.XSD_DATE)}, SKIP),
    ("missing agent", {vocab.AGENT: None}, SKIP),
    ("literal agent", {vocab.AGENT: _lit(AGENT.value)}, SKIP),
    ("missing technique", {vocab.TECHNIQUE: None}, SKIP),
    ("IRI end", {vocab.END_DATE: Iri(BASE + "day")}, ("end", None)),
    ("IRI unit", {vocab.UNIT: Iri(BASE + "unit")}, ("unit", "")),
    ("IRI tool", {vocab.TOOL: Iri(BASE + "tool")}, ("tools", ())),
    ("IRI technique", {vocab.TECHNIQUE: Iri(BASE + "sls")}, SKIP),
    ("untyped start", {vocab.START_DATE: _lit("2023-01-01")}, ("start", date(2023, 1, 1))),
]

UPLOAD_CASES = [
    ("well formed", {}, (BASE + "dcho/7", "SCN7", "Other", date(2023, 1, 5))),
    ("missing scene", {vocab.SCENE_ID: None}, SKIP),
    ("IRI scene", {vocab.SCENE_ID: Iri(BASE + "scene")}, SKIP),
    ("non-alphanumeric scene", {vocab.SCENE_ID: _lit("SCN 7")}, SKIP),
    ("missing target", {vocab.UPLOAD_TARGET: None}, (BASE + "dcho/7", "SCN7", "ATON", date(2023, 1, 5))),
    ("IRI target", {vocab.UPLOAD_TARGET: Iri(BASE + "aton")}, (BASE + "dcho/7", "SCN7", "ATON", date(2023, 1, 5))),
    ("empty target", {vocab.UPLOAD_TARGET: _lit("")}, (BASE + "dcho/7", "SCN7", "", date(2023, 1, 5))),
    ("open ended", {vocab.END_DATE: None}, (BASE + "dcho/7", "SCN7", "Other", date(2023, 1, 1))),
    ("garbage end", {vocab.END_DATE: GARBAGE}, SKIP),
    ("missing concerns", {vocab.CONCERNS: None}, SKIP),
    ("missing start", {vocab.START_DATE: None, vocab.END_DATE: None}, SKIP),
]

ASSET_CASES = [
    ("missing type", {vocab.RDF_TYPE: None}, SKIP),
    ("missing derivativeOf", {vocab.DERIVATIVE_OF: None}, SKIP),
    ("literal derivativeOf", {vocab.DERIVATIVE_OF: _lit(BASE + "dcho/7")}, SKIP),
    ("missing kind", {vocab.VERSION_KIND: None}, SKIP),
    ("garbage kind", {vocab.VERSION_KIND: GARBAGE}, SKIP),
    ("IRI format", {vocab.FILE_FORMAT: Iri(BASE + "obj")}, SKIP),
    ("missing size", {vocab.SIZE_BYTES: None}, SKIP),
    ("garbage size", {vocab.SIZE_BYTES: GARBAGE}, SKIP),
    ("negative size", {vocab.SIZE_BYTES: _lit("-1", vocab.XSD_INTEGER)}, SKIP),
    ("garbage polygonCount", {vocab.POLYGON_COUNT: GARBAGE}, ("polygon_count", None)),
    ("IRI polygonCount", {vocab.POLYGON_COUNT: Iri(BASE + "n")}, ("polygon_count", None)),
    ("zero polygonCount", {vocab.POLYGON_COUNT: _lit("0", vocab.XSD_INTEGER)}, SKIP),
    ("garbage textureWidth", {vocab.TEXTURE_WIDTH: _lit("4k", vocab.XSD_INTEGER)}, ("texture_width", None)),
    ("garbage textureHeight", {vocab.TEXTURE_HEIGHT: GARBAGE}, ("texture_height", None)),
    ("IRI checksum", {vocab.CHECKSUM: Iri(BASE + "sum")}, ("checksum", "")),
    ("lower-case format", {}, ("format", "OBJ")),
]


def _check(outcome, expected):
    if expected == SKIP:
        assert outcome == SKIP
    else:
        assert outcome != SKIP
        name, value = expected
        assert getattr(outcome, name) == value


@pytest.mark.parametrize("edits, expected", [c[1:] for c in PHASE_CASES], ids=[c[0] for c in PHASE_CASES])
def test_malformed_activity(edits, expected):
    _check(_read_phase(edits), expected)


@pytest.mark.parametrize("edits, expected", [c[1:] for c in UPLOAD_CASES], ids=[c[0] for c in UPLOAD_CASES])
def test_malformed_upload(edits, expected):
    assert _read_upload(edits) == expected


@pytest.mark.parametrize("edits, expected", [c[1:] for c in ASSET_CASES], ids=[c[0] for c in ASSET_CASES])
def test_malformed_asset(edits, expected):
    _check(_read_asset(edits), expected)


def test_well_formed_statements_read_whole():
    assert _read_phase({}) == PhaseRecord(
        cho=CHO, kind=PhaseKind.ACQUISITION, unit="Lab", agents=(AGENT,), technique="SLS", tools=("Scanner",),
        start=date(2023, 1, 1), end=date(2023, 1, 5),
    )
    assert _read_asset({}) == AssetVersion(
        id=ASSET, dcho=Iri(BASE + "dcho/7"), kind="processed_raw", format="OBJ", size_bytes=100,
        polygon_count=600_000, texture_width=4096, texture_height=2048, checksum="abc",
    )


def test_upload_needs_a_readable_activity():
    """An upload is read from an activity that reads as a phase record's
    fields; a scene id on an activity with a garbage phase is not an upload."""
    assert _read_upload({vocab.PHASE: GARBAGE}) == SKIP


# -- owned predicates ------------------------------------------------------------


def test_ingest_owns_exactly_the_table_predicates(tmp_path, monkeypatch):
    owned_sets = []
    original = Catalog._apply_entity_state

    def spy(self, entity, desired, owned, source):
        owned_sets.append((entity, frozenset(owned), desired))
        return original(self, entity, desired, owned, source)

    monkeypatch.setattr(Catalog, "_apply_entity_state", spy)
    catalog = Catalog.create(tmp_path / "catalog")
    catalog.ingest_process(load_table(DATA_DIR / "gold_process.csv"), Iri("file:///process.csv"))
    tables = {vocab.ACTIVITY: workflow.ACTIVITY_RECORD, vocab.ASSET_VERSION: workflow.ASSET_RECORD}
    seen = set()
    for entity, owned, desired in owned_sets:
        (rdf_class,) = {q.object for q in desired if q.predicate == vocab.RDF_TYPE}
        table = tables[rdf_class]
        assert owned == {vocab.RDF_TYPE} | {field.predicate for field in table.fields}
        assert {q.predicate for q in desired} <= owned
        seen.add(rdf_class)
    assert seen == set(tables)


def test_every_field_predicate_is_distinct():
    for table in (workflow.ACTIVITY_RECORD, workflow.ASSET_RECORD):
        predicates = [field.predicate for field in table.fields]
        assert len(set(predicates)) == len(predicates)
        assert vocab.RDF_TYPE not in predicates


# -- bibliographic cells ---------------------------------------------------------

# One row per cell converter and per list column: the column, its
# predicate, the cell, and the objects the ingested row states (serialized,
# in ``Store.objects`` order) or the message of the error it raises.
BIBLIOGRAPHIC_CELLS = [
    pytest.param("title", vocab.DCT_TITLE, '  Anfora a figure nere  ', ('"Anfora a figure nere"',), id="literal"),
    pytest.param("title", vocab.DCT_TITLE, 'a;b', ('"a;b"',), id="literal-keeps-semicolons"),
    pytest.param("rights_holder", vocab.DCT_RIGHTS_HOLDER, 'Museo "Civico"', ('"Museo \\"Civico\\""',), id="literal-quotes"),
    pytest.param("licence", vocab.DCT_LICENSE, 'https://creativecommons.org/licenses/by/4.0/', ('<https://creativecommons.org/licenses/by/4.0/>',), id="iri"),
    pytest.param("licence", vocab.DCT_LICENSE, 'http://a.org/x;http://b.org/y', ('<http://a.org/x;http://b.org/y>',), id="iri-keeps-semicolons"),
    pytest.param("record_licence", vocab.RECORD_LICENCE, 'not an iri', "row 1: column 'record_licence': relative reference (no scheme) in 'not an iri'", id="invalid-iri"),
    pytest.param("access_url", vocab.ACCESS_URL, 'viewer/scene', "row 1: column 'access_url': relative reference (no scheme) in 'viewer/scene'", id="relative-iri"),
    pytest.param("start", vocab.INTERVAL_START, '2023-01-10', ('"2023-01-10"^^<http://www.w3.org/2001/XMLSchema#date>',), id="date"),
    pytest.param("end", vocab.INTERVAL_END, '24/01/2023', ('"24/01/2023"^^<http://www.w3.org/2001/XMLSchema#date>',), id="date-kept-as-written"),
    pytest.param("produced_by", vocab.PRODUCED_BY, 'Anna Rossi', ('<https://example.org/catalog/agent/Anna%20Rossi>',), id="agent-minted"),
    pytest.param("produced_by", vocab.PRODUCED_BY, 'Anna Rossi; https://viaf.org/viaf/123 ;; ;Marco Bianchi;', ('<https://example.org/catalog/agent/Anna%20Rossi>', '<https://example.org/catalog/agent/Marco%20Bianchi>', '<https://viaf.org/viaf/123>'), id="agent-list-blank-parts"),
    pytest.param("produced_by", vocab.PRODUCED_BY, 'Anna Rossi;http://bad agent', "row 1: column 'produced_by': space not allowed in IRI 'http://bad agent'", id="agent-list-invalid-iri"),
    pytest.param("formats", vocab.DCT_FORMAT, 'model/gltf-binary; application/n-quads ;;', ('"application/n-quads"', '"model/gltf-binary"'), id="literal-list-blank-parts"),
    pytest.param("formats", vocab.DCT_FORMAT, 'text/csv;text/csv', ('"text/csv"',), id="literal-list-repeat"),
    pytest.param("same_as", vocab.SAME_AS, 'http://www.wikidata.org/entity/Q39614; ;https://viaf.org/viaf/1', ('<http://www.wikidata.org/entity/Q39614>', '<https://viaf.org/viaf/1>'), id="iri-list-blank-parts"),
    pytest.param("same_as", vocab.SAME_AS, 'http://www.wikidata.org/entity/Q39614;not an iri', "row 1: column 'same_as': relative reference (no scheme) in 'not an iri'", id="iri-list-invalid-iri"),
    pytest.param("same_as", vocab.SAME_AS, ' ; ; ', (), id="list-of-blanks"),
    pytest.param("storage", vocab.STORAGE_LOCATION, '   ', (), id="blank-cell"),
]


def _ingest_bibliographic(root, rows: list[dict]) -> Catalog:
    catalog = Catalog.create(root)
    table = Table("bib", tuple(rows[0]), tuple(tuple(row.values()) for row in rows))
    catalog.ingest_bibliographic(table, Iri("file:///bib.csv"))
    return catalog


@pytest.mark.parametrize("column, predicate, cell, expected", BIBLIOGRAPHIC_CELLS)
def test_bibliographic_cell(tmp_path, column, predicate, cell, expected):
    row = {"id": "1", "title": "T"} | {column: cell}
    try:
        catalog = _ingest_bibliographic(tmp_path / "catalog", [row])
    except BibliographicError as exc:
        assert str(exc) == expected
    else:
        objects = catalog.store.objects(Iri(BASE + "cho/1"), predicate)
        assert tuple(serialize_term(term) for term in objects) == expected


def test_bibliographic_error_names_its_row(tmp_path):
    rows = [{"id": str(n), "title": "T", "licence": licence} for n, licence in enumerate(["http://ok.org/l", "bad licence"], 1)]
    with pytest.raises(BibliographicError) as err:
        _ingest_bibliographic(tmp_path / "catalog", rows)
    assert str(err.value) == "row 2: column 'licence': relative reference (no scheme) in 'bad licence'"


# -- documentation ---------------------------------------------------------------


def test_readme_lists_every_record_property():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Record properties", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| [a-z ]+ \| `cat:(\w+)` \|", section, re.MULTILINE))
    for table in (workflow.ACTIVITY_RECORD, workflow.ASSET_RECORD):
        for field in table.fields:
            assert field.predicate.value.startswith(vocab.CAT_NS)
            assert field.predicate.value.removeprefix(vocab.CAT_NS) in documented, field.attr


# -- validate ---------------------------------------------------------------------


def test_validate_reads_each_activity_at_most_once(gold_catalog, monkeypatch):
    builds = []
    original = workflow.phase_record
    monkeypatch.setattr(workflow, "phase_record", lambda store, subject: builds.append(subject) or original(store, subject))
    violations = gold_catalog.validate_assets()
    monkeypatch.undo()
    assert len(builds) <= len(gold_catalog.store.subjects(vocab.RDF_TYPE, vocab.ACTIVITY))

    techniques = {}
    for phase in gold_catalog.phases:
        if phase.technique:
            techniques.setdefault(phase.cho.value.rsplit("/", 1)[-1], set()).add(phase.technique)
    profile = gold_catalog.config.constraint_profile()
    expected = []
    for asset in gold_catalog.assets:
        technique = min(techniques.get(asset.dcho.value.rsplit("/", 1)[-1], ()), default=None)
        expected.extend(workflow.validate_asset(asset, profile, technique))
    assert violations == expected
