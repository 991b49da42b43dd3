import hashlib
import random
import re
from datetime import date

import pytest

from conftest import DATA_DIR, add_twin_asset, gold_catalog  # noqa: F401
from heritage_catalog import vocab, workflow
from heritage_catalog.catalog import Catalog, record_graph
from heritage_catalog.mapping import Table, load_table
from heritage_catalog.provenance import CREATION, MERGE, ProvenanceTracker
from heritage_catalog.rdf import Iri, Literal, Quad
from heritage_catalog.store import Store
from heritage_catalog.workflow import (
    ASSET_KINDS,
    AssetVersion,
    BadDate,
    ConstraintProfile,
    MissingColumn,
    MissingLicence,
    NoAssets,
    NoSuchObject,
    OutOfOrder,
    PhaseKind,
    PhaseRecord,
    PlaceholderClash,
    UnknownPhase,
    ValidationError,
    check_phase_order,
    parse_process_table,
    status_vector,
    storage_report,
    validate_asset,
)

BASE = "https://example.org/catalog/"
DCHO = Iri(BASE + "dcho/1")


def make_asset(kind="processed_raw", format="OBJ", size=100, polygons=None, tex=None, ident="a1"):
    if kind == "optimised" and polygons is None:
        polygons = 90_000
    return AssetVersion(
        id=Iri(BASE + "asset/" + ident),
        dcho=DCHO,
        kind=kind,
        format=format,
        size_bytes=size,
        polygon_count=polygons,
        texture_width=tex[0] if tex else None,
        texture_height=tex[1] if tex else None,
        checksum="abc123",
    )


def process_table(rows, header=None):
    header = header or ("object", "phase", "unit", "agents", "technique", "tools", "start", "end")
    return Table(name="process", header=tuple(header), rows=tuple(tuple(r) for r in rows))


class TestIngestProcessTable:
    def test_sls_acquisition_row(self):
        table = process_table([("1", "acquisition", "Lab", "Anna", "SLS", "Scanner", "2023-01-01", "2023-01-02")])
        (record,) = [r.record for r in parse_process_table(table, BASE)]
        assert record.kind == PhaseKind.ACQUISITION
        assert record.technique == "SLS"
        assert record.cho == Iri(BASE + "cho/1")

    def test_technique_on_non_acquisition_rejected(self):
        table = process_table([("1", "processing", "Lab", "Anna", "SLS", "Tool", "2023-01-01", "2023-01-02")])
        with pytest.raises(ValidationError):
            [r.record for r in parse_process_table(table, BASE)]

    def test_end_before_start_rejected(self):
        table = process_table([("1", "acquisition", "Lab", "Anna", "SLS", "Tool", "2023-01-05", "2023-01-02")])
        with pytest.raises(BadDate):
            [r.record for r in parse_process_table(table, BASE)]

    def test_missing_column(self):
        table = Table(name="p", header=("object", "phase"), rows=())
        with pytest.raises(MissingColumn) as err:
            [r.record for r in parse_process_table(table, BASE)]
        assert err.value.name == "unit"

    def test_unknown_phase(self):
        table = process_table([("1", "scanning", "Lab", "Anna", "", "Tool", "2023-01-01", "2023-01-02")])
        with pytest.raises(UnknownPhase) as err:
            [r.record for r in parse_process_table(table, BASE)]
        assert err.value.row == 1

    def test_bad_date_cell(self):
        table = process_table([("1", "acquisition", "Lab", "Anna", "SLS", "Tool", "01/02/2023", "2023-01-02")])
        with pytest.raises(BadDate):
            [r.record for r in parse_process_table(table, BASE)]

    def test_open_ended_phase(self):
        table = process_table([("1", "acquisition", "Lab", "Anna", "SLS", "Tool", "2023-01-01", "")])
        (record,) = [r.record for r in parse_process_table(table, BASE)]
        assert record.end is None

    def test_asset_metadata_extraction(self):
        rows = parse_process_table(load_table(DATA_DIR / "gold_process.csv"), BASE)
        assets = [r.asset for r in rows if r.asset is not None]
        assert len(assets) == 11
        raw = next(a for a in assets if a.id.value.endswith("raw-25"))
        assert raw.kind == "raw_material"
        assert raw.format == "PLY"
        assert raw.size_bytes == 350_000_000

    def test_upload_extraction(self):
        rows = parse_process_table(load_table(DATA_DIR / "gold_process.csv"), BASE)
        uploads = [r.upload for r in rows if r.upload is not None]
        assert {u.scene_id for u in uploads} == {"SCN25A", "SCN26B"}
        assert all(u.target == "ATON" for u in uploads)

    def test_scene_id_must_be_alphanumeric(self):
        header = ("object", "phase", "unit", "agents", "technique", "tools", "start", "end", "scene_id")
        table = process_table([("1", "upload", "Lab", "Anna", "", "Tool", "2023-01-01", "2023-01-02", "bad id!")], header)
        with pytest.raises(ValidationError):
            parse_process_table(table, BASE)


class TestPhaseOrdering:
    def _record(self, kind, end="2023-01-02"):
        return PhaseRecord(
            cho=Iri(BASE + "cho/1"),
            kind=kind,
            unit="Lab",
            agents=(Iri(BASE + "agent/Anna"),),
            technique="SLS" if kind == PhaseKind.ACQUISITION else "",
            tools=(),
            start=date(2023, 1, 1),
            end=date.fromisoformat(end) if end else None,
        )

    def test_upload_without_predecessor_rejected(self):
        with pytest.raises(OutOfOrder):
            check_phase_order([], self._record(PhaseKind.UPLOAD))

    def test_rank_six_pair_in_either_order(self):
        done = [self._record(k) for k in (PhaseKind.ACQUISITION, PhaseKind.PROCESSING, PhaseKind.MODELLING, PhaseKind.OPTIMISATION, PhaseKind.EXPORT)]
        check_phase_order(done, self._record(PhaseKind.PROVENANCE_CREATION))
        check_phase_order(done, self._record(PhaseKind.METADATA_CREATION))
        done.append(self._record(PhaseKind.PROVENANCE_CREATION))
        check_phase_order(done, self._record(PhaseKind.UPLOAD))

    def test_full_sequence_accepted(self):
        done = []
        for kind in (
            PhaseKind.ACQUISITION,
            PhaseKind.PROCESSING,
            PhaseKind.MODELLING,
            PhaseKind.OPTIMISATION,
            PhaseKind.EXPORT,
            PhaseKind.METADATA_CREATION,
            PhaseKind.PROVENANCE_CREATION,
            PhaseKind.UPLOAD,
        ):
            record = self._record(kind)
            check_phase_order(done, record)
            done.append(record)

    def test_incomplete_predecessor_does_not_count(self):
        pending = [self._record(PhaseKind.ACQUISITION, end=None)]
        with pytest.raises(OutOfOrder):
            check_phase_order(pending, self._record(PhaseKind.PROCESSING))

    def test_accepted_interleavings_share_final_status(self):
        ordered = [
            PhaseKind.ACQUISITION,
            PhaseKind.PROCESSING,
            PhaseKind.MODELLING,
            PhaseKind.OPTIMISATION,
            PhaseKind.EXPORT,
            PhaseKind.METADATA_CREATION,
            PhaseKind.PROVENANCE_CREATION,
            PhaseKind.UPLOAD,
        ]
        swapped = list(ordered)
        swapped[5], swapped[6] = swapped[6], swapped[5]
        vectors = []
        for sequence in (ordered, swapped):
            done = []
            for kind in sequence:
                record = self._record(kind)
                check_phase_order(done, record)
                done.append(record)
            vectors.append(status_vector(done))
        assert vectors[0] == vectors[1]


class TestAssetConstraints:
    def test_polygon_upper_bound_inclusive(self):
        ok = make_asset(polygons=1_000_000)
        over = make_asset(polygons=1_000_001)
        assert validate_asset(ok, technique="SLS") == []
        violations = validate_asset(over, technique="SLS")
        assert [v.constraint for v in violations] == ["scanned_polygons_max"]
        assert violations[0].observed == 1_000_001
        assert violations[0].limit == 1_000_000

    def test_polygon_lower_bound_inclusive(self):
        assert validate_asset(make_asset(polygons=500_000), technique="SLS") == []
        violations = validate_asset(make_asset(polygons=499_999), technique="SLS")
        assert [v.constraint for v in violations] == ["scanned_polygons_min"]

    def test_texture_boundary(self):
        assert validate_asset(make_asset(polygons=600_000, tex=(16_384, 16_384)), technique="SLS") == []
        violations = validate_asset(make_asset(polygons=600_000, tex=(16_385, 16_384)), technique="SLS")
        assert [v.constraint for v in violations] == ["texture_max_px"]
        assert violations[0].observed == 16_385

    def test_optimised_format_exclusive(self):
        for good in ("GLTF", "GLB"):
            assert validate_asset(make_asset(kind="optimised", format=good, polygons=90_000)) == []
        violations = validate_asset(make_asset(kind="optimised", format="OBJ", polygons=90_000))
        assert [v.constraint for v in violations] == ["optimised_formats"]

    def test_sls_size_boundary(self):
        limit = 800 * 10**6
        assert validate_asset(make_asset(size=limit, polygons=600_000), technique="SLS") == []
        violations = validate_asset(make_asset(size=limit + 1, polygons=600_000), technique="SLS")
        assert [v.constraint for v in violations] == ["sls_processed_max_bytes"]

    def test_photogrammetry_skips_scan_limits(self):
        asset = make_asset(polygons=5_000_000, size=10**10)
        assert validate_asset(asset, technique="photogrammetry") == []

    def test_raw_format_depends_on_technique(self):
        ply = make_asset(kind="raw_material", format="PLY")
        tiff = make_asset(kind="raw_material", format="TIFF")
        assert validate_asset(ply, technique="SLS") == []
        assert validate_asset(tiff, technique="photogrammetry") == []
        assert [v.constraint for v in validate_asset(tiff, technique="SLS")] == ["raw_sls_formats"]
        assert [v.constraint for v in validate_asset(ply, technique="photogrammetry")] == ["raw_photogrammetry_formats"]

    def test_loosening_limits_never_adds_violations(self):
        rng = random.Random(9)
        base = ConstraintProfile()
        loose = ConstraintProfile(
            scanned_polygons_min=1,
            scanned_polygons_max=10**9,
            texture_max_px=10**6,
            sls_processed_max_bytes=10**12,
        )
        for _ in range(100):
            try:
                asset = make_asset(
                    kind=rng.choice(("processed_raw", "high_poly", "optimised", "raw_material", "documentation")),
                    format=rng.choice(("OBJ", "GLTF", "PLY", "EXE", "FBX")),
                    size=rng.randrange(0, 2 * 10**9),
                    polygons=rng.choice([None, rng.randrange(1, 2 * 10**6)]),
                    tex=rng.choice([None, (rng.randrange(1, 40_000), 4096)]),
                )
            except ValueError:
                continue
            strict_violations = {(v.constraint, v.observed) for v in validate_asset(asset, base, "SLS")}
            loose_violations = {(v.constraint, v.observed) for v in validate_asset(asset, loose, "SLS")}
            numeric = {"scanned_polygons_min", "scanned_polygons_max", "texture_max_px", "sls_processed_max_bytes"}
            assert {v for v in loose_violations if v[0] in numeric} <= {v for v in strict_violations if v[0] in numeric}

    def test_validate_is_pure(self):
        asset = make_asset(polygons=750_000)
        assert validate_asset(asset, technique="SLS") == validate_asset(asset, technique="SLS")

    def test_optimised_requires_polygons(self):
        with pytest.raises(ValueError):
            AssetVersion(id=Iri(BASE + "asset/x"), dcho=DCHO, kind="optimised", format="GLTF", size_bytes=1)

    def test_documentation_rejects_polygons(self):
        with pytest.raises(ValueError):
            make_asset(kind="documentation", format="JPG", polygons=5)


class TestStorageReport:
    def test_reported_distribution(self):
        gig = 10**9
        sizes = {
            "raw_material": 46 * gig,
            "processed_raw": 43 * gig,
            "high_poly": 7 * gig,
            "optimised": gig // 2,
            "documentation": 3 * gig + gig // 2,
        }
        assets = [make_asset(kind=k, format="OBJ", size=v, polygons=None, ident=k) for k, v in sizes.items()]
        report = storage_report(assets)
        assert report["raw_material"].percent == 46.0
        assert report["processed_raw"].percent == 43.0
        assert report["high_poly"].percent == 7.0
        assert report["optimised"].percent == 0.5
        assert report["documentation"].percent == 3.5

    def test_single_asset_is_hundred_percent(self):
        report = storage_report([make_asset(size=123)])
        assert report["processed_raw"].percent == 100.0

    def test_empty_catalog_reports_zeros(self):
        report = storage_report([])
        assert all(share.bytes == 0 and share.percent == 0.0 for share in report.values())
        assert set(report) == set(ASSET_KINDS)

    def test_percentages_sum_within_tolerance(self):
        rng = random.Random(21)
        for _ in range(100):
            assets = [
                make_asset(kind=kind, size=rng.randrange(1, 10**9), ident=f"{kind}-x")
                for kind in ASSET_KINDS
                if rng.random() < 0.8
            ]
            if not assets:
                continue
            report = storage_report(assets)
            assert abs(sum(share.percent for share in report.values()) - 100.0) <= 0.2


class TestStatusVector:
    def test_no_records(self):
        status = status_vector([])
        assert all(v == "absent" for v in status.values())
        assert list(status) == list(PhaseKind)

    def test_one_complete(self):
        record = PhaseRecord(
            cho=Iri(BASE + "cho/1"),
            kind=PhaseKind.ACQUISITION,
            unit="Lab",
            agents=(Iri(BASE + "agent/a"),),
            technique="SLS",
            tools=(),
            start=date(2023, 1, 1),
            end=date(2023, 1, 2),
        )
        status = status_vector([record])
        assert status[PhaseKind.ACQUISITION] == "complete"
        assert sum(1 for v in status.values() if v == "absent") == 7

    def test_in_progress(self):
        record = PhaseRecord(
            cho=Iri(BASE + "cho/1"),
            kind=PhaseKind.PROCESSING,
            unit="Lab",
            agents=(Iri(BASE + "agent/a"),),
            technique="",
            tools=(),
            start=date(2023, 1, 1),
            end=None,
        )
        assert status_vector([record])[PhaseKind.PROCESSING] == "in_progress"


class TestCatalogRegistration:
    def test_register_phase_out_of_order_via_catalog(self, gold_catalog):
        record = PhaseRecord(
            cho=Iri(BASE + "cho/99"),
            kind=PhaseKind.UPLOAD,
            unit="Web Unit",
            agents=(Iri(BASE + "agent/a"),),
            technique="",
            tools=(),
            start=date(2023, 3, 1),
            end=date(2023, 3, 1),
        )
        with pytest.raises(OutOfOrder):
            gold_catalog.register_phase(record)

    def test_register_phase_creates_activity(self, gold_catalog):
        record = PhaseRecord(
            cho=Iri(BASE + "cho/99"),
            kind=PhaseKind.ACQUISITION,
            unit="Lab",
            agents=(Iri(BASE + "agent/a"),),
            technique="SLS",
            tools=("Scanner",),
            start=date(2023, 3, 1),
            end=None,
        )
        assert gold_catalog.register_phase(record) == "created"
        assert gold_catalog.workflow_status(record.cho)[PhaseKind.ACQUISITION] == "in_progress"

    def test_object_outside_the_base_iri_is_rejected_before_any_write(self, gold_catalog):
        # Activities are named by the object's last path segment, so this
        # object would otherwise overwrite cho/25's acquisition activity.
        record = PhaseRecord(
            cho=Iri("https://other.org/cho/25"),
            kind=PhaseKind.ACQUISITION,
            unit="Lab",
            agents=(Iri(BASE + "agent/a"),),
            technique="SLS",
            tools=("Scanner",),
            start=date(2023, 3, 1),
            end=None,
        )
        tracker = gold_catalog.tracker
        state = lambda: (gold_catalog.store.quads(), {e: tracker.chain(e) for e in tracker.entities()})
        before = state()
        with pytest.raises(NoSuchObject):
            gold_catalog.register_phase(record)
        assert state() == before
        assert len(gold_catalog.phases_for(Iri(BASE + "cho/25"))) == 8

    def test_uploads_view(self, gold_catalog):
        assert {u.scene_id for u in gold_catalog.uploads} == {"SCN25A", "SCN26B"}
        assert all(u.target == "ATON" for u in gold_catalog.uploads)

    def test_upload_without_dates_is_skipped(self):
        activity = Iri(BASE + "activity/1/upload/1")
        store = Store({
            Quad(activity, vocab.RDF_TYPE, vocab.ACTIVITY),
            Quad(activity, vocab.SCENE_ID, Literal("SCN1")),
            Quad(activity, vocab.CONCERNS, Iri(BASE + "cho/1")),
        })
        assert workflow.uploads_from_store(store, BASE) == []


def _doubled_process_table(table: Table) -> Table:
    """The table plus a copy of every row for a new object, with its own assets."""
    renamed = ("object", "inputs", "outputs")
    copies = []
    for row in table.rows:
        copy = [
            ";".join("x" + token for token in cell.split(";")) if column in renamed and cell else cell
            for column, cell in zip(table.header, row)
        ]
        copies.append(tuple(copy))
    return Table(name=table.name, header=table.header, rows=table.rows + tuple(copies))


class TestViewRebuilds:
    def test_rebuild_count_does_not_grow_with_rows(self, tmp_path, monkeypatch):
        calls = []
        for name in ("phases_from_store", "assets_from_store"):
            original = getattr(workflow, name)
            monkeypatch.setattr(workflow, name, lambda store, _f=original: calls.append(1) or _f(store))
        gold = load_table(DATA_DIR / "gold_process.csv")
        counts = []
        for i, table in enumerate((gold, _doubled_process_table(gold))):
            catalog = Catalog.create(tmp_path / f"catalog{i}")
            calls.clear()
            catalog.ingest_process(table, Iri("file:///process.csv"))
            ingest_calls = len(calls)
            calls.clear()
            catalog.validate_assets()
            counts.append((ingest_calls, len(calls), len(catalog.phases)))
        assert counts[1][2] == 2 * counts[0][2]
        assert counts[0][:2] == counts[1][:2]


    def test_ingest_reads_each_object_once_then_rebuilds_one_phase_per_row(self, tmp_path, monkeypatch):
        builds = []
        original = workflow.phase_record
        monkeypatch.setattr(workflow, "phase_record", lambda store, subject: builds.append(subject) or original(store, subject))
        gold = load_table(DATA_DIR / "gold_process.csv")
        catalog = Catalog.create(tmp_path / "catalog")
        catalog.ingest_process(gold, Iri("file:///process.csv"))
        assert len(builds) == len(gold.rows)
        activities = len(catalog.phases)
        builds.clear()
        catalog.ingest_process(gold, Iri("file:///process.csv"))
        assert len(builds) == activities + len(gold.rows)

    def test_order_check_sees_the_phases_in_the_store(self, tmp_path, monkeypatch):
        catalog = Catalog.create(tmp_path / "catalog")
        checked = []
        original = workflow.check_phase_order

        def check(existing, record):
            checked.append(existing == catalog.phases_for(record.cho))
            original(existing, record)

        monkeypatch.setattr(workflow, "check_phase_order", check)
        gold = load_table(DATA_DIR / "gold_process.csv")
        for table in (gold, gold, _doubled_process_table(gold)):
            catalog.ingest_process(table, Iri("file:///process.csv"))
        assert len(checked) == 4 * len(gold.rows) and all(checked)


class TestBundle:
    def test_bundle_layout_and_digests(self, gold_catalog, tmp_path):
        dcho = Iri(BASE + "dcho/25")
        out = tmp_path / "bundle"
        manifest = gold_catalog.export_bundle(dcho, out)
        assert "descriptor.txt" in manifest
        assert "provenance.nq" in manifest
        asset_entries = [p for p in manifest if p.startswith("assets/")]
        assert len(asset_entries) == len(gold_catalog.assets_for(dcho))
        manifest_lines = (out / "manifest.txt").read_text().splitlines()
        assert len(manifest_lines) == len(manifest)
        for line in manifest_lines:
            path, digest, size = line.split("\t")
            data = (out / path).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
            assert len(data) == int(size)

    @pytest.mark.parametrize("merged", [False, True], ids=["gold", "with-merge"])
    def test_provenance_is_the_chain_graph_as_saved(self, gold_catalog, tmp_path, merged):
        """The bundle's provenance.nq is the object's lines of prov.nq, and
        reads back as the same chain, a merge snapshot included."""
        dcho = Iri(BASE + "dcho/25")
        if merged:
            absorbed = Iri(BASE + "dcho/25-duplicate")
            agent = gold_catalog.config.agent_iri()
            gold_catalog.tracker.record_creation(absorbed, {Quad(absorbed, vocab.DCT_TITLE, Literal("Duplicate"), record_graph(absorbed))}, agent)
            gold_catalog.tracker.record_merge(dcho, absorbed, agent)
            gold_catalog.save()
        out = tmp_path / "bundle"
        gold_catalog.export_bundle(dcho, out)
        in_graph = f" <{dcho.value}/prov> .\n".encode()
        held = [line for line in (gold_catalog.root / "prov.nq").read_bytes().splitlines(keepends=True) if line.endswith(in_graph)]
        assert (out / "provenance.nq").read_bytes() == b"".join(held)
        chain = ProvenanceTracker.load(Store(), out / "provenance.nq").chain(dcho)
        assert chain == gold_catalog.tracker.chain(dcho)
        assert chain[-1].kind == (MERGE if merged else CREATION)

    def test_descriptor_contents(self, gold_catalog, tmp_path):
        out = tmp_path / "bundle"
        gold_catalog.export_bundle(Iri(BASE + "dcho/25"), out)
        descriptor = (out / "descriptor.txt").read_text()
        assert "title=Anfora a figure nere (modello 3D)" in descriptor
        assert "licence=https://creativecommons.org/licenses/by/4.0/" in descriptor
        assert "created=2023-01-10" in descriptor

    def test_missing_licence(self, gold_catalog, tmp_path):
        dcho = Iri(BASE + "dcho/25")
        licence_quads = {
            q for q in gold_catalog.store.subject_quads(dcho)
            if q.predicate.value == "http://purl.org/dc/terms/license"
        }
        gold_catalog.store.delete_quads(licence_quads)
        with pytest.raises(MissingLicence):
            gold_catalog.export_bundle(dcho, tmp_path / "bundle")

    def test_no_assets(self, gold_catalog, tmp_path):
        with pytest.raises(NoAssets):
            gold_catalog.export_bundle(Iri(BASE + "dcho/999"), tmp_path / "bundle")

    def test_placeholder_clash_is_refused_before_writing(self, gold_catalog, tmp_path):
        dcho = Iri(BASE + "dcho/25")
        original = {asset.id for asset in gold_catalog.assets_for(dcho)}
        twin = add_twin_asset(gold_catalog, dcho)
        out = tmp_path / "bundle"
        with pytest.raises(PlaceholderClash) as caught:
            gold_catalog.export_bundle(dcho, out)
        named = re.fullmatch(r"assets (\S+) and (\S+) would both be written to assets/(\S+)\.txt", str(caught.value))
        assert {named[1], named[2]} == {twin.value, min(original, key=lambda a: a.value).value}
        assert named[3] == twin.value.rsplit("/", 1)[-1]
        assert not out.exists()

