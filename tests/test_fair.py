import random
import re
from dataclasses import replace

import pytest

from conftest import gold_catalog, rand_iri  # noqa: F401
from heritage_catalog import vocab, workflow
from heritage_catalog.catalog import Catalog, record_graph
from heritage_catalog.fair import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    UnknownFormat,
    check_registry,
    parse_rdf_report,
    render_report,
    run_audit,
)
from heritage_catalog.rdf import Iri, Literal, Quad, parse_nquads

BASE = "https://example.org/catalog/"

LICENCE_PREDICATES = (vocab.DCT_LICENSE, vocab.RECORD_LICENCE)


class TestRegistry:
    def test_each_level_and_facet_populated(self):
        registry = check_registry()
        by_level = {}
        for check in registry:
            by_level.setdefault(check.level, set()).add(check.facet)
        assert by_level["object"] == {"F", "A", "I", "R"}
        assert by_level["object_metadata"] == {"F", "A", "I", "R"}
        assert by_level["metadata_record"] == {"F", "A", "I", "R"}

    def test_expected_check_ids(self):
        ids = [check.id for check in check_registry()]
        assert ids == [
            "OBJ-F1", "OBJ-F2", "OBJ-A1", "OBJ-A2", "OBJ-A3", "OBJ-A4", "OBJ-I1", "OBJ-R1", "OBJ-R2",
            "MET-F1", "MET-F2", "MET-A1", "MET-I1", "MET-I2", "MET-I3", "MET-R1", "MET-R2", "MET-R3",
            "REC-F1", "REC-A1", "REC-A2", "REC-I1", "REC-R1", "REC-R2", "REC-R3",
        ]

    def test_ids_unique(self):
        ids = [check.id for check in check_registry()]
        assert len(ids) == len(set(ids))

    def test_every_check_has_anchor(self):
        assert all(check.anchor for check in check_registry())


class TestGoldAudit:
    def test_zero_fails(self, gold_catalog):
        report = run_audit(gold_catalog)
        failures = [r for r in report.results if r.outcome == FAIL]
        assert failures == []

    def test_asset_records_are_built_once_per_digital_object(self, gold_catalog, monkeypatch):
        built = []
        build = workflow.build_records

        def counting(*args, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(workflow, "build_records", counting)
        run_audit(gold_catalog)
        store = gold_catalog.store
        digital = [entity for entity in gold_catalog.objects() if vocab.DIGITAL_OBJECT in store.objects(entity, vocab.RDF_TYPE)]
        assert len(built) == len(digital) == 2

    def test_doubly_typed_object_is_audited_once(self, gold_catalog):
        cho = Iri(BASE + "cho/25")
        gold_catalog.store.insert_quads({Quad(cho, vocab.RDF_TYPE, vocab.DIGITAL_OBJECT, record_graph(cho))})
        assert gold_catalog.objects().count(cho) == 1
        mine = [(r.check_id, r.subject) for r in run_audit(gold_catalog).results if r.subject in (cho, record_graph(cho))]
        assert len(mine) == len(set(mine)) == len(check_registry()) == 25

    def test_every_check_exercised(self, gold_catalog):
        report = run_audit(gold_catalog)
        seen = {r.check_id for r in report.results}
        assert seen == {check.id for check in check_registry()}

    def test_digital_objects_pass_everything(self, gold_catalog):
        report = run_audit(gold_catalog)
        dcho = BASE + "dcho/25"
        outcomes = {r.check_id: r.outcome for r in report.results if r.subject.value in (dcho, dcho + "/record")}
        assert set(outcomes.values()) == {PASS}

    def test_physical_objects_get_not_applicable_digital_rows(self, gold_catalog):
        report = run_audit(gold_catalog)
        cho = BASE + "cho/25"
        outcomes = {r.check_id: r.outcome for r in report.results if r.subject.value == cho}
        for check_id in ("OBJ-A1", "OBJ-A2", "OBJ-A3", "OBJ-A4", "OBJ-I1", "OBJ-R1"):
            assert outcomes[check_id] == NOT_APPLICABLE
        for check_id in ("OBJ-F1", "OBJ-F2", "OBJ-R2", "MET-F1", "MET-R3"):
            assert outcomes[check_id] == PASS

    def test_evidence_present_on_decided_checks(self, gold_catalog):
        report = run_audit(gold_catalog)
        for result in report.results:
            if result.outcome in (PASS, FAIL):
                assert result.evidence

    def test_summary_counts_match_results(self, gold_catalog):
        report = run_audit(gold_catalog)
        recount = {key: {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0} for key in report.summary}
        by_id = {c.id: c for c in check_registry()}
        for result in report.results:
            check = by_id[result.check_id]
            recount[(check.level, check.facet)][result.outcome] += 1
        assert recount == report.summary


DCHO = Iri(BASE + "dcho/25")
CHO = Iri(BASE + "cho/25")
BARE = Iri(BASE + "dcho/bare")


def _drop(subject, *predicates):
    """Delete the subject's statements of these predicates."""
    def mutate(catalog):
        catalog.store.delete_quads({q for q in catalog.store.subject_quads(subject) if q.predicate in predicates})
    return mutate


def _set(subject, predicate, value):
    """Replace the subject's values of the predicate with one value."""
    def mutate(catalog):
        _drop(subject, predicate)(catalog)
        catalog.store.insert_quads({Quad(subject, predicate, value, record_graph(subject))})
    return mutate


def _drop_assets(catalog):
    catalog.store.delete_quads({q for q in catalog.store.quads() if q.predicate == vocab.DERIVATIVE_OF and q.object == DCHO})


def _add_bare_object(catalog):
    """A digital object with a type statement only, and no snapshot chain."""
    catalog.store.insert_quads({Quad(BARE, vocab.RDF_TYPE, vocab.DIGITAL_OBJECT, record_graph(BARE))})


def _configure(**values):
    def mutate(catalog):
        catalog.config = replace(catalog.config, **values)
    return mutate


def _latest_snapshot(**values):
    """Rewrite fields of the latest snapshot of dcho/25's chain."""
    def mutate(catalog):
        chain = catalog.tracker._chains[DCHO]
        chain[-1] = replace(chain[-1], **values)
    return mutate


def _unchanged(catalog):
    pass


def _mask_times(evidence: str) -> str:
    return re.sub(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", "TIME", evidence)


# One row per check and outcome branch: the check, the subject it is
# decided for, how the gold catalog is changed first, and the outcome and
# evidence (generation times masked) the audit gives.
AUDIT_CASES = [
    pytest.param("OBJ-F1", DCHO, _unchanged, PASS, 'identifier <https://example.org/catalog/dcho/25> is an IRI', id="OBJ-F1-pass"),
    pytest.param("OBJ-F1", BARE, _add_bare_object, PASS, 'identifier <https://example.org/catalog/dcho/bare> is an IRI', id="OBJ-F1-bare-object"),
    pytest.param("OBJ-F2", DCHO, _unchanged, PASS, '<https://example.org/catalog/dcho/25> <http://purl.org/dc/terms/accessRights> "open access" <https://example.org/catalog/dcho/25/record> . <https://example.org/catalog/dcho/25> <http://purl.org/dc/terms/conformsTo> <http://www.cidoc-crm.org/cidoc-crm/> <https://example.org/catalog/dcho/25/record> . <https://example.org/catalog/dcho/25> <http://purl.org/dc/terms/creator> "3D Lab" <https://example.org/catalog/dcho/25/record> .', id="OBJ-F2-pass"),
    pytest.param("OBJ-F2", BARE, _add_bare_object, FAIL, 'no descriptive statements', id="OBJ-F2-bare-object"),
    pytest.param("OBJ-A1", DCHO, _unchanged, PASS, '<https://example.org/catalog/dcho/25> <https://w3id.org/hcat/vocab/storageLocation> "nas-01:/archive/dcho/25" <https://example.org/catalog/dcho/25/record> .', id="OBJ-A1-pass"),
    pytest.param("OBJ-A1", DCHO, _drop(DCHO, vocab.STORAGE_LOCATION), FAIL, 'no storage location statement', id="OBJ-A1-no-storage"),
    pytest.param("OBJ-A1", CHO, _unchanged, NOT_APPLICABLE, 'physical object without digital files', id="OBJ-A1-physical"),
    pytest.param("OBJ-A1", BARE, _add_bare_object, FAIL, 'no storage location statement', id="OBJ-A1-bare-object"),
    pytest.param("OBJ-A2", DCHO, _unchanged, PASS, '<https://example.org/catalog/dcho/25> <https://w3id.org/hcat/vocab/accessUrl> <https://viewer.example.org/scenes/SCN25A> <https://example.org/catalog/dcho/25/record> .', id="OBJ-A2-pass"),
    pytest.param("OBJ-A2", DCHO, _set(DCHO, vocab.ACCESS_URL, Iri("ftp://files.example.org/scenes/SCN25A")), FAIL, '<https://example.org/catalog/dcho/25> <https://w3id.org/hcat/vocab/accessUrl> <ftp://files.example.org/scenes/SCN25A> <https://example.org/catalog/dcho/25/record> . (scheme not in open-scheme list)', id="OBJ-A2-closed-scheme"),
    pytest.param("OBJ-A2", DCHO, _configure(open_schemes=("ftp",)), FAIL, '<https://example.org/catalog/dcho/25> <https://w3id.org/hcat/vocab/accessUrl> <https://viewer.example.org/scenes/SCN25A> <https://example.org/catalog/dcho/25/record> . (scheme not in open-scheme list)', id="OBJ-A2-scheme-not-configured"),
    pytest.param("OBJ-A2", DCHO, _drop(DCHO, vocab.ACCESS_URL), FAIL, 'no access IRI statement', id="OBJ-A2-no-access-iri"),
    pytest.param("OBJ-A2", DCHO, _set(DCHO, vocab.ACCESS_URL, Literal("https://viewer.example.org/scenes/SCN25A")), FAIL, 'no access IRI statement', id="OBJ-A2-literal-access-url"),
    pytest.param("OBJ-A2", CHO, _unchanged, NOT_APPLICABLE, 'physical object without digital files', id="OBJ-A2-physical"),
    pytest.param("OBJ-A2", BARE, _add_bare_object, FAIL, 'no access IRI statement', id="OBJ-A2-bare-object"),
    pytest.param("OBJ-A3", DCHO, _unchanged, PASS, '5 asset version(s): https://example.org/catalog/asset/exp-25, https://example.org/catalog/asset/high-25, https://example.org/catalog/asset/opt-25', id="OBJ-A3-pass"),
    pytest.param("OBJ-A3", DCHO, _drop_assets, FAIL, 'no asset versions recorded', id="OBJ-A3-no-assets"),
    pytest.param("OBJ-A3", CHO, _unchanged, NOT_APPLICABLE, 'physical object without digital files', id="OBJ-A3-physical"),
    pytest.param("OBJ-A3", BARE, _add_bare_object, FAIL, 'no asset versions recorded', id="OBJ-A3-bare-object"),
    pytest.param("OBJ-A4", DCHO, _unchanged, PASS, '<https://example.org/catalog/dcho/25> <https://w3id.org/hcat/vocab/backupLocation> "vault-07:/backup/dcho/25" <https://example.org/catalog/dcho/25/record> .', id="OBJ-A4-pass"),
    pytest.param("OBJ-A4", DCHO, _drop(DCHO, vocab.BACKUP_LOCATION), FAIL, 'no backup location statement', id="OBJ-A4-no-backup"),
    pytest.param("OBJ-A4", CHO, _unchanged, NOT_APPLICABLE, 'physical object without digital files', id="OBJ-A4-physical"),
    pytest.param("OBJ-A4", BARE, _add_bare_object, FAIL, 'no backup location statement', id="OBJ-A4-bare-object"),
    pytest.param("OBJ-I1", DCHO, _unchanged, PASS, 'formats GLB, GLTF, OBJ, PLY all acceptable', id="OBJ-I1-pass"),
    pytest.param("OBJ-I1", DCHO, _set(Iri(BASE + "asset/raw-25"), vocab.FILE_FORMAT, Literal("XYZ")), FAIL, 'unacceptable format(s): https://example.org/catalog/asset/raw-25=XYZ', id="OBJ-I1-unacceptable-format"),
    pytest.param("OBJ-I1", DCHO, _drop_assets, NOT_APPLICABLE, 'no asset versions recorded', id="OBJ-I1-no-assets"),
    pytest.param("OBJ-I1", CHO, _unchanged, NOT_APPLICABLE, 'physical object without digital files', id="OBJ-I1-physical"),
    pytest.param("OBJ-I1", BARE, _add_bare_object, NOT_APPLICABLE, 'no asset versions recorded', id="OBJ-I1-bare-object"),
    pytest.param("OBJ-R1", DCHO, _unchanged, PASS, '<https://example.org/catalog/dcho/25> <https://w3id.org/hcat/vocab/intervalEnd> "2023-01-24"^^<http://www.w3.org/2001/XMLSchema#date> <https://example.org/catalog/dcho/25/record> . <https://example.org/catalog/dcho/25> <https://w3id.org/hcat/vocab/intervalStart> "2023-01-10"^^<http://www.w3.org/2001/XMLSchema#date> <https://example.org/catalog/dcho/25/record> .', id="OBJ-R1-pass"),
    pytest.param("OBJ-R1", DCHO, _drop(DCHO, vocab.INTERVAL_END), FAIL, 'no timestamp interval (start and end) recorded', id="OBJ-R1-no-end"),
    pytest.param("OBJ-R1", CHO, _unchanged, NOT_APPLICABLE, 'physical object without digital files', id="OBJ-R1-physical"),
    pytest.param("OBJ-R1", BARE, _add_bare_object, FAIL, 'no timestamp interval (start and end) recorded', id="OBJ-R1-bare-object"),
    pytest.param("OBJ-R2", DCHO, _unchanged, PASS, '<https://example.org/catalog/dcho/25> <http://purl.org/dc/terms/license> <https://creativecommons.org/licenses/by/4.0/> <https://example.org/catalog/dcho/25/record> .', id="OBJ-R2-pass"),
    pytest.param("OBJ-R2", DCHO, _drop(DCHO, vocab.DCT_LICENSE), FAIL, 'no licence IRI statement', id="OBJ-R2-no-licence"),
    pytest.param("OBJ-R2", DCHO, _set(DCHO, vocab.DCT_LICENSE, Literal("CC BY 4.0")), FAIL, 'no licence IRI statement', id="OBJ-R2-literal-licence"),
    pytest.param("OBJ-R2", CHO, _unchanged, PASS, '<https://example.org/catalog/cho/25> <http://purl.org/dc/terms/license> <https://creativecommons.org/licenses/by/4.0/> <https://example.org/catalog/cho/25/record> .', id="OBJ-R2-physical-object"),
    pytest.param("OBJ-R2", BARE, _add_bare_object, FAIL, 'no licence IRI statement', id="OBJ-R2-bare-object"),
    pytest.param("MET-F1", DCHO, _unchanged, PASS, '<https://example.org/catalog/dcho/25> <http://purl.org/dc/terms/identifier> "https://example.org/catalog/dcho/25" <https://example.org/catalog/dcho/25/record> .', id="MET-F1-pass"),
    pytest.param("MET-F1", DCHO, _set(DCHO, vocab.DCT_IDENTIFIER, DCHO), PASS, '<https://example.org/catalog/dcho/25> <http://purl.org/dc/terms/identifier> <https://example.org/catalog/dcho/25> <https://example.org/catalog/dcho/25/record> .', id="MET-F1-iri-identifier"),
    pytest.param("MET-F1", DCHO, _set(DCHO, vocab.DCT_IDENTIFIER, Literal("25")), FAIL, "metadata do not state the object's own identifier", id="MET-F1-other-identifier"),
    pytest.param("MET-F1", BARE, _add_bare_object, FAIL, "metadata do not state the object's own identifier", id="MET-F1-bare-object"),
    pytest.param("MET-F2", DCHO, _unchanged, PASS, '<https://example.org/catalog/dcho/25> <https://w3id.org/hcat/vocab/registeredIn> <https://collections.example.org/catalogue> <https://example.org/catalog/dcho/25/record> .', id="MET-F2-pass"),
    pytest.param("MET-F2", DCHO, _drop(DCHO, vocab.REGISTERED_IN), FAIL, 'no repository registration statement', id="MET-F2-no-registration"),
    pytest.param("MET-F2", BARE, _add_bare_object, FAIL, 'no repository registration statement', id="MET-F2-bare-object"),
    pytest.param("MET-A1", DCHO, _unchanged, PASS, '<https://example.org/catalog/dcho/25> <http://purl.org/dc/terms/accessRights> "open access" <https://example.org/catalog/dcho/25/record> .', id="MET-A1-pass"),
    pytest.param("MET-A1", DCHO, _drop(DCHO, vocab.DCT_ACCESS_RIGHTS), FAIL, 'no access-rights statement', id="MET-A1-no-access-rights"),
    pytest.param("MET-A1", BARE, _add_bare_object, FAIL, 'no access-rights statement', id="MET-A1-bare-object"),
    pytest.param("MET-I1", DCHO, _unchanged, PASS, '<https://example.org/catalog/dcho/25> <http://purl.org/dc/terms/conformsTo> <http://www.cidoc-crm.org/cidoc-crm/> <https://example.org/catalog/dcho/25/record> .', id="MET-I1-pass"),
    pytest.param("MET-I1", DCHO, _drop(DCHO, vocab.DCT_CONFORMS_TO), FAIL, 'no metadata-schema declaration', id="MET-I1-no-schema"),
    pytest.param("MET-I1", BARE, _add_bare_object, FAIL, 'no metadata-schema declaration', id="MET-I1-bare-object"),
    pytest.param("MET-I2", DCHO, _unchanged, PASS, '<https://example.org/catalog/dcho/25> <http://purl.org/dc/terms/format> "application/n-quads" <https://example.org/catalog/dcho/25/record> . <https://example.org/catalog/dcho/25> <http://purl.org/dc/terms/format> "model/gltf-binary" <https://example.org/catalog/dcho/25/record> .', id="MET-I2-pass"),
    pytest.param("MET-I2", DCHO, _set(DCHO, vocab.DCT_FORMAT, Literal("text/csv")), FAIL, '1 serialization format(s) listed, need 2', id="MET-I2-one-format"),
    pytest.param("MET-I2", DCHO, _drop(DCHO, vocab.DCT_FORMAT), FAIL, '0 serialization format(s) listed, need 2', id="MET-I2-no-formats"),
    pytest.param("MET-I2", BARE, _add_bare_object, FAIL, '0 serialization format(s) listed, need 2', id="MET-I2-bare-object"),
    pytest.param("MET-I3", DCHO, _unchanged, PASS, '<https://example.org/catalog/dcho/25> <https://w3id.org/hcat/vocab/sameAs> <http://www.wikidata.org/entity/Q39614> <https://example.org/catalog/dcho/25/record> .', id="MET-I3-pass"),
    pytest.param("MET-I3", DCHO, _configure(authority_domains=("example.net",)), FAIL, 'no link into the configured authority domains', id="MET-I3-no-authority-link"),
    pytest.param("MET-I3", BARE, _add_bare_object, FAIL, 'no link into the configured authority domains', id="MET-I3-bare-object"),
    pytest.param("MET-R1", DCHO, _unchanged, PASS, '<https://example.org/catalog/dcho/25> <http://purl.org/dc/terms/rightsHolder> "Museo Civico di Esempio" <https://example.org/catalog/dcho/25/record> .', id="MET-R1-pass"),
    pytest.param("MET-R1", DCHO, _drop(DCHO, vocab.DCT_RIGHTS_HOLDER), FAIL, 'no rights-holder statement', id="MET-R1-no-rights-holder"),
    pytest.param("MET-R1", BARE, _add_bare_object, FAIL, 'no rights-holder statement', id="MET-R1-bare-object"),
    pytest.param("MET-R2", DCHO, _unchanged, PASS, '<https://example.org/catalog/dcho/25> <http://purl.org/dc/terms/license> <https://creativecommons.org/licenses/by/4.0/> <https://example.org/catalog/dcho/25/record> .', id="MET-R2-pass"),
    pytest.param("MET-R2", DCHO, _set(DCHO, vocab.DCT_LICENSE, Literal("CC BY 4.0")), PASS, '<https://example.org/catalog/dcho/25> <http://purl.org/dc/terms/license> "CC BY 4.0" <https://example.org/catalog/dcho/25/record> .', id="MET-R2-literal-licence"),
    pytest.param("MET-R2", DCHO, _drop(DCHO, vocab.DCT_LICENSE), FAIL, 'no licence statement', id="MET-R2-no-licence"),
    pytest.param("MET-R2", BARE, _add_bare_object, FAIL, 'no licence statement', id="MET-R2-bare-object"),
    pytest.param("MET-R3", DCHO, _unchanged, PASS, '<https://example.org/catalog/dcho/25> <https://w3id.org/hcat/vocab/holdingInstitution> "Museo Civico di Esempio" <https://example.org/catalog/dcho/25/record> . <https://example.org/catalog/dcho/25> <https://w3id.org/hcat/vocab/producedBy> <https://example.org/catalog/agent/Anna%20Rossi> <https://example.org/catalog/dcho/25/record> . <https://example.org/catalog/dcho/25> <https://w3id.org/hcat/vocab/producedBy> <https://example.org/catalog/agent/Marco%20Bianchi> <https://example.org/catalog/dcho/25/record> .', id="MET-R3-pass"),
    pytest.param("MET-R3", DCHO, _drop(DCHO, vocab.HOLDING_INSTITUTION), FAIL, 'missing holding institution', id="MET-R3-missing-institution"),
    pytest.param("MET-R3", DCHO, _drop(DCHO, vocab.PRODUCED_BY), FAIL, 'missing production agents', id="MET-R3-missing-agents"),
    pytest.param("MET-R3", DCHO, _drop(DCHO, vocab.HOLDING_INSTITUTION, vocab.PRODUCED_BY), FAIL, 'missing holding institution and production agents', id="MET-R3-missing-both"),
    pytest.param("MET-R3", BARE, _add_bare_object, FAIL, 'missing holding institution and production agents', id="MET-R3-bare-object"),
    pytest.param("REC-F1", record_graph(DCHO), _unchanged, PASS, 'record graph <https://example.org/catalog/dcho/25/record>', id="REC-F1-pass"),
    pytest.param("REC-F1", record_graph(BARE), _add_bare_object, PASS, 'record graph <https://example.org/catalog/dcho/bare/record>', id="REC-F1-bare-object"),
    pytest.param("REC-A1", record_graph(DCHO), _unchanged, PASS, 'native record with 24 statement(s)', id="REC-A1-pass"),
    pytest.param("REC-A1", record_graph(BARE), _add_bare_object, PASS, 'native record with 1 statement(s)', id="REC-A1-bare-object"),
    pytest.param("REC-A2", record_graph(DCHO), _unchanged, PASS, '24 statement(s) retrievable via pattern query', id="REC-A2-pass"),
    pytest.param("REC-A2", record_graph(BARE), _add_bare_object, PASS, '1 statement(s) retrievable via pattern query', id="REC-A2-bare-object"),
    pytest.param("REC-I1", record_graph(DCHO), _unchanged, PASS, 'coverage 1.00 (threshold 0.80)', id="REC-I1-pass"),
    pytest.param("REC-I1", record_graph(DCHO), _drop(DCHO, vocab.DCT_TITLE), PASS, 'coverage 0.80 (threshold 0.80)', id="REC-I1-at-threshold"),
    pytest.param("REC-I1", record_graph(DCHO), _drop(DCHO, vocab.DCT_TITLE, vocab.DCT_RIGHTS_HOLDER), FAIL, 'coverage 0.60 (threshold 0.80); missing http://purl.org/dc/terms/rightsHolder, http://purl.org/dc/terms/title', id="REC-I1-below-threshold"),
    pytest.param("REC-I1", record_graph(DCHO), _configure(required_fields=()), PASS, 'coverage 1.00 (threshold 0.80)', id="REC-I1-no-required-fields"),
    pytest.param("REC-I1", record_graph(BARE), _add_bare_object, FAIL, 'coverage 0.20 (threshold 0.80); missing http://purl.org/dc/terms/accessRights, http://purl.org/dc/terms/identifier, http://purl.org/dc/terms/rightsHolder, http://purl.org/dc/terms/title', id="REC-I1-bare-object"),
    pytest.param("REC-R1", record_graph(DCHO), _unchanged, PASS, 'snapshot <https://example.org/catalog/dcho/25/prov/se/1> generated TIME by https://example.org/catalog/agent/operator from file:///gold_bibliographic.csv', id="REC-R1-pass"),
    pytest.param("REC-R1", record_graph(DCHO), _latest_snapshot(attributed_to=()), FAIL, 'latest snapshot <https://example.org/catalog/dcho/25/prov/se/1> lacks agent', id="REC-R1-lacks-agent"),
    pytest.param("REC-R1", record_graph(DCHO), _latest_snapshot(primary_source=None), FAIL, 'latest snapshot <https://example.org/catalog/dcho/25/prov/se/1> lacks primary source', id="REC-R1-lacks-source"),
    pytest.param("REC-R1", record_graph(DCHO), _latest_snapshot(attributed_to=(), primary_source=None), FAIL, 'latest snapshot <https://example.org/catalog/dcho/25/prov/se/1> lacks agent and primary source', id="REC-R1-lacks-both"),
    pytest.param("REC-R1", record_graph(BARE), _add_bare_object, FAIL, "no snapshot chain for the record's entity", id="REC-R1-bare-object"),
    pytest.param("REC-R2", record_graph(DCHO), _unchanged, PASS, 'attributed to https://example.org/catalog/agent/operator', id="REC-R2-pass"),
    pytest.param("REC-R2", record_graph(DCHO), _latest_snapshot(attributed_to=()), FAIL, 'latest snapshot has no attribution', id="REC-R2-no-attribution"),
    pytest.param("REC-R2", record_graph(BARE), _add_bare_object, FAIL, "no snapshot chain for the record's entity", id="REC-R2-bare-object"),
    pytest.param("REC-R3", record_graph(DCHO), _unchanged, PASS, '<https://example.org/catalog/dcho/25> <https://w3id.org/hcat/vocab/recordLicence> <https://creativecommons.org/publicdomain/zero/1.0/> <https://example.org/catalog/dcho/25/record> .', id="REC-R3-pass"),
    pytest.param("REC-R3", record_graph(DCHO), _drop(DCHO, vocab.RECORD_LICENCE), FAIL, 'no record licence IRI statement', id="REC-R3-no-licence"),
    pytest.param("REC-R3", record_graph(DCHO), _set(DCHO, vocab.RECORD_LICENCE, Literal("CC0")), FAIL, 'no record licence IRI statement', id="REC-R3-literal-licence"),
    pytest.param("REC-R3", record_graph(BARE), _add_bare_object, FAIL, 'no record licence IRI statement', id="REC-R3-bare-object"),
]


@pytest.mark.parametrize("check_id, subject, mutate, outcome, evidence", AUDIT_CASES)
def test_check_outcome(gold_catalog, check_id, subject, mutate, outcome, evidence):
    mutate(gold_catalog)
    (result,) = [r for r in run_audit(gold_catalog).results if r.check_id == check_id and r.subject == subject]
    assert (result.outcome, _mask_times(result.evidence)) == (outcome, evidence)


class TestLicenceRemoval:
    def test_flips_exactly_three_checks(self, gold_catalog):
        before = {(r.check_id, r.subject.value): r.outcome for r in run_audit(gold_catalog).results}
        dcho = Iri(BASE + "dcho/25")
        doomed = {q for q in gold_catalog.store.subject_quads(dcho) if q.predicate in LICENCE_PREDICATES}
        assert doomed
        gold_catalog.store.delete_quads(doomed)
        after = {(r.check_id, r.subject.value): r.outcome for r in run_audit(gold_catalog).results}
        flipped = {key for key in before if before[key] != after.get(key)}
        assert flipped == {
            ("OBJ-R2", dcho.value),
            ("MET-R2", dcho.value),
            ("REC-R3", dcho.value + "/record"),
        }
        for key in flipped:
            assert after[key] == FAIL


class TestEmptyCatalog:
    def test_empty_results(self, tmp_path):
        catalog = Catalog.create(tmp_path / "empty")
        report = run_audit(catalog)
        assert report.results == []
        assert all(counts == {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0} for counts in report.summary.values())


class TestMonotonicity:
    def test_random_descriptive_additions_never_flip_pass_to_fail(self, gold_catalog):
        rng = random.Random(2024)
        before = {(r.check_id, r.subject.value): r.outcome for r in run_audit(gold_catalog).results}
        subjects = gold_catalog.objects()
        safe_predicates = [
            vocab.DCT_TITLE, vocab.DCT_DESCRIPTION, vocab.DCT_CREATOR, vocab.DCT_FORMAT,
            vocab.SAME_AS, vocab.STORAGE_LOCATION, vocab.BACKUP_LOCATION, vocab.DCT_ACCESS_RIGHTS,
            vocab.HOLDING_INSTITUTION, vocab.PRODUCED_BY, vocab.REGISTERED_IN,
        ]
        for i in range(100):
            subject = rng.choice(subjects)
            predicate = rng.choice(safe_predicates + [rand_iri(rng, BASE + "extra/")])
            if rng.random() < 0.5:
                obj = Literal(f"extra value {i}")
            else:
                obj = rand_iri(rng, "http://www.wikidata.org/entity/Q")
            graph = Iri(subject.value + "/record") if rng.random() < 0.5 else None
            gold_catalog.store.insert_quads({Quad(subject, predicate, obj, graph)})
        after = {(r.check_id, r.subject.value): r.outcome for r in run_audit(gold_catalog).results}
        for key, outcome in before.items():
            if outcome == PASS:
                assert after[key] == PASS, f"{key} flipped from pass to {after[key]}"


class TestRendering:
    def test_empty_csv_is_header_only(self, tmp_path):
        catalog = Catalog.create(tmp_path / "empty")
        text = render_report(run_audit(catalog), "csv")
        assert text == "check_id,subject,outcome,evidence\n"

    def test_single_result_row_has_four_fields(self, gold_catalog):
        report = run_audit(gold_catalog)
        report.results = report.results[:1]
        text = render_report(report, "csv")
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0] == "check_id,subject,outcome,evidence"

    def test_csv_deterministic(self, gold_catalog):
        a = render_report(run_audit(gold_catalog), "csv")
        b = render_report(run_audit(gold_catalog), "csv")
        assert a == b

    def test_rdf_round_trips_result_count(self, gold_catalog):
        report = run_audit(gold_catalog)
        text = render_report(report, "rdf")
        parse_nquads(text)  # must be valid N-Quads
        assert parse_rdf_report(text) == len(report.results)

    def test_text_mentions_failures(self, gold_catalog):
        dcho = Iri(BASE + "dcho/25")
        doomed = {q for q in gold_catalog.store.subject_quads(dcho) if q.predicate in LICENCE_PREDICATES}
        gold_catalog.store.delete_quads(doomed)
        text = render_report(run_audit(gold_catalog), "text")
        assert "OBJ-R2" in text
        assert "failures: 3" in text

    def test_unknown_format(self, gold_catalog):
        with pytest.raises(UnknownFormat):
            render_report(run_audit(gold_catalog), "yaml")
