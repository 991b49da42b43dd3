"""Three-level FAIR audit: objects, object metadata and metadata records.

The registry operationalizes the heritage-collections FAIR checklist as
decidable predicates over the catalog.  Institutional facts (storage,
backups) are audited as recorded claims, mirroring how a data management
plan documents them.  Every result carries the quads (or the absence)
that decided it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from . import vocab
from .catalog import Catalog, record_graph
from .rdf import Iri, Literal, Quad, parse_nquads, serialize_nquads, serialize_quad
from .store import QuadPattern, Variable

LEVELS = ("object", "object_metadata", "metadata_record")
FACETS = ("F", "A", "I", "R")

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not_applicable"


class UnknownFormat(ValueError):
    pass


@dataclass(frozen=True)
class Check:
    id: str
    level: str
    facet: str
    description: str
    anchor: str


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    subject: Iri
    outcome: str
    evidence: str


@dataclass
class FairReport:
    results: list
    summary: dict  # (level, facet) -> {"pass": n, "fail": n, "not_applicable": n}


_REGISTRY = (
    Check("OBJ-F1", "object", "F", "object has an IRI-form persistent identifier", "globally unique persistent identifier"),
    Check("OBJ-F2", "object", "F", "object is described by descriptive metadata", "described with metadata"),
    Check("OBJ-A1", "object", "A", "sustainable storage location recorded", "sustainable storage (hardware, storage medium)"),
    Check("OBJ-A2", "object", "A", "access IRI uses an open protocol scheme", "open universal access protocols"),
    Check("OBJ-A3", "object", "A", "at least one asset version recorded", "version management"),
    Check("OBJ-A4", "object", "A", "backup location recorded", "Backups"),
    Check("OBJ-I1", "object", "I", "every recorded asset format is acceptable", "preferred or acceptable formats"),
    Check("OBJ-R1", "object", "R", "timestamp interval recorded", "have a date-timestamp"),
    Check("OBJ-R2", "object", "R", "licence recorded in IRI form", "licence for reuse, which is also available in a machine readable form"),
    Check("MET-F1", "object_metadata", "F", "metadata state the object's persistent identifier", "metadata specify the global persistent identifier (PID) of the object"),
    Check("MET-F2", "object_metadata", "F", "repository or catalogue registration recorded", "available via one or more searchable online repositories"),
    Check("MET-A1", "object_metadata", "A", "access-rights statement present", "availability, obtainability and/or access options"),
    Check("MET-I1", "object_metadata", "I", "metadata-schema declaration present", "at least in one metadata schema"),
    Check("MET-I2", "object_metadata", "I", "at least two serialization formats listed", "various additional generic standard data formats"),
    Check("MET-I3", "object_metadata", "I", "external authority link present", "references to other objects/authority files"),
    Check("MET-R1", "object_metadata", "R", "rights-holder statement present", "specify the object's rights holder"),
    Check("MET-R2", "object_metadata", "R", "licence statement present", "licence information referring to the object"),
    Check("MET-R3", "object_metadata", "R", "object history recorded (institution and production agents)", "specify the object's provenance"),
    Check("REC-F1", "metadata_record", "F", "record graph has its own IRI", "their own global persistent identifier"),
    Check("REC-A1", "metadata_record", "A", "record parses as RDF", "machine readable"),
    Check("REC-A2", "metadata_record", "A", "record retrievable through the query interface", "accessible using open universal protocols"),
    Check("REC-I1", "metadata_record", "I", "required-field coverage meets the threshold", "of sufficient quality"),
    Check("REC-R1", "metadata_record", "R", "snapshot chain with agent, time and source", "specify the metadata record's provenance"),
    Check("REC-R2", "metadata_record", "R", "responsible agent on latest snapshot", "entity responsible for the metadata record"),
    Check("REC-R3", "metadata_record", "R", "record licence present in IRI form", "their own licence for reuse"),
)

_BY_ID = {check.id: check for check in _REGISTRY}


def check_registry() -> list[Check]:
    """The fixed check registry, one entry per checklist cell."""
    return list(_REGISTRY)


def _quads_evidence(quads, cap: int = 3) -> str:
    shown = sorted(serialize_quad(q) for q in quads)[:cap]
    return " ".join(shown)


def _presence(catalog, subject, predicate, absent_note) -> tuple[str, str]:
    quads = catalog.store.subject_quads(subject, predicate)
    if quads:
        return PASS, _quads_evidence(quads)
    return FAIL, absent_note


def _iri_quads(catalog, subject, predicate) -> list[Quad]:
    return [q for q in catalog.store.subject_quads(subject, predicate) if isinstance(q.object, Iri)]


def _iri_presence(catalog, subject, predicate, absent_note) -> tuple[str, str]:
    quads = _iri_quads(catalog, subject, predicate)
    if quads:
        return PASS, _quads_evidence(quads)
    return FAIL, absent_note


def _authority_host(iri: Iri, domains) -> bool:
    rest = iri.value.split("://", 1)
    if len(rest) != 2:
        return False
    host = rest[1].split("/", 1)[0].split("@")[-1].split(":")[0].lower()
    return any(host == d or host.endswith("." + d) for d in domains)


def _eval_object_check(check_id: str, entity: Iri, catalog: Catalog) -> tuple[str, str]:
    digital = vocab.DIGITAL_OBJECT in catalog.store.objects(entity, vocab.RDF_TYPE)
    # Storage, protocol, versions, backups, formats and timestamps are
    # digital-object rows of the checklist; a purely physical object is
    # out of their scope.
    if not digital and check_id in ("OBJ-A1", "OBJ-A2", "OBJ-A3", "OBJ-A4", "OBJ-I1", "OBJ-R1"):
        return NOT_APPLICABLE, "physical object without digital files"

    if check_id == "OBJ-F1":
        return PASS, f"identifier <{entity.value}> is an IRI"
    if check_id == "OBJ-F2":
        quads = [q for q in catalog.store.subject_quads(entity) if q.predicate != vocab.RDF_TYPE]
        if quads:
            return PASS, _quads_evidence(quads)
        return FAIL, "no descriptive statements"
    if check_id == "OBJ-A1":
        return _presence(catalog, entity, vocab.STORAGE_LOCATION, "no storage location statement")
    if check_id == "OBJ-A2":
        quads = _iri_quads(catalog, entity, vocab.ACCESS_URL)
        good = [q for q in quads if q.object.value.split(":", 1)[0].lower() in catalog.config.open_schemes]
        if good:
            return PASS, _quads_evidence(good)
        if quads:
            return FAIL, _quads_evidence(quads) + " (scheme not in open-scheme list)"
        return FAIL, "no access IRI statement"
    if check_id == "OBJ-A3":
        assets = catalog.assets_for(entity)
        if assets:
            return PASS, f"{len(assets)} asset version(s): " + ", ".join(a.id.value for a in assets[:3])
        return FAIL, "no asset versions recorded"
    if check_id == "OBJ-A4":
        return _presence(catalog, entity, vocab.BACKUP_LOCATION, "no backup location statement")
    if check_id == "OBJ-I1":
        assets = catalog.assets_for(entity)
        if not assets:
            return NOT_APPLICABLE, "no asset versions recorded"
        acceptable = catalog.config.constraint_profile().acceptable_formats()
        bad = [a for a in assets if a.format not in acceptable]
        if bad:
            return FAIL, "unacceptable format(s): " + ", ".join(f"{a.id.value}={a.format}" for a in bad)
        return PASS, "formats " + ", ".join(sorted({a.format for a in assets})) + " all acceptable"
    if check_id == "OBJ-R1":
        start = catalog.store.subject_quads(entity, vocab.INTERVAL_START)
        end = catalog.store.subject_quads(entity, vocab.INTERVAL_END)
        if start and end:
            return PASS, _quads_evidence(start | end)
        return FAIL, "no timestamp interval (start and end) recorded"
    if check_id == "OBJ-R2":
        return _iri_presence(catalog, entity, vocab.DCT_LICENSE, "no licence IRI statement")
    raise KeyError(check_id)


def _eval_metadata_check(check_id: str, entity: Iri, catalog: Catalog) -> tuple[str, str]:
    if check_id == "MET-F1":
        stated = [
            q for q in catalog.store.subject_quads(entity, vocab.DCT_IDENTIFIER)
            if (isinstance(q.object, Literal) and q.object.lexical == entity.value) or q.object == entity
        ]
        if stated:
            return PASS, _quads_evidence(stated)
        return FAIL, "metadata do not state the object's own identifier"
    if check_id == "MET-F2":
        return _presence(catalog, entity, vocab.REGISTERED_IN, "no repository registration statement")
    if check_id == "MET-A1":
        return _presence(catalog, entity, vocab.DCT_ACCESS_RIGHTS, "no access-rights statement")
    if check_id == "MET-I1":
        return _presence(catalog, entity, vocab.DCT_CONFORMS_TO, "no metadata-schema declaration")
    if check_id == "MET-I2":
        quads = [q for q in catalog.store.subject_quads(entity, vocab.DCT_FORMAT) if isinstance(q.object, Literal)]
        distinct = {q.object.lexical for q in quads}
        if len(distinct) >= 2:
            return PASS, _quads_evidence(quads)
        return FAIL, f"{len(distinct)} serialization format(s) listed, need 2"
    if check_id == "MET-I3":
        links = [
            q for q in catalog.store.subject_quads(entity)
            if isinstance(q.object, Iri) and _authority_host(q.object, catalog.config.authority_domains)
        ]
        if links:
            return PASS, _quads_evidence(links)
        return FAIL, "no link into the configured authority domains"
    if check_id == "MET-R1":
        return _presence(catalog, entity, vocab.DCT_RIGHTS_HOLDER, "no rights-holder statement")
    if check_id == "MET-R2":
        return _presence(catalog, entity, vocab.DCT_LICENSE, "no licence statement")
    if check_id == "MET-R3":
        institution = catalog.store.subject_quads(entity, vocab.HOLDING_INSTITUTION)
        producers = catalog.store.subject_quads(entity, vocab.PRODUCED_BY)
        if institution and producers:
            return PASS, _quads_evidence(institution | producers)
        missing = []
        if not institution:
            missing.append("holding institution")
        if not producers:
            missing.append("production agents")
        return FAIL, "missing " + " and ".join(missing)
    raise KeyError(check_id)


def _eval_record_check(check_id: str, entity: Iri, graph: Iri, catalog: Catalog) -> tuple[str, str]:
    if check_id == "REC-F1":
        return PASS, f"record graph <{graph.value}>"
    if check_id == "REC-A1":
        count = len(catalog.store.graph_quads(graph))
        return PASS, f"native record with {count} statement(s)"
    if check_id == "REC-A2":
        solutions = catalog.store.bgp_query([QuadPattern(Variable("s"), Variable("p"), Variable("o"), graph)])
        if solutions:
            return PASS, f"{len(solutions)} statement(s) retrievable via pattern query"
        return FAIL, "record graph not retrievable through the query interface"
    if check_id == "REC-I1":
        present = {q.predicate.value for q in catalog.store.graph_quads(graph) if q.subject == entity}
        required = catalog.config.required_fields
        covered = [f for f in required if f in present]
        coverage = len(covered) / len(required) if required else 1.0
        note = f"coverage {coverage:.2f} (threshold {catalog.config.quality_threshold:.2f})"
        if coverage >= catalog.config.quality_threshold:
            return PASS, note
        missing = sorted(set(required) - set(covered))
        return FAIL, note + "; missing " + ", ".join(missing)
    if check_id == "REC-R1":
        if not catalog.tracker.has_chain(entity):
            return FAIL, "no snapshot chain for the record's entity"
        latest = catalog.tracker.chain(entity)[-1]
        missing = []
        if not latest.attributed_to:
            missing.append("agent")
        if latest.primary_source is None:
            missing.append("primary source")
        if missing:
            return FAIL, f"latest snapshot <{latest.iri.value}> lacks " + " and ".join(missing)
        return PASS, (
            f"snapshot <{latest.iri.value}> generated {latest.generated_at.isoformat()} "
            f"by {latest.attributed_to[0].value} from {latest.primary_source.value}"
        )
    if check_id == "REC-R2":
        if not catalog.tracker.has_chain(entity):
            return FAIL, "no snapshot chain for the record's entity"
        latest = catalog.tracker.chain(entity)[-1]
        if latest.attributed_to:
            return PASS, f"attributed to {', '.join(a.value for a in latest.attributed_to)}"
        return FAIL, "latest snapshot has no attribution"
    if check_id == "REC-R3":
        return _iri_presence(catalog, entity, vocab.RECORD_LICENCE, "no record licence IRI statement")
    raise KeyError(check_id)


def run_audit(catalog: Catalog) -> FairReport:
    """Evaluate every registry check against every applicable subject.

    Object- and metadata-level checks run per catalogued object; record-
    level checks run per object metadata record graph.  Thresholds, domains
    and schemes come from the catalog's configuration.  Results come out
    sorted by (subject, check id), so equal catalogs render identically.
    """
    results = []
    graphs = set(catalog.store.named_graphs())
    for entity, _ in catalog.objects():
        for check in _REGISTRY:
            if check.level == "object":
                outcome, evidence = _eval_object_check(check.id, entity, catalog)
                results.append(CheckResult(check.id, entity, outcome, evidence))
            elif check.level == "object_metadata":
                outcome, evidence = _eval_metadata_check(check.id, entity, catalog)
                results.append(CheckResult(check.id, entity, outcome, evidence))
        graph = record_graph(entity)
        if graph in graphs:
            for check in _REGISTRY:
                if check.level == "metadata_record":
                    outcome, evidence = _eval_record_check(check.id, entity, graph, catalog)
                    results.append(CheckResult(check.id, graph, outcome, evidence))
    results.sort(key=lambda r: (r.subject.value, r.check_id))
    summary = {(level, facet): {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0} for level in LEVELS for facet in FACETS}
    for result in results:
        check = _BY_ID[result.check_id]
        summary[(check.level, check.facet)][result.outcome] += 1
    return FairReport(results=results, summary=summary)


def _render_text(report: FairReport) -> str:
    lines = ["FAIR audit report", "================="]
    for level in LEVELS:
        lines.append(f"{level}:")
        for facet in FACETS:
            counts = report.summary[(level, facet)]
            lines.append(
                f"  {facet}: pass={counts[PASS]} fail={counts[FAIL]} n/a={counts[NOT_APPLICABLE]}"
            )
    failures = [r for r in report.results if r.outcome == FAIL]
    lines.append(f"failures: {len(failures)}")
    for r in failures:
        lines.append(f"  {r.check_id} {r.subject.value}: {r.evidence}")
    return "\n".join(lines) + "\n"


def _render_csv(report: FairReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["check_id", "subject", "outcome", "evidence"])
    for r in report.results:
        writer.writerow([r.check_id, r.subject.value, r.outcome, r.evidence])
    return out.getvalue()


def _render_rdf(report: FairReport) -> str:
    graph = Iri(vocab.AUDIT_NS + "report")
    quads = set()
    for i, r in enumerate(report.results, start=1):
        node = Iri(vocab.AUDIT_NS + f"result/{i:05d}")
        quads.add(Quad(node, vocab.AUDIT_CHECK, Literal(r.check_id), graph))
        quads.add(Quad(node, vocab.AUDIT_SUBJECT, r.subject, graph))
        quads.add(Quad(node, vocab.AUDIT_OUTCOME, Literal(r.outcome), graph))
        quads.add(Quad(node, vocab.AUDIT_EVIDENCE, Literal(r.evidence), graph))
    return serialize_nquads(quads)


def render_report(report: FairReport, format: str = "text") -> str:
    if format == "text":
        return _render_text(report)
    if format == "csv":
        return _render_csv(report)
    if format == "rdf":
        return _render_rdf(report)
    raise UnknownFormat(f"unknown report format {format!r}")


def parse_rdf_report(text: str) -> int:
    """Count result nodes in an RDF rendering (round-trip helper)."""
    quads = parse_nquads(text)
    return len({q.subject for q in quads if q.predicate == vocab.AUDIT_CHECK})
