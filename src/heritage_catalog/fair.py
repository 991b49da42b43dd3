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
from collections.abc import Callable
from dataclasses import dataclass, field

from . import vocab
from .catalog import Catalog, record_graph
from .provenance import iso_timestamp
from .rdf import InputError, Iri, Literal, Quad, Term, parse_nquads, serialize_nquads, serialize_quad
from .store import QuadPattern, Variable

LEVELS = ("object", "object_metadata", "metadata_record")
FACETS = ("F", "A", "I", "R")

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not_applicable"
_NO_CHAIN = "no snapshot chain for the record's entity"


class UnknownFormat(InputError):
    pass


@dataclass(frozen=True)
class Check:
    """One checklist cell with its evaluator, ``evaluate(catalog, entity) ->
    (outcome, evidence)``; a digital-only one does not apply to physical objects.
    An asset check is called as ``evaluate(catalog, assets)`` instead, with the
    object's asset records, which an audit builds once per digital object."""

    id: str
    level: str
    facet: str
    description: str
    anchor: str
    evaluate: Callable = field(repr=False, compare=False)
    digital_only: bool = False
    on_assets: bool = False


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


def _quads_evidence(quads, cap: int = 3) -> str:
    shown = sorted(serialize_quad(q) for q in quads)[:cap]
    return " ".join(shown)


def _decided(quads, absent_note: str) -> tuple[str, str]:
    """Pass with the quads as evidence, or fail with the note when there are none."""
    if quads:
        return PASS, _quads_evidence(quads)
    return FAIL, absent_note


def _quads(catalog, entity, predicate=None, kind=Term) -> list[Quad]:
    """The entity's statements (of the predicate, when one is given) whose
    object is an instance of ``kind``."""
    return [q for q in catalog.store.subject_quads(entity, predicate) if isinstance(q.object, kind)]


def _present(predicate: Iri, absent_note: str, kind=Term) -> Callable:
    """The evaluator of "the entity has a value of this predicate that is
    an instance of ``kind``"."""
    return lambda catalog, entity: _decided(_quads(catalog, entity, predicate, kind), absent_note)


def _authority_host(iri: Iri, domains) -> bool:
    rest = iri.value.split("://", 1)
    if len(rest) != 2:
        return False
    host = rest[1].split("/", 1)[0].split("@")[-1].split(":")[0].lower()
    return any(host == d or host.endswith("." + d) for d in domains)


def _described(catalog, entity):
    quads = [q for q in catalog.store.subject_quads(entity) if q.predicate != vocab.RDF_TYPE]
    return _decided(quads, "no descriptive statements")


def _open_access(catalog, entity):
    quads = _quads(catalog, entity, vocab.ACCESS_URL, Iri)
    good = [q for q in quads if q.object.value.split(":", 1)[0].lower() in catalog.config.open_schemes]
    if good:
        return PASS, _quads_evidence(good)
    if quads:
        return FAIL, _quads_evidence(quads) + " (scheme not in open-scheme list)"
    return FAIL, "no access IRI statement"


def _versioned(catalog, assets):
    if assets:
        return PASS, f"{len(assets)} asset version(s): " + ", ".join(a.id.value for a in assets[:3])
    return FAIL, "no asset versions recorded"


def _acceptable_formats(catalog, assets):
    if not assets:
        return NOT_APPLICABLE, "no asset versions recorded"
    acceptable = catalog.config.constraint_profile().acceptable_formats()
    bad = [a for a in assets if a.format not in acceptable]
    if bad:
        return FAIL, "unacceptable format(s): " + ", ".join(f"{a.id.value}={a.format}" for a in bad)
    return PASS, "formats " + ", ".join(sorted({a.format for a in assets})) + " all acceptable"


def _interval(catalog, entity):
    start = catalog.store.subject_quads(entity, vocab.INTERVAL_START)
    end = catalog.store.subject_quads(entity, vocab.INTERVAL_END)
    if start and end:
        return PASS, _quads_evidence(start | end)
    return FAIL, "no timestamp interval (start and end) recorded"


def _states_identifier(catalog, entity):
    stated = [
        q for q in catalog.store.subject_quads(entity, vocab.DCT_IDENTIFIER)
        if (isinstance(q.object, Literal) and q.object.lexical == entity.value) or q.object == entity
    ]
    return _decided(stated, "metadata do not state the object's own identifier")


def _serializations(catalog, entity):
    quads = _quads(catalog, entity, vocab.DCT_FORMAT, Literal)
    distinct = {q.object.lexical for q in quads}
    if len(distinct) >= 2:
        return PASS, _quads_evidence(quads)
    return FAIL, f"{len(distinct)} serialization format(s) listed, need 2"


def _authority_link(catalog, entity):
    domains = catalog.config.authority_domains
    links = [q for q in _quads(catalog, entity, kind=Iri) if _authority_host(q.object, domains)]
    return _decided(links, "no link into the configured authority domains")


def _history(catalog, entity):
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


def _record_retrievable(catalog, entity):
    solutions = catalog.store.match(QuadPattern(Variable("s"), Variable("p"), Variable("o"), record_graph(entity)))
    if solutions:
        return PASS, f"{len(solutions)} statement(s) retrievable via pattern query"
    return FAIL, "record graph not retrievable through the query interface"


def _record_quality(catalog, entity):
    present = {q.predicate.value for q in catalog.store.graph_quads(record_graph(entity)) if q.subject == entity}
    required = catalog.config.required_fields
    covered = [f for f in required if f in present]
    coverage = len(covered) / len(required) if required else 1.0
    note = f"coverage {coverage:.2f} (threshold {catalog.config.quality_threshold:.2f})"
    if coverage >= catalog.config.quality_threshold:
        return PASS, note
    missing = sorted(set(required) - set(covered))
    return FAIL, note + "; missing " + ", ".join(missing)


def _record_provenance(catalog, entity):
    if not catalog.tracker.has_chain(entity):
        return FAIL, _NO_CHAIN
    latest = catalog.tracker.chain(entity)[-1]
    missing = []
    if not latest.attributed_to:
        missing.append("agent")
    if latest.primary_source is None:
        missing.append("primary source")
    if missing:
        return FAIL, f"latest snapshot <{latest.iri.value}> lacks " + " and ".join(missing)
    return PASS, (
        f"snapshot <{latest.iri.value}> generated {iso_timestamp(latest.generated_at)} "
        f"by {latest.attributed_to[0].value} from {latest.primary_source.value}"
    )


def _record_attribution(catalog, entity):
    if not catalog.tracker.has_chain(entity):
        return FAIL, _NO_CHAIN
    latest = catalog.tracker.chain(entity)[-1]
    if latest.attributed_to:
        return PASS, f"attributed to {', '.join(a.value for a in latest.attributed_to)}"
    return FAIL, "latest snapshot has no attribution"


# The checklist: one entry per cell, each with its evaluator.  Storage,
# protocol, versions, backups, formats and timestamps are digital-object
# rows of the checklist, so a purely physical object is out of their scope.
_REGISTRY = (
    Check("OBJ-F1", "object", "F", "object has an IRI-form persistent identifier", "globally unique persistent identifier",
          lambda catalog, entity: (PASS, f"identifier <{entity.value}> is an IRI")),
    Check("OBJ-F2", "object", "F", "object is described by descriptive metadata", "described with metadata", _described),
    Check("OBJ-A1", "object", "A", "sustainable storage location recorded", "sustainable storage (hardware, storage medium)",
          _present(vocab.STORAGE_LOCATION, "no storage location statement"), digital_only=True),
    Check("OBJ-A2", "object", "A", "access IRI uses an open protocol scheme", "open universal access protocols", _open_access, digital_only=True),
    Check("OBJ-A3", "object", "A", "at least one asset version recorded", "version management", _versioned, digital_only=True, on_assets=True),
    Check("OBJ-A4", "object", "A", "backup location recorded", "Backups", _present(vocab.BACKUP_LOCATION, "no backup location statement"), digital_only=True),
    Check("OBJ-I1", "object", "I", "every recorded asset format is acceptable", "preferred or acceptable formats", _acceptable_formats,
          digital_only=True, on_assets=True),
    Check("OBJ-R1", "object", "R", "timestamp interval recorded", "have a date-timestamp", _interval, digital_only=True),
    Check("OBJ-R2", "object", "R", "licence recorded in IRI form", "licence for reuse, which is also available in a machine readable form",
          _present(vocab.DCT_LICENSE, "no licence IRI statement", Iri)),
    Check("MET-F1", "object_metadata", "F", "metadata state the object's persistent identifier",
          "metadata specify the global persistent identifier (PID) of the object", _states_identifier),
    Check("MET-F2", "object_metadata", "F", "repository or catalogue registration recorded", "available via one or more searchable online repositories",
          _present(vocab.REGISTERED_IN, "no repository registration statement")),
    Check("MET-A1", "object_metadata", "A", "access-rights statement present", "availability, obtainability and/or access options",
          _present(vocab.DCT_ACCESS_RIGHTS, "no access-rights statement")),
    Check("MET-I1", "object_metadata", "I", "metadata-schema declaration present", "at least in one metadata schema",
          _present(vocab.DCT_CONFORMS_TO, "no metadata-schema declaration")),
    Check("MET-I2", "object_metadata", "I", "at least two serialization formats listed", "various additional generic standard data formats", _serializations),
    Check("MET-I3", "object_metadata", "I", "external authority link present", "references to other objects/authority files", _authority_link),
    Check("MET-R1", "object_metadata", "R", "rights-holder statement present", "specify the object's rights holder",
          _present(vocab.DCT_RIGHTS_HOLDER, "no rights-holder statement")),
    Check("MET-R2", "object_metadata", "R", "licence statement present", "licence information referring to the object",
          _present(vocab.DCT_LICENSE, "no licence statement")),
    Check("MET-R3", "object_metadata", "R", "object history recorded (institution and production agents)", "specify the object's provenance", _history),
    Check("REC-F1", "metadata_record", "F", "record graph has its own IRI", "their own global persistent identifier",
          lambda catalog, entity: (PASS, f"record graph <{record_graph(entity).value}>")),
    Check("REC-A1", "metadata_record", "A", "record parses as RDF", "machine readable",
          lambda catalog, entity: (PASS, f"native record with {len(catalog.store.graph_quads(record_graph(entity)))} statement(s)")),
    Check("REC-A2", "metadata_record", "A", "record retrievable through the query interface", "accessible using open universal protocols", _record_retrievable),
    Check("REC-I1", "metadata_record", "I", "required-field coverage meets the threshold", "of sufficient quality", _record_quality),
    Check("REC-R1", "metadata_record", "R", "snapshot chain with agent, time and source", "specify the metadata record's provenance", _record_provenance),
    Check("REC-R2", "metadata_record", "R", "responsible agent on latest snapshot", "entity responsible for the metadata record", _record_attribution),
    Check("REC-R3", "metadata_record", "R", "record licence present in IRI form", "their own licence for reuse",
          _present(vocab.RECORD_LICENCE, "no record licence IRI statement", Iri)),
)


def check_registry() -> list[Check]:
    """The fixed check registry, one entry per checklist cell."""
    return list(_REGISTRY)


def run_audit(catalog: Catalog) -> FairReport:
    """Evaluate every registry check against every applicable subject.

    Object- and metadata-level checks run per catalogued object; record-
    level checks run per object metadata record graph.  Thresholds, domains
    and schemes come from the catalog's configuration.  Results come out
    sorted by (subject, check id), so equal catalogs render identically.
    """
    results = []
    summary = {(level, facet): {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0} for level in LEVELS for facet in FACETS}
    graphs = set(catalog.store.named_graphs())
    for entity in catalog.objects():
        digital = vocab.DIGITAL_OBJECT in catalog.store.objects(entity, vocab.RDF_TYPE)
        graph = record_graph(entity)
        assets = catalog.assets_for(entity) if digital else []
        for check in _REGISTRY:
            on_record = check.level == "metadata_record"
            if on_record and graph not in graphs:
                continue
            if check.digital_only and not digital:
                outcome, evidence = NOT_APPLICABLE, "physical object without digital files"
            else:
                outcome, evidence = check.evaluate(catalog, assets if check.on_assets else entity)
            results.append(CheckResult(check.id, graph if on_record else entity, outcome, evidence))
            summary[(check.level, check.facet)][outcome] += 1
    results.sort(key=lambda r: (r.subject.value, r.check_id))
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


_RENDERERS = {"text": _render_text, "csv": _render_csv, "rdf": _render_rdf}


def render_report(report: FairReport, format: str = "text") -> str:
    if format not in _RENDERERS:
        raise UnknownFormat(f"unknown report format {format!r}")
    return _RENDERERS[format](report)


def parse_rdf_report(text: str) -> int:
    """Count result nodes in an RDF rendering (round-trip helper)."""
    quads = parse_nquads(text)
    return len({q.subject for q in quads if q.predicate == vocab.AUDIT_CHECK})
