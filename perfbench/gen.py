"""Seeded synthetic inputs for the catalog benchmark.

Extends the shapes of the gold bibliographic and process tables: every
object has a ``cho`` and a ``dcho`` bibliographic row and the full 8-phase
process (photogrammetry objects add a documentation acquisition row), so
each object carries six or seven asset versions.  Findings are planted at
fixed rates so that ``validate`` and ``audit`` have known answers:

- oversize SLS ``processed_raw`` models,
- SLS ``processed_raw`` polygon counts below or above the scanned range,
- optimised models in an unacceptable format,
- digital objects without a licence or without a backup location.

The expected answers are derived here from the generated rows, without
the catalog code, so they serve as independent oracles.  The same seed
gives the same files and the same expectations.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field
from pathlib import Path

BASE = "https://example.org/catalog/"
DCT = "http://purl.org/dc/terms/"

BIB_HEADER = (
    "id,kind,counterpart,title,type,description,creator,start,end,licence,record_licence,"
    "rights_holder,holding_institution,produced_by,access_rights,access_url,storage,backup,"
    "registered_in,schema,formats,same_as"
).split(",")
PROCESS_HEADER = (
    "object,phase,unit,agents,technique,tools,start,end,inputs,outputs,output_kind,output_format,"
    "output_size_bytes,output_polygons,output_texture,output_checksum,scene_id,target"
).split(",")

PHASES = (
    "acquisition", "processing", "modelling", "optimisation", "export",
    "metadata_creation", "provenance_creation", "upload",
)
ASSET_KINDS = ("raw_material", "processed_raw", "high_poly", "optimised", "documentation")

SLS_MAX_BYTES = 800 * 10**6
POLYGONS_MIN = 500_000
POLYGONS_MAX = 1_000_000

PEOPLE = ("Anna Rossi", "Marco Bianchi", "Luca Neri", "Sara Ferri", "Giulia Verdi", "Paolo Conti", "Elena Gallo")
NOUNS = ("Anfora", "Statuetta", "Lucerna", "Coppa", "Fibula", "Busto", "Moneta", "Stele", "Vaso", "Specchio")
ADJECTIVES = ("a figure nere", "di bronzo", "in terracotta", "dipinta", "votiva", "funeraria", "d'argento", "miniata")
WORKSHOPS = ("Bottega attica", "Ignoto", "Officina etrusca", "Bottega campana", "Maestro di Vulci")
AUTHORITIES = ("http://www.wikidata.org/entity/Q", "http://viaf.org/viaf/")

# Planted findings: one object in ten per kind, at least one of each.
FINDING_RATE = 10


def cho_iri(ident: str) -> str:
    return f"{BASE}cho/{ident}"


def dcho_iri(ident: str) -> str:
    return f"{BASE}dcho/{ident}"


def row_iri(row: dict) -> str:
    """The entity a bibliographic row describes."""
    return cho_iri(row["id"]) if row["kind"] == "cho" else dcho_iri(row["id"])


def asset_iri(token: str) -> str:
    return f"{BASE}asset/{token}"


@dataclass
class SourceObject:
    ident: str
    technique: str  # "SLS" or "photogrammetry"
    findings: set = field(default_factory=set)
    cho_row: dict = field(default_factory=dict)
    dcho_row: dict = field(default_factory=dict)
    process_rows: list = field(default_factory=list)


@dataclass
class Corpus:
    """Generated rows plus the answers the catalog is expected to give."""

    objects: list

    # -- rows ---------------------------------------------------------------

    def bib_rows(self, revision: int = 0) -> list[dict]:
        rows = []
        for obj in self.objects:
            for base in (obj.cho_row, obj.dcho_row):
                row = dict(base)
                if revision:
                    row["description"] = f"{base['description']} (revision {revision})"
                rows.append(row)
        return rows

    def process_rows(self, revision: int = 0) -> list[dict]:
        rows = []
        for obj in self.objects:
            for base in obj.process_rows:
                row = dict(base)
                if revision:
                    row["tools"] = f"{base['tools']} r{revision}"
                rows.append(row)
        return rows

    def write_revision(self, directory: Path, revision: int = 0) -> dict[str, Path]:
        """Write the bibliographic and process tables of one revision."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "bibliographic": directory / "bibliographic.csv",
            "process": directory / "process.csv",
        }
        write_csv(paths["bibliographic"], BIB_HEADER, self.bib_rows(revision))
        write_csv(paths["process"], PROCESS_HEADER, self.process_rows(revision))
        return paths

    # -- expectations --------------------------------------------------------

    def expected_violations(self) -> list[str]:
        """The lines ``validate`` prints, sorted."""
        lines = []
        for obj in self.objects:
            for row in obj.process_rows:
                kind = row["output_kind"]
                if not kind:
                    continue
                asset = asset_iri(row["outputs"])
                size = int(row["output_size_bytes"])
                polygons = int(row["output_polygons"]) if row["output_polygons"] else None
                if kind == "optimised" and row["output_format"] not in ("GLB", "GLTF"):
                    lines.append(f"{asset}: optimised_formats violated (observed {row['output_format']}, limit GLB|GLTF)")
                if kind == "processed_raw" and obj.technique == "SLS":
                    if polygons is not None and polygons < POLYGONS_MIN:
                        lines.append(f"{asset}: scanned_polygons_min violated (observed {polygons}, limit {POLYGONS_MIN})")
                    elif polygons is not None and polygons > POLYGONS_MAX:
                        lines.append(f"{asset}: scanned_polygons_max violated (observed {polygons}, limit {POLYGONS_MAX})")
                    if size > SLS_MAX_BYTES:
                        lines.append(f"{asset}: sls_processed_max_bytes violated (observed {size}, limit {SLS_MAX_BYTES})")
        return sorted(lines)

    def expected_audit_counts(self) -> dict[str, dict[str, int]]:
        """Per check id: how many results pass, fail or are not applicable."""
        counts: dict[str, dict[str, int]] = {}

        def note(check: str, outcome: str):
            counts.setdefault(check, {"pass": 0, "fail": 0, "not_applicable": 0})[outcome] += 1

        always_pass = (
            "OBJ-F1", "OBJ-F2", "MET-F1", "MET-F2", "MET-A1", "MET-I1", "MET-I2", "MET-I3",
            "MET-R1", "MET-R3", "REC-F1", "REC-A1", "REC-A2", "REC-I1", "REC-R1", "REC-R2", "REC-R3",
        )
        for obj in self.objects:
            # The physical object: digital-only object checks do not apply.
            for check in always_pass + ("OBJ-R2", "MET-R2"):
                note(check, "pass")
            for check in ("OBJ-A1", "OBJ-A2", "OBJ-A3", "OBJ-A4", "OBJ-I1", "OBJ-R1"):
                note(check, "not_applicable")
            # The digital object.
            for check in always_pass + ("OBJ-A1", "OBJ-A2", "OBJ-A3", "OBJ-R1"):
                note(check, "pass")
            licence = "fail" if "no_licence" in obj.findings else "pass"
            note("OBJ-R2", licence)
            note("MET-R2", licence)
            note("OBJ-A4", "fail" if "no_backup" in obj.findings else "pass")
            note("OBJ-I1", "fail" if "bad_format" in obj.findings else "pass")
        return counts

    def expected_storage(self) -> dict[str, int]:
        totals = {kind: 0 for kind in ASSET_KINDS}
        for obj in self.objects:
            for row in obj.process_rows:
                if row["output_kind"]:
                    totals[row["output_kind"]] += int(row["output_size_bytes"])
        return totals


def write_csv(path: Path, header, rows):
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    path.write_text(out.getvalue(), encoding="utf-8")


def mapping_text(table: str = "bibliographic") -> str:
    """The enrichment mapping, shaped like the gold one."""
    return (
        "prefixes:\n"
        f"  cat: {BASE}\n"
        f"  inv: {BASE}inventory/\n"
        "mappings:\n"
        "  inventory_numbers:\n"
        f"    sources: [{table}]\n"
        "    s: cat:cho/$(id)\n"
        "    po:\n"
        "      - [inv:number, $(id), xsd:integer]\n"
        "      - [inv:label, fn(lowercase, $(title))]\n"
    )


def _day(rng: random.Random) -> tuple[int, int]:
    return rng.randrange(1, 10), rng.randrange(1, 10)


def _process_rows(rng: random.Random, obj: SourceObject, year: int) -> list[dict]:
    ident = obj.ident
    sls = obj.technique == "SLS"
    lab = "3D Lab" if sls else "Photo Lab"
    people = rng.sample(PEOPLE, 3)
    month = rng.randrange(1, 12)
    day = 1

    def span(length: int) -> tuple[str, str]:
        nonlocal day
        start = f"{year}-{month:02d}-{day:02d}"
        day += length
        end = f"{year}-{month:02d}-{min(day, 28):02d}"
        day = min(day + 1, 28)
        return start, end

    def row(phase, unit, agents, tools, dates, inputs="", outputs="", kind="", fmt="", size="", polygons="", texture="", scene=""):
        return {
            "object": ident, "phase": phase, "unit": unit, "agents": agents,
            "technique": ("SLS" if sls else "photogrammetry") if phase == "acquisition" else "",
            "tools": tools, "start": dates[0], "end": dates[1], "inputs": inputs, "outputs": outputs,
            "output_kind": kind, "output_format": fmt, "output_size_bytes": size,
            "output_polygons": polygons, "output_texture": texture,
            "output_checksum": f"{rng.getrandbits(48):012x}" if kind else "",
            "scene_id": scene, "target": "ATON" if scene else "",
        }

    if "oversize" in obj.findings:
        proc_size = rng.randrange(SLS_MAX_BYTES + 1, 2 * SLS_MAX_BYTES)
    else:
        proc_size = rng.randrange(100 * 10**6, SLS_MAX_BYTES)
    if "polygons_low" in obj.findings:
        proc_polygons = rng.randrange(50_000, POLYGONS_MIN)
    elif "polygons_high" in obj.findings:
        proc_polygons = rng.randrange(POLYGONS_MAX + 1, 3 * POLYGONS_MAX)
    elif sls:
        proc_polygons = rng.randrange(POLYGONS_MIN, POLYGONS_MAX + 1)
    else:
        proc_polygons = rng.randrange(200_000, 3 * POLYGONS_MAX)
    texture = rng.choice(("4096x4096", "8192x8192", "16384x16384"))
    opt_format = "USDZ" if "bad_format" in obj.findings else rng.choice(("GLB", "GLTF"))
    low_poly = rng.randrange(20_000, 150_000)

    acquisition = span(2)
    rows = [row("acquisition", lab, ";".join(people[:2]), "StructuredLight S1" if sls else "Camera D850",
                acquisition, outputs=f"raw-{ident}", kind="raw_material", fmt="PLY" if sls else rng.choice(("TIFF", "RAW")),
                size=str(rng.randrange(50 * 10**6, 600 * 10**6)))]
    if not sls:
        rows.append(row("acquisition", lab, people[0], "Camera D850", acquisition, outputs=f"doc-{ident}",
                        kind="documentation", fmt="JPG", size=str(rng.randrange(10**6, 10 * 10**6))))
    rows += [
        row("processing", lab, people[0], "MeshForge" if sls else "SfM Suite", span(2), f"raw-{ident}", f"proc-{ident}",
            "processed_raw", rng.choice(("OBJ", "FBX")), str(proc_size), str(proc_polygons), texture),
        row("modelling", lab, people[0], "MeshSculpt", span(2), f"proc-{ident}", f"high-{ident}", "high_poly",
            rng.choice(("OBJ", "FBX")), str(rng.randrange(50 * 10**6, 400 * 10**6)),
            str(rng.randrange(POLYGONS_MIN, POLYGONS_MAX)), "8192x8192"),
        row("optimisation", lab, people[1], "MeshSimplify", span(1), f"high-{ident}", f"opt-{ident}", "optimised",
            opt_format, str(rng.randrange(10 * 10**6, 60 * 10**6)), str(low_poly), "4096x4096"),
        row("export", lab, people[1], "MeshExport", span(0), f"opt-{ident}", f"exp-{ident}", "optimised",
            rng.choice(("GLB", "GLTF")), str(rng.randrange(10 * 10**6, 60 * 10**6)), str(low_poly), "4096x4096"),
    ]
    meta = span(1)
    rows += [
        row("metadata_creation", "Data Unit", people[2], "TableTool", meta),
        row("provenance_creation", "Data Unit", people[2], "ProvTool", meta),
        row("upload", "Web Unit", people[2], "SceneUploader", span(0), inputs=f"exp-{ident}", scene=f"SCN{ident}"),
    ]
    return rows


def _bib_rows(rng: random.Random, obj: SourceObject, process_rows: list[dict]) -> tuple[dict, dict]:
    ident = obj.ident
    title = f"{rng.choice(NOUNS)} {rng.choice(ADJECTIVES)} {ident}"
    institution = f"Museo Civico {rng.choice(('di Esempio', 'Archeologico', 'Nazionale'))}"
    licence = "https://creativecommons.org/licenses/by/4.0/"
    record_licence = "https://creativecommons.org/publicdomain/zero/1.0/"
    authority = f"{rng.choice(AUTHORITIES)}{rng.randrange(1000, 999999)}"
    common = {
        "counterpart": "", "start": "", "end": "", "access_url": "", "storage": "", "backup": "",
        "licence": licence, "record_licence": record_licence, "rights_holder": institution,
        "holding_institution": institution, "access_rights": "open access",
        "registered_in": "https://collections.example.org/catalogue",
        "schema": "http://www.cidoc-crm.org/cidoc-crm/", "same_as": authority,
    }
    agents = sorted({a for r in process_rows if r["phase"] == "acquisition" for a in r["agents"].split(";")})
    cho = dict(common, id=ident, kind="cho", title=title, type=rng.choice(("vessel", "sculpture", "lamp", "coin")),
               description=f"{title}: object record {rng.getrandbits(32):08x}", creator=rng.choice(WORKSHOPS),
               produced_by=";".join(agents), formats="application/n-quads;text/csv")
    dcho = dict(common, id=ident, kind="dcho", counterpart=ident, title=f"{title} (modello 3D)", type="3D model",
                description=f"Digital twin of {title.lower()}", creator=process_rows[0]["unit"],
                start=process_rows[0]["start"], end=process_rows[-1]["end"],
                produced_by=";".join(agents), access_url=f"https://viewer.example.org/scenes/SCN{ident}",
                storage=f"nas-01:/archive/dcho/{ident}", backup=f"vault-07:/backup/dcho/{ident}",
                formats="model/gltf-binary;application/n-quads")
    if "no_licence" in obj.findings:
        dcho["licence"] = ""
    if "no_backup" in obj.findings:
        dcho["backup"] = ""
    return cho, dcho


def generate(seed: int, n_objects: int) -> Corpus:
    """Objects with full workflows and planted findings, from one seed."""
    if n_objects < 2:
        raise ValueError("at least two objects are needed (one per technique)")
    rng = random.Random(seed)
    idents = [f"{seed % 1000:03d}{i:04d}" for i in range(n_objects)]
    order = rng.sample(range(n_objects), n_objects)
    sls = set(order[: n_objects // 2])
    objects = [SourceObject(ident, "SLS" if i in sls else "photogrammetry") for i, ident in enumerate(idents)]

    planted = max(1, n_objects // FINDING_RATE)
    sls_objects = [o for o in objects if o.technique == "SLS"]
    picks = rng.sample(sls_objects, min(len(sls_objects), 3 * planted))
    for i, obj in enumerate(picks):
        obj.findings.add(("oversize", "polygons_low", "polygons_high")[i // planted])
    for finding in ("bad_format", "no_licence", "no_backup"):
        for obj in rng.sample(objects, planted):
            obj.findings.add(finding)

    year = 2020 + rng.randrange(4)
    for obj in objects:
        obj.process_rows = _process_rows(rng, obj, year)
        obj.cho_row, obj.dcho_row = _bib_rows(rng, obj, obj.process_rows)
    return Corpus(objects=objects)


def slice_rows(corpus: Corpus, rng: random.Random, write_no: int, rows: int = 2) -> list[dict]:
    """A curation slice: a few bibliographic rows with a new description."""
    picked = rng.sample(corpus.objects, rows)
    out = []
    for obj in picked:
        base = obj.cho_row if rng.random() < 0.5 else obj.dcho_row
        out.append(dict(base, description=f"Curated note {write_no} on {base['kind']} {obj.ident}"))
    return out
