"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines.
"""

import hashlib
import random
import threading
import time
import urllib.parse
import urllib.request
from contextlib import contextmanager

import pytest

from conftest import (
    DATA_DIR,
    brute_force_bgp,
    build_gold_catalog,
    forward_replay,
    rand_dataset,
    rand_iri,
    rand_pattern,
    rand_strict_delta,
    ts,
)
from heritage_catalog import vocab
from heritage_catalog.catalog import Catalog
from heritage_catalog.cli import main, make_query_server
from heritage_catalog.fair import FAIL, PASS, check_registry, run_audit
from heritage_catalog.mapping import Table, execute_mapping, load_mapping, load_table
from heritage_catalog.provenance import ProvenanceTracker
from heritage_catalog.rdf import Iri, Literal, Quad, parse_nquads, serialize_nquads
from heritage_catalog.store import Delta, Store, parse_update, serialize_update
from heritage_catalog.workflow import AssetVersion, storage_report, validate_asset

BASE = "https://example.org/catalog/"


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def _random_history(seed: int) -> ProvenanceTracker:
    """10 entities, 50 mixed create/modify/merge/delete events."""
    rng = random.Random(seed)
    tracker = ProvenanceTracker(Store())
    entities = [Iri(f"http://ex.org/e{seed}/{i}") for i in range(10)]
    agent = Iri("http://ex.org/agent")
    unused = list(entities)
    live = []
    clock = [0]

    def tick():
        clock[0] += 1
        return ts(clock[0])

    def quad(entity, salt):
        return Quad(entity, Iri(f"http://ex.org/p{salt % 7}"), Literal(f"v{salt}"))

    events = 0
    while events < 50:
        roll = rng.random()
        if (roll < 0.30 or not live) and unused:
            entity = unused.pop(rng.randrange(len(unused)))
            initial = {quad(entity, rng.randrange(1000)) for _ in range(rng.randrange(1, 4))}
            tracker.record_creation(entity, initial, agent, source=Iri("http://ex.org/src"), time=tick())
            live.append(entity)
        elif roll < 0.75 and live:
            entity = rng.choice(live)
            current = sorted(tracker.current_quads(entity), key=repr)
            deletes = set(rng.sample(current, k=rng.randrange(0, len(current) + 1)))
            inserts = set()
            for _ in range(rng.randrange(0, 3)):
                candidate = quad(entity, rng.randrange(1000))
                if candidate not in tracker.current_quads(entity) and candidate not in deletes:
                    inserts.add(candidate)
            if not deletes and not inserts:
                continue
            tracker.record_modification(entity, Delta(deletes=deletes, inserts=inserts), agent, time=tick())
        elif roll < 0.9 and len(live) >= 2:
            survivor, absorbed = rng.sample(live, 2)
            tracker.record_merge(survivor, absorbed, agent, time=tick())
            live.remove(absorbed)
        elif len(live) >= 2:
            # keep at least one live entity so histories always reach 50 events
            entity = rng.choice(live)
            tracker.record_deletion(entity, agent, time=tick())
            live.remove(entity)
        else:
            continue
        events += 1
    return tracker


def test_provenance_duality():
    with criterion("provenance-duality"):
        started = time.monotonic()
        for seed in range(20):
            tracker = _random_history(seed)
            for entity in tracker.entities():
                chain = tracker.chain(entity)
                deltas = [snap.update_query for snap in chain]
                for k, snap in enumerate(chain, start=1):
                    restored = tracker.restore_state(entity, snap.generated_at)
                    assert restored == forward_replay(deltas[:k]), f"{entity} at snapshot {k}"
                assert tracker.restore_state(entity, ts(-1)) == set()
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"


def test_delta_algebra():
    with criterion("delta-algebra"):
        rng = random.Random(4242)
        for _ in range(1000):
            quads = rand_dataset(rng, rng.randrange(0, 25))
            store = Store(quads)
            before = serialize_nquads(store.quads())
            delta = rand_strict_delta(rng, quads)
            store.apply_delta(delta)
            store.apply_delta(delta.invert())
            assert serialize_nquads(store.quads()) == before
            assert delta.invert().invert() == delta


def test_serialization_round_trips():
    with criterion("serialization-round-trips"):
        rng = random.Random(777)
        dataset = rand_dataset(rng, 1000)
        text = serialize_nquads(dataset)
        assert parse_nquads(text) == dataset           # parse . serialize = id on datasets
        assert serialize_nquads(parse_nquads(text)) == text  # serialize . parse = id on canonical text
        for _ in range(200):
            deletes = rand_dataset(rng, rng.randrange(0, 6))
            inserts = frozenset(rand_dataset(rng, rng.randrange(0, 6))) - deletes
            delta = Delta(deletes=deletes, inserts=inserts)
            assert parse_update(serialize_update(delta)) == delta


def test_mapping_golden_file():
    with criterion("mapping-golden-file"):
        document = load_mapping(DATA_DIR / "golden_mapping.yml")
        table = load_table(DATA_DIR / "golden_source.csv")
        golden = (DATA_DIR / "golden.nt").read_text(encoding="utf-8")
        first = serialize_nquads(execute_mapping(document, [table]))
        second = serialize_nquads(execute_mapping(document, [table]))
        assert first == golden
        assert second == first

        rng = random.Random(31337)
        header = ("id", "title", "type", "creator")
        for _ in range(50):
            rows = [
                (str(i), rng.choice(["Vaso", "Urna", "Moneta", ""]), rng.choice(["vessel", "coin", ""]), rng.choice(["Anon", ""]))
                for i in range(rng.randrange(1, 10))
            ]
            cut = rng.randrange(0, len(rows) + 1)
            full = Table(name=table.name, header=header, rows=tuple(rows))
            left = Table(name=table.name, header=header, rows=tuple(rows[:cut]))
            right = Table(name=table.name, header=header, rows=tuple(rows[cut:]))
            union = execute_mapping(document, [left]) | execute_mapping(document, [right])
            assert union == execute_mapping(document, [full])


def test_constraint_boundaries():
    with criterion("constraint-boundaries"):
        def processed(polygons=700_000, size=10**6):
            return AssetVersion(
                id=Iri(BASE + "asset/x"), dcho=Iri(BASE + "dcho/1"), kind="processed_raw",
                format="OBJ", size_bytes=size, polygon_count=polygons,
            )

        assert validate_asset(processed(polygons=1_000_000), technique="SLS") == []
        over = validate_asset(processed(polygons=1_000_001), technique="SLS")
        assert [v.constraint for v in over] == ["scanned_polygons_max"]
        assert (over[0].observed, over[0].limit) == (1_000_001, 1_000_000)

        def textured(width):
            return AssetVersion(
                id=Iri(BASE + "asset/t"), dcho=Iri(BASE + "dcho/1"), kind="high_poly",
                format="OBJ", size_bytes=1, texture_width=width, texture_height=16_384,
            )

        assert validate_asset(textured(16_384)) == []
        assert [v.constraint for v in validate_asset(textured(16_385))] == ["texture_max_px"]

        limit = 800 * 10**6
        assert validate_asset(processed(size=limit), technique="SLS") == []
        assert [v.constraint for v in validate_asset(processed(size=limit + 1), technique="SLS")] == [
            "sls_processed_max_bytes"
        ]

        def optimised(fmt):
            return AssetVersion(
                id=Iri(BASE + "asset/o"), dcho=Iri(BASE + "dcho/1"), kind="optimised",
                format=fmt, size_bytes=1, polygon_count=50_000,
            )

        assert validate_asset(optimised("GLTF")) == []
        assert validate_asset(optimised("GLB")) == []
        assert [v.constraint for v in validate_asset(optimised("OBJ"))] == ["optimised_formats"]


def test_storage_distribution():
    with criterion("storage-distribution"):
        gig = 10**9
        ratio = {
            "raw_material": 46 * gig,
            "processed_raw": 43 * gig,
            "high_poly": 7 * gig,
            "optimised": gig // 2,
            "documentation": 3 * gig + gig // 2,
        }
        assets = [
            AssetVersion(
                id=Iri(BASE + f"asset/{kind}"), dcho=Iri(BASE + "dcho/1"), kind=kind,
                format="OBJ", size_bytes=size,
                polygon_count=1000 if kind == "optimised" else None,
            )
            for kind, size in ratio.items()
        ]
        report = storage_report(assets)
        expected = {"raw_material": 46.0, "processed_raw": 43.0, "high_poly": 7.0, "optimised": 0.5, "documentation": 3.5}
        for kind, want in expected.items():
            assert abs(report[kind].percent - want) <= 0.1, (kind, report[kind].percent)

        rng = random.Random(606)
        for _ in range(100):
            sample = [
                AssetVersion(
                    id=Iri(BASE + f"asset/r{i}"), dcho=Iri(BASE + "dcho/1"),
                    kind=rng.choice(("raw_material", "processed_raw", "high_poly", "documentation")),
                    format="OBJ", size_bytes=rng.randrange(1, 10**10),
                )
                for i in range(rng.randrange(1, 12))
            ]
            total = sum(share.percent for share in storage_report(sample).values())
            assert abs(total - 100.0) <= 0.2


def test_fair_audit(tmp_path):
    with criterion("fair-audit"):
        catalog = build_gold_catalog(tmp_path / "gold")
        registry = check_registry()
        report = run_audit(catalog)
        assert {r.check_id for r in report.results} == {c.id for c in registry}
        assert [r for r in report.results if r.outcome == FAIL] == []

        before = {(r.check_id, r.subject.value): r.outcome for r in report.results}
        dcho = Iri(BASE + "dcho/25")
        doomed = {
            q for q in catalog.store.subject_quads(dcho)
            if q.predicate in (vocab.DCT_LICENSE, vocab.RECORD_LICENCE)
        }
        catalog.store.delete_quads(doomed)
        after = {(r.check_id, r.subject.value): r.outcome for r in run_audit(catalog).results}
        flipped = {key for key in before if before[key] != after.get(key)}
        assert flipped == {
            ("OBJ-R2", dcho.value),
            ("MET-R2", dcho.value),
            ("REC-R3", dcho.value + "/record"),
        }

        catalog.store.insert_quads(doomed)
        baseline = {(r.check_id, r.subject.value): r.outcome for r in run_audit(catalog).results}
        rng = random.Random(909)
        subjects = catalog.objects()
        descriptive = [
            vocab.DCT_TITLE, vocab.DCT_DESCRIPTION, vocab.DCT_CREATOR, vocab.DCT_FORMAT,
            vocab.SAME_AS, vocab.STORAGE_LOCATION, vocab.BACKUP_LOCATION, vocab.PRODUCED_BY,
        ]
        for i in range(100):
            subject = rng.choice(subjects)
            predicate = rng.choice(descriptive + [rand_iri(rng, BASE + "extra/")])
            obj = Literal(f"x{i}") if rng.random() < 0.5 else rand_iri(rng, "http://www.wikidata.org/entity/Q")
            graph = Iri(subject.value + "/record") if rng.random() < 0.5 else None
            catalog.store.insert_quads({Quad(subject, predicate, obj, graph)})
        enriched = {(r.check_id, r.subject.value): r.outcome for r in run_audit(catalog).results}
        for key, outcome in baseline.items():
            if outcome == PASS:
                assert enriched[key] == PASS, key


def test_query_correctness():
    with criterion("query-correctness"):
        rng = random.Random(11111)
        for _ in range(200):
            quads = rand_dataset(rng, rng.randrange(0, 100))
            store = Store(quads)
            patterns = [rand_pattern(rng, list(quads)) for _ in range(rng.randrange(1, 3))]
            got = store.bgp_query(patterns)
            want = brute_force_bgp(quads, patterns)
            assert sorted(map(repr, got)) == sorted(map(repr, want))
            assert store.bgp_query(patterns) == got  # deterministic ordering


def test_cli_end_to_end(tmp_path, capsys):
    with criterion("cli-end-to-end"):
        root = tmp_path / "catalog"
        assert main(["init", str(root)]) == 0
        assert main(["init", str(root)]) == 2  # documented setup-error code

        argv = ["--catalog", str(root)]
        assert main(argv + ["ingest", str(DATA_DIR / "gold_bibliographic.csv"), "--kind", "bibliographic"]) == 0
        assert main(argv + ["ingest", str(DATA_DIR / "gold_process.csv"), "--kind", "process"]) == 0
        assert main(argv + ["map", str(DATA_DIR / "gold_enrich_mapping.yml"), "gold_bibliographic"]) == 0
        assert main(argv + ["validate"]) == 0
        assert main(argv + ["audit"]) == 0
        assert main(argv + ["prov", "restore", BASE + "dcho/25", "2100-01-01T00:00:00Z"]) == 0
        assert main(argv + ["prov", "log", BASE + "cho/404"]) == 4  # documented unknown-entity code
        assert main(argv + ["map", str(DATA_DIR / "golden_mapping.yml"), "missing_table"]) == 3  # documented input-error code
        capsys.readouterr()

        def digests():
            out = {}
            for path in sorted(root.rglob("*")):
                if path.is_file():
                    out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
            return out

        before = digests()
        assert main(argv + ["audit", "--format", "csv"]) == 0
        assert main(argv + ["validate"]) == 0
        assert main(argv + ["query", "?s ?p ?o"]) == 0
        assert main(argv + ["report", "storage"]) == 0
        assert main(argv + ["report", "status", BASE + "cho/25"]) == 0
        assert main(argv + ["prov", "log", BASE + "cho/25"]) == 0
        assert main(argv + ["prov", "restore", BASE + "cho/25", "2099-01-01T00:00:00Z"]) == 0
        bundle_dir = tmp_path / "deposit"
        assert main(argv + ["report", "bundle", BASE + "dcho/25", str(bundle_dir)]) == 0
        capsys.readouterr()
        assert digests() == before

        manifest_lines = (bundle_dir / "manifest.txt").read_text().splitlines()
        for line in manifest_lines:
            rel, digest, size = line.split("\t")
            data = (bundle_dir / rel).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest and len(data) == int(size)

        catalog = Catalog.open(root)
        server = make_query_server(catalog, 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/health") as response:
                assert response.status == 200
            q = urllib.parse.quote("?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t")
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/query?q={q}") as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith("text/csv")
                assert response.read().decode().splitlines()[0] == "s,t"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"http://127.0.0.1:{port}/query?q=%3Cbad%3E")
            err.value.close()
            assert err.value.code == 400
        finally:
            server.shutdown()
            server.server_close()
