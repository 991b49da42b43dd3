import csv
import errno
import hashlib
import importlib
import os
import re
import socket
import stat
import threading
import urllib.parse
import urllib.request
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from conftest import DATA_DIR, add_twin_asset, build_gold_catalog, ts
import heritage_catalog
from heritage_catalog import store as store_module
from heritage_catalog import vocab
from heritage_catalog.catalog import Catalog, record_graph
from heritage_catalog.cli import main, make_query_server, parse_bgp_text, solutions_to_csv
from heritage_catalog.provenance import ProvenanceTracker, parse_timestamp
from heritage_catalog.rdf import InputError, Iri, Literal, ParseError, Quad, parse_nquads
from heritage_catalog.store import Delta, Store
from heritage_catalog.vocab import GENERATED_AT

BASE = "https://example.org/catalog/"


def run(*argv) -> int:
    return main(list(argv))


def catalog_digests(root: Path) -> dict:
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and "bundles" not in path.parts[len(root.parts):]:
            digests[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.fixture
def gold_root(tmp_path) -> Path:
    root = tmp_path / "gold"
    build_gold_catalog(root)
    return root


class TestInit:
    def test_init_creates_skeleton(self, tmp_path, capsys):
        root = tmp_path / "cat"
        assert run("init", str(root)) == 0
        for name in ("data.nq", "prov.nq", "catalog.cfg"):
            assert (root / name).is_file()
        for sub in ("tables", "mappings", "bundles"):
            assert (root / sub).is_dir()
        assert len(Store.load(root / "data.nq")) == 0

    def test_init_twice_exits_2(self, tmp_path):
        root = tmp_path / "cat"
        assert run("init", str(root)) == 0
        assert run("init", str(root)) == 2


class TestExitCodeByType:
    def test_every_exception_class_is_classified(self):
        """Exit 3 is the code of every ``InputError``: each exception class
        of the package derives from it but the setup and unknown-entity
        errors, which ``main`` maps to 2 and 4."""
        package = Path(heritage_catalog.__file__).parent
        outside = set()
        for path in sorted(package.glob("*.py")):
            module = importlib.import_module(f"heritage_catalog.{path.stem}")
            for name, value in vars(module).items():
                if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.__name__:
                    if not issubclass(value, InputError):
                        outside.add(name)
        assert outside == {"CatalogExists", "NotACatalog", "OutputClash", "NoSuchEntity", "NoSuchObject"}


class TestIngest:
    def test_process_ingest(self, tmp_path, capsys):
        root = tmp_path / "cat"
        run("init", str(root))
        assert run("--catalog", str(root), "ingest", str(DATA_DIR / "gold_bibliographic.csv"), "--kind", "bibliographic") == 0
        assert run("--catalog", str(root), "ingest", str(DATA_DIR / "gold_process.csv"), "--kind", "process") == 0
        out = capsys.readouterr().out
        assert "created=" in out
        catalog = Catalog.open(root)
        assert len(catalog.phases) == 17
        assert len(catalog.assets) == 11

    def test_missing_column_exits_3(self, tmp_path, capsys):
        root = tmp_path / "cat"
        run("init", str(root))
        bad = tmp_path / "bad.csv"
        bad.write_text("object,phase,unit,agents,technique,tools,end\n1,acquisition,Lab,A,SLS,T,2023-01-02\n")
        assert run("--catalog", str(root), "ingest", str(bad), "--kind", "process") == 3
        assert "start" in capsys.readouterr().err

    def test_reingest_only_touches_changed_rows(self, tmp_path):
        root = tmp_path / "cat"
        run("init", str(root))
        first = tmp_path / "bib.csv"
        first.write_text("id,title,type\n1,Alpha,vase\n2,Beta,coin\n")
        assert run("--catalog", str(root), "ingest", str(first), "--kind", "bibliographic") == 0
        catalog = Catalog.open(root)
        # row-hash oracle: identical rows must produce no new snapshots
        chains_before = {e.value: len(catalog.tracker.chain(e)) for e in catalog.tracker.entities()}

        second = tmp_path / "bib.csv"
        second.write_text("id,title,type\n1,Alpha,vase\n2,Beta RENAMED,coin\n")
        assert run("--catalog", str(root), "ingest", str(second), "--kind", "bibliographic") == 0
        catalog = Catalog.open(root)
        chains_after = {e.value: len(catalog.tracker.chain(e)) for e in catalog.tracker.entities()}
        assert chains_after[BASE + "cho/1"] == chains_before[BASE + "cho/1"] == 1
        assert chains_after[BASE + "cho/2"] == 2

    def test_failed_ingest_leaves_the_catalog_unchanged(self, tmp_path, capsys):
        root = tmp_path / "cat"
        run("init", str(root))
        table = DATA_DIR / "gold_bibliographic.csv"
        assert run("--catalog", str(root), "ingest", str(table), "--kind", "bibliographic") == 0
        # The same table name, with the id cell of its second row emptied.
        header, first, second, *rest = table.read_text(encoding="utf-8").splitlines(keepends=True)
        broken = tmp_path / "revised" / table.name
        broken.parent.mkdir()
        broken.write_text("".join([header, first, "," + second.split(",", 1)[1], *rest]), encoding="utf-8")
        before = catalog_digests(root)
        capsys.readouterr()
        assert run("--catalog", str(root), "ingest", str(broken), "--kind", "bibliographic") == 3
        assert "row 2: empty id cell" in capsys.readouterr().err
        assert catalog_digests(root) == before

    def test_unchanged_reingest_is_noop(self, gold_root):
        catalog = Catalog.open(gold_root)
        before = {e.value: len(catalog.tracker.chain(e)) for e in catalog.tracker.entities()}
        assert run("--catalog", str(gold_root), "ingest", str(DATA_DIR / "gold_process.csv"), "--kind", "process") == 0
        catalog = Catalog.open(gold_root)
        after = {e.value: len(catalog.tracker.chain(e)) for e in catalog.tracker.entities()}
        assert before == after


class TestMap:
    def _prepared(self, tmp_path):
        root = tmp_path / "cat"
        run("init", str(root))
        run("--catalog", str(root), "ingest", str(DATA_DIR / "golden_source.csv"), "--kind", "bibliographic")
        return root

    def test_golden_counts(self, tmp_path, capsys):
        root = self._prepared(tmp_path)
        capsys.readouterr()
        assert run("--catalog", str(root), "map", str(DATA_DIR / "golden_mapping.yml"), "golden_source") == 0
        out = capsys.readouterr().out
        # 17 golden statements, minus the three titles already ingested as dct:title
        golden = parse_nquads((DATA_DIR / "golden.nt").read_text())
        catalog = Catalog.open(root)
        assert golden <= catalog.store.quads()
        assert out.startswith("quads=")
        assert "entities=3" in out

    def test_rerun_reports_zero_new(self, tmp_path, capsys):
        root = self._prepared(tmp_path)
        run("--catalog", str(root), "map", str(DATA_DIR / "golden_mapping.yml"), "golden_source")
        capsys.readouterr()
        assert run("--catalog", str(root), "map", str(DATA_DIR / "golden_mapping.yml"), "golden_source") == 0
        assert "quads=0 entities=0" in capsys.readouterr().out

    def test_unknown_table_exits_3(self, tmp_path):
        root = self._prepared(tmp_path)
        assert run("--catalog", str(root), "map", str(DATA_DIR / "golden_mapping.yml"), "nope") == 3

    def test_failed_map_leaves_the_catalog_unchanged(self, tmp_path, capsys):
        root = self._prepared(tmp_path)
        mapping = DATA_DIR / "golden_mapping.yml"
        assert run("--catalog", str(root), "map", str(mapping), "golden_source") == 0
        # The same mapping name; its subject template now expands to no IRI.
        broken = tmp_path / "revised" / mapping.name
        broken.parent.mkdir()
        broken.write_text(mapping.read_text(encoding="utf-8").replace("s: ex:cho/$(id)", "s: $(title)"), encoding="utf-8")
        before = catalog_digests(root)
        capsys.readouterr()
        assert run("--catalog", str(root), "map", str(broken), "golden_source") == 3
        assert "is not a valid IRI" in capsys.readouterr().err
        assert catalog_digests(root) == before

    def test_fresh_catalog_map_matches_golden_exactly(self, tmp_path, capsys):
        root = tmp_path / "cat"
        run("init", str(root))
        table_src = DATA_DIR / "golden_source.csv"
        stored = root / "tables" / "golden_source.csv"
        stored.write_bytes(table_src.read_bytes())
        capsys.readouterr()
        assert run("--catalog", str(root), "map", str(DATA_DIR / "golden_mapping.yml"), "golden_source") == 0
        assert "quads=17 entities=3" in capsys.readouterr().out

    @pytest.mark.parametrize("name, source", [
        ("golden_mapping.yml", "file:///golden_mapping.yml"),
        ("my map.yml", "file:///my%20map.yml"),
        ("carta_è.yml", "file:///carta_%C3%A8.yml"),
    ])
    def test_mapping_file_name_is_percent_encoded_in_its_source(self, tmp_path, name, source):
        root = self._prepared(tmp_path)
        mapping = tmp_path / name
        mapping.write_bytes((DATA_DIR / "golden_mapping.yml").read_bytes())
        assert run("--catalog", str(root), "map", str(mapping), "golden_source") == 0
        assert (root / "mappings" / name).read_bytes() == mapping.read_bytes()
        assert f"<{source}>" in (root / "prov.nq").read_text(encoding="utf-8")


class TestSnapshotClock:
    def test_no_snapshot_is_stamped_ahead_of_the_clock(self, gold_root):
        # The gold ingest writes one snapshot for each of 32 entities in one
        # batch; none may carry a time later than the clock read after it.
        now = datetime.now(timezone.utc)
        prov = parse_nquads((gold_root / "prov.nq").read_text(encoding="utf-8"))
        generated = [parse_timestamp(q.object.lexical) for q in prov if q.predicate == GENERATED_AT]
        assert len(generated) == 32
        assert max(generated) <= now + timedelta(seconds=1)


class TestProv:
    def test_log_of_fresh_entity(self, gold_root, capsys):
        assert run("--catalog", str(gold_root), "prov", "log", BASE + "cho/25") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("1 creation ")

    def test_restore_before_creation_is_empty(self, gold_root, capsys):
        assert run("--catalog", str(gold_root), "prov", "restore", BASE + "cho/25", "2000-01-01T00:00:00Z") == 0
        assert capsys.readouterr().out == ""

    def test_restore_now_matches_current(self, gold_root, capsys):
        catalog = Catalog.open(gold_root)
        entity = Iri(BASE + "cho/25")
        assert run("--catalog", str(gold_root), "prov", "restore", entity.value, "2100-01-01T00:00:00Z") == 0
        state = parse_nquads(capsys.readouterr().out)
        assert state == catalog.store.subject_quads(entity)

    def test_restore_mid_history_matches_forward_replay(self, gold_root, capsys):
        from conftest import forward_replay
        from heritage_catalog.provenance import iso_timestamp
        from heritage_catalog.store import Delta
        from heritage_catalog.rdf import Literal, Quad

        catalog = Catalog.open(gold_root)
        entity = Iri(BASE + "cho/25")
        extra = Quad(entity, Iri(BASE + "note"), Literal("later edit"), Iri(entity.value + "/record"))
        catalog.tracker.record_modification(entity, Delta(inserts={extra}), catalog.config.agent_iri())
        catalog.save()
        chain = catalog.tracker.chain(entity)
        assert len(chain) == 2
        capsys.readouterr()
        moment = iso_timestamp(chain[0].generated_at)
        assert run("--catalog", str(gold_root), "prov", "restore", entity.value, moment) == 0
        restored = parse_nquads(capsys.readouterr().out)
        assert restored == forward_replay([chain[0].update_query])
        assert extra not in restored

    def test_unknown_entity_exits_4(self, gold_root):
        assert run("--catalog", str(gold_root), "prov", "log", BASE + "cho/404") == 4

    def test_bad_timestamp_exits_3(self, gold_root):
        assert run("--catalog", str(gold_root), "prov", "restore", BASE + "cho/25", "not-a-time") == 3


def _set_first_generation_time(root: Path, text: str):
    """Hand-edit the generation time of cho/25's first snapshot in prov.nq."""
    prov = root / "prov.nq"
    lines = prov.read_text(encoding="utf-8").splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(f"<{BASE}cho/25/prov/se/1> <{GENERATED_AT.value}> "))
    lines[i] = re.sub(r'"[^"]*"', f'"{text}"', lines[i], count=1)
    prov.write_text("".join(lines), encoding="utf-8")


def _retitled_table(tmp_path: Path) -> Path:
    """The gold bibliographic table with cho/25's title changed, so that
    ingesting it extends cho/25's chain."""
    table = tmp_path / "gold_bibliographic.csv"
    text = (DATA_DIR / "gold_bibliographic.csv").read_text(encoding="utf-8")
    table.write_text(text.replace("Anfora a figure nere", "Anfora attica", 1), encoding="utf-8")
    return table


class TestTimeRange:
    """A time that ``datetime`` cannot hold in UTC, or a chain that no
    later second can extend, is an input error that changes no file; a
    year below 1000 is written in four digits and read back."""

    LAST_SECOND = "9999-12-31T23:59:59"

    @pytest.mark.parametrize("case", ["restore-argument", "hand-edited-offset", "chain-at-last-second"])
    def test_out_of_range_exits_3(self, gold_root, tmp_path, capsys, case):
        argv = ("ingest", str(_retitled_table(tmp_path)), "--kind", "bibliographic")
        if case == "restore-argument":
            argv = ("prov", "restore", BASE + "cho/25", self.LAST_SECOND + "-01:00")
            message = f"bad timestamp '{self.LAST_SECOND}-01:00': "
        elif case == "hand-edited-offset":
            _set_first_generation_time(gold_root, self.LAST_SECOND + "-01:00")
            message = f"bad timestamp '{self.LAST_SECOND}-01:00': "
        else:
            _set_first_generation_time(gold_root, self.LAST_SECOND + "Z")
            message = f"no record can come after {BASE}cho/25/prov/se/1, generated {self.LAST_SECOND}Z"
        before = catalog_digests(gold_root)
        capsys.readouterr()
        assert run("--catalog", str(gold_root), *argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err.splitlines()) == 1
        assert catalog_digests(gold_root) == before

    def test_year_below_1000_survives_a_write(self, gold_root, tmp_path, capsys):
        _set_first_generation_time(gold_root, "0999-10-19T07:46:36Z")
        assert run("--catalog", str(gold_root), "ingest", str(_retitled_table(tmp_path)), "--kind", "bibliographic") == 0
        assert '"0999-10-19T07:46:36Z"' in (gold_root / "prov.nq").read_text(encoding="utf-8")
        capsys.readouterr()
        assert run("--catalog", str(gold_root), "prov", "log", BASE + "cho/25") == 0
        first, second = capsys.readouterr().out.splitlines()
        assert first.startswith("1 creation 0999-10-19T07:46:36Z ")
        assert second.startswith("2 modification ")


class TestAudit:
    def test_gold_exits_0(self, gold_root):
        assert run("--catalog", str(gold_root), "audit") == 0

    def test_missing_licences_exit_1_with_rows(self, gold_root, capsys):
        catalog = Catalog.open(gold_root)
        dcho = Iri(BASE + "dcho/26")
        doomed = {
            q for q in catalog.store.subject_quads(dcho)
            if q.predicate.value in ("http://purl.org/dc/terms/license", "https://w3id.org/hcat/vocab/recordLicence")
        }
        catalog.store.delete_quads(doomed)
        catalog.save()
        capsys.readouterr()
        assert run("--catalog", str(gold_root), "audit", "--format", "csv") == 1
        out = capsys.readouterr().out
        for check_id in ("OBJ-R2", "MET-R2", "REC-R3"):
            assert sum(1 for line in out.splitlines() if line.startswith(check_id) and ",fail," in line) == 1

    def test_rdf_format_parses(self, gold_root, capsys):
        assert run("--catalog", str(gold_root), "audit", "--format", "rdf") == 0
        parse_nquads(capsys.readouterr().out)

    def test_unknown_format_exits_3(self, gold_root):
        assert run("--catalog", str(gold_root), "audit", "--format", "yaml") == 3


class TestValidate:
    def test_gold_is_compliant(self, gold_root):
        assert run("--catalog", str(gold_root), "validate") == 0

    def test_violation_exits_1(self, gold_root, capsys):
        catalog = Catalog.open(gold_root)
        asset = next(a for a in catalog.assets if a.id.value.endswith("proc-25"))
        from heritage_catalog import vocab
        from heritage_catalog.rdf import Literal, Quad

        old = {q for q in catalog.store.subject_quads(asset.id) if q.predicate == vocab.POLYGON_COUNT}
        (old_quad,) = old
        catalog.store.delete_quads(old)
        catalog.store.insert_quads({Quad(asset.id, vocab.POLYGON_COUNT, Literal("1000001", datatype=vocab.XSD_INTEGER), old_quad.graph)})
        catalog.save()
        capsys.readouterr()
        assert run("--catalog", str(gold_root), "validate") == 1
        out = capsys.readouterr().out
        assert "scanned_polygons_max" in out
        assert "1000001" in out

    def test_empty_catalog_exits_0(self, tmp_path):
        root = tmp_path / "cat"
        run("init", str(root))
        assert run("--catalog", str(root), "validate") == 0


class TestQuery:
    def test_type_query_matches_brute_force(self, gold_root, capsys):
        pattern = "?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t"
        assert run("--catalog", str(gold_root), "query", pattern) == 0
        out = capsys.readouterr().out
        catalog = Catalog.open(gold_root)
        expected = sum(
            1 for q in catalog.store.quads() if q.predicate.value == "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
        )
        assert len(out.splitlines()) == expected + 1  # header line

    def test_malformed_pattern_exits_3(self, gold_root):
        assert run("--catalog", str(gold_root), "query", "<only-two> <terms>") == 3

    def test_csv_deterministic(self, gold_root, capsys):
        pattern = "?s ?p ?o"
        run("--catalog", str(gold_root), "query", pattern)
        first = capsys.readouterr().out
        run("--catalog", str(gold_root), "query", pattern)
        assert capsys.readouterr().out == first


class TestHttpEndpoint:
    @pytest.fixture
    def server(self, gold_root):
        catalog = Catalog.open(gold_root)
        server = make_query_server(catalog, 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{server.server_address[1]}"
        server.shutdown()
        server.server_close()

    def test_health(self, server):
        with urllib.request.urlopen(server + "/health") as response:
            assert response.status == 200

    def test_query_returns_csv(self, server, gold_root):
        q = urllib.parse.quote("?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t")
        with urllib.request.urlopen(f"{server}/query?q={q}") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/csv")
            body = response.read().decode()
        assert body.splitlines()[0] == "s,t"

    def test_bad_query_is_400(self, server):
        q = urllib.parse.quote("<one>")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{server}/query?q={q}")
        err.value.close()
        assert err.value.code == 400

    def test_zero_solutions_empty_body(self, server):
        q = urllib.parse.quote("?s <http://nowhere.example.org/p> ?o")
        with urllib.request.urlopen(f"{server}/query?q={q}") as response:
            assert response.status == 200
            assert response.read() == b""


class TestServeSetup:
    """A port that cannot be bound is a setup error; no server starts."""

    def _serve(self, tmp_path, capsys, port: int) -> tuple[int, str]:
        root = tmp_path / "cat"
        assert run("init", str(root)) == 0
        capsys.readouterr()
        code = run("--catalog", str(root), "query", "--serve", "--port", str(port))
        return code, capsys.readouterr().err

    def test_port_in_use_exits_2(self, tmp_path, capsys):
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            code, err = self._serve(tmp_path, capsys, port)
        assert code == 2
        assert err.startswith(f"error: cannot serve on 127.0.0.1:{port}: ")

    def test_port_out_of_range_exits_2(self, tmp_path, capsys):
        code, err = self._serve(tmp_path, capsys, 70000)
        assert code == 2
        assert err.startswith("error: cannot serve on 127.0.0.1:70000: ")


class TestConfigLimits:
    """Constraint limits are checked when catalog.cfg is read."""

    @pytest.mark.parametrize("limits", [
        {"scanned_polygons_min": "900", "scanned_polygons_max": "10"},
        {"scanned_polygons_min": "0"},
        {"texture_max_px": "-1"},
        {"sls_processed_max_bytes": "0"},
    ])
    @pytest.mark.parametrize("command", [("validate",), ("audit",), ("query", "?s ?p ?o")])
    def test_bad_limits_exit_3(self, tmp_path, capsys, limits, command):
        root = tmp_path / "cat"
        assert run("init", str(root)) == 0
        cfg = root / "catalog.cfg"
        text = cfg.read_text()
        for key, value in limits.items():
            text = re.sub(rf"(?m)^{key}=.*$", f"{key}={value}", text)
        cfg.write_text(text)
        capsys.readouterr()
        assert run("--catalog", str(root), *command) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: constraint limits: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestQualityThreshold:
    """The quality threshold is a coverage share, so it must lie in [0, 1]."""

    @pytest.mark.parametrize("value, code", [("nan", 3), ("inf", 3), ("-0.1", 3), ("1.5", 3), ("1", 0)])
    def test_threshold_must_lie_in_the_unit_interval(self, tmp_path, capsys, value, code):
        root = tmp_path / "cat"
        assert run("init", str(root)) == 0
        cfg = root / "catalog.cfg"
        cfg.write_text(re.sub(r"(?m)^quality_threshold=.*$", f"quality_threshold={value}", cfg.read_text()))
        capsys.readouterr()
        assert run("--catalog", str(root), "validate") == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else f"error: quality_threshold must be a number from 0 to 1, got {float(value)!r}\n")


class TestConfigKeys:
    def test_key_given_twice_exits_3(self, tmp_path, capsys):
        root = tmp_path / "cat"
        assert run("init", str(root)) == 0
        cfg = root / "catalog.cfg"
        text = cfg.read_text()
        assert "scanned_polygons_min=500000\n" in text
        cfg.write_text(text + "scanned_polygons_min=0\n")
        capsys.readouterr()
        assert run("--catalog", str(root), "validate") == 3
        line = len(text.splitlines()) + 1
        assert capsys.readouterr().err == f"error: config line {line} gives key 'scanned_polygons_min' a second time\n"


class TestReport:
    def test_storage_percentages(self, gold_root, capsys):
        assert run("--catalog", str(gold_root), "report", "storage") == 0
        out = capsys.readouterr().out
        assert "raw_material" in out
        total = sum(float(line.split("percent=")[1]) for line in out.strip().splitlines())
        assert abs(total - 100.0) <= 0.2

    def test_status_vector(self, gold_root, capsys):
        assert run("--catalog", str(gold_root), "report", "status", BASE + "cho/25") == 0
        out = capsys.readouterr().out
        assert out.count("complete") == 8

    def test_status_unknown_object_exits_4(self, gold_root):
        assert run("--catalog", str(gold_root), "report", "status", BASE + "cho/404") == 4

    def test_bundle_digests_verify(self, gold_root, tmp_path, capsys):
        out_dir = tmp_path / "deposit"
        assert run("--catalog", str(gold_root), "report", "bundle", BASE + "dcho/25", str(out_dir)) == 0
        manifest = (out_dir / "manifest.txt").read_text().splitlines()
        assert manifest
        for line in manifest:
            path, digest, size = line.split("\t")
            data = (out_dir / path).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
            assert int(size) == len(data)

    def test_bundle_placeholder_clash_exits_3(self, gold_root, tmp_path, capsys):
        catalog = Catalog.open(gold_root)
        add_twin_asset(catalog, Iri(BASE + "dcho/25"))
        catalog.save()
        out_dir = tmp_path / "deposit"
        assert run("--catalog", str(gold_root), "report", "bundle", BASE + "dcho/25", str(out_dir)) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "would both be written to assets/" in err[0]
        assert not out_dir.exists()


class TestOutputOnAFile:
    """An output path that is a plain file, or lies under one, or a bundle
    path that is a directory where the bundle writes a file, is a setup
    error: exit 2 with one line naming the path, and nothing written."""

    @pytest.mark.parametrize("command", [
        ("init", "{file}"),
        ("init", "{file}/catalog"),
        ("--catalog", "{gold}", "report", "bundle", BASE + "dcho/25", "{file}"),
        ("--catalog", "{gold}", "report", "bundle", BASE + "dcho/25", "{file}/deposit"),
    ], ids=["init-on-file", "init-under-file", "bundle-on-file", "bundle-under-file"])
    def test_exits_2(self, gold_root, tmp_path, capsys, command):
        plain = tmp_path / "plain"
        plain.write_text("not a directory\n", encoding="utf-8")
        before = catalog_digests(gold_root), sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run(*(part.format(file=plain, gold=gold_root) for part in command)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(plain) in err[0]
        assert (catalog_digests(gold_root), sorted(tmp_path.rglob("*"))) == before
        assert plain.read_text(encoding="utf-8") == "not a directory\n"

    @pytest.mark.parametrize("taken, make", [
        ("assets", lambda path: path.write_text("not a directory\n", encoding="utf-8")),
        ("descriptor.txt", lambda path: path.mkdir()),
        ("manifest.txt", lambda path: path.mkdir()),
    ], ids=["assets-is-a-file", "descriptor-is-a-directory", "manifest-is-a-directory"])
    def test_bundle_path_taken_exits_2(self, gold_root, tmp_path, capsys, taken, make):
        out_dir = tmp_path / "deposit"
        out_dir.mkdir()
        make(out_dir / taken)
        before = catalog_digests(gold_root), sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run("--catalog", str(gold_root), "report", "bundle", BASE + "dcho/25", str(out_dir)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(out_dir / taken) in err[0]
        assert (catalog_digests(gold_root), sorted(tmp_path.rglob("*"))) == before


_INGEST = ("ingest", str(DATA_DIR / "gold_bibliographic.csv"), "--kind", "bibliographic")


class TestUndecodableInput:
    """A file that is not UTF-8, a directory given as a file and a CSV cell
    over the ``csv`` module's field size limit are input errors that name
    the file or table, and a write command that reads one changes no
    catalog file."""

    @pytest.mark.parametrize("name, command", [
        ("gold_bibliographic.csv", ("ingest", "{bad}", "--kind", "bibliographic")),
        ("gold_enrich_mapping.yml", ("map", "{bad}", "gold_bibliographic")),
        ("data.nq", _INGEST),
        ("prov.nq", _INGEST),
        ("catalog.cfg", _INGEST),
        ("directory", ("ingest", "{bad}", "--kind", "bibliographic")),
        ("directory", ("map", "{bad}", "gold_bibliographic")),
        ("oversized-cell.csv", ("ingest", "{bad}", "--kind", "bibliographic")),
    ])
    def test_non_utf8_file_exits_3(self, gold_root, tmp_path, capsys, name, command):
        # A catalog file is spoiled in place, an input file in a copy.
        bad = gold_root / name if (gold_root / name).exists() else tmp_path / name
        if name == "directory":
            bad.mkdir()
            message = f"cannot read {bad}: "
        elif name == "oversized-cell.csv":
            bad.write_text("id,title\n25," + "x" * (csv.field_size_limit() + 1) + "\n", encoding="utf-8")
            message = "table 'oversized-cell' line 2: "
        else:
            source = bad if bad.exists() else DATA_DIR / name
            bad.write_bytes(source.read_bytes().replace(b"e", b"\xe9", 1))
            message = f"{bad} is not UTF-8: "
        before = catalog_digests(gold_root)
        capsys.readouterr()
        assert run("--catalog", str(gold_root), *(part.format(bad=bad) for part in command)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err.splitlines()) == 1
        assert catalog_digests(gold_root) == before


class TestReadOnlyCommands:
    def test_catalog_bytes_untouched(self, gold_root, tmp_path, capsys):
        before = catalog_digests(gold_root)
        run("--catalog", str(gold_root), "audit")
        run("--catalog", str(gold_root), "audit", "--format", "rdf")
        run("--catalog", str(gold_root), "validate")
        run("--catalog", str(gold_root), "query", "?s ?p ?o")
        run("--catalog", str(gold_root), "report", "storage")
        run("--catalog", str(gold_root), "report", "status", BASE + "cho/25")
        run("--catalog", str(gold_root), "report", "bundle", BASE + "dcho/25", str(tmp_path / "b"))
        run("--catalog", str(gold_root), "prov", "log", BASE + "cho/25")
        run("--catalog", str(gold_root), "prov", "restore", BASE + "cho/25", "2023-06-01T00:00:00Z")
        assert catalog_digests(gold_root) == before


class TestCorruptProvenance:
    def test_every_open_checks_every_chain(self, gold_root, capsys):
        prov = gold_root / "prov.nq"
        lines = prov.read_text(encoding="utf-8").splitlines(keepends=True)
        target = next(
            i for i, line in enumerate(lines)
            if "hasUpdateQuery" in line and not line.startswith(f"<{BASE}cho/25/")
        )
        subject, predicate, _ = lines[target].split(" ", 2)
        graph = lines[target].rsplit(" ", 2)[-2]
        lines[target] = f'{subject} {predicate} "INSERT DATA {{ oops" {graph} .\n'
        prov.write_text("".join(lines), encoding="utf-8")
        before = catalog_digests(gold_root)
        capsys.readouterr()
        for argv in (
            ("report", "status", BASE + "cho/25"),
            ("query", "?s ?p ?o"),
            ("prov", "log", BASE + "cho/25"),
        ):
            assert run("--catalog", str(gold_root), *argv) == 3, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unexpected token 'oops' in data block" in captured.err
        assert catalog_digests(gold_root) == before

    def test_a_broken_update_query_names_its_snapshot(self, gold_root, capsys):
        prov = gold_root / "prov.nq"
        lines = prov.read_text(encoding="utf-8").splitlines(keepends=True)
        target = next(i for i, line in enumerate(lines) if "hasUpdateQuery" in line)
        subject, predicate, _ = lines[target].split(" ", 2)
        graph = lines[target].rsplit(" ", 2)[-2]
        lines[target] = f'{subject} {predicate} "INSERT DATA {{ oops" {graph} .\n'
        prov.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run("--catalog", str(gold_root), "report", "status", BASE + "cho/25") == 3
        assert capsys.readouterr().err == (
            f"error: {subject[1:-1]} has a broken update query: line 1, column 19: unexpected token 'oops' in data block\n"
        )


    # Lines a save would drop without a word: a statement in the default
    # graph or in a graph of no chain, and a chain graph holding no snapshot.
    @pytest.mark.parametrize("line, message", [
        ('<http://ex.org/s> <http://ex.org/p> "x" .', "statement outside any snapshot chain, in the default graph"),
        ('<http://ex.org/s> <http://ex.org/p> "x" <http://ex.org/g> .', "statement outside any snapshot chain, in graph http://ex.org/g"),
        (f'<http://ex.org/s> <http://ex.org/p> "x" <{BASE}cho/99/prov> .', f"{BASE}cho/99 has an empty snapshot chain"),
    ], ids=["default-graph", "foreign-graph", "empty-chain"])
    def test_statements_outside_a_chain_are_refused(self, gold_root, capsys, line, message):
        prov = gold_root / "prov.nq"
        prov.write_text(prov.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        before = catalog_digests(gold_root)
        capsys.readouterr()
        for argv in (
            ("prov", "log", BASE + "cho/99"),
            ("prov", "restore", BASE + "cho/99", "2023-06-01T00:00:00Z"),
            ("ingest", str(DATA_DIR / "gold_bibliographic.csv"), "--kind", "bibliographic"),
        ):
            assert run("--catalog", str(gold_root), *argv) == 3, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
        assert catalog_digests(gold_root) == before


class TestCatalogFiles:
    def test_a_save_that_changes_no_byte_replaces_no_file(self, gold_root, capsys):
        files = [gold_root / "data.nq", gold_root / "prov.nq"]
        ingest = ("--catalog", str(gold_root), "ingest", str(DATA_DIR / "gold_bibliographic.csv"), "--kind", "bibliographic")
        before = [(path.read_bytes(), path.stat().st_ino) for path in files]
        assert run(*ingest) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith("modified=0 unchanged=4")
        assert [(path.read_bytes(), path.stat().st_ino) for path in files] == before
        # A hand edit that changes no statement still has its file rewritten,
        # line breaks included, though they read as the text of the file.
        for edited, other, content in (
            (files[0], files[1], b"# note\n" + before[0][0]),
            (files[1], files[0], before[1][0].replace(b"\n", b"\r\n")),
        ):
            edited.write_bytes(content)
            kept = (other.read_bytes(), other.stat().st_ino)
            assert run(*ingest) == 0
            assert edited.read_bytes() == before[files.index(edited)][0]
            assert (other.read_bytes(), other.stat().st_ino) == kept

    def test_data_store_is_the_fold_of_every_chain(self, tmp_path, capsys):
        # Every write command, then a revised re-ingest that both deletes and
        # inserts; the chains in prov.nq alone must rebuild data.nq.
        root = tmp_path / "cat"
        run("init", str(root))
        revised = tmp_path / "revised" / "gold_bibliographic.csv"
        revised.parent.mkdir()
        with open(DATA_DIR / "gold_bibliographic.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        rows[0].update(title="Anfora a figure nere (restaurata)", formats="", same_as="")
        with open(revised, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        catalog = ("--catalog", str(root))
        assert run(*catalog, "ingest", str(DATA_DIR / "gold_bibliographic.csv"), "--kind", "bibliographic") == 0
        assert run(*catalog, "ingest", str(DATA_DIR / "gold_process.csv"), "--kind", "process") == 0
        assert run(*catalog, "map", str(DATA_DIR / "gold_enrich_mapping.yml"), "gold_bibliographic") == 0
        assert run(*catalog, "ingest", str(revised), "--kind", "bibliographic") == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith("modified=1 unchanged=3")

        tracker = ProvenanceTracker.from_quads(Store(), parse_nquads((root / "prov.nq").read_text(encoding="utf-8")))
        folded = Store()
        for entity in tracker.entities():
            for snap in tracker.chain(entity):
                folded.apply_delta(snap.update_query, strict=True)
        assert any(snap.update_query.deletes for e in tracker.entities() for snap in tracker.chain(e))
        assert folded.quads() == parse_nquads((root / "data.nq").read_text(encoding="utf-8"))

    def test_unwritable_literal_leaves_both_files_unchanged(self, gold_root):
        # A lone surrogate has no UTF-8 encoding.  Replaced, it lives only in
        # a chain, so only prov.nq holds it; prov.nq is written first, and
        # the save fails before either file is replaced.
        catalog = Catalog.open(gold_root)
        before = {name: (gold_root / name).read_bytes() for name in ("data.nq", "prov.nq")}
        entity = Iri(BASE + "cho/lone")

        def title(text):
            return Quad(entity, vocab.DCT_TITLE, Literal(text), record_graph(entity))

        agent = catalog.config.agent_iri()
        catalog.tracker.record_creation(entity, {title("a\ud800")}, agent, time=ts(0))
        catalog.tracker.record_modification(entity, Delta(deletes={title("a\ud800")}, inserts={title("a")}), agent, time=ts(1))
        with pytest.raises(UnicodeEncodeError):
            catalog.save()
        assert {name: (gold_root / name).read_bytes() for name in before} == before
        assert not list(gold_root.glob(".store-*"))

    @pytest.mark.parametrize("command", ["ingest", "map"])
    def test_failed_save_stores_no_input(self, gold_root, tmp_path, monkeypatch, command):
        """A save that fails, here on a full disk, leaves every file of the
        catalog as it was: the table or mapping is stored only once the
        save succeeded."""
        if command == "ingest":
            argv = ("ingest", str(_retitled_table(tmp_path)), "--kind", "bibliographic")
        else:
            assert run("--catalog", str(gold_root), "ingest", str(DATA_DIR / "gold_bibliographic.csv"), "--kind", "bibliographic") == 0
            argv = ("map", str(DATA_DIR / "gold_enrich_mapping.yml"), "gold_bibliographic")
        before = catalog_digests(gold_root)

        def disk_full(path, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(store_module, "write_atomic", disk_full)
        with pytest.raises(OSError) as error:
            run("--catalog", str(gold_root), *argv)
        assert error.value.errno == errno.ENOSPC
        assert catalog_digests(gold_root) == before

    @pytest.mark.parametrize("mode", [0o644, 0o640])
    def test_writes_keep_the_file_modes(self, tmp_path, mode):
        root = tmp_path / "cat"
        umask = os.umask(0o022)
        try:
            assert run("init", str(root)) == 0
        finally:
            os.umask(umask)
        files = [root / "data.nq", root / "prov.nq"]
        assert [stat.S_IMODE(path.stat().st_mode) for path in files] == [0o644, 0o644]
        for path in files:
            path.chmod(mode)
        assert run("--catalog", str(root), "ingest", str(DATA_DIR / "gold_bibliographic.csv"), "--kind", "bibliographic") == 0
        assert [stat.S_IMODE(path.stat().st_mode) for path in files] == [mode, mode]

    def test_store_files_stay_canonical_after_commands(self, gold_root):
        for name in ("data.nq", "prov.nq"):
            text = (gold_root / name).read_text(encoding="utf-8")
            from heritage_catalog.rdf import serialize_nquads

            assert serialize_nquads(parse_nquads(text)) == text

    def test_env_var_supplies_catalog_path(self, gold_root, monkeypatch, capsys):
        monkeypatch.setenv("HERITAGE_CATALOG", str(gold_root))
        assert run("report", "storage") == 0
        assert "raw_material" in capsys.readouterr().out


class TestPatternParsing:
    def test_three_and_four_position_lines(self):
        patterns, variables = parse_bgp_text("?s ?p ?o\n?s ?p ?o ?g .")
        assert len(patterns) == 2
        assert variables == ["s", "p", "o", "g"]

    def test_too_few_positions(self):
        with pytest.raises(ParseError):
            parse_bgp_text("?s ?p")

    @pytest.mark.parametrize("text, column", [("    ?s <rel> ?o", 8), ("\t?s <rel> ?o", 5), ("?s ?p ?o .\n  ?s ?p ?o . x", 14)])
    def test_indented_line_reports_raw_column(self, text, column):
        with pytest.raises(ParseError) as err:
            parse_bgp_text(text)
        assert err.value.column == column

    def test_csv_rendering(self):
        from heritage_catalog.rdf import Literal

        text = solutions_to_csv(["s"], [{"s": Literal('tricky "value"')}])
        assert text.splitlines()[0] == "s"
        assert '""' in text  # csv-escaped quotes
