"""Command-line entry point for catalog management.

Exit codes are stable across commands: 0 success, 1 ran with findings,
2 setup error, 3 input error, 4 unknown entity.  A failure's type gives
its code: every input error of the package derives from
:class:`~heritage_catalog.rdf.InputError`, and a missing input file is
one too.  An output path at or under a plain file is a setup error (an
input is read through ``rdf.open_utf8``, which makes it an input error).
Any other exception is a fault of the program and keeps its traceback.
Read-only commands (query, audit, validate, report, prov) never write
under the catalog.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import re
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from . import fair, provenance, workflow
from .catalog import Catalog, CatalogExists, NotACatalog, source_iri
from .mapping import load_mapping, load_table
from .provenance import NoSuchEntity, parse_timestamp
from .rdf import InputError, Iri, ParseError, TermScanner, serialize_nquads, serialize_term
from .store import ANY, QuadPattern, Variable
from .workflow import NoSuchObject, OutputClash, PHASE_ORDER

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_SETUP = 2
EXIT_INPUT = 3
EXIT_UNKNOWN_ENTITY = 4


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


_VARIABLE = re.compile(r"\?(\w*)")
_SPACE = re.compile(r"\s*")


def parse_bgp_text(text: str) -> tuple[list[QuadPattern], list[str]]:
    """Parse query text: one pattern per line, terms or ?variables.

    Three terms match any graph; a fourth constrains the graph position.
    Returns the patterns and variable names in order of first appearance.
    """
    patterns = []
    variables: list[str] = []

    def read_position(sc: TermScanner):
        variable = sc.match(_VARIABLE)
        if variable is None:
            return sc.read_term()
        name = variable.group(1)
        if not name:
            sc.error("empty variable name")
        if name not in variables:
            variables.append(name)
        return Variable(name)

    for line_no, raw in enumerate(text.split("\n"), start=1):
        sc = TermScanner(raw.rstrip(), line=line_no)
        sc.match(_SPACE)  # any leading whitespace, still counted in columns
        if sc.eof() or sc.peek() == "#":
            continue
        positions = []
        while True:
            sc.skip_ws()
            if sc.eof():
                break
            if sc.peek() == ".":
                sc.expect(".")
                sc.skip_ws()
                if not sc.eof():
                    sc.error("unexpected content after '.'")
                break
            positions.append(read_position(sc))
            if len(positions) > 4:
                sc.error("a pattern has at most four positions")
        if len(positions) < 3:
            raise ParseError("a pattern needs subject, predicate and object", line_no)
        graph = positions[3] if len(positions) == 4 else ANY
        patterns.append(QuadPattern(positions[0], positions[1], positions[2], graph))
    if not patterns:
        raise ParseError("empty query")
    return patterns, variables


def solutions_to_csv(variables: list[str], solutions: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(variables)
    for solution in solutions:
        writer.writerow([serialize_term(solution[v]) if v in solution else "" for v in variables])
    return out.getvalue()


class _QueryHandler(BaseHTTPRequestHandler):
    catalog: Catalog = None

    def _send(self, status: int, body: bytes, content_type: str):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        parsed = urlparse(self.path)
        if parsed.path == "/health":
            self._send(200, b"ok", "text/plain; charset=utf-8")
            return
        if parsed.path == "/query":
            params = parse_qs(parsed.query)
            queries = params.get("q")
            if not queries:
                self._send(400, b"missing q parameter", "text/plain; charset=utf-8")
                return
            try:
                patterns, variables = parse_bgp_text(queries[0])
                solutions = self.catalog.store.bgp_query(patterns)
            except ValueError as exc:
                self._send(400, str(exc).encode("utf-8"), "text/plain; charset=utf-8")
                return
            body = b"" if not solutions else solutions_to_csv(variables, solutions).encode("utf-8")
            self._send(200, body, "text/csv; charset=utf-8")
            return
        self._send(404, b"not found", "text/plain; charset=utf-8")

    def log_message(self, *args):
        pass


def make_query_server(catalog: Catalog, port: int) -> ThreadingHTTPServer:
    handler = type("Handler", (_QueryHandler,), {"catalog": catalog})
    return ThreadingHTTPServer(("127.0.0.1", port), handler)


def _catalog_root(args) -> Path:
    if args.catalog:
        return Path(args.catalog)
    env = os.environ.get("HERITAGE_CATALOG")
    return Path(env) if env else Path(".")


def cmd_init(args) -> int:
    Catalog.create(args.path)
    print(f"initialized catalog in {args.path}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    catalog = Catalog.open(_catalog_root(args))
    name, stats = catalog.ingest_table_file(args.table, args.kind)
    print(f"table={name} created={stats.created} modified={stats.modified} unchanged={stats.unchanged}")
    return EXIT_OK


def cmd_map(args) -> int:
    catalog = Catalog.open(_catalog_root(args))
    document = load_mapping(args.mapping)
    table_path = catalog.table_path(args.table)
    if not table_path.is_file():
        return _fail(EXIT_INPUT, f"no table named {args.table!r} under {catalog.root / 'tables'}")
    table = load_table(table_path, args.table)
    mapping = Path(args.mapping)
    quads, entities = catalog.apply_mapping(document, [table], source_iri(mapping))
    catalog.save()
    # Stored only once the catalog saved, so a failed map leaves mappings/ as it was.
    stored = catalog.root / "mappings" / mapping.name
    if mapping.resolve() != stored.resolve():
        stored.write_bytes(mapping.read_bytes())
    print(f"quads={quads} entities={entities}")
    return EXIT_OK


def cmd_prov(args) -> int:
    catalog = Catalog.open(_catalog_root(args))
    entity = Iri(args.entity)
    if args.action == "log":
        for snap in catalog.tracker.chain(entity):
            agents = ",".join(a.value for a in snap.attributed_to)
            print(f"{snap.index} {snap.kind} {provenance.iso_timestamp(snap.generated_at)} {agents}")
        return EXIT_OK
    moment = parse_timestamp(args.timestamp)
    state = catalog.tracker.restore_state(entity, moment)
    sys.stdout.write(serialize_nquads(state))
    return EXIT_OK


def cmd_audit(args) -> int:
    catalog = Catalog.open(_catalog_root(args))
    report = fair.run_audit(catalog)
    sys.stdout.write(fair.render_report(report, args.format))
    failed = any(r.outcome == fair.FAIL for r in report.results)
    return EXIT_FINDINGS if failed else EXIT_OK


def cmd_validate(args) -> int:
    catalog = Catalog.open(_catalog_root(args))
    violations = catalog.validate_assets()
    for violation in violations:
        print(str(violation))
    return EXIT_FINDINGS if violations else EXIT_OK


def cmd_query(args) -> int:
    catalog = Catalog.open(_catalog_root(args))
    if args.serve:
        port = args.port if args.port is not None else catalog.config.endpoint_port
        try:
            server = make_query_server(catalog, port)
        except (OverflowError, OSError) as exc:
            return _fail(EXIT_SETUP, f"cannot serve on 127.0.0.1:{port}: {exc}")
        host, actual_port = server.server_address
        print(f"serving on http://{host}:{actual_port} (GET /query?q=..., GET /health)")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return EXIT_OK
    if not args.pattern:
        return _fail(EXIT_INPUT, "a pattern argument is required unless --serve is given")
    patterns, variables = parse_bgp_text(args.pattern)
    solutions = catalog.store.bgp_query(patterns)
    sys.stdout.write(solutions_to_csv(variables, solutions))
    return EXIT_OK


def cmd_report(args) -> int:
    catalog = Catalog.open(_catalog_root(args))
    if args.what == "storage":
        report = catalog.storage_report()
        for kind in workflow.ASSET_KINDS:
            share = report[kind]
            print(f"{kind} bytes={share.bytes} percent={share.percent}")
        return EXIT_OK
    if args.what == "status":
        status = catalog.workflow_status(Iri(args.subject))
        for kind in PHASE_ORDER:
            print(f"{kind.value}: {status[kind]}")
        return EXIT_OK
    manifest = catalog.export_bundle(Iri(args.subject), args.directory)
    print(f"bundle written to {args.directory} ({len(manifest)} file(s) plus manifest)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="heritage-catalog", description="FAIR digitisation catalog engine")
    parser.add_argument("--catalog", help="catalog directory (default: $HERITAGE_CATALOG or '.')")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create an empty catalog directory")
    p.add_argument("path")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("ingest", help="ingest a CSV table")
    p.add_argument("table", help="path to the CSV file")
    p.add_argument("--kind", choices=("bibliographic", "process"), required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("map", help="run a mapping over an ingested table")
    p.add_argument("mapping", help="path to the mapping DSL file")
    p.add_argument("table", help="name of an ingested table")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("prov", help="inspect provenance")
    prov_sub = p.add_subparsers(dest="action", required=True)
    q = prov_sub.add_parser("log", help="list an entity's snapshots")
    q.add_argument("entity")
    q.set_defaults(func=cmd_prov)
    q = prov_sub.add_parser("restore", help="print an entity's state at a time")
    q.add_argument("entity")
    q.add_argument("timestamp")
    q.set_defaults(func=cmd_prov)

    p = sub.add_parser("audit", help="run the FAIR checklist")
    p.add_argument("--format", default="text", help="text, csv or rdf")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("validate", help="check asset constraints")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("query", help="run a pattern query or serve the endpoint")
    p.add_argument("pattern", nargs="?", help="whitespace-separated pattern lines")
    p.add_argument("--serve", action="store_true")
    p.add_argument("--port", type=int)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("report", help="storage, status or deposit bundle")
    report_sub = p.add_subparsers(dest="what", required=True)
    q = report_sub.add_parser("storage")
    q.set_defaults(func=cmd_report)
    q = report_sub.add_parser("status")
    q.add_argument("subject", help="object IRI")
    q.set_defaults(func=cmd_report)
    q = report_sub.add_parser("bundle")
    q.add_argument("subject", help="digital object IRI")
    q.add_argument("directory")
    q.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CatalogExists, NotACatalog, NotADirectoryError, OutputClash) as exc:
        return _fail(EXIT_SETUP, str(exc))
    except (NoSuchEntity, NoSuchObject) as exc:
        return _fail(EXIT_UNKNOWN_ENTITY, str(exc))
    except (InputError, FileNotFoundError) as exc:
        return _fail(EXIT_INPUT, str(exc))


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
