"""Shared pieces of the benchmark: the in-process CLI runner, statistics,
write accounting, the batch build pipeline and its output oracles."""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import gen


@dataclass
class Command:
    argv: list
    code: int
    out: str
    err: str
    seconds: float
    index: int  # position in Runner.records


# Typical host_probe() time on the host the baseline was measured on.
HOST_REFERENCE_S = 0.025


def host_probe() -> float:
    """Seconds a fixed pure-Python task takes now.

    The task does dict, sort and string work of the kind the catalog does,
    and never touches the package, so a change to the program cannot move
    it.  On a shared host both slow down together, by up to a factor of
    two within minutes.
    """
    start = time.perf_counter()
    for _ in range(10):
        table = {}
        for i in range(3000):
            table[("k", i)] = [str(i), i * 3]
        ordered = sorted(table.items(), key=lambda kv: kv[1][0])
        "".join(f"<{k[1]}> {v[0]} .\n" for k, v in ordered)
    return time.perf_counter() - start


class Runner:
    """Runs CLI commands through ``cli.main(argv)`` in this process.

    Each command parses its arguments and opens the catalog afresh, as the
    installed ``heritage-catalog`` script does.  Only the call itself is
    timed; the oracles run afterwards with the tracer paused.  Before each
    command the runner collects garbage, so the command starts from a heap
    as clean as a new process's, and times :func:`host_probe` from that
    same state.
    """

    def __init__(self, hc, tracer=None):
        self.hc = hc
        self.tracer = tracer
        self.records: list[tuple[str, float, float]] = []  # (command label, seconds, probe seconds)

    def cli(self, argv) -> Command:
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.op = len(self.records)
        gc.collect()
        probe = host_probe()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.hc.cli.main(argv)
            seconds = time.perf_counter() - start
        self.records.append((command_label(argv), seconds, probe))
        return Command(list(argv), code, out.getvalue(), err.getvalue(), seconds, len(self.records) - 1)

    def paused(self):
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def scale(self, first: int, last: int | None = None) -> float:
        """Factor that turns times measured over commands first..last into
        times at the reference host speed: the reference probe time over
        the median of the probes taken right before those commands."""
        last = first if last is None else last
        return HOST_REFERENCE_S / statistics.median(p for _, _, p in self.records[first:last + 1])

    def scaled_seconds(self, cmd: Command) -> float:
        return cmd.seconds * self.scale(cmd.index)


def command_label(argv) -> str:
    """``ingest_process``, ``prov_restore``, ``validate``... for an argv."""
    words = argv[2:] if argv[:1] == ["--catalog"] else list(argv)
    if words[0] == "ingest":
        return "ingest_" + words[words.index("--kind") + 1]
    if words[0] in ("prov", "report"):
        return f"{words[0]}_{words[1]}"
    return words[0]


# Runs argv in a grandchild and prints that grandchild's peak RSS (KiB) and
# exit code.  On Linux a process keeps, across exec, the peak of the memory
# it was forked from; forked from this small wrapper rather than from the
# benchmark, the grandchild's peak is the program's own.
_PEAK_OF_CHILD = (
    "import resource, subprocess, sys\n"
    "code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, code)\n"
)


def child_peak_rss_mb(hc, checks: "Checks", argv: list, codes=(0,)) -> float:
    """Peak resident set of one CLI command, run alone in a fresh
    ``python -m heritage_catalog.cli`` process, so that it holds the
    program and none of the benchmark's own memory."""
    src = str(Path(hc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    cli = [sys.executable, "-m", "heritage_catalog.cli", *argv]
    proc = subprocess.run([sys.executable, "-c", _PEAK_OF_CHILD, *cli], env=env,
                          capture_output=True, text=True, timeout=120)
    kib, code = (int(word) for word in proc.stdout.split()) if proc.returncode == 0 else (0, proc.returncode)
    checks.attempted += 1
    checks.expect(code in codes, f"child {' '.join(argv[2:4])}: exit {code}, stderr {proc.stderr.strip()[:200]!r}")
    return kib / 1024.0


class Checks:
    """Counts attempted operations and records every failed expectation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str) -> bool:
        if not condition:
            self.failures.append(message)
        return condition

    def command(self, cmd: Command, codes=(0,)) -> bool:
        """A command succeeded when it exited with an expected code."""
        self.attempted += 1
        return self.expect(cmd.code in codes, f"{' '.join(cmd.argv[:4])}: exit {cmd.code}, stderr {cmd.err.strip()[:200]!r}")


# -- statistics ------------------------------------------------------------------


median = statistics.median


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With fewer than eleven samples there is
    no such percentile and the maximum is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n


# -- catalog files ----------------------------------------------------------------


def catalog_bytes(root: Path) -> int:
    return (root / "data.nq").stat().st_size + (root / "prov.nq").stat().st_size


def catalog_lines(root: Path) -> tuple[set, set]:
    return (
        set((root / "data.nq").read_text(encoding="utf-8").splitlines()),
        set((root / "prov.nq").read_text(encoding="utf-8").splitlines()),
    )


@dataclass
class WriteLedger:
    """Bytes a write's save put on disk against the bytes the write changed."""

    written: int = 0
    changed: int = 0

    def note(self, root: Path, before: tuple[set, set]) -> tuple[set, set]:
        after = catalog_lines(root)
        data_delta = before[0] ^ after[0]
        prov_added = after[1] - before[1]
        self.written += catalog_bytes(root)
        self.changed += sum(len(line.encode("utf-8")) + 1 for line in data_delta | prov_added)
        return after

    def amplification(self) -> float:
        return self.written / self.changed if self.changed else float("nan")


_GENERATED_RE = re.compile(r'<http://www\.w3\.org/ns/prov#generatedAtTime> "([0-9T:\-]+)Z"')


def newest_snapshot_epoch(root: Path) -> float:
    """Newest ``generatedAtTime`` in the catalog, as a Unix time."""
    stamps = _GENERATED_RE.findall((root / "prov.nq").read_text(encoding="utf-8"))
    newest = max(stamps)
    return datetime.fromisoformat(newest).replace(tzinfo=timezone.utc).timestamp()


# -- the batch build ------------------------------------------------------------------


@dataclass
class Build:
    """The commands of one catalog build and what they wrote."""

    root: Path
    seconds: float = 0.0
    commands: list = field(default_factory=list)
    source_bytes: int = 0
    writes: WriteLedger = field(default_factory=WriteLedger)

    def note(self, cmd: Command):
        self.commands.append(cmd)
        self.seconds += cmd.seconds


def write_inputs(corpus: gen.Corpus, directory: Path, revisions: int, process_every: int = 1) -> list[dict]:
    """Revision tables under ``directory``; process tables only every ``process_every`` revisions."""
    inputs = []
    for revision in range(revisions):
        paths = corpus.write_revision(directory / f"rev{revision:02d}", revision)
        if revision % process_every:
            paths.pop("process")
        inputs.append(paths)
    (directory / "enrich_mapping.yml").write_text(gen.mapping_text(), encoding="utf-8")
    return inputs


def build_catalog(runner: Runner, checks: Checks, corpus: gen.Corpus, inputs: list[dict], root: Path,
                  mapping: Path, on_revision=None, account_writes: bool = False) -> Build:
    """init, every revision's ingests, map, validate, audit, report storage.

    Every command's output is checked against the generator's answers.
    ``on_revision(revision)`` runs after each revision's ingests, untimed.
    """
    build = Build(root)
    catalog = ["--catalog", str(root)]
    init = runner.cli(["init", str(root)])
    checks.command(init)
    build.note(init)
    before = catalog_lines(root) if account_writes else None

    def write(stage, argv, expected_out):
        nonlocal before
        cmd = runner.cli(catalog + argv)
        build.note(cmd)
        if checks.command(cmd):
            checks.expect(cmd.out.strip() == expected_out, f"{stage}: printed {cmd.out.strip()!r}, expected {expected_out!r}")
        if account_writes:
            with runner.paused():
                before = build.writes.note(root, before)

    n_bib = 2 * len(corpus.objects)
    n_process = len(corpus.process_rows())
    seen_process = False
    for revision, paths in enumerate(inputs):
        outcome = "created" if revision == 0 else "modified"
        counts = {"created": 0, "modified": 0, "unchanged": 0}
        write("ingest_bibliographic", ["ingest", str(paths["bibliographic"]), "--kind", "bibliographic"],
              "table=bibliographic " + " ".join(f"{k}={n_bib if k == outcome else v}" for k, v in counts.items()))
        build.source_bytes += paths["bibliographic"].stat().st_size
        if "process" in paths:
            outcome = "modified" if seen_process else "created"
            seen_process = True
            write("ingest_process", ["ingest", str(paths["process"]), "--kind", "process"],
                  "table=process " + " ".join(f"{k}={n_process if k == outcome else v}" for k, v in counts.items()))
            build.source_bytes += paths["process"].stat().st_size
        if on_revision is not None:
            with runner.paused():
                on_revision(revision)
    n = len(corpus.objects)
    write("map", ["map", str(mapping), "bibliographic"], f"quads={3 * n} entities={n}")

    violations = corpus.expected_violations()
    cmd = runner.cli(catalog + ["validate"])
    build.note(cmd)
    if checks.command(cmd, codes=(1 if violations else 0,)):
        checks.expect(sorted(cmd.out.splitlines()) == violations, "validate: findings differ from the planted set")

    cmd = runner.cli(catalog + ["audit", "--format", "csv"])
    build.note(cmd)
    if checks.command(cmd, codes=(1,)):
        checks.expect(audit_counts(cmd.out) == corpus.expected_audit_counts(), "audit: per-check counts differ")

    cmd = runner.cli(catalog + ["report", "storage"])
    build.note(cmd)
    if checks.command(cmd):
        expected = corpus.expected_storage()
        got = {line.split()[0]: int(line.split()[1].split("=")[1]) for line in cmd.out.splitlines()}
        checks.expect(got == expected, f"report storage: {got} != {expected}")

    with runner.paused():
        checks.expect(fold_matches(runner.hc, root), "data.nq differs from the forward fold of the chains")
    return build


def audit_counts(csv_text: str) -> dict:
    counts: dict[str, dict[str, int]] = {}
    for row in csv.DictReader(io.StringIO(csv_text)):
        bucket = counts.setdefault(row["check_id"], {"pass": 0, "fail": 0, "not_applicable": 0})
        bucket[row["outcome"]] += 1
    return counts


def fold_matches(hc, root: Path) -> bool:
    """The provenance duality: replaying every chain from empty gives data.nq."""
    catalog = hc.catalog.Catalog.open(root)
    folded = hc.store.Store()
    for entity in catalog.tracker.entities():
        for snap in catalog.tracker.chain(entity):
            folded.apply_delta(snap.update_query, strict=True)
    return hc.rdf.serialize_nquads(folded.quads()) == (root / "data.nq").read_text(encoding="utf-8")
