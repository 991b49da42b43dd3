"""The workloads: bulk-load and curate.

Each returns the end-to-end metrics of one run plus the raw figures the
traced run turns into per-layer metrics.  Sizes are fixed here so that
every run of a workload, on every commit, does the same work.
"""

from __future__ import annotations

import csv
import io
import random
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import harness
from harness import Checks, Runner, median, tail

SETUP_REPEATS = 3

SIZES = {
    # Catalogs are built from one revision of each table.
    "bulk-load": {"objects": 12},
    # Few objects, long chains: every revision rewrites every bibliographic
    # row; the process table is revised every `process_every` revisions.
    "curate": {"objects": 2, "revisions": 10, "process_every": 5},
}
SMOKE_SIZES = {
    "bulk-load": {"objects": 2},
    "curate": {"objects": 2, "revisions": 3, "process_every": 2},
}

# curate: the closed-loop command mix per block of 20 commands (assumed, not
# measured traffic).  Each block runs in a seeded order, so every run has
# the same shares.
CURATE_MIX = {"log": 4, "restore": 6, "status": 3, "query": 3, "write": 4}

# bulk-load's set-up warms the package on a catalog of this many objects.
WARMUP_OBJECTS = 2
# bulk-load builds at least this many catalogs, so that every stage's
# median has three samples.
MIN_PASSES = 3
# curate's write metrics cover the first WRITES_MEASURED writes of the
# seeded sequence: the same writes on the same catalog on every commit,
# however many more fit into the run.  The loop goes on until they are done.
WRITES_MEASURED = 12
# A traced run does a fixed amount of work whatever --seconds says, so
# that per-layer totals compare between commits: bulk-load builds
# TRACE_PASSES catalogs, curate runs three blocks of its mix (12 writes).
TRACE_PASSES = 2
TRACE_COMMANDS = 3 * sum(CURATE_MIX.values())


@dataclass
class Context:
    hc: object
    runner: Runner
    checks: Checks
    seed: int
    seconds: float
    work: Path
    size: dict
    traced: bool = False


@dataclass
class Outcome:
    metrics: dict
    catalog: Path  # the catalog the run ends with
    measured_from: int  # index in Runner.records of the first measured command
    layer: dict = field(default_factory=dict)  # raw inputs of per-layer metrics


def peak_rss_mb(ctx: Context, corpus: gen.Corpus, root: Path) -> float:
    """Peak memory of `validate` on the catalog the run ends with, run alone
    in a child process."""
    code = 1 if corpus.expected_violations() else 0
    return harness.child_peak_rss_mb(ctx.hc, ctx.checks, ["--catalog", str(root), "validate"], codes=(code,))


def op_metrics(commands: list, seconds: list, per_stage: bool) -> dict:
    """Throughput and latency of the measured commands.

    With ``per_stage`` (a pipeline of fixed stages) each stage's latency is
    its median over the passes; p50 is the median stage and the tail the
    slowest stage.  Otherwise both are percentiles of all the commands.
    """
    if per_stage:
        stages: dict[str, list[float]] = {}
        for cmd, s in zip(commands, seconds):
            stages.setdefault(harness.command_label(cmd.argv), []).append(s)
        latencies = sorted(median(v) for v in stages.values())
        p50, worst = median(latencies), latencies[-1]
    else:
        p50, worst = median(seconds), tail(seconds)[0]
    return {"ops_per_s": len(seconds) / sum(seconds), "op_p50_ms": p50 * 1000.0, "op_tail_ms": worst * 1000.0}


def measured(ctx: Context, setups: list, commands: list, per_stage: bool = False) -> tuple[dict, dict]:
    """setup_s and the command metrics at the reference host speed; the
    unscaled figures go to the diagnostics."""
    scaled = [ctx.runner.scaled_seconds(c) for c in commands]
    metrics = {"setup_s": median([s for s, _ in setups]), **op_metrics(commands, scaled, per_stage)}
    unscaled = {"setup_s": median([w for _, w in setups]),
                **op_metrics(commands, [c.seconds for c in commands], per_stage)}
    diagnostics = {"op_samples": len(scaled), "unscaled": unscaled}
    if not per_stage:
        diagnostics["op_tail_percentile"] = tail(scaled)[1]
    return metrics, diagnostics


def set_up(ctx: Context, setups: list, step):
    """Run one set-up, noting its wall time and that time at the reference
    host speed of the commands it ran."""
    first = len(ctx.runner.records)
    start = time.perf_counter()
    result = step()
    wall = time.perf_counter() - start
    setups.append((wall * ctx.runner.scale(first, len(ctx.runner.records) - 1), wall))
    return result


def clock_skew_s(root: Path) -> float:
    return harness.newest_snapshot_epoch(root) - time.time()


def _entity_lines(data_lines: list[str], entity: str) -> str:
    prefix = f"<{entity}> "
    return "".join(line for line in data_lines if line.startswith(prefix))


def _literal_csv(variable: str, text: str) -> str:
    """What one-shot ``query`` prints for a single plain-literal solution."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([variable])
    writer.writerow([f'"{text}"'])
    return out.getvalue()


def _spot_check(ctx: Context, root: Path, cho: str, title: str, created_state: str):
    """One-shot query of the object's title, and its state restored at its
    creation time, which must equal the lines captured after ingest."""
    catalog = ["--catalog", str(root)]
    cmd = ctx.runner.cli(catalog + ["query", f"<{cho}> <{gen.DCT}title> ?t"])
    if ctx.checks.command(cmd):
        ctx.checks.expect(cmd.out == _literal_csv("t", title), f"query title of {cho}: {cmd.out!r}")
    with ctx.runner.paused():
        created = ctx.hc.catalog.Catalog.open(root).tracker.chain(ctx.hc.rdf.Iri(cho))[0].generated_at
    cmd = ctx.runner.cli(catalog + ["prov", "restore", cho, ctx.hc.provenance.iso_timestamp(created)])
    if ctx.checks.command(cmd):
        ctx.checks.expect(cmd.out == created_state, f"prov restore {cho} at creation: state differs from the ingested one")


# -- bulk-load ---------------------------------------------------------------------


def bulk_load(ctx: Context) -> Outcome:
    n = ctx.size["objects"]

    def setup(k):
        # Generate the inputs.  Then build a small catalog, which lets every
        # lazy import and cache of the package fill before timing, and
        # spot-check one of its objects through `query` and `prov restore`.
        corpus = gen.generate(ctx.seed, n)
        inputs_dir = ctx.work / f"inputs{k}"
        inputs = harness.write_inputs(corpus, inputs_dir, revisions=1)
        warm = gen.generate(ctx.seed, WARMUP_OBJECTS)
        warm_dir = ctx.work / f"warm-inputs{k}"
        warm_inputs = harness.write_inputs(warm, warm_dir, revisions=1)
        root = ctx.work / f"warm{k}"
        obj = warm.objects[0]
        cho = gen.cho_iri(obj.ident)
        ingested = []

        def capture(revision):
            ingested.append(_entity_lines((root / "data.nq").read_text(encoding="utf-8").splitlines(keepends=True), cho))

        harness.build_catalog(ctx.runner, ctx.checks, warm, warm_inputs, root, warm_dir / "enrich_mapping.yml",
                              on_revision=capture)
        _spot_check(ctx, root, cho, obj.cho_row["title"], ingested[0])
        shutil.rmtree(root)
        return corpus, inputs_dir, inputs

    setups = []
    for k in range(SETUP_REPEATS):
        corpus, inputs_dir, inputs = set_up(ctx, setups, lambda: setup(k))

    measured_from = len(ctx.runner.records)
    passes, busy, commands = 0, 0.0, []
    root = None
    while (passes < TRACE_PASSES) if ctx.traced else (busy < ctx.seconds or passes < MIN_PASSES):
        previous, root = root, ctx.work / f"pass{passes}"
        build = harness.build_catalog(ctx.runner, ctx.checks, corpus, inputs, root,
                                      inputs_dir / "enrich_mapping.yml", account_writes=passes == 0)
        if passes == 0:
            # Every pass builds from the same inputs, so the first one gives
            # the disk figures.
            disk_ratio = harness.catalog_bytes(root) / build.source_bytes
            amplification = build.writes.amplification()
        passes += 1
        commands += build.commands
        busy += build.seconds
        if previous is not None:
            shutil.rmtree(previous)

    timing, diagnostics = measured(ctx, setups, commands, per_stage=True)
    metrics = {
        **timing,
        "peak_rss_mb": peak_rss_mb(ctx, corpus, root),
        "disk_bytes_per_source_byte": disk_ratio,
        "write_amplification": amplification,
    }
    layer = {"clock_skew_s": clock_skew_s(root), "passes": passes, **diagnostics}
    return Outcome(metrics, root, measured_from, layer)


# -- curate ---------------------------------------------------------------------------

_SNAPSHOT_RE = re.compile(r"^<(.+?)/prov/se/(\d+)> <http://www\.w3\.org/1999/02/22-rdf-syntax-ns#type> ", re.M)


def _chain_lengths(root: Path) -> dict[str, int]:
    lengths: dict[str, int] = {}
    for entity, index in _SNAPSHOT_RE.findall((root / "prov.nq").read_text(encoding="utf-8")):
        lengths[entity] = max(lengths.get(entity, 0), int(index))
    return lengths


STATUS_TEXT = "".join(f"{phase}: complete\n" for phase in gen.PHASES)


def _curate_setup(ctx: Context, k: int):
    size = ctx.size
    corpus = gen.generate(ctx.seed, size["objects"])
    inputs_dir = ctx.work / f"inputs{k}"
    inputs = harness.write_inputs(corpus, inputs_dir, size["revisions"], size["process_every"])
    root = ctx.work / f"template{k}"
    tracked = [gen.cho_iri(o.ident) for o in corpus.objects] + [gen.dcho_iri(o.ident) for o in corpus.objects]
    tracked += [f"{gen.BASE}activity/{o.ident}/acquisition/1" for o in corpus.objects]
    captures = {}  # (entity, revision) -> (snapshot index, serialized state)

    def capture(revision):
        data = (root / "data.nq").read_text(encoding="utf-8").splitlines(keepends=True)
        lengths = _chain_lengths(root)
        for entity in tracked:
            captures[(entity, revision)] = (lengths[entity], _entity_lines(data, entity))

    build = harness.build_catalog(ctx.runner, ctx.checks, corpus, inputs, root,
                                  inputs_dir / "enrich_mapping.yml", on_revision=capture)
    return corpus, build, tracked, captures


def curate(ctx: Context) -> Outcome:
    setups, builds = [], []
    for k in range(SETUP_REPEATS):
        corpus, build, tracked, captures = set_up(ctx, setups, lambda: _curate_setup(ctx, k))
        builds.append(build)
        if k:
            shutil.rmtree(builds[k - 1].root)
    template = builds[-1].root

    # Restore targets: timestamps come from the chains, never from the clock.
    with ctx.runner.paused():
        opened = ctx.hc.catalog.Catalog.open(template)
        chains = {e: opened.tracker.chain(ctx.hc.rdf.Iri(e)) for e in tracked}
    iso = ctx.hc.provenance.iso_timestamp
    targets = [(e, iso(chains[e][index - 1].generated_at), text) for (e, _), (index, text) in sorted(captures.items())]
    chain_len = {e: len(chain) for e, chain in chains.items()}
    last = ctx.size["revisions"] - 1
    description = {gen.row_iri(row): row["description"] for row in corpus.bib_rows(last)}

    root = ctx.work / "run"
    shutil.copytree(template, root)  # each run starts from a fresh copy
    catalog = ["--catalog", str(root)]
    slice_path = ctx.work / "curation.csv"
    source_bytes = builds[-1].source_bytes
    ledger = harness.WriteLedger()
    before = harness.catalog_lines(root)
    rng = random.Random(ctx.seed * 7919 + 17)
    block = [kind for kind, count in CURATE_MIX.items() for _ in range(count)]
    order: list[str] = []
    chos = [gen.cho_iri(o.ident) for o in corpus.objects]
    described = sorted(description)
    checks, busy, commands, writes = ctx.checks, 0.0, [], 0
    measured_from = len(ctx.runner.records)

    while (len(commands) < TRACE_COMMANDS) if ctx.traced else (busy < ctx.seconds or writes < WRITES_MEASURED):
        if not order:
            order = rng.sample(block, len(block))
        kind = order.pop()
        if kind == "log":
            entity = rng.choice(tracked)
            cmd = ctx.runner.cli(catalog + ["prov", "log", entity])
            if checks.command(cmd):
                rows = [line.split() for line in cmd.out.splitlines()]
                checks.expect([r[0] for r in rows] == [str(i) for i in range(1, chain_len[entity] + 1)]
                              and [r[1] for r in rows] == ["creation"] + ["modification"] * (len(rows) - 1)
                              and all(a[2] < b[2] for a, b in zip(rows, rows[1:])),
                              f"prov log {entity}: unexpected chain listing")
        elif kind == "restore":
            entity, moment, expected = rng.choice(targets)
            cmd = ctx.runner.cli(catalog + ["prov", "restore", entity, moment])
            if checks.command(cmd):
                checks.expect(cmd.out == expected, f"prov restore {entity} {moment}: state differs from the captured one")
        elif kind == "status":
            cho = rng.choice(chos)
            cmd = ctx.runner.cli(catalog + ["report", "status", cho])
            if checks.command(cmd):
                checks.expect(cmd.out == STATUS_TEXT, f"report status {cho}: {cmd.out!r}")
        elif kind == "query":
            entity = rng.choice(described)
            cmd = ctx.runner.cli(catalog + ["query", f"<{entity}> <{gen.DCT}description> ?d"])
            if checks.command(cmd):
                checks.expect(cmd.out == _literal_csv("d", description[entity]), f"query description of {entity}: {cmd.out!r}")
        else:
            writes += 1
            rows = gen.slice_rows(corpus, rng, writes)
            gen.write_csv(slice_path, gen.BIB_HEADER, rows)
            if writes <= WRITES_MEASURED:
                source_bytes += slice_path.stat().st_size
            cmd = ctx.runner.cli(catalog + ["ingest", str(slice_path), "--kind", "bibliographic"])
            if checks.command(cmd):
                checks.expect(cmd.out.strip() == f"table=curation created=0 modified={len(rows)} unchanged=0",
                              f"curation ingest: {cmd.out.strip()!r}")
            for row in rows:
                description[gen.row_iri(row)] = row["description"]
                chain_len[gen.row_iri(row)] += 1
            if writes <= WRITES_MEASURED:
                with ctx.runner.paused():
                    before = ledger.note(root, before)
                if writes == WRITES_MEASURED:
                    disk_ratio = harness.catalog_bytes(root) / source_bytes
        busy += cmd.seconds
        commands.append(cmd)

    timing, diagnostics = measured(ctx, setups, commands)
    metrics = {
        **timing,
        "peak_rss_mb": peak_rss_mb(ctx, corpus, root),
        "disk_bytes_per_source_byte": disk_ratio,
        "write_amplification": ledger.amplification(),
    }
    layer = {"clock_skew_s": clock_skew_s(root), "writes": writes, **diagnostics}
    return Outcome(metrics, root, measured_from, layer)


WORKLOADS = {"bulk-load": bulk_load, "curate": curate}
