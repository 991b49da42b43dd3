"""Catalog benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload bulk-load --seed 1 --seconds 30 --trace 0

The program under test is the package in ``src/``; it only ever sees the
generated files and the command lines.  With ``--trace 0`` the last line
of stdout carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a run traced from the benchmark's own wrappers.  The exit code
is 0 when every output matched its oracle, 1 when one did not, and 2 when
the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "disk_bytes_per_source_byte": "ratio",
    "write_amplification": "ratio",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}

# Per-layer self times, reported for every workload (0 where a workload
# never calls the layer).
SELF_TIMES = (
    "rdf.parse_nquads", "store.parse_update", "provenance.from_quads", "store.load", "catalog.open",
    "provenance.restore_state", "rdf.serialize_nquads", "store.serialize_update",
    "provenance.export_all_graphs", "catalog.save", "workflow.phases_from_store",
    "workflow.assets_from_store", "workflow.parse_process_table", "catalog.register_phase",
    "catalog.ingest_bibliographic", "catalog.apply_mapping", "catalog.validate_assets",
    "mapping.load_table", "mapping.execute_mapping", "fair.run_audit", "fair.render_report",
    "store.bgp_query", "store.match", "cli.parse_bgp_text", "cli.main",
)


def _rate(items: float, seconds: float) -> float:
    return items / seconds if seconds > 0 else 0.0


def layer_metrics(spans, outcome, runner, overhead: float) -> dict:
    """Per-layer metrics: value and unit by name.

    They cover the measured commands only, not set-up.  A traced run does
    a fixed amount of work, so totals and counts compare between commits.
    """
    from harness import median
    from spans import LayerTotals, summarize

    first = outcome.measured_from
    spans = [s for s in spans if s.op is not None and s.op >= first]
    records = runner.records[first:]
    totals = summarize(spans)

    def t(name) -> LayerTotals:
        return totals.get(name, LayerTotals())

    out = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (t(name).self_s, "s")
    out["rdf.parse_nquads.mb_per_s"] = (_rate(t("rdf.parse_nquads").items / 1e6, t("rdf.parse_nquads").total_s), "MB/s")
    out["rdf.serialize_nquads.mb_per_s"] = (_rate(t("rdf.serialize_nquads").items / 1e6, t("rdf.serialize_nquads").total_s), "MB/s")
    out["store.parse_update.calls"] = (t("store.parse_update").calls, "count")
    out["provenance.from_quads.snapshots_per_s"] = (_rate(t("provenance.from_quads").items, t("provenance.from_quads").total_s), "1/s")
    out["store.save.bytes"] = (t("store.save").items, "bytes")
    out["workflow.phases_from_store.calls"] = (t("workflow.phases_from_store").calls, "count")
    out["workflow.assets_from_store.calls"] = (t("workflow.assets_from_store").calls, "count")
    rows = t("workflow.parse_process_table").items
    views = t("workflow.phases_from_store").calls + t("workflow.assets_from_store").calls
    out["workflow.view_rebuilds_per_row"] = (_rate(views, rows), "ratio")
    out["mapping.rows_per_s"] = (_rate(t("mapping.execute_mapping").items, t("mapping.execute_mapping").total_s), "1/s")
    out["fair.results_per_s"] = (_rate(t("fair.run_audit").items, t("fair.run_audit").total_s), "1/s")
    out["store.match.calls_per_solution"] = (_rate(t("store.match").calls, t("store.bgp_query").items), "ratio")
    out["store.apply_delta.calls"] = (t("store.apply_delta").calls, "count")
    # The CLI never merges or deletes entities.
    appended = t("provenance.record_creation").calls + t("provenance.record_modification").calls
    out["provenance.snapshots_appended"] = (appended, "count")
    out["provenance.clock_skew_s"] = (outcome.layer["clock_skew_s"], "s")

    by_label: dict[str, list[float]] = {}
    for label, seconds, _ in records:
        by_label.setdefault(label, []).append(seconds)
    for label in ("ingest_process", "validate", "audit"):
        out[f"cli.{label}.p50_s"] = (median(by_label[label]) if label in by_label else 0.0, "s")
    writes = [s for label, s, _ in records if label.startswith("ingest_") or label == "map"]
    out["cli.write.p50_ms"] = (median(writes) * 1000.0 if writes else 0.0, "ms")
    out["host.probe_ms"] = (median([p for _, _, p in records]) * 1000.0, "ms")
    out["trace.overhead_frac"] = (overhead, "ratio")
    out["trace.spans"] = (len(spans), "count")
    return out


def calibrate_overhead(runner, tracer, catalog: Path, repeats: int = 5) -> float:
    """Tracing cost: the same read-only command timed untraced and traced,
    alternately, at the reference host speed."""
    argv = ["--catalog", str(catalog), "report", "storage"]
    mark = len(tracer.spans)
    untraced, traced = [], []
    for _ in range(repeats):
        with tracer.paused():
            untraced.append(runner.cli(argv))
        traced.append(runner.cli(argv))
    del tracer.spans[mark:]
    untraced = sorted(runner.scaled_seconds(c) for c in untraced)
    traced = sorted(runner.scaled_seconds(c) for c in traced)
    return traced[repeats // 2] / untraced[repeats // 2] - 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("bulk-load", "curate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness self-check")
    args = parser.parse_args(argv)

    if not (SRC / "heritage_catalog" / "__init__.py").is_file():
        print(f"error: no heritage_catalog package under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import heritage_catalog as hc
    import heritage_catalog.cli  # noqa: F401  (makes hc.cli available)

    import harness
    import spans
    import workloads

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = spans.Tracer() if args.trace else None
    runner = harness.Runner(hc, tracer)
    checks = harness.Checks()
    sizes = workloads.SMOKE_SIZES if args.smoke else workloads.SIZES
    ctx = workloads.Context(hc, runner, checks, args.seed, args.seconds, work, sizes[args.workload], bool(args.trace))
    try:
        if tracer is not None:
            tracer.install(hc)
        try:
            outcome = workloads.WORKLOADS[args.workload](ctx)
            overhead = calibrate_overhead(runner, tracer, outcome.catalog) if tracer is not None else 0.0
        finally:
            if tracer is not None:
                tracer.uninstall()
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench-work").rmdir()
        except OSError:
            pass

    if tracer is not None:
        metrics = layer_metrics(tracer.spans, outcome, runner, overhead)
    else:
        metrics = {name: (outcome.metrics[name], UNITS[name]) for name in UNITS if name in outcome.metrics}
        missing = [name for name in UNITS if name not in outcome.metrics]
        checks.expect(not missing, f"metrics not measured: {missing}")
    for message in checks.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    # Diagnostics: sample counts, unscaled timings, and in a traced run the
    # end-to-end figures, whose difference from an untraced run is the
    # tracing overhead.
    print(json.dumps({"workload": args.workload, "seed": args.seed, "end_to_end": outcome.metrics, **outcome.layer}),
          file=sys.stderr)
    correct = not checks.failures
    result = {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
