"""Smoke-size self-check of the benchmark harness.

Runs every workload once at tiny sizes, untraced and traced, through the
same oracles as a full run, and checks that the result line names exactly
the metrics BENCHMARK.json declares.  Run with:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}, proc.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_correctly(workload, trace):
    code, result, stderr = run(workload, trace)
    assert code == 0, stderr
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_generator_is_deterministic(tmp_path):
    a = gen.generate(9, 6).write_revision(tmp_path / "a")
    b = gen.generate(9, 6).write_revision(tmp_path / "b")
    for kind in a:
        assert a[kind].read_bytes() == b[kind].read_bytes()
    assert gen.generate(10, 6).bib_rows() != gen.generate(9, 6).bib_rows()


def test_generator_plants_findings():
    corpus = gen.generate(3, 20)
    kinds = sorted(line.split()[1] for line in corpus.expected_violations())
    assert kinds == [kind for kind in ("optimised_formats", "scanned_polygons_max", "scanned_polygons_min",
                                       "sls_processed_max_bytes") for _ in range(2)]
    audit = corpus.expected_audit_counts()
    assert audit["OBJ-R2"]["fail"] == audit["OBJ-A4"]["fail"] == audit["OBJ-I1"]["fail"] == 2


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    value, percentile = harness.tail(values)
    assert value == 90 and sum(v > value for v in values) == 10 and percentile == 90.0
    assert harness.tail([3, 1, 2]) == (3, 100.0)


def test_stage_latencies_take_each_stage_median():
    argvs = [["--catalog", "c", "validate"], ["--catalog", "c", "map", "m", "bibliographic"], ["init", "c"]]
    commands = [harness.Command(argv, 0, "", "", 0.0, 0) for argv in argvs * 3]
    seconds = [3.0, 2.0, 1.0, 5.0, 2.2, 1.1, 4.0, 9.0, 0.9]
    metrics = workloads.op_metrics(commands, seconds, per_stage=True)
    assert metrics["op_p50_ms"] == pytest.approx(2200.0)
    assert metrics["op_tail_ms"] == pytest.approx(4000.0)
    assert metrics["ops_per_s"] == pytest.approx(9 / sum(seconds))


def test_child_peak_excludes_the_benchmark(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import heritage_catalog as hc

    checks = harness.Checks()
    argv = ["--catalog", str(tmp_path / "none"), "report", "storage"]
    alone = harness.child_peak_rss_mb(hc, checks, argv, codes=(2,))
    ballast = [str(i) * 4 for i in range(1_500_000)]  # about 100 MB in this process
    again = harness.child_peak_rss_mb(hc, checks, argv, codes=(2,))
    assert len(ballast) and checks.failures == []
    assert 0 < again < alone + 5
