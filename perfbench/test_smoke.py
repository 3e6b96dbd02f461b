"""Smoke test of the benchmark at toy size; outside tier-1, run explicitly:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {
    "import_s": "s", "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "fail_frac": "ratio",
}
WORKLOAD_METRICS = {
    "check-dense": {"check_s": "s"},
    "check-solver": {"check_s": "s"},
    "simulate-fold": {"simulate_trials_per_s": "trials/s", "direct_s": "s", "fold_s": "s"},
}


def run(workload: str, trace: int, tmp_path: Path, *extra: str) -> tuple[dict, dict]:
    out = tmp_path / "records.jsonl"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy", "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(out.read_text().splitlines()[-1])
    return last, record


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace, tmp_path):
    last, record = run(workload, trace, tmp_path)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        e["name"]: e["unit"] for e in listed}

    expected = {**END_TO_END, **WORKLOAD_METRICS[workload]}
    if trace:
        expected.update({e["name"]: e["unit"] for e in SPEC["per_layer"]})
    units = {k: v["unit"] for k, v in record["metrics"].items()}
    assert {k: units.get(k) for k in expected} == expected
    assert record["metrics"]["fail_frac"]["value"] == 0
    assert record["meta"]["seed"] == 3 and record["meta"]["src_lines"] > 0

    if trace:
        value = {k: v["value"] for k, v in record["metrics"].items()}
        if workload == "check-dense":
            assert value["discrimination.iterations"] == 0
            assert value["discrimination.dominance_hit_frac"] == 1
        if workload == "check-solver":
            assert value["discrimination.dominance_hit_frac"] == 0
            assert value["discrimination.iterations"] > 0
        passes = len(record["pass_walls"][0]) + len(record["pass_walls"][1])
        assert value["cli.requests"] * passes == last["attempted"]


def test_spans_are_written(tmp_path):
    spans = tmp_path / "spans.jsonl"
    run("check-dense", 1, tmp_path, "--spans", str(spans))
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    names = {row["name"] for row in rows}
    assert {"cli.check", "ensembles.load_ensemble", "numpy.linalg.eigh"} <= names
    assert all(row["end"] >= row["start"] for row in rows)
    assert all(row["parent"] < row["id"] for row in rows)


def test_missing_sources_fail_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
