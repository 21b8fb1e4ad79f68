"""Self-test of the benchmark harness, in quick mode (a few seconds a run).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import catalogue, fleet, he  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "cycles", "lanes")


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_catalogue_matches_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        catalogue.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        catalogue.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        spans = json.loads(
            (ROOT / ".perfbench" / f"spans-{workload}-seed3.json").read_text())
        ids = {row[0] for row in spans["spans"]}
        assert spans["spans"]
        assert all(row[4] is None or row[4] in ids for row in spans["spans"])


@pytest.mark.parametrize("workload", ["he-mnist-ks", "he-cifar-nks"])
def test_corrupted_reference_counts_as_failed_operations(workload):
    def corrupted(model, image):
        return model.infer_plain(image) + 1.0

    result = he.run(workload, 0, 0.2, trace=False, quick=True,
                    reference=corrupted)
    assert result.attempted >= 1
    assert result.failed == result.attempted
    assert not result.correct


def _counts(workload: str) -> dict[str, float]:
    module = fleet if workload == "fleet-replay" else he
    result = module.run(workload, 5, 0.2, trace=True, quick=True)
    assert result.correct, result.problems
    units = catalogue.per_layer_units()
    return {
        name: value for name, value in result.metrics.items()
        if units[name] in COUNT_UNITS or name.endswith("virt_p99_s")
        or name == "serve.autoscale.node_seconds"
    }


def test_counts_do_not_depend_on_workload_order():
    forward = {w: _counts(w) for w in WORKLOADS}
    backward = {w: _counts(w) for w in reversed(WORKLOADS)}
    assert forward == backward
    assert forward["fleet-replay"]["core.dse.points_scanned"] > 0
    assert forward["he-mnist-ks"]["fhe.ops.hop.KeySwitch"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("he-mnist-ks", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
