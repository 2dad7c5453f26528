"""Tests of the benchmark harness itself (not part of the package's tests).

    python3 -m pytest -q perfbench/test_harness.py

Each workload runs at a tiny size; the timings are not checked.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(workload: str, trace: bool = False, mutate=None):
    return run.run_benchmark(workload, 3, 0, trace, tiny=True, mutate=mutate, setup_probes=1)


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_declared_metrics_match_the_harness():
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == spans.metric_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    result, context = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert context["fail_ratio"] == 0
    for key in ("python", "platform", "git_sha", "nproc", "seed", "inputs_sha256", "host_ref_s"):
        assert key in context


def test_traced_run_reaches_the_layers_of_its_workload():
    result, _ = _tiny("decomp-oracle", trace=True)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["fock.columns"] > 0 and values["cache.cache_get.calls"] > 0
    assert values["cache.hit_ratio"] > 0 and values["trace_overhead_ratio"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_hash_follows_the_seed(workload):
    first = workloads.inputs_hash(workloads.make_ops(workload, 7))
    assert first == workloads.inputs_hash(workloads.make_ops(workload, 7))
    assert first != workloads.inputs_hash(workloads.make_ops(workload, 8))


def _corrupt_json(result, pick, change):
    for res in result["results"]:
        if res["rc"] == 0 and pick(res["stdout"]):
            payload = json.loads(res["stdout"])
            change(payload)
            res["stdout"] = json.dumps(payload)
            return
    raise AssertionError("no output to corrupt")


def _drop_cache_file(result):
    result["cache_files"].popitem()


CORRUPTIONS = {
    "label-queries": lambda r: _corrupt_json(
        r, lambda out: '"mullineux"' in out and '"symbol"' in out,
        lambda p: p.update(mullineux=p["partition"][:-1] + [p["partition"][-1] + 1])),
    "decomp-oracle": _drop_cache_file,
    "char-slices": lambda r: _corrupt_json(
        r, lambda out: '"coeff"' in out,
        lambda p: p["schur_expansion"][0].update(coeff=p["schur_expansion"][0]["coeff"] + 1)),
    "crosscheck-all": lambda r: _corrupt_json(
        r, lambda out: '"checked"' in out,
        lambda p: p.update(checked=p["checked"] - 1)),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_raises_fail_ratio(workload):
    result, context = _tiny(workload, mutate=CORRUPTIONS[workload])
    assert not result["correct"] and result["failed"] > 0
    assert context["fail_ratio"] > 0


def test_invalid_witness_is_a_failure():
    ops = [{"kind": "cli", "argv": ["special", "4,2", "--l", "3", "--m", "2", "--witness"]}]
    sys.path.insert(0, str(run.SRC))
    import trunksym

    checker = workloads.Checker(trunksym, workloads.load_goldens())
    good = {"rc": 0, "stdout": json.dumps(
        {"special": True, "rule": "restricted-mull-length", "witness": [[1, [2, 1]], [1, [2, 1]]]})}
    bad = {"rc": 0, "stdout": json.dumps(
        {"special": True, "rule": "restricted-mull-length", "witness": [[2, [4, 2]]]})}
    assert checker.failures(ops[0], good, {}) == 0
    assert checker.failures(ops[0], bad, {}) == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "label-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
