"""Regenerate goldens.json from the code in this checkout.

    python3 perfbench/make_goldens.py

Goldens pin the baseline commit's outputs: the cache file and payload
checksum of every (l, r) in the decomp-oracle band, the digest of every
char slice the char-slices workload can draw, the checked count of every
suite, and the digest of each workload's default-seed output stream.
Regenerate only when an output is meant to change, and say so.
"""

from __future__ import annotations

import json
import shutil

import run
import workloads


def _round(ops: list[dict], name: str) -> dict:
    result = run.run_round(ops, False, run.SCRATCH / "goldens" / name, run._env(), timeout=3600)
    if result is None or any(r["rc"] != 0 for r in result["results"]):
        raise SystemExit(f"baseline round {name} failed")
    return result


def main() -> int:
    goldens: dict = {}
    try:
        suites = _round([{"kind": "cli", "argv": ["crosscheck", "--suite", "all"]}], "suites")
        reports = json.loads(suites["results"][0]["stdout"])
        goldens["suite_checks"] = {r["suite"]: r["checked"] for r in reports}

        band = [{"kind": "cli", "argv": ["decomp-matrix", "--l", str(l), "--degree", str(r),
                                         "--cache", "{cache}", "--unsafe-large"]}
                for l, r in workloads.DECOMP_BAND]
        decomp = _round(band, "decomp")
        goldens["decomp"] = {}
        for res in decomp["results"]:
            payload = json.loads(res["stdout"])
            key = f"{payload['l']},{payload['degree']}"
            goldens["decomp"][key] = {"checksum": payload["checksum"],
                                      "file_sha256": decomp["cache_files"][key]}

        points = workloads.CHAR_LARGE + workloads.CHAR_SMALL_GRID
        chars = _round([{"kind": "cli", "argv": ["char", "--m", str(m), "--n", str(n), "--l", str(l),
                                                 "--degree", str(r)]} for m, n, l, r in points], "char")
        goldens["char"] = {",".join(map(str, p)): workloads.digest(res["stdout"])
                           for p, res in zip(points, chars["results"])}

        goldens["stream"] = {}
        for workload in workloads.WORKLOADS:
            ops = workloads.make_ops(workload, workloads.DEFAULT_SEED)
            result = _round(ops, workload)
            stream = "\n".join(workloads.normalized(op, r["stdout"]) for op, r in zip(ops, result["results"]))
            goldens["stream"][workload] = workloads.digest(stream)
    finally:
        shutil.rmtree(run.SCRATCH / "goldens", ignore_errors=True)
    workloads.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
