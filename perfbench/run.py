"""The trunksym benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it finds src/ next to perfbench/).  One
run of one workload: time `import trunksym` + `cli.build_parser()` in
fresh interpreters (setup_s), then repeat the workload's seeded operation
stream in fresh worker interpreters (one round each, memos cold, one
client, closed loop) until S seconds have passed.  Each operation's latency
is its median over the rounds.  Every output is checked.  The last stdout
line is the result object; the line before it holds the run context
(interpreter, platform, git sha, nproc, seed, input hash, host_ref_s,
fail_ratio, sample counts).  Exits 2, printing no result, when src/ is
missing.

With --trace 0 the metrics are the end-to-end ones below.  With --trace 1
untraced and traced rounds alternate; the metrics are the per-layer ones
(spans.py), medians over traced rounds, plus trace_overhead_ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
SETUP_CODE = (
    "import time; t = time.perf_counter(); import trunksym.cli as cli; "
    "cli.build_parser(); print(time.perf_counter() - t)"
)
# Hard stop for one run, under the 180 s a run may take.
RUN_LIMIT_S = 170
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
HOST_REF_ITERATIONS = 1_000_000


def host_ref_s() -> float:
    """Time of a fixed pure-Python loop: shows host drift next to each run."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(HOST_REF_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # the same string hashes, so set iteration order, in every round
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_times(env: dict, probes: int) -> list[float]:
    out = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def run_round(ops: list[dict], traced: bool, cache_dir: Path, env: dict, timeout: float):
    """One worker interpreter over the whole stream; None if it died."""
    cache_dir.mkdir(parents=True)
    spec = json.dumps({"ops": ops, "trace": traced, "cache_dir": str(cache_dir)})
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=spec, env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"round timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    out = json.loads(proc.stdout)
    out["cache_files"] = {
        ",".join(path.stem[len("decomp-l"):].split("-r")): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in cache_dir.glob("decomp-l*-r*.json")
    }
    return out


def fastest_half(items: list) -> list:
    """The faster half (rounded up) of repeated set-up probes.

    Interference from other tenants of the host only ever slows a
    measurement down, so the faster half of the probes of a run spreads
    less from run to run than all of them.
    """
    ordered = sorted(items)
    return ordered[: (len(ordered) + 1) // 2]


def per_op_median(rounds: list[dict]) -> list[float]:
    """The latency of each operation of the stream: its median over rounds.

    Every round runs the same stream from cold memos, so an operation does
    the same work in each.  Other tenants of the host slow single
    operations down in bursts, and whole rounds in phases of seconds; the
    median over rounds is steadier from run to run than the minimum or
    the faster rounds, because the host seldom runs at full speed.  The
    percentiles then rank one fixed set of operations, whatever the number
    of rounds.
    """
    per_round = [[x for res in r["results"] for x in res["latencies"]] for r in rounds]
    return [statistics.median(values) for values in zip(*per_round)]


def _round_seconds(round_result: dict) -> float:
    return sum(res["wall"] for res in round_result["results"])


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, mutate=None, setup_probes: int = SETUP_PROBES):
    """Run one workload; returns (result object, context object).

    `mutate(round_result)` may alter each round's outputs before they are
    checked (used by the harness tests to corrupt an output on purpose).
    """
    started = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import trunksym

    ops = workloads.make_ops(workload, seed, tiny=tiny)
    goldens = workloads.load_goldens()
    checker = workloads.Checker(trunksym, goldens)
    env = _env()
    context = {
        "workload": workload,
        "seed": seed,
        "inputs_sha256": workloads.inputs_hash(ops),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "host_ref_s": host_ref_s(),
    }
    setup = setup_times(env, setup_probes)

    scratch = SCRATCH / f"{os.getpid()}"
    expected = sum(checker.attempted(op) for op in ops)
    rounds, attempted, failed = [], 0, 0
    clock = time.perf_counter()
    try:
        while True:
            traced = trace and len(rounds) % 2 == 1
            timeout = RUN_LIMIT_S - (time.perf_counter() - started)
            result = run_round(ops, traced, scratch / str(len(rounds)), env, max(timeout, 1))
            if result is None:
                attempted += expected
                failed += expected
                break
            if mutate is not None:
                mutate(result)
            outputs = result["results"]
            attempted += expected
            failed += sum(checker.failures(op, r, result["cache_files"]) for op, r in zip(ops, outputs))
            if seed == workloads.DEFAULT_SEED and not tiny and not rounds:
                stream = "\n".join(workloads.normalized(op, r["stdout"]) if r["rc"] == 0 else ""
                                   for op, r in zip(ops, outputs))
                if workloads.digest(stream) != goldens["stream"][workload]:
                    print("default-seed output stream differs from its golden", file=sys.stderr)
                    failed += 1
            rounds.append((traced, result))
            setup += setup_times(env, 1)
            elapsed = time.perf_counter() - clock
            if elapsed >= seconds and (not trace or len(rounds) % 2 == 0):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.exists() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    timed = [r for t, r in rounds if not t]
    latencies = per_op_median(timed) if timed else []
    context.update({
        "rounds": len(timed),
        "round_seconds": [_round_seconds(r) for r in timed],
        "traced_rounds": len(rounds) - len(timed),
        "samples": len(latencies),
        "setup_samples": setup,
        "fail_ratio": failed / max(attempted, 1),
    })
    if trace:
        traced_rounds = [r for t, r in rounds if t]
        units = spans.metric_units()
        values = {name: statistics.median(r["trace"][name] for r in traced_rounds)
                  for name in units if name != "trace_overhead_ratio"} if traced_rounds else {}
        wall = statistics.median(map(_round_seconds, timed)) if timed else 0.0
        traced_wall = statistics.median(map(_round_seconds, traced_rounds)) if traced_rounds else 0.0
        values["trace_overhead_ratio"] = traced_wall / wall if wall else 0.0
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    else:
        # percentiles by linear interpolation between closest ranks
        if len(latencies) > 1:
            cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        else:
            cuts = (latencies or [0.0]) * 99
        values = {
            "setup_s": statistics.median(fastest_half(setup)),
            "ops_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
            "op_p50_ms": 1e3 * cuts[49],
            "op_p90_ms": 1e3 * cuts[89],
            "op_p99_ms": 1e3 * cuts[98],
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in timed) / 1024 if timed else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    return result, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trunksym" / "__init__.py").is_file():
        print(f"error: no trunksym sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    result, context = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
