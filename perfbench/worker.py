"""One round of a workload in a fresh interpreter, so memos start cold.

Reads {"ops": [...], "trace": bool, "cache_dir": str} as JSON on stdin,
builds the CLI parser once, runs the operations one after another (a
closed loop with one client) and writes one JSON object to stdout: the
outputs, per-operation latencies, peak RSS and, when traced, the
per-layer metrics.  Run by run.py with src/ on PYTHONPATH.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import spans


def main() -> int:
    spec = json.load(sys.stdin)
    import trunksym
    from trunksym import cli, suites

    parser = cli.build_parser()
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install()

    # Each suite check of a crosscheck call is one operation: stamp them.
    stamps: list[float] = []
    check = suites._Run.check

    def stamped_check(self, *args):
        check(self, *args)
        stamps.append(time.perf_counter())

    suites._Run.check = stamped_check

    def cli_call(argv):
        args = parser.parse_args(argv)
        return args.fn(args)

    if tracer is not None:
        cli_call = tracer.span(spans.CLI_SPAN, cli_call)

    results = []
    perf = time.perf_counter
    for op in spec["ops"]:
        out, err = io.StringIO(), io.StringIO()
        rc, error = 0, None
        argv = [a.replace("{cache}", spec["cache_dir"]) for a in op.get("argv", ())]
        if tracer is not None:
            tracer.witness_discarded = argv[:1] == ["special"] and "--witness" not in argv
        del stamps[:]
        t0 = perf()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if op["kind"] == "identity":
                    print(json.dumps(trunksym.verify_graded_free_identity(*op["args"])))
                else:
                    rc = cli_call(argv)
        except ValueError as exc:  # cli.main maps these to exit 2
            rc, error = 2, str(exc)
        except SystemExit as exc:  # argparse refusals
            rc, error = exc.code if isinstance(exc.code, int) else 2, err.getvalue()
        except Exception:  # any other escape is a failed operation, not a crash
            rc, error = 1, traceback.format_exc(limit=3)
        t1 = perf()
        if op["kind"] == "suites":
            edges = [t0] + stamps
            latencies = [b - a for a, b in zip(edges, edges[1:])]
        else:
            latencies = [t1 - t0]
        results.append({"rc": rc, "stdout": out.getvalue(), "error": error,
                        "latencies": latencies, "wall": t1 - t0})

    payload = {
        "results": results,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.metrics() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
