"""One workload process: a closed loop with one client calling tqsf.cli.main.

The loop sends request i+1 only after request i has returned. Request 0
ends set-up; the rest of the first round warms up the other request kinds;
then whole rounds run until `--seconds` have passed. With `--trace 1`, the
first round and every other warm round run under the span tracer, and the
rounds in between run untraced, so both latencies come from one process.
With `--probe`, only request 0 runs: a fresh process timing set-up again.

Writes a JSON record of every request to `--record`; prints nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, request  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    import tqsf
    from tqsf.cli import main as tqsf_main

    src = (Path.cwd() / "src").resolve()
    if src not in Path(tqsf.__file__).resolve().parents:
        print(f"tqsf imported from {tqsf.__file__}, not from {src}", file=sys.stderr)
        return 2

    workdir = Path(args.workdir)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    records: list[dict] = []

    def issue(i: int, phase: str, traced: bool) -> None:
        kind, argv, files = request(args.workload, args.seed, i, workdir)
        out = io.StringIO()
        error = None
        if traced:
            tracer.install()
            tracer.begin(i)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                rc = tqsf_main(argv)
            except Exception:  # a crashing request is a failed request, not a crashed run
                rc, error = None, traceback.format_exc(limit=4)
        latency = time.perf_counter() - start
        record = {"i": i, "kind": kind.name, "argv": argv, "files": files, "phase": phase,
                  "traced": traced, "rc": rc, "error": error, "latency_s": latency,
                  "end_monotonic": time.monotonic(), "output": out.getvalue()}
        if traced:
            record["layers"] = tracer.end()
            tracer.uninstall()
        records.append(record)

    kinds = len(WORKLOADS[args.workload])
    issue(0, "setup", tracer is not None)
    if not args.probe:
        for i in range(1, kinds):
            issue(i, "warmup", tracer is not None)
        window_start = time.perf_counter()
        rounds = 0
        min_rounds = 2 if tracer else 1
        while rounds < min_rounds or time.perf_counter() - window_start < args.seconds:
            rounds += 1
            for k in range(kinds):
                issue(rounds * kinds + k, "warm", tracer is not None and rounds % 2 == 1)

    result = {
        "records": records,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None and args.trace_file:
        from machine import describe

        tracer.write(args.trace_file, {"workload": args.workload, "seed": args.seed,
                                       "machine": describe(Path.cwd())})
    Path(args.record).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
