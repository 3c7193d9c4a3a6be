"""tqsf benchmark: one workload run, its oracle check and its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tqsf checkout. Starts a fresh workload process (see
worker.py) so that caches start cold, then, with `--trace 0`, two more
fresh processes that each time set-up again, then the oracle check (see
check.py). Prints the machine, the check summary and every metric with its
unit, and as its last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics that
BENCHMARK.json lists with `--trace 0`, its per-layer metrics with
`--trace 1`. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 2  # fresh processes timing set-up besides the workload process
DEADLINE_S = 170.0
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mib": "MiB",
    "success_ratio": "ratio",
}

# Means over the traced warm requests (branch reuse pools their counts),
# then the figures of the set-up request.
WARM_LAYER_UNITS = {
    "cli.self_s": "s", "cli.resample_s": "s", "cli.write_s": "s",
    "states.self_s": "s", "states.load_s": "s",
    "filtering.self_s": "s", "filtering.final_state_sims": "count",
    "filtering.qpe_blocks": "count", "filtering.enumerate_decode_s": "s",
    "filtering.sampler_s": "s", "filtering.sampler_shots": "count",
    "filtering.branch_reuse_ratio": "ratio",
    "evolution.self_s": "s", "evolution.controlled_unitary_calls": "count",
    "evolution.dense_unitary_hits": "count", "evolution.dense_unitary_misses": "count",
    "spin.self_s": "s", "spin.spectrum_s": "s", "spin.spectrum_hits": "count",
    "spin.spectrum_misses": "count", "spin.eigen_oracle_s": "s",
    "spin.eigen_oracle_hits": "count", "spin.eigen_oracle_misses": "count",
    "spin.project_SM_s": "s",
    "statevector.self_s": "s", "statevector.calls": "count",
    "statevector.gib_moved": "GiB", "statevector.marginal_s": "s",
    "verification.self_s": "s", "verification.checks": "count",
    "trace.coverage_ratio": "ratio", "trace.spans": "count",
}
SETUP_LAYERS = ("spin.self_s", "spin.spectrum_s", "spin.spectrum_misses",
                "spin.eigen_oracle_s", "spin.eigen_oracle_misses",
                "evolution.self_s", "evolution.dense_unitary_misses",
                "statevector.self_s", "trace.coverage_ratio")
PER_LAYER_UNITS = {
    **WARM_LAYER_UNITS,
    **{f"setup.{name}": WARM_LAYER_UNITS[name] for name in SETUP_LAYERS},
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def p50(records: list[dict]) -> float:
    """Median latency of each request kind, averaged over the kinds.

    Kinds alternate in the round-robin and can differ in cost many times
    over; a pooled median would jump between them with the sample count.
    """
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["latency_s"])
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it. Below 2 * TAIL_BEYOND samples that percentile would not lie
    above the median, so the maximum (percentile 100) stands in."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND
    if k < TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def _subprocess(cmd: list[str], env: dict, deadline: float) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for {' '.join(cmd)}")
    try:
        done = subprocess.run(cmd, env=env, timeout=remaining, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{' '.join(cmd[:4])} timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:4])} exited with {done.returncode}:\n"
                         f"{done.stderr.strip()}")


def _spawn_worker(args, workdir: Path, record: Path, env, deadline,
                  extra: list[str]) -> float:
    """Run one workload process; returns its start time on the monotonic clock."""
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", str(workdir), "--record", str(record), *extra]
    start = time.monotonic()
    _subprocess(cmd, env, deadline)
    return start


def measure(args, root: Path, scratch: Path) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    record_path = scratch / "worker.json"
    extra = ["--trace", str(args.trace)]
    if args.trace:
        trace_file = root / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        extra += ["--trace-file", str(trace_file)]
    start = _spawn_worker(args, scratch, record_path, env, deadline, extra)
    run = json.loads(record_path.read_text())
    records = run["records"]
    setups = [records[0]["end_monotonic"] - start]
    if not args.trace:
        for k in range(SETUP_PROBES):
            probe = scratch / f"probe-{k}"
            start = _spawn_worker(args, probe, probe / "record.json", env, deadline,
                                  ["--probe"])
            setups.append(json.loads((probe / "record.json").read_text())
                          ["records"][0]["end_monotonic"] - start)

    check_path = scratch / "check.json"
    _subprocess([sys.executable, str(HERE / "check.py"), str(record_path), str(check_path)],
                env, deadline)
    problems = json.loads(check_path.read_text())
    failures = [(r, problems[str(r["i"])]) for r in records if problems[str(r["i"])]]

    attempted = len(records)
    warm = [r for r in records if r["phase"] == "warm" and not problems[str(r["i"])]]
    lines = [f"requests: {attempted} attempted, {len(failures)} failed "
             f"(fail_ratio {len(failures) / attempted:.4f})"]
    lines += [f"  failed request {r['i']} ({r['kind']}): {why.strip()[-300:]}"
              for r, why in failures]
    if not warm:
        raise BenchError("no warm request completed\n" + "\n".join(lines))
    if args.trace:
        metrics = _per_layer(records, warm, lines)
    else:
        metrics = _end_to_end(run, setups, warm, attempted, len(failures), lines)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    lines += [f"{name}: {metrics[name]:.6g} {unit}" for name, unit in units.items()]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }
    return result, lines


def _end_to_end(run, setups, warm, attempted, failed, lines) -> dict:
    latencies = [r["latency_s"] for r in warm]
    tail_value, percentile = tail(latencies)
    window = warm[-1]["end_monotonic"] - (warm[0]["end_monotonic"] - warm[0]["latency_s"])
    lines.append(f"warm requests: {len(warm)}; latency_tail_s is p{percentile:.1f} "
                 f"of {len(warm)} samples; setup_s is the median of "
                 f"{', '.join(f'{s:.3f}' for s in setups)} s")
    return {
        "setup_s": statistics.median(setups),
        "throughput_rps": len(warm) / window,
        "latency_p50_s": p50(warm),
        "latency_tail_s": tail_value,
        "peak_rss_mib": run["peak_rss_mib"],
        "success_ratio": (attempted - failed) / attempted,
    }


def _per_layer(records, warm, lines) -> dict:
    traced = [r for r in warm if r["traced"]]
    untraced = [r for r in warm if not r["traced"]]
    if not traced or not untraced:
        raise BenchError("the traced run needs traced and untraced warm rounds")
    metrics = {name: statistics.fmean(r["layers"][name] for r in traced)
               for name in WARM_LAYER_UNITS if name != "filtering.branch_reuse_ratio"}
    calls = sum(r["layers"]["filtering.branch_calls"] for r in traced)
    misses = sum(r["layers"]["filtering.branch_misses"] for r in traced)
    metrics["filtering.branch_reuse_ratio"] = (calls - misses) / calls if calls else 0.0
    for name in SETUP_LAYERS:
        metrics[f"setup.{name}"] = records[0]["layers"][name]
    metrics["trace.overhead_s"] = p50(traced) - p50(untraced)
    lines.append(f"traced warm requests: {len(traced)}, untraced: {len(untraced)}; "
                 f"latency_p50_s traced {p50(traced):.6g} s, untraced {p50(untraced):.6g} s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "tqsf" / "__init__.py").is_file():
        print(f"error: {root} is not a tqsf checkout (no src/tqsf)", file=sys.stderr)
        return 2
    from machine import describe

    print("machine: " + json.dumps({**describe(root), "workload": args.workload,
                                    "seed": args.seed, "seconds": args.seconds,
                                    "trace": args.trace}))
    scratch = root / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, lines = measure(args, root, scratch)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
