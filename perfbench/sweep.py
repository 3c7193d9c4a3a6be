"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 1-10] [--trace-seeds 1]
                               [--seconds S] [--out FILE]

Run from the root of a tqsf checkout. For each seed, runs each workload
once untraced; then, for each trace seed, once traced. Prints, per
workload and metric, the median, the quartiles, the spread (interquartile
range over median) and, for end-to-end metrics, the bound from
BENCHMARK.json. `--out` writes the same figures and the machine as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def _seeds(text: str) -> list[int]:
    if not text:
        return []
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.monotonic()
    done = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"({done.returncode}):\n{done.stderr}")
    result = json.loads(lines[-1])
    notes = [line for line in lines[1:-1] if not line.startswith(tuple(result["metrics"]))]
    return {"seed": seed, "wall_s": wall, "result": result, "notes": notes}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values,
        }
    return out


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace-seeds", default="1", help="inclusive range; '' for none")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict = {w: {"untraced": [], "traced": []} for w in workloads}
    plan = [(seed, w, 0) for seed in _seeds(args.seeds) for w in workloads]
    plan += [(seed, w, 1) for seed in _seeds(args.trace_seeds) for w in workloads]
    for seed, workload, trace in plan:
        run = run_once(spec["command"], workload, seed, args.seconds, trace)
        runs[workload]["traced" if trace else "untraced"].append(run)
        result = run["result"]
        print(f"{workload} seed {seed} trace {trace}: {run['wall_s']:.1f} s wall, "
              f"correct {result['correct']}, {result['failed']}/{result['attempted']} failed",
              flush=True)

    from machine import describe

    report = {"machine": describe(Path.cwd()), "run_seconds": args.seconds, "workloads": {}}
    for workload in workloads:
        entry = {}
        for key in ("untraced", "traced"):
            if runs[workload][key]:
                entry[key] = {
                    "seeds": [run["seed"] for run in runs[workload][key]],
                    "wall_s": [round(run["wall_s"], 2) for run in runs[workload][key]],
                    "notes": {run["seed"]: run["notes"] for run in runs[workload][key]},
                    "metrics": summarise(runs[workload][key]),
                }
        report["workloads"][workload] = entry
        print(f"\n== {workload}")
        for key, block in entry.items():
            print(f"  {key} runs: {len(block['seeds'])}, wall {min(block['wall_s'])}-"
                  f"{max(block['wall_s'])} s")
            for name, m in block["metrics"].items():
                bound = bounds.get(name) if key == "untraced" else None
                spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
                flag = ""
                if bound is not None and m["spread"] is not None:
                    flag = f"  bound {bound}" + ("  SPREAD > bound/3" if m["spread"] > bound / 3
                                                 and name != "setup_s" else "")
                print(f"    {name:38s} {m['median']:12.6g} {m['unit']:6s} "
                      f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {spread}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
