"""Check every completed request of a workload run against the oracle.

Runs in its own process after the timed run, so the oracle's memory does
not count in the workload's peak RSS.

    python3 perfbench/check.py RECORD.json RESULT.json

* exact `a` / `b-*`: (S, M) weights match `spin.project_SM` within 1e-9
  and sum to 1;
* `c-deferred`: final-spin weights match the oracle within 1e-9;
* `c`: final-spin counts within 4 sigma of exact `method_a` weights;
* trotter: outcome probabilities sum to 1 and every label is valid;
* `verify`: the report passes.

Every sampled run must also report counts that sum to its shots.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

WEIGHT_TOL = 1e-9
SIGMAS = 4.0


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _load_state(path: str):
    from tqsf.statevector import StateVector

    values = np.loadtxt(path, ndmin=2)
    return StateVector(values[:, 0] + 1j * values[:, 1])


def _oracle_sm(state, n: int) -> dict[tuple[int, int], float]:
    from tqsf.spin import SpinLabel, project_SM

    return {
        (two_S, two_M): project_SM(state, SpinLabel(two_S, two_M))[0]
        for two_S in range(n % 2, n + 1, 2)
        for two_M in range(-two_S, two_S + 1, 2)
    }


def _compare(got: dict, want: dict, what: str) -> None:
    for key in set(got) | set(want):
        gap = abs(got.get(key, 0.0) - want.get(key, 0.0))
        _require(gap <= WEIGHT_TOL, f"{what} {key}: circuit {got.get(key, 0.0)!r} "
                                    f"vs oracle {want.get(key, 0.0)!r}")


def _valid_label(label: dict, n: int) -> None:
    from tqsf.filtering import PathLabel
    from tqsf.spin import SpinLabel

    if label["kind"] == "undecoded":
        return
    if label["kind"] == "spin":
        SpinLabel(label["two_S"], label["two_M"]).validate_for(n)
        return
    path = PathLabel(tuple(label["two_S_sequence"]), tuple(int(b) for b in label["step_bits"]))
    _require(len(path.step_bits) == n - 1, f"path {path} does not cover {n} qubits")
    if "two_M" in label:
        SpinLabel(path.two_S_final, label["two_M"]).validate_for(n)


def check_run(record: dict) -> None:
    argv = record["argv"]
    doc = json.loads(Path(record["files"]["out"]).read_text())
    config = doc["config"]
    n, method = int(_flag(argv, "--n")), _flag(argv, "--method")
    mode, shots = _flag(argv, "--mode", "exact"), int(_flag(argv, "--shots", "0"))
    _require((config["n"], config["method"], config["mode"], config["shots"], config["seed"])
             == (n, method, mode, shots, int(_flag(argv, "--seed"))),
             f"result config {config} does not match the request")
    rows = doc["outcomes"]
    _require(bool(rows), "no outcomes")
    if shots:
        counts = [row["count"] for row in rows]
        _require(min(counts) >= 0 and sum(counts) == shots,
                 f"counts sum to {sum(counts)}, not {shots}")
    if mode == "trotter":
        total = sum(row["probability"] for row in rows)
        _require(abs(total - 1.0) <= WEIGHT_TOL, f"probabilities sum to {total!r}")
        for row in rows:
            _valid_label(row["label"], n)
        return
    state = _load_state(record["files"]["state"])
    if method == "c":
        from tqsf.filtering import method_a

        exact = defaultdict(float)
        for outcome in method_a(state, n):
            exact[outcome.label.two_S] += outcome.probability
        counts = defaultdict(int)
        for row in rows:
            counts[row["label"]["two_S"]] += row["count"]
        _require(set(counts) <= set(exact), f"counts on spins {set(counts) - set(exact)} "
                                            "the state does not hold")
        for two_S, p in exact.items():
            sigma = max(np.sqrt(shots * p * (1 - p)), 1.0)
            dev = abs(counts.get(two_S, 0) - shots * p) / sigma
            _require(dev <= SIGMAS, f"2S={two_S}: count {counts.get(two_S, 0)} is "
                                    f"{dev:.1f} sigma from {shots * p:.1f}")
        return
    total = sum(row["probability"] for row in rows)
    _require(abs(total - 1.0) <= WEIGHT_TOL, f"probabilities sum to {total!r}")
    oracle = _oracle_sm(state, n)
    if method == "c-deferred":
        got = defaultdict(float)
        want = defaultdict(float)
        for row in rows:
            got[row["label"]["two_S"]] += row["probability"]
        for (two_S, _), weight in oracle.items():
            want[two_S] += weight
        _compare(got, want, "final 2S")
        return
    got = defaultdict(float)
    for row in rows:
        _valid_label(row["label"], n)
        got[(row["label"]["two_S"], row["label"]["two_M"])] += row["probability"]
    _compare(got, oracle, "(2S, 2M)")


def check_verify(record: dict) -> None:
    lines = record["output"].splitlines()
    _require(record["rc"] == 0, f"verify exited with {record['rc']}")
    _require(any(line.startswith("[PASS]") for line in lines), "no check reported")
    failing = [line for line in lines if line.startswith("[FAIL]")]
    _require(not failing, "; ".join(failing))
    _require(lines[-1] == "all checks passed", f"report ends with {lines[-1]!r}")


def check(record: dict) -> str | None:
    """None when the request completed with a correct output, else why not."""
    if record["rc"] != 0:
        return record["error"] or f"exit code {record['rc']}: {record['output'].strip()}"
    try:
        if record["argv"][0] == "verify":
            check_verify(record)
        else:
            check_run(record)
    except (CheckFailed, ValueError, KeyError, OSError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def main(argv: list[str]) -> int:
    record_path, result_path = argv
    records = json.loads(Path(record_path).read_text())["records"]
    results = {str(r["i"]): check(r) for r in records}
    Path(result_path).write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
